"""End-to-end tests of the command-line surface."""

import argparse
import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

from viewsynth import cli, fileio, geometry, gradcheck, losses, model, synth


def _run(argv):
    return cli.main(argv)


def _subparsers():
    """{command: its argparse subparser}, from cli._build_parser()."""
    sub, = (a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _usage_error(command, flag, rule, value):
    """The whole stderr of a flag's value refused by its checked type."""
    return (_subparsers()[command].format_usage()
            + f"viewsynth {command}: error: argument {flag}: must be {rule}, got {value}\n")


def _dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            out[name] = f.read()
    return out


def _synth(outdir, **over):
    argv = ["synth", "--out", str(outdir), "--seed", "3",
            "--width", "24", "--height", "16", "--focal", "20",
            "--frames", "3", "--step-x", "0.1"]
    for k, v in over.items():
        argv += [f"--{k.replace('_', '-')}", str(v)]
    assert _run(argv) == 0


def test_missing_required_flag_is_usage_error(capsys):
    assert _run(["synth"]) == 2  # no --out
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "viewsynth synth: error: the following arguments are required: --out\n")


def test_unknown_subcommand_is_usage_error(capsys):
    assert _run(["frobnicate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'frobnicate'" in captured.err


def test_help_returns_0(capsys):
    assert _run(["synth", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: viewsynth synth ")


def test_synth_same_seed_byte_identical(tmp_path):
    _synth(tmp_path / "a")
    _synth(tmp_path / "b")
    _synth(tmp_path / "c", seed=4)
    a, b, c = (_dir_bytes(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_synth_writes_expected_files(tmp_path):
    _synth(tmp_path / "seq")
    names = set(os.listdir(tmp_path / "seq"))
    for k in range(3):
        assert f"frame_{k:03d}.wf01" in names
        assert f"frame_{k:03d}.pgm" in names
        assert f"depth_{k:03d}.wf01" in names
    assert {"sequence.txt", "intrinsics.txt", "gt_trajectory.txt"} <= names


def test_warp_reproduces_target_frame(tmp_path):
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    out = tmp_path / "warped"
    assert _run(["warp", "--in", str(seq_dir), "--out", str(out)]) == 0
    target = fileio.load_wf01(seq_dir / "frame_001.wf01")
    for s in (0, 2):
        warped = fileio.load_wf01(out / f"warped_{s:03d}.wf01")
        valid = fileio.load_wf01(out / f"valid_{s:03d}.wf01")[..., 0] > 0.5
        err = np.abs(warped - target)[valid]
        assert err.mean() < 1e-3


def test_warp_with_too_few_gt_poses_names_the_file(tmp_path, capsys):
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    traj = seq_dir / "gt_trajectory.txt"
    traj.write_text("".join(traj.read_text().splitlines(keepends=True)[:2]))
    assert _run(["warp", "--in", str(seq_dir), "--out", str(tmp_path / "warped")]) == 1
    assert capsys.readouterr().err.endswith(f"\nviewsynth warp: {traj}: 2 poses for 3 frames\n")


@pytest.mark.parametrize("name, extra, message", [
    ("intrinsics.txt", "fx 999\n", "repeated key 'fx'"),
    ("intrinsics.txt", "fz 3\n", "unknown key 'fz'"),
    ("sequence.txt", "target 0\n", "repeated key 'target'")])
def test_warp_with_a_repeated_or_unknown_key_names_the_file(tmp_path, capsys, name, extra,
                                                            message):
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    path = seq_dir / name
    lines = len(path.read_text().splitlines())
    path.write_text(path.read_text() + extra)
    assert _run(["warp", "--in", str(seq_dir), "--out", str(tmp_path / "warped")]) == 1
    assert capsys.readouterr().err.endswith(
        f"viewsynth warp: {path}:{lines + 1}: {message}\n")
    assert not (tmp_path / "warped").exists()


@pytest.mark.parametrize("depth", [np.full((16, 24, 1), np.nan), np.full((16, 24, 1), -1.0),
                                   np.full((16, 24, 1), np.inf), np.full((16, 20, 1), 2.0),
                                   np.full((16, 24, 2), 2.0)],
                         ids=["nan", "negative", "inf", "size", "channels"])
def test_warp_with_bad_gt_depth_names_the_file(tmp_path, capsys, depth):
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    path = seq_dir / "depth_001.wf01"
    fileio.save_wf01(path, depth)
    assert _run(["warp", "--in", str(seq_dir), "--out", str(tmp_path / "warped")]) == 1
    assert f"viewsynth warp: {path}: " in capsys.readouterr().err


def test_fit_runs_and_is_byte_deterministic(tmp_path):
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    fit_argv = ["fit", "--in", str(seq_dir), "--levels", "2",
                "--lr", "0.01", "--max-iters", "40"]
    assert _run(fit_argv + ["--out", str(tmp_path / "f1")]) == 0
    assert _run(fit_argv + ["--out", str(tmp_path / "f2")]) == 0
    assert _dir_bytes(tmp_path / "f1") == _dir_bytes(tmp_path / "f2")

    names = set(os.listdir(tmp_path / "f1"))
    assert {"depth.wf01", "checkpoint.bin", "trajectory.txt", "history.txt"} <= names
    assert any(n.startswith("mask_") for n in names)


def test_fit_no_explainability_writes_no_masks(tmp_path):
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    out = tmp_path / "fit"
    assert _run(["fit", "--in", str(seq_dir), "--out", str(out),
                 "--levels", "2", "--lr", "0.01", "--max-iters", "20",
                 "--no-explainability"]) == 0
    assert not any(n.startswith("mask_") for n in os.listdir(out))


@pytest.mark.parametrize("order", [("--lambda-e", "50", "--no-explainability"),
                                   ("--no-explainability", "--lambda-e", "0.2")])
def test_fit_lambda_e_without_masks_is_usage_error(tmp_path, capsys, order):
    # The mask regularizer's weight is unused without masks, so giving both
    # is refused rather than read and dropped.
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    capsys.readouterr()
    assert _run(["fit", "--in", str(seq_dir), "--out", str(tmp_path / "fit"),
                 "--max-iters", "3", *order]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert "--lambda-e" in err and "--no-explainability" in err and "not allowed" in err
    assert not (tmp_path / "fit").exists()


def test_fit_depth_prior_is_the_initial_depth(tmp_path):
    # fit --depth-prior 3 starts from init_state's constant depth 3: its
    # checkpoint equals the API fit's from that state, and differs from the
    # default prior's.
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    argv = ["fit", "--in", str(seq_dir), "--levels", "2", "--lr", "0.01", "--max-iters", "5"]
    assert _run(argv + ["--out", str(tmp_path / "prior3"), "--depth-prior", "3"]) == 0
    assert _run(argv + ["--out", str(tmp_path / "prior1")]) == 0
    seq = synth.load_sequence(seq_dir)
    cfg = losses.LossConfig(num_levels=2)
    state = model.init_state(seq.frames, seq.target_index, seq.intrinsics, cfg, depth_prior=3.0)
    assert np.allclose(state.depth(), 3.0)
    result = model.fit_snippet(seq.frames, seq.target_index, seq.intrinsics, cfg,
                               model.AdamConfig(lr=0.01, max_iters=5), state=state)
    model.save_checkpoint(tmp_path / "api.bin", result.snippet, result.state)
    cli_bytes = (tmp_path / "prior3" / "checkpoint.bin").read_bytes()
    assert cli_bytes == (tmp_path / "api.bin").read_bytes()
    assert cli_bytes != (tmp_path / "prior1" / "checkpoint.bin").read_bytes()


def test_fit_identical_frames_keeps_identity_poses(tmp_path):
    seq_dir = tmp_path / "seq"
    _synth(seq_dir, step_x=0.0)  # zero motion: all frames equal
    out = tmp_path / "fit"
    assert _run(["fit", "--in", str(seq_dir), "--out", str(out),
                 "--levels", "2", "--lr", "0.01", "--max-iters", "30",
                 "--no-explainability"]) == 0
    for T in fileio.load_trajectory(out / "trajectory.txt"):
        assert np.max(np.abs(T - np.eye(4))) < 1e-3


def test_fit_missing_input_dir_is_runtime_error(tmp_path):
    assert _run(["fit", "--in", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.25])
def test_fit_bad_frame_pixel_names_the_file(tmp_path, capsys, bad):
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    frame = seq_dir / "frame_002.wf01"
    img = fileio.load_wf01(frame)
    img[3, 4, 0] = bad
    fileio.save_wf01(frame, img)
    assert _run(["fit", "--in", str(seq_dir), "--out", str(tmp_path / "fit"),
                 "--max-iters", "5"]) == 1
    err = capsys.readouterr().err
    assert str(frame) in err and "non-finite" not in err


@pytest.mark.parametrize("command", ["fit", "warp"])
@pytest.mark.parametrize("name, channels, message", [
    ("frame_002.wf01", 0, "frame has no channels"),
    ("frame_000.wf01", 0, "frame has no channels"),
    ("frame_002.wf01", 3, "3 channels, but frame 0 has 1"),
])
def test_frame_channel_count_names_the_file(tmp_path, capsys, command, name, channels, message):
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    frame = seq_dir / name
    fileio.save_wf01(frame, np.full((16, 24, channels), 0.5))
    capsys.readouterr()
    argv = [command, "--in", str(seq_dir), "--out", str(tmp_path / "out")]
    assert _run(argv + (["--max-iters", "3"] if command == "fit" else [])) == 1
    assert capsys.readouterr().err == f"viewsynth {command}: {frame}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_fit_infinite_focal_length_names_the_file(tmp_path, capsys):
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    K_path = seq_dir / "intrinsics.txt"
    K_path.write_text(K_path.read_text().replace("fx 20\n", "fx inf\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["fit", "--in", str(seq_dir), "--out", str(tmp_path / "fit"),
                     "--max-iters", "3"]) == 1
    err = capsys.readouterr().err
    assert f"{K_path}:1:" in err and "fx" in err
    assert "RuntimeWarning" not in err and "pose parameters" not in err


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_fit_nonpositive_max_iters_is_runtime_error(tmp_path, capsys, iters):
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    assert _run(["fit", "--in", str(seq_dir), "--out", str(tmp_path / "fit"),
                 "--max-iters", iters]) == 1
    err = capsys.readouterr().err
    assert "max_iters" in err and iters in err


@pytest.mark.parametrize("levels, message", [
    ("0", _usage_error("fit", "--levels", ">= 1", 0)),
    ("-1", _usage_error("fit", "--levels", ">= 1", -1)),
    ("5", _subparsers()["fit"].format_usage() + "viewsynth fit: error: argument --levels: "
          "5 is more than 24x16 frames allow; at most 4\n"),
    ("9", _subparsers()["fit"].format_usage() + "viewsynth fit: error: argument --levels: "
          "9 is more than 24x16 frames allow; at most 4\n"),
])
def test_fit_levels_out_of_range_is_usage_error(tmp_path, capsys, levels, message):
    # 24x16 halves to 12x8, 6x4 and 3x2; a fifth level would be 1 pixel high.
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    capsys.readouterr()
    assert _run(["fit", "--in", str(seq_dir), "--out", str(tmp_path / "fit"),
                 "--max-iters", "3", "--levels", levels]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
    assert not (tmp_path / "fit").exists()


def test_fit_levels_at_the_frame_limit_fits_every_level(tmp_path):
    seq_dir, fit_dir = tmp_path / "seq", tmp_path / "fit"
    _synth(seq_dir)
    assert losses.max_pyramid_levels(16, 24) == 4
    assert _run(["fit", "--in", str(seq_dir), "--out", str(fit_dir), "--max-iters", "3",
                 "--levels", "4"]) == 0
    masks = sorted(f for f in os.listdir(fit_dir) if f.startswith("mask_"))
    assert masks == [f"mask_l{l}_s{s}.wf01" for l in range(4) for s in range(2)]


@pytest.mark.parametrize("height, width, levels", [
    (1, 1, 1), (3, 3, 1), (4, 4, 2), (4, 100, 2), (7, 9, 2), (8, 8, 3), (128, 416, 7)])
def test_max_pyramid_levels_is_what_build_pyramid_makes(height, width, levels):
    assert losses.max_pyramid_levels(height, width) == levels
    assert len(losses.build_pyramid(np.zeros((height, width)), levels + 3)) == levels


@pytest.mark.parametrize("flag, value, field", [
    ("--depth-prior", "0", "depth prior"),
    ("--depth-prior", "-2", "depth prior"),
    ("--lr", "nan", "lr"),
    ("--lr", "inf", "lr"),
    ("--lambda-s", "nan", "lambda_s"),
    ("--lambda-e", "inf", "lambda_e"),
])
def test_fit_bad_hyperparameter_names_it(tmp_path, capsys, flag, value, field):
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    capsys.readouterr()
    assert _run(["fit", "--in", str(seq_dir), "--out", str(tmp_path / "fit"),
                 "--max-iters", "3", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"viewsynth fit: {field} must be finite and ")
    assert f"got {float(value)}" in err
    assert not (tmp_path / "fit").exists()


# Every numeric option of every subcommand, as (command, flag, bad value):
# NaN for a float, -1 for an int.
_NUMERIC_FLAGS = [(command, action.option_strings[-1], bad)
                  for command, parser in _subparsers().items()
                  for action in parser._actions
                  for kind, bad in (("float", "nan"), ("int", "-1"))
                  if action.option_strings and getattr(action.type, "__name__", None) == kind]
# The flags whose values only the library checks: their bad values exit 1,
# naming the API field, not the flag.
_LIBRARY_CHECKED = {("fit", "--lr"), ("fit", "--depth-prior"), ("fit", "--lambda-s"),
                    ("fit", "--lambda-e"), ("fit", "--max-iters"), ("synth", "--noise"),
                    ("synth", "--depth")}


def test_numeric_flag_walk_sees_the_library_checked_flags():
    assert _LIBRARY_CHECKED < {(command, flag) for command, flag, _ in _NUMERIC_FLAGS}


@pytest.mark.parametrize("command, flag, bad", _NUMERIC_FLAGS,
                         ids=[f"{c}{f}={b}" for c, f, b in _NUMERIC_FLAGS])
def test_every_numeric_flag_refuses_a_bad_value(tmp_path, capsys, command, flag, bad):
    # The other flags are valid, so the flag under test is the only fault.
    seq, depth, traj, out = (tmp_path / n for n in ("seq", "d.wf01", "t.txt", "out"))
    _synth(seq)
    fileio.save_wf01(depth, np.full((6, 8, 1), 2.0))
    fileio.save_trajectory(traj, [np.eye(4)] * 5)
    base = {"synth": ["--out", str(out)],
            "fit": ["--in", str(seq), "--out", str(out), "--max-iters", "3"],
            "gradcheck": ["--instances", "1"],
            "eval-depth": ["--in", str(depth), "--gt", str(depth), "--out", str(out)],
            "eval-odom": ["--in", str(traj), "--gt", str(traj), "--out", str(out)]}[command]
    capsys.readouterr()
    code = _run([command, *base, f"{flag}={bad}"])
    captured = capsys.readouterr()
    assert code == (1 if (command, flag) in _LIBRARY_CHECKED else 2), captured.err
    assert captured.out == ""
    assert "Traceback" not in captured.err
    if code == 2:
        assert f"viewsynth {command}: error: argument {flag}: must be " in captured.err
    assert not out.exists()


@pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
def test_synth_bad_noise_is_runtime_error(tmp_path, capsys, noise):
    assert _run(["synth", "--out", str(tmp_path / "seq"), "--noise", noise]) == 1
    assert capsys.readouterr().err == (
        f"viewsynth synth: noise_sigma must be finite and >= 0, got {float(noise)}\n")
    assert not (tmp_path / "seq").exists()


@pytest.mark.parametrize("flag, value, rule", [
    ("--step-x", "nan", "finite"),
    ("--step-x", "inf", "finite"),
    ("--step-z", "-inf", "finite"),
    ("--step-z", "nan", "finite"),
    ("--width", "0", ">= 1"),
    ("--height", "-2", ">= 1"),
    ("--focal", "0", "finite and > 0"),
    ("--focal", "nan", "finite and > 0"),
    ("--focal", "-3", "finite and > 0"),
    ("--focal", "inf", "finite and > 0"),
])
def test_synth_bad_step_or_size_is_usage_error(tmp_path, capsys, flag, value, rule):
    assert _run(["synth", "--out", str(tmp_path / "seq"), f"{flag}={value}"]) == 2
    parsed = value if flag in ("--width", "--height") else float(value)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _usage_error("synth", flag, rule, parsed)
    assert not (tmp_path / "seq").exists()


@pytest.mark.parametrize("depth", ["nan", "inf", "-inf", "0"])
def test_synth_bad_depth_is_runtime_error(tmp_path, capsys, depth):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["synth", "--out", str(tmp_path / "seq"), f"--depth={depth}"]) == 1
    assert capsys.readouterr().err == (
        f"viewsynth synth: depth must be finite and > 0, got {float(depth)}\n")
    assert not (tmp_path / "seq").exists()


_REFIT_FAULTS = """
import resource, sys
from viewsynth import cli
seq, out = sys.argv[1], sys.argv[2]
fit = ["fit", "--in", seq, "--out", out, "--levels", "4", "--lr", "0.01", "--max-iters", "4"]
assert cli.main(["synth", "--out", seq, "--scene", "slanted", "--frames", "5", "--width", "416",
                 "--height", "128", "--focal", "240", "--step-x", "0.05"]) == 0
assert cli.main(fit) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert cli.main(fit) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc policy")
def test_fit_reuses_the_memory_its_iterations_free(tmp_path):
    # In a fresh process, a second 4-iteration 416x128 fit: with glibc's
    # default policy each iteration faults in about 7k fresh pages.
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root] + sys.path))
    out = subprocess.run([sys.executable, "-c", _REFIT_FAULTS, str(tmp_path / "seq"),
                          str(tmp_path / "fit")], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout.split()[-1]) < 2000


def test_fit_without_valid_pixels_is_runtime_error(tmp_path, capsys):
    # At lr 1 the first Adam step moves every pose by about 1 scene unit,
    # which takes every source pixel out of its image.
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    capsys.readouterr()
    assert _run(["fit", "--in", str(seq_dir), "--out", str(tmp_path / "fit"),
                 "--levels", "2", "--lr", "1", "--max-iters", "20"]) == 1
    assert capsys.readouterr().err == "viewsynth fit: no valid pixels at iteration 2\n"


@pytest.mark.parametrize("n", ["0", "-1", "30"])
def test_gradcheck_instances_out_of_range_is_usage_error(capsys, n):
    assert _run(["gradcheck", "--instances", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _usage_error("gradcheck", "--instances",
                                        f"in 1..{len(gradcheck.DEFAULT_SEEDS)}", n)


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "0"])
def test_gradcheck_bad_tolerance_is_usage_error(capsys, tolerance):
    assert _run(["gradcheck", "--instances", "1", "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _usage_error("gradcheck", "--tolerance", "finite and > 0",
                                        float(tolerance))


def test_gradcheck_passes_and_detects_injected_bug(capsys):
    assert _run(["gradcheck", "--instances", "2"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out

    assert _run(["gradcheck", "--instances", "2", "--inject-grad-bug"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_fails_on_a_nan_error(capsys, monkeypatch):
    # A NaN pose gradient in the first instance: NaN is the worst error.
    total_loss = losses.total_loss
    seen = []

    def nan_poses(snippet, params, config, want_grads=True):
        report, grads = total_loss(snippet, params, config, want_grads)
        if grads is not None and not seen:
            seen.append(grads)
            grads.poses[:] = np.nan
        return report, grads

    monkeypatch.setattr(losses, "total_loss", nan_poses)
    assert _run(["gradcheck", "--instances", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "poses nan FAIL" in lines
    assert any(line.startswith("depth_logits ") and line.endswith(" ok") for line in lines)


def test_eval_depth_perfect_prediction(tmp_path, capsys):
    gt = np.random.default_rng(0).uniform(1, 5, (6, 8, 1))
    p = tmp_path / "d.wf01"
    fileio.save_wf01(p, gt)
    assert _run(["eval-depth", "--in", str(p), "--gt", str(p)]) == 0
    out = capsys.readouterr().out
    assert "abs_rel 0" in out and "delta1 1" in out


@pytest.mark.parametrize("cap", ["nan", "inf", "-1", "0"])
def test_eval_depth_bad_cap_is_usage_error(tmp_path, capsys, cap):
    p = tmp_path / "d.wf01"
    fileio.save_wf01(p, np.full((6, 8, 1), 2.0))
    assert _run(["eval-depth", "--in", str(p), "--gt", str(p), "--cap", cap,
                 "--out", str(tmp_path / "report")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _usage_error("eval-depth", "--cap", "finite and > 0", float(cap))
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("crop", ["nan", "0", "-0.5", "1.5"])
def test_eval_depth_bad_crop_is_usage_error(tmp_path, capsys, crop):
    p = tmp_path / "d.wf01"
    fileio.save_wf01(p, np.full((6, 8, 1), 2.0))
    assert _run(["eval-depth", "--in", str(p), "--gt", str(p), "--crop", crop,
                 "--out", str(tmp_path / "report")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _usage_error("eval-depth", "--crop", "in (0, 1]", float(crop))
    assert not (tmp_path / "report").exists()


def _degenerate(bad):
    """A 6 x 8 depth map of 2.0 with one fault: the value `bad` at one pixel,
    or, for "channels", a second channel."""
    if bad == "channels":
        return np.full((6, 8, 2), 2.0)
    depth = np.full((6, 8, 1), 2.0)
    depth[3, 5] = float(bad)
    return depth


@pytest.mark.parametrize("which", ["in", "gt"])
@pytest.mark.parametrize("bad, condition", [
    ("nan", "depth values must be finite and > 0, got nan"),
    ("inf", "depth values must be finite and > 0, got inf"),
    ("-inf", "depth values must be finite and > 0, got -inf"),
    ("0", "depth values must be finite and > 0, got 0.0"),
    ("-1", "depth values must be finite and > 0, got -1.0"),
    ("channels", "2 depth channels, not 1"),
], ids=["nan", "inf", "-inf", "zero", "negative", "channels"])
def test_eval_depth_rejects_a_degenerate_map(tmp_path, capsys, which, bad, condition):
    good, broken = tmp_path / "good.wf01", tmp_path / "broken.wf01"
    fileio.save_wf01(good, np.full((6, 8, 1), 2.0))
    fileio.save_wf01(broken, _degenerate(bad))
    files = {"in": good, "gt": good, which: broken}
    assert _run(["eval-depth", "--in", str(files["in"]), "--gt", str(files["gt"])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"viewsynth eval-depth: {broken}: {condition}\n"


def test_eval_depth_is_scale_invariant(tmp_path):
    rng = np.random.default_rng(1)
    gt = rng.uniform(1, 5, (6, 8, 1)).astype(np.float32).astype(float)
    pred = gt * rng.uniform(0.9, 1.1, gt.shape).astype(np.float32)
    fileio.save_wf01(tmp_path / "gt.wf01", gt)
    fileio.save_wf01(tmp_path / "p1.wf01", pred)
    fileio.save_wf01(tmp_path / "p2.wf01", 4.0 * pred)
    for name in ("r1", "r2"):
        assert _run(["eval-depth", "--in", str(tmp_path / f"p{name[1]}.wf01"),
                     "--gt", str(tmp_path / "gt.wf01"),
                     "--out", str(tmp_path / name)]) == 0
    r1 = (tmp_path / "r1").read_text()
    r2 = (tmp_path / "r2").read_text()
    # Everything except the reported scale matches.
    keep = [l for l in r1.splitlines() if not l.startswith("scale")]
    keep2 = [l for l in r2.splitlines() if not l.startswith("scale")]
    assert keep == keep2


def test_eval_odom_identity_and_mismatch(tmp_path, capsys):
    rng = np.random.default_rng(4)
    traj = [geometry.pose_to_transform(rng.normal(0, 0.2, 6))
            for _ in range(7)]
    p = tmp_path / "t.txt"
    fileio.save_trajectory(p, traj)
    assert _run(["eval-odom", "--in", str(p), "--gt", str(p),
                 "--snippet-len", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("mean_ate 0\n")
    assert out.count("snippet") == 3

    short = tmp_path / "short.txt"
    fileio.save_trajectory(short, traj[:3])
    assert _run(["eval-odom", "--in", str(short), "--gt", str(short),
                 "--snippet-len", "5"]) == 1


@pytest.mark.parametrize("length", ["1", "0", "-3"])
def test_eval_odom_short_snippet_len_is_usage_error(tmp_path, capsys, length):
    p = tmp_path / "t.txt"
    fileio.save_trajectory(p, [np.eye(4)] * 5)
    assert _run(["eval-odom", "--in", str(p), "--gt", str(p), "--snippet-len", length,
                 "--out", str(tmp_path / "report")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _usage_error("eval-odom", "--snippet-len", ">= 2", length)
    assert not (tmp_path / "report").exists()


def test_eval_odom_hand_worked_example(tmp_path, capsys):
    # gt moves 1 unit in x per frame; pred is the same path at half scale,
    # so the fitted scale removes all error.
    gt = [geometry.pose_to_transform([0, 0, 0, k, 0, 0])
          for k in range(5)]
    pred = [geometry.pose_to_transform([0, 0, 0, 0.5 * k, 0, 0])
            for k in range(5)]
    fileio.save_trajectory(tmp_path / "gt.txt", gt)
    fileio.save_trajectory(tmp_path / "pred.txt", pred)
    assert _run(["eval-odom", "--in", str(tmp_path / "pred.txt"),
                 "--gt", str(tmp_path / "gt.txt"), "--snippet-len", "5"]) == 0
    assert capsys.readouterr().out.startswith("mean_ate 0\n")


def test_eval_odom_nonfinite_row_names_the_line(tmp_path, capsys):
    traj = [geometry.pose_to_transform([0, 0, 0, 0.1 * k, 0, 0]) for k in range(5)]
    good = tmp_path / "gt.txt"
    fileio.save_trajectory(good, traj)
    bad = tmp_path / "pred.txt"
    lines = good.read_text().splitlines()
    lines[2] = " ".join(["nan"] * 12)
    bad.write_text("\n".join(lines) + "\n")
    assert _run(["eval-odom", "--in", str(bad), "--gt", str(good),
                 "--snippet-len", "5"]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:3" in err and "non-finite" in err
