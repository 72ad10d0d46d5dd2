"""End-to-end tests of the command-line surface."""

import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

from viewsynth import cli, fileio, geometry, gradcheck


def _run(argv):
    return cli.main(argv)


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


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as e:
        _run(["synth"])  # no --out
    assert e.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as e:
        _run(["frobnicate"])
    assert e.value.code == 2


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


@pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
def test_synth_bad_noise_is_runtime_error(tmp_path, capsys, noise):
    assert _run(["synth", "--out", str(tmp_path / "seq"), "--noise", noise]) == 1
    assert capsys.readouterr().err == (
        f"viewsynth synth: noise_sigma must be finite and >= 0, got {float(noise)}\n")
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
    # default policy each iteration faults in about 10k fresh pages.
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
    assert f"1..{len(gradcheck.DEFAULT_SEEDS)}" in captured.err and n in captured.err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "0"])
def test_gradcheck_bad_tolerance_is_usage_error(capsys, tolerance):
    assert _run(["gradcheck", "--instances", "1", "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"gradcheck: --tolerance must be finite and > 0, got {float(tolerance)}\n")


def test_gradcheck_passes_and_detects_injected_bug(capsys):
    assert _run(["gradcheck", "--instances", "2"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out

    assert _run(["gradcheck", "--instances", "2", "--inject-grad-bug"]) == 1
    assert "FAIL" in capsys.readouterr().out


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
    assert _run(["eval-depth", "--in", str(p), "--gt", str(p), "--cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"eval-depth: --cap must be finite and > 0, got {float(cap)}\n"


@pytest.mark.parametrize("crop", ["nan", "0", "-0.5", "1.5"])
def test_eval_depth_bad_crop_is_usage_error(tmp_path, capsys, crop):
    p = tmp_path / "d.wf01"
    fileio.save_wf01(p, np.full((6, 8, 1), 2.0))
    assert _run(["eval-depth", "--in", str(p), "--gt", str(p), "--crop", crop]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"eval-depth: --crop must be in (0, 1], got {float(crop)}\n"


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
    traj = [geometry.pose_to_transform(geometry.PoseParams(*rng.normal(0, 0.2, 6)))
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
    assert _run(["eval-odom", "--in", str(p), "--gt", str(p), "--snippet-len", length]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"eval-odom: --snippet-len must be >= 2, got {length}\n"


def test_eval_odom_hand_worked_example(tmp_path, capsys):
    # gt moves 1 unit in x per frame; pred is the same path at half scale,
    # so the fitted scale removes all error.
    gt = [geometry.pose_to_transform(geometry.PoseParams(tx=float(k)))
          for k in range(5)]
    pred = [geometry.pose_to_transform(geometry.PoseParams(tx=0.5 * k))
            for k in range(5)]
    fileio.save_trajectory(tmp_path / "gt.txt", gt)
    fileio.save_trajectory(tmp_path / "pred.txt", pred)
    assert _run(["eval-odom", "--in", str(tmp_path / "pred.txt"),
                 "--gt", str(tmp_path / "gt.txt"), "--snippet-len", "5"]) == 0
    assert capsys.readouterr().out.startswith("mean_ate 0\n")


def test_eval_odom_nonfinite_row_names_the_line(tmp_path, capsys):
    traj = [geometry.pose_to_transform(geometry.PoseParams(tx=0.1 * k)) for k in range(5)]
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
