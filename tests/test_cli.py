"""End-to-end tests of the command-line surface."""

import os

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


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_fit_nonpositive_max_iters_is_runtime_error(tmp_path, capsys, iters):
    seq_dir = tmp_path / "seq"
    _synth(seq_dir)
    assert _run(["fit", "--in", str(seq_dir), "--out", str(tmp_path / "fit"),
                 "--max-iters", iters]) == 1
    err = capsys.readouterr().err
    assert "max_iters" in err and iters in err


@pytest.mark.parametrize("n", ["0", "-1", "30"])
def test_gradcheck_instances_out_of_range_is_usage_error(capsys, n):
    assert _run(["gradcheck", "--instances", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"1..{len(gradcheck.DEFAULT_SEEDS)}" in captured.err and n in captured.err


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
