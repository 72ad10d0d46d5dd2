import numpy as np
import pytest

from viewsynth import geometry, sampler, synth
from viewsynth.geometry import Intrinsics
from viewsynth.synth import SceneSpec


def _camera(w=32, h=24, f=40.0):
    return Intrinsics(fx=f, fy=f, cx=w / 2, cy=h / 2, width=w, height=h)


def _plane_spec(**kw):
    defaults = dict(
        kind="plane", texture_seed=3, depth=2.0,
        trajectory=synth.linear_trajectory(3, (0.1, 0.0, 0.0)),
        intrinsics=_camera(),
    )
    defaults.update(kw)
    return SceneSpec(**defaults)


def test_zero_motion_frames_identical():
    spec = _plane_spec(trajectory=np.zeros((3, 6)))
    seq = synth.render_scene(spec)
    for fr in seq.frames[1:]:
        assert np.array_equal(fr, seq.frames[0])


def test_pure_x_translation_is_closed_form_shift():
    # frame k equals frame 0 shifted by fx * k * tx / D pixels.
    K = _camera(w=40, h=20, f=50.0)
    D, tx = 2.0, 0.2  # shift of 5 px per frame
    spec = _plane_spec(intrinsics=K, depth=D,
                       trajectory=synth.linear_trajectory(3, (tx, 0.0, 0.0)))
    seq = synth.render_scene(spec)
    shift = int(round(K.fx * tx / D))
    for k in (1, 2):
        s = k * shift
        diff = np.abs(seq.frames[k][:, : 40 - s] - seq.frames[0][:, s:])
        assert diff.max() < 1e-6


def test_ground_truth_depth_of_fronto_parallel_plane():
    seq = synth.render_scene(_plane_spec(depth=3.5))
    for d in seq.gt_depths:
        assert np.array_equal(d, np.full_like(d, 3.5))


def test_rendering_deterministic_per_seed():
    a = synth.render_scene(_plane_spec(texture_seed=9))
    b = synth.render_scene(_plane_spec(texture_seed=9))
    c = synth.render_scene(_plane_spec(texture_seed=10))
    assert np.array_equal(a.frames[0], b.frames[0])
    assert not np.array_equal(a.frames[0], c.frames[0])


def test_slanted_and_two_plane_scenes():
    seq = synth.render_scene(_plane_spec(kind="slanted"))
    d = seq.gt_depths[0]
    assert d[:, -1].mean() > d[:, 0].mean()  # depth grows with world x

    seq = synth.render_scene(_plane_spec(kind="two_plane"))
    d = seq.gt_depths[1]
    assert d.min() < 2.5 and d.max() > 3.5  # both planes visible


def test_plane_behind_camera_raises():
    traj = [[0, 0, 0, 0, 0, 5.0], [0, 0, 0, 0, 0, 5.5]]
    with pytest.raises(ValueError, match="behind"):
        synth.render_scene(_plane_spec(depth=2.0, trajectory=traj))


def test_noise_is_applied_and_clamped():
    clean = synth.render_scene(_plane_spec())
    noisy = synth.render_scene(_plane_spec(noise_sigma=0.05))
    assert not np.array_equal(clean.frames[0], noisy.frames[0])
    assert noisy.frames[0].min() >= 0.0 and noisy.frames[0].max() <= 1.0


def test_warp_consistency_with_ground_truth():
    # Warping a source with exact depth and pose reproduces the target up to
    # interpolation error.
    seq = synth.render_scene(_plane_spec())
    t = seq.target_index
    depth = seq.gt_depths[t]
    for s in (0, 2):
        T = synth.relative_pose(seq, s)
        w = sampler.inverse_warp(seq.frames[s], depth, T, seq.intrinsics)
        err = np.abs(w.warped - seq.frames[t])[w.valid]
        assert err.mean() < 1e-3


def test_sequence_roundtrip_bit_identical(tmp_path):
    seq = synth.render_scene(_plane_spec())
    # Quantize to float32 so the WF01 container round-trips bit-exactly.
    seq.frames = [f.astype(np.float32).astype(float) for f in seq.frames]
    seq.gt_depths = [d.astype(np.float32).astype(float) for d in seq.gt_depths]
    synth.save_sequence(seq, tmp_path)
    back = synth.load_sequence(tmp_path)
    assert back.target_index == seq.target_index
    assert back.intrinsics == seq.intrinsics
    for a, b in zip(back.frames, seq.frames):
        assert np.array_equal(a, b)
    for a, b in zip(back.gt_depths, seq.gt_depths):
        assert np.array_equal(a, b)
    for a, b in zip(back.gt_poses, seq.gt_poses):
        assert np.array_equal(a, b)


def test_spec_validation():
    with pytest.raises(ValueError):
        _plane_spec(kind="sphere")
    with pytest.raises(ValueError):
        _plane_spec(depth=-1.0)
    with pytest.raises(ValueError, match="trajectory must be an"):
        _plane_spec(trajectory=np.zeros((1, 6)))


@pytest.mark.parametrize("trajectory", [(), np.zeros(6), np.zeros((3, 5)), np.zeros((3, 7)),
                                        np.zeros((2, 3, 6)), [[0.0] * 6, [0.0] * 5]])
def test_spec_rejects_a_trajectory_not_shaped_n_by_6(trajectory):
    with pytest.raises(ValueError):
        _plane_spec(trajectory=trajectory)


def test_spec_keeps_a_read_only_copy_of_the_trajectory():
    traj = synth.linear_trajectory(3, (0.1, 0.0, 0.0))
    spec = _plane_spec(trajectory=traj)
    traj[0, 3] = 5.0
    assert spec.trajectory[0, 3] == -0.1
    with pytest.raises(ValueError):
        spec.trajectory[0, 3] = 5.0
    assert spec == spec and spec != _plane_spec(trajectory=traj) and spec in {spec}


def test_linear_trajectory_is_centered_translation_rows():
    traj = synth.linear_trajectory(4, (0.2, -0.1, 0.4))
    assert traj.shape == (4, 6)
    assert np.array_equal(traj[:, :3], np.zeros((4, 3)))
    for k in range(4):
        assert traj[k, 3:].tolist() == [(k - 1.5) * 0.2, (k - 1.5) * -0.1, (k - 1.5) * 0.4]


@pytest.mark.parametrize("field", ["depth"])
@pytest.mark.parametrize("depth", [0.0, float("nan"), float("inf"), float("-inf")])
def test_spec_rejects_nonpositive_or_nonfinite_depth(field, depth):
    with pytest.raises(ValueError, match=f"{field} must be finite and > 0, got {depth}"):
        _plane_spec(**{field: depth})


@pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
def test_spec_rejects_negative_or_nonfinite_noise(sigma):
    with pytest.raises(ValueError, match=f"noise_sigma must be finite and >= 0, got {sigma}"):
        _plane_spec(noise_sigma=sigma)
