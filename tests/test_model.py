import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewsynth import losses, model
from viewsynth.geometry import Intrinsics
from viewsynth.losses import LossConfig
from viewsynth.model import AdamConfig, AdamMoments, SnippetState


def _images(seed=0, n=3, h=8, w=10):
    rng = np.random.default_rng(seed)
    return [rng.random((h, w, 1)) for _ in range(n)]


K = Intrinsics(fx=10.0, fy=10.0, cx=5.0, cy=4.0, width=10, height=8)
CFG = LossConfig(num_levels=2, use_explainability=True)


@given(st.floats(-30, 30))
@settings(max_examples=100)
def test_activated_depth_stays_inside_open_interval(logit):
    d = model.activate_depth(logit)
    lo = 1.0 / (model.DEPTH_ALPHA + model.DEPTH_BETA)
    hi = 1.0 / model.DEPTH_BETA
    assert lo < d < hi


def test_depth_to_logit_roundtrip():
    for depth in (0.2, 1.0, 5.0, 50.0):
        assert abs(model.activate_depth(model.depth_to_logit(depth)) - depth) < 1e-9
    with pytest.raises(ValueError):
        model.depth_to_logit(1000.0)


def test_init_state_defaults():
    state = model.init_state(_images(), 1, K, CFG, depth_prior=1.0)
    assert np.max(np.abs(state.depth() - 1.0)) < 1e-12
    assert np.all(state.poses == 0.0)
    assert [m.shape for m in state.mask_logits] == [(2, 8, 10), (2, 4, 5)]
    for m in state.mask_logits:
        assert np.all(losses.mask_probability(m) == 0.5)


def test_init_state_initial_vs_is_mean_abs_difference():
    # Zero poses make the initial warp the identity, so L_vs at full
    # resolution is the per-source mean |target - source|.
    imgs = _images(seed=5)
    cfg = LossConfig(num_levels=1, use_explainability=False)
    state = model.init_state(imgs, 1, K, cfg)
    report, _ = losses.total_loss(state, cfg)
    expected = sum(np.abs(imgs[1] - imgs[i]).mean() for i in (0, 2))
    assert abs(report.vs_per_level[0] - expected) < 1e-12


def test_init_state_validation():
    with pytest.raises(ValueError):
        model.init_state([_images()[0]], 0, K, CFG)
    bad = _images()
    bad[1] = bad[1][:, :-1]
    with pytest.raises(ValueError):
        model.init_state(bad, 0, K, CFG)


def _scalar_state(x0):
    """1-parameter state for exercising the Adam update rule in isolation."""
    return SnippetState(
        target=np.zeros((1, 1, 1)), sources=[], depth_logits=np.array([[x0]]),
        poses=np.zeros((0, 6)), mask_logits=None,
        intrinsics=Intrinsics(fx=1, fy=1, cx=0.5, cy=0.5, width=1, height=1),
    )


def _scalar_grads(g):
    return losses.SnippetGrads(depth_logits=np.array([[g]]), poses=np.zeros((0, 6)))


def test_adam_zero_gradient_leaves_parameters_unchanged():
    state = _scalar_state(1.3)
    model.adam_step(state, _scalar_grads(0.0), AdamMoments(), AdamConfig(), t=1)
    assert state.depth_logits[0, 0] == 1.3


def test_adam_first_step_magnitude():
    # Bias correction makes mhat/sqrt(vhat) = sign(g) at t=1 (up to epsilon).
    cfg = AdamConfig(lr=0.001)
    for g in (2.5, -0.3):
        state = _scalar_state(0.0)
        model.adam_step(state, _scalar_grads(g), AdamMoments(), cfg, t=1)
        step = -state.depth_logits[0, 0]
        assert abs(step - cfg.lr * np.sign(g)) < 1e-6


def test_adam_shape_mismatch_raises():
    state = _scalar_state(0.0)
    bad = losses.SnippetGrads(depth_logits=np.zeros((2, 2)), poses=np.zeros((0, 6)))
    with pytest.raises(ValueError):
        model.adam_step(state, bad, AdamMoments(), AdamConfig(), t=1)


def _reference_adam(grad_fn, x0, lr, iters, b1=0.9, b2=0.999, eps=1e-8):
    # Independent scalar reference implementation of the update rule.
    x, m, v = x0, 0.0, 0.0
    path = []
    for t in range(1, iters + 1):
        g = grad_fn(x)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        path.append(x)
    return path


def test_adam_quadratic_bowl_matches_scalar_reference():
    # f(x) = x^2 from x0 = 1 at the default learning rate. The reference
    # oracle reaches |x| < 0.01 at iteration 7825, so the budget is 8000.
    lr, iters = 0.0002, 8000
    ref = _reference_adam(lambda x: 2 * x, 1.0, lr, iters)

    cfg = AdamConfig(lr=lr)
    state = _scalar_state(1.0)
    moments = AdamMoments()
    ours = []
    for t in range(1, iters + 1):
        x = state.depth_logits[0, 0]
        model.adam_step(state, _scalar_grads(2 * x), moments, cfg, t)
        ours.append(state.depth_logits[0, 0])

    assert np.max(np.abs(np.array(ours) - np.array(ref))) < 1e-12
    assert abs(ours[-1]) < 0.01


@pytest.mark.parametrize("name, value", [("max_iters", 0), ("max_iters", -3), ("window", 0)])
def test_adam_config_validation(name, value):
    with pytest.raises(ValueError, match=f"{name} must be >= 1, got {value}"):
        AdamConfig(**{name: value})


def test_fit_builds_image_pyramids_once(monkeypatch):
    # One depth pyramid per iteration; the target and source pyramids once.
    imgs = _images(seed=4)
    cfg = LossConfig(num_levels=2, use_explainability=False)
    calls = []
    orig = losses.build_pyramid
    monkeypatch.setattr(losses, "build_pyramid",
                        lambda *a: calls.append(a) or orig(*a))
    n, n_sources = 7, len(imgs) - 1
    res = model.fit_snippet(imgs, 1, K, cfg, AdamConfig(lr=0.01, max_iters=n, tol=0.0))
    assert res.iterations == n
    assert len(calls) == n + n_sources + 1


def test_fit_identical_frames_keeps_zero_pose():
    img = np.random.default_rng(8).random((8, 10, 1))
    res = model.fit_snippet([img, img.copy(), img.copy()], 1, K, CFG,
                            AdamConfig(lr=0.01, max_iters=150))
    assert np.max(np.abs(res.state.poses[:, 3:])) < 1e-3
    assert np.max(np.abs(res.state.poses[:, :3])) < 1e-3
    assert res.history[0].vs_per_level[0] == 0.0


def test_fit_is_deterministic():
    imgs = _images(seed=21)
    cfg = AdamConfig(lr=0.01, max_iters=60)
    r1 = model.fit_snippet(imgs, 1, K, CFG, cfg)
    r2 = model.fit_snippet(imgs, 1, K, CFG, cfg)
    assert np.array_equal(r1.state.depth_logits, r2.state.depth_logits)
    assert np.array_equal(r1.state.poses, r2.state.poses)
    assert [r.total for r in r1.history] == [r.total for r in r2.history]


def test_fit_depth_bounds_hold_after_every_step():
    imgs = _images(seed=30)
    state = model.init_state(imgs, 1, K, CFG)
    moments = AdamMoments()
    lo = 1.0 / (model.DEPTH_ALPHA + model.DEPTH_BETA)
    hi = 1.0 / model.DEPTH_BETA
    for t in range(1, 40):
        _, grads = losses.total_loss(state, CFG)
        model.adam_step(state, grads, moments, AdamConfig(lr=0.05), t)
        d = state.depth()
        assert d.min() > lo and d.max() < hi


def test_fit_diverged_raises_with_iteration():
    imgs = _images(seed=2)
    state = model.init_state(imgs, 1, K, CFG)
    state.depth_logits[0, 0] = np.nan
    with pytest.raises(model.FitDiverged) as e:
        model.fit_snippet(imgs, 1, K, CFG, AdamConfig(max_iters=5), state=state)
    assert e.value.iteration == 1


def test_checkpoint_roundtrip(tmp_path):
    imgs = _images(seed=17)
    state = model.init_state(imgs, 1, K, CFG)
    state.depth_logits += np.random.default_rng(1).normal(0, 1, state.depth_logits.shape)
    state.poses += 0.1
    path = tmp_path / "ckpt.bin"
    model.save_checkpoint(path, state)
    loaded = model.load_checkpoint(path, imgs, 1, K)
    assert np.array_equal(loaded.depth_logits, state.depth_logits)
    assert np.array_equal(loaded.poses, state.poses)
    for a, b in zip(loaded.mask_logits, state.mask_logits):
        assert np.array_equal(a, b)


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    imgs = _images()
    state = model.init_state(imgs, 1, K, CFG)
    path = tmp_path / "ckpt.bin"
    model.save_checkpoint(path, state)
    data = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(model.CheckpointError, match="magic"):
        model.load_checkpoint(bad, imgs, 1, K)

    for cut in (len(data) // 2, 20):  # 20 bytes end inside the header
        trunc = tmp_path / "trunc.bin"
        trunc.write_bytes(data[:cut])
        with pytest.raises(model.CheckpointError, match="truncated"):
            model.load_checkpoint(trunc, imgs, 1, K)

    trailing = tmp_path / "trailing.bin"
    trailing.write_bytes(data + b"\0" * 8)
    with pytest.raises(model.CheckpointError, match="trailing"):
        model.load_checkpoint(trailing, imgs, 1, K)

    v1 = tmp_path / "v1.bin"
    v1.write_bytes(data[:4] + struct.pack("<I", 1) + data[8:])
    with pytest.raises(model.CheckpointError, match="unsupported checkpoint version 1"):
        model.load_checkpoint(v1, imgs, 1, K)
