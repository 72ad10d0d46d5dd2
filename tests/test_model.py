import os
import platform
import re
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewsynth import gradcheck, losses, model
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
    d = losses.activate_depth(logit)
    lo = 1.0 / (losses.DEPTH_ALPHA + losses.DEPTH_BETA)
    hi = 1.0 / losses.DEPTH_BETA
    assert lo < d < hi


@pytest.mark.parametrize("logit", [-800.0, -1e6, 800.0, 1e6])
def test_activated_depth_extreme_logits_are_finite(logit):
    # exp(-x) overflows below x = -709.78; RuntimeWarnings fail the suite,
    # so this also checks that no overflow warning is raised.
    lim = 1.0 / losses.DEPTH_BETA if logit < 0 else 1.0 / (losses.DEPTH_ALPHA + losses.DEPTH_BETA)
    assert losses.activate_depth(logit) == lim
    assert losses.activate_depth_grad(logit) == 0.0


def test_activate_depth_grad_matches_central_differences():
    x = np.linspace(-8.0, 8.0, 33)
    h = 1e-6
    fd = (losses.activate_depth(x + h) - losses.activate_depth(x - h)) / (2 * h)
    assert np.allclose(losses.activate_depth_grad(x), fd, rtol=1e-6, atol=0.0)


def test_depth_to_logit_roundtrip():
    for depth in (0.2, 1.0, 5.0, 50.0):
        assert abs(losses.activate_depth(losses.depth_to_logit(depth)) - depth) < 1e-9
    with pytest.raises(ValueError):
        losses.depth_to_logit(1000.0)


@pytest.mark.parametrize("depth", [0.0, -1.0, float("nan"), float("inf")])
def test_depth_to_logit_rejects_nonpositive_or_nonfinite_prior(depth):
    with pytest.raises(ValueError, match=f"depth prior must be finite and positive, got {depth}"):
        losses.depth_to_logit(depth)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 1, 2])
def test_init_state_refuses_a_non_finite_pixel_by_image_index(bad, index):
    # The target (index 1) or a source; a fit without a state stops there
    # too, before any loss is evaluated.
    imgs = _images(seed=4)
    imgs[index][2, 3, 0] = bad
    with pytest.raises(ValueError, match=rf"^images\[{index}\] has a non-finite pixel$"):
        model.init_state(imgs, 1, K, CFG)
    with pytest.raises(ValueError, match=rf"^images\[{index}\] has a non-finite pixel$"):
        model.fit_snippet(imgs, 1, K, CFG, AdamConfig(max_iters=1))


@pytest.mark.parametrize("use_masks", [True, False])
def test_init_state_refuses_more_levels_than_the_images_allow(use_masks):
    # 24 x 16 frames make a pyramid of 4 levels (down to 3 x 2).
    K24 = Intrinsics(fx=20.0, fy=20.0, cx=12.0, cy=8.0, width=24, height=16)
    imgs = _images(h=16, w=24)
    assert losses.max_pyramid_levels(16, 24) == 4
    state = model.init_state(imgs, 1, K24, LossConfig(num_levels=4, use_explainability=use_masks))
    assert len(state.mask_logits) == 4 if use_masks else state.mask_logits is None
    for levels in (5, 9):
        cfg = LossConfig(num_levels=levels, use_explainability=use_masks)
        with pytest.raises(ValueError, match=rf"num_levels {levels} is more than 24x16 images "
                                             r"allow: losses.max_pyramid_levels\(16, 24\) is 4"):
            model.init_state(imgs, 1, K24, cfg)
        # A fit without a state starts from init_state; a given state of
        # fewer levels is no way around the check, in a fit or an FD check.
        for run in (lambda: model.fit_snippet(imgs, 1, K24, cfg, AdamConfig(max_iters=1)),
                    lambda: model.fit_snippet(imgs, 1, K24, cfg, AdamConfig(max_iters=1),
                                              state=state),
                    lambda: gradcheck.check_instance(state, cfg)):
            with pytest.raises(ValueError, match=f"num_levels {levels} is more than"):
                run()


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


@pytest.mark.parametrize("name, value", [("max_iters", 0), ("max_iters", -3)])
def test_adam_config_validation(name, value):
    with pytest.raises(ValueError, match=f"{name} must be >= 1, got {value}"):
        AdamConfig(**{name: value})


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_adam_config_rejects_nonfinite_or_nonpositive_lr(lr):
    with pytest.raises(ValueError, match=f"lr must be finite and positive, got {lr}"):
        AdamConfig(lr=lr)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-12])
def test_adam_config_rejects_nonfinite_or_negative_tol(tol):
    # NaN or a negative tol makes the convergence test always false, inf always true.
    with pytest.raises(ValueError, match=f"tol must be finite and >= 0, got {tol}"):
        AdamConfig(tol=tol)
    assert AdamConfig(tol=0.0).tol == 0.0


def _adam_expression_form(state, grads, moments, config, t):
    """adam_step as whole-array expressions, each forming fresh arrays: the
    reference that the in-place update must reproduce bit for bit."""
    params = dict(model._param_items(state))
    gdict = dict(model._param_items(grads))
    for name, p in params.items():
        g = gdict[name]
        m = moments.m.setdefault(name, np.zeros_like(p))
        v = moments.v.setdefault(name, np.zeros_like(p))
        b1, b2 = model.ADAM_BETA1, model.ADAM_BETA2
        m[...] = b1 * m + (1 - b1) * g
        v[...] = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        lr = config.lr * model.MASK_LR_SCALE if name.startswith("mask_logits") else config.lr
        p -= lr * mhat / (np.sqrt(vhat) + model.ADAM_EPSILON)


def _param_bits(state, moments):
    return ([p.tobytes() for _, p in model._param_items(state)]
            + [moments.m[k].tobytes() for k in sorted(moments.m)]
            + [moments.v[k].tobytes() for k in sorted(moments.v)])


def test_adam_step_in_place_equals_expression_form_bitwise():
    # A masked three-level state, stepped with its own gradients; at lr 0.05
    # the masks step by 0.1 and the moments span several orders of magnitude.
    state, cfg = gradcheck.random_instance(3, height=12, width=16, n_sources=2, levels=3)
    ref = replace(state, depth_logits=state.depth_logits.copy(), poses=state.poses.copy(),
                  mask_logits=[m.copy() for m in state.mask_logits])
    adam = AdamConfig(lr=0.05)
    moments, ref_moments = AdamMoments(), AdamMoments()
    for t in range(1, 7):
        _, grads = losses.total_loss(state, cfg)
        model.adam_step(state, grads, moments, adam, t)
        _adam_expression_form(ref, grads, ref_moments, adam, t)
        assert _param_bits(state, moments) == _param_bits(ref, ref_moments)
        if t == 1:
            first = {k: (moments.m[k], moments.v[k]) for k in moments.m}
        # The moments are updated in place, never replaced.
        assert all(moments.m[k] is m and moments.v[k] is v for k, (m, v) in first.items())
    assert len(first) == 2 + cfg.num_levels


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


def test_fit_refuses_a_state_of_other_intrinsics():
    imgs = _images(seed=21)
    state = model.init_state(imgs, 1, K, CFG)
    other = Intrinsics(fx=3.0, fy=3.0, cx=2.5, cy=2.5, width=5, height=5)
    for k in (replace(K, fx=11.0), other):
        with pytest.raises(ValueError, match="^K "):
            model.fit_snippet(imgs, 1, k, CFG, AdamConfig(max_iters=2), state=state)


def test_fit_refuses_a_state_of_other_images_or_order():
    imgs = _images(seed=21)
    state = model.init_state(imgs, 1, K, CFG)
    for images, target_index in [
        ([np.zeros((8, 10, 1))] * 3, 1),             # other images
        ([np.zeros((5, 5))] * 3, 1),                 # other size
        (imgs, 0),                                   # other target
        ([imgs[2], imgs[1], imgs[0]], 1),            # sources swapped
        (imgs[:2], 1),                               # a source missing
        (imgs + imgs[:1], 1),                        # a source too many
        (imgs, 3),                                   # target index out of range
    ]:
        with pytest.raises(ValueError, match="^images "):
            model.fit_snippet(images, target_index, K, CFG, AdamConfig(max_iters=2),
                              state=state)
    # The same images as (H, W) maps are the state's (H, W, 1) images.
    res = model.fit_snippet([im[..., 0] for im in imgs], 1, K, CFG, AdamConfig(max_iters=2),
                            state=state)
    assert res.iterations == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["state.target", "state.sources[1]"])
def test_fit_names_a_given_state_s_non_finite_image(bad, where):
    # A state built or edited by hand, fitted with the images it holds: NaN
    # is not equal to itself, so the image check alone would call them other
    # images. The state's image is named first, with or without the images.
    imgs = _images(seed=22)
    clean = [im.copy() for im in imgs]
    state = model.init_state(imgs, 1, K, CFG)
    image = state.target if where == "state.target" else state.sources[1]
    image[2, 3, 0] = bad
    held = [state.sources[0], state.target, state.sources[1]]
    for images in (held, clean):
        with pytest.raises(ValueError, match=rf"^{re.escape(where)} has a non-finite pixel$"):
            model.fit_snippet(images, 1, K, CFG, AdamConfig(max_iters=1), state=state)


def test_fit_depth_bounds_hold_after_every_step():
    imgs = _images(seed=30)
    state = model.init_state(imgs, 1, K, CFG)
    moments = AdamMoments()
    lo = 1.0 / (losses.DEPTH_ALPHA + losses.DEPTH_BETA)
    hi = 1.0 / losses.DEPTH_BETA
    for t in range(1, 40):
        _, grads = losses.total_loss(state, CFG)
        model.adam_step(state, grads, moments, AdamConfig(lr=0.05), t)
        d = state.depth()
        assert d.min() > lo and d.max() < hi


def test_fit_diverged_raises_with_iteration():
    # With tx != 0 the NaN depth reaches bilinear_sample as NaN coordinates.
    imgs = _images(seed=2)
    for tx in (0.0, 0.01):
        state = model.init_state(imgs, 1, K, CFG)
        state.depth_logits[0, 0] = np.nan
        state.poses[:, 3] = tx
        with pytest.raises(model.FitDiverged) as e:
            model.fit_snippet(imgs, 1, K, CFG, AdamConfig(max_iters=5), state=state)
        assert e.value.iteration == 1


@pytest.mark.parametrize("masked", [True, False])
@pytest.mark.parametrize("call", ["fit", "check"])
def test_config_that_disagrees_with_the_state_on_masks_is_refused(masked, call):
    # The state alone has or lacks mask logits; a config that says the
    # opposite is an error, not a switch that silently wins or loses.
    state, cfg = gradcheck.random_instance(0, use_masks=masked)
    cfg = replace(cfg, use_explainability=not masked)
    run = {
        "fit": lambda: model.fit_snippet([state.target] + state.sources, 0, state.intrinsics,
                                         cfg, AdamConfig(max_iters=2), state=state),
        "check": lambda: gradcheck.check_instance(state, cfg),
    }[call]
    with pytest.raises(ValueError, match="use_explainability"):
        run()


def test_no_valid_pixels_stops_the_fit_with_its_iteration():
    # tx = 50 sends every source pixel out of its image, at every level.
    imgs = _images(seed=2)
    state = model.init_state(imgs, 1, K, CFG)
    state.poses[:, 3] = 50.0
    with pytest.raises(model.NoValidPixels, match="no valid pixels at iteration 1") as e:
        model.fit_snippet(imgs, 1, K, CFG, AdamConfig(max_iters=5), state=state)
    assert e.value.iteration == 1


_FAULTS_OF_SECOND_RUN = """
import resource
from viewsynth import gradcheck, losses, model, synth
from viewsynth.geometry import Intrinsics
K = Intrinsics(fx=30.0, fy=30.0, cx=32.0, cy=24.0, width=64, height=48)
seq = synth.render_scene(synth.SceneSpec(
    texture_seed=5, trajectory=synth.linear_trajectory(3, (0.15, 0.0, 0.0)), intrinsics=K))
cfg = losses.LossConfig(num_levels=3, use_explainability=False)
adam = model.AdamConfig(lr=0.01, max_iters=30, tol=0.0)
state, check_cfg = gradcheck.random_instance(0)
run = {{
    "fit": lambda: model.fit_snippet(seq.frames, seq.target_index, K, cfg, adam),
    "check": lambda: gradcheck.check_instance(state, check_cfg),
}}[{which!r}]
run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc policy")
@pytest.mark.parametrize("which, budget", [("fit", 300), ("check", 250)])
def test_loops_reuse_the_memory_they_free(which, budget):
    # In a fresh process, the pages a second 30-iteration 64x48 fit or a
    # second 8x12 FD check faults in. With glibc's default policy these were
    # about 6.9k and 1.8k: each evaluation's freed temporaries went back to
    # the kernel and were faulted in afresh by the next.
    package_root = os.path.dirname(os.path.dirname(model.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root] + sys.path))
    out = subprocess.run([sys.executable, "-c", _FAULTS_OF_SECOND_RUN.format(which=which)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout.split()[-1]) < budget


@pytest.mark.parametrize("masked", [True, False])
def test_checkpoint_file_layout(tmp_path, masked):
    # The layout in the README, unpacked field by field.
    rng = np.random.default_rng(17)
    imgs = [rng.random((8, 10, 2)) for _ in range(3)]
    state = model.init_state(imgs, 1, K, replace(CFG, use_explainability=masked))
    state.depth_logits += rng.normal(0, 1, state.depth_logits.shape)
    state.poses += rng.normal(0, 0.1, state.poses.shape)
    for m in state.mask_logits or []:
        m += rng.normal(0, 1, m.shape)
    path = tmp_path / "checkpoint.bin"
    model.save_checkpoint(path, state)
    data = path.read_bytes()

    levels = state.mask_logits or []
    assert len(levels) == (2 if masked else 0)
    assert data[:4] == b"VSCK"
    assert struct.unpack_from("<6I", data, 4) == (2, 8, 10, 2, 2, len(levels))
    off = 28

    def block(shape):
        nonlocal off
        n = int(np.prod(shape))
        values = np.frombuffer(data, "<f8", n, off).reshape(shape)
        off += 8 * n
        return values

    assert np.array_equal(block((8, 10)), state.depth_logits)
    assert np.array_equal(block((2, 6)), state.poses)
    for m in levels:
        h, w = struct.unpack_from("<2I", data, off)
        off += 8
        assert (2, h, w) == m.shape
        assert np.array_equal(block((2, h, w)), m)
    assert off == len(data)
