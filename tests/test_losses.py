import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewsynth import geometry, gradcheck, losses, model, sampler
from viewsynth.geometry import Intrinsics
from viewsynth.losses import LossConfig, Snippet


def _row(x):
    """An (H, W, ...) map as the (1, H * W, ...) row of a one-level group."""
    x = np.asarray(x, dtype=float)
    return x.reshape((1, -1) + x.shape[2:])


def _warp_of(img, valid=None):
    """WarpResult stand-in holding given pixel values, as a one-level row."""
    img = np.asarray(img, dtype=float)
    if img.ndim == 2:
        img = img[:, :, None]
    if valid is None:
        valid = np.ones(img.shape[:2], dtype=bool)
    z = _row(np.zeros_like(img))
    return sampler.WarpResult(warped=_row(img * valid[..., None]), valid=valid.reshape(1, -1),
                              d_du=z, d_dv=z, src_points=np.zeros((3, 1, valid.size)))


def _vs(t, w, prob=None, want_grads=True):
    """view_synthesis_loss of an (H, W, C) target and a one-level row warp,
    with an (H, W) mask probability map."""
    spans = ((0, t.shape[0] * t.shape[1]),)
    return losses.view_synthesis_loss(_row(t), w, spans, None if prob is None else [_row(prob)],
                                      want_grads)


def test_perfect_warp_gives_zero():
    rng = np.random.default_rng(0)
    t = rng.random((4, 4, 2))
    loss, _, _, n = _vs(t, _warp_of(t))
    assert loss == [0.0]
    assert n == [16]


def test_constant_field_algebra():
    # target 0, warped 1, mask 0.5 everywhere -> 0.5 per pixel
    t = np.zeros((3, 5, 1))
    w = _warp_of(np.ones((3, 5, 1)))
    prob = losses.mask_probability(np.zeros((3, 5)))  # sigmoid -> 0.5
    (loss,), _, _, _ = _vs(t, w, prob)
    assert abs(loss - 0.5) < 1e-15


def test_matches_scalar_loop_oracle():
    # Independent per-pixel loop over sources, pixels, and channels, against
    # the sum of one call per source.
    rng = np.random.default_rng(42)
    t = rng.random((4, 4, 3))
    images, valids, masks = [], [], []
    for _ in range(2):
        valids.append(rng.random((4, 4)) > 0.2)
        images.append(rng.random((4, 4, 3)))
        masks.append(rng.normal(0, 1, (4, 4)))

    expected = 0.0
    for s in range(2):
        acc, n = 0.0, 0
        for i in range(4):
            for j in range(4):
                if not valids[s][i, j]:
                    continue
                n += 1
                e = sum(abs(images[s][i, j, c] - t[i, j, c]) for c in range(3)) / 3
                # Softmax channel 1 of the logit pair (0, x).
                num = np.exp(masks[s][i, j])
                prob = num / (np.exp(0.0) + num)
                acc += prob * e
        expected += acc / n

    loss = sum(_vs(t, _warp_of(img, v), losses.mask_probability(m))[0][0]
               for img, v, m in zip(images, valids, masks))
    assert abs(loss - expected) < 1e-12


def test_zero_valid_pixels_reports_zero():
    t = np.ones((3, 3, 1))
    w = _warp_of(np.zeros((3, 3, 1)), np.zeros((3, 3), dtype=bool))
    loss, gw, _, n = _vs(t, w)
    assert loss == [0.0] and n == [0]
    assert np.all(gw == 0.0)


@pytest.mark.parametrize("masked", [False, True])
def test_zero_valid_pixels_forward_only_gives_no_gradients(masked):
    t = np.ones((3, 3, 2))
    w = _warp_of(np.zeros((3, 3, 2)), np.zeros((3, 3), dtype=bool))
    prob = np.full((3, 3), 0.5) if masked else None
    loss, gw, gm, n = _vs(t, w, prob, want_grads=False)
    assert loss == [0.0] and n == [0]
    assert gw is None and gm is None
    _, gw, gm, _ = _vs(t, w, prob)
    assert np.all(gw == 0.0)
    if masked:
        assert np.all(gm == 0.0)
    else:
        assert gm is None


@pytest.mark.parametrize("C", [1, 2])
@pytest.mark.parametrize("masked", [False, True])
def test_view_synthesis_gradients_match_central_differences(C, masked):
    # A two-level row (spans) with invalid pixels on both levels, and every
    # residual at least 10 steps from 0, so no step crosses the L1 kink.
    rng = np.random.default_rng(20 + C)
    h, spans = 1e-6, ((0, 12), (12, 15))
    target = rng.random((1, 15, C))
    warped = target + rng.choice([-1.0, 1.0], target.shape) * rng.uniform(0.01, 0.5, target.shape)
    assert np.abs(warped - target).min() >= 10 * h
    valid = rng.random((1, 15)) > 0.3
    valid[0, [0, 12]], valid[0, [1, 13]] = False, True
    logits = rng.normal(0.0, 1.0, (1, 15))

    def vs(warped, logits, want_grads=False):
        probs = [losses.mask_probability(logits[:, a:b]) for a, b in spans] if masked else None
        warp = sampler.WarpResult(warped=warped, valid=valid, d_du=None, d_dv=None,
                                  src_points=None)
        return losses.view_synthesis_loss(target, warp, spans, probs, want_grads)

    _, g_warped, g_mask, _ = vs(warped, logits, want_grads=True)
    assert (g_mask is None) != masked

    def central_differences(x, f):
        fd = np.empty(x.shape)
        for i in np.ndindex(x.shape):
            plus, minus = x.copy(), x.copy()
            plus[i] += h
            minus[i] -= h
            fd[i] = (sum(f(plus)[0]) - sum(f(minus)[0])) / (2 * h)
        return fd

    checks = [(g_warped, central_differences(warped, lambda w: vs(w, logits)), valid[..., None])]
    if masked:
        checks.append((g_mask, central_differences(logits, lambda m: vs(warped, m)), valid))
    for g, fd, v in checks:
        v = np.broadcast_to(v, g.shape)
        # An invalid pixel's value and mask do not reach the loss.
        assert np.all(g[~v] == 0.0) and np.all(fd[~v] == 0.0)
        np.testing.assert_allclose(g[v], fd[v], rtol=1e-6, atol=1e-9)


def test_sum_channels_equals_numpy_sum():
    rng = np.random.default_rng(3)
    for C in (1, 2, 3, 4):
        x = rng.normal(0, 1, (2, 5, 7, C)) * 10.0 ** rng.integers(-8, 8, (2, 5, 7, C))
        x[0, 0] = 0.0
        assert np.array_equal(losses._sum_channels(x), x.sum(axis=-1))


def test_unit_mask_bitwise_equals_unmasked():
    # A logit of 50 makes the mask probability exactly 1.0 in double
    # precision, so the masked path must be bit-identical to the plain one.
    rng = np.random.default_rng(5)
    t = rng.random((5, 6, 2))
    w = _warp_of(rng.random((5, 6, 2)))
    logits = np.full((5, 6), 50.0)
    assert losses.mask_probability(logits).min() == 1.0
    plain, _, _, _ = _vs(t, w)
    masked, _, _, _ = _vs(t, w, losses.mask_probability(logits))
    assert plain == masked


def test_regularizer_symmetric_logits():
    loss, _ = losses.explainability_regularizer(np.zeros((4, 4)))
    assert abs(loss - np.log(2.0)) < 1e-12


def test_regularizer_monotone_in_logit_gap():
    def at(x):
        return losses.explainability_regularizer(np.full((2, 2), x))[0]
    assert at(1e6) <= at(800.0) <= at(10.0) < at(1.0) < at(0.0) < at(-800.0) < at(-1e6)


@pytest.mark.parametrize("x", [800.0, -800.0, 1e6, -1e6])
def test_regularizer_extreme_logits_are_finite(x):
    # exp(-x) overflows below x = -709.78. RuntimeWarnings fail the suite,
    # so this also checks that no overflow or log(0) warning is raised.
    logits = np.full((2, 3), x)
    loss, g = losses.explainability_regularizer(logits)
    assert np.isfinite(loss) and np.all(np.isfinite(g))
    if x < 0:
        # -log sigmoid(x) = -x + log1p(exp(x)), which rounds to -x here.
        assert abs(loss - np.mean(-logits)) <= 1e-15 * abs(x)
        assert np.all(g == -1 / logits.size)
        assert np.all(losses.mask_probability(logits) == 0.0)
    else:
        assert loss == 0.0
        assert np.all(g == 0.0)
        assert np.all(losses.mask_probability(logits) == 1.0)
    # sigmoid works in one buffer of its own: bit for bit the expression
    # form, the input left as it was, and a NumPy scalar for a 0-d input.
    edges = np.array([x, 709.7, -709.7, 1e4, -1e4, np.inf, -np.inf, 0.0, -0.0])
    kept = edges.tobytes()
    with np.errstate(over="ignore"):
        expected = 1.0 / (1.0 + np.exp(-edges))
    assert losses.sigmoid(edges).tobytes() == expected.tobytes()
    assert edges.tobytes() == kept
    for scalar in (x, np.array(x)):
        s = losses.sigmoid(scalar)
        assert type(s) is np.float64 and s.tobytes() == expected[0].tobytes()


def test_regularizer_matches_scalar_oracle():
    rng = np.random.default_rng(9)
    logits = rng.normal(0, 2, (3, 4))
    expected = 0.0
    for i in range(3):
        for j in range(4):
            # Softmax channel 1 of the logit pair (0, x).
            e0, e1 = np.exp(0.0), np.exp(logits[i, j])
            expected += -np.log(e1 / (e0 + e1))
    expected /= 12
    loss, _ = losses.explainability_regularizer(logits)
    assert abs(loss - expected) < 1e-12


def test_regularizer_gradient_fd():
    rng = np.random.default_rng(13)
    logits = rng.normal(0, 1, (3, 3))
    _, g = losses.explainability_regularizer(logits)
    h = 1e-6
    for idx in [(0, 0), (1, 2), (2, 1)]:
        lp, lm = logits.copy(), logits.copy()
        lp[idx] += h
        lm[idx] -= h
        fd = (losses.explainability_regularizer(lp)[0]
              - losses.explainability_regularizer(lm)[0]) / (2 * h)
        assert abs(g[idx] - fd) < 1e-8


def test_regularizer_on_a_stack_is_each_map_on_its_own():
    # A level's (S, H, W) mask stack: each map's loss and gradient, bit for
    # bit, and the gradient of the summed per-map losses.
    rng = np.random.default_rng(21)
    logits = rng.normal(0, 2, (3, 4, 5))
    loss, g = losses.explainability_regularizer(logits)
    for s in range(3):
        loss_s, g_s = losses.explainability_regularizer(logits[s])
        assert loss[s] == loss_s and np.array_equal(g[s], g_s)
    h = 1e-6
    for idx in np.ndindex(logits.shape):
        lp, lm = logits.copy(), logits.copy()
        lp[idx] += h
        lm[idx] -= h
        fd = (losses.explainability_regularizer(lp)[0].sum()
              - losses.explainability_regularizer(lm)[0].sum()) / (2 * h)
        assert abs(g[idx] - fd) < 1e-8


def test_smoothness_constant_and_ramp_are_zero():
    assert losses.smoothness_loss(np.full((5, 7), 3.2))[0] == 0.0
    jj, ii = np.meshgrid(np.arange(7.0), np.arange(5.0))
    assert losses.smoothness_loss(1.5 * jj - 0.3 * ii + 2.0)[0] < 1e-12


def test_smoothness_quadratic_row():
    u = np.arange(8.0)
    loss, _ = losses.smoothness_loss((u ** 2)[None, :])
    assert abs(loss - 2.0) < 1e-12  # second difference of u^2 is exactly 2


def test_smoothness_short_axes_contribute_zero():
    assert losses.smoothness_loss(np.random.default_rng(0).random((2, 2)))[0] == 0.0


def _smoothness_u_then_v(D, want_grads):
    """smoothness_loss as one block per axis, u before v: the reference its
    loop over the two trailing axes must reproduce bit for bit."""
    loss, grad = 0.0, np.zeros_like(D) if want_grads else None
    if D.shape[-1] >= 3:
        duu = D[..., :-2] - 2 * D[..., 1:-1] + D[..., 2:]
        count = duu.shape[-2] * duu.shape[-1]
        loss += losses._mean_hw(np.abs(duu), count)
        if want_grads:
            sg = np.sign(duu) / count
            grad[..., :-2] += sg
            grad[..., 1:-1] -= 2 * sg
            grad[..., 2:] += sg
    if D.shape[-2] >= 3:
        dvv = D[..., :-2, :] - 2 * D[..., 1:-1, :] + D[..., 2:, :]
        count = dvv.shape[-2] * dvv.shape[-1]
        loss += losses._mean_hw(np.abs(dvv), count)
        if want_grads:
            sg = np.sign(dvv) / count
            grad[..., :-2, :] += sg
            grad[..., 1:-1, :] -= 2 * sg
            grad[..., 2:, :] += sg
    return loss, grad


@pytest.mark.parametrize("shape", [(6, 7), (2, 9), (9, 2), (2, 2), (3, 3), (4, 5, 6), (3, 2, 8)])
@pytest.mark.parametrize("want_grads", [True, False])
def test_smoothness_equals_the_per_axis_reference_bitwise(shape, want_grads):
    D = np.random.default_rng(len(shape) + shape[-1]).uniform(0.5, 3.0, shape)
    D[..., 0, :] = D[..., 1, :]   # some second differences of exactly 0
    loss, grad = losses.smoothness_loss(D, want_grads)
    ref_loss, ref_grad = _smoothness_u_then_v(D, want_grads)
    assert np.asarray(loss).tobytes() == np.asarray(ref_loss).tobytes()
    assert (grad is None and ref_grad is None) or grad.tobytes() == ref_grad.tobytes()


def test_smoothness_gradient_matches_central_differences():
    D = np.random.default_rng(21).uniform(1.0, 3.0, (6, 7))
    h = 1e-7
    # A generic map: moving one entry by h moves a second difference by at
    # most 2h, so no |.| kink lies between D - h and D + h.
    duu = D[:, :-2] - 2 * D[:, 1:-1] + D[:, 2:]
    dvv = D[:-2, :] - 2 * D[1:-1, :] + D[2:, :]
    assert min(np.abs(duu).min(), np.abs(dvv).min()) > 4 * h
    _, g = losses.smoothness_loss(D)
    fd = np.zeros_like(D)
    for idx in np.ndindex(D.shape):
        hi, lo = D.copy(), D.copy()
        hi[idx] += h
        lo[idx] -= h
        fd[idx] = (losses.smoothness_loss(hi)[0] - losses.smoothness_loss(lo)[0]) / (2 * h)
    assert np.max(np.abs(g - fd)) < 1e-6


@given(st.integers(0, 10 ** 6), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=40)
def test_smoothness_affine_invariance(seed, a, b, c):
    rng = np.random.default_rng(seed)
    D = rng.random((6, 7))
    jj, ii = np.meshgrid(np.arange(7.0), np.arange(6.0))
    l0, _ = losses.smoothness_loss(D)
    l1, _ = losses.smoothness_loss(D + a * jj + b * ii + c)
    assert abs(l0 - l1) < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_forward_only_terms_keep_the_loss_and_skip_gradients(seed):
    rng = np.random.default_rng(seed)
    D = rng.random((6, 7))
    sm, g_sm = losses.smoothness_loss(D)
    sm_fwd, g_none = losses.smoothness_loss(D, want_grads=False)
    assert sm_fwd == sm and g_none is None and g_sm.shape == D.shape
    # sum / count is bitwise the ndarray.mean it replaced.
    duu = D[:, :-2] - 2 * D[:, 1:-1] + D[:, 2:]
    dvv = D[:-2, :] - 2 * D[1:-1, :] + D[2:, :]
    assert sm == float(np.abs(duu).mean()) + float(np.abs(dvv).mean())

    logits = rng.normal(0, 2, (5, 4))
    prob = losses.mask_probability(logits)
    reg, g_reg = losses.explainability_regularizer(logits)
    reg_fwd, g_none = losses.explainability_regularizer(logits, prob, want_grads=False)
    assert reg_fwd == reg and g_none is None
    assert reg == float(-np.log(prob).mean())
    _, g_given = losses.explainability_regularizer(logits, prob)
    assert np.array_equal(g_given, g_reg)


def test_pyramid_single_level_is_input():
    img = np.random.default_rng(1).random((6, 6, 1))
    pyr = losses.build_pyramid(img, 1)
    assert len(pyr) == 1 and np.array_equal(pyr[0], img)


def test_pyramid_constant_and_block_mean():
    pyr = losses.build_pyramid(np.full((4, 4), 0.7), 2)
    assert pyr[1].shape == (2, 2) and np.allclose(pyr[1], 0.7)
    img = np.arange(16.0).reshape(4, 4)
    pyr = losses.build_pyramid(img, 2)
    expected = np.array([[img[:2, :2].mean(), img[:2, 2:].mean()],
                         [img[2:, :2].mean(), img[2:, 2:].mean()]])
    assert np.array_equal(pyr[1], expected)


@pytest.mark.parametrize("shape", [(4, 4), (8, 12), (5, 7), (9, 13)])
def test_upsample_grad_is_adjoint_of_box_downsample(shape):
    # <P x, g> = <x, P^T g> for the whole pyramid P = build_pyramid, whose
    # odd trailing rows and columns get no gradient from the levels below.
    # At L = 4 every shape here stops early, with fewer than L levels.
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    x = rng.normal(size=shape)
    for L in (1, 2, 3, 4):
        levels = losses.build_pyramid(x, L)
        g = [rng.normal(size=level.shape) for level in levels]
        lhs = sum(float((level * g_l).sum()) for level, g_l in zip(levels, g))
        rhs = float((x * losses._pyramid_adjoint(g)).sum())
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), L
    assert len(levels) < 4


@pytest.mark.parametrize("shape", [(8, 12), (9, 13), (17, 6)])
def test_batched_pyramid_slices_equal_unbatched(shape):
    maps = np.random.default_rng(4).random((5,) + shape)
    batched = losses.build_pyramid(maps, 3, batched=True)
    for k, m in enumerate(maps):
        single = losses.build_pyramid(m, 3)
        assert len(batched) == len(single)
        for b, s in zip(batched, single):
            assert np.array_equal(b[k], s)


def test_pyramid_stops_early():
    pyr = losses.build_pyramid(np.zeros((4, 4)), 5)
    assert len(pyr) == 2  # 2x2 would go below the minimum at the next level


def _block_mean(x):
    """A map's (or a (B, H, W) stack's) 2x2 block means by NumPy's sum over
    the block axes: the form build_pyramid had before its strided views."""
    h2, w2 = x.shape[-2] // 2, x.shape[-1] // 2
    t = x[..., :2 * h2, :2 * w2]
    return t.reshape(t.shape[:-2] + (h2, 2, w2, 2)).sum(axis=(-3, -1)) / 4


def test_pyramid_block_means_equal_numpy_sum_bitwise_on_every_small_shape():
    # Every shape whose halves are both >= 2, the only ones build_pyramid
    # downsamples (max_pyramid_levels).
    rng = np.random.default_rng(30)
    for h in range(4, 71):
        for w in range(4, 71):
            x = rng.normal(size=(h, w))
            level = losses.build_pyramid(x, 2)[1]
            assert level.tobytes() == _block_mean(x).tobytes(), (h, w)


@pytest.mark.parametrize("shape", [(48, 64), (128, 416), (192, 8, 12), (1, 17, 26),
                                   (3, 9, 13), (64, 20, 7)])
def test_pyramid_levels_equal_numpy_sum_bitwise(shape):
    # The workloads' depth maps (64x48, 416x128 and the FD oracle's 8x12
    # stack of 192), odd sizes and stacks, at every level.
    x = np.random.default_rng(sum(shape)).uniform(0.1, 100.0, shape)
    pyr = losses.build_pyramid(x, 5, batched=len(shape) == 3)
    ref = x
    for level in pyr[1:]:
        ref = _block_mean(ref)
        assert level.shape == ref.shape and level.tobytes() == ref.tobytes()
    assert len(pyr) == min(5, losses.max_pyramid_levels(*shape[-2:]))


def _repeat_adjoint(g_levels):
    """_pyramid_adjoint by upsampling each level with np.repeat into zeros:
    the form it had before the block view, the bitwise reference."""
    g = g_levels[-1]
    for g_l in g_levels[-2::-1]:
        h2, w2 = g.shape
        up = np.zeros(g_l.shape)
        up[: 2 * h2, : 2 * w2] = np.repeat(np.repeat(g, 2, axis=0), 2, axis=1) / 4.0
        g = g_l + up
    return g


@pytest.mark.parametrize("shape", [(8, 12), (9, 13), (17, 26), (35, 6), (48, 64), (128, 416)])
def test_pyramid_adjoint_equals_repeat_form_bitwise(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for L in (1, 2, 3, 4):
        levels = losses.build_pyramid(np.zeros(shape), L)
        g = [rng.normal(size=level.shape) for level in levels]
        g[-1][0, 0] = 0.0   # zeros, one in an odd level's trailing corner
        g[0][-1, -1] = 0.0
        before = [g_l.copy() for g_l in g]
        got = losses._pyramid_adjoint(g)
        assert got.tobytes() == _repeat_adjoint(g).tobytes(), L
        assert all(np.array_equal(a, b) for a, b in zip(g, before))   # inputs untouched


def test_depth_activation_equals_its_separate_forms_bitwise():
    # depth and slope from one sigmoid equal the two expressions
    # activate_depth and activate_depth_grad each evaluated on their own.
    x = np.random.default_rng(31).normal(0.0, 4.0, (17, 26))
    x[0, :6] = [-1e6, -800.0, -40.0, 0.0, 40.0, 800.0]
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x))
    denom = losses.DEPTH_ALPHA * s + losses.DEPTH_BETA
    depth, slope = losses._depth_activation(x, True)
    assert depth.tobytes() == (1.0 / denom).tobytes() == losses.activate_depth(x).tobytes()
    ref = -losses.DEPTH_ALPHA * s * (1 - s) / denom ** 2
    assert slope.tobytes() == ref.tobytes() == losses.activate_depth_grad(x).tobytes()
    assert losses._depth_activation(x, False)[1] is None


@pytest.mark.parametrize("use_masks", [True, False])
@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_total_loss_depth_gradient_is_pyramid_adjoint_times_activation_slope(
        monkeypatch, use_masks, levels):
    # total_loss's depth map is activate_depth(logits), and its logit
    # gradient is _pyramid_adjoint(...) * activate_depth_grad(logits), bit
    # for bit, though it forms depth and slope from one sigmoid.
    state, cfg = gradcheck.random_instance(levels, height=17, width=26, n_sources=2,
                                           levels=levels, use_masks=use_masks)
    seen = {}
    adjoint, pyramid = losses._pyramid_adjoint, losses.build_pyramid

    def build_pyramid(img, *args):   # total_loss builds the depth pyramid only
        seen["depth"] = img
        return pyramid(img, *args)

    monkeypatch.setattr(losses, "_pyramid_adjoint",
                        lambda g: seen.setdefault("adjoint", adjoint(g)))
    monkeypatch.setattr(losses, "build_pyramid", build_pyramid)
    _, grads = losses.total_loss(state.snippet, state, cfg)
    assert seen["depth"].tobytes() == losses.activate_depth(state.depth_logits).tobytes()
    ref = seen["adjoint"] * losses.activate_depth_grad(state.depth_logits)
    assert grads.depth_logits.tobytes() == ref.tobytes()


def _small_state(seed=0, levels=2, use_masks=True):
    rng = np.random.default_rng(seed)
    K = Intrinsics(fx=10.0, fy=10.0, cx=5.0, cy=4.0, width=10, height=8)
    images = [rng.random((8, 10, 1)) for _ in range(3)]
    cfg = LossConfig(num_levels=levels, use_explainability=use_masks)
    state = gradcheck.Instance(**vars(model.init_state(images, 1, K, cfg)),
                               snippet=Snippet.build(images, 1, K, cfg))
    state.poses[:, 3:] = rng.normal(0, 0.02, (2, 3))
    return state, cfg


def test_total_loss_perfect_static_snippet_is_zero_vs():
    K = Intrinsics(fx=10.0, fy=10.0, cx=5.0, cy=4.0, width=10, height=8)
    img = np.random.default_rng(2).random((8, 10, 1))
    cfg = LossConfig(num_levels=1, use_explainability=False)
    state = model.init_state([img, img.copy()], 0, K, cfg)
    report, _ = losses.total_loss(Snippet.build([img, img.copy()], 0, K, cfg), state, cfg)
    assert report.vs_per_level == [0.0]
    assert report.smooth_per_level == [0.0]  # constant depth prior
    assert report.total == 0.0


def test_total_loss_recomposition_identity():
    state, cfg = _small_state(seed=3)
    report, _ = losses.total_loss(state.snippet, state, cfg)
    recomposed = sum(
        report.vs_per_level[l]
        + cfg.smooth_weight(l) * report.smooth_per_level[l]
        + cfg.lambda_e * sum(report.reg_per_level[l])
        for l in range(len(report.vs_per_level))
    )
    assert abs(report.total - recomposed) <= 1e-12


def test_total_loss_nonnegative_and_finite():
    for seed in range(5):
        state, cfg = _small_state(seed=seed)
        report, _ = losses.total_loss(state.snippet, state, cfg)
        assert np.isfinite(report.total) and report.total >= 0.0


def test_mask_gradient_pushes_mask_down_without_regularizer():
    # With lambda_e = 0 the only mask gradient comes from the weighted
    # photometric error, which is minimized by driving the mask to zero.
    state, _ = _small_state(seed=4)
    cfg = LossConfig(num_levels=2, lambda_e=0.0, use_explainability=True)
    _, grads = losses.total_loss(state.snippet, state, cfg)
    for g in grads.mask_logits:
        assert np.all(g >= 0.0)  # positive gradient lowers the logit


def test_forward_only_total_loss_reports_what_the_gradient_call_reports():
    for use_masks in (True, False):
        state, cfg = _small_state(seed=6, use_masks=use_masks)
        if use_masks:
            for m in state.mask_logits:
                m += np.random.default_rng(7).normal(0, 0.5, m.shape)
        report, grads = losses.total_loss(state.snippet, state, cfg)
        fwd_report, no_grads = losses.total_loss(state.snippet, state, cfg, False)
        assert fwd_report == report and no_grads is None
        assert grads.depth_logits.shape == state.depth_logits.shape
        assert grads.poses.shape == state.poses.shape
        if use_masks:
            assert [g.shape for g in grads.mask_logits] == [m.shape for m in state.mask_logits]
        else:
            assert grads.mask_logits is None


def test_total_loss_refuses_a_config_of_another_level_count():
    # 16x24 images have a pyramid of up to 4 levels.
    state, cfg = gradcheck.random_instance(0, height=16, width=24, levels=2, use_masks=False)
    frames = [state.snippet.target, *state.snippet.sources]
    snippets = {n: Snippet.build(frames, 0, state.snippet.K, replace(cfg, num_levels=n))
                for n in (2, 3, 4)}
    for config_levels, snippet_levels in ((3, 2), (2, 3), (9, 3), (9, 4)):
        with pytest.raises(ValueError, match=f"^config has num_levels {config_levels} and "
                                             f".*built for num_levels {snippet_levels} "):
            losses.total_loss(snippets[snippet_levels], state,
                              replace(cfg, num_levels=config_levels))
    # A config of more levels than the images allow is refused, not capped.
    with pytest.raises(ValueError, match=r"num_levels 9 is more than 24x16 images allow: "
                                         r"losses.max_pyramid_levels\(16, 24\) is 4"):
        Snippet.build(frames, 0, state.snippet.K, replace(cfg, num_levels=9))


def _snippet_arrays(snippet):
    """(name, array) of every array a snippet holds, its groups' included."""
    yield "target", snippet.target
    for s, src in enumerate(snippet.sources):
        yield f"sources[{s}]", src
    for i, group in enumerate(snippet.groups):
        yield f"groups[{i}].target", group.target
        for s, src in enumerate(group.sources):
            yield f"groups[{i}].sources[{s}]", src
        for field in ("u", "v", "rays", "fx", "fy", "cx", "cy"):
            yield f"groups[{i}].grid.{field}", getattr(group.grid, field)
        for field, value in group.grid.layout._asdict().items():
            yield f"groups[{i}].grid.layout.{field}", value


@pytest.mark.parametrize("height, width, levels", [(16, 24, 1), (16, 24, 3), (128, 416, 4)])
def test_snippet_is_frozen_against_its_frames(height, width, levels):
    # Level 0 of a one-level group is a reshape view of the snippet's frames,
    # so a snippet that kept views of the caller's frames would follow an
    # edit of one there, and the coarser levels would not.
    state, cfg = gradcheck.random_instance(0, height=height, width=width, n_sources=2,
                                           levels=levels)
    frames = [f.copy() for f in (state.snippet.target, *state.snippet.sources)]
    snippet = Snippet.build(frames, 0, state.snippet.K, cfg)
    before = {name: np.array(a) for name, a in _snippet_arrays(snippet)}
    for f in frames:
        f[...] = 7.0
    for name, a in _snippet_arrays(snippet):
        assert np.array_equal(a, before[name]), name
    report, _ = losses.total_loss(snippet, state, cfg)
    assert report == losses.total_loss(state.snippet, state, cfg)[0]


def test_snippet_arrays_are_read_only():
    state, _ = gradcheck.random_instance(0, height=16, width=24, n_sources=2, levels=3)
    arrays = [(name, a) for name, a in _snippet_arrays(state.snippet)
              if isinstance(a, np.ndarray)]
    # Joined groups carry per-pixel constants and layouts as arrays.
    assert any(name.startswith("groups[0].grid.layout") for name, _ in arrays)
    for name, a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]
        assert not a.flags.writeable, name


def test_forward_only_total_loss_skips_rotation_jacobians(monkeypatch):
    # Each call makes one trig pass (geometry._rotations) for all sources'
    # (S, 3) angle stack; it forms the Jacobians with gradients only.
    state, cfg = _small_state(seed=2)
    calls = []
    orig = geometry._rotations
    monkeypatch.setattr(geometry, "_rotations", lambda angles, jacobians: calls.append(
        (np.shape(angles), jacobians)) or orig(angles, jacobians))
    S = len(state.snippet.sources)
    losses.total_loss(state.snippet, state, cfg, want_grads=False)
    assert calls == [((S, 3), False)]
    calls.clear()
    losses.total_loss(state.snippet, replace(state, poses=np.stack([state.poses] * 3)), cfg,
                      want_grads=False)
    assert calls == [((3, S, 3), False)]
    calls.clear()
    losses.total_loss(state.snippet, state, cfg)
    assert calls == [((S, 3), True)]


def test_total_loss_converts_poses_in_one_pose_to_transform_call(monkeypatch):
    # geometry._pose_transforms is pose_to_transform with the Jacobians
    # beside: total_loss converts all its poses in one call of it.
    state, cfg = _small_state(seed=2)
    calls = []
    orig = geometry._pose_transforms
    monkeypatch.setattr(geometry, "_pose_transforms", lambda poses, jacobians=False: calls.append(
        np.shape(poses)) or orig(poses, jacobians))
    S = len(state.snippet.sources)
    losses.total_loss(state.snippet, state, cfg)
    assert calls == [(S, 6)]
    calls.clear()
    losses.total_loss(state.snippet, state, cfg, want_grads=False)
    assert calls == [(S, 6)]
    calls.clear()
    losses.total_loss(state.snippet, replace(state, poses=np.stack([state.poses] * 3)), cfg,
                      want_grads=False)
    assert calls == [(3, S, 6)]


def test_masked_total_loss_computes_mask_probability_once_per_level(monkeypatch):
    state, cfg = _small_state(seed=5, levels=2)
    calls = []
    orig = losses.mask_probability
    monkeypatch.setattr(losses, "mask_probability",
                        lambda x: calls.append(np.shape(x)) or orig(x))
    for want_grads in (True, False):
        calls.clear()
        losses.total_loss(state.snippet, state, cfg, want_grads)
        assert calls == [m.shape for m in state.mask_logits]


def test_masked_total_loss_regularizes_each_level_once(monkeypatch):
    # The regularizer depends on no warp: one call per level over the whole
    # (S, H_l, W_l) or (B, S, H_l, W_l) stack, not one per source and level.
    # The coarser levels' terms are formed first, then the finest level's.
    state, cfg = _small_state(seed=5, levels=3)
    batch = [m + np.random.default_rng(5).normal(0, 0.5, (4,) + m.shape)
             for m in state.mask_logits]
    calls = []
    orig = losses.explainability_regularizer
    monkeypatch.setattr(losses, "explainability_regularizer",
                        lambda x, *a, **k: calls.append(np.shape(x)) or orig(x, *a, **k))
    batched = replace(state, mask_logits=batch)
    for one, want_grads in ((state, True), (state, False), (batched, False)):
        calls.clear()
        losses.total_loss(one.snippet, one, cfg, want_grads)
        assert calls == [m.shape for m in one.mask_logits[1:] + one.mask_logits[:1]]


_OFF_THE_PYRAMID = ("one level too many", "one level too few", "a level one column short",
                    "a batched stack one column short", "one source short")


def _masks_off_the_pyramid(case):
    """(state, config) whose mask logits do not match the snippet's pyramid
    of 3 levels of a 16x24 snippet."""
    state, cfg = gradcheck.random_instance(0, height=16, width=24, levels=3)
    masks = state.mask_logits
    short = masks[:1] + [masks[1][..., :-1]] + masks[2:]
    return {
        "one level too many": (replace(state, mask_logits=masks + masks[-1:]), cfg),
        "one level too few": (replace(state, mask_logits=masks[:2]), cfg),
        "a level one column short": (replace(state, mask_logits=short), cfg),
        "a batched stack one column short":
            (replace(state, mask_logits=[np.stack([m, m]) for m in short]), cfg),
        "one source short": (replace(state, mask_logits=[m[:1] for m in masks]), cfg),
    }[case]


@pytest.mark.parametrize("case", _OFF_THE_PYRAMID)
def test_total_loss_refuses_mask_logits_off_the_pyramid(case):
    state, cfg = _masks_off_the_pyramid(case)
    got = re.escape(str([m.shape for m in state.mask_logits]))
    batched = state.mask_logits[0].ndim == 4
    for want_grads in (False,) if batched else (True, False):
        with pytest.raises(ValueError, match=f"num_levels={cfg.num_levels}; got {got}"):
            losses.total_loss(state.snippet, state, cfg, want_grads)


@pytest.mark.parametrize("use_masks", [True, False])
@pytest.mark.parametrize("want_grads", [True, False])
@pytest.mark.parametrize("name, shape", [
    ("poses", (3, 6)), ("poses", (1, 6)), ("poses", (6,)), ("poses", (2, 2, 2, 6)),
    ("depth_logits", (8, 11)), ("depth_logits", (96,)), ("depth_logits", (2, 2, 8, 12)),
])
def test_total_loss_refuses_parameters_that_do_not_fit_the_snippet(name, shape, use_masks,
                                                                   want_grads):
    # The instance is an 8x12 target with S = 2 sources.
    state, cfg = gradcheck.random_instance(0, use_masks=use_masks)
    expected = {"poses": (2, 6), "depth_logits": (8, 12)}[name]
    message = re.escape(f"{name} must be {expected}, with at most one leading batch axis; "
                        f"got {shape}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        losses.total_loss(state.snippet, replace(state, **{name: np.zeros(shape)}), cfg, want_grads)


def test_fit_refuses_mask_levels_the_config_does_not_have():
    state, cfg = gradcheck.random_instance(0, height=16, width=24, levels=3)
    images = [state.snippet.target, *state.snippet.sources]
    with pytest.raises(ValueError, match="num_levels=2"):
        model.fit_snippet(images, 0, state.snippet.K, replace(cfg, num_levels=2),
                          model.AdamConfig(max_iters=2), state=state)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(lambda_s=-1)
    with pytest.raises(ValueError):
        LossConfig(num_levels=0)


@pytest.mark.parametrize("name", ["lambda_s", "lambda_e"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
def test_loss_config_rejects_nonfinite_or_negative_weights(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0, got {value}"):
        LossConfig(**{name: value})
