import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewsynth import geometry, sampler
from viewsynth.geometry import Intrinsics


def test_integer_coordinate_returns_exact_pixel():
    rng = np.random.default_rng(1)
    img = rng.random((7, 9, 2))
    val, gu, gv, valid = sampler.bilinear_sample(img, 3.0, 5.0)
    assert valid
    assert np.array_equal(val, img[5, 3])
    # right-sided derivative: discrete neighbor difference at the cell edge
    assert np.allclose(gu, img[5, 4] - img[5, 3])
    assert np.allclose(gv, img[6, 3] - img[5, 3])


def test_midpoint_is_mean_of_four_corners():
    img = np.array([[0.0, 1.0], [2.0, 3.0]])
    val, _, _, valid = sampler.bilinear_sample(img, 0.5, 0.5)
    assert valid
    assert val[0] == 1.5


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    img = rng.random((5, 5, 1))
    h = 1e-6
    for _ in range(20):
        u = rng.uniform(0.5, 3.5)
        v = rng.uniform(0.5, 3.5)
        _, gu, gv, _ = sampler.bilinear_sample(img, u, v)
        fu = (sampler.bilinear_sample(img, u + h, v)[0]
              - sampler.bilinear_sample(img, u - h, v)[0]) / (2 * h)
        fv = (sampler.bilinear_sample(img, u, v + h)[0]
              - sampler.bilinear_sample(img, u, v - h)[0]) / (2 * h)
        assert abs(gu[0] - fu[0]) <= 1e-5 * max(1.0, abs(fu[0]))
        assert abs(gv[0] - fv[0]) <= 1e-5 * max(1.0, abs(fv[0]))


def test_out_of_bounds_marked_invalid():
    img = np.ones((4, 4, 1))
    val, gu, gv, valid = sampler.bilinear_sample(img, -0.1, 2.0)
    assert not valid and val[0] == 0.0 and gu[0] == 0.0 and gv[0] == 0.0
    val, _, _, valid = sampler.bilinear_sample(img, 3.0, 3.0)
    assert valid and val[0] == 1.0  # corner itself is interpolable


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_convexity_of_interpolation(seed):
    rng = np.random.default_rng(seed)
    img = rng.random((6, 8, 1))
    u = rng.uniform(0, 7)
    v = rng.uniform(0, 5)
    val, _, _, valid = sampler.bilinear_sample(img, u, v)
    assert valid
    x0, y0 = min(int(u), 6), min(int(v), 4)
    corners = img[y0: y0 + 2, x0: x0 + 2, 0]
    assert corners.min() - 1e-12 <= val[0] <= corners.max() + 1e-12


def _sample_2d_indexing(img, u, v):
    """Reference bilinear_sample that gathers corners with 2-D indexing."""
    H, W, _ = img.shape
    valid = (u >= 0) & (u <= W - 1) & (v >= 0) & (v <= H - 1)
    uc = np.clip(u, 0, W - 1)
    vc = np.clip(v, 0, H - 1)
    x0 = np.clip(np.floor(uc).astype(int), 0, max(W - 2, 0))
    y0 = np.clip(np.floor(vc).astype(int), 0, max(H - 2, 0))
    x1 = np.minimum(x0 + 1, W - 1)
    y1 = np.minimum(y0 + 1, H - 1)
    Itl, Itr, Ibl, Ibr = img[y0, x0], img[y0, x1], img[y1, x0], img[y1, x1]
    du_ = (uc - x0)[..., None]
    dv_ = (vc - y0)[..., None]
    top = Itl + du_ * (Itr - Itl)
    bot = Ibl + du_ * (Ibr - Ibl)
    m = valid[..., None]
    return (np.where(m, top + dv_ * (bot - top), 0.0),
            np.where(m, (1 - dv_) * (Itr - Itl) + dv_ * (Ibr - Ibl), 0.0),
            np.where(m, bot - top, 0.0), valid)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 6, 2), (5, 1, 3), (2, 2, 1),
                                   (7, 9, 3), (48, 64, 1)])
def test_flat_gather_equals_2d_indexing(shape):
    H, W, _ = shape
    rng = np.random.default_rng(H * 100 + W)
    img = rng.random(shape)
    u = rng.uniform(-1.5, W + 0.5, (9, 13))
    v = rng.uniform(-1.5, H + 0.5, (9, 13))
    # Edges and integer coordinates, where the cell assignment matters.
    u[0, :6] = [0.0, W - 1, W, -0.0, 1.0, W - 2]
    v[1, :6] = [0.0, H - 1, H, -0.0, 1.0, H - 2]
    u[2] = np.round(u[2])
    v[2] = np.round(v[2])
    ref = _sample_2d_indexing(img, u, v)
    got = sampler.bilinear_sample(img, u, v)
    for a, b in zip(got, ref, strict=True):
        assert np.array_equal(a, b)
    assert np.array_equal(sampler.bilinear_sample(img, u, v, want_grads=False)[0], ref[0])


def test_keep_masks_like_an_invalid_coordinate():
    rng = np.random.default_rng(4)
    img = rng.random((6, 8, 3))
    u = rng.uniform(-1, 8, (5, 7))
    v = rng.uniform(-1, 6, (5, 7))
    keep = rng.random((5, 7)) < 0.6
    full = sampler.bilinear_sample(img, u, v)
    got = sampler.bilinear_sample(img, u, v, keep=keep)
    assert np.array_equal(got[3], full[3] & keep)
    m = got[3][..., None]
    for a, b in zip(got[:3], full[:3], strict=True):
        assert np.array_equal(a, np.where(m, b, 0.0))


def test_nonfinite_coordinates_are_invalid_without_warning():
    img = np.random.default_rng(2).random((4, 5, 2))
    bad = np.array([np.nan, np.inf, -np.inf, 2.0])
    good = np.full(4, 1.5)
    for u, v in ((bad, good), (good, bad), (bad, bad[::-1])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, gu, gv, valid = sampler.bilinear_sample(img, u, v)
        nonfinite = ~(np.isfinite(u) & np.isfinite(v))
        assert not valid[nonfinite].any()
        for out in (val, gu, gv):
            assert np.all(out[nonfinite] == 0.0)


def _camera(w, h, f=30.0):
    return Intrinsics(fx=f, fy=f, cx=w / 2, cy=h / 2, width=w, height=h)


def test_identity_pose_warp_is_bit_exact():
    rng = np.random.default_rng(3)
    src = rng.random((8, 12, 3))
    depth = rng.uniform(0.5, 3.0, (8, 12))
    K = _camera(12, 8)
    w = sampler.inverse_warp(src, depth, np.eye(4), K)
    assert np.array_equal(w.warped, src)
    assert w.valid.all()


def test_pure_translation_integer_shift():
    # fx * tx / D = 5 pixels exactly: bilinear lands on the integer grid and
    # the warp must equal the shifted source on the valid strip.
    rng = np.random.default_rng(11)
    src = rng.random((10, 20, 1))
    D = 2.0
    K = _camera(20, 10, f=50.0)
    T = geometry.pose_to_transform([0, 0, 0, 0.2, 0, 0])  # 50*0.2/2 = 5 px
    w = sampler.inverse_warp(src, np.full((10, 20), D), T, K)
    shift = 5
    assert w.valid[:, : 20 - shift].all()
    assert not w.valid[:, 20 - shift:].any()
    err = np.abs(w.warped[:, : 20 - shift] - src[:, shift:])
    assert err.mean() < 1e-6


def test_all_points_behind_camera():
    src = np.ones((6, 6, 1))
    K = _camera(6, 6)
    T = geometry.pose_to_transform([0, 0, 0, 0, 0, -10.0])
    w = sampler.inverse_warp(src, np.ones((6, 6)), T, K)
    assert not w.valid.any()
    assert np.all(w.warped == 0.0)


def test_dimension_mismatch_raises():
    K = _camera(6, 6)
    with pytest.raises(ValueError):
        sampler.inverse_warp(np.ones((6, 6, 1)), np.ones((5, 6)), np.eye(4), K)
    with pytest.raises(ValueError):
        sampler.inverse_warp(np.ones((4, 4, 1)), np.ones((4, 4)), np.eye(4), K)


def _warp_bits(w):
    return [None if a is None else (a.shape, a.tobytes())
            for a in (w.warped, w.valid, w.d_du, w.d_dv, w.src_points)]


def _warp_target(form):
    """A 6x8 image's Intrinsics, its pixel_grid or that grid's join_grids
    row, with a depth map shaped like the target's pixels."""
    K = _camera(8, 6)
    depth = np.full((6, 8), 2.0)
    if form == "intrinsics":
        return K, depth
    if form == "grid":
        return sampler.pixel_grid(K), depth
    return sampler.join_grids([sampler.pixel_grid(K)]), depth.reshape(1, 48)


@pytest.mark.parametrize("form", ["intrinsics", "grid", "row"])
@pytest.mark.parametrize("src_shape, points_shape", [
    ((6, 9, 1), None), ((8, 6, 1), None), ((60, 1), None), ((40, 1), None),
    ((48, 1), (3, 5, 8)),   # the points of a 5x8 map
], ids=["wider", "transposed", "more_pixels", "fewer_pixels", "points_of_5x8"])
def test_warp_refuses_a_source_or_points_off_the_grid(form, src_shape, points_shape):
    target, depth = _warp_target(form)
    grid = target if isinstance(target, sampler.PixelGrid) else sampler.pixel_grid(target)
    T = geometry.pose_to_transform([0.01, 0, 0, 0.05, 0, 0])
    points = None if points_shape is None else np.ones(points_shape)
    if points is None:
        message = f"source shape {src_shape} does not hold the pixels of grid {grid.u.shape}"
    else:
        message = f"points shape {points_shape} is not (3,) + depth shape {depth.shape}"
    for want_grads in (True, False):
        with pytest.raises(ValueError, match=re.escape(message)):
            sampler.inverse_warp(np.ones(src_shape), depth, T, target, want_grads, points)


def test_one_channel_source_warps_alike_through_intrinsics_and_its_grid():
    rng = np.random.default_rng(9)
    K = _camera(8, 6)
    src = rng.random((6, 8))
    depth = rng.uniform(0.5, 3.0, (6, 8))
    T = geometry.pose_to_transform([0.02, -0.01, 0, 0.1, 0.02, 0])
    expected = _warp_bits(sampler.inverse_warp(src[..., None], depth, T, K))
    assert expected[0][0] == (6, 8, 1)
    for camera in (K, sampler.pixel_grid(K)):
        assert _warp_bits(sampler.inverse_warp(src, depth, T, camera)) == expected


@pytest.mark.parametrize("want_grads", [True, False])
def test_warp_with_given_points_equals_default_bitwise(want_grads):
    rng = np.random.default_rng(6)
    K = _camera(12, 8)
    grid = sampler.pixel_grid(K)
    src = rng.random((8, 12, 2))
    depth = rng.uniform(0.5, 3.0, (8, 12))
    T = geometry.pose_to_transform([0.02, 0, 0, 0.1, -0.03, 0])
    points = geometry.points_at_depth(depth, grid.rays)
    assert points.shape == (3, 8, 12)
    warp = sampler.inverse_warp(src, depth, T, K, want_grads)
    assert not want_grads or warp.src_points.shape == (3, 8, 12)
    expected = _warp_bits(warp)
    for camera in (K, grid):
        assert _warp_bits(sampler.inverse_warp(src, depth, T, camera, want_grads,
                                               points=points)) == expected


def test_warp_of_joined_grids_with_given_points_equals_default_bitwise():
    rng = np.random.default_rng(7)
    cameras = [_camera(12, 8), geometry.scale_intrinsics(_camera(12, 8), 1)]
    grid = sampler.join_grids([sampler.pixel_grid(K) for K in cameras])
    stack = rng.random((sum(K.width * K.height for K in cameras), 2))
    depth = rng.uniform(0.5, 3.0, grid.u.shape)
    T = geometry.pose_to_transform([0, 0, -0.01, 0.05, 0, 0.1])
    points = geometry.points_at_depth(depth, grid.rays)
    assert points.shape == (3, 1, 120)
    assert (_warp_bits(sampler.inverse_warp(stack, depth, T, grid, points=points))
            == _warp_bits(sampler.inverse_warp(stack, depth, T, grid)))


def test_batched_warp_with_given_points_equals_default_bitwise():
    rng = np.random.default_rng(8)
    K = _camera(12, 8)
    src = rng.random((8, 12, 2))
    depth = rng.uniform(0.5, 3.0, (4, 8, 12))
    T = np.stack([geometry.pose_to_transform([0, 0, 0, 0.05, 0.02 * b, 0]) for b in range(3)]
                 + [np.eye(4)])                     # the last element takes the identity shortcut
    points = geometry.points_at_depth(depth, sampler.pixel_grid(K).rays)
    assert points.shape == (3, 4, 8, 12)
    assert (_warp_bits(sampler.inverse_warp(src, depth, T, K, False, points=points))
            == _warp_bits(sampler.inverse_warp(src, depth, T, K, False)))


def test_pixel_grid_is_shared_and_read_only():
    g1 = sampler.pixel_grid(_camera(12, 8))
    g2 = sampler.pixel_grid(_camera(12, 8))  # equal intrinsics, not the same object
    assert g1.rays is g2.rays
    with pytest.raises(ValueError):
        g1.rays[0, 0, 0] = 1.0
    row = sampler.join_grids([g1])   # a one-level row: reshape views, still read-only
    assert g1.rays.shape == (3, 8, 12) and row.rays.shape == (3, 1, 96)
    assert np.shares_memory(row.rays, g1.rays) and row.fx == g1.fx
    with pytest.raises(ValueError):
        row.rays[0, 0, 0] = 1.0


# -- Forward-only depth batches through one transform --------------------------

def _depth_batch(base, changes, rng, batch=6, near=False):
    """A (batch, ...) stack of copies of the depth map base with no, one, a
    few or all entries changed (element 0's too). near moves every other
    changed entry of the odd elements to depth 0.05, which a transform can
    put outside the source image or behind its camera."""
    depth = np.repeat(base[None], batch, axis=0)
    flat = depth.reshape(batch, -1)
    if changes == "one":
        flat[3, rng.integers(flat.shape[1])] *= 1.25
    elif changes == "few":
        for b, i in zip(rng.integers(batch, size=7), rng.integers(flat.shape[1], size=7)):
            flat[b, i] = rng.uniform(0.5, 3.0)
    elif changes == "all":
        flat[:] = rng.uniform(0.5, 3.0, flat.shape)
    if near:
        for b in range(1, batch, 2):
            flat[b, np.flatnonzero(flat[b] != flat[0])[::2]] = 0.05
    return depth


def _warp_cases():
    """(name, source image or stack, grid) of a single-level grid, a joined
    grid of two levels, a grid one pixel wide, a single level's row and a
    one-pixel grid."""
    rng = np.random.default_rng(12)
    K = _camera(12, 8)
    cameras = [K, geometry.scale_intrinsics(K, 1)]
    joined = sampler.join_grids([sampler.pixel_grid(c) for c in cameras])
    narrow = Intrinsics(fx=6.0, fy=6.0, cx=0.4, cy=3.1, width=1, height=7)
    return [("single", rng.random((8, 12, 2)), sampler.pixel_grid(K)),
            ("joined", rng.random((120, 2)), joined),
            ("narrow", rng.random((7, 1, 3)), sampler.pixel_grid(narrow)),
            ("row", rng.random((96, 2)), sampler.join_grids([sampler.pixel_grid(K)])),
            ("pixel", rng.random((1, 1, 2)), sampler.pixel_grid(_camera(1, 1)))]


_TRANSFORMS = {
    "generic": geometry.pose_to_transform([0.02, -0.01, 0, 0.05, -0.03, 0]),
    "identity": np.eye(4),
    # A pixel 0.05 deep lands far outside the image, or behind the source
    # camera, while the other pixels stay valid.
    "outside": geometry.pose_to_transform([0, 0, 0, 0.3, 0, 0]),
    "behind": geometry.pose_to_transform([0, 0, 0, 0, 0, -0.3]),
}


@pytest.mark.parametrize("case", range(5), ids=["single", "joined", "narrow", "row", "pixel"])
@pytest.mark.parametrize("changes", ["none", "one", "few", "all"])
@pytest.mark.parametrize("transform", list(_TRANSFORMS))
def test_forward_depth_batch_warp_equals_per_element_warps(case, changes, transform):
    _, src, grid = _warp_cases()[case]
    rng = np.random.default_rng(len(changes) + 10 * case)
    T = _TRANSFORMS[transform]
    depth = _depth_batch(rng.uniform(1.0, 3.0, grid.u.shape), changes, rng,
                         near=transform in ("outside", "behind"))
    w = sampler.inverse_warp(src, depth, T, grid, want_grads=False)
    assert w.d_du is None and w.d_dv is None and w.src_points is None
    for b, d in enumerate(depth):
        one = sampler.inverse_warp(src, d, T, grid, want_grads=False)
        for name in ("warped", "valid"):
            got, expected = getattr(w, name)[b], getattr(one, name)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), (b, name)
    if transform in ("outside", "behind") and changes != "none":
        near = depth == 0.05
        assert near.any() and not w.valid[near].any()


@pytest.mark.parametrize("step", [1e-5, 0.3])
def test_forward_depth_batch_warp_of_one_changed_entry(step):
    # An L=1 finite difference on one depth coordinate: element 1 differs
    # from element 0 at one entry, which must round as it does in its map.
    rng = np.random.default_rng(13)
    K = _camera(12, 8)
    src = rng.random((8, 12, 2))
    T = geometry.pose_to_transform([0.013, 0.021, -0.017, 0.11, -0.07, 0.05])
    base = rng.uniform(0.5, 3.0, (8, 12))
    for i in range(base.size):
        depth = np.repeat(base[None], 2, axis=0)
        depth[0].flat[i] += step
        depth[1].flat[i] -= step
        w = sampler.inverse_warp(src, depth, T, K, want_grads=False)
        for b in range(2):
            one = sampler.inverse_warp(src, depth[b], T, K, want_grads=False)
            for name in ("warped", "valid"):
                assert getattr(w, name)[b].tobytes() == getattr(one, name).tobytes(), (i, b)


def test_forward_depth_batch_warp_samples_element_0_and_the_changed_entries(monkeypatch):
    rng = np.random.default_rng(14)
    K = _camera(12, 8)
    depth = _depth_batch(rng.uniform(1.0, 3.0, (8, 12)), "few", rng)
    changed = int(np.count_nonzero(depth != depth[0]))
    sampled = []
    bilinear_sample = sampler.bilinear_sample

    def counting(img, u, *args, **kwargs):
        sampled.append(np.size(u))
        return bilinear_sample(img, u, *args, **kwargs)

    monkeypatch.setattr(sampler, "bilinear_sample", counting)
    T = _TRANSFORMS["generic"]
    sampler.inverse_warp(rng.random((8, 12, 1)), depth, T, K, want_grads=False)
    assert sampled == [96, changed]
    # Gradients, a batch of transforms or one depth map warp every entry.
    sampled.clear()
    sampler.inverse_warp(rng.random((8, 12, 1)), depth, np.stack([T] * 6), K, want_grads=False)
    assert sampled == [6 * 96]


@pytest.mark.parametrize("changes", ["one", "few", "all"])
def test_forward_depth_batch_warp_on_one_pixel_multiplies_each_point_alone(changes, monkeypatch):
    # Element 0's one point and the changed entries' row go through
    # transform_points, which must give every point of the row what it
    # gives that point alone, so each element warps as it does on its own.
    rng = np.random.default_rng(15)
    grid = sampler.pixel_grid(_camera(1, 1))
    src = rng.random((1, 1, 2))
    T = _TRANSFORMS["generic"]
    depth = _depth_batch(rng.uniform(1.0, 3.0, (1, 1)), changes, rng)
    calls = []
    transform_points = geometry.transform_points

    def recording(T, pts):
        out = transform_points(T, pts)
        calls.append((T, pts, out))
        return out

    monkeypatch.setattr(geometry, "transform_points", recording)
    w = sampler.inverse_warp(src, depth, T, grid, want_grads=False)
    monkeypatch.undo()
    changed = np.count_nonzero(depth != depth[0])
    assert changed and [pts.shape for _, pts, _ in calls] == [(3, 1, 1), (3, 1, changed)]
    for T_, pts, out in calls:
        for k in range(pts.shape[-1]):
            alone = transform_points(T_, np.ascontiguousarray(pts[..., k:k + 1]))
            assert alone.tobytes() == np.ascontiguousarray(out[..., k:k + 1]).tobytes(), k
    for b, d in enumerate(depth):
        one = sampler.inverse_warp(src, d, T, grid, want_grads=False)
        for name in ("warped", "valid"):
            assert getattr(w, name)[b].tobytes() == getattr(one, name).tobytes(), (b, name)


def test_forward_depth_batch_warp_refuses_points():
    # It forms only element 0's and the changed entries' points, so it would
    # ignore points formed by its caller: they are refused instead.
    K = _camera(12, 8)
    depth = np.ones((2, 8, 12))
    points = geometry.points_at_depth(depth, sampler.pixel_grid(K).rays)
    assert points.shape == (3, 2, 8, 12)
    with pytest.raises(ValueError, match="forms its own points"):
        sampler.inverse_warp(np.ones((8, 12, 1)), depth, np.eye(4), K, want_grads=False,
                             points=points)
