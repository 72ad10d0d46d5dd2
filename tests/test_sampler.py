import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewsynth import geometry, sampler
from viewsynth.geometry import Intrinsics, PoseParams


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
    T = geometry.pose_to_transform(PoseParams(tx=0.2))  # 50*0.2/2 = 5 px
    w = sampler.inverse_warp(src, np.full((10, 20), D), T, K)
    shift = 5
    assert w.valid[:, : 20 - shift].all()
    assert not w.valid[:, 20 - shift:].any()
    err = np.abs(w.warped[:, : 20 - shift] - src[:, shift:])
    assert err.mean() < 1e-6


def test_all_points_behind_camera():
    src = np.ones((6, 6, 1))
    K = _camera(6, 6)
    T = geometry.pose_to_transform(PoseParams(tz=-10.0))
    w = sampler.inverse_warp(src, np.ones((6, 6)), T, K)
    assert not w.valid.any()
    assert np.all(w.warped == 0.0)


def test_dimension_mismatch_raises():
    K = _camera(6, 6)
    with pytest.raises(ValueError):
        sampler.inverse_warp(np.ones((6, 6, 1)), np.ones((5, 6)), np.eye(4), K)
    with pytest.raises(ValueError):
        sampler.inverse_warp(np.ones((4, 4, 1)), np.ones((4, 4)), np.eye(4), K)


def test_pixel_grid_is_shared_and_read_only():
    rng = np.random.default_rng(5)
    src = rng.random((8, 12, 1))
    depth = rng.uniform(1.0, 2.0, (8, 12))
    T = geometry.pose_to_transform(PoseParams(tx=0.05))
    w1 = sampler.inverse_warp(src, depth, T, _camera(12, 8))
    w2 = sampler.inverse_warp(src, depth, T, _camera(12, 8))  # equal, not the same object
    assert w1.rays is w2.rays
    with pytest.raises(ValueError):
        w1.rays[0, 0, 0] = 1.0
