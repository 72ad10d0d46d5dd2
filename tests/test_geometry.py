import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewsynth import geometry, gradcheck, losses, sampler
from viewsynth.geometry import Intrinsics
from viewsynth.synth import SceneSpec

angles = st.floats(-3.0, 3.0)
small = st.floats(-10.0, 10.0)
poses = st.tuples(angles, angles, angles, small, small, small).map(np.array)


def test_zero_pose_is_exact_identity():
    T = geometry.pose_to_transform(np.zeros(6))
    assert np.array_equal(T, np.eye(4))


def test_quarter_turn_about_z():
    T = geometry.pose_to_transform([0, 0, np.pi / 2, 0, 0, 0])
    expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    assert np.allclose(T[:3, :3], expected, atol=1e-15)
    # x-axis maps to y-axis
    assert np.allclose(T[:3, :3] @ [1, 0, 0], [0, 1, 0], atol=1e-15)


def test_pose_matches_elemental_matrix_product():
    # Independent oracle: multiply the three elemental rotations numerically.
    rx, ry, rz = 0.1, -0.2, 0.3
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    T = geometry.pose_to_transform([rx, ry, rz, 1, 2, 3])
    assert np.allclose(T[:3, :3], Rz @ Ry @ Rx, atol=1e-15)
    assert np.array_equal(T[:3, 3], [1, 2, 3])


def test_pose_rejects_nonfinite():
    K = Intrinsics(fx=10.0, fy=10.0, cx=5.0, cy=4.0, width=10, height=8)
    for i, bad in enumerate([np.nan, np.inf, -np.inf]):
        pose = np.zeros(6)
        pose[2 * i] = bad
        with pytest.raises(ValueError, match="pose parameters must be finite"):
            geometry.pose_to_transform(pose)
        with pytest.raises(ValueError, match="trajectory poses must be finite"):
            SceneSpec(trajectory=[np.zeros(6), pose], intrinsics=K)


def _scalar_pose_to_transform(pose) -> np.ndarray:
    """One pose row's transform by the scalar arithmetic pose_to_transform
    had before the array form: the bitwise reference for it."""
    rx, ry, rz, tx, ty, tz = np.asarray(pose, dtype=float).tolist()
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    T = np.eye(4)
    T[:3, :3] = Rz @ Ry @ Rx
    T[:3, 3] = (tx, ty, tz)
    return T


@pytest.mark.parametrize("shape", [(1, 6), (2, 6), (4, 6), (24, 2, 6), (3, 4, 6)])
def test_pose_to_transform_equals_scalar_arithmetic_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(20):
        poses = rng.normal(0.0, 1.0, shape)
        # Angles of either sign with magnitudes from 1e-3 to 3 rad.
        poses[..., :3] = rng.choice([-1.0, 1.0], shape[:-1] + (3,)) * np.exp(
            rng.uniform(np.log(1e-3), np.log(3.0), shape[:-1] + (3,)))
        T = geometry.pose_to_transform(poses)
        assert T.shape == shape[:-1] + (4, 4)
        for idx in np.ndindex(shape[:-1]):
            ref = _scalar_pose_to_transform(poses[idx]).tobytes()
            assert T[idx].tobytes() == ref, idx
            assert geometry.pose_to_transform(poses[idx]).tobytes() == ref


@pytest.mark.parametrize("shape", [(2, 6), (3, 2, 6)])
def test_zero_poses_give_exact_identities_and_identity_warps(shape):
    T = geometry.pose_to_transform(np.zeros(shape))
    assert all(np.array_equal(T[idx], np.eye(4)) for idx in np.ndindex(shape[:-1]))
    # inverse_warp's identity shortcut returns the source bit for bit.
    K = Intrinsics(fx=10.0, fy=10.0, cx=5.7, cy=3.9, width=12, height=8)
    src = np.random.default_rng(0).random((8, 12, 2))
    for transform in losses._source_transforms(np.zeros(shape))[0]:
        warp = sampler.inverse_warp(src, np.full((8, 12), 2.0), transform, K, want_grads=False)
        assert np.array_equal(warp.warped, np.broadcast_to(src, warp.warped.shape))


@pytest.mark.parametrize("batch", [None, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_total_loss_rejects_nonfinite_poses(batch, bad):
    state, cfg = gradcheck.random_instance(0)
    poses = state.poses.copy() if batch is None else np.stack([state.poses] * batch)
    poses[..., -1, 4] = bad
    state.poses = poses
    with pytest.raises(ValueError, match="pose parameters must be finite"):
        losses.total_loss(state.snippet, state, cfg, want_grads=batch is None)
    with pytest.raises(ValueError, match="pose parameters must be finite"):
        geometry.pose_to_transform(poses)


@pytest.mark.parametrize("idx", [(0, 0), (1, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_rigid_rejects_nonfinite(idx, bad):
    T = np.eye(4)
    T[idx] = bad
    with pytest.raises(ValueError, match="non-finite"):
        geometry.check_rigid(T)


@given(poses)
@settings(max_examples=50)
def test_pose_transform_is_rigid(p):
    T = geometry.pose_to_transform(p)
    R = T[:3, :3]
    assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-9
    assert abs(np.linalg.det(R) - 1) < 1e-9
    assert np.array_equal(T[3], [0, 0, 0, 1])


def test_invert_identity_and_translation():
    assert np.array_equal(geometry.invert(np.eye(4)), np.eye(4))
    T = geometry.pose_to_transform([0, 0, 0, 1, 2, 3])
    Ti = geometry.invert(T)
    assert np.allclose(Ti[:3, 3], [-1, -2, -3])


@given(poses)
@settings(max_examples=50)
def test_invert_roundtrip(p):
    T = geometry.pose_to_transform(p)
    assert np.max(np.abs(T @ geometry.invert(T) - np.eye(4))) < 1e-9
    assert np.max(np.abs(geometry.invert(geometry.invert(T)) - T)) < 1e-9


K = Intrinsics(fx=100, fy=100, cx=50, cy=50, width=100, height=100)


def _source_coords(u, v, depth, K, T):
    """Source coordinates (u_s, v_s, z_s) of target pixels (u, v) at `depth`,
    along the path inverse_warp runs: backproject, transform, project, all
    on (3, ...) points."""
    pts = geometry.transform_points(T, geometry.backproject(u, v, depth, K))
    assert pts.shape == (3,) + np.shape(u)
    return geometry.project_points(pts, K)


def test_project_identity_is_identity_map():
    u, v = np.array([3.0, 17.5, 80.0]), np.array([5.0, 44.2, 99.0])
    for depth in (0.5, 1.0, 7.3):
        us, vs, zs = _source_coords(u, v, depth, K, np.eye(4))
        assert np.max(np.abs(us - u)) < 1e-12
        assert np.max(np.abs(vs - v)) < 1e-12
        assert np.allclose(zs, depth)


def test_project_pure_x_translation_shift():
    # fronto-parallel point: p_s = (u + fx * tx / D, v)
    T = geometry.pose_to_transform([0, 0, 0, 0.4, 0, 0])
    D = 2.0
    us, vs, zs = _source_coords(30.0, 70.0, D, K, T)
    assert abs(us - (30.0 + K.fx * 0.4 / D)) < 1e-12
    assert abs(vs - 70.0) < 1e-12


def test_project_on_axis_z_translation():
    T = geometry.pose_to_transform([0, 0, 0, 0, 0, -1.0])
    us, vs, zs = _source_coords(50.0, 50.0, 2.0, K, T)
    assert (us, vs) == (50.0, 50.0)
    assert zs == 1.0


def test_project_rejects_nonpositive_depth():
    depth = np.ones((100, 100))
    depth[10, 10] = 0.0
    with pytest.raises(ValueError, match="depth must be positive"):
        sampler.inverse_warp(np.ones((100, 100, 1)), depth, np.eye(4), K)


def test_project_behind_camera_flagged_not_raised():
    T = geometry.pose_to_transform([0, 0, 0, 0, 0, -5.0])
    _, _, zs = _source_coords(50.0, 50.0, 2.0, K, T)
    assert zs <= geometry.BEHIND_EPS


@given(poses, st.floats(0.1, 10.0), st.floats(0.1, 50.0))
@settings(max_examples=50)
def test_project_depth_translation_scale_covariance(p, depth, s):
    # Scaling depth and translation jointly leaves the projection unchanged.
    T1 = geometry.pose_to_transform(p)
    T2 = geometry.pose_to_transform(np.concatenate([p[:3], s * p[3:]]))
    u1, v1, z1 = _source_coords(37.0, 21.0, depth, K, T1)
    u2, v2, z2 = _source_coords(37.0, 21.0, s * depth, K, T2)
    if z1 > geometry.BEHIND_EPS and z2 > geometry.BEHIND_EPS:
        assert abs(u1 - u2) < 1e-6 * max(1, abs(u1))
        assert abs(v1 - v2) < 1e-6 * max(1, abs(v1))


def test_scale_intrinsics():
    K0 = Intrinsics(fx=100, fy=90, cx=64, cy=32, width=128, height=64)
    assert geometry.scale_intrinsics(K0, 0) == K0
    K1 = geometry.scale_intrinsics(K0, 1)
    assert (K1.fx, K1.fy, K1.cx, K1.cy) == (50, 45, 32, 16)
    assert (K1.width, K1.height) == (64, 32)
    with pytest.raises(ValueError):
        geometry.scale_intrinsics(K0, 6)  # height would reach 1


def test_intrinsics_invariants():
    with pytest.raises(ValueError):
        Intrinsics(fx=-1, fy=1, cx=5, cy=5, width=10, height=10)
    with pytest.raises(ValueError):
        Intrinsics(fx=1, fy=1, cx=20, cy=5, width=10, height=10)
    # NaN fails every comparison and inf > 0 holds, so both need their own check.
    for bad in (np.inf, -np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="fx"):
            Intrinsics(fx=bad, fy=1, cx=5, cy=5, width=10, height=10)
        with pytest.raises(ValueError, match="fy"):
            Intrinsics(fx=1, fy=bad, cx=5, cy=5, width=10, height=10)


@pytest.mark.parametrize("angles", [(0.0, 0.0, 0.0), (0.3, -0.2, 0.1), (-1.1, 0.7, 2.5)])
def test_rotation_jacobians_match_central_differences(angles):
    h = 1e-6
    for i, J in enumerate(geometry.rotation_jacobians(angles)):
        hi, lo = list(angles), list(angles)
        hi[i] += h
        lo[i] -= h
        fd = (geometry.pose_to_transform(hi + [0, 0, 0])[:3, :3]
              - geometry.pose_to_transform(lo + [0, 0, 0])[:3, :3]) / (2 * h)
        assert np.max(np.abs(J - fd)) < 1e-9, i


def _scalar_rotation_jacobians(rx, ry, rz):
    """One row's rotation Jacobians by the scalar arithmetic
    rotation_jacobians had before the stacked form: the bitwise reference."""
    angles = np.array([rx, ry, rz])
    c, s = np.cos(angles), np.sin(angles)
    Rx, Ry, Rz = geometry._elemental_rotations(c, s)
    (cx, cy, cz), (sx, sy, sz) = c.tolist(), s.tolist()
    dRx = np.array([[0, 0, 0], [0, -sx, -cx], [0, cx, -sx]])
    dRy = np.array([[-sy, 0, cy], [0, 0, 0], [-cy, 0, -sy]])
    dRz = np.array([[-sz, -cz, 0], [cz, -sz, 0], [0, 0, 0]])
    return Rz @ Ry @ dRx, Rz @ dRy @ Rx, dRz @ Ry @ Rx


@pytest.mark.parametrize("S", [1, 2, 3, 4])
def test_stacked_rotation_jacobians_equal_each_row_bitwise(S):
    rng = np.random.default_rng(S)
    for trial in range(20):
        poses = rng.uniform(-3.0, 3.0, (S, 6))
        if trial % 2:   # a zero row, as for an initial pose; S = 1 checks both
            poses[trial % S, :3] = 0.0
        stacks = geometry.rotation_jacobians(poses[:, :3])
        assert [J.shape for J in stacks] == [(S, 3, 3)] * 3
        for s in range(S):
            row = geometry.rotation_jacobians(poses[s, :3])
            ref = _scalar_rotation_jacobians(*poses[s, :3].tolist())
            for J, J_row, J_ref in zip(stacks, row, ref, strict=True):
                assert J[s].tobytes() == J_row.tobytes() == J_ref.tobytes(), (trial, s)


@pytest.mark.parametrize("shape", [(6,), (1, 6), (3, 6), (2, 4, 6)])
def test_one_pass_transforms_and_jacobians_equal_scalar_arithmetic_bitwise(shape):
    # The one trig pass of a gradient call gives the transforms and the
    # Jacobians that the scalar references and the two public functions give.
    rng = np.random.default_rng(len(shape) * 10 + shape[0])
    for trial in range(10):
        poses = rng.uniform(-3.0, 3.0, shape)
        if trial == 0:   # a zero row, as for an initial pose
            poses.reshape(-1, 6)[-1, :3] = 0.0
        T, jacs = geometry._pose_transforms(poses, jacobians=True)
        assert T.shape == shape[:-1] + (4, 4)
        assert [J.shape for J in jacs] == [shape[:-1] + (3, 3)] * 3
        assert T.tobytes() == geometry.pose_to_transform(poses).tobytes()
        for J, J_pub in zip(jacs, geometry.rotation_jacobians(poses[..., :3]), strict=True):
            assert J.tobytes() == J_pub.tobytes()
        for idx in np.ndindex(shape[:-1]):
            assert T[idx].tobytes() == _scalar_pose_to_transform(poses[idx]).tobytes(), idx
            ref = _scalar_rotation_jacobians(*poses[idx][:3].tolist())
            for J, J_ref in zip(jacs, ref, strict=True):
                assert J[idx].tobytes() == J_ref.tobytes(), (trial, idx)
        T_only, none = geometry._pose_transforms(poses)
        assert none is None and T_only.tobytes() == T.tobytes()


# -- Points and rays: (3, ...) arrays, one contiguous row per coordinate -------

def test_points_and_rays_are_contiguous_coordinate_rows():
    K8 = Intrinsics(fx=10.0, fy=11.0, cx=6.0, cy=4.0, width=12, height=8)
    rays = sampler.pixel_grid(K8).rays
    assert rays.shape == (3, 8, 12) and rays.flags.c_contiguous
    assert np.array_equal(rays[2], np.ones((8, 12)))
    joined = sampler.join_grids([sampler.pixel_grid(K8),
                                 sampler.pixel_grid(geometry.scale_intrinsics(K8, 1))])
    assert joined.rays.shape == (3, 1, 120) and joined.rays.flags.c_contiguous
    rng = np.random.default_rng(0)
    depth = rng.uniform(1.0, 3.0, (8, 12))
    stack = rng.uniform(1.0, 3.0, (4, 8, 12))
    T = geometry.pose_to_transform([0.1, -0.2, 0.3, 0.5, -0.1, 0.2])
    Ts = geometry.pose_to_transform(rng.uniform(-1.0, 1.0, (4, 6)))
    P = geometry.points_at_depth(depth, rays)
    P_stack = geometry.points_at_depth(stack, rays)
    for c in range(3):
        assert P[c].tobytes() == (depth * rays[c]).tobytes()
        assert P_stack[c].tobytes() == (stack * rays[c]).tobytes()
    for pts, shape in ((P, (3, 8, 12)), (P_stack, (3, 4, 8, 12)),
                       (geometry.transform_points(T, P), (3, 8, 12)),
                       (geometry.transform_points(T, P_stack), (3, 4, 8, 12)),
                       (geometry.transform_points(Ts, P), (3, 4, 8, 12)),
                       (geometry.transform_points(Ts, P_stack), (3, 4, 8, 12))):
        assert pts.shape == shape and pts.flags.c_contiguous


@given(st.integers(1, 9), st.integers(2, 40), st.integers(1, 4), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_transform_stack_equals_each_transform_bitwise(height, width, batch, stacked, seed):
    # One product per transform: each slice rounds as that transform's own
    # call, on one shared map of points or on a stack with one map each.
    rng = np.random.default_rng(seed)
    Ts = geometry.pose_to_transform(rng.uniform(-3.0, 3.0, (batch, 6)))
    pts = rng.uniform(-5.0, 5.0, (3,) + ((batch,) if stacked else ()) + (height, width))
    out = geometry.transform_points(Ts, pts)
    assert out.shape == (3, batch, height, width)
    for b, T in enumerate(Ts):
        own = geometry.transform_points(T, pts[:, b] if stacked else pts)
        assert out[:, b].tobytes() == own.tobytes(), b


@given(st.integers(1, 6), st.integers(1, 9), st.integers(1, 3), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_transform_of_one_point_equals_its_column_of_a_wider_product(
        height, width, batch, stacked, seed):
    # A lone point multiplies as a (3, 1) column or a (B, 3, 1) stack, which
    # BLAS may round unlike the same point's column of a wider product; its
    # transform must not depend on how many points share the product.
    rng = np.random.default_rng(seed)
    T = geometry.pose_to_transform(rng.uniform(-3.0, 3.0, 6))
    Ts = geometry.pose_to_transform(rng.uniform(-3.0, 3.0, (batch, 6)))
    pts = rng.uniform(-5.0, 5.0, (3,) + ((batch,) if stacked else ()) + (height, width))
    all_T, all_Ts = geometry.transform_points(T, pts), geometry.transform_points(Ts, pts)
    for i in range(height):
        for j in range(width):
            one = pts[..., i:i + 1, j:j + 1]
            assert geometry.transform_points(T, one).tobytes() == \
                all_T[..., i:i + 1, j:j + 1].tobytes(), (i, j)
            assert geometry.transform_points(Ts, one).tobytes() == \
                all_Ts[..., i:i + 1, j:j + 1].tobytes(), (i, j)
            assert geometry.transform_points(T, pts[:, ..., i, j]).tobytes() == \
                all_T[..., i, j].tobytes(), (i, j)


def test_transform_points_is_R_times_the_rows_plus_t():
    rng = np.random.default_rng(1)
    T = geometry.pose_to_transform([0.4, -0.3, 0.2, 1.0, -2.0, 0.5])
    pts = rng.uniform(-5.0, 5.0, (3, 6, 7))
    out = geometry.transform_points(T, pts)
    for c in range(3):
        expected = sum(T[c, k] * pts[k] for k in range(3)) + T[c, 3]
        assert np.allclose(out[c], expected, rtol=1e-14, atol=1e-14)
    x, y, z = out
    u, v, zs = geometry.project_points(out, K)
    safe_z = np.where(z > geometry.BEHIND_EPS, z, 1.0)
    assert np.array_equal(u, K.fx * x / safe_z + K.cx) and np.array_equal(zs, z)
    assert np.array_equal(v, K.fy * y / safe_z + K.cy)
