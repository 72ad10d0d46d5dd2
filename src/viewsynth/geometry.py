"""Rigid-body transforms, pinhole intrinsics, and pixel projection.

Conventions (fixed for the whole package):

* Camera frame: x right, y down, z forward. Positive depth is in front of
  the camera.
* Pixel (i, j) of an array (row i, column j) has continuous coordinate
  (u, v) = (j, i), top-left origin, u along width.
* Rotations are intrinsic Euler rotations composed as
  R = Rz(rz) @ Ry(ry) @ Rx(rx).
* A pose is a 6-vector (rx, ry, rz, tx, ty, tz), and a 3-D point or ray a
  coordinate-first (3, ...) array, one contiguous row per coordinate: there
  is no other pose type or point layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Source-frame z at or below this is treated as behind the camera.
BEHIND_EPS = 1e-6

_RIGID_TOL = 1e-9


class InvalidIntrinsics(ValueError):
    """An Intrinsics field out of range; `field` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera parameters, all in pixel units."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("fx", "fy"):
            f = getattr(self, name)
            if not (math.isfinite(f) and f > 0):
                raise InvalidIntrinsics(name, f"{name} must be finite and positive, got {f}")
        for name, size in (("cx", self.width), ("cy", self.height)):
            c = getattr(self, name)
            if not 0 < c < size:
                raise InvalidIntrinsics(
                    name, f"{name} {c} puts the principal point outside the image")


def check_rigid(T: np.ndarray) -> np.ndarray:
    """Validate a 4x4 rigid transform matrix; returns it as float64."""
    T = np.asarray(T, dtype=float)
    if T.shape != (4, 4):
        raise ValueError(f"expected 4x4 matrix, got {T.shape}")
    # NaN fails every comparison below, so it would pass them all.
    if not np.isfinite(T).all():
        raise ValueError("matrix has non-finite entries")
    R = T[:3, :3]
    if np.max(np.abs(R.T @ R - np.eye(3))) > _RIGID_TOL:
        raise ValueError("rotation block is not orthonormal")
    if abs(np.linalg.det(R) - 1.0) > _RIGID_TOL:
        raise ValueError("rotation block must have determinant +1")
    if not np.array_equal(T[3], [0.0, 0.0, 0.0, 1.0]):
        raise ValueError("bottom row must be exactly (0, 0, 0, 1)")
    return T


def _elemental_rotations(c: np.ndarray, s: np.ndarray):
    """Rx, Ry, Rz of (..., 3) angle arrays (rx, ry, rz), given as their
    cosines c and sines s, as (..., 3, 3) stacks of contiguous matrices."""
    Rx, Ry, Rz = np.zeros((3,) + c.shape[:-1] + (3, 3))
    Rx[..., 0, 0] = Ry[..., 1, 1] = Rz[..., 2, 2] = 1.0
    Rx[..., 1, 1] = Rx[..., 2, 2] = c[..., 0]
    Rx[..., 2, 1] = s[..., 0]
    Rx[..., 1, 2] = -s[..., 0]
    Ry[..., 0, 0] = Ry[..., 2, 2] = c[..., 1]
    Ry[..., 0, 2] = s[..., 1]
    Ry[..., 2, 0] = -s[..., 1]
    Rz[..., 0, 0] = Rz[..., 1, 1] = c[..., 2]
    Rz[..., 1, 0] = s[..., 2]
    Rz[..., 0, 1] = -s[..., 2]
    return Rx, Ry, Rz


def _rotations(angles: np.ndarray, jacobians: bool):
    """R = Rz @ Ry @ Rx of (..., 3) angle arrays (rx, ry, rz) and, with
    jacobians, (dR/drx, dR/dry, dR/drz), else None: (..., 3, 3) stacks from
    one pass of cos and sin, sharing Rz @ Ry between R and dR/drx.

    An elemental rotation's derivative is the rotation by angle + pi/2
    (cosine -sin, sine cos) with its fixed-axis 1 set to 0."""
    c, s = np.cos(angles), np.sin(angles)
    Rx, Ry, Rz = _elemental_rotations(c, s)
    RzRy = Rz @ Ry
    R = RzRy @ Rx
    if not jacobians:
        return R, None
    dRx, dRy, dRz = _elemental_rotations(-s, c)
    dRx[..., 0, 0] = dRy[..., 1, 1] = dRz[..., 2, 2] = 0.0
    return R, (RzRy @ dRx, Rz @ dRy @ Rx, dRz @ Ry @ Rx)


def _pose_transforms(poses, jacobians: bool = False):
    """(T, rot_jacs) of (..., 6) poses: pose_to_transform's transforms and,
    with jacobians, rotation_jacobians of the poses' angles (else None),
    from one _rotations pass."""
    poses = np.asarray(poses, dtype=float)
    if not np.isfinite(poses).all():
        raise ValueError("pose parameters must be finite")
    R, rot_jacs = _rotations(poses[..., :3], jacobians)
    T = np.zeros(poses.shape[:-1] + (4, 4))
    T[..., :3, :3] = R
    T[..., :3, 3] = poses[..., 3:]
    T[..., 3, 3] = 1.0
    return T, rot_jacs


def pose_to_transform(poses) -> np.ndarray:
    """4x4 rigid transforms of (..., 6) pose arrays (rx, ry, rz, tx, ty, tz),
    Euler angles in radians and a translation in scene units, with
    R = Rz @ Ry @ Rx: a (6,) pose gives (4, 4), an (S, 6) array (S, 4, 4)
    and a (B, S, 6) batch (B, S, 4, 4), in one pass over all of them. A zero
    pose gives exactly np.eye(4)."""
    return _pose_transforms(poses)[0]


def rotation_jacobians(angles):
    """dR/drx, dR/dry, dR/drz for R = Rz @ Ry @ Rx of (..., 3) angle arrays
    (rx, ry, rz): three (..., 3, 3) stacks."""
    return _rotations(np.asarray(angles, dtype=float), True)[1]


def invert(T: np.ndarray) -> np.ndarray:
    T = check_rigid(T)
    R = T[:3, :3]
    out = np.eye(4)
    out[:3, :3] = R.T
    out[:3, 3] = -R.T @ T[:3, 3]
    return out


def backproject(u, v, depth, K: Intrinsics) -> np.ndarray:
    """Lift pixel coordinates at the given depth to camera-frame 3D points.

    Returns a (3, ...) array: rows x, y, z over the shape of u, v and depth.
    """
    u, v, depth = (np.asarray(a, dtype=float) for a in (u, v, depth))
    x = depth * (u - K.cx) / K.fx
    y = depth * (v - K.cy) / K.fy
    z = depth * np.ones_like(x)
    return np.stack([x, y, z])


def transform_points(T: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Apply a 4x4 rigid transform to (3, ...) points: R @ pts + t, as one
    matrix product over all the points.

    A (B, 4, 4) stack of transforms maps (3, H, W) or (3, B, H, W) points to
    (3, B, H, W), each slice by a product of its own, which rounds as the
    4x4 case does. A point's transform never depends on how many points
    share its product: NumPy's BLAS multiplies a lone (3, 1) or (B, 3, 1)
    point as a vector, which may round unlike a matrix, so it goes as two
    equal columns and the first is kept.
    """
    if T.ndim == 2:
        P = pts.reshape(3, -1)
        out = T[:3, :3] @ (P.repeat(2, axis=1) if P.shape[1] == 1 else P)
        out += T[:3, 3:]
        return out[:, :P.shape[1]].reshape(pts.shape)
    n = pts.shape[-2] * pts.shape[-1]
    P = pts.reshape(3, -1, n).swapaxes(0, 1)
    out = np.empty((3, len(T), max(n, 2)))
    np.matmul(T[:, :3, :3], P.repeat(2, axis=2) if n == 1 else P, out=out.swapaxes(0, 1))
    out += T[:, :3, 3].T[..., None]
    return out[..., :n].reshape((3, len(T)) + pts.shape[-2:])


def points_at_depth(depth: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """The (3, ...) points at depth along (3, H, W) rays, depth * rays: an
    (H, W) depth map gives (3, H, W), a (B, H, W) stack (3, B, H, W)."""
    return depth * (rays if depth.ndim < rays.ndim else rays[:, None])


def project_points(pts: np.ndarray, K: Intrinsics, in_front=None):
    """Perspective projection of (3, ...) points; returns (u, v, z), each
    shaped like one of pts' rows. Caller must mask z <= BEHIND_EPS.

    K needs only fx, fy, cx and cy; a sampler.PixelGrid may give them per
    point. in_front, when given, is the caller's z > BEHIND_EPS of pts.
    """
    x, y, z = pts
    safe_z = np.where(z > BEHIND_EPS if in_front is None else in_front, z, 1.0)
    # fx x / safe_z + cx and fy y / safe_z + cy, in place.
    u = K.fx * x
    u /= safe_z
    u += K.cx
    v = K.fy * y
    v /= safe_z
    v += K.cy
    return u, v, z


def scale_intrinsics(K: Intrinsics, level: int) -> Intrinsics:
    """Intrinsics for pyramid level `level` (each level halves both dims)."""
    if level < 0:
        raise ValueError("level must be >= 0")
    out = K
    for _ in range(level):
        w, h = out.width // 2, out.height // 2
        if w < 2 or h < 2:
            raise ValueError(f"image too small at pyramid level {level}")
        out = replace(
            out, fx=out.fx / 2, fy=out.fy / 2, cx=out.cx / 2, cy=out.cy / 2,
            width=w, height=h,
        )
    return out
