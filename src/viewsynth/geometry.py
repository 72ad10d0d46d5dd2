"""Rigid-body transforms, pinhole intrinsics, and pixel projection.

Conventions (fixed for the whole package):

* Camera frame: x right, y down, z forward. Positive depth is in front of
  the camera.
* Pixel (i, j) of an array (row i, column j) has continuous coordinate
  (u, v) = (j, i), top-left origin, u along width.
* Rotations are intrinsic Euler rotations composed as
  R = Rz(rz) @ Ry(ry) @ Rx(rx).
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


def rotation_to_euler(R: np.ndarray) -> tuple[float, float, float]:
    """The angles (rx, ry, rz) of R = Rz @ Ry @ Rx, the rotation block of
    pose_to_transform, away from the ry = +-pi/2 singularity."""
    R = np.asarray(R, dtype=float)
    ry = np.arcsin(np.clip(-R[2, 0], -1.0, 1.0))
    rx = np.arctan2(R[2, 1], R[2, 2])
    rz = np.arctan2(R[1, 0], R[0, 0])
    return float(rx), float(ry), float(rz)


def pose_to_transform(poses) -> np.ndarray:
    """4x4 rigid transforms of (..., 6) pose arrays (rx, ry, rz, tx, ty, tz),
    Euler angles in radians and a translation in scene units, with
    R = Rz @ Ry @ Rx: a (6,) pose gives (4, 4), an (S, 6) array (S, 4, 4)
    and a (B, S, 6) batch (B, S, 4, 4), in one pass over all of them. A zero
    pose gives exactly np.eye(4)."""
    poses = np.asarray(poses, dtype=float)
    if not np.isfinite(poses).all():
        raise ValueError("pose parameters must be finite")
    angles = poses[..., :3]
    Rx, Ry, Rz = _elemental_rotations(np.cos(angles), np.sin(angles))
    T = np.zeros(poses.shape[:-1] + (4, 4))
    T[..., :3, :3] = Rz @ Ry @ Rx
    T[..., :3, 3] = poses[..., 3:]
    T[..., 3, 3] = 1.0
    return T


def rotation_jacobians(angles):
    """dR/drx, dR/dry, dR/drz for R = Rz @ Ry @ Rx of (..., 3) angle arrays
    (rx, ry, rz): three (..., 3, 3) stacks.

    An elemental rotation's derivative is the rotation by angle + pi/2
    (cosine -sin, sine cos) with its fixed-axis 1 set to 0."""
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles), np.sin(angles)
    Rx, Ry, Rz = _elemental_rotations(c, s)
    dRx, dRy, dRz = _elemental_rotations(-s, c)
    dRx[..., 0, 0] = dRy[..., 1, 1] = dRz[..., 2, 2] = 0.0
    return Rz @ Ry @ dRx, Rz @ dRy @ Rx, dRz @ Ry @ Rx


def invert(T: np.ndarray) -> np.ndarray:
    T = check_rigid(T)
    R = T[:3, :3]
    out = np.eye(4)
    out[:3, :3] = R.T
    out[:3, 3] = -R.T @ T[:3, 3]
    return out


def backproject(u, v, depth, K: Intrinsics) -> np.ndarray:
    """Lift pixel coordinates at the given depth to camera-frame 3D points.

    Returns an array of shape (..., 3).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    depth = np.asarray(depth, dtype=float)
    x = depth * (u - K.cx) / K.fx
    y = depth * (v - K.cy) / K.fy
    z = depth * np.ones_like(x)
    return np.stack([x, y, z], axis=-1)


def rotation_operand(R: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """R (a rotation's transpose, maybe a view) as the right operand of
    pts @ R: a contiguous copy, which multiplies about three times faster.
    A single point or a map one pixel wide multiplies as vectors, which
    round differently with a copy, so it keeps the view."""
    return np.ascontiguousarray(R) if pts.ndim > 1 and pts.shape[-2] > 1 else R


def transform_points(T: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Apply a 4x4 rigid transform to (..., 3) points.

    A (B, 4, 4) stack of transforms maps an (H, W, 3) or (B, H, W, 3) grid of
    points to (B, H, W, 3), with the per-slice arithmetic of the 4x4 case.
    """
    if T.ndim == 2:
        out = pts @ rotation_operand(T[:3, :3].T, pts)
        t = T[:3, 3]
    else:
        out = pts @ rotation_operand(np.swapaxes(T[:, None, :3, :3], -1, -2), pts)
        t = T[:, None, None, :3, 3]
    # One coordinate at a time: broadcasting t over the short last axis is
    # several times slower.
    for c in range(3):
        out[..., c] += t[..., c]
    return out


def points_at_depth(depth: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """depth[..., None] * rays, one coordinate at a time (see transform_points)."""
    out = np.empty(np.broadcast_shapes(depth.shape, rays.shape[:-1]) + (3,))
    for c in range(3):
        np.multiply(depth, rays[..., c], out=out[..., c])
    return out


def project_points(pts: np.ndarray, K: Intrinsics):
    """Perspective projection; returns (u, v, z). Caller must mask z <= BEHIND_EPS.

    K needs only fx, fy, cx and cy; a sampler.PixelGrid may give them per
    point.
    """
    z = pts[..., 2]
    safe_z = np.where(z > BEHIND_EPS, z, 1.0)
    u = K.fx * pts[..., 0] / safe_z + K.cx
    v = K.fy * pts[..., 1] / safe_z + K.cy
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
