"""Differentiable inverse warping: bilinear sampling at projected coordinates.

All images are float arrays of shape (H, W, C) with values in [0, 1].
Out-of-bounds and behind-camera pixels get zero value and zero gradient and
are excluded from losses via the valid mask.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import BEHIND_EPS, Intrinsics


def _as_image(img) -> np.ndarray:
    img = np.asarray(img, dtype=float)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"expected (H, W, C) image, got shape {img.shape}")
    return img


@dataclass
class WarpResult:
    """Inverse-warp output plus everything needed for backpropagation.

    warped:     (H, W, C) source resampled on the target grid, zero where invalid
    valid:      (H, W) bool; in-bounds and in front of the source camera
    d_du, d_dv: (H, W, C) partials of each warped intensity w.r.t. (u_s, v_s)
    us, vs, zs: (H, W) projected source coordinates and source-frame depth
    rays:       (H, W, 3) unit-depth target-frame ray K^-1 [u, v, 1]; the
                read-only array shared through pixel_grid (so are us, vs
                when T is the identity)
    src_points: (H, W, 3) target points expressed in the source camera frame
    """

    warped: np.ndarray
    valid: np.ndarray
    d_du: np.ndarray
    d_dv: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    zs: np.ndarray
    rays: np.ndarray
    src_points: np.ndarray


def bilinear_sample(img, u, v, want_grads: bool = True):
    """Sample img at continuous coordinates with analytic gradients.

    Returns (value, d_du, d_dv, valid), each broadcast over the shape of
    u/v with a trailing channel axis on the first three. Coordinates outside
    [0, W-1] x [0, H-1] are invalid: value 0, gradient 0.

    The cell is assigned by floor (right-sided derivative at integer
    coordinates); the top edge u = W-1 / v = H-1 belongs to the last cell.
    """
    img = _as_image(img)
    H, W, _ = img.shape
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    valid = (u >= 0) & (u <= W - 1) & (v >= 0) & (v <= H - 1)

    # np.minimum/np.maximum give np.clip's values without its Python-level
    # dispatch, which costs more than the arithmetic at these sizes. The
    # lower bound on x0/y0 only matters for NaN coordinates, whose integer
    # cast is negative.
    uc = np.minimum(np.maximum(u, 0), W - 1)
    vc = np.minimum(np.maximum(v, 0), H - 1)
    x0 = np.minimum(np.maximum(np.floor(uc).astype(int), 0), max(W - 2, 0))
    y0 = np.minimum(np.maximum(np.floor(vc).astype(int), 0), max(H - 2, 0))
    x1 = np.minimum(x0 + 1, W - 1)
    y1 = np.minimum(y0 + 1, H - 1)
    du = uc - x0
    dv = vc - y0

    Itl = img[y0, x0]
    Itr = img[y0, x1]
    Ibl = img[y1, x0]
    Ibr = img[y1, x1]

    du_ = du[..., None]
    dv_ = dv[..., None]
    top = Itl + du_ * (Itr - Itl)
    bot = Ibl + du_ * (Ibr - Ibl)
    value = top + dv_ * (bot - top)

    m = valid[..., None]
    if not want_grads:
        return np.where(m, value, 0.0), None, None, valid
    grad_u = (1 - dv_) * (Itr - Itl) + dv_ * (Ibr - Ibl)
    grad_v = bot - top
    return np.where(m, value, 0.0), np.where(m, grad_u, 0.0), np.where(m, grad_v, 0.0), valid


@functools.lru_cache(maxsize=16)
def pixel_grid(K: Intrinsics):
    """Target pixel coordinates (jj, ii), each (H, W), and the (H, W, 3)
    unit-depth rays K^-1 [u, v, 1].

    Memoized per Intrinsics, so the arrays are shared by every caller and
    made read-only.
    """
    jj, ii = np.meshgrid(np.arange(K.width, dtype=float), np.arange(K.height, dtype=float))
    rays = geometry.backproject(jj, ii, 1.0, K)
    for a in (jj, ii, rays):
        a.flags.writeable = False
    return jj, ii, rays


def inverse_warp(src, depth, T: np.ndarray, K: Intrinsics,
                 want_grads: bool = True) -> WarpResult:
    """Warp a source image onto the target grid via depth and relative pose.

    For every target pixel, projects through `T` (target-to-source) at the
    given per-pixel depth and bilinearly samples `src` there. want_grads=False
    skips the per-pixel jacobian buffers (forward-only evaluation).
    """
    src = _as_image(src)
    depth = np.asarray(depth, dtype=float)
    H, W, _ = src.shape
    if depth.shape != (H, W):
        raise ValueError(f"depth shape {depth.shape} does not match image {(H, W)}")
    if (K.width, K.height) != (W, H):
        raise ValueError("intrinsics dimensions do not match image")
    if np.any(depth <= 0):
        raise ValueError("depth must be positive")

    jj, ii, rays = pixel_grid(K)
    pts = geometry.transform_points(T, depth[..., None] * rays)
    if np.array_equal(T, np.eye(4)):
        # Identity map is exact; skip the float round-trip through K so the
        # warp reproduces the source bit-for-bit.
        us, vs, zs = jj, ii, depth
    else:
        us, vs, zs = geometry.project_points(pts, K)
    in_front = zs > BEHIND_EPS

    warped, d_du, d_dv, in_bounds = bilinear_sample(src, us, vs, want_grads)
    valid = in_front & in_bounds
    m = valid[..., None]
    return WarpResult(
        warped=np.where(m, warped, 0.0),
        valid=valid,
        d_du=np.where(m, d_du, 0.0) if want_grads else None,
        d_dv=np.where(m, d_dv, 0.0) if want_grads else None,
        us=us,
        vs=vs,
        zs=zs,
        rays=rays,
        src_points=pts,
    )
