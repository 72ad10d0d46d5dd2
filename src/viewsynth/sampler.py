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

_IDENTITY = np.eye(4)
_IDENTITY.flags.writeable = False


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
    d_du, d_dv: (H, W, C) partials of each warped intensity w.r.t. (u_s, v_s);
                None for a forward-only warp
    rays:       (H, W, 3) unit-depth target-frame ray K^-1 [u, v, 1]; the
                read-only array shared through pixel_grid
    src_points: (H, W, 3) target points expressed in the source camera frame

    A batched warp (see inverse_warp) puts a leading batch axis on warped,
    valid and src_points.
    """

    warped: np.ndarray
    valid: np.ndarray
    d_du: np.ndarray
    d_dv: np.ndarray
    rays: np.ndarray
    src_points: np.ndarray


def bilinear_sample(img, u, v, want_grads: bool = True, keep=None):
    """Sample img at continuous coordinates with analytic gradients.

    Returns (value, d_du, d_dv, valid), each broadcast over the shape of
    u/v with a trailing channel axis on the first three. Coordinates outside
    [0, W-1] x [0, H-1] are invalid: value 0, gradient 0. keep, when given,
    is a boolean map that invalidates more pixels the same way (inverse_warp
    passes its in-front-of-camera test), so the outputs are masked once.

    The cell is assigned by floor (right-sided derivative at integer
    coordinates); the top edge u = W-1 / v = H-1 belongs to the last cell.
    """
    img = _as_image(img)
    H, W, _ = img.shape
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    valid = (u >= 0) & (u <= W - 1) & (v >= 0) & (v <= H - 1)
    if keep is not None:
        valid = valid & keep

    # fmin/fmax map a NaN coordinate to 0 (its pixel is already invalid), so
    # the integer cast below never sees NaN; finite values clamp as np.clip.
    uc = np.fmin(np.fmax(u, 0), W - 1)
    vc = np.fmin(np.fmax(v, 0), H - 1)
    x0 = np.minimum(np.floor(uc).astype(int), max(W - 2, 0))
    y0 = np.minimum(np.floor(vc).astype(int), max(H - 2, 0))
    du = uc - x0
    dv = vc - y0

    # Gather the four corners from the flattened image: take on one axis is
    # several times faster than 2-D fancy indexing. The right and lower
    # neighbours are +1 and +W, or the same pixel in a 1-wide or 1-high image.
    flat = img.reshape(H * W, img.shape[2])
    tl = y0 * W + x0
    tr = tl + 1 if W > 1 else tl
    bl = tl + W if H > 1 else tl
    br = bl + 1 if W > 1 else bl
    # The differences and blends are built in place. They compute
    # top = Itl + du (Itr - Itl), bot = Ibl + du (Ibr - Ibl) and
    # value = top + dv (bot - top) bit for bit: a float sum or product does
    # not depend on the order of its two operands.
    Itl = flat.take(tl, axis=0)
    Ibl = flat.take(bl, axis=0)
    d_top = flat.take(tr, axis=0)
    d_top -= Itl
    d_bot = flat.take(br, axis=0)
    d_bot -= Ibl
    du_ = du[..., None]
    dv_ = dv[..., None]
    top = du_ * d_top
    top += Itl
    bot = du_ * d_bot
    bot += Ibl
    grad_v = bot - top
    value = dv_ * grad_v
    value += top

    m = valid[..., None]
    if not want_grads:
        return np.where(m, value, 0.0), None, None, valid
    grad_u = (1 - dv_) * d_top
    grad_u += dv_ * d_bot
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

    depth may be a (B, H, W) stack and T a (B, 4, 4) stack, one per parameter
    set of a batch; an unbatched one is shared by the batch. The result then
    carries the batch axis, and each slice equals the unbatched warp bitwise.
    """
    src = _as_image(src)
    depth = np.asarray(depth, dtype=float)
    H, W, _ = src.shape
    if depth.shape[-2:] != (H, W) or depth.ndim > 3:
        raise ValueError(f"depth shape {depth.shape} does not match image {(H, W)}")
    if (K.width, K.height) != (W, H):
        raise ValueError("intrinsics dimensions do not match image")
    if np.any(depth <= 0):
        raise ValueError("depth must be positive")

    jj, ii, rays = pixel_grid(K)
    pts = geometry.transform_points(T, depth[..., None] * rays)
    identity = (T == _IDENTITY).all(axis=(-2, -1))   # one flag per transform
    if (identity.all() if T.ndim == 3 else identity):
        # Identity map is exact; skip the float round-trip through K so the
        # warp reproduces the source bit-for-bit.
        us, vs, zs = jj, ii, depth
    else:
        us, vs, zs = geometry.project_points(pts, K)
        if T.ndim == 3 and identity.any():
            # A batch of transforms takes the same shortcut per element.
            keep = identity[:, None, None]
            us = np.where(keep, jj, us)
            vs = np.where(keep, ii, vs)
            zs = np.where(keep, depth, zs)
    in_front = zs > BEHIND_EPS

    warped, d_du, d_dv, valid = bilinear_sample(src, us, vs, want_grads, in_front)
    return WarpResult(warped=warped, valid=valid, d_du=d_du, d_dv=d_dv,
                      rays=rays, src_points=pts)
