"""Differentiable inverse warping: bilinear sampling at projected coordinates.

All images are float arrays of shape (H, W, C) with values in [0, 1].
Out-of-bounds and behind-camera pixels get zero value and zero gradient and
are excluded from losses via the valid mask.

In place: a function here overwrites only arrays it allocated, never one its
caller can see (tests/test_working_set.py checks every input byte for byte).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

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
    src_points: (3, H, W) target points in the source camera frame, a row per
                coordinate; None for a forward-only warp

    A warp over a PixelGrid row (see join_grids) has the grid's (1, N) in
    place of (H, W).

    A batched warp (see inverse_warp) puts a leading batch axis on warped
    and valid, and a second axis (3, B, ...) on src_points.
    """

    warped: np.ndarray
    valid: np.ndarray
    d_du: np.ndarray
    d_dv: np.ndarray
    src_points: np.ndarray


class SampleLayout(NamedTuple):
    """Where bilinear_sample finds each coordinate's image in a (rows, C)
    stack of flattened images: Python numbers for one image (image_layout),
    or one value per coordinate when they sample several (join_grids)."""

    u_max: float | np.ndarray   # W - 1 and H - 1, the last column and row
    v_max: float | np.ndarray
    x0_max: int | np.ndarray    # max(W - 2, 0) and max(H - 2, 0), the last cell
    y0_max: int | np.ndarray
    right: int | np.ndarray     # stack rows to the right neighbour (0 if 1 wide)
    down: int | np.ndarray      # and to the one below (0 if 1 high)
    offset: int | np.ndarray    # stack row of the image's first pixel


def image_layout(height: int, width: int) -> SampleLayout:
    """The layout of one image alone in its stack. down doubles as the row
    stride: with one row, the only cell row is 0."""
    return SampleLayout(width - 1.0, height - 1.0, max(width - 2, 0), max(height - 2, 0),
                        1 if width > 1 else 0, width if height > 1 else 0, 0)


def bilinear_sample(img, u, v, want_grads: bool = True, keep=None, layout=None):
    """Sample img at continuous coordinates with analytic gradients.

    Returns (value, d_du, d_dv, valid), each broadcast over the shape of
    u/v with a trailing channel axis on the first three. Coordinates outside
    [0, W-1] x [0, H-1], NaN and +-inf among them, are invalid: value 0,
    gradient 0, and no floating-point warning. keep, when given, is a
    boolean map that invalidates more pixels the same way (inverse_warp
    passes its in-front-of-camera test), so the outputs are masked once.

    layout, when given, is img's SampleLayout: img may then be a (rows, C)
    stack of flattened images, and each coordinate samples its own one.

    The cell is assigned by floor (right-sided derivative at integer
    coordinates); the top edge u = W-1 / v = H-1 belongs to the last cell.
    """
    if layout is None:
        img = _as_image(img)
        layout = image_layout(img.shape[0], img.shape[1])
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    # Every map below is an array of this function's own: written with out=
    # and in-place operators, the working set is the outputs and the four
    # corner arrays, and a 0-d coordinate keeps 0-d arrays (not scalars).
    du = np.empty(np.broadcast_shapes(u.shape, v.shape))
    dv = np.empty(du.shape)
    # fmin/fmax map a NaN coordinate to 0, so the integer cast below never
    # sees NaN; finite values clamp as np.clip. A coordinate is in bounds
    # exactly when clamping leaves it as it is.
    np.fmin(np.fmax(u, 0, out=du), layout.u_max, out=du)
    np.fmin(np.fmax(v, 0, out=dv), layout.v_max, out=dv)
    valid = du == u
    valid &= dv == v
    if keep is not None:
        valid = valid & keep
    # The integer cast floors the clamped, nonnegative coordinates; the
    # cell's fractions du, dv replace them, and idx (the cell's row) becomes
    # the stack row of the top-left corner, which steps to the other three.
    x0 = du.astype(np.intp)
    np.minimum(x0, layout.x0_max, out=x0)
    idx = dv.astype(np.intp)
    np.minimum(idx, layout.y0_max, out=idx)
    du -= x0
    dv -= idx
    idx *= layout.down
    idx += x0
    del x0
    if isinstance(layout.offset, np.ndarray):
        idx += layout.offset

    # Gather the four corners from the flattened image: take on one axis is
    # several times faster than 2-D fancy indexing.
    flat = img.reshape(-1, img.shape[-1])
    Itl = flat.take(idx, axis=0)
    idx += layout.down
    Ibl = flat.take(idx, axis=0)
    idx += layout.right
    d_bot = flat.take(idx, axis=0)
    d_bot -= Ibl
    idx -= layout.down
    d_top = flat.take(idx, axis=0)
    d_top -= Itl
    del idx
    # The blends are built in place. They compute
    # top = Itl + du (Itr - Itl), bot = Ibl + du (Ibr - Ibl),
    # value = top + dv (bot - top) and d/du = (1 - dv) (Itr - Itl) + dv (Ibr - Ibl)
    # bit for bit: a float sum or product does not depend on the order of
    # its two operands.
    du_ = du[..., None]
    dv_ = dv[..., None]
    value = du_ * d_top
    Itl += value         # top
    np.multiply(du_, d_bot, out=value)
    Ibl += value         # bot
    grad_v = Ibl
    grad_v -= Itl
    np.multiply(dv_, grad_v, out=value)
    value += Itl
    del Itl
    # Invalid entries become 0, as np.where(valid, x, 0.0) would give.
    invalid = ~valid[..., None]
    np.copyto(value, 0.0, where=invalid)
    if not want_grads:
        return value, None, None, valid
    np.subtract(1, dv, out=du)   # du_ is now 1 - dv
    grad_u = d_top
    grad_u *= du_
    d_bot *= dv_
    grad_u += d_bot
    del d_bot
    np.copyto(grad_u, 0.0, where=invalid)
    np.copyto(grad_v, 0.0, where=invalid)
    return value, grad_u, grad_v, valid


class PixelGrid(NamedTuple):
    """The target pixels of a warp, with the camera constants of each:
    (H, W) maps and scalars for one image (pixel_grid), or a (1, N) row
    of one image's pixels or of several images' with per-pixel constants
    (join_grids)."""

    u: np.ndarray           # column and row of each pixel in its own image
    v: np.ndarray
    rays: np.ndarray        # (3, ...) unit-depth rays K^-1 [u, v, 1]
    fx: float | np.ndarray
    fy: float | np.ndarray
    cx: float | np.ndarray
    cy: float | np.ndarray
    layout: SampleLayout    # the source image each pixel samples


@functools.lru_cache(maxsize=16)
def pixel_grid(K: Intrinsics) -> PixelGrid:
    """The PixelGrid of K's image: (H, W) pixel coordinates, the (3, H, W)
    unit-depth rays K^-1 [u, v, 1], K's constants and the image's layout.

    Memoized per Intrinsics, so the arrays are shared by every caller and
    made read-only.
    """
    jj, ii = np.meshgrid(np.arange(K.width, dtype=float), np.arange(K.height, dtype=float))
    rays = geometry.backproject(jj, ii, 1.0, K)
    for a in (jj, ii, rays):
        a.flags.writeable = False
    return PixelGrid(u=jj, v=ii, rays=rays, fx=K.fx, fy=K.fy, cx=K.cx, cy=K.cy,
                     layout=image_layout(K.height, K.width))


def join_rows(maps: list) -> np.ndarray:
    """Each (..., H_l, W_l) map of maps laid out as a (..., 1, H_l * W_l)
    row, one after another along the last axis: the row layout of
    join_grids. A single map is its reshape view."""
    rows = [m.reshape(m.shape[:-2] + (1, -1)) for m in maps]
    return rows[0] if len(rows) == 1 else np.concatenate(rows, axis=-1)


def join_grids(grids: list) -> PixelGrid:
    """The grids of one or more images, each at least 2x2 when there are
    several, as one: their pixels one after another in a (1, N) row (u, v
    and the (3, 1, N) rays by join_rows), with each image's constants. The
    images' stack must hold them in the same order. A single grid keeps its
    scalar constants and layout, and its maps are reshape views."""
    u, v, rays = (join_rows(maps) for maps in zip(*((g.u, g.v, g.rays) for g in grids)))
    if len(grids) == 1:
        return grids[0]._replace(u=u, v=v, rays=rays)
    sizes = [g.u.size for g in grids]

    def repeat(values):
        return np.repeat(values, sizes)[None]

    layout = SampleLayout(*map(repeat, zip(*(g.layout for g in grids))))
    return PixelGrid(u, v, rays, *map(repeat, zip(*((g.fx, g.fy, g.cx, g.cy) for g in grids))),
                     layout._replace(offset=repeat(np.cumsum([0] + sizes[:-1]))))


def inverse_warp(src, depth, T: np.ndarray, K: Intrinsics | PixelGrid,
                 want_grads: bool = True, points: np.ndarray | None = None) -> WarpResult:
    """Warp a source image onto the target grid via depth and relative pose.

    For every target pixel, projects through `T` (target-to-source) at the
    given per-pixel depth and bilinearly samples `src` there. want_grads=False
    skips the per-pixel jacobian buffers (forward-only evaluation).

    K may also be a PixelGrid: pixel_grid(K), or a join_grids row, for which
    src is the (rows, C) stack of the row's images. An Intrinsics K warps
    as pixel_grid(K), and one check covers both forms: depth is shaped like
    the grid's u map, after at most one batch axis; src holds the grid's
    pixels, shaped like u or flattened to (u.size,), then a channel axis
    (a src shaped exactly like u is one channel); and points, when given,
    is (3,) + depth.shape. A ValueError names the shapes that differ.

    depth may be a (B, H, W) stack and T a (B, 4, 4) stack, one per parameter
    set of a batch; an unbatched one is shared by the batch. The result then
    carries the batch axis, and each slice equals the unbatched warp bitwise
    (geometry.transform_points multiplies each transform on its own).
    A forward-only warp of a depth stack through one 4x4 T warps element 0,
    then only the (element, pixel) entries whose depth differs from element
    0's, and copies element 0's values everywhere else: a pixel's warp
    depends on its own depth alone, in any product. It forms only the points
    of those entries and of element 0, and refuses `points`.

    points, when given, is geometry.points_at_depth(depth, grid.rays), the
    (3, ...) points on this grid, formed by a caller that warps several
    sources at one positive depth; the warp then reads it and forms nothing
    of its own. Without it, the warp checks that the depth is positive.
    """
    grid = K if isinstance(K, PixelGrid) else pixel_grid(K)
    depth = np.asarray(depth, dtype=float)
    src = np.asarray(src, dtype=float)
    if src.shape == grid.u.shape:   # one channel
        src = src[..., None]
    if depth.shape[-2:] != grid.u.shape or depth.ndim > 3:
        raise ValueError(f"depth shape {depth.shape} does not match grid {grid.u.shape}")
    if src.shape[:-1] not in (grid.u.shape, (grid.u.size,)):
        raise ValueError(f"source shape {src.shape} does not hold the pixels of grid {grid.u.shape}"
                         f": expected {grid.u.shape} or ({grid.u.size},), then channels")
    if points is not None and points.shape != (3,) + depth.shape:
        raise ValueError(f"points shape {points.shape} is not (3,) + depth shape {depth.shape}")
    if points is None and np.any(depth <= 0):
        raise ValueError("depth must be positive")
    if depth.ndim == 3 and T.ndim == 2 and not want_grads:
        if points is not None:
            raise ValueError("a forward-only depth stack forms its own points; pass none")
        return _warp_depth_stack(src, depth, T, grid)
    if points is None:
        points = geometry.points_at_depth(depth, grid.rays)
    return _warp(src, depth, T, grid, want_grads, points)


def _warp_depth_stack(src, depth, T, grid: PixelGrid) -> WarpResult:
    """Forward-only inverse_warp of a depth stack through one transform:
    element 0's warp, with the entries whose depth differs from element 0's
    warped as one (1, n) row and written into copies of its maps."""
    first = _warp(src, depth[0], T, grid, False, geometry.points_at_depth(depth[0], grid.rays))
    out = [np.repeat(x[None], len(depth), axis=0) for x in (first.warped, first.valid)]
    changed = np.nonzero(depth != depth[0])   # (elements, then the pixels)

    def at(x):   # the changed pixels of a grid map as a row, or a grid constant
        return x[(..., *changed[1:])][..., None, :] if isinstance(x, np.ndarray) else x

    sub = PixelGrid(*map(at, grid[:-1]), SampleLayout(*map(at, grid.layout)))
    sub_depth = depth[changed].reshape(1, -1)
    part = _warp(src, sub_depth, T, sub, False, geometry.points_at_depth(sub_depth, sub.rays))
    out[0][changed], out[1][changed] = part.warped[0], part.valid[0]
    return WarpResult(warped=out[0], valid=out[1], d_du=None, d_dv=None, src_points=None)


def _warp(src, depth, T, grid: PixelGrid, want_grads: bool, points) -> WarpResult:
    """inverse_warp of checked arguments, with the points of depth on grid."""
    pts = geometry.transform_points(T, points)
    in_front = pts[2] > BEHIND_EPS
    us, vs = geometry.project_points(pts, grid, in_front)[:2]
    if not want_grads:
        pts = None   # read no more: freed before sampling
    identity = (T == _IDENTITY).all(axis=(-2, -1))   # one flag per transform
    if identity.any():
        # An identity transform maps each pixel to itself exactly: its
        # entries skip the float round-trip through K, so its warp
        # reproduces the source bit for bit, in a stack as on its own.
        keep = identity[..., None, None]
        for x, y in ((us, grid.u), (vs, grid.v), (in_front, depth > BEHIND_EPS)):
            np.copyto(x, y, where=keep)

    warped, d_du, d_dv, valid = bilinear_sample(src, us, vs, want_grads, in_front, grid.layout)
    return WarpResult(warped=warped, valid=valid, d_du=d_du, d_dv=d_dv, src_points=pts)
