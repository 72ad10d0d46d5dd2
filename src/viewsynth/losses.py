"""Training objectives with analytic gradients.

Components: per-source L1 view-synthesis error (optionally weighted by a
per-pixel explainability mask), a cross-entropy mask regularizer toward 1,
second-order depth smoothness, and the multi-scale total that combines them
with weights lambda_s / 2^level and lambda_e.

Normalization: every component is a mean (over valid pixels per source for
the photometric term, over stencil positions for smoothness, over pixels for
the regularizer) so weights behave uniformly across pyramid levels.

Batch axis: the forward pass evaluates a batch of parameter sets in one call
(see total_loss). Every layer then reduces only over its trailing axes, with
the batch axis leading, and keeps the unbatched call's order of operations,
so each batch element's value equals the unbatched call's bit for bit.

In place: as in sampler, a layer overwrites only arrays it allocated, or,
in total_loss, arrays its source task owns. This module imports no model
(tests/test_imports.py checks that the import graph has no cycle).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry, sampler


@dataclass(frozen=True)
class LossConfig:
    lambda_s: float = 0.5
    lambda_e: float = 0.2
    num_levels: int = 1
    use_explainability: bool = True

    def __post_init__(self):
        for name in ("lambda_s", "lambda_e"):
            weight = getattr(self, name)
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {weight}")
        if self.num_levels < 1:
            raise ValueError("num_levels must be >= 1")

    def smooth_weight(self, level: int) -> float:
        return self.lambda_s / 2 ** level


@dataclass
class LossReport:
    total: float
    vs_per_level: list
    smooth_per_level: list
    reg_per_level: list          # [level][source]
    valid_per_level: list        # [level][source] valid-pixel counts
    mean_mask: float | None = None
    all_invalid: bool = False


@dataclass
class Params:
    """The parameters of one snippet's objective, or their gradients: the
    target's depth logits, one pose per source and, with masks on, one mask
    logit per pixel, level and source. In a forward-only batch (see
    total_loss) any of them may carry a leading batch axis."""

    depth_logits: np.ndarray               # (H, W)
    poses: np.ndarray                      # (S, 6): rx ry rz tx ty tz
    mask_logits: list | None = None        # [level] -> (S, H_l, W_l)

    def depth(self) -> np.ndarray:
        return activate_depth(self.depth_logits)

    def items(self):
        """(name, array) of each parameter group; each mask level is a group."""
        yield "depth_logits", self.depth_logits
        yield "poses", self.poses
        for l, m in enumerate(self.mask_logits or []):
            yield f"mask_logits_{l}", m


# Largest x with finite exp(x); below -_LOG_MAX_FLOAT, exp(-logit) overflows.
_LOG_MAX_FLOAT = float(np.log(np.finfo(float).max))


def sigmoid(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise, as a fresh
    array (a NumPy scalar for a 0-d x); x is never written."""
    x = np.asarray(x, dtype=float)
    # -x, exp, + 1 and 1 / in one buffer, with the expression form's bits.
    # Where exp overflows (x < -_LOG_MAX_FLOAT), 1 / inf = 0 is the limit.
    with np.errstate(over="ignore"):
        s = np.negative(x, out=np.empty_like(x))
        np.exp(s, out=s)
        s += 1
        np.divide(1.0, s, out=s)
    return s if s.ndim else s[()]


def mask_probability(logits: np.ndarray) -> np.ndarray:
    """Sigmoid of one logit per pixel.

    This is channel 1 of the paper's 2-channel softmax, whose value depends
    only on the gap between the two channels; the logit is that gap.
    """
    return sigmoid(logits)


# The paper's depth bound: depth = 1 / (DEPTH_ALPHA * sigmoid(x) + DEPTH_BETA)
# of an unconstrained logit x, so positivity is structural.
DEPTH_ALPHA = 10.0
DEPTH_BETA = 0.01


def _depth_activation(logits, slope: bool):
    """(depth, d depth / d logit) of unconstrained logits, from one sigmoid;
    the slope is None unless asked for."""
    s = sigmoid(logits)
    denom = DEPTH_ALPHA * s + DEPTH_BETA
    depth = 1.0 / denom
    if not slope:
        return depth, None
    # -DEPTH_ALPHA * s * (1 - s) / denom ** 2, in the buffers of s and
    # denom: a fresh 416x128 map costs more to allocate than to compute.
    one_minus_s = 1 - s
    s *= -DEPTH_ALPHA
    s *= one_minus_s
    denom *= denom
    s /= denom
    return depth, s


def activate_depth(logits):
    """Depth map from unconstrained logits; always in (1/(alpha+beta), 1/beta)."""
    return _depth_activation(logits, False)[0]


def activate_depth_grad(logits):
    return _depth_activation(logits, True)[1]


def depth_to_logit(depth: float) -> float:
    """Inverse of activate_depth for a scalar prior."""
    if not (math.isfinite(depth) and depth > 0):
        raise ValueError(f"depth prior must be finite and positive, got {depth}")
    s = (1.0 / depth - DEPTH_BETA) / DEPTH_ALPHA
    if not 0 < s < 1:
        raise ValueError(
            f"depth prior {depth} outside representable range "
            f"({1 / (DEPTH_ALPHA + DEPTH_BETA):.4f}, {1 / DEPTH_BETA:.0f})"
        )
    return float(np.log(s / (1 - s)))


def max_pyramid_levels(height: int, width: int) -> int:
    """The most levels build_pyramid makes of a height x width image: it
    halves both sides while each stays at least 2."""
    levels = 1
    while height // 2 >= 2 and width // 2 >= 2:
        height, width, levels = height // 2, width // 2, levels + 1
    return levels


def check_num_levels(num_levels: int, height: int, width: int) -> None:
    """Refuse, with a ValueError naming num_levels, more pyramid levels than
    height x width images make (max_pyramid_levels)."""
    if num_levels > (most := max_pyramid_levels(height, width)):
        raise ValueError(f"num_levels {num_levels} is more than {width}x{height} images "
                         f"allow: losses.max_pyramid_levels({height}, {width}) is {most}")


def build_pyramid(img, levels: int, batched: bool = False) -> list:
    """Box-filtered 2x downsampling pyramid; level 0 is the input.

    img is (H, W) or (H, W, C); with batched it is a (B, H, W) stack of maps,
    each filtered on its own. Odd trailing rows/columns are truncated. Stops
    early (returning fewer levels) once a dimension would drop below 2.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    img = np.asarray(img, dtype=float)
    lead = 1 if batched else 0
    out = [img]
    for _ in range(min(levels, max_pyramid_levels(*img.shape[lead:lead + 2])) - 1):
        prev = out[-1]
        h2, w2 = prev.shape[lead] // 2, prev.shape[lead + 1] // 2
        # Each level is its 2x2 blocks' sum / 4, which is what ndarray.mean
        # computes, without its Python-level dispatch; the same holds for
        # every sum / count in this module.
        if prev.ndim == lead + 2:
            # A map's blocks add as (a00 + a01) + (a10 + a11), from four
            # strided views: the order of NumPy's sum over the blocks' axes
            # when h2, w2 >= 2, as here (max_pyramid_levels), at a few times
            # its speed.
            top, bottom = prev[..., 0:2 * h2:2, :], prev[..., 1:2 * h2:2, :]
            level = top[..., 0:2 * w2:2] + top[..., 1:2 * w2:2]
            level += bottom[..., 0:2 * w2:2] + bottom[..., 1:2 * w2:2]
            level /= 4
        else:
            # With two or more channels NumPy adds a block's four pixels in
            # sequence. Images are filtered once per snippet: they keep sum.
            t = prev[(slice(None),) * lead + (slice(2 * h2), slice(2 * w2))]
            blocks = t.shape[:lead] + (h2, 2, w2, 2) + t.shape[lead + 2:]
            level = t.reshape(blocks).sum(axis=(lead + 1, lead + 3)) / 4
        out.append(level)
    return out


class _LevelGroup(NamedTuple):
    """Consecutive pyramid levels that total_loss warps in one pass per
    source, laid out as one (1, N) row of their pixels (see
    sampler.join_grids), with the target's and each source's levels stacked
    in the same order. total_loss lays out each per-level map (depth, mask
    probabilities) along the same row with sampler.join_rows."""

    levels: range
    spans: tuple            # [i] -> (start, stop) of levels[i] in the row
    grid: sampler.PixelGrid
    target: np.ndarray      # (1, N, C)
    sources: tuple          # [source] -> its (N, C) stack


def check_frames(images: list, target_index: int, K: geometry.Intrinsics,
                 num_levels: int) -> tuple:
    """(target, sources) of a snippet's frames, each a float (H, W, C) image.

    A ValueError refuses fewer than 2 images, images of different sizes, an
    image with a non-finite pixel (naming its index), a target index out of
    range, intrinsics of another size, and more levels than the images'
    pyramid has (check_num_levels)."""
    if len(images) < 2:
        raise ValueError("need at least 2 images")
    images = [sampler._as_image(im) for im in images]
    shape = images[0].shape
    if any(im.shape != shape for im in images):
        raise ValueError("all images must have the same size")
    for i, im in enumerate(images):
        if not np.isfinite(im).all():
            raise ValueError(f"images[{i}] has a non-finite pixel")
    if not 0 <= target_index < len(images):
        raise ValueError("target index out of range")
    H, W, _ = shape
    if (K.width, K.height) != (W, H):
        raise ValueError("intrinsics dimensions do not match images")
    check_num_levels(num_levels, H, W)
    return images[target_index], [im for i, im in enumerate(images) if i != target_index]


@dataclass(frozen=True, eq=False)
class Snippet:
    """The fixed half of the objective: one snippet's frames, their
    intrinsics, the level count and mask setting of the config it was built
    for, and total_loss's level groups of the frames' pyramids.

    Only the Params change between evaluations of total_loss, so fits and
    gradient checks build this once, with Snippet.build. Every array it
    holds is its own and read-only: source tasks and the level terms read
    them from several threads at once.
    """

    target: np.ndarray       # (H, W, C)
    sources: tuple           # S arrays of (H, W, C)
    K: geometry.Intrinsics
    num_levels: int
    use_explainability: bool
    groups: tuple            # total_loss's _LevelGroups, finest first

    @classmethod
    def build(cls, images: list, target_index: int, K: geometry.Intrinsics,
              config: LossConfig) -> Snippet:
        """The snippet of copies of images[target_index] and the other
        images, in order, as sources; the frames must pass check_frames."""
        target, sources = check_frames(images, target_index, K, config.num_levels)
        target, *sources = (np.array(im) for im in [target, *sources])
        target_pyr, *source_pyrs = [build_pyramid(img, config.num_levels)
                                    for img in [target, *sources]]
        grids = [sampler.pixel_grid(geometry.scale_intrinsics(K, l))
                 for l in range(len(target_pyr))]
        groups = []
        for levels in _level_groups([g.u.size for g in grids]):
            stops = np.cumsum([grids[l].u.size for l in levels]).tolist()

            def stack(images):   # a reshape view for one level
                parts = [images[l].reshape(-1, images[l].shape[-1]) for l in levels]
                return parts[0] if len(parts) == 1 else np.concatenate(parts)

            groups.append(_LevelGroup(levels, tuple(zip([0] + stops[:-1], stops)),
                                      sampler.join_grids([grids[l] for l in levels]),
                                      stack(target_pyr)[None], tuple(map(stack, source_pyrs))))
        return cls(*_read_only((target, tuple(sources))), K, config.num_levels,
                   config.use_explainability, _read_only(tuple(groups)))


def _read_only(x):
    """x, with every array in it and in its (nested) tuples made read-only."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, tuple):
        for item in x:
            _read_only(item)
    return x


def _split(x: np.ndarray, spans) -> list:
    """Each level's part of a group's row x: views of the spans of x's row."""
    return [x[..., a:b] for a, b in spans]


def _count_hw(mask) -> int | np.ndarray:
    """True pixels of a boolean map: an int for one map, one count per map
    of a stack. count_nonzero is several times faster than sum here."""
    if mask.ndim == 2:
        return int(np.count_nonzero(mask))
    return np.count_nonzero(mask, axis=(-2, -1))


def _mean_hw(x, count) -> float | np.ndarray:
    """x's sum over its two trailing (spatial) axes / count, or 0.0 where it is 0."""
    total = x.sum(axis=(-2, -1))
    if total.ndim == 0:
        return float(total / count) if count else 0.0
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def _sum_channels(x) -> np.ndarray:
    """x summed over its short trailing axis as x[..., 0] + x[..., 1] + ...

    NumPy's x.sum(axis=-1) adds a short axis in the same order, so the values
    are the same at about a tenth of the cost. Only the sign of a zero sum can
    differ (-0.0 here, +0.0 there). In total_loss such a zero is only ever
    added to a gradient buffer that starts at +0.0, where the sign is lost.
    """
    if x.shape[-1] == 1:
        return x[..., 0]
    total = x[..., 0] + x[..., 1]
    for c in range(2, x.shape[-1]):
        total += x[..., c]
    return total


def _mean_channels(x) -> np.ndarray:
    """x's mean over its trailing channel axis: _sum_channels, then / C."""
    mean = _sum_channels(x)
    if x.shape[-1] != 1:
        mean /= x.shape[-1]
    return mean


def _weighted_errors(e, valid, spans, mask_prob=None) -> list:
    """Each level's row of photometric terms: the per-pixel error e on the
    valid pixels, weighted by the level's mask probability row when masks
    are on (view_synthesis_loss's arguments). A level's mask may carry a
    batch axis of its own."""
    if mask_prob is None:
        return _split(e * valid, spans)
    terms = []
    for p, e_l, v in zip(mask_prob, _split(e, spans), _split(valid, spans)):
        term = p * e_l
        term *= v
        terms.append(term)
    return terms


def _pyramid_adjoint(g_levels: list) -> np.ndarray:
    """Adjoint of build_pyramid: the gradient with respect to its input of
    per-level gradients g_levels, each shaped like its level. An odd
    trailing row or column, which build_pyramid truncates, gets none from
    the levels below."""
    g = g_levels[-1]
    for g_l in g_levels[-2::-1]:
        h2, w2 = g.shape
        up = g_l.copy()
        # Each 2x2 block of the finer level takes a quarter of its coarse
        # pixel, through a view (the reshape only splits axes). An odd
        # trailing row or column keeps g_l, which is g_l + 0.0 for gradients
        # that start at +0.0 and so never hold -0.0.
        blocks = up[: 2 * h2, : 2 * w2].reshape(h2, 2, w2, 2)
        blocks += (g / 4.0)[:, None, :, None]
        g = up
    return g


def view_synthesis_loss(target, warp, spans, mask_prob=None, want_grads: bool = True):
    """Mean L1 photometric error of one source's warp over its valid pixels,
    for each level of a level group.

    The warp is over a (1, N) row of pixels (see total_loss), target is the
    matching (1, N, C) image, and spans are the (start, stop) pixel ranges of
    the row's levels: each level counts as a warp of its own. mask_prob,
    when given, is a list with each level's (..., 1, n_l) row of that
    source's mask_probability values (sampler.join_rows of the level's
    map); they weight each pixel's error.

    Returns (loss, grad_warped, grad_mask_logits, n_valid): the loss and the
    valid count are lists with one entry per level; grad_warped is the
    (1, N, C) gradient with respect to the warped image and
    grad_mask_logits the gradient with respect to the source's mask logits
    (None when masks are off), where each pixel divides by its own level's
    count. With want_grads off both gradients are None. A level with zero
    valid pixels gives 0 with zero gradients.

    The warp and the mask rows may carry a leading batch axis (batched
    warps of inverse_warp); the loss and the valid count are then one value
    per batch element, and want_grads must be off.
    """
    target = sampler._as_image(target)
    if warp.warped.shape[-3:] != target.shape:
        raise ValueError("warp/target shape mismatch")
    C = target.shape[2]
    valid = warp.valid
    counts = [_count_hw(part) for part in _split(valid, spans)]
    # Every map below is a buffer of this function's own, written in place.
    # With gradients, r becomes sign(r) and then the gradient of the warp;
    # without them, |r| takes r's memory and goes once summed over channels.
    r = warp.warped - target
    e = np.abs(r, out=None if want_grads else r)
    if want_grads:
        np.sign(r, out=r)
    else:
        del r
    e = _mean_channels(e)
    # _mean_hw gives a level (or batch element) without valid pixels 0.
    terms = _weighted_errors(e, valid, spans, mask_prob)
    loss = [_mean_hw(x, n) for x, n in zip(terms, counts)]
    del terms
    if not want_grads:
        return loss, None, None, counts
    # Each pixel divides by its own level's count, span by span; a level
    # without valid pixels has only zero numerators, so its gradients are 0.
    grad_mask = None
    scale = np.empty(valid.shape)
    weight = valid
    if mask_prob is not None:
        prob = sampler.join_rows(mask_prob)
        grad_mask = valid * e
        for (a, b), n in zip(spans, counts):
            grad_mask[..., a:b] /= max(n, 1)
        np.subtract(1, prob, out=scale)
        scale *= prob   # prob (1 - prob)
        grad_mask *= scale
        weight = np.multiply(valid, prob, out=scale)
    for (a, b), n in zip(spans, counts):
        np.divide(weight[..., a:b], C * max(n, 1), out=scale[..., a:b])
    # sign(r) * (weight / (C n)) is weight * sign(r) / (C n) bit for bit, as
    # sign(r) is -1, 0 or 1, with one product over the channels.
    r *= scale[..., None]
    return loss, r, grad_mask, counts


def _log_probability(logits, prob) -> np.ndarray:
    """log(prob) of prob = mask_probability(logits), elementwise. Where
    exp(-x) overflows, prob is subnormal or 0 and log(prob) is imprecise or
    -inf; log(sigmoid(x)) = x - log1p(exp(x)) rounds to x there."""
    with np.errstate(divide="ignore"):
        log_prob = np.log(prob)
    low = logits < -_LOG_MAX_FLOAT
    return np.where(low, logits, log_prob) if low.any() else log_prob


def explainability_regularizer(logits, prob=None, want_grads: bool = True):
    """Cross-entropy toward constant label 1: mean of -log(mask_probability).

    prob, when given, is mask_probability(logits), computed once by the
    caller. Returns (loss, grad_logits); grad_logits is None with want_grads
    off. A stack of logit grids, such as a level's masks, gives each grid's
    own loss and gradient.
    """
    logits = np.asarray(logits, dtype=float)
    if prob is None:
        prob = mask_probability(logits)
    log_prob = _log_probability(logits, prob)
    pixels = log_prob.shape[-2] * log_prob.shape[-1]
    loss = -_mean_hw(log_prob, pixels)
    if not want_grads:
        return loss, None
    # d(-log sigmoid(x))/dx = -(1 - prob), formed in one array
    grad = np.subtract(1, prob)
    np.negative(grad, out=grad)
    grad /= pixels
    return loss, grad


def _second_differences(D):
    """Yield (axis, (lo, mid, hi), d2) for each axis of the depth map(s) D
    with at least 3 samples, u (-1) then v (-2): d2 = D[lo] - 2 D[mid] + D[hi]
    over the slices lo, mid and hi of that axis."""
    for axis in (-1, -2):
        if D.shape[axis] < 3:
            continue
        lo, mid, hi = ((Ellipsis, slice(a, b)) + (slice(None),) * (-1 - axis)
                       for a, b in ((None, -2), (1, -1), (2, None)))
        yield axis, (lo, mid, hi), D[lo] - 2 * D[mid] + D[hi]


def smoothness_loss(depth, want_grads: bool = True):
    """Mean absolute second difference of the depth map, per axis.

    Axes shorter than 3 samples contribute 0. Returns (loss, grad_depth);
    grad_depth is None with want_grads off. A (B, H, W) stack of depth maps
    gives one loss (and gradient map) per map.
    """
    D = np.asarray(depth, dtype=float)
    if D.ndim not in (2, 3):
        raise ValueError("depth must be (H, W) or a (B, H, W) stack")
    loss = 0.0
    grad = np.zeros_like(D) if want_grads else None
    for _, (lo, mid, hi), d2 in _second_differences(D):
        count = d2.shape[-2] * d2.shape[-1]
        loss += _mean_hw(np.abs(d2), count)
        if want_grads:
            sg = np.sign(d2) / count
            grad[lo] += sg
            grad[mid] -= 2 * sg
            grad[hi] += sg
    return loss, grad


def _source_transforms(poses: np.ndarray, jacobians: bool = False) -> tuple:
    """(transforms, rot_jacs) of (S, 6) or (B, S, 6) poses, from one pass.

    transforms has every source's target-to-source transform: a 4x4 matrix
    for (S, 6) poses, a contiguous (B, 4, 4) stack for a (B, S, 6) batch of
    them. rot_jacs, with jacobians, is the (S, 3, 9) stack of each source's
    dR/drx, dR/dry, dR/drz, flattened; else None."""
    T, jacs = geometry._pose_transforms(poses, jacobians)
    transforms = list(T if T.ndim == 3 else np.ascontiguousarray(np.moveaxis(T, 1, 0)))
    return transforms, None if jacs is None else np.stack(jacs, axis=1).reshape(len(T), 3, 9)


# The coarsest levels whose pixel counts add up to less than this are warped
# together, and every other level is a group of its own (see total_loss); a
# group of at least this many pixels fits its sources concurrently. A batch
# of parameter sets counts as one set in both rules. On small levels, such
# as every level of a 64x48 fit, a thread hand-off or a separate pass per
# level costs more than the arithmetic (measured in a671f53, BENCH_2e4828c.json).
PARALLEL_MIN_ELEMENTS = 8192


def _level_groups(sizes: list) -> list:
    """Levels 0..L-1, of sizes[l] pixels each, as total_loss's groups
    (ranges of levels, finest first): the coarsest levels whose sizes add up
    to less than PARALLEL_MIN_ELEMENTS form one group, and every other level
    is a group of its own."""
    first, joined = len(sizes), 0
    while first > 0 and joined + sizes[first - 1] < PARALLEL_MIN_ELEMENTS:
        first -= 1
        joined += sizes[first]
    singles = [range(l, l + 1) for l in range(first)]
    return singles + [range(first, len(sizes))] if first < len(sizes) else singles


@functools.cache
def _source_pool():
    """(executor, workers): a thread pool created on first use, with one
    worker per CPU this process may run on, minus the calling thread; no
    executor on a single CPU. Threads start only when tasks need them. No
    flag, config field or environment variable sets it, and no result
    depends on it."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return None, 0
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(cpus - 1, thread_name_prefix="viewsynth-source"), cpus - 1


if hasattr(os, "register_at_fork"):
    # A forked child has none of its parent's threads, and the parent's pool
    # would queue its tasks forever: the child makes a pool of its own.
    os.register_at_fork(after_in_child=_source_pool.cache_clear)


def _in_source_order(task, n: int, parallel: bool):
    """Yield (s, task(s)) for s = 0, ..., n - 1 in that order; the tasks
    must write nothing shared, so the caller alone combines their results.
    Each result is let go once yielded, so a caller that drops it frees it
    before the next task's arrays are made.

    In parallel, k = min(workers, n - 1) pool threads take part: the caller
    runs every (k + 1)-th source, starting with source 0, and the pool runs
    the rest, each in a copy of the caller's context (so a caller's
    np.errstate holds there). As in a serial loop, the first exception in
    source order propagates; no task is left running when this generator
    finishes or raises.
    """
    pool, workers = _source_pool() if parallel else (None, 0)
    lanes = min(workers, n - 1) + 1
    if lanes == 1:
        for s in range(n):
            yield s, task(s)
        return
    pending = {s: pool.submit(contextvars.copy_context().run, task, s)
               for s in range(n) if s % lanes}
    try:
        for s in range(n):
            yield s, pending.pop(s).result() if s in pending else task(s)
    finally:
        for f in pending.values():
            _settle(f)


def _settle(future) -> None:
    """Cancel a pool task that has not started, or wait for one that has."""
    if not future.cancel():
        future.exception()


@contextlib.contextmanager
def _beside(task):
    """Run task() on a pool worker, in a copy of the caller's context, while
    the with-block runs on the caller; the block gets a function that returns
    task's result, or raises its exception. Without a worker, that function
    runs task itself. No task is left running once the block is left."""
    pool, workers = _source_pool()
    if not workers:
        yield task
        return
    future = pool.submit(contextvars.copy_context().run, task)
    try:
        yield future.result
    finally:
        _settle(future)


def projection_adjoint(gu, gv, warp, grid, R: np.ndarray, rot_jacs, P: np.ndarray, spans):
    """Backpropagate gradients of the source coordinates to depth and pose.

    gu, gv are an objective's gradients with respect to the source
    coordinates (u_s, v_s) of each target pixel of `warp`, an unbatched
    inverse_warp on the sampler.PixelGrid `grid` through a transform with
    rotation block R. rot_jacs are that pose's three 3x3 rotation Jacobians
    (its entries of geometry.rotation_jacobians) in any form that reshapes
    to (3, 9), such as a row of total_loss's (S, 3, 9) stack. P = depth * rays
    are the (3, ...) target-frame points it transformed, as
    geometry.points_at_depth forms them. Pixels outside warp.valid contribute
    nothing.

    Returns (g_depth, g_pose): the gradient with respect to each pixel's
    depth, shaped like gu, and a (levels, 6) array with one row for each
    level of the grid's row (spans as in view_synthesis_loss): the gradient
    with respect to the pose (rx, ry, rz, tx, ty, tz), summed over that
    level's pixels.

    With G the (3, n) gradients of a level's source points and P its (3, n)
    target points, each coordinate a contiguous row, the rotation gradient
    sum_i G_i . (J P_i) is <J, G P^T>: one 3x3 moment per level, contracted
    with the Jacobians. The translation gradient is G's row sums, and the
    depth gradient the column sums of (R^T G) * rays. Levels (and sources,
    one call each) never share a product, which would round differently.
    """
    valid = warp.valid
    x, y, z = warp.src_points
    inv_z = np.where(valid, z, np.inf)
    np.reciprocal(inv_z, out=inv_z)   # 1/z on the valid pixels, 0 elsewhere
    # Rows gx, gy, gz of the source points' gradients, formed in place.
    G = np.empty((3,) + valid.shape)
    gx, gy, gz = G
    np.multiply(gu, grid.fx, out=gx)
    gx *= inv_z
    np.multiply(gv, grid.fy, out=gy)
    gy *= inv_z
    np.multiply(gx, x, out=gz)
    gz += gy * y
    gz *= inv_z
    np.negative(gz, out=gz)
    del inv_z
    G = G.reshape(3, -1)
    P = P.reshape(3, -1)
    J = np.reshape(rot_jacs, (3, 9))
    g_pose = np.empty((len(spans), 6))
    for (a, b), out in zip(spans, g_pose):
        # A view of P's rows multiplies faster than an (n, 3) copy (b5f2f17,
        # BENCH_f9bab20.json), but NumPy's OpenBLAS rounds it differently at
        # 16 <= n < 32; both give the same bits at every other n there.
        P_T = P[:, a:b].T if b - a >= 32 else P[:, a:b].T.copy()
        np.matmul(J, (G[:, a:b] @ P_T).ravel(), out=out[:3])
        np.sum(G[:, a:b], axis=1, out=out[3:])
    RtG = R.T @ G
    del G
    RtG *= grid.rays.reshape(3, -1)
    # A map of its own, so the caller does not keep RtG's three rows alive.
    g_depth = RtG[0] + RtG[1]
    g_depth += RtG[2]
    return g_depth.reshape(valid.shape), g_pose


def _by_source(x: np.ndarray) -> list:
    """x's entries along its last axis: floats, or (B,) arrays if x is (B, S)."""
    return x.tolist() if x.ndim == 1 else list(np.moveaxis(x, -1, 0))


def _check_params(snippet: Snippet, params: Params, config: LossConfig) -> tuple:
    """(poses, batched): params' poses as a float array, and whether any
    parameter carries a batch axis, once config and params fit the snippet
    (see total_loss); else a ValueError names what differs."""
    L, use_masks = snippet.num_levels, snippet.use_explainability
    if (config.num_levels, config.use_explainability) != (L, use_masks):
        raise ValueError(f"config has num_levels {config.num_levels} and use_explainability "
                         f"{config.use_explainability}, but the snippet was built for "
                         f"num_levels {L} and use_explainability {use_masks}")
    S = len(snippet.sources)
    H, W = snippet.target.shape[:2]
    poses = np.asarray(params.poses, dtype=float)
    depth_shape = np.shape(params.depth_logits)
    for name, shape, expected in (("depth_logits", depth_shape, (H, W)),
                                  ("poses", poses.shape, (S, 6))):
        if shape[-2:] != expected or len(shape) > 3:
            raise ValueError(f"{name} must be {expected}, with at most one leading batch axis; "
                             f"got {shape}")
    got = None if params.mask_logits is None else [np.shape(m) for m in params.mask_logits]
    if use_masks:
        expected = [(S, H >> l, W >> l) for l in range(L)]   # build_pyramid's level sizes
        if got is None or len(got) != L or any(
                len(g) not in (3, 4) or g[-3:] != e for g, e in zip(got, expected)):
            raise ValueError(f"mask_logits must be one (S, H_l, W_l) array per pyramid level, "
                             f"{expected} for num_levels={L}; got {got}")
    elif got is not None:
        raise ValueError(f"mask_logits must be None with masks off; got {got}")
    batched = len(depth_shape) == 3 or poses.ndim == 3 or any(len(g) == 4 for g in got or [])
    return poses, batched


def _level_sums(vs, smooth, regs, config: LossConfig) -> tuple:
    """(total, vs_per_level) in total_loss's order: vs[l] and regs[l] hold
    level l's photometric terms and mask regularizers, one per source, each
    added to 0.0 in source order, and the total adds vs + smooth_weight *
    smooth[l] + lambda_e * reg of each level to 0.0 in level order. The
    terms are floats, or (B,) arrays of one entry per parameter set."""
    total = 0.0
    vs_per_level = []
    for l, (vs_l, smooth_l, regs_l) in enumerate(zip(vs, smooth, regs)):
        vs_sum = reg_sum = 0.0
        for x in vs_l:
            vs_sum += x
        for r in regs_l:
            reg_sum += r
        vs_per_level.append(vs_sum)
        total += vs_sum + config.smooth_weight(l) * smooth_l + config.lambda_e * reg_sum
    return total, vs_per_level


def total_loss(snippet: Snippet, params: Params, config: LossConfig, want_grads: bool = True):
    """Multi-scale objective of `params` over `snippet`, with gradients.

    The snippet must have been built for config's num_levels and
    use_explainability, or a ValueError names both. Masks are on when the
    snippet's use_explainability is; params must then hold one mask logit
    array per level, and none with masks off. Returns (LossReport, Params):
    the second holds the gradient of each parameter and is None when
    want_grads is off (a cheaper forward pass).

    The total is the paper's sum over levels of the photometric term,
    lambda_s / 2^level times the smoothness and lambda_e times the mask
    regularizer. Only the first needs a warp: one loop over the level groups
    runs the source tasks (below), then one loop over the levels adds the
    other terms, the mean-mask sums and the total. The finest level's other
    terms run on the pool once the last threaded group has handed it its
    sources; the level loop adds every level's in level order.

    Level groups (_level_groups; Snippet.build makes them once, so a batch
    is grouped as one set) lay their levels' pixels out along one (1, N)
    row, so each source warps them in one pass, with each pixel's own level
    constants. Every per-level sum still runs over that level's pixels
    alone, in the same order, so the grouping changes no result.

    Per source: a source's share of a group (warp, photometric term and
    adjoint) depends only on the group's depth, that source's pose and its
    mask. It runs as one task that writes nothing shared, and the caller
    adds the tasks' results in source order, so every sum keeps its order
    (sources within a level, then levels) whether the tasks ran one after
    another or, on groups of at least PARALLEL_MIN_ELEMENTS pixels, on
    several threads. The sources of a group share the target-frame points of
    its depth, a batch's too, which activate_depth keeps positive.

    Batch axis: the parameters may describe a batch of B parameter sets
    instead of one. depth_logits is then (B, H, W), poses (B, S, 6) and a
    mask level (B, S, H_l, W_l); a parameter without the leading B axis is
    shared by the whole batch. Each report value that depends on a batched
    parameter then holds one entry per batch element, equal bit for bit to
    the total_loss of that parameter set alone. Batches are forward-only:
    want_grads must be off. A parameter of another shape than the snippet's,
    after at most one leading batch axis, is refused with a ValueError that
    names it and both shapes.
    """
    poses, batched = _check_params(snippet, params, config)
    L, use_masks, S = snippet.num_levels, snippet.use_explainability, len(snippet.sources)
    if batched and want_grads:
        raise ValueError("gradients need a single parameter set, not a batch")
    depth0, depth_slope = _depth_activation(params.depth_logits, want_grads)
    depth_pyr = build_pyramid(depth0, L, depth0.ndim == 3)  # batched
    # One (S, H_l, W_l) or (B, S, H_l, W_l) probability stack per level.
    probs = [mask_probability(m) for m in params.mask_logits] if use_masks else None

    if want_grads:
        # One depth-gradient row per level group, laid out like the group's
        # depth row; each level's gradient map is a view of its part.
        g_depth_rows = [np.zeros((1, group.spans[-1][1])) for group in snippet.groups]
        g_depth_lv = [None] * L
        for group, row in zip(snippet.groups, g_depth_rows):
            for l, part in zip(group.levels, _split(row, group.spans)):
                g_depth_lv[l] = part.reshape(depth_pyr[l].shape)
        g_pose = np.zeros((S, 6))
        g_mask = [np.zeros_like(params.mask_logits[l]) for l in range(L)] if use_masks else None

    transforms, rot_jacs = _source_transforms(poses, want_grads)

    def level_terms(l):
        """Level l's terms that need no warp: each source's mask regularizer
        and probability sum (floats, or (B,) arrays; [0.0] * S and None
        without masks) and the smoothness, then the gradients of the
        regularizer and the smoothness times their weights (None without)."""
        regs, prob_sums, g_reg = [0.0] * S, None, None
        if use_masks:
            reg, g_reg = explainability_regularizer(params.mask_logits[l], probs[l],
                                                    want_grads=want_grads)
            regs, prob_sums = _by_source(reg), _by_source(probs[l].sum(axis=(-2, -1)))
        smooth, g_sm = smoothness_loss(depth_pyr[l], want_grads=want_grads)
        if want_grads:   # in place, on the terms' own gradients
            g_sm *= config.smooth_weight(l)
            if use_masks:
                g_reg *= config.lambda_e
        return regs, prob_sums, smooth, g_reg, g_sm

    threaded = [i for i, group in enumerate(snippet.groups)
                if S > 1 and group.spans[-1][1] >= PARALLEL_MIN_ELEMENTS]
    last_threaded = max(threaded, default=None)
    finest = functools.partial(level_terms, 0)   # a pool lane replaces it
    vs_rows = [[] for _ in range(L)]   # [level][source]
    valid_per_level = [[] for _ in range(L)]
    with contextlib.ExitStack() as pool_lane:
        for i, group in enumerate(snippet.groups):
            levels, spans = group.levels, group.spans
            depth = sampler.join_rows([depth_pyr[l] for l in levels])
            P = geometry.points_at_depth(depth, group.grid.rays)

            def source_terms(s):
                """Source s's per-level vs and valid counts, then its gradients
                of the mask row, depth row and per-level poses (None without)."""
                w = sampler.inverse_warp(group.sources[s], depth, transforms[s], group.grid,
                                         want_grads=want_grads, points=P)
                src_probs = ([sampler.join_rows([probs[l][..., s, :, :]]) for l in levels]
                             if use_masks else None)
                vs, g_warped, g_mask_row, n_valid = view_synthesis_loss(
                    group.target, w, spans, src_probs, want_grads)
                if not want_grads:
                    return vs, n_valid, None, None, None

                # The task's own warp takes the products g_warped * d/du, d/dv.
                w.d_du *= g_warped
                w.d_dv *= g_warped
                del g_warped
                gu, gv = _sum_channels(w.d_du), _sum_channels(w.d_dv)
                g_depth, g_pose_lv = projection_adjoint(gu, gv, w, group.grid,
                                                        transforms[s][:3, :3], rot_jacs[s], P,
                                                        spans)
                return vs, n_valid, g_mask_row, g_depth, g_pose_lv

            for s, (vs, n_valid, g_mask_row, g_depth, g_pose_lv) in _in_source_order(
                    source_terms, S, i in threaded):
                if s == 0 and i == last_threaded:
                    # The pool holds its share of the last threaded group's
                    # sources; the finest level's terms follow them there.
                    finest = pool_lane.enter_context(_beside(finest))
                for l, vs_l, n in zip(levels, vs, n_valid):
                    vs_rows[l].append(vs_l)
                    valid_per_level[l].append(n)
                if want_grads:
                    g_depth_rows[i] += g_depth
                    for g_p in g_pose_lv:
                        g_pose[s] += g_p
                    if use_masks:
                        for l, g_part in zip(levels, _split(g_mask_row, spans)):
                            g_mask[l][s] += g_part.reshape(g_mask[l][s].shape)
                # Free this source's rows before the next task runs.
                del g_mask_row, g_depth

        # The coarser levels' warp-free terms first, while a pool lane may
        # still run the finest level's; the level loop adds all in level order.
        terms = [level_terms(l) for l in range(1, L)]
        terms.insert(0, finest())

    smooth_per_level = []
    reg_per_level = []
    mask_prob_sum = 0.0
    for l, (regs, prob_sums, smooth_l, g_reg, g_sm) in enumerate(terms):
        if use_masks:
            for prob_sum in prob_sums:
                mask_prob_sum += prob_sum
            if want_grads:
                g_mask[l] += g_reg
        reg_per_level.append(regs)
        smooth_per_level.append(smooth_l)
        if want_grads:
            g_depth_lv[l] += g_sm
    total, vs_per_level = _level_sums(vs_rows, smooth_per_level, reg_per_level, config)

    grads = None
    if want_grads:
        g_logits = _pyramid_adjoint(g_depth_lv) * depth_slope
        grads = Params(depth_logits=g_logits, poses=g_pose, mask_logits=g_mask)

    mask_px = sum(math.prod(p.shape[-3:]) for p in probs) if use_masks else 0
    report = LossReport(
        total=total,
        vs_per_level=vs_per_level,
        smooth_per_level=smooth_per_level,
        reg_per_level=reg_per_level,
        valid_per_level=valid_per_level,
        mean_mask=mask_prob_sum / mask_px if mask_px else None,
        all_invalid=sum(map(sum, valid_per_level)) == 0,
    )
    return report, grads


def _grid_pixels(grid: sampler.PixelGrid, pos: np.ndarray) -> sampler.PixelGrid:
    """The pixels at positions pos of a level group's (1, N) grid row, as a
    (1, n) row that still samples the group's own source stacks."""
    def at(x):   # a per-pixel map's entries at pos, or a constant of the grid
        return x[..., pos] if isinstance(x, np.ndarray) else x

    return sampler.PixelGrid(*map(at, grid[:-1]), sampler.SampleLayout(*map(at, grid.layout)))


def _source_rows(group: _LevelGroup, s: int, T: np.ndarray, depth, P, probs) -> tuple:
    """(errors, valid, terms), each a list of one row per level, of a level
    group's row of pixels at depth, with target-frame points P, warped
    through source s under T, a 4x4 transform or a (B, 4, 4) stack of them:
    the per-pixel error before masking, the warp's validity and
    view_synthesis_loss's terms under probs, each level's mask probability
    row of that source (None without masks), formed as total_loss forms them."""
    w = sampler._warp(group.sources[s], depth, T, group.grid, False, P)
    e = _mean_channels(np.abs(w.warped - group.target))
    return (_split(e, group.spans), _split(w.valid, group.spans),
            _weighted_errors(e, w.valid, group.spans, probs))


class EntryTotals:
    """Forward-only totals of parameter sets that each differ from one
    parameter set, params, in a single depth-logit, pose or mask-logit
    entry: the finite-difference oracle's sets (gradcheck.central_differences).

    Built once per params, which must not change while it is in use: the
    base point is evaluated as total_loss does, keeping each level group's
    depth row and target-frame points, every (level, source) row of
    photometric terms, validity and mask log-probabilities, and each level's
    |second differences| of depth. A call recomputes only what each set
    moves:

    - a depth logit: the depth at its pixel; the pyramid block above it at
      each level, as build_pyramid forms it, until a truncated odd row or
      column has no parent; the at most 3 second differences per axis that
      read the pixel; and the pixel's warp through each source, with the
      set's own valid count. The changed pixels of a level group are warped
      as one (1, n) row of its grid, identity shortcut included.
    - a pose entry: the warps of its one source, whose view-synthesis terms
      alone read that pose. Each level group's base row, at the base points,
      is warped through the transforms of all the sets that move the source
      as one (B, 4, 4) stack, with each set's own valid count; smoothness
      and the mask terms keep their base values.
    - a mask logit: the probability and log-probability of its one entry, in
      its one (level, source) map.

    Each set's rows are the base rows with those entries written in, reduced
    by total_loss's own sums in its order (_level_sums): a base sum plus a
    correction would round differently, and every total equals total_loss
    of that parameter set bit for bit.
    """

    def __init__(self, snippet: Snippet, params: Params, config: LossConfig):
        poses, batched = _check_params(snippet, params, config)
        if batched:
            raise ValueError("EntryTotals takes a single parameter set, not a batch")
        self.snippet, self.params, self.config = snippet, params, config
        L, S = snippet.num_levels, len(snippet.sources)
        self.depth_pyr = build_pyramid(activate_depth(params.depth_logits), L)
        masks = params.mask_logits if snippet.use_explainability else None
        self.probs = [mask_probability(m) for m in masks] if masks else None
        self.transforms = _source_transforms(poses)[0]
        # [level] -> (S, 1, n_l) rows, one per source: the per-pixel error
        # before masking, the warp's validity and view_synthesis_loss's terms.
        self.errors, self.valid, self.terms = ([np.empty((S, 1, D.size), dtype)
                                                for D in self.depth_pyr]
                                               for dtype in (float, bool, float))
        # [group] -> its depth row and that row's target-frame points
        self.points = []
        for g, group in enumerate(snippet.groups):
            depth = sampler.join_rows([self.depth_pyr[l] for l in group.levels])
            self.points.append((depth, geometry.points_at_depth(depth, group.grid.rays)))
            for s in range(S):
                for l, *rows in self._group_rows(g, s, self.transforms[s]):
                    for stack, row in zip((self.errors, self.valid, self.terms), rows):
                        stack[l][s] = row
        self.counts = [_count_hw(v) for v in self.valid]                # [level] -> (S,)
        self.vs = [_mean_hw(t, n) for t, n in zip(self.terms, self.counts)]
        # [level] -> (axis, |d2|) per axis, as smoothness_loss forms them
        self.second_diffs = [[(axis, np.abs(d2)) for axis, _, d2 in _second_differences(D)]
                             for D in self.depth_pyr]
        self.smooth = [smoothness_loss(D, want_grads=False)[0] for D in self.depth_pyr]
        # [level] -> (S, H_l, W_l) log-probabilities and their (S,) means
        self.log_probs = ([_log_probability(m, p) for m, p in zip(masks, self.probs)]
                          if masks else [])
        self.log_prob_means = [_mean_hw(lp, lp[0].size) for lp in self.log_probs]
        self.regs = [-m for m in self.log_prob_means] if masks else [[0.0] * S] * L

    def __call__(self, array: np.ndarray, entries, values) -> np.ndarray:
        """The (B,) totals of the sets that each set array's flat entry
        entries[k] to values[k]; array is params' depth logits, its poses or
        one of its mask levels, by identity, or a ValueError says it is not."""
        entries = np.asarray(entries)
        values = np.asarray(values, dtype=float)
        # [level] -> each source's term, (S,) or, once a set moves it, (S, B)
        vs, smooth, regs = list(self.vs), list(self.smooth), list(self.regs)
        if array is self.params.depth_logits:
            self._depth_sets(entries, values, vs, smooth)
        elif array is self.params.poses:
            self._pose_sets(entries, values, vs)
        else:
            l = next((l for l, m in enumerate(self.params.mask_logits or []) if m is array), None)
            if l is None:
                raise ValueError("array is not the depth logits, the poses or a mask level "
                                 "of params")
            self._mask_sets(l, entries, values, vs, regs)
        totals = np.empty(values.shape)
        totals[:] = _level_sums(vs, smooth, regs, self.config)[0]
        return totals

    @staticmethod
    def _rewritten(rows, means, B, ks, s, q, values, count) -> np.ndarray:
        """The (S, B) means of B sets over (S, ...) rows whose base means are
        `means`: set ks[m]'s row of source s[m] has its flat entry q[m] set
        to values[m] and count[m] valid pixels, and every other row of a set
        is the base one."""
        copies = rows[s]
        copies.reshape(len(ks), -1)[np.arange(len(ks)), q] = values
        out = np.repeat(means[:, None], B, axis=1)
        out[s, ks] = _mean_hw(copies, count)
        return out

    def _mask_sets(self, l, entries, values, vs, regs) -> None:
        """Write level l's (S, B) photometric terms and mask regularizers of
        the mask sets into vs and regs."""
        B = len(values)
        s, q = np.divmod(entries, self.log_probs[l][0].size)   # set k's source and entry
        ks = np.arange(B)
        p = mask_probability(values)
        t, = _weighted_errors(self.errors[l][s, 0, q][None], self.valid[l][s, 0, q][None],
                              [(0, B)], [p[None]])
        vs[l] = self._rewritten(self.terms[l], self.vs[l], B, ks, s, q, t[0], self.counts[l][s])
        regs[l] = -self._rewritten(self.log_probs[l], self.log_prob_means[l], B, ks, s, q,
                                   _log_probability(values, p), self.log_probs[l][0].size)

    def _depth_sets(self, entries, values, vs, smooth) -> None:
        """Write the depth sets' photometric terms and smoothness into vs and
        smooth, as (S, B) and (B,) arrays where the sets move them."""
        B = len(values)
        ks = np.arange(B)
        i, j = np.divmod(entries, self.depth_pyr[0].shape[1])
        d = activate_depth(values)
        moved = []   # [level] -> (sets, row, column, new depth) of each set's pixel there
        for l, D in enumerate(self.depth_pyr):
            if l:
                # Its pixel here is its 2x2 block of level l - 1, added as
                # build_pyramid's (a00 + a01) + (a10 + a11), then / 4.
                has = (i // 2 < D.shape[0]) & (j // 2 < D.shape[1])
                ks, i, j, d = ks[has], i[has], j[has], d[has]
                top, left = i - i % 2, j - j % 2
                block = self.depth_pyr[l - 1][top[:, None] + [0, 0, 1, 1],
                                              left[:, None] + [0, 1, 0, 1]]
                block[np.arange(len(ks)), 2 * (i % 2) + j % 2] = d
                d = ((block[:, 0] + block[:, 1]) + (block[:, 2] + block[:, 3])) / 4
                i, j = i // 2, j // 2
            if not len(ks):
                break
            moved.append((ks, i, j, d))
            smooth[l] = self._smoothness(l, B, ks, i, j, d)
        for group in self.snippet.groups:
            parts = [(l, *moved[l]) for l in group.levels if l < len(moved)]
            if parts:
                self._warp_sets(group, parts, B, vs)

    def _smoothness(self, l, B, ks, i, j, d):
        """Level l's (B,) smoothness, where set ks[m] has depth d[m] at pixel
        (i[m], j[m]): the base differences with the ones that read it
        rewritten, summed as smoothness_loss sums them."""
        D = self.depth_pyr[l]
        smooth = 0.0
        for axis, a in self.second_diffs[l]:
            copies = np.repeat(a[None], B, axis=0)
            # Along u a difference at (row, c) reads columns c..c+2 of its
            # row; along v, the same with rows and columns swapped.
            lines, at, Dt, out = ((i, j, D, copies) if axis == -1 else
                                  (j, i, D.T, copies.swapaxes(-2, -1)))
            # The pixel is the lo, mid or hi (o = 0, 1, 2) of the difference at c.
            c = at[:, None] - np.arange(3)
            k, o = np.nonzero((c >= 0) & (c <= Dt.shape[1] - 3))
            c, line = c[k, o], lines[k]
            t = Dt[line[:, None], c[:, None] + np.arange(3)]
            t[np.arange(len(k)), o] = d[k]
            out[ks[k], line, c] = np.abs(t[:, 0] - 2 * t[:, 1] + t[:, 2])
            smooth += _mean_hw(copies, a.size)
        return smooth

    def _warp_sets(self, group: _LevelGroup, parts, B, vs) -> None:
        """Warp the moved pixels of a level group's levels, parts of (level,
        sets, row, column, depth), through each source as one row, and write
        each level's (S, B) photometric terms into vs."""
        S = len(self.transforms)
        qs = [i * self.depth_pyr[l].shape[1] + j for l, _, i, j, _ in parts]   # in each level
        starts = dict(zip(group.levels, (a for a, _ in group.spans)))
        pos = np.concatenate([starts[l] + q for (l, *_), q in zip(parts, qs)])
        stops = np.cumsum([len(q) for q in qs]).tolist()
        spans = list(zip([0] + stops[:-1], stops))
        depth = np.concatenate([d for *_, d in parts])[None]
        pixels = group._replace(levels=[l for l, *_ in parts], spans=spans,
                                grid=_grid_pixels(group.grid, pos), target=group.target[:, pos])
        P = geometry.points_at_depth(depth, pixels.grid.rays)
        terms, valid = np.empty((S, len(pos))), np.empty((S, len(pos)), bool)
        for s, transform in enumerate(self.transforms):
            probs = ([self.probs[l][s].reshape(1, -1)[:, q] for (l, *_), q in zip(parts, qs)]
                     if self.probs else None)
            _, v, t = _source_rows(pixels, s, transform, depth, P, probs)
            for (a, b), v_l, t_l in zip(spans, v, t):
                terms[s, a:b], valid[s, a:b] = t_l[0], v_l[0]
        for (l, ks, *_), q, (a, b) in zip(parts, qs, spans):
            # One row per (set, source) pair, sets first.
            count = self.counts[l][:, None] - self.valid[l][:, 0, q] + valid[:, a:b]
            vs[l] = self._rewritten(self.terms[l], self.vs[l], B, np.repeat(ks, S),
                                    np.tile(np.arange(S), len(ks)), np.repeat(q, S),
                                    terms[:, a:b].T.ravel(), count.T.ravel())

    def _pose_sets(self, entries, values, vs) -> None:
        """Write the pose sets' (S, B) photometric terms into vs. A set moves
        the pose of one source, entries // 6, so only that source's warps are
        redone: each level group's row at its base points, through the
        transforms of the sets that move it, with each set's own valid count."""
        B = len(values)
        poses = np.repeat(self.params.poses[None], B, axis=0)
        poses.reshape(B, -1)[np.arange(B), entries] = values
        vs[:] = [np.repeat(m[:, None], B, axis=1) for m in self.vs]
        for s, T in enumerate(_source_transforms(poses)[0]):
            ks = np.flatnonzero(entries // 6 == s)
            if not len(ks):
                continue
            for g in range(len(self.points)):
                for l, _, valid, terms in self._group_rows(g, s, T[ks]):
                    vs[l][s, ks] = _mean_hw(terms, _count_hw(valid))

    def _group_rows(self, g, s, T):
        """(level, error, valid, term) of each level of level group g: its
        base row through source s under T (_source_rows)."""
        group = self.snippet.groups[g]
        probs = ([sampler.join_rows([self.probs[l][s]]) for l in group.levels]
                 if self.probs else None)
        return zip(group.levels, *_source_rows(group, s, T, *self.points[g], probs))

