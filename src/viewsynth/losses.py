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
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geometry, sampler
from .geometry import Intrinsics


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
class SnippetGrads:
    """Gradient buffers for every trainable parameter group."""

    depth_logits: np.ndarray
    poses: np.ndarray                      # (S, 6)
    mask_logits: list | None = None        # [level] -> (S, H_l, W_l)


# Largest x with finite exp(x); below -_LOG_MAX_FLOAT, exp(-logit) overflows.
_LOG_MAX_FLOAT = float(np.log(np.finfo(float).max))


def sigmoid(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise."""
    # exp(-x) overflows to inf below x = -_LOG_MAX_FLOAT. The result there,
    # 1 / inf = 0, is the limit and within 1e-308 of the true value.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


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


def activate_depth(logits):
    """Depth map from unconstrained logits; always in (1/(alpha+beta), 1/beta)."""
    return 1.0 / (DEPTH_ALPHA * sigmoid(logits) + DEPTH_BETA)


def activate_depth_grad(logits):
    s = sigmoid(logits)
    denom = DEPTH_ALPHA * s + DEPTH_BETA
    return -DEPTH_ALPHA * s * (1 - s) / denom ** 2


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
    for _ in range(levels - 1):
        prev = out[-1]
        h2, w2 = prev.shape[lead] // 2, prev.shape[lead + 1] // 2
        if h2 < 2 or w2 < 2:
            break
        t = prev[(slice(None),) * lead + (slice(2 * h2), slice(2 * w2))]
        blocks = t.shape[:lead] + (h2, 2, w2, 2) + t.shape[lead + 2:]
        # sum / 4 is what ndarray.mean computes, without its Python-level
        # dispatch; the same holds for every sum / count in this module.
        out.append(t.reshape(blocks).sum(axis=(lead + 1, lead + 3)) / 4)
    return out


class SnippetPyramids(NamedTuple):
    """The parts of the objective that stay constant for one snippet.

    Only depth, poses and masks change between evaluations of total_loss,
    so fits and gradient checks build this once with build_snippet_pyramids
    and pass it to every call.
    """

    target: tuple        # [level] -> (H_l, W_l, C)
    sources: tuple       # [source][level] -> (H_l, W_l, C)
    intrinsics: tuple    # [level] -> Intrinsics
    groups: dict         # range of levels -> its _LevelGroup, made on first use


def build_snippet_pyramids(state, config: LossConfig) -> SnippetPyramids:
    """Image pyramids of the target and every source, and per-level intrinsics."""
    target = tuple(build_pyramid(state.target, config.num_levels))
    sources = tuple(tuple(build_pyramid(src, config.num_levels)) for src in state.sources)
    intrinsics = tuple(geometry.scale_intrinsics(state.intrinsics, l)
                       for l in range(len(target)))
    return SnippetPyramids(target=target, sources=sources, intrinsics=intrinsics, groups={})


class _LevelGroup(NamedTuple):
    """Consecutive pyramid levels that total_loss warps in one pass per
    source: one level as it is, or several as one (1, N) row of their pixels
    (see sampler.join_grids), with the target's and each source's levels
    stacked in the same order."""

    levels: range
    spans: tuple | None     # [i] -> (start, stop) of levels[i] in the row; None for one level
    grid: sampler.PixelGrid
    target: np.ndarray      # (H, W, C) or (1, N, C)
    sources: tuple          # [source] -> (H, W, C), or its (rows, C) stack


def _level_group(pyramids: SnippetPyramids, levels: range) -> _LevelGroup:
    """The _LevelGroup of the given levels, made once per snippet."""
    group = pyramids.groups.get(levels)
    if group is None:
        grids = [sampler.pixel_grid(pyramids.intrinsics[l]) for l in levels]
        if len(levels) == 1:
            group = _LevelGroup(levels, None, grids[0], pyramids.target[levels[0]],
                                tuple(pyr[levels[0]] for pyr in pyramids.sources))
        else:
            stops = np.cumsum([g.u.size for g in grids]).tolist()

            def stack(images):
                return np.concatenate([images[l].reshape(-1, images[l].shape[-1]) for l in levels])

            group = _LevelGroup(levels, tuple(zip([0] + stops[:-1], stops)),
                                sampler.join_grids(grids), stack(pyramids.target)[None],
                                tuple(map(stack, pyramids.sources)))
        pyramids.groups[levels] = group
    return group


def _as_row(x: np.ndarray) -> np.ndarray:
    """x with its two trailing (spatial) axes as one row: (..., 1, H * W)."""
    return x.reshape(x.shape[:-2] + (1, -1))


def _group_map(group: _LevelGroup, maps: list) -> np.ndarray:
    """The group's levels of a per-level map, as one map of the group."""
    if group.spans is None:
        return maps[0]
    return np.concatenate([_as_row(m) for m in maps], axis=-1)


def _split(x: np.ndarray, spans, channels: bool = False) -> list:
    """Each level's part of a group's map x: [x] for one level, else views
    of the spans of x's row. With channels, x has a trailing channel axis."""
    if spans is None:
        return [x]
    if channels:
        return [x[..., a:b, :] for a, b in spans]
    return [x[..., a:b] for a, b in spans]


def _sum_hw(x) -> float | np.ndarray:
    """x summed over its two trailing (spatial) axes: a float for one map,
    one value per batch element for a stack of maps."""
    total = x.sum(axis=(-2, -1))
    return float(total) if total.ndim == 0 else total


def _count_hw(mask) -> int | np.ndarray:
    """True pixels of a boolean map: an int for one map, one count per map
    of a stack. count_nonzero is several times faster than sum here."""
    if mask.ndim == 2:
        return int(np.count_nonzero(mask))
    return np.count_nonzero(mask, axis=(-2, -1))


def _mean_hw(x, count) -> float | np.ndarray:
    """_sum_hw(x) / count, or 0.0 where the count is 0."""
    total = x.sum(axis=(-2, -1))
    if total.ndim == 0:
        return float(total / count) if count else 0.0
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def _sum_sources(values: list) -> float | np.ndarray:
    """sum(values), per batch element when some values are stacks.

    Each element goes through Python's own float sum, which is compensated
    from Python 3.12 on, so a running NumPy sum could round differently from
    the unbatched call.
    """
    if all(isinstance(v, float) for v in values):
        return sum(values)
    columns = [np.broadcast_to(v, np.broadcast_shapes(*map(np.shape, values))).tolist()
               for v in values]
    return np.array([sum(element) for element in zip(*columns)])


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


def _upsample_grad(g: np.ndarray, shape) -> np.ndarray:
    """Adjoint of the 2x2 box downsampling used in build_pyramid."""
    h2, w2 = g.shape
    out = np.zeros(shape)
    out[: 2 * h2, : 2 * w2] = np.repeat(np.repeat(g, 2, axis=0), 2, axis=1) / 4.0
    return out


def view_synthesis_loss(target, warp, mask_prob=None, want_grads: bool = True, spans=None):
    """Mean L1 photometric error of one source's warp over its valid pixels.

    mask_prob, when given, is that source's (H, W) grid of mask_probability
    values; it weights each pixel's error.

    Returns (loss, grad_warped, grad_mask_logits, n_valid) where grad_warped
    is the (H, W, C) gradient with respect to the warped image,
    grad_mask_logits the gradient with respect to the source's mask logits
    (None when masks are off), and n_valid the valid count. With want_grads
    off both gradients are None. A warp with zero valid pixels gives 0 with
    zero gradients.

    spans, when given, are the (start, stop) pixel ranges of the levels of a
    level group's (1, N) maps (see total_loss). Each level then counts as a
    warp of its own: the loss and the valid count are lists with one entry
    per level, and each pixel's gradient divides by its own level's count.
    mask_prob is then a list with each level's (..., 1, n_l) row.

    The warp and the mask grids may carry a leading batch axis (batched
    warps of inverse_warp); the loss and the valid count are then one value
    per batch element, and want_grads must be off.
    """
    target = sampler._as_image(target)
    if warp.warped.shape[-3:] != target.shape:
        raise ValueError("warp/target shape mismatch")
    C = target.shape[2]
    valid = warp.valid
    counts = [_count_hw(part) for part in _split(valid, spans)]
    probs = None if mask_prob is None else [mask_prob] if spans is None else mask_prob
    loss = [0.0] * len(counts)
    grad_warped = grad_mask = None
    # In a batch, _mean_hw below gives the elements without valid pixels 0.
    if all(isinstance(n, int) and n == 0 for n in counts):
        if want_grads:
            grad_warped = np.zeros_like(warp.warped)
            grad_mask = None if probs is None else np.zeros(valid.shape)
    else:
        r = warp.warped - target
        e = _sum_channels(np.abs(r)) / C
        # Per level with masks: a level's mask may have a batch axis of its own.
        loss = [_mean_hw(x, n) for x, n in zip(
            _split(e * valid, spans) if probs is None else
            [p * e_l * v for p, e_l, v in zip(probs, _split(e, spans), _split(valid, spans))],
            counts)]
        if want_grads:
            # Each pixel divides by its own level's count; a level without
            # valid pixels has only zero numerators.
            n = counts[0] if spans is None else np.repeat(
                np.maximum(counts, 1), [b - a for a, b in spans]).reshape(valid.shape)
            weight = valid
            if probs is not None:
                prob = probs[0] if spans is None else np.concatenate(probs, axis=-1)
                weight = valid * prob
                grad_mask = valid * e / n * (prob * (1 - prob))
            # sign(r) * (weight / (C n)) is weight * sign(r) / (C n) bit for
            # bit, as sign(r) is -1, 0 or 1, with one product over the channels.
            grad_warped = np.sign(r)
            grad_warped *= (weight / (C * n))[..., None]
    if spans is None:
        return loss[0], grad_warped, grad_mask, counts[0]
    return loss, grad_warped, grad_mask, counts


def explainability_regularizer(logits, prob=None, want_grads: bool = True):
    """Cross-entropy toward constant label 1: mean of -log(mask_probability).

    prob, when given, is mask_probability(logits), computed once by the
    caller. Returns (loss, grad_logits); grad_logits is None with want_grads
    off. A (B, H, W) stack of logit grids gives one loss per grid.
    """
    logits = np.asarray(logits, dtype=float)
    if prob is None:
        prob = mask_probability(logits)
    # Where exp(-x) overflows, prob is subnormal or 0 and log(prob) is
    # imprecise or -inf; log(sigmoid(x)) = x - log1p(exp(x)) rounds to x there.
    with np.errstate(divide="ignore"):
        log_prob = np.where(logits < -_LOG_MAX_FLOAT, logits, np.log(prob))
    loss = -_mean_hw(log_prob, log_prob.shape[-2] * log_prob.shape[-1])
    if not want_grads:
        return loss, None
    # d(-log sigmoid(x))/dx = -(1 - prob)
    return loss, -(1 - prob) / prob.size


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
    if D.shape[-1] >= 3:
        duu = D[..., :-2] - 2 * D[..., 1:-1] + D[..., 2:]
        count = duu.shape[-2] * duu.shape[-1]
        loss += _mean_hw(np.abs(duu), count)
        if want_grads:
            sg = np.sign(duu) / count
            grad[..., :-2] += sg
            grad[..., 1:-1] -= 2 * sg
            grad[..., 2:] += sg
    if D.shape[-2] >= 3:
        dvv = D[..., :-2, :] - 2 * D[..., 1:-1, :] + D[..., 2:, :]
        count = dvv.shape[-2] * dvv.shape[-1]
        loss += _mean_hw(np.abs(dvv), count)
        if want_grads:
            sg = np.sign(dvv) / count
            grad[..., :-2, :] += sg
            grad[..., 1:-1, :] -= 2 * sg
            grad[..., 2:, :] += sg
    return loss, grad


def _pose_transforms(poses: np.ndarray) -> list:
    """Target-to-source transform of every source: a 4x4 matrix for (S, 6)
    poses, a contiguous (B, 4, 4) stack for a (B, S, 6) batch of them."""
    T = geometry.pose_transforms(poses)
    return list(T if T.ndim == 3 else np.ascontiguousarray(np.moveaxis(T, 1, 0)))


# Levels whose depth map has at least this many elements (batch axis
# included) fit their sources concurrently, and the coarsest levels whose
# sizes add up to less are warped together (see total_loss). On small levels,
# such as every level of a 64x48 fit, a thread hand-off or a separate pass
# per level costs more than the arithmetic.
PARALLEL_MIN_ELEMENTS = 8192


def _level_groups(sizes: list) -> list:
    """Levels 0..L-1, of sizes[l] depth elements each, as total_loss's groups
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
    executor on a single CPU. Threads start only when tasks need them."""
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
    """Yield task(0), ..., task(n - 1) in that order.

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
            yield task(s)
        return
    pending = {s: pool.submit(contextvars.copy_context().run, task, s)
               for s in range(n) if s % lanes}
    try:
        for s in range(n):
            yield pending[s].result() if s in pending else task(s)
    finally:
        for f in pending.values():
            if not f.cancel():
                f.exception()  # waits for a task that is still running


def projection_adjoint(gu, gv, warp, grid, R: np.ndarray, rot_jacs, P: np.ndarray,
                       spans=None):
    """Backpropagate gradients of the source coordinates to depth and pose.

    gu, gv are an objective's gradients with respect to the source
    coordinates (u_s, v_s) of each target pixel of `warp`, an unbatched
    inverse_warp on the sampler.PixelGrid `grid` through a transform with
    rotation block R and rotation Jacobians rot_jacs
    (geometry.rotation_jacobians). P = depth * rays are the target-frame
    points it transformed. Pixels outside warp.valid contribute nothing.

    Returns (g_depth, g_pose): the gradient with respect to each pixel's
    depth, shaped like gu, and for each level (spans as in
    view_synthesis_loss) the (6,) gradient with respect to the pose
    (rx, ry, rz, tx, ty, tz), summed over that level's pixels.
    """
    valid = warp.valid
    safe_z = np.where(valid, warp.src_points[..., 2], 1.0)
    gu = gu * grid.fx
    gv = gv * grid.fy
    gz = -(gu * warp.src_points[..., 0] + gv * warp.src_points[..., 1]) / safe_z ** 2
    gX = np.zeros(valid.shape + (3,))   # 0.0 outside the valid pixels
    np.copyto(gX[..., 0], gu / safe_z, where=valid)
    np.copyto(gX[..., 1], gv / safe_z, where=valid)
    np.copyto(gX[..., 2], gz, where=valid)
    # Products are formed in their operands' memory: every fresh array of
    # this size costs an allocation, and on large levels, peak memory.
    dX = warp.rays @ geometry.rotation_operand(R.T, gX)
    dX *= gX
    g_depth = _sum_channels(dX)
    rot = []
    for J in rot_jacs:   # one at a time: a stacked product is slower
        prod = P @ geometry.rotation_operand(J.T, P)
        prod *= gX
        rot.append([float(part.sum()) for part in _split(prod, spans, channels=True)])
    g_pose = []
    for i, (g, buf) in enumerate(zip(_split(gX, spans, channels=True),
                                     _split(dX, spans, channels=True))):
        # gX.sum(axis=(0, 1)) adds each component's values one after
        # another, starting from 0.0. A running sum (into dX, read no more)
        # does the same several times faster but starts from the first
        # value; + 0.0 turns the -0.0 total that only it can give into 0.0.
        t = np.add.accumulate(g.reshape(-1, 3), axis=0, out=buf.reshape(-1, 3))[-1] + 0.0
        g_pose.append(np.concatenate(([r[i] for r in rot], t)))
    return g_depth, g_pose


class _SourceTerms(NamedTuple):
    """One source's share of one level group, one entry per level (see
    total_loss)."""

    vs: list                        # photometric terms
    n_valid: list
    reg: list                       # mask regularizers; 0.0 without masks
    prob_sum: list                  # sums of mask probabilities; 0.0 without masks
    g_depth: np.ndarray | None      # gradient of the group's depth map
    g_pose: list | None             # (6,) pose gradients


def total_loss(state, config: LossConfig, want_grads: bool = True, *,
               pyramids: SnippetPyramids | None = None):
    """Multi-scale objective over a snippet state, with gradients.

    `state` carries target/source images, depth logits, per-source pose
    parameters, optional per-level mask logits, and intrinsics (see
    model.SnippetState). `pyramids` is build_snippet_pyramids(state, config),
    built here when not given. Returns (LossReport, SnippetGrads); the
    gradient buffers are None when want_grads is off (cheaper forward pass,
    used by the finite-difference harness).

    Level groups: the coarsest levels whose depth maps have fewer than
    PARALLEL_MIN_ELEMENTS elements together (batch axis included) form one
    group, and every other level is a group of its own. A group of several
    levels lays their pixels out along one row, so each source warps them
    in one pass, with each pixel's own level constants. Every per-level sum
    still runs over that level's pixels alone, in the same order as for a
    level on its own, so the grouping changes no result.

    Per source: given the parameters, each source's share of a group (warp,
    photometric term, mask regularizer and adjoint) depends only on the
    group's depth, that source's pose and that source's mask. It runs as one
    task, and the caller adds the tasks' results in source order, so every
    sum is formed in the same order whether the tasks ran one after another
    or, on levels of at least PARALLEL_MIN_ELEMENTS depth elements, on
    several threads at once.

    Batch axis: the parameters may describe a batch of B parameter sets
    instead of one. depth_logits is then (B, H, W), poses (B, S, 6) and a
    mask level (B, S, H_l, W_l); a parameter without the leading B axis is
    shared by the whole batch. Each report value that depends on a batched
    parameter then holds one entry per batch element, equal bit for bit to
    the total_loss of that parameter set alone. Batches are forward-only:
    want_grads must be off.
    """
    S = len(state.sources)
    if pyramids is None:
        pyramids = build_snippet_pyramids(state, config)
    L = len(pyramids.target)

    use_masks = config.use_explainability and state.mask_logits is not None
    poses = np.asarray(state.poses, dtype=float)
    depth0 = activate_depth(state.depth_logits)
    batched = (depth0.ndim == 3 or poses.ndim == 3
               or (use_masks and any(m.ndim == 4 for m in state.mask_logits)))
    if batched and want_grads:
        raise ValueError("gradients need a single parameter set, not a batch")
    depth_pyr = build_pyramid(depth0, L, depth0.ndim == 3)  # batched

    if want_grads:
        g_depth_lv = [np.zeros_like(d) for d in depth_pyr]
        g_pose = np.zeros((S, 6))
        g_mask = [np.zeros_like(state.mask_logits[l]) for l in range(L)] if use_masks else None

    transforms = _pose_transforms(poses)
    rot_jacs = []   # _pose_transforms has checked that the poses are finite
    if want_grads:
        rot_jacs = [geometry.rotation_jacobians(*poses[s, :3].tolist()) for s in range(S)]

    total = 0.0
    vs_per_level = []
    smooth_per_level = []
    reg_per_level = []
    valid_per_level = []
    mask_prob_sum = 0.0
    mask_prob_n = 0
    valid_px = 0

    for levels in _level_groups([d.size for d in depth_pyr]):
        group = _level_group(pyramids, levels)
        spans = group.spans
        depth = _group_map(group, [depth_pyr[l] for l in levels])
        # One probability array per level serves the photometric weights,
        # the regularizer and mean_mask. The source axis moves to the front,
        # so probs[i][s] and logits[i][s] are one source's grids, batched or
        # not.
        if use_masks:
            logits = [np.moveaxis(state.mask_logits[l], -3, 0) for l in levels]
            probs = [np.moveaxis(mask_probability(state.mask_logits[l]), -3, 0) for l in levels]
        else:
            logits = probs = None
        # Every source warps the same target grid at the same depth, so the
        # points, and the depth check, are per group.
        if np.any(depth <= 0):
            raise ValueError("depth must be positive")
        P = geometry.points_at_depth(depth, group.grid.rays)

        def source_terms(s) -> _SourceTerms:
            w = sampler.inverse_warp(group.sources[s], depth, transforms[s], group.grid,
                                     want_grads=want_grads, points=P)
            src_probs = None
            if use_masks:
                src_probs = probs[0][s] if spans is None else [_as_row(p[s]) for p in probs]
            vs, g_warped, g_mask_vs, n_valid = view_synthesis_loss(
                group.target, w, src_probs, want_grads=want_grads, spans=spans)
            if spans is None:
                vs, n_valid = [vs], [n_valid]
            regs = prob_sums = [0.0] * len(levels)
            if use_masks:
                regs, prob_sums = [], []
                for i, l in enumerate(levels):
                    reg, g_reg = explainability_regularizer(logits[i][s], probs[i][s],
                                                            want_grads=want_grads)
                    regs.append(reg)
                    prob_sums.append(_sum_hw(probs[i][s]))
                    if want_grads:
                        # This task's own slice of the level's mask gradient.
                        g_mask[l][s] += _split(g_mask_vs, spans)[i].reshape(g_reg.shape)
                        g_mask[l][s] += config.lambda_e * g_reg
            if not want_grads:
                return _SourceTerms(vs, n_valid, regs, prob_sums, None, None)

            gu = _sum_channels(g_warped * w.d_du)
            gv = _sum_channels(g_warped * w.d_dv)
            g_depth, g_pose_lv = projection_adjoint(gu, gv, w, group.grid, transforms[s][:3, :3],
                                                    rot_jacs[s], P, spans)
            return _SourceTerms(vs, n_valid, regs, prob_sums, g_depth, g_pose_lv)

        # Sources in order; per level, every sum then runs in level and
        # source order, as for levels warped one at a time.
        terms = []
        parallel = S > 1 and depth.size >= PARALLEL_MIN_ELEMENTS
        for s, t in enumerate(_in_source_order(source_terms, S, parallel)):
            terms.append(t._replace(g_depth=None))
            if want_grads:
                for l, g_part, g_p in zip(levels, _split(t.g_depth, spans), t.g_pose):
                    g_pose[s] += g_p
                    g_depth_lv[l] += g_part.reshape(g_depth_lv[l].shape)

        for i, l in enumerate(levels):
            vs_l = 0.0
            for t in terms:
                vs_l += t.vs[i]
                mask_prob_sum += t.prob_sum[i]
            if use_masks:
                mask_prob_n += S * probs[i].shape[-2] * probs[i].shape[-1]
            vs_per_level.append(vs_l)
            valid_per_level.append([t.n_valid[i] for t in terms])
            valid_px += sum(valid_per_level[-1])
            regs = [t.reg[i] for t in terms]
            reg_per_level.append(regs)

            smooth_l, g_sm = smoothness_loss(depth_pyr[l], want_grads=want_grads)
            smooth_per_level.append(smooth_l)
            w_s = config.smooth_weight(l)
            if want_grads:
                g_depth_lv[l] += w_s * g_sm

            total += vs_l + w_s * smooth_l + config.lambda_e * _sum_sources(regs)

    # Collapse the per-level depth gradients down the pyramid, then through
    # the activation to the logits.
    grads = None
    if want_grads:
        g = g_depth_lv[-1]
        for l in range(L - 2, -1, -1):
            g = g_depth_lv[l] + _upsample_grad(g, depth_pyr[l].shape)
        g_logits = g * activate_depth_grad(state.depth_logits)
        grads = SnippetGrads(depth_logits=g_logits, poses=g_pose, mask_logits=g_mask)

    report = LossReport(
        total=total,
        vs_per_level=vs_per_level,
        smooth_per_level=smooth_per_level,
        reg_per_level=reg_per_level,
        valid_per_level=valid_per_level,
        mean_mask=(mask_prob_sum / mask_prob_n) if mask_prob_n else None,
        all_invalid=valid_px == 0,
    )
    return report, grads
