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
        if self.lambda_s < 0 or self.lambda_e < 0:
            raise ValueError("loss weights must be >= 0")
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


def mask_probability(logits: np.ndarray) -> np.ndarray:
    """Sigmoid of one logit per pixel.

    This is channel 1 of the paper's 2-channel softmax, whose value depends
    only on the gap between the two channels; the logit is that gap.
    """
    # exp(-x) overflows to inf below x = -_LOG_MAX_FLOAT. The result there,
    # 1 / inf = 0, is the limit and within 1e-308 of the true probability.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-logits))


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


def build_snippet_pyramids(state, config: LossConfig) -> SnippetPyramids:
    """Image pyramids of the target and every source, and per-level intrinsics."""
    target = tuple(build_pyramid(state.target, config.num_levels))
    sources = tuple(tuple(build_pyramid(src, config.num_levels)) for src in state.sources)
    intrinsics = tuple(geometry.scale_intrinsics(state.intrinsics, l)
                       for l in range(len(target)))
    return SnippetPyramids(target=target, sources=sources, intrinsics=intrinsics)


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
    """_sum_hw(x) / count; for a stack, 0.0 where its count is 0."""
    total = x.sum(axis=(-2, -1))
    if total.ndim == 0:
        return float(total / count)
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


def view_synthesis_loss(target, warps: list, mask_probs=None,
                        want_grads: bool = True):
    """Mean L1 photometric error over valid pixels, summed over source views.

    mask_probs, when given, holds one (H, W) grid of mask_probability values
    per source (an (S, H, W) array or a list); it weights each pixel's error.

    Returns (loss, grad_warped, grad_mask_logits, n_valid) where grad_warped
    is a list of (H, W, C) arrays, grad_mask_logits a matching list of
    gradients with respect to the mask logits (None entries when masks are
    off), and n_valid the per-source valid counts. With want_grads off both
    gradient lists hold None. A source with zero valid pixels contributes 0
    with zero gradients (None with want_grads off).

    Warps and mask grids may carry a leading batch axis (batched warps of
    inverse_warp); the loss and each valid count are then one value per batch
    element, and want_grads must be off.
    """
    target = sampler._as_image(target)
    if not warps:
        raise ValueError("need at least one warp")
    C = target.shape[2]
    loss = 0.0
    grad_warped = []
    grad_mask = []
    n_valid = []
    for s, w in enumerate(warps):
        if w.warped.shape[-3:] != target.shape:
            raise ValueError("warp/target shape mismatch")
        valid = w.valid
        n = _count_hw(valid)
        n_valid.append(n)
        # In a batch, _mean_hw below gives the elements without valid pixels 0.
        if isinstance(n, int) and n == 0:
            zero_mask = want_grads and mask_probs is not None
            grad_warped.append(np.zeros_like(w.warped) if want_grads else None)
            grad_mask.append(np.zeros_like(mask_probs[s]) if zero_mask else None)
            loss += 0.0
            continue
        r = w.warped - target
        e = _sum_channels(np.abs(r)) / C
        if mask_probs is not None:
            prob = mask_probs[s]
            loss += _mean_hw(prob * e * valid, n)
        else:
            loss += _mean_hw(e * valid, n)

        if not want_grads:
            grad_warped.append(None)
            grad_mask.append(None)
            continue
        if mask_probs is not None:
            gw = valid[..., None] * prob[..., None] * np.sign(r) / (C * n)
            ge = valid * e / n
            grad_mask.append(ge * (prob * (1 - prob)))
        else:
            gw = valid[..., None] * np.sign(r) / (C * n)
            grad_mask.append(None)
        grad_warped.append(gw)
    return loss, grad_warped, grad_mask, n_valid


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
    poses, a (B, 4, 4) stack for a (B, S, 6) batch of them.

    Each distinct pose row is converted once, by the scalar pose_to_transform.
    """
    cache = {}

    def transform(row):
        key = row.tobytes()
        if key not in cache:
            cache[key] = geometry.pose_to_transform(geometry.PoseParams.from_array(row))
        return cache[key]

    if poses.ndim == 2:
        return [transform(row) for row in poses]
    return [np.stack([transform(row) for row in poses[:, s]])
            for s in range(poses.shape[1])]


# Levels whose depth map has at least this many elements fit their sources
# concurrently. On smaller levels, such as every level of a 64x48 fit, handing
# a task to a thread costs more than running it on the caller.
PARALLEL_MIN_ELEMENTS = 8192


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


class _SourceTerms(NamedTuple):
    """One source's share of one pyramid level (see total_loss)."""

    vs: float | np.ndarray          # photometric term
    n_valid: int | np.ndarray
    reg: float | np.ndarray         # mask regularizer; 0.0 without masks
    prob_sum: float | np.ndarray    # sum of mask probabilities; 0.0 without masks
    g_depth: np.ndarray | None      # (H_l, W_l) gradient of the level's depth
    g_t: np.ndarray | None          # (3,) gradient of the translation
    g_rot: list | None              # gradients of rx, ry, rz


def total_loss(state, config: LossConfig, want_grads: bool = True, *,
               pyramids: SnippetPyramids | None = None):
    """Multi-scale objective over a snippet state, with gradients.

    `state` carries target/source images, depth logits, per-source pose
    parameters, optional per-level mask logits, and intrinsics (see
    model.SnippetState). `pyramids` is build_snippet_pyramids(state, config),
    built here when not given. Returns (LossReport, SnippetGrads); the
    gradient buffers are None when want_grads is off (cheaper forward pass,
    used by the finite-difference harness).

    Per source: given the parameters, each source's share of a level (warp,
    photometric term, mask regularizer and adjoint) depends only on the
    level's depth, that source's pose and that source's mask. It runs as one
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
    from . import model  # local import; model builds on this module

    S = len(state.sources)
    if pyramids is None:
        pyramids = build_snippet_pyramids(state, config)
    tgt_pyr = pyramids.target
    src_pyrs = pyramids.sources
    L = len(tgt_pyr)

    use_masks = config.use_explainability and state.mask_logits is not None
    poses = np.asarray(state.poses, dtype=float)
    depth0 = model.activate_depth(state.depth_logits)
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
    rot_jacs = []
    if want_grads:
        for s in range(S):
            p = geometry.PoseParams.from_array(poses[s])
            rot_jacs.append(geometry.rotation_jacobians(p.rx, p.ry, p.rz))

    total = 0.0
    vs_per_level = []
    smooth_per_level = []
    reg_per_level = []
    valid_per_level = []
    mask_prob_sum = 0.0
    mask_prob_n = 0
    valid_px = 0

    for l in range(L):
        Kl = pyramids.intrinsics[l]
        Dl = depth_pyr[l]
        # One probability array per level serves the photometric weights,
        # the regularizer and mean_mask. The source axis moves to the front,
        # so probs[s] and logits[s] are one source's grids, batched or not.
        if use_masks:
            logits = np.moveaxis(state.mask_logits[l], -3, 0)
            probs = np.moveaxis(mask_probability(state.mask_logits[l]), -3, 0)
        else:
            logits = probs = None
        # Every source warps the same target grid, so P is per level.
        P = Dl[..., None] * sampler.pixel_grid(Kl)[2] if want_grads else None

        def source_terms(s) -> _SourceTerms:
            w = sampler.inverse_warp(src_pyrs[s][l], Dl, transforms[s], Kl,
                                     want_grads=want_grads)
            vs, g_warped, g_mask_vs, n_valid = view_synthesis_loss(
                tgt_pyr[l], [w], None if probs is None else [probs[s]],
                want_grads=want_grads)
            reg = prob_sum = 0.0
            if use_masks:
                reg, g_reg = explainability_regularizer(logits[s], probs[s],
                                                        want_grads=want_grads)
                prob_sum = _sum_hw(probs[s])
                if want_grads:
                    # This task's own slice of the level's mask gradient.
                    g_mask[l][s] += g_mask_vs[0]
                    g_mask[l][s] += config.lambda_e * g_reg
            if not want_grads:
                return _SourceTerms(vs, n_valid[0], reg, prob_sum, None, None, None)

            gw = g_warped[0]
            gu = _sum_channels(gw * w.d_du)
            gv = _sum_channels(gw * w.d_dv)
            z = w.src_points[..., 2]
            safe_z = np.where(w.valid, z, 1.0)
            fx, fy = Kl.fx, Kl.fy
            gx = gu * fx / safe_z
            gy = gv * fy / safe_z
            gz = -(gu * fx * w.src_points[..., 0] + gv * fy * w.src_points[..., 1]) / safe_z ** 2
            gX = np.stack([gx, gy, gz], axis=-1)
            gX[~w.valid] = 0.0
            R = transforms[s][:3, :3]
            return _SourceTerms(
                vs, n_valid[0], reg, prob_sum,
                g_depth=_sum_channels(gX * (w.rays @ R.T)),
                g_t=gX.sum(axis=(0, 1)),
                g_rot=[float((gX * (P @ J.T)).sum()) for J in rot_jacs[s]],
            )

        vs_l = 0.0
        n_valid = []
        regs = []
        parallel = S > 1 and Dl.size >= PARALLEL_MIN_ELEMENTS
        for s, t in enumerate(_in_source_order(source_terms, S, parallel)):
            vs_l += t.vs
            n_valid.append(t.n_valid)
            regs.append(t.reg)
            mask_prob_sum += t.prob_sum
            if want_grads:
                g_pose[s, 3:] += t.g_t
                g_depth_lv[l] += t.g_depth
                for i in range(3):
                    g_pose[s, i] += t.g_rot[i]
        if use_masks:
            mask_prob_n += S * probs.shape[-2] * probs.shape[-1]
        vs_per_level.append(vs_l)
        valid_per_level.append(n_valid)
        valid_px += sum(n_valid)
        reg_per_level.append(regs)

        smooth_l, g_sm = smoothness_loss(Dl, want_grads=want_grads)
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
        g_logits = g * model.activate_depth_grad(state.depth_logits)
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
