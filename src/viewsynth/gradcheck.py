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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import losses, model
from .geometry import Intrinsics
from .losses import LossConfig, Params, Snippet


# Seeds screened to generic (FD-differentiable) instances: central
# differences are an invalid oracle when a perturbation pushes a projected
# coordinate across an integer grid line or a residual across zero, which
# happens for a few percent of raw seeds without indicating a gradient bug.
DEFAULT_SEEDS = (0, 1, 2, 3, 4, 6, 7, 8, 10, 11, 12, 13, 16, 18, 19, 20, 21,
                 22, 24, 25, 26, 27)


@dataclass
class Instance(Params):
    """Parameters of a gradient check, with the snippet they are checked on."""

    snippet: Snippet = field(kw_only=True)


def random_instance(seed: int, height: int = 8, width: int = 12,
                    n_sources: int = 2, levels: int = 2,
                    use_masks: bool = True) -> tuple:
    """A small generic Instance plus its loss config."""
    rng = np.random.default_rng(seed)
    K = Intrinsics(fx=float(width), fy=float(width), cx=width / 2 + 0.15,
                   cy=height / 2 - 0.1, width=width, height=height)
    images = [rng.random((height, width, 2)) for _ in range(n_sources + 1)]
    config = LossConfig(num_levels=levels, use_explainability=use_masks)
    state = Instance(**vars(model.init_state(images, 0, K, config, depth_prior=1.0)),
                     snippet=Snippet.build(images, 0, K, config))
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


# check_instance's central-difference step, at which DEFAULT_SEEDS are screened.
FD_STEP = 1e-5


def check_instance(state: Instance, config: LossConfig, inject_bug: bool = False) -> dict:
    """Max relative gradient error per parameter group of `state` over its
    snippet.

    The relative error of a group is ||analytic - fd||_inf normalized by
    max(||analytic||_inf, ||fd||_inf), with fd from central_differences at
    FD_STEP: one call each for the depth logits, the poses and all mask
    levels. inject_bug perturbs the analytic gradient (negative-control hook
    for the CLI). Sets the process's allocator policy first
    (`model._keep_freed_memory`).
    """
    model._keep_freed_memory()
    _, grads = losses.total_loss(state.snippet, state, config)
    analytic = dict(grads.items())
    if inject_bug:
        analytic["poses"] = analytic["poses"] * 1.01

    params = dict(state.items())
    fds = {}
    for names in (["depth_logits"], ["poses"],
                  [name for name in params if name.startswith("mask_logits")]):
        if names:
            fds.update(zip(names, central_differences(
                state.snippet, state, config, [params[name] for name in names], FD_STEP)))
    errors = {}
    for name, fd in fds.items():
        a = analytic[name]
        scale = max(np.max(np.abs(a)), np.max(np.abs(fd)), 1e-12)
        errors[name] = float(np.max(np.abs(a - fd)) / scale)
    return errors


# Perturbed parameter sets per batched total_loss call that moves the poses,
# and so every pixel's warp; depth-logit batches take 3 times as many and
# mask batches 8 times (see central_differences). Each set's total is
# bitwise independent of the batch size; larger batches make fewer calls but
# keep more temporaries alive at once, and the allocator policy
# (model._keep_freed_memory) lets a batch reuse the previous one's pages.
# With depth and pose sets warped in full, at 8x12 (perfbench gradcheck_fd,
# 10 s runs, 2-core x86 host): 32 sets 61-65k evals/s, 64 sets 76-78k,
# 128 sets 80k at 49.4 MB peak RSS against 44.8. tracemalloc peaks of one
# forward-only call (S=2, L=2, masks; MiB, 15 calls): 3 * 64 depth sets
# 1.8-3.0, 14-23 and 88-92 at 8x12, 24x32 and 48x64, against 2.3, 23-27 and
# 78-106 for 64 sets warped in full; 4 * 64 sets 27-31 and 117-123 at the
# larger two. A batch is threaded like one set (losses.PARALLEL_MIN_ELEMENTS),
# so the 192 sets of 8x12, one level group of 120 pixels, warp their two
# sources one after the other, at a steady 1.8 MiB peak.
FD_CHUNK = 64


def central_differences(snippet: Snippet, params: Params, config: LossConfig, arrays: list,
                        step: float) -> list:
    """(f(x + step e_i) - f(x - step e_i)) / (2 step) for every coordinate i
    of each array in `arrays`, a list of the parameter arrays of `params`,
    where f is total_loss over `snippet`; one array of differences per
    parameter array, shaped like it.

    The 2 * n perturbed parameter sets of all n coordinates go through
    forward-only total_loss calls in shared batches. In a batch, an array
    gets a batch axis only if one of the batch's sets perturbs it; every
    other parameter stays unbatched and is shared. Each total equals the one
    of perturbing the coordinate in place bit for bit.

    Batches hold up to FD_CHUNK sets when `params` holds the poses, whose
    sets move every pixel's warp. Otherwise the transforms stay unbatched:
    a depth-logit set re-warps only the pixels it moves (see
    sampler.inverse_warp), and batches hold up to 3 * FD_CHUNK sets. Without
    depth logits each source is warped once per batch, only the per-pixel
    mask terms carry the batch axis, and batches hold up to 8 * FD_CHUNK.
    Every array of `arrays` must be one of params' own (by identity), and
    step finite and > 0.
    """
    if isinstance(arrays, np.ndarray):
        raise TypeError("arrays must be a list of parameter arrays")
    own = [p for _, p in params.items()]
    for i, p in enumerate(arrays):
        if not any(p is q for q in own):
            raise ValueError(f"arrays[{i}] is not the depth logits, poses or a mask level "
                             "of params (a copy or a view would stay unperturbed)")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    chunk = (FD_CHUNK if any(p is params.poses for p in arrays) else
             3 * FD_CHUNK if any(p is params.depth_logits for p in arrays) else 8 * FD_CHUNK)
    flat = np.concatenate([p.reshape(-1) for p in arrays])
    # Set k moves coordinate k // 2 by +step for even k and by -step for odd
    # k; coordinates run through arrays in order, array i from bounds[i].
    bounds = np.cumsum([0] + [p.size for p in arrays])
    coords = np.repeat(np.arange(flat.size), 2)
    values = np.empty(2 * flat.size)
    values[0::2] = flat + step
    values[1::2] = flat - step
    totals = np.empty(2 * flat.size)
    for start in range(0, totals.size, chunk):
        ks = np.arange(start, min(start + chunk, totals.size))
        batches = []
        for p, lo, hi in zip(arrays, bounds[:-1], bounds[1:]):
            mine = ks[(coords[ks] >= lo) & (coords[ks] < hi)]
            if mine.size:
                batch = np.repeat(p[None], ks.size, axis=0)
                batch.reshape(ks.size, -1)[mine - start, coords[mine] - lo] = values[mine]
                batches.append((p, batch))

        def swap(p):   # p's batch, or p itself where no set of this chunk perturbs it
            return next((batch for q, batch in batches if q is p), p)

        batch = replace(params, depth_logits=swap(params.depth_logits), poses=swap(params.poses),
                        mask_logits=params.mask_logits and list(map(swap, params.mask_logits)))
        report, _ = losses.total_loss(snippet, batch, config, want_grads=False)
        totals[ks] = report.total
    fd = (totals[0::2] - totals[1::2]) / (2 * step)
    return [fd[lo:hi].reshape(p.shape) for p, lo, hi in zip(arrays, bounds[:-1], bounds[1:])]


def run(seeds, inject_bug: bool = False):
    """check_instance on the default random_instance of each seed; returns
    {group: worst error over instances}."""
    worst: dict[str, float] = {}
    for seed in seeds:
        state, config = random_instance(seed)
        errs = check_instance(state, config, inject_bug=inject_bug)
        for k, v in errs.items():
            # np.maximum keeps a NaN error, which max() would drop.
            worst[k] = float(np.maximum(worst.get(k, 0.0), v))
    return worst
