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
from dataclasses import dataclass, field

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
    max(||analytic||_inf, ||fd||_inf), with the analytic gradients from one
    total_loss call and fd from one central_differences call over all of
    state's arrays (depth logits, poses and every mask level) at FD_STEP.
    inject_bug perturbs the analytic gradient (negative-control hook for the
    CLI).
    """
    _, grads = losses.total_loss(state.snippet, state, config)
    analytic = dict(grads.items())
    if inject_bug:
        analytic["poses"] = analytic["poses"] * 1.01

    names, arrays = zip(*state.items())
    errors = {}
    for name, fd in zip(names, central_differences(state.snippet, state, config, list(arrays),
                                                   FD_STEP)):
        a = analytic[name]
        scale = max(np.max(np.abs(a)), np.max(np.abs(fd)), 1e-12)
        errors[name] = float(np.max(np.abs(a - fd)) / scale)
    return errors


# Perturbed parameter sets per losses.EntryTotals call, of depth-logit, pose
# or mask-logit sets alike. Each set's total is bitwise independent of the
# batch size; larger batches make fewer calls but keep more temporaries
# alive at once. Each parameter array of a screened 8x12 instance fits one
# batch (measured in BENCH_72e385b.json).
FD_CHUNK = 512


def central_differences(snippet: Snippet, params: Params, config: LossConfig, arrays: list,
                        step: float) -> list:
    """(f(x + step e_i) - f(x - step e_i)) / (2 step) for every coordinate i
    of each array in `arrays`, a list of the parameter arrays of `params`,
    where f is total_loss over `snippet`; one array of differences per
    parameter array, shaped like it.

    One losses.EntryTotals of params evaluates the base point once and
    serves every array: the 2 * n perturbed parameter sets of an array's n
    coordinates go to it in batches of up to FD_CHUNK sets, and it
    recomputes only what each set moves (a few pixels for a depth or mask
    logit, one source's warps for a pose entry). Each total equals the
    total_loss of perturbing the coordinate in place, bit for bit. Every
    array of `arrays` must be one of params' own (by identity), and step
    finite and > 0.
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
    entry_totals = losses.EntryTotals(snippet, params, config)
    fds = []
    for p in arrays:
        # Set k moves entry k // 2 by +step for even k and by -step for odd k.
        entries = np.repeat(np.arange(p.size), 2)
        values = np.stack([p.reshape(-1) + step, p.reshape(-1) - step], axis=1).reshape(-1)
        totals = np.empty(values.size)
        for start in range(0, values.size, FD_CHUNK):
            ks = slice(start, start + FD_CHUNK)
            totals[ks] = entry_totals(p, entries[ks], values[ks])
        fds.append(((totals[0::2] - totals[1::2]) / (2 * step)).reshape(p.shape))
    return fds


def run(seeds, inject_bug: bool = False):
    """check_instance on the default random_instance of each seed; returns
    {group: worst error over instances}, where a NaN error is the worst."""
    worst: dict[str, float] = {}
    for seed in seeds:
        state, config = random_instance(seed)
        errs = check_instance(state, config, inject_bug=inject_bug)
        for k, v in errs.items():
            # np.maximum keeps a NaN error, which max() would drop.
            worst[k] = float(np.maximum(worst.get(k, 0.0), v))
    return worst
