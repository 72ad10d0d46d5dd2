"""Directly optimized snippet parameterization and the Adam fitting loop.

Trainable parameters: per-pixel depth logits for the target view (activated
by losses.activate_depth), one 6-DoF pose per source view, and one
explainability logit per pixel, per pyramid level and source view.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .geometry import Intrinsics
# activate_depth and activate_depth_grad are not used here: perfbench/tracing.py
# wraps them by their names in this module.
from .losses import (LossConfig, LossReport, Params, Snippet, activate_depth,
                     activate_depth_grad, depth_to_logit)

CHECKPOINT_MAGIC = b"VSCK"
CHECKPOINT_VERSION = 2

# The paper's mask is a 2-channel softmax; a mask logit is the gap l1 - l0
# between those channels. Adam moves each channel of the pair by lr per step
# (their gradients are exact negatives), so the gap moves by 2 * lr. Mask
# logits therefore step by this multiple of lr to follow the paper's
# optimization exactly.
MASK_LR_SCALE = 2.0


class FitDiverged(RuntimeError):
    def __init__(self, iteration: int):
        super().__init__(f"loss became non-finite at iteration {iteration}")
        self.iteration = iteration


class NoValidPixels(RuntimeError):
    """No source pixel lands inside its image in front of the camera, so the
    photometric term, and every gradient it gives, is 0."""

    def __init__(self, iteration: int):
        super().__init__(f"no valid pixels at iteration {iteration}")
        self.iteration = iteration


# mallopt parameters, from glibc's malloc.h.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


@functools.cache
def _keep_freed_memory() -> None:
    """Have the C allocator keep the memory one loss evaluation frees for the next.

    The setting is process-wide: it applies to every allocation of the
    process, not only to this package's. `fit_snippet` applies it, once per
    process, before its first loss evaluation. A fitting library may set it
    because this package runs as an offline fitting job, the setting changes
    no result, and it only decides when freed memory goes back to the kernel.

    Each loss evaluation frees its temporaries, which glibc's defaults hand
    back to the kernel to be faulted in anew (tests/test_cli.py and
    tests/test_model.py bound the faults). Large arrays from the heap, a trim
    threshold above the working set and one arena (an arena per thread would
    raise the peak resident set), set before the first worker thread starts,
    reuse them instead. Without mallopt the allocator keeps its defaults.
    """
    try:
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, TypeError, AttributeError):
        return
    # Thresholds measured in ca65993 (BENCH_d5b66d7.json).
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_ARENA_MAX, 1)


# The paper's Adam settings.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# A fit has converged when the relative decrease of the mean loss from one
# window of this many iterations to the next drops below AdamConfig.tol.
CONVERGENCE_WINDOW = 50


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 0.0002
    max_iters: int = 3000
    tol: float = 1e-7

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")


def init_state(
    images: list,
    target_index: int,
    K: Intrinsics,
    loss_config: LossConfig,
    depth_prior: float = 1.0,
) -> Params:
    """Deterministic starting parameters: constant depth prior, zero poses,
    zero mask logits (probability 0.5 everywhere). The frames must pass
    losses.check_frames, the checks of Snippet.build, which this runs
    without building the frames' pyramids."""
    target, sources = losses.check_frames(images, target_index, K, loss_config.num_levels)
    H, W, _ = target.shape
    S = len(sources)
    depth_logits = np.full((H, W), depth_to_logit(depth_prior))
    poses = np.zeros((S, 6))
    mask_logits = None
    if loss_config.use_explainability:
        mask_logits = [np.zeros((S,) + p.shape)
                       for p in losses.build_pyramid(np.zeros((H, W)), loss_config.num_levels)]
    return Params(depth_logits=depth_logits, poses=poses, mask_logits=mask_logits)


@dataclass
class AdamMoments:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: Params, grads: Params, moments: AdamMoments, config: AdamConfig, t: int):
    """One bias-corrected Adam update, in place on the state's arrays: the
    package's one function that writes into arrays its caller holds.

    A parameter group whose leading axis splits into two halves of at least
    losses.PARALLEL_MIN_ELEMENTS elements each steps as those two views at
    once: the second on a pool worker (losses._beside), the first on the
    caller (the rule on halves: 5b68448, BENCH_c0c3895.json). Every
    element's update reads only its own entries, so the bits are the same
    however the halves ran."""
    if t < 1:
        raise ValueError("step index t must be >= 1")
    params = dict(state.items())
    gdict = dict(grads.items())
    if set(params) != set(gdict):
        raise ValueError("gradient buffers do not match parameters")
    for name, p in params.items():
        g = gdict[name]
        if g.shape != p.shape:
            raise ValueError(f"shape mismatch for {name}")
        m = moments.m.get(name)
        if m is None:
            m = moments.m[name] = np.zeros_like(p)
            moments.v[name] = np.zeros_like(p)
        v = moments.v[name]
        lr = config.lr * MASK_LR_SCALE if name.startswith("mask_logits") else config.lr
        half = len(p) // 2
        if not half or p[:half].size < losses.PARALLEL_MIN_ELEMENTS:
            _adam_update(p, g, m, v, lr, t)
            continue
        second = functools.partial(_adam_update, p[half:], g[half:], m[half:], v[half:], lr, t)
        with losses._beside(second) as second_done:
            _adam_update(p[:half], g[:half], m[:half], v[:half], lr, t)
            second_done()


def _adam_update(p, g, m, v, lr: float, t: int) -> None:
    """Adam's update of p and its moments m, v, in place, given the gradient g."""
    # In place, with two scratch arrays. Each product and sum takes the
    # operands it takes in the expression form
    #   m = b1*m + (1-b1)*g,  v = b2*v + ((1-b2)*g)*g,
    #   p -= (lr * (m/c1)) / (sqrt(v/c2) + eps),  c = 1 - b**t,
    # and a float product or sum does not depend on the order of its
    # two operands, so every bit is as there.
    a = np.multiply(g, 1 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += a
    np.multiply(g, 1 - ADAM_BETA2, out=a)
    a *= g
    v *= ADAM_BETA2
    v += a
    np.divide(m, 1 - ADAM_BETA1 ** t, out=a)
    a *= lr
    b = np.divide(v, 1 - ADAM_BETA2 ** t)
    np.sqrt(b, out=b)
    b += ADAM_EPSILON
    a /= b
    p -= a


@dataclass
class FitResult:
    state: Params
    snippet: Snippet
    history: list                # LossReport per iteration (pre-update)
    converged: bool
    iterations: int


def fit_snippet(
    images: list,
    target_index: int,
    K: Intrinsics,
    loss_config: LossConfig,
    adam_config: AdamConfig,
    state: Params | None = None,
) -> FitResult:
    """Minimize the multi-scale objective over one snippet with Adam.

    Deterministic given the configs (the optimization itself draws no random
    numbers). Raises FitDiverged if the loss becomes non-finite and
    NoValidPixels if no source pixel is valid. Sets the process's allocator
    policy first (`_keep_freed_memory`).

    The frames make one losses.Snippet, checked once by Snippet.build. The
    fit starts from `state`, which it updates in place, or without one from
    init_state's default; a caller that wants another start, such as another
    depth prior, builds it with init_state. A state shaped for another
    snippet or config is refused by the first total_loss call, with a
    ValueError that names the parameter and both shapes.
    """
    _keep_freed_memory()
    snippet = Snippet.build(images, target_index, K, loss_config)
    if state is None:
        state = init_state(images, target_index, K, loss_config)
    moments = AdamMoments()
    history: list[LossReport] = []
    converged = False
    for t in range(1, adam_config.max_iters + 1):
        report, grads = losses.total_loss(snippet, state, loss_config)
        if not np.isfinite(report.total):
            raise FitDiverged(t)
        if report.all_invalid:
            raise NoValidPixels(t)
        history.append(report)
        adam_step(state, grads, moments, adam_config, t)
        w = CONVERGENCE_WINDOW
        if t >= 2 * w:
            # Window means smooth out Adam's oscillation around the optimum.
            prev = sum(r.total for r in history[-2 * w: -w]) / w
            cur = sum(r.total for r in history[-w:]) / w
            if (prev == 0 and cur == 0) or (prev > 0 and abs(prev - cur) / prev < adam_config.tol):
                converged = True
                break
    return FitResult(state=state, snippet=snippet, history=history, converged=converged,
                     iterations=t)


def save_checkpoint(path, snippet: Snippet, state: Params) -> None:
    """Write the parameters of a fit over `snippet` as exact float64 (layout:
    README, "Checkpoint"). The package does not read the file: it holds no
    Adam step, moments or convergence window, so a fit cannot be resumed
    from it."""
    H, W, C = snippet.target.shape
    S = len(snippet.sources)
    levels = state.mask_logits or []
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<6I", CHECKPOINT_VERSION, H, W, C, S, len(levels)))
        f.write(state.depth_logits.astype("<f8").tobytes())
        f.write(np.asarray(state.poses).astype("<f8").tobytes())
        for m in levels:
            f.write(struct.pack("<2I", m.shape[1], m.shape[2]))
            f.write(m.astype("<f8").tobytes())
