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

from . import losses, sampler
from .geometry import Intrinsics
# activate_depth_grad is not used here: perfbench/tracing.py wraps it, with
# activate_depth, by its name in this module.
from .losses import LossConfig, LossReport, activate_depth, activate_depth_grad, depth_to_logit

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
    process, not only to this package's. `fit_snippet` and
    `gradcheck.check_instance` apply it, once per process, before their
    first loss evaluation. A fitting library may set it because this package
    runs as an offline fitting job, the setting changes no result, and it
    only decides when freed memory goes back to the kernel.

    A 416x128 fit iteration allocates and frees tens of MB of array
    temporaries. By default glibc maps large arrays afresh and hands the
    free top of its heap back to the kernel, so each such iteration faulted
    in about 10k new zeroed pages, a fifth or more of its time; a 64x48
    iteration faulted in about 230 and an 8x12 FD check about 2k. Large
    arrays from the heap, a trim threshold above that working set and one
    arena for all threads (each arena keeps its own high-water mark, which
    would raise the peak resident set) reuse those pages instead. The one
    arena must be set before the first threaded level starts the worker
    threads. Where there is no mallopt, the allocator keeps its defaults.
    """
    try:
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_ARENA_MAX, 1)


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 0.0002
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_iters: int = 3000
    # Converged when the relative loss decrease over this window drops
    # below tol.
    tol: float = 1e-7
    window: int = 50

    def __post_init__(self):
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1, beta2 must be in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


@dataclass
class SnippetState:
    """Everything that defines one snippet-fitting problem."""

    target: np.ndarray               # (H, W, C)
    sources: list                    # S arrays of (H, W, C)
    depth_logits: np.ndarray         # (H, W)
    poses: np.ndarray                # (S, 6): rx ry rz tx ty tz
    mask_logits: list | None         # [level] -> (S, H_l, W_l)
    intrinsics: Intrinsics

    def depth(self) -> np.ndarray:
        return activate_depth(self.depth_logits)


def init_state(
    images: list,
    target_index: int,
    K: Intrinsics,
    loss_config: LossConfig,
    depth_prior: float = 1.0,
) -> SnippetState:
    """Deterministic initial state: constant depth prior, zero poses,
    zero mask logits (probability 0.5 everywhere)."""
    if len(images) < 2:
        raise ValueError("need at least 2 images")
    images = [sampler._as_image(im) for im in images]
    shape = images[0].shape
    for im in images[1:]:
        if im.shape != shape:
            raise ValueError("all images must have the same size")
    if not 0 <= target_index < len(images):
        raise ValueError("target index out of range")
    H, W, _ = shape
    if (K.width, K.height) != (W, H):
        raise ValueError("intrinsics dimensions do not match images")

    target = images[target_index]
    sources = [im for i, im in enumerate(images) if i != target_index]
    S = len(sources)

    depth_logits = np.full((H, W), depth_to_logit(depth_prior))
    poses = np.zeros((S, 6))

    mask_logits = None
    if loss_config.use_explainability:
        level_shapes = [p.shape[:2] for p in losses.build_pyramid(np.zeros((H, W)), loss_config.num_levels)]
        mask_logits = [np.zeros((S, h, w)) for h, w in level_shapes]

    return SnippetState(
        target=target,
        sources=sources,
        depth_logits=depth_logits,
        poses=poses,
        mask_logits=mask_logits,
        intrinsics=K,
    )


def _param_items(params: SnippetState | losses.SnippetGrads):
    """(name, array) of each parameter group of a state, or of its gradients,
    which have the same fields."""
    yield "depth_logits", params.depth_logits
    yield "poses", params.poses
    if params.mask_logits is not None:
        for l, m in enumerate(params.mask_logits):
            yield f"mask_logits_{l}", m


@dataclass
class AdamMoments:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: SnippetState, grads, moments: AdamMoments, config: AdamConfig, t: int):
    """One bias-corrected Adam update, in place on the state arrays."""
    if t < 1:
        raise ValueError("step index t must be >= 1")
    params = dict(_param_items(state))
    gdict = dict(_param_items(grads))
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
        # In place, with two scratch arrays. Each product and sum takes the
        # operands it takes in the expression form
        #   m = b1*m + (1-b1)*g,  v = b2*v + ((1-b2)*g)*g,
        #   p -= (lr * (m/c1)) / (sqrt(v/c2) + eps),  c = 1 - b**t,
        # and a float product or sum does not depend on the order of its
        # two operands, so every bit is as there.
        a = np.multiply(g, 1 - config.beta1)
        m *= config.beta1
        m += a
        np.multiply(g, 1 - config.beta2, out=a)
        a *= g
        v *= config.beta2
        v += a
        np.divide(m, 1 - config.beta1 ** t, out=a)
        a *= lr
        b = np.divide(v, 1 - config.beta2 ** t)
        np.sqrt(b, out=b)
        b += config.epsilon
        a /= b
        p -= a


@dataclass
class FitResult:
    state: SnippetState
    history: list                # LossReport per iteration (pre-update)
    converged: bool
    iterations: int


def fit_snippet(
    images: list,
    target_index: int,
    K: Intrinsics,
    loss_config: LossConfig,
    adam_config: AdamConfig,
    depth_prior: float = 1.0,
    state: SnippetState | None = None,
) -> FitResult:
    """Minimize the multi-scale objective over one snippet with Adam.

    Deterministic given the configs (the optimization itself draws no random
    numbers). Raises FitDiverged if the loss becomes non-finite and
    NoValidPixels if no source pixel is valid. Sets the process's allocator
    policy first (`_keep_freed_memory`).
    """
    _keep_freed_memory()
    if state is None:
        state = init_state(images, target_index, K, loss_config, depth_prior)
    pyramids = losses.build_snippet_pyramids(state, loss_config)
    moments = AdamMoments()
    history: list[LossReport] = []
    converged = False
    for t in range(1, adam_config.max_iters + 1):
        report, grads = losses.total_loss(state, loss_config, pyramids=pyramids)
        if not np.isfinite(report.total):
            raise FitDiverged(t)
        if report.all_invalid:
            raise NoValidPixels(t)
        history.append(report)
        adam_step(state, grads, moments, adam_config, t)
        w = adam_config.window
        if t >= 2 * w:
            # Window means smooth out Adam's oscillation around the optimum.
            prev = sum(r.total for r in history[-2 * w: -w]) / w
            cur = sum(r.total for r in history[-w:]) / w
            if (prev == 0 and cur == 0) or (prev > 0 and abs(prev - cur) / prev < adam_config.tol):
                converged = True
                break
    return FitResult(state=state, history=history, converged=converged, iterations=t)


# ---------------------------------------------------------------------------
# Checkpoint I/O
#
# Layout (all integers little-endian uint32, parameters little-endian
# float64, row-major):
#   magic   4 bytes  "VSCK"
#   version u32      = 2
#   H, W, C u32 x 3  image dims
#   S       u32      number of source views
#   L       u32      number of pyramid levels with mask logits (0 = no masks)
#   depth logits     H*W float64
#   poses            S*6 float64
#   per level l:     H_l u32, W_l u32, then S*H_l*W_l float64 mask logits
# ---------------------------------------------------------------------------


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, state: SnippetState) -> None:
    H, W, C = state.target.shape
    S = len(state.sources)
    levels = state.mask_logits or []
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<6I", CHECKPOINT_VERSION, H, W, C, S, len(levels)))
        f.write(state.depth_logits.astype("<f8").tobytes())
        f.write(np.asarray(state.poses).astype("<f8").tobytes())
        for m in levels:
            f.write(struct.pack("<2I", m.shape[1], m.shape[2]))
            f.write(m.astype("<f8").tobytes())


def load_checkpoint(path, images, target_index, K: Intrinsics) -> SnippetState:
    """Rebuild a SnippetState from a checkpoint plus the original images."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic at offset 0: {data[:4]!r}")
    off = 4
    if len(data) < off + 24:
        raise CheckpointError(f"truncated checkpoint at offset {off}")
    version, H, W, C, S, L = struct.unpack_from("<6I", data, off)
    off += 24
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")

    def take(n):
        nonlocal off
        end = off + n * 8
        if end > len(data):
            raise CheckpointError(f"truncated checkpoint at offset {off}")
        arr = np.frombuffer(data[off:end], dtype="<f8").copy()
        off = end
        return arr

    depth_logits = take(H * W).reshape(H, W)
    poses = take(S * 6).reshape(S, 6)
    mask_logits = []
    for _ in range(L):
        if off + 8 > len(data):
            raise CheckpointError(f"truncated checkpoint at offset {off}")
        h, w = struct.unpack_from("<2I", data, off)
        off += 8
        mask_logits.append(take(S * h * w).reshape(S, h, w))
    if off != len(data):
        raise CheckpointError(f"{len(data) - off} trailing bytes at offset {off}")

    images = [sampler._as_image(im) for im in images]
    if images[target_index].shape != (H, W, C):
        raise CheckpointError("checkpoint dimensions do not match images")
    target = images[target_index]
    sources = [im for i, im in enumerate(images) if i != target_index]
    if len(sources) != S:
        raise CheckpointError("checkpoint source count does not match images")
    return SnippetState(
        target=target,
        sources=sources,
        depth_logits=depth_logits,
        poses=poses,
        mask_logits=mask_logits or None,
        intrinsics=K,
    )
