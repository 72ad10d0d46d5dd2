"""Directly optimized snippet parameterization and the Adam fitting loop.

Trainable parameters: per-pixel depth logits for the target view (activated
as 1 / (alpha * sigmoid(x) + beta), alpha=10, beta=0.01, so positivity is
structural), one 6-DoF pose per source view, and one explainability logit
per pixel, per pyramid level and source view.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import geometry, losses, sampler
from .geometry import Intrinsics
from .losses import LossConfig, LossReport

DEPTH_ALPHA = 10.0
DEPTH_BETA = 0.01

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


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def activate_depth(logits):
    """Depth map from unconstrained logits; always in (1/(alpha+beta), 1/beta)."""
    return 1.0 / (DEPTH_ALPHA * sigmoid(logits) + DEPTH_BETA)


def activate_depth_grad(logits):
    s = sigmoid(logits)
    denom = DEPTH_ALPHA * s + DEPTH_BETA
    return -DEPTH_ALPHA * s * (1 - s) / denom ** 2


def depth_to_logit(depth: float) -> float:
    """Inverse of activate_depth for a scalar prior."""
    s = (1.0 / depth - DEPTH_BETA) / DEPTH_ALPHA
    if not 0 < s < 1:
        raise ValueError(
            f"depth prior {depth} outside representable range "
            f"({1 / (DEPTH_ALPHA + DEPTH_BETA):.4f}, {1 / DEPTH_BETA:.0f})"
        )
    return float(np.log(s / (1 - s)))


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
        if self.lr <= 0:
            raise ValueError("lr must be positive")
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

    def num_sources(self) -> int:
        return len(self.sources)


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


def _param_items(state: SnippetState):
    yield "depth_logits", state.depth_logits
    yield "poses", state.poses
    if state.mask_logits is not None:
        for l, m in enumerate(state.mask_logits):
            yield f"mask_logits_{l}", m


def _grad_items(grads: losses.SnippetGrads):
    yield "depth_logits", grads.depth_logits
    yield "poses", grads.poses
    if grads.mask_logits is not None:
        for l, m in enumerate(grads.mask_logits):
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
    gdict = dict(_grad_items(grads))
    if set(params) != set(gdict):
        raise ValueError("gradient buffers do not match parameters")
    for name, p in params.items():
        g = gdict[name]
        if g.shape != p.shape:
            raise ValueError(f"shape mismatch for {name}")
        m = moments.m.setdefault(name, np.zeros_like(p))
        v = moments.v.setdefault(name, np.zeros_like(p))
        m[...] = config.beta1 * m + (1 - config.beta1) * g
        v[...] = config.beta2 * v + (1 - config.beta2) * g * g
        mhat = m / (1 - config.beta1 ** t)
        vhat = v / (1 - config.beta2 ** t)
        lr = config.lr * MASK_LR_SCALE if name.startswith("mask_logits") else config.lr
        p -= lr * mhat / (np.sqrt(vhat) + config.epsilon)


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
    numbers). Raises FitDiverged if the loss becomes non-finite.
    """
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
        history.append(report)
        adam_step(state, grads, moments, adam_config, t)
        w = adam_config.window
        if t >= 2 * w:
            # Window means smooth out Adam's oscillation around the optimum.
            prev = sum(r.total for r in history[-2 * w: -w]) / w
            cur = sum(r.total for r in history[-w:]) / w
            if prev == 0 and cur == 0:
                converged = True
                break
            if prev > 0 and abs(prev - cur) / prev < adam_config.tol:
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
    S = state.num_sources()
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
