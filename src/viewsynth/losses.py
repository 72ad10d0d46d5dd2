"""Training objectives with analytic gradients.

Components: per-source L1 view-synthesis error (optionally weighted by a
per-pixel explainability mask), a cross-entropy mask regularizer toward 1,
second-order depth smoothness, and the multi-scale total that combines them
with weights lambda_s / 2^level and lambda_e.

Normalization: every component is a mean (over valid pixels per source for
the photometric term, over stencil positions for smoothness, over pixels for
the regularizer) so weights behave uniformly across pyramid levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geometry, sampler
from .geometry import Intrinsics
from .sampler import WarpResult


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


def build_pyramid(img, levels: int) -> list:
    """Box-filtered 2x downsampling pyramid; level 0 is the input.

    Odd trailing rows/columns are truncated. Stops early (returning fewer
    levels) once a dimension would drop below 2.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    img = np.asarray(img, dtype=float)
    out = [img]
    for _ in range(levels - 1):
        prev = out[-1]
        h2, w2 = prev.shape[0] // 2, prev.shape[1] // 2
        if h2 < 2 or w2 < 2:
            break
        t = prev[: 2 * h2, : 2 * w2]
        if t.ndim == 3:
            down = t.reshape(h2, 2, w2, 2, t.shape[2]).mean(axis=(1, 3))
        else:
            down = t.reshape(h2, 2, w2, 2).mean(axis=(1, 3))
        out.append(down)
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


def _upsample_grad(g: np.ndarray, shape) -> np.ndarray:
    """Adjoint of the 2x2 box downsampling used in build_pyramid."""
    h2, w2 = g.shape
    out = np.zeros(shape)
    out[: 2 * h2, : 2 * w2] = np.repeat(np.repeat(g, 2, axis=0), 2, axis=1) / 4.0
    return out


def view_synthesis_loss(target, warps: list, mask_logits=None,
                        want_grads: bool = True):
    """Mean L1 photometric error over valid pixels, summed over source views.

    mask_logits, when given, is one (H, W) logit grid per source; its
    mask_probability weights each pixel's error.

    Returns (loss, grad_warped, grad_mask_logits, n_valid) where grad_warped
    is a list of (H, W, C) arrays, grad_mask_logits a matching list (None
    entries when masks are off), and n_valid the per-source valid counts.
    A source with zero valid pixels contributes 0 with zero gradients.
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
        if w.warped.shape != target.shape:
            raise ValueError("warp/target shape mismatch")
        valid = w.valid
        n = int(valid.sum())
        n_valid.append(n)
        if n == 0:
            grad_warped.append(np.zeros_like(w.warped))
            grad_mask.append(None if mask_logits is None else np.zeros_like(mask_logits[s]))
            loss += 0.0
            continue
        r = w.warped - target
        e = np.abs(r).mean(axis=2)
        if mask_logits is not None:
            prob = mask_probability(mask_logits[s])
            weight = prob
        else:
            weight = np.ones_like(e)
        loss += float((weight * e * valid).sum() / n)

        if not want_grads:
            grad_warped.append(None)
            grad_mask.append(None)
            continue
        gw = valid[..., None] * weight[..., None] * np.sign(r) / (C * n)
        grad_warped.append(gw)
        if mask_logits is not None:
            ge = valid * e / n
            grad_mask.append(ge * (prob * (1 - prob)))
        else:
            grad_mask.append(None)
    return loss, grad_warped, grad_mask, n_valid


def explainability_regularizer(logits):
    """Cross-entropy toward constant label 1: mean of -log(mask_probability).

    Returns (loss, grad_logits).
    """
    logits = np.asarray(logits, dtype=float)
    prob = mask_probability(logits)
    # Where exp(-x) overflows, prob is subnormal or 0 and log(prob) is
    # imprecise or -inf; log(sigmoid(x)) = x - log1p(exp(x)) rounds to x there.
    with np.errstate(divide="ignore"):
        log_prob = np.where(logits < -_LOG_MAX_FLOAT, logits, np.log(prob))
    loss = float(-log_prob.mean())
    # d(-log sigmoid(x))/dx = -(1 - prob)
    return loss, -(1 - prob) / prob.size


def smoothness_loss(depth):
    """Mean absolute second difference of the depth map, per axis.

    Axes shorter than 3 samples contribute 0. Returns (loss, grad_depth).
    """
    D = np.asarray(depth, dtype=float)
    if D.ndim != 2:
        raise ValueError("depth must be 2-D")
    loss = 0.0
    grad = np.zeros_like(D)
    if D.shape[1] >= 3:
        duu = D[:, :-2] - 2 * D[:, 1:-1] + D[:, 2:]
        loss += float(np.abs(duu).mean())
        sg = np.sign(duu) / duu.size
        grad[:, :-2] += sg
        grad[:, 1:-1] -= 2 * sg
        grad[:, 2:] += sg
    if D.shape[0] >= 3:
        dvv = D[:-2, :] - 2 * D[1:-1, :] + D[2:, :]
        loss += float(np.abs(dvv).mean())
        sg = np.sign(dvv) / dvv.size
        grad[:-2, :] += sg
        grad[1:-1, :] -= 2 * sg
        grad[2:, :] += sg
    return loss, grad


def total_loss(state, config: LossConfig, want_grads: bool = True, *,
               pyramids: SnippetPyramids | None = None):
    """Multi-scale objective over a snippet state, with gradients.

    `state` carries target/source images, depth logits, per-source pose
    parameters, optional per-level mask logits, and intrinsics (see
    model.SnippetState). `pyramids` is build_snippet_pyramids(state, config),
    built here when not given. Returns (LossReport, SnippetGrads); the
    gradient buffers are None when want_grads is off (cheaper forward pass,
    used by the finite-difference harness).
    """
    from . import model  # local import; model builds on this module

    S = len(state.sources)
    if pyramids is None:
        pyramids = build_snippet_pyramids(state, config)
    tgt_pyr = pyramids.target
    src_pyrs = pyramids.sources
    L = len(tgt_pyr)

    depth0 = model.activate_depth(state.depth_logits)
    depth_pyr = build_pyramid(depth0, L)

    use_masks = config.use_explainability and state.mask_logits is not None

    g_depth_lv = [np.zeros_like(d) for d in depth_pyr]
    g_pose = np.zeros((S, 6))
    g_mask = [np.zeros_like(state.mask_logits[l]) for l in range(L)] if use_masks else None

    transforms = []
    rot_jacs = []
    for s in range(S):
        p = geometry.PoseParams.from_array(state.poses[s])
        transforms.append(geometry.pose_to_transform(p))
        if want_grads:
            rot_jacs.append(geometry.rotation_jacobians(p.rx, p.ry, p.rz))

    total = 0.0
    vs_per_level = []
    smooth_per_level = []
    reg_per_level = []
    valid_per_level = []
    mask_prob_sum = 0.0
    mask_prob_n = 0
    any_valid = False

    for l in range(L):
        Kl = pyramids.intrinsics[l]
        Dl = depth_pyr[l]
        warps = [sampler.inverse_warp(src_pyrs[s][l], Dl, transforms[s], Kl,
                                      want_grads=want_grads) for s in range(S)]
        lvl_masks = [state.mask_logits[l][s] for s in range(S)] if use_masks else None

        vs_l, g_warped, g_mask_vs, n_valid = view_synthesis_loss(
            tgt_pyr[l], warps, lvl_masks, want_grads=want_grads)
        vs_per_level.append(vs_l)
        valid_per_level.append(n_valid)
        any_valid = any_valid or any(n > 0 for n in n_valid)

        regs = [0.0] * S
        if use_masks:
            for s in range(S):
                logits = state.mask_logits[l][s]
                regs[s], g_reg = explainability_regularizer(logits)
                prob = mask_probability(logits)
                mask_prob_sum += float(prob.sum())
                mask_prob_n += prob.size
                if want_grads:
                    g_mask[l][s] += g_mask_vs[s]
                    g_mask[l][s] += config.lambda_e * g_reg
        reg_per_level.append(regs)

        if want_grads:
            # Every source warps the same target grid, so P is per level.
            P = Dl[..., None] * warps[0].rays
            for s in range(S):
                w = warps[s]
                gw = g_warped[s]
                gu = (gw * w.d_du).sum(axis=2)
                gv = (gw * w.d_dv).sum(axis=2)

                z = w.src_points[..., 2]
                safe_z = np.where(w.valid, z, 1.0)
                fx, fy = Kl.fx, Kl.fy
                gx = gu * fx / safe_z
                gy = gv * fy / safe_z
                gz = -(gu * fx * w.src_points[..., 0] + gv * fy * w.src_points[..., 1]) / safe_z ** 2
                gX = np.stack([gx, gy, gz], axis=-1)
                gX[~w.valid] = 0.0

                g_pose[s, 3:] += gX.sum(axis=(0, 1))
                R = transforms[s][:3, :3]
                g_depth_lv[l] += (gX * (w.rays @ R.T)).sum(axis=-1)
                for i in range(3):
                    g_pose[s, i] += float((gX * (P @ rot_jacs[s][i].T)).sum())

        smooth_l, g_sm = smoothness_loss(Dl)
        smooth_per_level.append(smooth_l)
        w_s = config.smooth_weight(l)
        if want_grads:
            g_depth_lv[l] += w_s * g_sm

        total += vs_l + w_s * smooth_l + config.lambda_e * sum(regs)

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
        all_invalid=not any_valid,
    )
    return report, grads
