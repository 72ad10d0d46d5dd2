"""Depth-metric and trajectory-error protocols.

Depth: median scaling to resolve monocular scale ambiguity, then the seven
standard error/accuracy statistics. Odometry: snippet-level absolute
trajectory error after first-frame re-basing and a single least-squares
scale on predicted translations, plus the dataset-mean motion baseline.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import geometry


@dataclass
class DepthMetrics:
    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    delta1: float
    delta2: float
    delta3: float
    n_valid: int
    scale: float


def median_scale(pred, gt, valid=None) -> float:
    """median(gt) / median(pred) over valid pixels."""
    pred = np.asarray(pred, dtype=float).ravel()
    gt = np.asarray(gt, dtype=float).ravel()
    if valid is None:
        valid = np.ones_like(pred, dtype=bool)
    else:
        valid = np.asarray(valid, dtype=bool).ravel()
    if not valid.any():
        raise ValueError("no valid pixels")
    p, g = pred[valid], gt[valid]
    if np.any(p <= 0) or np.any(g <= 0):
        raise ValueError("valid depths must be positive")
    return float(np.median(g) / np.median(p))


def depth_metrics(pred, gt, valid=None, cap=None, crop=None,
                  apply_median_scaling=True) -> DepthMetrics:
    """Seven-statistic depth evaluation after optional median scaling.

    cap, finite and positive, excludes ground-truth pixels deeper than the
    given value; crop, a fraction in (0, 1], keeps only a centered crop of
    that relative size.
    """
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.shape != gt.shape:
        raise ValueError("pred/gt shape mismatch")
    # NaN fails every comparison, so a NaN cap would drop every pixel.
    if cap is not None and not (math.isfinite(cap) and cap > 0):
        raise ValueError(f"cap must be finite and > 0, got {cap}")
    if valid is None:
        valid = np.ones(pred.shape, dtype=bool)
    else:
        valid = np.asarray(valid, dtype=bool)

    if crop is not None:
        if not 0 < crop <= 1:
            raise ValueError("crop fraction must be in (0, 1]")
        h, w = gt.shape[:2]
        kh, kw = max(1, int(round(h * crop))), max(1, int(round(w * crop)))
        dh, dw = (h - kh) // 2, (w - kw) // 2
        keep = np.zeros_like(valid)
        keep[dh: dh + kh, dw: dw + kw] = True
        valid = valid & keep
    if cap is not None:
        valid = valid & (gt <= cap)

    scale = median_scale(pred, gt, valid) if apply_median_scaling else 1.0
    p = pred[valid] * scale
    g = gt[valid]
    if np.any(p <= 0) or np.any(g <= 0):
        raise ValueError("valid depths must be positive")

    err = p - g
    ratio = np.maximum(p / g, g / p)
    return DepthMetrics(
        abs_rel=float(np.mean(np.abs(err) / g)),
        sq_rel=float(np.mean(err ** 2 / g)),
        rmse=float(np.sqrt(np.mean(err ** 2))),
        rmse_log=float(np.sqrt(np.mean((np.log(p) - np.log(g)) ** 2))),
        delta1=float(np.mean(ratio < 1.25)),
        delta2=float(np.mean(ratio < 1.25 ** 2)),
        delta3=float(np.mean(ratio < 1.25 ** 3)),
        n_valid=int(valid.sum()),
        scale=scale,
    )


_COLUMNS = ("abs_rel", "sq_rel", "rmse", "rmse_log", "delta1", "delta2", "delta3")
_HEADERS = ("Abs Rel", "Sq Rel", "RMSE", "RMSE log",
            "d<1.25", "d<1.25^2", "d<1.25^3")


def format_metrics_report(m: DepthMetrics) -> str:
    """Aligned table plus a machine-readable key/value block."""
    head = " ".join(f"{h:>10s}" for h in _HEADERS)
    row = " ".join(f"{getattr(m, c):10.4f}" for c in _COLUMNS)
    kv = "\n".join(f"{k} {v:.17g}" for k, v in asdict(m).items())
    return f"{head}\n{row}\n\n{kv}\n"


# -- Trajectory evaluation ---------------------------------------------------

def rebase(traj, index: int = 0):
    """Express all poses relative to the pose at `index`."""
    ref_inv = geometry.invert(traj[index])
    return [ref_inv @ np.asarray(T, dtype=float) for T in traj]


@dataclass
class AteResult:
    ate: float
    residuals: np.ndarray
    scale: float
    scale_undefined: bool = False


def snippet_ate(pred, gt) -> AteResult:
    """Scale-aligned RMS translational error over one snippet.

    Both trajectories are re-based to their first frame; a single
    nonnegative scale minimizing sum ||s*t_pred - t_gt||^2 is applied to the
    predicted translations. If all predicted translations are zero while the
    ground truth moves, the scale is undefined: the error of the gt
    magnitudes is returned with scale_undefined set.
    """
    if len(pred) != len(gt):
        raise ValueError("trajectory length mismatch")
    if len(pred) < 2:
        raise ValueError("need at least 2 poses")
    tp = np.stack([T[:3, 3] for T in rebase(pred)])
    tg = np.stack([T[:3, 3] for T in rebase(gt)])
    denom = float((tp * tp).sum())
    if denom == 0.0:
        res = np.linalg.norm(tg, axis=1)
        return AteResult(
            ate=float(np.sqrt(np.mean(res ** 2))), residuals=res,
            scale=1.0, scale_undefined=bool(np.any(tg != 0)),
        )
    s = max(0.0, float((tp * tg).sum() / denom))
    res = np.linalg.norm(s * tp - tg, axis=1)
    return AteResult(ate=float(np.sqrt(np.mean(res ** 2))), residuals=res, scale=s)


def split_snippets(traj, length: int):
    """Consecutive stride-1 windows re-based to their central frame."""
    if length < 2:
        raise ValueError("snippet length must be >= 2")
    return [rebase(traj[i: i + length], index=length // 2)
            for i in range(len(traj) - length + 1)]


def mean_odometry_baseline(train_snippets):
    """Canonical snippet built from per-step mean motion of the training set.

    Each training snippet is reduced to inter-frame motions; translations
    are averaged directly and rotations via per-axis Euler-angle averaging
    (adequate for the small inter-frame rotations this baseline targets).
    """
    if not train_snippets:
        raise ValueError("need at least one training snippet")
    length = len(train_snippets[0])
    steps = length - 1
    eulers = np.zeros((steps, 3))
    trans = np.zeros((steps, 3))
    for snip in train_snippets:
        if len(snip) != length:
            raise ValueError("all snippets must have the same length")
        for k in range(steps):
            delta = geometry.invert(snip[k]) @ snip[k + 1]
            eulers[k] += geometry.rotation_to_euler(delta[:3, :3])
            trans[k] += delta[:3, 3]
    eulers /= len(train_snippets)
    trans /= len(train_snippets)

    poses = [np.eye(4)]
    for delta in geometry.pose_transforms(np.concatenate([eulers, trans], axis=1)):
        poses.append(poses[-1] @ delta)
    return poses

