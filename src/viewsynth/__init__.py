"""Direct photometric depth and pose optimization on monocular snippets.

The engine inverse-warps source frames onto a target frame through a
per-pixel depth field and 6-DoF relative poses, and minimizes a multi-scale
L1 view-synthesis objective (with explainability masking and second-order
depth smoothness) by Adam, entirely with analytic gradients.
"""

from .geometry import Intrinsics, pose_to_transform, invert, scale_intrinsics
from .sampler import WarpResult, bilinear_sample, inverse_warp
from .losses import LossConfig, LossReport, total_loss, build_pyramid
from .model import AdamConfig, SnippetState, FitResult, init_state, fit_snippet
from .synth import SceneSpec, SnippetSequence, render_scene, load_sequence, save_sequence
from .evaluation import DepthMetrics, depth_metrics, median_scale, snippet_ate, split_snippets

__all__ = [
    "Intrinsics", "pose_to_transform", "invert",
    "scale_intrinsics", "WarpResult", "bilinear_sample", "inverse_warp",
    "LossConfig", "LossReport", "total_loss", "build_pyramid",
    "AdamConfig", "SnippetState", "FitResult", "init_state", "fit_snippet",
    "SceneSpec", "SnippetSequence", "render_scene", "load_sequence",
    "save_sequence", "DepthMetrics", "depth_metrics", "median_scale",
    "snippet_ate", "split_snippets",
]

__version__ = "0.1.0"
