"""Synthetic scenes with closed-form ground truth.

Scenes are textured planes rendered analytically: each pixel's ray is
intersected with the plane(s) and a procedural band-limited texture is
evaluated at the intersection point, so frames, ground-truth depth, and
ground-truth poses are exact (no resampling error in the renderer itself).

Trajectory poses are camera-to-world; the world frame is the frame of an
identity pose. Planes are defined in the world frame.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import fileio, geometry, sampler
from .geometry import Intrinsics, PoseParams

SCENE_KINDS = ("plane", "slanted", "two_plane")


@dataclass(frozen=True)
class SceneSpec:
    kind: str = "plane"
    texture_seed: int = 0
    # plane: depth of the fronto-parallel plane (world z = depth).
    # slanted: base depth at the optical axis; slope tilts the plane in x.
    # two_plane: (near, far) depths split at world x = 0.
    depth: float = 2.0
    depth2: float = 4.0
    slant: float = 0.3
    trajectory: tuple = ()
    intrinsics: Intrinsics = None
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}")
        for name in ("depth", "depth2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if len(self.trajectory) < 2:
            raise ValueError("trajectory needs at least 2 poses")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


@dataclass
class SnippetSequence:
    frames: list                       # (H, W, C) arrays
    intrinsics: Intrinsics
    target_index: int
    gt_depths: list | None = None      # per-frame (H, W)
    gt_poses: list | None = None       # per-frame 4x4 camera-to-world

    def __post_init__(self):
        shape = self.frames[0].shape
        for fr in self.frames[1:]:
            if fr.shape != shape:
                raise ValueError("all frames must have the same size")
        if not 0 <= self.target_index < len(self.frames):
            raise ValueError("target index out of range")


def _texture_params(seed: int):
    rng = np.random.default_rng(seed)
    n = 6
    freqs = 0.25 * (0.5 + rng.random((n, 2)))
    signs = rng.choice([-1.0, 1.0], size=(n, 2))
    phases = rng.random(n) * 2 * np.pi
    amps = 0.5 + 0.5 * rng.random(n)
    amps /= 2 * amps.sum()
    return freqs * signs, phases, amps


def _texture(freqs, phases, amps, x, y):
    val = np.full_like(x, 0.5)
    for k in range(len(amps)):
        val = val + amps[k] * np.sin(2 * np.pi * (freqs[k, 0] * x + freqs[k, 1] * y) + phases[k])
    return val


def _intersect(spec: SceneSpec, origin, dirs):
    """Intersect world-frame rays with the scene; returns (points, lam).

    origin: (3,) camera center; dirs: (..., 3) ray directions (camera-frame
    z component = 1 before rotation, so lam is the camera-frame depth).
    """
    if spec.kind == "plane":
        normals = [np.array([0.0, 0.0, 1.0])]
        ds = [spec.depth]
    elif spec.kind == "slanted":
        # Plane z = depth + slant * x  =>  (-slant, 0, 1) . X = depth
        n = np.array([-spec.slant, 0.0, 1.0])
        normals = [n]
        ds = [spec.depth]
    else:  # two_plane
        normals = [np.array([0.0, 0.0, 1.0])] * 2
        ds = [spec.depth, spec.depth2]

    lams = []
    for n, d in zip(normals, ds):
        denom = dirs @ n
        num = d - origin @ n
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(np.abs(denom) > 1e-12, num / denom, -1.0)
        lams.append(lam)

    if spec.kind == "two_plane":
        # Pick by the world x sign of the near-plane hit: x < 0 keeps the
        # near plane, x >= 0 the far one.
        p0 = origin + lams[0][..., None] * dirs
        lam = np.where(p0[..., 0] < 0, lams[0], lams[1])
    else:
        lam = lams[0]

    if np.any(lam <= 0):
        raise ValueError("scene surface is behind the camera for some pixels")
    return origin + lam[..., None] * dirs, lam


def render_scene(spec: SceneSpec) -> SnippetSequence:
    """Render all frames of the trajectory with exact depth/pose ground truth."""
    K = spec.intrinsics
    if K is None:
        raise ValueError("scene spec needs intrinsics")
    freqs, phases, amps = _texture_params(spec.texture_seed)
    noise_rng = np.random.default_rng(spec.texture_seed + 1)

    rays = sampler.pixel_grid(K).rays

    frames, depths, poses = [], [], []
    for p in spec.trajectory:
        T = geometry.pose_to_transform(p)  # camera-to-world
        dirs = rays @ T[:3, :3].T
        pts, lam = _intersect(spec, T[:3, 3], dirs)
        img = np.clip(_texture(freqs, phases, amps, pts[..., 0], pts[..., 1]), 0.0, 1.0)
        if spec.noise_sigma > 0:
            img = np.clip(img + noise_rng.normal(0, spec.noise_sigma, img.shape), 0.0, 1.0)
        frames.append(img[..., None])
        depths.append(lam)
        poses.append(T)

    return SnippetSequence(
        frames=frames,
        intrinsics=K,
        target_index=len(frames) // 2,
        gt_depths=depths,
        gt_poses=poses,
    )


def relative_pose(seq: SnippetSequence, source_frame: int) -> np.ndarray:
    """Ground-truth target-to-source transform for a rendered sequence."""
    Tt = seq.gt_poses[seq.target_index]
    Ts = seq.gt_poses[source_frame]
    return geometry.invert(Ts) @ Tt


# -- Sequence directory I/O --------------------------------------------------
#
# A sequence directory holds: sequence.txt (manifest), intrinsics.txt,
# frame_###.wf01 (+ .pgm previews), and optionally depth_###.wf01 and
# gt_trajectory.txt.

def save_sequence(seq: SnippetSequence, outdir) -> None:
    os.makedirs(outdir, exist_ok=True)
    names = []
    for i, fr in enumerate(seq.frames):
        name = f"frame_{i:03d}.wf01"
        fileio.save_wf01(os.path.join(outdir, name), fr)
        fileio.save_pnm(os.path.join(outdir, f"frame_{i:03d}.pgm" if fr.shape[2] == 1
                                     else f"frame_{i:03d}.ppm"), fr)
        names.append(name)
    fileio.save_manifest(os.path.join(outdir, "sequence.txt"), names, seq.target_index)
    fileio.save_intrinsics(os.path.join(outdir, "intrinsics.txt"), seq.intrinsics)
    if seq.gt_depths is not None:
        for i, d in enumerate(seq.gt_depths):
            fileio.save_wf01(os.path.join(outdir, f"depth_{i:03d}.wf01"), d)
    if seq.gt_poses is not None:
        fileio.save_trajectory(os.path.join(outdir, "gt_trajectory.txt"), seq.gt_poses)


def _load_map(path, K: Intrinsics, in_range, rule: str) -> np.ndarray:
    """A WF01 file of K's image size whose values all pass `in_range`;
    otherwise a FileFormatError that names the file and the `rule`."""
    arr = fileio.load_wf01(path)
    if arr.shape[:2] != (K.height, K.width):
        raise fileio.FileFormatError(
            f"{path}: size {arr.shape[:2]} does not match intrinsics ({K.height}, {K.width})")
    # Comparisons with NaN are false, so this also rejects NaN values.
    if not np.all(in_range(arr)):
        raise fileio.FileFormatError(f"{path}: {rule}")
    return arr


def load_sequence(indir) -> SnippetSequence:
    """Read a sequence directory, checking each frame, ground-truth depth map
    and the ground-truth trajectory against the intrinsics and frame count."""
    names, target = fileio.load_manifest(os.path.join(indir, "sequence.txt"))
    K = fileio.load_intrinsics(os.path.join(indir, "intrinsics.txt"))
    frames = [_load_map(os.path.join(indir, name), K, lambda fr: (fr >= 0.0) & (fr <= 1.0),
                        "pixel values must be finite and within [0, 1]") for name in names]
    gt_depths = None
    if os.path.exists(os.path.join(indir, "depth_000.wf01")):
        gt_depths = []
        for i in range(len(frames)):
            path = os.path.join(indir, f"depth_{i:03d}.wf01")
            depth = _load_map(path, K, lambda d: (d > 0.0) & (d < np.inf),
                              "depth values must be finite and > 0")
            if depth.shape[2] != 1:
                raise fileio.FileFormatError(f"{path}: {depth.shape[2]} depth channels, not 1")
            gt_depths.append(depth[..., 0])
    gt_poses = None
    traj_path = os.path.join(indir, "gt_trajectory.txt")
    if os.path.exists(traj_path):
        gt_poses = fileio.load_trajectory(traj_path)
        if len(gt_poses) != len(frames):
            raise fileio.FileFormatError(
                f"{traj_path}: {len(gt_poses)} poses for {len(frames)} frames")
    return SnippetSequence(
        frames=frames,
        intrinsics=K,
        target_index=target,
        gt_depths=gt_depths,
        gt_poses=gt_poses,
    )


def linear_trajectory(n: int, step: tuple) -> tuple:
    """n camera-to-world poses translating by `step` per frame, centered on 0."""
    sx, sy, sz = step
    mid = (n - 1) / 2
    return tuple(
        PoseParams(tx=(k - mid) * sx, ty=(k - mid) * sy, tz=(k - mid) * sz)
        for k in range(n)
    )
