"""Synthetic scenes with closed-form ground truth.

Scenes are textured planes rendered analytically: each pixel's ray is
intersected with the plane(s) and a procedural band-limited texture is
evaluated at the intersection point, so frames, ground-truth depth, and
ground-truth poses are exact (no resampling error in the renderer itself).

Trajectory poses are camera-to-world 6-vectors (see
geometry.pose_to_transform); the world frame is the frame of a zero pose.
Planes are defined in the world frame.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import fileio, geometry, sampler
from .geometry import Intrinsics

SCENE_KINDS = ("plane", "slanted", "two_plane")

# The slanted plane is z = depth + SLANT * x in the world frame.
SLANT = 0.3
# The far plane of a two_plane scene, at world x >= 0.
FAR_DEPTH = 4.0


# Compared and hashed by identity: an array field has no truth value.
@dataclass(frozen=True, eq=False)
class SceneSpec:
    kind: str = "plane"
    texture_seed: int = 0
    # plane: depth of the fronto-parallel plane (world z = depth).
    # slanted: depth at world x = 0 (see SLANT).
    # two_plane: depth of the near plane, at world x < 0 (see FAR_DEPTH).
    depth: float = 2.0
    trajectory: np.ndarray = ()     # (N, 6) camera-to-world poses, N >= 2; kept read-only
    intrinsics: Intrinsics = None   # required; checked in __post_init__
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}")
        if not isinstance(self.intrinsics, Intrinsics):
            raise ValueError(f"intrinsics must be an Intrinsics, got {self.intrinsics!r}")
        if not (math.isfinite(self.depth) and self.depth > 0):
            raise ValueError(f"depth must be finite and > 0, got {self.depth}")
        traj = np.array(self.trajectory, dtype=float)   # a copy: the caller's may change
        if traj.ndim != 2 or traj.shape[0] < 2 or traj.shape[1] != 6:
            raise ValueError(
                f"trajectory must be an (N >= 2, 6) pose array, got shape {traj.shape}")
        if not np.isfinite(traj).all():
            raise ValueError("trajectory poses must be finite")
        traj.flags.writeable = False
        object.__setattr__(self, "trajectory", traj)
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

    origin: (3,) camera center; dirs: (3, N) ray directions, a row per
    coordinate (camera-frame z component = 1 before rotation, so lam is the
    camera-frame depth). The points are (3, N) and lam (N,).
    """
    if spec.kind == "plane":
        normals = [np.array([0.0, 0.0, 1.0])]
        ds = [spec.depth]
    elif spec.kind == "slanted":
        # Plane z = depth + SLANT * x  =>  (-SLANT, 0, 1) . X = depth
        n = np.array([-SLANT, 0.0, 1.0])
        normals = [n]
        ds = [spec.depth]
    else:  # two_plane
        normals = [np.array([0.0, 0.0, 1.0])] * 2
        ds = [spec.depth, FAR_DEPTH]

    lams = []
    for n, d in zip(normals, ds):
        denom = n @ dirs
        num = d - origin @ n
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(np.abs(denom) > 1e-12, num / denom, -1.0)
        lams.append(lam)

    if spec.kind == "two_plane":
        # Pick by the world x sign of the near-plane hit: x < 0 keeps the
        # near plane, x >= 0 the far one.
        p0 = origin[:, None] + lams[0] * dirs
        lam = np.where(p0[0] < 0, lams[0], lams[1])
    else:
        lam = lams[0]

    if np.any(lam <= 0):
        raise ValueError("scene surface is behind the camera for some pixels")
    return origin[:, None] + lam * dirs, lam


def render_scene(spec: SceneSpec) -> SnippetSequence:
    """Render all frames of the trajectory with exact depth/pose ground truth."""
    K = spec.intrinsics
    freqs, phases, amps = _texture_params(spec.texture_seed)
    noise_rng = np.random.default_rng(spec.texture_seed + 1)

    shape = (K.height, K.width)
    rays = sampler.pixel_grid(K).rays.reshape(3, -1)

    frames, depths = [], []
    poses = list(geometry.pose_to_transform(spec.trajectory))  # camera-to-world
    for T in poses:
        pts, lam = _intersect(spec, T[:3, 3], T[:3, :3] @ rays)
        img = np.clip(_texture(freqs, phases, amps, pts[0], pts[1]), 0.0, 1.0).reshape(shape)
        if spec.noise_sigma > 0:
            img = np.clip(img + noise_rng.normal(0, spec.noise_sigma, img.shape), 0.0, 1.0)
        frames.append(img[..., None])
        depths.append(lam.reshape(shape))

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


def _load_map(path, K: Intrinsics, load=fileio.load_wf01) -> np.ndarray:
    """load(path), a map of K's image size; otherwise a FileFormatError that
    names the file."""
    arr = load(path)
    if arr.shape[:2] != (K.height, K.width):
        raise fileio.FileFormatError(
            f"{path}: size {arr.shape[:2]} does not match intrinsics ({K.height}, {K.width})")
    return arr


def load_sequence(indir) -> SnippetSequence:
    """Read a sequence directory, checking each frame, ground-truth depth map
    and the ground-truth trajectory against the intrinsics and frame count,
    and every frame's channel count (at least 1) against frame 0's."""
    names, target = fileio.load_manifest(os.path.join(indir, "sequence.txt"))
    K = fileio.load_intrinsics(os.path.join(indir, "intrinsics.txt"))
    paths = [os.path.join(indir, name) for name in names]
    frames = [_load_map(path, K) for path in paths]
    channels = frames[0].shape[2]
    for path, frame in zip(paths, frames):
        if frame.shape[2] == 0:
            raise fileio.FileFormatError(f"{path}: frame has no channels")
        if frame.shape[2] != channels:
            raise fileio.FileFormatError(
                f"{path}: {frame.shape[2]} channels, but frame 0 has {channels}")
        # Comparisons with NaN are false, so this also rejects NaN values.
        if not np.all((frame >= 0.0) & (frame <= 1.0)):
            raise fileio.FileFormatError(f"{path}: pixel values must be finite and within [0, 1]")
    gt_depths = None
    if os.path.exists(os.path.join(indir, "depth_000.wf01")):
        gt_depths = [_load_map(os.path.join(indir, f"depth_{i:03d}.wf01"), K,
                               fileio.load_depth_map) for i in range(len(frames))]
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


def linear_trajectory(n: int, step: tuple) -> np.ndarray:
    """n camera-to-world poses, an (n, 6) array, translating by `step` per
    frame and centered on 0."""
    poses = np.zeros((n, 6))
    poses[:, 3:] = np.outer(np.arange(n) - (n - 1) / 2, step)
    return poses
