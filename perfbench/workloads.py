"""The three benchmark workloads and the checks that make an operation fail.

Each workload has a ``setup()`` that builds its inputs from the seed (timed
as set-up) and an ``op()`` that runs one operation: one fit, one gradcheck
instance or one synth -> fit -> eval-depth -> eval-odom pipeline. ``op()``
returns (times, evals, outcome): raw seconds per timed part, objective
evaluations, and an Outcome carrying the quality numbers, an output digest and
the reason the operation failed, if it did.

The package is reached only through module attributes looked up at call time
(``vs.model.fit_snippet``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from timing import Calibration

GRAD_TOLERANCE = 1e-4


@dataclass
class Outcome:
    quality: dict = field(default_factory=dict)
    key: str = ""                  # identifies the input; equal keys need equal digests
    digest: str = ""               # hash of the operation's outputs
    error: str | None = None       # why the operation failed, None if it passed


def _t_dir_err_deg(pred_t: np.ndarray, gt_t: np.ndarray) -> float:
    """Angle between predicted and true translation directions, degrees."""
    norm = np.linalg.norm(pred_t) * np.linalg.norm(gt_t)
    if not norm > 0:
        return 180.0
    return float(np.degrees(np.arccos(np.clip(pred_t @ gt_t / norm, -1.0, 1.0))))


def _rng(seed: int) -> np.random.Generator:
    # Any integer seed, negative ones included, picks a valid generator seed.
    return np.random.default_rng(seed % 2**63)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


class PlaneFit:
    """Criterion-3 problem: 64x48 fronto-parallel plane, fixed-length Adam fit."""

    name = "plane_fit"
    width, height, focal, depth, step_x = 64, 48, 30.0, 2.0, 0.15
    # Short fits keep each timed sample short, which tracks the host's speed
    # changes more closely than one long fit per sample.
    levels, lr, iters = 3, 0.01, 30
    # Gates for a 30-iteration fit. Over 40 seeds the worst values were Abs Rel
    # 0.005, 14 deg and a loss ratio of 0.125. Criterion 3 asks for 0.05, 1 deg
    # and 0.1 after 4500 iterations with a decaying step size.
    max_abs_rel, max_t_dir_deg, max_vs_ratio = 0.05, 30.0, 0.3
    calibration = Calibration(48, 64, 200, 0.04)

    def __init__(self, vs, seed: int, workdir: str):
        self.vs = vs
        self.texture_seed = int(_rng(seed).integers(0, 2**31))
        self.K = vs.geometry.Intrinsics(fx=self.focal, fy=self.focal, cx=self.width / 2,
                                        cy=self.height / 2, width=self.width,
                                        height=self.height)
        self.loss_cfg = vs.losses.LossConfig(num_levels=self.levels, use_explainability=False)
        self.adam_cfg = vs.model.AdamConfig(lr=self.lr, max_iters=self.iters, tol=0.0)

    def size(self) -> dict:
        return {"width": self.width, "height": self.height, "frames": 3,
                "levels": self.levels, "masks": False, "lr": self.lr,
                "iters_per_fit": self.iters, "texture_seed": self.texture_seed}

    def setup(self):
        vs = self.vs
        spec = vs.synth.SceneSpec(
            kind="plane", texture_seed=self.texture_seed, depth=self.depth,
            trajectory=vs.synth.linear_trajectory(3, (self.step_x, 0.0, 0.0)),
            intrinsics=self.K)
        self.seq = vs.synth.render_scene(spec)
        return self._fresh_state()

    def _fresh_state(self):
        seq = self.seq
        return self.vs.model.init_state(seq.frames, seq.target_index, self.K, self.loss_cfg)

    def op(self):
        vs, seq = self.vs, self.seq
        state = self._fresh_state()
        t0 = time.perf_counter()
        try:
            res = vs.model.fit_snippet(seq.frames, seq.target_index, self.K,
                                       self.loss_cfg, self.adam_cfg, state=state)
        except vs.model.FitDiverged as e:
            return {"eval": time.perf_counter() - t0, "job": time.perf_counter() - t0}, \
                0, Outcome(error=f"fit diverged: {e}")
        t1 = time.perf_counter()
        m = vs.evaluation.depth_metrics(res.state.depth(), seq.gt_depths[seq.target_index])
        t2 = time.perf_counter()
        times = {"eval": t1 - t0, "job": t2 - t0}

        totals = [r.total for r in res.history]
        out = Outcome(digest=_digest(res.state.depth_logits.tobytes(),
                                     res.state.poses.tobytes(),
                                     np.array(totals).tobytes()))
        if not all(math.isfinite(t) for t in totals):
            out.error = "non-finite loss"
            return times, res.iterations, out
        sources = [i for i in range(len(seq.frames)) if i != seq.target_index]
        t_dir = max(_t_dir_err_deg(res.state.poses[s, 3:],
                                   vs.synth.relative_pose(seq, frame)[:3, 3])
                    for s, frame in enumerate(sources))
        vs_ratio = sum(res.history[-1].vs_per_level) / sum(res.history[0].vs_per_level)
        out.quality = {"abs_rel": m.abs_rel, "t_dir_err_deg": t_dir, "vs_loss_ratio": vs_ratio}
        if not (m.abs_rel < self.max_abs_rel and t_dir < self.max_t_dir_deg
                and vs_ratio < self.max_vs_ratio):
            out.error = f"fit quality out of bounds: {out.quality}"
        return times, res.iterations, out


class Snippet5Masked:
    """The paper's training shape through the CLI: 5 frames at 416x128, masks on."""

    name = "snippet5_masked"
    width, height, focal, step_x, frames = 416, 128, 240.0, 0.05, 5
    levels, lr, iters = 4, 0.01, 12
    # After 12 iterations Abs Rel is about 0.13 and ATE about 0.06; a
    # constant-depth guess already scores Abs Rel 0.13 on this slanted plane.
    max_abs_rel, max_ate = 0.2, 0.15
    calibration = Calibration(256, 832, 10, 0.15)

    def __init__(self, vs, seed: int, workdir: str):
        self.vs = vs
        self.texture_seed = int(_rng(seed).integers(0, 2**31))
        self.workdir = workdir
        self.runs = 0

    def size(self) -> dict:
        return {"width": self.width, "height": self.height, "frames": self.frames,
                "scene": "slanted", "focal": self.focal, "step_x": self.step_x,
                "levels": self.levels, "masks": True, "lr": self.lr,
                "iters_per_fit": self.iters, "texture_seed": self.texture_seed}

    def synth_args(self, out: str) -> list:
        return ["synth", "--out", out, "--scene", "slanted", "--frames", str(self.frames),
                "--seed", str(self.texture_seed), "--width", str(self.width),
                "--height", str(self.height), "--focal", str(self.focal),
                "--step-x", str(self.step_x)]

    def fit_args(self, seq: str, out: str) -> list:
        return ["fit", "--in", seq, "--out", out, "--levels", str(self.levels),
                "--lr", str(self.lr), "--max-iters", str(self.iters)]

    def setup(self):
        vs = self.vs
        K = vs.geometry.Intrinsics(fx=self.focal, fy=self.focal, cx=self.width / 2,
                                   cy=self.height / 2, width=self.width, height=self.height)
        spec = vs.synth.SceneSpec(
            kind="slanted", texture_seed=self.texture_seed,
            trajectory=vs.synth.linear_trajectory(self.frames, (self.step_x, 0.0, 0.0)),
            intrinsics=K)
        seq = vs.synth.render_scene(spec)
        vs.synth.save_sequence(seq, os.path.join(self.workdir, "setup_seq"))
        cfg = vs.losses.LossConfig(num_levels=self.levels, use_explainability=True)
        return vs.model.init_state(seq.frames, seq.target_index, K, cfg)

    def op(self):
        vs = self.vs
        d = os.path.join(self.workdir, f"op{self.runs}")
        self.runs += 1
        seq, fit = os.path.join(d, "seq"), os.path.join(d, "fit")
        depth_txt, odom_txt = os.path.join(d, "depth.txt"), os.path.join(d, "odom.txt")
        commands = [
            ("synth", self.synth_args(seq)),
            ("fit", self.fit_args(seq, fit)),
            ("eval-depth", ["eval-depth", "--in", os.path.join(fit, "depth.wf01"),
                            "--gt", os.path.join(seq, f"depth_{self.frames // 2:03d}.wf01"),
                            "--out", depth_txt]),
            ("eval-odom", ["eval-odom", "--in", os.path.join(fit, "trajectory.txt"),
                           "--gt", os.path.join(seq, "gt_trajectory.txt"),
                           "--snippet-len", str(self.frames), "--out", odom_txt]),
        ]
        times, out = self.run_commands(commands)
        if out.error is None:
            self._check(seq, fit, depth_txt, odom_txt, out)
        shutil.rmtree(d, ignore_errors=True)
        return times, self.iters if out.error is None else 0, out

    def run_commands(self, commands):
        """Run CLI commands in order; stops at the first non-zero exit."""
        times = {"job": 0.0, "eval": 0.0}
        out = Outcome()
        for name, argv in commands:
            t0 = time.perf_counter()
            code = self.vs.cli.main(argv)
            times[name] = time.perf_counter() - t0
            times["job"] += times[name]
            if code != 0:
                out.error = f"viewsynth {name} exited with {code}"
                break
        times["eval"] = times.get("fit", 0.0)
        return times, out

    def _check(self, seq, fit, depth_txt, odom_txt, out: Outcome):
        vs = self.vs
        try:
            with open(depth_txt) as f:
                kv = dict(line.split() for line in f.read().split("\n\n")[1].splitlines())
            abs_rel = float(kv["abs_rel"])
            with open(odom_txt) as f:
                key, value = f.readline().split()
            if key != "mean_ate":
                raise ValueError(f"expected mean_ate, got {key!r}")
            ate = float(value)
            with open(os.path.join(fit, "history.txt")) as f:
                totals = [float(line.split()[1]) for line in f]
        except (OSError, ValueError, KeyError, IndexError) as e:
            out.error = f"unparseable eval output: {e!r}"
            return
        pred = vs.fileio.load_trajectory(os.path.join(fit, "trajectory.txt"))
        gt = vs.fileio.load_trajectory(os.path.join(seq, "gt_trajectory.txt"))
        mid = self.frames // 2
        t_dir = max(_t_dir_err_deg(pred[i][:3, 3], (vs.geometry.invert(gt[mid]) @ gt[i])[:3, 3])
                    for i in range(self.frames) if i != mid)
        with open(os.path.join(fit, "depth.wf01"), "rb") as f1, \
                open(os.path.join(fit, "trajectory.txt"), "rb") as f2:
            out.digest = _digest(f1.read(), f2.read())
        out.quality = {"abs_rel": abs_rel, "t_dir_err_deg": t_dir, "ate": ate}
        if not all(math.isfinite(t) for t in totals) or not math.isfinite(abs_rel + ate):
            out.error = "non-finite loss or metric"
        elif not (abs_rel < self.max_abs_rel and ate < self.max_ate):
            out.error = f"fit quality out of bounds: {out.quality}"


class GradcheckFD:
    """Criterion-1 FD oracle on screened instances (8x12, S=2, L=2, masks on)."""

    name = "gradcheck_fd"
    calibration = Calibration(48, 64, 800, 0.15)

    def __init__(self, vs, seed: int, workdir: str):
        self.vs = vs
        # The seed picks the order of the screened seeds. Offsetting seed
        # values instead would give unscreened instances, where central
        # differences can fail falsely at interpolation kinks.
        order = _rng(seed).permutation(len(vs.gradcheck.DEFAULT_SEEDS))
        self.seeds = [vs.gradcheck.DEFAULT_SEEDS[i] for i in order]
        self.runs = 0

    def size(self) -> dict:
        return {"width": 12, "height": 8, "sources": 2, "levels": 2, "masks": True,
                "step": 1e-5, "instance_order": self.seeds}

    def setup(self):
        self.instances = [self.vs.gradcheck.random_instance(s) for s in self.seeds]
        return self.instances

    def op(self):
        k = self.runs % len(self.seeds)
        self.runs += 1
        return self.check(self.seeds[k], *self.instances[k])

    def check(self, seed, state, cfg, inject_bug: bool = False):
        coords = state.depth_logits.size + state.poses.size + sum(
            m.size for m in (state.mask_logits or []))
        t0 = time.perf_counter()
        errs = self.vs.gradcheck.check_instance(state, cfg, inject_bug=inject_bug)
        t = time.perf_counter() - t0
        worst = max(errs.values())
        out = Outcome(quality={"grad_rel_err_max": worst}, key=f"instance {seed}",
                      digest=_digest(repr(sorted(errs.items())).encode()))
        if not worst <= GRAD_TOLERANCE:
            out.error = f"grad_rel_err_max {worst:.3e} > {GRAD_TOLERANCE:g}"
        return {"eval": t, "job": t}, 2 * coords, out


WORKLOADS = {w.name: w for w in (PlaneFit, Snippet5Masked, GradcheckFD)}
