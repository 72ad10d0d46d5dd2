"""Host-speed calibration and the closed-loop timing loop.

The 2-vCPU VM this benchmark was defined on changes speed by up to 2x within
a minute (process time equals wall time, so the process is slowed, not
descheduled). Medians of raw wall times over a 20 s run spread by 20-30%
between runs. Each timed sample is therefore bracketed by a fixed NumPy
calibration loop, and every time is rescaled to the host speed at which that
loop takes ``ref_s`` seconds:

    normalized = raw * ref_s / mean(calibration before, calibration after)

The loop's array size is chosen per workload. Against the same operations, a
48x64 loop tracked the 64x48 fit and the 8x12 FD oracle best, and a 256x832
loop the 416x128 snippet; an 8x12 loop, a pure-Python loop and a streaming
kernel tracked them worse.

The calibration loop is benchmark code, not package code, so a change to the
package moves the normalized times while a change of host speed cancels out.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# A sample covers at least this much operation time, so very fast operations
# are grouped between two calibrations instead of each paying for one.
MIN_SAMPLE_S = 0.1


@dataclass(frozen=True)
class Calibration:
    """A warp-like NumPy loop on (height, width) arrays, run ``reps`` times."""

    height: int
    width: int
    reps: int
    ref_s: float    # the loop's duration at the reference host speed

    def run(self) -> float:
        h, w = self.height, self.width
        rng = np.random.default_rng(0)
        img = rng.random((h, w, 1))
        depth = rng.uniform(1.0, 3.0, (h, w))
        acc = 0.0
        t0 = time.perf_counter()
        for k in range(self.reps):
            jj, ii = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
            pts = np.stack([depth * (jj - w / 2) / w, depth * (ii - h / 2) / w, depth], axis=-1)
            pts = pts @ (np.eye(3) + 1e-3 * k).T + 0.01
            u = w * pts[..., 0] / pts[..., 2] + w / 2 + 0.3
            v = w * pts[..., 1] / pts[..., 2] + h / 2 + 0.2
            x0 = np.clip(np.floor(u).astype(int), 0, w - 2)
            y0 = np.clip(np.floor(v).astype(int), 0, h - 2)
            a, b = img[y0, x0], img[y0 + 1, x0 + 1]
            val = np.where((u >= 0)[..., None], a + (u - x0)[..., None] * (b - a), 0.0)
            acc += float(np.abs(val - img).mean()) + float(np.sign(val - 0.5).sum())
        elapsed = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise RuntimeError("calibration loop produced a non-finite value")
        return elapsed


@dataclass
class Sample:
    """Sums over the operations timed between two calibrations."""

    ops: int = 0
    times: dict = field(default_factory=dict)    # name -> summed raw seconds
    evals: int = 0                                # objective evaluations in "eval"
    scale: float = 1.0                            # ref_s / calibration seconds

    def add(self, times: dict, evals: int) -> None:
        self.ops += 1
        self.evals += evals
        for k, v in times.items():
            self.times[k] = self.times.get(k, 0.0) + v

    def job_s(self) -> float:
        """Normalized seconds per whole operation."""
        return self.times["job"] * self.scale / self.ops

    def eval_rate(self) -> float:
        """Normalized objective evaluations per second."""
        return self.evals / (self.times["eval"] * self.scale)


def median_setup(cal: Calibration, setup, repeats: int) -> tuple[float, object]:
    """Run ``setup()`` several times; median normalized seconds and last result."""
    times = []
    result = None
    before = cal.run()
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = setup()
        raw = time.perf_counter() - t0
        after = cal.run()
        times.append(raw * cal.ref_s / ((before + after) / 2))
        before = after
    return statistics.median(times), result


def timed_samples(cal: Calibration, op, seconds: float) -> list[Sample]:
    """Closed loop: call ``op()`` until ``seconds`` have passed.

    ``op()`` returns (times, evals): raw seconds per timed part (including
    "eval", the part that evaluates the objective, and "job", the whole
    operation) and the objective evaluations done in "eval". The next call
    starts only after the previous one returns; at least one call is made.
    """
    deadline = time.perf_counter() + seconds
    samples = []
    before = cal.run()
    while True:
        s = Sample()
        while True:
            times, evals = op()
            s.add(times, evals)
            if s.times["job"] >= MIN_SAMPLE_S or time.perf_counter() >= deadline:
                break
        after = cal.run()
        s.scale = cal.ref_s / ((before + after) / 2)
        samples.append(s)
        before = after
        if time.perf_counter() >= deadline:
            return samples
