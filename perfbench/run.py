#!/usr/bin/env python3
"""viewsynth benchmark: fit and FD-oracle throughput on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plane_fit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30    # the three, as a table
    python3 perfbench/run.py --self-test                    # negative controls

One run is one process with one closed-loop caller. It builds its inputs from
--seed, times operations for --seconds, checks every operation's outputs, and
prints as its last line one JSON object with keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, taken from
operations run with every layer wrapped, alternating with untraced ones.
A results file with provenance goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("plane_fit", "snippet5_masked", "gradcheck_fd")
SETUP_REPEATS = 5

# The report printed by --workload all: each workload's figures under the
# names a user of that workload reads, with units; "-" where it has none.
REPORT_UNITS = {
    "setup_s": "s", "fit_iters_per_s": "iter/s", "fd_evals_per_s": "evals/s",
    "pipeline_s": "s", "peak_rss_mb": "MB", "abs_rel": "ratio",
    "t_dir_err_deg": "deg", "vs_loss_ratio": "ratio", "ate": "scene_units",
    "grad_rel_err_max": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no package to benchmark)."""


def import_package():
    """Import viewsynth afresh from this checkout's src/ and return it.

    Modules imported earlier are dropped first, so repeated calls time the
    package's whole import each time.
    """
    if not (SRC / "viewsynth" / "__init__.py").is_file():
        raise BenchError(f"no viewsynth package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "viewsynth" or m.startswith("viewsynth.")]:
        del sys.modules[name]
    import viewsynth
    import viewsynth.cli
    import viewsynth.gradcheck
    if Path(viewsynth.__file__).resolve().parent != (SRC / "viewsynth").resolve():
        raise BenchError(f"imported viewsynth from {viewsynth.__file__}, not {SRC}")
    return viewsynth


def provenance() -> dict:
    import numpy as np

    files = sorted((SRC / "viewsynth").glob("*.py"))
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=30)
        sha = r.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies")
    except TypeError:   # NumPy < 1.26 only prints
        buf = io.StringIO()
        with redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    return {
        "git_sha": sha,
        "source_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


class Tally:
    """Operations attempted and failed, quality numbers and output digests."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.quality: dict = {}
        self.digests: dict = {}

    @property
    def failed(self) -> int:
        return len(self.errors)

    def record(self, out) -> None:
        self.attempted += 1
        if out.error is None and self.digests.setdefault(out.key, out.digest) != out.digest:
            out.error = f"output differs from the first run on the same input ({out.key})"
        if out.error is not None:
            self.errors.append(out.error)
            return
        for k, v in out.quality.items():
            # Worst value over the operations of the run.
            self.quality[k] = max(self.quality.get(k, v), v)


def guarded(op, tally: Tally):
    """Run one operation; an exception counts as a failed operation."""
    from workloads import Outcome
    t0 = time.perf_counter()
    try:
        times, evals, out = op()
    except Exception:
        traceback.print_exc()
        t = time.perf_counter() - t0
        times, evals = {"eval": t, "job": t}, 0
        out = Outcome(error="exception: " + traceback.format_exc(limit=1).strip())
    tally.record(out)
    return times, evals


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of one workload; returns (the result line, the results file)."""
    from timing import median_setup, timed_samples
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    cal = cls.calibration
    cal.run()   # warm-up
    # Set-up is the package import plus the workload's input and state
    # building, each the median of several repeats.
    import_s, vs = median_setup(cal, import_package, SETUP_REPEATS)

    run_id = f"{name}-s{seed}-t{int(trace)}-{uuid.uuid4().hex[:8]}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{run_id}"
    workdir.mkdir()
    tally = Tally()
    try:
        wl = cls(vs, seed, str(workdir))
        setup_s = import_s + median_setup(cal, wl.setup, SETUP_REPEATS)[0]

        if not trace:
            samples = timed_samples(cal, lambda: guarded(wl.op, tally), seconds)
            tracer = None
        else:
            tracer = Tracer(vs, run_id)
            traced_first = itertools.cycle((False, True))

            def pair():
                # An untraced and a traced operation; which goes first alternates.
                first = next(traced_first)
                t = {}
                for traced in (first, not first):
                    op = (lambda: tracer.run(wl.op)) if traced else wl.op
                    t["traced" if traced else "untraced"] = guarded(op, tally)
                (tu, eu), (tt, _) = t["untraced"], t["traced"]
                return {"eval": tu["eval"], "job": tu["job"] + tt["job"],
                        "untraced": tu["job"], "traced": tt["job"]}, eu

            samples = timed_samples(cal, pair, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = dict(tally.quality)
    if trace:
        # End-to-end figures come only from untraced runs.
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_frac"] = statistics.median(
            s.times["traced"] / s.times["untraced"] for s in samples) - 1.0
        for q in ("abs_rel", "t_dir_err_deg", "vs_loss_ratio", "ate", "grad_rel_err_max"):
            metrics[f"quality.{q}"] = tally.quality.get(q, 0.0)
    else:
        metrics = {
            "setup_s": setup_s,
            "loss_evals_per_s": statistics.median(s.eval_rate() for s in samples),
            "pipeline_s": statistics.median(s.job_s() for s in samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        rate = "fd_evals_per_s" if name == "gradcheck_fd" else "fit_iters_per_s"
        report.update(setup_s=metrics["setup_s"], peak_rss_mb=metrics["peak_rss_mb"])
        report[rate] = metrics["loss_evals_per_s"]
        if name == "snippet5_masked":
            report["pipeline_s"] = metrics["pipeline_s"]

    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    details = {
        "run_id": run_id, "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": wl.size(), "provenance": provenance(),
        "calibration": {"height": cal.height, "width": cal.width, "reps": cal.reps,
                        "ref_s": cal.ref_s},
        "report": report, "errors": tally.errors,
        "samples": [{"ops": s.ops, "evals": s.evals, "scale": s.scale, "times": s.times}
                    for s in samples],
        "result": result,
    }
    (OUT / f"{run_id}.json").write_text(json.dumps(details, indent=1, default=str))
    if tracer is not None:
        tracer.write_spans(OUT / f"{name}-spans.jsonl")
    return result, details


def with_units(result: dict, units: dict) -> dict:
    out = dict(result)
    out["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    return out


def benchmark_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def child(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload in its own process; returns its last two lines, parsed."""
    r = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2:
        sys.stderr.write(r.stderr)
        raise RuntimeError(f"{workload} exited with {r.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def run_all(seed: int, seconds: float) -> int:
    """Every workload in turn; prints the report figures as a table."""
    reports, ok = {}, True
    for w in WORKLOAD_NAMES:
        res, summary = child(w, seed, seconds, 0)
        ok = ok and res["correct"]
        reports[w] = summary["report"]
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
    print(f"\n{'metric':18s} {'unit':12s}" + "".join(f"{w:>18s}" for w in WORKLOAD_NAMES))
    for k, unit in REPORT_UNITS.items():
        cells = "".join(f"{reports[w][k]:18.6g}" if k in reports[w] else f"{'-':>18s}"
                        for w in WORKLOAD_NAMES)
        print(f"{k:18s} {unit:12s}{cells}")
    return 0 if ok else 1


def self_test() -> int:
    """Negative controls, then short runs of every workload and trace mode."""
    from workloads import GradcheckFD, PlaneFit, Snippet5Masked

    vs = import_package()
    checks = []
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"selftest-{uuid.uuid4().hex[:8]}"
    workdir.mkdir()
    try:
        # 1. An injected gradient bug is a failed operation.
        tally = Tally()
        gc = GradcheckFD(vs, 0, str(workdir))
        s0 = gc.seeds[0]
        guarded(lambda: gc.check(s0, *vs.gradcheck.random_instance(s0), inject_bug=True), tally)
        checks.append(("gradcheck inject_bug counted as failed", tally.failed == 1))

        # 2. A NaN frame fed to fit is a failed operation, through the API ...
        tally = Tally()
        pf = PlaneFit(vs, 0, str(workdir))
        pf.setup()
        pf.seq.frames[0][0, 0, 0] = float("nan")
        guarded(pf.op, tally)
        checks.append(("NaN frame into model.fit_snippet counted as failed", tally.failed == 1))

        # ... and through the CLI.
        tally = Tally()
        sm = Snippet5Masked(vs, 0, str(workdir))
        seq, fit = str(workdir / "nan_seq"), str(workdir / "nan_fit")
        vs.cli.main(["synth", "--out", seq, "--width", "32", "--height", "24"])
        frame = vs.fileio.load_wf01(os.path.join(seq, "frame_000.wf01"))
        frame[3, 4, 0] = float("nan")
        vs.fileio.save_wf01(os.path.join(seq, "frame_000.wf01"), frame)

        def nan_fit():
            times, out = sm.run_commands([("fit", sm.fit_args(seq, fit))])
            return times, 0, out

        guarded(nan_fit, tally)
        checks.append(("NaN frame into viewsynth fit counted as failed", tally.failed == 1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # 3. Every named metric is printed, with its unit, by short runs.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for w in WORKLOAD_NAMES:
            res, _ = child(w, 0, 1, trace)
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            checks.append((f"{w} --trace {trace}: correct, all {len(want)} {group} metrics "
                           f"with units", res["correct"] and got == want))
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in checks) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload or --self-test is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    # One BLAS/OpenMP thread, set before NumPy is imported by anything.
    for k in THREAD_VARS:
        os.environ[k] = "1"
    try:
        if args.self_test:
            return self_test()
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({k: details[k] for k in ("run_id", "report", "errors")}, default=str))
    print(json.dumps(with_units(result, benchmark_units())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
