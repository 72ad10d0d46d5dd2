"""Committed digests of outputs that must stay the same bit for bit.

tests/digests.json holds digests of:
- the finite-difference oracle's outputs over gradcheck.DEFAULT_SEEDS: the
  float.hex of every check_instance error and the sha256 of every
  central-difference array;
- the files that three CLI runs write (a synth, its fit, for the 24x16 run
  the warp of its sources through the ground truth, and for the 416x128 run
  the eval-depth and eval-odom reports), by sha256 of each file's bytes;
- a 60-iteration fit through the API and the two criterion-4 fits, by the
  float.hex of their loss (and mean-mask) histories;
- warps through the API of a sequence rendered along a turning path (the
  CLI's sequences do not rotate, so their warps multiply by an exact
  identity), by sha256 of each map.

The table's "encoding" entry says how each digest is formed. A change that
alters these outputs on purpose rewrites the table with

    PYTHONPATH=src python tests/test_digests.py

and says so in CHANGES.md, recording there what

    PYTHONPATH=src python tests/test_digests.py --compare

prints (before the table is rewritten). That command writes nothing: it
prints, for every float.hex entry, the largest relative difference between
the table and the current code (for a history, also the first iteration
that differs), and lists the sha256 entries that changed. It also re-runs
each history's fit with its learning rate moved by -2, -1, +1 and +2 ulp:
next to a history's drift from the table it prints the largest drift of
those fits from the current history, the fit's own rounding sensitivity,
and the ratio of the two. A ratio near or below 1 is
a drift that rounding alone can make. One shifted fit is a single sample
of a chaotic fit; the largest drift of four is a steadier yardstick.

The last bits of these outputs depend on the machine, the NumPy build and
two kernels picked from the CPU at run time: the SIMD target of the float64
exp and log loops, and OpenBLAS's core. The table records all four as its
platform key; under any other key the tests skip and name the parts that
differ.
"""

import argparse
import ctypes
import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from viewsynth import cli, gradcheck, model, sampler, synth
from viewsynth.geometry import Intrinsics
from viewsynth.losses import LossConfig
from viewsynth.model import AdamConfig

TABLE_PATH = Path(__file__).with_name("digests.json")
TABLE = json.loads(TABLE_PATH.read_text())

ENCODING = {
    "gradcheck.errors": "float.hex of each check_instance error",
    "gradcheck.central_differences": "sha256 of the C-order float64 bytes (tobytes) of each "
                                     "central-difference array, step 1e-5",
    "cli": "sha256 of the bytes of each file the commands write, by directory and file name",
    "api_fit": "sha256 of the C-order float64 bytes of the final depth logits and poses; "
               "float.hex of each iteration's total",
    "api_warp": "sha256 of the C-order float64 bytes of each frame and depth map, and of "
                "each warp's warped, valid, d_du and d_dv that it returns",
    "criterion4": "float.hex of each iteration's total and mean_mask; both of criterion 4's "
                  "fits are cut to 300 iterations (1500 and 600 there)",
}

# argv lists of each CLI run, with {seq}, {fit} and {warp} standing for its
# directories; a run's digests cover the directories its commands name.
CLI_RUNS = {
    "criterion7": [
        ["synth", "--out", "{seq}", "--seed", "9", "--width", "24", "--height", "16",
         "--focal", "20", "--frames", "3"],
        ["fit", "--in", "{seq}", "--out", "{fit}", "--levels", "2", "--lr", "0.01",
         "--max-iters", "50"],
        ["warp", "--in", "{seq}", "--out", "{warp}"],
    ],
    "masked_64x48_levels4": [
        ["synth", "--out", "{seq}", "--scene", "slanted", "--frames", "5", "--seed", "4",
         "--width", "64", "--height", "48"],
        ["fit", "--in", "{seq}", "--out", "{fit}", "--levels", "4", "--max-iters", "200"],
    ],
    "masked_416x128": [
        ["synth", "--out", "{seq}", "--scene", "slanted", "--frames", "5", "--seed", "1",
         "--width", "416", "--height", "128", "--focal", "240", "--step-x", "0.05"],
        ["fit", "--in", "{seq}", "--out", "{fit}", "--levels", "4", "--lr", "0.01",
         "--max-iters", "12"],
        ["eval-depth", "--in", "{fit}/depth.wf01", "--gt", "{seq}/depth_002.wf01",
         "--out", "{fit}/eval_depth.txt"],
        ["eval-odom", "--in", "{fit}/trajectory.txt", "--gt", "{seq}/gt_trajectory.txt",
         "--snippet-len", "5", "--out", "{fit}/eval_odom.txt"],
    ],
}


def _require_table_platform():
    made, here = TABLE["platform"], _platform()
    differ = [f"{key} {made.get(key)} (here {here[key]})" for key in here
              if made.get(key) != here[key]]
    if differ:
        pytest.skip(f"digests were made with another {', '.join(differ)}")


def _platform() -> dict:
    return {"machine": platform.machine(), "numpy": np.__version__,
            "exp_log_target": _exp_log_target(), "openblas_core": _openblas_core()}


def _exp_log_target() -> str:
    """The SIMD target NumPy dispatches the float64 exp and log loops to."""
    from numpy.lib.introspect import opt_func_info
    info = opt_func_info(func_name="^(exp|log)$", signature="float64")
    return "/".join(sorted({info[f]["dd"]["current"] for f in ("exp", "log")}))


def _openblas_core() -> str:
    """The core NumPy's bundled OpenBLAS chose for this CPU, or "unknown"
    where the library or its scipy_openblas_get_corename64_ is not found."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _sha256(a) -> str:
    if isinstance(a, bytes):
        return hashlib.sha256(a).hexdigest()
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def fd_oracle_digests(seed: int) -> dict:
    """check_instance's errors and the central differences it computes, by name."""
    state, cfg = gradcheck.random_instance(seed)
    fds = {}
    central_differences = gradcheck.central_differences

    def recording(snippet, params, config, arrays, *args):
        out = central_differences(snippet, params, config, arrays, *args)
        names = {id(p): name for name, p in params.items()}
        fds.update((names[id(p)], _sha256(fd)) for p, fd in zip(arrays, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradcheck, "central_differences", recording)
        errors = gradcheck.check_instance(state, cfg)
    return {"errors": {name: err.hex() for name, err in errors.items()},
            "central_differences": fds}


def cli_digests(name: str, workdir: Path) -> dict:
    dirs = {d: workdir / d for d in ("seq", "fit", "warp")}
    for argv in CLI_RUNS[name]:
        assert cli.main([a.format(**dirs) for a in argv]) == 0, argv
    return {d: {f.name: _sha256(f.read_bytes()) for f in sorted(path.iterdir())}
            for d, path in dirs.items() if path.exists()}


# The learning-rate moves, in ulps, of the fits that measure a history's
# own rounding sensitivity.
ULP_SHIFTS = (-2, -1, 1, 2)


def _lr(lr: float, ulps: int) -> float:
    """lr moved by `ulps` units in the last place."""
    for _ in range(abs(ulps)):
        lr = float(np.nextafter(lr, np.copysign(np.inf, ulps)))
    return lr


def api_fit_digests(ulps: int = 0) -> dict:
    """A 60-iteration 64x48 plane fit through fit_snippet (L=3, no masks),
    with its learning rate moved by `ulps` ulps."""
    K = Intrinsics(fx=64.0, fy=64.0, cx=32.0, cy=24.0, width=64, height=48)
    spec = synth.SceneSpec(kind="plane", texture_seed=5, depth=2.0,
                           trajectory=synth.linear_trajectory(3, (0.1, 0.0, 0.0)),
                           intrinsics=K)
    seq = synth.render_scene(spec)
    res = model.fit_snippet(seq.frames, seq.target_index, K,
                            LossConfig(num_levels=3, use_explainability=False),
                            AdamConfig(lr=_lr(0.01, ulps), max_iters=60, tol=0.0))
    return {"depth_logits": _sha256(res.state.depth_logits), "poses": _sha256(res.state.poses),
            "total": [r.total.hex() for r in res.history]}


def api_warp_digests() -> dict:
    """Warps through a rotation: a 64x48 slanted sequence rendered along a
    turning path, and each source warped onto the target through Intrinsics
    at the ground-truth depth, with and without gradients, through a stack
    of two transforms, and forward-only through a depth stack whose
    elements differ from element 0 at some pixels."""
    K = Intrinsics(fx=60.0, fy=60.0, cx=32.0, cy=24.0, width=64, height=48)
    trajectory = synth.linear_trajectory(3, (0.1, 0.0, 0.02))
    trajectory[:, :3] = np.outer([-1.0, 0.0, 1.0], (0.01, -0.02, 0.015))
    seq = synth.render_scene(synth.SceneSpec(kind="slanted", texture_seed=3, depth=2.0,
                                             trajectory=trajectory, intrinsics=K))
    depth = seq.gt_depths[seq.target_index]
    stack = np.repeat(depth[None], 3, axis=0)
    stack[1, 5, 7] += 1e-3
    stack[2, :, 10] *= 1.01
    Ts = [synth.relative_pose(seq, i) for i in (0, 2)]
    warps = {"frames": seq.frames, "depths": seq.gt_depths}
    for i, T in zip((0, 2), Ts):
        for name, w in (("grads", sampler.inverse_warp(seq.frames[i], depth, T, K)),
                        ("forward", sampler.inverse_warp(seq.frames[i], depth, T, K, False)),
                        ("depth_stack", sampler.inverse_warp(seq.frames[i], stack, T, K, False))):
            warps[f"source{i}_{name}"] = [w.warped, w.valid, w.d_du, w.d_dv]
    w = sampler.inverse_warp(seq.frames[0], depth, np.stack(Ts), K)
    warps["transform_stack"] = [w.warped, w.valid, w.d_du, w.d_dv]
    return {name: [_sha256(a) for a in arrays if a is not None]
            for name, arrays in warps.items()}


def criterion4_digests(ulps: int = 0) -> dict:
    """Criterion 4's two fits, without and with the mask regularizer, with
    their learning rates moved by `ulps` ulps."""
    K = Intrinsics(fx=16.0, fy=16.0, cx=16.0, cy=12.0, width=32, height=24)
    spec = synth.SceneSpec(kind="plane", texture_seed=5, depth=2.0,
                           trajectory=synth.linear_trajectory(3, (0.15, 0.0, 0.0)),
                           intrinsics=K)
    seq = synth.render_scene(spec)
    out = {}
    for name, lambda_e, lr in (("unregularized", 0.0, 0.02), ("regularized", 0.2, 0.01)):
        cfg = LossConfig(lambda_e=lambda_e, num_levels=2, use_explainability=True)
        res = model.fit_snippet(seq.frames, seq.target_index, K, cfg,
                                AdamConfig(lr=_lr(lr, ulps), max_iters=300, tol=0.0))
        out[name] = {"total": [r.total.hex() for r in res.history],
                     "mean_mask": [r.mean_mask.hex() for r in res.history]}
    return out


@pytest.mark.parametrize("seed", gradcheck.DEFAULT_SEEDS)
def test_fd_oracle_outputs_match_digests(seed):
    _require_table_platform()
    assert fd_oracle_digests(seed) == TABLE["gradcheck"][str(seed)]


@pytest.mark.parametrize("name", CLI_RUNS)
def test_cli_outputs_match_digests(name, tmp_path):
    _require_table_platform()
    assert cli_digests(name, tmp_path) == TABLE["cli"][name]


def test_api_fit_matches_digests():
    _require_table_platform()
    assert api_fit_digests() == TABLE["api_fit"]


def test_api_warps_match_digests():
    _require_table_platform()
    assert api_warp_digests() == TABLE["api_warp"]


def test_criterion4_histories_match_digests():
    _require_table_platform()
    assert criterion4_digests() == TABLE["criterion4"]


def test_compare_lines_report_each_entry_of_the_table():
    def table(error, sha, total):
        return {"platform": _platform(), "encoding": ENCODING,
                "gradcheck": {"0": {"errors": {"poses": error.hex()},
                                    "central_differences": {"poses": sha * 64}}},
                "api_fit": {"total": [x.hex() for x in total]}}

    old = table(0.5, "a", [1.0, 2.0, 4.0])
    assert compare_lines(old, old) == [
        "api_fit.total: max rel diff 0, identical",
        "gradcheck.0.errors.poses: rel diff 0 (0.5 -> 0.5)",
    ]
    assert compare_lines(old, table(0.25, "b", [1.0, 2.0, 5.0, 6.0])) == [
        "api_fit.total: max rel diff 0.2, first differs at iteration 2, length 3 -> 4",
        "gradcheck.0.central_differences.poses: sha256 changed",
        "gradcheck.0.errors.poses: rel diff 0.5 (0.5 -> 0.25)",
    ]
    warps = {"api_warp": {"frames": ["a" * 64, "b" * 64]}}
    assert compare_lines(warps, warps) == []
    assert compare_lines(warps, {"api_warp": {"frames": ["a" * 64, "c" * 64, "d" * 64]}}) == [
        "api_warp.frames: sha256 changed at [1, 2]"]


def test_compare_lines_set_each_history_beside_its_one_ulp_drift():
    def histories(total, mean_mask):
        return {"api_fit": {"depth_logits": "a" * 64, "total": [x.hex() for x in total]},
                "criterion4": {"regularized": {"mean_mask": [x.hex() for x in mean_mask]}}}

    old = {"platform": _platform(), "encoding": ENCODING,
           "gradcheck": {"0": {"errors": {"poses": (0.5).hex()}}},
           **histories([1.0, 2.0, 4.0], [0.5, 0.5])}
    new = {**old, **histories([1.0, 2.0, 5.0], [0.5, 0.5])}
    one_ulp = histories([1.0, 2.0, 4.75], [0.5, 0.25])
    assert compare_lines(old, new, [one_ulp]) == [
        "api_fit.total: max rel diff 0.2, first differs at iteration 2; "
        "ulp-shifted lr drift 0.05, ratio 4",
        "criterion4.regularized.mean_mask: max rel diff 0, identical; "
        "ulp-shifted lr drift 0.5, ratio 0",
        "gradcheck.0.errors.poses: rel diff 0 (0.5 -> 0.5)",
    ]
    assert compare_lines(old, new, [histories([1.0, 2.0, 5.0], [0.5, 0.5])])[:2] == [
        "api_fit.total: max rel diff 0.2, first differs at iteration 2; "
        "ulp-shifted lr drift 0, ratio inf",
        "criterion4.regularized.mean_mask: max rel diff 0, identical; "
        "ulp-shifted lr drift 0, ratio 0",
    ]


def test_compare_lines_set_each_history_beside_the_largest_of_its_shifted_drifts():
    old = {"platform": _platform(), "encoding": ENCODING,
           "api_fit": {"total": [x.hex() for x in (1.0, 2.0, 4.0)]}}
    new = {**old, "api_fit": {"total": [x.hex() for x in (1.0, 2.0, 5.0)]}}
    shifted = [{"api_fit": {"total": [x.hex() for x in total]}}
               for total in ([1.0, 2.0, 4.75], [1.0, 2.5, 5.0], [1.0, 2.0, 5.0])]
    line = ("api_fit.total: max rel diff 0.2, first differs at iteration 2; "
            "ulp-shifted lr drift {}")
    assert compare_lines(old, new, shifted) == [line.format("0.2, ratio 1")]
    assert compare_lines(old, new, shifted[::-1]) == [line.format("0.2, ratio 1")]
    assert compare_lines(old, new, shifted[:1]) == [line.format("0.05, ratio 4")]
    assert compare_lines(old, new, [{"criterion4": {}}]) == [
        "api_fit.total: max rel diff 0.2, first differs at iteration 2"]


def current_table() -> dict:
    """The table that write_table commits, for the current code."""
    table = {"platform": _platform(), "encoding": ENCODING,
             "gradcheck": {str(s): fd_oracle_digests(s) for s in gradcheck.DEFAULT_SEEDS}}
    with tempfile.TemporaryDirectory() as tmp:
        table["cli"] = {name: cli_digests(name, Path(tmp, name)) for name in CLI_RUNS}
    table["api_fit"] = api_fit_digests()
    table["api_warp"] = api_warp_digests()
    table["criterion4"] = criterion4_digests()
    return table


def shifted_histories() -> list:
    """The history entries of current_table, once for each of ULP_SHIFTS,
    with every fit's learning rate moved by that many ulps."""
    return [{"api_fit": api_fit_digests(u), "criterion4": criterion4_digests(u)}
            for u in ULP_SHIFTS]


def write_table() -> None:
    TABLE_PATH.write_text(json.dumps(current_table(), indent=1) + "\n")


def _relative_difference(old: str, new: str) -> float:
    a, b = float.fromhex(old), float.fromhex(new)
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def _is_sha256(x) -> bool:
    return isinstance(x, str) and len(x) == 64 and not x.startswith(("0x", "-0x"))


def _max_relative_difference(a: list, b: list) -> float:
    return max((_relative_difference(x, y) for x, y in zip(a, b)), default=0.0)


def compare_lines(old: dict, new: dict, shifted: list = ()) -> list:
    """How the digest table `new` differs from `old`, one line per entry:
    a float.hex value or history by its largest relative difference (and a
    history by its first differing iteration, 0-based), a changed sha256 by
    its path, and a list of them by the indices that changed. A history
    that tables of `shifted` (see shifted_histories) also hold gets the
    largest relative difference of theirs from new's, and the ratio of
    new's drift from old to it (0 when new's drift is 0, inf when only the
    reference's is)."""
    lines = []

    def walk(path, a, b, refs):
        if isinstance(a, dict) or isinstance(b, dict):
            a, b = a or {}, b or {}
            for key in sorted(set(a) | set(b), key=str):
                walk(path + [key], a.get(key), b.get(key),
                     [r[key] for r in refs if key in r])
            return
        name = ".".join(path)
        if a is None or b is None:
            lines.append(f"{name}: {'added' if a is None else 'removed'}")
        elif isinstance(a, list) and all(map(_is_sha256, a + b)):   # api_warp's maps
            changed = [i for i in range(max(len(a), len(b))) if a[i:i + 1] != b[i:i + 1]]
            if changed:
                lines.append(f"{name}: sha256 changed at {changed}")
        elif isinstance(a, list):
            n = min(len(a), len(b))
            first = next((i for i in range(n) if a[i] != b[i]), None)
            worst = _max_relative_difference(a, b)
            lengths = "" if len(a) == len(b) else f", length {len(a)} -> {len(b)}"
            where = "identical" if first is None else f"first differs at iteration {first}"
            lines.append(f"{name}: max rel diff {worst:.3g}, {where}{lengths}")
            if refs:
                ref = max(_max_relative_difference(b, r) for r in refs)
                ratio = (worst / ref if ref else float("inf")) if worst else 0.0
                lines[-1] += f"; ulp-shifted lr drift {ref:.3g}, ratio {ratio:.3g}"
        elif _is_sha256(a):
            if a != b:
                lines.append(f"{name}: sha256 changed")
        else:
            lines.append(f"{name}: rel diff {_relative_difference(a, b):.3g}"
                         f" ({float.fromhex(a):.6g} -> {float.fromhex(b):.6g})")

    walk([], {k: v for k, v in old.items() if k not in ("platform", "encoding")},
         {k: v for k, v in new.items() if k not in ("platform", "encoding")}, list(shifted))
    return lines


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Rewrite tests/digests.json for the current code.")
    ap.add_argument("--compare", action="store_true",
                    help="print how the current code's digests differ from the table; "
                         "write nothing")
    if ap.parse_args().compare:
        print("\n".join(compare_lines(TABLE, current_table(), shifted_histories())))
    else:
        write_table()
