"""Committed digests of outputs that must stay the same bit for bit.

tests/digests.json holds digests of:
- the finite-difference oracle's outputs over gradcheck.DEFAULT_SEEDS: the
  float.hex of every check_instance error and the sha256 of every
  central-difference array;
- the files that three CLI runs write (a synth, its fit, and for the 416x128
  run the eval-depth and eval-odom reports), by sha256 of each file's bytes;
- a 60-iteration fit through the API and the two criterion-4 fits, by the
  float.hex of their loss (and mean-mask) histories.

The table's "encoding" entry says how each digest is formed. A change that
alters these outputs on purpose rewrites the table with

    PYTHONPATH=src python tests/test_digests.py

and says so in CHANGES.md.

The last bits of these outputs depend on the machine and the NumPy build
(SIMD math, BLAS kernels), so the table records the platform it was made
on. On any other platform the tests skip and say why.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from viewsynth import cli, gradcheck, model, synth
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
    "criterion4": "float.hex of each iteration's total and mean_mask; both of criterion 4's "
                  "fits are cut to 300 iterations (1500 and 600 there)",
}

# argv lists of each CLI run, with {seq} and {fit} standing for its directories.
CLI_RUNS = {
    "criterion7": [
        ["synth", "--out", "{seq}", "--seed", "9", "--width", "24", "--height", "16",
         "--focal", "20", "--frames", "3"],
        ["fit", "--in", "{seq}", "--out", "{fit}", "--levels", "2", "--lr", "0.01",
         "--max-iters", "50"],
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
    made = TABLE["platform"]
    here = _platform()
    if here != made:
        pytest.skip(f"digests were made on {made['machine']} with NumPy {made['numpy']}; "
                    f"this is {here['machine']} with NumPy {here['numpy']}")


def _platform() -> dict:
    return {"machine": platform.machine(), "numpy": np.__version__}


def _sha256(a) -> str:
    if isinstance(a, bytes):
        return hashlib.sha256(a).hexdigest()
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def fd_oracle_digests(seed: int) -> dict:
    """check_instance's errors and the central differences it computes, by name."""
    state, cfg = gradcheck.random_instance(seed)
    fds = {}
    central_differences = gradcheck.central_differences

    def recording(state, config, params, *args):
        out = central_differences(state, config, params, *args)
        names = {id(p): name for name, p in model._param_items(state)}
        fds.update((names[id(p)], _sha256(fd)) for p, fd in zip(params, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradcheck, "central_differences", recording)
        errors = gradcheck.check_instance(state, cfg)
    return {"errors": {name: err.hex() for name, err in errors.items()},
            "central_differences": fds}


def cli_digests(name: str, workdir: Path) -> dict:
    dirs = {"seq": workdir / "seq", "fit": workdir / "fit"}
    for argv in CLI_RUNS[name]:
        assert cli.main([a.format(**dirs) for a in argv]) == 0, argv
    return {d: {f.name: _sha256(f.read_bytes()) for f in sorted(path.iterdir())}
            for d, path in dirs.items()}


def api_fit_digests() -> dict:
    """A 60-iteration 64x48 plane fit through fit_snippet (L=3, no masks)."""
    K = Intrinsics(fx=64.0, fy=64.0, cx=32.0, cy=24.0, width=64, height=48)
    spec = synth.SceneSpec(kind="plane", texture_seed=5, depth=2.0,
                           trajectory=synth.linear_trajectory(3, (0.1, 0.0, 0.0)),
                           intrinsics=K)
    seq = synth.render_scene(spec)
    res = model.fit_snippet(seq.frames, seq.target_index, K,
                            LossConfig(num_levels=3, use_explainability=False),
                            AdamConfig(lr=0.01, max_iters=60, tol=0.0))
    return {"depth_logits": _sha256(res.state.depth_logits), "poses": _sha256(res.state.poses),
            "total": [r.total.hex() for r in res.history]}


def criterion4_digests() -> dict:
    """Criterion 4's two fits, without and with the mask regularizer."""
    K = Intrinsics(fx=16.0, fy=16.0, cx=16.0, cy=12.0, width=32, height=24)
    spec = synth.SceneSpec(kind="plane", texture_seed=5, depth=2.0,
                           trajectory=synth.linear_trajectory(3, (0.15, 0.0, 0.0)),
                           intrinsics=K)
    seq = synth.render_scene(spec)
    out = {}
    for name, lambda_e, lr in (("unregularized", 0.0, 0.02), ("regularized", 0.2, 0.01)):
        cfg = LossConfig(lambda_e=lambda_e, num_levels=2, use_explainability=True)
        res = model.fit_snippet(seq.frames, seq.target_index, K, cfg,
                                AdamConfig(lr=lr, max_iters=300, tol=0.0))
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


def test_criterion4_histories_match_digests():
    _require_table_platform()
    assert criterion4_digests() == TABLE["criterion4"]


def write_table() -> None:
    table = {"platform": _platform(), "encoding": ENCODING,
             "gradcheck": {str(s): fd_oracle_digests(s) for s in gradcheck.DEFAULT_SEEDS}}
    with tempfile.TemporaryDirectory() as tmp:
        table["cli"] = {name: cli_digests(name, Path(tmp, name)) for name in CLI_RUNS}
    table["api_fit"] = api_fit_digests()
    table["criterion4"] = criterion4_digests()
    TABLE_PATH.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    write_table()
