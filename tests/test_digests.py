"""Committed digests of outputs that must stay the same bit for bit.

tests/digests.json holds digests of the finite-difference oracle's outputs
over gradcheck.DEFAULT_SEEDS: the float.hex of every check_instance error
and the sha256 of every central-difference array. A change that alters
these outputs on purpose rewrites the table and says so in CHANGES.md.

The last bits of these outputs depend on the machine and the NumPy build
(SIMD math, BLAS kernels), so the table records the platform it was made
on. On any other platform the tests skip and say why.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from viewsynth import gradcheck, model

TABLE = json.loads(Path(__file__).with_name("digests.json").read_text())


def _require_table_platform():
    made = TABLE["platform"]
    here = {"machine": platform.machine(), "numpy": np.__version__}
    if here != made:
        pytest.skip(f"digests were made on {made['machine']} with NumPy {made['numpy']}; "
                    f"this is {here['machine']} with NumPy {here['numpy']}")


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("seed", gradcheck.DEFAULT_SEEDS)
def test_fd_oracle_outputs_match_digests(seed, monkeypatch):
    _require_table_platform()
    want = TABLE["gradcheck"][str(seed)]
    state, cfg = gradcheck.random_instance(seed)

    # Record the central differences check_instance computes, by name.
    fds = {}
    central_differences = gradcheck.central_differences

    def recording(state, config, params, *args):
        out = central_differences(state, config, params, *args)
        names = {id(p): name for name, p in model._param_items(state)}
        fds.update((names[id(p)], _sha256(fd)) for p, fd in zip(params, out))
        return out

    monkeypatch.setattr(gradcheck, "central_differences", recording)
    errors = gradcheck.check_instance(state, cfg)
    assert {name: err.hex() for name, err in errors.items()} == want["errors"]
    assert fds == want["central_differences"]
