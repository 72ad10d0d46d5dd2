"""The benchmark's workloads read the package's results by attribute (a
fit's state, a gradient-check instance's parameter arrays): one set-up and
one operation of each must run in-process and report a digest and its
quality numbers, or every operation of that workload fails."""

import importlib
import re
import sys
from pathlib import Path

import pytest

import viewsynth
# perfbench/run.py imports these two; the package's own import does not.
import viewsynth.cli
import viewsynth.gradcheck

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, imported as perfbench/run.py imports it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("workloads")
    for name in ("workloads", "timing"):
        sys.modules.pop(name, None)


# Each workload with the quality numbers its operation reports. PlaneFit's
# quality gate is not asserted: at 30 iterations it can fail on a fit that
# converges later (see ROADMAP item 10).
QUALITY_KEYS = {
    "PlaneFit": {"abs_rel", "t_dir_err_deg", "vs_loss_ratio"},
    "GradcheckFD": {"grad_rel_err_max"},
    "Snippet5Masked": {"abs_rel", "t_dir_err_deg", "ate"},
}


@pytest.mark.parametrize("name", QUALITY_KEYS)
def test_one_operation_reports_a_digest_and_its_quality(workloads, name, tmp_path):
    w = getattr(workloads, name)(viewsynth, 0, str(tmp_path))
    assert w.setup() is not None
    times, evals, out = w.op()
    assert re.fullmatch("[0-9a-f]{64}", out.digest), out.error
    assert set(out.quality) == QUALITY_KEYS[name]
    assert evals > 0 and times["job"] > 0
    if name != "PlaneFit":
        assert out.error is None
