"""Self-tests for the benchmark: smoke passes, the checker and the tracer.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()


def smoke(name, trace, tmp_path):
    wl = workloads.make(name, 3, tmp_path, smoke=True)
    return run.run_workload(wl, 0.0, trace, tmp_path / "trace.jsonl.gz", 0.1, 3)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(name, tmp_path):
    measured, ops, _ = smoke(name, 0, tmp_path)
    assert set(measured) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in measured.values())
    assert [r["failures"] for r in ops] == [[]] * len(ops)
    assert run.attempted_failed(ops)[1] == 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_traced_run_reports_every_per_layer_metric(name, tmp_path):
    before = bindings()
    measured, ops, _ = smoke(name, 1, tmp_path)
    after = bindings()
    assert all(after[k] is before[k] for k in before)
    assert set(measured) == {m["name"] for m in SPEC["per_layer"]}
    assert [r["failures"] for r in ops] == [[]] * len(ops)
    assert measured["oracles.solve.calls"][0] > 0
    assert (tmp_path / "trace.jsonl.gz").stat().st_size > 0


def test_corrupted_decision_and_regret_are_failures(tmp_path):
    wl = workloads.make("grid-train", 3, tmp_path, smoke=True)
    wl.setup()
    arm = wl.run_op("spo+/emp")
    first = {}
    assert run.checked(wl, "spo+/emp", arm, None, 1.0, first)["failures"] == []

    st = arm.targets.per_sample[0]
    saved = st.decisions[0].copy()
    D = checks.feasible_set(wl.inst)
    st.decisions[0] = D[np.argmax(D @ st.costs[0])]
    rec = run.checked(wl, "spo+/emp", arm, None, 1.0, first)
    assert any("not optimal" in f for f in rec["failures"])
    assert run.attempted_failed([rec]) == (1, 1)

    st.decisions[0] = saved
    regrets = arm.report.per_sample.copy()
    regrets[0] += 1.0
    arm.report = dataclasses.replace(arm.report, per_sample=regrets)
    rec = run.checked(wl, "spo+/emp", arm, None, 1.0, first)
    assert any("regret" in f for f in rec["failures"])
    assert run.attempted_failed([rec])[1] == 1


def test_checkers_reject_wrong_answers():
    D = checks.grid_paths(3, 3)
    cost = np.linspace(1.0, 2.0, D.shape[1])
    assert checks.check_optimal(D, cost[None, :], np.ones((1, D.shape[1])), "x")
    assert checks.check_top_k(D, cost, D[np.argsort(D @ cost)][:3], 3, "x") == []
    assert checks.check_top_k(D, cost, D[np.argsort(D @ cost)][1:4], 3, "x")
    wcc = checks.worst_case_costs(D, cost, 0.5, 1.0)
    assert checks.check_robust(D, cost, D[np.argmin(wcc)], 0.5, 1.0, "x") == []
    assert checks.check_robust(D, cost, D[np.argmax(wcc)], 0.5, 1.0, "x")


def bindings():
    out = {(name, attr): value for name, mod in tracer.MODULES.items()
           for attr, value in vars(mod).items() if callable(value)}
    out.update({("RngStream", a): tracer.core.RngStream.__dict__[a]
                for a in ("permutation", "normal")})
    return out


def test_tracer_wraps_and_restores_bindings():
    before = bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.learning.solve is not before[("learning", "solve")]
        assert tracer.learning.solve.__wrapped__ is before[("learning", "solve")]
    finally:
        tr.remove()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
