"""Smoke test of the benchmark itself: every workload, once, on a tiny
input, untraced and traced.  Run from the repository root with

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json

import pytest

import run

run._import_library()
import workloads  # noqa: E402

TINY = workloads.Sizes(n_train=20, n_heldout=30, n_test_rows=30,
                       n_batch=200, queries_per_round=12)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    result, _, problems = run.measure(workload, seed=3, seconds=0.05,
                                      trace=trace, sizes=TINY)
    assert problems == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
