"""Self-tests of the benchmark (not of the library).

    python3 -m pytest -q perfbench/test_perfbench.py

* Counter determinism: a tiny instance of each workload, traced twice under
  each of two seeds, repeats every count metric exactly.
* Oracle bite: each workload's checker fails a corrupted result (a wrong H
  dimension, a flipped coefficient, a lift that is not Maurer-Cartan), both
  when it is the first result of its op (the oracle judges it) and after a
  good one (identity with the first result), so `failed` and the reported
  `ok_frac` move.
* The metrics a run prints are exactly those BENCHMARK.json names.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from mcdeform import maurer_cartan as mc  # noqa: E402
from mcdeform.graded import GradedElement  # noqa: E402

COUNT_SUFFIXES = (".calls", ".cells", ".nnz", ".max_bits", ".brackets_per_call",
                  ".gauge_per_call", ".hit_frac", ".zero_frac", ".bytes_in", ".bytes_out")


def traced_counts(name: str, seed: int) -> dict:
    wl = workloads.make(name, run.ROOT)
    try:
        result = run.run_traced(wl, seed, scale="tiny")
    finally:
        wl.close()
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly_for_a_fixed_seed(name):
    for seed in (3, 4):
        first = traced_counts(name, seed)
        assert first == traced_counts(name, seed)
        assert sum(1 for v in first.values() if v) >= 5


def flip(x: GradedElement) -> GradedElement:
    key = min(x.coords)
    return GradedElement(x.space, {**x.coords, key: -x.coords[key]}, x.degree)


def corrupted(name: str, op_id: str, result):
    """One wrong answer of the kind each workload's oracle must catch."""
    if name == "api_cohomology":
        return dataclasses.replace(result, dims={**result.dims, 0: result.dims[0] + 1})
    if name == "api_series":
        if op_id.startswith("obstruction_lift"):
            cls, lift = result
            return cls, mc.McElement(lift.tensor, flip(lift.element), True)
        return flip(result)
    code, out = result
    report = json.loads(out)
    if op_id.startswith("cohomology"):
        report["result"]["dims"]["0"] += 1
    else:
        coords = report["result"]["result"]
        lab = min(coords)
        coords[lab] = coords[lab][1:] if coords[lab].startswith("-") else "-" + coords[lab]
    return code, json.dumps(report).encode()


BITES = {
    "api_cohomology": ("coh:End(V1):sparse",),
    "api_series": ("obstruction_lift:end1:n=3", "gauge:end1:n=3", "bch:nilp3:n=3"),
    "cli_cold": ("cohomology End(V1)", "bch nilp3"),
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_oracles_fail_corrupted_results(name):
    wl = workloads.make(name, run.ROOT)
    try:
        ops = {op.id: op for op in wl.setup(5, scale="tiny")}
        for op_id in BITES[name]:
            op = ops[op_id]
            good = op.run()
            bad = corrupted(name, op_id, good)
            assert not run.Checker().record(op, bad, None), f"{op_id}: oracle missed it"
            checker = run.Checker()
            assert checker.record(op, good, None)
            assert not checker.record(op, bad, None)
            assert (checker.attempted, checker.failed) == (2, 1)
    finally:
        wl.close()


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = workloads.make("api_cohomology", run.ROOT)
    try:
        untraced = run.run_untraced(wl, 1, 0.0, scale="tiny")
        traced = run.run_traced(wl, 1, scale="tiny")
    finally:
        wl.close()
    for result, key in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"]
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in spec[key]}
