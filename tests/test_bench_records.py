"""The committed benchmark records, ``BENCH_<pr>.json`` at the repository
root: each names the machine it was measured on and claims a gain on a
workload and an end-to-end metric that ``BENCHMARK.json`` declares, with
the runs that decide the claim."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({w["name"] for w in bench["workloads"]},
            {m["name"]: m["better"] for m in bench["end_to_end"]})


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_its_machine_and_a_declared_claim(path):
    record = json.loads(path.read_text())
    for key in ("numpy", "scipy", "blas"):
        assert record["machine"].get(key), f"machine has no {key}"
    workloads, metrics = declared()
    workload, metric = record["claim"]["metric"].split()
    assert workload in workloads
    assert metric in metrics
    # the runs of the claimed pairing, one per side and pair, decide it
    result = record["workloads"][workload]
    entry = result["metrics"][metric]
    parent, change = entry["parent"]["runs"], entry["change"]["runs"]
    assert len(parent) == len(change) == result["pairs"]
    sign = 1.0 if metrics[metric] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gain = sign * (statistics.median(parent) - statistics.median(change))
    assert record["claim"]["met"] == (wins >= 0.9 * len(parent) and gain > q3 - q1)
