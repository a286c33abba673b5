"""``BENCH_trajectory.json`` records, per accepted performance change, the
benchmark medians of the parent and of the change.  Every workload and
metric it names must be one that ``BENCHMARK.json`` declares."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trajectory_names_declared_workloads_and_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    trajectory = json.loads((ROOT / "BENCH_trajectory.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    entries = trajectory["entries"]
    assert entries
    for entry in entries:
        assert entry["workload"] in workloads, entry
        assert entry["metric"] in metrics, entry
        assert entry["pairs"] >= 1 and 0 <= entry["wins"] <= entry["pairs"], entry
        assert entry["parent_median"] > 0 and entry["change_median"] > 0, entry
