"""tools/bench_pairs.py's arithmetic, against a BENCH file it did not write."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402


def test_seed_ranges():
    assert bench_pairs.seed_range("3401-3403,7") == [3401, 3402, 3403, 7]
    assert bench_pairs.seed_range("5") == [5]


def test_summary_reproduces_a_recorded_bench_file():
    # BENCH_32.json was written before the tool existed; ties
    # (every ok_share is 1.0) count for neither side
    doc = json.loads((ROOT / "BENCH_32.json").read_text())
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for workload in doc["workloads"].values():
        parent, change = workload["runs"]["parent"], workload["runs"]["change"]
        for name, summary in workload["summary"].items():
            assert bench_pairs.summarize([r[name] for r in parent], [r[name] for r in change],
                                         better[name]) == summary, name
