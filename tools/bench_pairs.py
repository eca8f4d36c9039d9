"""Alternating parent/change pairs of perfbench runs, written as a BENCH file.

    python3 tools/bench_pairs.py --parent REV --change REV --pr N \
        --workloads delta,bound,trop --seeds 3401-3410 [--seconds 30] \
        [--note TEXT] [--claim TEXT] [--earlier TEXT]

Run from the root of a troplex git checkout; needs only the standard
library, git and tar.  Each commit is unpacked from ``git archive`` into
its own temporary directory, so uncommitted files take no part.  For every
seed and workload one parent run and one change run of

    python3 perfbench/run.py --workload W --seed S --seconds T

are made, the parent first on odd seeds and the change first on even
ones.  Then one traced pass per side and workload is made at seed
TRACE_SEED (``--trace 1``), from which the TRACE_METRICS are kept.
The result goes to BENCH_<pr>.json: per workload and end-to-end metric,
each side's median and quartiles (statistics.quantiles, n=4), the
parent's interquartile range, and the number of pairs in which the change
was better, by the direction BENCHMARK.json gives; ties count for
neither side.  Every run is recorded too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TRACE_SEED = 1
TRACE_METRICS = [
    "cli.main.busy_s",
    "fpgroup.alexander_matrices.calls",
    "fpgroup.alexander_matrices.busy_s",
    "jumploci.twisted_alexander.calls",
    "jumploci.twisted_alexander.busy_s",
    "linalg.det_laurent.calls",
    "linalg.det_laurent.busy_s",
    "laurent.gcd_list.calls",
    "laurent.gcd_list.busy_s",
    "laurent.squarefree_part.calls",
    "laurent.squarefree_part.busy_s",
    "laurent.mul.count",
    "laurent.exact_div.count",
    "budget.timeouts",
]


def seed_range(text):
    """"3401-3410" or "3401,3405" as a list of ints."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def unpack(rev, dest):
    """The tree of rev, from git archive, in dest; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], check=True,
                           capture_output=True, text=True).stdout.strip()
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")
    return short


def perfbench(tree, workload, seed, seconds, trace=0):
    """The JSON result line of one perfbench run in tree."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv)} in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(parent, change, better):
    """Medians, quartiles and pairs won of one metric over paired runs."""
    p1, _, p3 = statistics.quantiles(parent, n=4)
    c1, _, c3 = statistics.quantiles(change, n=4)
    sign = 1 if better == "higher" else -1
    return {
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_q1": p1,
        "parent_q3": p3,
        "parent_iqr": p3 - p1,
        "change_q1": c1,
        "change_q3": c3,
        "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--change", required=True, help="change commit")
    parser.add_argument("--pr", required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--workloads", required=True, help="comma list of workloads")
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 3401-3410")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--note", help="what the change does (default: its subject line)")
    parser.add_argument("--claim", default="none", help="the gain claimed, if any")
    parser.add_argument("--earlier", default="none", help="every other run made for the change")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    end_to_end = {m["name"]: m["better"]
                  for m in json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]}
    note = args.note or subprocess.run(["git", "log", "-1", "--format=%s", args.change],
                                       check=True, capture_output=True, text=True).stdout.strip()
    seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        short = unpack(args.parent, trees["parent"])
        unpack(args.change, trees["change"])
        runs = {w: {"parent": [], "change": []} for w in workloads}
        for seed in args.seeds:
            for w in workloads:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    out = perfbench(trees[side], w, seed, seconds)
                    record = {"seed": seed, "correct": out["correct"],
                              "attempted": out["attempted"], "failed": out["failed"]}
                    record.update((k, v["value"]) for k, v in out["metrics"].items())
                    runs[w][side].append(record)
                    print(f"{w} seed {seed} {side}: jobs_per_s {record['jobs_per_s']:.1f} "
                          f"correct {record['correct']} failed {record['failed']}",
                          file=sys.stderr)
        traced = {}
        for w in workloads:
            traced[w] = {}
            for side in ("parent", "change"):
                out = perfbench(trees[side], w, TRACE_SEED, seconds, trace=1)
                traced[w][side] = {"correct": out["correct"], "failed": out["failed"]}
                traced[w][side].update((k, out["metrics"][k]["value"])
                                       for k in TRACE_METRICS)

    doc = {
        "description": (
            "perfbench end-to-end runs of the parent commit and of this change: python3 "
            f"perfbench/run.py --workload W --seed S --seconds {seconds}, seeds "
            f"{args.seeds[0]}-{args.seeds[-1]}, one parent and one change run per seed and "
            "workload, alternating which side ran first (odd seeds: parent first); each side "
            "from a git archive of its commit; quartiles by statistics.quantiles(n=4); "
            "written by tools/bench_pairs.py"),
        "parent": short,
        "change": note,
        "claim": args.claim,
        "host": {
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "note": "shared host; other tenants' load is not controlled",
        },
        "seconds": seconds,
        "workloads": {
            w: {
                "summary": {
                    name: summarize([r[name] for r in runs[w]["parent"]],
                                    [r[name] for r in runs[w]["change"]], better)
                    for name, better in end_to_end.items()
                },
                "runs": runs[w],
            }
            for w in workloads
        },
        "traced": {
            "description": (
                "one traced pass per side and workload: python3 perfbench/run.py --workload W "
                f"--seed {TRACE_SEED} --seconds {seconds} --trace 1, from the same "
                "archives; per-layer values per pass (busy seconds and counts)"),
            "workloads": traced,
        },
        "earlier_runs": {"description": args.earlier},
    }
    path = Path(f"BENCH_{args.pr}.json")
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
