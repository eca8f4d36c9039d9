"""Record the reference output of every workload member into expected.json.

    python3 perfbench/record.py [workload ...]

Run from the root of the checkout whose outputs are the reference.  Each
record holds the job's content hash, how it ended (ok, timeout, error),
its exit code and the sha256 of its stdout.  Recording is done once and
offline, so every job gets RECORD_BUDGET seconds, far more than its run
budget: a job that is slow but finishes gets a reference output.  A job
that times out or raises even here has none: later runs count it as
failed while it still fails, and accept its output once it completes.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
from pathlib import Path

import run
import workloads

RECORD_BUDGET = 300.0


def main(argv):
    names = argv or sorted(workloads.WORKLOADS)
    path = run.HERE / "expected.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    signal.signal(signal.SIGALRM, run.on_alarm)
    with run.Checkout(Path.cwd()) as checkout:
        for name in names:
            records = {k: v for k, v in records.items() if not k.startswith(f"{name}-")}
            jobs = workloads.members(name)
            paths = checkout.write(jobs)
            for job in jobs:
                o = run.execute(dataclasses.replace(job, budget=RECORD_BUDGET), paths[job.id])
                records[job.id] = {
                    "key": job.key(),
                    "status": o.status,
                    "exit": o.rc,
                    "stdout_sha256": o.digest() if o.status == "ok" else None,
                }
                print(f"{job.id:22s} {o.status:7s} exit {o.rc} {o.seconds:7.3f} s",
                      file=sys.stderr)
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
