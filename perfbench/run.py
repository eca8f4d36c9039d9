"""troplex benchmark: one closed-loop client, in-process, one thread.

Usage, from the root of a troplex checkout:

    python3 perfbench/run.py --workload delta|bound|trop --seed N \
        --seconds S --trace 0|1

The run generates the workload's jobs from the seed, writes their
documents under .perfbench_tmp/, and runs them as whole passes through
``troplex.cli.main`` (and one library call in ``trop``): each job starts
when the previous one returned.  A job over its budget (``Job.budget``)
is stopped and counted as a failed timeout.

--trace 0 measures set-up time in fresh interpreters, then runs about S
seconds of passes, at least one, and reports the end-to-end metrics over
every job run.  --trace 1 runs about S/2 seconds of untraced passes, as
many traced ones, at least one each, and reports the per-layer metrics of
the traced passes, per pass; spans go to .perfbench_out/.  Both check
every job's output: stdout digest and exit code against expected.json,
the fixture comparison, and (trop) Delta against a sympy oracle.  The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7
TAIL_SAMPLES = 10

SETUP_SNIPPET = """
import json, os, sys
fresh = not any(m == "troplex" or m.startswith("troplex.") for m in sys.modules)
from troplex import cli
from troplex.jobspec import validate_document
cli.build_parser()
with open(sys.argv[1], "rb") as fh:
    validate_document(json.load(fh))
print(json.dumps({"pid": os.getpid(), "fresh": fresh}))
"""


class BenchError(Exception):
    """The benchmark cannot run or cannot check what it ran."""


class JobTimeout(BaseException):
    """Raised in the job by the budget alarm.  A BaseException, so that no
    handler in the program under test can swallow it."""


def on_alarm(signum, frame):
    raise JobTimeout


@dataclass
class Outcome:
    job: workloads.Job
    seconds: float
    status: str  # "ok", "timeout" or "error"
    rc: int | None
    stdout: str
    error: str = ""

    def digest(self):
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def union_report(path):
    """The library job: Delta of the trivial representation, then
    troplex.union_over_valuations(Delta), printed for the digest."""
    import troplex

    job = troplex.load_job(path)
    delta = troplex.twisted_alexander(job.presentation, job.representation("trivial"))
    report = troplex.union_over_valuations([delta.delta_poly()])
    print(f"delta: {delta.describe()}")
    print(f"primes: {report.primes}")
    for e in report.entries:
        print(f"{e.label}: {e.arcs.describe()}")
    print(f"union: {report.sphere_union.describe()}")
    return 0


def execute(job, path):
    """Run one job with stdout captured and its budget armed."""
    from troplex import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    status, rc, error = "ok", None, ""
    start = time.perf_counter()
    try:
        try:
            try:
                sys.stdout, sys.stderr = out, err
                signal.setitimer(signal.ITIMER_REAL, job.budget)
                if job.command == "union":
                    rc = union_report(path)
                else:
                    rc = cli.main(job.argv(path))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            sys.stdout, sys.stderr = saved
    except JobTimeout:
        status = "timeout"
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # the program under test failed; record and go on
        status, error = "error", f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - start
    if status == "ok" and rc is None:
        rc = 0
    return Outcome(job, seconds, status, rc, out.getvalue(), error or err.getvalue())


class Checkout:
    """The troplex source tree under test, and the job documents written
    for one run."""

    def __init__(self, root):
        self.root = Path(root).resolve()
        src = self.root / "src"
        if not (src / "troplex" / "cli.py").is_file():
            raise BenchError(f"no troplex sources under {src}; run from a checkout root")
        sys.path.insert(0, str(src))
        import troplex

        if Path(troplex.__file__).resolve().parent != src / "troplex":
            raise BenchError(f"imported troplex from {troplex.__file__}, not from {src}")
        self.src = src
        self.tmp_parent = self.root / ".perfbench_tmp"
        self.tmp = None

    def __enter__(self):
        self.tmp_parent.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=self.tmp_parent))
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp_parent.rmdir()
        except OSError:
            pass
        return False

    def bundled(self, name):
        return str(self.src / "troplex" / "data" / name)

    def write(self, jobs):
        """Document path for every job; generated documents go to tmp."""
        paths = {}
        for job in jobs:
            if job.doc is None:
                paths[job.id] = self.bundled(job.bundled)
            else:
                path = self.tmp / f"{job.id}.json"
                path.write_bytes(workloads.document_bytes(job.doc))
                paths[job.id] = str(path)
        return paths

    def setup_seconds(self, runs=SETUP_RUNS):
        """Wall times of fresh interpreters that import troplex.cli, build
        the parser and validate one document."""
        env = dict(os.environ, PYTHONPATH=str(self.src))
        doc = self.bundled("one_relator.json")
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, doc], cwd=self.root,
                                  env=env, capture_output=True, text=True, timeout=120)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
            probe = json.loads(proc.stdout)
            if probe["pid"] == os.getpid() or not probe["fresh"]:
                raise BenchError("set-up was not measured in a fresh interpreter")
        return times


def run_passes(jobs, paths, passes, tracer=None):
    """Whole passes over jobs, closed loop: (outcomes, wall seconds of
    each pass).  Outcome i is job i % len(jobs) of pass i // len(jobs)."""
    outcomes, seconds = [], []
    for n in range(passes):
        start = time.perf_counter()
        for i, job in enumerate(jobs):
            if tracer:
                tracer.start_job(f"{n}:{i}:{job.id}")
            outcome = execute(job, paths[job.id])
            if tracer:
                tracer.end_job(outcome.status != "timeout")
            outcomes.append(outcome)
        seconds.append(time.perf_counter() - start)
    return outcomes, seconds


def load_expected():
    """Recorded output of every member (written by record.py)."""
    with open(HERE / "expected.json", "rb") as fh:
        return json.load(fh)


def check(outcomes, expected):
    """(failed flag per outcome, mismatches).  A job fails when it times
    out, raises, exits 2 on its valid document, or its output differs from
    the record; only the last is a wrong output."""
    failed, mismatches = [], []
    for o in outcomes:
        rec = expected.get(o.job.id)
        if rec is None or rec["key"] != o.job.key():
            raise BenchError(f"no recorded output for {o.job.id}; run perfbench/record.py")
        bad = None
        if o.status == "ok" and rec["status"] == "ok":
            if (o.rc, o.digest()) != (rec["exit"], rec["stdout_sha256"]):
                bad = f"exit {o.rc} / stdout {o.digest()[:12]} != recorded"
        if (o.status == "ok" and "--fixture" in o.job.args
                and "comparison: Equal" not in o.stdout.splitlines()):
            bad = "fixture comparison is not Equal"
        if bad:
            mismatches.append(f"{o.job.id}: {bad}")
        failed.append(bool(bad) or o.status != "ok" or o.rc == 2)
    return failed, mismatches


def check_deltas(jobs, paths):
    """Trivial-representation Delta of every trop document against the
    sympy oracle, up to units: {job id: mismatch}.  Runs outside the timed
    passes."""
    import troplex

    mismatches = {}
    for job in {j.id: j for j in jobs}.values():
        spec = troplex.load_job(paths[job.id])
        got = troplex.twisted_alexander(spec.presentation, spec.representation("trivial"))
        mine = oracle.normalize(dict(got.delta_poly().terms)) if not got.is_zero else {}
        word = workloads.parse_word_text(job.doc["presentation"]["relators"][0])
        if mine != oracle.delta(word):
            mismatches[job.id] = f"{job.id}: Delta {got.describe()} differs from the sympy oracle"
    return mismatches


def tail(values):
    """(value, percentile) at the highest percentile with at least
    TAIL_SAMPLES samples above it; None below TAIL_SAMPLES + 1 samples."""
    if len(values) <= TAIL_SAMPLES:
        return None, None
    ordered = sorted(values)
    k = len(ordered) - TAIL_SAMPLES - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
              "ok_share": "ratio", "peak_rss_mb": "MB"}


def end_to_end(outcomes, failed, pass_seconds, setup, peak_rss_mb):
    """name -> (value, note on the samples behind it).  Every run of every
    job is one sample; a timed-out run counts with its budget."""
    times = [o.seconds for o in outcomes]
    tail_s, tail_pct = tail(times)
    if tail_s is None:
        raise BenchError(f"{len(times)} job runs are too few for a tail with {TAIL_SAMPLES} above")
    n, nfailed = len(outcomes), sum(failed)
    wall = sum(pass_seconds)
    return {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters"),
        "jobs_per_s": ((n - nfailed) / wall,
                       f"{n - nfailed} completed in {wall:.2f} s, {len(pass_seconds)} pass(es)"),
        "job_p50_s": (statistics.median(times), f"median of {n} job runs"),
        "job_tail_s": (tail_s, f"p{tail_pct:.1f} of {n} job runs, {TAIL_SAMPLES} above"),
        "ok_share": ((n - nfailed) / n, f"fail_share {nfailed / n:.4g}: {nfailed} of {n} failed"),
        "peak_rss_mb": (peak_rss_mb, "max resident set of this process"),
    }


def traced_metrics(tracer, plain, plain_s, traced, traced_s):
    """Per-layer metrics per traced pass, and the tracing overhead."""
    passes = len(traced_s)
    out = tracer.layer_metrics(passes)
    out["trace.untraced_jobs_per_s"] = sum(o.status == "ok" for o in plain) / sum(plain_s)
    out["trace.jobs_per_s"] = sum(o.status == "ok" for o in traced) / sum(traced_s)
    out["trace.overhead_jobs_per_s"] = out["trace.untraced_jobs_per_s"] - out["trace.jobs_per_s"]
    out["budget.timeouts"] = sum(o.status == "timeout" for o in traced) / passes
    return out


def measure(args, checkout, jobs):
    """Run and check the workload: (outcomes, passes, failed count,
    mismatches, metric values, notes to print beside them)."""
    paths = checkout.write(jobs)
    setup = [] if args.trace else checkout.setup_seconds()
    warmup = workloads.Job("warmup", "alexander", ("--rep", "trivial"), bundled="one_relator.json")
    execute(warmup, checkout.bundled(warmup.bundled))
    gc.collect()
    notes = {}
    if args.trace:
        passes = workloads.passes(args.workload, args.seconds / 2)
        plain, plain_s = run_passes(jobs, paths, passes)
        gc.collect()
        tracer = spans.Tracer()
        with tracer:
            traced, traced_s = run_passes(jobs, paths, passes, tracer=tracer)
        outcomes = plain + traced
    else:
        passes = workloads.passes(args.workload, args.seconds)
        outcomes, pass_s = run_passes(jobs, paths, passes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, mismatches = check(outcomes, load_expected())
    if args.workload == "trop":
        wrong = check_deltas(jobs, paths)
        failed = [f or o.job.id in wrong for f, o in zip(failed, outcomes)]
        mismatches += wrong.values()
    if args.trace:
        values = traced_metrics(tracer, plain, plain_s, traced, traced_s)
        out_dir = checkout.root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.dump()))
        notes["spans"] = f"{len(tracer.spans)} written to {trace_file.relative_to(checkout.root)}"
    else:
        measured = end_to_end(outcomes, failed, pass_s, setup, peak_rss_mb)
        values = {k: v for k, (v, _) in measured.items()}
        notes = {k: note for k, (_, note) in measured.items()}
    return outcomes, passes, sum(failed), mismatches, values, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, on_alarm)
    jobs = workloads.generate(args.workload, args.seed)
    try:
        with Checkout(Path.cwd()) as checkout:
            outcomes, passes, failed, mismatches, values, notes = measure(args, checkout, jobs)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    for m in mismatches:
        print(f"MISMATCH {m}")
    for o in outcomes:
        if o.status != "ok" or o.rc == 2:
            why = f"over its {o.job.budget:g} s budget" if o.status == "timeout" else o.error
            print(f"FAILED {o.job.id}: {o.status} exit {o.rc} {why.strip()[:200]}")
    timeouts = sum(o.status == "timeout" for o in outcomes)
    budgets = sorted({j.budget for j in jobs})
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass, "
          f"{passes} pass(es), budget {'/'.join(f'{b:g}' for b in budgets)} s per job, "
          f"{timeouts} timeout(s)")
    units = spans.metric_units() if args.trace else END_TO_END
    for name, note in notes.items():
        if name in units:
            print(f"{name:12s} {values[name]:.6g} {units[name]} ({note})")
        else:
            print(f"{name}: {note}")
    result = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not mismatches, "attempted": len(outcomes),
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
