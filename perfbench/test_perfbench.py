"""Self-checks of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent


@pytest.fixture(scope="module")
def checkout():
    with run.Checkout(ROOT) as c:
        yield c


def _as_bytes(jobs):
    return [
        (j.id, j.command, j.args,
         workloads.document_bytes(j.doc) if j.doc is not None else j.bundled)
        for j in jobs
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_byte_identical_per_seed(name):
    first = _as_bytes(workloads.generate(name, 11))
    assert first == _as_bytes(workloads.generate(name, 11))
    assert first != _as_bytes(workloads.generate(name, 12))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_only_orders_the_pass(name):
    # every seed runs every member its class's number of times
    runs = {f"{name}-{c}-{k}": n for c, count, n, _ in workloads.WORKLOADS[name]
            for k in range(count)}
    for seed in (1, 2):
        assert Counter(j.id for j in workloads.generate(name, seed)) == runs


def test_generated_representations_are_genuine(checkout):
    from troplex import fpgroup, jobspec

    for name in workloads.WORKLOADS:
        for job in workloads.members(name):
            if job.doc is None:
                continue
            spec = jobspec.JobSpec(job.doc)
            for rep in spec.rep_specs:
                assert fpgroup.verify_representation(
                    spec.presentation, spec.representation(rep)), (job.id, rep)


def test_raag_documents_match_build_weighted_raag(checkout):
    import random

    from troplex import fpgroup, jobspec

    for k in range(10):
        n, edges = workloads.raag_edges(random.Random(k))
        spec = jobspec.JobSpec(workloads.raag_document("g", n, edges))
        built = fpgroup.build_weighted_raag(n, edges)
        assert spec.presentation.relators == built.relators


def test_recorded_outputs_cover_every_member():
    expected = run.load_expected()
    for name in workloads.WORKLOADS:
        for job in workloads.members(name):
            assert expected[job.id]["key"] == job.key(), job.id


def test_oracle_agrees_on_the_bundled_relator(checkout):
    from troplex import jobspec

    spec = jobspec.load_job(checkout.bundled("one_relator.json"))
    word = spec.presentation.relators[0]
    # tests/test_cli.py: alexander one_relator --rep trivial prints 1 - t1
    assert oracle.delta(word) == {(0, 0): 1, (1, 0): -1}
    assert workloads.parse_word_text(workloads.word_text(word)) == tuple(word)


def _traced(checkout, jobs, slow):
    """One traced pass over jobs, plus slow stopped at a tiny budget."""
    paths = checkout.write(jobs + [slow])
    tracer = spans.Tracer()
    previous = signal.signal(signal.SIGALRM, run.on_alarm)
    try:
        with tracer:
            run.run_passes(jobs, paths, 1, tracer=tracer)
            tracer.start_job("slow")
            outcome = run.execute(dataclasses.replace(slow, budget=0.2), paths[slow.id])
            tracer.end_job(outcome.status != "timeout")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcome.status == "timeout"
    return tracer.layer_metrics(1)


def test_traced_counts_repeat_exactly(checkout):
    jobs = [
        workloads.member("delta", "s3", 0),
        workloads.member("delta", "perm3", 1),
        workloads.member("delta", "raag", 2),
        workloads.member("bound", "single", 0),
        workloads.member("bound", "brown", 0),
        workloads.member("trop", "z", 0),
        workloads.member("trop", "contains", 0),
    ]
    slow = workloads.member("delta", "reg_s3", 0)
    first, second = _traced(checkout, jobs, slow), _traced(checkout, jobs, slow)
    exact = (".calls", ".dets", ".count", ".distinct_share", ".inputs", ".cells")
    counts = {k: v for k, v in first.items() if k.endswith(exact)}
    assert counts == {k: second[k] for k in counts}
    assert counts["cli.main.calls"] == len(jobs)
    assert counts["jumploci.minors.dets"] > 0
    assert 0 < counts["jumploci.jump_ideal.distinct_share"] <= 1


def test_setup_is_measured_in_a_fresh_interpreter(checkout):
    # setup_seconds raises unless the child is another process that had
    # not imported troplex before the timed import
    (seconds,) = checkout.setup_seconds(runs=1)
    assert seconds > 0


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.metric_units()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "delta", "--seed", "1", "--seconds", "1"]) == 1
