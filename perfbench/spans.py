"""Spans around the public functions of each troplex module.

The tracer wraps functions from outside the program: it rebinds every
name under which a troplex module holds one of the functions in SPANS
(``from .x import f`` makes several), and restores them on exit.  Each
call records a span (name, start, end, parent, job); spans stay in memory
until the run writes them out.  Scalar ``rings`` operations get no span:
one per coefficient operation would swamp the measurement, so their time
shows inside ``laurent`` and ``linalg``.  LaurentPoly multiplication and
exact division are counted, not timed, for the same reason.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

SPANS = [
    "cli.main",
    "jobspec.load_job",
    "jobspec.validate_document",
    "fpgroup.regular_representation",
    "fpgroup.alexander_matrices",
    "jumploci.twisted_alexander",
    "jumploci.jump_ideal",
    "jumploci.minors",
    "jumploci.IdealGens.gcd",
    "linalg.det_laurent",
    "linalg.rank_laurent",
    "laurent.gcd_list",
    "laurent.squarefree_part",
    "tropical.trop_hypersurface",
    "tropical.trop_Z_principal",
    "tropical.trop_contains",
    "tropical.trop_Z_contains",
    "tropical.union_over_valuations",
    "tropical.sphere_projection",
    "sphere.union_all",
    "bnsreport.assemble_bound",
    "bnsreport.compare_fixture",
]
COUNTED = {
    "laurent.LaurentPoly.__mul__": "laurent.mul.count",
    "laurent.LaurentPoly.__rmul__": "laurent.mul.count",
    "laurent.exact_div": "laurent.exact_div.count",
}
# Per-layer metrics beyond .calls/.busy_s/.self_s, with their units.
EXTRA = {
    "jumploci.minors.dets": "count",
    "jumploci.minors.distinct_share": "ratio",
    "jumploci.jump_ideal.distinct_share": "ratio",
    "laurent.gcd_list.inputs": "count",
    "laurent.mul.count": "count",
    "laurent.exact_div.count": "count",
    "tropical.trop_hypersurface.cells": "count",
    "trace.untraced_jobs_per_s": "1/s",
    "trace.jobs_per_s": "1/s",
    "trace.overhead_jobs_per_s": "1/s",
    "budget.timeouts": "count",
}


def metric_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA)
    return units


def _resolve(dotted):
    """(owner object, attribute name) for "module.func" or "module.Class.meth"."""
    parts = dotted.split(".")
    owner = importlib.import_module(f"troplex.{parts[0]}")
    for p in parts[1:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    """Records spans and counts while installed (a context manager)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job]
        self.counts = {}  # job -> Counter
        self.excluded = set()  # jobs that timed out: partial, left out
        self._stack = []
        self._job = None
        self._cur = Counter()
        self._ideal_keys = set()
        self._patches = []
        self._after = {
            "jumploci.minors": self._after_minors,
            "jumploci.jump_ideal": self._after_jump_ideal,
            "laurent.gcd_list": self._after_gcd_list,
            "tropical.trop_hypersurface": self._after_trop_hypersurface,
        }

    # -- jobs ------------------------------------------------------------

    def start_job(self, job):
        self._job = job
        self._cur = self.counts.setdefault(job, Counter())
        self._stack.clear()

    def end_job(self, complete):
        if not complete:
            self.excluded.add(self._job)
        self._stack.clear()
        self._job = None

    # -- wrapping --------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, now = self.spans, self._stack, time.perf_counter
        after = self._after.get(name)
        sig = inspect.signature(fn) if after else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, now(), None, stack[-1] if stack else -1, self._job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = now()
                if stack and stack[-1] == idx:
                    stack.pop()
            if after:
                after(sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _count(self, dotted, fn):
        name = COUNTED[dotted]

        def wrapper(*args, **kwargs):
            self._cur[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_minors(self, args, result):
        self._cur["jumploci.minors.distinct"] += len(result)

    def _after_jump_ideal(self, args, result):
        rep, phi = args["rep"], args.get("phi")
        key = (
            self._job,
            rep.ring.tag(),
            tuple(tuple(map(tuple, m)) for m in rep.mats),
            None if phi is None else tuple(phi.vectors),
            args.get("i", 1),
        )
        if key not in self._ideal_keys:
            self._ideal_keys.add(key)
            self._cur["jumploci.jump_ideal.distinct"] += 1

    def _after_gcd_list(self, args, result):
        self._cur["laurent.gcd_list.inputs"] += len(args["polys"])

    def _after_trop_hypersurface(self, args, result):
        self._cur["tropical.trop_hypersurface.cells"] += len(result.cells)

    def _rebind(self, dotted, make):
        owner, attr = _resolve(dotted)
        original = getattr(owner, attr)
        wrapped = make(dotted, original)
        if inspect.isclass(owner):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        for modname, mod in list(sys.modules.items()):
            if modname != "troplex" and not modname.startswith("troplex."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def __enter__(self):
        for dotted in SPANS:
            self._rebind(dotted, self._span)
        for dotted in COUNTED:
            self._rebind(dotted, self._count)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        return False

    # -- results ---------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-layer totals over the complete jobs, divided by passes."""
        busy, child, calls = Counter(), Counter(), Counter()
        dets = 0
        for name, start, end, parent, job in self.spans:
            if job in self.excluded:
                continue
            dur = end - start
            calls[name] += 1
            busy[name] += dur
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] += dur
                if name == "linalg.det_laurent" and pname == "jumploci.minors":
                    dets += 1
        counts = Counter()
        for job, c in self.counts.items():
            if job not in self.excluded:
                counts.update(c)
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.busy_s"] = busy[name] / passes
            out[f"{name}.self_s"] = (busy[name] - child[name]) / passes
        out["jumploci.minors.dets"] = dets / passes
        out["jumploci.minors.distinct_share"] = (
            counts["jumploci.minors.distinct"] / dets if dets else 0.0
        )
        ji = calls["jumploci.jump_ideal"]
        out["jumploci.jump_ideal.distinct_share"] = (
            counts["jumploci.jump_ideal.distinct"] / ji if ji else 0.0
        )
        for name in ("laurent.gcd_list.inputs", "laurent.mul.count",
                     "laurent.exact_div.count", "tropical.trop_hypersurface.cells"):
            out[name] = counts[name] / passes
        return out

    def dump(self):
        """The raw trace: spans and per-job counts."""
        return {
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": self.spans,
            "counts": {job: dict(c) for job, c in self.counts.items()},
            "excluded": sorted(self.excluded),
        }
