"""Command line surface.

Exit codes: 0 success, 2 input/schema error, 3 vacuous or degenerate
result, 4 invariant violation (a fixture comparison came back Violation),
5 internal error (an ArithmeticError or AssertionError inside the
library: a bug, reported on stderr without a traceback), 141 stdout was
closed before the output was written (128 + SIGPIPE, as a shell reports
a tool killed by a closed pipe; nothing is printed).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__, fpgroup
from .bnsreport import FIXTURES, assemble_bound, compare_fixture, get_fixture
from .jobspec import (
    JobError,
    dump_document,
    load_job,
    parse_field,
    parse_valuation,
    presentation_document,
)
from .jumploci import kahler_obstruction, twisted_alexander
from .rings import GF, ring_from_tag
from .svg import render_svg
from .tropical import trop_contains, trop_Z_contains, tropicalize

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VACUOUS = 3
EXIT_VIOLATION = 4
EXIT_INTERNAL = 5
EXIT_PIPE = 141


def _tsv_rows(T):
    """One row per cell: kind base_x base_y dir1_x dir1_y dir2_x dir2_y label.

    Missing fields print as ".".  Segment rows put the far endpoint in the
    dir1 columns.  Exact rationals render as p/q.
    """
    rows = []
    for c in T.cells:
        base = [str(x) for x in c.base]
        while len(base) < 2:
            base.append(".")
        if c.kind == "vertex":
            d1 = [".", "."]
            d2 = [".", "."]
        elif c.kind == "segment":
            d1 = [str(x) for x in c.end]
            d2 = [".", "."]
        elif c.kind == "ray":
            d1 = [str(x) for x in c.dir]
            d2 = [".", "."]
        else:
            d1 = [str(x) for x in c.dir]
            d2 = [str(x) for x in c.dir2]
        label = ";".join(",".join(str(e) for e in u) for u in c.label) or "."
        rows.append("\t".join([c.kind] + base + d1 + d2 + [label]))
    return rows


def _arcset_json(s):
    if s.full:
        return [{"kind": "full_circle"}]
    out = []
    for comp in s.components:
        if comp[0] == "point":
            out.append({"kind": "point", "dir": list(comp[1])})
        else:
            _, a, b, ca, cb = comp
            out.append(
                {
                    "kind": "arc",
                    "start": list(a),
                    "end": list(b),
                    "closed_start": ca,
                    "closed_end": cb,
                }
            )
    return out


def _parse_point(text, nvars):
    parts = text.split(",") if text else []  # "" is the point of R^0
    if len(parts) != nvars:
        raise JobError(f"point {text!r} has {len(parts)} coordinates, need {nvars}")
    try:
        return tuple(Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise JobError(f"bad point {text!r}") from None


def _job_rep_phi(args):
    job = load_job(args.input)
    rep = job.representation(args.rep)
    phi = job.phi(args.phi)
    return job, rep, phi


def cmd_alexander(args):
    job, rep, phi = _job_rep_phi(args)
    if args.ring:
        rep = rep.over(ring_from_tag(args.ring))
    verdict = twisted_alexander(job.presentation, rep, phi, squarefree=args.squarefree)
    print(verdict.describe())
    return EXIT_OK


def cmd_trop(args):
    job, rep, phi = _job_rep_phi(args)
    p, mode = parse_valuation(args.valuation)
    verdict = twisted_alexander(job.presentation, rep.over(GF(p)) if p else rep, phi)
    delta = verdict.delta_poly()
    if args.contains is not None:
        w = _parse_point(args.contains, phi.m)
        if verdict.is_zero:
            member = True
        elif mode == "Z":
            member = trop_Z_contains(delta, w)
        else:
            member = trop_contains(delta, mode, w)
        print("yes" if member else "no")
        return EXIT_OK
    if verdict.is_zero and phi.m != 2:
        print(
            f"degenerate: Delta = 0, tropical set is all of R^{phi.m}",
            file=sys.stderr,
        )
        return EXIT_VACUOUS
    T = tropicalize(delta, mode)
    if args.svg:  # drawn and written first: a refused picture or path prints no rows
        picture = render_svg(T, title=f"{job.name}: {args.rep} / {args.valuation}")
        _write_file(args.svg, lambda fh: fh.write(picture))
    for row in _tsv_rows(T):
        print(row)
    return EXIT_OK


def cmd_bns_bound(args):
    job = load_job(args.input)
    phi = job.phi(args.phi)
    fixture = None
    if args.fixture:  # refused before any entry is computed
        fixture = get_fixture(args.fixture)
        fixture.check(job.presentation, phi)
    settings = args.valuation or job.valuations or ["Z"]
    entries = []
    for rname in args.rep:
        base = job.representation(rname)
        for vs in settings:
            p, mode = parse_valuation(vs)
            if p:
                entries.append((f"{rname} mod {p}", base.over(GF(p)), mode))
            else:
                entries.append((rname, base, mode))
    report = assemble_bound(
        job.presentation, entries, phi=phi, check_finite_image=args.check_finite_image
    )
    doc = {
        "presentation": job.name,
        "entries": [
            {
                "descriptor": e.descriptor,
                "mode": e.mode_label,
                "admissible": True,
                "condition": e.admissibility.condition,
                "exact": False,  # never known: see bnsreport's module docstring
                "arcs": _arcset_json(e.arcs),
            }
            for e in report.entries
        ],
        "excluded": [
            {
                "descriptor": e.descriptor,
                "mode": e.mode_label,
                "admissible": False,
                "reason": e.admissibility.reason,
            }
            for e in report.excluded
        ],
        "bound": _arcset_json(report.combined),
        "complement": _arcset_json(report.complement),
        "vacuous": report.vacuous,
        "notes": report.notes,
    }
    comparison = None
    if fixture is not None:
        comparison = compare_fixture(report, fixture)
        doc["comparison"] = {
            "fixture": args.fixture,
            "result": comparison.kind,
            "difference": _arcset_json(comparison.difference),
        }
    print(json.dumps(doc, indent=2, sort_keys=True))
    print()
    for line in report.summary_lines():
        print(line)
    if comparison is not None:
        print(f"comparison: {comparison.kind}")
        if comparison.kind == "Violation":
            print(
                "violation: fixture arcs escape the computed complement; "
                "this contradicts the bound and is a bug",
                file=sys.stderr,
            )
            return EXIT_VIOLATION
    if report.vacuous:
        return EXIT_VACUOUS
    return EXIT_OK


def cmd_kaehler_test(args):
    job = load_job(args.input)
    rep = job.representation(args.rep)
    phi = job.phi("ab")  # the obstruction is about Delta at the free abelianization
    fields = [parse_field(tag.strip()) for tag in args.fields.split(",")]
    verdicts = []
    for ring in fields:
        v = twisted_alexander(job.presentation, rep.over(ring), phi, squarefree=True)
        print(f"{ring!r}: Delta = {v.describe()}")
        verdicts.append(v)
    outcome = kahler_obstruction(verdicts)
    if outcome.consistent:
        descs = dict.fromkeys(v.describe() for v in verdicts)  # in first-seen order
        print(f"consistent (Delta = {'; '.join(descs)})")
    else:
        wit = outcome.witnesses[0]
        print(f"NOT KAHLER (witness: {wit.ring!r}, Delta = {wit.describe()})")
    return EXIT_OK


def _write_file(path, write):
    """write(fh) into path; a path that cannot be written is an input error."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as e:
        raise JobError(f"cannot write {path}: {e.strerror or e}") from None


def _emit_document(doc, out):
    if out:
        _write_file(out, lambda fh: dump_document(doc, fh))
    else:
        dump_document(doc, sys.stdout)
    return EXIT_OK


def cmd_orbifold(args):
    mu = [int(x) for x in args.mu.split(",")] if args.mu else []
    pres = fpgroup.build_orbifold(args.g, mu)
    name = f"orbifold_g{args.g}"
    if mu:
        name += "_mu" + "_".join(str(x) for x in mu)
    return _emit_document(presentation_document(name, pres), args.output)


def cmd_wraag(args):
    try:
        with open(args.graph, "rb") as fh:
            graph = json.load(fh)
    except OSError as e:
        raise JobError(f"cannot read {args.graph}: {e}") from None
    except json.JSONDecodeError as e:
        raise JobError(f"{args.graph} is not valid JSON: {e}") from None
    if not isinstance(graph, dict) or not isinstance(graph.get("edges"), list):
        raise JobError("graph document needs an 'edges' list")
    verts = graph.get("vertices")
    names = None
    if isinstance(verts, list):
        names = [str(v) for v in verts]
        nverts = len(names)
    elif type(verts) is int:  # not a float, and not a bool like true
        nverts = verts
    else:
        raise JobError("graph 'vertices' must be a count or a list of names")
    edges = []
    for e in graph["edges"]:
        if not isinstance(e, list) or len(e) != 3 or not all(type(x) is int for x in e):
            raise JobError(f"bad edge {e!r}: want integers [i, j, weight] with 1-based i, j")
        edges.append(tuple(e))
    pres = fpgroup.build_weighted_raag(nverts, edges, names=names)
    name = str(graph.get("name", "wraag"))
    return _emit_document(presentation_document(name, pres), args.output)


def cmd_product(args):
    a = load_job(args.a)
    b = load_job(args.b)
    pres = fpgroup.build_product(a.presentation, b.presentation)
    name = f"{a.name or 'a'}_x_{b.name or 'b'}"
    return _emit_document(presentation_document(name, pres), args.output)


@functools.cache
def build_parser():
    """The one parser of the process: building it costs more than most
    jobs, and parse_args leaves it unchanged, so main reuses it."""
    parser = argparse.ArgumentParser(
        prog="troplex",
        description="Exact twisted Alexander invariants and their tropicalizations.",
    )
    parser.add_argument("--version", action="version", version=f"troplex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alexander", help="twisted Alexander polynomial verdict")
    p.add_argument("input", help="job document (JSON)")
    p.add_argument("--rep", required=True, help="representation name from the document")
    p.add_argument("--phi", default="ab", help="character map name, or 'ab' (default)")
    p.add_argument("--ring", help="convert the representation: Z, Q, or fp:P")
    p.add_argument("--squarefree", action="store_true", help="report the squarefree part")
    p.set_defaults(fn=cmd_alexander)

    p = sub.add_parser("trop", help="tropicalize the twisted Alexander polynomial")
    p.add_argument("input")
    p.add_argument("--rep", required=True)
    p.add_argument("--phi", default="ab")
    p.add_argument(
        "--valuation",
        required=True,
        help="Z (integer coefficients), trivial, p-adic:P, or fp:P",
    )
    p.add_argument(
        "--contains",
        metavar="W",
        help="membership oracle at the point W = x,y,... (any dimension)",
    )
    p.add_argument("--svg", metavar="FILE", help="also draw the planar picture")
    p.set_defaults(fn=cmd_trop)

    p = sub.add_parser("bns-bound", help="Sigma-invariant upper bound report")
    p.add_argument("input")
    p.add_argument(
        "--rep",
        action="append",
        required=True,
        help="representation name; repeatable",
    )
    p.add_argument("--phi", default="ab")
    p.add_argument(
        "--valuation",
        action="append",
        help="coefficient setting per entry; repeatable; default: document list or Z",
    )
    p.add_argument("--fixture", help=f"compare against: {', '.join(sorted(FIXTURES))}")
    p.add_argument(
        "--check-finite-image",
        action="store_true",
        help="try the finite-image admissibility condition by closure enumeration",
    )
    p.set_defaults(fn=cmd_bns_bound)

    p = sub.add_parser("kaehler-test", help="Alexander-polynomial Kaehler obstruction")
    p.add_argument("input")
    p.add_argument("--rep", default="trivial")
    p.add_argument(
        "--fields",
        default="q",
        help="comma list of coefficient fields: q, fp:P (default q)",
    )
    p.set_defaults(fn=cmd_kaehler_test)

    p = sub.add_parser("orbifold", help="emit an orbifold group presentation document")
    p.add_argument("--g", type=int, required=True, help="genus")
    p.add_argument("--mu", default="", help="comma list of cone orders, e.g. 2,3")
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(fn=cmd_orbifold)

    p = sub.add_parser("wraag", help="emit a weighted right-angled Artin group document")
    p.add_argument(
        "--graph",
        required=True,
        help="JSON graph: {vertices: N or [names], edges: [[i, j, weight], ...]}",
    )
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(fn=cmd_wraag)

    p = sub.add_parser("product", help="emit the direct product of two documents")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(fn=cmd_product)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return rc
    except BrokenPipeError:
        # the reader is gone: buffered output goes to devnull, so the
        # flush at shutdown stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (JobError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, AssertionError) as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
