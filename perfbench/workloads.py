"""Seeded job generators for the delta, bound and trop workloads.

A job is one CLI invocation (``troplex.cli.main(argv)``) or, in ``trop``,
one library call, on one job document.  Each workload is a list of job
classes.  Member ``k`` of class ``c`` is generated from its own seed
``"<workload>-<c>-<k>"``, so the members never depend on the run seed and
every member's output can be recorded once (see ``record.py``).  A pass
runs every member of every class, each a fixed number of times, in an
order the run seed shuffles: the run seed orders the work and never
changes what the work is, so the cost of a pass does not depend on it.

The generators use no troplex code: relators are checked against the
S3 representations here, because ``RepSpec.build`` does not check
``matrices`` representations.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass

# x1 -> (012), x2 -> (01) as 0-based image tuples; a word acts left to
# right as a product of permutation matrices, so p*q means p(q(x)).
S3_PERMS = {1: (1, 2, 0), 2: (1, 0, 2)}
# The bundled one_relator's rank-2 representation of S3.
S3_MATRICES = {1: [[-1, 1], [-1, 0]], 2: [[0, 1], [1, 0]]}


def _perm_mul(p, q):
    return tuple(p[x] for x in q)


def _perm_inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _perm_matrix(p):
    n = len(p)
    return [[1 if p[b] == a else 0 for b in range(n)] for a in range(n)]


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _transpose(m):
    """Inverse of a permutation matrix."""
    return [list(r) for r in zip(*m)]


def _mat_inv_unimodular(m):
    """Inverse of the 2x2 integer matrices above (determinant +-1)."""
    (a, b), (c, d) = m
    det = a * d - b * c
    assert det in (1, -1)
    return [[d * det, -b * det], [-c * det, a * det]]


PERM3_MATRICES = {g: _perm_matrix(p) for g, p in S3_PERMS.items()}


def _word_image(word, gens, mul, inv, identity):
    acc = identity
    for letter in word:
        g = gens[abs(letter)]
        acc = mul(acc, g if letter > 0 else inv(g))
    return acc


def in_s3_kernel(word):
    """True iff the word maps to 1 under the S3 permutations and under both
    matrix representations the documents carry (s3 and perm3)."""
    if _word_image(word, S3_PERMS, _perm_mul, _perm_inv, (0, 1, 2)) != (0, 1, 2):
        return False
    eye2 = [[1, 0], [0, 1]]
    if _word_image(word, S3_MATRICES, _mat_mul, _mat_inv_unimodular, eye2) != eye2:
        return False
    eye3 = _perm_matrix((0, 1, 2))
    return _word_image(word, PERM3_MATRICES, _mat_mul, _transpose, eye3) == eye3


# -- words --------------------------------------------------------------------


def _free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return out


def _cyclic_reduce(word):
    w = _free_reduce(word)
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def _random_reduced(rng, n, ngens=2):
    letters = [g for k in range(1, ngens + 1) for g in (k, -k)]
    w = []
    while len(w) < n:
        x = rng.choice(letters)
        if not w or w[-1] != -x:
            w.append(x)
    return w


def _inverse(word):
    return [-x for x in reversed(word)]


def exponent_sums(word):
    return tuple(sum((x > 0) - (x < 0) for x in word if abs(x) == g) for g in (1, 2))


def kernel_relator(rng, lo, hi):
    """A cyclically reduced word of length lo..hi with zero exponent sums
    that lies in the kernel of x1 -> (012), x2 -> (01).

    A product of random commutators has zero exponent sums and maps into
    A3; one [x1, x2] or [x2, x1] then cancels its image.
    """
    while True:
        w = []
        target = rng.randint(lo, hi)
        while len(w) < target:
            a = _random_reduced(rng, rng.randint(1, 3))
            b = _random_reduced(rng, rng.randint(1, 3))
            w = _free_reduce(w + a + b + _inverse(a) + _inverse(b))
        if not in_s3_kernel(w):
            fix = [1, 2, -1, -2]
            w = _free_reduce(w + (fix if in_s3_kernel(w + fix) else _inverse(fix)))
        w = _cyclic_reduce(w)
        if lo <= len(w) <= hi and in_s3_kernel(w) and exponent_sums(w) == (0, 0):
            return w


def long_relator(rng, lo, hi):
    """A cyclically reduced word of length lo..hi with zero exponent sums,
    so the free abelianization has rank 2 and every tropical set is planar."""
    while True:
        w = _random_reduced(rng, rng.randint(lo, hi))
        e1, e2 = exponent_sums(w)
        w += [-1 if e1 > 0 else 1] * abs(e1) + [-2 if e2 > 0 else 2] * abs(e2)
        w = _cyclic_reduce(w)
        if lo <= len(w) <= hi and exponent_sums(w) == (0, 0):
            return w


def word_text(word, names=("x1", "x2")):
    return " ".join(names[abs(x) - 1] + ("" if x > 0 else "^-1") for x in word)


def parse_word_text(text, names=("x1", "x2")):
    """Inverse of word_text."""
    return tuple((names.index(a[:-3]) + 1) * -1 if a.endswith("^-1") else names.index(a) + 1
                 for a in text.split())


# -- documents ----------------------------------------------------------------


def one_relator_document(name, word, reps):
    blocks = {
        "trivial": {"ring": "Z", "trivial": True},
        "s3": {"ring": "Z", "matrices": {f"x{g}": m for g, m in S3_MATRICES.items()}},
        "perm3": {"ring": "Z", "matrices": {f"x{g}": m for g, m in PERM3_MATRICES.items()}},
        "reg_s3": {"ring": "Z", "permutations": {f"x{g}": list(p) for g, p in S3_PERMS.items()}},
    }
    return {
        "name": name,
        "presentation": {"generators": ["x1", "x2"], "relators": [word_text(word)]},
        "representations": {r: blocks[r] for r in reps},
        "valuations": ["Z"],
    }


def raag_edges(rng):
    """A random weighted graph on 4 or 5 vertices with at most 6 edges
    (denser 5-vertex graphs cost seconds per job, not tenths)."""
    n = rng.choice((4, 5))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    m = rng.randint(n - 1, 6)
    return n, [(i, j, rng.choice((1, 1, 2, 3))) for i, j in sorted(rng.sample(pairs, m))]


def raag_document(name, n, edges):
    """The presentation ``fpgroup.build_weighted_raag(n, edges)`` builds:
    one relator [a_i, a_j]^weight per edge."""
    rels = []
    for i, j, w in edges:
        comm = f"a{i} a{j} a{i}^-1 a{j}^-1"
        rels.append(" ".join([comm] * w))
    return {
        "name": name,
        "presentation": {"generators": [f"a{i}" for i in range(1, n + 1)], "relators": rels},
        "representations": {"trivial": {"ring": "Z", "trivial": True}},
    }


def document_bytes(doc):
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


# -- jobs ---------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One unit of client work.

    ``doc`` is a generated document, or None for ``bundled`` (a document
    shipped with troplex).  ``command`` is the CLI subcommand, or
    ``"union"`` for the library call; ``args`` follow the document path.
    ``budget`` is the wall time after which the job is stopped and counted
    as a failed timeout: 6 s, three times the slowest job that finishes
    inside it, except where a job is known to need more.
    """

    id: str
    command: str
    args: tuple
    doc: dict | None = None
    bundled: str | None = None
    budget: float = 6.0

    def argv(self, path):
        return [self.command, path, *self.args]

    def key(self):
        """Content hash: the recorded output belongs to exactly this input."""
        h = hashlib.sha256()
        h.update(document_bytes(self.doc) if self.doc is not None else self.bundled.encode())
        h.update(json.dumps([self.command, list(self.args)]).encode())
        return h.hexdigest()


BOUND_SETTINGS = ("Z", "p-adic:3", "fp:2", "trivial")


def _delta_s3(rng, jid):
    w = kernel_relator(rng, 12, 24)
    ring = rng.choice(("Z", "Z", "fp:2", "fp:3", "fp:5", "fp:7"))
    args = ("--rep", "s3") + (() if ring == "Z" else ("--ring", ring))
    return Job(jid, "alexander", args, one_relator_document(jid, w, ["s3"]))


def _delta_perm3(rng, jid):
    # longer relators than the other classes: these 0.1-0.2 s jobs are
    # the bulk of the pass, so the median job is one of them
    w = kernel_relator(rng, 24, 32)
    ring = rng.choice(("Z", "Z", "fp:2", "fp:3", "fp:5", "fp:7"))
    args = ("--rep", "perm3") + (() if ring == "Z" else ("--ring", ring))
    return Job(jid, "alexander", args, one_relator_document(jid, w, ["perm3"]))


def _delta_kaehler(rng, jid):
    # s3 only: with perm3 the squarefree parts cost up to seconds a job
    w = kernel_relator(rng, 12, 24)
    args = ("--rep", "s3", "--fields", "q,fp:2,fp:3")
    return Job(jid, "kaehler-test", args, one_relator_document(jid, w, ["s3"]))


def _delta_raag(rng, jid):
    n, edges = raag_edges(rng)
    return Job(jid, "kaehler-test", ("--fields", "q,fp:2,fp:3"), raag_document(jid, n, edges))


def _delta_reg_s3(rng, jid):
    # about 11 s, 97% of it in 1848 6x6 determinants; the budget leaves room
    return Job(jid, "alexander", ("--rep", "reg_s3"), bundled="one_relator.json", budget=30.0)


def _bound_single(rng, jid):
    w = kernel_relator(rng, 12, 18)
    setting = rng.choice(BOUND_SETTINGS)
    args = ("--rep", "s3", "--rep", "trivial", "--valuation", setting)
    return Job(jid, "bns-bound", args, one_relator_document(jid, w, ["s3", "trivial"]))


def _bound_all(rng, jid):
    w = kernel_relator(rng, 12, 18)
    args = ("--rep", "s3", "--rep", "trivial")
    for s in BOUND_SETTINGS:
        args += ("--valuation", s)
    return Job(jid, "bns-bound", args, one_relator_document(jid, w, ["s3", "trivial"]))


def _bound_brown(rng, jid):
    args = ("--rep", "s3", "--rep", "trivial", "--fixture", "brown_one_relator")
    return Job(jid, "bns-bound", args, bundled="one_relator.json")


def _bound_reg_s3(rng, jid):
    return Job(jid, "bns-bound", ("--rep", "reg_s3"), bundled="one_relator.json")


def _trop_doc(rng, jid):
    return one_relator_document(jid, long_relator(rng, 60, 100), ["trivial"])


def _trop_z(rng, jid):
    doc = _trop_doc(rng, jid)
    return Job(jid, "trop", ("--rep", "trivial", "--valuation", "Z"), doc)


def _trop_padic(rng, jid):
    doc = _trop_doc(rng, jid)
    v = f"p-adic:{rng.choice((2, 3, 5))}"
    return Job(jid, "trop", ("--rep", "trivial", "--valuation", v), doc)


def _trop_fp(rng, jid):
    doc = _trop_doc(rng, jid)
    v = f"fp:{rng.choice((2, 3, 5))}"
    return Job(jid, "trop", ("--rep", "trivial", "--valuation", v), doc)


def _trop_contains(rng, jid):
    doc = _trop_doc(rng, jid)
    v = rng.choice(("Z", "trivial", "p-adic:2", "p-adic:3", "fp:2", "fp:3"))
    point = f"{rng.randint(-3, 3)},{rng.randint(-3, 3)}"
    return Job(jid, "trop", ("--rep", "trivial", "--valuation", v, f"--contains={point}"), doc)


def _trop_bound(rng, jid):
    doc = _trop_doc(rng, jid)
    args = ("--rep", "trivial")
    for s in ("Z", "p-adic:2", "p-adic:3", "fp:2"):
        args += ("--valuation", s)
    return Job(jid, "bns-bound", args, doc)


def _trop_union(rng, jid):
    return Job(jid, "union", (), _trop_doc(rng, jid))


# workload -> [(class, members, runs of each member per pass, maker)].  Why
# each workload and class is here is recorded in README.md.  The cheap
# classes run several times per pass, so that their samples, not the one
# dear job, make up most of a pass.  The tail sample (10 runs above it)
# falls among many members of graded cost (delta raag and perm3, bound
# single, trop fp and union), so that it does not rest on the runs of one
# or two jobs.
WORKLOADS = {
    "delta": [
        ("reg_s3", 1, 1, _delta_reg_s3),
        ("s3", 8, 2, _delta_s3),
        ("perm3", 24, 2, _delta_perm3),
        ("kaehler", 6, 2, _delta_kaehler),
        ("raag", 8, 2, _delta_raag),
    ],
    "bound": [
        ("reg_s3", 1, 1, _bound_reg_s3),
        ("brown", 1, 2, _bound_brown),
        ("single", 18, 2, _bound_single),
        ("all", 2, 2, _bound_all),
    ],
    "trop": [
        ("z", 26, 8, _trop_z),
        ("contains", 6, 8, _trop_contains),
        ("padic", 2, 1, _trop_padic),
        ("fp", 12, 4, _trop_fp),
        ("bound", 1, 4, _trop_bound),
        ("union", 3, 4, _trop_union),
    ],
}
# Wall time of one pass on one core of a shared 2-vCPU Xeon VM, Python
# 3.11; it varies by a quarter with the host's load.  trop's pass is the
# longest because its runs spread most from run to run.  A run makes
# round(seconds / PASS_SECONDS) passes, so that the number of samples never
# depends on the speed of the machine.
PASS_SECONDS = {"delta": 25.0, "bound": 25.0, "trop": 36.0}


def passes(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))


def member(workload, cls, k):
    maker = next(m for c, _, _, m in WORKLOADS[workload] if c == cls)
    jid = f"{workload}-{cls}-{k}"
    return maker(random.Random(jid), jid)


def members(workload):
    """Every member of every class once: the inputs record.py records."""
    return [member(workload, c, k) for c, count, _, _ in WORKLOADS[workload]
            for k in range(count)]


def generate(workload, seed):
    """One pass: every member, each run its class's number of times, in
    an order drawn from the seed.  The same seed gives the same jobs, byte
    for byte."""
    jobs = [member(workload, c, k) for c, count, runs, _ in WORKLOADS[workload]
            for k in range(count) for _ in range(runs)]
    random.Random(seed).shuffle(jobs)
    return jobs
