"""Job documents: a single JSON file describing a presentation plus
optional representations, characters, and coefficient settings.

Validated against the bundled schema before any computation; unknown
fields are rejected so typos fail loudly instead of being ignored.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

import jsonschema

from . import fpgroup
from .rings import GF, QQ, TRIVIAL, padic, ring_from_tag


class JobError(ValueError):
    """Bad input document (schema violation or inconsistent contents)."""


def _load_schema():
    with resources.files("troplex.data").joinpath("schema.json").open("rb") as fh:
        return json.load(fh)


_VALIDATOR = None


def _validator():
    """The bundled schema's validator, built and its schema checked once."""
    global _VALIDATOR
    if _VALIDATOR is None:
        schema = _load_schema()
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        _VALIDATOR = cls(schema)
    return _VALIDATOR


def validate_document(doc):
    e = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if e is not None:
        path = "/".join(str(p) for p in e.absolute_path) or "(root)"
        raise JobError(f"invalid job document at {path}: {e.message}")


def _parse_entry(ring, x):
    """Matrix entries are JSON integers or strings like "3" or "-1/3"."""
    if isinstance(x, int):
        return ring.check(Fraction(x) if ring.kind == "Q" else x)
    if isinstance(x, str):
        try:
            val = Fraction(x.strip())
        except (ValueError, ZeroDivisionError):
            raise JobError(f"bad matrix entry {x!r}") from None
        if ring.kind == "Q":
            return val
        if val.denominator != 1:
            raise JobError(f"entry {x!r} is not an element of {ring!r}")
        return ring.check(int(val))
    raise JobError(f"bad matrix entry {x!r}")


def _per_generator(block, names, owner, one, many):
    """The values of block in generator order; a generator without a value,
    or a value for no generator, is a JobError naming owner."""
    for gname in names:
        if gname not in block:
            raise JobError(f"{owner}: no {one} for generator {gname!r}")
    extra = set(block) - set(names)
    if extra:
        raise JobError(f"{owner}: {many} for unknown generators {sorted(extra)}")
    return [block[gname] for gname in names]


class RepSpec:
    """Deferred representation: built against a presentation on demand,
    and refused unless every relator maps to the identity."""

    def __init__(self, name, block):
        self.name = name
        self.block = block
        keys = [k for k in ("trivial", "matrices", "permutations") if k in block]
        if len(keys) != 1:
            raise JobError(
                f"representation {name!r} needs exactly one of "
                "trivial/matrices/permutations"
            )
        self.kind = keys[0]
        if self.kind == "trivial" and not block["trivial"]:
            raise JobError(f"representation {name!r}: trivial must be true")

    def ring(self):
        return ring_from_tag(self.block.get("ring", "Z"))

    def build(self, pres):
        ring = self.ring()
        if self.kind == "trivial":
            rank = self.block.get("rank", 1)
            return fpgroup.Representation.trivial(ring, pres.ngens, rank=rank)
        owner = f"representation {self.name!r}"
        if self.kind == "matrices":
            blk = self.block["matrices"]
            raws = _per_generator(blk, pres.names, owner, "matrix", "matrices")
            mats = [[[_parse_entry(ring, x) for x in row] for row in raw] for raw in raws]
            rep = fpgroup.Representation(ring, mats)
            if not fpgroup.verify_representation(pres, rep):
                raise JobError(
                    f"representation {self.name!r}: the matrices do not "
                    "satisfy the relators"
                )
            return rep
        blk = self.block["permutations"]
        blocks = _per_generator(blk, pres.names, owner, "permutation", "permutations")
        perms = [tuple(b) for b in blocks]
        deg = len(perms[0])
        for p in perms:
            if sorted(p) != list(range(deg)):
                raise JobError(
                    f"representation {self.name!r}: {list(p)} is not a "
                    f"permutation of 0..{deg - 1}"
                )
        return fpgroup.regular_representation(pres, perms, ring=ring)


class JobSpec:
    def __init__(self, doc):
        validate_document(doc)
        self.doc = doc
        self.name = doc.get("name", "")
        p = doc["presentation"]
        names = p["generators"]
        try:
            relators = [fpgroup.parse_word(w, names) for w in p["relators"]]
            self.presentation = fpgroup.Presentation(names, relators)
        except ValueError as e:
            raise JobError(str(e)) from None
        self.rep_specs = {
            name: RepSpec(name, block)
            for name, block in doc.get("representations", {}).items()
        }
        self.phi_blocks = doc.get("phis", {})
        self.valuations = doc.get("valuations", [])

    def __eq__(self, other):
        return isinstance(other, JobSpec) and self.doc == other.doc

    def representation(self, name):
        if name not in self.rep_specs:
            known = sorted(self.rep_specs) or ["(none)"]
            raise JobError(
                f"unknown representation {name!r}; document defines {', '.join(known)}"
            )
        try:
            return self.rep_specs[name].build(self.presentation)
        except ValueError as e:
            raise JobError(str(e)) from None

    def phi(self, name):
        """A named character lattice map, or 'ab' for the full free
        abelianization."""
        if name == "ab":
            return fpgroup.AbelianEpi.from_abelianization(self.presentation)
        if name not in self.phi_blocks:
            known = sorted(self.phi_blocks) or ["(none)"]
            raise JobError(f"unknown phi {name!r}; document defines {', '.join(known)}")
        blk, names = self.phi_blocks[name], self.presentation.names
        blocks = _per_generator(blk, names, f"phi {name!r}", "vector", "vectors")
        vectors = [tuple(b) for b in blocks]
        try:
            return fpgroup.AbelianEpi(self.presentation, vectors)
        except ValueError as e:
            raise JobError(str(e)) from None


def parse_valuation(text):
    """Coefficient-setting strings: 'Z', 'trivial', 'p-adic:P', 'fp:P'.

    Returns (p, mode): mode is "Z" (integer tropicalization) or a
    Valuation, and p is the prime of 'fp:P' and None otherwise.  'fp:P'
    gives (P, TRIVIAL): reduce the representation mod P, then use the
    trivial valuation there.
    """
    if text == "Z":
        return None, "Z"
    if text == "trivial":
        return None, TRIVIAL
    try:
        if text.startswith("p-adic:"):
            return None, padic(int(text[7:]))
        if text.startswith("fp:"):
            return GF(int(text[3:])).p, TRIVIAL
    except ValueError as e:
        raise JobError(str(e)) from None
    raise JobError(f"unknown valuation {text!r} (want Z, trivial, p-adic:P, or fp:P)")


def parse_field(text):
    """Field tags for the obstruction test: 'q' or 'fp:P'."""
    if text in ("q", "Q"):
        return QQ
    if text.startswith("fp:"):
        return GF(int(text[3:]))
    raise JobError(f"unknown field {text!r} (want q or fp:P)")


def load_job(path):
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise JobError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise JobError(f"{path} is not valid JSON: {e}") from None
    return JobSpec(doc)


def bundled_path(name):
    """Filesystem path of a bundled example document."""
    return resources.files("troplex.data").joinpath(name)


def presentation_document(name, pres):
    """A job document for a presentation built by a generator command."""
    doc = {
        "name": name,
        "presentation": {
            "generators": list(pres.names),
            "relators": [fpgroup.word_to_str(rel, pres.names) for rel in pres.relators],
        },
        "representations": {"trivial": {"ring": "Z", "trivial": True}},
    }
    validate_document(doc)
    return doc


def dump_document(doc, fh):
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")
