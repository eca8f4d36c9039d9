"""Job documents: a single JSON file describing a presentation plus
optional representations, characters, and coefficient settings.

Checked before any computation by a walk of the bundled schema
(data/schema.json); unknown fields are rejected so typos fail loudly
instead of being ignored.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import resources

from . import fpgroup
from .rings import GF, QQ, TRIVIAL, padic, ring_from_tag


class JobError(ValueError):
    """Bad input document (schema violation or inconsistent contents)."""


# -- the schema, transcribed ------------------------------------------------
# Each check takes (value, path) and raises JobError with jsonschema's
# message for the first violation it meets.  A pattern matches the whole
# string, since draft 2020-12's "$" does not match before a final newline.


def _refuse(path, message):
    where = "/".join(str(p) for p in path) or "(root)"
    raise JobError(f"invalid job document at {where}: {message}")


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}


def _is(x, name):
    if name == "integer":  # no fractional part, so 2.0 too, but not a bool
        return isinstance(x, float) and x.is_integer() or (
            isinstance(x, int) and not isinstance(x, bool))
    return isinstance(x, _TYPES[name])


def _value(*names, pattern=None, minimum=None):
    match = pattern and re.compile(pattern).fullmatch
    def check(x, path):
        if not any(_is(x, name) for name in names):
            _refuse(path, f"{x!r} is not of type {', '.join(map(repr, names))}")
        if match and not match(x):
            _refuse(path, f"{x!r} does not match {pattern!r}")
        if minimum is not None and x < minimum:
            _refuse(path, f"{x!r} is less than the minimum of {minimum!r}")
    return check


def _array(items, non_empty=False):
    def check(x, path):
        _ARRAY(x, path)
        if non_empty and not x:
            _refuse(path, "[] should be non-empty")
        for i, item in enumerate(x):
            items(item, path + (i,))
    return check


def _object(properties, additional=None, required=()):
    """An object; properties check their keys' values, additional every
    other key's, and with additional None there is no other key."""
    def check(x, path):
        _OBJECT(x, path)
        extra = sorted((k for k in x if k not in properties), key=str)
        if extra and additional is None:
            _refuse(path, "Additional properties are not allowed (%s %s unexpected)" % (
                ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were"))
        for key in required:
            if key not in x:
                _refuse(path, f"{key!r} is a required property")
        for key, value in x.items():
            properties.get(key, additional)(value, path + (key,))
    return check


_ARRAY, _OBJECT = _value("array"), _value("object")
_DOCUMENT = _object({
    "name": _value("string"),
    "presentation": _object({
        "generators": _array(_value("string", pattern="^[A-Za-z_][A-Za-z0-9_']*$"),
                             non_empty=True),
        "relators": _array(_value("string")),
    }, required=("generators", "relators")),
    "representations": _object({}, additional=_object({  # $defs/representation
        "ring": _value("string", pattern="^(Z|Q|fp:[0-9]+)$"),
        "trivial": _value("boolean"),
        "rank": _value("integer", minimum=1),
        "matrices": _object({}, additional=_array(_array(_value("integer", "string")))),
        "permutations": _object({}, additional=_array(_value("integer", minimum=0))),
    })),
    "phis": _object({}, additional=_object({}, additional=_array(_value("integer")))),
    "valuations": _array(_value("string", pattern="^(trivial|Z|p-adic:[0-9]+|fp:[0-9]+)$")),
}, required=("presentation",))


def validate_document(doc):
    """Raise JobError naming where and how doc breaks the bundled schema."""
    _DOCUMENT(doc, ())


def _parse_entry(ring, x):
    """Matrix entries are JSON integers or strings like "3" or "-1/3"."""
    if isinstance(x, int):
        return ring.check(x)
    if isinstance(x, str):
        try:
            val = Fraction(x.strip())
        except (ValueError, ZeroDivisionError):
            raise JobError(f"bad matrix entry {x!r}") from None
        if ring.kind == "Q":
            return ring.check(val)
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
                raise JobError(f"{owner}: the matrices do not satisfy the relators")
            return rep
        blk = self.block["permutations"]
        blocks = _per_generator(blk, pres.names, owner, "permutation", "permutations")
        try:
            return fpgroup.regular_representation(pres, blocks, ring=ring)
        except ValueError as e:
            raise JobError(f"{owner}: {e}") from None


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
