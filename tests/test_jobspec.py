import ast
import inspect
import io
import json
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from troplex import fpgroup, jobspec
from troplex.fpgroup import (
    MAX_BUILT_SIZE, AbelianEpi, Representation, build_orbifold, verify_representation,
    word_to_str,
)
from troplex.jobspec import (
    JobError, JobSpec, bundled_path, dump_document, load_job,
    parse_field, parse_valuation, presentation_document, validate_document,
)
from troplex.rings import ZZ, QQ, GF, TRIVIAL, padic


def doc54():
    return {
        "name": "t",
        "presentation": {"generators": ["x1", "x2"], "relators": []},
    }


def test_bundled_documents_load():
    job = load_job(bundled_path("one_relator.json"))
    assert job.name == "one_relator"
    assert job.presentation.names == ["x1", "x2"]
    assert sorted(job.rep_specs) == ["reg_s3", "s3", "trivial"]
    assert job.valuations == ["Z"]
    orb = load_job(bundled_path("orbifold_g2.json"))
    assert orb.presentation.ngens == 4 and len(orb.presentation.relators) == 1
    wr = load_job(bundled_path("wraag_k4.json"))
    assert wr.presentation.ngens == 4
    assert wr.representation("trivial").rank == 1


def test_load_job_io_errors(tmp_path):
    with pytest.raises(JobError, match="cannot read"):
        load_job(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(JobError, match="not valid JSON"):
        load_job(bad)


def test_schema_rejects_unknown_and_malformed_fields():
    with pytest.raises(JobError, match=r"invalid job document at \(root\)"):
        validate_document({**doc54(), "extra": 1})
    with pytest.raises(JobError, match="presentation/generators/0"):
        validate_document({"presentation": {"generators": ["1x"], "relators": []}})
    with pytest.raises(JobError, match="ring"):
        validate_document({**doc54(), "representations": {"r": {"ring": "R", "trivial": True}}})
    with pytest.raises(JobError, match="valuations"):
        validate_document({**doc54(), "valuations": ["7-adic"]})
    with pytest.raises(JobError):  # floats are not matrix entries
        validate_document({**doc54(), "representations": {
            "r": {"ring": "Q", "matrices": {"x1": [[1.5]], "x2": [[1]]}}}})
    assert validate_document(doc54()) == doc54()  # and the happy path stays quiet
    # 2.0 is an integer in JSON Schema
    validate_document({**doc54(), "phis": {"p": {"x1": [2.0], "x2": [1]}}})


def test_integral_floats_in_integer_slots_come_back_as_ints():
    doc = {**doc54(), "phis": {"p": {"x1": [1.0, -0.0], "x2": [1, 1.0]}}, "representations": {
        "t": {"trivial": True, "rank": 2.0},
        "m": {"ring": "Q", "matrices": {"x1": [[-1.0, "1.0"]], "x2": [[1]]}},
        "p": {"permutations": {"x1": [1.0, 0], "x2": [0, 1]}},
    }}
    out = validate_document(doc)
    assert out == doc
    numbers = [value for _, value in nodes(out) if type(value) in (int, float)]
    assert len(numbers) == 11 and {type(value) for value in numbers} == {int}
    assert out["representations"]["m"]["matrices"]["x1"] == [[-1, "1.0"]]
    assert doc["representations"]["t"]["rank"] == 2.0  # doc itself is left alone
    job = JobSpec(doc)
    assert job.doc == out and job.representation("t").rank == 2
    assert job.phi("p").vectors == [(1, 0), (1, 1)]


def test_the_schema_cannot_outrun_the_walk():
    # every keyword of the published schema is one that the walk reads;
    # the annotations $schema and title, and $defs (read through $ref), aside
    def keywords(schema):
        for key, value in schema.items():
            yield key
            if key in ("properties", "$defs"):
                for inner in value.values():
                    yield from keywords(inner)
            elif isinstance(value, dict):
                yield from keywords(value)

    walk = ast.parse(inspect.getsource(jobspec._walk))
    read = {node.value for node in ast.walk(walk) if isinstance(node, ast.Constant)}
    used = set(keywords(published_schema())) - {"$schema", "title", "$defs"}
    assert used == {"type", "pattern", "minimum", "minItems", "items", "properties",
                    "required", "additionalProperties", "$ref"}
    assert used <= read


def test_relator_letters_are_counted_before_they_are_expanded(deadline):
    # two generators and x1^k: 2 + |k| generators and relator letters
    def job(*relators):
        doc = doc54()
        doc["presentation"]["relators"] = list(relators)
        return JobSpec(doc)

    assert len(job(f"x1^{MAX_BUILT_SIZE - 2}").presentation.relators[0]) == MAX_BUILT_SIZE - 2
    assert len(job("x1^-3 x2", f"x2^{MAX_BUILT_SIZE - 6}").presentation.relators[1]) == (
        MAX_BUILT_SIZE - 6)
    with pytest.raises(JobError, match=f"have {MAX_BUILT_SIZE + 1} generators and relator letters"):
        job("x1^-3 x2", f"x2^{MAX_BUILT_SIZE - 5}")
    with deadline(2), pytest.raises(JobError, match="at most 100000"):
        job("x1^1000000000000")
    # a bad exponent or name is still named as parse_word names it
    with pytest.raises(JobError, match=r"bad exponent in 'x1\^'"):
        job("x1^ x2")
    with pytest.raises(JobError, match="unknown generator 'x3'"):
        job("x3 x1^y")


def test_relator_letters_are_counted_in_parse_words_grammar():
    names = ["x1", "x2"]
    for word in ("x1^+2 x2^-3 x1^007", "x1^0 x2", "x1 x2^1 x1^-1"):
        assert jobspec._letters(word) == len(fpgroup.parse_word(word, names)), word
    # int() reads 1_000 and the Arabic-Indic digits; the grammar does not,
    # so each such atom counts 1 and parse_word refuses it by name
    assert jobspec._letters("x1^1_000 x2^\u0663\u0663 x2^3") == 5
    doc = doc54()
    doc["presentation"]["relators"] = ["x2 x1^1_000"]
    with pytest.raises(JobError, match="bad exponent in 'x1\\^1_000'"):
        JobSpec(doc)


def trivial_document(ngens, rank):
    doc = doc54()
    doc["presentation"]["generators"] = [f"g{i}" for i in range(ngens)]
    doc["representations"] = {"t": {"trivial": True, "rank": rank}}
    return JobSpec(doc)


def test_a_trivial_rank_is_refused_before_anything_is_built(monkeypatch, deadline):
    # rank^2 matrix entries per generator, against MAX_BUILT_SIZE = 10^5
    built = []
    monkeypatch.setattr(fpgroup.Representation, "trivial",
                        lambda ring, ngens, rank: built.append((ngens, rank)))
    for ngens, rank, size in ((10, 100, MAX_BUILT_SIZE), (10, 101, 102010),
                              (1000, 10, MAX_BUILT_SIZE), (1001, 10, 100100)):
        spec = trivial_document(ngens, rank)
        if size <= MAX_BUILT_SIZE:
            spec.representation("t")
            assert built.pop() == (ngens, rank)
        else:
            with pytest.raises(JobError) as err:
                spec.representation("t")
            assert str(err.value) == (
                f"representation 't' would have {size} matrix entries, rank^2 per "
                f"generator (at most {MAX_BUILT_SIZE})")
    assert built == []
    monkeypatch.undo()
    with deadline(2), pytest.raises(JobError, match="would have 10000000000000000000 matrix"):
        trivial_document(10, 10**9).representation("t")


def published_schema():
    return json.loads(bundled_path("schema.json").read_text())


def oracle():
    """jsonschema's validator for the published schema, which the walk in
    jobspec transcribes; a test dependency only, so its tests skip
    without it."""
    jsonschema = pytest.importorskip("jsonschema")
    return jsonschema.Draft202012Validator(published_schema())


def test_published_schema_is_valid():
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.Draft202012Validator.check_schema(published_schema())


def bundled_documents():
    return [json.loads(bundled_path(name).read_text())
            for name in ("one_relator.json", "orbifold_g2.json", "wraag_k4.json")]


def nodes(value, path=()):
    """(path, value) for value, at (), and for every value inside it."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from nodes(inner, path + (key,))


def replaced(value, path, new):
    """A copy of value with new at path."""
    if not path:
        return new
    head, *rest = path
    out = dict(value) if isinstance(value, dict) else list(value)
    out[head] = replaced(value[head], rest, new)
    return out


# one value of each JSON type, with a bool, an integral and a fractional float
OTHER_TYPES = [None, True, False, 0, -1, 2.0, 1.5, "", "x1", [], [1], {}, {"x1": 1}]


def mutations(value):
    """Replacements for value: each JSON type, and edits that may cross a
    pattern, a minimum or minItems, or drop or add a key."""
    out = list(OTHER_TYPES)
    if isinstance(value, bool):
        out += [not value, int(value)]
    elif isinstance(value, int):
        out += [value - 1, -value, float(value), value + 0.5]
    elif isinstance(value, str):
        out += [value[:-1], value[1:], value + "1", "1" + value, value + " ",
                value + ":", "fp:" + value, "p-adic:" + value]
    elif isinstance(value, list):
        out += [value[:-1], value + value[:1]]
    elif isinstance(value, dict):
        out += [{k: v for k, v in value.items() if k != key} for key in value]
        out += [{**value, "extra": 1}, {**value, "extra": 1, "more": []}]
    return out


def assert_agrees(validator, doc):
    """The walk refuses doc exactly when jsonschema does, and names a sole
    error as jsonschema does."""
    errors = list(validator.iter_errors(doc))
    try:
        validate_document(doc)
    except JobError as e:
        assert errors, (doc, e)
        if len(errors) == 1:
            where = "/".join(str(p) for p in errors[0].absolute_path) or "(root)"
            assert str(e) == f"invalid job document at {where}: {errors[0].message}"
    else:
        assert not errors, (doc, errors)


def assert_every_mutation_agrees(validator, doc, extra=lambda: []):
    """assert_agrees on doc and on each of its mutations at each place;
    extra() gives more replacements for each place."""
    assert_agrees(validator, doc)
    for path, value in nodes(doc):
        for new in mutations(value) + extra():
            assert_agrees(validator, replaced(doc, path, new))


def test_the_walk_agrees_with_jsonschema_on_the_bundled_documents():
    validator = oracle()
    for doc in bundled_documents():
        assert_every_mutation_agrees(validator, doc)


# a final newline is the one place where the walk and jsonschema differ
# (test_a_final_newline_breaks_a_pattern in test_cli), so no string has one
TEXT = st.text(st.sampled_from("xyzZQ019_':-p adic fp"), max_size=8)
NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_']{0,3}", fullmatch=True)
INTEGERS = st.one_of(st.integers(-3, 3), st.sampled_from([10**20, -(10**20)]))
JSON = st.recursive(
    st.one_of(INTEGERS, st.booleans(), st.none(), TEXT, st.floats(allow_nan=False)),
    lambda inner: st.one_of(st.lists(inner, max_size=2),
                            st.dictionaries(TEXT, inner, max_size=2)),
    max_leaves=4)


def documents():
    """Job documents that satisfy the schema (not always JobSpec)."""
    representation = st.fixed_dictionaries({}, optional={
        "ring": st.sampled_from(["Z", "Q", "fp:2", "fp:13"]),
        "trivial": st.booleans(),
        "rank": st.integers(1, 3),
        "matrices": st.dictionaries(NAMES, st.lists(
            st.lists(st.one_of(INTEGERS, TEXT), max_size=2), max_size=2), max_size=2),
        "permutations": st.dictionaries(
            NAMES, st.lists(st.integers(0, 3), max_size=3), max_size=2),
    })
    presentation = st.fixed_dictionaries({
        "generators": st.lists(NAMES, min_size=1, max_size=3),
        "relators": st.lists(TEXT, max_size=2),
    })
    return st.fixed_dictionaries({"presentation": presentation}, optional={
        "name": TEXT,
        "representations": st.dictionaries(TEXT, representation, max_size=2),
        "phis": st.dictionaries(TEXT, st.dictionaries(
            NAMES, st.lists(INTEGERS, max_size=2), max_size=2), max_size=2),
        "valuations": st.lists(
            st.sampled_from(["Z", "trivial", "p-adic:3", "fp:7"]), max_size=3),
    })


# an example checks hundreds of mutated documents, so shrinking a failure
# would take minutes; the failing assertion shows the document instead
@settings(max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(documents(), st.data())
def test_the_walk_agrees_with_jsonschema(doc, data):
    # the mutations of the bundled documents, and one arbitrary JSON value,
    # at each place of a generated document
    assert_every_mutation_agrees(oracle(), doc, lambda: [data.draw(JSON)])


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("presentation"), "(root): 'presentation' is a required property"),
    (lambda d: d["presentation"].pop("relators"),
     "presentation: 'relators' is a required property"),
    (lambda d: d.update(extra=1),
     "(root): Additional properties are not allowed ('extra' was unexpected)"),
    (lambda d: d["representations"]["s3"].update(rank=0),
     "representations/s3/rank: 0 is less than the minimum of 1"),
    (lambda d: d["representations"]["s3"].update(rank=True),
     "representations/s3/rank: True is not of type 'integer'"),
    (lambda d: d["representations"]["reg_s3"]["permutations"]["x1"].__setitem__(0, -1),
     "representations/reg_s3/permutations/x1/0: -1 is less than the minimum of 0"),
    (lambda d: d["representations"]["s3"]["matrices"]["x1"][0].__setitem__(0, 0.5),
     "representations/s3/matrices/x1/0/0: 0.5 is not of type 'integer', 'string'"),
    (lambda d: d["presentation"].update(generators=[]),
     "presentation/generators: [] should be non-empty"),
    (lambda d: d["representations"]["s3"].update(ring="fp:"),
     "representations/s3/ring: 'fp:' does not match '^(Z|Q|fp:[0-9]+)$'"),
], ids=["required", "required-inner", "unknown-key", "rank-0", "bool-rank",
        "negative-permutation", "float-entry", "no-generators", "ring-pattern"])
def test_one_error_is_named_as_jsonschema_names_it(mutate, message):
    # the mutations that the property draws at random, each pinned once
    doc = bundled_documents()[0]
    mutate(doc)
    with pytest.raises(JobError) as exc:
        validate_document(doc)
    assert str(exc.value) == f"invalid job document at {message}"


def test_bad_relator_word():
    doc = doc54()
    doc["presentation"]["relators"] = ["x1 x3^-1"]
    with pytest.raises(JobError, match="x3"):
        JobSpec(doc)


def test_rep_spec_exactly_one_kind():
    doc = doc54()
    doc["representations"] = {"r": {"ring": "Z", "trivial": True,
                                    "matrices": {"x1": [[1]], "x2": [[1]]}}}
    with pytest.raises(JobError, match="exactly one"):
        JobSpec(doc)
    doc["representations"] = {"r": {"ring": "Z"}}
    with pytest.raises(JobError, match="exactly one"):
        JobSpec(doc)
    doc["representations"] = {"r": {"ring": "Z", "trivial": False}}
    with pytest.raises(JobError, match="trivial must be true"):
        JobSpec(doc)


def test_trivial_rep_build():
    doc = doc54()
    doc["representations"] = {"t3": {"ring": "fp:3", "trivial": True, "rank": 2}}
    rep = JobSpec(doc).representation("t3")
    assert rep.rank == 2 and rep.ring == GF(3)
    assert rep.mats[0] == rep.identity()


def test_matrix_rep_build_and_entry_parsing():
    doc = doc54()
    doc["representations"] = {
        "m": {"ring": "Q", "matrices": {"x1": [["1/2"]], "x2": [[3]]}},
    }
    rep = JobSpec(doc).representation("m")
    assert rep.mats[0][0][0] == Fraction(1, 2)
    assert rep.mats[1][0][0] == Fraction(3)

    doc["representations"] = {
        "m": {"ring": "Z", "matrices": {"x1": [["1/2"]], "x2": [[1]]}},
    }
    with pytest.raises(JobError, match="not an element of Z"):
        JobSpec(doc).representation("m")

    doc["representations"] = {
        "m": {"ring": "Z", "matrices": {"x1": [["huh"]], "x2": [[1]]}},
    }
    with pytest.raises(JobError, match="bad matrix entry"):
        JobSpec(doc).representation("m")

    doc["representations"] = {"m": {"ring": "Z", "matrices": {"x1": [[1]]}}}
    with pytest.raises(JobError, match="no matrix for generator 'x2'"):
        JobSpec(doc).representation("m")

    doc["representations"] = {
        "m": {"ring": "Z", "matrices": {"x1": [[1]], "x2": [[1]], "x9": [[1]]}},
    }
    with pytest.raises(JobError, match="unknown"):
        JobSpec(doc).representation("m")


def test_matrix_rep_must_satisfy_relators():
    # building a matrix representation checks the relators, as building a
    # permutation one does
    job = load_job(bundled_path("one_relator.json"))
    doc = {
        "name": "bad",
        "presentation": dict(job.doc["presentation"]),
        "representations": {
            "shear": {"ring": "Z", "matrices": {"x1": [[1, 1], [0, 1]],
                                                "x2": [[0, 1], [1, 0]]}},
        },
    }
    with pytest.raises(JobError, match="representation 'shear': the matrices "
                                        "do not satisfy the relators"):
        JobSpec(doc).representation("shear")
    shear = Representation(ZZ, [[[1, 1], [0, 1]], [[0, 1], [1, 0]]])
    assert not verify_representation(job.presentation, shear)
    assert verify_representation(job.presentation, job.representation("s3"))


def test_permutation_rep_build(monkeypatch):
    job = load_job(bundled_path("one_relator.json"))
    reg = job.representation("reg_s3")
    assert reg.rank == 6
    assert verify_representation(job.presentation, reg)
    # same block, broken permutation
    doc = dict(job.doc)
    doc["representations"] = {
        "p": {"ring": "Z", "permutations": {"x1": [0, 0, 1], "x2": [0, 1, 2]}},
    }
    with pytest.raises(JobError, match="not a permutation"):
        JobSpec(doc).representation("p")
    monkeypatch.setenv("TROPLEX_MAX_QUOTIENT", "2")
    with pytest.raises(JobError, match="exceeds 2 elements"):
        job.representation("reg_s3")


def test_unknown_names_list_what_exists():
    job = load_job(bundled_path("one_relator.json"))
    with pytest.raises(JobError, match="document defines reg_s3, s3, trivial"):
        job.representation("bogus")
    with pytest.raises(JobError, match=r"document defines \(none\)"):
        job.phi("diag")


def test_phi_ab_and_named():
    job = load_job(bundled_path("one_relator.json"))
    phi = job.phi("ab")
    assert isinstance(phi, AbelianEpi)
    assert phi.m == 2
    doc = doc54()
    doc["phis"] = {"sum": {"x1": [1], "x2": [1]}}
    job2 = JobSpec(doc)
    psi = job2.phi("sum")
    assert psi.m == 1 and psi.vectors == [(1,), (1,)]
    doc["phis"] = {"sum": {"x1": [1]}}
    with pytest.raises(JobError, match="no vector for generator 'x2'"):
        JobSpec(doc).phi("sum")
    doc["phis"] = {"sum": {"x1": [1], "x2": [1], "zz": [0]}}
    with pytest.raises(JobError, match="unknown generators"):
        JobSpec(doc).phi("sum")
    doc["phis"] = {"sum": {"x1": [2], "x2": [2]}}  # image 2Z, not onto
    with pytest.raises(JobError):
        JobSpec(doc).phi("sum")


@pytest.mark.parametrize("kind, block, message", [
    ("matrices", {"x1": [[1]]},
     "representation 'r': no matrix for generator 'x2'"),
    ("matrices", {"x1": [[1]], "x2": [[1]], "z": [[1]]},
     "representation 'r': matrices for unknown generators ['z']"),
    ("permutations", {"x2": [0]},
     "representation 'r': no permutation for generator 'x1'"),
    ("permutations", {"x1": [0], "x2": [0], "z": [0], "y": [0]},
     "representation 'r': permutations for unknown generators ['y', 'z']"),
    ("phis", {"x1": [1]}, "phi 'r': no vector for generator 'x2'"),
    ("phis", {"x1": [1], "x2": [0], "z": [0]},
     "phi 'r': vectors for unknown generators ['z']"),
])
def test_per_generator_lookup_messages(kind, block, message):
    doc = doc54()
    if kind == "phis":
        doc["phis"] = {"r": block}
        build = lambda job: job.phi("r")
    else:
        doc["representations"] = {"r": {"ring": "Z", kind: block}}
        build = lambda job: job.representation("r")
    with pytest.raises(JobError) as exc:
        build(JobSpec(doc))
    assert str(exc.value) == message


def test_parse_valuation():
    assert parse_valuation("Z") == (None, "Z")
    assert parse_valuation("trivial") == (None, TRIVIAL)
    assert parse_valuation("p-adic:7") == (None, padic(7))
    assert parse_valuation("fp:5") == (5, TRIVIAL)
    with pytest.raises(ValueError):
        parse_valuation("p-adic:4")
    with pytest.raises(ValueError):
        parse_valuation("fp:4")
    with pytest.raises(JobError, match="unknown valuation"):
        parse_valuation("bogus")


def test_parse_field():
    assert parse_field("q") == QQ and parse_field("Q") == QQ
    assert parse_field("fp:7") == GF(7)
    with pytest.raises(JobError, match="unknown field"):
        parse_field("r")


def test_presentation_document_round_trip():
    orb = build_orbifold(1, [2, 3])
    doc = presentation_document("orb_1_23", orb)
    job = JobSpec(doc)
    assert job.presentation.names == orb.names
    assert [word_to_str(r, orb.names) for r in job.presentation.relators] == [
        word_to_str(r, orb.names) for r in orb.relators
    ]
    assert job.representation("trivial").rank == 1


def test_dump_document_is_deterministic():
    doc = presentation_document("d", build_orbifold(2, []))
    a, b = io.StringIO(), io.StringIO()
    dump_document(doc, a)
    dump_document({k: doc[k] for k in reversed(list(doc))}, b)
    assert a.getvalue() == b.getvalue()
    assert a.getvalue().endswith("\n")
