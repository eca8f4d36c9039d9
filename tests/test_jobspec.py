import io
from fractions import Fraction

import jsonschema
import pytest

from troplex import jobspec
from troplex.fpgroup import (
    AbelianEpi, Representation, build_orbifold, verify_representation, word_to_str,
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
    validate_document(doc54())  # and the happy path stays quiet


def test_schema_is_checked_once(monkeypatch):
    schema = jobspec._load_schema()
    cls = jsonschema.validators.validator_for(schema)
    checked = []
    check = cls.check_schema

    def counting(s, *args, **kwargs):
        checked.append(s)
        return check(s, *args, **kwargs)

    monkeypatch.setattr(jobspec, "_VALIDATOR", None)
    monkeypatch.setattr(cls, "check_schema", staticmethod(counting))
    validate_document(doc54())
    with pytest.raises(JobError, match="extra"):
        validate_document({**doc54(), "extra": 1})
    assert checked == [schema]


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
