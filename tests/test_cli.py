import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import troplex
from troplex.cli import build_parser, main
from troplex.jobspec import bundled_path, load_job

EX = str(bundled_path("one_relator.json"))
ORB = str(bundled_path("orbifold_g2.json"))
WR = str(bundled_path("wraag_k4.json"))


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def json_head(out):
    """bns-bound prints a JSON document, a blank line, then prose."""
    return json.loads(out.split("\n\n", 1)[0])


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "troplex 0.1.0\n"


def test_alexander_goldens(capsys):
    assert run(capsys, "alexander", EX, "--rep", "s3") == (
        0, "1 - 2*t1 + t1^2 - 3*t2^2\n", "")
    assert run(capsys, "alexander", EX, "--rep", "trivial") == (0, "1 - t1\n", "")
    assert run(capsys, "alexander", EX, "--rep", "s3", "--ring", "fp:3") == (
        0, "1 + t1 + t1^2\n", "")
    assert run(capsys, "alexander", EX, "--rep", "s3", "--ring", "fp:3",
               "--squarefree") == (0, "1 + 2*t1\n", "")


def test_trop_tsv_integral(capsys):
    rc, out, err = run(capsys, "trop", EX, "--rep", "s3", "--valuation", "Z")
    assert rc == 0 and err == ""
    assert out.splitlines() == [
        "ray\t0\t0\t-1\t-1\t.\t.\t0,2;2,0",
        "ray\t0\t0\t0\t1\t.\t.\t0,0;1,0;2,0",
        "ray\t0\t0\t1\t0\t.\t.\t0,0;0,2",
        "cone2\t0\t0\t-1\t-1\t1\t0\t0,2",
    ]


def test_trop_tsv_valued_field(capsys):
    rc, out, err = run(capsys, "trop", EX, "--rep", "s3", "--valuation", "p-adic:3")
    assert rc == 0
    assert out.splitlines() == [
        "ray\t0\t-1/2\t-1\t-1\t.\t.\t0,2;2,0",
        "ray\t0\t-1/2\t0\t1\t.\t.\t0,0;1,0;2,0",
        "ray\t0\t-1/2\t1\t0\t.\t.\t0,0;0,2",
    ]
    rc, out, err = run(capsys, "trop", EX, "--rep", "trivial", "--valuation", "trivial")
    assert rc == 0
    assert out.splitlines() == [
        "ray\t0\t0\t0\t-1\t.\t.\t0,0;1,0",
        "ray\t0\t0\t0\t1\t.\t.\t0,0;1,0",
    ]


def test_trop_contains(capsys, tmp_path):
    assert run(capsys, "trop", EX, "--rep", "s3", "--valuation", "Z",
               "--contains", "1,-1") == (0, "yes\n", "")
    assert run(capsys, "trop", EX, "--rep", "s3", "--valuation", "Z",
               "--contains", "5,1") == (0, "no\n", "")
    # zero polynomial: every point is a member, but there is no finite cell list
    assert run(capsys, "trop", ORB, "--rep", "trivial", "--valuation", "Z",
               "--contains", "1,2,0,-1") == (0, "yes\n", "")
    rc, out, err = run(capsys, "trop", ORB, "--rep", "trivial", "--valuation", "Z")
    assert rc == 3 and out == ""
    assert err == "degenerate: Delta = 0, tropical set is all of R^4\n"
    # <x1, x2 | x1^2, x2^2> has a finite abelianization, so phi has rank 0
    # and the empty point is its only character; Delta = 2, and 0 over F_2
    path = write_document(tmp_path, "z2z2", ["x1", "x2"], ["x1^2", "x2^2"],
                          trivial={"ring": "Z", "trivial": True})
    assert run(capsys, "alexander", path, "--rep", "trivial") == (0, "2\n", "")
    for setting, member in (("Z", "yes"), ("trivial", "no"), ("p-adic:2", "no"),
                            ("fp:2", "yes")):
        assert run(capsys, "trop", path, "--rep", "trivial", "--valuation", setting,
                   "--contains=") == (0, member + "\n", ""), setting
    # on a rank-2 phi the empty point is still a malformed one
    assert run(capsys, "trop", EX, "--rep", "s3", "--valuation", "Z", "--contains=") == (
        2, "", "error: point '' has 0 coordinates, need 2\n")


def test_trop_svg(capsys, tmp_path):
    target = tmp_path / "fig.svg"
    rc, out, err = run(capsys, "trop", EX, "--rep", "s3", "--valuation", "Z",
                       "--svg", str(target))
    assert rc == 0
    text = target.read_text()
    assert text.lstrip().startswith("<svg") or "<svg" in text
    assert "</svg>" in text


def test_trop_svg_off_the_plane_writes_nothing(capsys, tmp_path):
    # BS(1, 2) has phi of rank 1: the picture is refused before any row
    # is printed or the file is opened
    doc = tmp_path / "bs12.json"
    doc.write_text(json.dumps({
        "name": "bs12",
        "presentation": {"generators": ["a", "b"], "relators": ["a b a^-1 b^-2"]},
        "representations": {"trivial": {"ring": "Z", "trivial": True}},
    }))
    target = tmp_path / "f.svg"
    rc, out, err = run(capsys, "trop", str(doc), "--rep", "trivial",
                       "--valuation", "p-adic:2", "--svg", str(target))
    assert (rc, out, err) == (2, "", "error: SVG rendering is planar only\n")
    assert not target.exists()


def test_bns_bound_sharp(capsys):
    rc, out, err = run(capsys, "bns-bound", EX, "--rep", "s3", "--rep", "trivial",
                       "--fixture", "brown_one_relator")
    assert rc == 0 and err == ""
    doc = json_head(out)
    assert doc["vacuous"] is False and doc["excluded"] == []
    assert doc["comparison"] == {"fixture": "brown_one_relator", "result": "Equal",
                                 "difference": []}
    assert doc["bound"] == [
        {"kind": "point", "dir": [0, 1]},
        {"kind": "arc", "start": [-1, -1], "end": [1, 0],
         "closed_start": True, "closed_end": True},
    ]
    assert out.strip().splitlines()[-1] == "comparison: Equal"


def test_bns_bound_weaker(capsys):
    rc, out, err = run(capsys, "bns-bound", EX, "--rep", "trivial",
                       "--fixture", "brown_one_relator")
    assert rc == 0
    doc = json_head(out)
    assert doc["comparison"]["result"] == "BoundWeaker"
    diff = doc["comparison"]["difference"]
    assert [c["kind"] for c in diff] == ["arc", "arc"]
    assert out.strip().splitlines()[-1] == "comparison: BoundWeaker"


def test_bns_bound_vacuous(capsys, tmp_path):
    doc = json.loads(Path(EX).read_text())
    doc["representations"] = {
        "q3": {"ring": "Q", "matrices": {"x1": [["3"]], "x2": [["3"]]}}}
    doc["valuations"] = []
    path = tmp_path / "q3.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "bns-bound", str(path), "--rep", "q3",
                       "--valuation", "p-adic:3")
    assert rc == 3
    head = json_head(out)
    assert head["vacuous"] is True
    assert head["excluded"] == [{"admissible": False, "descriptor": "q3",
                                 "mode": "3-adic", "reason": "det valuation 1 != 0"}]
    assert "bound: vacuous (no admissible entries)" in out


def test_bns_bound_check_finite_image(capsys, tmp_path):
    # s3 conjugated by diag(3, 1): entries of 3-adic valuation -1, finite image
    doc = json.loads(Path(EX).read_text())
    doc["representations"] = {"conj_s3": {"ring": "Q", "matrices": {
        "x1": [["-1", "3"], ["-1/3", "0"]], "x2": [["0", "3"], ["1/3", "0"]]}}}
    path = tmp_path / "conj_s3.json"
    path.write_text(json.dumps(doc))
    argv = ["bns-bound", str(path), "--rep", "conj_s3", "--valuation", "p-adic:3"]
    rc, out, err = run(capsys, *argv)
    assert rc == 3 and err == ""
    assert "entry conj_s3 [3-adic]: EXCLUDED: entry valuation -1 < 0" in out
    rc, out, err = run(capsys, *argv, "--check-finite-image")
    assert rc == 0 and err == ""
    assert "entry conj_s3 [3-adic]: admissible (b), " in out
    rc, out, err = run(capsys, *argv, "--check-finite-image", "--fixture", "brown_one_relator")
    assert rc == 0 and json_head(out)["comparison"]["result"] == "Equal"
    assert out.strip().splitlines()[-1] == "comparison: Equal"


def test_non_representation_exits_2(capsys, tmp_path):
    # x1 and x2 map to matrices that do not commute, so [x1, x2] is not
    # sent to the identity
    doc = {
        "name": "z2",
        "presentation": {"generators": ["x1", "x2"], "relators": ["x1 x2 x1^-1 x2^-1"]},
        "representations": {
            "bad": {"ring": "Z", "matrices": {"x1": [[1, 1], [0, 1]],
                                              "x2": [[1, 0], [1, 1]]}},
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    expected = "error: representation 'bad': the matrices do not satisfy the relators\n"
    for command in ("alexander", "bns-bound"):
        assert run(capsys, command, str(path), "--rep", "bad") == (2, "", expected)


def s3_variants(tmp_path):
    """one_relator with its s3 matrices also given as strings over Z, over
    Q, and over Q with a non-integer entry (not a representation over Z)."""
    doc = json.loads(Path(EX).read_text())
    mats = doc["representations"]["s3"]["matrices"]
    strings = {g: [[str(x) for x in row] for row in m] for g, m in mats.items()}
    half = {g: [[1]] for g in mats}
    half["x1"] = [["1/2"]]
    doc["representations"] = {
        "s3_strings": {"ring": "Z", "matrices": strings},
        "s3_q": {"ring": "Q", "matrices": strings},
        "half_q": {"ring": "Q", "matrices": half},
        "half_z": {"ring": "Z", "matrices": half},
    }
    path = tmp_path / "s3_variants.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_string_entries_and_ring_conversion(capsys, tmp_path):
    doc = s3_variants(tmp_path)
    golden = (0, "1 - 2*t1 + t1^2 - 3*t2^2\n", "")
    assert run(capsys, "alexander", doc, "--rep", "s3_strings") == golden
    assert run(capsys, "alexander", doc, "--rep", "s3_q", "--ring", "Z") == golden
    assert run(capsys, "alexander", doc, "--rep", "half_q", "--ring", "Z") == (
        2, "", "error: 1/2 is not an integer\n")
    assert run(capsys, "alexander", doc, "--rep", "half_z") == (
        2, "", "error: entry '1/2' is not an element of Z\n")


def test_unwritable_output_path_exits_2(capsys, tmp_path):
    # the target is opened before anything is printed
    target = tmp_path / "missing_dir" / "f.svg"
    rc, out, err = run(capsys, "trop", EX, "--rep", "s3", "--valuation", "Z",
                       "--svg", str(target))
    assert (rc, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"
    target = tmp_path / "missing_dir" / "o.json"
    assert run(capsys, "orbifold", "--g", "1", "-o", str(target)) == (
        2, "", f"error: cannot write {target}: No such file or directory\n")
    assert not (tmp_path / "missing_dir").exists()


def test_bns_bound_violation(capsys, tmp_path):
    path = tmp_path / "orb12.json"
    rc, out, err = run(capsys, "orbifold", "--g", "1", "--mu", "2", "-o", str(path))
    assert rc == 0
    rc, out, err = run(capsys, "bns-bound", str(path), "--rep", "trivial",
                       "--valuation", "fp:2", "--fixture", "brown_one_relator")
    assert rc == 4
    assert err == ("violation: fixture arcs escape the computed complement; "
                   "this contradicts the bound and is a bug\n")
    assert json_head(out)["comparison"]["result"] == "Violation"


def test_kaehler_goldens(capsys, tmp_path):
    rc, out, err = run(capsys, "kaehler-test", WR, "--fields", "q,fp:2")
    assert rc == 0
    assert out == ("Q: Delta = 1\n"
                   "F_2: Delta = 1 + t1\n"
                   "NOT KAHLER (witness: F_2, Delta = 1 + t1)\n")
    rc, out, err = run(capsys, "kaehler-test", ORB, "--fields", "q,fp:2,fp:3")
    assert rc == 0
    assert out.endswith("consistent (Delta = 0)\n")
    rc, out, err = run(capsys, "kaehler-test", EX, "--rep", "s3",
                       "--fields", "q,fp:2,fp:3,fp:5")
    assert rc == 0
    assert out == ("Q: Delta = 1 - 2*t1 + t1^2 - 3*t2^2\n"
                   "F_2: Delta = 1 + t1 + t2\n"
                   "F_3: Delta = 1 + 2*t1\n"
                   "F_5: Delta = 1 + 3*t1 + t1^2 + 2*t2^2\n"
                   "NOT KAHLER (witness: Q, Delta = 1 - 2*t1 + t1^2 - 3*t2^2)\n")
    # complete weight-13 triangle: unit over Q, zero over F_13, consistent both ways
    graph = tmp_path / "g3graph.json"
    graph.write_text(json.dumps(
        {"name": "g3", "vertices": 3, "edges": [[1, 2, 13], [1, 3, 13], [2, 3, 13]]}))
    g3doc = tmp_path / "g3.json"
    rc, out, err = run(capsys, "wraag", "--graph", str(graph), "-o", str(g3doc))
    assert rc == 0
    rc, out, err = run(capsys, "kaehler-test", str(g3doc), "--fields", "q,fp:13")
    assert rc == 0
    assert out == ("Q: Delta = 1\n"
                   "F_13: Delta = 0\n"
                   "consistent (Delta = 1; 0)\n")


def test_orbifold_document(capsys, tmp_path):
    rc, out, err = run(capsys, "orbifold", "--g", "1", "--mu", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["name"] == "orbifold_g1_mu2"
    assert doc["presentation"] == {
        "generators": ["x1", "y1", "z1"],
        "relators": ["x1 y1 x1^-1 y1^-1 z1", "z1^2"],
    }
    path = tmp_path / "o.json"
    rc, out, err = run(capsys, "orbifold", "--g", "2", "-o", str(path))
    assert rc == 0 and out == ""
    job = load_job(path)
    assert job.presentation.ngens == 4
    assert job.representation("trivial").rank == 1


def test_wraag_document(capsys, tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": ["u", "v"], "edges": [[1, 2, 2]]}))
    rc, out, err = run(capsys, "wraag", "--graph", str(graph))
    assert rc == 0
    doc = json.loads(out)
    assert doc["presentation"] == {
        "generators": ["u", "v"],
        "relators": ["u v u^-1 v^-1 u v u^-1 v^-1"],
    }
    graph.write_text(json.dumps({"vertices": 2}))
    rc, out, err = run(capsys, "wraag", "--graph", str(graph))
    assert rc == 2 and err == "error: graph document needs an 'edges' list\n"


@pytest.mark.parametrize("graph, message", [
    ({"vertices": 3, "edges": [[1, 2, 1.7]]},
     "bad edge [1, 2, 1.7]: want integers [i, j, weight] with 1-based i, j"),
    ({"vertices": 3, "edges": [[2, 3, True]]},
     "bad edge [2, 3, True]: want integers [i, j, weight] with 1-based i, j"),
    ({"vertices": True, "edges": []},
     "graph 'vertices' must be a count or a list of names"),
], ids=["float-weight", "bool-weight", "bool-vertices"])
def test_wraag_takes_integers_only(capsys, tmp_path, graph, message):
    # a float or a boolean is refused, not truncated to an integer
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    assert run(capsys, "wraag", "--graph", str(path)) == (2, "", f"error: {message}\n")


def test_product_document(capsys, tmp_path):
    path = tmp_path / "p.json"
    rc, out, err = run(capsys, "product", EX, EX, "-o", str(path))
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc["name"] == "one_relator_x_one_relator"
    assert doc["presentation"]["generators"] == ["x1", "x2", "x1'", "x2'"]
    job = load_job(path)  # round trip through the schema + parser
    assert job.presentation.ngens == 4


def test_alexander_of_a_presentation_of_z_terminates(capsys, tmp_path, deadline):
    # <x1, x2, x3 | x1 x2^-1, x2 x3^-1> is Z; its abelianization's Smith
    # form used to loop forever
    doc = {
        "name": "z",
        "presentation": {"generators": ["x1", "x2", "x3"],
                         "relators": ["x1 x2^-1", "x2 x3^-1"]},
        "representations": {"trivial": {"ring": "Z", "trivial": True}},
    }
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    with deadline(20):
        assert run(capsys, "alexander", str(path), "--rep", "trivial") == (0, "1\n", "")


def test_triangle_group_product_is_consistent_at_phi_of_rank_0(capsys, tmp_path, deadline):
    # (2,3,7) x (2,3,7): 6 generators, 17 relators and a finite
    # abelianization, so d2 is constant and Delta is read off one Smith
    # form or rank per field instead of C(17, 5) * C(6, 5) minors
    tri, prod = tmp_path / "t237.json", tmp_path / "t237x2.json"
    assert run(capsys, "orbifold", "--g", "0", "--mu", "2,3,7", "-o", str(tri)) == (0, "", "")
    assert run(capsys, "product", str(tri), str(tri), "-o", str(prod)) == (0, "", "")
    with deadline(5):
        assert run(capsys, "kaehler-test", str(prod), "--fields", "q,fp:2,fp:3") == (
            0, "Q: Delta = 1\nF_2: Delta = 1\nF_3: Delta = 1\nconsistent (Delta = 1)\n", "")


def write_document(tmp_path, name, generators, relators, **representations):
    doc = {
        "name": name,
        "presentation": {"generators": generators, "relators": relators},
        "representations": representations,
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_delta_zero_one_and_polynomial_goldens(capsys, tmp_path):
    # Delta = 0 from a rank deficit: d2 of <x1, x2 | > is empty
    free2 = write_document(tmp_path, "free2", ["x1", "x2"], [],
                           trivial={"ring": "Z", "trivial": True})
    assert run(capsys, "alexander", free2, "--rep", "trivial") == (0, "0\n", "")
    assert run(capsys, "kaehler-test", free2, "--fields", "q,fp:2") == (
        0, "Q: Delta = 0\nF_2: Delta = 0\nconsistent (Delta = 0)\n", "")
    # Delta = 1 from an empty target: (n - 1) * r = 0 minors of <x1 | >
    z = write_document(tmp_path, "z", ["x1"], [],
                       trivial={"ring": "Z", "trivial": True},
                       rank2={"ring": "Z", "trivial": True, "rank": 2})
    for rep in ("trivial", "rank2"):
        assert run(capsys, "alexander", z, "--rep", rep) == (0, "1\n", "")
        for setting in ("trivial", "Z"):
            assert run(capsys, "trop", z, "--rep", rep, "--valuation", setting) == (0, "", "")
    # a genuine polynomial: BS(1, 2) = <a, b | a b a^-1 b^-2>
    bs = write_document(tmp_path, "bs12", ["a", "b"], ["a b a^-1 b^-2"],
                        trivial={"ring": "Z", "trivial": True})
    assert run(capsys, "alexander", bs, "--rep", "trivial") == (0, "2 - t1\n", "")


def test_unit_delta_outside_the_plane_and_the_rank_2_bound(capsys):
    # Delta = 1 on the rank-4 wraag_k4: the empty set, in any setting
    assert run(capsys, "trop", WR, "--rep", "trivial", "--valuation", "Z") == (0, "", "")
    rc, out, err = run(capsys, "trop", WR, "--rep", "trivial", "--valuation", "fp:2")
    assert rc == 2 and out == "" and "trop --contains" in err
    rc, out, err = run(capsys, "bns-bound", WR, "--rep", "trivial")
    assert rc == 2 and out == ""
    assert "--phi" in err and "trop --contains" in err and "oracle" not in err


def test_closed_stdout_exits_141_quietly(tmp_path):
    # the read end is closed before the child starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(troplex.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "troplex", "bns-bound", EX, "--rep", "s3", "--rep", "trivial"],
            stdout=write, stderr=subprocess.PIPE, cwd=tmp_path, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_closed_stdout_leaks_no_descriptor(monkeypatch):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["alexander", EX, "--rep", "s3"]) == 141
        monkeypatch.undo()
    assert open_fds() == before


def test_alexander_over_a_large_prime_field(capsys, deadline):
    # the largest prime below the 2**62 bound on prime fields
    with deadline(20):
        assert run(capsys, "alexander", EX, "--rep", "s3", "--ring",
                   "fp:4611686018427387847") == (
            0, "1 + 4611686018427387845*t1 + t1^2 + 4611686018427387844*t2^2\n", "")


REG_S3_DELTA = (
    "1 - 6*t1 + 15*t1^2 - 20*t1^3 + 15*t1^4 - 6*t1^5 + t1^6 - 6*t2^2 + 24*t1*t2^2"
    " - 36*t1^2*t2^2 + 24*t1^3*t2^2 - 6*t1^4*t2^2 + 9*t2^4 - 18*t1*t2^4 + 9*t1^2*t2^4\n"
)


def test_bundled_reg_s3_delta_and_bound(capsys, deadline):
    # rank 6: d2 is 6 x 12, so enumeration takes all 924 of its 6-minors
    # (6-12 s for Delta on a 2-core host); kernel duality takes one
    with deadline(10):
        assert run(capsys, "alexander", EX, "--rep", "reg_s3") == (0, REG_S3_DELTA, "")
    with deadline(10):
        rc, out, err = run(capsys, "bns-bound", EX, "--rep", "reg_s3",
                           "--fixture", "brown_one_relator")
    assert rc == 0 and err == ""
    assert json_head(out)["comparison"]["result"] == "Equal"
    assert out.strip().splitlines()[-1] == "comparison: Equal"


@pytest.mark.parametrize("error", [
    ZeroDivisionError("pseudo-remainder by zero"),
    ArithmeticError("internal: division expected to be exact"),
    AssertionError("unexpected second wrap in arc run"),
])
def test_internal_errors_exit_5(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("troplex.cli.twisted_alexander", fail)
    rc, out, err = run(capsys, "alexander", EX, "--rep", "s3")
    assert rc == 5 and out == ""
    assert err == f"internal error: {type(error).__name__}: {error}\n"
    assert "Traceback" not in err


def test_input_errors_exit_2(capsys, tmp_path):
    rc, out, err = run(capsys, "alexander", EX, "--rep", "bogus")
    assert rc == 2 and out == ""
    assert err == ("error: unknown representation 'bogus'; "
                   "document defines reg_s3, s3, trivial\n")
    rc, out, err = run(capsys, "alexander", "/nonexistent.json", "--rep", "t")
    assert rc == 2 and err.startswith("error: cannot read /nonexistent.json")
    rc, out, err = run(capsys, "trop", EX, "--rep", "s3", "--valuation", "bogus")
    assert rc == 2
    assert err == "error: unknown valuation 'bogus' (want Z, trivial, p-adic:P, or fp:P)\n"
    rc, out, err = run(capsys, "trop", EX, "--rep", "s3", "--valuation", "Z",
                       "--contains", "1")
    assert rc == 2 and err == "error: point '1' has 1 coordinates, need 2\n"
    assert run(capsys, "trop", EX, "--rep", "s3", "--valuation", "Z",
               "--contains", "a,1") == (2, "", "error: bad point 'a,1'\n")
    missing = tmp_path / "nope.json"
    rc, out, err = run(capsys, "wraag", "--graph", str(missing))
    assert (rc, out) == (2, "") and err.startswith(f"error: cannot read {missing}: ")
    broken = tmp_path / "broken.json"
    broken.write_text('{"vertices": 2,')
    rc, out, err = run(capsys, "wraag", "--graph", str(broken))
    assert (rc, out) == (2, "") and err.startswith(f"error: {broken} is not valid JSON: ")
    # the library constructors' checks, reached through a document
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({
        "name": "dup", "presentation": {"generators": ["a", "a"], "relators": ["a a"]},
        "representations": {}}))
    assert run(capsys, "alexander", str(dup), "--rep", "trivial") == (
        2, "", "error: duplicate generator names\n")
    rect = tmp_path / "rect.json"
    rect.write_text(json.dumps({
        "name": "rect", "presentation": {"generators": ["a"], "relators": ["a a"]},
        "representations": {"bad": {"ring": "Z", "matrices": {"a": [[1, 0]]}}}}))
    assert run(capsys, "alexander", str(rect), "--rep", "bad") == (
        2, "", "error: representation matrices must be square\n")


def readme_examples():
    """(argv, stdout) for each command in the README's command-line block
    that is followed by the output it prints, as "# " lines."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples, argv = [], None
    for line in block.splitlines():
        if line.startswith("troplex "):
            argv = shlex.split(line, comments=True)[1:]
            examples.append((argv, ""))
        elif line.startswith("# ") and argv is not None:
            examples[-1] = (argv, examples[-1][1] + line[2:] + "\n")
        else:
            argv = None
    return [(argv, out) for argv, out in examples if out]


def test_readme_examples_print_what_the_readme_shows(capsys):
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == [
        "alexander", "alexander", "trop", "kaehler-test"]
    for argv, expected in examples:
        argv = [str(bundled_path(a.removeprefix("path/to/"))) if a.startswith("path/to/")
                else a for a in argv]
        assert run(capsys, *argv) == (0, expected, ""), argv


# -- every accepted small document exits 0, 2 or 3 ------------------------------


@st.composite
def small_documents(draw):
    """1-3 generators, 0-4 relators of length at most 6 (with x_i^k for
    every generator when G_ab is to be finite), and one trivial
    representation of rank 1-2 over Z, Q, fp:2 or fp:3."""
    n = draw(st.integers(1, 3))
    letter = st.integers(1, n).flatmap(
        lambda g: st.sampled_from((f"x{g}", f"x{g}^-1")))
    relators = draw(st.lists(st.lists(letter, min_size=1, max_size=6).map(" ".join),
                             max_size=4))
    if draw(st.booleans()):
        relators += [f"x{g}^{draw(st.integers(1, 6))}" for g in range(1, n + 1)]
    rep = {"ring": draw(st.sampled_from(("Z", "Q", "fp:2", "fp:3"))), "trivial": True,
           "rank": draw(st.integers(1, 2))}
    return {
        "name": "fuzz",
        "presentation": {"generators": [f"x{g}" for g in range(1, n + 1)],
                         "relators": relators},
        "representations": {"t": rep},
    }


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_documents(), st.sampled_from(("Z", "trivial", "p-adic:2", "fp:2", "fp:3")),
       st.lists(st.integers(-2, 2), min_size=6, max_size=6))
def test_small_documents_exit_0_2_or_3(capsys, tmp_path, deadline, doc, valuation, point):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    m = load_job(path).phi("ab").m
    contains = "--contains=" + ",".join(str(x) for x in point[:m])
    for argv in (
        ["alexander", str(path), "--rep", "t"],
        ["trop", str(path), "--rep", "t", "--valuation", valuation],
        ["trop", str(path), "--rep", "t", "--valuation", valuation, contains],
        ["bns-bound", str(path), "--rep", "t", "--valuation", valuation],
        ["kaehler-test", str(path), "--rep", "t", "--fields", "q,fp:2,fp:3"],
    ):
        with deadline(10):
            rc, _, err = run(capsys, *argv)
        assert rc in (0, 2, 3), (argv, rc, err)
        assert "Traceback" not in err and "internal error:" not in err, (argv, err)


def test_one_parser_serves_every_call(capsys, tmp_path):
    """main reuses one parser, and a call sees none of an earlier call's
    repeatable options: the second call takes its valuations from the
    document, and its one representation."""
    doc = json.loads(Path(EX).read_text())
    doc["valuations"] = ["trivial"]
    path = tmp_path / "trivial_default.json"
    path.write_text(json.dumps(doc))

    def settings(out):
        head = json_head(out)
        return [(e["descriptor"], e["mode"]) for e in head["entries"] + head["excluded"]]

    rc, out, _ = run(capsys, "bns-bound", str(path), "--rep", "s3", "--valuation", "Z")
    assert rc == 0 and settings(out) == [("s3", "Z")]
    rc, out, _ = run(capsys, "bns-bound", str(path), "--rep", "trivial")
    assert rc == 0 and settings(out) == [("trivial", "trivial")]
    assert build_parser() is build_parser()
