"""The line gate's comparison and its allowlist; the traced run itself is
`python -m pytest -p tests.linegate` (see tests/linegate.py)."""

import textwrap

from linegate import SOURCE, executable_lines, load_allowlist, verdict


def test_allowlist_is_short_and_every_entry_names_a_line_with_a_reason():
    allowed = load_allowlist()
    assert len(allowed) < 30
    for (file, function, text), reason in allowed.items():
        assert reason.strip(), (file, function, text)
        path = SOURCE / file
        source = path.read_text().splitlines()
        assert any(
            (fn, source[line - 1].strip()) == (function, text)
            for line, fn in executable_lines(path).items()
        ), (file, function, text)


def test_executable_lines_name_their_function(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(textwrap.dedent('''\
        """doc"""
        X = 1


        class A:
            @staticmethod
            def f(x):
                """doc"""
                return [y for y in x]

            def g(self):
                def h():
                    return 2
                return h
        '''))
    assert executable_lines(path) == {
        1: "<module>", 2: "<module>", 5: "<module>",
        6: "A", 7: "A", 9: "A.f", 11: "A", 12: "A.g", 13: "A.g.h", 14: "A.g",
    }


def test_verdict_fails_unlisted_unrun_lines_listed_lines_that_ran_and_lost_entries():
    source = ["def f(x):", "    if x:", "        return 1", "    raise ValueError"]
    files = {"m.py": (source, {1: "<module>", 2: "f", 3: "f", 4: "f"})}
    raise_key = ("m.py", "f", "raise ValueError")
    # every line ran but the raise, which the allowlist names: a pass
    assert verdict(files, {"m.py": {1, 2, 3}}, {raise_key: "why"}) == ([], [], [])
    # without the entry the raise fails the gate
    assert verdict(files, {"m.py": {1, 2, 3}}, {}) == (
        [("m.py", 4, "f", "raise ValueError")], [], [])
    # once the raise runs, its entry fails the gate: the list only shrinks
    assert verdict(files, {"m.py": {1, 2, 3, 4}}, {raise_key: "why"}) == (
        [], [("m.py", 4, "f", "raise ValueError")], [])
    # an entry whose line is gone fails it too
    gone = ("m.py", "f", "return 2")
    assert verdict(files, {"m.py": {1, 2, 3, 4}}, {gone: "why"}) == ([], [], [gone])
