"""Line gate: every executable line of src/troplex runs in the test suite
or is listed, with a reason, in tests/linegate_allowlist.json.

Load it as a plugin on a run of the whole suite, on Python 3.11 (line
tables differ between versions):

    PYTHONPATH=src python -m pytest -q -p tests.linegate

It traces which lines of src/troplex run (sys.settrace, so the run takes
several times as long) and fails the session on a line that neither runs
nor is allowlisted, on an allowlisted line that runs, and on an entry
that names no line, so that the allowlist can only shrink.  An entry is
[file, function, stripped line text, reason]; it covers every line of
that text in that function.  Hypothesis runs derandomized and without
its example database, so that two runs trace the same lines.  Only the
main thread is traced: lines run only in another thread or in a
subprocess do not count.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "troplex"
ALLOWLIST = Path(__file__).with_name("linegate_allowlist.json")


def executable_lines(path):
    """{line number: qualified name of the innermost function or class
    holding it} for every line of the file that has bytecode.  A def or
    class line, and the lines of a comprehension or lambda, belong to the
    body around them."""
    lines = {}

    def visit(code, qual):
        for _, _, line in code.co_lines():
            if line:
                lines.setdefault(line, qual)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                name = const.co_name
                inner = qual if name.startswith("<") else (
                    f"{qual}.{name}" if qual != "<module>" else name)
                visit(const, inner)

    visit(compile(path.read_text(), str(path), "exec"), "<module>")
    return lines


def load_allowlist(path=ALLOWLIST):
    """{(file, function, stripped text): reason}."""
    entries = json.loads(path.read_text())
    allowed = {}
    for file, function, text, reason in entries:
        key = (file, function, text)
        if key in allowed:
            raise ValueError(f"allowlist names {key} twice")
        allowed[key] = reason
    return allowed


def verdict(files, ran, allowed):
    """Compare traced lines with the allowlist.

    files maps a file name to (source lines, {line: function}) and ran to
    the set of line numbers that ran in it.  Returns three sorted lists:
    unrun lines that no entry covers, as (file, line, function, text);
    allowlisted lines that ran, the same way; and entries that cover no
    executable line, as keys."""
    unrun, stale, used = [], [], set()
    for file, (source, functions) in sorted(files.items()):
        for line, function in sorted(functions.items()):
            key = (file, function, source[line - 1].strip())
            if key in allowed:
                used.add(key)
                if line in ran.get(file, ()):
                    stale.append((file, line, function, key[2]))
            elif line not in ran.get(file, ()):
                unrun.append((file, line, function, key[2]))
    return unrun, stale, sorted(set(allowed) - used)


class LineGate:
    def __init__(self):
        self.files = {str(p): p for p in sorted(SOURCE.rglob("*.py"))}
        self.ran = {name: set() for name in self.files}
        # id(code) -> (code, lines of it not yet run); a code object
        # whose lines have all run is traced no more
        self.pending = {}
        self.report = []

    def trace(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files:
            return None
        entry = self.pending.get(id(code))
        if entry is None:
            left = {line for _, _, line in code.co_lines() if line}
            # a function's first line is its parent's, and sees no line event
            left.discard(code.co_firstlineno)
            entry = self.pending[id(code)] = (code, left - self.ran[code.co_filename])
        left = entry[1]
        if not left:
            return None
        ran = self.ran[code.co_filename]

        def local(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                ran.add(line)
                left.discard(line)
            return local

        return local

    def start(self):
        loaded = [name for name in sys.modules if name.split(".")[0] == "troplex"]
        if loaded:
            raise pytest.UsageError(f"line gate: {loaded} imported before tracing began")
        sys.settrace(self.trace)

    def finish(self):
        replaced = sys.gettrace() != self.trace
        sys.settrace(None)
        files = {}
        for name, path in self.files.items():
            rel = str(path.relative_to(SOURCE))
            files[rel] = (path.read_text().splitlines(), executable_lines(path))
        ran = {str(self.files[name].relative_to(SOURCE)): lines
               for name, lines in self.ran.items()}
        unrun, stale, unknown = verdict(files, ran, load_allowlist())
        total = sum(len(f) for _, f in files.values())
        count = sum(len(r) for r in ran.values())
        self.report = [f"line gate: {count} of {total} executable lines of src/troplex ran"]
        if replaced:
            self.report.append("line gate: a test replaced the tracer, so the count is short")
        if unrun:
            self.report.append("never ran, and not in tests/linegate_allowlist.json:")
            self.report += [f"  {f}:{n}  {fn}  {t}" for f, n, fn, t in unrun]
        if stale:
            self.report.append("in tests/linegate_allowlist.json, but ran (delete the entry):")
            self.report += [f"  {f}:{n}  {fn}  {t}" for f, n, fn, t in stale]
        if unknown:
            self.report.append("in tests/linegate_allowlist.json, but no such line:")
            self.report += [f"  {f}  {fn}  {t}" for f, fn, t in unknown]
        passed = not (replaced or unrun or stale or unknown)
        self.report.append(f"line gate: {'passed' if passed else 'FAILED'}")
        return passed


GATE = pytest.StashKey[LineGate]()


def pytest_configure(config):
    # the tracer slows every example several times, hence no deadline
    settings.register_profile("linegate", derandomize=True, database=None, deadline=None)
    settings.load_profile("linegate")
    gate = LineGate()
    config.stash[GATE] = gate
    gate.start()


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session):
    gate = session.config.stash[GATE]
    if not gate.finish() and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    for line in config.stash[GATE].report:
        terminalreporter.write_line(line)
