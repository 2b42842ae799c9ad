"""Print, per module of ``src/newton2pep``, the source lines that no test executes.

Usage: python tools/line_coverage.py [PYTEST_ARGS ...]   (default: tests -q -p no:cacheprovider)

It needs no coverage package: ``sys.settrace`` and ``threading.settrace`` record the lines run in
frames whose code lies in ``src/newton2pep`` while pytest runs in this process; frames elsewhere
are not traced line by line. A module's executable lines are those of its compiled code objects
(``co_lines``), so comments, blank lines and docstrings never count as missed. A line prints as
missed when a module imported under the tests has it and no test ran it. Tests that start a new
interpreter are not traced. The suite takes about 1.5 times as long as without the tracer.
"""

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = str(ROOT / "src" / "newton2pep")
hit: dict[str, set[int]] = {}


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(PACKAGE):
        return None
    lines = hit.setdefault(frame.f_code.co_filename, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def executable(path: str) -> set[int]:
    lines, stack = set(), [compile(Path(path).read_text(), path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def spans(lines: list[int]) -> str:
    """Consecutive numbers as ranges: 3, 7-9."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    status = pytest.main(sys.argv[1:] or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    sys.settrace(None)
    threading.settrace(None)
    total = 0
    for path in sorted(hit):
        missed = sorted(executable(path) - hit[path])
        total += len(missed)
        print(f"{Path(path).name}: {len(missed)} missed: {spans(missed)}")
    print(f"total: {total} executable lines missed (pytest exit {int(status)})")
    sys.exit(int(status))
