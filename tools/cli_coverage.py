"""Print, per module of ``src/newton2pep``, the source lines that no CLI job executes.

Usage: python tools/cli_coverage.py

It builds the 1073 jobs of ``tools/stdout_identity.py`` (rng seed 2024) in a temporary directory
and runs each through ``cli.main`` in this process under the line tracer of
``tools/line_coverage.py``, which is set before the package is imported. The lines it prints are
the ones that only the library API and the tests reach.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from line_coverage import ROOT, executable, hit, spans, trace  # noqa: E402
from stdout_identity import build_jobs  # noqa: E402

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        jobs = build_jobs(Path(tmp), np.random.default_rng(2024))
        sys.settrace(trace)
        from newton2pep import cli
        for _, argv in jobs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
        sys.settrace(None)
    total = 0
    for path in sorted(hit):
        missed = sorted(executable(path) - hit[path])
        total += len(missed)
        print(f"{Path(path).name}: {len(missed)} missed: {spans(missed)}")
    print(f"total: {total} executable lines missed by {len(jobs)} CLI jobs")
