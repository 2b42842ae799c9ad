"""Set-up probe, run as a fresh process by run.py.

Usage: python3 probe.py JOBS.json

Times ``import newton2pep`` (with its CLI module) and then one in-process
pass over the warm-up jobs in JOBS.json (a list of argv lists), and prints
one JSON line: import_s, warmup_s, scipy_at_import and the warm-up exit
codes. Run it with the package on PYTHONPATH and the job files in the
working directory.
"""

import contextlib
import io
import json
import sys
import time


def main(path):
    with open(path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    t0 = time.perf_counter()
    import newton2pep.cli
    t1 = time.perf_counter()
    scipy_at_import = int("scipy" in sys.modules)
    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in jobs:
            codes.append(newton2pep.cli.main(argv))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1,
                      "scipy_at_import": scipy_at_import, "codes": codes}))


if __name__ == "__main__":
    main(sys.argv[1])
