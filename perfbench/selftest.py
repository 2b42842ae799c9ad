"""Self-tests of the benchmark harness.

Usage (from the repository root): python3 perfbench/selftest.py

1. BENCHMARK.json names exactly the workloads and metrics the harness
   reports, with the same units and directions.
2. Wrong outputs are failures: real outputs of one job of every kind, each
   edited to carry a wrong verdict, must each be counted as an unexpected
   failure.
3. Counts repeat: two traced runs with the same seed report identical
   call and byte counts.

Exits 0 when all pass.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run
from checks import check
from tracing import COUNT_METRICS, LAYER_METRICS
from workloads import WORKLOADS

SEED = 20250910


def test_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), spec["workloads"]
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why, w["name"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in LAYER_METRICS]


# (job kind, line to replace, wrong line)
WRONG_VERDICTS = (
    ("construct", "membership: member", "membership: not-member"),
    ("verify", "verdict: PASS", "verdict: FAIL"),
    ("spectrum", "containment: PASS", "containment: FAIL"),
    ("delta", "singular: yes", "singular: no"),
    ("delta", "structural zero pattern: yes", "structural zero pattern: no"),
    ("oracle", "count (multiplicity-aware): 4", "count (multiplicity-aware): 5"),
)


def test_wrong_verdicts_fail():
    workdir = run.OUTPUT_DIR / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        harness = run.Harness(workdir)
        harness.import_package()
        jobs = WORKLOADS["small-mix"](SEED, workdir).probe_jobs()
        outputs = {}
        for job in jobs:
            _, code, out, err = harness.lib(job)
            assert check(job, code, out, err).ok, (job.name, out, err)
            outputs.setdefault(job.kind, (job, out, err))
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = run.Ledger()
    for kind, right, wrong in WRONG_VERDICTS:
        job, out, err = outputs[kind]
        assert right in out, (kind, right)
        ledger.record(job, "lib", check(job, 0, out.replace(right, wrong), err))
    job, out, err = outputs["construct"]
    swapped = dataclasses.replace(job, expect={"pattern": (False, True, False)})
    ledger.record(swapped, "lib", check(swapped, 0, out, err))
    ledger.record(job, "lib", check(job, 1, out, err))
    assert ledger.attempted == len(WRONG_VERDICTS) + 2
    assert len(ledger.failures) == ledger.attempted, ledger.failures
    assert len(ledger.unknown) == ledger.attempted, ledger.failures


def _traced_counts():
    done = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload",
                           "small-mix", "--seed", str(SEED), "--seconds", "1",
                           "--trace", "1"], cwd=run.ROOT, capture_output=True,
                          text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    return {k: result["metrics"][k]["value"] for k in COUNT_METRICS}


def test_counts_repeat():
    first, second = _traced_counts(), _traced_counts()
    assert first == second, (first, second)
    assert first["matpoly.eval.calls"] > 0 and first["fileio.bytes_read"] > 0


def main():
    failed = 0
    for test in (test_benchmark_json, test_wrong_verdicts_fail, test_counts_repeat):
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
