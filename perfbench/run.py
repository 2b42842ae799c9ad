"""Benchmark for the newton2pep command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RESULT.json]

Workloads: small-mix, large-certify, large-pairs (see workloads.py). Problem
files are generated from the seed into a scratch directory under
``.perfbench/`` and removed at the end.

``--trace 0`` measures end to end. The run is closed loop with one client
and executes a number of rounds set by S (see ``Workload``). Each job of a
round runs as a fresh ``python -m newton2pep.cli`` process and right after
in this process through ``newton2pep.cli.main`` (warm; ``lib_repeats``
times, keeping the median time); each round also starts one fresh set-up
probe (probe.py). Every output is checked and each job's fresh and
in-process stdout must be byte-identical. Reported times are calibrated
(see CAL_REF_S).

``--trace 1`` measures per layer: it alternates an untraced and a traced
in-process pass over a fixed job list for about S seconds, and reports the
median self time of each layer, the call and byte counts (which must
repeat exactly) and the tracing overhead.

BLAS/OpenMP threads are pinned to one, and this process and its children
to one CPU.
The last stdout line is the JSON result; the lines before it are a
readable report, and ``--out`` also writes the full result to a file.
"""

import os

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)   # before numpy loads its BLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, deque  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

from checks import KNOWN_DEFECTS, OK, Verdict, check  # noqa: E402
from tracing import COUNT_METRICS, LAYER_METRICS, Tracer, instrumented  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTPUT_DIR = ROOT / ".perfbench"
# An end-to-end run stops early, before a round that would end past
# TIME_CAP * --seconds, so that a slow machine cannot stretch it much.
TIME_CAP = 1.4

END_TO_END = (
    ("cli_jobs_per_s", "1/s"), ("cli_p50_s", "s"), ("lib_jobs_per_s", "1/s"),
    ("lib_p50_ms", "ms"), ("pass_ratio", "ratio"), ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# Reported beside the end-to-end metrics but not part of them: no run has
# the 100 jobs per mode that a p90 with ten samples beyond it needs.
TAIL = (("cli_p90_s", "s"), ("lib_p90_ms", "ms"))

# Calibrated time. On the 2-vCPU VM the benchmark was defined on, the speed
# of each vCPU drifts by up to 1.5x within seconds, independently of the
# other, and process CPU time drifts with it. So the harness pins itself and
# its children to one CPU and, right before every timed job or probe, times
# a fixed kernel on that CPU. End-to-end times are scaled by
# CAL_REF_S / (median of the last CAL_WINDOW kernel times): they read as
# seconds at the speed where the kernel takes CAL_REF_S. The unscaled wall
# times are reported beside them.
CAL_REF_S = 0.003
CAL_WINDOW = 5
_CAL_MATRIX = np.random.default_rng(0).standard_normal((48, 48)) + 0j


def _calibration_kernel():
    x = 0
    for i in range(30_000):
        x += i * i
    for _ in range(10):
        np.linalg.det(_CAL_MATRIX)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Harness:
    """Runs jobs fresh or in-process inside one scratch directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.cli = None
        self.calibrations = deque(maxlen=CAL_WINDOW)

    def speed_scale(self) -> float:
        """Time the calibration kernel once more; return the factor that turns
        a wall time measured now into seconds at the reference speed."""
        t0 = time.perf_counter()
        _calibration_kernel()
        self.calibrations.append(time.perf_counter() - t0)
        return CAL_REF_S / statistics.median(self.calibrations)

    def import_package(self):
        sys.path.insert(0, str(SRC))
        import newton2pep.cli
        self.cli = newton2pep.cli

    def fresh(self, job):
        """Run ``job`` as a new process; returns (seconds, code, out, err, maxrss_kb)."""
        out_path = self.workdir / "fresh.stdout"
        err_path = self.workdir / "fresh.stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "newton2pep.cli", *job.argv],
                                    stdout=out, stderr=err, cwd=self.workdir, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (seconds, proc.returncode, out.read().decode(),
                    err.read().decode(), usage.ru_maxrss)

    def lib(self, job):
        """Run ``job`` through cli.main in this process; returns (seconds, code, out, err)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(job.argv))
        return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()

    def probe(self, jobs):
        """One fresh set-up probe: import the package, then run ``jobs`` in it."""
        spec = self.workdir / "probe-jobs.json"
        spec.write_text(json.dumps([list(j.argv) for j in jobs]), encoding="utf-8")
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), str(spec)],
                              cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=170, check=True)
        return json.loads(done.stdout.strip().splitlines()[-1])


class Ledger:
    """Every execution's outcome, and the failures by job name."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, job, mode, verdict):
        self.attempted += 1
        if not verdict.ok:
            self.failures.append({"job": job.name, "mode": mode,
                                  "reason": verdict.reason, "known": verdict.known})
        return verdict.ok

    @property
    def unknown(self):
        return [f for f in self.failures if not f["known"]]


def _quantile(values, p):
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A beta-weighted mean of all order statistics. Job times here form a few
    clusters (one per job kind and size), and the plain sample quantile
    jumps between clusters from run to run; this estimate moves smoothly.
    """
    x = np.sort(values)
    a, b = p * (len(x) + 1), (1 - p) * (len(x) + 1)
    weights = np.diff(betainc(a, b, np.arange(len(x) + 1) / len(x)))
    return float(weights @ x)


def _warm_up(workload, harness):
    jobs = workload.warmup()
    harness.import_package()
    for job in jobs:
        harness.lib(job)
    return jobs


def measure_end_to_end(workload, harness, seconds, ledger):
    """Rounds of jobs, each run fresh and then in-process, one probe per round.

    Every time is kept twice: as measured (wall) and calibrated (see
    CAL_REF_S); the metrics use the calibrated times.
    """
    warmup = _warm_up(workload, harness)
    times = {key: ([], []) for key in ("fresh", "lib", "setup")}   # (wall, calibrated)

    def keep(key, wall, scale):
        times[key][0].append(wall)
        times[key][1].append(wall * scale)

    fresh_ok = lib_ok = rss_kb = 0
    planned = max(1, round(seconds / workload.round_seconds))
    start = time.perf_counter()
    for r in range(planned):
        elapsed = time.perf_counter() - start
        if r and elapsed * (r + 1) / r > TIME_CAP * seconds:
            break   # a slow machine phase: keep the run inside its time budget
        scale = harness.speed_scale()
        probe = harness.probe(warmup)
        keep("setup", probe["import_s"] + probe["warmup_s"], scale)
        for job in workload.round(r):
            scale = harness.speed_scale()
            dt, code, out, err, maxrss = harness.fresh(job)
            keep("fresh", dt, scale)
            rss_kb = max(rss_kb, maxrss)
            fresh_ok += ledger.record(job, "fresh", check(job, code, out, err))
            scale = harness.speed_scale()
            runs = [harness.lib(job) for _ in range(workload.lib_repeats)]
            keep("lib", statistics.median(run[0] for run in runs), scale)
            verdict = OK
            for _, code, lib_out, err in runs:
                if verdict.ok:
                    verdict = check(job, code, lib_out, err)
                if verdict.ok and lib_out != out:
                    verdict = Verdict(False, "in-process stdout differs from fresh process")
            lib_ok += ledger.record(job, "lib", verdict)
        for path in harness.workdir.glob(f"r{r}[a-z]*"):
            path.unlink()

    def timing(which):
        fresh_s, lib_s, setup_s = (times[key][which] for key in ("fresh", "lib", "setup"))
        return {
            "cli_jobs_per_s": fresh_ok / sum(fresh_s),
            "cli_p50_s": _quantile(fresh_s, 0.5),
            "cli_p90_s": _quantile(fresh_s, 0.9),
            "lib_jobs_per_s": lib_ok / sum(lib_s),
            "lib_p50_ms": 1e3 * _quantile(lib_s, 0.5),
            "lib_p90_ms": 1e3 * _quantile(lib_s, 0.9),
            "setup_s": statistics.median(setup_s),
        }

    metrics = timing(1)
    metrics["pass_ratio"] = (ledger.attempted - len(ledger.failures)) / ledger.attempted
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    units = dict(END_TO_END + TAIL)
    extra = {"rounds": len(times["setup"][0]), "planned_rounds": planned,
             "jobs_per_mode": len(times["fresh"][0]),
             "wall (uncalibrated)": ", ".join(f"{k} {v:.6g}" for k, v in timing(0).items()),
             "speed_scale_median": statistics.median(
                 c / w for w, c in zip(*times["fresh"]))}
    extra.update({k: f"{metrics[k]:.6g} {units[k]}" for k, _ in TAIL})
    return {k: (metrics[k], unit) for k, unit in END_TO_END}, extra, True


def _pass(harness, jobs, ledger):
    total = 0.0
    for job in jobs:
        dt, code, out, err = harness.lib(job)
        total += dt
        ledger.record(job, "lib", check(job, code, out, err))
    return total


def measure_layers(workload, harness, seconds, ledger):
    """Untraced and traced in-process passes over a fixed job list, in pairs."""
    warmup = _warm_up(workload, harness)
    jobs = workload.trace_jobs()
    probes, summaries, ratios, pair_s = [], [], [], []
    start = time.perf_counter()
    while not pair_s or time.perf_counter() - start + statistics.median(pair_s) <= seconds:
        t0 = time.perf_counter()
        probes.append(harness.probe(warmup))
        plain = _pass(harness, jobs, ledger)
        tracer = Tracer()
        with instrumented(tracer):
            traced = _pass(harness, jobs, ledger)
        summaries.append(tracer.summary())
        ratios.append(traced / plain)
        pair_s.append(time.perf_counter() - t0)

    counts_repeat = all({k: s.get(k, 0) for k in COUNT_METRICS}
                        == {k: summaries[0].get(k, 0) for k in COUNT_METRICS}
                        for s in summaries)
    metrics = {}
    for name, unit, *_ in LAYER_METRICS:
        if name == "cli.import_s":
            value = statistics.median([p["import_s"] for p in probes])
        elif name == "cli.scipy_at_import":
            value = max(p["scipy_at_import"] for p in probes)
        elif name == "trace.overhead_ratio":
            value = statistics.median(ratios)
        elif name.endswith(".s"):
            value = statistics.median([s.get(name, 0.0) for s in summaries])
        else:
            value = summaries[0].get(name, 0)
        metrics[name] = (value, unit)

    OUTPUT_DIR.mkdir(exist_ok=True)
    spans = OUTPUT_DIR / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    with open(spans, "w", encoding="utf-8") as fh:
        for record in tracer.records():
            fh.write(json.dumps(record) + "\n")
    extra = {"passes": len(summaries), "jobs_per_pass": len(jobs),
             "counts_repeat": counts_repeat, "spans_file": str(spans.relative_to(ROOT))}
    return metrics, extra, counts_repeat


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed, cpu):
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "newton2pep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {"git_commit": _git_commit(), "source_sha256": digest.hexdigest(),
            "seed": seed, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": openblas,
            "nproc": os.cpu_count(), "pinned_cpu": cpu,
            "threads": {k: os.environ.get(k) for k in PINNED_THREADS}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result JSON to this file")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "newton2pep" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    out_path = args.out.resolve() if args.out else None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})   # this process and every child it starts
    workdir = OUTPUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        harness = Harness(workdir)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        ledger = Ledger()
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, extra, consistent = measure(workload, harness, args.seconds, ledger)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    correct = consistent and not ledger.unknown
    result = {"correct": correct, "attempted": ledger.attempted,
              "failed": len(ledger.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = {"workload": args.workload, "why": workload.why,
              "mode": "per-layer (traced)" if args.trace else "end-to-end (untraced)",
              "seconds": args.seconds, "environment": environment(args.seed, cpu),
              "fail_ratio": len(ledger.failures) / ledger.attempted,
              "failures": ledger.failures,
              "known_defects": KNOWN_DEFECTS, **extra, **result}
    if out_path:
        out_path.write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, {detail['mode']}")
    print("environment " + json.dumps(detail["environment"]))
    for key, value in extra.items():
        print(f"{key}: {value}")
    moves = {m[0]: m[3:] for m in LAYER_METRICS}
    for name, (value, unit) in metrics.items():
        note = f"  moves {moves[name][0]} on {moves[name][1]}" if name in moves else ""
        print(f"  {name:40s} {value:>14.6g} {unit}{note}")
    print(f"fail_ratio {detail['fail_ratio']:.4f} ({len(ledger.failures)} of "
          f"{ledger.attempted} executions)")
    repeats = Counter(tuple(f.values()) for f in ledger.failures)
    for (job, mode, reason, known), times in repeats.items():
        tag = f"known: {known}" if known else "UNEXPECTED"
        print(f"  FAILED {job} [{mode}] x{times}: {reason} ({tag})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
