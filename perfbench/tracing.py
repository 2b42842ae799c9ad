"""In-memory spans around the public functions of each package layer.

The tracer patches each traced function at every module-level name that
refers to it inside ``newton2pep`` (so ``cli.load_pencil`` and
``linearize.det`` are wrapped where the callers look them up), and the
methods ``MatrixPoly2.eval`` / ``*Pencil.eval`` on their classes. The
package source is not touched; :func:`instrumented` restores every
original on exit.

A span records name, start, end, parent span and whether the call raised.
A span's self time is its duration minus the durations of its direct
children (calls are strictly nested: one thread, no re-entry across
spans).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _bytes_read(counts, args, result):
    counts["fileio.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(counts, args, result):
    counts["fileio.bytes_written"] += os.path.getsize(args[0])


def _delta_bytes(counts, args, result):
    # Three dense (k1 k2)^2 complex128 matrices, k = 3p: 3 (9 p1 p2)^2 16.
    counts["twoparam.delta_bytes"] += 3 * (result.k1 * result.k2) ** 2 * 16


# (span name, defining module, attribute or Class.method, counter hook)
SPANS = (
    ("cli.main", "newton2pep.cli", "main", None),
    ("fileio.load_problem", "newton2pep.fileio", "load_problem", _bytes_read),
    ("fileio.load_pencil", "newton2pep.fileio", "load_pencil", _bytes_read),
    ("fileio.save_pencil", "newton2pep.fileio", "save_pencil", _bytes_written),
    ("matpoly.eval", "newton2pep.matpoly", "MatrixPoly2.eval", None),
    ("spaces.pencil_eval", "newton2pep.spaces", "NewtonPencil.eval", None),
    ("spaces.pencil_eval", "newton2pep.spaces", "MonomialPencil.eval", None),
    ("spaces.membership_newton", "newton2pep.spaces", "membership_newton", None),
    ("linearize.companion", "newton2pep.linearize", "companion_pencil", None),
    ("linearize.companion", "newton2pep.linearize", "newton_companion", None),
    ("linearize.construct_general_ansatz", "newton2pep.linearize",
     "construct_general_ansatz", None),
    ("linearize.verify_linearization", "newton2pep.linearize",
     "verify_linearization", None),
    ("linearize.unimodular_witnesses", "newton2pep.linearize",
     "unimodular_witnesses", None),
    ("twoparam.verify_spectrum_match", "newton2pep.twoparam",
     "verify_spectrum_match", None),
    ("twoparam.spectrum_pair_oracle", "newton2pep.twoparam",
     "spectrum_pair_oracle", None),
    ("twoparam.delta_operators", "newton2pep.twoparam", "delta_operators", _delta_bytes),
    ("twoparam.certify_singular", "newton2pep.twoparam", "certify_singular", None),
    ("linalg.det", "newton2pep.linalg", "det", None),
    ("linalg.smallest_singular_value", "newton2pep.linalg",
     "smallest_singular_value", None),
    ("linalg.small_dense_eigen", "newton2pep.linalg", "small_dense_eigen", None),
)

# Per-layer metrics: (name, unit, better, end-to-end metrics it should move,
# workloads it should move them on). BENCHMARK.json lists the first three
# columns; the last two are the prediction a change to that layer is judged
# against.
LAYER_METRICS = (
    ("cli.import_s", "s", "lower", "cli_p50_s cli_jobs_per_s setup_s (never lib_*)",
     "mostly small-mix"),
    ("cli.scipy_at_import", "count", "lower", "cli_p50_s cli_jobs_per_s setup_s",
     "mostly small-mix"),
    ("cli.main.s", "s", "lower", "lib_p50_ms", "small-mix"),
    ("fileio.load_problem.s", "s", "lower", "cli_p50_s lib_jobs_per_s", "large-certify"),
    ("fileio.load_pencil.s", "s", "lower", "cli_p50_s lib_jobs_per_s", "large-certify"),
    ("fileio.save_pencil.s", "s", "lower", "cli_p50_s lib_jobs_per_s", "large-certify"),
    ("fileio.bytes_read", "bytes", "lower", "cli_p50_s lib_jobs_per_s", "large-certify"),
    ("fileio.bytes_written", "bytes", "lower", "cli_p50_s lib_jobs_per_s",
     "large-certify"),
    ("matpoly.eval.calls", "count", "lower", "lib_jobs_per_s lib_p50_ms", "small-mix"),
    ("matpoly.eval.s", "s", "lower", "lib_jobs_per_s lib_p50_ms", "small-mix"),
    ("spaces.pencil_eval.calls", "count", "lower", "lib_jobs_per_s lib_p50_ms",
     "small-mix"),
    ("spaces.pencil_eval.s", "s", "lower", "lib_jobs_per_s lib_p50_ms", "small-mix"),
    ("spaces.membership_newton.s", "s", "lower", "lib_jobs_per_s lib_p50_ms",
     "small-mix"),
    ("linearize.companion.s", "s", "lower", "lib_jobs_per_s", "small-mix"),
    ("linearize.construct_general_ansatz.s", "s", "lower", "lib_jobs_per_s",
     "small-mix"),
    ("linearize.verify_linearization.s", "s", "lower", "lib_jobs_per_s",
     "small-mix large-certify"),
    ("linearize.verify_linearization.errors", "count", "lower", "lib_jobs_per_s",
     "large-certify"),
    ("linearize.unimodular_witnesses.s", "s", "lower", "lib_jobs_per_s", "small-mix"),
    ("twoparam.verify_spectrum_match.s", "s", "lower", "lib_p90_ms cli_p90_s",
     "large-certify"),
    ("twoparam.spectrum_pair_oracle.s", "s", "lower", "lib_p90_ms", "small-mix"),
    ("twoparam.spectrum_pair_oracle.errors", "count", "lower", "lib_p90_ms",
     "small-mix"),
    ("twoparam.delta_operators.s", "s", "lower",
     "lib_jobs_per_s cli_p90_s peak_rss_mb", "large-pairs"),
    ("twoparam.certify_singular.s", "s", "lower",
     "lib_jobs_per_s cli_p90_s peak_rss_mb", "large-pairs"),
    ("twoparam.delta_bytes", "bytes", "lower", "peak_rss_mb lib_jobs_per_s",
     "large-pairs"),
    ("linalg.det.calls", "count", "lower", "lib_*", "small-mix"),
    ("linalg.det.s", "s", "lower", "lib_*", "large-certify"),
    ("linalg.smallest_singular_value.calls", "count", "lower", "lib_*", "large-pairs"),
    ("linalg.smallest_singular_value.s", "s", "lower", "lib_*", "large-pairs"),
    ("linalg.small_dense_eigen.calls", "count", "lower", "lib_*", "large-certify"),
    ("linalg.small_dense_eigen.s", "s", "lower", "lib_*", "large-certify"),
    ("trace.overhead_ratio", "ratio", "lower", "none (sanity bound on the trace)", "all"),
)

# Metrics that count work; they must repeat exactly for one seed.
COUNT_METRICS = tuple(m[0] for m in LAYER_METRICS if m[1] in ("count", "bytes"))


class Tracer:
    """Collects spans and counters in memory for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, raised]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name, fn, hook, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, False]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[4] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if hook is not None:
            hook(self.counts, args, result)
        return result

    def summary(self) -> dict:
        """Per span name: summed self time, call count and raised count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        errors = Counter()
        for index, (name, start, end, _, raised) in enumerate(self.spans):
            self_s[name] += (end - start) - child[index]
            calls[name] += 1
            errors[name] += raised
        out = dict(self.counts)
        for name in calls:
            out[f"{name}.s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.errors"] = errors[name]
        return out

    def records(self):
        """Spans as dicts, for writing out after the run."""
        for name, start, end, parent, raised in self.spans:
            yield {"name": name, "start": start, "end": end,
                   "parent": parent, "raised": raised}


def _wrapper(tracer, name, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, hook, args, kwargs)
    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Route every traced function and method through ``tracer``."""
    packages = [m for key, m in list(sys.modules.items())
                if key == "newton2pep" or key.startswith("newton2pep.")]
    patches = []
    try:
        for name, module_name, attr, hook in SPANS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                patches.append((cls, method, original))
                setattr(cls, method, _wrapper(tracer, name, original, hook))
                continue
            original = getattr(module, attr)
            wrapped = _wrapper(tracer, name, original, hook)
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)
