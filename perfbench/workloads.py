"""Seeded problem files and job lists for the benchmark workloads.

A workload is a sequence of rounds. Every round of a workload has the same
shape (which subcommands, at which sizes), so the mix of work inside a run
does not depend on the seed; the seed only draws the data: coefficients,
nodes, ansatz values and the ``--seed``/``--params`` integers passed to the
CLI. The program sees nothing but the files written here and the argv.

Problem files are written with plain ``json`` so that the inputs do not
depend on the package's own writer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

COEFF_NAMES = ("A20", "A11", "A02", "A10", "A01", "A00")

# Ansatz zero patterns, written as which of (a, b, c) are nonzero.
ALL_PATTERNS = ((1, 1, 1), (0, 1, 1), (0, 0, 1), (1, 0, 1),
                (1, 0, 0), (1, 1, 0), (0, 1, 0))
COMPANION = "companion"
NODE_KINDS = ("monomial", "newton", "coincident")
SMALL_PAIRS = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3))
LARGE_PAIRS = ((6, 6), (8, 8), (8, 10), (10, 10))


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what its output must show."""

    name: str
    kind: str          # construct | verify | spectrum | oracle | delta
    argv: tuple
    expect: dict = field(default_factory=dict)


def _normal(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).ravel()]


def _nodes(rng, kind):
    """(alpha1, alpha2, beta1, beta2) for a node-set kind, or None for monomial."""
    if kind == "monomial":
        return None
    if kind == "coincident":
        a, b = _normal(rng, 2)
        return np.array([a, a, b, b])
    return _normal(rng, 4)


def _write_problem(path: Path, n: int, rng, nodes) -> str:
    doc = {"n": n, "basis": "monomial" if nodes is None else "newton",
           "coefficients": {k: _pairs(_normal(rng, n, n)) for k in COEFF_NAMES}}
    if nodes is not None:
        doc["nodes"] = {"alpha": _pairs(nodes[:2]), "beta": _pairs(nodes[2:])}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path.name


def _ansatz_text(rng, pattern) -> str:
    parts = []
    for nonzero in pattern:
        if not nonzero:
            parts.append("0")
            continue
        z = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        parts.append(f"{z.real:.6f}{z.imag:+.6f}j")
    return ",".join(parts)


def _int(rng) -> str:
    return str(int(rng.integers(0, 2**31)))


def _chain(workdir: Path, tag: str, n: int, node_kind: str, construction, rng) -> list[Job]:
    """construct -> verify -> spectrum slices on one generated problem."""
    q = _write_problem(workdir / f"{tag}-q.json", n, rng, _nodes(rng, node_kind))
    pencil = f"{tag}-pencil.json"
    seed = _int(rng)
    if construction == COMPANION:
        how, pattern = ["--companion"], (1, 0, 0)
        label = COMPANION
    else:
        how = [f"--ansatz={_ansatz_text(rng, construction)}", "--params", _int(rng)]
        pattern = construction
        label = "ansatz-" + "".join(map(str, construction))
    name = f"{tag}.n{n}.{node_kind}.{label}"
    return [
        Job(f"{name}.construct", "construct",
            ("construct", q, *how, "--seed", seed, "--out", pencil),
            {"pattern": tuple(bool(x) for x in pattern)}),
        Job(f"{name}.verify", "verify", ("verify", q, pencil, "--seed", seed)),
        Job(f"{name}.spectrum", "spectrum", ("spectrum", q, pencil, "--seed", seed)),
    ]


def _pair_files(workdir: Path, tag: str, p1: int, p2: int, node_kind: str, rng):
    nodes = _nodes(rng, node_kind)
    f1 = _write_problem(workdir / f"{tag}-q1.json", p1, rng, nodes)
    f2 = _write_problem(workdir / f"{tag}-q2.json", p2, rng, nodes)
    return f1, f2


def _oracle(workdir, tag, p1, p2, node_kind, rng) -> Job:
    f1, f2 = _pair_files(workdir, tag, p1, p2, node_kind, rng)
    return Job(f"{tag}.p{p1}x{p2}.{node_kind}.oracle", "oracle",
               ("spectrum", f1, "--pair", f2, "--seed", _int(rng)),
               {"count": 4 * p1 * p2})


def _delta(workdir, tag, p1, p2, node_kind, rng) -> Job:
    f1, f2 = _pair_files(workdir, tag, p1, p2, node_kind, rng)
    return Job(f"{tag}.p{p1}x{p2}.{node_kind}.delta", "delta",
               ("delta", f1, f2, "--check-singular", "--seed", _int(rng)))


def layer_probe(workdir: Path, rng) -> list[Job]:
    """One job of every kind at n = 1, run at the start of each traced pass.

    It enters every traced layer on every workload, so a layer that the
    workload itself never reaches reads as a small measured time rather
    than as an exact zero.
    """
    jobs = _chain(workdir, "probe-a", 1, "newton", COMPANION, rng)
    jobs += _chain(workdir, "probe-b", 1, "monomial", ALL_PATTERNS[0], rng)
    jobs.append(_oracle(workdir, "probe-o", 1, 1, "newton", rng))
    jobs.append(_delta(workdir, "probe-d", 1, 1, "newton", rng))
    return jobs


class Workload:
    """A named workload: a warm-up job list and a generator of rounds.

    ``round_seconds`` is the wall time of one end-to-end round (every job
    fresh and in-process, plus one set-up probe) on the 2-vCPU machine the
    benchmark was defined on. A run of S seconds plans S / round_seconds
    rounds (rounded), so the work per run is fixed by S and does not follow
    the speed of the code; only a machine slow enough to overrun S by 40%
    cuts a run short.
    """

    name = ""
    why = ""
    round_seconds = 1.0
    lib_repeats = 1    # in-process runs per job; its time is their median
    trace_rounds = 1   # rounds in one traced pass

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def _rng(self, *key):
        return np.random.default_rng([self.seed, *key])

    def probe_jobs(self) -> list[Job]:
        return layer_probe(self.workdir, self._rng(2))

    def trace_jobs(self) -> list[Job]:
        """The fixed job list of one traced pass."""
        jobs = self.probe_jobs()
        for r in range(self.trace_rounds):
            jobs += self.round(r)
        return jobs

    def warmup(self) -> list[Job]:
        raise NotImplementedError

    def round(self, r: int) -> list[Job]:
        raise NotImplementedError


class SmallMix(Workload):
    name = "small-mix"
    why = ("n 1-8, all constructions and node kinds, oracle and Delta at p<=3: "
           "interpreter start, import and per-sample Python loops dominate")
    round_seconds = 11.0
    lib_repeats = 3
    trace_rounds = 2   # two rounds cover all eight constructions

    SIZES = (1, 2, 4, 8)
    CONSTRUCTIONS = (COMPANION, *ALL_PATTERNS)

    def warmup(self):
        rng = self._rng(0)
        jobs = _chain(self.workdir, "warm", 1, "newton", ALL_PATTERNS[0], rng)
        jobs.append(_oracle(self.workdir, "warm-o", 1, 1, "newton", rng))
        jobs.append(_delta(self.workdir, "warm-d", 1, 1, "newton", rng))
        return jobs

    def round(self, r):
        rng = self._rng(1, r)
        jobs = []
        for i, n in enumerate(self.SIZES):
            construction = self.CONSTRUCTIONS[(r + i) % len(self.CONSTRUCTIONS)]
            node_kind = NODE_KINDS[(r + 2 * i) % len(NODE_KINDS)]
            jobs += _chain(self.workdir, f"r{r}c{i}", n, node_kind, construction, rng)
        for k, (p1, p2) in enumerate(SMALL_PAIRS):
            node_kind = NODE_KINDS[(r + k) % len(NODE_KINDS)]
            jobs.append(_oracle(self.workdir, f"r{r}o{k}", p1, p2, node_kind, rng))
            jobs.append(_delta(self.workdir, f"r{r}d{k}", p1, p2, node_kind, rng))
        return jobs


class LargeCertify(Workload):
    name = "large-certify"
    why = ("n 32-64 construct/verify/spectrum: 2-9 MB pencil JSON and LAPACK "
           "det/QZ on 96-192 square matrices dominate")
    round_seconds = 19.0

    SIZES = (32, 48, 64)
    COMBOS = tuple((kind, c) for kind in ("newton", "monomial")
                   for c in (COMPANION, (1, 1, 1), (0, 1, 0)))

    def warmup(self):
        rng = self._rng(0)
        return _chain(self.workdir, "warm", self.SIZES[0], "newton", COMPANION, rng)

    def round(self, r):
        rng = self._rng(1, r)
        jobs = []
        for i, n in enumerate(self.SIZES):
            node_kind, construction = self.COMBOS[(r + i) % len(self.COMBOS)]
            jobs += _chain(self.workdir, f"r{r}c{i}", n, node_kind, construction, rng)
        return jobs


class LargePairs(Workload):
    name = "large-pairs"
    why = ("delta --check-singular at p 6-10: the dense Kronecker Delta and its "
           "SVD dominate; the other workloads never reach it")
    round_seconds = 4.2

    def warmup(self):
        rng = self._rng(0)
        return [_delta(self.workdir, "warm", *LARGE_PAIRS[0], "newton", rng)]

    def round(self, r):
        rng = self._rng(1, r)
        return [_delta(self.workdir, f"r{r}d{k}", p1, p2, "newton", rng)
                for k, (p1, p2) in enumerate(LARGE_PAIRS)]


WORKLOADS = {w.name: w for w in (SmallMix, LargeCertify, LargePairs)}
