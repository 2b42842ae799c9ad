"""Compare the outcome of ``spectrum_pair_oracle`` on three fixed pair families in two source trees.

Usage: python tools/pair_outcomes.py PARENT_SRC CHANGE_SRC, each a ``src`` directory.

Each tree runs every pair in its own process, with one BLAS thread. A pair's outcome class is
"exit 0" with the count and the sorted multiplicities, "SharedFactorError", or "exit 3" for any
other DegenerateProblemError; any other exception stops the run with its traceback. The pairs
are drawn here with numpy alone, so both trees solve the same pairs:

- table: ROADMAP item 2's table. Per p in 1..3 and t in 0..5, ``default_rng(7000 + 10 p + t)`` draws
  four shared complex normal nodes, then the six p x p blocks of Q1 and of Q2 (complex normal, in
  COEFF_KEYS order). Each pair is taken under the exact parameter scalings (a, b) in (0, 0),
  (0, -16), (16, 16), (24, -24) and (-20, 12), Q(2^a lam, 2^b mu), and solved with seed t.
- generic: 3,000 pairs. ``default_rng(900000 + i)`` draws p1 <= p2 <= 3 (two integers in 1..3,
  sorted), the nodes of kind monomial, newton or coincident for i % 3 (zero; four normal; alpha1 =
  alpha2 and beta1 = beta2), then the blocks. Seed i % 7.
- sparse: 6,000 integer pairs. ``default_rng(500000 + i)``: p1 = p2 = 2 when i % 3 == 0, else 1;
  zero nodes for odd i, else four integers in {-1, 0, 1}; then per block of Q1 and then of Q2 its
  integer entries in [-2, 2], followed by a uniform draw per entry that zeroes it below 0.6. A pair
  with a zero polynomial is skipped. Seed i % 5.

It prints every pair whose class differs between the trees, then each family's class totals
per tree (exit 0, SharedFactorError, other). The exit status is 1 when a class differs. Each
tree takes about 30 s on one core.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

KEYS = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))  # newton2pep's COEFF_KEYS
SCALINGS = ((0, 0), (0, -16), (16, 16), (24, -24), (-20, 12))
KINDS = ("monomial", "newton", "coincident")


def normal(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


def blocks(rng, p):
    """Six complex normal p x p blocks, drawn one after another."""
    return np.array([normal(rng, p, p) for _ in KEYS])


def integer_block(rng, p):
    entries = rng.integers(-2, 3, (p, p))
    return np.where(rng.random((p, p)) < 0.6, 0, entries)


def table():
    """(label, nodes, blocks of Q1, blocks of Q2, seed) of ROADMAP item 2's table."""
    for p in (1, 2, 3):
        for t in range(6):
            rng = np.random.default_rng(7000 + 10 * p + t)
            nodes, q1, q2 = normal(rng, 4), blocks(rng, p), blocks(rng, p)
            for a, b in SCALINGS:
                scale = np.reshape([2.0 ** (i * a + j * b) for i, j in KEYS], (6, 1, 1))
                scaled_nodes = nodes * [2.0 ** -a, 2.0 ** -a, 2.0 ** -b, 2.0 ** -b]
                yield (f"table p={p} t={t} (a, b)=({a}, {b})", scaled_nodes, q1 * scale,
                       q2 * scale, t)


def generic():
    for i in range(3000):
        rng = np.random.default_rng(900000 + i)
        p1, p2 = sorted(int(x) for x in rng.integers(1, 4, 2))
        kind = KINDS[i % 3]
        nodes = (np.zeros(4) if kind == "monomial" else np.repeat(normal(rng, 2), 2)
                 if kind == "coincident" else normal(rng, 4))
        yield f"generic i={i} p=({p1}, {p2}) {kind}", nodes, blocks(rng, p1), blocks(rng, p2), i % 7


def sparse():
    for i in range(6000):
        rng = np.random.default_rng(500000 + i)
        p = 2 if i % 3 == 0 else 1
        nodes = np.zeros(4) if i % 2 else rng.integers(-1, 2, 4)
        q1, q2 = (np.array([integer_block(rng, p) for _ in KEYS]) for _ in range(2))
        if q1.any() and q2.any():
            yield f"sparse i={i} p={p}", nodes, q1, q2, i % 5


def outcomes() -> list:
    """[family, label, class] of every pair, solved by the newton2pep first on sys.path."""
    from newton2pep import (COEFF_KEYS, MatrixPoly2, NewtonNodes, QtepPair, SharedFactorError,
                            spectrum_pair_oracle)
    from newton2pep.errors import DegenerateProblemError
    rows = []
    for family in (table, generic, sparse):
        for label, nodes, q1, q2, seed in family():
            nodes = NewtonNodes(*nodes)
            pair = QtepPair(*(MatrixPoly2.newton(dict(zip(COEFF_KEYS, q)), nodes)
                              for q in (q1, q2)))
            try:
                sample = spectrum_pair_oracle(pair, seed=seed)
                mults = sorted(p.multiplicity for p in sample.points)
                outcome = f"exit 0: {sample.total_count} {mults}"
            except SharedFactorError:
                outcome = "SharedFactorError"
            except DegenerateProblemError:
                outcome = "exit 3"
            rows.append([family.__name__, label, outcome])
    return rows


CHILD = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import pair_outcomes; "
         "print(json.dumps(pair_outcomes.outcomes()))")


def run(src: str) -> list:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", CHILD, str(Path(src).resolve()),
                           str(Path(__file__).resolve().parent)],
                          stdout=subprocess.PIPE, text=True, env=env, check=True)
    return json.loads(done.stdout)


def totals(rows, family) -> str:
    count = Counter("exit 0" if o.startswith("exit 0") else o if o == "SharedFactorError"
                    else "other" for f, _, o in rows if f == family)
    return (f"{sum(count.values())} pairs: {count['exit 0']} exit 0, "
            f"{count['SharedFactorError']} SharedFactorError, {count['other']} other")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change = run(sys.argv[1]), run(sys.argv[2])
    changed = [(p[1], p[2], c[2]) for p, c in zip(parent, change, strict=True) if p[2] != c[2]]
    for label, before, after in changed:
        print(f"{label}: {before} -> {after}")
    for family in ("table", "generic", "sparse"):
        print(f"{family}: parent {totals(parent, family)}; change {totals(change, family)}")
    print(f"changed: {len(changed)} of {len(parent)} pairs")
    sys.exit(1 if changed else 0)
