"""Compare the CLI reports of two source trees job by job.

Usage: python tools/stdout_identity.py PARENT_SRC CHANGE_SRC [--repeat R], each a ``src``
directory. Its 999 jobs come from ``perfbench/workloads.py`` helpers, rng seed 2024, on the three
node kinds: construct, verify, spectrum for --companion and the seven ansatz patterns (no --params,
SEED or FILE) at n in {1, 3, 8, 32}; delta --check-singular, delta --params SEED or FILE and
spectrum --pair at p1 <= p2 <= 3; then 18 more, construct, verify, spectrum for --companion and the
(1, 1, 1) ansatz at n = 64. At n = 64 the Q slices have size 2n = 128, where LAPACK's values-only
and vectors paths round the eigenvalues differently, so these are the jobs whose slice digits can
move between the two paths. Then 15 more: construct, verify, spectrum for --companion and the
(1, 1, 1) ansatz at n = 3 on a Newton file whose nodes are all zero ("zero-node"), and per node
kind a mismatch at n = 3: construct --companion of one problem, then verify and spectrum of another
problem on the same nodes against that pencil, which fail; the slices of such a spectrum job are
the ones whose Q values are filtered by their backward error. Then 39 more: spectrum --pair at
seeds 0, 1 and 2 on thirteen scalar monomial pairs (``DEGENERATE_PAIRS``) with points at infinity,
multiple points, a shared factor, or determinants that both drop degree, so that the exit codes,
counts and multiplicities of those cases are compared too. Then 63 more, per node kind:
construct, verify, spectrum for --companion and the (1, 1, 1) and (0, 1, 0) ansatz at n in {3, 8}
on problems with C20 = 0, whose every slice drops degree, and for the (0, 1, 0) ansatz at n = 64,
the third construction of the large-certify workload. The later blocks are drawn after the
earlier ones, so adding them does not change the earlier draws. Every spectrum job writes its CSV
with --out, as construct writes its pencil. Each tree runs the jobs in process through its own
``cli.main``. It names every job whose report differs, with up to three of its differing lines and
then the lines of the longer report that have no counterpart (a job whose exit code changes may
print nothing on one side), and every job whose written file differs in more than digits; either
makes the exit status 1. A written CSV whose text matches once its numbers are masked counts as
digits only, as a report does; a pencil file is base64, so any byte that differs there counts. For
the reports that differ in digits only, each run of consecutive point lines
(``  lambda=``: the Q values of a slice, the points of a pair, the determinant samples) is first
matched line to line by nearest (lambda, mu), so that two points whose sort keys tie and swap at
rounding level count as the rounding-level moves they are. It then groups the differing lines by
their prefix, the text before the first number, and prints for each prefix the count of lines and
the largest relative move of each field on them (``lambda`` and ``distance`` apart), so a move at
rounding level in one field does not hide whether another field moved. A complex field moves as one
number, |z - z'| / max(|z|, |z'|), so a part of size 1e-16 at a zero that changes sign is a
rounding-level move. The lambda and mu of a point line move relative to max(|z|, |z'|, s) with s
the largest |lambda| (or |mu|) on the job's point lines and at least 1, the max(1, |lambda|) of the
slice matching: a whole point at zero, such as the 2-fold point (0, 0) of lambda mu with
lambda + mu, moves by rounding, not by O(1). A distance moves relative to what the slice matching
compares it with, match_tol max(1, |lambda|): a point line's own lambda, and for a slice line's
max distance the lambda of the point that attains it. So two rounding-level distances such as
1e-15 and 5e-15 move by 4e-9 of that, not by 0.8 of their own size.

With --repeat R, after the comparison every job runs R more times per tree in this process, the
trees alternating job by job with each tree's modules swapped in, and the median over the
repeats of each subcommand's summed in-process time is printed per tree, with the ratio
parent / change. The first, compared run is left out, as it pays for imports."""

import argparse
import contextlib
import io
import itertools
import json
import re
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import numpy as np  # noqa: E402
from perfbench.workloads import (ALL_PATTERNS, COEFF_NAMES, NODE_KINDS, _ansatz_text,  # noqa: E402
                                 _int, _nodes, _normal, _pairs, _write_problem)

# Scalar pairs with points at infinity, multiple points, a shared factor or a degree drop,
# each polynomial's coefficients in COEFF_NAMES order (C20, C11, C02, C10, C01, C00).
DEGENERATE_PAIRS = (
    ((0, 1, 0, -1, 0, 0), (0, 0, 0, 1, 0, -1)),    # lam mu - lam, lam - 1: one point
    ((1, 0, 0, -1, 0, 0), (0, 0, 0, 1, 0, 0)),     # lam^2 - lam, lam: shared factor
    ((1, 0, 0, -1, 0, 0), (0, 1, 0, 0, 0, 0)),     # lam^2 - lam, lam mu: shared factor
    ((1, 0, 0, 0, 0, -1), (0, 0, 0, 1, 0, -1)),    # lam^2 - 1, lam - 1: shared factor
    ((0, 1, 0, 0, 0, -1), (1, 0, -1, 0, 0, 0)),    # lam mu - 1, lam^2 - mu^2: 4 points
    ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)),      # lam^2, mu^2: one 4-fold point
    ((-1, 0, 0, 0, 1, 0), (0, 0, 0, 0, 1, 0)),     # mu - lam^2, mu: one 2-fold point
    ((-1, 0, 0, 0, 1, 0), (-1, -1, 0, 0, 1, 0)),   # mu - lam^2, mu - lam^2 - lam mu: 3-fold
    ((0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0)),      # lam mu, lam + mu: one 2-fold point
    ((1, 0, 0, 0, -1, 0), (0, 1, 0, 0, 0, -1)),    # lam^2 - mu, lam mu - 1: 3 points
    ((0, 0, 0, 1, 0, -1), (0, 0, 0, 0, 1, -1)),    # lam - 1, mu - 1: degree drop, (1, 1)
    ((0, 0, 0, 1, 0, -1), (0, 0, 0, 1, 0, -2)),    # lam - 1, lam - 2: degree drop, no point
    ((0, 0, 0, 1, 1, -3), (0, 0, 0, 1, -1, -1)),   # lam + mu - 3, lam - mu - 1: (2, 1)
)
NUMBER = re.compile(r"(?<![A-Za-z_])[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?")  # not mu0's 0
POINT = "  lambda="  # a point line of a report


def line_fields(x: str, y: str) -> dict:
    """{field: (numbers in x, numbers in y)} of two lines of one layout. A field is named by the
    text before its first number, back to the last text with a letter, and holds the numbers up
    to the next name: both parts of "lambda=(1, 2)" in "lambda", the number of " distance=3" in
    "distance". So a complex value moves as one number."""
    fields, field = {}, ""
    for text, u, w in zip(NUMBER.split(x), NUMBER.findall(x), NUMBER.findall(y)):
        if re.search("[A-Za-z]", text):
            field = text.strip(" (),:=")
        fields.setdefault(field, []).append((float(u), float(w)))
    return {field: tuple(np.array(v) for v in zip(*pairs)) for field, pairs in fields.items()}


def matched_points(a: list, b: list) -> list:
    """b's lines with each run of point lines reordered to face a's (the runs sit at the same
    lines, as the layouts agree): the nearest pair in (lambda, mu) first, then the nearest of
    the rest, and so on."""
    b = list(b)
    for point, run in itertools.groupby(range(len(a)), key=lambda i: a[i].startswith(POINT)):
        if not point:
            continue
        rows = list(run)
        keys = np.array([np.concatenate([f[0] for name, f in line_fields(x, x).items()
                                         if name in ("lambda", "mu")])
                         for x in [a[i] for i in rows] + [b[i] for i in rows]])
        dist = np.linalg.norm(keys[:len(rows), None] - keys[None, len(rows):], axis=2)
        facing = {}
        for i, j in zip(*np.unravel_index(np.argsort(dist, axis=None), dist.shape)):
            if i not in facing and j not in facing.values():
                facing[i] = j
        b[rows[0]:rows[-1] + 1] = [b[rows[facing[i]]] for i in range(len(rows))]
    return b


def allowed_distances(lines) -> dict:
    """{index: match_tol max(1, |lambda|)} of the lines of a slice report that carry a distance,
    read from the first tree's lines: the largest distance the slice matching lets a point line
    have, and for a slice line's max distance the same for the point line that attains it."""
    tol = [float(x.split(":")[1]) for x, _ in lines if x.startswith("match tolerance:")]
    allowed, slice_line = {}, None
    for i, (x, y) in enumerate(lines):
        if x.startswith("slice "):
            slice_line, worst = i, line_fields(x, x)
        elif x.startswith(POINT) and tol and slice_line is not None:
            fields = line_fields(x, y)
            allowed[i] = tol[0] * max(1.0, *(np.linalg.norm(v) for v in fields["lambda"]))
            if fields["distance"][0][0] == max(v[0][0] for f, v in worst.items()
                                               if f.endswith("distance")):
                allowed.setdefault(slice_line, allowed[i])
        else:
            slice_line = None
    return allowed


def build_jobs(work: Path, rng) -> list:
    def pfile(tag, *sizes):  # one Y11/Z1/Z2 object, or params1 and params2 for a pair
        doc = {f"params{i}": {k: _pairs(_normal(rng, r * n, n)) for k, r in
                              (("Y11", 1), ("Z1", 3), ("Z2", 3))} for i, n in enumerate(sizes, 1)}
        (work / tag).write_text(json.dumps(doc if len(doc) == 2 else doc["params1"]))
        return tag
    def chain(kind, n, c, how, drop=False):  # construct, verify and spectrum of one problem
        tag = f"{kind}.n{n}.{''.join(map(str, c))}.{how}" + (".c20=0" if drop else "")
        z = np.zeros(4) if kind == "zero-node" else _nodes(rng, kind)
        q, seed = _write_problem(work / f"{tag}.q", n, rng, z), _int(rng)
        if drop:  # C20 = 0: every slice drops degree
            doc = json.loads((work / q).read_text())
            doc["coefficients"]["A20"] = _pairs(np.zeros((n, n)))
            (work / q).write_text(json.dumps(doc))
        argv = ["--companion"] if c == "companion" else ["--ansatz=" + _ansatz_text(rng, c)]
        argv += ["--params", _int(rng) if how == "seed" else pfile(tag + "p", n)] if how else []
        return [(f"{tag}.{cmd}", [cmd, q, *rest, "--seed", seed]) for cmd, rest in
                (("construct", [*argv, "--out", tag]), ("verify", [tag]),
                 ("spectrum", [tag, "--out", tag + ".csv"]))]
    jobs = []
    for kind in NODE_KINDS:
        for n, c, how in ((n, c, how) for n in (1, 3, 8, 32) for c in ("companion", *ALL_PATTERNS)
                          for how in ([None] if c == "companion" else [None, "seed", "file"])):
            jobs += chain(kind, n, c, how)
        for p1, p2 in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
            tag, z = f"{kind}.p{p1}x{p2}", _nodes(rng, kind)
            f1, f2 = (_write_problem(work / (tag + i), p, rng, z) for i, p in zip("ab", (p1, p2)))
            jobs += [(tag + ".delta", ["delta", f1, f2, "--check-singular", "--seed", _int(rng)]),
                     (tag + ".delta-seed", ["delta", f1, f2, "--params", _int(rng)]),
                     (tag + ".delta-file", ["delta", f1, f2, "--params", pfile(tag, p1, p2)]),
                     (tag + ".pair", ["spectrum", f1, "--pair", f2, "--seed", _int(rng),
                                      "--out", tag + ".csv"])]
    for kind in NODE_KINDS:  # drawn after the jobs above, so their draws do not change
        jobs += chain(kind, 64, "companion", None) + chain(kind, 64, (1, 1, 1), None)
    jobs += chain("zero-node", 3, "companion", None) + chain("zero-node", 3, (1, 1, 1), None)
    for kind in NODE_KINDS:  # Q against the companion pencil of another Q on its nodes
        tag, z = f"{kind}.mismatch", _nodes(rng, kind)
        f1, f2 = (_write_problem(work / (tag + i), 3, rng, z) for i in "ab")
        jobs += [(tag + ".construct", ["construct", f2, "--companion", "--out", tag]),
                 (tag + ".verify", ["verify", f1, tag, "--seed", _int(rng)]),
                 (tag + ".spectrum", ["spectrum", f1, tag, "--seed", _int(rng),
                                      "--out", tag + ".csv"])]
    for i, pair in enumerate(DEGENERATE_PAIRS):  # fixed seeds: no draw from rng
        f1, f2 = (f"degenerate{i}{ab}" for ab in "ab")
        for name, coeffs in zip((f1, f2), pair):
            (work / name).write_text(json.dumps({"n": 1, "basis": "monomial", "coefficients": {
                k: [[float(c), 0.0]] for k, c in zip(COEFF_NAMES, coeffs)}}))
        jobs += [(f"degenerate{i}.pair.seed{seed}", ["spectrum", f1, "--pair", f2, "--seed",
                                                      str(seed), "--out", f"{f1}{seed}.csv"])
                 for seed in range(3)]
    for kind in NODE_KINDS:  # degree-drop slices, and the third large construction
        for n, c in itertools.product((3, 8), ("companion", (1, 1, 1), (0, 1, 0))):
            jobs += chain(kind, n, c, None, drop=True)
        jobs += chain(kind, 64, (0, 1, 0), None)
    return jobs


def subcommand(argv) -> str:
    return argv[0] + (" --pair" if "--pair" in argv else "")


def run_job(cli, argv):
    """(exit code, stdout, bytes of the --out file or None, seconds in cli.main)."""
    out_file = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    with contextlib.redirect_stdout(out := io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    written = out_file.read_bytes() if out_file is not None and out_file.exists() else None
    return code, out.getvalue(), written, seconds


def repeat_times(trees, jobs, repeat: int) -> None:
    """Run every job ``repeat`` more times per tree, the two trees alternating job by job (and
    which goes first alternating too), each tree's own modules swapped into sys.modules; print
    the median over the repeats of each subcommand's summed in-process time, per tree."""
    totals = [[Counter() for _ in range(repeat)] for _ in trees]
    for r, (j, (_, argv)) in itertools.product(range(repeat), enumerate(jobs)):
        for i in (0, 1) if (r + j) % 2 == 0 else (1, 0):
            work, cli, modules = trees[i]
            sys.modules.update(modules)
            with contextlib.chdir(work), contextlib.redirect_stderr(io.StringIO()):
                totals[i][r][subcommand(argv)] += run_job(cli, argv)[3]
    print(f"median in-process time of {repeat} repeats, parent / change:")
    for kind in [*dict.fromkeys(subcommand(argv) for _, argv in jobs), None]:
        parent, change = (statistics.median(sum(t.values()) if kind is None else t[kind]
                                            for t in tree) for tree in totals)
        print(f"  {kind or 'all jobs':16s} {1e3 * parent:9.1f} ms {1e3 * change:9.1f} ms  "
              f"ratio {parent / change:.3f}")


def main(*sources, repeat: int = 0) -> int:
    runs, trees = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i, src in enumerate(sources):
            (work := Path(tmp, str(i))).mkdir()
            jobs = build_jobs(work, np.random.default_rng(2024))
            for name in [m for m in sys.modules if m.split(".")[0] == "newton2pep"]:
                del sys.modules[name]
            sys.path.insert(0, str(Path(src).resolve()))
            from newton2pep import cli
            with contextlib.chdir(work), contextlib.redirect_stderr(io.StringIO()):
                runs.append({name: run_job(cli, argv)[:3] for name, argv in jobs})
            trees.append((work, cli, {m: module for m, module in sys.modules.items()
                                      if m.split(".")[0] == "newton2pep"}))
        if repeat:
            repeat_times(trees, jobs, repeat)
    diff = [name for name, _ in jobs if runs[0][name][:2] != runs[1][name][:2]]
    digits = []
    moved, largest = Counter(), {}  # by line prefix: lines that differ; per field: largest move
    for name in diff:
        (code0, a, _), (code1, b, _) = runs[0][name], runs[1][name]
        if code0 != code1 or NUMBER.sub("#", a) != NUMBER.sub("#", b):
            print(f"differs: {name} (exit {code0} -> {code1})")
            a, b = a.splitlines(), b.splitlines()
            for x, y in [(x, y) for x, y in zip(a, b) if x != y][:3]:
                print(f"  - {x}\n  + {y}")
            for sign, line in [("-", x) for x in a[len(b):]] + [("+", y) for y in b[len(a):]]:
                print(f"  {sign} {line}")  # the longer side's lines that zip leaves unmatched
            continue
        digits.append(name)
        print(f"digits only: {name}")
        lines = list(zip(a.splitlines(), matched_points(a.splitlines(), b.splitlines())))
        floor = {"lambda": 1.0, "mu": 1.0}  # of a point line's field: its largest size, or 1
        for field, (u, w) in ((f, uw) for x, y in lines if x.startswith(POINT)
                              for f, uw in line_fields(x, y).items() if f in floor):
            floor[field] = max(floor[field], np.linalg.norm(u), np.linalg.norm(w))
        allowed = allowed_distances(lines)
        for i, (x, y) in ((i, xy) for i, xy in enumerate(lines) if xy[0] != xy[1]):
            moved[prefix := NUMBER.split(x, 1)[0]] += 1
            fields = largest.setdefault(prefix, {})
            for field, (u, w) in line_fields(x, y).items():
                size = max(np.linalg.norm(u), np.linalg.norm(w),
                           floor.get(field, 0.0) if x.startswith(POINT) else 0.0)
                if field.endswith("distance") and i in allowed:
                    size = allowed[i]
                move = np.linalg.norm(u - w) / (size or 1.0)
                fields[field] = max(fields.get(field, 0.0), move)
    written = [(name, argv) for name, argv in jobs
               if {runs[0][name][2], runs[1][name][2]} != {None}]
    files_moved, files_differ = [], []
    for name, argv in written:
        if (a := runs[0][name][2]) == (b := runs[1][name][2]):
            continue
        csv = argv[argv.index("--out") + 1].endswith(".csv") and None not in (a, b)
        if csv and NUMBER.sub("#", a.decode()) == NUMBER.sub("#", b.decode()):
            files_moved.append(name)
        else:
            files_differ.append(name)
            print(f"file differs: {name}")
    print(f"jobs: {len(jobs)}  byte-equal: {len(jobs) - len(diff)}  digits only: {len(digits)}")
    for prefix, count in sorted(moved.items()):
        label = prefix.strip(" (),:=")
        worst = "  ".join(("" if field == label else field + " ") + f"{move:.3g}"
                          for field, move in largest[prefix].items())
        print(f"  lines moved: {count:4d}  {prefix!r}  largest relative move: {worst}")
    print(f"files written: {len(written)}  "
          f"byte-equal: {len(written) - len(files_moved) - len(files_differ)}  "
          f"digits only: {len(files_moved)}")
    return int(len(digits) < len(diff) or bool(files_differ))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sources", nargs=2, metavar="SRC", help="parent, then change")
    parser.add_argument("--repeat", type=int, default=0, metavar="R",
                        help="time every job R more times per tree, alternating the trees")
    args = parser.parse_args()
    sys.exit(main(*args.sources, repeat=args.repeat))
