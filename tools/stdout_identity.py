"""Compare the CLI reports of two source trees job by job.

Usage: python tools/stdout_identity.py PARENT_SRC CHANGE_SRC [--repeat R] [--fresh R], each a
``src`` directory. Its 1073 jobs come from ``perfbench/workloads.py`` helpers, rng seed 2024, on
the three node kinds: construct, verify, spectrum for --companion and the seven ansatz patterns (no
--params, SEED or FILE) at n in {1, 3, 8, 32}; delta --check-singular, delta --params SEED or FILE
and spectrum --pair at p1 <= p2 <= 3; then 18 more, construct, verify, spectrum for --companion and
the (1, 1, 1) ansatz at n = 64. At n = 64 the Q slices have size 2n = 128, where LAPACK's
values-only and vectors paths round the eigenvalues differently, so these are the jobs whose slice
digits can move between the two paths. Then 15 more: construct, verify, spectrum for --companion
and the (1, 1, 1) ansatz at n = 3 on a Newton file whose nodes are all zero ("zero-node"), and per
node kind a mismatch at n = 3: construct --companion of one problem, then verify and spectrum of
another problem on the same nodes against that pencil, which fail; the slices of such a spectrum
job are the ones whose Q values are filtered by their backward error. Then 39 more: spectrum --pair
at seeds 0, 1 and 2 on thirteen scalar monomial pairs (``DEGENERATE_PAIRS``) with points at
infinity, multiple points, a shared factor, or determinants that both drop degree, so that the exit
codes, counts and multiplicities of those cases are compared too. Then 63 more, per node kind:
construct, verify, spectrum for --companion and the (1, 1, 1) and (0, 1, 0) ansatz at n in {3, 8}
on problems with C20 = 0, whose every slice drops degree, and for the (0, 1, 0) ansatz at n = 64,
the third construction of the large-certify workload. Then 36 more, per node kind: construct,
verify, spectrum for --companion and the (0, 1, 0) ansatz at n in {32, 64} with C20 = 0, so that
the degree-drop slices are compared at the large-certify sizes too. Then 4 more beyond the squared
range of doubles: construct --params FILE and verify at n = 2 with the problem and the parameters
times 1e160, where ||Z||_F overflows, and spectrum --pair on a 2 x 2 monomial pair (rng seed 5)
times 2^-540 and times 2^600, where a Frobenius norm of its blocks under- or overflows. Then 4
more: delta --check-singular on those two pairs, and construct --companion and verify at n = 64
with the problem times 1e4, where every sampled det L and det Q leaves the double range. Then 10
more from fixed seeds, each problem's nodes drawn before its blocks: construct --ansatz 1,1,1
without --params and verify of seed 101 at n = 3 times 1.37e6, whose default Z must sit at Q's
scale, and construct --companion and verify of seeds 0, 1, 2 and 4 at n = 2 with C20 times 1e308,
whose values verify must take at unit size. Then 6 more, with fixed seeds: spectrum of those four
companion pencils, and construct --ansatz 1,0,0 without --params and spectrum of seed 0's default
member, whose Z is 2^1023 I, so that slices at the top of the double range are compared. Then 12
more, per node kind: construct --ansatz and verify at n = 3 with the ansatz 1e-12,1,1 and 1e-8,1,1,
whose leading entry lies just below and just above tol max|v| at the default tol 1e-9, so that the
zero pattern that select_M decides, and the M it picks, are compared. Then 2 more from rng seed 3,
at n = 2 with the problem times 1e-300: construct --companion, and verify against the companion
pencil of the unscaled problem times 1e300, written in the [re, im] pair layout, whose ansatz
1e600 e1 leaves the double range while M and the witness are taken at unit size. The later
blocks are drawn after the earlier ones, so adding them does not change the earlier draws. Every
spectrum job writes its CSV with --out, as construct writes its pencil. Each tree runs the jobs in
process through its own ``cli.main``, and then loads every problem file the jobs read and writes it
again with its own ``fileio.save_problem`` (counted under "files written"), so that the problem
writer, which no job reaches, is compared too. It names every job whose report differs, with up to
three of its differing lines and then the lines of the longer report that have no counterpart (a
job whose exit code changes may print nothing on one side), and every job or problem whose written
file differs in more than digits; either makes the exit status 1. A written CSV whose text matches
once its numbers are masked counts as digits only, as a report does. So does a pencil or rewritten
problem file whose header (all but its base64 matrices) is equal and whose matrices have the same
names and sizes; the largest move of a matrix's real and imaginary parts, relative to its largest
part, is printed over all such files. For the reports that differ in digits only,
each run of consecutive point lines (`` lambda=``: the Q values of a slice, the points of a pair,
the determinant samples) is first matched line to line by nearest (lambda, mu), so that two points
whose sort keys tie and swap at rounding level count as the rounding-level moves they are. It then
groups the differing lines by their prefix, the text before the first number, and prints for each
prefix the count of lines and the largest relative move of each field on them (``lambda`` and
``distance`` apart), so a move at rounding level in one field does not hide whether another field
moved. A complex field moves as one number, |z - z'| / max(|z|, |z'|), so a part of size 1e-16 at a
zero that changes sign is a rounding-level move. The lambda and mu of a point line move relative to
max(|z|, |z'|, s) with s the largest |lambda| (or |mu|) on the job's point lines and at least 1,
the max(1, |lambda|) of the slice matching: a whole point at zero, such as the 2-fold point (0, 0)
of lambda mu with lambda + mu, moves by rounding, not by O(1). A distance moves relative to what
the slice matching compares it with, match_tol max(1, |lambda|): a point line's own lambda, and for
a slice line's max distance the lambda of the point that attains it. So two rounding-level
distances such as 1e-15 and 5e-15 move by 4e-9 of that, not by 0.8 of their own size. In the same
way a ``witness gamma agreement`` value of verify moves relative to GAMMA_AGREEMENT_TOL, the bound
verify compares it with, and the ``residual`` of a pair point moves relative to RESIDUAL_TOL, the
largest backward error the pair solver returns: each value is itself at rounding level, so a
rounding move would read 1. So do the ``max relative deviation``, each sample's ``deviation``, the
``membership residual`` and the ``witness reduction residual`` relative to the job's tolerance,
which the verdict compares them with, and the logs ``log gamma estimate``, ``witness log gamma
prediction`` and each sample's ``log detL`` and ``log detQ`` by their absolute move, as the
agreement of two logs is read from their difference.

With --repeat R, after the comparison every job runs R more times per tree in this process, the
trees alternating job by job with each tree's modules swapped in, and the median over the
repeats of each subcommand's summed in-process time is printed per tree, with the ratio
parent / change. The first, compared run is left out, as it pays for imports.

With --fresh R, every job also runs R times per tree as its own ``python -m newton2pep.cli``
process, with that tree's src first on PYTHONPATH, the trees alternating as above. So the code
under the module's ``__main__`` check runs, which the in-process runs never reach. Each fresh run's
exit code, stdout bytes and written file bytes must equal that tree's in-process run, or the job
is named and the exit status is 1. The median over the repeats of each subcommand's summed wall
time, interpreter start and imports included, is printed per tree, with the ratio
parent / change. Then a bare ``python -c "import newton2pep.cli"`` runs R times per tree, the
trees alternating run by run, with the bytecode the job runs left; its median wall time is
printed per tree, with the number of the R pairs of runs in which the change was faster."""

import argparse
import binascii
import contextlib
import io
import itertools
import json
import os
import re
import statistics
import subprocess
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
AGREEMENT = "witness gamma agreement:"  # a verify line, compared with GAMMA_AGREEMENT_TOL
# Fields of construct and verify reports that move in absolute terms: logs against 1, and
# deviations and residuals against the job's tolerance, the bound that verify compares them with.
LOGS = ("log gamma estimate", "witness log gamma prediction", "log detL", "log detQ")
AGAINST_TOL = ("max relative deviation", "deviation", "membership residual",
               "witness reduction residual")


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
    for kind in NODE_KINDS:  # degree-drop slices at the large-certify sizes
        for n, c in itertools.product((32, 64), ("companion", (0, 1, 0))):
            jobs += chain(kind, n, c, None, drop=True)
    def times(factor, name, key=None, only=None):
        # The [re, im] lists of a file, or of its key (its entry ``only`` alone), times factor.
        doc = json.loads((work / name).read_text())
        part = doc[key] if key else doc
        part.update({k: [[factor * x for x in z] for z in v] for k, v in part.items()
                     if only in (None, k)})
        (work / name).write_text(json.dumps(doc))
        return name
    q = times(1e160, _write_problem(work / "huge.q", 2, rng, _nodes(rng, "newton")), "coefficients")
    jobs += [("huge.construct", ["construct", q, "--ansatz", "1,0,0", "--params",
                                 times(1e160, pfile("huge.p", 2)), "--out", "huge"]),
             ("huge.verify", ["verify", q, "huge", "--seed", _int(rng)])]
    for k in (-540, 600):  # fixed seeds: no draw from rng
        pair_rng = np.random.default_rng(5)
        f1, f2 = (times(2.0 ** k, _write_problem(work / f"scaled{k}{ab}", 2, pair_rng, None),
                        "coefficients") for ab in "ab")
        jobs.append((f"scaled{k}.pair", ["spectrum", f1, "--pair", f2, "--seed", "0",
                                         "--out", f"scaled{k}.csv"]))
    jobs += [(f"scaled{k}.delta", ["delta", f"scaled{k}a", f"scaled{k}b", "--check-singular",
                                   "--seed", "0"]) for k in (-540, 600)]
    q = times(1e4, _write_problem(work / "large.q", 64, rng, _nodes(rng, "newton")), "coefficients")
    jobs += [("large.construct", ["construct", q, "--companion", "--out", "large"]),
             ("large.verify", ["verify", q, "large", "--seed", _int(rng)])]
    seeded = np.random.default_rng(101)  # fixed seeds: no draw from rng
    q = times(1.37e6, _write_problem(work / "million111.q", 3, seeded, _nodes(seeded, "newton")),
              "coefficients")
    jobs += [("million111.construct", ["construct", q, "--ansatz", "1,1,1", "--out", "million111"]),
             ("million111.verify", ["verify", q, "million111", "--seed", "0"])]
    for s in (0, 1, 2, 4):
        seeded = np.random.default_rng(s)
        q = times(1e308, _write_problem(work / f"c20huge{s}.q", 2, seeded, _nodes(seeded, "newton")),
                  "coefficients", "A20")
        jobs += [(f"c20huge{s}.construct", ["construct", q, "--companion", "--out", f"c20huge{s}"]),
                 (f"c20huge{s}.verify", ["verify", q, f"c20huge{s}", "--seed", "0"])]
    jobs += [(f"c20huge{s}.spectrum", ["spectrum", f"c20huge{s}.q", f"c20huge{s}", "--seed", "0",
                                       "--out", f"c20huge{s}.csv"]) for s in (0, 1, 2, 4)]
    jobs += [("c20huge0.e1.construct", ["construct", "c20huge0.q", "--ansatz", "1,0,0",
                                        "--out", "c20huge0.e1"]),
             ("c20huge0.e1.spectrum", ["spectrum", "c20huge0.q", "c20huge0.e1", "--seed", "0",
                                       "--out", "c20huge0.e1.csv"])]
    for kind in NODE_KINDS:  # a leading entry below and above tol max|v| = 1e-9: the zero pattern
        q = _write_problem(work / f"{kind}.leading.q", 3, rng, _nodes(rng, kind))
        for label, v in (("below", "1e-12,1,1"), ("above", "1e-8,1,1")):
            tag = f"{kind}.leading-{label}"
            jobs += [(f"{tag}.construct", ["construct", q, "--ansatz", v, "--out", tag]),
                     (f"{tag}.verify", ["verify", q, tag, "--seed", _int(rng)])]
    seeded = np.random.default_rng(3)  # fixed seeds: no draw from rng
    q = _write_problem(work / "outrange.q", 2, seeded, _nodes(seeded, "newton"))
    doc = json.loads((work / q).read_text())
    c = {k: (np.array(v) @ [1, 1j]).reshape(2, 2) for k, v in doc.pop("coefficients").items()}
    i, o = np.eye(2), np.zeros((2, 2))  # the companion pencil's blocks, in the pair layout
    doc["blocks"] = {k: _pairs(np.block(b)) for k, b in (
        ("A1", [[c["A20"], c["A11"], o], [o, o, o], [o, o, i]]),
        ("A2", [[o, c["A02"], o], [o, o, i], [o, o, o]]),
        ("A3", [[c["A10"], c["A01"], c["A00"]], [o, -i, o], [-i, o, o]]))}
    (work / "outrange.L").write_text(json.dumps(doc))
    q, pencil = times(1e-300, q, "coefficients"), times(1e300, "outrange.L", "blocks")
    jobs += [("outrange.construct", ["construct", q, "--companion", "--out", "outrange"]),
             ("outrange.verify", ["verify", q, pencil, "--seed", "0"])]
    return jobs


def matrix_move(a: bytes, b: bytes):
    """The largest relative move of the matrices of two written pencil or problem files whose
    headers agree and whose matrices have the same names and sizes, or None."""
    docs = [json.loads(x) for x in (a, b)]
    group = "blocks" if "blocks" in docs[0] else "coefficients"
    mats = [doc.pop(group, {}) for doc in docs]
    if docs[0] != docs[1] or mats[0].keys() != mats[1].keys():
        return None
    move = 0.0
    for name in mats[0]:
        u, w = (np.frombuffer(binascii.a2b_base64(m[name]), "<f8") for m in mats)
        if u.shape != w.shape:
            return None
        size = max(np.abs(u).max(initial=0.0), np.abs(w).max(initial=0.0))
        move = max(move, np.abs(u - w).max(initial=0.0) / (size or 1.0))
    return move


def problem_files(jobs) -> list:
    """Every problem file the jobs read, once each, in job order."""
    files = {}
    for _, argv in jobs:
        files.update(dict.fromkeys(argv[1:3] if argv[0] == "delta" else argv[1:2]))
        if "--pair" in argv:
            files[argv[argv.index("--pair") + 1]] = None
    return list(files)


def resave_problems(fileio, files) -> dict:
    """{file: bytes of the file loaded and written again by this tree's fileio}."""
    for name in files:
        fileio.save_problem(name + ".resaved", fileio.load_problem(name))
    return {name: Path(name + ".resaved").read_bytes() for name in files}


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


def alternated(trees, jobs, repeat: int, time_job, what: str) -> None:
    """Run every job ``repeat`` more times per tree in the tree's work directory, the two trees
    alternating job by job (and which goes first alternating too), as ``time_job(tree, name,
    argv)``, which returns seconds; print the median over the repeats of each subcommand's
    summed seconds, per tree, with the ratio parent / change."""
    totals = [[Counter() for _ in range(repeat)] for _ in trees]
    for r, (j, (name, argv)) in itertools.product(range(repeat), enumerate(jobs)):
        for i in (0, 1) if (r + j) % 2 == 0 else (1, 0):
            with contextlib.chdir(trees[i]["work"]):
                totals[i][r][subcommand(argv)] += time_job(trees[i], name, argv)
    print(f"median {what} of {repeat} repeats, parent / change:")
    for kind in [*dict.fromkeys(subcommand(argv) for _, argv in jobs), None]:
        parent, change = (statistics.median(sum(t.values()) if kind is None else t[kind]
                                            for t in tree) for tree in totals)
        print(f"  {kind or 'all jobs':16s} {1e3 * parent:9.1f} ms {1e3 * change:9.1f} ms  "
              f"ratio {parent / change:.3f}")


def in_process_seconds(tree, name, argv) -> float:
    """One more in-process run of a job, with the tree's own modules swapped into sys.modules."""
    sys.modules.update(tree["modules"])
    with contextlib.redirect_stderr(io.StringIO()):
        return run_job(tree["cli"], argv)[3]


def fresh_env(tree) -> dict:
    """This process's environment with the tree's src first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([tree["src"]] + ([path] if path else [])))


def import_times(trees, repeat: int) -> None:
    """Time ``repeat`` fresh ``python -c "import newton2pep.cli"`` runs per tree, the trees
    alternating (and which goes first alternating too); print the median per tree and the
    number of pairs of runs in which the change was faster."""
    seconds = [[], []]
    for r in range(repeat):
        for i in (0, 1) if r % 2 == 0 else (1, 0):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import newton2pep.cli"], env=fresh_env(trees[i]),
                           check=True)
            seconds[i].append(time.perf_counter() - start)
    parent, change = (1e3 * statistics.median(t) for t in seconds)
    wins = sum(c < p for p, c in zip(*seconds))
    print(f"median fresh import of newton2pep.cli over {repeat} runs, parent / change: "
          f"{parent:.1f} ms {change:.1f} ms  change faster in {wins} of {repeat}")


def fresh_seconds(tree, name, argv) -> float:
    """Wall time of one ``python -m newton2pep.cli`` run of a job; a run whose exit code, stdout
    or written file differs from the tree's in-process run is named and kept in tree["fresh"]."""
    out_file = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out_file is not None:
        out_file.unlink(missing_ok=True)  # so that a run writing nothing reads as None
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "newton2pep.cli", *argv], env=fresh_env(tree),
                          capture_output=True)
    seconds = time.perf_counter() - start
    written = out_file.read_bytes() if out_file is not None and out_file.exists() else None
    code, report, in_process = tree["run"][name]
    equal = (done.returncode, done.stdout, written) == (code, report.encode(), in_process)
    tree["fresh"].append(equal)
    if not equal:
        print(f"fresh differs: {name} in {tree['src']} (exit {code} -> {done.returncode})")
    return seconds


def main(*sources, repeat: int = 0, fresh: int = 0) -> int:
    runs, trees, resaved = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i, src in enumerate(sources):
            (work := Path(tmp, str(i))).mkdir()
            jobs = build_jobs(work, np.random.default_rng(2024))
            for name in [m for m in sys.modules if m.split(".")[0] == "newton2pep"]:
                del sys.modules[name]
            sys.path.insert(0, src := str(Path(src).resolve()))
            from newton2pep import cli, fileio
            with contextlib.chdir(work), contextlib.redirect_stderr(io.StringIO()):
                runs.append({name: run_job(cli, argv)[:3] for name, argv in jobs})
                resaved.append(resave_problems(fileio, problem_files(jobs)))
            trees.append({"work": work, "cli": cli, "src": src, "run": runs[-1], "fresh": [],
                          "modules": {m: module for m, module in sys.modules.items()
                                      if m.split(".")[0] == "newton2pep"}})
        if repeat:
            alternated(trees, jobs, repeat, in_process_seconds, "in-process time")
        if fresh:
            alternated(trees, jobs, fresh, fresh_seconds, "fresh-process wall time")
            fresh_equal = [sum(tree["fresh"]) for tree in trees]
            print(f"fresh runs per tree: {len(jobs) * fresh}  equal to in-process: "
                  + " and ".join(map(str, fresh_equal)))
            import_times(trees, fresh)
    diff = [name for name, _ in jobs if runs[0][name][:2] != runs[1][name][:2]]
    agreement_tol = trees[0]["modules"]["newton2pep.linearize"].GAMMA_AGREEMENT_TOL
    residual_tol = trees[0]["modules"]["newton2pep.twoparam"].RESIDUAL_TOL
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
        tol = [float(x.split(":")[1]) for x, _ in lines if x.startswith("tolerance:")]
        for i, (x, y) in ((i, xy) for i, xy in enumerate(lines) if xy[0] != xy[1]):
            moved[prefix := NUMBER.split(x, 1)[0]] += 1
            fields = largest.setdefault(prefix, {})
            for field, (u, w) in line_fields(x, y).items():
                size = max(np.linalg.norm(u), np.linalg.norm(w),
                           floor.get(field, 0.0) if x.startswith(POINT) else 0.0)
                if field.endswith("distance") and i in allowed:
                    size = allowed[i]
                elif x.startswith(AGREEMENT):
                    size = agreement_tol
                elif x.startswith(POINT) and field == "residual":
                    size = residual_tol
                elif field in LOGS:
                    size = 1.0
                elif field in AGAINST_TOL and tol:
                    size = tol[0]
                move = np.linalg.norm(u - w) / (size or 1.0)
                fields[field] = max(fields.get(field, 0.0), move)
    written = [(name, argv[argv.index("--out") + 1].endswith(".csv"),
                runs[0][name][2], runs[1][name][2]) for name, argv in jobs
               if {runs[0][name][2], runs[1][name][2]} != {None}]
    written += [(name + ".resaved", False, resaved[0][name], resaved[1][name])
                for name in resaved[0]]
    files_moved, files_differ, matrices_moved = [], [], []
    for name, csv, a, b in written:
        if a == b:
            continue
        if None in (a, b):
            move = None
        elif csv:
            move = 0.0 if NUMBER.sub("#", a.decode()) == NUMBER.sub("#", b.decode()) else None
        else:
            matrices_moved.append(move := matrix_move(a, b))
        if move is not None:
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
    if moves := [move for move in matrices_moved if move is not None]:
        print(f"  pencil and problem files moved in digits: {len(moves)}  "
              f"largest relative move: {max(moves):.3g}")
    return int(len(digits) < len(diff) or bool(files_differ)
               or fresh > 0 and min(fresh_equal) < len(jobs) * fresh)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sources", nargs=2, metavar="SRC", help="parent, then change")
    parser.add_argument("--repeat", type=int, default=0, metavar="R",
                        help="time every job R more times per tree, alternating the trees")
    parser.add_argument("--fresh", type=int, default=0, metavar="R",
                        help="run every job R times per tree as python -m newton2pep.cli, "
                             "alternating the trees, and compare it with the in-process run; "
                             "then time R bare imports of newton2pep.cli per tree")
    args = parser.parse_args()
    sys.exit(main(*args.sources, repeat=args.repeat, fresh=args.fresh))
