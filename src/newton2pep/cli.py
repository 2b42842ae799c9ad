"""Command-line interface: construct / verify / delta / spectrum.

Reports are written to stdout and are byte-deterministic for a fixed
(input files, flags, seed) combination; wall-clock timing goes to stderr so
it never perturbs the report. Exit codes: 0 pass, 1 fail, 2 usage or parse
error, 3 inconclusive (degenerate input).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time

import numpy as np

from .errors import (
    AdmissibilityError,
    DegenerateProblemError,
    Newton2PepError,
    NodeMismatchError,
    SharedFactorError,
)
from .fileio import FileFormatError, layout, load_params, load_pencil, load_problem, save_pencil
from .linearize import (
    GAMMA_AGREEMENT_TOL,
    E1FreeParams,
    companion_pencil,
    construct_general_ansatz,
    member_witness,
    verify_linearization,
)
from .spaces import DEFAULT_SAMPLES, DEFAULT_TOL, membership_newton
from .twoparam import (
    KERNEL_WITNESS,
    QtepPair,
    certify_singular,
    pair_linearize,
    spectrum_pair_oracle,
    verify_spectrum_match,
)

ENV_SEED = "NEWTON2PEP_SEED"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _fmt_f(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_c(z: complex) -> str:
    z = complex(z)
    return f"({z.real:.17g}, {z.imag:.17g})"


def _fmt_cvec(v) -> str:
    return ", ".join(_fmt_c(z) for z in np.asarray(v).ravel())


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is None:
        return 0
    try:
        return _seed(env)
    except argparse.ArgumentTypeError as exc:
        raise FileFormatError(f"environment variable {ENV_SEED} {exc}") from None


def _parse_ansatz(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise FileFormatError(f"--ansatz expects three comma-separated complex "
                              f"numbers, got {text!r}")
    try:
        v = np.array([complex(p.strip()) for p in parts])
    except ValueError:
        raise FileFormatError(f"--ansatz could not parse {text!r} as complex "
                              "numbers (use Python syntax, e.g. 1, 0.5+2j)")
    if not (np.isfinite(v).all() and v.any()):
        raise FileFormatError(f"--ansatz must be a finite nonzero vector, got {text!r}")
    return v


def _params_for(source: int | str, *sizes: int) -> tuple:
    """Free parameters, one per block size: drawn in turn from one generator
    seeded with the integer ``source``, or read from the JSON file ``source``."""
    if isinstance(source, str):
        return load_params(source, *sizes)
    rng = np.random.default_rng(source)
    return tuple(E1FreeParams.random(n, rng) for n in sizes)


class Report:
    def __init__(self):
        self.lines: list[str] = []

    def add(self, line: str = ""):
        self.lines.append(line)

    def emit(self):
        sys.stdout.write("\n".join(self.lines) + "\n")


# ---------------------------------------------------------------- construct

def _cmd_construct(args) -> int:
    seed = _resolve_seed(args)
    q = load_problem(args.problem)
    report = Report()
    report.add(f"command: construct {'--companion' if args.companion else '--ansatz ' + args.ansatz}")
    report.add(f"input: {args.problem}")
    report.add(f"seed: {seed}")
    report.add(f"tolerance: {_fmt_f(args.tol)}")
    report.add(f"problem: basis={layout(q)} n={q.n}")

    if args.companion:
        pencil = companion_pencil(q)
        ansatz_note = "e1 (companion)"
    else:
        v = _parse_ansatz(args.ansatz)
        params = None if args.params is None else _params_for(args.params, q.n)[0]
        built = construct_general_ansatz(q, v, params, tol=args.tol)
        pencil = built.pencil_v
        ansatz_note = _fmt_cvec(v)
        report.add("M:")
        for row in built.M:
            report.add("  " + _fmt_cvec(row))

    report.add(f"ansatz requested: {ansatz_note}")

    membership = membership_newton(pencil, q, tol=args.tol)
    report.add(f"membership: {'member' if membership.member else 'not-member'}")
    report.add(f"ansatz recovered: {_fmt_cvec(membership.ansatz.vector)}")
    report.add(f"membership residual: {_fmt_f(membership.residual)}")

    save_pencil(args.out, pencil)
    report.add(f"output: {args.out}")
    report.emit()
    return EXIT_PASS if membership.member else EXIT_FAIL


# ------------------------------------------------------------------- verify

def _cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    q = load_problem(args.problem)
    pencil = load_pencil(args.pencil)

    report = Report()
    report.add("command: verify")
    report.add(f"inputs: {args.problem} {args.pencil}")
    report.add(f"seed: {seed}")
    report.add(f"tolerance: {_fmt_f(args.tol)}")
    report.add(f"samples: {args.samples}")

    membership = membership_newton(pencil, q, tol=args.tol)
    report.add(f"membership: {'member' if membership.member else 'not-member'}")
    report.add(f"ansatz recovered: {_fmt_cvec(membership.ansatz.vector)}")
    report.add(f"membership residual: {_fmt_f(membership.residual)}")

    lin = verify_linearization(pencil, q, samples=args.samples, seed=seed, tol=args.tol)
    report.add(f"gamma estimate: {_fmt_c(lin.gamma_estimate)}")
    report.add(f"max relative deviation: {_fmt_f(lin.max_relative_deviation)}")
    report.add("determinant samples:")
    for lam, mu, det_l, det_q, dev in lin.samples:
        report.add(f"  lambda={_fmt_c(lam)} mu={_fmt_c(mu)} "
                   f"detL={_fmt_c(det_l)} detQ={_fmt_c(det_q)} "
                   f"deviation={_fmt_f(dev)}")

    try:
        wit = member_witness(q, pencil, membership.ansatz, tol=args.tol)
    except AdmissibilityError as exc:  # a zero ansatz or a singular Z: no witness exists
        report.add(f"witness unavailable: {exc}")
        witness_ok = False
    else:
        report.add(f"witness reduction residual: {_fmt_f(wit.reduction_residual)}")
        with np.errstate(over="ignore"):  # an out-of-range gamma prints as inf
            report.add(f"witness gamma prediction: {_fmt_c(np.exp(wit.log_predicted_gamma))}")
            rel = abs(np.exp(lin.log_gamma - wit.log_predicted_gamma) - 1)
        report.add(f"witness gamma agreement: {_fmt_f(rel)}")
        witness_ok = wit.reduction_residual <= args.tol and rel <= GAMMA_AGREEMENT_TOL
    report.add(f"witness check: {'pass' if witness_ok else 'fail'}")

    overall = membership.member and lin.passed and witness_ok
    report.add(f"verdict: {'PASS' if overall else 'FAIL'}")
    report.emit()
    return EXIT_PASS if overall else EXIT_FAIL


# -------------------------------------------------------------------- delta

def _cmd_delta(args) -> int:
    seed = _resolve_seed(args)
    q1 = load_problem(args.problem1)
    q2 = load_problem(args.problem2)
    pair = QtepPair(q1, q2)

    source = seed if args.params is None else args.params
    params1, params2 = _params_for(source, pair.p1, pair.p2)
    params_note = f"file {source}" if isinstance(source, str) else f"random(seed={source})"

    ln1, ln2 = pair_linearize(pair, params1, params2)
    cert = certify_singular(ln1, ln2, tol=args.tol)

    report = Report()
    report.add("command: delta")
    report.add(f"inputs: {args.problem1} {args.problem2}")
    report.add(f"seed: {seed}")
    report.add(f"singularity tolerance: {_fmt_f(args.tol)}")
    report.add(f"pair: p1={pair.p1} p2={pair.p2}")
    report.add(f"params: {params_note}")
    k1, k2 = 3 * pair.p1, 3 * pair.p2
    report.add(f"delta operators: three {k1 * k2}x{k1 * k2} matrices (k1={k1}, k2={k2})")
    relation = "<=" if cert.route == KERNEL_WITNESS else "="
    report.add(f"certificate: {cert.route}, sigma_min(Delta0) {relation} "
               f"{_fmt_f(cert.value)}")
    report.add(f"frobenius(Delta0): {_fmt_f(cert.frobenius)}")
    report.add(f"threshold: {_fmt_f(cert.threshold)}")
    report.add(f"margin: {_fmt_f(cert.margin)}")
    report.add(f"structural zero pattern: {'yes' if cert.structural_zero_pattern else 'no'}")
    report.add(f"singular: {'yes' if cert.is_singular else 'no'}")
    report.emit()
    if args.check_singular and not cert.is_singular:
        return EXIT_FAIL
    return EXIT_PASS


# ----------------------------------------------------------------- spectrum

def _write_csv(path, rows, last: str) -> None:
    lines = [f"re_lambda,im_lambda,re_mu,im_mu,{last}"]
    for lam, mu, resid in rows:
        lam, mu = complex(lam), complex(mu)
        lines.append(f"{lam.real:.17g},{lam.imag:.17g},"
                     f"{mu.real:.17g},{mu.imag:.17g},{float(resid):.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_spectrum(args) -> int:
    seed = _resolve_seed(args)
    q = load_problem(args.problem)
    report = Report()
    report.add("command: spectrum")

    if args.pair is not None:
        if args.pencil is not None:
            raise FileFormatError("pair mode does not take a pencil file")
        q2 = load_problem(args.pair)
        pair = QtepPair(q, q2)
        report.add("mode: pair")
        report.add(f"inputs: {args.problem} {args.pair}")
        report.add(f"seed: {seed}")
        sample = spectrum_pair_oracle(pair, seed=seed)
        report.add(f"bezout bound: {sample.bezout_bound}")
        report.add(f"count (multiplicity-aware): {sample.total_count}")
        report.add(f"within bound: {'yes' if sample.total_count <= sample.bezout_bound else 'no'}")
        report.add("points:")
        rows = []
        for pt in sample.points:
            report.add(f"  lambda={_fmt_c(pt.lam)} mu={_fmt_c(pt.mu)} "
                       f"multiplicity={pt.multiplicity} residual={_fmt_f(pt.residual)}")
            rows.append((pt.lam, pt.mu, pt.residual))
        if args.out:
            _write_csv(args.out, rows, "residual")
            report.add(f"csv: {args.out}")
        report.emit()
        return EXIT_PASS

    if args.pencil is None:
        raise FileFormatError("slice mode requires a pencil file (or use --pair "
                              "to solve the joint spectrum of two problems)")
    if args.slices < 1:
        raise FileFormatError(f"--slices must be at least 1, got {args.slices}")

    pencil = load_pencil(args.pencil)

    report.add("mode: slice")
    report.add(f"inputs: {args.problem} {args.pencil}")
    report.add(f"seed: {seed}")
    report.add(f"slices: {args.slices}")
    report.add(f"match tolerance: {_fmt_f(args.match_tol)}")
    result = verify_spectrum_match(q, pencil, slices=args.slices, seed=seed,
                                   match_tol=args.match_tol)
    rows = []
    for idx, rec in enumerate(result.records, start=1):
        status = "contained" if rec.contained else "MISMATCH"
        if rec.pencil_singular:
            status = "PENCIL-SINGULAR (determinant vanishes identically)"
        worst = max(rec.distances) if rec.distances else 0.0
        report.add(f"slice {idx}: mu0={_fmt_c(rec.mu0)} "
                   f"eigenvalues={len(rec.q_eigenvalues)} {status} "
                   f"max distance={_fmt_f(worst)}")
        for lam, dist in zip(rec.q_eigenvalues, rec.distances):
            report.add(f"  lambda={_fmt_c(lam)} distance={_fmt_f(dist)}")
            rows.append((lam, rec.mu0, dist))
    report.add(f"containment: {'PASS' if result.all_contained else 'FAIL'}")
    if args.out:
        _write_csv(args.out, rows, "distance")
        report.add(f"csv: {args.out}")
    report.emit()
    return EXIT_PASS if result.all_contained else EXIT_FAIL


# --------------------------------------------------------------------- main

def _tolerance(text: str) -> float:
    """argparse type: a finite tolerance > 0 (NaN would make every check pass)."""
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type: a seed for numpy.random.default_rng (an integer >= 0)."""
    if not re.fullmatch(r"[0-9]+", text.strip()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _seed_or_file(text: str) -> int | str:
    """argparse type for --params: an optionally signed integer is a seed
    (checked by _seed), anything else the path of a JSON file."""
    return _seed(text) if re.fullmatch(r"-?[0-9]+", text) else text


def _samples(text: str) -> int:
    """argparse type: sample count; a quadratic in (lam, mu) has 6 coefficients,
    so fewer points cannot certify an identity between two of them."""
    value = int(text)
    if value < 6:
        raise argparse.ArgumentTypeError(f"must be at least 6, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="newton2pep",
        description="Construct and certify linearizations of quadratic "
                    "two-parameter matrix polynomials in Newton bases.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=None,
                       help=f"run seed (default: ${ENV_SEED} or 0)")
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                       help="relative tolerance for identity checks")

    p = sub.add_parser("construct", help="build a pencil from a problem file")
    p.add_argument("problem")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--companion", action="store_true",
                      help="emit the companion pencil")
    mode.add_argument("--ansatz", metavar="a,b,c",
                      help="target ansatz vector (three complex numbers)")
    p.add_argument("--params", metavar="SEED|FILE", type=_seed_or_file, default=None,
                   help="free parameters: integer seed for a random draw or "
                        "a JSON file with Y11/Z1/Z2")
    p.add_argument("--out", required=True, help="output pencil file")
    common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="certify a pencil against a problem file")
    p.add_argument("problem")
    p.add_argument("pencil")
    p.add_argument("--samples", type=_samples, default=DEFAULT_SAMPLES)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("delta", help="build and certify the operator determinants of a pair")
    p.add_argument("problem1")
    p.add_argument("problem2")
    p.add_argument("--params", metavar="SEED|FILE", type=_seed_or_file, default=None,
                   help="free parameters for both pencils")
    p.add_argument("--check-singular", action="store_true",
                   help="exit nonzero unless Delta0 is certified singular")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--tol", type=_tolerance, default=1e-7,
                   help="singularity threshold relative to ||Delta0||_F")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("spectrum", help="slice containment table or joint spectrum of a pair")
    p.add_argument("problem")
    p.add_argument("pencil", nargs="?", default=None)
    p.add_argument("--slices", type=int, default=5)
    p.add_argument("--pair", metavar="Q2FILE", default=None,
                   help="second problem file: solve the joint spectrum from the "
                        "pair's Delta operators (e1 pencils drawn from the seed)")
    p.add_argument("--match-tol", type=_tolerance, default=1e-6)
    p.add_argument("--out", default=None, help="CSV output path")
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except (FileFormatError, NodeMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SharedFactorError as exc:
        print(f"degenerate pair: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except DegenerateProblemError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except AdmissibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Newton2PepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    finally:
        print(f"timing: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
