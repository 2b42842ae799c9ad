"""Two-parameter eigenvalue problem pairs in Newton form.

A pair of quadratic polynomials Q1 (p1 x p1) and Q2 (p2 x p2) over one
shared node set defines the joint spectrum

    { (lam, mu) : det Q1(lam, mu) = det Q2(lam, mu) = 0 },

with at most 4 p1 p2 isolated points (Bezout). Each polynomial is
linearized with the e1-ansatz construction (:func:`construct_e1_newton`),
Li = lam Ai + mu Bi + Ci with Ai and Bi its blocks A1 and A2 and the affine
constant term Ci = Li(0, 0), and the pencils are coupled through the
operator determinants

    Delta0 = A1 kron B2 - B1 kron A2
    Delta1 = B1 kron C2 - C1 kron B2
    Delta2 = C1 kron A2 - A1 kron C2,

so Delta1 z = lam Delta0 z and Delta2 z = mu Delta0 z for z = x1 kron x2.
For e1 pencils Delta0 is singular by construction: the mu coefficients
have their lower block rows supported on the last block column, so B1 u = 0
and B2 v = 0 have solutions and u kron v annihilates Delta0. The
certificate uses that witness on the 3p x 3p blocks. The joint spectrum is
solved on the regular part of the singular operators, of size 4 p1 p2 for a
generic pair, which a staircase reduction deflates to (Muhic and Plestenjak,
"On the singular two-parameter eigenvalue problem", ELA 18, 2009); its
deflation also counts the rank the Delta pencil loses, and a degenerate pair
is decided on a random line. One-parameter slices check single pencils.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateProblemError, NodeMismatchError, SharedFactorError
from .linalg import (INFINITE_TOL, SINGULAR_TOL, annulus_points, complex_normal, kron,
                     quadratic_eigen, row_space, scale_to_unit, smallest_singular_value)
from .matpoly import MatrixPoly2, newton_line
from .linearize import E1FreeParams, construct_e1_newton
from .spaces import NewtonPencil, chunks, require_matching

DESK_SCALE_LIMIT = 3
# Defaults of certify_singular's tol, and of verify_spectrum_match's slices and match_tol.
DEFAULT_SINGULAR_TOL = 1e-7
DEFAULT_SLICES = 5
DEFAULT_MATCH_TOL = 1e-6
# Largest entry, relative to the block's, of a structural zero of an e1 pencil.
STRUCTURE_TOL = 1e-12
# Eigenvalues sigma closer than CLUSTER_TOL max(1, |sigma|), or whose error
# discs DISC_FACTOR times their first-order bound wide overlap, form one point.
CLUSTER_TOL = 1e-4
DISC_FACTOR = 3.0
# Largest backward error of a returned point, and of a Q slice eigenvalue.
RESIDUAL_TOL = 1e-8
# Largest backward error at which Q2 counts as singular at a root of det Q1 on a
# line (_meet_on_line), and relative |1 + t1 lam' + t2 mu'| below which a point
# of the shifted regular part lies at infinity; looser than RESIDUAL_TOL
# because a double root comes out to sqrt(eps).
INFINITY_TOL = 1e-6

__all__ = [
    "QtepPair",
    "DeltaTriple",
    "delta_operators",
    "SingularityCertificate",
    "certify_singular",
    "SliceRecord",
    "SpectrumMatchReport",
    "verify_spectrum_match",
    "SpectrumPoint",
    "SpectrumSample",
    "spectrum_pair_oracle",
]


class _Pair(NamedTuple):
    q1: MatrixPoly2
    q2: MatrixPoly2


class QtepPair(_Pair):
    """Two quadratic polynomials sharing one node set (zero for monomial input)."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __new__(cls, *args, **kwargs):
        pair = _Pair(*args, **kwargs)
        if pair.q1.nodes != pair.q2.nodes:
            raise NodeMismatchError("pair polynomials must share one node set")
        return super().__new__(cls, *pair)

    @property
    def p1(self) -> int:
        return self.q1.n

    @property
    def p2(self) -> int:
        return self.q2.n

    @property
    def nodes(self):
        return self.q1.nodes


class DeltaTriple(NamedTuple):
    """Operator determinants of a pencil pair; each is k1 k2 x k1 k2."""

    delta0: np.ndarray
    delta1: np.ndarray
    delta2: np.ndarray
    k1: int
    k2: int


def delta_operators(ln1: NewtonPencil, ln2: NewtonPencil) -> DeltaTriple:
    """Kronecker operator determinants of the pencil pair.

    With Li = lam Ai + mu Bi + Ci, Ai and Bi pencil i's blocks A1 and A2 and
    Ci = Li(0, 0), Delta0 = A1 kron B2 - B1 kron A2, Delta1 = B1 kron C2 -
    C1 kron B2 and Delta2 = C1 kron A2 - A1 kron C2.
    """
    a1, b1, c1 = ln1.A1, ln1.A2, ln1.eval(0, 0)
    a2, b2, c2 = ln2.A1, ln2.A2, ln2.eval(0, 0)
    d0 = kron(a1, b2) - kron(b1, a2)
    d1 = kron(b1, c2) - kron(c1, b2)
    d2 = kron(c1, a2) - kron(a1, c2)
    return DeltaTriple(delta0=d0, delta1=d1, delta2=d2,
                       k1=a1.shape[0], k2=a2.shape[0])


def _lower_rows_supported_on_last_column(block: np.ndarray, p: int) -> bool:
    """True when block rows p..3p vanish outside the last block column, to
    STRUCTURE_TOL of the largest entry of the block (an all-zero block passes)."""
    return bool(np.abs(block[p:, : 2 * p]).max() <= STRUCTURE_TOL * np.abs(block).max())


def _delta0_frobenius(a1, b1, a2, b2) -> float:
    """||A1 kron B2 - B1 kron A2||_F without forming either Kronecker product.

    Delta0 is a perfect shuffle of the rank-2 matrix X Y^T with
    X = [vec A1, vec B1] and Y = [vec B2, -vec A2], and a shuffle keeps the
    Frobenius norm. With X = QR it equals ||R Y^T||_F. The Gram identity
    ||X Y^T||_F^2 = trace(X^H X Y^T conj(Y)) would subtract squares and
    lose half the digits when Delta0 is small next to ||A1|| ||B2||.
    """
    r = np.linalg.qr(np.column_stack([a1.ravel(), b1.ravel()]), mode="r")
    return float(np.linalg.norm(r @ np.vstack([b2.ravel(), -a2.ravel()])))


KERNEL_WITNESS = "kernel witness"
DENSE_SIGMA_MIN = "dense sigma_min"


class SingularityCertificate(NamedTuple):
    """Verdict on Delta0 with the quantity that decided it.

    ``route`` is :data:`KERNEL_WITNESS`, where ``value`` is
    ||Delta0 (u kron v)||_2 for a unit vector u kron v and so an upper bound
    on sigma_min(Delta0), or :data:`DENSE_SIGMA_MIN`, where ``value`` is
    sigma_min(Delta0) itself. The pair is singular when
    ``value <= threshold = tol * frobenius``. ``margin`` is value / threshold,
    at most 1 exactly when the verdict is singular.
    """

    is_singular: bool
    route: str
    value: float
    frobenius: float
    threshold: float
    margin: float
    structural_zero_pattern: bool


def certify_singular(ln1: NewtonPencil, ln2: NewtonPencil, *,
                     tol: float = DEFAULT_SINGULAR_TOL) -> SingularityCertificate:
    """Certify whether Delta0 = A1 kron B2 - B1 kron A2 is singular.

    The criterion is sigma_min(Delta0) <= tol * ||Delta0||_F, with the
    Frobenius norm computed from the blocks (:func:`_delta0_frobenius`).
    Ai and Bi are pencil i's blocks A1 and A2, as in :func:`delta_operators`;
    Delta0 has no constant term. Each side's (A, B) is first brought to unit
    size by one power of two, which scales Delta0 by their product: the
    verdict and the margin are decided there, so no squared entry over- or
    underflows, and value, frobenius and threshold are scaled back for the
    report (inf or 0 only where they leave the double range).

    Kernel witness first: u and v are the unit right singular vectors of
    the smallest singular values of B1 and B2, and
    rho = ||(A1 u) kron (B2 v) - (B1 u) kron (A2 v)||_2 = ||Delta0 (u kron v)||_2.
    Since sigma_min(Delta0) <= rho, rho <= threshold certifies singular at
    O(p^3) cost. For e1 pencils B1 u = B2 v = 0 up to rounding: both
    Gamma2t (mu) coefficients have their lower block rows supported on the
    last block column only, which leaves them rank deficient.

    Only when the witness does not certify is Delta0 (alone, not Delta1 or
    Delta2) formed densely and its sigma_min compared with the same
    threshold; so a "not singular" verdict always rests on the dense
    sigma_min.

    ``structural_zero_pattern`` records the zero pattern behind the e1
    singularity.
    """
    (a1, b1), e1 = scale_to_unit(np.stack([ln1.A1, ln1.A2]))
    (a2, b2), e2 = scale_to_unit(np.stack([ln2.A1, ln2.A2]))
    frob = _delta0_frobenius(a1, b1, a2, b2)
    threshold = tol * frob
    u, v = (np.linalg.svd(b)[2][-1].conj() for b in (b1, b2))
    route = KERNEL_WITNESS
    value = float(np.linalg.norm(kron(a1 @ u, b2 @ v) - kron(b1 @ u, a2 @ v)))
    if value > threshold:
        route = DENSE_SIGMA_MIN
        value = smallest_singular_value(kron(a1, b2) - kron(b1, a2))
    singular = bool(value <= threshold)
    margin = value / threshold if threshold > 0 else 0.0 if value == 0 else float("inf")
    pattern = (_lower_rows_supported_on_last_column(ln1.A2, ln1.n)
               and _lower_rows_supported_on_last_column(ln2.A2, ln2.n))
    with np.errstate(over="ignore", under="ignore"):
        value, frob, threshold = (float(np.ldexp(x, -e1 - e2)) for x in (value, frob, threshold))
    return SingularityCertificate(is_singular=singular, route=route, value=value,
                                  frobenius=frob, threshold=threshold, margin=margin,
                                  structural_zero_pattern=pattern)


def _slice_lines(mus):
    """p and r of the lines (0, mu0, 1) + lam (1, 0, 0), on which Q is Q(lam, mu0)."""
    zero, one = np.zeros_like(mus, dtype=complex), np.ones_like(mus, dtype=complex)
    return np.array([zero, mus, one]), np.array([one, zero, zero])


def _overflow(what: str, mus, finite) -> ValueError:
    """The error for the first slice mu0 where ``finite`` is False: its ``what`` overflow."""
    mu0 = complex(mus[np.argmin(finite)])
    return ValueError(f"the {what} values at the slice mu0=({mu0.real:.17g}, {mu0.imag:.17g}) "
                      "overflow the double range")


def _q_slice_eigenvalues(q: MatrixPoly2, mus) -> tuple[list, list]:
    """Every finite eigenvalue of Q(., mu0) at each mu0, as an array sorted by
    (real, imag), before the certificate of :func:`_certified`, and each slice's
    (K2, K1, K0), Q on its :func:`_slice_lines`: each slice by :func:`quadratic_eigen`, in
    stacks of at most STACK_BYTES of 2n x 2n operators (at least one). A Q singular on a
    slice raises :class:`DegenerateProblemError`. Q is taken at unit size
    (:meth:`MatrixPoly2.at_unit_size`), whose power of two the row scaling of
    :func:`quadratic_eigen` cancels; a slice whose coefficients still overflow,
    as nodes near 1e154 make them, raises ValueError naming its mu0."""
    q, values, lines = q.at_unit_size()[0], [], []
    for sl in chunks(len(mus), 2 * q.n):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing slice is named
            k = q.combine(newton_line(q.nodes, *_slice_lines(chunk := mus[sl])))
        if not (finite := np.isfinite(k).all(axis=(0, 2, 3))).all():
            raise _overflow("Q", chunk, finite)
        values += quadratic_eigen(*k)
        lines += list(k.swapaxes(0, 1))
    if any(lam is None for lam in values):
        raise DegenerateProblemError("Q(lambda, mu0) is singular for every lambda")
    return values, lines


def _backward_error(n: int, values_at, weight) -> np.ndarray:
    """sigma_min(Q) / weight at each point (0 where the weight is 0), the normwise backward
    error of Tisseur (LAA 309, 2000) for each caller's weight. ``values_at(sl)`` returns Q's
    n x n values at the points sl; values-only SVDs take at most STACK_BYTES of them at once."""
    sigma_min = np.empty(len(weight))
    for sl in chunks(len(weight), n):
        sigma_min[sl] = np.linalg.svd(values_at(sl), compute_uv=False)[:, -1]
    return np.divide(sigma_min, weight, out=np.zeros_like(sigma_min), where=weight > 0)


def _certified(line: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The values lam of a slice whose :func:`_backward_error`, weight |lam|^2 ||K2||_F
    + |lam| ||K1||_F + ||K0||_F, is at most RESIDUAL_TOL: it reads the same for Q and 2^k Q, and
    is at most ||Q(lam, mu0) x|| / ||x|| over the same weight for every x != 0. ``line`` holds
    the (K2, K1, K0) that :func:`_q_slice_eigenvalues` solved the slice on, Q at unit size."""
    k2, k1, k0 = line
    f2, f1, f0 = (float(np.linalg.norm(k)) for k in line)
    error = _backward_error(len(k0), lambda sl: (t := lam[sl, None, None]) * t * k2 + t * k1 + k0,
                            np.abs(lam) ** 2 * f2 + np.abs(lam) * f1 + f0)
    return lam[error <= RESIDUAL_TOL]


def _staircase_step(ops, sigma, cut):
    """One staircase step on ``ops`` whose leading matrix is B = diag(sigma, 0):
    keep the leading columns and the rows orthogonal to the image of ker B (the
    trailing columns) under ``ops``, one SVD cut at ``cut``, and factor what is
    left of B again. Returns (sigma', ops', the image's singular values) with B =
    diag(sigma', 0). A tall block is factored through its adjoint: OpenBLAS 0.3.31's
    gesdd failed on 2 tall blocks of 360 random pairs at p = 2 to 7, on no adjoint."""
    r = len(sigma)
    p, image, _ = np.linalg.svd(np.hstack([d[:, r:] for d in ops]))
    rest = p[:, np.count_nonzero(image > cut):].conj().T  # the rows that the image leaves
    b = rest[:, :r] * sigma
    u, sv, vh = np.linalg.svd(b) if len(b) <= r else [
        x.conj().T for x in np.linalg.svd(b.conj().T)][::-1]
    left = u.conj().T @ rest
    return sv[sv > cut], tuple(left @ d[:, :r] @ vh.conj().T for d in ops), image


def _deflate_infinite(w, sigma) -> list | None:
    """Finite lambda of lam diag(sigma, 0) + W sorted by (real, imag), or None
    for a singular slice, by the staircase for the infinite eigenvalues of a
    pencil (Van Dooren, LAA 27, 1979; Demmel and Kagstrom, GUPTRI, ACM TOMS 19,
    1993): while B = diag(sigma, 0) is singular, :func:`_staircase_step` drops
    the columns of ker B and the rows of their image W ker B (a rank loss of
    the image is a singular slice). Ranks are cut at SINGULAR_TOL ||W||_F;
    then the values are those of -sigma^-1 W below 1 / INFINITE_TOL, so a
    Jordan block at infinity of any size reads infinite."""
    cut = SINGULAR_TOL * np.linalg.norm(w)
    while len(sigma) < len(w):
        sigma, (w,), image = _staircase_step((w,), sigma, cut)
        if image[-1] <= cut:
            return None
    lam = np.linalg.eigvals(-w / sigma[:, None])
    return np.sort_complex(lam[np.abs(lam) < 1 / INFINITE_TOL]).tolist()


def _pencil_slice_eigenvalues(pencil: NewtonPencil, mus) -> list:
    """Finite lambda with det(lam A + mu0 B + C) = 0 for each mu0, sorted by
    (real, imag); None for a singular slice. The blocks are divided once by
    their row scales D across A1, A2 and A3 (:func:`row_space`), so every row
    has unit size, and D^-1 A1 = U diag(Sigma_r, 0) V* is factored once (r = 2n
    for an e1 pencil). The affine coefficients of that unit-row pencil, its
    block B = D^-1 A2 and its value C at (0, 0), are transformed once,
    B^ = U* B V and C^ = U* C V, and a slice is W = mu0 B^ + C^: no pencil is
    evaluated per slice. If sigma_min(W22) > SINGULAR_TOL ||W||_F
    (the whole slice's norm: a degree drop leaves a rounding-sized W22), its
    finite values are those of -Sigma_r^-1 (W11 - W12 W22^-1 W21) below
    1 / INFINITE_TOL; every other slice, and all when A1 has full rank or is
    zero, goes through the deflation loop :func:`_deflate_infinite`. A chunk
    of STACK_BYTES is one stack. W is finite for finite blocks unless nodes
    near the top of the double range overflow C; such a W raises ValueError
    naming its mu0."""
    scales, left, sigma, right = row_space(*pencil.blocks())
    left, right, d = left.conj().T, right.conj().T, scales[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing slice is named below
        unit = pencil._replace(A1=pencil.A1 / d, A2=pencil.A2 / d, A3=pencil.A3 / d)
        b = left @ unit.A2 @ right
        c = left @ unit.eval(0, 0) @ right
    r, m, out = len(sigma), 3 * pencil.n, []
    for sl in chunks(len(mus), m):
        w = (chunk := mus[sl, None, None]) * b + c
        if not (finite := np.isfinite(w).all(axis=(1, 2))).all():
            raise _overflow("pencil", chunk.ravel(), finite)
        generic = np.full(len(w), False) if r in (0, m) else (
            np.linalg.svd(w[:, r:, r:], compute_uv=False)[:, -1]
            > SINGULAR_TOL * np.linalg.norm(w, axis=(1, 2)))
        lams = [None if g else _deflate_infinite(wk, sigma) for g, wk in zip(generic, w)]
        w = w[generic]
        schur = w[:, :r, :r] - w[:, :r, r:] @ np.linalg.solve(w[:, r:, r:], w[:, r:, :r])
        for k, lam in zip(np.flatnonzero(generic), np.linalg.eigvals(-schur / sigma[:, None])):
            lams[k] = np.sort_complex(lam[np.abs(lam) < 1 / INFINITE_TOL]).tolist()
        out += lams
    return out


class SliceRecord(NamedTuple):
    mu0: complex
    q_eigenvalues: tuple
    pencil_eigenvalues: tuple
    distances: tuple
    contained: bool
    pencil_singular: bool


class SpectrumMatchReport(NamedTuple):
    records: tuple[SliceRecord, ...]
    all_contained: bool
    match_tol: float


def _match(q_eigs, l_eigs, match_tol: float):
    """Each Q eigenvalue's distance to the nearest pencil eigenvalue, and whether
    the pencil slice is regular and all lie within match_tol max(1, |lambda|)."""
    lam = np.array(q_eigs, dtype=complex)
    diff = lam[:, None] - np.array(l_eigs or [], dtype=complex)[None, :]
    # hypot rounds |z| as Python's abs does; numpy's complex abs may not.
    dists = np.hypot(diff.real, diff.imag).min(axis=1, initial=np.inf)
    size = np.maximum(1.0, np.hypot(lam.real, lam.imag))
    return dists, l_eigs is not None and bool(np.all(dists <= match_tol * size))


def verify_spectrum_match(q: MatrixPoly2, pencil: NewtonPencil, *,
                          slices: int = DEFAULT_SLICES, seed: int = 0,
                          match_tol: float = DEFAULT_MATCH_TOL) -> SpectrumMatchReport:
    """Check slice-wise spectrum containment of Q in the pencil.

    For each random mu0, every finite eigenvalue of Q(., mu0) must appear
    among the finite eigenvalues of L(., mu0) within the matching tolerance
    (minimum-distance matching). Containment is one sided: the 3n-size
    pencil carries extra infinite eigenvalues by degree count. A slice whose
    pencil is singular (det identically zero in lambda) is flagged instead
    of raising, since that is exactly the failure mode of inadmissible
    constructions.

    Q slices are solved for values only. A slice with an unmatched Q value
    or a singular pencil keeps only the values that :func:`_certified`
    certifies, from the same solve, and is matched again. So a listed Q
    value is matched or certified, and a slice is contained exactly when
    every certified Q value matches.
    """
    if slices < 1:
        raise ValueError(f"slices must be at least 1, got {slices}")
    require_matching(q, pencil)
    rng = np.random.default_rng(seed)
    mus = annulus_points(rng, slices)
    q_side, q_lines = _q_slice_eigenvalues(q, mus)
    l_side = _pencil_slice_eigenvalues(pencil, mus)
    matches = [_match(q_eigs, l_eigs, match_tol) for q_eigs, l_eigs in zip(q_side, l_side)]
    for k in [k for k, (_, ok) in enumerate(matches) if not ok]:
        q_side[k] = _certified(q_lines[k], q_side[k])
        matches[k] = _match(q_side[k], l_side[k], match_tol)
    # Both slice sides sort their finite values by (real, imag) already.
    records = tuple(SliceRecord(mu0=complex(mu0), q_eigenvalues=tuple(q_eigs.tolist()),
                                pencil_eigenvalues=tuple(l_eigs or []),
                                distances=tuple(dists.tolist()), contained=ok,
                                pencil_singular=l_eigs is None)
                    for mu0, q_eigs, l_eigs, (dists, ok) in zip(mus, q_side, l_side, matches))
    return SpectrumMatchReport(records=records, all_contained=all(r.contained for r in records),
                               match_tol=match_tol)


class SpectrumPoint(NamedTuple):
    lam: complex
    mu: complex
    multiplicity: int
    residual: float


class SpectrumSample(NamedTuple):
    """Joint spectrum of a pair, with multiplicity-aware count."""

    points: tuple[SpectrumPoint, ...]
    total_count: int
    bezout_bound: int


def _newton_backward_error(q: MatrixPoly2, phi) -> np.ndarray:
    """Q's :func:`_backward_error` at each point of the (6, K) Newton basis values phi, with
    weight max_j ||C_j||_2 sum_j |phi_j|: every term gets the same weight, so a sparse Q such
    as mu still reads small at its zeros."""
    norm = np.linalg.svd(np.stack(list(q.coeffs.values())), compute_uv=False)[:, 0].max()
    return _backward_error(q.n, lambda sl: q.combine(phi[:, sl]), norm * np.abs(phi).sum(axis=0))


def _rank_deficiency(a: np.ndarray, b: np.ndarray, rng) -> int:
    """Normal-rank deficiency of a - sigma b: the smaller count of singular
    values at most SINGULAR_TOL times the largest, at two random sigma (0 for
    an empty pencil)."""
    counts = []
    for sigma in complex_normal(rng, 2):
        sv = np.linalg.svd(a - sigma * b, compute_uv=False)
        counts.append(int(np.count_nonzero(sv <= SINGULAR_TOL * sv[:1])))
    return min(counts)


def _adjoint(ops):
    return tuple(d.conj().T for d in ops)


def _regular_part(delta: DeltaTriple):
    """The regular part (Delta0, Delta1, Delta2) of the Delta triple, whether
    its Delta0 is singular, and the deflation summed over the right steps
    (Muhic and Plestenjak, ELA 18, 2009). Delta0 is factored once, and the
    triple kept where Delta0 = diag(sigma, 0). A right step
    (:func:`_staircase_step` on Delta1 and Delta2) deflates nullity - rank when
    the image of ker Delta0 has a smaller rank, and else leaves the triple; a
    left step is the same on the conjugate transposes. Ranks are cut at
    SINGULAR_TOL max_j ||Delta_j||_F. Rounds of both repeat until one deflates
    nothing or Delta0 is square of full rank: a generic pair takes one, from
    9 p1 p2 to 4 p1 p2, and deflates p1 p2. Raises
    :class:`DegenerateProblemError` when the result is not square."""
    tol = SINGULAR_TOL * max(np.linalg.norm(d) for d in delta[:3])
    u, s, vh = np.linalg.svd(delta.delta0)
    sigma, ops = s[s > tol], tuple(u.conj().T @ d @ vh.conj().T for d in delta[1:3])
    deflated = 0
    while (shape := ops[0].shape) != (len(sigma),) * 2:
        for right in (True, False):  # a right step, then a left step on the adjoints
            step = _staircase_step(ops, sigma, tol)
            if (loss := ops[0].shape[1] - len(sigma) - np.count_nonzero(step[2] > tol)) > 0:
                (sigma, ops, _), deflated = step, deflated + right * loss
            ops = _adjoint(ops)
        if ops[0].shape == shape:
            break
    if shape[0] != shape[1]:
        raise DegenerateProblemError(f"the staircase reduction of the Delta triple stops "
                                     f"at {shape[0]} x {shape[1]}, not at a square triple")
    d0 = np.diag(np.concatenate([sigma, np.zeros(shape[1] - len(sigma))])).astype(complex)
    return (d0, *ops), len(sigma) < shape[1], deflated


def _meet_on_line(pair: QtepPair, p, r) -> float:
    """Q2's least :func:`_newton_backward_error` over INFINITY_TOL at the roots t of
    det Q1(p + t r), the finite eigenvalues of Q1's companion pencil on that projective line:
    det Q1 and det Q2 meet there when it is at most 1. The line's one :func:`newton_line`
    basis gives Q1's (K2, K1, K0) and, times the roots' Vandermonde columns, Q2's basis values
    at the roots. It is 0 when Q1 is singular on the line, inf when det Q1 has no root on it.
    On a random line at infinity, (r0, 0) + t (r1, 0), the curves meet when there can be
    fewer than 4 p1 p2 finite common zeros (Bezout); on a random finite line, (p, 1) + t (r,
    0), whose t = inf lies at infinity, when they share a factor."""
    basis = newton_line(pair.nodes, p, r)
    roots = quadratic_eigen(*pair.q1.combine(basis)[:, None])[0]
    if roots is None:
        return 0.0
    error = _newton_backward_error(pair.q2, basis @ np.vander(roots, 3).T)
    return float(error.min(initial=np.inf)) / INFINITY_TOL


def _clusters(theta: np.ndarray, radius: np.ndarray, shift: complex) -> list[np.ndarray]:
    """The transitive closure of the links, as ascending index arrays in the
    order of their least index. i and j < i are linked when their error discs
    overlap, |theta_i - theta_j| <= DISC_FACTOR (r_i + r_j), or when
    sigma = shift + 1 / theta agrees to CLUSTER_TOL max(1, |sigma_i|)."""
    sigma = shift + 1 / theta
    # hypot rounds |z| as Python's abs does; numpy's complex abs may not.
    d_theta, d_sigma = theta[:, None] - theta, sigma[:, None] - sigma
    scale = CLUSTER_TOL * np.maximum(1.0, np.hypot(sigma.real, sigma.imag))[:, None]
    link = np.tril((np.hypot(d_theta.real, d_theta.imag) <= DISC_FACTOR * (radius[:, None] + radius))
                   | (np.hypot(d_sigma.real, d_sigma.imag) <= scale), -1)
    link |= link.T
    # Each index takes the least label among its links, then its label's
    # label, until no label moves: the least index of its component.
    index = label = np.arange(len(theta))
    while True:
        least = np.minimum(label, np.where(link, label, len(label)).min(axis=1, initial=len(label)))
        if np.array_equal(least[least], label):
            return [np.flatnonzero(label == first) for first in index[label == index]]
        label = least[least]


def _invariant_bases(op, shifted, theta_c, m):
    """Orthonormal bases (X, Y) of the right and left invariant subspaces of
    an m-fold cluster of op = shifted^-1 B at theta_c: the null spaces of
    (op - theta_c I)^m. The eigenvectors of a defective cluster are nearly
    parallel, so they would span these subspaces badly."""
    u, _, vh = np.linalg.svd(np.linalg.matrix_power(op - theta_c * np.eye(len(op)), m))
    left = np.linalg.solve(shifted.conj().T, u[:, -m:])  # left vectors of the pencil
    return vh[-m:].conj().T, np.linalg.qr(left)[0]


def _point_quotients(ops, x, y):
    """(lam, mu) = (y* Delta1 x, y* Delta2 x) / y* Delta0 x for each column
    pair (x, y) of simple eigenvectors of the triple ``ops`` = (Delta0,
    Delta1, Delta2): one product per operator for all."""
    b0, b1, b2 = ((y.conj() * (d @ x)).sum(axis=0) for d in ops)
    if (b0 == 0).any():
        raise DegenerateProblemError("Y* Delta0 X is singular for a finite eigenvalue cluster")
    return b1 / b0, b2 / b0


def _block_quotients(ops, qx, qy):
    """(lam, mu) = trace((Y* Delta0 X)^-1 Y* Delta_j X) / m, j = 1, 2."""
    b0, b1, b2 = (qy.conj().T @ d @ qx for d in ops)
    try:
        lam_mu = np.linalg.solve(b0, np.concatenate([b1, b2], axis=1))
    except np.linalg.LinAlgError:
        raise DegenerateProblemError("Y* Delta0 X is singular for a finite eigenvalue "
                                     "cluster") from None
    m = len(b0)
    return np.trace(lam_mu[:, :m]) / m, np.trace(lam_mu[:, m:]) / m


def _regular_points(ops, c: complex, rng):
    """(lams, mus, multiplicities) of a regular triple ``ops`` = (Delta0,
    Delta1, Delta2) with Delta0 nonsingular. ``numpy.linalg.eig`` solves
    op = (A - shift Delta0)^-1 Delta0, A = Delta1 + c Delta2, the shift drawn
    from rng. Its eigenvalues theta_i = 1 / (sigma_i - shift), with the
    first-order error bounds r_i = eps ||op||_2 ||w_i||, w_i the i-th row of
    X^-1, are grouped by :func:`_clusters`. A simple point's (lam, mu) are
    Rayleigh quotients (:func:`_point_quotients`); a group of m is one point
    of multiplicity m, from block Rayleigh quotients over its invariant
    subspaces."""
    shift = complex_normal(rng)
    shifted = ops[1] + c * ops[2] - shift * ops[0]
    op = np.linalg.solve(shifted, ops[0])
    theta, x = np.linalg.eig(op)  # unit columns x
    w = np.linalg.inv(x)
    radius = np.finfo(float).eps * np.linalg.norm(op, 2) * np.linalg.norm(w, axis=1)
    y = np.linalg.solve(shifted.conj().T, w.conj().T)  # left vectors of the pencil
    groups = _clusters(theta, radius, shift)
    simple = np.array([idx[0] for idx in groups if len(idx) == 1], dtype=int)
    lams, mus = (list(v) for v in _point_quotients(ops, x[:, simple], y[:, simple]))
    mults = [1] * len(simple)
    for idx in (idx for idx in groups if len(idx) > 1):
        lam, mu = _block_quotients(ops, *_invariant_bases(op, shifted, theta[idx].mean(),
                                                         len(idx)))
        lams.append(lam)
        mus.append(mu)
        mults.append(len(idx))
    return np.array(lams, dtype=complex), np.array(mus, dtype=complex), np.array(mults, dtype=int)


def spectrum_pair_oracle(pair: QtepPair, *, seed: int = 0) -> SpectrumSample:
    """Joint spectrum of a pair at desk scale (p1, p2 <= 3), from its Delta operators.

    The e1 pencils are drawn from ``seed``, as ``delta`` draws them.
    :func:`_regular_points` solves the regular part (:func:`_regular_part`),
    of size 4 p1 p2 for a generic pair. The normal-rank deficiency k of
    Delta1 + c Delta2 - sigma Delta0 is the staircase's deflation plus the
    part's, p1 p2 for a generic pair. A larger k comes from a shared factor,
    which raises when the determinants also meet on a random finite line
    (:func:`_meet_on_line`), or from a shared line at infinity (both drop
    degree). When the part's Delta0 is singular, it has points at infinity:
    it is solved with Delta0 - t1 Delta1 - t2 Delta2 (random t) in place of
    Delta0, where every point (lam', mu') is finite, and (lam, mu) =
    (lam', mu') / (1 + t1 lam' + t2 mu'), dropping the points at infinity,
    whose divisor is at most INFINITY_TOL (1 + |t1 lam'| + |t2 mu'|).

    Nothing is dropped in silence: :class:`DegenerateProblemError` is raised
    when a point's :func:`_newton_backward_error` for Q1 or Q2 exceeds
    RESIDUAL_TOL, when the count exceeds 4 p1 p2 or the rank of the part's
    Delta0 (a regular pencil has at most that many finite eigenvalues), or
    when it is below 4 p1 p2 although the curves share no point at infinity
    (:func:`_meet_on_line` on a random line there).
    """
    if pair.p1 > DESK_SCALE_LIMIT or pair.p2 > DESK_SCALE_LIMIT:
        raise ValueError(f"joint spectrum is desk scale only (p <= {DESK_SCALE_LIMIT}), "
                         f"got p1={pair.p1}, p2={pair.p2}")
    # The e1 pencils (unit-variance Y11 and top rows, unitary Z block) are balanced for Qi
    # whose largest entry is near 1, as a power of two brings each Qi there exactly.
    pair = QtepPair(*(q.at_unit_size()[0] for q in pair))
    bound = 4 * pair.p1 * pair.p2
    rng = np.random.default_rng(seed)
    delta = delta_operators(*(construct_e1_newton(q, E1FreeParams.random(q.n, rng))
                              for q in pair))
    c = complex_normal(rng)
    (d0, d1, d2), at_infinity, deflated = _regular_part(delta)
    k = deflated + _rank_deficiency(d1 + c * d2, d0, rng)
    def line(z):  # (p, z) + t (r, 0) at random: finite at z = 1, at infinity at z = 0
        return np.append(complex_normal(rng, 2), z), np.append(complex_normal(rng, 2), 0)
    if k > pair.p1 * pair.p2 and (margin := _meet_on_line(pair, *line(1))) <= 1:
        raise SharedFactorError(
            f"the Delta pencil has rank deficiency {k} > p1 p2 = {pair.p1 * pair.p2}, and the "
            f"determinants meet on a random finite line (sigma_min / threshold {margin:.2g} "
            "<= 1): they share a factor (infinitely many common zeros)")

    # t = 0 leaves the triple, and the points, exactly as they are.
    t1, t2 = complex_normal(rng, 2) if at_infinity else (0, 0)
    lams, mus, mults = _regular_points((d0 - t1 * d1 - t2 * d2, d1, d2), c, rng)
    denom = 1 + t1 * lams + t2 * mus
    finite = np.abs(denom) > INFINITY_TOL * (1 + np.abs(t1 * lams) + np.abs(t2 * mus))
    lams, mus, mults = lams[finite] / denom[finite], mus[finite] / denom[finite], mults[finite]
    point = np.array([lams, mus, np.ones_like(lams)])
    phi = newton_line(pair.nodes, point, np.zeros_like(point))[:, 2]  # the basis of Q1 and Q2
    error = np.maximum(*(_newton_backward_error(q, phi) for q in pair))
    if (error > RESIDUAL_TOL).any():
        raise DegenerateProblemError(
            f"{int(np.count_nonzero(error > RESIDUAL_TOL))} of {len(error)} computed points "
            f"have backward error above {RESIDUAL_TOL:g} (largest {error.max():.1e})")
    total, rank = int(mults.sum()), np.count_nonzero(d0)
    if total > min(bound, rank):
        raise DegenerateProblemError(f"found {total} common zeros, more than min(4 p1 p2, rank "
                                     f"of the regular part's Delta0) = min({bound}, {rank})")
    if total < bound and (margin := _meet_on_line(pair, *line(0))) > 1:
        raise DegenerateProblemError(
            f"found {total} common zeros, but the curves share no point at infinity "
            f"(sigma_min / threshold {margin:.2g} > 1), so there are 4 p1 p2 = {bound}")
    points = sorted((SpectrumPoint(lam=complex(l), mu=complex(m), multiplicity=int(n),
                                   residual=float(e))
                     for l, m, n, e in zip(lams, mus, mults, error)),
                    key=lambda p: (p.lam.real, p.lam.imag, p.mu.real, p.mu.imag))
    return SpectrumSample(points=tuple(points), total_count=total, bezout_bound=bound)
