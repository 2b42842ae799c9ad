"""Two-parameter eigenvalue problem pairs in Newton form.

A pair of quadratic polynomials Q1 (p1 x p1) and Q2 (p2 x p2) over one
shared node set defines the joint spectrum

    { (lam, mu) : det Q1(lam, mu) = det Q2(lam, mu) = 0 },

with at most 4 p1 p2 isolated points (Bezout). Each polynomial is
linearized with the e1-ansatz construction, Li = lam Ai + mu Bi + Ci with
the affine constant term Ci = A3 - A1 D_alpha - A2 D_beta, and the pencils
are coupled through the operator determinants

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

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError, NodeMismatchError, SharedFactorError
from .linalg import (INFINITE_TOL, SINGULAR_TOL, annulus_points, complex_normal, kron,
                     quadratic_eigen, row_space, row_space_basis, small_dense_eigen,
                     smallest_singular_value)
from .matpoly import MatrixPoly2, newton_line, newton_six
from .linearize import E1FreeParams, construct_e1_newton
from .spaces import NewtonPencil, chunk_step, require_matching

DESK_SCALE_LIMIT = 3
# Relative singular-value cut-off for each rank of the staircase reduction of
# the Delta triple and for the normal rank of its regular part.
RANK_TOL = 1e-10
# Largest entry, relative to the block's, of a structural zero of an e1 pencil.
STRUCTURE_TOL = 1e-12
# Eigenvalues sigma closer than CLUSTER_TOL max(1, |sigma|), or whose error
# discs DISC_FACTOR times their first-order bound wide overlap, form one point.
CLUSTER_TOL = 1e-4
DISC_FACTOR = 3.0
# Largest backward error of a returned point, and of a Q slice eigenvalue.
RESIDUAL_TOL = 1e-8
# Relative sigma_min below which Q2 counts as singular at a root of det Q1 on a
# line (_meet_on_line), and relative |1 + t1 lam' + t2 mu'| below which a point
# of the shifted regular part lies at infinity; looser than RESIDUAL_TOL
# because a double root comes out to sqrt(eps).
INFINITY_TOL = 1e-6

__all__ = [
    "QtepPair",
    "pair_linearize",
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


@dataclass(frozen=True)
class QtepPair:
    """Two quadratic polynomials sharing one node set (zero for monomial input)."""

    q1: MatrixPoly2
    q2: MatrixPoly2

    def __post_init__(self):
        if self.q1.nodes.as_tuple() != self.q2.nodes.as_tuple():
            raise NodeMismatchError("pair polynomials must share one node set")

    @property
    def p1(self) -> int:
        return self.q1.n

    @property
    def p2(self) -> int:
        return self.q2.n

    @property
    def nodes(self):
        return self.q1.nodes


def pair_linearize(pair: QtepPair, params1: E1FreeParams,
                   params2: E1FreeParams) -> tuple[NewtonPencil, NewtonPencil]:
    """e1-ansatz linearization of each polynomial in the pair."""
    return (construct_e1_newton(pair.q1, params1),
            construct_e1_newton(pair.q2, params2))


@dataclass(frozen=True)
class DeltaTriple:
    """Operator determinants of a pencil pair; each is k1 k2 x k1 k2."""

    delta0: np.ndarray
    delta1: np.ndarray
    delta2: np.ndarray
    k1: int
    k2: int


def _coefficients(ln) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C) with L(lam, mu) = lam A + mu B + C, of a pencil or a raw triple.

    A pencil's Gamma factors subtract the nodes column block by column
    block, so its constant term is C = A3 - A1 D_alpha - A2 D_beta with
    D_alpha = diag(a2, a1, a1) kron I and D_beta = diag(b1, b2, b1) kron I.
    """
    if not hasattr(ln, "blocks"):
        return tuple(np.asarray(x, dtype=complex) for x in ln)
    a1, a2, b1, b2 = ln.nodes.as_tuple()
    d_alpha = np.repeat([a2, a1, a1], ln.n)
    d_beta = np.repeat([b1, b2, b1], ln.n)
    return ln.A1, ln.A2, ln.A3 - ln.A1 * d_alpha - ln.A2 * d_beta


def delta_operators(ln1, ln2) -> DeltaTriple:
    """Kronecker operator determinants of the pencil pair.

    With Li = lam Ai + mu Bi + Ci (see :func:`_coefficients`),
    Delta0 = A1 kron B2 - B1 kron A2, Delta1 = B1 kron C2 - C1 kron B2 and
    Delta2 = C1 kron A2 - A1 kron C2. Raw (A, B, C) triples of square
    matrices are accepted in place of pencils, so the formulas can be
    exercised at any block size.
    """
    a1, b1, c1 = _coefficients(ln1)
    a2, b2, c2 = _coefficients(ln2)
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


@dataclass(frozen=True)
class SingularityCertificate:
    """Verdict on Delta0 with the quantity that decided it.

    ``route`` is :data:`KERNEL_WITNESS`, where ``value`` is
    ||Delta0 (u kron v)||_2 for a unit vector u kron v and so an upper bound
    on sigma_min(Delta0), or :data:`DENSE_SIGMA_MIN`, where ``value`` is
    sigma_min(Delta0) itself. The pair is singular when
    ``value <= threshold = tol * frobenius``.
    """

    is_singular: bool
    route: str
    value: float
    frobenius: float
    threshold: float
    structural_zero_pattern: bool | None  # None for raw triples

    @property
    def margin(self) -> float:
        """value / threshold; at most 1 exactly when the verdict is singular."""
        if self.threshold > 0:
            return self.value / self.threshold
        return 0.0 if self.value == 0 else float("inf")


def certify_singular(ln1, ln2, *, tol: float = 1e-7) -> SingularityCertificate:
    """Certify whether Delta0 = A1 kron B2 - B1 kron A2 is singular.

    The criterion is sigma_min(Delta0) <= tol * ||Delta0||_F, with the
    Frobenius norm computed from the blocks (:func:`_delta0_frobenius`).
    Pencils or raw (A, B, C) triples are accepted, as in
    :func:`delta_operators`.

    Kernel witness first: u and v are the unit right singular vectors of
    the smallest singular values of B1 and B2, and
    rho = ||(A1 u) kron (B2 v) - (B1 u) kron (A2 v)||_2 = ||Delta0 (u kron v)||_2.
    Since sigma_min(Delta0) <= rho, rho <= threshold certifies singular at
    O(p^3) cost. For e1 pencils B1 u = B2 v = 0 up to rounding: both
    Gamma2t (mu) coefficients have their lower block rows supported on the
    last block column only, which leaves them rank deficient.

    Only when the witness does not certify is the dense operator formed and
    its sigma_min compared with the same threshold; so a "not singular"
    verdict always rests on the dense sigma_min.

    For a pencil pair ``structural_zero_pattern`` records the zero pattern
    behind the e1 singularity; it is None for raw triples.
    """
    a1, b1 = _coefficients(ln1)[:2]
    a2, b2 = _coefficients(ln2)[:2]
    frob = _delta0_frobenius(a1, b1, a2, b2)
    threshold = tol * frob
    u, v = (np.linalg.svd(b)[2][-1].conj() for b in (b1, b2))
    route = KERNEL_WITNESS
    value = float(np.linalg.norm(kron(a1 @ u, b2 @ v) - kron(b1 @ u, a2 @ v)))
    if value > threshold:
        route = DENSE_SIGMA_MIN
        value = smallest_singular_value(delta_operators(ln1, ln2).delta0)
    pattern = None
    if isinstance(ln1, NewtonPencil) and isinstance(ln2, NewtonPencil):
        pattern = (_lower_rows_supported_on_last_column(ln1.A2, ln1.n)
                   and _lower_rows_supported_on_last_column(ln2.A2, ln2.n))
    return SingularityCertificate(is_singular=bool(value <= threshold),
                                  route=route, value=value, frobenius=frob,
                                  threshold=threshold, structural_zero_pattern=pattern)


def _slice_lines(mus):
    """p and r of the lines (0, mu0, 1) + lam (1, 0, 0), on which Q is Q(lam, mu0)."""
    zero, one = np.zeros_like(mus, dtype=complex), np.ones_like(mus, dtype=complex)
    return np.array([zero, mus, one]), np.array([one, zero, zero])


def _q_slice_eigenvalues(q: MatrixPoly2, mus) -> list:
    """Every finite eigenvalue of Q(., mu0) at each mu0, as an array sorted by
    (real, imag), before the certificate of :func:`_certified`: each slice, Q
    on its :func:`_slice_lines`, by :func:`quadratic_eigen`, in stacks of at
    most STACK_BYTES of 2n x 2n operators (at least one). A Q singular on a
    slice raises :class:`DegenerateProblemError`."""
    step = chunk_step(2 * q.n)
    out = [lam for start in range(0, len(mus), step)
           for lam in quadratic_eigen(*q.on_line(*_slice_lines(mus[start:start + step])))]
    if any(lam is None for lam in out):
        raise DegenerateProblemError("Q(lambda, mu0) is singular for every lambda")
    return out


def _certified(q: MatrixPoly2, mu0: complex, lam: np.ndarray) -> np.ndarray:
    """The values lam of the slice at mu0 whose backward error
    sigma_min(Q(lam, mu0)) / (|lam|^2 ||K2||_F + |lam| ||K1||_F + ||K0||_F) is
    at most RESIDUAL_TOL, from one stacked SVD without vectors. The measure
    reads the same for Q and 2^k Q, and is at most the eigenvector residual
    ||Q(lam, mu0) x|| / ||x|| over the same denominator for every x != 0."""
    k2, k1, k0 = q.on_line(*_slice_lines(mu0))
    t = lam[:, None, None]
    sigma_min = np.linalg.svd(t * t * k2 + t * k1 + k0, compute_uv=False)[:, -1]
    norms = [float(np.linalg.norm(k)) for k in (k2, k1, k0)]
    scale = np.abs(lam) ** 2 * norms[0] + np.abs(lam) * norms[1] + norms[2]
    return lam[sigma_min <= RESIDUAL_TOL * scale]


def _pencil_slice_eigenvalues(pencil: NewtonPencil, mus) -> list:
    """Finite lambda with det(lam A1 + L(0, mu0)) = 0 for each mu0, sorted by
    (real, imag); None for a singular slice. A1 is factored once, D^-1 A1 =
    U diag(Sigma_r, 0) V* (:func:`row_space`, D the row scales across A1, A2
    and A3, so that W is of unit size; r = 2n for an e1 pencil), and a slice
    maps to W = U* D^-1 L(0, mu0) V. If sigma_min(W22) > SINGULAR_TOL ||W||_F
    (the whole slice's norm: a degree drop leaves a rounding-sized W22), its
    finite values are those of -Sigma_r^-1 (W11 - W12 W22^-1 W21) below
    1 / INFINITE_TOL; other slices, and all when A1 has full rank or is zero,
    are solved by :func:`small_dense_eigen` on A1's row space. A chunk is one
    stack; a slice whose values overflow raises ValueError naming its mu0."""
    scales, u, sigma, vh = row_space(*pencil.blocks())
    r, m, left = len(sigma), 3 * pencil.n, u.conj().T / scales
    basis, out = None, []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing slice is named below
        for sl, constants in pencil.eval_chunks(np.zeros(len(mus)), mus):
            if not (finite := np.isfinite(constants).all(axis=(1, 2))).all():
                mu0 = complex(mus[sl][np.argmin(finite)])
                raise ValueError(f"the pencil values at the slice mu0=({mu0.real:.17g}, "
                                 f"{mu0.imag:.17g}) overflow the double range")
            lams, deflated = [None] * len(constants), np.full(len(constants), False)
            if 0 < r < m:
                w = left @ constants @ vh.conj().T
                deflated = (np.linalg.svd(w[:, r:, r:], compute_uv=False)[:, -1]
                            > SINGULAR_TOL * np.linalg.norm(w, axis=(1, 2)))
                w = w[deflated]
                schur = w[:, :r, :r] - w[:, :r, r:] @ np.linalg.solve(w[:, r:, r:], w[:, r:, :r])
                for k, lam in zip(np.flatnonzero(deflated),
                                  np.linalg.eigvals(-schur / sigma[:, None])):
                    lams[k] = np.sort_complex(lam[np.abs(lam) < 1 / INFINITE_TOL]).tolist()
            if not deflated.all():
                basis = basis if basis is not None or r == m else row_space_basis(pencil.A1)
                rest = small_dense_eigen(-constants[~deflated], pencil.A1, basis=basis)
                for k, lam in zip(np.flatnonzero(~deflated), rest):
                    lams[k] = None if lam is None else lam.tolist()
            out += lams
    return out


@dataclass(frozen=True)
class SliceRecord:
    mu0: complex
    q_eigenvalues: tuple
    pencil_eigenvalues: tuple
    distances: tuple
    contained: bool
    pencil_singular: bool


@dataclass(frozen=True)
class SpectrumMatchReport:
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
                          slices: int = 5, seed: int = 0,
                          match_tol: float = 1e-6) -> SpectrumMatchReport:
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
    q_side = _q_slice_eigenvalues(q, mus)
    l_side = _pencil_slice_eigenvalues(pencil, mus)
    matches = [_match(q_eigs, l_eigs, match_tol) for q_eigs, l_eigs in zip(q_side, l_side)]
    for k in [k for k, (_, ok) in enumerate(matches) if not ok]:
        q_side[k] = _certified(q, mus[k], q_side[k])
        matches[k] = _match(q_side[k], l_side[k], match_tol)
    # small_dense_eigen sorts finite values by (real, imag) already.
    records = tuple(SliceRecord(mu0=complex(mu0), q_eigenvalues=tuple(q_eigs.tolist()),
                                pencil_eigenvalues=tuple(l_eigs or []),
                                distances=tuple(dists.tolist()), contained=ok,
                                pencil_singular=l_eigs is None)
                    for mu0, q_eigs, l_eigs, (dists, ok) in zip(mus, q_side, l_side, matches))
    return SpectrumMatchReport(records=records, all_contained=all(r.contained for r in records),
                               match_tol=match_tol)


@dataclass(frozen=True)
class SpectrumPoint:
    lam: complex
    mu: complex
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class SpectrumSample:
    """Joint spectrum of a pair, with multiplicity-aware count."""

    points: tuple[SpectrumPoint, ...]
    total_count: int
    bezout_bound: int


def _coefficient_norm(q: MatrixPoly2) -> float:
    """max_j ||C_j||_2 over the six coefficient blocks, from one stacked SVD."""
    return float(np.linalg.svd(np.stack(list(q.coeffs.values())), compute_uv=False)[:, 0].max())


def _backward_errors(pair: QtepPair, norms, lams, mus) -> np.ndarray:
    """Backward error max_i sigma_min(Qi) / (max_j ||C_ij||_2 sum_j |phi_j|) of
    each point (Newton basis phi_j). ``norms`` holds max_j ||C_ij||_2 of each Qi."""
    errors = []
    for q, norm in zip((pair.q1, pair.q2), norms):
        sigma_min = np.linalg.svd(q.eval(lams, mus), compute_uv=False)[:, -1]
        scale = norm * np.abs(newton_six(q.nodes, lams, mus)).sum(axis=0)
        errors.append(np.divide(sigma_min, scale, out=np.zeros_like(scale), where=scale > 0))
    return np.maximum(*errors)


def _rescaled(q: MatrixPoly2) -> MatrixPoly2:
    """Q divided by the power of two nearest its coefficient scale: the same
    zeros and backward errors, exactly."""
    factor = 2.0 ** -np.frexp(q.coefficient_scale())[1]
    return MatrixPoly2.newton({key: factor * c for key, c in q.coeffs.items()}, q.nodes)


def _rank_deficiency(a: np.ndarray, b: np.ndarray, rng) -> int:
    """Normal-rank deficiency of a - sigma b: the smaller count of singular
    values at most RANK_TOL times the largest, at two random sigma (0 for
    an empty pencil)."""
    counts = []
    for sigma in complex_normal(rng, 2):
        sv = np.linalg.svd(a - sigma * b, compute_uv=False)
        counts.append(int(np.count_nonzero(sv <= RANK_TOL * sv[:1])))
    return min(counts)


def _right_step(ops, tol: float):
    """One right step of the staircase: the triple, the nullity of its
    Delta0 and the deflation, the ranks cut at ``tol``. With Z = ker Delta0,
    when range [Delta1 Z, Delta2 Z] is smaller than Z, the triple keeps only
    the columns orthogonal to Z and the rows orthogonal to that range, and
    deflates nullity - image; otherwise it deflates 0."""
    _, s, vh = np.linalg.svd(ops[0])
    rank = int(np.count_nonzero(s > tol))
    z = vh[rank:].conj().T
    u, s, _ = np.linalg.svd(np.hstack([ops[1] @ z, ops[2] @ z]))
    nullity, image = z.shape[1], int(np.count_nonzero(s > tol))
    if image < nullity:
        ops = tuple(u[:, image:].conj().T @ d @ vh[:rank].conj().T for d in ops)
    return ops, nullity, max(nullity - image, 0)


def _adjoint(ops):
    return tuple(d.conj().T for d in ops)


def _regular_part(delta: DeltaTriple):
    """The regular part (Delta0, Delta1, Delta2) of the Delta triple, whether
    its Delta0 is singular, and the deflation summed over the right steps
    (Muhic and Plestenjak, ELA 18, 2009).

    Right steps (:func:`_right_step`) and left steps, the same on the
    conjugate transposes, repeat until neither deflates; ranks are cut at
    RANK_TOL max_j ||Delta_j||_F. A generic pair takes one step of each,
    from 9 p1 p2 to 4 p1 p2, deflates p1 p2 and ends with Delta0
    nonsingular: a square Delta0 whose singular values show full rank ends
    the loop, with no round that deflates nothing. Raises
    :class:`DegenerateProblemError` when the result is not square.
    """
    ops = (delta.delta0, delta.delta1, delta.delta2)
    tol = RANK_TOL * max(np.linalg.norm(d) for d in ops)
    deflated = 0
    while True:
        shape = ops[0].shape
        ops, nullity, step = _right_step(ops, tol)
        deflated += step
        ops = _adjoint(_right_step(_adjoint(ops), tol)[0])
        rows, cols = ops[0].shape
        if (rows, cols) == shape:
            break
        if rows == cols and (np.linalg.svd(ops[0], compute_uv=False) > tol).all():
            return ops, False, deflated
    if rows != cols:
        raise DegenerateProblemError(f"the staircase reduction of the Delta triple stops "
                                     f"at {rows} x {cols}, not at a square triple")
    return ops, nullity > 0, deflated


def _meet_on_line(pair: QtepPair, norms, p, r) -> float:
    """The least sigma_min(Q2) / (INFINITY_TOL max_j ||C_2j||_2 sum_j |phi_j|)
    (:func:`newton_line`, ``norms`` as in :func:`_backward_errors`) at the roots
    t of det Q1(p + t r), the finite eigenvalues of the companion pencil of Q1
    restricted to a projective line, with Q2 and phi_j restricted to the same
    line: det Q1 and det Q2 meet there when it is at most 1. It is 0 when Q1
    is singular on the line, inf when det Q1 has no root on it. On a random
    line at infinity, (r0, 0) + t (r1, 0), the curves meet when there can be
    fewer than 4 p1 p2 finite common zeros (Bezout); on a random finite line,
    (p, 1) + t (r, 0), whose t = inf lies at infinity, when they share a factor."""
    roots = quadratic_eigen(*pair.q1.on_line(p, r)[:, None])[0]
    if roots is None:
        return 0.0
    powers = np.vander(roots, 3)  # (t^2, t, 1) at each root
    weights = np.abs(powers @ newton_line(pair.nodes, p, r).T).sum(axis=1)
    q2 = np.tensordot(powers, pair.q2.on_line(p, r), 1)
    margins = [smallest_singular_value(m) / (INFINITY_TOL * norms[1] * w)
               for m, w in zip(q2, weights)]
    return float(min(margins, default=np.inf))


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
    when a point's backward error exceeds RESIDUAL_TOL, when the count
    exceeds 4 p1 p2, or when it is below 4 p1 p2 although the curves share
    no point at infinity (:func:`_meet_on_line` on a random line there).
    """
    if pair.p1 > DESK_SCALE_LIMIT or pair.p2 > DESK_SCALE_LIMIT:
        raise ValueError(f"joint spectrum is desk scale only (p <= {DESK_SCALE_LIMIT}), "
                         f"got p1={pair.p1}, p2={pair.p2}")
    # The e1 pencils (unit-variance Y, Z) are balanced for Qi of unit scale.
    pair = QtepPair(_rescaled(pair.q1), _rescaled(pair.q2))
    norms = (_coefficient_norm(pair.q1), _coefficient_norm(pair.q2))
    bound = 4 * pair.p1 * pair.p2
    rng = np.random.default_rng(seed)
    delta = delta_operators(*pair_linearize(pair, E1FreeParams.random(pair.p1, rng),
                                            E1FreeParams.random(pair.p2, rng)))
    c = complex_normal(rng)
    (d0, d1, d2), at_infinity, deflated = _regular_part(delta)
    k = deflated + _rank_deficiency(d1 + c * d2, d0, rng)
    def line(z):  # (p, z) + t (r, 0) at random: finite at z = 1, at infinity at z = 0
        return np.append(complex_normal(rng, 2), z), np.append(complex_normal(rng, 2), 0)
    if k > pair.p1 * pair.p2 and (margin := _meet_on_line(pair, norms, *line(1))) <= 1:
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
    error = _backward_errors(pair, norms, lams, mus)
    if (error > RESIDUAL_TOL).any():
        raise DegenerateProblemError(
            f"{int(np.count_nonzero(error > RESIDUAL_TOL))} of {len(error)} computed points "
            f"have backward error above {RESIDUAL_TOL:g} (largest {error.max():.1e})")
    total = int(mults.sum())
    if total > bound:
        raise DegenerateProblemError(f"found {total} common zeros, more than 4 p1 p2 = {bound}")
    if total < bound and (margin := _meet_on_line(pair, norms, *line(0))) > 1:
        raise DegenerateProblemError(
            f"found {total} common zeros, but the curves share no point at infinity "
            f"(sigma_min / threshold {margin:.2g} > 1), so there are 4 p1 p2 = {bound}")
    points = sorted((SpectrumPoint(lam=complex(l), mu=complex(m), multiplicity=int(n),
                                   residual=float(e))
                     for l, m, n, e in zip(lams, mus, mults, error)),
                    key=lambda p: (p.lam.real, p.lam.imag, p.mu.real, p.mu.imag))
    return SpectrumSample(points=tuple(points), total_count=total, bezout_bound=bound)
