"""Two-parameter eigenvalue problem pairs in Newton form.

A pair of quadratic polynomials Q1 (p1 x p1) and Q2 (p2 x p2) over one
shared node set defines the joint spectrum

    { (lam, mu) : det Q1(lam, mu) = det Q2(lam, mu) = 0 }.

A generic pair has 4 p1 p2 eigenvalues (the product of the determinant
degrees bounds the count of isolated common zeros). Each polynomial is
linearized with the e1-ansatz construction, and the pair of pencils is
coupled through the operator determinants

    Delta0 = B1 kron C2 - C1 kron B2
    Delta1 = C1 kron A2 - A1 kron C2
    Delta2 = A1 kron B2 - B1 kron A2

where (Ai, Bi, Ci) are the Gamma2 coefficient, the Gamma2t coefficient and
the constant term of pencil i. For pencils in e1 form Delta0 is singular by
construction: the Gamma2t coefficient has its two lower block rows supported
on the last block column only, so B1 and B2 have kernels, and for B1 u = 0
and B2 v = 0 the Kronecker vector u kron v annihilates both terms of Delta0.
The pair is therefore a *singular* two-parameter problem; this module
constructs and certifies it but does not attempt to solve the coupled
singular system. The certificate uses that kernel vector as a witness and
works on the 3p x 3p blocks, so it never forms the (9 p1 p2)^2 operators
unless the witness fails (Muhic and Plestenjak, "On the singular
two-parameter eigenvalue problem", ELA 18, 2009).

Spectra are instead validated directly: one-parameter slices reduce to
generalized eigenvalue problems, and a resultant-based oracle computes the
full joint spectrum at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NodeMismatchError, SharedFactorError, SingularPencilError
from .linalg import annulus_points, det, small_dense_eigen, smallest_singular_value
from .matpoly import MatrixPoly2
from .linearize import E1FreeParams, construct_e1_newton
from .spaces import NewtonPencil

DESK_SCALE_LIMIT = 3

__all__ = [
    "QtepPair",
    "pair_linearize",
    "DeltaTriple",
    "delta_operators",
    "SingularityCertificate",
    "certify_singular",
    "spectrum_slice",
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
    """(A, B, C) of a pencil (fields A1, A2, A3) or of a raw triple."""
    return tuple(np.asarray(x, dtype=complex) for x in
                 (ln.blocks() if hasattr(ln, "blocks") else ln))


def delta_operators(ln1, ln2) -> DeltaTriple:
    """Kronecker operator determinants of the pencil pair.

    The coefficient roles are A = Gamma2 coefficient, B = Gamma2t
    coefficient, C = constant term (pencil fields A1, A2, A3 in that order).
    Raw coefficient triples of square matrices are accepted in place of
    pencils, so the formulas can be exercised at any block size.
    """
    a1, b1, c1 = _coefficients(ln1)
    a2, b2, c2 = _coefficients(ln2)
    d0 = np.kron(b1, c2) - np.kron(c1, b2)
    d1 = np.kron(c1, a2) - np.kron(a1, c2)
    d2 = np.kron(a1, b2) - np.kron(b1, a2)
    return DeltaTriple(delta0=d0, delta1=d1, delta2=d2,
                       k1=a1.shape[0], k2=a2.shape[0])


def _lower_rows_supported_on_last_column(block: np.ndarray, p: int,
                                         rel_tol: float = 1e-12) -> bool:
    """True when block rows p..3p vanish outside the last block column."""
    scale = max(float(np.abs(block).max()), 1.0)
    return bool(np.abs(block[p:, : 2 * p]).max() <= rel_tol * scale)


def _delta0_frobenius(b1, c1, b2, c2) -> float:
    """||B1 kron C2 - C1 kron B2||_F without forming either Kronecker product.

    Delta0 is a perfect shuffle of the rank-2 matrix X Y^T with
    X = [vec B1, vec C1] and Y = [vec C2, -vec B2], and a shuffle keeps the
    Frobenius norm. With X = QR it equals ||R Y^T||_F. The Gram identity
    ||X Y^T||_F^2 = trace(X^H X Y^T conj(Y)) would subtract squares and
    lose half the digits when Delta0 is small next to ||B1|| ||C2||.
    """
    r = np.linalg.qr(np.column_stack([b1.ravel(), c1.ravel()]), mode="r")
    return float(np.linalg.norm(r @ np.vstack([c2.ravel(), -b2.ravel()])))


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
    evidence: dict

    @property
    def margin(self) -> float:
        """value / threshold; at most 1 exactly when the verdict is singular."""
        if self.threshold > 0:
            return self.value / self.threshold
        return 0.0 if self.value == 0 else float("inf")


def certify_singular(ln1, ln2, *, tol: float = 1e-7) -> SingularityCertificate:
    """Certify whether Delta0 = B1 kron C2 - C1 kron B2 is singular.

    The criterion is sigma_min(Delta0) <= tol * ||Delta0||_F, with the
    Frobenius norm computed from the blocks (:func:`_delta0_frobenius`).
    Pencils or raw (A, B, C) triples are accepted, as in
    :func:`delta_operators`.

    Kernel witness first: u and v are the unit right singular vectors of
    the smallest singular values of B1 and B2, and
    rho = ||(B1 u) kron (C2 v) - (C1 u) kron (B2 v)||_2 = ||Delta0 (u kron v)||_2.
    Since sigma_min(Delta0) <= rho, rho <= threshold certifies singular at
    O(p^3) cost. For e1 pencils B1 u = B2 v = 0 up to rounding: both
    Gamma2t coefficients have their lower block rows supported on the last
    block column only, which leaves them rank deficient.

    Only when the witness does not certify is the dense operator formed and
    its sigma_min compared with the same threshold; so a "not singular"
    verdict always rests on the dense sigma_min.

    For a pencil pair the structural zero pattern behind the e1 singularity
    is recorded as ``evidence["structural_zero_pattern"]``.
    """
    _, b1, c1 = _coefficients(ln1)
    _, b2, c2 = _coefficients(ln2)
    frob = _delta0_frobenius(b1, c1, b2, c2)
    threshold = tol * frob
    u, v = (np.linalg.svd(b)[2][-1].conj() for b in (b1, b2))
    route = KERNEL_WITNESS
    value = float(np.linalg.norm(np.kron(b1 @ u, c2 @ v) - np.kron(c1 @ u, b2 @ v)))
    if value > threshold:
        route = DENSE_SIGMA_MIN
        value = smallest_singular_value(delta_operators(ln1, ln2).delta0)
    evidence = {}
    if isinstance(ln1, NewtonPencil) and isinstance(ln2, NewtonPencil):
        evidence["structural_zero_pattern"] = (
            _lower_rows_supported_on_last_column(ln1.A2, ln1.n)
            and _lower_rows_supported_on_last_column(ln2.A2, ln2.n)
        )
    return SingularityCertificate(is_singular=bool(value <= threshold),
                                  route=route, value=value, frobenius=frob,
                                  threshold=threshold, evidence=evidence)


def _lambda_quadratic_at(q: MatrixPoly2, mu0: complex):
    """Coefficients (K2, K1, K0) of lam^2 K2 + lam K1 + K0 = Q(lam, mu0)."""
    qm = q.to_monomial()
    k2 = qm.coeff(2, 0)
    k1 = mu0 * qm.coeff(1, 1) + qm.coeff(1, 0)
    k0 = mu0 * mu0 * qm.coeff(0, 2) + mu0 * qm.coeff(0, 1) + qm.coeff(0, 0)
    return k2, k1, k0


def spectrum_slice(q: MatrixPoly2, mu0: complex, *,
                   residual_tol: float = 1e-8) -> list[complex]:
    """Finite lambda with det Q(lambda, mu0) = 0, via the companion pencil.

    The one-parameter quadratic lam^2 K2 + lam K1 + K0 is solved through the
    2n x 2n generalized problem ([0 I; -K0 -K1], [I 0; 0 K2]). Infinite
    eigenvalues (singular K2) are dropped, so fewer than 2n values may come
    back; eigenvalues whose vectors fail the relative residual test are
    discarded as well. Sorted by (real, imag).
    """
    n = q.n
    k2, k1, k0 = _lambda_quadratic_at(q, mu0)
    norms = [float(np.linalg.norm(k)) for k in (k2, k1, k0)]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    a = np.block([[zero, eye], [-k0, -k1]])
    b = np.block([[eye, zero], [zero, k2]])
    out = []
    for pair in small_dense_eigen(a, b):
        if pair.infinite:
            continue
        lam = pair.value
        x = pair.vector[:n]
        if np.linalg.norm(x) <= 1e-8 * np.linalg.norm(pair.vector):
            x = pair.vector[n:]
        value = lam * lam * k2 + lam * k1 + k0
        # Backward-error denominator: coefficient norms weighted by |lam|^k.
        scale = abs(lam) ** 2 * norms[0] + abs(lam) * norms[1] + norms[2]
        num = float(np.linalg.norm(value @ x))
        if num <= residual_tol * max(scale, 1e-300) * float(np.linalg.norm(x)):
            out.append(lam)
    out.sort(key=lambda z: (z.real, z.imag))
    return out


def _pencil_slice_eigenvalues(pencil: NewtonPencil, mus) -> list:
    """Finite lambda with det L(lambda, mu0) = 0 for each mu0 (None for a
    singular slice). Gamma2(lam) is lam I minus a constant diagonal, so the
    slice is the linear pencil lam A1 + L(0, mu0)."""
    out = []
    for _, constants in pencil.eval_chunks(np.zeros(len(mus)), mus):
        for g0 in constants:
            try:
                out.append([p.value for p in small_dense_eigen(-g0, pencil.A1, vectors=False)
                            if not p.infinite])
            except SingularPencilError:
                out.append(None)
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
    """
    rng = np.random.default_rng(seed)
    mus = annulus_points(rng, slices)
    records = []
    all_ok = True
    for mu0, l_eigs in zip(mus, _pencil_slice_eigenvalues(pencil, mus)):
        q_eigs = spectrum_slice(q, mu0)
        singular = l_eigs is None
        l_eigs = l_eigs or []
        dists = []
        ok = not singular
        for lam in q_eigs:
            if l_eigs:
                d = min(abs(lam - le) for le in l_eigs)
            else:
                d = np.inf
            dists.append(d)
            if d > match_tol * max(1.0, abs(lam)):
                ok = False
        records.append(SliceRecord(mu0=complex(mu0),
                                   q_eigenvalues=tuple(q_eigs),
                                   pencil_eigenvalues=tuple(sorted(
                                       l_eigs, key=lambda z: (z.real, z.imag))),
                                   distances=tuple(float(d) for d in dists),
                                   contained=ok, pencil_singular=singular))
        all_ok = all_ok and ok
    return SpectrumMatchReport(records=tuple(records), all_contained=all_ok,
                               match_tol=match_tol)


# --------------------------------------------------------------------------
# Joint-spectrum oracle: determinant interpolation, resultant elimination,
# two-variable Newton polish.
# --------------------------------------------------------------------------

def _roots_of_unity(count: int, radius: float) -> np.ndarray:
    return radius * np.exp(2j * np.pi * np.arange(count) / count)


def _det_coefficient_matrix(q: MatrixPoly2) -> np.ndarray:
    """Monomial coefficients C[i, j] of det Q = sum C[i,j] lam^i mu^j.

    det Q has degree at most 2n in each variable, so a (2n+1) x (2n+1)
    tensor grid of scaled roots of unity determines it; the two scalings
    keep the Vandermonde systems well conditioned.
    """
    d = 2 * q.n
    xl = _roots_of_unity(d + 1, 1.0)
    xm = _roots_of_unity(d + 1, 1.5)
    grid_l, grid_m = np.meshgrid(xl, xm, indexing="ij")
    values = det(q.eval(grid_l.ravel(), grid_m.ravel())).reshape(d + 1, d + 1)
    vl = np.vander(xl, d + 1, increasing=True)
    vm = np.vander(xm, d + 1, increasing=True)
    # values = vl @ C @ vm.T
    c = np.linalg.solve(vl, values)
    c = np.linalg.solve(vm, c.T).T
    return c


def _poly2_eval(c: np.ndarray, lam: complex, mu: complex) -> complex:
    lp = lam ** np.arange(c.shape[0])
    mp = mu ** np.arange(c.shape[1])
    return complex(lp @ c @ mp)


def _poly2_grad(c: np.ndarray, lam: complex, mu: complex):
    i = np.arange(c.shape[0])
    j = np.arange(c.shape[1])
    lp = lam ** i
    mp = mu ** j
    dl = (i[1:, None] * c[1:, :]) if c.shape[0] > 1 else np.zeros((0, c.shape[1]))
    dm = (c[:, 1:] * j[None, 1:]) if c.shape[1] > 1 else np.zeros((c.shape[0], 0))
    flam = complex(lp[: max(c.shape[0] - 1, 0)] @ dl @ mp) if dl.size else 0j
    fmu = complex(lp @ dm @ mp[: max(c.shape[1] - 1, 0)]) if dm.size else 0j
    return flam, fmu


def _poly2_rel_residual(c: np.ndarray, lam: complex, mu: complex) -> float:
    i = np.arange(c.shape[0], dtype=float)
    j = np.arange(c.shape[1], dtype=float)
    mag = (np.maximum(1.0, abs(lam)) ** i)[:, None] * (np.maximum(1.0, abs(mu)) ** j)[None, :]
    scale = float((np.abs(c) * mag).sum())
    if scale == 0:
        return np.inf
    return abs(_poly2_eval(c, lam, mu)) / scale


def _effective_lambda_degree(c: np.ndarray, rel_tol: float = 1e-10) -> int:
    row_norm = np.abs(c).max(axis=1)
    scale = row_norm.max()
    if scale == 0:
        return -1
    keep = np.nonzero(row_norm > rel_tol * scale)[0]
    return int(keep.max()) if keep.size else -1


def _univariate_coeffs(c: np.ndarray, mu0: complex) -> np.ndarray:
    """Coefficients of lam -> p(lam, mu0), increasing powers."""
    mp = mu0 ** np.arange(c.shape[1])
    return c @ mp


def _trimmed_roots(coeffs: np.ndarray, rel_tol: float = 1e-8) -> np.ndarray:
    """Roots of a coefficient vector (increasing powers), trimming the
    relatively negligible leading entries first."""
    scale = np.abs(coeffs).max()
    if scale == 0:
        return np.array([], dtype=complex)
    keep = np.nonzero(np.abs(coeffs) > rel_tol * scale)[0]
    if keep.size == 0 or keep.max() == 0:
        return np.array([], dtype=complex)
    deg = keep.max()
    return np.roots(coeffs[: deg + 1][::-1])


def _sylvester_matrix(fc: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """Sylvester matrix of two univariate coefficient vectors (increasing)."""
    df, dg = len(fc) - 1, len(gc) - 1
    s = np.zeros((df + dg, df + dg), dtype=complex)
    frow = fc[::-1]
    grow = gc[::-1]
    for r in range(dg):
        s[r, r:r + df + 1] = frow
    for r in range(df):
        s[dg + r, r:r + dg + 1] = grow
    return s


def _resultant_in_mu(cf: np.ndarray, cg: np.ndarray, df: int, dg: int) -> np.ndarray:
    """Coefficients of Res_lambda(f, g) as a polynomial in mu.

    Evaluated at scaled roots of unity and interpolated; the sample count
    covers the degree bound df * deg_mu(g) + dg * deg_mu(f).
    """
    deg_bound = df * (cg.shape[1] - 1) + dg * (cf.shape[1] - 1)
    count = deg_bound + 1
    pts = _roots_of_unity(count, 1.25)
    vals = np.empty(count, dtype=complex)
    for k, mu0 in enumerate(pts):
        fu = _univariate_coeffs(cf, mu0)[: df + 1]
        gu = _univariate_coeffs(cg, mu0)[: dg + 1]
        vals[k] = det(_sylvester_matrix(fu, gu))
    vander = np.vander(pts, count, increasing=True)
    return np.linalg.solve(vander, vals)


def _newton_polish(cf: np.ndarray, cg: np.ndarray, lam: complex, mu: complex,
                   iters: int = 50, step_tol: float = 1e-12):
    for _ in range(iters):
        fv = _poly2_eval(cf, lam, mu)
        gv = _poly2_eval(cg, lam, mu)
        fl, fm = _poly2_grad(cf, lam, mu)
        gl, gm = _poly2_grad(cg, lam, mu)
        jac = np.array([[fl, fm], [gl, gm]])
        try:
            step = np.linalg.solve(jac, np.array([fv, gv]))
        except np.linalg.LinAlgError:
            break
        lam -= step[0]
        mu -= step[1]
        if np.abs(step).max() < step_tol * max(1.0, abs(lam), abs(mu)):
            break
    return lam, mu


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

    def as_pairs(self) -> list[tuple[complex, complex]]:
        return [(p.lam, p.mu) for p in self.points]


def _cluster_sorted(values: np.ndarray, tol: float) -> list[list[complex]]:
    order = sorted(values, key=lambda z: (z.real, z.imag))
    clusters: list[list[complex]] = []
    for z in order:
        if clusters and abs(z - clusters[-1][-1]) <= tol * max(1.0, abs(z)):
            clusters[-1].append(z)
        else:
            clusters.append([z])
    return clusters


def spectrum_pair_oracle(pair: QtepPair, *, residual_tol: float = 1e-8,
                         cluster_tol: float = 1e-6) -> SpectrumSample:
    """Joint spectrum of a pair at desk scale (p1, p2 <= 3).

    f = det Q1 and g = det Q2 are recovered as bivariate monomial
    polynomials by grid interpolation, lambda is eliminated through the
    Sylvester resultant, each mu root yields lambda candidates from the
    univariate root step, and every candidate is polished by two-variable
    Newton iteration and kept only if the scaled residual of both
    polynomials drops below ``residual_tol``.

    Multiplicities come from the resultant: each mu cluster carries a root
    multiplicity, distributed over the distinct polished points above it.
    An identically vanishing resultant means the determinants share a
    factor (infinitely many common zeros) and raises
    :class:`SharedFactorError`.
    """
    if pair.p1 > DESK_SCALE_LIMIT or pair.p2 > DESK_SCALE_LIMIT:
        raise ValueError(
            f"oracle is desk scale only (p <= {DESK_SCALE_LIMIT}), "
            f"got p1={pair.p1}, p2={pair.p2}"
        )

    cf = _det_coefficient_matrix(pair.q1)
    cg = _det_coefficient_matrix(pair.q2)
    for name, c in (("q1", cf), ("q2", cg)):
        if np.abs(c).max() == 0:
            raise SharedFactorError(
                f"det {name} vanishes identically; every point is a common zero"
            )
    cf = cf / np.abs(cf).max()
    cg = cg / np.abs(cg).max()

    df = _effective_lambda_degree(cf)
    dg = _effective_lambda_degree(cg)
    bezout = (2 * pair.p1) * (2 * pair.p2)

    if df <= 0 and dg <= 0:
        # Both determinants are univariate in mu: any shared root gives a
        # lambda-continuum of common zeros.
        rf = _trimmed_roots(cf[0])
        rg = _trimmed_roots(cg[0])
        for r in rf:
            if rg.size and np.min(np.abs(rg - r)) <= cluster_tol * max(1.0, abs(r)):
                raise SharedFactorError(
                    "both determinants are constant in lambda and share a root: "
                    "infinitely many common zeros"
                )
        return SpectrumSample(points=(), total_count=0, bezout_bound=bezout)

    if dg <= 0:
        res = _power_of_univariate(cg[0], df)
    elif df <= 0:
        res = _power_of_univariate(cf[0], dg)
    else:
        res = _resultant_in_mu(cf, cg, df, dg)

    res_scale = np.abs(res).max()
    if res_scale <= 1e-10:
        raise SharedFactorError(
            "resultant vanishes identically: the determinants share a factor "
            "(infinitely many common zeros)"
        )
    mu_roots = _trimmed_roots(res)

    points: list[SpectrumPoint] = []
    for cluster in _cluster_sorted(mu_roots, cluster_tol):
        mu_star = complex(np.mean(cluster))
        mult = len(cluster)
        candidates = set()
        for c in (cf, cg):
            d_eff = _effective_lambda_degree(c)
            if d_eff <= 0:
                continue
            for lam in _trimmed_roots(_univariate_coeffs(c, mu_star)):
                candidates.add(complex(lam))
        refined = []
        for lam in sorted(candidates, key=lambda z: (z.real, z.imag)):
            if max(_poly2_rel_residual(cf, lam, mu_star),
                   _poly2_rel_residual(cg, lam, mu_star)) > 1e-3:
                continue
            lam_p, mu_p = _newton_polish(cf, cg, lam, mu_star)
            resid = max(_poly2_rel_residual(cf, lam_p, mu_p),
                        _poly2_rel_residual(cg, lam_p, mu_p))
            if resid <= residual_tol:
                refined.append((lam_p, mu_p, resid))
        # Deduplicate polished candidates over this mu cluster.
        distinct: list[list] = []
        for lam_p, mu_p, resid in sorted(refined, key=lambda t: t[2]):
            merged = False
            for entry in distinct:
                if (abs(lam_p - entry[0]) <= cluster_tol * max(1.0, abs(lam_p))
                        and abs(mu_p - entry[1]) <= cluster_tol * max(1.0, abs(mu_p))):
                    merged = True
                    break
            if not merged:
                distinct.append([lam_p, mu_p, resid])
        if not distinct:
            continue  # intersection at infinity or spurious resultant root
        k = len(distinct)
        if k > mult:
            distinct = distinct[:mult]  # best residuals first; Bezout ceiling
            k = mult
        base, extra = divmod(mult, k)
        distinct.sort(key=lambda t: (t[0].real, t[0].imag))
        for idx, (lam_p, mu_p, resid) in enumerate(distinct):
            m = base + (1 if idx < extra else 0)
            points.append(SpectrumPoint(lam=complex(lam_p), mu=complex(mu_p),
                                        multiplicity=m, residual=float(resid)))

    # Merge across clusters in case polishing moved near-equal points together.
    merged_points: list[SpectrumPoint] = []
    for pt in sorted(points, key=lambda p: (p.lam.real, p.lam.imag,
                                            p.mu.real, p.mu.imag)):
        if merged_points:
            prev = merged_points[-1]
            if (abs(pt.lam - prev.lam) <= cluster_tol * max(1.0, abs(pt.lam))
                    and abs(pt.mu - prev.mu) <= cluster_tol * max(1.0, abs(pt.mu))):
                merged_points[-1] = SpectrumPoint(
                    lam=prev.lam, mu=prev.mu,
                    multiplicity=prev.multiplicity + pt.multiplicity,
                    residual=min(prev.residual, pt.residual))
                continue
        merged_points.append(pt)

    total = sum(p.multiplicity for p in merged_points)
    return SpectrumSample(points=tuple(merged_points), total_count=total,
                          bezout_bound=bezout)


def _power_of_univariate(coeffs: np.ndarray, power: int) -> np.ndarray:
    """(sum c_j mu^j) ** power as a coefficient vector, increasing powers.

    Res_lambda(f, g) = g^(deg_lambda f) when g is constant in lambda.
    """
    out = np.array([1.0 + 0j])
    base = np.asarray(coeffs, dtype=complex)
    for _ in range(power):
        out = np.convolve(out, base)
    return out
