"""Constructors and certifiers for linearizations.

The central construction is the e1-ansatz family: given the six coefficient
blocks of a quadratic polynomial and free parameters (Y11, Z1, Z2), assemble

    A1 = [ e1 x C20 | -Y1 + e1 x C11 | -Z1 + e1 x C10 ]
    A2 = [ Y1       | e1 x C02       | -Z2 + e1 x C01 ]
    A3 = [ Z1       | Z2             | e1 x C00       ]

with Y1 = (Y11; 0; 0) stacked. Any such triple satisfies the ansatz identity
with v = e1; it is a linearization exactly when the trailing 2n x 2n block

    Z = [[Z21, Z22], [Z31, Z32]]

is nonsingular. In that case explicit unimodular factors E and F reduce the
pencil to diag(Q, I_2n), which pins the determinant ratio
det L(lam, mu) = det(Z) * det Q(lam, mu); the verifier estimates that ratio
at random sample points and checks its constancy in log space. Every
threshold is relative: det Q counts as zero only where Q is numerically
rank deficient, sigma_min <= n eps sigma_max.

Monomial input is the zero-node case: the blocks are the same and the
Newton evaluation rule reduces to lam A1 + mu A2 + A3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import AdmissibilityError, DegenerateProblemError
from .linalg import annulus_points, as_matrix, complex_normal, kron, smallest_singular_value
from .matpoly import MatrixPoly2
from .spaces import (DEFAULT_SAMPLES, DEFAULT_TOL, AnsatzVector, NewtonPencil, require_matching,
                     select_M)

MAX_DRAWS = 32  # Z draws of E1FreeParams.random before it gives up
RANDOM_MIN_SIGMA = 0.05  # sigma_min(Z) a random draw of unit-variance entries must exceed
# Largest |gamma_estimate / gamma_predicted - 1| a witness accepts: the estimate, a ratio of sampled
# determinants, rounds worse as n and the conditioning grow; a pencil not witnessed misses by O(1).
GAMMA_AGREEMENT_TOL = 1e-6

__all__ = [
    "E1FreeParams",
    "companion_pencil",
    "assemble_e1_blocks",
    "construct_e1_newton",
    "UnimodularWitnessPair",
    "unimodular_witnesses",
    "member_witness",
    "LinearizationReport",
    "verify_linearization",
    "GeneralAnsatzPencil",
    "construct_general_ansatz",
]


@dataclass(frozen=True)
class E1FreeParams:
    """Free parameters of the e1-ansatz construction.

    y11 is n x n; z1 and z2 are 3n x n stacks (Z11; Z21; Z31) and
    (Z12; Z22; Z32). Admissibility means the 2n x 2n block built from the
    lower four sub-blocks is nonsingular. It is decided relative to ||Z||_F,
    so every nonzero multiple of an admissible Z is admissible.
    """

    y11: np.ndarray
    z1: np.ndarray
    z2: np.ndarray

    @classmethod
    def build(cls, y11, z1, z2) -> "E1FreeParams":
        y11 = np.atleast_2d(np.asarray(y11, dtype=complex))
        n = y11.shape[0]
        y11 = as_matrix(y11, n, n, name="Y11")
        z1 = as_matrix(z1, 3 * n, n, name="Z1")
        z2 = as_matrix(z2, 3 * n, n, name="Z2")
        return cls(y11=y11, z1=z1, z2=z2)

    @property
    def n(self) -> int:
        return self.y11.shape[0]

    @property
    def z_block(self) -> np.ndarray:
        """The 2n x 2n matrix [[Z21, Z22], [Z31, Z32]]."""
        n = self.n
        return np.concatenate((self.z1[n:], self.z2[n:]), axis=1)

    def require_admissible(self, tol: float = DEFAULT_TOL) -> None:
        zb = self.z_block
        smin = smallest_singular_value(zb)
        bound = tol * float(np.linalg.norm(zb))
        if smin <= bound:
            raise AdmissibilityError(
                f"Z block is numerically singular: sigma_min = {smin:.3e} "
                f"<= {bound:.3e}; the construction needs det Z != 0"
            )

    @classmethod
    def of_e1_pencil(cls, pencil: NewtonPencil) -> "E1FreeParams":
        """Parameters read off an e1 pencil: Y11 = top of A2[0], Z1 = A3[0], Z2 = A3[1]."""
        n = pencil.n
        return cls.build(pencil.A2[:n, :n], pencil.A3[:, :n], pencil.A3[:, n:2 * n])

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "E1FreeParams":
        """Random admissible draw (rejection sampling on the Z block: at most
        MAX_DRAWS draws, accepted when sigma_min(Z) > RANDOM_MIN_SIGMA)."""
        y11 = complex_normal(rng, n, n)
        for _ in range(MAX_DRAWS):
            z1 = complex_normal(rng, 3 * n, n)
            z2 = complex_normal(rng, 3 * n, n)
            params = cls.build(y11, z1, z2)
            if smallest_singular_value(params.z_block) > RANDOM_MIN_SIGMA:
                return params
        raise AdmissibilityError(
            f"failed to draw admissible Z after {MAX_DRAWS} tries "
            f"(min_sigma = {RANDOM_MIN_SIGMA})"
        )

    @classmethod
    def companion(cls, q: MatrixPoly2) -> "E1FreeParams":
        """The parameter choice that reproduces the companion pencil."""
        n = q.n
        z1, z2 = np.zeros((2, 3 * n, n), dtype=complex)
        z1[:n], z2[:n] = q.coeff(1, 0), q.coeff(0, 1)
        z1[2 * n:] = z2[n:2 * n] = -np.eye(n)  # -0.0 off the diagonal, as in the formula
        return cls.build(np.zeros((n, n)), z1, z2)


def assemble_e1_blocks(q: MatrixPoly2, params: E1FreeParams):
    """Raw e1-form block triple (A1, A2, A3); no admissibility check.

    Exposed separately so degenerate parameter choices (for instance a zero
    Z block) can be assembled and studied; :func:`construct_e1_newton`
    validates admissibility before calling this.
    """
    n, c, (y11, z1, z2) = q.n, q.coeff, (params.y11, params.z1, params.z2)
    a1, a2, a3 = blocks = np.zeros((3, 3 * n, 3 * n), dtype=complex)
    a1[:n, :n], a1[:n, n:2 * n], a1[:n, 2 * n:] = c(2, 0), c(1, 1) - y11, c(1, 0) - z1[:n]
    a2[:n, :n], a2[:n, n:2 * n], a2[:n, 2 * n:] = y11, c(0, 2), c(0, 1) - z2[:n]
    # 0 - Z is -Z + 0 bit for bit: the lower rows of -Z + e1 x C read +0.0 where Z is 0.
    a1[n:, 2 * n:], a2[n:, 2 * n:] = 0 - z1[n:], 0 - z2[n:]
    a3[:, :n], a3[:, n:2 * n], a3[:n, 2 * n:] = z1, z2, c(0, 0)
    return tuple(blocks)


def construct_e1_newton(q: MatrixPoly2, params: E1FreeParams, *,
                        tol: float = DEFAULT_TOL) -> NewtonPencil:
    """e1-ansatz pencil on the nodes of q; a linearization of q.

    Every constructor of this module ends here: the one place where a pencil
    is assembled and its parameters are tested for admissibility.
    """
    require_matching(q, params=params)
    params.require_admissible(tol)
    return NewtonPencil.from_blocks(q.nodes, *assemble_e1_blocks(q, params))


def companion_pencil(q: MatrixPoly2) -> NewtonPencil:
    """The 3n x 3n companion pencil of q, on the nodes of q.

    A1 = [[C20, C11, 0], [0, 0, 0], [0, 0, I]]
    A2 = [[0, C02, 0], [0, 0, I], [0, 0, 0]]
    A3 = [[C10, C01, C00], [0, -I, 0], [-I, 0, 0]]

    It is the e1-ansatz pencil of :meth:`E1FreeParams.companion` and satisfies
    C(lam, mu) (N kron I) = e1 kron Q(lam, mu); with zero nodes
    N = (lam, mu, 1) and C = lam A1 + mu A2 + A3. For n = 1 one has
    det C = -q identically.
    """
    return construct_e1_newton(q, E1FreeParams.companion(q))


# The benchmark tracer (perfbench/tracing.py) looks this name up; it has no
# other user.
newton_companion = companion_pencil


@dataclass(frozen=True)
class UnimodularWitnessPair:
    """Outcome of the unimodular-witness check of an e1-form pencil.

    E(lam, mu) = [[n1 I, I, 0], [m1 I, 0, I], [I, 0, 0]] has determinant 1
    and F(lam, mu) = [[I, -W(lam, mu) Z^{-1}], [0, Z^{-1}]] the constant
    determinant det(Z)^{-1}, with W the top-row remainder of L E. F L E =
    diag(Q, I_2n) holds identically exactly when L is the e1 pencil of the
    parameters, so ``reduction_residual`` compares blocks, and the predicted
    ratio det L / det Q is 1 / (det E * det F) = det Z (det Z / det(M)^n
    from :func:`member_witness`).
    """

    log_predicted_gamma: complex  # log of det L / det Q; det(Z^{-1}) overflows for large n, small Z
    reduction_residual: float


def unimodular_witnesses(q: MatrixPoly2, pencil: NewtonPencil, params: E1FreeParams,
                         *, tol: float = DEFAULT_TOL) -> UnimodularWitnessPair:
    """Check that the pencil is the e1 pencil of ``params`` and predict gamma.

    The residual is ||L - L_e1||_F / ||L_e1||_F over the three blocks, both
    first brought to unit size by one power of two so that no squared entry
    over- or underflows. No node and no sample point is read. A numerically
    singular Z is rejected.
    """
    require_matching(q, pencil, params=params)
    params.require_admissible(tol)
    target = np.stack(assemble_e1_blocks(q, params))
    scale = 2.0 ** -np.frexp(np.abs(target).max())[1]
    target *= scale
    with np.errstate(over="ignore", invalid="ignore"):  # a huge pencil reads inf or nan: fail
        diff = np.stack(pencil.blocks()) * scale - target
        residual = float(np.linalg.norm(diff) / np.linalg.norm(target))
    sign_zi, log_zi = np.linalg.slogdet(np.linalg.inv(params.z_block))
    return UnimodularWitnessPair(log_predicted_gamma=-log_zi - 1j * np.angle(sign_zi),
                                 reduction_residual=residual)


def member_witness(q: MatrixPoly2, pencil: NewtonPencil, v: AnsatzVector,
                   *, tol: float = DEFAULT_TOL) -> UnimodularWitnessPair:
    """The unimodular witness of a pencil with ansatz vector v, read from its own blocks.

    M = select_M(v) maps v to e1, and :func:`unimodular_witnesses` checks
    (M kron I) L against the e1 pencil of the parameters read off its
    blocks. det L = det((M kron I) L) / det(M)^n, so the predicted gamma of
    L is det Z / det(M)^n, in log space. Raises AdmissibilityError for a
    zero v (no M exists), a (M kron I) L out of double range, or a
    numerically singular Z.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # from_blocks rejects inf and nan
            e1 = pencil.left_multiply(m := select_M(v))
    except ValueError as exc:  # select_M of a zero v, or non-finite blocks
        raise AdmissibilityError(f"no e1 pencil (M kron I) L: {exc}") from None
    witnesses = unimodular_witnesses(q, e1, E1FreeParams.of_e1_pencil(e1), tol=tol)
    sign_m, log_m = np.linalg.slogdet(m)
    return replace(witnesses, log_predicted_gamma=witnesses.log_predicted_gamma
                   - q.n * (log_m + 1j * np.angle(sign_m)))


@dataclass(frozen=True)
class LinearizationReport:
    """Result of the determinant-ratio linearization check.

    gamma is estimated at the sample point where |det Q| is largest; every
    other sample must satisfy |det L - gamma det Q| <= tol |gamma det Q|,
    compared in log space (``log_gamma`` = log|gamma| + i arg gamma; the
    rounded values may read 0 or inf). The verdict is "pass" exactly when
    the largest relative deviation stays below tol and gamma != 0. gamma scales
    with the pencil (as s^{3n} under L -> s L), so no absolute floor applies
    to it: a pencil whose det L is exactly zero gets gamma = 0, and one whose
    det L is only rounding noise fails the constancy test.
    """

    gamma_estimate: complex
    log_gamma: complex
    max_relative_deviation: float
    sample_count: int
    verdict: str
    tol: float
    samples: tuple

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def verify_linearization(pencil: NewtonPencil, q: MatrixPoly2, *,
                         samples: int = DEFAULT_SAMPLES, seed: int = 0,
                         tol: float = DEFAULT_TOL) -> LinearizationReport:
    """Sample det L against det Q and decide whether the ratio is a nonzero constant.

    2 ``samples`` annulus points are drawn from ``seed``: lambda is the first
    half, mu the second. Inconclusive (DegenerateProblemError) when
    sigma_min(Q) <= n eps sigma_max(Q) at every sample, the relative rank
    test of numpy.linalg.matrix_rank. A quadratic in (lambda, mu) has 6
    coefficients, so ``samples`` below 6 raises ValueError. A sample where L
    or det L overflows the double range has deviation inf.
    """
    if samples < 6:
        raise ValueError(f"samples must be at least 6 (6 coefficients), got {samples}")
    require_matching(q, pencil)
    points = annulus_points(np.random.default_rng(seed), 2 * samples)
    lams, mus = points[:samples], points[samples:]
    q_values = q.eval(lams, mus)

    sigma = np.linalg.svd(q_values, compute_uv=False)
    if np.all(sigma[:, -1] <= q.n * np.finfo(float).eps * sigma[:, 0]):
        raise DegenerateProblemError(
            "det Q vanishes at every sample point (Q is numerically singular "
            "there); the determinant-ratio check is inconclusive for this polynomial"
        )
    sign_q, log_q = np.linalg.slogdet(q_values)
    chunks = pencil.eval_chunks(lams, mus)
    with np.errstate(over="ignore", invalid="ignore"):
        sign_l, log_l = (np.concatenate(p) for p in zip(*(np.linalg.slogdet(v) for _, v in chunks)))
    overflow = np.isnan(log_l) | (log_l == np.inf)  # never the reference sample

    ref = int(np.argmax(np.where(overflow, -np.inf, log_q)))
    phase = sign_l[ref] / sign_q[ref]
    log_abs_gamma = log_l[ref] - log_q[ref]
    # Zero divisions and rounded values out of range are expected here.
    with np.errstate(all="ignore"):
        dev = np.abs(sign_l / (sign_q * phase) * np.exp(log_l - log_q - log_abs_gamma) - 1)
        # gamma det Q_i == 0: exact agreement only if det L_i == 0 as well.
        dev = np.where((sign_q == 0) | (phase == 0), np.where(sign_l == 0, 0.0, np.inf), dev)
        dev[overflow] = np.inf
        dev[ref] = 0.0
        records = tuple((complex(lam), complex(mu), complex(sl * np.exp(ll)),
                         complex(sq * np.exp(lq)), float(d))
                        for lam, mu, sl, ll, sq, lq, d in zip(lams, mus, sign_l, log_l,
                                                              sign_q, log_q, dev))
        gamma = complex(phase * np.exp(log_abs_gamma))
    worst = float(dev.max())
    verdict = "pass" if (worst < tol and phase != 0) else "fail"
    return LinearizationReport(gamma_estimate=gamma,
                               log_gamma=complex(log_abs_gamma + 1j * np.angle(phase)),
                               max_relative_deviation=worst, sample_count=samples,
                               verdict=verdict, tol=tol, samples=records)


@dataclass(frozen=True)
class GeneralAnsatzPencil:
    """Outcome of the general-ansatz construction.

    ``pencil`` is the e1-form linearization built from the parameters
    ``params``; ``pencil_v`` applies M^{-1} kron I on the left and
    is the member of the Newton space with the requested ansatz vector.
    """

    M: np.ndarray
    params: E1FreeParams
    pencil: NewtonPencil

    @property
    def pencil_v(self) -> NewtonPencil:
        return self.pencil.left_multiply(np.linalg.inv(self.M))


def construct_general_ansatz(q: MatrixPoly2, v, params: E1FreeParams | None = None,
                             *, tol: float = DEFAULT_TOL) -> GeneralAnsatzPencil:
    """Linearization construction for an arbitrary nonzero ansatz vector.

    Pick M with M v = e1 from the pattern table and build an e1 pencil, whose
    product with M^{-1} kron I has ansatz v. With ``params`` it is the e1
    pencil of the transformed parameters (m11 Y11, (M kron I) Z1,
    (M kron I) Z2), with Y11 forced to 0 unless m21 = m31 = 0. Without, it is
    the e1 pencil of Y11 = 0, Z1 = (0; I; 0), Z2 = (0; 0; I) for every M: its
    Z block is I_2n, so the construction is closed form and always admissible.
    """
    n = q.n
    if not isinstance(v, AnsatzVector):
        v = AnsatzVector.classify(v, tol=tol)
    m = select_M(v, tol=tol)
    zero = np.zeros((n, n))
    if params is None:  # [Z1 Z2] = [0; I_2n]
        hat = E1FreeParams.build(zero, *np.hsplit(np.eye(3 * n, 2 * n, -n), 2))
    else:
        require_matching(q, params=params)
        t = kron(m, np.eye(n))
        y_free = abs(m[1, 0]) == 0 and abs(m[2, 0]) == 0
        hat = E1FreeParams.build(m[0, 0] * (params.y11 if y_free else zero),
                                 t @ params.z1, t @ params.z2)
    return GeneralAnsatzPencil(M=m, params=hat, pencil=construct_e1_newton(q, hat, tol=tol))
