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

import math
from typing import NamedTuple

import numpy as np

from .errors import AdmissibilityError, DegenerateProblemError
from .linalg import (annulus_points, as_matrix, block_rows, complex_normal, freeze,
                     scale_to_unit, smallest_singular_value)
from .matpoly import MatrixPoly2
from .spaces import (DEFAULT_SAMPLES, DEFAULT_TOL, MembershipResult, NewtonPencil, chunks,
                     membership_newton, require_matching, select_M)

# Largest |gamma / gamma_predicted - 1| a witness accepts: the sampled gamma, a ratio of sampled
# determinants, rounds worse as n and the conditioning grow; a pencil not witnessed misses by O(1).
GAMMA_AGREEMENT_TOL = 1e-6

__all__ = [
    "E1FreeParams",
    "companion_pencil",
    "construct_e1_newton",
    "UnimodularWitnessPair",
    "unimodular_witnesses",
    "LinearizationReport",
    "verify_linearization",
    "construct_general_ansatz",
]


class E1FreeParams(NamedTuple):
    """Free parameters of the e1-ansatz construction.

    y11 is n x n; z1 and z2 are 3n x n stacks (Z11; Z21; Z31) and
    (Z12; Z22; Z32). Admissibility means the 2n x 2n block built from the
    lower four sub-blocks is nonsingular. It is decided relative to ||Z||_F,
    on Z brought to unit size by a power of two, so every nonzero multiple
    of an admissible Z is admissible.
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
        zb, e = scale_to_unit(self.z_block)
        smin, bound = smallest_singular_value(zb), tol * float(np.linalg.norm(zb))
        if smin <= bound:  # reported for Z as given
            raise AdmissibilityError(
                f"Z block is numerically singular: sigma_min = {np.ldexp(smin, -e):.3e} "
                f"<= {np.ldexp(bound, -e):.3e}; the construction needs det Z != 0"
            )

    @classmethod
    def of_e1_pencil(cls, pencil: NewtonPencil) -> "E1FreeParams":
        """Parameters read off an e1 pencil: Y11 = top of A2[0], Z1 = A3[0], Z2 = A3[1]."""
        n = pencil.n
        return cls.build(pencil.A2[:n, :n], pencil.A3[:, :n], pencil.A3[:, n:2 * n])

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "E1FreeParams":
        """Random admissible draw: Y11 and the top rows (Z11, Z12) complex normal,
        and the Z block Haar unitary, the Q factor of a complex normal matrix
        with its column phases fixed by diag(R) (Mezzadri, Notices AMS 54,
        2007), so sigma_min(Z) = sigma_max(Z) = 1 and no draw is rejected."""
        y11, top = complex_normal(rng, n, n), complex_normal(rng, n, 2 * n)
        q, r = np.linalg.qr(complex_normal(rng, 2 * n, 2 * n))
        d = r.diagonal()
        z = np.vstack([top, q * (d / abs(d))])
        return cls.build(y11, z[:, :n], z[:, n:])

    @classmethod
    def companion(cls, q: MatrixPoly2) -> "E1FreeParams":
        """The parameter choice that reproduces the companion pencil."""
        n = q.n
        z1, z2 = np.zeros((2, 3 * n, n), dtype=complex)
        z1[:n], z2[:n] = q.coeff(1, 0), q.coeff(0, 1)
        z1[2 * n:] = z2[n:2 * n] = -np.eye(n)  # -0.0 off the diagonal, as in the formula
        return cls.build(np.zeros((n, n)), z1, z2)


def construct_e1_newton(q: MatrixPoly2, params: E1FreeParams, *,
                        tol: float = DEFAULT_TOL) -> NewtonPencil:
    """e1-ansatz pencil on the nodes of q; a linearization of q.

    Every constructor of this module ends here, and :func:`unimodular_witnesses` builds its
    target through it: the one place where e1 blocks are written and their parameters are
    tested for admissibility.
    """
    require_matching(q, params=params)
    params.require_admissible(tol)
    n, c, (y11, z1, z2) = q.n, q.coeff, params
    a1, a2, a3 = blocks = np.zeros((3, 3 * n, 3 * n), dtype=complex)
    a1[:n, :n], a1[:n, n:2 * n], a1[:n, 2 * n:] = c(2, 0), c(1, 1) - y11, c(1, 0) - z1[:n]
    a2[:n, :n], a2[:n, n:2 * n], a2[:n, 2 * n:] = y11, c(0, 2), c(0, 1) - z2[:n]
    # 0 - Z is -Z + 0 bit for bit: the lower rows of -Z + e1 x C read +0.0 where Z is 0.
    a1[n:, 2 * n:], a2[n:, 2 * n:] = 0 - z1[n:], 0 - z2[n:]
    a3[:, :n], a3[:, n:2 * n], a3[:n, 2 * n:] = z1, z2, c(0, 0)
    return NewtonPencil._of_owned(q.nodes, *blocks)


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


class UnimodularWitnessPair(NamedTuple):
    """Outcome of the unimodular-witness check of an e1-form pencil.

    E(lam, mu) = [[n1 I, I, 0], [m1 I, 0, I], [I, 0, 0]] has determinant 1
    and F(lam, mu) = [[I, -W(lam, mu) Z^{-1}], [0, Z^{-1}]] the constant
    determinant det(Z)^{-1}, with W the top-row remainder of L E. F L E =
    diag(Q, I_2n) holds identically exactly when L is the e1 pencil of the
    parameters, so ``reduction_residual`` compares blocks, and the predicted
    ratio det L / det Q is 1 / (det E * det F) = det Z (det Z / det(M)^n
    in the report of :func:`verify_linearization`).
    """

    log_predicted_gamma: complex  # log of det L / det Q; det(Z^{-1}) overflows for large n, small Z
    reduction_residual: float


def unimodular_witnesses(q: MatrixPoly2, pencil: NewtonPencil, params: E1FreeParams,
                         *, tol: float = DEFAULT_TOL) -> UnimodularWitnessPair:
    """Check that the pencil is the e1 pencil of ``params`` and predict gamma.

    The residual is ||L - L_e1||_F / ||L_e1||_F over the three blocks, both
    first brought to unit size by one power of two, taken over all three
    blocks, so that no squared entry over- or underflows; it is measured one
    block at a time. No node and no sample point is read. L_e1 is built by
    :func:`construct_e1_newton`, which rejects a numerically singular Z
    (AdmissibilityError) and blocks that overflow (ValueError). The predicted
    gamma is det Z, from the log determinant of 2^e Z at unit size, less 2n e log 2.
    """
    require_matching(q, pencil)
    target, e = scale_to_unit(np.stack(construct_e1_newton(q, params, tol=tol).blocks()))
    diff, size = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # a huge pencil reads inf or nan: fail
        for block, t in zip(pencil.blocks(), target):
            diff.append(np.linalg.norm(np.ldexp(block.view(float), e).view(complex) - t))
            size.append(np.linalg.norm(t))
        residual = float(np.linalg.norm(diff) / np.linalg.norm(size))
    z, z_exp = scale_to_unit(params.z_block)
    sign_z, log_z = np.linalg.slogdet(z)
    return UnimodularWitnessPair(log_predicted_gamma=log_z - 2 * q.n * z_exp * np.log(2)
                                 + 1j * np.angle(sign_z), reduction_residual=residual)


class LinearizationReport(NamedTuple):
    """The certificate of ``verify``, from :func:`verify_linearization`.

    ``membership`` is the :class:`MembershipResult` of L, its ansatz inf where v leaves the
    double range. gamma and each sampled det L and det Q are complex logs, log|d| + i arg d:
    -inf for d = 0, nan where L overflowed; ``samples`` holds (lambda, mu, log det L,
    log det Q, deviation). ``witness`` is the :class:`UnimodularWitnessPair` of L, predicting
    det Z / det(M)^n with the phase in (-pi, pi], or the AdmissibilityError that says why there
    is none. ``gamma_agreement`` is |gamma / gamma_predicted - 1|, nan without a witness;
    ``witness_passed`` means a reduction residual <= tol and an agreement <= GAMMA_AGREEMENT_TOL,
    ``passed`` a member, a nonzero constant ratio and a passed witness.
    """

    membership: MembershipResult
    log_gamma: complex
    max_relative_deviation: float
    witness: UnimodularWitnessPair | AdmissibilityError
    gamma_agreement: float
    witness_passed: bool
    passed: bool
    tol: float
    samples: tuple


def verify_linearization(pencil: NewtonPencil, q: MatrixPoly2, *,
                         samples: int = DEFAULT_SAMPLES, seed: int = 0,
                         tol: float = DEFAULT_TOL) -> LinearizationReport:
    """Decide membership, the determinant ratio and the witness on one unit-size (Q, L).

    Q and L are taken once as 2^a Q and 2^b L at unit size, exact powers of two, and every
    route reads that pair. Membership is that of Q and L as given, bit for bit while no value
    it sums leaves the normal range. M = select_M(v') maps its finite ansatz v' = 2^(b - a) v
    to e1, and the witness checks (M kron I) 2^b L (:func:`unimodular_witnesses`). The ratio
    draws 2 ``samples`` annulus points from ``seed``, lambda the first half and mu the second,
    estimates gamma where |det Q| is largest and wants |det L - gamma det Q| <= tol
    |gamma det Q| at every other sample, in log space. gamma scales as s^{3n} under
    L -> s L, so it has no absolute floor: det L = 0 gives log gamma = -inf, and rounding
    noise fails the constancy test. Inconclusive (DegenerateProblemError) when sigma_min(Q)
    <= n eps sigma_max(Q) at every sample, the relative rank test of numpy.linalg.matrix_rank;
    the values-only SVD of the other samples is taken only when the first is singular. Fewer
    than 6 ``samples`` (a quadratic has 6 coefficients) raise ValueError. The logs of det Q,
    det L, gamma and the prediction subtract n a, 3n b and (3b - a) n times log 2. A sample
    where L or det L overflows has deviation inf; Q holds products of two node differences,
    L single ones, so large nodes mostly overflow Q first, which raises ValueError naming
    the sample and its (lambda, mu).
    """
    q, a = q.at_unit_size()
    blocks, b = scale_to_unit(np.stack(pencil.blocks()))
    pencil = NewtonPencil._of_owned(pencil.nodes, *blocks)
    membership = membership_newton(pencil, q, tol=tol)  # raises unless L was built for Q
    if samples < 6:
        raise ValueError(f"samples must be at least 6 (6 coefficients), got {samples}")
    points = annulus_points(np.random.default_rng(seed), 2 * samples)
    lams, mus = points[:samples], points[samples:]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sample is named below
        q_values = q.eval(lams, mus)
    if not (finite := np.isfinite(q_values).all(axis=(1, 2))).all():
        k = int(np.argmin(finite))
        lam, mu = complex(lams[k]), complex(mus[k])
        raise ValueError(f"the Q values at sample {k + 1}, lambda=({lam.real:.17g}, "
                         f"{lam.imag:.17g}) mu=({mu.real:.17g}, {mu.imag:.17g}), overflow "
                         "the double range")

    def singular(values):  # sigma_min <= n eps sigma_max at every one of the values
        sigma = np.linalg.svd(values, compute_uv=False)
        return bool(np.all(sigma[..., -1] <= q.n * np.finfo(float).eps * sigma[..., 0]))
    if singular(q_values[0]) and singular(q_values[1:]):
        raise DegenerateProblemError(
            "det Q vanishes at every sample point (Q is numerically singular "
            "there); the determinant-ratio check is inconclusive for this polynomial"
        )
    sign_q, log_q = np.linalg.slogdet(q_values)
    sign_l, log_l = np.empty(samples, dtype=complex), np.empty(samples)
    with np.errstate(over="ignore", invalid="ignore"):  # at n = 64 one 3n x 3n value at once
        for sl in chunks(samples, 3 * q.n):
            sign_l[sl], log_l[sl] = np.linalg.slogdet(pencil.eval(lams[sl], mus[sl]))
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
    worst = float(dev.max())
    shift = (3 * b - a) * q.n * np.log(2)
    log_gamma = complex(log_abs_gamma - shift + 1j * np.angle(phase))
    log_q, log_l = log_q - q.n * a * np.log(2), log_l - 3 * q.n * b * np.log(2)
    samples = zip(lams.tolist(), mus.tolist(), (log_l + 1j * np.angle(sign_l)).tolist(),
                  (log_q + 1j * np.angle(sign_q)).tolist(), dev.tolist())

    del q_values, blocks  # pencil is rebound below, so the witness does not also hold 2^b L
    try:  # det L = det((M kron I) L) / det(M)^n: gamma is predicted as det Z / det(M)^n
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # left_multiply rejects inf, nan
                pencil = pencil.left_multiply(m := select_M(membership.ansatz, tol=tol))
        except ValueError as exc:  # select_M of a zero v, or non-finite blocks
            raise AdmissibilityError(f"no e1 pencil (M kron I) L: {exc}") from None
        witness = unimodular_witnesses(q, pencil, E1FreeParams.of_e1_pencil(pencil), tol=tol)
    except AdmissibilityError as exc:  # no M or a numerically singular Z: no witness exists
        witness, agreement, witness_ok = exc, math.nan, False
    else:
        sign_m, log_m = np.linalg.slogdet(m)
        log_w = witness.log_predicted_gamma - q.n * (log_m + 1j * np.angle(sign_m))
        witness = witness._replace(log_predicted_gamma=complex(  # the phase exactly in (-pi, pi]
            log_w.real - shift, math.remainder(log_w.imag, 2 * math.pi)))
        with np.errstate(over="ignore"):  # a gamma far from the prediction: inf, a fail
            agreement = float(abs(np.exp(log_gamma - witness.log_predicted_gamma) - 1))
        witness_ok = witness.reduction_residual <= tol and agreement <= GAMMA_AGREEMENT_TOL
    with np.errstate(over="ignore"):  # v' scaled back: inf where v leaves the double range
        ansatz = freeze(np.ldexp(membership.ansatz.view(float), a - b).view(complex))
    return LinearizationReport(
        membership=membership._replace(ansatz=ansatz), log_gamma=log_gamma,
        max_relative_deviation=worst, witness=witness, gamma_agreement=agreement,
        witness_passed=witness_ok, tol=tol, samples=tuple(samples),
        passed=bool(membership.member and worst < tol and phase != 0 and witness_ok))


def construct_general_ansatz(q: MatrixPoly2, v, params: E1FreeParams | None = None,
                             *, tol: float = DEFAULT_TOL) -> NewtonPencil:
    """The linearization (M^{-1} kron I) L_e1 of q, whose ansatz vector is v (nonzero).

    M = select_M(v) maps v to e1. With ``params``, L_e1 is the e1 pencil of the transformed
    parameters (m11 Y11, (M kron I) Z1, (M kron I) Z2), with Y11 forced to 0 unless
    m21 = m31 = 0. Without, it is the e1 pencil of Y11 = 0, Z1 = 2^-(e+1) (0; I; 0),
    Z2 = 2^-(e+1) (0; 0; I) for every M, 2^e Q at unit size (:meth:`MatrixPoly2.at_unit_size`):
    Z is at Q's scale, never above Q's largest part, so the construction is closed form and
    always admissible. Where that part is 2^1023 or more, M^{-1} kron I can overflow L, a
    ValueError.
    """
    n = q.n
    m = select_M(v, tol=tol)
    zero = np.zeros((n, n))
    if params is None:  # [Z1 Z2] = 2^-(e+1) [0; I_2n]
        z = np.ldexp(np.eye(3 * n, 2 * n, -n), -1 - q.at_unit_size()[1])
        hat = E1FreeParams.build(zero, *np.hsplit(z, 2))
    else:
        require_matching(q, params=params)
        y_free = abs(m[1, 0]) == 0 and abs(m[2, 0]) == 0
        hat = E1FreeParams.build(m[0, 0] * (params.y11 if y_free else zero),
                                 block_rows(m, params.z1), block_rows(m, params.z2))
    return construct_e1_newton(q, hat, tol=tol).left_multiply(np.linalg.inv(m))
