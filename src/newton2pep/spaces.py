"""Pencil spaces attached to a quadratic polynomial in Newton form.

A pencil is evaluated as A1 Gamma2(lam) + A2 Gamma2t(mu) + A3 with 3n x 3n
blocks and the block-diagonal node factors

    Gamma2(lam) = diag((lam - a2) I, (lam - a1) I, (lam - a1) I)
    Gamma2t(mu) = diag((mu - b1) I,  (mu - b2) I,  (mu - b1) I)

which satisfy Gamma2 (N kron I) = (n2, n1 m1, n1) kron I and
Gamma2t (N kron I) = (n1 m1, m2, m1) kron I for N = (n1, m1, 1). The pencil
belongs to the space of Q when L(lam, mu) (N kron I_n) = v kron Q(lam, mu)
identically for some ansatz vector v in C^3. With all nodes zero,
Gamma2 = lam I, Gamma2t = mu I and N = (lam, mu, 1), so the pencil is
lam A1 + mu A2 + A3 and the space is the monomial one, bit for bit.

Membership is decided numerically: the ansatz vector is recovered by block
least squares over a set of random sample points and the defining identity is
accepted when the relative residual stays below tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError, NodeMismatchError
from .linalg import annulus_points, as_matrix, freeze
from .matpoly import NEWTON, MatrixPoly2, NewtonNodes, newton_triple

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 12

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_SAMPLES",
    "gamma_blocks",
    "NewtonPencil",
    "AnsatzVector",
    "MembershipResult",
    "membership_newton",
    "s_map",
    "to_newton_space",
    "to_monomial_space",
    "transfer_to_newton",
    "select_M",
]


def gamma_blocks(nodes: NewtonNodes, n: int, lam: complex, mu: complex):
    """The 3n x 3n node-factor blocks (Gamma2(lam), Gamma2t(mu))."""
    if n < 1:
        raise ValueError(f"block size must be positive, got {n}")
    a1, a2, b1, b2 = nodes.as_tuple()
    eye = np.eye(n)
    g = np.kron(np.diag([lam - a2, lam - a1, lam - a1]).astype(complex), eye)
    gt = np.kron(np.diag([mu - b1, mu - b2, mu - b1]).astype(complex), eye)
    return g, gt


@dataclass(frozen=True)
class NewtonPencil:
    """Newton-form pencil A1 Gamma2(lam) + A2 Gamma2t(mu) + A3.

    With all nodes zero this is the monomial pencil lam A1 + mu A2 + A3.
    ``basis`` is the file-format label: a "monomial" pencil file stores the
    blocks as L1/L2/L0 and carries no nodes.
    """

    n: int
    nodes: NewtonNodes
    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    basis: str = NEWTON

    @classmethod
    def from_blocks(cls, nodes, a1, a2, a3, basis: str = NEWTON) -> "NewtonPencil":
        if not isinstance(nodes, NewtonNodes):
            nodes = NewtonNodes(*nodes)
        a1 = np.asarray(a1, dtype=complex)
        if a1.ndim != 2 or a1.shape[0] % 3 != 0:
            raise ValueError(f"pencil blocks must be 3n x 3n, got {a1.shape}")
        n = a1.shape[0] // 3
        a1 = freeze(as_matrix(a1, 3 * n, 3 * n, name="A1"))
        a2 = freeze(as_matrix(a2, 3 * n, 3 * n, name="A2"))
        a3 = freeze(as_matrix(a3, 3 * n, 3 * n, name="A3"))
        return cls(n=n, nodes=nodes, A1=a1, A2=a2, A3=a3, basis=basis)

    def eval(self, lam: complex, mu: complex) -> np.ndarray:
        # Gamma2 / Gamma2t are block-diagonal with scalar blocks, so the
        # right-multiplication is column-block scaling. With all nodes zero
        # this reproduces lam A1 + mu A2 + A3 bit for bit.
        n = self.n
        nodes = self.nodes
        gl = (lam - nodes.alpha2, lam - nodes.alpha1, lam - nodes.alpha1)
        gm = (mu - nodes.beta1, mu - nodes.beta2, mu - nodes.beta1)
        t1 = np.hstack([gl[j] * self.A1[:, j * n:(j + 1) * n] for j in range(3)])
        t2 = np.hstack([gm[j] * self.A2[:, j * n:(j + 1) * n] for j in range(3)])
        return t1 + t2 + self.A3

    def blocks(self):
        return (self.A1, self.A2, self.A3)


# The benchmark tracer (perfbench/tracing.py) looks this name up; it has no
# other user.
MonomialPencil = NewtonPencil


@dataclass(frozen=True)
class AnsatzVector:
    """An ansatz vector in C^3 with its zero/nonzero pattern.

    ``pattern[i]`` is True when component i is nonzero under the shared
    classification tolerance (relative to the largest component). Only the
    exact zero vector has an all-False pattern: every nonzero multiple of an
    ansatz vector is one too.
    """

    vector: np.ndarray
    pattern: tuple[bool, bool, bool]

    @classmethod
    def classify(cls, v, tol: float = DEFAULT_TOL) -> "AnsatzVector":
        v = np.asarray(v, dtype=complex).reshape(3)
        scale = float(np.abs(v).max())
        if scale == 0:
            pattern = (False, False, False)
        else:
            pattern = tuple(bool(abs(x) > tol * scale) for x in v)
        return cls(vector=freeze(v.copy()), pattern=pattern)

    @property
    def is_zero(self) -> bool:
        return not any(self.pattern)


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of an ansatz-space membership test.

    ``ansatz`` always holds the best least-squares fit; ``member`` records
    whether the residual stayed below the tolerance.
    """

    member: bool
    ansatz: AnsatzVector
    residual: float
    sample_count: int
    tol: float


def membership_newton(pencil: NewtonPencil, q: MatrixPoly2, *,
                      samples: int = DEFAULT_SAMPLES, tol: float = DEFAULT_TOL,
                      seed: int = 0) -> MembershipResult:
    """Test L(lam, mu) (N kron I) = v kron Q(lam, mu) and recover v."""
    if pencil.n != q.n:
        raise ValueError(f"size mismatch: pencil n={pencil.n}, polynomial n={q.n}")
    if pencil.nodes.as_tuple() != q.nodes.as_tuple():
        raise NodeMismatchError(
            f"pencil nodes {pencil.nodes.as_tuple()} differ from "
            f"polynomial nodes {q.nodes.as_tuple()}"
        )
    n = q.n
    rng = np.random.default_rng(seed)
    pts = annulus_points(rng, 2 * samples)
    lams, mus = pts[:samples], pts[samples:]

    eye = np.eye(n)
    rvals = []
    qvals = []
    for lam, mu in zip(lams, mus):
        triple = newton_triple(pencil.nodes, lam, mu).reshape(3, 1)
        rvals.append(pencil.eval(lam, mu) @ np.kron(triple, eye))
        qvals.append(q.eval(lam, mu))

    qscale = max(float(np.linalg.norm(qv)) for qv in qvals)
    if qscale <= 1e-14 * max(1.0, q.coefficient_scale()):
        raise DegenerateProblemError(
            "polynomial evaluates to (numerically) zero at every sample point; "
            "membership is ill posed"
        )

    # Least-squares ansatz: v_i = sum_s <Q_s, R_s[i]> / sum_s ||Q_s||^2.
    denom = sum(float(np.linalg.norm(qv)) ** 2 for qv in qvals)
    v = np.zeros(3, dtype=complex)
    for i in range(3):
        num = sum(np.vdot(qv, rv[i * n:(i + 1) * n]) for qv, rv in zip(qvals, rvals))
        v[i] = num / denom

    resid = 0.0
    rscale = 0.0
    for qv, rv in zip(qvals, rvals):
        model = np.kron(v.reshape(3, 1), qv)
        resid = max(resid, float(np.linalg.norm(rv - model)))
        rscale = max(rscale, float(np.linalg.norm(rv)))
    scale = max(rscale, (1.0 + float(np.linalg.norm(v))) * qscale)
    rel = resid / scale

    ansatz = AnsatzVector.classify(v, tol=tol)
    return MembershipResult(member=bool(rel <= tol), ansatz=ansatz,
                            residual=rel, sample_count=samples, tol=tol)


def s_map(nodes: NewtonNodes):
    """Change of basis S with S Lambda = N, together with its exact inverse.

    S is unit upper triangular, so det S = 1 for any nodes.
    """
    a1, b1 = nodes.alpha1, nodes.beta1
    s = np.array([[1, 0, -a1], [0, 1, -b1], [0, 0, 1]], dtype=complex)
    sinv = np.array([[1, 0, a1], [0, 1, b1], [0, 0, 1]], dtype=complex)
    return s, sinv


def _right_multiply(pencil: NewtonPencil, s: np.ndarray) -> NewtonPencil:
    t = np.kron(s, np.eye(pencil.n))
    return NewtonPencil.from_blocks(pencil.nodes, pencil.A1 @ t, pencil.A2 @ t,
                                    pencil.A3 @ t, basis=pencil.basis)


def to_newton_space(pencil: NewtonPencil, nodes: NewtonNodes) -> NewtonPencil:
    """Right-multiply the blocks by S^{-1} kron I: the image satisfies the N-identity.

    If a zero-node pencil satisfies the Lambda-identity with ansatz v, the
    returned pencil (on the same zero nodes, so still evaluated as
    lam A1 + mu A2 + A3) satisfies image(lam, mu) (N kron I) = v kron Q(lam, mu)
    with the same v, N taken on ``nodes``. With all nodes zero this is the
    identity map.
    """
    return _right_multiply(pencil, s_map(nodes)[1])


def to_monomial_space(pencil: NewtonPencil, nodes: NewtonNodes) -> NewtonPencil:
    """Inverse of :func:`to_newton_space` (right-multiply by S kron I)."""
    return _right_multiply(pencil, s_map(nodes)[0])


def transfer_to_newton(pencil: NewtonPencil, q_newton: MatrixPoly2) -> NewtonPencil:
    """The blocks of a zero-node pencil, put on the nodes of ``q_newton``.

    If lam A1 + mu A2 + A3 satisfies the Lambda-identity for the zero-node
    polynomial with the coefficient blocks of ``q_newton``, the returned
    pencil A1 Gamma2 + A2 Gamma2t + A3 satisfies the N-identity for
    ``q_newton`` with the same ansatz vector. The precondition is not
    checked here; run :func:`membership_newton` on the result to certify it.
    """
    if pencil.n != q_newton.n:
        raise ValueError(f"size mismatch: pencil n={pencil.n}, polynomial n={q_newton.n}")
    return NewtonPencil.from_blocks(q_newton.nodes, *pencil.blocks(), basis=q_newton.basis)


def select_M(v, *, tol: float = DEFAULT_TOL, alternate_ac: bool = False) -> np.ndarray:
    """A nonsingular 3 x 3 matrix M with M v = e1, chosen by v's zero pattern.

    One fixed template per zero pattern of (a, b, c); every template maps v
    to e1 exactly and has nonzero determinant. The pattern with a != 0,
    b = 0, c != 0 has two known templates; the default is the first and
    ``alternate_ac=True`` selects the other.
    """
    if not isinstance(v, AnsatzVector):
        v = AnsatzVector.classify(v, tol=tol)
    if v.is_zero:
        raise ValueError("zero ansatz vector: no pencil with v = 0 is a linearization")
    a, b, c = (complex(x) for x in v.vector)
    za, zb, zc = v.pattern

    if (za, zb, zc) == (True, True, True):
        m = [[1 / a, 0, 0], [1 / a, -1 / b, 0], [1 / a, 0, -1 / c]]
    elif (za, zb, zc) == (False, True, True):
        m = [[0, 1 / b, 0], [0, -1 / b, 1 / c], [1, 0, 0]]
    elif (za, zb, zc) == (False, False, True):
        m = [[1, 1, 1 / c], [1, 1, 0], [0, 1, 0]]
    elif (za, zb, zc) == (True, False, True):
        if alternate_ac:
            m = [[1 / a, 0, 0], [1 / a, 0, -1 / c], [0, 1, 0]]
        else:
            m = [[1 / a, 0, 0], [0, 1, 0], [-1 / a, 0, 1 / c]]
    elif (za, zb, zc) == (True, False, False):
        m = [[1 / a, 0, 0], [0, 1, 0], [0, 1, 1]]
    elif (za, zb, zc) == (True, True, False):
        m = [[1 / a, 0, 1], [1 / a, -1 / b, 1], [-1 / a, 1 / b, 0]]
    else:  # (False, True, False)
        m = [[1, 1 / b, 0], [1, 0, 0], [1, 0, 1]]
    return np.array(m, dtype=complex)
