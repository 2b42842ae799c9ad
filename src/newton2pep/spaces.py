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
least squares over the points of one :class:`SampleSet` (drawn once per run
and shared with the determinant-ratio and witness checks), and the identity
is accepted when the relative residual stays below tolerance. ``eval`` maps
1-D arrays of K points to (K, ., .) stacks, bitwise the pointwise values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError, NodeMismatchError
from .linalg import annulus_points, as_matrix, freeze
from .matpoly import NEWTON, MatrixPoly2, NewtonNodes, newton_triple

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 12
STACK_BYTES = 1 << 20  # pencil values evaluated at once, see NewtonPencil.eval_chunks

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_SAMPLES",
    "NewtonPencil",
    "AnsatzVector",
    "MembershipResult",
    "SampleSet",
    "membership_newton",
    "s_map",
    "to_newton_space",
    "to_monomial_space",
    "transfer_to_newton",
    "select_M",
]


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

    def eval(self, lam, mu) -> np.ndarray:
        """Value at (lam, mu): 3n x 3n, or a (K, 3n, 3n) stack as in MatrixPoly2.eval.

        Gamma2 / Gamma2t are block-diagonal with scalar blocks, so the
        right-multiplication is column-block scaling. With all nodes zero
        this reproduces lam A1 + mu A2 + A3 bit for bit.
        """
        n = self.n
        a1, a2, b1, b2 = self.nodes.as_tuple()
        lam = np.asarray(lam)[..., None, None]
        mu = np.asarray(mu)[..., None, None]
        out = np.empty(lam.shape[:-2] + (3 * n, 3 * n), dtype=complex)
        for j, (gl, gm) in enumerate(((lam - a2, mu - b1), (lam - a1, mu - b2),
                                      (lam - a1, mu - b1))):
            cols = slice(j * n, (j + 1) * n)
            out[..., cols] = gl * self.A1[:, cols] + gm * self.A2[:, cols] + self.A3[:, cols]
        return out

    def eval_chunks(self, lams, mus):
        """(slice, value stack) over the points, STACK_BYTES at a time (at
        least one point: at n = 64 one 3n x 3n value is held at once)."""
        step = max(1, STACK_BYTES // (16 * (3 * self.n) ** 2))
        for start in range(0, len(lams), step):
            sl = slice(start, start + step)
            yield sl, self.eval(lams[sl], mus[sl])

    def blocks(self):
        return (self.A1, self.A2, self.A3)

    def left_multiply(self, m) -> "NewtonPencil":
        """(m kron I_n) L for a 3 x 3 matrix m; it maps ansatz vector v to m v."""
        t = np.kron(m, np.eye(self.n))
        return NewtonPencil.from_blocks(self.nodes, t @ self.A1, t @ self.A2, t @ self.A3,
                                        basis=self.basis)


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


class SampleSet:
    """The K random sample points of one run, drawn once from ``seed``, and
    the (K, n, n) stack ``q_values`` of Q there."""

    def __init__(self, q: MatrixPoly2, samples: int = DEFAULT_SAMPLES, seed: int = 0):
        pts = annulus_points(np.random.default_rng(seed), 2 * samples)
        self.q, self.count = q, samples
        self.lams, self.mus = pts[:samples], pts[samples:]
        self.q_values = q.eval(self.lams, self.mus)


def sample_set_for(q: MatrixPoly2, points: SampleSet | None) -> SampleSet:
    """``points`` if drawn for q, else the default set (12 samples, seed 0)."""
    if points is not None and points.q is not q:
        raise ValueError("the sample set was drawn for a different polynomial")
    return points or SampleSet(q)


def require_matching(q: MatrixPoly2, pencil: NewtonPencil | None = None, *,
                     params=None) -> None:
    """Raise unless ``pencil`` and ``params`` (free parameters with an ``n``)
    were built for q: the same block size n, and for the pencil the same nodes."""
    for what, part in (("pencil", pencil), ("params", params)):
        if part is not None and part.n != q.n:
            raise ValueError(f"size mismatch: {what} n={part.n}, polynomial n={q.n}")
    if pencil is not None and pencil.nodes.as_tuple() != q.nodes.as_tuple():
        raise NodeMismatchError("pencil and polynomial carry different nodes")


def membership_newton(pencil: NewtonPencil, q: MatrixPoly2, *,
                      points: SampleSet | None = None,
                      tol: float = DEFAULT_TOL) -> MembershipResult:
    """Test L(lam, mu) (N kron I) = v kron Q(lam, mu) and recover v.

    Ill posed if ||Q|| <= 1e-14 max ||C_ij|| at every sample. The residual
    is relative to the larger of max ||L (N kron I)|| and ||v|| max ||Q||,
    both linear in the pencil, so it does not change when the pencil is
    scaled. The zero pencil is a member with v = 0 and residual 0.
    """
    require_matching(q, pencil)
    points = sample_set_for(q, points)
    n = q.n
    qvals = points.q_values
    # R_s = L(lam_s, mu_s) (N_s kron I): the column blocks of L weighted by N_s.
    rvals = np.empty((points.count, 3 * n, n), dtype=complex)
    for sl, lvals in pencil.eval_chunks(points.lams, points.mus):
        triple = newton_triple(pencil.nodes, points.lams[sl], points.mus[sl])[..., None, None]
        rvals[sl] = sum(triple[j] * lvals[..., j * n:(j + 1) * n] for j in range(3))

    qnorms = np.linalg.norm(qvals, axis=(1, 2))
    if (qscale := float(qnorms.max())) <= 1e-14 * q.coefficient_scale():
        raise DegenerateProblemError(
            "polynomial evaluates to (numerically) zero at every sample point; "
            "membership is ill posed"
        )

    # Least-squares ansatz: v_i = sum_s <Q_s, R_s[i]> / sum_s ||Q_s||^2.
    rblocks = rvals.reshape(points.count, 3, n, n)
    v = np.einsum("sab,siab->i", qvals.conj(), rblocks) / float((qnorms ** 2).sum())
    resid = np.linalg.norm((rblocks - v[:, None, None] * qvals[:, None])
                           .reshape(points.count, -1), axis=1).max()
    rscale = np.linalg.norm(rvals, axis=(1, 2)).max()
    denom = max(float(rscale), float(np.linalg.norm(v)) * qscale)
    rel = float(resid) / denom if denom > 0 else 0.0

    ansatz = AnsatzVector.classify(v, tol=tol)
    return MembershipResult(member=bool(rel <= tol), ansatz=ansatz,
                            residual=rel, sample_count=points.count, tol=tol)


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
