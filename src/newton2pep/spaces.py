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

Membership is decided from the blocks alone: L (N kron I) expands exactly
in the six Newton basis functions, so the identity is six block equalities
(:func:`membership_newton`). ``eval`` maps 1-D arrays of K points to
(K, ., .) stacks, bitwise the pointwise values. A pencil carries no
basis label: :mod:`newton2pep.fileio` picks a file layout from its nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError, NodeMismatchError
from .linalg import as_matrix, freeze, kron
from .matpoly import COEFF_KEYS, MatrixPoly2, NewtonNodes

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 12
STACK_BYTES = 1 << 20  # bytes of matrices in one stacked evaluation or solve

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_SAMPLES",
    "NewtonPencil",
    "AnsatzVector",
    "MembershipResult",
    "membership_newton",
    "select_M",
]


def chunk_step(m: int) -> int:
    """How many m x m complex matrices fit in STACK_BYTES (at least one)."""
    return max(1, STACK_BYTES // (16 * m ** 2))


@dataclass(frozen=True)
class NewtonPencil:
    """Newton-form pencil A1 Gamma2(lam) + A2 Gamma2t(mu) + A3.

    With all nodes zero this is the monomial pencil lam A1 + mu A2 + A3.
    """

    n: int
    nodes: NewtonNodes
    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray

    @classmethod
    def from_blocks(cls, nodes, a1, a2, a3) -> "NewtonPencil":
        if not isinstance(nodes, NewtonNodes):
            nodes = NewtonNodes(*nodes)
        a1 = np.asarray(a1, dtype=complex)
        if a1.ndim != 2 or a1.shape[0] % 3 != 0:
            raise ValueError(f"pencil blocks must be 3n x 3n, got {a1.shape}")
        n = a1.shape[0] // 3
        a1 = freeze(as_matrix(a1, 3 * n, 3 * n, name="A1"))
        a2 = freeze(as_matrix(a2, 3 * n, 3 * n, name="A2"))
        a3 = freeze(as_matrix(a3, 3 * n, 3 * n, name="A3"))
        return cls(n=n, nodes=nodes, A1=a1, A2=a2, A3=a3)

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
        step = chunk_step(3 * self.n)
        for start in range(0, len(lams), step):
            sl = slice(start, start + step)
            yield sl, self.eval(lams[sl], mus[sl])

    def blocks(self):
        return (self.A1, self.A2, self.A3)

    def left_multiply(self, m) -> "NewtonPencil":
        """(m kron I_n) L for a 3 x 3 matrix m; it maps ansatz vector v to m v."""
        t = kron(m, np.eye(self.n))
        return NewtonPencil.from_blocks(self.nodes, t @ self.A1, t @ self.A2, t @ self.A3)


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
    tol: float


def require_matching(q: MatrixPoly2, pencil: NewtonPencil | None = None, *,
                     params=None) -> None:
    """Raise unless ``pencil`` and ``params`` (free parameters with an ``n``)
    were built for q: the same block size n, and for the pencil the same nodes."""
    for what, part in (("pencil", pencil), ("params", params)):
        if part is not None and part.n != q.n:
            raise ValueError(f"size mismatch: {what} n={part.n}, polynomial n={q.n}")
    if pencil is not None and pencil.nodes.as_tuple() != q.nodes.as_tuple():
        raise NodeMismatchError("pencil and polynomial carry different nodes")


def _least_squares(s: np.ndarray, c: np.ndarray):
    """(v, ||s - v c^T||_F, ||v|| ||c||) for the least-squares v of s ~ v c^T
    (s is 3 x N, c has N entries)."""
    with np.errstate(over="ignore"):  # an S too large is scaled and fitted again
        v = (s @ c.conj()) / np.vdot(c, c).real
        r = np.outer(v, c)
        r -= s
        return v, float(np.linalg.norm(r)), float(np.linalg.norm(v) * np.linalg.norm(c))


def membership_newton(pencil: NewtonPencil, q: MatrixPoly2, *,
                      tol: float = DEFAULT_TOL) -> MembershipResult:
    """Decide L(lam, mu) (N kron I) = v kron Q(lam, mu) exactly and recover v.

    With Ak[j] the j-th n-wide column block of Ak, the Gamma factors give
    (lam - a2) n1 = n2 and so on, so L (N kron I) is the sum of the Newton
    basis (n2, n1 m1, m2, n1, m1, 1) weighted by the six 3n x n blocks

        S = (A1[0], A2[0] + A1[1], A2[1], A3[0] + A1[2], A3[1] + A2[2], A3[2]),

    and the identity holds exactly when S = v kron C, C the six coefficient
    blocks in COEFF_KEYS order (the Newton form of the column-shifted sum).
    No node enters. v is the least-squares fit, and the residual
    ||S - v kron C||_F is relative to max(||S||_F, ||v|| ||C||_F) = ||S||_F
    (the residual is orthogonal to v kron C), so it does not change when the
    pencil is scaled. Ill posed only for the zero polynomial. The zero pencil
    is a member with v = 0 and residual 0.
    """
    require_matching(q, pencil)
    a1, a2, a3 = (np.hsplit(a, 3) for a in pencil.blocks())
    # The S_k side by side, so that row block i of the 3 x 6n^2 stack holds
    # row block i of every S_k, laid out as the n x 6n stack of the C_k.
    s = np.hstack([a1[0], a2[0] + a1[1], a2[1], a3[0] + a1[2], a3[1] + a2[2], a3[2]])
    s = s.reshape(3, -1)
    c = np.hstack([q.coeff(*key) for key in COEFF_KEYS]).reshape(-1)
    if (c_max := float(np.abs(c).max())) == 0:
        raise DegenerateProblemError("the polynomial is zero; membership is ill posed")
    # Powers of two bring C, and S when its norm is far from 1, to unit size
    # exactly, so that no squared entry under- or overflows.
    c_scale, s_scale = 2.0 ** -np.frexp(c_max)[1], 1.0
    v, resid, fit = _least_squares(s, c * c_scale)
    if not 1e-100 <= math.hypot(resid, fit) <= 1e100 and (s_max := float(np.abs(s).max())):
        s_scale = 2.0 ** -np.frexp(s_max)[1]
        v, resid, fit = _least_squares(s * s_scale, c * c_scale)
    s_norm = math.hypot(resid, fit)
    rel = resid / s_norm if s_norm > 0 else 0.0

    ansatz = AnsatzVector.classify(v * (c_scale / s_scale), tol=tol)
    return MembershipResult(member=bool(rel <= tol), ansatz=ansatz, residual=rel, tol=tol)


def select_M(v, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A nonsingular 3 x 3 matrix M with M v = e1, chosen by v's zero pattern.

    One fixed template per zero pattern of (a, b, c); every template maps v
    to e1 exactly and has nonzero determinant.
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
        m = [[1 / a, 0, 0], [0, 1, 0], [-1 / a, 0, 1 / c]]
    elif (za, zb, zc) == (True, False, False):
        m = [[1 / a, 0, 0], [0, 1, 0], [0, 1, 1]]
    elif (za, zb, zc) == (True, True, False):
        m = [[1 / a, 0, 1], [1 / a, -1 / b, 1], [-1 / a, 1 / b, 0]]
    else:  # (False, True, False)
        m = [[1, 1 / b, 0], [1, 0, 0], [1, 0, 1]]
    return np.array(m, dtype=complex)
