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
from typing import NamedTuple

import numpy as np

from .errors import DegenerateProblemError, NodeMismatchError
from .linalg import as_matrix, block_rows, freeze, scale_to_unit
from .matpoly import COEFF_KEYS, MatrixPoly2, NewtonNodes

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 12
STACK_BYTES = 1 << 20  # bytes of matrices in one stacked evaluation or solve

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_SAMPLES",
    "NewtonPencil",
    "MembershipResult",
    "membership_newton",
    "select_M",
]


def chunk_step(m: int) -> int:
    """How many m x m complex matrices fit in STACK_BYTES (at least one)."""
    return max(1, STACK_BYTES // (16 * m ** 2))


def chunks(count: int, m: int):
    """Consecutive slices of range(count), chunk_step(m) indices each (the last may be short)."""
    step = chunk_step(m)
    return (slice(start, start + step) for start in range(0, count, step))


class NewtonPencil(NamedTuple):
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
        """The pencil of copies of three finite 3n x 3n blocks."""
        return cls._of_owned(nodes, *(np.array(a, dtype=complex) for a in (a1, a2, a3)))

    @classmethod
    def _of_owned(cls, nodes, a1, a2, a3) -> "NewtonPencil":
        """from_blocks without the copies, for complex blocks that the caller has
        just built: they are checked and frozen in place."""
        if a1.ndim != 2 or a1.shape[0] % 3 != 0:
            raise ValueError(f"pencil blocks must be 3n x 3n, got {a1.shape}")
        n = a1.shape[0] // 3
        return cls(n, nodes if isinstance(nodes, NewtonNodes) else NewtonNodes(*nodes),
                   *(freeze(as_matrix(a, 3 * n, 3 * n, name=f"A{k}", copy=False))
                     for k, a in enumerate((a1, a2, a3), 1)))

    def eval(self, lam, mu) -> np.ndarray:
        """Value at (lam, mu): 3n x 3n, or a (K, 3n, 3n) stack as in MatrixPoly2.eval.

        Gamma2 / Gamma2t are block-diagonal with scalar blocks, so the
        right-multiplication is column-block scaling: each column of A1 and
        A2 is multiplied by its block's scalar, whole rows at a time, and
        (gl A1 + gm A2) + A3 is accumulated in place in that order. With all
        nodes zero this reproduces lam A1 + mu A2 + A3 bit for bit.
        """
        n = self.n
        a1, a2, b1, b2 = self.nodes
        lam = np.asarray(lam)[..., None, None]
        mu = np.asarray(mu)[..., None, None]
        gl = np.repeat(np.concatenate([lam - a2, lam - a1, lam - a1], axis=-1), n, axis=-1)
        gm = np.repeat(np.concatenate([mu - b1, mu - b2, mu - b1], axis=-1), n, axis=-1)
        out = gl * self.A1
        out += gm * self.A2
        out += self.A3
        return out

    def blocks(self):
        return (self.A1, self.A2, self.A3)

    def left_multiply(self, m) -> "NewtonPencil":
        """(m kron I_n) L for a 3 x 3 matrix m, by :func:`block_rows`; it maps ansatz vector v
        to m v."""
        return NewtonPencil._of_owned(self.nodes, *(block_rows(m, a) for a in self.blocks()))


# The benchmark tracer (perfbench/tracing.py) looks this name up; it has no
# other user.
MonomialPencil = NewtonPencil


class MembershipResult(NamedTuple):
    """Outcome of an ansatz-space membership test.

    ``ansatz`` always holds the best least-squares fit, a read-only (3,)
    complex array; ``member`` records whether the residual stayed below the
    tolerance.
    """

    member: bool
    ansatz: np.ndarray
    residual: float
    tol: float


def require_matching(q: MatrixPoly2, pencil: NewtonPencil | None = None, *,
                     params=None) -> None:
    """Raise unless ``pencil`` and ``params`` (free parameters with an ``n``)
    were built for q: the same block size n, and for the pencil the same nodes."""
    for what, part in (("pencil", pencil), ("params", params)):
        if part is not None and part.n != q.n:
            raise ValueError(f"size mismatch: {what} n={part.n}, polynomial n={q.n}")
    if pencil is not None and pencil.nodes != q.nodes:
        raise NodeMismatchError("pencil and polynomial carry different nodes")


def _least_squares(s: np.ndarray, c: np.ndarray):
    """(v, ||s - v c^T||_F, ||v|| ||c||) for the least-squares v of s ~ v c^T
    (s is 3 x N, c has N entries)."""
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
    c = np.hstack([q.coeff(*key) for key in COEFF_KEYS]).reshape(-1)
    if not c.any():
        raise DegenerateProblemError("the polynomial is zero; membership is ill posed")
    # C and S at unit size (exact powers of two); v is scaled back by 2^(c_exp - s_exp).
    c, c_exp = scale_to_unit(c)
    s, s_exp = scale_to_unit(s.reshape(3, -1))
    v, resid, fit = _least_squares(s, c)
    s_norm = math.hypot(resid, fit)
    rel = resid / s_norm if s_norm > 0 else 0.0

    ansatz = freeze(np.ldexp(v.view(float), c_exp - s_exp).view(complex))
    return MembershipResult(member=bool(rel <= tol), ansatz=ansatz, residual=rel, tol=tol)


def select_M(v, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A nonsingular 3 x 3 matrix M with M v = e1, chosen by v's zero pattern.

    Component i counts as nonzero when |v_i| > tol max|v|, so every nonzero
    multiple of v has the same pattern. A v with no such component (the zero
    vector, or one holding inf or nan) raises ValueError. One fixed template
    per pattern of (a, b, c); every template maps v to e1 exactly and has
    nonzero determinant.
    """
    v = np.asarray(v, dtype=complex).reshape(3)
    size = np.hypot(v.real, v.imag)  # as Python's abs rounds |v_i|; numpy's complex abs may not
    za, zb, zc = pattern = (size > tol * size.max()).tolist()
    if not any(pattern):
        raise ValueError("zero ansatz vector: no pencil with v = 0 is a linearization")
    a, b, c = v.tolist()

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
