"""Quadratic bivariate matrix polynomials in a Newton basis.

A polynomial is a sum of six n x n coefficient blocks weighted by the scalar
Newton basis functions of total degree at most two on the nodes
(alpha1, alpha2, beta1, beta2). In homogeneous coordinates (l, m, z) each is
a product of two of the linear forms l - alpha1 z, l - alpha2 z, m - beta1 z,
m - beta2 z and z (:func:`newton_line`); at z = 1 they are

    n_0 = 1, n_1 = lambda - alpha1, n_2 = n_1 * (lambda - alpha2)
    m_0 = 1, m_1 = mu - beta1,      m_2 = m_1 * (mu - beta2)

Nodes may coincide; the Newton basis degenerates gracefully. With all nodes
zero it is the monomial basis 1, lambda, mu, lambda^2, lambda*mu, mu^2
(equal as numbers: a zero part may change its sign), so monomial input is
the zero-node case and needs no second type or label. Which file layout a
polynomial is written in is decided by :mod:`newton2pep.fileio` from the
nodes alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import as_matrix, freeze, scale_to_unit

# Coefficient keys (i, j) for the lambda-degree-i, mu-degree-j basis function.
# The order matches the six rows returned by newton_line.
COEFF_KEYS = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))

__all__ = [
    "COEFF_KEYS",
    "NewtonNodes",
    "newton_line",
    "MatrixPoly2",
]


class _Nodes(NamedTuple):
    alpha1: complex = 0j
    alpha2: complex = 0j
    beta1: complex = 0j
    beta2: complex = 0j


class NewtonNodes(_Nodes):
    """Interpolation nodes defining the Newton basis. Nodes may coincide."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __new__(cls, *args, **kwargs):
        nodes = tuple(map(complex, _Nodes(*args, **kwargs)))
        for name, value in zip(cls._fields, nodes):
            if not (np.isfinite(value.real) and np.isfinite(value.imag)):
                raise ValueError(f"node {name} must be finite, got {value!r}")
        return super().__new__(cls, *nodes)

    @property
    def is_zero(self) -> bool:
        return all(z == 0 for z in self)


def _mul(a, b):
    """a * b with each real operation rounded on its own, as complex scalars
    round it (numpy's vector loops may fuse a multiply and an add): Newton
    weights of a stack are bitwise those of scalar arithmetic at each point."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out[()]


def newton_line(nodes: NewtonNodes, p, r) -> np.ndarray:
    """The Newton basis on the projective line (l, m, z) = p + t r as its (t^2, t, 1)
    coefficients: shape (6, 3) + shape(p[0]), for p and r of one shape, (3,) or (3, K).
    In COEFF_KEYS order the functions are the products f g = (l - alpha1 z)(l - alpha2 z),
    (l - alpha1 z)(m - beta1 z), (m - beta1 z)(m - beta2 z), (l - alpha1 z) z,
    (m - beta1 z) z and z z, and f(p + t r) = f(p) + t f(r), so f(r) g(r),
    f(p) g(r) + f(r) g(p) and f(p) g(p) are their coefficients exactly. A point
    (lambda, mu) is p = (lambda, mu, 1) with r = 0: the t^0 column is the basis there."""
    def factors(point):  # (f_j, g_j) at the point: l - alpha1 z, l - alpha2 z, ..., z
        l, m, z = np.asarray(point, dtype=complex)
        node = np.reshape(nodes, (4,) + (1,) * z.ndim)
        forms = np.concatenate([np.array([l, l, m, m]) - _mul(node, z), z[None]])
        return forms[[0, 0, 2, 0, 2, 4]], forms[[1, 2, 3, 4, 4, 4]]
    (fp, gp), (fr, gr) = factors(p), factors(r)
    return np.stack([_mul(fr, gr), _mul(fp, gr) + _mul(fr, gp), _mul(fp, gp)], axis=1)


class MatrixPoly2(NamedTuple):
    """Quadratic two-parameter matrix polynomial in the Newton basis on ``nodes``.

    ``coeffs`` maps (i, j) in COEFF_KEYS to the n x n block multiplying the
    basis function of lambda-degree i and mu-degree j. All six blocks are
    stored explicitly (zero blocks included). A monomial polynomial is the
    one with all nodes zero, the default.
    """

    n: int
    coeffs: dict
    nodes: NewtonNodes = NewtonNodes()

    @classmethod
    def newton(cls, coeffs, nodes: NewtonNodes = NewtonNodes()) -> "MatrixPoly2":
        if not isinstance(nodes, NewtonNodes):
            nodes = NewtonNodes(*nodes)
        missing = [k for k in COEFF_KEYS if k not in coeffs]
        if missing:
            raise ValueError(f"missing coefficient blocks: {missing}")
        first = np.atleast_2d(np.asarray(coeffs[COEFF_KEYS[0]], dtype=complex))
        n = first.shape[0]
        clean = {}
        for key in COEFF_KEYS:
            block = np.atleast_2d(np.asarray(coeffs[key], dtype=complex))
            clean[key] = freeze(as_matrix(block, n, n, name=f"coefficient {key}"))
        return cls(n=n, coeffs=clean, nodes=nodes)

    def coeff(self, i: int, j: int) -> np.ndarray:
        return self.coeffs[(i, j)]

    def combine(self, weights) -> np.ndarray:
        """sum_j w_j C_j, elementwise in COEFF_KEYS order, for w of shape (6,) + s:
        Q at the :func:`newton_line` weights w."""
        w = weights[..., None, None]
        out = np.zeros(w.shape[1:-2] + (self.n, self.n), dtype=complex)
        for weight, key in zip(w, COEFF_KEYS):
            out += weight * self.coeffs[key]
        return out

    def eval(self, lam, mu) -> np.ndarray:
        """Value at (lam, mu), the line through (lam, mu, 1) at t = 0: n x n, or for
        1-D lam, mu of length K the (K, n, n) stack of those values, bit for bit."""
        point = np.array(np.broadcast_arrays(lam, mu, 1), dtype=complex)
        return self.combine(newton_line(self.nodes, point, np.zeros_like(point))[:, 2])

    def at_unit_size(self) -> tuple["MatrixPoly2", int]:
        """(2^e Q, e), e from :func:`scale_to_unit` of the six blocks: exact at any scale."""
        coeffs, e = scale_to_unit(np.stack([self.coeffs[key] for key in COEFF_KEYS]))
        return self._replace(coeffs=dict(zip(COEFF_KEYS, map(freeze, coeffs)))), e

    def on_line(self, p, r) -> np.ndarray:
        """(K2, K1, K0) with t^2 K2 + t K1 + K0 = z^2 Q(l / z, m / z) at (l, m, z) =
        p + t r, C20 l^2 + C11 l m + C02 m^2 where z = 0: shape (3, n, n), or for
        (3, K) p and r (3, K, n, n), each line bit for bit its one-line call."""
        return self.combine(newton_line(self.nodes, p, r))
