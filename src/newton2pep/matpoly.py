"""Quadratic bivariate matrix polynomials in a Newton basis.

A polynomial is a sum of six n x n coefficient blocks weighted by the scalar
Newton basis functions of total degree at most two on the nodes
(alpha1, alpha2, beta1, beta2):

    n_0 = 1, n_1 = lambda - alpha1, n_2 = n_1 * (lambda - alpha2)
    m_0 = 1, m_1 = mu - beta1,      m_2 = m_1 * (mu - beta2)

Nodes may coincide; the Newton basis degenerates gracefully. With all nodes
zero it is the monomial basis 1, lambda, mu, lambda^2, lambda*mu, mu^2 bit
for bit, so monomial input is the zero-node case and needs no second type
or label. Which file layout a polynomial is written in is decided by
:mod:`newton2pep.fileio` from the nodes alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, freeze

# Coefficient keys (i, j) for the lambda-degree-i, mu-degree-j basis function.
# The order matches the six-vector returned by newton_six.
COEFF_KEYS = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))

__all__ = [
    "COEFF_KEYS",
    "NewtonNodes",
    "newton_six",
    "newton_line",
    "MatrixPoly2",
]


@dataclass(frozen=True)
class NewtonNodes:
    """Interpolation nodes defining the Newton basis. Nodes may coincide."""

    alpha1: complex = 0j
    alpha2: complex = 0j
    beta1: complex = 0j
    beta2: complex = 0j

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            value = complex(getattr(self, name))
            if not (np.isfinite(value.real) and np.isfinite(value.imag)):
                raise ValueError(f"node {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.alpha1, self.alpha2, self.beta1, self.beta2)

    @property
    def is_zero(self) -> bool:
        return all(z == 0 for z in self.as_tuple())


def _mul(a, b):
    """a * b with each real operation rounded on its own, as complex scalars
    round it (numpy's vector loops may fuse a multiply and an add): Newton
    weights of a stack are bitwise those of scalar arithmetic at each point."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out[()]


def newton_six(nodes: NewtonNodes, lam, mu) -> np.ndarray:
    """Degree-two Newton basis (n2, n1*m1, m2, n1, m1, 1), shape (6,) + shape(lam).

    n2 and m2 are computed through the multiplicative recurrence
    n2 = n1 * (lam - alpha2), m2 = m1 * (mu - beta2), so the recurrence holds
    exactly as evaluated in floating point. With all nodes zero this equals
    (lambda^2, lambda*mu, mu^2, lambda, mu, 1) entry for entry.
    """
    lam, mu = np.asarray(lam), np.asarray(mu)
    n1, m1 = lam - nodes.alpha1, mu - nodes.beta1
    return np.array([_mul(n1, lam - nodes.alpha2), _mul(n1, m1), _mul(m1, mu - nodes.beta2),
                     n1, m1, np.ones_like(n1)], dtype=complex)


def newton_line(nodes: NewtonNodes, p, r) -> np.ndarray:
    """The homogeneous Newton basis, z^2 times newton_six at (l / z, m / z),
    on the projective line (l, m, z) = p + t r as its (t^2, t, 1) coefficients:
    shape (6, 3) + shape(p[0]), for p and r of one shape, (3,) or (3, K). Each
    function is a product f g of the linear forms l - alpha1 z, ..., z, and
    f(p + t r) = f(p) + t f(r), so f(r) g(r), f(p) g(r) + f(r) g(p) and
    f(p) g(p) are its coefficients exactly."""
    def factors(point):  # (f_j, g_j) at the point: l - alpha1 z, l - alpha2 z, ..., z
        l, m, z = np.asarray(point, dtype=complex)
        node = np.reshape(nodes.as_tuple(), (4,) + (1,) * z.ndim)
        forms = np.concatenate([np.array([l, l, m, m]) - _mul(node, z), z[None]])
        return forms[[0, 0, 2, 0, 2, 4]], forms[[1, 2, 3, 4, 4, 4]]
    (fp, gp), (fr, gr) = factors(p), factors(r)
    return np.stack([_mul(fr, gr), _mul(fp, gr) + _mul(fr, gp), _mul(fp, gp)], axis=1)


@dataclass(frozen=True)
class MatrixPoly2:
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

    def _combine(self, weights) -> np.ndarray:
        """sum_j w_j C_j, elementwise in COEFF_KEYS order, for w of shape (6,) + s."""
        w = weights[..., None, None]
        out = np.zeros(w.shape[1:-2] + (self.n, self.n), dtype=complex)
        for weight, key in zip(w, COEFF_KEYS):
            out += weight * self.coeffs[key]
        return out

    def eval(self, lam, mu) -> np.ndarray:
        """Value at (lam, mu): n x n, or for 1-D lam, mu of length K the
        (K, n, n) stack of those values, bit for bit."""
        return self._combine(newton_six(self.nodes, lam, mu))

    def on_line(self, p, r) -> np.ndarray:
        """(K2, K1, K0) with t^2 K2 + t K1 + K0 = z^2 Q(l / z, m / z) at (l, m, z) =
        p + t r, C20 l^2 + C11 l m + C02 m^2 where z = 0: shape (3, n, n), or for
        (3, K) p and r (3, K, n, n), each line bit for bit its one-line call."""
        return self._combine(newton_line(self.nodes, p, r))

    def coefficient_scale(self) -> float:
        """Largest Frobenius norm among the six blocks."""
        return max(float(np.linalg.norm(self.coeffs[k])) for k in COEFF_KEYS)
