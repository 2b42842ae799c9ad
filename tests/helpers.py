"""Shared generators and independent oracles for the test suite."""

import base64
import json
import math
from pathlib import Path

import numpy as np

from newton2pep import COEFF_KEYS, MatrixPoly2, NewtonNodes, complex_normal


def random_coeffs(rng, n):
    return {key: complex_normal(rng, n, n) for key in COEFF_KEYS}


def random_monomial(rng, n):
    return MatrixPoly2.monomial(random_coeffs(rng, n))


def random_nodes(rng):
    z = complex_normal(rng, 4)
    return NewtonNodes(*z)


def random_newton(rng, n, nodes=None):
    return MatrixPoly2.newton(random_coeffs(rng, n), nodes or random_nodes(rng))


def scalar_monomial(a20, a11, a02, a10, a01, a00):
    c = {(2, 0): [[a20]], (1, 1): [[a11]], (0, 2): [[a02]],
         (1, 0): [[a10]], (0, 1): [[a01]], (0, 0): [[a00]]}
    return MatrixPoly2.monomial(c)


def scalar_newton(a20, a11, a02, a10, a01, a00, nodes=None):
    return MatrixPoly2.newton(scalar_monomial(a20, a11, a02, a10, a01, a00).coeffs,
                              nodes or NewtonNodes())


def gamma_blocks(nodes, n, lam, mu):
    """The 3n x 3n node-factor blocks (Gamma2(lam), Gamma2t(mu)): the reference
    form A1 Gamma2 + A2 Gamma2t + A3 of a pencil's value."""
    if n < 1:
        raise ValueError(f"block size must be positive, got {n}")
    a1, a2, b1, b2 = nodes.as_tuple()
    eye = np.eye(n)
    g = np.kron(np.diag([lam - a2, lam - a1, lam - a1]).astype(complex), eye)
    gt = np.kron(np.diag([mu - b1, mu - b2, mu - b1]).astype(complex), eye)
    return g, gt


def companion_reference(q):
    """The companion blocks (A1, A2, A3) of q written out block by block
    (reference for companion_pencil, on the nodes of q)."""
    n = q.n
    eye, zero = np.eye(n), np.zeros((n, n))
    a1 = np.block([[q.coeff(2, 0), q.coeff(1, 1), zero],
                   [zero, zero, zero],
                   [zero, zero, eye]])
    a2 = np.block([[zero, q.coeff(0, 2), zero],
                   [zero, zero, eye],
                   [zero, zero, zero]])
    a3 = np.block([[q.coeff(1, 0), q.coeff(0, 1), q.coeff(0, 0)],
                   [zero, -eye, zero],
                   [-eye, zero, zero]])
    return a1, a2, a3


def assert_bitwise_equal(a, b):
    """Same shape, dtype and bytes: signed zeros must agree as well."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.shape, a.dtype) == (b.shape, b.dtype)
    assert a.tobytes() == b.tobytes()


def scaled(q, factor):
    """The polynomial factor * q, on the same nodes."""
    return MatrixPoly2.newton({k: factor * c for k, c in q.coeffs.items()}, q.nodes)


def with_zero_nodes(q):
    """The coefficient blocks of q read in the monomial basis (zero nodes)."""
    return MatrixPoly2.monomial(dict(q.coeffs))


def monomial_triple(lam, mu):
    """The vector (lambda, mu, 1): the zero-node reference for newton_triple."""
    return np.array([lam, mu, 1.0], dtype=complex)


def monomial_six(lam, mu):
    """Degree-two monomials (lambda^2, lambda*mu, mu^2, lambda, mu, 1): the
    zero-node reference for newton_six."""
    return np.array([lam * lam, lam * mu, mu * mu, lam, mu, 1.0], dtype=complex)


def annulus_scalar(rng, count=1):
    r = rng.uniform(0.5, 2.0, count)
    th = rng.uniform(0.0, 2 * np.pi, count)
    z = r * np.exp(1j * th)
    return z[0] if count == 1 else z


def cofactor_det(a):
    """Determinant by cofactor expansion along the first row (oracle)."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


def kron_oracle(a, b):
    """Index-loop Kronecker product (oracle)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            out[i * rb:(i + 1) * rb, j * cb:(j + 1) * cb] = a[i, j] * b
    return out


def commutation_matrix(m, n):
    """Perfect-shuffle permutation P with P (X kron Y) P^T = Y kron X.

    X is m x m and Y is n x n.
    """
    p = np.zeros((m * n, m * n))
    for i in range(m):
        for j in range(n):
            p[j * m + i, i * n + j] = 1.0
    return p


def flat_to_matrix_reference(data, rows, cols, where):
    """Entry-by-entry parse of a flat [re, im] pair list (oracle for fileio)."""
    from newton2pep.fileio import FileFormatError

    if not isinstance(data, list) or len(data) != rows * cols:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise FileFormatError(f"{where}: expected {rows * cols} [re, im] pairs "
                              f"(row-major {rows}x{cols}), got {got}")
    values = []
    for k, value in enumerate(data):
        at = f"{where}[{k}]"
        if (not isinstance(value, (list, tuple)) or len(value) != 2
                or not all(isinstance(x, (int, float)) for x in value)):
            raise FileFormatError(f"{at}: expected a [re, im] number pair, got {value!r}")
        try:
            z = complex(value[0], value[1])
        except OverflowError:
            raise FileFormatError(f"{at}: value out of double range {value!r}") from None
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise FileFormatError(f"{at}: non-finite value {value!r}")
        values.append(z)
    return np.array(values, dtype=complex).reshape(rows, cols)


MATRIX_KEYS = {"A20", "A11", "A02", "A10", "A01", "A00", "L1", "L2", "L0", "A1", "A2", "A3",
               "M", "Y11", "Z1", "Z2"}


def _matrices_as_pairs(node):
    if isinstance(node, dict):
        return {key: ([[float(z.real), float(z.imag)]
                       for z in np.frombuffer(base64.b64decode(value), "<c16")]
                      if key in MATRIX_KEYS and isinstance(value, str)
                      else _matrices_as_pairs(value))
                for key, value in node.items()}
    return node


def rewrite_as_pairs(src, dst):
    """Re-emit a package-written JSON file with every base64 matrix as the
    flat [re, im] pair array that earlier versions wrote (their layout:
    single line, sorted keys), for tests that edit entries by hand."""
    doc = _matrices_as_pairs(json.loads(Path(src).read_text(encoding="utf-8")))
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    Path(dst).write_text(text + "\n", encoding="utf-8")
