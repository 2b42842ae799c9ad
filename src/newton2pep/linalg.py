"""Dense complex linear-algebra kernel.

Everything here operates on plain ``numpy.ndarray`` values with dtype
``complex128``. Matrices are small (block sizes up to a few dozen rows), so
all factorizations go straight to LAPACK through numpy. scipy is needed only
for the QZ algorithm in :func:`small_dense_eigen` (``spectrum`` slice mode)
and is imported on its first call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonSquareError, SingularPencilError

__all__ = [
    "as_matrix",
    "freeze",
    "det",
    "smallest_singular_value",
    "Eigenpair",
    "small_dense_eigen",
    "complex_normal",
    "annulus_points",
]


def as_matrix(value, rows=None, cols=None, name: str = "matrix") -> np.ndarray:
    """Coerce ``value`` to a finite complex 2-D array, optionally checking shape."""
    a = np.array(value, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if rows is not None and a.shape != (rows, cols if cols is not None else rows):
        want = (rows, cols if cols is not None else rows)
        raise ValueError(f"{name} must have shape {want}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def freeze(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only; value types hand out frozen blocks."""
    a.flags.writeable = False
    return a


def require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{name} must be square, got shape {a.shape}")
    return a


def det(a):
    """Determinant via LU with partial pivoting (an array of them for a stack)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NonSquareError(f"matrix must be square, got shape {a.shape}")
    d = np.linalg.det(a)
    return complex(d) if a.ndim == 2 else d


def smallest_singular_value(a) -> float:
    """sigma_min(a) >= 0 for a square matrix."""
    a = np.asarray(a, dtype=complex)
    require_square(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[-1])


@dataclass(frozen=True)
class Eigenpair:
    """One generalized eigenvalue of a pencil (A, B).

    ``value`` is ``inf + 0j`` when the eigenvalue is infinite (the beta part
    of the QZ output vanished); ``infinite`` makes the classification explicit.
    ``vector`` is None when computed without vectors.
    """

    value: complex
    vector: np.ndarray
    infinite: bool


def small_dense_eigen(a, b, *, vectors: bool = True, infinite_tol: float = 1e-10,
                      singular_tol: float = 1e-10) -> list[Eigenpair]:
    """Generalized eigenpairs of the pencil (A, B) via the QZ algorithm.

    Rows of A and B are first divided by their largest magnitude in either
    matrix (same eigenvalues and right vectors; the tests become scale-free).
    Eigenvalues with a vanishing beta part are classified as infinite. If
    alpha and beta both vanish for some direction the pencil is singular;
    that is reported by raising :class:`SingularPencilError` rather than
    silently dropping the indeterminate eigenvalue. ``vectors=False`` skips
    the eigenvectors (``vector`` is None).

    Finite pairs come first, sorted by (real, imag); infinite pairs follow.
    """
    a = as_matrix(a, name="A")
    b = as_matrix(b, name="B")
    require_square(a, "A")
    require_square(b, "B")
    if a.shape != b.shape:
        raise ValueError(f"A and B must have the same shape: {a.shape} vs {b.shape}")
    rows = np.maximum(np.abs(a).max(axis=1, initial=0.0), np.abs(b).max(axis=1, initial=0.0))
    rows[rows == 0] = 1.0
    a, b = a / rows[:, None], b / rows[:, None]

    # Imported here: scipy.linalg loads slower than the rest of the package.
    import scipy.linalg

    out = scipy.linalg.eig(a, b, right=vectors, homogeneous_eigvals=True)
    (alpha, beta), vr = out if vectors else (out, None)
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1.0)

    pairs = []
    n_indeterminate = 0
    for i in range(len(alpha)):
        al, be = alpha[i], beta[i]
        vec = vr[:, i].copy() if vectors else None
        mag = abs(al) + abs(be)
        if mag <= singular_tol * scale:
            n_indeterminate += 1
            continue
        if abs(be) <= infinite_tol * mag:
            pairs.append(Eigenpair(complex(np.inf), vec, True))
        else:
            pairs.append(Eigenpair(complex(al / be), vec, False))
    if n_indeterminate:
        raise SingularPencilError(
            f"pencil is singular: {n_indeterminate} indeterminate eigenvalue(s) "
            "(alpha and beta both vanish)"
        )
    pairs.sort(key=lambda p: (p.infinite, p.value.real if not p.infinite else 0.0,
                              p.value.imag if not p.infinite else 0.0))
    return pairs


def complex_normal(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard complex normal samples (unit variance per entry)."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z * np.sqrt(0.5)


def annulus_points(rng: np.random.Generator, count: int,
                   inner: float = 0.5, outer: float = 2.0) -> np.ndarray:
    """Random complex points with modulus in [inner, outer].

    Sampling on an annulus keeps magnitudes away from zero and infinity, so
    polynomial-identity checks at these points stay well scaled.
    """
    r = rng.uniform(inner, outer, count)
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    return r * np.exp(1j * theta)
