"""Dense complex linear-algebra kernel.

Everything here operates on plain ``numpy.ndarray`` values with dtype
``complex128``. Matrices are small (block sizes up to a few dozen rows), so
all factorizations go straight to LAPACK through numpy, the package's only
dependency. Generalized eigenvalues are found by shift and invert with
``numpy.linalg.eigvals`` (:func:`small_dense_eigen`, :func:`quadratic_eigen`).
"""

from __future__ import annotations

import numpy as np

from .errors import NonSquareError

__all__ = [
    "as_matrix",
    "freeze",
    "kron",
    "det",
    "smallest_singular_value",
    "small_dense_eigen",
    "quadratic_eigen",
    "row_space",
    "row_space_basis",
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


def kron(a, b) -> np.ndarray:
    """np.kron of two matrices or two vectors, bit for bit, as one broadcast product."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == 1:
        return (a[:, None] * b).ravel()
    return (a[:, None, :, None] * b[:, None]).reshape(len(a) * len(b), -1)


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
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"matrix must be square, got shape {a.shape}")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[-1])


# Fixed (so output is deterministic) shifts of modulus about one, away from the
# small integers and fractions of hand-made examples; the second is a fallback.
SHIFTS = (0.6180339887498949 + 0.5772156649015329j, -0.4142135623730950 - 0.7320508075688772j)
# An eigenvalue with |lambda| >= 1 / INFINITE_TOL is infinite; a shifted pencil
# with sigma_min <= SINGULAR_TOL sigma_max is singular.
INFINITE_TOL = SINGULAR_TOL = 1e-10
ANNULUS = (0.5, 2.0)  # inner and outer radius of annulus_points


def _row_scales(*mats) -> np.ndarray:
    """The largest magnitude in each row across ``mats`` (1 for a zero row)."""
    rows = np.max([np.abs(m).max(axis=-1, initial=0.0) for m in mats], axis=0)
    rows[rows == 0] = 1.0
    return rows


def row_space(b, *others):
    """(d, U, sigma_r, V*) of the SVD D^-1 b = U diag(sigma_r, 0) V*, D = diag(d)
    the :func:`_row_scales` across b and ``others`` and r the rank, read as the
    cut m eps sigma_max (m rows): a row of tiny but honest entries keeps its rank."""
    b = as_matrix(b, name="B")
    scales = _row_scales(b, *others)
    u, sv, vh = np.linalg.svd(b / scales[:, None])
    return scales, u, sv[sv > len(b) * np.finfo(float).eps * sv[0]], vh


def row_space_basis(b) -> np.ndarray | None:
    """Orthonormal columns V_r (of :func:`row_space`) spanning the row space of
    b conjugated, or None when b has full rank: b x = 0 for x orthogonal to V_r."""
    _, _, sigma, vh = row_space(b)
    return None if len(sigma) == len(vh) else vh[:len(sigma)].conj().T


def _square_stack(value, name: str) -> np.ndarray:
    """Coerce ``value`` to a finite complex square matrix or (K, m, m) stack."""
    a = np.asarray(value, dtype=complex)
    if a.ndim not in (2, 3):
        raise ValueError(f"{name} must be a matrix or a stack of them, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    if a.shape[-1] != a.shape[-2]:
        raise NonSquareError(f"{name} must be square, got shape {a.shape}")
    return a


def _error_radius(unit, x) -> np.ndarray:
    """unit ||w|| for each row w of X^-1, member by member of a stack of X;
    inf for a singular X (parallel vectors: a defective eigenvalue)."""
    try:
        with np.errstate(over="ignore"):
            return unit * np.linalg.norm(np.linalg.inv(x), axis=-1)
    except np.linalg.LinAlgError:
        if len(x) == 1:
            return np.full(x.shape[:-1], np.inf)
        return np.concatenate([_error_radius(u, member[None]) for u, member in zip(unit, x)])


def _shift_invert(at, mats, make_op, basis=None) -> list:
    """Finite eigenvalues of each member, sorted by (real, imag), by shift and
    invert at the first s in SHIFTS where member k's at(s, *(M[k] for M in
    mats)) has sigma_min > SINGULAR_TOL sigma_max (else None: singular), with
    op = make_op(shifts, shifted, regular) (op V_r for ``basis`` V_r, solved as
    V_r* op V_r). lambda = s + 1 / theta is infinite when |lambda| >= 1 /
    INFINITE_TOL or |theta| <= min(eps ||op||_F ||w||, eps^(1/4) ||op||_F), w
    its row of X^-1 (unit eigenvectors X); ||w|| is taken as 1, its lower bound,
    and an op with some |theta| in (eps ||op||_F, eps^(1/4) ||op||_F] is solved
    again by ``eig`` with vectors."""
    shifts, shifted = np.full(len(mats[0]), SHIFTS[0]), at(SHIFTS[0], *mats)
    sv = np.linalg.svd(shifted, compute_uv=False)
    regular = sv[:, -1] > SINGULAR_TOL * sv[:, 0]
    if not regular.all():
        retry = ~regular  # named arguments of at: in-place complex products round apart
        shifts[retry], shifted[retry] = SHIFTS[1], at(SHIFTS[1], *(m[retry] for m in mats))
        sv = np.linalg.svd(shifted[retry], compute_uv=False)
        regular[retry] = sv[:, -1] > SINGULAR_TOL * sv[:, 0]
        shifts, shifted = shifts[regular], shifted[regular]
    op = make_op(shifts, shifted, regular)
    # Member by member: norm(axis=(1, 2)) rounds differently from norm().
    eps, op_norm = np.finfo(float).eps, np.array([np.linalg.norm(o) for o in op])
    unit, cap = eps * op_norm[:, None], eps ** 0.25 * op_norm[:, None]
    op = op if basis is None else basis.conj().T @ op  # ||op V_r||_F = ||op||_F
    theta, radius = np.linalg.eigvals(op), np.repeat(unit, op.shape[-1], axis=1)
    rerun = ((np.abs(theta) > radius) & (np.abs(theta) <= cap)).any(axis=1)
    if rerun.any():
        theta[rerun], vecs = np.linalg.eig(op[rerun])
        radius[rerun] = _error_radius(unit[rerun], vecs)
    # The cap keeps a defective finite eigenvalue (huge ||w||) finite, yet holds
    # a Jordan block of size m <= 4 at infinity (split by ~eps^(1/m) ||op||).
    infinite = np.abs(theta) <= np.minimum(radius, cap)  # theta = 0 too
    values = np.where(infinite, np.inf, shifts[:, None] + 1 / np.where(infinite, 1, theta))
    finite, out = np.abs(values) < 1 / INFINITE_TOL, [None] * len(regular)
    for k, member in enumerate(np.flatnonzero(regular)):
        out[member] = np.sort_complex(values[k, finite[k]])  # by (real, imag)
    return out


def small_dense_eigen(a, b, *, basis=None) -> list:
    """Finite generalized eigenvalues of each pencil (A_k, B), sorted by (real,
    imag), or None for a singular pencil. ``a`` is a (K, m, m) stack and ``b``
    one matrix or a stack. Rows of A and B are divided by their largest
    magnitude (scale-free), and op = (A - s B)^-1 B is read by
    :func:`_shift_invert`. With ``basis`` V_r of :func:`row_space_basis` for B,
    op V_r V_r* is solved as the r x r V_r* op V_r, and the m - r eigenvalues
    it leaves out are infinite: a Jordan block at infinity of size two becomes
    a simple one there.
    """
    a, b = _square_stack(a, "A"), _square_stack(b, "B")
    if a.ndim != 3 or a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"A must be a (K, m, m) stack of B's shape: {a.shape} vs {b.shape}")
    a, b = np.broadcast_arrays(a, b.reshape(-1, *b.shape[-2:]))
    rows = _row_scales(a, b)[..., None]
    a, b = a / rows, b / rows
    def solve(_, shifted, regular):  # op, or op V_r with a basis
        return np.linalg.solve(shifted, b[regular] if basis is None else b[regular] @ basis)
    return _shift_invert(lambda s, a_k, b_k: a_k - s * b_k, (a, b), solve, basis)


def quadratic_eigen(k2, k1, k0) -> list:
    """Finite eigenvalues of each Q(t) = t^2 K2 + t K1 + K0 of (K, n, n) stacks
    (None when Q is singular), read as :func:`small_dense_eigen` reads its
    companion pencil ([0 I; -K0 -K1], [I 0; 0 K2]), whose operator at s is
    op = [[X1, X2], [I + s X1, s X2]], [X1 X2] = -Q(s)^-1 [K1 + s K2, K2]. With
    the K's rows scaled to unit maximum, one n x n solve with P = Q(s) / s gives
    I + s X1 = Q(s)^-1 K0 and X1 = (Q(s)^-1 K0 - I) / s: a zero K0, zero blocks."""
    rows = _row_scales(k2, k1, k0)[..., None]
    k2, k1, k0 = k2 / rows, k1 / rows, k0 / rows

    def companion_op(shifts, p, regular):
        n, s = k0.shape[-1], shifts[:, None, None]
        y = np.linalg.solve(p, np.concatenate([k0[regular], k2[regular]], axis=-1))
        low = np.concatenate([y[..., :n] / s, -y[..., n:]], axis=-1)  # [I + s X1, s X2]
        return np.concatenate([(low - np.eye(n, 2 * n)) / s, low], axis=-2)

    return _shift_invert(lambda s, c2, c1, c0: s * c2 + c1 + c0 / s, (k2, k1, k0), companion_op)


def complex_normal(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard complex normal samples (unit variance per entry)."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z * np.sqrt(0.5)


def annulus_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Random complex points with modulus in ANNULUS.

    Sampling on an annulus keeps magnitudes away from zero and infinity, so
    polynomial-identity checks at these points stay well scaled.
    """
    r = rng.uniform(*ANNULUS, count)
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    return r * np.exp(1j * theta)
