"""Shared generators and independent oracles for the test suite."""

import base64
import json
import math
from pathlib import Path

import numpy as np

from newton2pep import (COEFF_KEYS, E1FreeParams, MatrixPoly2, NewtonNodes, NewtonPencil,
                        annulus_points, companion_pencil, complex_normal,
                        construct_e1_newton, construct_general_ansatz, newton_six,
                        small_dense_eigen)
from newton2pep.fileio import _matrix_to_flat


def random_coeffs(rng, n):
    return {key: complex_normal(rng, n, n) for key in COEFF_KEYS}


def random_monomial(rng, n):
    return MatrixPoly2.newton(random_coeffs(rng, n))


def random_nodes(rng):
    z = complex_normal(rng, 4)
    return NewtonNodes(*z)


def random_newton(rng, n, nodes=None):
    return MatrixPoly2.newton(random_coeffs(rng, n), nodes or random_nodes(rng))


NODE_KINDS = ("monomial", "newton", "coincident")


def nodes_of_kind(rng, kind):
    """Zero nodes, four random nodes, or alpha1 = alpha2 and beta1 = beta2."""
    if kind == "monomial":
        return NewtonNodes()
    if kind == "coincident":
        a, b = complex_normal(rng, 2)
        return NewtonNodes(a, a, b, b)
    return random_nodes(rng)


def pencil_in_space(q, construction, rng):
    """A linearization in the space of q: "companion", a random "e1" pencil,
    or the general-ansatz pencil for a zero pattern such as (1, 0, 1), whose
    nonzero components have modulus in [0.5, 2]."""
    if construction == "companion":
        return companion_pencil(q)
    if construction == "e1":
        return construct_e1_newton(q, E1FreeParams.random(q.n, rng))
    v = rng.uniform(0.5, 2.0, 3) * np.exp(2j * np.pi * rng.uniform(size=3)) * np.array(construction)
    return construct_general_ansatz(q, v).pencil_v


def scalar_monomial(a20, a11, a02, a10, a01, a00):
    c = {(2, 0): [[a20]], (1, 1): [[a11]], (0, 2): [[a02]],
         (1, 0): [[a10]], (0, 1): [[a01]], (0, 0): [[a00]]}
    return MatrixPoly2.newton(c)


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


def with_signed_zeros(rng, z):
    """A copy of the complex array z with about a third of its real and of its
    imaginary parts replaced by +0.0 or -0.0 at random."""
    z = np.array(z, dtype=complex)
    for part in (z.real, z.imag):
        mask = rng.random(z.shape) < 1 / 3
        part[mask] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(mask)))
    return z


def assemble_e1_blocks_reference(q, params):
    """The e1 blocks (A1, A2, A3) stacked as the formula reads,
    -Y1 + e1 x C and -Z + e1 x C with zero lower blocks (bitwise reference
    for linearize.assemble_e1_blocks)."""
    zero2 = np.zeros((2 * q.n, q.n))

    def e1_col(block):
        return np.vstack([block, zero2])

    y1 = np.vstack([params.y11, zero2])
    a1 = np.hstack([e1_col(q.coeff(2, 0)), -y1 + e1_col(q.coeff(1, 1)),
                    -params.z1 + e1_col(q.coeff(1, 0))])
    a2 = np.hstack([y1, e1_col(q.coeff(0, 2)), -params.z2 + e1_col(q.coeff(0, 1))])
    a3 = np.hstack([params.z1, params.z2, e1_col(q.coeff(0, 0))])
    return a1, a2, a3


def z_block_reference(params):
    """[[Z21, Z22], [Z31, Z32]] by np.block (reference for E1FreeParams.z_block)."""
    n = params.n
    return np.block([[params.z1[n:2 * n], params.z2[n:2 * n]],
                     [params.z1[2 * n:], params.z2[2 * n:]]])


def companion_params_reference(q):
    """Y11 = 0, Z1 = (C10; 0; -I), Z2 = (C01; -I; 0) stacked (reference for
    E1FreeParams.companion)."""
    eye, zero = np.eye(q.n), np.zeros((q.n, q.n))
    return E1FreeParams.build(zero, np.vstack([q.coeff(1, 0), zero, -eye]),
                              np.vstack([q.coeff(0, 1), -eye, zero]))


def companion_linearization_reference(k2, k1, k0):
    """([0 I; -K0 -K1], [I 0; 0 K2]) by np.block, for matrices or (K, n, n)
    stacks (reference for linalg.quadratic_eigen)."""
    eye, zero = np.broadcast_to(np.eye(k0.shape[-1]), k0.shape), np.zeros(k0.shape)
    return np.block([[zero, eye], [-k0, -k1]]), np.block([[eye, zero], [zero, k2]])


def regular_part_reference(delta):
    """twoparam._regular_part with every round taken in full: right and left
    steps with vectors until a round deflates nothing (reference for the
    loop that ends on singular values)."""
    from newton2pep.twoparam import RANK_TOL, _adjoint, _right_step

    ops = (delta.delta0, delta.delta1, delta.delta2)
    tol = RANK_TOL * max(np.linalg.norm(d) for d in ops)
    deflated = 0
    while True:
        shape = ops[0].shape
        ops, nullity, step = _right_step(ops, tol)
        deflated += step
        ops = _adjoint(_right_step(_adjoint(ops), tol)[0])
        if ops[0].shape == shape:
            return ops, nullity > 0, deflated


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
    return MatrixPoly2.newton(dict(q.coeffs))


def newton_triple(nodes, lam, mu):
    """The vector N = (n1(lambda), m1(mu), 1): rows 3 to 5 of newton_six,
    shape (3,) + shape(lam)."""
    return newton_six(nodes, lam, mu)[3:]


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
    """Entry-by-entry parse of a flat [re, im] pair list (oracle for fileio).
    A value that is not a list is named against both layouts, base64 string
    and pair list."""
    from newton2pep.fileio import FileFormatError

    if not isinstance(data, list):
        raise FileFormatError(f"{where}: expected a base64 string or {rows * cols} [re, im] "
                              f"pairs (row-major {rows}x{cols}), got {type(data).__name__}")
    if len(data) != rows * cols:
        raise FileFormatError(f"{where}: expected {rows * cols} [re, im] pairs "
                              f"(row-major {rows}x{cols}), got {len(data)}")
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


def params_to_dict(params) -> dict:
    """The Y11/Z1/Z2 object of a parameter file (base64 matrices), as
    ``construct --params FILE`` and ``delta --params FILE`` read it."""
    return {name: _matrix_to_flat(m) for name, m in
            (("Y11", params.y11), ("Z1", params.z1), ("Z2", params.z2))}


def s_map(nodes):
    """Change of basis S with S Lambda = N, together with its exact inverse.

    S is unit upper triangular, so det S = 1 for any nodes.
    """
    a1, b1 = nodes.alpha1, nodes.beta1
    s = np.array([[1, 0, -a1], [0, 1, -b1], [0, 0, 1]], dtype=complex)
    sinv = np.array([[1, 0, a1], [0, 1, b1], [0, 0, 1]], dtype=complex)
    return s, sinv


def _right_multiply(pencil, s):
    t = np.kron(s, np.eye(pencil.n))
    return NewtonPencil.from_blocks(pencil.nodes, pencil.A1 @ t, pencil.A2 @ t, pencil.A3 @ t)


def to_newton_space(pencil, nodes):
    """Right-multiply the blocks by S^-1 kron I. If a zero-node pencil
    satisfies the Lambda-identity with ansatz v, the image (still on zero
    nodes) satisfies image (N kron I) = v kron Q, N taken on ``nodes``."""
    return _right_multiply(pencil, s_map(nodes)[1])


def to_monomial_space(pencil, nodes):
    """Inverse of to_newton_space (right-multiply by S kron I)."""
    return _right_multiply(pencil, s_map(nodes)[0])


def transfer_to_newton(pencil, q_newton):
    """The blocks of a zero-node pencil, put on the nodes of ``q_newton``: a
    member of the zero-node space of the same coefficient blocks becomes a
    member of the Newton space with the same ansatz vector."""
    if pencil.n != q_newton.n:
        raise ValueError(f"size mismatch: pencil n={pencil.n}, polynomial n={q_newton.n}")
    return NewtonPencil.from_blocks(q_newton.nodes, *pencil.blocks())


def select_M_alternate_ac(v):
    """The second template for the ansatz pattern a != 0, b = 0, c != 0
    (select_M returns the first): M v = e1 and det M = -1 / (a c)."""
    a, _, c = (complex(x) for x in v)
    return np.array([[1 / a, 0, 0], [1 / a, 0, -1 / c], [0, 1, 0]], dtype=complex)


def sample_points(q, samples=12, seed=0):
    """(lams, mus, Q values) at the points verify_linearization draws."""
    pts = annulus_points(np.random.default_rng(seed), 2 * samples)
    lams, mus = pts[:samples], pts[samples:]
    return lams, mus, q.eval(lams, mus)


def sampled_membership(pencil, q):
    """(v, relative residual) of L (N kron I) = v kron Q by block least
    squares over the sample points (second route for membership_newton).

    The residual is the largest over the samples, relative to the larger of
    max ||L (N kron I)|| and ||v|| max ||Q||.
    """
    lams, mus, qvals = sample_points(q)
    n, count = q.n, len(lams)
    triple = newton_triple(pencil.nodes, lams, mus)[..., None, None]
    lvals = pencil.eval(lams, mus)
    rvals = sum(triple[j] * lvals[..., j * n:(j + 1) * n] for j in range(3))
    qnorms = np.linalg.norm(qvals, axis=(1, 2))
    rblocks = rvals.reshape(count, 3, n, n)
    v = np.einsum("sab,siab->i", qvals.conj(), rblocks) / float((qnorms ** 2).sum())
    resid = np.linalg.norm((rblocks - v[:, None, None] * qvals[:, None])
                           .reshape(count, -1), axis=1).max()
    denom = max(float(np.linalg.norm(rvals, axis=(1, 2)).max()),
                float(np.linalg.norm(v)) * float(qnorms.max()))
    return v, (float(resid) / denom if denom > 0 else 0.0)


def witness_factors(q, params, lam, mu):
    """The unimodular factors (E, F) of the e1 pencil of ``params`` at
    (lam, mu): 3n x 3n each, or (K, 3n, 3n) stacks for 1-D lam, mu.

    E = [[n1 I, I, 0], [m1 I, 0, I], [I, 0, 0]] has determinant 1 and
    F = [[I, -W Z^{-1}], [0, Z^{-1}]] the determinant det(Z)^{-1}, with
    W = [W1 W2] the top-row remainder after E; F L E = diag(Q, I_2n).
    """
    n = q.n
    triple = newton_triple(q.nodes, lam, mu)[..., None, None]
    e = np.zeros(triple.shape[1:-2] + (3 * n, 3 * n), dtype=complex)
    for j in range(3):
        e[..., j * n:(j + 1) * n, :n] = triple[j] * np.eye(n)
    e[..., :n, n:2 * n] = e[..., n:2 * n, 2 * n:] = np.eye(n)
    a1, a2, b1, b2 = q.nodes.as_tuple()
    lam = np.asarray(lam)[..., None, None]
    mu = np.asarray(mu)[..., None, None]
    c = q.coeff
    y11, z11, z12 = params.y11, params.z1[:n], params.z2[:n]
    w1 = (lam - a2) * c(2, 0) + (mu - b1) * y11 + z11
    w2 = (lam - a1) * (c(1, 1) - y11) + (mu - b2) * c(0, 2) + z12
    w = np.concatenate(np.broadcast_arrays(w1, w2), axis=-1)
    z_inv = np.linalg.inv(params.z_block)
    f = np.zeros(w.shape[:-2] + (3 * n, 3 * n), dtype=complex)
    f[..., :n, :n] = np.eye(n)
    f[..., :n, n:] = -w @ z_inv
    f[..., n:, n:] = z_inv
    return e, f


def sampled_witness(q, pencil, params):
    """(residual, deviation) of F L E = diag(Q, I_2n) over the sample points
    (second route for unimodular_witnesses).

    The residual is the largest ||F L E - diag(Q, I)||_F / (||L||_F ||F||_F);
    the deviation is the largest of |det E - 1| and |det F det Z - 1|.
    """
    n = q.n
    lams, mus, qvals = sample_points(q)
    e, f = witness_factors(q, params, lams, mus)
    lvals = pencil.eval(lams, mus)
    red = f @ lvals @ e
    red[:, :n, :n] -= qvals
    red[:, n:, n:] -= np.eye(2 * n)
    scale = np.linalg.norm(lvals, axis=(1, 2)) * np.linalg.norm(f, axis=(1, 2))
    sign_zi, log_zi = np.linalg.slogdet(np.linalg.inv(params.z_block))
    sign_f, log_f = np.linalg.slogdet(f)
    deviation = max(float(np.abs(np.linalg.det(e) - 1).max()),
                    float(np.abs(sign_f / sign_zi * np.exp(log_f - log_zi) - 1).max()))
    return float((np.linalg.norm(red, axis=(1, 2)) / scale).max()), deviation


def full_slice_eigenvalues(pencil, mus):
    """Finite lambda of each slice lam A1 + L(0, mu0), solved as the full 3n
    pencil (reference for the row-space solve; None for a singular slice)."""
    out = []
    for mu0 in mus:
        lam, = small_dense_eigen(-pencil.eval(0.0, mu0)[None], pencil.A1)
        out.append(None if lam is None else lam.tolist())
    return out


def eig_reference(a, b):
    """Finite eigenvalues of the pencil (a, b) sorted by (real, imag), or None
    for a singular pencil: the shift and invert of linalg.small_dense_eigen,
    with op always solved by ``eig`` with vectors, so that ||w|| (w the row of
    X^-1 of the unit eigenvectors X) decides infinity for every eigenvalue
    (reference for the values-only solve and its rerun band)."""
    from newton2pep.linalg import INFINITE_TOL, SHIFTS, SINGULAR_TOL

    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    rows = np.maximum(np.abs(a).max(axis=1), np.abs(b).max(axis=1))
    rows[rows == 0] = 1.0
    a, b = a / rows[:, None], b / rows[:, None]
    for shift in SHIFTS:
        sv = np.linalg.svd(a - shift * b, compute_uv=False)
        if sv[-1] > SINGULAR_TOL * sv[0]:
            break
    else:
        return None
    op = np.linalg.solve(a - shift * b, b)
    eps, norm = np.finfo(float).eps, np.linalg.norm(op)
    theta, x = np.linalg.eig(op)
    try:
        with np.errstate(over="ignore"):
            w = np.linalg.norm(np.linalg.inv(x), axis=1)
    except np.linalg.LinAlgError:  # parallel eigenvectors
        w = np.full(len(theta), np.inf)
    infinite = np.abs(theta) <= np.minimum(eps * norm * w, eps ** 0.25 * norm)
    values = [shift + 1 / t for t, inf in zip(theta.tolist(), infinite) if not inf]
    return sorted((v for v in values if abs(v) < 1 / INFINITE_TOL),
                  key=lambda z: (z.real, z.imag))


def backward_error_reference(q, mu0, lam):
    """sigma_min(Q(lam, mu0)) / (|lam|^2 ||K2||_F + |lam| ||K1||_F + ||K0||_F)
    of one value, from its own SVD (loop form of twoparam._certified)."""
    k2, k1, k0 = q.on_line([0, mu0, 1], [1, 0, 0])
    sigma_min = np.linalg.svd(lam * lam * k2 + lam * k1 + k0, compute_uv=False)[-1]
    norms = [float(np.linalg.norm(k)) for k in (k2, k1, k0)]
    return sigma_min / (abs(lam) ** 2 * norms[0] + abs(lam) * norms[1] + norms[2])


def spectrum_slice(q, mu0):
    """Finite lambda with det Q(lambda, mu0) = 0 that the slice certificate
    keeps: twoparam._q_slice_eigenvalues of the one slice mu0, filtered by
    twoparam._certified, as a list sorted by (real, imag)."""
    from newton2pep.twoparam import _certified, _q_slice_eigenvalues

    mus = np.array([mu0], dtype=complex)
    return _certified(q, mus[0], _q_slice_eigenvalues(q, mus)[0]).tolist()


def spectrum_match_reference(q, pencil, *, slices=5, seed=0, match_tol=1e-6):
    """verify_spectrum_match with every Q slice certified: each Q value is
    kept when its own backward_error_reference is at most RESIDUAL_TOL, and
    matched one by one against the pencil values (the always-certified check)."""
    from newton2pep.twoparam import (RESIDUAL_TOL, SliceRecord, SpectrumMatchReport,
                                     _pencil_slice_eigenvalues, _q_slice_eigenvalues)

    mus = annulus_points(np.random.default_rng(seed), slices)
    records = []
    for mu0, q_all, l_eigs in zip(mus, _q_slice_eigenvalues(q, mus),
                                  _pencil_slice_eigenvalues(pencil, mus)):
        q_eigs = [lam for lam in q_all.tolist()
                  if backward_error_reference(q, mu0, lam) <= RESIDUAL_TOL]
        dists = [min((abs(lam - le) for le in l_eigs or []), default=math.inf) for lam in q_eigs]
        contained = l_eigs is not None and all(d <= match_tol * max(1.0, abs(lam))
                                               for lam, d in zip(q_eigs, dists))
        records.append(SliceRecord(mu0=complex(mu0), q_eigenvalues=tuple(q_eigs),
                                   pencil_eigenvalues=tuple(l_eigs or []),
                                   distances=tuple(dists), contained=contained,
                                   pencil_singular=l_eigs is None))
    return SpectrumMatchReport(records=tuple(records),
                               all_contained=all(r.contained for r in records),
                               match_tol=match_tol)


def clusters_reference(theta, radius, shift):
    """Groups of indices by pairwise links, merged one new index at a time
    (loop form of twoparam._clusters). Index i is linked to j < i when the
    error discs overlap, |theta_i - theta_j| <= DISC_FACTOR (r_i + r_j), or
    when sigma = shift + 1 / theta agrees to CLUSTER_TOL max(1, |sigma_i|)."""
    from newton2pep.twoparam import CLUSTER_TOL, DISC_FACTOR

    sigma = shift + 1 / theta

    def linked(i, j):
        return (abs(theta[i] - theta[j]) <= DISC_FACTOR * (radius[i] + radius[j])
                or abs(sigma[i] - sigma[j]) <= CLUSTER_TOL * max(1.0, abs(sigma[i])))

    groups = []
    for i in range(len(theta)):
        near = [g for g in groups if any(linked(i, j) for j in g)]
        groups = [g for g in groups if g not in near] + [[i] + [j for g in near for j in g]]
    return groups


def point_quotients_reference(delta, x, y):
    """(lam, mu) of each column pair (x, y) by its own 1 x 1 solve of
    y* Delta0 x [lam, mu] = [y* Delta1 x, y* Delta2 x] (loop form of
    twoparam._point_quotients)."""
    lams, mus = [], []
    for k in range(x.shape[1]):
        qx, qy = x[:, k:k + 1], y[:, k:k + 1]
        b0, b1, b2 = (qy.conj().T @ d @ qx for d in (delta.delta0, delta.delta1, delta.delta2))
        lam_mu = np.linalg.solve(b0, np.concatenate([b1, b2], axis=1))
        lams.append(lam_mu[0, 0])
        mus.append(lam_mu[0, 1])
    return np.array(lams), np.array(mus)
