"""Pencil pairs, operator determinants, singularity and spectrum oracles."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton2pep import (
    COEFF_KEYS,
    DeltaTriple,
    E1FreeParams,
    MatrixPoly2,
    NewtonNodes,
    NodeMismatchError,
    QtepPair,
    SharedFactorError,
    annulus_points,
    certify_singular,
    companion_pencil,
    complex_normal,
    construct_e1_newton,
    construct_general_ansatz,
    delta_operators,
    spectrum_pair_oracle,
    verify_linearization,
    verify_spectrum_match,
)
from newton2pep import matpoly, spaces, twoparam
from newton2pep.errors import DegenerateProblemError
from newton2pep.linalg import det, kron, scale_to_unit, smallest_singular_value
from newton2pep.matpoly import newton_line
from newton2pep.spaces import NewtonPencil
from newton2pep.twoparam import DENSE_SIGMA_MIN, KERNEL_WITNESS, _delta0_frobenius

from helpers import (NODE_KINDS, assemble_e1_blocks_reference, assert_bitwise_equal,
                     backward_error_reference, clusters_reference, commutation_matrix,
                     full_slice_eigenvalues, gamma_blocks, kron_oracle, masked_jordan,
                     nodes_of_kind, pencil_in_space, point_quotients_reference, random_coeffs,
                     random_newton, random_nodes, random_unitary, regular_part_reference,
                     scalar_newton, scaled, slice_line, spectrum_match_reference,
                     spectrum_slice, with_signed_zeros)


def random_pair(rng, p1, p2, nodes=None):
    nodes = nodes or random_nodes(rng)
    return QtepPair(random_newton(rng, p1, nodes), random_newton(rng, p2, nodes))


class TestQtepPair:
    def test_node_sharing_enforced(self):
        rng = np.random.default_rng(0)
        q1 = random_newton(rng, 2, NewtonNodes(1, 2, 3, 4))
        q2 = random_newton(rng, 2, NewtonNodes(0, 0, 0, 0))
        with pytest.raises(NodeMismatchError):
            QtepPair(q1, q2)


class TestPairLinearize:
    def test_scalar_pair_both_verify(self):
        rng = np.random.default_rng(1)
        pair = random_pair(rng, 1, 1)
        ln1, ln2 = (construct_e1_newton(q, E1FreeParams.random(1, rng)) for q in pair)
        assert verify_linearization(ln1, pair.q1).passed
        assert verify_linearization(ln2, pair.q2).passed

    def test_zero_nodes_reduce_to_monomial_pair(self):
        rng = np.random.default_rng(2)
        pair = random_pair(rng, 1, 2, NewtonNodes())
        p1 = E1FreeParams.random(1, rng)
        p2 = E1FreeParams.random(2, rng)
        ln1, ln2 = construct_e1_newton(pair.q1, p1), construct_e1_newton(pair.q2, p2)
        pts = annulus_points(rng, 10)
        for lam, mu in zip(pts[:5], pts[5:]):
            expected = lam * ln1.A1 + mu * ln1.A2 + ln1.A3
            np.testing.assert_array_equal(ln1.eval(lam, mu), expected)

    def test_companion_params_give_transferred_companions(self):
        rng = np.random.default_rng(3)
        pair = random_pair(rng, 2, 2)
        ln1, ln2 = (construct_e1_newton(q, E1FreeParams.companion(q)) for q in pair)
        for ln, q in ((ln1, pair.q1), (ln2, pair.q2)):
            cn = companion_pencil(q)
            for a, b in zip(ln.blocks(), cn.blocks()):
                np.testing.assert_array_equal(a, b)


def zero_node_pencil(a, b, c):
    """The pencil lam A + mu B + C (up to the sign of zero entries) on zero nodes."""
    return NewtonPencil.from_blocks(NewtonNodes(), a, b, c)


def identity_delta0_pair(s=1.0):
    """Zero-node pencils with B1 = C2 = s I3 and C1 = 0, so Delta0 = -s^2 I9."""
    eye, zero = np.diag(np.full(3, s)), np.zeros((3, 3))
    return zero_node_pencil(eye, eye, zero), zero_node_pencil(eye, zero, eye)


class TestDeltaOperators:
    def test_scalar_blocks_commute_to_zero(self):
        eye = np.eye(3)
        ln = zero_node_pencil(2 * eye, 3 * eye, 5 * eye)
        delta = delta_operators(ln, ln)
        assert delta.k1 == delta.k2 == 3
        assert not delta.delta0.any()
        assert not delta.delta1.any()
        assert not delta.delta2.any()

    def test_constant_term_is_the_value_at_zero(self):
        # C = L(0, 0) as NewtonPencil.eval rounds it, bit for bit, so the node
        # order of the Gamma factors is read in one place.
        rng = np.random.default_rng(8)
        nodes = random_nodes(rng)
        ln1, ln2 = (NewtonPencil.from_blocks(nodes, *complex_normal(rng, 3, 3 * p, 3 * p))
                    for p in (1, 2))
        delta = delta_operators(ln1, ln2)
        c1, c2 = ln1.eval(0, 0), ln2.eval(0, 0)
        assert_bitwise_equal(delta.delta1, kron(ln1.A2, c2) - kron(c1, ln2.A2))
        assert_bitwise_equal(delta.delta2, kron(c1, ln2.A1) - kron(ln1.A1, c2))

    def test_identical_identity_pencils_vanish(self):
        nodes = NewtonNodes()
        eye = np.eye(3)
        ln = NewtonPencil.from_blocks(nodes, eye, eye, eye)
        delta = delta_operators(ln, ln)
        assert np.abs(delta.delta0).max() == 0
        assert np.abs(delta.delta1).max() == 0
        assert np.abs(delta.delta2).max() == 0

    def test_against_kronecker_oracle(self):
        # Li = lam Ai + mu Bi + Ci with the affine constant term
        # Ci = A3 + A1 Gamma2(0) + A2 Gamma2t(0), not the field A3.
        rng = np.random.default_rng(4)
        nodes = random_nodes(rng)
        blocks1 = [complex_normal(rng, 6, 6) for _ in range(3)]
        blocks2 = [complex_normal(rng, 6, 6) for _ in range(3)]
        ln1 = NewtonPencil.from_blocks(nodes, *blocks1)
        ln2 = NewtonPencil.from_blocks(nodes, *blocks2)
        delta = delta_operators(ln1, ln2)
        g, gt = gamma_blocks(nodes, 2, 0, 0)
        a1, b1, c1 = blocks1[0], blocks1[1], blocks1[2] + blocks1[0] @ g + blocks1[1] @ gt
        a2, b2, c2 = blocks2[0], blocks2[1], blocks2[2] + blocks2[0] @ g + blocks2[1] @ gt
        np.testing.assert_allclose(c1, ln1.eval(0, 0), atol=1e-14)
        np.testing.assert_allclose(delta.delta0,
                                   kron_oracle(a1, b2) - kron_oracle(b1, a2))
        np.testing.assert_allclose(delta.delta1,
                                   kron_oracle(b1, c2) - kron_oracle(c1, b2))
        np.testing.assert_allclose(delta.delta2,
                                   kron_oracle(c1, a2) - kron_oracle(a1, c2))

    def test_swap_antisymmetry_up_to_shuffle(self):
        rng = np.random.default_rng(5)
        nodes = random_nodes(rng)
        ln1 = NewtonPencil.from_blocks(nodes, *(complex_normal(rng, 3, 3)
                                                for _ in range(3)))
        ln2 = NewtonPencil.from_blocks(nodes, *(complex_normal(rng, 6, 6)
                                                for _ in range(3)))
        d12 = delta_operators(ln1, ln2)
        d21 = delta_operators(ln2, ln1)
        p = commutation_matrix(3, 6)
        # Entries are the same scalar products; FMA contraction in the
        # complex multiply can still shift the last bit.
        for a, b in ((d12.delta0, d21.delta0), (d12.delta1, d21.delta1),
                     (d12.delta2, d21.delta2)):
            np.testing.assert_allclose(p @ a @ p.T, -b, atol=1e-14)


class TestCertifySingular:
    def test_e1_constructions_are_singular(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p1, p2 = rng.integers(1, 4, 2)
            pair = random_pair(rng, int(p1), int(p2))
            ln1, ln2 = (construct_e1_newton(q, E1FreeParams.random(q.n, rng)) for q in pair)
            cert = certify_singular(ln1, ln2)
            assert cert.is_singular
            assert cert.structural_zero_pattern

    def test_identity_delta0_not_singular(self):
        cert = certify_singular(*identity_delta0_pair())
        assert not cert.is_singular
        assert cert.route == DENSE_SIGMA_MIN
        assert cert.value == pytest.approx(1.0)
        assert cert.frobenius == pytest.approx(3.0)
        assert cert.margin == pytest.approx(1.0 / (1e-7 * 3.0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-1074, 1023))
    def test_identity_delta0_not_singular_at_every_scale(self, k):
        # The pencils times 2^k give Delta0 = -4^k I9. The verdict and the
        # margin are taken at unit size, so they do not move by a bit; the
        # reported sizes are 4^k times those at k = 0, inf or 0 out of range
        # (at 1e80 the threshold read inf and the verdict "singular").
        base = certify_singular(*identity_delta0_pair())
        cert = certify_singular(*identity_delta0_pair(np.ldexp(1.0, k)))
        assert not cert.is_singular and cert.route == DENSE_SIGMA_MIN
        assert cert.margin == base.margin
        with np.errstate(over="ignore", under="ignore"):
            for field in ("value", "frobenius", "threshold"):
                assert getattr(cert, field) == np.ldexp(getattr(base, field), 2 * k), field

    def test_identity_delta0_margin_where_the_modulus_overflows(self):
        # s = (-1.73e308, 5.47e307) has finite parts but |s| overflows. Read
        # from |s|, the unit-size exponent was 0, and the margin read inf.
        base = certify_singular(*identity_delta0_pair())
        pair = identity_delta0_pair(-1.73e308 + 5.47e307j)
        with np.errstate(all="raise"):
            cert = certify_singular(*pair)
        assert not cert.is_singular and cert.route == DENSE_SIGMA_MIN
        assert cert.margin == pytest.approx(base.margin, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.integers(-60, 60))
    def test_e1_witness_bounds_dense_sigma_min(self, p1, p2, seed, k):
        rng = np.random.default_rng(seed)
        nodes = random_nodes(rng)
        coeffs1, coeffs2 = random_coeffs(rng, p1), random_coeffs(rng, p2)
        params1, params2 = E1FreeParams.random(p1, rng), E1FreeParams.random(p2, rng)

        def certificate(scale):
            q1, q2 = (MatrixPoly2.newton({key: scale * c for key, c in coeffs.items()},
                                         nodes) for coeffs in (coeffs1, coeffs2))
            ln1, ln2 = construct_e1_newton(q1, params1), construct_e1_newton(q2, params2)
            return ln1, ln2, certify_singular(ln1, ln2)

        ln1, ln2, cert = certificate(1.0)
        assert cert.route == KERNEL_WITNESS
        assert cert.is_singular
        assert cert.structural_zero_pattern
        d0 = delta_operators(ln1, ln2).delta0
        sigma_min = np.linalg.svd(d0, compute_uv=False)[-1]
        assert sigma_min <= cert.value * (1 + 1e-12) + 1e-15 * cert.frobenius
        scaled = certificate(2.0 ** k)[2]
        assert (scaled.route, scaled.is_singular) == (cert.route, cert.is_singular)

    def test_non_e1_triples_take_dense_route(self):
        rng = np.random.default_rng(17)
        for k1, k2 in ((3, 3), (3, 3), (3, 6), (6, 3)):
            t1 = zero_node_pencil(*(complex_normal(rng, k1, k1) for _ in range(3)))
            t2 = zero_node_pencil(*(complex_normal(rng, k2, k2) for _ in range(3)))
            cert = certify_singular(t1, t2)
            assert cert.route == DENSE_SIGMA_MIN
            assert not cert.is_singular
            d0 = delta_operators(t1, t2).delta0
            assert cert.value == np.linalg.svd(d0, compute_uv=False)[-1]
            assert cert.structural_zero_pattern is False

    def test_dense_route_forms_delta0_alone(self, monkeypatch):
        # The fallback reads sigma_min of Delta0 at unit size, as delta_operators forms it, bit
        # for bit, but forms neither Delta1 nor Delta2 (13 MB each at p = 10).
        rng = np.random.default_rng(21)
        t1, t2 = (zero_node_pencil(*(2.0 ** s * complex_normal(rng, k, k) for _ in range(3)))
                  for k, s in ((3, 40), (6, -30)))
        (a1, b1), e1 = scale_to_unit(np.stack([t1.A1, t1.A2]))
        (a2, b2), e2 = scale_to_unit(np.stack([t2.A1, t2.A2]))
        unit = (zero_node_pencil(a, b, np.zeros_like(a)) for a, b in ((a1, b1), (a2, b2)))
        value = smallest_singular_value(delta_operators(*unit).delta0)
        threshold = 1e-7 * _delta0_frobenius(a1, b1, a2, b2)
        monkeypatch.setattr(twoparam, "delta_operators", None)
        cert = certify_singular(t1, t2)
        assert cert.route == DENSE_SIGMA_MIN
        assert (cert.value, cert.threshold, cert.margin) == (
            np.ldexp(value, -e1 - e2), np.ldexp(threshold, -e1 - e2), value / threshold)

    def test_shared_c_kernels_found_by_dense_route(self):
        # Kernels in the lambda coefficients, c1 x = 0 and c2 y = 0, give
        # Delta0 (x kron y) = 0, but the mu coefficients b1 and b2 are
        # nonsingular, so the mu-kernel witness cannot see it.
        rng = np.random.default_rng(18)
        for k1, k2 in ((3, 3), (3, 6)):
            x = complex_normal(rng, k1)
            y = complex_normal(rng, k2)
            x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
            c1 = complex_normal(rng, k1, k1) @ (np.eye(k1) - np.outer(x, x.conj()))
            c2 = complex_normal(rng, k2, k2) @ (np.eye(k2) - np.outer(y, y.conj()))
            b1, b2 = complex_normal(rng, k1, k1), complex_normal(rng, k2, k2)
            assert np.linalg.svd(b1, compute_uv=False)[-1] > 1e-3
            assert np.linalg.svd(b2, compute_uv=False)[-1] > 1e-3
            cert = certify_singular(zero_node_pencil(c1, b1, b1), zero_node_pencil(c2, b2, b2))
            assert cert.route == DENSE_SIGMA_MIN
            assert cert.is_singular

    @pytest.mark.parametrize("case", ["generic", "unbalanced", "near-commuting"])
    def test_matrix_free_frobenius_matches_dense(self, case):
        rng = np.random.default_rng(19)
        for k1, k2 in ((1, 1), (3, 3), (3, 9), (12, 6)):
            c1, c2, e = (complex_normal(rng, k, k) for k in (k1, k2, k1))
            if case == "near-commuting":
                alpha = 0.7 + 0.3j
                b1, b2 = alpha * c1 + 1e-9 * e, alpha * c2
            else:
                b1, b2 = complex_normal(rng, k1, k1), complex_normal(rng, k2, k2)
                if case == "unbalanced":
                    c1 = c1 * 1e3
            got = _delta0_frobenius(b1, c1, b2, c2)
            # As (lam, mu) blocks (b1, c1) and (b2, c2): Delta0 = b1 kron c2 - c1 kron b2.
            ref = np.linalg.norm(kron_oracle(b1, c2) - kron_oracle(c1, b2))
            # Rounding the Kronecker products already moves the dense
            # reference by about eps (||B1|| ||C2|| + ||C1|| ||B2||), which is
            # ~1e-8 of ||Delta0||_F in the near-commuting case; the Gram
            # identity would be off by sqrt(eps) of that scale.
            scale = (np.linalg.norm(b1) * np.linalg.norm(c2)
                     + np.linalg.norm(c1) * np.linalg.norm(b2))
            assert abs(got - ref) <= 1e-13 * scale
            if case != "near-commuting":
                assert abs(got - ref) <= 1e-13 * ref

    def test_structural_zero_pattern_is_relative_to_the_block(self):
        # A dense pencil pair scaled by 1e-13 has no structural zeros; e1
        # pencils keep theirs at any scale.
        rng = np.random.default_rng(20)
        nodes = random_nodes(rng)
        dense = [NewtonPencil.from_blocks(nodes, *(1e-13 * complex_normal(rng, 3 * p, 3 * p)
                                                   for _ in range(3))) for p in (1, 2)]
        assert certify_singular(*dense).structural_zero_pattern is False
        pair = random_pair(rng, 1, 2, nodes)
        lns = [construct_e1_newton(q, E1FreeParams.random(q.n, rng)) for q in pair]
        for scale in (1.0, 1e-13):
            e1 = [NewtonPencil.from_blocks(nodes, *(scale * b for b in ln.blocks()))
                  for ln in lns]
            assert certify_singular(*e1).structural_zero_pattern is True

    def test_structural_null_vector(self):
        # u in ker A2(1), v in ker A2(2) gives Delta0 (u kron v) = 0 exactly.
        rng = np.random.default_rng(7)
        pair = random_pair(rng, 2, 2)
        ln1, ln2 = (construct_e1_newton(q, E1FreeParams.random(2, rng)) for q in pair)
        delta = delta_operators(ln1, ln2)
        from scipy.linalg import null_space
        u = null_space(ln1.A2)[:, 0]
        v = null_space(ln2.A2)[:, 0]
        z = np.kron(u, v)
        assert np.linalg.norm(delta.delta0 @ z) < 1e-12 * np.linalg.norm(delta.delta0)


class TestSpectrumSlice:
    def test_newton_basis_roots(self):
        q = scalar_newton(1, 0, 0, 0, 0, 0, NewtonNodes(1, 2, 0, 0))
        for mu0 in (0.0, 1.5 + 0.5j):
            roots = spectrum_slice(q, mu0)
            np.testing.assert_allclose(sorted(r.real for r in roots), [1, 2],
                                       atol=1e-10)

    def test_difference_of_squares(self):
        q = scalar_newton(1, 0, -1, 0, 0, 0)  # lam^2 - mu^2
        roots = spectrum_slice(q, 3.0)
        np.testing.assert_allclose(sorted(r.real for r in roots), [-3, 3],
                                   atol=1e-10)

    def test_degree_drop_limits_count(self):
        rng = np.random.default_rng(8)
        coeffs = {k: complex_normal(rng, 2, 2) for k in
                  ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))}
        coeffs[(2, 0)] = np.zeros((2, 2))
        q = MatrixPoly2.newton(coeffs, NewtonNodes())
        roots = spectrum_slice(q, 0.7 - 0.3j)
        assert len(roots) <= 2  # at most n finite eigenvalues

    def test_badly_scaled_slice_keeps_true_eigenvalues(self):
        # Blocks scaled by 10^-5 .. 10^5. det Q(., 1) has four roots, found
        # with 60-digit mpmath; |lambda| = 8.89e-9, 1.96e-8, 3.39e8, 1.89e9.
        # An eigenvector residual, with x read from half of [x; lam x],
        # certified none of the four computed values; sigma_min certifies
        # three. The one near 8.89e-9 has a backward error of 1.6e-8, above
        # RESIDUAL_TOL.
        roots = np.array([-4.7867738470157785e-9 + 7.4910247327900122e-9j,
                          1.6464272951141882e-8 - 1.0677066180148467e-8j,
                          201379688.40941247 - 272473748.36330442j,
                          -548412967.98599263 + 1810809871.4357614j])
        rng = np.random.default_rng(1400)
        scales = 10.0 ** rng.integers(-5, 6, 6)
        q = MatrixPoly2.newton({key: complex_normal(rng, 2, 2) * s
                                for key, s in zip(COEFF_KEYS, scales)}, NewtonNodes())
        got = np.array(spectrum_slice(q, 1.0))
        assert len(got) >= 3
        nearest = np.abs(got[:, None] - roots).argmin(axis=1)
        assert len(set(nearest)) == len(got)
        np.testing.assert_allclose(got, roots[nearest], rtol=1e-6)


def loop_spectrum_slice(q, mu0, residual_tol=1e-8):
    """Per-eigenvalue reference for spectrum_slice (its loop form): each value
    of the slice solve is kept when its own sigma_min backward error is at
    most residual_tol."""
    k2, k1, k0 = q.combine(newton_line(q.nodes, [0, mu0, 1], [1, 0, 0]))
    values, = twoparam.quadratic_eigen(k2[None], k1[None], k0[None])
    return [lam for lam in values.tolist()
            if backward_error_reference(q, mu0, lam) <= residual_tol]


def loop_distances(q_eigs, l_eigs, match_tol):
    """Per-eigenvalue reference for the matching in verify_spectrum_match."""
    dists = [min((abs(lam - le) for le in l_eigs), default=np.inf) for lam in q_eigs]
    return dists, all(d <= match_tol * max(1.0, abs(lam)) for lam, d in zip(q_eigs, dists))


def slice_cases():
    rng = np.random.default_rng(31)
    for n in (1, 2, 4, 16):
        for nodes in (NewtonNodes(), random_nodes(rng)):
            q = random_newton(rng, n, nodes)
            yield q, companion_pencil(q)
            yield q, construct_e1_newton(q, E1FreeParams.random(n, rng))
    coeffs = random_coeffs(rng, 3)
    coeffs[(2, 0)] = np.zeros((3, 3))  # degree drop: infinite eigenvalues
    q = MatrixPoly2.newton(coeffs, NewtonNodes())
    yield q, companion_pencil(q)


def scaled_pencil(pencil, factor):
    return NewtonPencil.from_blocks(pencil.nodes, *(factor * a for a in
                                                    (pencil.A1, pencil.A2, pencil.A3)))


class TestSliceVectorized:
    @pytest.mark.parametrize("q, pencil", list(slice_cases()))
    def test_matches_loop_reference_bitwise(self, q, pencil):
        report = verify_spectrum_match(q, pencil, slices=3, seed=4)
        for rec in report.records:
            assert list(rec.q_eigenvalues) == loop_spectrum_slice(q, rec.mu0)
            dists, contained = loop_distances(rec.q_eigenvalues, rec.pencil_eigenvalues,
                                              report.match_tol)
            assert list(rec.distances) == dists
            assert rec.contained == contained
        assert report.all_contained

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([1, 2, 3, 8]), st.integers(-80, 80), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_invariant_under_power_of_two_scaling(self, n, k, seed, e1):
        rng = np.random.default_rng(seed)
        q = random_newton(rng, n)
        pencil = construct_e1_newton(q, E1FreeParams.random(n, rng)) if e1 else companion_pencil(q)
        want = verify_spectrum_match(q, pencil, slices=2, seed=seed % 1000)
        got = verify_spectrum_match(scaled(q, 2.0 ** k), scaled_pencil(pencil, 2.0 ** k),
                                    slices=2, seed=seed % 1000)
        assert got.all_contained == want.all_contained
        for g, w in zip(got.records, want.records):
            assert g.q_eigenvalues == w.q_eigenvalues
            assert g.pencil_eigenvalues == w.pencil_eigenvalues
            assert g.distances == w.distances


class TestCertificateOnDemand:
    # Q slices are solved once, for values only; a slice that does not match
    # keeps the values that pass the sigma_min certificate.
    @pytest.mark.parametrize("q, pencil", list(slice_cases())[:-1])  # the last drops degree
    def test_generic_check_computes_no_eigenvectors(self, monkeypatch, q, pencil):
        shapes, real = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(a.shape) or real(a))
        assert verify_spectrum_match(q, pencil, slices=5, seed=4).all_contained
        assert shapes == []

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3, 8]), st.sampled_from(NODE_KINDS),
           st.sampled_from(["companion", "e1"]),
           st.sampled_from(["in space", "A3 moved", "another Q", "C20 = 0"]),
           st.integers(0, 2**32 - 1))
    def test_decides_as_the_always_certified_reference(self, n, kind, construction, case, seed):
        rng = np.random.default_rng(seed)
        coeffs = random_coeffs(rng, n)
        if case == "C20 = 0":
            coeffs[(2, 0)] = np.zeros((n, n))
        q = MatrixPoly2.newton(coeffs, nodes_of_kind(rng, kind))
        pencil = pencil_in_space(random_newton(rng, n, q.nodes) if case == "another Q" else q,
                                 construction, rng)
        if case == "A3 moved":
            a3 = np.array(pencil.A3)
            a3[tuple(rng.integers(3 * n, size=2))] += 1e-3 * np.abs(a3).max()
            pencil = NewtonPencil.from_blocks(pencil.nodes, pencil.A1, pencil.A2, a3)
        certified, real = [], twoparam._certified

        def spy(line, lam):
            certified.append(line)
            return real(line, lam)

        with mock.patch.object(twoparam, "_certified", spy):
            got = verify_spectrum_match(q, pencil, slices=3, seed=seed % 1000)
        want = spectrum_match_reference(q, pencil, slices=3, seed=seed % 1000)
        assert got.all_contained == want.all_contained == (case in ("in space", "C20 = 0"))
        for g, w in zip(got.records, want.records, strict=True):
            assert g.contained == w.contained
            line = slice_line(q, g.mu0)
            assert g == w if any(np.array_equal(k, line) for k in certified) else g.contained

    def test_only_the_mismatch_slice_is_certified(self, monkeypatch):
        # The pencil is the companion of Q + (mu - mu1)(mu - mu2) E, which
        # equals Q on the slices at mu1 and mu2 only.
        rng = np.random.default_rng(61)
        q = random_newton(rng, 3, NewtonNodes())
        mus = annulus_points(np.random.default_rng(5), 3)  # the slices of seed 5
        e, coeffs = complex_normal(rng, 3, 3), dict(q.coeffs)
        for key, factor in (((0, 2), 1), ((0, 1), -(mus[1] + mus[2])), ((0, 0), mus[1] * mus[2])):
            coeffs[key] = coeffs[key] + factor * e
        pencil = companion_pencil(MatrixPoly2.newton(coeffs))
        sizes, certified = [], []
        real_eigen, real_certified = twoparam.quadratic_eigen, twoparam._certified
        monkeypatch.setattr(twoparam, "quadratic_eigen",
                            lambda k2, k1, k0: sizes.append(k0.shape) or real_eigen(k2, k1, k0))
        monkeypatch.setattr(twoparam, "_certified",
                            lambda line, lam: certified.append(line) or real_certified(line, lam))
        report = verify_spectrum_match(q, pencil, slices=3, seed=5)
        assert [rec.contained for rec in report.records] == [False, True, True]
        # One chunk: one Q solve of all three slices, and no second solve.
        assert sizes == [(3, 3, 3)]
        assert len(certified) == 1 and np.array_equal(certified[0], slice_line(q, mus[0]))
        assert report == spectrum_match_reference(q, pencil, slices=3, seed=5)


class TestSliceStacks:
    # Each side's slices are solved, and backward errors taken, as stacks of at
    # most STACK_BYTES.
    @pytest.mark.parametrize("n, stack_bytes, calls", [
        (1, 1 << 20, (1, 1)), (8, 1 << 20, (1, 1)), (32, 1 << 20, (1, 1)),
        (2, 16 * 6 ** 2 * 2, (2, 3)),
    ])
    def test_one_eigen_call_per_side_per_chunk(self, monkeypatch, n, stack_bytes, calls):
        # At n = 2 a Q slice operator has 4^2 entries and a pencil slice 6^2,
        # so 16 * 6^2 * 2 bytes hold 4 Q slices or 2 pencil slices. Either
        # side calls eigvals once per chunk; the pencil slices are generic, so
        # none enters the deflation loop.
        rng = np.random.default_rng(51)
        q = random_newton(rng, n)
        pencil = construct_e1_newton(q, E1FreeParams.random(n, rng))
        monkeypatch.setattr(spaces, "STACK_BYTES", stack_bytes)
        sizes, q_sizes, looped = [], [], []
        eigvals, quadratic = np.linalg.eigvals, twoparam.quadratic_eigen
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: sizes.append(a.shape) or eigvals(a))
        monkeypatch.setattr(twoparam, "quadratic_eigen",
                            lambda *ks: q_sizes.append(ks[0].shape) or quadratic(*ks))
        monkeypatch.setattr(twoparam, "_deflate_infinite", lambda *a: looped.append(a))
        report = verify_spectrum_match(q, pencil, slices=5, seed=3)
        assert (len(q_sizes), len(sizes) - len(q_sizes)) == calls
        assert sum(shape[0] for shape in sizes) == 10
        assert all(shape[-1] == 2 * n for shape in sizes)
        assert looped == []
        assert report.all_contained

    @pytest.mark.parametrize("n, members", [(4, 3), (3, 1), (5, 16)])
    def test_certificate_svds_are_chunked(self, monkeypatch, n, members):
        # The 2n slice values and n made-up ones are certified in SVD stacks
        # of at most chunk_step(n) members, and keep bitwise what one stack keeps.
        rng = np.random.default_rng(53)
        q = random_newton(rng, n)
        mu0 = complex(annulus_points(rng, 1)[0])
        (lam,), (line,) = twoparam._q_slice_eigenvalues(q, [mu0])
        lam = np.concatenate([lam, lam[:n] + 1e-3 * (1 + np.abs(lam[:n]))])
        one_stack = twoparam._certified(line, lam)
        assert 0 < len(one_stack) < len(lam)
        monkeypatch.setattr(spaces, "STACK_BYTES", 16 * n ** 2 * members)
        stacks, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kw: stacks.append(a.shape) or svd(a, **kw))
        kept = twoparam._certified(line, lam)
        assert max(shape[0] for shape in stacks) <= spaces.chunk_step(n) == members
        assert sum(shape[0] for shape in stacks) == len(lam)
        assert_bitwise_equal(kept, one_stack)

    def test_pair_backward_errors_are_chunked(self, monkeypatch):
        # With STACK_BYTES for one 3 x 3 value, each point's backward error
        # takes its own SVD, and the sample is bitwise the one-stack sample.
        pair = random_pair(np.random.default_rng(54), 3, 3)
        one_stack = spectrum_pair_oracle(pair, seed=2)
        monkeypatch.setattr(spaces, "STACK_BYTES", 16 * 3 ** 2)
        chunks, real = [], twoparam._backward_error
        monkeypatch.setattr(twoparam, "_backward_error", lambda n, values_at, weight: real(
            n, lambda sl: chunks.append(len(values_at(sl))) or values_at(sl), weight))
        sample = spectrum_pair_oracle(pair, seed=2)
        assert chunks == [1] * 2 * len(sample.points) and sample.total_count == 36
        assert_bitwise_equal(*(np.array(s.points, dtype=complex) for s in (sample, one_stack)))

    def test_spectrum_slice_is_the_one_slice_stack(self):
        rng = np.random.default_rng(52)
        q = random_newton(rng, 3)
        mus = annulus_points(rng, 4)
        values, lines = twoparam._q_slice_eigenvalues(q, mus)
        assert ([twoparam._certified(line, lam).tolist() for line, lam in zip(lines, values)]
                == [spectrum_slice(q, mu0) for mu0 in mus])
        assert all(np.array_equal(line, slice_line(q, mu0)) for line, mu0 in zip(lines, mus))


def assert_same_finite_eigenvalues(got, want):
    """Slice by slice: both singular, or the same count of finite eigenvalues
    pairing up within 1e-8 max(1, |lambda|) in both directions."""
    for g, w in zip(got, want, strict=True):
        assert (g is None) == (w is None)
        if w is None:
            continue
        g, w = np.array(g, dtype=complex), np.array(w, dtype=complex)
        assert len(g) == len(w)
        dist = np.abs(g[:, None] - w[None, :])
        assert np.all(dist.min(axis=1) <= 1e-8 * np.maximum(1, np.abs(g)))
        assert np.all(dist.min(axis=0) <= 1e-8 * np.maximum(1, np.abs(w)))


class TestSliceRowSpace:
    # Each slice lam A1 + L(0, mu0) is solved on the row space of A1; the
    # full 3n shift and invert (tests/helpers.py::full_slice_eigenvalues) is
    # the reference.
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3, 8]), st.sampled_from(NODE_KINDS),
           st.sampled_from(["companion", "e1", (1, 1, 1), (0, 1, 0), (1, 0, 1)]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_full_solve(self, n, kind, construction, degree_drop, seed):
        rng = np.random.default_rng(seed)
        coeffs = random_coeffs(rng, n)
        if degree_drop:
            coeffs[(2, 0)] = np.zeros((n, n))  # n infinite eigenvalues in every slice
        q = MatrixPoly2.newton(coeffs, nodes_of_kind(rng, kind))
        pencil = pencil_in_space(q, construction, rng)
        assert len(twoparam.row_space(pencil.A1)[2]) == 2 * n
        mus = annulus_points(rng, 3)
        got = twoparam._pencil_slice_eigenvalues(pencil, mus)
        assert_same_finite_eigenvalues(got, full_slice_eigenvalues(pencil, mus))
        assert [len(g) for g in got] == [len(spectrum_slice(q, mu0)) for mu0 in mus]

    @pytest.mark.parametrize("scale", [1e-11, 1e-300])
    def test_tiny_ansatz_keeps_the_rank(self, scale):
        # The top block rows are scaled by `scale`; the rank is read from
        # A1 with unit rows, so they keep their rank.
        rng = np.random.default_rng(41)
        q = random_newton(rng, 3)
        pencil = construct_general_ansatz(q, [scale, 0, 0])
        assert len(twoparam.row_space(pencil.A1)[2]) == 6
        mus = annulus_points(rng, 3)
        got = twoparam._pencil_slice_eigenvalues(pencil, mus)
        assert_same_finite_eigenvalues(got, full_slice_eigenvalues(pencil, mus))
        assert all(len(g) == 6 for g in got)

    def test_full_rank_a1_matches_the_full_solve(self):
        rng = np.random.default_rng(42)
        pencil = NewtonPencil.from_blocks(random_nodes(rng), *(complex_normal(rng, 6, 6)
                                                               for _ in range(3)))
        assert len(twoparam.row_space(pencil.A1)[2]) == 6
        mus = annulus_points(rng, 4)
        got = twoparam._pencil_slice_eigenvalues(pencil, mus)
        assert_same_finite_eigenvalues(got, full_slice_eigenvalues(pencil, mus))
        assert [len(g) for g in got] == [6] * 4

    def test_zero_a1_has_no_finite_eigenvalue(self):
        rng = np.random.default_rng(43)
        zero = np.zeros((6, 6))
        pencil = NewtonPencil.from_blocks(random_nodes(rng), zero, complex_normal(rng, 6, 6),
                                          complex_normal(rng, 6, 6))
        assert len(twoparam.row_space(zero)[2]) == 0
        mus = annulus_points(rng, 2)
        assert twoparam._pencil_slice_eigenvalues(pencil, mus) == [[], []]
        assert full_slice_eigenvalues(pencil, mus) == [[], []]


class TestSliceDeflation:
    # A1 is factored once per pencil; a slice whose W22 is regular relative to
    # the whole slice is solved from n x n factorizations, and every other
    # slice (and every slice of a full-rank or zero A1) by the deflation loop
    # twoparam._deflate_infinite, which works on the row space of A1 too.
    def test_generic_slice_factors_no_3n_matrix(self, monkeypatch):
        rng = np.random.default_rng(44)
        n = 32
        q = random_newton(rng, n)
        pencil = construct_e1_newton(q, E1FreeParams.random(n, rng))
        mus = annulus_points(rng, 5)
        want = full_slice_eigenvalues(pencil, mus)
        shapes = []

        def spy(name, real):
            return lambda a, *args, **kw: shapes.append((name, np.shape(a))) or real(a, *args, **kw)

        for name in ("svd", "solve", "inv", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
        got = twoparam._pencil_slice_eigenvalues(pencil, mus)
        # The one 3n x 3n factorization is the SVD of A1, once for all slices.
        assert [s for s in shapes if s[1][-1] == 3 * n] == [("svd", (3 * n, 3 * n))]
        assert ("svd", (5, n, n)) in shapes and ("eigvals", (5, 2 * n, 2 * n)) in shapes
        assert [len(g) for g in got] == [2 * n] * 5
        assert_same_finite_eigenvalues(got, want)

    def test_generic_slice_pass_evaluates_no_pencil(self, monkeypatch):
        # The unit-row pencil's mu coefficient and constant term L(0, 0) are moved
        # to A1's singular bases once, so a slice is W = mu0 B^ + C^: the pencil
        # is evaluated once, at (0, 0), and never per slice.
        rng = np.random.default_rng(46)
        q = random_newton(rng, 64)
        calls, real = [], NewtonPencil.eval
        monkeypatch.setattr(NewtonPencil, "eval",
                            lambda self, *args: calls.append(args) or real(self, *args))
        assert verify_spectrum_match(q, companion_pencil(q), slices=7).all_contained
        assert calls == [(0, 0)]

    def test_slice_out_of_range_is_named(self):
        # Unit rows keep a slice of finite blocks finite unless nodes near the
        # top of the double range overflow C = L(0, 0).
        rng = np.random.default_rng(47)
        ones = np.ones((3, 3))
        pencil = NewtonPencil.from_blocks(NewtonNodes(1e308, 1e308, 1e308, 1e308), ones, ones,
                                          np.zeros((3, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the pencil values at the slice "
                                                 r"mu0=\(\S+, \S+\) overflow the double range$"):
                twoparam._pencil_slice_eigenvalues(pencil, annulus_points(rng, 2))

    @pytest.mark.parametrize("case", ["degree drop", "full-rank A1", "zero A1"])
    def test_degenerate_slices_take_the_row_space_solve(self, case):
        rng = np.random.default_rng(45)
        coeffs = random_coeffs(rng, 3)
        coeffs[(2, 0)] = np.zeros((3, 3))
        pencil = construct_e1_newton(MatrixPoly2.newton(coeffs, random_nodes(rng)),
                                     E1FreeParams.random(3, rng))
        if case != "degree drop":
            a1 = complex_normal(rng, 9, 9) if case == "full-rank A1" else np.zeros((9, 9))
            pencil = NewtonPencil.from_blocks(pencil.nodes, a1, pencil.A2, pencil.A3)
        mus = annulus_points(rng, 4)
        with mock.patch.object(twoparam, "_deflate_infinite",
                               wraps=twoparam._deflate_infinite) as loop:
            got = twoparam._pencil_slice_eigenvalues(pencil, mus)
        assert loop.call_count == 4
        if case == "zero A1":
            assert got == full_slice_eigenvalues(pencil, mus) == [[]] * 4
        else:
            assert_same_finite_eigenvalues(got, full_slice_eigenvalues(pencil, mus))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 3, 8]), st.sampled_from(NODE_KINDS),
           st.sampled_from(["companion", "e1", (1, 1, 1), (0, 1, 0), (1, 0, 1)]),
           st.integers(0, 2**32 - 1))
    def test_regularity_is_relative_to_the_whole_slice(self, n, kind, construction, seed):
        # With C20 = 0 a slice has fewer than 2n finite eigenvalues, so W22 is
        # singular; its entries are rounding-sized, so that sigma_min(W22) is
        # small next to ||W||_F but not next to sigma_max(W22).
        rng = np.random.default_rng(seed)
        coeffs = random_coeffs(rng, n)
        coeffs[(2, 0)] = np.zeros((n, n))
        pencil = pencil_in_space(MatrixPoly2.newton(coeffs, nodes_of_kind(rng, kind)),
                                 construction, rng)
        mus = annulus_points(rng, 3)
        with mock.patch.object(twoparam, "_deflate_infinite",
                               wraps=twoparam._deflate_infinite) as loop:
            got = twoparam._pencil_slice_eigenvalues(pencil, mus)
        assert loop.call_count == 3
        assert_same_finite_eigenvalues(got, full_slice_eigenvalues(pencil, mus))


    @pytest.mark.parametrize("size", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_jordan_blocks_at_infinity_deflate_by_rank(self, size, seed):
        # tests/helpers.py::masked_jordan as the slice lam B - A of a zero-node
        # pencil (A1 = B, A2 = 0, A3 = -A), padded to 3n with finite values and
        # mixed by unitary maps: every slice has exactly the finite values.
        rng = np.random.default_rng(seed)
        a, b = masked_jordan(rng, size)
        n = (size + 2) // 3 + 1
        extra = annulus_points(rng, 3 * n - size - 2)
        a = np.block([[a, np.zeros((size + 2, len(extra)))],
                      [np.zeros((len(extra), size + 2)), np.diag(extra)]])
        b = np.block([[b, np.zeros((size + 2, len(extra)))],
                      [np.zeros((len(extra), size + 2)), np.eye(len(extra))]])
        u, v = random_unitary(rng, 3 * n), random_unitary(rng, 3 * n)
        pencil = NewtonPencil.from_blocks(NewtonNodes(), u @ b @ v, np.zeros_like(a), -u @ a @ v)
        want = np.array([-3, 2, *extra])
        for got in twoparam._pencil_slice_eigenvalues(pencil, annulus_points(rng, 3)):
            assert got is not None and len(got) == len(want)
            dist = np.abs(np.array(got)[:, None] - want[None, :])
            assert dist.min(axis=0).max() <= 1e-10 and dist.min(axis=1).max() <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3, 8]), st.sampled_from(["companion", "e1", (1, 1, 1)]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_counts_are_invariant_under_scaled_unitary_maps(self, n, construction,
                                                            degree_drop, seed):
        # P L R with P and R random unitary matrices times 10^U(-6, 6) has the
        # eigenvalues of L; on zero nodes it is the pencil lam P A1 R + P L(0, mu0) R.
        rng = np.random.default_rng(seed)
        coeffs = random_coeffs(rng, n)
        if degree_drop:
            coeffs[(2, 0)] = np.zeros((n, n))
        pencil = pencil_in_space(MatrixPoly2.newton(coeffs), construction, rng)
        p, r = (random_unitary(rng, 3 * n) * 10 ** rng.uniform(-6, 6) for _ in range(2))
        mapped = NewtonPencil.from_blocks(pencil.nodes, *(p @ a @ r for a in pencil.blocks()))
        mus = annulus_points(rng, 3)
        assert_same_finite_eigenvalues(*(twoparam._pencil_slice_eigenvalues(ln, mus)
                                         for ln in (pencil, mapped)))


class TestExactlyDefectiveSlices:
    # Exact structure gives (nearly) parallel eigenvectors, so the first-order
    # radius of a finite eigenvalue is huge; it must still read finite.
    J2 = np.array([[0, 1.0], [0, 0]])
    I2 = np.eye(2)

    @pytest.mark.parametrize("k2, k1, k0, roots", [
        (I2, 0 * I2, 0 * I2, [0] * 4),
        (I2, 0 * I2, J2, [0] * 4),
        (I2, J2, 0 * I2, [0] * 4),
        (J2, I2, I2, [-1] * 2),
        (I2, np.array([[2, 1.0], [0, 2]]), np.array([[1, 0.5], [0, 1]]), [-1] * 4),
        (np.eye(3), 0 * np.eye(3), 0 * np.eye(3), [0] * 6),
    ])
    def test_roots(self, k2, k1, k0, roots):
        zero = np.zeros_like(k0)
        q = MatrixPoly2.newton({(2, 0): k2, (1, 1): zero, (0, 2): zero,
                                  (1, 0): k1, (0, 1): zero, (0, 0): k0})
        np.testing.assert_allclose(spectrum_slice(q, 0.3), roots, atol=1e-6)


class TestVerifySpectrumMatch:
    def test_companion_transfer_containment(self):
        rng = np.random.default_rng(9)
        qn = random_newton(rng, 2)
        report = verify_spectrum_match(qn, companion_pencil(qn), slices=5, seed=1)
        assert report.all_contained
        for rec in report.records:
            assert not rec.pencil_singular
            for d in rec.distances:
                assert d <= 1e-6

    def test_zero_node_companion_roots_match_polynomial(self):
        # q = lam^2 + mu^2 + 1: on every slice the pencil eigenvalues solve q.
        q = scalar_newton(1, 0, 1, 0, 0, 1)
        pencil = companion_pencil(q)
        report = verify_spectrum_match(q, pencil, slices=4, seed=2)
        assert report.all_contained
        for rec in report.records:
            for lam in rec.pencil_eigenvalues:
                val = lam ** 2 + rec.mu0 ** 2 + 1
                assert abs(val) < 1e-8

    def test_pencil_of_another_problem_rejected(self):
        rng = np.random.default_rng(11)
        q2, q3 = random_newton(rng, 2, NewtonNodes()), random_newton(rng, 3, NewtonNodes())
        with pytest.raises(ValueError, match="size mismatch: pencil n=3, polynomial n=2"):
            verify_spectrum_match(q2, companion_pencil(q3), slices=1)
        with pytest.raises(NodeMismatchError):
            verify_spectrum_match(q2, companion_pencil(random_newton(rng, 2)), slices=1)

    @pytest.mark.parametrize("slices", [0, -2])
    def test_fewer_than_one_slice_rejected(self, slices):
        # 0 slices used to report all_contained with no records, and -2
        # failed inside numpy.
        q = scalar_newton(1, 0, 1, 0, 0, 1)
        with pytest.raises(ValueError, match=f"slices must be at least 1, got {slices}"):
            verify_spectrum_match(q, companion_pencil(q), slices=slices)

    def test_failed_detcond_flagged(self):
        rng = np.random.default_rng(10)
        qn = random_newton(rng, 2)
        n = 2
        zero = np.zeros((n, n))
        z1 = np.vstack([complex_normal(rng, n, n), zero, zero])
        z2 = np.vstack([complex_normal(rng, n, n), zero, zero])
        pencil = NewtonPencil.from_blocks(
            qn.nodes, *assemble_e1_blocks_reference(qn, E1FreeParams.build(zero, z1, z2)))
        report = verify_spectrum_match(qn, pencil, slices=3, seed=3)
        assert not report.all_contained
        assert any(rec.pencil_singular for rec in report.records)


# A generic 1 x 2 Newton pair and a solve seed on which a rank completion of
# the whole 9 p1 p2 Delta pencil kept 10 eigenvalues, a split infinite pair
# among them, with two points at backward error 2.8e-1, and had to be drawn
# again. Coefficients in COEFF_KEYS order, each block row-major.
REDRAW_PAIR = (
    [-0.5450274554640261-0.3349580571993985j, 0.017581512432457917+0.2830845715477782j,
     0.7486951515468797+0.9435626826615046j, 0.38349348955635304-0.24388833622809503j,
     -0.7051289043387394-1.8511933467499013j, 0.23684815938691128+0.5198860415794132j],
    [[0.1126559084870215-0.13445907372165997j, -0.5938636683778051-0.46331579612595447j,
      1.2460499287921007+0.9714020626142814j, 0.4620404000666952+0.15266390879124758j],
     [-0.8783227726199846+0.08277176604611715j, 1.6304931282071904+1.3105210004674341j,
      -0.22386529727078558-0.9004487578478275j, -1.3885000838654953-0.1581551317141277j],
     [0.550203016424498+0.8183817344555825j, 0.7186618063706852+0.2457763152199075j,
      -0.11871451439078098+1.125403207637794j, 0.11876928197910992-0.8068003363792967j],
     [-1.3745544146465398-0.11288580183618291j, -1.6012272812214694+0.6019854683230482j,
      -0.4277219033417126+0.002491754521191818j, -0.5235006538883881-1.0784659591836345j],
     [-1.1371711593815903+0.6906194073780958j, 0.1613182735976757-0.05276057023795601j,
      -1.0947076677000307-0.2835612328716519j, -0.0934199903344953-0.5757369052997144j],
     [-1.1538522725309408-0.5966149231539459j, -0.8337696674385284-0.29226110440304054j,
      -0.8074776359484603+1.0246939681040546j, 0.2931169979593868+0.40207671406733003j]],
)
REDRAW_NODES = NewtonNodes(-0.24804946198974062-0.2845854815261j,
                           -0.7135339990324057-0.8405491446079998j,
                           0.23107324858524594-0.3260692156591785j,
                           -0.8267105039455396+0.9025924907545126j)
REDRAW_SEED = 1022241847


# Degenerate scalar pairs, coefficients in scalar_newton order (C20, C11,
# C02, C10, C01, C00), with their sorted multiplicities or SharedFactorError.
DEGENERATE_PAIRS = (
    (((0, 1, 0, -1, 0, 0), (0, 0, 0, 1, 0, -1)), [1]),      # lam mu - lam, lam - 1
    (((1, 0, 0, -1, 0, 0), (0, 0, 0, 1, 0, 0)), SharedFactorError),   # lam^2 - lam, lam
    (((1, 0, 0, -1, 0, 0), (0, 1, 0, 0, 0, 0)), SharedFactorError),   # lam^2 - lam, lam mu
    (((1, 0, 0, 0, 0, -1), (0, 0, 0, 1, 0, -1)), SharedFactorError),  # lam^2 - 1, lam - 1
    (((0, 1, 0, 0, 0, -1), (1, 0, -1, 0, 0, 0)), [1, 1, 1, 1]),       # lam mu - 1, lam^2 - mu^2
    (((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)), [4]),        # lam^2, mu^2
    (((-1, 0, 0, 0, 1, 0), (0, 0, 0, 0, 1, 0)), [2]),       # mu - lam^2, mu
    (((-1, 0, 0, 0, 1, 0), (-1, -1, 0, 0, 1, 0)), [3]),     # mu - lam^2, mu - lam^2 - lam mu
    (((0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0)), [2]),        # lam mu, lam + mu
    (((1, 0, 0, 0, -1, 0), (0, 1, 0, 0, 0, -1)), [1, 1, 1]),  # lam^2 - mu, lam mu - 1
    (((0, 0, 0, 1, 0, -1), (0, 0, 0, 1, 0, -1)), SharedFactorError),  # lam - 1 twice: empty part
)

LAM_1 = (0, 0, 0, 1, 0, -1)  # lam - 1
# Pairs whose determinants both drop degree, each polynomial a diagonal of
# scalars in scalar_newton order, with their common zeros. Read as
# quadratics, the determinants share the line at infinity.
DEGREE_DROP_PAIRS = {
    "mu-1": (((LAM_1,), ((0, 0, 0, 0, 1, -1),)), [(1, 1)]),
    "lam-2": (((LAM_1,), ((0, 0, 0, 1, 0, -2),)), []),
    "lines": ((((0, 0, 0, 1, 1, -3),), ((0, 0, 0, 1, -1, -1),)), [(2, 1)]),
    "diagonal": (((LAM_1, (0, 0, 0, 0, 1, -1)), ((0, 0, 0, 1, 0, -2), (0, 0, 0, 0, 1, -3))),
                 [(1, 3), (2, 1)]),
}
# Pairs that both drop degree and also share the finite factor lam - 1.
MIXED_PAIRS = {
    "lines": ((LAM_1, (0, 0, 0, 1, 0, -2)), (LAM_1, (0, 0, 0, 0, 1, -3))),
    "circle": ((LAM_1, (1, 0, 1, 0, 0, -2)), (LAM_1, (0, 0, 0, 0, 1, -3))),
}


# Sparse 2 x 2 integer pairs: per polynomial its blocks in COEFF_KEYS order (0 for a
# zero block), then the nodes. The resultant of the first pair's determinants has
# degree 7, so it has 7 finite common zeros. The second has determinants of gcd 1 and
# 9 finite common zeros.
SEVEN_ZERO_PAIR = (
    ([[-2, -2], [0, 2]], 0, [[0, 2], [0, 0]], 0, [[0, -2], [0, 1]], [[1, -1], [0, 0]]),
    ([[-1, 0], [0, 2]], [[-1, -2], [0, 0]], 0, [[0, -1], [-1, 0]], [[2, 0], [0, 0]],
     [[0, -2], [-1, 0]]),
    NewtonNodes(),
)
COPRIME_PAIR = (
    ([[0, 0], [2, 0]], [[0, 0], [1, 2]], [[-1, 0], [-1, -2]], [[-1, 2], [0, 0]],
     [[-1, 0], [0, -1]], [[0, 1], [0, 1]]),
    ([[0, 0], [0, -1]], 0, [[0, 0], [2, 0]], [[0, 0], [-2, 1]], [[0, -1], [0, -1]], 0),
    NewtonNodes(0, -1, -1, -1),
)


def integer_pair(q1, q2, nodes):
    return QtepPair(*(MatrixPoly2.newton({key: np.zeros((2, 2)) + block
                                          for key, block in zip(COEFF_KEYS, blocks)}, nodes)
                      for blocks in (q1, q2)))


def diagonal_pair(diagonals):
    """The pair of diagonal polynomials given by ``diagonals``: per polynomial,
    one tuple of coefficients in COEFF_KEYS order per diagonal entry."""
    return QtepPair(*(MatrixPoly2.newton({key: np.diag([c[i] for c in diagonal])
                                          for i, key in enumerate(COEFF_KEYS)})
                      for diagonal in diagonals))


def meets_at_infinity(pair, rng) -> bool:
    """The count check's line test on a random parametrization of the line at infinity."""
    p, r = (np.append(complex_normal(rng, 2), 0) for _ in range(2))
    return twoparam._meet_on_line(pair, p, r) <= 1


def staircase_and_full_deficiency(pair, seed):
    """k as the oracle counts it at ``seed``, the right steps' deflation plus
    the regular part's normal-rank deficiency, and the reference: the
    normal-rank deficiency of the whole 9 p1 p2 pencil Delta1 + c Delta2 -
    sigma Delta0."""
    rng = np.random.default_rng(seed)
    pair = QtepPair(*(q.at_unit_size()[0] for q in pair))
    delta = delta_operators(*(construct_e1_newton(q, E1FreeParams.random(q.n, rng))
                              for q in pair))
    c = complex_normal(rng)
    (d0, d1, d2), _, deflated = twoparam._regular_part(delta)
    part = twoparam._rank_deficiency(d1 + c * d2, d0, np.random.default_rng(seed))
    full = twoparam._rank_deficiency(delta.delta1 + c * delta.delta2, delta.delta0,
                                     np.random.default_rng(seed))
    return deflated + part, full


class TestSpectrumPairOracle:
    def test_tangential_intersection_multiplicities(self):
        # f = lam^2 + mu^2 - 2 and g = lam mu - 1 touch at (1,1), (-1,-1).
        pair = QtepPair(scalar_newton(1, 0, 1, 0, 0, -2),
                        scalar_newton(0, 1, 0, 0, 0, -1))
        sample = spectrum_pair_oracle(pair)
        assert sample.total_count == 4
        assert len(sample.points) == 2
        got = sorted(sample.points, key=lambda p: p.lam.real)
        for pt, want in zip(got, [(-1, -1), (1, 1)]):
            assert pt.multiplicity == 2
            assert abs(pt.lam - want[0]) < 1e-5
            assert abs(pt.mu - want[1]) < 1e-5

    def test_separable_pair(self):
        pair = QtepPair(scalar_newton(1, 0, 0, 0, 0, -1),
                        scalar_newton(0, 0, 1, 0, 0, -1))
        sample = spectrum_pair_oracle(pair)
        assert sample.total_count == 4
        pts = sorted((round(p.lam.real), round(p.mu.real)) for p in sample.points)
        assert pts == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_identical_determinants_shared_factor(self):
        q = scalar_newton(1, 0, 1, 0, 0, -2)
        with pytest.raises(SharedFactorError):
            spectrum_pair_oracle(QtepPair(q, q))

    def test_generic_pairs_count_and_residuals(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            pair = random_pair(rng, 1, 1, NewtonNodes())
            sample = spectrum_pair_oracle(pair)
            assert sample.total_count == 4
            assert all(p.residual < 1e-8 for p in sample.points)

    def test_points_zero_both_pencil_determinants(self):
        rng = np.random.default_rng(12)
        pair = random_pair(rng, 1, 1)
        params1 = E1FreeParams.random(1, rng)
        params2 = E1FreeParams.random(1, rng)
        ln1, ln2 = construct_e1_newton(pair.q1, params1), construct_e1_newton(pair.q2, params2)
        sample = spectrum_pair_oracle(pair)
        ref = annulus_points(rng, 16)
        for ln in (ln1, ln2):
            scale = max(abs(det(ln.eval(l, m))) for l, m in zip(ref[:8], ref[8:]))
            for pt in sample.points:
                assert abs(det(ln.eval(pt.lam, pt.mu))) <= 1e-7 * scale

    def test_bezout_ceiling_random_trials(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            p1, p2 = (int(x) for x in rng.integers(1, 3, 2))
            pair = random_pair(rng, p1, p2)
            sample = spectrum_pair_oracle(pair)
            assert sample.total_count <= sample.bezout_bound
            assert sample.bezout_bound == 4 * p1 * p2

    def test_desk_scale_guard(self):
        rng = np.random.default_rng(14)
        pair = random_pair(rng, 4, 1)
        with pytest.raises(ValueError, match="desk scale"):
            spectrum_pair_oracle(pair)

    @pytest.mark.parametrize("kind", NODE_KINDS)
    @pytest.mark.parametrize("p", [4, 6])
    def test_staircase_above_desk_scale(self, monkeypatch, kind, p):
        # With the limit raised, random p x p pairs still give all 4 p^2
        # points, each within RESIDUAL_TOL (or the solve raises).
        monkeypatch.setattr(twoparam, "DESK_SCALE_LIMIT", 6)
        rng = np.random.default_rng(40 + p)
        sample = spectrum_pair_oracle(random_pair(rng, p, p, nodes_of_kind(rng, kind)), seed=p)
        assert sample.total_count == sample.bezout_bound == 4 * p * p

    @pytest.mark.parametrize("nodes", [NewtonNodes(1, 2, 0.5, -1), NewtonNodes()],
                             ids=["newton", "zero"])
    def test_full_3x3_spectrum_lies_on_both_slices(self, nodes):
        # 36 = 4 p1 p2 points that each pass the gate are the whole spectrum
        # (Bezout). Second route: at each mu, lam is an eigenvalue of the
        # one-parameter slices Q1(., mu) and Q2(., mu), solved by their companion
        # pencils.
        rng = np.random.default_rng(15)
        for trial in range(20):
            pair = random_pair(rng, 3, 3, nodes)
            sample = spectrum_pair_oracle(pair, seed=trial)
            assert sample.total_count == len(sample.points) == 36, trial
            for pt in sample.points:
                assert pt.residual <= 1e-8
                for q in (pair.q1, pair.q2):
                    dist = min(abs(pt.lam - lam) for lam in spectrum_slice(q, pt.mu))
                    assert dist <= 1e-6 * max(1.0, abs(pt.lam)), (trial, pt)

    @pytest.mark.parametrize("seed", range(6))
    def test_tangential_multiplicity_for_any_seed(self, seed):
        pair = QtepPair(scalar_newton(1, 0, 1, 0, 0, -2),
                        scalar_newton(0, 1, 0, 0, 0, -1))
        sample = spectrum_pair_oracle(pair, seed=seed)
        assert [p.multiplicity for p in sample.points] == [2, 2]
        assert all(p.residual <= 1e-8 for p in sample.points)

    @pytest.mark.parametrize("k", [-60, 60])
    def test_spectrum_invariant_under_power_of_two_scaling(self, k):
        rng = np.random.default_rng(16)
        pair = random_pair(rng, 2, 2)
        scaled_pair = QtepPair(scaled(pair.q1, 2.0 ** k), pair.q2)
        # Each polynomial is rescaled by a power of two first, so bit for bit.
        ref, got = spectrum_pair_oracle(pair), spectrum_pair_oracle(scaled_pair)
        assert ref.total_count == 16
        assert got == ref

    @pytest.mark.parametrize("k", [-600, -540, 540, 600, 900])
    def test_spectrum_invariant_beyond_the_squared_range(self, k):
        # 2^k with |k| > 511: a Frobenius norm of the blocks under- or overflows
        # (exit 3 or "SVD did not converge"), their largest entry does not.
        pair = random_pair(np.random.default_rng(5), 2, 2, NewtonNodes())
        got = spectrum_pair_oracle(QtepPair(scaled(pair.q1, 2.0 ** k), scaled(pair.q2, 2.0 ** k)))
        assert got == spectrum_pair_oracle(pair)

    @pytest.mark.parametrize("name", DEGREE_DROP_PAIRS)
    def test_shared_line_at_infinity_is_solved(self, name):
        # lam - 1 with mu - 1 (one common zero) or lam - 2 (none), and so on:
        # both determinants drop degree, so read as quadratics they share the
        # line at infinity and the Delta pencil loses rank beyond p1 p2. They
        # share no finite factor, so the regular part is solved as usual.
        diagonals, want = DEGREE_DROP_PAIRS[name]
        for seed in range(10):
            sample = spectrum_pair_oracle(diagonal_pair(diagonals), seed=seed)
            assert (sample.total_count, len(sample.points)) == (len(want), len(want))
            for pt, (lam, mu) in zip(sample.points, want):
                assert abs(pt.lam - lam) <= 1e-12 and abs(pt.mu - mu) <= 1e-12, (seed, pt)
                assert pt.multiplicity == 1 and pt.residual <= 1e-12

    @pytest.mark.parametrize("name", MIXED_PAIRS)
    @pytest.mark.parametrize("seed", range(10))
    def test_shared_factor_and_degree_drop(self, name, seed):
        # Both determinants drop degree and share lam - 1: they meet on the
        # random finite line too, so this is a shared factor, not a solved pair.
        with pytest.raises(SharedFactorError, match=r"rank deficiency \d+ > p1 p2 = 4, .* "
                                                    r"\(sigma_min / threshold \S+ <= 1\)"):
            spectrum_pair_oracle(diagonal_pair(MIXED_PAIRS[name]), seed=seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_sparse_pair_double_point(self, seed):
        # mu - lam^2 and mu touch at the origin. Q2 = mu has one nonzero
        # block, so a backward error that weighed each basis term by its own
        # block would read 1 at every mu != 0.
        pair = QtepPair(scalar_newton(-1, 0, 0, 0, 1, 0), scalar_newton(0, 0, 0, 0, 1, 0))
        sample = spectrum_pair_oracle(pair, seed=seed)
        assert [p.multiplicity for p in sample.points] == [2]
        assert abs(sample.points[0].lam) < 1e-6 and abs(sample.points[0].mu) < 1e-6
        assert sample.points[0].residual <= 1e-8

    @pytest.mark.parametrize("mu_part", [(1, 0, 0, -2 * np.sqrt(2), 0, 2), (-1, 0, -1, 0, 1, 0)],
                             ids=["circle-doubled-tangent", "fourth-order-contact"])
    @pytest.mark.parametrize("seed", range(8))
    def test_multiplicity_four_point(self, mu_part, seed):
        # The circle lam^2 + mu^2 - 2 with the doubled line (lam - sqrt 2)^2,
        # and the parabolas mu = lam^2, mu = lam^2 + mu^2: one point of
        # multiplicity 4 each. Its eigenvalues split by about eps^(1/4).
        first = (1, 0, 1, 0, 0, -2) if mu_part[3] else (-1, 0, 0, 0, 1, 0)
        pair = QtepPair(scalar_newton(*first), scalar_newton(*mu_part))
        want = (np.sqrt(2), 0) if mu_part[3] else (0, 0)
        sample = spectrum_pair_oracle(pair, seed=seed)
        assert [p.multiplicity for p in sample.points] == [4]
        pt = sample.points[0]
        assert abs(pt.lam - want[0]) < 1e-3 and abs(pt.mu - want[1]) < 1e-3
        assert pt.residual <= 1e-8

    def test_gate_failures_raise(self, monkeypatch):
        # Points above the backward-error gate are never dropped in silence.
        pair = random_pair(np.random.default_rng(17), 1, 1)
        monkeypatch.setattr(twoparam, "RESIDUAL_TOL", 0.0)
        with pytest.raises(DegenerateProblemError, match="backward error above"):
            spectrum_pair_oracle(pair)

    def test_redraw_pair_in_one_pass(self):
        # The pair on which a rank completion kept a split infinite pair at
        # backward error 2.8e-1: the regular part gives its 4 p1 p2 points at once.
        pair = QtepPair(*(MatrixPoly2.newton({key: np.reshape(block, (p, p)) for key, block
                                              in zip(COEFF_KEYS, blocks)}, REDRAW_NODES)
                          for p, blocks in zip((1, 2), REDRAW_PAIR)))
        sample = spectrum_pair_oracle(pair, seed=REDRAW_SEED)
        assert (sample.total_count, len(sample.points)) == (8, 8)
        assert max(pt.residual for pt in sample.points) <= 1e-12

    def test_missing_points_raise(self, monkeypatch):
        # With no eigenvalue grouped the count is 0 < 4 p1 p2, and a generic
        # pair has no common point at infinity: Bezout says points are missing.
        pair = random_pair(np.random.default_rng(18), 1, 2)
        monkeypatch.setattr(twoparam, "_clusters", lambda *args: [])
        with pytest.raises(DegenerateProblemError,
                           match=r"no point at infinity \(sigma_min / threshold \S+ > 1\)"):
            spectrum_pair_oracle(pair)

    @pytest.mark.parametrize("coeffs,want", DEGENERATE_PAIRS,
                             ids=[f"pair{i}" for i in range(len(DEGENERATE_PAIRS))])
    @pytest.mark.parametrize("seed", range(10))
    def test_degenerate_pairs(self, coeffs, want, seed):
        # Points at infinity, multiple points and shared factors, each with
        # the same outcome at every seed.
        pair = QtepPair(*(scalar_newton(*c) for c in coeffs))
        if want is SharedFactorError:
            with pytest.raises(SharedFactorError):
                spectrum_pair_oracle(pair, seed=seed)
            return
        sample = spectrum_pair_oracle(pair, seed=seed)
        assert sorted(p.multiplicity for p in sample.points) == want
        assert sample.total_count == sum(want)
        assert all(p.residual <= 1e-12 for p in sample.points)

    @pytest.mark.parametrize("blocks", [("f", "fg"), ("fg", "fh")])
    @pytest.mark.parametrize("seed", range(10))
    def test_block_diagonal_shared_factor(self, blocks, seed):
        # Random scalar quadratics f, g, h: f with diag(f, g), and diag(f, g)
        # with diag(f, h), share the factor f. The staircase deflates f
        # completely, so a rank test of the regular part alone would miss it.
        rng = np.random.default_rng(seed)
        scalars = {name: random_coeffs(rng, 1) for name in "fgh"}
        pair = QtepPair(*(MatrixPoly2.newton({key: np.diag([scalars[x][key][0, 0] for x in names])
                                              for key in COEFF_KEYS}) for names in blocks))
        with pytest.raises(SharedFactorError):
            spectrum_pair_oracle(pair, seed=seed)

    @pytest.mark.parametrize("kind", NODE_KINDS)
    def test_generic_regular_part_is_square_and_nonsingular(self, kind):
        # One right and one left step take the 9 p1 p2 triple to 4 p1 p2,
        # where Delta0 is nonsingular and no point needs a polish.
        rng = np.random.default_rng(20)
        for p1, p2 in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
            pair = random_pair(rng, p1, p2, nodes_of_kind(rng, kind))
            params = E1FreeParams.random(p1, rng), E1FreeParams.random(p2, rng)
            (d0, d1, d2), at_infinity, deflated = twoparam._regular_part(
                delta_operators(*map(construct_e1_newton, pair, params)))
            assert d0.shape == d1.shape == d2.shape == (4 * p1 * p2, 4 * p1 * p2)
            assert not at_infinity
            assert deflated == p1 * p2
            sv = np.linalg.svd(d0, compute_uv=False)
            assert sv[-1] > 1e-8 * sv[0]
            sample = spectrum_pair_oracle(pair, seed=int(rng.integers(1000)))
            assert sample.total_count == 4 * p1 * p2
            assert all(p.residual <= 1e-12 for p in sample.points)

    @pytest.mark.parametrize("p,seed", [(5, 5005), (6, 6000)])
    def test_tall_right_step_blocks_are_factored(self, p, seed):
        # The right step's kept block of Delta0 is tall. On these two triples
        # the divide and conquer SVD of OpenBLAS 0.3.31 (x86-64) did not
        # converge on it ("SVD did not converge"), and it does on its adjoint.
        rng = np.random.default_rng(seed)
        nodes = nodes_of_kind(rng, "newton")
        pair = QtepPair(*(random_newton(rng, p, nodes).at_unit_size()[0] for _ in range(2)))
        delta = delta_operators(*(construct_e1_newton(q, E1FreeParams.random(p, rng))
                                  for q in pair))
        (d0, _, _), at_infinity, deflated = twoparam._regular_part(delta)
        assert d0.shape == (4 * p * p, 4 * p * p)
        assert (at_infinity, deflated) == (False, p * p)

    @pytest.mark.parametrize("coeffs,meets", [
        (((1, 0, 1, 0, 0, -2), (0, 1, 0, 0, 0, -1)), False),    # l^2 + m^2, l m
        (((1, 0, 1, 0, 0, -2), (1, 0, 0, 0, 0, -2)), False),    # l^2 + m^2, l^2
        (((-1, 0, 0, 0, 1, 0), (-1, -1, 0, 0, 1, 0)), True),    # l^2, l^2 + l m
        (((-1, 0, 0, 0, 1, 0), (0, 0, 0, 0, 1, 0)), True),      # degree drop
    ])
    def test_meets_at_infinity(self, coeffs, meets):
        pair = QtepPair(*(scalar_newton(*c) for c in coeffs))
        for seed in range(4):
            assert meets_at_infinity(pair, np.random.default_rng(seed)) is meets
        generic = random_pair(np.random.default_rng(19), 2, 3)
        assert not meets_at_infinity(generic, np.random.default_rng(0))

    def test_line_test_builds_one_basis(self, monkeypatch):
        # Q1's (K2, K1, K0) on the line and Q2's basis at its roots come from
        # one newton_line call.
        calls, real = [], matpoly.newton_line
        def spy(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(matpoly, "newton_line", spy)
        monkeypatch.setattr(twoparam, "newton_line", spy)
        rng = np.random.default_rng(22)
        pair = random_pair(rng, 2, 3)
        assert np.isfinite(twoparam._meet_on_line(pair, *complex_normal(rng, 2, 3)))
        assert len(calls) == 1

    def test_count_is_capped_by_the_rank_of_delta0(self):
        # At seed 3 a 9-fold point near (0.25 + 0.61i, 31720 - 10127i), residual
        # 1.3e-10, made 16 = 4 p1 p2 points, while the regular part's Delta0 has
        # rank 13. A regular pencil has at most rank Delta0 finite eigenvalues, so
        # every seed gives the 7 points or raises.
        outcomes = {}
        for seed in range(12):
            try:
                sample = spectrum_pair_oracle(integer_pair(*SEVEN_ZERO_PAIR), seed=seed)
                outcomes[seed] = sample.total_count, len(sample.points)
            except DegenerateProblemError:
                outcomes[seed] = "exit 3"
        assert set(outcomes.values()) == {(7, 7), "exit 3"}, outcomes

    @pytest.mark.parametrize("seed", range(10))
    def test_rank_gate_keeps_a_coprime_pair(self, seed):
        # The line test on a random finite line runs only when k > p1 p2. With k
        # left out, so that the line test alone decided, it raised SharedFactorError
        # here at seed 2, although the determinants have gcd 1.
        try:
            sample = spectrum_pair_oracle(integer_pair(*COPRIME_PAIR), seed=seed)
        except DegenerateProblemError as exc:
            assert not isinstance(exc, SharedFactorError), exc
            return
        assert sample.total_count == 9

    def test_staircase_deficiency_is_the_full_pencil_deficiency(self):
        # Second route for k: the rank the staircase deflates plus the regular
        # part's deficiency is the normal-rank deficiency of the whole pencil.
        rng = np.random.default_rng(21)
        pairs = {f"degenerate{i}": QtepPair(*(scalar_newton(*c) for c in coeffs))
                 for i, (coeffs, _) in enumerate(DEGENERATE_PAIRS)}
        pairs |= {f"drop-{name}": diagonal_pair(d) for name, (d, _) in DEGREE_DROP_PAIRS.items()}
        pairs |= {f"mixed-{name}": diagonal_pair(d) for name, d in MIXED_PAIRS.items()}
        for trial in range(2):
            f, g, h = (tuple(random_coeffs(rng, 1)[key][0, 0] for key in COEFF_KEYS)
                       for _ in range(3))
            pairs |= {f"f-fg{trial}": diagonal_pair(((f,), (f, g))),
                      f"fg-fh{trial}": diagonal_pair(((f, g), (f, h)))}
        sizes = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
        pairs |= {f"generic{p1}x{p2}": random_pair(rng, p1, p2) for p1, p2 in sizes}
        got = {(name, seed): staircase_and_full_deficiency(pair, seed)
               for name, pair in pairs.items() for seed in (0, 1)}
        assert {key: ks for key, ks in got.items() if ks[0] != ks[1]} == {}
        assert all(got[f"generic{p1}x{p2}", seed][0] == p1 * p2
                   for p1, p2 in sizes for seed in (0, 1))


def planted_thetas(rng):
    """theta, radii and shift with loose points, near-duplicates, chains whose
    ends lie apart, and sigma pairs that only the larger |sigma| links."""
    shift = complex_normal(rng)
    count = int(rng.integers(0, 12))
    theta, radius = [3 * complex_normal(rng, count)], [10.0 ** rng.uniform(-16, -4, count)]
    for _ in range(rng.integers(0, 4)):  # near-duplicates
        r, k = 10.0 ** rng.uniform(-14, -6), int(rng.integers(2, 4))
        theta.append(3 * complex_normal(rng) + r * complex_normal(rng, k))
        radius.append(np.full(k, r))
    for _ in range(rng.integers(0, 3)):  # chains: neighbours overlap, ends do not
        # Steps above CLUSTER_TOL |theta|, so the sigma rule does not link them all.
        r, k = 10.0 ** rng.uniform(-4, -2), int(rng.integers(3, 13))
        step = (twoparam.DISC_FACTOR * 2 * r * rng.uniform(0.5, 0.95)
                * np.exp(2j * np.pi * rng.uniform()))
        theta.append(3 * complex_normal(rng) + step * np.arange(k))
        radius.append(np.full(k, r))
    for _ in range(rng.integers(0, 3)):
        # |sigma_i - sigma_j| = CLUSTER_TOL (1 + CLUSTER_TOL / 2) |sigma_j|
        sigma = 10.0 ** rng.uniform(1, 4) * np.exp(2j * np.pi * rng.uniform())
        pair = sigma * np.array([1, 1 + twoparam.CLUSTER_TOL * (1 + twoparam.CLUSTER_TOL / 2)])
        theta.append(1 / (pair - shift))
        radius.append(np.full(2, 1e-17))
    order = rng.permutation(sum(len(t) for t in theta))
    return np.concatenate(theta)[order], np.concatenate(radius)[order], shift


class TestInPlaceForms:
    # The staircase that ends on singular values against its reference form
    # (tests/helpers.py).
    def test_regular_part_is_the_full_step_loop_bitwise(self):
        rng = np.random.default_rng(51)
        pairs = [QtepPair(*(scalar_newton(*c) for c in coeffs)) for coeffs, _ in DEGENERATE_PAIRS]
        pairs += [diagonal_pair(d) for d, _ in DEGREE_DROP_PAIRS.values()]
        pairs += [random_pair(rng, p1, p2, nodes_of_kind(rng, kind)) for kind in NODE_KINDS
                  for p1, p2 in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))]
        at_infinity = 0
        for pair, seed in ((pair, seed) for pair in pairs for seed in (0, 1)):
            rng = np.random.default_rng(seed)
            pair = QtepPair(*(q.at_unit_size()[0] for q in pair))
            delta = delta_operators(*(construct_e1_newton(q, E1FreeParams.random(q.n, rng))
                                      for q in pair))
            ops, flag, deflated = twoparam._regular_part(delta)
            want_ops, want_flag, want_deflated = regular_part_reference(delta)
            for got, want in zip(ops, want_ops):
                assert_bitwise_equal(got, want)
            assert (flag, deflated) == (want_flag, want_deflated)
            at_infinity += flag
        assert at_infinity > 0  # the round that needs vectors is covered too


class TestPairVectorized:
    # The array forms of the grouping and of the simple-point quotients
    # against their loop forms (tests/helpers.py).
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_clusters_match_loop_reference(self, seed):
        theta, radius, shift = planted_thetas(np.random.default_rng(seed))
        got = [g.tolist() for g in twoparam._clusters(theta, radius, shift)]
        assert got == sorted(sorted(g) for g in clusters_reference(theta, radius, shift))

    def test_sigma_rule_uses_the_later_index(self):
        # |sigma_0 - sigma_1| lies between CLUSTER_TOL |sigma_0| and
        # CLUSTER_TOL |sigma_1|: linked only when the larger |sigma| comes second.
        shift, tol = 0.25, twoparam.CLUSTER_TOL
        sigma = 100 * np.array([1, 1 + tol * (1 + tol / 2)])
        radius = np.full(2, 1e-17)
        for order, groups in (([0, 1], [[0, 1]]), ([1, 0], [[0], [1]])):
            theta = 1 / (sigma[order] - shift)
            assert [g.tolist() for g in twoparam._clusters(theta, radius, shift)] == groups
            assert sorted(sorted(g) for g in clusters_reference(theta, radius, shift)) == groups
        assert twoparam._clusters(np.zeros(0, complex), np.zeros(0), shift) == []

    def test_chain_is_one_group(self):
        # Neighbours' discs overlap, the ends' do not, and sigma = 1 / theta
        # differs by more than CLUSTER_TOL |sigma|. Indices run against the
        # chain, so the closure needs more than one pass.
        radius = np.full(12, 1e-3)
        theta = 1 + 2 * twoparam.DISC_FACTOR * 0.9e-3 * np.arange(12)[::-1]
        assert [g.tolist() for g in twoparam._clusters(theta, radius, 0.0)] == [list(range(12))]
        assert [sorted(g) for g in clusters_reference(theta, radius, 0.0)] == [list(range(12))]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 12), st.integers(0, 2**32 - 1))
    def test_point_quotients_match_per_point_solves(self, k1, k2, count, seed):
        rng = np.random.default_rng(seed)
        size = k1 * k2
        ops = tuple(complex_normal(rng, 3, size, size))
        x, y = complex_normal(rng, size, count), complex_normal(rng, size, count)
        got, want = twoparam._point_quotients(ops, x, y), point_quotients_reference(ops, x, y)
        # Relative to the quotient, or to its terms' scale when they cancel.
        b0 = np.abs(np.einsum("ik,ij,jk->k", y.conj(), ops[0], x))
        for g, w, d in zip(got, want, ops[1:]):
            terms = np.einsum("ik,ij,jk->k", np.abs(y), np.abs(d), np.abs(x)) / b0
            assert np.all(np.abs(g - w) <= 1e-13 * np.maximum(np.abs(w), terms))

    def test_zero_point_quotient_denominator_raises(self):
        rng = np.random.default_rng(53)
        ops = tuple(complex_normal(rng, 3, 4, 4))
        x, y = complex_normal(rng, 4, 2), complex_normal(rng, 4, 2)
        x[:, 1] = 0  # y* Delta0 x = 0 exactly
        with pytest.raises(DegenerateProblemError, match="singular for a finite eigenvalue"):
            twoparam._point_quotients(ops, x, y)

    def test_singular_block_quotient_denominator_raises(self):
        # Delta0 = 0, so Y* Delta0 X = 0 for X = Y = the first two columns of I3.
        eye = np.eye(3, dtype=complex)
        with pytest.raises(DegenerateProblemError, match="singular for a finite eigenvalue"):
            twoparam._block_quotients((np.zeros((3, 3), dtype=complex), eye, eye),
                                      eye[:, :2], eye[:, :2])

    def test_regular_part_that_is_not_square_raises(self):
        # Delta0 = diag(1, 0, 0), Delta1 the shift matrix and Delta2 = 0: the
        # staircase reduction stops at a 1 x 2 triple, which is not square.
        delta = DeltaTriple(np.diag([1.0, 0, 0]).astype(complex),
                            np.eye(3, k=1, dtype=complex), np.zeros((3, 3), dtype=complex), 3, 1)
        with pytest.raises(DegenerateProblemError, match="stops at 1 x 2, not at a square"):
            twoparam._regular_part(delta)
