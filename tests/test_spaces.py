"""Gamma blocks, membership, the basis-change isomorphism and the M table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton2pep import (
    AnsatzVector,
    DegenerateProblemError,
    MatrixPoly2,
    NewtonNodes,
    NewtonPencil,
    NodeMismatchError,
    annulus_points,
    companion_pencil,
    complex_normal,
    construct_e1_newton,
    E1FreeParams,
    membership_newton,
    newton_six,
    select_M,
)

from helpers import (NODE_KINDS, gamma_blocks, newton_triple, nodes_of_kind, pencil_in_space,
                     random_coeffs, random_monomial, random_newton, random_nodes, s_map,
                     sampled_membership, select_M_alternate_ac, to_monomial_space,
                     to_newton_space, transfer_to_newton, with_zero_nodes)

PATTERNS = [(1, 1, 1), (0, 1, 1), (0, 0, 1), (1, 0, 1),
            (1, 0, 0), (1, 1, 0), (0, 1, 0)]


def random_pattern_vector(rng, pattern):
    r = rng.uniform(0.5, 2.0, 3)
    th = rng.uniform(0.0, 2 * np.pi, 3)
    z = r * np.exp(1j * th)
    return np.array([z[i] if pattern[i] else 0.0 for i in range(3)])


class TestGammaBlocks:
    def test_zero_nodes_reduce_to_scalars(self):
        rng = np.random.default_rng(0)
        lam, mu = annulus_points(rng, 2)
        g, gt = gamma_blocks(NewtonNodes(), 2, lam, mu)
        np.testing.assert_allclose(g, lam * np.eye(6))
        np.testing.assert_allclose(gt, mu * np.eye(6))

    def test_point_values(self):
        g, gt = gamma_blocks(NewtonNodes(1, 2, 3, 4), 1, 2.0, 3.0)
        np.testing.assert_allclose(np.diag(g), [0, 1, 1])
        np.testing.assert_allclose(np.diag(gt), [0, -1, 0])

    def test_action_on_basis_triple(self):
        # Gamma2 (N kron I) = (n2, n1 m1, n1) kron I and
        # Gamma2t (N kron I) = (n1 m1, m2, m1) kron I.
        rng = np.random.default_rng(1)
        for _ in range(20):
            nodes = random_nodes(rng)
            n = int(rng.integers(1, 4))
            lam, mu = annulus_points(rng, 2)
            g, gt = gamma_blocks(nodes, n, lam, mu)
            stack = np.kron(newton_triple(nodes, lam, mu).reshape(3, 1), np.eye(n))
            n2, _, m2, n1, m1, _ = newton_six(nodes, lam, mu)
            left = np.kron(np.array([n2, n1 * m1, n1]).reshape(3, 1), np.eye(n))
            right = np.kron(np.array([n1 * m1, m2, m1]).reshape(3, 1), np.eye(n))
            np.testing.assert_allclose(g @ stack, left, atol=1e-12)
            np.testing.assert_allclose(gt @ stack, right, atol=1e-12)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            gamma_blocks(NewtonNodes(), 0, 1.0, 1.0)

    def test_pencil_eval_is_gamma_form(self):
        # NewtonPencil.eval scales column blocks; the Gamma matrices are the
        # reference for it, at single points and in a stack.
        rng = np.random.default_rng(17)
        for n in (1, 3):
            nodes = random_nodes(rng)
            pencil = NewtonPencil.from_blocks(nodes, *(complex_normal(rng, 3 * n, 3 * n)
                                                       for _ in range(3)))
            lams, mus = annulus_points(rng, 4), annulus_points(rng, 4)
            stack = pencil.eval(lams, mus)
            for k in range(4):
                g, gt = gamma_blocks(nodes, n, lams[k], mus[k])
                want = pencil.A1 @ g + pencil.A2 @ gt + pencil.A3
                np.testing.assert_allclose(stack[k], want, rtol=0, atol=1e-13)

    def test_eval_chunks_cover_the_points_in_order(self):
        # Chunks hold at most STACK_BYTES of values (one point at n = 64).
        rng = np.random.default_rng(18)
        lams, mus = annulus_points(rng, 12), annulus_points(rng, 12)
        for n, size in ((2, 12), (64, 1)):
            blocks = (complex_normal(rng, 3 * n, 3 * n) for _ in range(3))
            pencil = NewtonPencil.from_blocks(random_nodes(rng), *blocks)
            chunks = list(pencil.eval_chunks(lams, mus))
            assert [len(values) for _, values in chunks] == [size] * (12 // size)
            for sl, values in chunks:
                np.testing.assert_array_equal(values, pencil.eval(lams[sl], mus[sl]))


class TestMembershipMonomial:
    def test_companion_has_e1_ansatz(self):
        rng = np.random.default_rng(2)
        q = random_monomial(rng, 3)
        res = membership_newton(companion_pencil(q), q)
        assert res.member
        np.testing.assert_allclose(res.ansatz.vector, [1, 0, 0], atol=1e-12)
        assert res.ansatz.pattern == (True, False, False)

    def test_zero_pencil_is_member_with_zero_ansatz(self):
        rng = np.random.default_rng(3)
        q = random_monomial(rng, 2)
        zero = np.zeros((6, 6))
        res = membership_newton(NewtonPencil.from_blocks(q.nodes, zero, zero, zero), q)
        assert res.member
        assert res.ansatz.is_zero

    def test_perturbed_companion_is_not_member(self):
        rng = np.random.default_rng(4)
        q = random_monomial(rng, 2)
        c = companion_pencil(q)
        a3 = c.A3.copy()
        a3[0, 0] += 1e-3
        res = membership_newton(NewtonPencil.from_blocks(q.nodes, c.A1, c.A2, a3), q)
        assert not res.member
        assert res.residual > 1e-9

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
    def test_membership_verdict_does_not_depend_on_pencil_scale(self, scale):
        # The residual is relative to quantities linear in the pencil, so the
        # perturbed companion stays a non-member however it is scaled.
        rng = np.random.default_rng(4)
        q = random_monomial(rng, 2)
        c = companion_pencil(q)
        a3 = c.A3.copy()
        a3[0, 0] += 1e-3
        ref = membership_newton(NewtonPencil.from_blocks(q.nodes, c.A1, c.A2, a3), q)
        res = membership_newton(NewtonPencil.from_blocks(
            q.nodes, *(scale * b for b in (c.A1, c.A2, a3))), q)
        assert not res.member
        assert res.residual == pytest.approx(ref.residual, rel=1e-6)
        exact = membership_newton(NewtonPencil.from_blocks(
            q.nodes, *(scale * b for b in c.blocks())), q)
        assert exact.member

    @pytest.mark.parametrize("k", [-900, -400, 400, 900])
    def test_power_of_two_scaling_is_exact(self, k):
        # Pencil and polynomial scaled by 2^k far from 1: the same verdict
        # and residual bit for bit, and v scaled exactly, member or not.
        rng = np.random.default_rng(19)
        q = random_newton(rng, 3)
        c = construct_e1_newton(q, E1FreeParams.random(3, rng))
        a3 = c.A3.copy()
        a3[0, 0] += 1e-3
        for blocks in (c.blocks(), (c.A1, c.A2, a3)):
            ref = membership_newton(NewtonPencil.from_blocks(q.nodes, *blocks), q)
            for fp, fq in ((2.0 ** k, 1.0), (1.0, 2.0 ** k), (2.0 ** k, 2.0 ** k)):
                qk = MatrixPoly2.newton({key: fq * b for key, b in q.coeffs.items()}, q.nodes)
                res = membership_newton(NewtonPencil.from_blocks(
                    q.nodes, *(fp * b for b in blocks)), qk)
                assert (res.member, res.residual) == (ref.member, ref.residual)
                np.testing.assert_array_equal(res.ansatz.vector * fq / fp, ref.ansatz.vector)

    def test_zero_polynomial_is_ill_posed(self):
        zero = np.zeros((2, 2))
        q = MatrixPoly2.newton({k: zero for k in
                                  ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))})
        c = NewtonPencil.from_blocks(q.nodes, np.eye(6), np.eye(6), np.eye(6))
        with pytest.raises(DegenerateProblemError):
            membership_newton(c, q)


class TestMembershipNewton:
    def test_transferred_companion_has_e1_ansatz(self):
        rng = np.random.default_rng(5)
        qn = random_newton(rng, 2)
        pencil = transfer_to_newton(companion_pencil(with_zero_nodes(qn)), qn)
        res = membership_newton(pencil, qn)
        assert res.member
        np.testing.assert_allclose(res.ansatz.vector, [1, 0, 0], atol=1e-12)

    def test_zero_pencil_has_zero_ansatz(self):
        rng = np.random.default_rng(16)
        qn = random_newton(rng, 2)
        zero = np.zeros((6, 6))
        res = membership_newton(NewtonPencil.from_blocks(qn.nodes, zero, zero, zero), qn)
        assert res.member
        assert res.ansatz.is_zero

    def test_node_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        qn = random_newton(rng, 2, NewtonNodes(1, 2, 3, 4))
        pencil = transfer_to_newton(companion_pencil(with_zero_nodes(qn)), qn)
        other = random_newton(rng, 2, NewtonNodes(0, 0, 0, 1))
        with pytest.raises(NodeMismatchError):
            membership_newton(pencil, other)

    def test_vector_space_closure(self):
        # Sum of two members has the sum of the ansatz vectors.
        rng = np.random.default_rng(7)
        qn = random_newton(rng, 2)
        pencil1 = transfer_to_newton(companion_pencil(with_zero_nodes(qn)), qn)
        params = E1FreeParams.random(2, rng)
        mono = construct_e1_newton(with_zero_nodes(qn), params)
        pencil2 = transfer_to_newton(mono, qn)
        s = NewtonPencil.from_blocks(qn.nodes,
                                     2.0 * pencil1.A1 + pencil2.A1,
                                     2.0 * pencil1.A2 + pencil2.A2,
                                     2.0 * pencil1.A3 + pencil2.A3)
        res = membership_newton(s, qn)
        assert res.member
        np.testing.assert_allclose(res.ansatz.vector, [3, 0, 0], atol=1e-10)


CONSTRUCTIONS = ["companion", "e1", *PATTERNS]


class TestExactMembership:
    # The six column-shifted blocks against the sampled identity, which is
    # the second route (tests/helpers.py::sampled_membership).
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 3, 8]), st.sampled_from(NODE_KINDS),
           st.sampled_from(CONSTRUCTIONS), st.integers(0, 2**32 - 1))
    def test_agrees_with_sampled_route(self, n, kind, construction, seed):
        rng = np.random.default_rng(seed)
        q = MatrixPoly2.newton(random_coeffs(rng, n), nodes_of_kind(rng, kind))
        pencil = pencil_in_space(q, construction, rng)
        exact = membership_newton(pencil, q)
        v, rel = sampled_membership(pencil, q)
        assert exact.member and exact.residual <= 1e-13
        assert rel <= 1e-9
        np.testing.assert_allclose(exact.ansatz.vector, v, rtol=0,
                                   atol=1e-9 * np.abs(v).max())
        a3 = pencil.A3.copy()
        a3[0, 0] += 1e-3 * np.abs(a3).max()
        bad = NewtonPencil.from_blocks(q.nodes, pencil.A1, pencil.A2, a3)
        exact_bad = membership_newton(bad, q)
        assert not exact_bad.member and exact_bad.residual > 1e-6
        assert sampled_membership(bad, q)[1] > 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 2, 3, 8]), st.sampled_from(CONSTRUCTIONS), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_verdict_and_ansatz_do_not_depend_on_nodes(self, n, construction, perturb, seed):
        # The same blocks on other nodes (pencil and polynomial alike) give
        # bitwise the same result: membership never reads the nodes.
        rng = np.random.default_rng(seed)
        coeffs = random_coeffs(rng, n)
        blocks = pencil_in_space(MatrixPoly2.newton(coeffs, random_nodes(rng)),
                                 construction, rng).blocks()
        if perturb:
            blocks = (blocks[0] + 1e-4 * complex_normal(rng, 3 * n, 3 * n), *blocks[1:])
        results = []
        for kind in (*NODE_KINDS, "newton"):
            nodes = nodes_of_kind(rng, kind)
            res = membership_newton(NewtonPencil.from_blocks(nodes, *blocks),
                                    MatrixPoly2.newton(coeffs, nodes))
            results.append((res.member, res.residual, res.ansatz.vector.tobytes()))
        assert results == results[:1] * len(results)
        assert results[0][0] is not perturb


class TestSMap:
    def test_zero_nodes_identity(self):
        s, sinv = s_map(NewtonNodes())
        np.testing.assert_array_equal(s, np.eye(3))
        np.testing.assert_array_equal(sinv, np.eye(3))

    def test_maps_monomial_triple_to_newton_triple(self):
        nodes = NewtonNodes(2, 0, -1, 0)
        s, _ = s_map(nodes)
        lam, mu = 0.7 + 0.2j, -1.5
        got = s @ np.array([lam, mu, 1.0])
        np.testing.assert_allclose(got, [lam - 2, mu + 1, 1.0])

    def test_unit_determinant_and_exact_inverse(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            nodes = random_nodes(rng)
            s, sinv = s_map(nodes)
            assert np.linalg.det(s) == pytest.approx(1.0)
            np.testing.assert_array_equal(s @ sinv, np.eye(3))


class TestIsomorphism:
    def test_zero_nodes_is_identity_map(self):
        rng = np.random.default_rng(9)
        q = random_monomial(rng, 2)
        c = companion_pencil(q)
        image = to_newton_space(c, NewtonNodes())
        for a, b in zip(image.blocks(), c.blocks()):
            np.testing.assert_array_equal(a, b)

    def test_image_satisfies_newton_identity(self):
        rng = np.random.default_rng(10)
        q = random_monomial(rng, 2)
        nodes = NewtonNodes(1, 0, 2, 0)
        image = to_newton_space(companion_pencil(q), nodes)
        pts = annulus_points(rng, 24)
        eye = np.eye(2)
        for lam, mu in zip(pts[:12], pts[12:]):
            lhs = image.eval(lam, mu) @ np.kron(newton_triple(nodes, lam, mu).reshape(3, 1), eye)
            rhs = np.kron(np.array([[1.0], [0], [0]]), q.eval(lam, mu))
            assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())

    def test_round_trip_is_identity_on_blocks(self):
        rng = np.random.default_rng(11)
        q = random_monomial(rng, 2)
        nodes = random_nodes(rng)
        c = companion_pencil(q)
        back = to_monomial_space(to_newton_space(c, nodes), nodes)
        for a, b in zip(back.blocks(), c.blocks()):
            np.testing.assert_allclose(a, b, atol=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(12)
        nodes = random_nodes(rng)
        qa = random_monomial(rng, 2)
        qb = random_monomial(rng, 2)
        ca, cb = companion_pencil(qa), companion_pencil(qb)
        c1, c2 = 1.5 - 0.5j, -2.0 + 1j
        combo = NewtonPencil.from_blocks(NewtonNodes(),
                                         c1 * ca.A1 + c2 * cb.A1,
                                         c1 * ca.A2 + c2 * cb.A2,
                                         c1 * ca.A3 + c2 * cb.A3)
        f_combo = to_newton_space(combo, nodes)
        fa, fb = to_newton_space(ca, nodes), to_newton_space(cb, nodes)
        for got, xa, xb in zip(f_combo.blocks(), fa.blocks(), fb.blocks()):
            np.testing.assert_allclose(got, c1 * xa + c2 * xb, atol=1e-13)


class TestTransfer:
    def test_zero_nodes_evaluation_preserved(self):
        rng = np.random.default_rng(13)
        qn = random_newton(rng, 2, NewtonNodes())
        c = companion_pencil(with_zero_nodes(qn))
        pencil = transfer_to_newton(c, qn)
        pts = annulus_points(rng, 200)
        for lam, mu in zip(pts[:100], pts[100:]):
            np.testing.assert_array_equal(pencil.eval(lam, mu), c.eval(lam, mu))

    def test_same_ansatz_both_sides(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            qn = random_newton(rng, n)
            q = with_zero_nodes(qn)
            mono = construct_e1_newton(q, E1FreeParams.random(n, rng))
            v_mono = membership_newton(mono, q).ansatz.vector
            v_newt = membership_newton(transfer_to_newton(mono, qn), qn).ansatz.vector
            np.testing.assert_allclose(v_mono, v_newt, atol=1e-8)


class TestSelectM:
    def test_all_ones_case(self):
        m = select_M(np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(m, [[1, 0, 0], [1, -1, 0], [1, 0, -1]])
        np.testing.assert_allclose(m @ [1, 1, 1], [1, 0, 0], atol=1e-15)

    def test_e1_case(self):
        m = select_M(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(m, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])

    def test_last_component_case(self):
        m = select_M(np.array([0.0, 0.0, 5.0]))
        np.testing.assert_allclose(m, [[1, 1, 0.2], [1, 1, 0], [0, 1, 0]])
        np.testing.assert_allclose(m @ [0, 0, 5], [1, 0, 0], atol=1e-15)
        assert np.linalg.det(m) == pytest.approx(0.2)

    def test_all_patterns_random_magnitudes(self):
        rng = np.random.default_rng(15)
        for pattern in PATTERNS:
            for _ in range(150):
                v = random_pattern_vector(rng, pattern)
                m = select_M(v)
                np.testing.assert_allclose(m @ v, [1, 0, 0], atol=1e-13)
                assert abs(np.linalg.det(m)) > 1e-13

    def test_alternate_template_for_ac_pattern(self):
        v = np.array([2.0, 0.0, 4.0])
        m1 = select_M(v)
        m2 = select_M_alternate_ac(v)
        assert not np.allclose(m1, m2)
        for m in (m1, m2):
            np.testing.assert_allclose(m @ v, [1, 0, 0], atol=1e-14)
            assert abs(np.linalg.det(m)) > 1e-13

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero ansatz"):
            select_M(np.zeros(3))

    def test_classification_threshold_is_relative(self):
        v = AnsatzVector.classify(np.array([1e-12, 1.0, 1.0]))
        assert v.pattern == (False, True, True)
        tiny = AnsatzVector.classify(np.array([1e-12, 1e-13, 0.0]))
        assert tiny.pattern == AnsatzVector.classify(np.array([1.0, 0.1, 0.0])).pattern
        assert tiny.pattern == (True, True, False)
        assert AnsatzVector.classify(np.zeros(3)).is_zero
