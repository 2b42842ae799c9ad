"""Polynomial type, Newton scalar basis and the restriction of Q to a line."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton2pep import (
    COEFF_KEYS,
    MatrixPoly2,
    NewtonNodes,
    NewtonPencil,
    annulus_points,
    complex_normal,
)
from newton2pep.matpoly import newton_line

from helpers import (NODE_KINDS, assert_bitwise_equal, monomial_six, monomial_triple,
                     newton_products, newton_triple, nodes_of_kind, random_monomial,
                     random_newton, random_nodes, scalar_newton)


def at_point(nodes, lam, mu):
    """The Newton basis at (lam, mu): the t^0 column of newton_line on the line
    through (lam, mu, 1) with direction 0."""
    return newton_line(nodes, np.array([lam, mu, 1], dtype=complex), np.zeros(3))[:, 2]


class TestNewtonScalars:
    def test_vanish_at_their_nodes(self):
        nodes = NewtonNodes(1, 2, 0, 0)
        n2, _, m2, n1, m1, one = at_point(nodes, 1.0, 5.0)
        assert (n1, n2) == (0, 0)
        assert m1 == 5 and m2 == 25
        assert one == 1

    def test_monomial_reduction(self):
        n2, n1m1, m2, n1, m1, one = at_point(NewtonNodes(), 3.0, 4.0)
        assert (one, n1, n2, m1, m2, n1m1) == (1, 3, 9, 4, 16, 12)

    def test_product_values(self):
        nodes = NewtonNodes(1, 2, 0, 0)
        n2, _, m2, _, _, _ = at_point(nodes, 3.0, 0.0)
        assert n2 == (3 - 1) * (3 - 2)
        assert m2 == 0

    def test_recurrence_exact_as_evaluated(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            nodes = random_nodes(rng)
            lam, mu = annulus_points(rng, 2)
            n2, _, m2, n1, m1, _ = at_point(nodes, lam, mu)
            assert n2 == n1 * (lam - nodes.alpha2)
            assert m2 == m1 * (mu - nodes.beta2)

    def test_coincident_nodes_accepted(self):
        nodes = NewtonNodes(1.5, 1.5, -2j, -2j)
        n2, _, _, n1, _, _ = at_point(nodes, 1.5, 0.0)
        assert n1 == 0 and n2 == 0

    def test_nonfinite_node_rejected(self):
        with pytest.raises(ValueError):
            NewtonNodes(np.nan, 0, 0, 0)


PART = st.sampled_from([0.0, -0.0]) | st.floats(-2, 2)


class TestBasisVectors:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["zero", "coincident", "random"]), st.integers(-150, 150),
           st.tuples(*[PART] * 8), st.tuples(*[PART] * 4))
    def test_point_column_is_the_newton_products(self, kind, exponent, parts, point):
        # Equal as numbers, so signed zeros compare equal: n1 z can turn a -0 part into +0.
        scale = 10.0 ** exponent
        z = [complex(scale * re, scale * im) for re, im in zip(parts[::2], parts[1::2])]
        nodes = {"zero": NewtonNodes(), "coincident": NewtonNodes(z[0], z[0], z[1], z[1]),
                 "random": NewtonNodes(*z)}[kind]
        lam, mu = complex(scale * point[0], scale * point[1]), complex(scale * point[2],
                                                                       scale * point[3])
        np.testing.assert_array_equal(at_point(nodes, lam, mu), newton_products(nodes, lam, mu))

    def test_zero_nodes_triple_matches_monomial(self):
        rng = np.random.default_rng(1)
        lam, mu = annulus_points(rng, 2)
        np.testing.assert_array_equal(newton_triple(NewtonNodes(), lam, mu),
                                      monomial_triple(lam, mu))

    def test_zero_nodes_six_matches_monomial(self):
        rng = np.random.default_rng(2)
        lam, mu = annulus_points(rng, 2)
        np.testing.assert_array_equal(at_point(NewtonNodes(), lam, mu),
                                      monomial_six(lam, mu))


class TestEval:
    def test_all_ones_monomial(self):
        q = MatrixPoly2.newton({k: [[1.0]] for k in COEFF_KEYS})
        assert q.eval(1.0, 1.0)[0, 0] == pytest.approx(6.0)

    def test_newton_zero_nodes_equals_monomial(self):
        rng = np.random.default_rng(3)
        q = random_monomial(rng, 2)
        assert q.nodes.is_zero
        for lam, mu in zip(annulus_points(rng, 5), annulus_points(rng, 5)):
            expected = np.zeros((2, 2), dtype=complex)
            for weight, key in zip(monomial_six(lam, mu), COEFF_KEYS):
                expected += weight * q.coeff(*key)
            np.testing.assert_array_equal(q.eval(lam, mu), expected)

    def test_stack_is_pointwise_bitwise(self):
        # A (K, n, n) stack equals the K scalar evaluations bit for bit, for
        # the polynomial and for a pencil on the same nodes.
        rng = np.random.default_rng(31)
        for n in (1, 2, 5):
            q = random_newton(rng, n)
            pencil = NewtonPencil.from_blocks(q.nodes, *(complex_normal(rng, 3 * n, 3 * n)
                                                         for _ in range(3)))
            lams, mus = annulus_points(rng, 9), annulus_points(rng, 9)
            for f, size in ((q.eval, n), (pencil.eval, 3 * n)):
                stack = f(lams, mus)
                assert stack.shape == (9, size, size)
                for k in range(9):
                    np.testing.assert_array_equal(stack[k], f(lams[k], mus[k]))

    def test_stack_weights_round_as_python_complex(self):
        # The Newton weights of a stack are the ones Python complex arithmetic
        # gives point by point (no fused multiply-add in numpy's vector loops).
        rng = np.random.default_rng(32)
        q = random_newton(rng, 2)
        a1, a2, b1, b2 = q.nodes
        lams, mus = annulus_points(rng, 64), annulus_points(rng, 64)
        stack = q.eval(lams, mus)
        for k in range(64):
            lam, mu = complex(lams[k]), complex(mus[k])
            n1, m1 = lam - a1, mu - b1
            expected = np.zeros((2, 2), dtype=complex)
            for weight, key in zip((n1 * (lam - a2), n1 * m1, m1 * (mu - b2), n1, m1, 1 + 0j),
                                   COEFF_KEYS):
                expected += weight * q.coeff(*key)
            np.testing.assert_array_equal(stack[k], expected)

    def test_scalar_newton_value(self):
        qn = scalar_newton(1, 1, 1, 1, 1, 1, NewtonNodes(1, 2, 0, 0))
        # n1=1, n2=0, m1=1, m2=1 at (2, 1): 0 + 1 + 1 + 1 + 1 + 1
        assert qn.eval(2.0, 1.0)[0, 0] == pytest.approx(5.0)

    def test_nodes_as_a_plain_tuple(self):
        q = MatrixPoly2.newton({k: [[1.0]] for k in COEFF_KEYS}, (1, 2, 3j, 4))
        assert type(q.nodes) is NewtonNodes and q.nodes == (1, 2, 3j, 4)

    def test_requires_all_blocks(self):
        with pytest.raises(ValueError, match="missing"):
            MatrixPoly2.newton({(2, 0): [[1.0]]})

    def test_rejects_ragged_blocks(self):
        coeffs = {k: [[1.0]] for k in COEFF_KEYS}
        coeffs[(0, 0)] = [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(ValueError):
            MatrixPoly2.newton(coeffs)


LINE_NODE_KINDS = (*NODE_KINDS, "large")  # "large": four random nodes of modulus about 1e3


def line_nodes(rng, kind):
    return (NewtonNodes(*(1e3 * complex_normal(rng, 4))) if kind == "large"
            else nodes_of_kind(rng, kind))


def line_cases(rng):
    """(polynomial, p, r) on random lines, for every kind of LINE_NODE_KINDS."""
    for kind in LINE_NODE_KINDS:
        for n in (1, 3):
            nodes = line_nodes(rng, kind)
            for _ in range(10):
                yield random_newton(rng, n, nodes), complex_normal(rng, 3), complex_normal(rng, 3)


class TestOnLine:
    """MatrixPoly2.on_line: the coefficients (K2, K1, K0) of Q on p + t r."""

    def test_is_homogeneous_value_on_the_line(self):
        rng = np.random.default_rng(11)
        for q, p, r in line_cases(rng):
            k2, k1, k0 = q.on_line(p, r)
            for t in complex_normal(rng, 4):
                l, m, z = p + t * r
                want = z * z * q.eval(l / z, m / z)
                weights = np.abs(z * z * newton_products(q.nodes, l / z, m / z))
                scale = sum(w * np.abs(q.coeff(*key)).max()
                            for w, key in zip(weights, COEFF_KEYS))
                assert np.abs(t * t * k2 + t * k1 + k0 - want).max() <= 1e-13 * scale

    def test_at_infinity_is_the_degree_two_part(self):
        rng = np.random.default_rng(12)
        for q, p, r in line_cases(rng):
            p[2] = r[2] = 0
            k2, k1, k0 = q.on_line(p, r)
            for t in complex_normal(rng, 4):
                l, m, _ = p + t * r
                want = l * l * q.coeff(2, 0) + l * m * q.coeff(1, 1) + m * m * q.coeff(0, 2)
                scale = max(abs(l), abs(m)) ** 2 * max(np.abs(q.coeff(*key)).max()
                                                       for key in COEFF_KEYS[:3])
                assert np.abs(t * t * k2 + t * k1 + k0 - want).max() <= 1e-13 * scale

    def test_stack_is_its_one_line_calls_bitwise(self):
        rng = np.random.default_rng(14)
        for kind, n in itertools.product(LINE_NODE_KINDS, (1, 3)):
            q = random_newton(rng, n, line_nodes(rng, kind))
            p, r = complex_normal(rng, 3, 7), complex_normal(rng, 3, 7)
            p[2, :2] = r[2, :2] = 0  # two lines at infinity
            stack = q.on_line(p, r)
            assert stack.shape == (3, 7, n, n)
            for k in range(7):
                assert_bitwise_equal(stack[:, k], q.on_line(p[:, k], r[:, k]))


