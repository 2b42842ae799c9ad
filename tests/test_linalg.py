"""Kernel operations checked against independent oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newton2pep import (
    NonSquareError,
    complex_normal,
    smallest_singular_value,
)
from newton2pep.linalg import (SHIFTS, _error_radius, as_matrix, block_rows, det, kron,
                               quadratic_eigen, row_space, scale_to_unit, small_dense_eigen)

from helpers import (assert_bitwise_equal, cofactor_det, commutation_matrix,
                     companion_linearization_reference, eig_reference, kron_oracle,
                     masked_jordan, with_signed_zeros)


class TestAsMatrix:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[np.inf + 0j, 0], [0, 1]])

    def test_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            as_matrix(np.eye(2), 3, 3)

    def test_rejects_a_stack(self):
        with pytest.raises(ValueError, match="must be 2-dimensional, got ndim=3"):
            as_matrix(np.zeros((2, 2, 2)))


class TestScaleToUnit:
    def test_exponent_reads_the_parts_where_the_modulus_overflows(self):
        # (-1.73e308, 5.47e307) has finite parts, but |z| = 1.81e308 is inf in
        # doubles, whose frexp exponent 0 would leave the array unscaled.
        a = np.array([[-1.73e308 + 5.47e307j, 1.0], [0.0, -2.5e-310j]])
        want = np.ldexp(a.view(float), -1024).view(complex)
        got, e = scale_to_unit(a)
        assert e == -1024
        assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("k", [-1074, -600, 0, 1, 1023])
    @pytest.mark.parametrize("part", [-1.0, 1j, 0.75 + 0.75j])
    def test_largest_part_lands_in_half_to_one(self, part, k):
        a = np.ldexp(np.array([part, 0.25, -0.25j]).view(float), k).view(complex)
        got, _ = scale_to_unit(a)
        assert 0.5 <= np.abs(got.view(float)).max() < 1.0


class TestKron:
    def test_identity_factor_is_block_diagonal(self):
        b = complex_normal(np.random.default_rng(0), 2, 2)
        got = kron(np.eye(2), b)
        want = np.block([[b, np.zeros((2, 2))], [np.zeros((2, 2)), b]])
        np.testing.assert_allclose(got, want)

    def test_e1_factor_stacks(self):
        b = complex_normal(np.random.default_rng(1), 2, 3)
        e1 = np.array([[1.0], [0.0], [0.0]])
        got = kron(e1, b)
        np.testing.assert_allclose(got[:2], b)
        np.testing.assert_allclose(got[2:], 0)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c, d = (complex_normal(rng, 2, 2) for _ in range(4))
            left = kron(a, b) @ kron(c, d)
            right = kron(a @ c, b @ d)
            np.testing.assert_allclose(left, right, atol=1e-12)

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(3)
        a = complex_normal(rng, 3, 2)
        b = complex_normal(rng, 2, 4)
        np.testing.assert_allclose(kron(a, b), kron_oracle(a, b))

    @pytest.mark.parametrize("shape_a,shape_b", [((3, 3), (3, 3)), ((1, 4), (4, 1)),
                                                 ((4, 1), (1, 3)), ((1, 1), (2, 5)),
                                                 ((3, 2), (1, 4)), ((9, 9), (9, 9)),
                                                 ((5,), (3,)), ((1,), (4,))])
    def test_broadcast_product_is_np_kron_bitwise(self, shape_a, shape_b):
        # The same products in the same places: signed zeros, a real factor
        # (as kron(M, I) has) and 1 x k and k x 1 shapes included.
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = with_signed_zeros(rng, complex_normal(rng, *shape_a))
            b = with_signed_zeros(rng, complex_normal(rng, *shape_b))
            for x, y in ((a, b), (a, b.real), (a.real, b), (a.real, b.real)):
                assert_bitwise_equal(kron(x, y), np.kron(x, y))


class TestBlockRows:
    @pytest.mark.parametrize("n, cols", [(1, 3), (2, 6), (4, 4), (3, 1)])
    def test_is_the_kronecker_product(self, n, cols):
        rng = np.random.default_rng(5)
        m, a = complex_normal(rng, 3, 3), complex_normal(rng, 3 * n, cols)
        np.testing.assert_allclose(block_rows(m, a), kron(m, np.eye(n)) @ a, rtol=1e-14,
                                   atol=1e-14)

    def test_a_permutation_moves_the_rows_exactly(self):
        rng = np.random.default_rng(6)
        a = complex_normal(rng, 6, 6)
        got = block_rows(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), a)
        assert_bitwise_equal(got, np.vstack([a[2:4], a[4:], a[:2]]))


class TestDet:
    def test_identity(self):
        assert det(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert det(np.diag([2.0, 3.0])) == pytest.approx(6.0)

    def test_against_cofactor_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = complex_normal(rng, 4, 4)
            want = cofactor_det(a)
            assert abs(det(a) - want) < 1e-12 * abs(want)

    def test_multiplicativity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = complex_normal(rng, 3, 3)
            b = complex_normal(rng, 3, 3)
            lhs = det(a @ b)
            rhs = det(a) * det(b)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)

    def test_rejects_nonsquare(self):
        with pytest.raises(NonSquareError):
            det(np.ones((2, 3)))


class TestSmallestSingularValue:
    def test_identity(self):
        assert smallest_singular_value(np.eye(3)) == pytest.approx(1.0)

    def test_zero_row(self):
        a = np.array([[1.0, 2.0], [0.0, 0.0]])
        assert smallest_singular_value(a) == pytest.approx(0.0, abs=1e-15)

    def test_against_gram_matrix_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = complex_normal(rng, 3, 3)
            gram_eigs = np.linalg.eigvalsh(a.conj().T @ a)
            want = np.sqrt(max(gram_eigs.min(), 0.0))
            assert abs(smallest_singular_value(a) - want) < 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(NonSquareError):
            smallest_singular_value(np.ones((2, 3)))

    def test_empty_matrix_is_zero(self):
        assert smallest_singular_value(np.zeros((0, 0))) == 0.0


def solve1(a, b):
    """small_dense_eigen on the one-member stack [a]."""
    return small_dense_eigen(np.asarray(a)[None], b)[0]


class TestSmallDenseEigen:
    # Each member of a stack gives its sorted finite values, or None for a
    # singular pencil; solve1 solves a one-member stack, and
    # tests/helpers.py::eig_reference is the solve with vectors throughout.
    def test_diagonal_pair(self):
        assert solve1(np.diag([1.0, 2.0]), np.eye(2)).tolist() == pytest.approx([1.0, 2.0])

    def test_infinite_eigenvalue(self):
        values = solve1(np.eye(2), np.diag([1.0, 0.0]))
        assert len(values) == 1  # the other eigenvalue is infinite
        assert values[0] == pytest.approx(1.0)

    def test_tiny_rows_are_not_indeterminate(self):
        # Regular pencil whose first row is scaled by 1e-11 (or 1e-300): the
        # same eigenvalues, and no false singular-pencil report.
        rng = np.random.default_rng(9)
        a = complex_normal(rng, 4, 4)
        b = complex_normal(rng, 4, 4)
        want = solve1(a, b)
        assert len(want) == 4
        for s in (1e-11, 1e-300):
            d = np.diag([s, 1.0, 1.0, 1.0])
            np.testing.assert_allclose(solve1(d @ a, d @ b), want, rtol=1e-10)

    @pytest.mark.parametrize("shared", [True, False])
    def test_singular_member_gives_none(self, shared):
        # Common nullspace: last row/column zero in both matrices; B shared by
        # the stack or a one-member stack of its own.
        a = np.zeros((2, 2), dtype=complex)
        b = np.zeros((2, 2), dtype=complex)
        a[0, 0] = 1.0
        b[0, 0] = 2.0
        assert solve1(a, b if shared else b[None]) is None
        assert eig_reference(a, b) is None

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_jordan_block_at_infinity_reads_infinite(self, size, seed):
        a, b = masked_jordan(np.random.default_rng(seed), size)
        values = solve1(a, b)  # the block's size values are infinite
        np.testing.assert_allclose(values, [-3, 2], rtol=1e-12)
        np.testing.assert_allclose(eig_reference(a, b), values, rtol=1e-12)

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_values_only_reads_infinity_as_vectors_do(self, size):
        # tests/helpers.py::masked_jordan, seeds 0-9: an eigenvalue in
        # the band (eps ||op||_F, eps^(1/4) ||op||_F] makes the values-only
        # solve rerun eig with vectors, so it finds as many finite values as
        # the solve with vectors throughout.
        for seed in range(10):
            a, b = masked_jordan(np.random.default_rng(seed), size)
            assert len(solve1(a, b)) == len(eig_reference(a, b))

    def test_generic_values_only_solve_does_not_rerun(self, monkeypatch):
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda *a, **k: calls.append(1) or eig(*a, **k))
        rng = np.random.default_rng(14)
        a, b = complex_normal(rng, 3, 6, 6), complex_normal(rng, 6, 6)
        b[:, 0] = 0  # one infinite eigenvalue, exactly
        for values in small_dense_eigen(a, b):
            assert len(values) == 5
        assert calls == []
        assert len(eig_reference(a[0], b)) == 5  # the spy sees an eig call
        assert calls == [1]

    def test_error_radius_of_a_stack_with_a_singular_member(self):
        # inv raises on the whole stack, so each member is inverted alone: the
        # exactly singular one reads inf, the other unit ||w|| for each row w of X^-1.
        x = np.array([[[1, 1], [1, 1]], [[2, 0], [1, 1]]], dtype=complex)
        unit = np.array([[1e-16], [2e-16]])
        got = _error_radius(unit, x)
        np.testing.assert_array_equal(got[0], [np.inf, np.inf])
        np.testing.assert_array_equal(got[1], 2e-16 * np.linalg.norm(np.linalg.inv(x[1]), axis=-1))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["generic", "second shift", "singular"]),
                    min_size=1, max_size=4),
           st.integers(1, 6), st.booleans(), st.integers(0, 63), st.integers(0, 2**32 - 1))
    @example(["generic", "second shift", "singular", "generic"], 5, False, 0, 15)
    def test_stack_is_bitwise_the_member_by_member_solve(self, kinds, m, shared, zero_mask, seed):
        rng = np.random.default_rng(seed)
        a, b = complex_normal(rng, len(kinds), m, m), complex_normal(rng, len(kinds), m, m)
        b[:, :, [j for j in range(m) if zero_mask >> j & 1]] = 0  # exact infinite eigenvalues
        members = [b[0] if shared else b[i] for i in range(len(kinds))]
        for i, kind in enumerate(kinds):
            if kind == "singular":  # det(A - s B) = 0 for every s
                a[i, :, 0] = members[i][:, 0] = 0
        for i, kind in enumerate(kinds):
            if kind == "second shift":  # row 0 of A - SHIFTS[0] B is zero
                a[i, 0] = SHIFTS[0] * members[i][0]
        got = small_dense_eigen(a, b[0] if shared else b)
        assert len(got) == len(kinds)
        for i, kind in enumerate(kinds):
            want = solve1(a[i], members[i])
            # A zero row 0 of B leaves the second-shift member a zero row in both.
            singular = kind == "singular" or (kind == "second shift" and not members[i][0].any())
            assert (got[i] is None) == (want is None) == singular
            if singular:
                continue
            assert_bitwise_equal(got[i], want)
            if kind == "second shift":
                assert np.abs(got[i] - SHIFTS[0]).min() <= 1e-8

    def test_row_space(self):
        rng = np.random.default_rng(13)
        assert len(row_space(complex_normal(rng, 5, 5))[2]) == 5
        assert len(row_space(np.zeros((3, 3)))[2]) == 0
        b = complex_normal(rng, 5, 3) @ complex_normal(rng, 3, 5)
        b[0] *= 1e-300  # a tiny row keeps its rank
        scales, u, sigma, vh = row_space(b)
        assert len(sigma) == 3
        np.testing.assert_allclose((u[:, :3] * sigma) @ vh[:3], b / scales[:, None], atol=1e-14)

    def test_takes_only_a_stack(self):
        with pytest.raises(ValueError, match="stack"):
            small_dense_eigen(np.eye(3), np.eye(3))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_jordan_blocks(self, n):
        # Exactly parallel eigenvectors: X^-1 overflows or does not exist.
        nilpotent = np.diag(np.ones(n - 1), 1)
        values = solve1(nilpotent, np.eye(n))
        assert len(values) == len(eig_reference(nilpotent, np.eye(n))) == n  # none is infinite
        np.testing.assert_allclose(values, 0, atol=1e-3)
        assert len(solve1(np.eye(n), nilpotent)) == 0  # all infinite
        assert eig_reference(np.eye(n), nilpotent) == []

    def test_eigenvalue_at_first_shift_uses_fallback(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        a = np.diag([SHIFTS[0], 2.0, -1.0])
        values = solve1(a, np.eye(3))
        assert len(calls) == 2
        np.testing.assert_allclose(values, [-1, SHIFTS[0], 2], rtol=1e-14)
        calls.clear()
        solve1(np.diag([1.0, 2.0, -1.0]), np.eye(3))
        assert len(calls) == 1

    def test_random_pencils_match_qz_reference(self):
        from scipy.linalg import eigvals

        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = complex_normal(rng, 6, 6), complex_normal(rng, 6, 6)
            want, got = eigvals(a, b), solve1(a, b)
            assert len(got) == 6
            err = np.abs(got[:, None] - want[None, :]).min(axis=1)
            assert np.all(err <= 1e-10 * np.abs(got))
            err = np.abs(want[:, None] - got[None, :]).min(axis=1)
            assert np.all(err <= 1e-10 * np.abs(want))

    def test_repeat_calls_are_bitwise_equal(self):
        rng = np.random.default_rng(12)
        a, b = complex_normal(rng, 8, 8), complex_normal(rng, 8, 8)
        b[:, 0] = 0  # one infinite eigenvalue
        first, second = solve1(a, b), solve1(a, b)
        assert len(first) == 7  # the other eigenvalue is infinite
        assert_bitwise_equal(first, second)


def test_commutation_matrix_swaps_kron_factors():
    rng = np.random.default_rng(8)
    for m, n in [(2, 3), (3, 3), (1, 4)]:
        x = complex_normal(rng, m, m)
        y = complex_normal(rng, n, n)
        p = commutation_matrix(m, n)
        np.testing.assert_array_equal(p @ p.T, np.eye(m * n))
        np.testing.assert_allclose(p @ np.kron(x, y) @ p.T, np.kron(y, x), atol=1e-14)


class TestQuadraticEigen:
    # quadratic_eigen forms the companion pencil's 2n x 2n operator from n x n
    # solves; small_dense_eigen on the np.block companion pencil
    # (tests/helpers.py::companion_linearization_reference) is the reference.
    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("stack", [(), (4,)])
    def test_is_the_companion_pencil_solve(self, n, stack):
        rng = np.random.default_rng(50 + n)
        k2, k1, k0 = (with_signed_zeros(rng, complex_normal(rng, *stack or (1,), n, n))
                      for _ in range(3))
        if stack:
            k0[1] = 0  # t = 0 is an n-fold root
            k2[2, :, 0] = 0  # one infinite eigenvalue
            k2[3, :, 0] = k1[3, :, 0] = k0[3, :, 0] = 0  # Q(t) singular for every t
        got = quadratic_eigen(k2, k1, k0)
        want = small_dense_eigen(*companion_linearization_reference(k2, k1, k0))
        assert [None if g is None else len(g) for g in got] == \
            [None if w is None else len(w) for w in want]
        for g, w in zip(got, want):
            if w is not None and len(w):
                dist = np.abs(g[:, None] - w[None, :])
                assert np.all(dist.min(axis=1) <= 1e-10 * np.maximum(1, np.abs(g)))
                assert np.all(dist.min(axis=0) <= 1e-10 * np.maximum(1, np.abs(w)))
        assert got[0] is not None and len(got[0]) == 2 * n
        for i, g in enumerate(got):  # a stack is its one-member calls, bit for bit
            one, = quadratic_eigen(k2[i:i + 1], k1[i:i + 1], k0[i:i + 1])
            assert (one is None) == (g is None)
            if g is not None:
                assert_bitwise_equal(g, one)
        if stack:
            assert np.count_nonzero(got[1] == 0) == n and len(got[2]) == 2 * n - 1
            assert got[3] is None
