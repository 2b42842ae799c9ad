"""Kernel operations checked against independent oracles."""

import numpy as np
import pytest

from newton2pep import (
    NonSquareError,
    SingularPencilError,
    complex_normal,
    det,
    small_dense_eigen,
    smallest_singular_value,
)
from newton2pep.linalg import SHIFTS, as_matrix, row_space_basis

from helpers import assert_bitwise_equal, cofactor_det, commutation_matrix, kron_oracle


class TestAsMatrix:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[np.inf + 0j, 0], [0, 1]])

    def test_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            as_matrix(np.eye(2), 3, 3)


class TestKron:
    def test_identity_factor_is_block_diagonal(self):
        b = complex_normal(np.random.default_rng(0), 2, 2)
        got = np.kron(np.eye(2), b)
        want = np.block([[b, np.zeros((2, 2))], [np.zeros((2, 2)), b]])
        np.testing.assert_allclose(got, want)

    def test_e1_factor_stacks(self):
        b = complex_normal(np.random.default_rng(1), 2, 3)
        e1 = np.array([[1.0], [0.0], [0.0]])
        got = np.kron(e1, b)
        np.testing.assert_allclose(got[:2], b)
        np.testing.assert_allclose(got[2:], 0)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c, d = (complex_normal(rng, 2, 2) for _ in range(4))
            left = np.kron(a, b) @ np.kron(c, d)
            right = np.kron(a @ c, b @ d)
            np.testing.assert_allclose(left, right, atol=1e-12)

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(3)
        a = complex_normal(rng, 3, 2)
        b = complex_normal(rng, 2, 4)
        np.testing.assert_allclose(np.kron(a, b), kron_oracle(a, b))


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


class TestSmallDenseEigen:
    def test_diagonal_pair(self):
        pairs = small_dense_eigen(np.diag([1.0, 2.0]), np.eye(2))
        values = sorted(p.value.real for p in pairs)
        assert values == pytest.approx([1.0, 2.0])

    def test_infinite_eigenvalue(self):
        pairs = small_dense_eigen(np.eye(2), np.diag([1.0, 0.0]))
        finite = [p for p in pairs if not p.infinite]
        infinite = [p for p in pairs if p.infinite]
        assert len(finite) == 1 and len(infinite) == 1
        assert finite[0].value == pytest.approx(1.0)

    def test_residuals_random_pair(self):
        rng = np.random.default_rng(7)
        a = complex_normal(rng, 6, 6)
        b = complex_normal(rng, 6, 6)
        pairs = small_dense_eigen(a, b)
        assert len(pairs) == 6
        norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
        for p in pairs:
            if p.infinite:
                continue
            r = np.linalg.norm(a @ p.vector - p.value * (b @ p.vector))
            assert r < 1e-8 * (norm_a + abs(p.value) * norm_b) * np.linalg.norm(p.vector)

    def test_tiny_rows_are_not_indeterminate(self):
        # Regular pencil whose first row is scaled by 1e-11 (or 1e-300): the
        # same eigenvalues, and no false singular-pencil report.
        rng = np.random.default_rng(9)
        a = complex_normal(rng, 4, 4)
        b = complex_normal(rng, 4, 4)
        want = [p.value for p in small_dense_eigen(a, b)]
        for s in (1e-11, 1e-300):
            d = np.diag([s, 1.0, 1.0, 1.0])
            np.testing.assert_allclose([p.value for p in small_dense_eigen(d @ a, d @ b)],
                                       want, rtol=1e-10)
            values_only = small_dense_eigen(d @ a, d @ b, vectors=False)
            assert all(p.vector is None for p in values_only)
            np.testing.assert_allclose([p.value for p in values_only], want, rtol=1e-10)

    def test_singular_pencil_reported(self):
        # Common nullspace: last row/column zero in both matrices.
        a = np.zeros((2, 2), dtype=complex)
        b = np.zeros((2, 2), dtype=complex)
        a[0, 0] = 1.0
        b[0, 0] = 2.0
        with pytest.raises(SingularPencilError):
            small_dense_eigen(a, b)

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_jordan_block_at_infinity_reads_infinite(self, size, seed):
        # A = U diag(1, .., 1, 2, -3) V and B = U (J + diag(0, .., 0, 1, 1)) V,
        # J nilpotent of the given size: rounding splits the infinite
        # eigenvalue of op into a cluster of radius about eps^(1/size).
        rng = np.random.default_rng(seed)
        n = size + 2
        u, v = (np.linalg.qr(complex_normal(rng, n, n))[0] for _ in range(2))
        a0 = np.diag([1.0] * size + [2.0, -3.0]).astype(complex)
        b0 = np.diag([0.0] * size + [1.0, 1.0]) + np.diag([1.0] * (size - 1) + [0.0, 0.0], 1)
        pairs = small_dense_eigen(u @ a0 @ v, u @ b0 @ v)
        assert [p.infinite for p in pairs] == [False, False] + [True] * size
        np.testing.assert_allclose([p.value for p in pairs[:2]], [-3, 2], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_size_two_jordan_block_at_infinity_reads_infinite_values_only(self, seed):
        # The construction above with size 2. On B's row space the block is a
        # simple zero of op, so values alone read it infinite; on the full
        # space it splits by ~sqrt(eps) and is read by the rerun with vectors.
        rng = np.random.default_rng(seed)
        u, v = (np.linalg.qr(complex_normal(rng, 4, 4))[0] for _ in range(2))
        a = u @ np.diag([1.0, 1.0, 2.0, -3.0]).astype(complex) @ v
        b = u @ (np.diag([0.0, 0.0, 1.0, 1.0]) + np.diag([1.0, 0.0, 0.0], 1)) @ v
        basis = row_space_basis(b)
        assert basis.shape == (4, 3)
        pairs = small_dense_eigen(a, b, vectors=False, basis=basis)
        assert [p.infinite for p in pairs] == [False, False, True, True]
        np.testing.assert_allclose([p.value for p in pairs[:2]], [-3, 2], rtol=1e-12)

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_values_only_reads_infinity_as_vectors_do(self, size):
        # The masked Jordan construction above, seeds 0-9: an eigenvalue in
        # the band (eps ||op||_F, eps^(1/4) ||op||_F] makes the values-only
        # solve rerun eig with vectors, so its flags are the vectors' flags.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = size + 2
            u, v = (np.linalg.qr(complex_normal(rng, n, n))[0] for _ in range(2))
            a0 = np.diag([1.0] * size + [2.0, -3.0]).astype(complex)
            b0 = np.diag([0.0] * size + [1.0, 1.0]) + np.diag([1.0] * (size - 1) + [0.0, 0.0], 1)
            a, b = u @ a0 @ v, u @ b0 @ v
            want = [p.infinite for p in small_dense_eigen(a, b)]
            assert [p.infinite for p in small_dense_eigen(a, b, vectors=False)] == want

    def test_generic_values_only_solve_does_not_rerun(self, monkeypatch):
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda *a, **k: calls.append(1) or eig(*a, **k))
        rng = np.random.default_rng(14)
        a, b = complex_normal(rng, 3, 6, 6), complex_normal(rng, 6, 6)
        b[:, 0] = 0  # one infinite eigenvalue, exactly
        basis = row_space_basis(b)
        for member in small_dense_eigen(a, b, vectors=False) + [
                small_dense_eigen(a[0], b, vectors=False, basis=basis)]:
            assert [p.infinite for p in member] == [False] * 5 + [True]
        assert calls == []
        small_dense_eigen(a[0], b)
        assert calls == [1]

    @pytest.mark.parametrize("vectors", [True, False])
    def test_stack_is_bitwise_the_matrix_by_matrix_solve(self, vectors):
        rng = np.random.default_rng(15)
        a, b = complex_normal(rng, 4, 5, 5), complex_normal(rng, 4, 5, 5)
        a[1] = np.diag([SHIFTS[0], 2.0, -1.0, 0.5, 3.0]) @ b[1]  # needs the second shift
        a[2, :, 0] = b[2, :, 0] = 0  # singular: det(A - s B) = 0 for every s
        got = small_dense_eigen(a, b, vectors=vectors)
        assert got[2] is None
        with pytest.raises(SingularPencilError):
            small_dense_eigen(a[2], b[2], vectors=vectors)
        for k in (0, 1, 3):
            want = small_dense_eigen(a[k], b[k], vectors=vectors)
            assert [(p.value, p.infinite) for p in got[k]] == [(p.value, p.infinite) for p in want]
            for p, w in zip(got[k], want):
                assert (p.vector is None) == (not vectors)
                if vectors:
                    assert_bitwise_equal(p.vector, w.vector)

    def test_row_space_basis(self):
        rng = np.random.default_rng(13)
        assert row_space_basis(complex_normal(rng, 5, 5)) is None
        assert row_space_basis(np.zeros((3, 3))).shape == (3, 0)
        b = complex_normal(rng, 5, 3) @ complex_normal(rng, 3, 5)
        b[0] *= 1e-300  # a tiny row keeps its rank
        basis = row_space_basis(b)
        assert basis.shape == (5, 3)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(3), atol=1e-14)
        null = np.linalg.svd(b / np.abs(b).max(axis=1, keepdims=True))[2][3:].conj().T
        np.testing.assert_allclose(basis.conj().T @ null, 0, atol=1e-12)
        with pytest.raises(ValueError, match="vectors=False"):
            small_dense_eigen(np.eye(5), b, basis=basis)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_jordan_blocks(self, n):
        # Exactly parallel eigenvectors: X^-1 overflows or does not exist.
        nilpotent = np.diag(np.ones(n - 1), 1)
        finite = small_dense_eigen(nilpotent, np.eye(n))
        assert not any(p.infinite for p in finite)
        np.testing.assert_allclose([p.value for p in finite], 0, atol=1e-3)
        assert all(p.infinite for p in small_dense_eigen(np.eye(n), nilpotent))

    def test_eigenvalue_at_first_shift_uses_fallback(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        a = np.diag([SHIFTS[0], 2.0, -1.0])
        pairs = small_dense_eigen(a, np.eye(3))
        assert len(calls) == 2
        np.testing.assert_allclose([p.value for p in pairs], [-1, SHIFTS[0], 2], rtol=1e-14)
        calls.clear()
        small_dense_eigen(np.diag([1.0, 2.0, -1.0]), np.eye(3))
        assert len(calls) == 1

    def test_random_pencils_match_qz_reference(self):
        from scipy.linalg import eigvals

        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = complex_normal(rng, 6, 6), complex_normal(rng, 6, 6)
            want = eigvals(a, b)
            for vectors in (True, False):
                got = np.array([p.value for p in small_dense_eigen(a, b, vectors=vectors)])
                assert len(got) == 6
                err = np.abs(got[:, None] - want[None, :]).min(axis=1)
                assert np.all(err <= 1e-10 * np.abs(got))
                err = np.abs(want[:, None] - got[None, :]).min(axis=1)
                assert np.all(err <= 1e-10 * np.abs(want))

    def test_repeat_calls_are_bitwise_equal(self):
        rng = np.random.default_rng(12)
        a, b = complex_normal(rng, 8, 8), complex_normal(rng, 8, 8)
        b[:, 0] = 0  # one infinite eigenvalue
        first, second = small_dense_eigen(a, b), small_dense_eigen(a, b)
        assert [(p.value, p.infinite) for p in first] == [(p.value, p.infinite) for p in second]
        for p1, p2 in zip(first, second):
            np.testing.assert_array_equal(p1.vector, p2.vector)
        assert first[-1].infinite and not first[-2].infinite


def test_commutation_matrix_swaps_kron_factors():
    rng = np.random.default_rng(8)
    for m, n in [(2, 3), (3, 3), (1, 4)]:
        x = complex_normal(rng, m, m)
        y = complex_normal(rng, n, n)
        p = commutation_matrix(m, n)
        np.testing.assert_array_equal(p @ p.T, np.eye(m * n))
        np.testing.assert_allclose(p @ np.kron(x, y) @ p.T, np.kron(y, x), atol=1e-14)
