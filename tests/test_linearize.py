"""Companion and e1-ansatz constructors, witnesses and the det-ratio verifier."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton2pep import (
    COEFF_KEYS,
    AdmissibilityError,
    DegenerateProblemError,
    E1FreeParams,
    MatrixPoly2,
    NewtonNodes,
    NewtonPencil,
    annulus_points,
    companion_pencil,
    complex_normal,
    construct_e1_newton,
    construct_general_ansatz,
    membership_newton,
    select_M,
    unimodular_witnesses,
    verify_linearization,
    verify_spectrum_match,
)

from newton2pep import spaces
from newton2pep.linalg import det
from newton2pep.linearize import GAMMA_AGREEMENT_TOL

from helpers import (NODE_KINDS, assemble_e1_blocks_reference, assert_bitwise_equal,
                     cofactor_det, companion_params_reference, companion_reference,
                     general_ansatz_params_reference, newton_products, newton_triple,
                     nodes_of_kind, parameter_scaled, random_coeffs, random_monomial,
                     random_newton, ratio_passed, sampled_witness, scaled, witness_factors,
                     with_signed_zeros, z_block_reference)

PATTERNS = [(1, 1, 1), (0, 1, 1), (0, 0, 1), (1, 0, 1),
            (1, 0, 0), (1, 1, 0), (0, 1, 0)]


class TestCompanion:
    def test_membership_e1(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            q = random_monomial(rng, 3)
            res = membership_newton(companion_pencil(q), q)
            assert res.member
            np.testing.assert_allclose(res.ansatz, [1, 0, 0], atol=1e-12)

    def test_scalar_determinant_is_minus_q(self):
        rng = np.random.default_rng(1)
        q = random_monomial(rng, 1)
        c = companion_pencil(q)
        pts = annulus_points(rng, 100)
        for lam, mu in zip(pts[:50], pts[50:]):
            qval = q.eval(lam, mu)[0, 0]
            dval = cofactor_det(c.eval(lam, mu))  # independent oracle
            assert abs(dval + qval) <= 1e-10 * abs(qval)
            assert abs(det(c.eval(lam, mu)) + qval) <= 1e-10 * abs(qval)

    def test_eigenvector_carries_over(self):
        # If Q(lam0, mu0) x = 0, then C(lam0, mu0) (Lambda kron x) = 0.
        rng = np.random.default_rng(2)
        for _ in range(5):
            q = random_monomial(rng, 3)
            lam0, mu0 = annulus_points(rng, 2)
            x = complex_normal(rng, 3)
            x /= np.linalg.norm(x)
            # Shift the constant block so x is a null vector at (lam0, mu0).
            shift = q.eval(lam0, mu0) @ np.outer(x, x.conj())
            coeffs = {k: q.coeff(*k) for k in q.coeffs}
            coeffs[(0, 0)] = q.coeff(0, 0) - shift
            q2 = MatrixPoly2.newton(coeffs)
            assert np.linalg.norm(q2.eval(lam0, mu0) @ x) < 1e-12
            c = companion_pencil(q2)
            w = np.kron(np.array([lam0, mu0, 1.0]), x)
            assert np.linalg.norm(c.eval(lam0, mu0) @ w) < 1e-10


class TestE1Monomial:
    def test_companion_params_reproduce_companion(self):
        # companion_pencil is the e1 pencil of the companion parameters; its
        # blocks are the companion formula bit for bit, signed zeros included.
        rng = np.random.default_rng(3)
        for n in (1, 2, 8):
            q = random_monomial(rng, n)
            for a, b in zip(companion_pencil(q).blocks(), companion_reference(q)):
                assert_bitwise_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("kind", ["random", "companion", "zero"])
    def test_in_place_assembly_is_the_stacked_formula_bitwise(self, n, kind):
        # construct_e1_newton, z_block and E1FreeParams.companion fill
        # preallocated arrays; the stacked formulas are the reference, signed
        # zeros included (-Z + 0 reads +0.0 where Z is -0.0 or +0.0). The
        # "zero" parameters are signed zeros but for the diagonal of the Z
        # block, which is 1, so that they are admissible.
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            q = MatrixPoly2.newton({key: with_signed_zeros(rng, c)
                                    for key, c in random_coeffs(rng, n).items()})
            if kind == "companion":
                params = E1FreeParams.companion(q)
                want = companion_params_reference(q)
                for got_m, want_m in zip((params.y11, params.z1, params.z2),
                                         (want.y11, want.z1, want.z2)):
                    assert_bitwise_equal(got_m, want_m)
            else:
                shapes = ((n, n), (3 * n, n), (3 * n, n))
                y11, z1, z2 = (with_signed_zeros(rng, complex_normal(rng, *shape))
                               * (kind == "random") for shape in shapes)
                if kind == "zero":
                    z1[n:2 * n] += np.eye(n)
                    z2[2 * n:] += np.eye(n)
                params = E1FreeParams.build(y11, z1, z2)
            for got, want in zip(construct_e1_newton(q, params).blocks(),
                                 assemble_e1_blocks_reference(q, params)):
                assert_bitwise_equal(got, want)
            assert_bitwise_equal(params.z_block, z_block_reference(params))

    def test_random_admissible_membership(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            q = random_monomial(rng, 2)
            pencil = construct_e1_newton(q, E1FreeParams.random(2, rng))
            res = membership_newton(pencil, q)
            assert res.member
            np.testing.assert_allclose(res.ansatz, [1, 0, 0], atol=1e-10)

    def test_random_z_block_is_unitary(self):
        # One unitary draw, never redrawn: sigma_min(Z) = sigma_max(Z) = 1 to rounding.
        for n in range(1, 9):
            for seed in range(200):
                z = E1FreeParams.random(n, np.random.default_rng(seed)).z_block
                sv = np.linalg.svd(z, compute_uv=False)
                assert max(abs(sv[0] - 1), abs(sv[-1] - 1)) <= 1e-14, (n, seed)

    def test_antidiagonal_identity_blocks_admissible(self):
        n = 2
        eye, zero = np.eye(n), np.zeros((n, n))
        z1 = np.vstack([zero, eye, zero])   # Z21 = I, Z31 = 0
        z2 = np.vstack([zero, zero, eye])   # Z22 = 0, Z32 = I
        params = E1FreeParams.build(zero, z1, z2)
        params.require_admissible()
        assert abs(det(params.z_block)) == pytest.approx(1.0)

    def test_singular_z_rejected_with_diagnostic(self):
        n = 2
        zero = np.zeros((n, n))
        z = np.vstack([np.ones((n, n)), zero, zero])
        params = E1FreeParams.build(zero, z, z)
        with pytest.raises(AdmissibilityError, match="sigma_min"):
            construct_e1_newton(random_monomial(np.random.default_rng(5), 2), params)


class TestE1Newton:
    def test_zero_nodes_match_monomial_construction(self):
        rng = np.random.default_rng(6)
        qn = random_newton(rng, 2, NewtonNodes())
        params = E1FreeParams.random(2, rng)
        pn = construct_e1_newton(qn, params)
        pts = annulus_points(rng, 20)
        for lam, mu in zip(pts[:10], pts[10:]):
            np.testing.assert_array_equal(pn.eval(lam, mu),
                                          lam * pn.A1 + mu * pn.A2 + pn.A3)

    def test_companion_params_give_transferred_companion(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 8):
            qn = random_newton(rng, n)
            cn = companion_pencil(qn)
            for a, b in zip(cn.blocks(), companion_reference(qn)):
                assert_bitwise_equal(a, b)
            assert membership_newton(cn, qn).member

    def test_scaled_z_is_admissible_and_verifies(self):
        # Every nonzero multiple of an admissible Z is admissible. gamma =
        # det Z shrinks as the multiple to the power 2n and has no floor.
        rng = np.random.default_rng(23)
        for n in (1, 2, 3):
            qn = random_newton(rng, n)
            params = E1FreeParams.random(n, rng)
            small = E1FreeParams.build(params.y11, 1e-8 * params.z1, 1e-8 * params.z2)
            small.require_admissible()
            assert verify_linearization(construct_e1_newton(qn, small), qn).passed

    def test_random_admissible_verifies(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            qn = random_newton(rng, n)
            pencil = construct_e1_newton(qn, E1FreeParams.random(n, rng))
            report = verify_linearization(pencil, qn)
            assert report.passed

    def test_lower_rows_annihilate_basis_stack(self):
        # Ansatz e1 means rows n..3n of L (N kron x) vanish for every x.
        rng = np.random.default_rng(9)
        n = 3
        qn = random_newton(rng, n)
        pencil = construct_e1_newton(qn, E1FreeParams.random(n, rng))
        pts = annulus_points(rng, 10)
        for lam, mu in zip(pts[:5], pts[5:]):
            x = complex_normal(rng, n)
            w = np.kron(newton_triple(qn.nodes, lam, mu), x)
            out = pencil.eval(lam, mu) @ w
            assert np.abs(out[n:]).max() < 1e-12 * max(1.0, np.abs(out).max())


class TestWitnesses:
    def test_reduction_and_unimodularity(self):
        rng = np.random.default_rng(10)
        qn = random_newton(rng, 2)
        params = E1FreeParams.random(2, rng)
        pencil = construct_e1_newton(qn, params)
        wit = unimodular_witnesses(qn, pencil, params)
        assert wit.reduction_residual == 0.0  # the e1 pencil of params, block for block
        residual, deviation = sampled_witness(qn, pencil, params)
        assert residual < 1e-9 and deviation < 1e-9
        pts = annulus_points(rng, 8)
        for lam, mu in zip(pts[:4], pts[4:]):
            e, f = witness_factors(qn, params, lam, mu)
            assert det(e) == pytest.approx(1.0, abs=1e-12)
            red = f @ pencil.eval(lam, mu) @ e
            np.testing.assert_allclose(red[2:, :2], 0, atol=1e-10)
            np.testing.assert_allclose(red[:2, 2:], 0, atol=1e-10)

    def test_stacked_factors_are_pointwise_bitwise(self):
        # The sampled reference (tests/helpers.py) evaluates E and F as stacks.
        rng = np.random.default_rng(25)
        for n in (1, 3):
            qn = random_newton(rng, n)
            params = E1FreeParams.random(n, rng)
            pencil = construct_e1_newton(qn, params)
            lams, mus = annulus_points(rng, 6), annulus_points(rng, 6)
            e, f = witness_factors(qn, params, lams, mus)
            reduced = f @ pencil.eval(lams, mus) @ e
            for k in range(6):
                ek, fk = witness_factors(qn, params, lams[k], mus[k])
                np.testing.assert_array_equal(e[k], ek)
                np.testing.assert_array_equal(f[k], fk)
                np.testing.assert_array_equal(reduced[k], fk @ pencil.eval(lams[k], mus[k]) @ ek)

    def test_gamma_prediction_matches_verifier(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            qn = random_newton(rng, n)
            params = E1FreeParams.random(n, rng)
            pencil = construct_e1_newton(qn, params)
            wit = unimodular_witnesses(qn, pencil, params)
            report = verify_linearization(pencil, qn)
            predicted = np.exp(wit.log_predicted_gamma)
            assert predicted == pytest.approx(det(params.z_block), rel=1e-10)
            assert abs(np.exp(report.log_gamma - wit.log_predicted_gamma) - 1) <= 1e-8

    def test_subnormal_e1_pencil_has_zero_residual(self):
        # Problem, parameters and pencil all times 2^-1030: the blocks and Z are
        # brought to unit size by np.ldexp (the factor 2.0 ** 1030 overflows, and
        # the residual read nan). det Z underflows, yet log det Z is finite: it
        # is log det(2^e Z) - 2n e log 2 (slogdet of Z itself read nan).
        q = random_newton(np.random.default_rng(101), 3)
        params = E1FreeParams.companion(q)
        f = 2.0 ** -1030
        tiny = E1FreeParams.build(*(f * x for x in params))
        pencil = NewtonPencil.from_blocks(q.nodes, *(f * b for b in companion_pencil(q).blocks()))
        tiny_q = scaled(q, f)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            wit = unimodular_witnesses(tiny_q, pencil, tiny)
        assert wit.reduction_residual == 0.0
        sign, log_z = np.linalg.slogdet(params.z_block)
        want = log_z + 2 * q.n * np.log(f) + 1j * np.angle(sign)
        assert wit.log_predicted_gamma == pytest.approx(want, rel=1e-15, abs=0)

    def test_size_mismatch_names_the_sizes(self):
        rng = np.random.default_rng(28)
        q2, q3 = random_newton(rng, 2, NewtonNodes()), random_newton(rng, 3, NewtonNodes())
        params2, params3 = E1FreeParams.random(2, rng), E1FreeParams.random(3, rng)
        with pytest.raises(ValueError, match="size mismatch: pencil n=3, polynomial n=2"):
            unimodular_witnesses(q2, construct_e1_newton(q3, params3), params2)
        with pytest.raises(ValueError, match="size mismatch: params n=3, polynomial n=2"):
            unimodular_witnesses(q2, construct_e1_newton(q2, params2), params3)

    def test_singular_z_rejected(self):
        rng = np.random.default_rng(12)
        qn = random_newton(rng, 2)
        zero = np.zeros((2, 2))
        bad = E1FreeParams.build(zero, np.zeros((6, 2)), np.zeros((6, 2)))
        pencil = NewtonPencil.from_blocks(qn.nodes, *assemble_e1_blocks_reference(qn, bad))
        with pytest.raises(AdmissibilityError):
            unimodular_witnesses(qn, pencil, bad)

    def test_overflowing_e1_blocks_raise(self):
        # C11 - Y11 = 3e308 leaves the double range. The witness builds its
        # target through construct_e1_newton, which rejects non-finite blocks.
        rng = np.random.default_rng(29)
        q = random_newton(rng, 2)
        eye = np.eye(2)
        q = MatrixPoly2.newton({**q.coeffs, (1, 1): 1.5e308 * eye}, q.nodes)
        z = E1FreeParams.random(2, rng)
        params = E1FreeParams.build(-1.5e308 * eye, z.z1, z.z2)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="A1 contains non-finite entries"):
                construct_e1_newton(q, params)
            with pytest.raises(ValueError, match="A1 contains non-finite entries"):
                unimodular_witnesses(q, companion_pencil(q), params)


WITNESS_CONSTRUCTIONS = ["e1", "companion", *PATTERNS]


def e1_pencil_and_params(q, construction, rng):
    """An e1-form pencil of q with its parameters: a random "e1" draw, the
    "companion" pencil, or for a zero pattern such as (1, 0, 1) the
    general-ansatz pencil taken back through M, (M kron I) L_v."""
    if construction == "e1":
        params = E1FreeParams.random(q.n, rng)
        return construct_e1_newton(q, params), params
    if construction == "companion":
        return companion_pencil(q), E1FreeParams.companion(q)
    v = rng.uniform(0.5, 2.0, 3) * np.exp(2j * np.pi * rng.uniform(size=3)) * np.array(construction)
    return (construct_general_ansatz(q, v).left_multiply(select_M(v)),
            general_ansatz_params_reference(q, v))


class TestWitnessRoutes:
    # The block check against the sampled reduction F L E = diag(Q, I), which
    # is the second route (tests/helpers.py::sampled_witness).
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.sampled_from(NODE_KINDS),
           st.sampled_from(WITNESS_CONSTRUCTIONS), st.integers(0, 2**32 - 1))
    def test_agrees_with_sampled_route(self, n, kind, construction, seed):
        rng = np.random.default_rng(seed)
        q = MatrixPoly2.newton(random_coeffs(rng, n), nodes_of_kind(rng, kind))
        pencil, params = e1_pencil_and_params(q, construction, rng)
        residual, deviation = sampled_witness(q, pencil, params)
        assert unimodular_witnesses(q, pencil, params).reduction_residual <= 1e-13
        assert residual <= 1e-9 and deviation <= 1e-9
        # A move of 1e-6 read 8.5e-10 on the sampled route in 1 of 4,000
        # draws (its residual is relative to ||L|| ||F||), so move by 1e-5.
        blocks = [a.copy() for a in pencil.blocks()]
        which, i, j = int(rng.integers(3)), *rng.integers(3 * n, size=2)
        blocks[which][i, j] += 1e-5 * np.abs(blocks[which]).max()
        bad = NewtonPencil.from_blocks(q.nodes, *blocks)
        assert unimodular_witnesses(q, bad, params).reduction_residual > 1e-9
        assert sampled_witness(q, bad, params)[0] > 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.sampled_from(WITNESS_CONSTRUCTIONS), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_residual_does_not_depend_on_nodes(self, n, construction, perturb, seed):
        # The same blocks and parameters on other nodes give bitwise the same
        # residual and prediction: the block check never reads the nodes.
        rng = np.random.default_rng(seed)
        coeffs = random_coeffs(rng, n)
        pencil, params = e1_pencil_and_params(MatrixPoly2.newton(coeffs, NewtonNodes()),
                                              construction, rng)
        blocks = pencil.blocks()
        if perturb:
            blocks = (blocks[0] + 1e-4 * complex_normal(rng, 3 * n, 3 * n), *blocks[1:])
        results = []
        for kind in (*NODE_KINDS, "newton"):
            nodes = nodes_of_kind(rng, kind)
            wit = unimodular_witnesses(MatrixPoly2.newton(coeffs, nodes),
                                       NewtonPencil.from_blocks(nodes, *blocks), params)
            results.append((wit.reduction_residual, wit.log_predicted_gamma))
        assert results == results[:1] * len(results)
        assert (results[0][0] > 1e-9) is perturb


def member_with_construction(q, construction, explicit, rng):
    """A member pencil of q with the M and parameters it was built from: the
    "companion" pencil (M = I), or the general-ansatz pencil of a zero
    pattern, with random parameters when ``explicit`` and the defaults otherwise."""
    if construction == "companion":
        return companion_pencil(q), np.eye(3), E1FreeParams.companion(q)
    v = rng.uniform(0.5, 2.0, 3) * np.exp(2j * np.pi * rng.uniform(size=3)) * np.array(construction)
    params = E1FreeParams.random(q.n, rng) if explicit else None
    return (construct_general_ansatz(q, v, params), select_M(v),
            general_ansatz_params_reference(q, v, params))


class TestMemberWitness:
    # The witness of a member pencil reads M from its recovered ansatz and the
    # parameters from its blocks; nothing recorded enters.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.sampled_from(NODE_KINDS),
           st.sampled_from(["companion", *PATTERNS]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_reads_the_construction_from_the_blocks(self, n, kind, construction, explicit,
                                                     seed):
        rng = np.random.default_rng(seed)
        q = MatrixPoly2.newton(random_coeffs(rng, n), nodes_of_kind(rng, kind))
        pencil, m, params = member_with_construction(q, construction, explicit, rng)
        read = E1FreeParams.of_e1_pencil(pencil.left_multiply(m))
        scale = max(np.abs(getattr(params, name)).max() for name in ("y11", "z1", "z2"))
        for name in ("y11", "z1", "z2"):
            assert np.abs(getattr(read, name) - getattr(params, name)).max() <= 1e-13 * scale
        report = verify_linearization(pencil, q, seed=seed % 100)
        assert report.membership.member
        wit = report.witness
        assert wit.reduction_residual <= 1e-13
        agreement = abs(np.exp(report.log_gamma - wit.log_predicted_gamma) - 1)
        assert agreement == report.gamma_agreement <= GAMMA_AGREEMENT_TOL
        assert report.witness_passed and report.passed

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.sampled_from(NODE_KINDS), st.integers(0, 2**32 - 1))
    def test_member_outside_the_family_fails(self, n, kind, seed):
        # Y added to the lower rows of A2[0] and taken from A1[1] keeps every
        # block of S, so L stays in the e1 space; but the family has Y1 = (Y11; 0; 0).
        rng = np.random.default_rng(seed)
        q = MatrixPoly2.newton(random_coeffs(rng, n), nodes_of_kind(rng, kind))
        a1, a2, a3 = assemble_e1_blocks_reference(q, E1FreeParams.random(n, rng))
        y = complex_normal(rng, 2 * n, n)
        a2[n:, :n] += y
        a1[n:, n:2 * n] -= y
        pencil = NewtonPencil.from_blocks(q.nodes, a1, a2, a3)
        report = verify_linearization(pencil, q, seed=seed % 100)
        assert report.membership.member
        assert report.witness.reduction_residual > 1e-3
        assert not report.witness_passed and not report.passed
        assert not ratio_passed(report)

    def test_zero_ansatz_has_no_witness(self):
        q = random_newton(np.random.default_rng(8), 2)
        zero = np.zeros((6, 6))
        pencil = NewtonPencil.from_blocks(q.nodes, zero, zero, zero)
        report = verify_linearization(pencil, q)
        assert report.membership.member
        with pytest.raises(ValueError, match="zero ansatz"):
            select_M(report.membership.ansatz)
        assert isinstance(report.witness, AdmissibilityError)
        assert re.search("zero ansatz", str(report.witness))
        assert np.isnan(report.gamma_agreement) and not report.witness_passed


class TestVerifyLinearization:
    def test_ansatz_out_of_double_range_is_witnessed_at_unit_size(self):
        # Q times 1e-300 against its companion pencil times 1e300: v = 1e600 e1
        # leaves the double range and reads inf, with no numpy warning, but M and
        # the witness are taken on the unit-size pair, so all three routes pass.
        q0 = random_newton(np.random.default_rng(3), 2)
        pencil = NewtonPencil.from_blocks(q0.nodes, *(1e300 * a for a in
                                                      companion_pencil(q0).blocks()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_linearization(pencil, scaled(q0, 1e-300))
        assert report.membership.member and report.membership.ansatz[0].real == np.inf
        assert report.witness.reduction_residual <= 1e-13
        assert report.gamma_agreement <= GAMMA_AGREEMENT_TOL and report.witness_passed
        assert report.log_gamma.real == pytest.approx(2400 * np.log(10), rel=1e-12)
        assert report.passed and ratio_passed(report)

    @pytest.mark.parametrize("n", [2, 64])
    def test_report_is_the_same_in_any_chunking(self, n, monkeypatch):
        # det L is taken STACK_BYTES of values at a time: all 12 points at n = 2, one at
        # n = 64. One point per chunk or all at once gives the same report, bit for bit.
        rng = np.random.default_rng(18)
        q = random_newton(rng, n)
        pencil = construct_e1_newton(q, E1FreeParams.random(n, rng))
        reports = set()
        for stack_bytes in (1, spaces.STACK_BYTES, 1 << 30):
            monkeypatch.setattr(spaces, "STACK_BYTES", stack_bytes)
            reports.add(repr(verify_linearization(pencil, q)))
        assert len(reports) == 1

    def test_companion_gamma_minus_one_scalar(self):
        rng = np.random.default_rng(13)
        qn = random_newton(rng, 1, NewtonNodes())
        pencil = companion_pencil(qn)
        report = verify_linearization(pencil, qn)
        assert report.passed
        assert np.exp(report.log_gamma) == pytest.approx(-1.0, rel=1e-10)

    def test_zero_z_block_fails(self):
        rng = np.random.default_rng(14)
        qn = random_newton(rng, 2)
        n = 2
        zero = np.zeros((n, n))
        z1 = np.vstack([complex_normal(rng, n, n), zero, zero])
        z2 = np.vstack([complex_normal(rng, n, n), zero, zero])
        blocks = assemble_e1_blocks_reference(
            qn, E1FreeParams.build(complex_normal(rng, n, n), z1, z2))
        pencil = NewtonPencil.from_blocks(qn.nodes, *blocks)
        # Rows n..3n of the pencil vanish in two block columns: det == 0.
        pts = annulus_points(rng, 24)
        for lam, mu in zip(pts[:12], pts[12:]):
            assert abs(det(pencil.eval(lam, mu))) < 1e-10
        report = verify_linearization(pencil, qn)
        assert not report.passed and not ratio_passed(report)

    def test_degenerate_polynomial_inconclusive(self):
        rng = np.random.default_rng(15)
        coeffs = {k: np.zeros((2, 2)) for k in
                  ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))}
        # Rank-one everywhere: every coefficient shares a zero column.
        for k in coeffs:
            block = np.zeros((2, 2), dtype=complex)
            block[:, 0] = complex_normal(rng, 2)
            coeffs[k] = block
        qn = MatrixPoly2.newton(coeffs, NewtonNodes())
        pencil = companion_pencil(qn)
        with pytest.raises(DegenerateProblemError):
            verify_linearization(pencil, qn)

    def test_generic_q_takes_one_values_only_svd(self, monkeypatch):
        # det Q vanishes at every sample only if it vanishes at the first, so
        # the other samples' SVDs are taken only when the first is singular. The
        # one other SVD is the witness's admissibility test of the 2n x 2n Z block.
        rng = np.random.default_rng(17)
        qn = random_newton(rng, 4)
        pencil, shapes, real = companion_pencil(qn), [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, *args, **kw: shapes.append(np.shape(a)) or real(a, *args, **kw))
        assert verify_linearization(pencil, qn).passed
        assert shapes == [(4, 4), (8, 8)]

    @pytest.mark.parametrize("samples", [0, 1, 5])
    def test_fewer_than_six_samples_rejected(self, samples):
        # A single point used to pass, and zero points read "det Q vanishes".
        rng = np.random.default_rng(13)
        qn = random_newton(rng, 2)
        with pytest.raises(ValueError, match=f"samples must be at least 6.*got {samples}"):
            verify_linearization(companion_pencil(qn), qn, samples=samples)
        assert verify_linearization(companion_pencil(qn), qn, samples=6).passed

    def test_ansatz_invariance_under_block_row_ops(self):
        # membership((M kron I) L) = M * membership(L) for nonsingular M.
        rng = np.random.default_rng(16)
        qn = random_newton(rng, 2)
        pencil = construct_e1_newton(qn, E1FreeParams.random(2, rng))
        m = complex_normal(rng, 3, 3)
        t = np.kron(m, np.eye(2))
        moved = NewtonPencil.from_blocks(qn.nodes, t @ pencil.A1,
                                         t @ pencil.A2, t @ pencil.A3)
        v = membership_newton(moved, qn).ansatz
        np.testing.assert_allclose(v, m @ np.array([1, 0, 0]), atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 8), st.sampled_from(NODE_KINDS), st.integers(0, 2**32 - 1))
    def test_sample_logs_are_the_determinants(self, n, kind, seed):
        # Each sample keeps det L and det Q as log|d| + i arg d; exp of it is
        # the determinant at that point, for a pencil that is no linearization too.
        rng = np.random.default_rng(seed)
        q = MatrixPoly2.newton(random_coeffs(rng, n), nodes_of_kind(rng, kind))
        pencil = NewtonPencil.from_blocks(q.nodes, *complex_normal(rng, 3, 3 * n, 3 * n))
        report = verify_linearization(pencil, q, seed=seed % 100)
        assert len(report.samples) == 12
        for lam, mu, log_det_l, log_det_q, _ in report.samples:
            for log_d, value in ((log_det_l, pencil.eval(lam, mu)), (log_det_q, q.eval(lam, mu))):
                assert np.exp(log_d) == pytest.approx(np.linalg.det(value), rel=1e-12)

    @pytest.mark.parametrize("n", [64, 96])
    def test_large_well_conditioned_q_passes(self, n):
        # det L leaves the double range at n = 96; the log-space comparison
        # does not, and the rank test does not mistake a large n for det Q = 0.
        rng = np.random.default_rng(n)
        qn = random_newton(rng, n)
        report = verify_linearization(construct_e1_newton(qn, E1FreeParams.random(n, rng)), qn)
        assert report.passed
        assert report.max_relative_deviation < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 4])
    def test_companion_with_c20_near_the_double_range_passes(self, seed):
        # C20 times 1e308: Q and L evaluated as given overflow (numpy warnings,
        # a nan deviation). Evaluated at unit size they pass, and log gamma,
        # less the exact multiples of log 2, is that of the companion, 0.
        q = random_newton(np.random.default_rng(seed), 2)
        q = MatrixPoly2.newton({**q.coeffs, (2, 0): 1e308 * q.coeff(2, 0)}, q.nodes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_linearization(companion_pencil(q), q)
        assert report.passed
        assert abs(report.log_gamma) < 1e-9

    def test_sample_where_det_l_overflows_has_deviation_inf(self):
        # L's values grow with lambda - alpha1 = -8e307, while this Q has no
        # lambda term and stays in range. At one of the 12 samples the LU of
        # L overflows: log det L reads nan and the deviation inf, with no
        # numpy warning.
        rng = np.random.default_rng(14)
        q = random_newton(rng, 2, NewtonNodes(8e307))
        q = MatrixPoly2.newton({k: c if k[0] == 0 else 0 * c for k, c in q.coeffs.items()},
                               q.nodes)
        pencil = NewtonPencil.from_blocks(q.nodes, *complex_normal(rng, 3, 6, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_linearization(pencil, q)
        overflowed = [s for s in report.samples if np.isnan(s[2].real)]
        assert len(overflowed) == 1 and overflowed[0][4] == np.inf
        assert np.isfinite([s[3].real for s in report.samples]).all()
        assert report.max_relative_deviation == np.inf and not report.passed

    def test_shared_samples_bound_peak_memory(self):
        # The three certificates on one sample set at n = 48 hold pencil values
        # in chunks: the peak stays below two (K, 3n, 3n) stacks (without
        # chunking it is about five).
        n = 48
        rng = np.random.default_rng(26)
        qn = random_newton(rng, n)
        params = E1FreeParams.random(n, rng)
        pencil = construct_e1_newton(qn, params)
        stack_bytes = 12 * (3 * n) ** 2 * 16
        tracemalloc.start()
        try:
            assert membership_newton(pencil, qn).member
            assert verify_linearization(pencil, qn, seed=5).passed
            unimodular_witnesses(qn, pencil, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * stack_bytes

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(-80, 80), st.integers(0, 2**32 - 1))
    def test_verdict_invariant_under_power_of_two_scaling(self, n, k, seed):
        # Q -> 2^k Q with Y, Z -> 2^k Y, 2^k Z scales the e1 pencil, and the
        # pencil taken through M^{-1} and back, by 2^k exactly, so the block
        # residual of the round trip does not move by a single bit.
        rng = np.random.default_rng(seed)
        qn = random_newton(rng, n)
        params = E1FreeParams.random(n, rng)
        v = rng.uniform(0.5, 2.0, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
        residuals = []
        for q, p in ((qn, params), (scaled(qn, 2.0 ** k),
                                    E1FreeParams.build(*(2.0 ** k * x for x in
                                                         (params.y11, params.z1, params.z2))))):
            pencil = construct_general_ansatz(q, v, p).left_multiply(select_M(v))
            assert membership_newton(pencil, q).member
            report = verify_linearization(pencil, q)
            assert report.passed
            wit = unimodular_witnesses(q, pencil, general_ansatz_params_reference(q, v, p))
            assert wit.reduction_residual < 1e-13
            residuals.append(wit.reduction_residual)
            assert abs(np.exp(report.log_gamma - wit.log_predicted_gamma) - 1) < 1e-6
        assert_bitwise_equal(*residuals)

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([1, 2, 3, 8, 32, 64]), st.integers(0, 2**32 - 1))
    def test_admissible_e1_construction_passes(self, n, seed):
        rng = np.random.default_rng(seed)
        qn = random_newton(rng, n)
        pencil = construct_e1_newton(qn, E1FreeParams.random(n, rng))
        assert membership_newton(pencil, qn).member
        assert verify_linearization(pencil, qn, seed=seed % 1000).passed

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(-40, 40))
    def test_scalar_companion_determinant_is_minus_q(self, seed, k):
        # Relative to the sum of the absolute terms of q, so that a point near
        # a zero of q does not count as a failure.
        rng = np.random.default_rng(seed)
        qn = scaled(random_newton(rng, 1), 2.0 ** k)
        lams, mus = annulus_points(rng, 8), annulus_points(rng, 8)
        dets = det(companion_pencil(qn).eval(lams, mus))
        qvals = qn.eval(lams, mus)[:, 0, 0]
        terms = np.abs(newton_products(qn.nodes, lams, mus)).T @ np.abs(
            [qn.coeff(*key)[0, 0] for key in COEFF_KEYS])
        assert np.all(np.abs(dets + qvals) <= 1e-12 * terms)


class TestGeneralAnsatz:
    def test_e1_target_matches_direct_construction_shape(self):
        rng = np.random.default_rng(17)
        qn = random_newton(rng, 2)
        v = np.array([1.0, 0, 0])
        pencil = construct_general_ansatz(qn, v)
        e1 = construct_e1_newton(qn, general_ansatz_params_reference(qn, v))
        for got, want in zip(pencil.left_multiply(select_M(v)).blocks(), e1.blocks()):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())
        res = membership_newton(pencil, qn)
        assert res.member
        np.testing.assert_allclose(res.ansatz, [1, 0, 0], atol=1e-10)
        assert verify_linearization(pencil, qn).passed

    def test_last_component_pattern_verifies(self):
        rng = np.random.default_rng(18)
        qn = random_newton(rng, 2)
        pencil = construct_general_ansatz(qn, np.array([0.0, 0, 1.0]))
        assert verify_linearization(pencil, qn).passed

    def test_all_ones_recovers_requested_ansatz(self):
        rng = np.random.default_rng(19)
        qn = random_newton(rng, 2)
        v = np.array([1.0, 1.0, 1.0])
        res = membership_newton(construct_general_ansatz(qn, v), qn)
        assert res.member
        np.testing.assert_allclose(res.ansatz, v, atol=1e-9)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_every_pattern_linearizes(self, pattern):
        rng = np.random.default_rng(sum(pattern) * 100 + 20)
        qn = random_newton(rng, 2)
        r = rng.uniform(0.5, 2.0, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
        v = np.array([r[i] if pattern[i] else 0.0 for i in range(3)])
        pencil = construct_general_ansatz(qn, v)
        assert verify_linearization(pencil, qn).passed
        res = membership_newton(pencil, qn)
        assert res.member
        np.testing.assert_allclose(res.ansatz, v, atol=1e-8)

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_default_z_is_the_identity_for_every_scale(self, pattern, scale):
        # Without params the e1 pencil is that of Y11 = 0, Z1 = 2^-(e+1) (0; I; 0),
        # Z2 = 2^-(e+1) (0; 0; I), the identity at Q's scale (2^e Q at unit size),
        # whatever M is, and M^{-1} kron I carries the scale of v.
        rng = np.random.default_rng(24)
        qn = random_newton(rng, 2)
        r = rng.uniform(0.5, 2.0, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
        v = scale * r * np.array(pattern)
        pencil = construct_general_ansatz(qn, v)
        eye, zero = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
        eye *= 2.0 ** (-1 - qn.at_unit_size()[1])
        params = E1FreeParams.build(zero, np.vstack([zero, eye, zero]),
                                    np.vstack([zero, zero, eye]))
        want = construct_e1_newton(qn, params).left_multiply(np.linalg.inv(select_M(v)))
        for got, block in zip(pencil.blocks(), want.blocks()):
            assert_bitwise_equal(got, block)
        assert verify_linearization(pencil, qn).passed
        res = membership_newton(pencil, qn)
        assert res.member
        np.testing.assert_allclose(res.ansatz, v, rtol=1e-8, atol=1e-8 * scale)

    def test_default_member_of_a_scaled_problem_passes(self):
        # With Z = I_2n, far below this Q's scale, the sampled deviation of the
        # (1, 1, 1) member was 3.8e-9 against 1e-9; with Z at Q's scale it passes.
        q = scaled(random_newton(np.random.default_rng(101), 3), 1.37e6)
        assert verify_linearization(construct_general_ansatz(q, (1, 1, 1)), q).passed

    @pytest.mark.parametrize("v", [(1, 0, 0), (1, 1, 1)])
    @pytest.mark.parametrize("a, b, k", [(0, 0, 0), (0, -16, 0), (16, 16, 0), (24, -24, 0),
                                         (-20, 12, 0), (0, 0, -200), (0, 0, 100), (0, 0, 300)])
    def test_default_members_pass_at_every_scale(self, v, a, b, k):
        # 2^k Q(2^a lam, 2^b mu) is Q in other units, so its default members must
        # pass both checks as Q's do.
        for seed in range(500, 508):
            q = scaled(parameter_scaled(random_newton(np.random.default_rng(seed), 3), a, b),
                       2.0 ** k)
            pencil = construct_general_ansatz(q, v)
            assert verify_linearization(pencil, q).passed
            assert verify_spectrum_match(q, pencil).all_contained

    @pytest.mark.parametrize("v", [(1, 0, 0), (1, 1, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 4])
    def test_default_members_at_the_top_of_the_double_range_verify(self, seed, v):
        # C20 times 1e308 has a part of at least 2^1023 (e = -1024): the default
        # Z sits in that binade, 2^1023 I, finite and below Q's largest part.
        q = random_newton(np.random.default_rng(seed), 2)
        q = MatrixPoly2.newton({**q.coeffs, (2, 0): 1e308 * q.coeff(2, 0)}, q.nodes)
        assert q.at_unit_size()[1] == -1024
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pencil = construct_general_ansatz(q, v)
            params = general_ansatz_params_reference(q, v)
            assert_bitwise_equal(params.z1[2:4], 2.0 ** 1023 * np.eye(2, dtype=complex))
            want = construct_e1_newton(q, params).left_multiply(np.linalg.inv(select_M(v)))
            for got, block in zip(pencil.blocks(), want.blocks()):
                assert_bitwise_equal(got, block)
            assert verify_linearization(pencil, q).passed

    def test_explicit_params_respected(self):
        rng = np.random.default_rng(21)
        qn = random_newton(rng, 2)
        params = E1FreeParams.random(2, rng)
        v = np.array([0.0, 2.0, 0.0])
        pencil = construct_general_ansatz(qn, v, params)
        assert verify_linearization(pencil, qn).passed
        res = membership_newton(pencil, qn)
        np.testing.assert_allclose(res.ansatz, v, atol=1e-8)

    def test_zero_vector_rejected(self):
        rng = np.random.default_rng(22)
        qn = random_newton(rng, 2)
        with pytest.raises(ValueError, match="zero ansatz"):
            construct_general_ansatz(qn, np.zeros(3))
