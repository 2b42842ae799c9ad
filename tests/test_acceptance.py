"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass line once its assertions hold, so running
with ``pytest -s tests/test_acceptance.py`` gives a one-line-per-criterion
summary. All randomness is seeded; sizes stay at desk scale.
"""

import numpy as np

from newton2pep import (
    E1FreeParams,
    NewtonNodes,
    QtepPair,
    annulus_points,
    assemble_e1_blocks,
    certify_singular,
    companion_pencil,
    complex_normal,
    construct_e1_newton,
    construct_general_ansatz,
    membership_newton,
    pair_linearize,
    select_M,
    spectrum_pair_oracle,
    unimodular_witnesses,
    verify_linearization,
    verify_spectrum_match,
)
from newton2pep.cli import main
from newton2pep.fileio import save_problem
from newton2pep.linalg import det
from newton2pep.spaces import NewtonPencil

from helpers import (cofactor_det, random_monomial, random_newton, random_nodes,
                     sampled_witness, transfer_to_newton, with_zero_nodes)

PATTERNS = [(1, 1, 1), (0, 1, 1), (0, 0, 1), (1, 0, 1),
            (1, 0, 0), (1, 1, 0), (0, 1, 0)]


def _passed(n, label):
    print(f"[criterion {n:2d}] {label}: PASS")


def test_criterion_01_companion_identity():
    rng = np.random.default_rng(101)
    e1 = np.array([[1.0], [0.0], [0.0]])
    for trial in range(100):
        n = int(rng.integers(1, 4))
        q = random_monomial(rng, n)
        c = companion_pencil(q)
        pts = annulus_points(rng, 24)
        eye = np.eye(n)
        for lam, mu in zip(pts[:12], pts[12:]):
            lhs = c.eval(lam, mu) @ np.kron(np.array([[lam], [mu], [1.0]]), eye)
            rhs = np.kron(e1, q.eval(lam, mu))
            rel = np.abs(lhs - rhs).max() / max(np.abs(rhs).max(), 1e-300)
            assert rel < 1e-10, (trial, rel)
    _passed(1, "companion identity C(l,m)(Lambda kron I) = e1 kron Q, rel < 1e-10")


def test_criterion_02_scalar_companion_determinant():
    rng = np.random.default_rng(102)
    q = random_monomial(rng, 1)
    c = companion_pencil(q)
    pts = annulus_points(rng, 100)
    for lam, mu in zip(pts[:50], pts[50:]):
        qval = q.eval(lam, mu)[0, 0]
        # Independent cofactor oracle confirms the sign convention.
        oracle = cofactor_det(c.eval(lam, mu))
        assert abs(oracle + qval) <= 1e-10 * abs(qval)
        assert abs(det(c.eval(lam, mu)) + qval) <= 1e-10 * abs(qval)
    _passed(2, "scalar companion determinant det C = -q at 50 points, rel 1e-10")


def test_criterion_03_newton_reduction_zero_nodes():
    rng = np.random.default_rng(103)
    q = random_newton(rng, 2, NewtonNodes())
    c = companion_pencil(with_zero_nodes(q))
    pencil = transfer_to_newton(c, q)
    pts = annulus_points(rng, 200)
    for lam, mu in zip(pts[:100], pts[100:]):
        np.testing.assert_array_equal(pencil.eval(lam, mu), c.eval(lam, mu))
    _passed(3, "zero-node transfer evaluates exactly as the companion at 100 points")


def test_criterion_04_lemma_transfer_same_ansatz():
    rng = np.random.default_rng(104)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        qn = random_newton(rng, n)
        q = with_zero_nodes(qn)
        mono = NewtonPencil.from_blocks(q.nodes, *assemble_e1_blocks(q, _random_raw_params(rng, n)))
        v1 = membership_newton(mono, q).ansatz.vector
        v2 = membership_newton(transfer_to_newton(mono, qn), qn).ansatz.vector
        assert np.abs(v1 - v2).max() < 1e-8, trial
    _passed(4, "monomial and transferred Newton pencils share the ansatz, 1e-8")


def _random_raw_params(rng, n):
    return E1FreeParams.build(complex_normal(rng, n, n), complex_normal(rng, 3 * n, n),
                              complex_normal(rng, 3 * n, n))


def test_criterion_05_e1_newton_linearization():
    rng = np.random.default_rng(105)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        qn = random_newton(rng, n)
        params = E1FreeParams.random(n, rng)
        pencil = construct_e1_newton(qn, params)
        report = verify_linearization(pencil, qn, tol=1e-8)
        assert report.passed, trial
        assert abs(report.gamma_estimate) > 1e-12
        assert report.max_relative_deviation < 1e-8
        witnesses = unimodular_witnesses(qn, pencil, params)
        assert witnesses.reduction_residual < 1e-8, trial
        assert sampled_witness(qn, pencil, params)[0] < 1e-8, trial
    _passed(5, "100 admissible draws: det ratio constant (1e-8) and F L E = diag(Q, I)")


def test_criterion_06_appendix_table_and_pipeline():
    rng = np.random.default_rng(106)
    e1 = np.array([1.0, 0.0, 0.0])
    for pattern in PATTERNS:
        for _ in range(100):
            r = rng.uniform(0.5, 2.0, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
            v = np.array([r[i] if pattern[i] else 0.0 for i in range(3)])
            m = select_M(v)
            assert np.abs(m @ v - e1).max() < 1e-13
            assert abs(np.linalg.det(m)) > 1e-13
        qn = random_newton(rng, 2)
        v = np.array([r[i] if pattern[i] else 0.0 for i in range(3)])
        built = construct_general_ansatz(qn, v)
        assert verify_linearization(built.pencil, qn).passed, pattern
    _passed(6, "M v = e1 (1e-13) over 7 patterns x 100 draws; pipeline verifies")


def test_criterion_07_zeroed_z_block_is_never_a_linearization():
    rng = np.random.default_rng(107)
    for trial in range(10):
        n = int(rng.integers(1, 4))
        qn = random_newton(rng, n)
        zero = np.zeros((n, n))
        z1 = np.vstack([complex_normal(rng, n, n), zero, zero])
        z2 = np.vstack([complex_normal(rng, n, n), zero, zero])
        params = E1FreeParams.build(complex_normal(rng, n, n), z1, z2)
        pencil = NewtonPencil.from_blocks(qn.nodes, *assemble_e1_blocks(qn, params))
        pts = annulus_points(rng, 24)
        for lam, mu in zip(pts[:12], pts[12:]):
            assert abs(det(pencil.eval(lam, mu))) < 1e-9, trial
        report = verify_linearization(pencil, qn)
        assert not report.passed, trial
    _passed(7, "zeroed Z block: det L identically 0 across samples, verdict fail")


def test_criterion_08_spectrum_containment():
    rng = np.random.default_rng(108)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        qn = random_newton(rng, n)
        pencil = construct_e1_newton(qn, E1FreeParams.random(n, rng))
        report = verify_spectrum_match(qn, pencil, slices=5,
                                       seed=int(rng.integers(1 << 31)),
                                       match_tol=1e-6)
        assert report.all_contained, trial
        for rec in report.records:
            for d in rec.distances:
                assert d <= 1e-6
    _passed(8, "20 pairs x 5 slices: every Q eigenvalue appears in the pencil, 1e-6")


def test_criterion_09_delta0_singularity():
    rng = np.random.default_rng(109)
    for trial in range(100):
        p1, p2 = (int(x) for x in rng.integers(1, 4, 2))
        nodes = random_nodes(rng)
        pair = QtepPair(random_newton(rng, p1, nodes), random_newton(rng, p2, nodes))
        ln1, ln2 = pair_linearize(pair, E1FreeParams.random(p1, rng),
                                  E1FreeParams.random(p2, rng))
        cert = certify_singular(ln1, ln2, tol=1e-7)
        assert cert.value < 1e-7 * cert.frobenius, (trial, cert.route, cert.value)
        assert cert.is_singular
    _passed(9, "100 pair constructions: sigma_min(Delta0) < 1e-7 ||Delta0||_F")


def test_criterion_10_bezout_count_scalar_pairs():
    rng = np.random.default_rng(110)
    for trial in range(50):
        nodes = random_nodes(rng)
        pair = QtepPair(random_newton(rng, 1, nodes), random_newton(rng, 1, nodes))
        sample = spectrum_pair_oracle(pair)
        assert sample.total_count == 4, (trial, sample.total_count)
        assert len(sample.points) == 4
        assert all(p.residual < 1e-8 for p in sample.points)
        ln1, ln2 = pair_linearize(pair, E1FreeParams.random(1, rng),
                                  E1FreeParams.random(1, rng))
        ref = annulus_points(rng, 16)
        for ln in (ln1, ln2):
            scale = max(abs(det(ln.eval(l, m))) for l, m in zip(ref[:8], ref[8:]))
            for pt in sample.points:
                assert abs(det(ln.eval(pt.lam, pt.mu))) <= 1e-7 * scale, trial
    _passed(10, "50 generic scalar pairs: exactly 4 points, residual < 1e-8, "
                "pencil determinants vanish to 1e-7")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    rng = np.random.default_rng(111)
    qpath = tmp_path / "q.json"
    save_problem(qpath, random_newton(rng, 2, NewtonNodes(1, 2, 0.5, -1)))

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    c1, r1 = run(["construct", str(qpath), "--ansatz", "1,1,1", "--seed", "5",
                  "--out", str(out1)])
    c2, r2 = run(["construct", str(qpath), "--ansatz", "1,1,1", "--seed", "5",
                  "--out", str(out2)])
    assert c1 == c2 == 0
    assert r1.replace(str(out1), "O") == r2.replace(str(out2), "O")
    assert out1.read_text() == out2.read_text()

    v1 = run(["verify", str(qpath), str(out1), "--seed", "9"])
    v2 = run(["verify", str(qpath), str(out1), "--seed", "9"])
    assert v1 == v2
    _passed(11, "identical inputs and seed give byte-identical reports")
