"""Command-line surface: exit codes, determinism, file round-trips."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import newton2pep
from newton2pep import (E1FreeParams, MatrixPoly2, NewtonNodes, NewtonPencil,
                        assemble_e1_blocks, companion_pencil, construct_general_ansatz)
from newton2pep.cli import main
from newton2pep.fileio import (_matrix_to_flat, load_pencil, load_problem, save_pencil,
                               save_problem)

from helpers import (NODE_KINDS, nodes_of_kind, params_to_dict, random_coeffs, random_monomial,
                     random_newton, rewrite_as_pairs, scalar_newton)

PATTERNS = [(1, 1, 1), (0, 1, 1), (0, 0, 1), (1, 0, 1),
            (1, 0, 0), (1, 1, 0), (0, 1, 0)]
CONSTRUCT_MODES = ["--companion"] + [
    "--ansatz=" + ",".join("1.5-0.5j" if nonzero else "0" for nonzero in pattern)
    for pattern in PATTERNS]


@pytest.fixture
def qfile(tmp_path):
    rng = np.random.default_rng(0)
    q = random_newton(rng, 2, NewtonNodes(1, 2, 0.5, -1))
    path = tmp_path / "q.json"
    save_problem(path, q)
    return str(path)


@pytest.fixture
def qfile_monomial(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "qm.json"
    save_problem(path, random_monomial(rng, 2))
    return str(path)


@pytest.fixture
def scalar_pair_files(tmp_path):
    rng = np.random.default_rng(2)
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    save_problem(p1, random_newton(rng, 1, NewtonNodes()))
    save_problem(p2, random_newton(rng, 1, NewtonNodes()))
    return str(p1), str(p2)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def overflow_member(q):
    """The companion pencil of q with 1.5e308 moved from A1[1] into the lower
    rows of A2[0]: still a member with ansatz e1, but its values, and
    (M kron I) L for an M that adds row block 2 to row block 3, overflow."""
    n = q.n
    blocks = [a.copy() for a in companion_pencil(q).blocks()]
    blocks[1][n:, :n] += 1.5e308
    blocks[0][n:, n:2 * n] -= 1.5e308
    return NewtonPencil.from_blocks(q.nodes, *blocks)


class TestConstruct:
    def test_companion_blocks_match_layout(self, tmp_path, qfile_monomial, capsys):
        out = tmp_path / "pencil.json"
        code, _ = run(capsys, ["construct", qfile_monomial, "--companion",
                               "--out", str(out)])
        assert code == 0
        pencil = load_pencil(out)
        q = load_problem(qfile_monomial)
        c = companion_pencil(q)
        for a, b in zip(pencil.blocks(), c.blocks()):
            np.testing.assert_array_equal(a, b)
        assert set(json.loads(out.read_text())) == {"basis", "blocks", "n"}

    def test_ansatz_pipeline_passes_verify(self, tmp_path, qfile, capsys):
        out = tmp_path / "pencil.json"
        code, _ = run(capsys, ["construct", qfile, "--ansatz", "1,0,0",
                               "--out", str(out)])
        assert code == 0
        code, report = run(capsys, ["verify", qfile, str(out)])
        assert code == 0
        assert "verdict: PASS" in report

    def test_general_ansatz_recovered(self, tmp_path, qfile, capsys):
        out = tmp_path / "pencil.json"
        code, report = run(capsys, ["construct", qfile, "--ansatz", "1,1,1",
                                    "--out", str(out)])
        assert code == 0
        assert "membership: member" in report

    def test_zero_ansatz_rejected_without_output(self, tmp_path, qfile, capsys):
        out = tmp_path / "pencil.json"
        assert main(["construct", qfile, "--ansatz", "0,0,0", "--out", str(out)]) == 2
        assert "error: --ansatz must be a finite nonzero vector" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ansatz", ["nan,1,0", "inf,1,0", "1,nanj,0"])
    def test_nonfinite_ansatz_is_named_usage_error(self, tmp_path, qfile, capsys, ansatz):
        out = tmp_path / "pencil.json"
        assert main(["construct", qfile, f"--ansatz={ansatz}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: --ansatz must be a finite nonzero vector, got {ansatz!r}" in err
        assert not out.exists()

    def test_small_nonzero_ansatz_accepted(self, tmp_path, qfile, capsys):
        # Every nonzero multiple of an ansatz vector is an ansatz vector, and
        # its pencil a linearization (gamma ~ 1e-20 here).
        out = tmp_path / "pencil.json"
        code, report = run(capsys, ["construct", qfile, "--ansatz=1e-10,0,0",
                                    "--out", str(out)])
        assert code == 0
        assert "membership: member" in report
        line = next(x for x in report.splitlines() if x.startswith("ansatz recovered:"))
        values = [complex(float(a), float(b))
                  for a, b in re.findall(r"\(([^,()]+), ([^,()]+)\)", line)]
        scale = max(abs(v) for v in values)
        assert tuple(abs(v) > 1e-8 * scale for v in values) == (True, False, False)
        code, report = run(capsys, ["verify", qfile, str(out)])
        assert code == 0
        assert "verdict: PASS" in report

    @pytest.mark.parametrize("ansatz", ["1e-11,0,0", "1e-12,0,0", "1e-300,0,0"])
    def test_tiny_ansatz_verifies_and_contains_spectrum(self, tmp_path, capsys, ansatz):
        # The pencil's first block row is scaled by the ansatz: det L / det Q
        # ~ 1e-300^n underflows in linear space, and the slice solver sees rows
        # of size 1e-11.
        problem = tmp_path / "q.json"
        save_problem(problem, random_newton(np.random.default_rng(1), 2))
        out = tmp_path / "pencil.json"
        code, _ = run(capsys, ["construct", str(problem), f"--ansatz={ansatz}",
                               "--out", str(out)])
        assert code == 0
        code, report = run(capsys, ["verify", str(problem), str(out)])
        assert (code, report.splitlines()[-1]) == (0, "verdict: PASS")
        code, report = run(capsys, ["spectrum", str(problem), str(out)])
        assert "PENCIL-SINGULAR" not in report
        assert (code, report.splitlines()[-1]) == (0, "containment: PASS")

    def test_malformed_file_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 1, "basis": "newton"}')
        code, _ = run(capsys, ["construct", str(bad), "--companion",
                               "--out", str(tmp_path / "p.json")])
        assert code == 2

    def test_out_of_range_number_in_problem_is_usage_error(self, tmp_path, qfile, capsys):
        rewrite_as_pairs(qfile, qfile)
        doc = json.loads(Path(qfile).read_text())
        doc["coefficients"]["A10"][3] = [10 ** 400, 0]
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(doc))
        code = main(["construct", str(bad), "--companion", "--out", str(tmp_path / "p.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "coefficients.A10[3]: value out of double range" in err

    def test_params_as_seed(self, tmp_path, qfile, capsys):
        out = tmp_path / "pencil.json"
        code, _ = run(capsys, ["construct", qfile, "--ansatz", "2,0,0",
                               "--params", "123", "--out", str(out)])
        assert code == 0
        code, report = run(capsys, ["verify", qfile, str(out)])
        assert code == 0 and "verdict: PASS" in report

    def test_params_from_file(self, tmp_path, qfile, capsys):
        from newton2pep import E1FreeParams
        rng = np.random.default_rng(8)
        params = E1FreeParams.random(2, rng)
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(params_to_dict(params)))
        out = tmp_path / "pencil.json"
        code, _ = run(capsys, ["construct", qfile, "--ansatz", "1,0,0",
                               "--params", str(pfile), "--out", str(out)])
        assert code == 0
        code, report = run(capsys, ["verify", qfile, str(out)])
        assert code == 0 and "verdict: PASS" in report

    @pytest.mark.parametrize("samples", ["0", "1", "5"])
    def test_too_few_samples_is_usage_error(self, tmp_path, qfile, capsys, samples):
        # Membership reads no sample points, so construct has no --samples
        # option: any value, valid for verify or not, is an unknown argument.
        out = tmp_path / "pencil.json"
        for value in (samples, "6"):
            code = main(["construct", qfile, "--companion", "--samples", value,
                         "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "unrecognized arguments: --samples " + value in captured.err
            assert not out.exists()


class TestVerify:
    def test_companion_passes_with_gamma(self, tmp_path, qfile, capsys):
        out = tmp_path / "pencil.json"
        run(capsys, ["construct", qfile, "--companion", "--out", str(out)])
        code, report = run(capsys, ["verify", qfile, str(out)])
        assert code == 0
        assert "gamma estimate:" in report
        assert "witness check: pass" in report

    def test_witness_prediction_with_small_z_at_large_n(self, tmp_path, capsys):
        # Z is 128 x 128 and scaled by 1e-5, so det(Z^{-1}) is near 1e640 and
        # overflows a double; the prediction must stay in log space.
        from newton2pep import E1FreeParams
        qfile, pfile, out = (str(tmp_path / name) for name in ("q.json", "z.json", "p.json"))
        save_problem(qfile, random_newton(np.random.default_rng(64), 64))
        p = E1FreeParams.random(64, np.random.default_rng(6))
        small = E1FreeParams.build(p.y11, 1e-5 * p.z1, 1e-5 * p.z2)
        Path(pfile).write_text(json.dumps(params_to_dict(small)))
        code, _ = run(capsys, ["construct", qfile, "--ansatz", "1,0,0",
                               "--params", pfile, "--out", out])
        assert code == 0
        code, report = run(capsys, ["verify", qfile, out])
        assert "witness check: pass" in report and "verdict: PASS" in report
        assert code == 0

    def test_gamma_prediction_out_of_range_prints_inf_without_warning(self, tmp_path, capsys):
        # An ansatz of 1e200 at n = 2 scales gamma past the double range; the
        # prediction prints as inf and agreement is compared in log space.
        qfile, out = str(tmp_path / "q.json"), str(tmp_path / "p.json")
        save_problem(qfile, random_newton(np.random.default_rng(3), 2))
        code, _ = run(capsys, ["construct", qfile, "--ansatz=1e200,0,0", "--out", out])
        assert code == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run(capsys, ["verify", qfile, out])
        assert "witness gamma prediction: (inf, " in report
        assert (code, report.splitlines()[-1]) == (0, "verdict: PASS")

    @pytest.mark.parametrize("change", ["moved-A3-entry"])
    def test_witness_check_fails(self, tmp_path, qfile, capsys, change):
        # A general-ansatz pencil with one A3 entry moved by 1e-6 max|A3|.
        out = str(tmp_path / "p.json")
        code, _ = run(capsys, ["construct", qfile, "--ansatz", "1,2,3", "--params", "1",
                               "--out", out])
        assert code == 0
        pencil = load_pencil(out)
        a3 = pencil.A3.copy()
        a3[0, 0] += 1e-6 * np.abs(a3).max()
        save_pencil(out, NewtonPencil.from_blocks(pencil.nodes, pencil.A1, pencil.A2, a3))
        code, report = run(capsys, ["verify", qfile, out])
        assert "witness check: fail" in report
        assert (code, report.splitlines()[-1]) == (1, "verdict: FAIL")

    @pytest.mark.parametrize("pencil", ["singular-Z", "zero", "overflow"])
    def test_no_witness_fails_with_exit_1(self, tmp_path, qfile, capsys, pencil):
        # A member whose Z read from the blocks is singular (an e1 pencil with
        # Z = 0); the zero pencil, whose ansatz is zero, so no M maps it to
        # e1; and the overflow member, whose samples and (M kron I) L are
        # out of double range: no numpy warning, and its deviation reads inf.
        q = load_problem(qfile)
        n = q.n
        if pencil == "singular-Z":
            zero = np.zeros((3 * n, n))
            blocks = assemble_e1_blocks(q, E1FreeParams.build(np.eye(n), zero, zero))
        elif pencil == "zero":
            blocks = [np.zeros((3 * n, 3 * n))] * 3
        else:
            blocks = overflow_member(q).blocks()
        out = str(tmp_path / "p.json")
        save_pencil(out, NewtonPencil.from_blocks(q.nodes, *blocks))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run(capsys, ["verify", qfile, out])
        assert "membership: member" in report
        assert "witness check: fail" in report
        assert (code, report.splitlines()[-1]) == (1, "verdict: FAIL")
        if pencil == "overflow":
            assert "\nmax relative deviation: inf\n" in report

    @settings(max_examples=24, deadline=None)
    @given(st.integers(1, 4), st.sampled_from(NODE_KINDS),
           st.sampled_from(["companion", *PATTERNS]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_witness_block_without_provenance(self, n, kind, construction, legacy, seed):
        # construct writes no provenance, and verify still prints the witness
        # block. A file that carries the provenance object of earlier versions
        # (seed, M and the parameters) loads as the same pencil and passes.
        rng = np.random.default_rng(seed)
        q = MatrixPoly2.newton(random_coeffs(rng, n), nodes_of_kind(rng, kind))
        mode = CONSTRUCT_MODES[0 if construction == "companion" else
                               1 + PATTERNS.index(construction)]
        with tempfile.TemporaryDirectory() as tmp:
            qfile, out = str(Path(tmp, "q.json")), Path(tmp, "p.json")
            save_problem(qfile, q)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["construct", qfile, mode, "--seed", "3", "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert "provenance" not in doc
            if legacy:
                if construction == "companion":
                    m, params = np.eye(3), E1FreeParams.companion(q)
                else:
                    v = np.array([1.5 - 0.5j if x else 0 for x in construction])
                    built = construct_general_ansatz(q, v)
                    m, params = built.M, built.params
                doc["provenance"] = {"command": "construct", "seed": 3,
                                     "M": _matrix_to_flat(m), "params": params_to_dict(params)}
                out.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main(["verify", qfile, str(out)])
        report = stdout.getvalue()
        for prefix in ("witness reduction residual:", "witness gamma prediction:",
                       "witness gamma agreement:", "witness check: pass"):
            assert "\n" + prefix in report
        assert (code, report.splitlines()[-1]) == (0, "verdict: PASS")

    def test_corrupted_pencil_fails(self, tmp_path, qfile, capsys):
        out = tmp_path / "pencil.json"
        run(capsys, ["construct", qfile, "--companion", "--out", str(out)])
        rewrite_as_pairs(out, out)
        doc = json.loads(out.read_text())
        doc["blocks"]["A3"][0][0] += 1e-3
        out.write_text(json.dumps(doc))
        code, report = run(capsys, ["verify", qfile, str(out)])
        assert code == 1
        assert "verdict: FAIL" in report

    def test_out_of_range_number_in_pencil_is_usage_error(self, tmp_path, qfile, capsys):
        out = tmp_path / "pencil.json"
        run(capsys, ["construct", qfile, "--companion", "--out", str(out)])
        rewrite_as_pairs(out, out)
        doc = json.loads(out.read_text())
        doc["blocks"]["A2"][5] = [0, -(10 ** 400)]
        out.write_text(json.dumps(doc))
        code = main(["verify", qfile, str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "blocks.A2[5]: value out of double range" in err

    def test_too_few_samples_is_usage_error(self, tmp_path, qfile, capsys):
        out = tmp_path / "pencil.json"
        run(capsys, ["construct", qfile, "--companion", "--out", str(out)])
        code, _ = run(capsys, ["verify", qfile, str(out), "--samples", "3"])
        assert code == 2

    def test_node_mismatch_is_usage_error(self, tmp_path, qfile, capsys):
        out = tmp_path / "pencil.json"
        run(capsys, ["construct", qfile, "--companion", "--out", str(out)])
        other = tmp_path / "other.json"
        rng = np.random.default_rng(3)
        save_problem(other, random_newton(rng, 2, NewtonNodes(9, 9, 9, 9)))
        code, _ = run(capsys, ["verify", str(other), str(out)])
        assert code == 2

    def test_degenerate_determinant_is_inconclusive(self, tmp_path, capsys):
        # Every coefficient shares a zero column, so det Q vanishes
        # identically and the ratio check has nothing to compare against.
        rng = np.random.default_rng(5)
        from newton2pep import COEFF_KEYS, MatrixPoly2, complex_normal
        coeffs = {}
        for k in COEFF_KEYS:
            block = np.zeros((2, 2), dtype=complex)
            block[:, 0] = complex_normal(rng, 2)
            coeffs[k] = block
        q = MatrixPoly2.newton(coeffs, NewtonNodes())
        qpath = tmp_path / "deg.json"
        save_problem(qpath, q)
        out = tmp_path / "pencil.json"
        code, _ = run(capsys, ["construct", str(qpath), "--companion",
                               "--out", str(out)])
        assert code == 0
        code, _ = run(capsys, ["verify", str(qpath), str(out)])
        assert code == 3


class TestDelta:
    def test_companion_pair_singular_verdict(self, scalar_pair_files, capsys):
        p1, p2 = scalar_pair_files
        code, report = run(capsys, ["delta", p1, p2, "--check-singular"])
        assert code == 0
        assert "singular: yes" in report
        assert "structural zero pattern: yes" in report

    def test_node_mismatch_rejected(self, tmp_path, scalar_pair_files, capsys):
        p1, _ = scalar_pair_files
        rng = np.random.default_rng(4)
        other = tmp_path / "other.json"
        save_problem(other, random_newton(rng, 1, NewtonNodes(5, 5, 5, 5)))
        code, _ = run(capsys, ["delta", p1, str(other)])
        assert code == 2

    def test_params_file_for_both_pencils(self, tmp_path, scalar_pair_files, capsys):
        from newton2pep import E1FreeParams
        p1, p2 = scalar_pair_files
        rng = np.random.default_rng(6)
        doc = {"params1": params_to_dict(E1FreeParams.random(1, rng)),
               "params2": params_to_dict(E1FreeParams.random(1, rng))}
        pfile = tmp_path / "pp.json"
        pfile.write_text(json.dumps(doc))
        code, report = run(capsys, ["delta", p1, p2, "--params", str(pfile),
                                    "--check-singular"])
        assert code == 0
        assert "singular: yes" in report

    @pytest.mark.parametrize("value", [5, "Y11Z1Z2"])
    def test_params_not_an_object_is_usage_error(self, tmp_path, scalar_pair_files, capsys,
                                                 value):
        pfile = tmp_path / "pp.json"
        pfile.write_text(json.dumps({"params1": value, "params2": value}))
        assert main(["delta", *scalar_pair_files, "--params", str(pfile)]) == 2
        assert f"error: {pfile}: params1 must be an object" in capsys.readouterr().err

    def test_params_file_missing_key_names_the_file(self, tmp_path, scalar_pair_files,
                                                    capsys):
        from newton2pep import E1FreeParams
        rng = np.random.default_rng(6)
        doc = {"params1": params_to_dict(E1FreeParams.random(1, rng)),
               "params2": params_to_dict(E1FreeParams.random(1, rng))}
        del doc["params2"]["Z2"]
        pfile = tmp_path / "pp.json"
        pfile.write_text(json.dumps(doc))
        assert main(["delta", *scalar_pair_files, "--params", str(pfile)]) == 2
        assert f"error: {pfile}: params2.Z2 is missing" in capsys.readouterr().err

    def test_identity_delta_reported_nonsingular(self):
        # The CLI certifier itself, on triples with Delta0 = I9
        # (B1 = C2 = I3, C1 = 0).
        from newton2pep import certify_singular
        eye, zero = np.eye(3), np.zeros((3, 3))
        cert = certify_singular((eye, eye, zero), (eye, zero, eye))
        assert not cert.is_singular

    def test_e1_pair_never_forms_dense_delta(self, tmp_path, capsys, monkeypatch):
        import newton2pep.twoparam as twoparam

        def refuse(*args, **kwargs):
            raise AssertionError("dense Delta0 path taken for an e1 pair")

        monkeypatch.setattr(twoparam, "delta_operators", refuse)
        monkeypatch.setattr(twoparam, "smallest_singular_value", refuse)
        rng = np.random.default_rng(8)
        nodes = NewtonNodes(0.5, -1, 2j, 1 + 1j)
        paths = [tmp_path / "p1.json", tmp_path / "p2.json"]
        for path in paths:
            save_problem(path, random_newton(rng, 4, nodes))
        code, report = run(capsys, ["delta", *map(str, paths), "--check-singular"])
        assert code == 0
        assert "delta operators: three 144x144 matrices (k1=12, k2=12)" in report
        assert "certificate: kernel witness, sigma_min(Delta0) <= " in report
        assert "singular: yes" in report


class TestSpectrum:
    def test_slice_mode_containment_table(self, tmp_path, qfile, capsys):
        out = tmp_path / "pencil.json"
        run(capsys, ["construct", qfile, "--companion", "--out", str(out)])
        csv = tmp_path / "pts.csv"
        code, report = run(capsys, ["spectrum", qfile, str(out),
                                    "--slices", "3", "--out", str(csv)])
        assert code == 0
        assert "containment: PASS" in report
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "re_lambda,im_lambda,re_mu,im_mu,distance"
        assert len(lines) > 1
        # The last column is the match distance that the table prints.
        printed = re.findall(r"^  lambda=.* distance=(\S+)$", report, re.M)
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == printed

    def test_pair_mode_four_rows(self, tmp_path, scalar_pair_files, capsys):
        p1, p2 = scalar_pair_files
        csv = tmp_path / "pts.csv"
        code, report = run(capsys, ["spectrum", p1, "--pair", p2,
                                    "--out", str(csv)])
        assert code == 0
        assert "count (multiplicity-aware): 4" in report
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "re_lambda,im_lambda,re_mu,im_mu,residual"
        assert len(lines) == 5  # header + 4 points

    def test_overflowing_pencil_slice_is_usage_error(self, tmp_path, qfile, capsys):
        out = str(tmp_path / "p.json")
        save_pencil(out, overflow_member(load_problem(qfile)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["spectrum", qfile, out])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert re.search(r"^error: the pencil values at the slice mu0=\(\S+, \S+\) overflow "
                         r"the double range$", captured.err, re.M)

    def test_zero_slices_usage_error(self, tmp_path, qfile, capsys):
        out = tmp_path / "pencil.json"
        run(capsys, ["construct", qfile, "--companion", "--out", str(out)])
        code, _ = run(capsys, ["spectrum", qfile, str(out), "--slices", "0"])
        assert code == 2

    def test_q_singular_on_every_slice_is_inconclusive(self, tmp_path, capsys):
        # The second row of all six blocks is zero, so det Q(lambda, mu0)
        # vanishes for every lambda; the companion pencil is still built.
        q = random_newton(np.random.default_rng(6), 2)
        q = MatrixPoly2.newton({key: c * [[1], [0]] for key, c in q.coeffs.items()}, q.nodes)
        qpath, out = tmp_path / "q.json", tmp_path / "pencil.json"
        save_problem(qpath, q)
        code, _ = run(capsys, ["construct", str(qpath), "--companion", "--out", str(out)])
        assert code == 0
        code = main(["spectrum", str(qpath), str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("inconclusive: ")

    def test_shared_factor_pair_inconclusive(self, tmp_path, capsys):
        q = scalar_newton(1, 0, 1, 0, 0, -2)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_problem(a, q)
        save_problem(b, q)
        code, _ = run(capsys, ["spectrum", str(a), "--pair", str(b)])
        assert code == 3

    def test_line_at_infinity_pair_solved(self, tmp_path, capsys):
        # lam - 1 and mu - 1: both determinants drop degree, so they share the
        # line at infinity, but no factor: the one common zero (1, 1) is listed.
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_problem(a, scalar_newton(0, 0, 0, 1, 0, -1))
        save_problem(b, scalar_newton(0, 0, 0, 0, 1, -1))
        code, out = run(capsys, ["spectrum", str(a), "--pair", str(b)])
        assert code == 0
        assert "count (multiplicity-aware): 1\n" in out
        points = re.findall(r"^  lambda=\((\S+), (\S+)\) mu=\((\S+), (\S+)\) multiplicity=1 ",
                            out, re.M)
        assert len(points) == 1
        assert np.allclose([float(x) for x in points[0]], [1, 0, 1, 0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", CONSTRUCT_MODES)
def test_monomial_file_is_zero_node_newton_file(tmp_path, capsys, mode):
    # Same coefficients, once as a monomial file and once as a Newton file
    # with all nodes zero: the layout is read from the nodes, so the reports
    # differ only in the file paths (both read basis=monomial), and both
    # pencils are written byte for byte the same, as L1/L2/L0 with no nodes.
    q = random_monomial(np.random.default_rng(30), 2)
    files, reports = {}, {}
    for label in ("mono", "newt"):
        problem, pencil = str(tmp_path / f"{label}.json"), tmp_path / f"{label}-p.json"
        save_problem(problem, q)
        if label == "newt":
            doc = json.loads(Path(problem).read_text())
            doc["basis"], doc["nodes"] = "newton", {"alpha": [[0, 0]] * 2, "beta": [[0, 0]] * 2}
            Path(problem).write_text(json.dumps(doc))
        reports[label] = []
        for argv in (["construct", problem, mode, "--out", str(pencil)],
                     ["verify", problem, str(pencil)],
                     ["spectrum", problem, str(pencil), "--slices", "3"]):
            code, out = run(capsys, argv)
            assert code == 0, (argv, out)
            reports[label].append([line for line in out.splitlines()
                                   if not line.startswith(("input:", "inputs:", "output:"))])
        files[label] = pencil.read_bytes()
    assert reports["mono"] == reports["newt"]
    assert "problem: basis=monomial n=2" in reports["newt"][0]
    assert files["mono"] == files["newt"]
    written = json.loads(files["mono"])
    assert set(written["blocks"]) == {"L1", "L2", "L0"} and "nodes" not in written


@pytest.mark.parametrize("mode", ["--companion", "--ansatz=1,2,3"])
def test_zero_node_pencil_in_newton_layout_is_accepted(tmp_path, capsys, mode):
    # Earlier versions wrote the pencil of a zero-node Newton problem as
    # A1/A2/A3 with its zero nodes. Against a monomial problem it verifies
    # and checks its slices as the L1/L2/L0 file with the same blocks does.
    problem, pencil, legacy = (str(tmp_path / name) for name in ("q.json", "p.json", "a.json"))
    save_problem(problem, random_monomial(np.random.default_rng(31), 2))
    code, _ = run(capsys, ["construct", problem, mode, "--out", pencil])
    assert code == 0
    doc = json.loads(Path(pencil).read_text())
    doc["basis"], doc["nodes"] = "newton", {"alpha": [[0, 0]] * 2, "beta": [[0, 0]] * 2}
    doc["blocks"] = {a: doc["blocks"][m] for a, m in zip(("A1", "A2", "A3"), ("L1", "L2", "L0"))}
    Path(legacy).write_text(json.dumps(doc))
    for command in ("verify", "spectrum"):
        code, report = run(capsys, [command, problem, pencil])
        legacy_code, legacy_report = run(capsys, [command, problem, legacy])
        assert (legacy_code, legacy_report) == (0, report.replace(pencil, legacy))
    save_pencil(pencil, load_pencil(legacy))
    assert json.loads(Path(pencil).read_text())["basis"] == "monomial"


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, qfile, capsys):
        out1 = tmp_path / "pencil1.json"
        out2 = tmp_path / "pencil2.json"
        _, rep1 = run(capsys, ["construct", qfile, "--ansatz", "1,1,0",
                               "--seed", "7", "--out", str(out1)])
        _, rep2 = run(capsys, ["construct", qfile, "--ansatz", "1,1,0",
                               "--seed", "7", "--out", str(out2)])
        assert rep1.replace(str(out1), "OUT") == rep2.replace(str(out2), "OUT")
        assert out1.read_text() == out2.read_text()

        _, v1 = run(capsys, ["verify", qfile, str(out1), "--seed", "3"])
        _, v2 = run(capsys, ["verify", qfile, str(out1), "--seed", "3"])
        assert v1 == v2

    def test_construct_does_not_read_the_seed(self, tmp_path, qfile, capsys):
        # The default general-ansatz construction is closed form: pattern
        # (0, 1, 1) writes the same pencil at every seed, which it prints.
        outs = [tmp_path / f"pencil{seed}.json" for seed in (0, 7)]
        for seed, out in zip((0, 7), outs):
            code, report = run(capsys, ["construct", qfile, "--ansatz", "0,1,1",
                                        "--seed", str(seed), "--out", str(out)])
            assert code == 0 and f"\nseed: {seed}\n" in report
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_env_seed_fallback(self, tmp_path, qfile, capsys, monkeypatch):
        out = tmp_path / "pencil.json"
        monkeypatch.setenv("NEWTON2PEP_SEED", "42")
        _, report = run(capsys, ["construct", qfile, "--companion",
                                 "--out", str(out)])
        assert "seed: 42" in report

    def test_roundtrip_without_loss(self, tmp_path, qfile, capsys):
        out = tmp_path / "pencil.json"
        run(capsys, ["construct", qfile, "--companion", "--out", str(out)])
        pencil = load_pencil(out)
        resaved = tmp_path / "pencil2.json"
        save_pencil(resaved, pencil)
        assert resaved.read_bytes() == out.read_bytes()
        again = load_pencil(resaved)
        for a, b in zip(pencil.blocks(), again.blocks()):
            np.testing.assert_array_equal(a, b)
            # assert_array_equal treats -0.0 == 0.0; signed zeros must survive too.
            np.testing.assert_array_equal(np.signbit(a.real), np.signbit(b.real))
            np.testing.assert_array_equal(np.signbit(a.imag), np.signbit(b.imag))


class TestToleranceFlags:
    ARGV = {
        "construct": ["construct", "{q}", "--companion", "--out", "{out}", "--tol"],
        "verify": ["verify", "{q}", "{pencil}", "--tol"],
        "delta": ["delta", "{p1}", "{p2}", "--check-singular", "--tol"],
        "spectrum": ["spectrum", "{q}", "{pencil}", "--tol"],
        "spectrum-match": ["spectrum", "{q}", "{pencil}", "--match-tol"],
    }

    def _argv(self, kind, tmp_path, qfile, scalar_pair_files, capsys):
        pencil = tmp_path / "pencil.json"
        run(capsys, ["construct", qfile, "--companion", "--out", str(pencil)])
        p1, p2 = scalar_pair_files
        paths = {"q": qfile, "pencil": str(pencil), "p1": p1, "p2": p2,
                 "out": str(tmp_path / "new.json")}
        return [arg.format(**paths) for arg in self.ARGV[kind]]

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("kind", list(ARGV))
    def test_nonfinite_or_nonpositive_is_usage_error(self, tmp_path, qfile,
                                                     scalar_pair_files, capsys,
                                                     kind, value):
        argv = self._argv(kind, tmp_path, qfile, scalar_pair_files, capsys)
        code = main(argv + [value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"argument {argv[-1]}: must be finite and > 0" in captured.err
        assert not (tmp_path / "new.json").exists()

    @pytest.mark.parametrize("kind", list(ARGV))
    def test_finite_positive_value_accepted(self, tmp_path, qfile,
                                            scalar_pair_files, capsys, kind):
        argv = self._argv(kind, tmp_path, qfile, scalar_pair_files, capsys)
        code, report = run(capsys, argv + ["1e-5"])
        assert code == 0
        assert report


class TestSeedInputs:
    # numpy.random.default_rng takes only integers >= 0; a negative seed is a
    # usage error that names where it came from.
    @pytest.mark.parametrize("argv", [
        ["construct", "{q}", "--companion", "--out", "{out}", "--seed", "-1"],
        ["delta", "{p1}", "{p2}", "--seed", "-1"],
        ["construct", "{q}", "--ansatz", "1,1,0", "--out", "{out}", "--params", "-1"],
        ["delta", "{p1}", "{p2}", "--params", "-1"],
    ], ids=["construct-seed", "delta-seed", "construct-params", "delta-params"])
    def test_negative_flag_is_named_usage_error(self, tmp_path, qfile, scalar_pair_files,
                                                capsys, argv):
        p1, p2 = scalar_pair_files
        paths = {"q": qfile, "p1": p1, "p2": p2, "out": str(tmp_path / "new.json")}
        code = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"argument {argv[-2]}: must be a non-negative integer, got '-1'" in captured.err
        assert not (tmp_path / "new.json").exists()

    @pytest.mark.parametrize("value", ["-1", "seven"])
    def test_bad_env_seed_is_named_usage_error(self, tmp_path, qfile, capsys, monkeypatch,
                                               value):
        monkeypatch.setenv("NEWTON2PEP_SEED", value)
        code = main(["construct", qfile, "--companion", "--out", str(tmp_path / "p.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert (f"environment variable NEWTON2PEP_SEED must be a non-negative integer, "
                f"got {value!r}") in captured.err

    def test_delta_params_seed_and_file(self, tmp_path, scalar_pair_files, capsys):
        p1, p2 = scalar_pair_files
        code, report = run(capsys, ["delta", p1, p2, "--params", "5"])
        assert code == 0 and "params: random(seed=5)" in report
        code, _ = run(capsys, ["delta", p1, p2, "--params", str(tmp_path / "missing.json")])
        assert code == 2


_FRESH_PROCESS_SCRIPT = """
import sys
from newton2pep.cli import main

q, pencil, p1, p2 = sys.argv[1:]
codes = [main(["construct", q, "--companion", "--out", pencil]),
         main(["verify", q, pencil]),
         main(["delta", p1, p2, "--check-singular"]),
         main(["spectrum", p1, "--pair", p2]),
         main(["spectrum", q, pencil, "--slices", "2"])]
assert codes == [0, 0, 0, 0, 0], codes
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_fresh_process_imports_no_scipy(tmp_path, qfile, scalar_pair_files):
    # A subprocess, because this test process has scipy loaded already.
    src = str(Path(newton2pep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS_SCRIPT, qfile,
         str(tmp_path / "pencil.json"), *scalar_pair_files],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
