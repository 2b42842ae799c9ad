"""JSON file layer: array parse/serialize parity, layout compatibility."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newton2pep import COEFF_KEYS, MatrixPoly2, NewtonNodes, NewtonPencil, companion_pencil
from newton2pep.fileio import (
    FileFormatError,
    _flat_to_matrix,
    _matrix_to_flat,
    load_pencil,
    load_problem,
    save_pencil,
    save_problem,
)

from helpers import flat_to_matrix_reference

# Values a [re, im] entry may hold in a valid file, including the ones whose
# bits a careless conversion changes: signed zero, subnormals, integers that
# are not exact doubles, integers past int64, booleans.
TRICKY = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
          2 ** 53 + 1, 2 ** 63, -(2 ** 63) - 1, 2 ** 64 + 1, True, False]
numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2 ** 66), 2 ** 66),
    st.booleans(),
    st.sampled_from(TRICKY),
)
valid_pair = st.one_of(st.lists(numbers, min_size=2, max_size=2),
                       st.tuples(numbers, numbers))
# One strategy per kind of malformed entry; flat_lists picks among them
# uniformly, which st.one_of (biased towards its first branches) would not.
MALFORMED = [
    st.text(max_size=3),
    st.none(),
    numbers,
    st.lists(numbers, max_size=4).filter(lambda v: len(v) != 2),
    st.lists(st.lists(numbers, min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.one_of(numbers, st.text(max_size=2), st.none(),
                       st.lists(numbers, max_size=2)), min_size=2, max_size=2),
    st.tuples(st.sampled_from([float("nan"), float("inf"), float("-inf"),
                               10 ** 400, -(10 ** 309), 2 ** 1024]), numbers),
    st.tuples(numbers, st.sampled_from([float("nan"), -float("inf"), 10 ** 400])),
    st.dictionaries(st.text(max_size=2), numbers, max_size=1),
]


@st.composite
def flat_lists(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    data = draw(st.lists(valid_pair, min_size=rows * cols, max_size=rows * cols))
    for _ in range(draw(st.integers(0, 2))):
        data[draw(st.integers(0, len(data) - 1))] = draw(draw(st.sampled_from(MALFORMED)))
    return draw(st.sampled_from([data] * 16 + [data[1:], data + data[:1],
                                               tuple(data), {"x": data}])), rows, cols


@settings(max_examples=400, deadline=None)
@given(flat_lists())
@example(([[-0.0, 5e-324], [2 ** 63, True]], 1, 2))
@example(([[1.0, 2.0], [float("nan"), 0.0]], 2, 1))
@example(([[1.0, 2.0], [0.0, 10 ** 400]], 1, 2))
@example(([[1.0, "2"]], 1, 1))
@example(([[[1.0, 2.0]]], 1, 1))
def test_flat_to_matrix_matches_per_entry_reference(case):
    data, rows, cols = case
    try:
        expected = flat_to_matrix_reference(data, rows, cols, "f.json: blocks.A1")
    except FileFormatError as exc:
        with pytest.raises(FileFormatError) as got:
            _flat_to_matrix(data, rows, cols, "f.json: blocks.A1")
        assert str(got.value) == str(exc)
        return
    mat = _flat_to_matrix(data, rows, cols, "f.json: blocks.A1")
    assert mat.dtype == np.complex128 and mat.shape == (rows, cols)
    np.testing.assert_array_equal(mat.view(np.uint64), expected.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=12))
def test_matrix_to_flat_matches_per_entry_floats(pairs):
    mat = np.array([complex(re, im) for re, im in pairs])
    expected = [[float(z.real), float(z.imag)] for z in mat]
    flat = _matrix_to_flat(mat)
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(flat) == repr(expected)
    assert all(type(x) is float for pair in flat for x in pair)


def tricky_poly(nodes):
    """2x2 coefficients whose parts together cover every value in TRICKY."""
    vals = np.array([float(x) for x in TRICKY] + [-1.5, 3.0])
    coeffs = {key: np.roll(vals, -2 * i)[:8].view(complex).reshape(2, 2)
              for i, key in enumerate(COEFF_KEYS)}
    if nodes is None:
        return MatrixPoly2.monomial(coeffs)
    return MatrixPoly2.newton(coeffs, nodes)


def node_values(nodes):
    return [nodes.alpha1, nodes.alpha2, nodes.beta1, nodes.beta2]


def assert_bitwise(a, b):
    a = np.ascontiguousarray(a, complex)
    b = np.ascontiguousarray(b, complex)
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def rewrite_indented(src, dst):
    """Re-emit a file in the earlier indented layout."""
    doc = json.loads(src.read_text())
    dst.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("nodes", [None, NewtonNodes(1, -0.0, 0.5j, -2)])
def test_indented_problem_and_pencil_files_load_identically(tmp_path, nodes):
    q = tricky_poly(nodes)
    compact, indented = tmp_path / "q.json", tmp_path / "q_old.json"
    save_problem(compact, q)
    rewrite_indented(compact, indented)
    assert indented.read_text().count("\n") > 1
    a, b = load_problem(compact), load_problem(indented)
    for key in COEFF_KEYS:
        assert_bitwise(a.coeff(*key), q.coeff(*key))
        assert_bitwise(b.coeff(*key), q.coeff(*key))
    if nodes is not None:
        assert_bitwise(node_values(b.nodes), node_values(nodes))

    pencil = companion_pencil(a)
    compact, indented = tmp_path / "p.json", tmp_path / "p_old.json"
    save_pencil(compact, pencil, {"note": "x"})
    rewrite_indented(compact, indented)
    (p1, prov1), (p2, prov2) = load_pencil(compact), load_pencil(indented)
    assert prov1 == prov2 == {"note": "x"}
    for x, y, z in zip(pencil.blocks(), p1.blocks(), p2.blocks()):
        assert_bitwise(y, x)
        assert_bitwise(z, x)


@pytest.mark.parametrize("nodes", [None, NewtonNodes(1, -0.0, 0.5j, -2)])
def test_writer_is_single_line_and_byte_deterministic(tmp_path, nodes):
    q = tricky_poly(nodes)
    first, second, resaved = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    save_problem(first, q)
    save_problem(second, q)
    save_problem(resaved, load_problem(first))
    text = first.read_bytes()
    assert text.endswith(b"\n") and text.count(b"\n") == 1
    assert second.read_bytes() == text and resaved.read_bytes() == text


@pytest.mark.parametrize("kind", ["problem", "pencil"])
def test_monomial_file_rejects_nodes(tmp_path, kind):
    q = tricky_poly(None)
    path = tmp_path / "m.json"
    if kind == "problem":
        save_problem(path, q)
    else:
        save_pencil(path, companion_pencil(q))
    doc = json.loads(path.read_text())
    doc["nodes"] = {"alpha": [[0, 0], [0, 0]], "beta": [[0, 0], [0, 0]]}
    path.write_text(json.dumps(doc))
    loader = load_problem if kind == "problem" else load_pencil
    with pytest.raises(FileFormatError, match="'nodes' is only valid with basis 'newton'"):
        loader(path)


def test_monomial_label_with_nonzero_nodes_is_not_written(tmp_path):
    # A monomial file has no place for nodes; writing one would drop them.
    q = tricky_poly(None)
    blocks = companion_pencil(q).blocks()
    pencil = NewtonPencil.from_blocks(NewtonNodes(1, 0, 0, 0), *blocks, basis="monomial")
    with pytest.raises(ValueError, match="cannot record nonzero nodes"):
        save_pencil(tmp_path / "p.json", pencil)
    assert not (tmp_path / "p.json").exists()
