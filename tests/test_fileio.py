"""JSON file layer: base64 and [re, im] pair encodings, layout compatibility."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newton2pep import COEFF_KEYS, MatrixPoly2, NewtonNodes, companion_pencil
from newton2pep.fileio import (
    FileFormatError,
    _flat_to_matrix,
    _matrix_to_flat,
    layout,
    load_pencil,
    load_problem,
    save_pencil,
    save_problem,
)

from helpers import flat_to_matrix_reference, rewrite_as_pairs

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


finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                    1.7976931348623157e308, -1.7976931348623157e308]))


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 4))
    rows, cols = draw(st.sampled_from([(1, 1), (n, n), (3 * n, n)]))
    parts = draw(st.lists(finite, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts).view(np.complex128).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(matrices())
@example(np.array([[complex(-0.0, 5e-324)]]))
@example(np.array([[complex(1.7976931348623157e308, -1.7976931348623157e308)]]))
def test_matrix_encoding_round_trips_bitwise(mat):
    text = json.loads(json.dumps(_matrix_to_flat(mat)))
    assert isinstance(text, str)
    back = _flat_to_matrix(text, *mat.shape, "f.json: blocks.A1")
    assert back.dtype == np.complex128 and back.shape == mat.shape
    assert back.flags.writeable
    np.testing.assert_array_equal(back.view(np.uint64), mat.view(np.uint64))


@pytest.mark.parametrize("bad", [complex("nan"), complex(0, float("inf")),
                                 complex(-float("inf"), 1)])
def test_encoded_non_finite_value_names_the_entry(bad):
    mat = np.arange(36, dtype=complex).reshape(6, 6)
    mat.flat[5] = bad
    mat.flat[7] = bad
    with pytest.raises(FileFormatError, match=r"^f\.json: blocks\.A2\[5\]: non-finite value"):
        _flat_to_matrix(_matrix_to_flat(mat), 6, 6, "f.json: blocks.A2")


def test_encoded_byte_count_must_match_shape():
    text = _matrix_to_flat(np.ones((2, 3), complex))
    with pytest.raises(FileFormatError, match="expected 64 bytes .* got 96"):
        _flat_to_matrix(text, 2, 2, "f.json: blocks.A1")


@pytest.mark.parametrize("value", ["not base64!", "AAAA=AAA", "AAAAAAAA8D8AAAAAAAAAAA",
                                   "AAAAAAAA8D8AAAAAAAAAAA==AA", "\u00e9AAA", 1.0, None, {"re": 1}])
def test_malformed_matrix_value_is_file_format_error(value):
    with pytest.raises(FileFormatError, match=r"^f\.json: blocks\.A1"):
        _flat_to_matrix(value, 1, 1, "f.json: blocks.A1")


@pytest.mark.parametrize("value, got", [(1.0, "float"), (None, "NoneType"),
                                        ({"re": 1}, "dict")])
def test_value_of_neither_layout_names_both(value, got):
    want = (r"^f\.json: blocks\.A10: expected a base64 string or 1 \[re, im\] pairs "
            rf"\(row-major 1x1\), got {got}$")
    with pytest.raises(FileFormatError, match=want):
        _flat_to_matrix(value, 1, 1, "f.json: blocks.A10")


def tricky_poly(nodes):
    """2x2 coefficients whose parts together cover every value in TRICKY."""
    vals = np.array([float(x) for x in TRICKY] + [-1.5, 3.0])
    coeffs = {key: np.roll(vals, -2 * i)[:8].view(complex).reshape(2, 2)
              for i, key in enumerate(COEFF_KEYS)}
    return MatrixPoly2.newton(coeffs, nodes or NewtonNodes())


def node_values(nodes):
    return [nodes.alpha1, nodes.alpha2, nodes.beta1, nodes.beta2]


def assert_bitwise(a, b):
    a = np.ascontiguousarray(a, complex)
    b = np.ascontiguousarray(b, complex)
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def rewrite_indented(src, dst):
    """Re-emit a file in the earlier indented [re, im] pair layout."""
    rewrite_as_pairs(src, dst)
    dst.write_text(json.dumps(json.loads(dst.read_text()), indent=2, sort_keys=True) + "\n")


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
    save_pencil(compact, pencil)
    rewrite_indented(compact, indented)
    p1, p2 = load_pencil(compact), load_pencil(indented)
    for x, y, z in zip(pencil.blocks(), p1.blocks(), p2.blocks()):
        assert_bitwise(y, x)
        assert_bitwise(z, x)


@pytest.mark.parametrize("nodes", [None, NewtonNodes(1, -0.0, 0.5j, -2)])
def test_pair_layout_problem_and_pencil_files_load_identically(tmp_path, nodes):
    q = tricky_poly(nodes)
    written, pairs = tmp_path / "q.json", tmp_path / "q_pairs.json"
    save_problem(written, q)
    rewrite_as_pairs(written, pairs)
    assert all(isinstance(v, list) for v in json.loads(pairs.read_text())["coefficients"].values())
    b = load_problem(pairs)
    for key in COEFF_KEYS:
        assert_bitwise(b.coeff(*key), q.coeff(*key))
    if nodes is not None:
        assert_bitwise(node_values(b.nodes), node_values(nodes))

    pencil = companion_pencil(q)
    written, pairs = tmp_path / "p.json", tmp_path / "p_pairs.json"
    save_pencil(written, pencil)
    rewrite_as_pairs(written, pairs)
    assert all(isinstance(v, list) for v in json.loads(pairs.read_text())["blocks"].values())
    p2 = load_pencil(pairs)
    for x, y in zip(pencil.blocks(), p2.blocks()):
        assert_bitwise(y, x)


def test_file_mixing_both_encodings_loads(tmp_path):
    q = tricky_poly(NewtonNodes(1, -0.0, 0.5j, -2))
    path, pairs = tmp_path / "q.json", tmp_path / "q_pairs.json"
    save_problem(path, q)
    rewrite_as_pairs(path, pairs)
    doc = json.loads(path.read_text())
    for name in ("A20", "A02", "A00"):
        doc["coefficients"][name] = json.loads(pairs.read_text())["coefficients"][name]
    path.write_text(json.dumps(doc))
    mixed = load_problem(path)
    for key in COEFF_KEYS:
        assert_bitwise(mixed.coeff(*key), q.coeff(*key))


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


@pytest.mark.parametrize("nodes, want", [(NewtonNodes(), "monomial"),
                                         (NewtonNodes(-0.0, 0, 0j, 0), "monomial"),
                                         (NewtonNodes(0, 0, 0, 5e-324), "newton")])
def test_layout_is_read_from_the_nodes(tmp_path, nodes, want):
    # The polynomial and its pencil carry no label: the writer picks the
    # layout, and a monomial file has no nodes and L1/L2/L0 blocks.
    q = tricky_poly(nodes)
    assert layout(q) == layout(companion_pencil(q)) == want
    save_problem(tmp_path / "q.json", q)
    save_pencil(tmp_path / "p.json", companion_pencil(q))
    problem, pencil = (json.loads((tmp_path / f).read_text()) for f in ("q.json", "p.json"))
    assert problem["basis"] == pencil["basis"] == want
    assert ("nodes" in problem) == ("nodes" in pencil) == (want == "newton")
    names = {"A1", "A2", "A3"} if want == "newton" else {"L1", "L2", "L0"}
    assert set(pencil["blocks"]) == names
    assert load_problem(tmp_path / "q.json").nodes == q.nodes
