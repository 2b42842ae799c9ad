"""JSON file layer: base64 and [re, im] pair encodings, layout compatibility."""

import binascii
import gc
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newton2pep import (COEFF_KEYS, E1FreeParams, MatrixPoly2, NewtonNodes, NewtonPencil,
                        companion_pencil, complex_normal)
from newton2pep import fileio
from newton2pep.fileio import (
    BLOCK_NAMES,
    COEFF_NAMES,
    NEWTON,
    ORJSON_MIN_BYTES,
    FileFormatError,
    _flat_to_matrix,
    _matrix_to_flat,
    layout,
    load_params,
    load_pencil,
    load_problem,
    save_pencil,
    save_problem,
)

from helpers import (flat_to_matrix_reference, fresh_cli_imports, fresh_python, params_to_dict,
                     random_coeffs, random_newton, rewrite_as_pairs, save_whole_document)

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
@example(([[[1.0, 2.0], [3.0, 4.0]]], 1, 1))
@example((["12"], 1, 1))
@example(([{1.0: 0.0, 2.0: 0.0}], 1, 1))
@example(([[1.0, 2.0, 3.0], [4.0]], 1, 2))
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
    text = json.loads(json.dumps(_matrix_to_flat(mat).decode()))
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
        _flat_to_matrix(_matrix_to_flat(mat).decode(), 6, 6, "f.json: blocks.A2")


def test_encoded_byte_count_must_match_shape():
    text = _matrix_to_flat(np.ones((2, 3), complex)).decode()
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


def distinct_blocks_pencil(rng, n, nodes):
    """A pencil whose three blocks differ, so that their order in the file shows."""
    return NewtonPencil.from_blocks(nodes, *(complex_normal(rng, 3 * n, 3 * n) for _ in "abc"))


@pytest.mark.parametrize("build", [
    lambda rng: companion_pencil(random_newton(rng, 3)),
    lambda rng: distinct_blocks_pencil(rng, 3, NewtonNodes()),
    lambda rng: distinct_blocks_pencil(rng, 2, NewtonNodes(1, -0.0, 0.5j, -2)),
    lambda rng: random_newton(rng, 3),
    lambda rng: MatrixPoly2.newton(random_coeffs(rng, 3)),
    lambda rng: tricky_poly(NewtonNodes(1, -0.0, 0.5j, -2)),
], ids=["newton-pencil", "monomial-pencil", "newton-distinct-pencil", "newton-problem",
        "monomial-problem", "tricky-problem"])
def test_streaming_writer_matches_the_whole_document(tmp_path, build):
    # Matrices go out in sorted-name order (A00 < A01 < ... < A20 and
    # L0 < L1 < L2), not in COEFF_NAMES or BLOCK_NAMES order.
    obj = build(np.random.default_rng(41))
    streamed, whole = tmp_path / "streamed.json", tmp_path / "whole.json"
    (save_pencil if isinstance(obj, NewtonPencil) else save_problem)(streamed, obj)
    save_whole_document(whole, obj)
    assert streamed.read_bytes() == whole.read_bytes()


def test_pencil_writer_holds_one_block_of_text(tmp_path):
    # At n = 32 one 96 x 96 block is 196,608 bytes of base64; the whole
    # document writer peaked at about 12 times that.
    pencil = distinct_blocks_pencil(np.random.default_rng(42), 32, NewtonNodes(1, 2, 3, 4))
    block_text = len(binascii.b2a_base64(pencil.A1.tobytes(), newline=False))
    tracemalloc.start()
    try:
        save_pencil(tmp_path / "p.json", pencil)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * block_text


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


@pytest.mark.parametrize("load, body", [(load_problem, "coefficients"), (load_pencil, "blocks")])
@pytest.mark.parametrize("text, message", [
    ('[1, 2]', "top-level value must be an object"),
    ('{"n": 1, "basis": "chebyshev", "BODY": {}}',
     "field 'basis' must be 'monomial' or 'newton', got 'chebyshev'"),
    ('{"n": 1, "basis": "newton", "nodes": {"alpha": [[0, 0]], "beta": [[0, 0], [0, 0]]}, '
     '"BODY": {}}', "nodes.alpha must be a list of two [re, im] pairs"),
    ('{"n": 1, "basis": "monomial"}', "missing 'BODY' object"),
], ids=["array", "basis", "alpha", "body"])
def test_malformed_document_names_the_file(tmp_path, load, body, text, message):
    path = tmp_path / "f.json"
    path.write_text(text.replace("BODY", body))
    with pytest.raises(FileFormatError) as info:
        load(path)
    assert str(info.value) == f"{path}: " + message.replace("BODY", body)


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


# ---------------------------------------------------------------- the two parse paths

# Number literals whose double is easy to get wrong: exact halfway cases (to even), one just
# past halfway that only a digit 754 places after the point decides, a 770-digit mantissa, the
# subnormal edge, integers that are not exact doubles, past int64 and past 64 bits (the only
# literals the two parsers read as different types, int and float, of the same value), booleans.
_HALF = "1.00000000000000011102230246251565404236316680908203125"  # 1 + 2^-53
HARD_LITERALS = [
    _HALF, _HALF + "0" * 700 + "1", "0." + "9" * 770, "-0.0", "-0", "0e-999", "1e-400",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "4.9406564584124654e-324",
    "2.2250738585072011e-308", "1.7976931348623157e308", "-1.7976931348623158e308",
    "9007199254740993", "9223372036854775808", "18446744073709551615",
    "18446744073709553664", "18446744073709553665", "-9223372036854775809",
    "123456789012345678901234567890", "1E5", "true", "false",
]


def pair_array_text(rng, rows, cols):
    """The [re, im] pair array of a random rows x cols matrix as JSON text, its first entries
    taken from HARD_LITERALS in a random order."""
    parts = [repr(x) for x in complex_normal(rng, rows * cols).view(float).tolist()]
    parts[:len(HARD_LITERALS)] = rng.permutation(HARD_LITERALS)
    return "[" + ",".join(f"[{re},{im}]" for re, im in zip(parts[::2], parts[1::2])) + "]"


def write_large_file(path, kind, encoding, rng):
    """A problem (n = 8) or pencil (n = 4) file whose matrices are written as pair arrays, as
    base64 strings, or alternately as both, padded with spaces to ORJSON_MIN_BYTES."""
    n = 8 if kind == "problem" else 4
    names, size = ((COEFF_NAMES, n) if kind == "problem" else (BLOCK_NAMES[NEWTON], 3 * n))
    values = []
    for k, name in enumerate(names):
        if encoding == "pairs" or (encoding == "mixed" and k % 2):
            text = pair_array_text(rng, size, size)
        else:
            text = json.dumps(_matrix_to_flat(complex_normal(rng, size, size)).decode())
        values.append(f'"{name}":{text}')
    group = "coefficients" if kind == "problem" else "blocks"
    text = (f'{{"n":{n},"basis":"newton","nodes":{{"alpha":[[1,-0.0],[0.5,2]],'
            f'"beta":[[0,0],[-2,5e-324]]}},"{group}":{{{",".join(values)}}}}}')
    path.write_text(padded(text))
    return path


def padded(text):
    """A document padded with spaces to ORJSON_MIN_BYTES, so that it takes the orjson path."""
    return text.rstrip().ljust(ORJSON_MIN_BYTES) + "\n"


def loaded_values(obj):
    """Every complex number of a loaded problem or pencil, nodes first."""
    mats = obj.blocks() if isinstance(obj, NewtonPencil) else [obj.coeff(*k) for k in COEFF_KEYS]
    return np.concatenate([node_values(obj.nodes)] + [m.ravel() for m in mats])


@pytest.fixture
def orjson_calls(monkeypatch):
    """The outcome, "parsed" or "rejected", of each call the readers make to orjson.loads."""
    import orjson

    real, calls = orjson.loads, []

    def spy(data):
        try:
            doc = real(data)
        except orjson.JSONDecodeError:
            calls.append("rejected")
            raise
        calls.append("parsed")
        return doc

    monkeypatch.setattr(orjson, "loads", spy)
    return calls


@pytest.mark.parametrize("encoding", ["pairs", "base64", "mixed"])
@pytest.mark.parametrize("kind", ["problem", "pencil"])
def test_large_file_parses_bit_identically_on_both_paths(tmp_path, monkeypatch, orjson_calls,
                                                         kind, encoding):
    path = write_large_file(tmp_path / "f.json", kind, encoding, np.random.default_rng(43))
    assert path.stat().st_size >= ORJSON_MIN_BYTES
    loader = load_problem if kind == "problem" else load_pencil
    fast = loaded_values(loader(path))
    assert orjson_calls == ["parsed"]
    monkeypatch.setattr(fileio, "ORJSON_MIN_BYTES", math.inf)
    slow = loaded_values(loader(path))
    assert orjson_calls == ["parsed"]  # the second read took the json path
    np.testing.assert_array_equal(fast.view(np.uint64), slow.view(np.uint64))


def test_only_large_files_reach_orjson(tmp_path, orjson_calls):
    save_problem(tmp_path / "q.json", tricky_poly(NewtonNodes(1, -0.0, 0.5j, -2)))
    rewrite_as_pairs(tmp_path / "q.json", tmp_path / "q_pairs.json")
    for name in ("q.json", "q_pairs.json"):
        load_problem(tmp_path / name)
    load_pencil(write_large_file(tmp_path / "p.json", "pencil", "pairs",
                                 np.random.default_rng(44)))
    assert orjson_calls == ["parsed"]


@pytest.mark.parametrize("literal, message", [
    ("NaN", "non-finite value [nan, "),
    ("Infinity", "non-finite value [inf, "),
    ("1e400", "non-finite value [inf, "),
    ("1" + "0" * 400, "value out of double range [1000"),
], ids=["nan", "infinity", "1e400", "10**400"])
def test_large_file_orjson_rejects_names_the_entry(tmp_path, orjson_calls, literal, message):
    # orjson reads none of these; the json path names the entry as it does for a small file.
    path = write_large_file(tmp_path / "q.json", "problem", "pairs", np.random.default_rng(45))
    text = path.read_text()
    at = text.index('"A10":[[') + len('"A10":[[')
    path.write_text(padded(text[:at] + literal + ",0]" + text[text.index("]", at) + 1:]))
    with pytest.raises(FileFormatError) as large:
        load_problem(path)
    assert orjson_calls == ["rejected"]
    assert str(large.value).startswith(f"{path}: coefficients.A10[0]: {message}")
    path.write_text(path.read_text().rstrip() + "\n")
    assert path.stat().st_size < ORJSON_MIN_BYTES
    with pytest.raises(FileFormatError) as small:
        load_problem(path)
    assert str(small.value) == str(large.value)


@pytest.mark.parametrize("edit", [
    lambda text: text.replace('"basis"', '"x":"\\ud800","basis"'),  # a lone surrogate
    lambda text: text.replace('"basis"', '"x":NaN,"basis"'),  # json reads it, no one uses it
], ids=["lone-surrogate", "nan-in-ignored-key"])
def test_large_file_orjson_rejects_loads_as_json_reads_it(tmp_path, orjson_calls, edit):
    path = write_large_file(tmp_path / "q.json", "problem", "mixed", np.random.default_rng(46))
    want = loaded_values(load_problem(path))
    path.write_text(padded(edit(path.read_text())))
    got = loaded_values(load_problem(path))
    assert orjson_calls == ["parsed", "rejected"]
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("size", ["small", "large"])
@pytest.mark.parametrize("edit, message", [
    (lambda data: data.replace(b'"n":', b'"n":,', 1),
     r"invalid JSON at line 1, column 6: Expecting value$"),
    (lambda data: b"\xef\xbb\xbf" + data,
     r"invalid JSON at line 1, column 1: Unexpected UTF-8 BOM"),
    (lambda data: data.replace(b"{", b"{\r\r\n", 1).replace(b'"n":', b'"n":,', 1),
     r"invalid JSON at line 3, column 5: Expecting value$"),
    (lambda data: data.replace(b'"basis"', b'"b\xe4sis"'),
     r"not UTF-8 text \(invalid continuation byte at byte 9\)$"),
], ids=["syntax", "bom", "carriage-returns", "latin-1"])
def test_unreadable_text_names_the_file(tmp_path, size, edit, message):
    path = write_large_file(tmp_path / "q.json", "problem", "base64", np.random.default_rng(47))
    data = path.read_bytes()
    path.write_bytes(edit(data if size == "large" else data.rstrip() + b"\n"))
    assert (path.stat().st_size >= ORJSON_MIN_BYTES) == (size == "large")
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {message}"):
        load_problem(path)


def test_fresh_construct_on_a_small_file_does_not_import_orjson(tmp_path):
    save_problem(tmp_path / "q.json", random_newton(np.random.default_rng(48), 2))
    imported = fresh_cli_imports(["construct", "q.json", "--companion", "--out", "p.json"],
                                 tmp_path)
    assert "newton2pep.fileio" in imported and "orjson" not in imported


# ---------------------------------------------------------------- the paused collector

def test_pair_layout_load_runs_no_collection(tmp_path):
    save_problem(tmp_path / "q.json", random_newton(np.random.default_rng(49), 64))
    rewrite_as_pairs(tmp_path / "q.json", tmp_path / "q_pairs.json")
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        load_problem(tmp_path / "q_pairs.json")
    finally:
        gc.callbacks.remove(count)
    assert starts == []


@pytest.mark.parametrize("valid", [True, False], ids=["loads", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("kind", ["problem", "pencil", "params"])
def test_load_restores_the_callers_collector_state(tmp_path, kind, enabled, valid):
    q = random_newton(np.random.default_rng(50), 2)
    path = tmp_path / f"{kind}.json"
    if not valid:
        path.write_text('{"n": 0}')
    elif kind == "problem":
        save_problem(path, q)
    elif kind == "pencil":
        save_pencil(path, companion_pencil(q))
    else:
        params = E1FreeParams.random(2, np.random.default_rng(51))
        path.write_text(json.dumps(params_to_dict(params)))
    load = {"problem": load_problem, "pencil": load_pencil,
            "params": lambda p: load_params(p, 2)}[kind]
    gc.enable() if enabled else gc.disable()
    try:
        if valid:
            load(path)
        else:
            with pytest.raises(FileFormatError):
                load(path)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


# ---------------------------------------------------------------- nesting depth

@pytest.mark.parametrize("depth", [2_000, 150_000])
def test_deeply_nested_file_is_a_usage_error(tmp_path, depth):
    # 150,000 levels is past ORJSON_MIN_BYTES and deeper than orjson parses without crashing.
    path = tmp_path / "q.json"
    path.write_text('{"n": 1, "basis": "monomial", "coefficients": '
                    + "[" * depth + "]" * depth + "}")
    assert (path.stat().st_size >= ORJSON_MIN_BYTES) == (depth > 100_000)
    proc = fresh_python("-m", "newton2pep.cli", "construct", "q.json", "--companion",
                        "--out", "p.json", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr.decode()[-400:]
    assert proc.stderr.decode().startswith("error: q.json: ")


def test_file_nested_past_the_json_recursion_limit_is_a_format_error(tmp_path):
    # Under ORJSON_MIN_BYTES, so json reads it and raises RecursionError in this process.
    depth = sys.getrecursionlimit() + 100
    path = tmp_path / "q.json"
    path.write_text('{"n": 1, "basis": "monomial", "coefficients": '
                    + "[" * depth + "]" * depth + "}")
    assert path.stat().st_size < ORJSON_MIN_BYTES
    with pytest.raises(FileFormatError, match="q.json: JSON nested too deeply to read$"):
        load_problem(path)


NESTED = "[" * 900 + "]" * 900


@pytest.mark.parametrize("header, prefix", [
    (f'"basis": "newton", "nodes": {{"alpha": [{NESTED}, [0, 0]], "beta": [[0, 0], [0, 0]]}}',
     "error: q.json: nodes.alpha[0]: expected a [re, im] number pair, got "),
    (f'"basis": {NESTED}', "error: q.json: field 'basis' must be 'monomial' or 'newton', got "),
    ('"basis": "' + "x" * 10 ** 5 + '"',
     "error: q.json: field 'basis' must be 'monomial' or 'newton', got "),
], ids=["nested-node", "nested-basis", "long-basis"])
def test_malformed_header_message_names_the_file_and_is_bounded(tmp_path, header, prefix):
    # The malformed value is echoed to 40 characters, however deep or long it is.
    (tmp_path / "q.json").write_text('{"n": 1, ' + header + ', "coefficients": {}}')
    proc = fresh_python("-m", "newton2pep.cli", "construct", "q.json", "--companion",
                        "--out", "p.json", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr.decode()[-400:]
    message = proc.stderr.decode().splitlines()[0]
    assert message.startswith(prefix) and len(message) == len(prefix) + 40
