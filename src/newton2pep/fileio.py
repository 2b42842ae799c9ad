"""JSON file schemas for problems, pencils and free parameters.

Writers store each matrix as one base64 string of its row-major
little-endian complex128 bytes (numpy "<c16"). Readers also accept the
older flat row-major array of [re, im] number pairs (hand-written files,
earlier versions); the JSON type, string or array, tells them apart.
Scalars (the nodes) are [re, im] pairs. A problem file looks like

    {"n": 1, "basis": "newton",
     "nodes": {"alpha": [[1,0],[2,0]], "beta": [[0,0],[0,0]]},
     "coefficients": {"A20": "AAAAAAAA8D8AAAAAAAAAAA==", "A11": [[0,0]], ...}}

with six n x n coefficients A20 A11 A02 A10 A01 A00. ``nodes`` is present
exactly when the basis is "newton"; a "monomial" file is read as zero
nodes. Pencil files reuse the schema with a "blocks" object holding
L1/L2/L0 (monomial) or A1/A2/A3 (newton), each 3n x 3n. The label is a
file layout only, and this module alone decides it: writers pick it from
the nodes (:func:`layout`), so a polynomial or pencil whose nodes are all
zero (signed zeros too) is written as "monomial" whatever file it was read
from. Readers ignore other keys, such as the "provenance" object that
earlier versions wrote: every certificate reads the blocks alone. Writers
emit single-line JSON with sorted keys, so output is byte-deterministic;
they encode and write each matrix in turn, so no whole-document string is
built and at most one matrix's base64 text is held at once. Both encodings
are exact (signed zeros and subnormals included). Readers accept any
whitespace. A string must be strict base64 of exactly 16 bytes per entry;
non-finite or out-of-double-range numbers raise a FileFormatError naming
the entry.

Readers parse a document of ORJSON_MIN_BYTES (256 KiB) or more with orjson
unless it holds ORJSON_MAX_OPENINGS '[' and '{' bytes or more (orjson
recurses once per level with no limit: 55,000 nested objects overflowed an
8 MiB stack). json parses the rest and what orjson rejects (NaN, Infinity,
1e400, a lone surrogate, bad syntax) to the same values and messages, and
stops at its recursion limit. orjson reads the [re, im] pair layout 4-5
times faster, saving about 22 ns per byte (base64: about 1 ns), but its
import costs a fresh process about 4 ms, so below 256 KiB a CLI job would
lose time. In a large file an integer wider than 64 bits is read as the
nearest double, as a matrix entry is anyway. Loaders pause the cyclic
garbage collector, for every thread, until the parsed tree is released (its
young lists set off full collections of the heap), then restore its state.
"""

from __future__ import annotations

import binascii
import functools
import gc
import itertools
import json

import numpy as np

from .linearize import E1FreeParams
from .matpoly import COEFF_KEYS, MatrixPoly2, NewtonNodes
from .spaces import NewtonPencil

COEFF_NAMES = {f"A{i}{j}": (i, j) for i, j in COEFF_KEYS}
MONOMIAL = "monomial"
NEWTON = "newton"
BLOCK_NAMES = {MONOMIAL: ("L1", "L2", "L0"), NEWTON: ("A1", "A2", "A3")}
# orjson parses documents of at least ORJSON_MIN_BYTES and with fewer '[' and '{' bytes than
# ORJSON_MAX_OPENINGS, so that they nest less deep (see the module docstring).
ORJSON_MIN_BYTES = 1 << 18
ORJSON_MAX_OPENINGS = 1 << 15

__all__ = [
    "FileFormatError",
    "layout",
    "load_problem",
    "save_problem",
    "load_pencil",
    "save_pencil",
    "load_params",
]


class FileFormatError(ValueError):
    """Malformed input file; the message names the offending field."""


def _pair_to_complex(value, where: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(x, (int, float)) for x in value)):
        raise FileFormatError(f"{where}: expected a [re, im] number pair, got {value!r:.40}")
    try:
        z = complex(value[0], value[1])
    except OverflowError:
        raise FileFormatError(f"{where}: value out of double range {value!r:.40}") from None
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise FileFormatError(f"{where}: non-finite value {value!r:.40}")
    return z


def _matrix_to_flat(mat: np.ndarray) -> bytes:
    """The base64 ASCII bytes of a matrix's row-major "<c16" bytes, read in place."""
    return binascii.b2a_base64(np.ascontiguousarray(mat, "<c16"), newline=False)


def _flat_to_matrix(data, rows: int, cols: int, where: str) -> np.ndarray:
    if isinstance(data, str):
        try:
            raw = binascii.a2b_base64(data, strict_mode=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII str
            raise FileFormatError(f"{where}: invalid base64 string ({exc})") from None
        if len(raw) != 16 * rows * cols:
            raise FileFormatError(f"{where}: expected {16 * rows * cols} bytes of complex128 "
                                  f"(row-major {rows}x{cols}), got {len(raw)}")
        flat = np.frombuffer(raw, "<c16").astype(np.complex128)  # owned and writable
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size:
            z = complex(flat[bad[0]])
            raise FileFormatError(f"{where}[{bad[0]}]: non-finite value {[z.real, z.imag]!r}")
        return flat.reshape(rows, cols)
    if not isinstance(data, list):
        raise FileFormatError(
            f"{where}: expected a base64 string or {rows * cols} [re, im] pairs "
            f"(row-major {rows}x{cols}), got {type(data).__name__}"
        )
    if len(data) != rows * cols:
        raise FileFormatError(f"{where}: expected {rows * cols} [re, im] pairs (row-major "
                              f"{rows}x{cols}), got {len(data)}")
    parts = None  # the entries flattened, once each is a list or tuple of two (not str or dict)
    if set(map(type, data)) <= {list, tuple} and set(map(len, data)) == {2}:
        try:
            parts = np.array(list(itertools.chain.from_iterable(data)))
        except ValueError:  # ragged parts; the per-entry scan below names the entry
            pass
    # The shape rejects a part that is a sequence, and kinds "biuf" are exactly the bool/int/float
    # parts the scan accepts; the complex view keeps signed zeros, which re + 1j*im would lose.
    if (parts is not None and parts.shape == (2 * rows * cols,)
            and parts.dtype.kind in "biuf" and np.isfinite(parts).all()):
        return np.ascontiguousarray(parts, np.float64).view(np.complex128).reshape(rows, cols)
    values = [_pair_to_complex(entry, f"{where}[{k}]") for k, entry in enumerate(data)]
    return np.array(values, dtype=complex).reshape(rows, cols)


def _collector_paused(load):  # see the module docstring
    @functools.wraps(load)
    def paused(*args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return load(*args)
        finally:
            (gc.enable if enabled else gc.disable)()
    return paused


def _load_json(path) -> dict:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise FileFormatError(f"{path}: file not found")
    doc = None
    if len(data) >= ORJSON_MIN_BYTES and ORJSON_MAX_OPENINGS > sum(
            np.count_nonzero(np.frombuffer(data, np.uint8) == c) for c in b"[{"):
        import orjson

        try:
            doc = orjson.loads(data)
        except orjson.JSONDecodeError:  # NaN, 1e400, a lone surrogate, bad syntax
            pass  # json below reads the document or names what is wrong with it
    if doc is None:
        try:
            # Universal newlines, as a text-mode read gives, keep error positions as they were.
            doc = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                                  f"column {exc.colno}: {exc.msg}")
        except RecursionError:
            raise FileFormatError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top-level value must be an object")
    return doc


def _save(path, header: dict, group: str, mats: dict) -> None:
    """Write header plus ``group``: {name: matrix} as one line of sorted-key
    JSON, encoding and writing one matrix at a time."""
    # Each "" is one matrix's place, in sorted-name order: the header holds no
    # empty string. indent=None lets CPython use its C encoder.
    text = json.dumps({**header, group: dict.fromkeys(mats, "")}, sort_keys=True,
                      separators=(",", ":"))
    *heads, tail = text.encode().split(b'""')
    with open(path, "wb") as fh:
        for head, name in zip(heads, sorted(mats), strict=True):
            fh.writelines((head, b'"', _matrix_to_flat(mats[name]), b'"'))
        fh.write(tail + b"\n")


def layout(obj) -> str:
    """The file layout of a polynomial or pencil: "monomial" exactly when
    all its nodes are zero, "newton" otherwise."""
    return MONOMIAL if obj.nodes.is_zero else NEWTON


def _parse_header(doc: dict, path) -> tuple[int, str, NewtonNodes]:
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FileFormatError(f"{path}: field 'n' must be a positive integer")
    basis = doc.get("basis")
    if basis not in (MONOMIAL, NEWTON):
        raise FileFormatError(f"{path}: field 'basis' must be 'monomial' or "
                              f"'newton', got {basis!r:.40}")
    nodes = NewtonNodes()
    if basis == NEWTON:
        raw = doc.get("nodes")
        if not isinstance(raw, dict):
            raise FileFormatError(f"{path}: newton basis requires a 'nodes' object")
        for key in ("alpha", "beta"):
            if not isinstance(raw.get(key), list) or len(raw[key]) != 2:
                raise FileFormatError(
                    f"{path}: nodes.{key} must be a list of two [re, im] pairs")
        nodes = NewtonNodes(*(_pair_to_complex(raw[key][i], f"{path}: nodes.{key}[{i}]")
                              for key in ("alpha", "beta") for i in (0, 1)))
    elif "nodes" in doc:
        raise FileFormatError(f"{path}: 'nodes' is only valid with basis 'newton'")
    return n, basis, nodes


def _matrices(raw: dict, where: str, shapes: dict) -> list:  # {name: (rows, cols)}, in order
    for name in shapes:
        if name not in raw:
            raise FileFormatError(f"{where}.{name} is missing")
    return [_flat_to_matrix(raw[name], *shape, f"{where}.{name}")
            for name, shape in shapes.items()]


def _header(obj) -> dict:
    """n, basis and (for newton files) nodes of a polynomial or pencil."""
    doc = {"n": obj.n, "basis": layout(obj)}
    if doc["basis"] == NEWTON:
        nodes = obj.nodes
        doc["nodes"] = {"alpha": [[z.real, z.imag] for z in (nodes.alpha1, nodes.alpha2)],
                        "beta": [[z.real, z.imag] for z in (nodes.beta1, nodes.beta2)]}
    return doc


@_collector_paused
def load_problem(path) -> MatrixPoly2:
    doc = _load_json(path)
    n, _, nodes = _parse_header(doc, path)
    if not isinstance(raw := doc.get("coefficients"), dict):
        raise FileFormatError(f"{path}: missing 'coefficients' object")
    mats = _matrices(raw, f"{path}: coefficients", dict.fromkeys(COEFF_NAMES, (n, n)))
    return MatrixPoly2.newton(dict(zip(COEFF_NAMES.values(), mats)), nodes)


def save_problem(path, poly: MatrixPoly2) -> None:
    _save(path, _header(poly), "coefficients",
          {name: poly.coeff(*key) for name, key in COEFF_NAMES.items()})


@_collector_paused
def load_pencil(path) -> NewtonPencil:
    """Read a pencil file (keys other than the header and blocks are ignored)."""
    doc = _load_json(path)
    n, basis, nodes = _parse_header(doc, path)
    if not isinstance(raw := doc.get("blocks"), dict):
        raise FileFormatError(f"{path}: missing 'blocks' object")
    shapes = dict.fromkeys(BLOCK_NAMES[basis], (3 * n, 3 * n))
    return NewtonPencil._of_owned(nodes, *_matrices(raw, f"{path}: blocks", shapes))


def save_pencil(path, pencil: NewtonPencil) -> None:
    header = _header(pencil)
    _save(path, header, "blocks", dict(zip(BLOCK_NAMES[header["basis"]], pencil.blocks())))


def _params_from_dict(doc: dict, n: int, where: str):
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where} must be an object with Y11, Z1 and Z2, got {doc!r:.40}")
    shapes = {"Y11": (n, n), "Z1": (3 * n, n), "Z2": (3 * n, n)}
    return E1FreeParams.build(*_matrices(doc, where, shapes))


@_collector_paused
def load_params(path, *sizes: int) -> tuple:
    """Free parameters, one per block size: a file holds one Y11/Z1/Z2 object
    for one size, or 'params1' and 'params2' objects for the two of a pair."""
    doc = _load_json(path)
    if len(sizes) == 1:
        return (_params_from_dict(doc, sizes[0], f"{path}: params"),)
    if "params1" not in doc or "params2" not in doc:
        raise FileFormatError(f"{path}: expected 'params1' and 'params2'")
    return tuple(_params_from_dict(doc[key], size, f"{path}: {key}")
                 for key, size in zip(("params1", "params2"), sizes))
