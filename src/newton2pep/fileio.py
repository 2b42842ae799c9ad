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
from. Readers ignore
other keys, such as the "provenance" object that earlier versions wrote:
every certificate reads the blocks alone. Writers emit single-line JSON
with sorted keys, so output is byte-deterministic; both encodings are
exact (signed zeros and subnormals included). Readers accept any
whitespace. A string must be strict base64 of exactly 16 bytes per entry;
non-finite or out-of-double-range numbers raise a FileFormatError naming
the entry.
"""

from __future__ import annotations

import binascii
import json
from pathlib import Path

import numpy as np

from .matpoly import MatrixPoly2, NewtonNodes
from .spaces import NewtonPencil

COEFF_NAMES = {"A20": (2, 0), "A11": (1, 1), "A02": (0, 2),
               "A10": (1, 0), "A01": (0, 1), "A00": (0, 0)}
MONOMIAL = "monomial"
NEWTON = "newton"
BLOCK_NAMES = {MONOMIAL: ("L1", "L2", "L0"), NEWTON: ("A1", "A2", "A3")}

__all__ = [
    "FileFormatError",
    "layout",
    "load_problem",
    "save_problem",
    "load_pencil",
    "save_pencil",
    "load_params",
    "params_from_dict",
]


class FileFormatError(ValueError):
    """Malformed input file; the message names the offending field."""


def _pair_to_complex(value, where: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(x, (int, float)) for x in value)):
        raise FileFormatError(f"{where}: expected a [re, im] number pair, got {value!r}")
    try:
        z = complex(value[0], value[1])
    except OverflowError:
        raise FileFormatError(f"{where}: value out of double range {value!r}") from None
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise FileFormatError(f"{where}: non-finite value {value!r}")
    return z


def _matrix_to_flat(mat: np.ndarray) -> str:
    raw = np.ascontiguousarray(mat, "<c16").tobytes()
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


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
    try:
        pairs = np.array(data)
    except ValueError:  # ragged nesting; the per-entry scan below names the entry
        pairs = None
    # Kinds "biuf" are exactly the bool/int/float entries the scan accepts; the
    # complex view keeps signed zeros, which re + 1j*im would lose.
    if (pairs is not None and pairs.shape == (rows * cols, 2)
            and pairs.dtype.kind in "biuf" and np.isfinite(pairs).all()):
        return np.ascontiguousarray(pairs, np.float64).view(np.complex128).reshape(rows, cols)
    values = [_pair_to_complex(entry, f"{where}[{k}]") for k, entry in enumerate(data)]
    return np.array(values, dtype=complex).reshape(rows, cols)


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise FileFormatError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top-level value must be an object")
    return doc


def _dump_json(path, doc: dict) -> None:
    # indent=None lets CPython use its C encoder.
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


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
                              f"'newton', got {basis!r}")
    nodes = NewtonNodes()
    if basis == NEWTON:
        raw = doc.get("nodes")
        if not isinstance(raw, dict):
            raise FileFormatError(f"{path}: newton basis requires a 'nodes' object")
        for key in ("alpha", "beta"):
            if not isinstance(raw.get(key), list) or len(raw[key]) != 2:
                raise FileFormatError(
                    f"{path}: nodes.{key} must be a list of two [re, im] pairs")
        nodes = NewtonNodes(
            _pair_to_complex(raw["alpha"][0], "nodes.alpha[0]"),
            _pair_to_complex(raw["alpha"][1], "nodes.alpha[1]"),
            _pair_to_complex(raw["beta"][0], "nodes.beta[0]"),
            _pair_to_complex(raw["beta"][1], "nodes.beta[1]"),
        )
    elif "nodes" in doc:
        raise FileFormatError(f"{path}: 'nodes' is only valid with basis 'newton'")
    return n, basis, nodes


def _header(obj) -> dict:
    """n, basis and (for newton files) nodes of a polynomial or pencil."""
    doc = {"n": obj.n, "basis": layout(obj)}
    if doc["basis"] == NEWTON:
        nodes = obj.nodes
        doc["nodes"] = {"alpha": [[z.real, z.imag] for z in (nodes.alpha1, nodes.alpha2)],
                        "beta": [[z.real, z.imag] for z in (nodes.beta1, nodes.beta2)]}
    return doc


def load_problem(path) -> MatrixPoly2:
    doc = _load_json(path)
    n, _, nodes = _parse_header(doc, path)
    raw = doc.get("coefficients")
    if not isinstance(raw, dict):
        raise FileFormatError(f"{path}: missing 'coefficients' object")
    coeffs = {}
    for name, key in COEFF_NAMES.items():
        if name not in raw:
            raise FileFormatError(f"{path}: coefficients.{name} is missing")
        coeffs[key] = _flat_to_matrix(raw[name], n, n, f"{path}: coefficients.{name}")
    return MatrixPoly2.newton(coeffs, nodes)


def save_problem(path, poly: MatrixPoly2) -> None:
    doc = _header(poly)
    doc["coefficients"] = {name: _matrix_to_flat(poly.coeff(*key))
                           for name, key in COEFF_NAMES.items()}
    _dump_json(path, doc)


def load_pencil(path) -> NewtonPencil:
    """Read a pencil file (keys other than the header and blocks are ignored)."""
    doc = _load_json(path)
    n, basis, nodes = _parse_header(doc, path)
    raw = doc.get("blocks")
    if not isinstance(raw, dict):
        raise FileFormatError(f"{path}: missing 'blocks' object")
    mats = []
    for name in BLOCK_NAMES[basis]:
        if name not in raw:
            raise FileFormatError(f"{path}: blocks.{name} is missing")
        mats.append(_flat_to_matrix(raw[name], 3 * n, 3 * n, f"{path}: blocks.{name}"))
    return NewtonPencil.from_blocks(nodes, *mats)


def save_pencil(path, pencil: NewtonPencil) -> None:
    doc = _header(pencil)
    doc["blocks"] = {name: _matrix_to_flat(block)
                     for name, block in zip(BLOCK_NAMES[doc["basis"]], pencil.blocks())}
    _dump_json(path, doc)


def params_from_dict(doc: dict, n: int, where: str = "params"):
    from .linearize import E1FreeParams

    if not isinstance(doc, dict):
        raise FileFormatError(f"{where} must be an object with Y11, Z1 and Z2, got {doc!r:.40}")
    for name in ("Y11", "Z1", "Z2"):
        if name not in doc:
            raise FileFormatError(f"{where}.{name} is missing")
    y11 = _flat_to_matrix(doc["Y11"], n, n, f"{where}.Y11")
    z1 = _flat_to_matrix(doc["Z1"], 3 * n, n, f"{where}.Z1")
    z2 = _flat_to_matrix(doc["Z2"], 3 * n, n, f"{where}.Z2")
    return E1FreeParams.build(y11, z1, z2)


def load_params(path, *sizes: int) -> tuple:
    """Free parameters, one per block size: a file holds one Y11/Z1/Z2 object
    for one size, or 'params1' and 'params2' objects for the two of a pair."""
    doc = _load_json(path)
    if len(sizes) == 1:
        return (params_from_dict(doc, sizes[0], where=f"{path}: params"),)
    if "params1" not in doc or "params2" not in doc:
        raise FileFormatError(f"{path}: expected 'params1' and 'params2'")
    return tuple(params_from_dict(doc[key], size, f"{path}: {key}")
                 for key, size in zip(("params1", "params2"), sizes))
