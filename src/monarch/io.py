"""Text file formats for dense and Monarch matrices.

dmat:     "dmat <rows> <cols> <real|complex>" then rows*cols values in
          row-major order, whitespace separated; complex entries are
          consecutive "re im" pairs.
monarch:  "monarch <n> <b> <real|complex>" then the b Ltilde blocks (each
          (n/b) x (n/b), row-major), then the n/b R blocks (each b x b).

Values are written with 17 significant digits, which round-trips float64
exactly, so parse(serialize(A)) == A bitwise.
"""

from __future__ import annotations

import numpy as np

from .core import MonarchMatrix, resolve_block_size
from .errors import BadBlocking, ParseError
from .structured import BlockDiagMatrix

_VALUES_PER_LINE = 8


def format_value(x: float) -> str:
    return f"{x:.17g}"


def _flatten(a: np.ndarray) -> np.ndarray:
    flat = np.asarray(a).ravel()
    if np.iscomplexobj(flat):
        out = np.empty(2 * flat.size)
        out[0::2] = flat.real
        out[1::2] = flat.imag
        return out
    return flat.astype(np.float64)


def _value_lines(values: np.ndarray):
    for start in range(0, len(values), _VALUES_PER_LINE):
        yield " ".join(format_value(v) for v in values[start : start + _VALUES_PER_LINE])


def write_dmat(path, a) -> None:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ParseError(f"dmat stores 2-D matrices, got ndim={a.ndim}")
    kind = "complex" if np.iscomplexobj(a) else "real"
    with open(path, "w") as fh:
        fh.write(f"dmat {a.shape[0]} {a.shape[1]} {kind}\n")
        for line in _value_lines(_flatten(a)):
            fh.write(line + "\n")


def write_mon(path, m: MonarchMatrix) -> None:
    kind = "complex" if np.iscomplexobj(m.ltilde.blocks) else "real"
    with open(path, "w") as fh:
        fh.write(f"monarch {m.n} {m.b} {kind}\n")
        for block in m.ltilde.blocks:
            for line in _value_lines(_flatten(block)):
                fh.write(line + "\n")
        for block in m.r.blocks:
            for line in _value_lines(_flatten(block)):
                fh.write(line + "\n")


def _parse_header(tokens, path):
    if len(tokens) != 4:
        raise ParseError(f"{path}: header needs 4 fields, got {len(tokens)}")
    name, first, second, kind = tokens
    try:
        first, second = int(first), int(second)
    except ValueError as exc:
        raise ParseError(f"{path}: non-integer header sizes") from exc
    if kind not in ("real", "complex"):
        raise ParseError(f"{path}: field must be real or complex, got {kind!r}")
    if first < 1 or second < 1:
        raise ParseError(f"{path}: sizes must be positive")
    return name, first, second, kind


def _parse_values(lines, count, kind, path) -> np.ndarray:
    scalars = count * (2 if kind == "complex" else 1)
    raw = []
    for line in lines:
        raw.extend(line.split())
    if len(raw) != scalars:
        raise ParseError(f"{path}: expected {scalars} values, found {len(raw)}")
    try:
        values = np.array([float(tok) for tok in raw])
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric value") from exc
    if not np.all(np.isfinite(values)):
        raise ParseError(f"{path}: non-finite value")
    if kind == "complex":
        return values[0::2] + 1j * values[1::2]
    return values


def _read_lines(path):
    try:
        with open(path) as fh:
            lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ParseError(f"{path}: empty file")
    return lines


def _dmat_from_lines(lines, path) -> np.ndarray:
    name, rows, cols, kind = _parse_header(lines[0].split(), path)
    if name != "dmat":
        raise ParseError(f"{path}: expected dmat header, got {name!r}")
    values = _parse_values(lines[1:], rows * cols, kind, path)
    return values.reshape(rows, cols)


def _mon_from_lines(lines, path) -> MonarchMatrix:
    name, n, b, kind = _parse_header(lines[0].split(), path)
    if name != "monarch":
        raise ParseError(f"{path}: expected monarch header, got {name!r}")
    try:
        resolve_block_size(n, b)
    except BadBlocking as exc:
        raise ParseError(f"{path}: invalid blocking n={n}, b={b}") from exc
    q = n // b
    values = _parse_values(lines[1:], b * q * q + q * b * b, kind, path)
    ltilde = values[: b * q * q].reshape(b, q, q)
    rblocks = values[b * q * q :].reshape(q, b, b)
    return MonarchMatrix(ltilde=BlockDiagMatrix(ltilde), r=BlockDiagMatrix(rblocks))


def read_dmat(path) -> np.ndarray:
    return _dmat_from_lines(_read_lines(path), path)


def read_mon(path) -> MonarchMatrix:
    return _mon_from_lines(_read_lines(path), path)


def read_any(path):
    """Dispatch on the header word; returns ("dmat", ndarray) or ("monarch", MonarchMatrix)."""
    lines = _read_lines(path)
    word = lines[0].split()[0]
    if word == "dmat":
        return "dmat", _dmat_from_lines(lines, path)
    if word == "monarch":
        return "monarch", _mon_from_lines(lines, path)
    raise ParseError(f"{path}: unknown header {word!r}")
