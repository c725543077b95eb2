"""Text file formats for dense and Monarch matrices.

dmat:     "dmat <rows> <cols> <real|complex>" then rows*cols values in
          row-major order, whitespace separated; complex entries are
          consecutive "re im" pairs.
monarch:  "monarch <n> <b> <real|complex>" then the b Ltilde blocks (each
          (n/b) x (n/b), row-major), then the n/b R blocks (each b x b).

Values are written with 17 significant digits, which round-trips float64
exactly, so parse(serialize(A)) == A bitwise. Writers put 8 values on a
line and start each block on a new line; readers accept any whitespace
between values. Both work in bulk: a writer formats each block stack with
one %-operation and writes it with one call, so it holds one stack's text
at a time, and a reader splits the whole file once and converts all values
with one numpy call. The format stores finite values only: writers raise
NonFiniteValue (and write nothing) on NaN or infinity, readers raise
ParseError; likewise write_dmat raises BadSize on a zero dimension and
DimensionMismatch on an array that is not 2-D.
"""

from __future__ import annotations

import numpy as np

from .core import MonarchMatrix, resolve_block_size
from .errors import BadBlocking, BadSize, DimensionMismatch, NonFiniteValue, ParseError
from .numerics import dtype_for
from .structured import BlockDiagMatrix

_VALUES_PER_LINE = 8
_LINE = " ".join(["%.17g"] * _VALUES_PER_LINE) + "\n"


def format_value(x: float) -> str:
    return f"{x:.17g}"


def _flatten(a) -> np.ndarray:
    """Row-major float64 values of a; complex entries as (re, im) pairs."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return np.ascontiguousarray(a, dtype=np.complex128).reshape(-1).view(np.float64)
    return np.asarray(a, dtype=np.float64).reshape(-1)


def _check_finite(path, *stacks) -> None:
    if not all(np.isfinite(stack).all() for stack in stacks):
        raise NonFiniteValue(f"{path}: cannot write a non-finite value")


def _format_blocks(blocks) -> str:
    """Text of a (k, rows, cols) stack: 8 values a line, each block from a new line."""
    blocks = np.asarray(blocks)
    values = _flatten(blocks)
    full, rest = divmod(values.size // blocks.shape[0], _VALUES_PER_LINE)
    block = _LINE * full + (" ".join(["%.17g"] * rest) + "\n" if rest else "")
    return (block * blocks.shape[0]) % tuple(values.tolist())


def write_dmat(path, a) -> None:
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionMismatch(f"{path}: dmat stores 2-D matrices, got ndim={a.ndim}")
    if 0 in a.shape:
        raise BadSize(f"{path}: dmat sizes must be positive, got {a.shape[0]}x{a.shape[1]}")
    _check_finite(path, a)
    kind = "complex" if np.iscomplexobj(a) else "real"
    with open(path, "w") as fh:
        fh.write(f"dmat {a.shape[0]} {a.shape[1]} {kind}\n")
        fh.write(_format_blocks(a[np.newaxis]))


def write_mon(path, m: MonarchMatrix) -> None:
    # one header kind covers both stacks, so a real stack beside a complex one is written complex
    stacks = [stack.astype(dtype_for(m.field), copy=False) for stack in (m.ltilde.blocks, m.r.blocks)]
    _check_finite(path, *stacks)
    with open(path, "w") as fh:
        fh.write(f"monarch {m.n} {m.b} {m.field}\n")
        for stack in stacks:
            fh.write(_format_blocks(stack))


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


def _parse_values(body: str, count, kind, path) -> np.ndarray:
    scalars = count * (2 if kind == "complex" else 1)
    raw = body.split()
    if len(raw) != scalars:
        raise ParseError(f"{path}: expected {scalars} values, found {len(raw)}")
    try:
        values = np.array(raw, dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric value") from exc
    if not np.isfinite(values).all():
        raise ParseError(f"{path}: non-finite value")
    if kind == "complex":
        return values.view(np.complex128)
    return values


def _read_text(path):
    """The file's first non-blank line and the text after it."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    header, _, body = text.lstrip().partition("\n")
    if not header:
        raise ParseError(f"{path}: empty file")
    return header, body


def _dmat_from_text(header, body, path) -> np.ndarray:
    name, rows, cols, kind = _parse_header(header.split(), path)
    if name != "dmat":
        raise ParseError(f"{path}: expected dmat header, got {name!r}")
    values = _parse_values(body, rows * cols, kind, path)
    return values.reshape(rows, cols)


def _mon_from_text(header, body, path) -> MonarchMatrix:
    name, n, b, kind = _parse_header(header.split(), path)
    if name != "monarch":
        raise ParseError(f"{path}: expected monarch header, got {name!r}")
    try:
        resolve_block_size(n, b)
    except BadBlocking as exc:
        raise ParseError(f"{path}: invalid blocking n={n}, b={b}") from exc
    q = n // b
    values = _parse_values(body, b * q * q + q * b * b, kind, path)
    ltilde = values[: b * q * q].reshape(b, q, q)
    rblocks = values[b * q * q :].reshape(q, b, b)
    return MonarchMatrix(ltilde=BlockDiagMatrix(ltilde), r=BlockDiagMatrix(rblocks))


def read_dmat(path) -> np.ndarray:
    return _dmat_from_text(*_read_text(path), path)


def read_mon(path) -> MonarchMatrix:
    return _mon_from_text(*_read_text(path), path)


def read_any(path):
    """Dispatch on the header word; returns ("dmat", ndarray) or ("monarch", MonarchMatrix)."""
    header, body = _read_text(path)
    word = header.split()[0]
    if word == "dmat":
        return "dmat", _dmat_from_text(header, body, path)
    if word == "monarch":
        return "monarch", _mon_from_text(header, body, path)
    raise ParseError(f"{path}: unknown header {word!r}")
