"""Text serialization helpers: 17-significant-digit JSON/CSV, atomic writes.

Every float is emitted through ``%.17g`` so parsed values round-trip
exactly; rerunning a command with the same inputs therefore reproduces
output files byte for byte.
"""
from __future__ import annotations

import itertools
import math
import os
import tempfile

import numpy as np


def fmt(x) -> str:
    """17-significant-digit rendering of one number."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _json_escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def dumps(obj, indent: int = 2, _level: int = 0) -> str:
    """JSON text with full-precision floats; dict order is preserved."""
    pad = " " * (indent * _level)
    pad_in = " " * (indent * (_level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return f'"{_json_escape(obj)}"'
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f'{pad_in}"{_json_escape(str(k))}": {dumps(v, indent, _level + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{pad_in}{dumps(v, indent, _level + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


_WRITE_SLICE = 1 << 20  # characters encoded per write


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-oligosched-")
    try:
        with os.fdopen(fd, "w") as fh:
            # one write would encode the whole text at once, a second copy
            for i in range(0, len(text), _WRITE_SLICE):
                fh.write(text[i:i + _WRITE_SLICE])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_CSV_CHUNK = 65536  # rows per string operation


def csv_text(header: list[str], columns) -> str:
    """CSV text of equal-length integer or float arrays ``columns``, spelled
    as ``fmt`` spells them: ``%d``/``%.17g`` per block, nan and inf renamed."""
    line = ",".join("%d" if col.dtype.kind in "iu" else "%.17g" for col in columns)
    lines = [",".join(header)]
    for i in range(0, len(columns[0]) if len(columns) else 0, _CSV_CHUNK):
        block = list(zip(*(col[i:i + _CSV_CHUNK].tolist() for col in columns)))
        text = "\n".join([line] * len(block)) % tuple(itertools.chain(*block))
        lines.append(text.replace("nan", "NaN").replace("inf", "Infinity"))
    lines.append("")  # the trailing newline, without a "+" copying the text
    return "\n".join(lines)
