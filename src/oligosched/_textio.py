"""Text serialization helpers: 17-significant-digit JSON/CSV, atomic writes.

Every float is emitted as ``%.17g`` spells it, so parsed values round-trip
exactly; rerunning a command with the same inputs therefore reproduces
output files byte for byte.  Long CSV output is produced by ``csv_blocks``
one block of rows at a time and streamed by ``atomic_write_text``, so
writing a series holds one formatted block in memory, never the whole text.
CSV columns and numeric ndarrays in ``dumps`` are rendered by ``_render``
in numpy, byte for byte as the per-value ``%.17g``/``%d`` spelling; it is
imported on first use, since parsing it costs about 2 ms of start-up that
a process writing no array never needs.
"""
from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable, Iterator

import numpy as np


def fmt(x) -> str:
    """17-significant-digit rendering of one float, nan and inf renamed."""
    return format(float(x), ".17g").replace("nan", "NaN").replace("inf", "Infinity")


def dumps(obj, _level: int = 0) -> str:
    """JSON text, two spaces per level, full-precision floats, dict order kept.

    A non-empty integer or float ndarray of one or more dimensions is
    rendered by ``_render.json_array``; its text equals the per-value
    rendering through ``fmt`` and ``str``.
    """
    pad = "  " * _level
    pad_in = "  " * (_level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if isinstance(obj, np.ndarray):
        if obj.ndim and obj.size and obj.dtype.kind in "iuf":
            from . import _render
            return _render.json_array(obj, _level)
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{pad_in}{json.dumps(str(k), ensure_ascii=False)}: {dumps(v, _level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{pad_in}{dumps(v, _level + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write ``text`` via a temp file in the same directory, then rename.

    ``text`` is one string or an iterable of strings written in order, such
    as ``csv_blocks``; an iterable is consumed while the file is written, so
    peak memory is one block, not the whole text.  If writing or the
    iterable raises, the temp file is removed and ``path`` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-oligosched-")
    try:
        with os.fdopen(fd, "w") as fh:
            for block in (text,) if isinstance(text, str) else text:
                fh.write(block)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_CSV_CHUNK = 65536  # rows per block of csv_blocks


def csv_text(header: list[str] | None, columns) -> str:
    """CSV text of equal-length integer or float arrays ``columns``, spelled
    as ``fmt`` spells them: ``%d``/``%.17g`` per value, nan and inf renamed.

    The rows are rendered by ``_render.csv_rows`` (its module docstring
    gives the fast path, why it is exact, and the per-value fallback),
    after the header line unless ``header`` is None; each line ends with a
    newline.
    """
    from . import _render
    parts = [] if header is None else [",".join(header) + "\n"]
    return "".join(parts + _render.csv_rows(columns))


def csv_blocks(header: list[str], columns) -> Iterator[str]:
    """``csv_text`` of successive ``_CSV_CHUNK``-row slices of ``columns``,
    the header on the first block only; joined, the blocks equal
    ``csv_text(header, columns)``.  With no rows it yields the header line."""
    n = len(columns[0]) if len(columns) else 0
    yield csv_text(header, [col[:_CSV_CHUNK] for col in columns])
    for i in range(_CSV_CHUNK, n, _CSV_CHUNK):
        yield csv_text(None, [col[i:i + _CSV_CHUNK] for col in columns])
