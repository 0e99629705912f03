"""Text serialization helpers: 17-significant-digit JSON/CSV, atomic writes.

Every float is emitted as ``%.17g`` spells it, so parsed values round-trip
exactly; rerunning a command with the same inputs therefore reproduces
output files byte for byte.  This module lays out JSON and CSV text; the
values of arrays (CSV columns and numeric ndarrays in ``dumps``) are
rendered by ``_render`` in numpy, byte for byte as the per-value
``%.17g``/``%d`` spelling.  ``_render`` is imported on first use, since
parsing it costs about 2 ms of start-up that a process writing no array
never needs.  Long output is produced as a stream of blocks and written
by ``atomic_write_text`` as they come: ``csv_blocks`` yields the header
line, then the chunks of rows that ``_render.csv_rows`` renders on every
usable CPU while earlier chunks are written, so a CSV write holds at most
``2 * _render.ROWS`` rows of text plus the temporaries of rendering
``_render.ROWS`` rows; ``dumps_blocks`` yields one dict item at a time.
Neither holds the whole text, and the bytes do not depend on the CPU
count.
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

    A non-empty integer or float ndarray of one or more dimensions has its
    values rendered by ``_render.csv_rows`` as one column, then laid out
    by shape as nested lists; its text equals the per-value rendering
    through ``fmt`` and ``str``.  Other ndarrays, 0-d ones included, go
    through ``tolist``.
    """
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
            items = "".join(_render.csv_rows([obj.reshape(-1)])).split("\n")[:-1]
            for d in range(obj.ndim - 1, -1, -1):  # innermost rows first
                k = obj.shape[d]
                items = [_list(items[i:i + k], _level + d) for i in range(0, len(items), k)]
            return items[0]
        return dumps(obj.tolist(), _level)
    if isinstance(obj, dict):
        return "".join(dumps_blocks(obj, _level))
    if isinstance(obj, (list, tuple)):
        return _list([dumps(v, _level + 1) for v in obj], _level)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _list(items: list[str], level: int) -> str:
    """A JSON list at ``level`` of the already rendered ``items``."""
    if not items:
        return "[]"
    pad_in = "  " * (level + 1)
    return "[\n" + pad_in + (",\n" + pad_in).join(items) + "\n" + "  " * level + "]"


def dumps_blocks(obj: dict, _level: int = 0) -> Iterator[str]:
    """``dumps`` of the dict ``obj``, one item per block, the closing brace
    last; joined, the blocks equal ``dumps(obj)``.  Streamed through
    ``atomic_write_text``, a file holds one item's text at a time."""
    if not obj:
        yield "{}"
        return
    pad_in = "  " * (_level + 1)
    sep = "{\n"
    for k, v in obj.items():
        yield f"{sep}{pad_in}{json.dumps(str(k), ensure_ascii=False)}: {dumps(v, _level + 1)}"
        sep = ",\n"
    yield "\n" + "  " * _level + "}"


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write ``text`` via a temp file in the same directory, then rename.

    ``text`` is one string or an iterable of strings written in order, such
    as ``csv_blocks``; an iterable is consumed while the file is written, so
    memory holds what the iterable keeps in flight, not the whole text.  If
    writing or the iterable raises, the temp file is removed, an iterable
    with a ``close`` method (a generator) is closed, so that a render pool
    behind it has stopped, and ``path`` is left as it was.
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
        if hasattr(text, "close"):
            text.close()
        raise


def csv_text(header: list[str] | None, columns) -> str:
    """CSV text of equal-length integer or float arrays ``columns``, spelled
    as ``fmt`` spells them: ``%d``/``%.17g`` per value, nan and inf renamed.

    The rows are rendered by ``_render.csv_rows`` (its module docstring
    gives the fast path, why it is exact, and the per-value fallback),
    after the header line unless ``header`` is None; each line ends with a
    newline.  The text is ``csv_blocks`` joined.
    """
    return "".join(csv_blocks(header, columns))


def csv_blocks(header: list[str] | None, columns) -> Iterator[str]:
    """``csv_text`` as a stream: the header line (unless ``header`` is
    None), then each chunk of rows of ``_render.csv_rows`` in row order,
    rendered on every usable CPU at most ``2 * _render.ROWS`` rows ahead of
    the consumer, which writes one chunk while later ones render; the text
    does not depend on the CPU count."""
    from . import _render
    if header is not None:
        yield ",".join(header) + "\n"
    yield from _render.csv_rows(columns)
