"""Decimal text of numpy arrays, byte for byte as ``%.17g``/``%d`` spell it.

This module renders values only; ``_textio`` lays out the CSV and JSON
text around them.  Arrays (CSV columns, and the values of a numeric
ndarray in ``dumps`` as one column) are rendered in numpy, not one Python
call per value.  No byte of the text is 0, so each value becomes a
fixed-width ``uint8`` field in which a zero byte marks a byte the text
drops.  ``_compact`` takes a chunk's columns and lays each row's fields
side by side in one array, writing a comma after each field and a newline
after the last; its nonzero bytes are the chunk's text.  ``csv_rows``
yields the chunks' text in row order as one stream.  On w workers (the
CPUs the process may use, at most ``_MAX_WORKERS``) a chunk holds
``ROWS // w`` rows, and one thread pool that lives as long as the stream
renders w chunks side by side (numpy releases the GIL), at most 2w chunks
ahead of the consumer.  So ``ROWS`` rows render at once and at most
``2 * ROWS`` rows of text wait to be consumed: the working set is sized by
``ROWS``, not by the array or by w, and the text does not depend on w.

Fast path for a float v with 1e-4 <= |v| < 1e16, exactly the nonzero
magnitudes ``%.17g`` writes in fixed notation.  With X the decimal
exponent of |v|, N = round(|v|*10**(16-X)) holds the 17 significant
digits.  10**(16-X) is an exact double (16-X <= 21), and Dekker's
two-product (Numer. Math. 18, 1971) splits |v|*10**(16-X) exactly into
p + e.  Since p >= 1e16 > 2**53, p is an even integer, so N = p + rint(e)
in int64 is the correctly rounded value, ties to even, as Gay's
conversion behind ``%.17g`` gives it.  X comes from ``floor(log10)``,
corrected by one step where N leaves [10**16, 10**17]; N = 10**17 (a
power of ten whose log10 came out low) rolls over to the next decade.
The digits come from a 10,000-entry table of 4-digit groups, trailing
zeros are dropped and the point is placed at X; +-0 is spelled "0" and
"-0" in the same pass.  Integers with |i| < 10**16 use the same table.
Every other value (nan, inf, the scientific-notation magnitudes below
1e-4 or from 1e16 on, subnormals among them, and larger integers) is
spelled one at a time by ``_textio.fmt`` or ``%d``, so every byte equals
the per-value rendering.
"""
from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterator

import numpy as np

from ._textio import fmt

ROWS = 24576  # rows rendered at once, over all workers
_MAX_WORKERS = 16  # so that a chunk holds at least ROWS // 16 = 1,536 rows
_FLOAT_WIDTH = 24  # "-", 22 columns for "0.000" and 17 digits, 1 for the fallback
_POW10 = 10.0 ** np.arange(23)  # exact doubles up to 1e22
_E16, _E17 = 10 ** 16, 10 ** 17
_INT_POW = 10 ** np.arange(1, 17)  # an integer a has 1 + #{p <= a} digits

# _DIGITS4[g]: the 4 ASCII digits of g < 10,000, zero padded, as one uint32.
# _LAST[k][g]: the index among 17 digits of the last nonzero digit of g as
# the k-th 4-digit group after the leading digit, 0 where g is 0.
_digits = 48 + np.indices((10,) * 4, dtype=np.uint8).reshape(4, 10000)
_DIGITS4 = np.ascontiguousarray(_digits.T).view(np.uint32).ravel()
_position = ((_digits != 48) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(axis=0)
_LAST = [np.where(_position, _position + 4 * k, 0).astype(np.uint8) for k in range(4)]
# A float field holds "-" in column 0 and content column i = 0..21 in column
# i + 1.  With decimal exponent x in -4..15 and the index of the last
# nonzero digit in 0..16, the content is z = "0000" + 17 digits: z[i] up to
# the units digit at i = 4 + x, the point at 5 + x, then z[i - 1]; it keeps
# columns 4 + min(x, 0) .. (5 + last if last > x else 4 + x).
# _INTEGER[x + 4] is 255 on the columns taken from z unshifted, and
# _KEEP[17 * (x + 4) + last] is 255 on column 0 and the columns kept, else 0.
_c = np.arange(_FLOAT_WIDTH)
_x = np.arange(-4, 16)[:, None, None]
_last = np.arange(17)[None, :, None]
_INTEGER = np.where(_c <= 5 + _x[:, 0], 255, 0).astype(np.uint8)
_KEEP = np.uint8(255) * ((_c == 0) | (_c >= 5 + np.minimum(_x, 0))
                         & (_c <= np.where(_last > _x, 6 + _last, 5 + _x))).reshape(-1, _c.size)
del _digits, _position, _c, _x, _last


def _spelled(rows: np.ndarray, strings: list[str], data: np.ndarray) -> None:
    """Overwrite the fields at ``rows`` with ``strings``, left-aligned, zero padded."""
    if strings:
        spelled = np.array(strings, dtype=f"S{data.shape[1]}").view(np.uint8)
        data[rows] = spelled.reshape(len(strings), data.shape[1])


def _scaled(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """round(a * 10**(16 - x)), ties to even, as int64; exact where the
    rounded product lies in [1e16, 1e17] (module docstring)."""
    b = np.take(_POW10, 16 - x)
    p = a * b
    ah = a * 134217729.0  # Veltkamp splits at 2**27 + 1
    ah -= ah - a
    bh = b * 134217729.0
    bh -= bh - b
    al, bl = a - ah, b - bh
    e = ah * bh
    e -= p
    e += ah * bl
    e += al * bh
    e += al * bl
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _float_fill(v: np.ndarray, data: np.ndarray) -> None:
    """``%.17g`` fields of the values ``v`` as float64 (nan, inf renamed)
    into a ``(len(v), _FLOAT_WIDTH)`` view, 0 in the bytes dropped."""
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    a = np.abs(v)
    slow = ~((a >= 1e-4) & (a < 1e16)) & (a != 0)
    rows = np.flatnonzero(slow)
    strings = [fmt(s) for s in v[rows].tolist()]
    a[rows] = 1.0
    zero = a == 0
    a[zero] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)
    N = _scaled(a, x)
    step = (N < _E16).astype(np.intp) - (N > _E17)
    fix = np.flatnonzero(step)
    if fix.size:
        x[fix] -= step[fix]
        N[fix] = _scaled(a[fix], x[fix])
    roll = np.flatnonzero(N == _E17)
    N[roll] = _E16
    x[roll] += 1
    # six 4-digit groups per value: "0000", "000" + leading digit, 16 digits
    groups = np.zeros((n, 6), np.intp)
    np.divmod(N, _E16, out=(groups[:, 1], N))
    groups[zero, 1] = 0
    hi, N = np.divmod(N, 10 ** 8)
    np.divmod(hi, 10000, out=(groups[:, 2], groups[:, 3]))
    np.divmod(N, 10000, out=(groups[:, 4], groups[:, 5]))
    del a, step, N, hi  # each temporary goes once used: they size a chunk's working set
    last = np.take(_LAST[0], groups[:, 2])
    for k in (1, 2, 3):
        np.maximum(last, np.take(_LAST[k], groups[:, 2 + k]), out=last)
    last[zero] = 0
    digits = np.empty(6 * n + 1, np.uint32)
    np.take(_DIGITS4, groups.ravel(), out=digits[:-1], mode="clip")
    del groups
    digits[-1] = _DIGITS4[0]
    digits = digits.view(np.uint8)
    # column c is digit byte c + 1 of the row (z shifted one column right)
    # or, left of the point, c + 2 (z unshifted): one flat bitwise selection
    shifted = digits[1:24 * n + 1]
    field = digits[2:24 * n + 2] ^ shifted
    field &= np.take(_INTEGER, x + 4, axis=0).ravel()
    field ^= shifted
    field = field.reshape(n, _FLOAT_WIDTH)
    field[:, 0] = 45 * np.signbit(v)
    field[np.arange(n), 6 + x] = 46
    np.bitwise_and(field, np.take(_KEEP, 17 * (x + 4) + last, axis=0), out=data)
    del digits, shifted, field
    _spelled(rows, strings, data)


def _int_width(v: np.ndarray) -> int:
    """Field width for the integer values ``v``: a "-" column and 4-digit
    groups enough for the largest |v|; 5 groups hold every 64-bit value."""
    m = max(int(v.max()), -int(v.min()))
    return 1 + 4 * (5 if m >= _E16 else -(-len(str(m)) // 4))


def _int_fill(v: np.ndarray, data: np.ndarray) -> None:
    """``%d`` fields of the integer (or bool) values ``v`` into a ``(len(v),
    _int_width(v))`` view: "-" or 0, then the digits with 0 for leading zeros."""
    n, width = data.shape
    slow = (v >= _E16) | (v <= -_E16) if v.dtype.itemsize == 8 else np.zeros(n, bool)
    rows = np.flatnonzero(slow)
    strings = ["%d" % s for s in v[rows].tolist()]
    a = np.abs(np.where(slow, 0, v).astype(np.int64))
    ngroups = (width - 1) // 4
    col = np.arange(4 * ngroups)
    mask = np.take(np.uint8(255) * (col >= 4 * ngroups - 1 - col[:, None]),
                   np.searchsorted(_INT_POW, a, side="right"), axis=0)
    groups = np.empty((n, ngroups), np.intp)
    for j in range(ngroups - 1, 0, -1):
        a, groups[:, j] = np.divmod(a, 10000)
    groups[:, 0] = a
    data[:, 0] = 45 * (v < 0)
    np.bitwise_and(np.take(_DIGITS4, groups).view(np.uint8).reshape(n, 4 * ngroups), mask,
                   out=data[:, 1:])
    _spelled(rows, strings, data)


def _compact(columns, n: int) -> str:
    """Text of ``n`` CSV rows of the 1-D arrays ``columns``, each value
    rendered as a ``%d`` field for integer and bool dtypes and as a
    ``%.17g`` field of float64 otherwise, with a comma after each field and
    a newline after the last.  All fields fill one ``(n, W)`` array; a zero
    byte in it marks a byte the text drops, since no byte of the text is 0.
    """
    widths = [_int_width(c) if c.dtype.kind in "iub" else _FLOAT_WIDTH for c in columns]
    data = np.empty((n, sum(widths) + len(widths)), np.uint8)
    start = 0
    for col, width in zip(columns, widths):
        (_int_fill if col.dtype.kind in "iub" else _float_fill)(col, data[:, start:start + width])
        data[:, start + width] = 44  # ","
        start += width + 1
    data[:, -1] = 10  # "\n"
    # a zero byte marks a dropped one; the nonzero bytes of a row run in a few
    # contiguous fields, where a boolean index beats np.compress' index array
    # (on a random mask it is 4-5x slower)
    data = data.ravel()
    return str(data[data != 0], "ascii")


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def csv_rows(columns) -> Iterator[str]:
    """The CSV lines of equal-length integer or float arrays ``columns``,
    one string per chunk of rows in row order, each line ending with a
    newline.

    With w the usable CPUs (at most ``_MAX_WORKERS``), a chunk holds
    ``ROWS // w`` rows.  One thread pool of w workers renders the chunks
    while the caller consumes them and lives as long as this stream: it
    runs at most ``2 * w`` chunks ahead of the caller, so ``ROWS`` rows
    render at once and at most ``2 * ROWS`` rows of text wait, however
    long the columns are.  The text does not depend on w.  One chunk, or
    one CPU, renders in the calling thread, starting no thread.  An
    exception in any chunk reaches the caller; once the stream ends, fails
    or is closed, no pool thread is left running.
    """
    n = len(columns[0]) if len(columns) else 0
    cpus = min(_cpus(), _MAX_WORKERS)
    size = ROWS // cpus

    def chunk(start: int) -> str:
        return _compact([col[start:start + size] for col in columns], min(size, n - start))

    starts = range(0, n, size)
    workers = min(cpus, len(starts))
    if workers <= 1:
        yield from map(chunk, starts)
        return
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(workers)
    try:
        ahead = deque()
        for start in starts:
            ahead.append(pool.submit(chunk, start))
            if len(ahead) > 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
