"""Exact CSV text for float blocks, shared by the simulate and route writers.

_format_rows gives, byte for byte, what "%d" and "%.6f" %-formatting give,
but works on whole numpy blocks.  A "%.6f" cell is N = |x| * 10**6 rounded
half to even, with the integer and six fraction digits of N and the sign bit
of x (so -0.0 and tiny negatives print -0.000000).  The product is exact as
fl(|x| * 10**6) plus its rounding error (Dekker's two-product; 10**6 is
exact in binary), and the error only matters where the rounded product sits
exactly on a half: everywhere else rint of the rounded product is the
answer.  A "%d" cell is the integer part of x, truncated toward zero.

The argument needs |x| * 10**6 below 2**52; a block holding a cell at or
past that bound, or a non-finite cell, is %-formatted as a whole instead.
Digits go from int64 arrays, two at a time through a 100-entry table, into
one uint8 buffer per block.  Writers cut their rows into blocks of about
BLOCK_CELLS cells.
"""
from __future__ import annotations

import numpy as np

BLOCK_CELLS = 1 << 14

_SCALE = 1e6
_FIXED_LIMIT = 2.0 ** 52
_SPLIT = 2.0 ** 27 + 1.0
# _TENS[k] and _ONES[k] are the two ASCII digits of k = 0..99.
_TENS, _ONES = np.frombuffer("".join(f"{k:02d}" for k in range(100)).encode(),
                             dtype=np.uint8).reshape(100, 2).T.copy()
_DOT, _COMMA, _MINUS, _CR, _LF = b".,-\r\n"


def _percent_rows(rows, int_cols: int) -> str:
    cols = rows.shape[1]
    line = ",".join(["%d"] * int_cols + ["%.6f"] * (cols - int_cols)) + "\r\n"
    return (line * rows.shape[0]) % tuple(rows.ravel().tolist())


def _round_fixed(a, p):
    """round-half-even(a * 10**6) of nonnegative a, as int64, where p =
    fl(a * 10**6) < 2**52.  p - rint(p) is a multiple of ulp(p) <= 1/2 and
    the rounding error of p at most half an ulp, so rint(p) is exact unless
    p lies on a half; there the sign of the error decides."""
    r = np.rint(p)
    tie = np.abs(p - r) == 0.5
    if tie.any():
        a_t, p_t = a[tie], p[tie]
        hi = a_t * _SPLIT
        hi -= hi - a_t
        err = (hi * _SCALE - p_t) + (a_t - hi) * _SCALE
        r[tie] = np.where(err == 0.0, r[tie], p_t + np.copysign(0.5, err))
    return r.astype(np.int64)


def _digit_counts(whole):
    """Decimal digits of each nonnegative int64, at least 1."""
    digits = (whole >= 10) + 1
    more, bound = np.flatnonzero(whole >= 100), 100
    while more.size:
        digits[more] += 1
        bound *= 10
        more = more[whole[more] >= bound]
    return digits


def _format_rows(rows, int_cols: int) -> str:
    """CSV text of a (rows x cols) float block: "%d" in the first int_cols
    columns, "%.6f" in the others, "," between cells and "\\r\\n" after every
    row."""
    rows = np.asarray(rows, dtype=float)
    a = np.abs(rows)
    with np.errstate(over="ignore"):
        scaled = a * _SCALE
    if not rows.size or not (scaled < _FIXED_LIMIT).all():
        return _percent_rows(rows, int_cols)
    n, cols = rows.shape
    whole = np.empty((n, cols), dtype=np.int64)
    whole[:, :int_cols] = a[:, :int_cols]
    fixed = _round_fixed(a[:, int_cols:], scaled[:, int_cols:])
    np.floor_divide(fixed, 1_000_000, out=whole[:, int_cols:])
    frac = (fixed - 1_000_000 * whole[:, int_cols:]).ravel()
    neg = np.signbit(rows)
    neg[:, :int_cols] = rows[:, :int_cols] <= -1.0
    whole = whole.ravel()
    digits = _digit_counts(whole)
    # bytes after the integer digits: ".dddddd" in "%.6f" cells, then the
    # separator
    tail = np.ones(cols, dtype=np.int64)
    tail[int_cols:] += 7
    tail[-1] += 1
    width = digits + neg.ravel()
    width.reshape(n, cols)[:] += tail
    # buf[0] is spare; last[i] is the index of cell i's final byte and
    # stop[i] that of the byte after its integer digits
    last = np.cumsum(width)
    buf = np.empty(int(last[-1]) + 1, dtype=np.uint8)
    stop = (last.reshape(n, cols) - (tail - 1)).ravel()
    # Integer digits, two at a time from the right.  An odd count writes a
    # spare '0' one byte before the digits: on the sign, on the previous
    # cell's separator or on buf[0], all written later.
    pos, rest, left = stop - 2, whole, digits
    while True:
        high = rest // 100
        pair = rest - 100 * high
        buf[pos] = _TENS[pair]
        buf[1:][pos] = _ONES[pair]
        more = np.flatnonzero(left > 2)
        if not more.size:
            break
        pos, rest, left = pos[more] - 2, high[more], left[more] - 2
    # '-' goes before every cell's digits; where the cell is not negative
    # that byte is the previous cell's separator, written after it
    buf[stop - digits - 1] = _MINUS
    dot = stop.reshape(n, cols)[:, int_cols:].ravel()
    buf[dot] = _DOT
    high = frac // 10_000
    frac -= 10_000 * high
    mid = frac // 100
    for k, pair in enumerate((high, mid, frac - 100 * mid)):
        buf[1 + 2 * k:][dot] = _TENS[pair]
        buf[2 + 2 * k:][dot] = _ONES[pair]
    last = last.reshape(n, cols)
    buf[last[:, :-1]] = _COMMA
    buf[last[:, -1] - 1] = _CR
    buf[last[:, -1]] = _LF
    return buf[1:].tobytes().decode("ascii")
