"""Exact CSV text of float blocks for the simulate, route and curve writers.

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
Every cell is built from fixed 4-byte words padded with spaces, one table
gather per word: its 3-digit integer groups (the integer and the fraction
columns each take as many groups as their largest cell needs), then ".ddd"
and "ddd," for a "%.6f" cell or a "," word for a "%d" cell.  A word "\\n"
ends each row and the row's last separator becomes "\\r".  The block is one
uint32 array whose bytes, with the spaces deleted, are the text: a
formatted cell never holds a space.  Writers cut their rows into blocks of
about BLOCK_CELLS cells.
"""
from __future__ import annotations

import numpy as np

BLOCK_CELLS = 1 << 14

_SCALE = 1e6
_FIXED_LIMIT = 2.0 ** 52
_SPLIT = 2.0 ** 27 + 1.0


def _word_tables():
    """Word tables of k = 0..999, as uint32 arrays of 4 ASCII bytes:
    group[k] = " ddd" (a lower group), group[1000 + k] = "%4d" % k and
    group[2000 + k] = "%4s" % ("-%d" % k) (the top group, positive and
    negative); head is group with blank top words at k = 0 (no digits above
    the ones group); frac_hi[k] = ".ddd" and frac_lo[k] = "ddd,"."""
    k = np.arange(1000)
    digits = 48 + np.stack([k // 100, k // 10 % 10, k % 10], axis=1)
    first = 3 - (k >= 10) - (k >= 100)
    words = np.full((5, 1000, 4), 32, dtype=np.uint8)
    words[[0, 3], :, 1:] = digits
    words[1:3, :, 1:] = np.where(np.arange(1, 4) >= first[:, None], digits, 32)
    words[2, k, first - 1] = 45
    words[3, :, 0] = 46
    words[4, :, :3] = digits
    words[4, :, 3] = 44
    words = words.view(np.uint32)[..., 0]
    head = words[:3].copy()
    head[1:, 0] = _BLANK
    return words[:3].ravel(), head.ravel(), words[3], words[4]


_BLANK, _COMMA, _LF = np.frombuffer(b"    ,   \n   ", dtype=np.uint32)
_GROUP, _HEAD, _FRAC_HI, _FRAC_LO = _word_tables()


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


def _group_count(whole):
    """3-digit groups of the largest nonnegative int64 in whole, at least 1."""
    return (len(str(whole.max(initial=0))) + 2) // 3


def _put_groups(out, whole, neg):
    """Write the integer parts whole (nonnegative int64) with their signs
    neg into the group words out[..., 0..g-1], most significant first; the
    top group of each cell carries the sign and the words above it are
    blank."""
    g = out.shape[-1]
    sign = 1000 + 1000 * neg
    rest = whole
    for j in range(g - 1, 0, -1):
        high = rest // 1000
        index = rest - 1000 * high
        index += (high == 0) * sign
        out[..., j] = (_GROUP if j == g - 1 else _HEAD)[index]
        rest = high
    out[..., 0] = (_GROUP if g == 1 else _HEAD)[rest + sign]


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
    fixed = _round_fixed(a[:, int_cols:], scaled[:, int_cols:])
    whole = fixed // 1_000_000
    frac = fixed - 1_000_000 * whole
    ints = a[:, :int_cols].astype(np.int64)
    # groups, then a "," word per "%d" cell and ".ddd", "ddd," per "%.6f" cell
    int_groups, float_groups = _group_count(ints), _group_count(whole)
    split = int_cols * (int_groups + 1)
    width = split + (cols - int_cols) * (float_groups + 2) + 1
    words = np.empty((n, width), dtype=np.uint32)
    int_words = words[:, :split].reshape(n, int_cols, int_groups + 1)
    float_words = words[:, split:-1].reshape(n, cols - int_cols, float_groups + 2)
    _put_groups(int_words[..., :-1], ints, rows[:, :int_cols] <= -1.0)
    int_words[..., -1] = _COMMA
    _put_groups(float_words[..., :-2], whole, np.signbit(rows[:, int_cols:]))
    high = frac // 1000
    float_words[..., -2] = _FRAC_HI[high]
    float_words[..., -1] = _FRAC_LO[frac - 1000 * high]
    words[:, -1] = _LF
    # the row's last separator: byte 3 of "ddd," or byte 0 of ","
    words.view(np.uint8)[:, 4 * width - (5 if int_cols < cols else 8)] = ord("\r")
    return words.tobytes().translate(None, b" ").decode("ascii")
