"""Exact CSV text of typed column blocks for the simulate, route and curve
writers: _format_columns gives, byte for byte, what "%d", "%.6f" and "%s"
%-formatting give, on whole numpy blocks.  A "%.6f" cell is |x| * 10**6
rounded half to even, exact as fl(|x| * 10**6) plus its rounding error
(Dekker's two-product), with the sign bit of x (-0.0 prints -0.000000).  A
block with a cell past 2**52 (|x| * 10**6 or |k|) or a non-finite cell is
%-formatted instead.  A cell is 4-byte words padded with spaces, one table
gather each, ending in ",": an integer cell is a "-" word if its column
holds a negative, then 3-digit groups, the last "%3d," or "%03d,"; a float
cell signed groups, ".ddd" and "ddd,"; a word cell its string and ",".  A
"\n" word ends a row, whose last "," becomes "\r"; the bytes without the
spaces are the text.  Writers cut rows into blocks of about BLOCK_CELLS.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

BLOCK_CELLS = 1 << 14

_SCALE = 1e6
_FIXED_LIMIT = 2.0 ** 52
_SPLIT = 2.0 ** 27 + 1.0


def _word_tables():
    """Word tables of k = 0..999, as uint32 arrays of 4 ASCII bytes:
    group[k] = " ddd" (a lower group), group[1000 + k] = "%4d" % k and
    group[2000 + k] = "%4s" % ("-%d" % k) (the top group, positive and
    negative); head is group with blank top words at k = 0; frac_hi[k] =
    ".ddd"; last[k] = "ddd," and last[1000 + k] = "%3d," (a last group)."""
    k = np.arange(1000)
    digits = 48 + np.stack([k // 100, k // 10 % 10, k % 10], axis=1)
    first = 3 - (k >= 10) - (k >= 100)
    words = np.full((6, 1000, 4), 32, dtype=np.uint8)
    words[[0, 3], :, 1:] = digits
    words[1:3, :, 1:] = np.where(np.arange(1, 4) >= first[:, None], digits, 32)
    words[2, k, first - 1] = 45
    words[3, :, 0] = 46
    words[4, :, :3] = digits
    words[5, :, :3] = words[1, :, 1:]
    words[4:, :, 3] = 44
    words = words.view(np.uint32)[..., 0]
    head = words[:3].copy()
    head[1:, 0] = _BLANK
    return words[:3].ravel(), head.ravel(), words[3], words[4:].ravel()


_BLANK, _MINUS, _LF = np.frombuffer(b"       -\n   ", dtype=np.uint32)
_GROUP, _HEAD, _FRAC_HI, _LAST = _word_tables()


@functools.cache
def _string_words(strings: tuple):
    """(strings x words) table of each string and "," right-aligned."""
    width = max(map(len, strings)) // 4 + 1
    text = "".join(f"{s},".rjust(4 * width) for s in strings)
    return np.frombuffer(text.encode("ascii"), dtype=np.uint32).reshape(-1, width)


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


def _put_groups(out, whole, neg, last=_GROUP):
    """Write the integer parts whole (nonnegative int64) with their signs
    neg into the group words out[..., 0..g-1], most significant first and
    the last from the table last; a cell's top group carries the sign."""
    g = out.shape[-1]
    sign = 1000 + 1000 * neg
    rest = whole
    for j in range(g - 1, 0, -1):
        high = rest // 1000
        index = rest - 1000 * high
        index += (high == 0) * sign
        out[..., j] = (last if j == g - 1 else _HEAD)[index]
        rest = high
    out[..., 0] = (last if g == 1 else _HEAD)[rest + sign]


def _typed(column):
    """(format, cells): "%s" and (strings, index), or "%d"/"%.6f" and 2-D cells."""
    if isinstance(column, tuple):
        return "%s", (column[0], np.asarray(column[1]))
    cells = np.asarray(column)
    return ("%d" if cells.dtype.kind in "iu" else "%.6f"), \
        cells if cells.ndim == 2 else cells[:, None]


def _words(f, cells):
    """(rows x words) block of a typed column, None for a cell past 2**52."""
    if f == "%s":
        return _string_words(tuple(cells[0]))[cells[1]]
    n, k = cells.shape
    a = np.abs(cells, dtype=float)
    with np.errstate(over="ignore"):
        scaled = a if f == "%d" else a * _SCALE
    if not (scaled < _FIXED_LIMIT).all():
        return None
    if f == "%d":
        lead, whole = int(cells.min(initial=0) < 0), np.abs(cells)
        out = np.empty((n, k, lead + _group_count(whole)), dtype=np.uint32)
        if lead:
            out[..., 0] = np.where(cells < 0, _MINUS, _BLANK)
        _put_groups(out[..., lead:], whole, False, _LAST)
        return out.reshape(n, k * out.shape[2])
    fixed = _round_fixed(a, scaled)
    whole = fixed // 1_000_000
    frac = fixed - 1_000_000 * whole
    out = np.empty((n, k, _group_count(whole) + 2), dtype=np.uint32)
    _put_groups(out[..., :-2], whole, np.signbit(cells))
    high = frac // 1000
    out[..., -2] = _FRAC_HI[high]
    out[..., -1] = _LAST[frac - 1000 * high]
    return out.reshape(n, k * out.shape[2])


def _format_columns(columns) -> str:
    """CSV text of a block of rows given column by column: an integer array
    is "%d", a float array "%.6f" (a 2-D array is that many columns of its
    type) and a (strings, index) pair "%s" of the strings picked by index;
    "," between cells and "\\r\\n" after every row."""
    typed = [_typed(c) for c in columns]
    blocks = [_words(f, cells) for f, cells in typed]
    if any(b is None for b in blocks):
        formats, cells = [], []
        for f, c in typed:
            formats += [f] * (1 if f == "%s" else c.shape[1])
            cells += [[c[0][i] for i in c[1].tolist()]] if f == "%s" else c.T.tolist()
        line = ",".join(formats) + "\r\n"
        return (line * len(cells[0])) % tuple(itertools.chain(*zip(*cells)))
    words = np.concatenate(blocks + [np.full((len(blocks[0]), 1), _LF)], axis=1)
    # every cell ends in "," as byte 3 of a word; the row's last becomes "\r"
    words.view(np.uint8)[:, 4 * words.shape[1] - 5] = ord("\r")
    return words.tobytes().translate(None, b" ").decode("ascii")
