"""CSV rows of a table of doubles, each cell the bytes "%.17g," gives.

Only the sweep command imports this module. It writes a cell with
1e-4 <= |x| < 1e15 by exact integer arithmetic on arrays:

- With |x| = m 2**e (m < 2**53) and k the decade of |x| rounded to 17
  digits, the 17 digits are D = round-half-even(m 5**p 2**(e + p)) for
  p = 16 - k. The product m 5**p is formed from 32-bit limbs in two uint64
  words. It stays below 2**100 for p <= 20, and the shift right by
  s = -(e + p) lies in [1, 46].
- k comes from log10 and is corrected where D falls outside
  [10**16, 10**17); that also takes the carry of a rounding up to the next
  power of ten.
- "%.17g" of such x is fixed notation with 16 - k digits after the point,
  trailing zeros (and then the point) stripped. A cell is 32 bytes, four
  uint64 words: the digits come four at a time from a table, and the rest
  of the layout (the '-', the leading "0.000", where the point goes and
  where the text ends) from tables by decade, built once at import.

Every other cell goes through Python's "%.17g" one at a time: zero, inf,
nan, and |x| below 1e-4 or from 1e15 on. The value alone decides which
way a cell goes.
"""

from bisect import bisect_left

import numpy as np

# Cells per block. Each block's temporaries, about 250 bytes a cell, stay
# within about 0.5 MB whatever the size of the table, and small arrays
# spare numpy's allocations the page faults of large ones.
BLOCK_CELLS = 2048
WIDTH = 32  # bytes of a cell's slot: 25 at most from its '-' to its '\n'

_U = np.uint64
_POW5 = np.array([5**p for p in range(21)], dtype=_U)
# The four ASCII digits of 0..9999 as a little-endian word, the first lowest.
_QUAD = sum(
    (np.arange(10000, dtype=_U) // _U(10**(3 - j)) % _U(10) + _U(ord("0"))) << _U(8 * j)
    for j in range(4)
)
# The trailing zero digits of 0..9999 written with four digits.
_TRAILING = sum(np.arange(10000) % 10**j == 0 for j in range(1, 5))


# A cell is 32 bytes, four little-endian uint64 words. Its 17 digits start
# at byte 7; for k >= 0 the point goes at byte 8 + k and the digits after it
# one byte up. Bytes 0-6 are its head: '-' at byte 6, or for k < 0 "-0." and
# -k - 1 zeros ending there. Entry k + 4 of each table is for decade k.
_DECADES = range(-4, 16)
_HEADS = ["-0." + "0" * (-k - 1) if k < 0 else "-" for k in _DECADES]
_HEAD = np.array([int.from_bytes(h.rjust(7, "\0").encode(), "little") for h in _HEADS],
                 dtype=_U)
_START = np.array([8 - len(h) for h in _HEADS])  # the byte after the '-'
_POINT = np.array([[8 + k if k >= 0 else WIDTH] for k in _DECADES])  # WIDTH: no point
# By word (row) and decade (column): the bytes before the point, the point,
# and the bytes after it.
_BEFORE, _DOT, _AFTER = (
    np.ascontiguousarray(np.where(mask, byte, 0).astype(np.uint8).view(_U).T)
    for mask, byte in ((np.arange(WIDTH) < _POINT, 0xFF),
                       (np.arange(WIDTH) == _POINT, ord(".")),
                       (np.arange(WIDTH) > _POINT, 0xFF))
)
# The byte after a cell's text, at 17 (k + 4) + its digits' trailing zeros.
# Only zeros after the point are dropped; the last digit left is at byte
# 7 + last, one more where it follows the point.
_END = np.array([8 + last + (0 <= k < last)
                 for k in _DECADES
                 for last in (16 - min(zeros, 16 - k) for zeros in range(17))])
# The bytes of a cell's slot to keep, at start * (WIDTH + 1) + end.
_KEEP = ((np.arange(WIDTH) >= np.arange(8)[:, None, None])
         & (np.arange(WIDTH) < np.arange(WIDTH + 1)[:, None])).reshape(-1, WIDTH)


def _digits(m, e, k):
    """round-half-even(m 5**p 2**(e + p)) for p = 16 - k, exactly, as uint64.

    m 5**p is lo + 2**64 hi, from four products of 32-bit limbs."""
    five = _POW5[16 - k]
    m_lo, m_hi = m & _U(0xFFFFFFFF), m >> _U(32)
    f_lo, f_hi = five & _U(0xFFFFFFFF), five >> _U(32)
    ll = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo
    lo = ll + (mid << _U(32))
    hi = m_hi * f_hi + (mid >> _U(32)) + (lo < ll)
    s = (k - e - 16).astype(_U)
    d = (lo >> s) | (hi << (_U(64) - s))
    rem = lo & ((_U(1) << s) - _U(1))
    half = _U(1) << (s - _U(1))
    return d + ((rem > half) | ((rem == half) & (d & _U(1)).astype(bool)))


def _cells(ax):
    """(words, start, end) of cells of magnitude ax, 1e-4 <= ax < 1e15: four
    uint64 words a cell, whose text runs from byte start to byte end with a
    '-' just before it."""
    bits = ax.view(_U)
    m = (bits & _U(2**52 - 1)) | _U(2**52)
    e = (bits >> _U(52)).view(np.int64) - 1075
    k = np.floor(np.log10(ax)).astype(np.int64).clip(-4, 14)
    d = _digits(m, e, k)
    off = (d < _U(10**16)) | (d >= _U(10**17))
    while off.any():
        k[off] += np.where(d[off] < _U(10**16), -1, 1)
        d[off] = _digits(m[off], e[off], k[off])
        off = (d < _U(10**16)) | (d >= _U(10**17))
    lead = d // _U(10**16)
    rest = d - lead * _U(10**16)
    high = rest // _U(10**8)
    low = rest - high * _U(10**8)
    g1 = high // _U(10**4)
    g3 = low // _U(10**4)
    # int64 indices: numpy casts uint64 ones before it gathers.
    g1, g2, g3, g4 = (g.view(np.int64) for g in
                      (g1, high - g1 * _U(10**4), g3, low - g3 * _U(10**4)))
    lead += _U(ord("0"))
    w1 = _QUAD[g1] | (_QUAD[g2] << _U(32))
    w2 = _QUAD[g3] | (_QUAD[g4] << _U(32))
    row = k + 4
    words = np.empty((len(ax), 4), dtype=_U)
    words[:, 0] = _HEAD.take(row) | (lead << _U(56))
    words[:, 1] = ((w1 & _BEFORE[1].take(row)) | _DOT[1].take(row)
                   | (((w1 << _U(8)) | lead) & _AFTER[1].take(row)))
    words[:, 2] = ((w2 & _BEFORE[2].take(row)) | _DOT[2].take(row)
                   | (((w2 << _U(8)) | (w1 >> _U(56))) & _AFTER[2].take(row)))
    words[:, 3] = (w2 >> _U(56)) & _AFTER[3].take(row)
    trailing = _TRAILING[g4]
    for groups, g in enumerate((g3, g2, g1), start=1):
        zeros = np.flatnonzero(trailing == 4 * groups)  # the later groups all 0
        if not len(zeros):
            break
        trailing[zeros] += _TRAILING[g[zeros]]
    return words, _START.take(row), _END.take(17 * row + trailing)


def _block(values) -> str:
    """The rows of values, each cell "%.17g," and each row ended by '\\n'."""
    ncols = values.shape[1]
    x = values.ravel()
    ax = np.abs(x)
    other = np.flatnonzero(~((ax >= 1e-4) & (ax < 1e15)))
    ax[other] = 1.0
    words, start, end = _cells(ax)
    start -= x < 0.0
    text = words.view(np.uint8)
    for i in other:
        cell = b"%.17g" % x[i]
        text[i, :len(cell)] = np.frombuffer(cell, dtype=np.uint8)
        start[i], end[i] = 0, len(cell)
    flat = text.reshape(-1)
    flat[np.arange(0, flat.size, WIDTH) + end] = ord(",")
    end += 1
    flat[np.arange(ncols - 1, len(x), ncols) * WIDTH + end[ncols - 1::ncols]] = ord("\n")
    end[ncols - 1::ncols] += 1
    return text[_KEEP.take(start * (WIDTH + 1) + end, axis=0)].tobytes().decode("ascii")


def rows_text(values, lines) -> str:
    """Each row i of values as its cells "%.17g," and a newline, or lines[i]
    in place of the row where lines has it."""
    rows, ncols = values.shape
    step = max(1, BLOCK_CELLS // ncols)
    others = sorted(lines)
    pieces = []
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        here = others[bisect_left(others, lo):bisect_left(others, hi)]
        if not here:
            pieces.append(_block(values[lo:hi]))
            continue
        keep = np.ones(hi - lo, dtype=bool)
        keep[np.array(here) - lo] = False
        written = iter(_block(values[lo:hi][keep]).splitlines(keepends=True))
        pieces += [lines[i] if i in lines else next(written) for i in range(lo, hi)]
    return "".join(pieces)
