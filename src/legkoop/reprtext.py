"""CSV rows of float64 values, each written as its `repr`, a chunk at a time.

`repr(x)` of a float is the shortest decimal that reads back as x (of
several that short, the closest), written positionally when its decimal
exponent lies in -4..16 and in scientific notation otherwise.  CPython
finds those digits one value at a time with David Gay's dtoa, at 0.65 to
1.15 us a value.  `repr_rows` finds the same digits for a whole block in
numpy, by the method of Ryu (U. Adams, "Ryu: fast float-to-string
conversion", PLDI 2018), and writes the same bytes.

For x = M 2^E, M the 53-bit significand, the decimals that read back as x
lie strictly between x - 2^(E-1) and x + 2^(E-1) when M is not a power of
two and neither bound is a short decimal.  Scaled by 10^k, with k the
smallest that makes that interval at least 10 wide, x and its bounds become

    floor(2M 5^k / 2^s)   and   floor((2M -+ 1) 5^k / 2^s),   s = 1 - E - k,

integers below 2^61.  The product 2M 5^k takes up to 103 bits: its low
word is the wrapped uint64 product, and its high word is the float product
x 5^k 2^(1-E-64) less the low word's share, which lies within 2^-13 of
that integer and so rounds to it exactly.  Dropping the last digit while
the interval still holds a multiple of 10 leaves the shortest digits;
rounding the dropped digits to nearest (ties cannot occur unless x 10^k
is an integer) picks the closest, or the next one up where the closest
is the lower bound.

Each value's text is laid out right-aligned in a slot of 24 bytes, its
separator last; the slots are copied into the output last to first, each
where the text before it ends, and the texts before it overwrite what lies
in front of it.  A value the method does not cover is written into its
slot by the `%` line, right-aligned: zeros, subnormals, inf and nan; |x| <
1e-4, which `repr` writes in scientific notation, or |x| >= 2^51; powers
of two, whose lower neighbour is nearer; values where x 10^k is an
integer, where a tie or a bound could be the answer; and the few that
would drop more than four digits.  Small blocks and blocks holding a repr
too long for its slot go through the `%` line whole.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace
from typing import BinaryIO

import numpy as np

__all__ = ["RowWriter", "repr_rows"]

# Blocks of fewer values are written by the `%` line.  With the caches
# evicted, the vectorized path costs about 0.25 ms a block plus 0.10 us a
# value and the `%` line 1.1-1.2 us a value: they break even near 240 values
# (medians of 200 calls per size from 700 to 6144 values of the long Duffing
# run; 2-vCPU VM, numpy 2.4).  But the first vectorized block in a process
# builds the tables (0.7 ms), which lifts solve-4d-quadratic's peak RSS (one
# block of 500) by 0.13 MiB.
_MIN_VALUES = 700
# Values per `repr_rows` call of a `RowWriter`.  Against the 3072 of one
# 1024-row block of the long Duffing run's three columns, 6144 take 0.81 of
# the formatter's time (4096: 0.90, 8192: 0.75).  A call's temporaries, some
# 57 bytes a value, add to the solve's peak: in fresh processes its RSS rose
# by about 0.1 MiB at 4096 and 5120 values and 0.2 MiB at 6144.
_CHUNK_VALUES = 6144
# Bytes per value: the longest fast text, "-0.00012345678901234567", and ",".
_SLOT = 24
# Most digits the fast path drops from floor(x 10^k).
_MAX_DROPS = 4
_U = np.uint64
_LOWEST_EXPONENT = 1009  # biased exponent of 2^-14, the binade of 1e-4
_HIGHEST_EXPONENT = 1073  # biased exponent of 2^50, the binade below 2^51


class RowWriter:
    """Writes CSV rows of float64 values, each as its `repr`, to a binary
    stream, about `_CHUNK_VALUES` values to a `repr_rows` call.

    `write` takes a block of rows as 2-D arrays side by side, `cols` columns
    in all, and copies them into the next chunk: blocks of narrow rows are
    merged and blocks of wide rows split, so the per-call cost is spread over
    as many values however wide the rows, and the formatter never holds more
    than a chunk.  `flush` writes the rows taken since the last chunk; call
    it after the last block.
    """

    def __init__(self, out: BinaryIO, cols: int):
        self._out = out
        self._chunk = np.empty((max(_CHUNK_VALUES // cols, 1), cols))
        self._filled = 0

    def write(self, *parts: np.ndarray) -> None:
        taken, rows = 0, len(parts[0])
        while taken < rows:
            start = self._filled
            self._filled = min(start + rows - taken, len(self._chunk))
            col, stop = 0, taken + self._filled - start
            for part in parts:
                self._chunk[start : self._filled, col : col + part.shape[1]] = part[taken:stop]
                col += part.shape[1]
            taken = stop
            if self._filled == len(self._chunk):
                self.flush()

    def flush(self) -> None:
        if self._filled:
            self._out.write(repr_rows(self._chunk[: self._filled]))
            self._filled = 0


def repr_rows(table: np.ndarray) -> memoryview:
    """The CSV lines of a 2-D float64 array, each value as its `repr`, as a
    view of their ASCII bytes (no copy is made to return them).

    Exactly ``((",".join(["%r"] * cols) + "\\n") * rows % tuple(table.ravel().tolist())).encode()``.
    """
    rows, cols = table.shape
    values = np.ascontiguousarray(table, dtype=np.float64).ravel()
    # The slots are read as bytes in little-endian word order.
    if values.size < _MIN_VALUES or sys.byteorder != "little":
        return _percent_rows(values, rows, cols)
    (slots, length), fallback = _fast_slots(values, cols)
    if fallback.size:
        # Each left-over value's repr, right-aligned in its slot; a negative
        # one with 17 digits and a 3-digit exponent takes 24 bytes, too many.
        text = ("%24r" * fallback.size) % tuple(values[fallback].tolist())
        if text[::_SLOT].strip():
            return _percent_rows(values, rows, cols)
        length[fallback] = [len(r) + 1 for r in text.split()]
        text = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _SLOT)
        slots[fallback, :-1] = text[:, 1:]
    # Slot i goes to bytes end[i] .. end[i] + 23 of `out`, its text right after
    # that of slot i - 1, which is written later: numpy assigns in index order.
    end = np.cumsum(length, out=length)
    out = np.empty(end[-1] + _SLOT, np.uint8)
    at = np.ndarray((end[-1] + 1,), f"V{_SLOT}", out, strides=(1,))
    at[end[::-1]] = slots.view(f"V{_SLOT}").ravel()[::-1]
    del slots, end, length, at
    return memoryview(out)[_SLOT:]


def _percent_rows(values: np.ndarray, rows: int, cols: int) -> memoryview:
    line = ",".join(["%r"] * cols) + "\n"
    return memoryview((line * rows % tuple(values.tolist())).encode("ascii"))


@functools.cache
def _tables() -> SimpleNamespace:
    """Lookup tables, built on first use so that importing stays cheap."""
    # Per binade j = biased exponent - _LOWEST_EXPONENT, x = M 2^E.  The
    # arithmetic is in float64, where all of it is exact.
    E = np.arange(_LOWEST_EXPONENT - 1075.0, _HIGHEST_EXPONENT - 1074.0)
    # k: the smallest with 0.75 * 2^E * 10^k >= 10, so that the interval
    # (a power of two's is 0.75 * 2^E wide) holds a multiple of 10.
    k = np.argmax(0.75 * 2.0 ** E[:, None] * 10.0 ** np.arange(25) >= 10.0, axis=1)
    shift = (1 - E - k).astype(_U)  # 1..47
    pow5 = (5.0**k).astype(_U)  # k <= 21
    # Integer digits of x in binade j (1 below 10): those of its lowest
    # value, one more from the power of ten inside the binade, if any.
    lowest = 2.0 ** (E + 52)
    tens = 10.0 ** np.arange(1, 17)
    int_digits = np.argmax(tens > lowest[:, None], axis=1)
    next_ten = tens.take(int_digits)
    # Per row 4j + (digits dropped) - 1: f digits after the point.
    f = k[:, None] - np.arange(1, _MAX_DROPS + 1)
    # Per pattern row (h digits shown, f, negative), what to subtract from a
    # slot's digits: '0' - '-' in front of a negative value's first digit,
    # '0' - '.' at the point.  With its separator the text takes h + 2 bytes,
    # one more with a sign.
    pattern = np.zeros((22, 21, 2, _SLOT), np.uint8)
    h, after = np.arange(22), np.arange(21)
    pattern[h, :, 1, 21 - h] = ord("0") - ord("-")
    pattern[:, after, :, 22 - after] = ord("0") - ord(".")
    # "0000".."9999", each as 4 bytes of ASCII.
    digit = np.arange(48, 58, dtype=np.uint8)
    groups = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        groups[..., place] = digit[(slice(None),) + (None,) * (3 - place)]
    groups = groups.view(np.uint32).ravel()
    # "000,".."999,", and "0000" with "0000".."0999" as one 8-byte word.
    last = groups[::10].copy().view(np.uint8).reshape(-1, 4)
    last[:, 3] = ord(",")
    top = np.empty((1000, 2), np.uint32)
    top[:, 0], top[:, 1] = groups[0], groups[:1000]
    return SimpleNamespace(
        shift=shift,
        left=_U(64) - shift,
        mask_pow5=(_U(1) << shift) - _U(1) + pow5,
        pow5=pow5,
        # x 5^k 2^(1-E-64): the high word of 2M 5^k, plus a fraction.
        high=pow5.astype(np.float64) * 2.0 ** (1 - E - 64),
        next_ten=np.where(next_ten < 2.0 * lowest, next_ten, np.inf),
        unit=np.array([10**d for d in range(1, _MAX_DROPS + 1)] * E.size),
        # 9 10^f; a value with f > 18 digits after the point is below 1.
        nines=np.array([9 * 10**i if 0 <= i <= 18 else 0 for i in f.ravel().tolist()]),
        # The pattern row of a positive value below the power of ten.
        shown=(42 * (int_digits[:, None] + 1 + f) + 2 * f).ravel(),
        groups=groups,
        last=last.view(np.uint32).ravel(),
        top=top.view(_U).ravel(),
        pattern=pattern.reshape(-1, _SLOT).view(_U).copy(),
        length=(h[:, None, None] + 0 * after[:, None] + np.arange(2, 4)).ravel(),
    )


def _fast_slots(values: np.ndarray, cols: int):
    """Each value's text right-aligned in a 24-byte row, its separator last,
    with the length of both; and the rows left over, which hold anything:
    those outside 1e-4 <= |x| < 2^51 and those whose digits are not found.

    The steps work in place and drop what they no longer need, so that only
    a few arrays of the block's size are alive at once.  They keep to a few
    numpy loops, as each new one maps more of numpy's code into memory: no
    unsigned division or comparison, no integer and/or, no bool arithmetic
    (sign bits stand in), no masked ufuncs.
    """
    T = _tables()
    ax = np.abs(values)
    fast = ax >= 1e-4
    fast &= ax < 2.0**51
    np.fmin(ax, 2.0**51, out=ax)  # keeps the others' arithmetic in range
    digits, row = _shortest_digits(ax, fast)
    # digits / 10^f with a 0 put in for the point: the integer part times
    # 10^(f+1) plus the fraction, below 10^18.
    pointed = ax.astype(np.int64)
    pointed *= T.nines.take(row, mode="clip")
    pointed += digits
    del digits
    # Sign bits as 0 or -1: past the power of ten, and of a negative value.
    past = T.next_ten.take(row >> 2, mode="clip")  # row >> 2 is the binade
    past -= ax
    del ax
    past = past.view(np.int64)
    past >>= 63
    past *= 42
    row = T.shown.take(row, mode="clip")
    row -= past
    del past
    row -= values.view(np.int64) >> 63

    # Groups of four bytes: "0000", the digits of 10^18..10^15, of 10^14..10^3
    # in three groups, then those of 10^2..10^0 and the separator.
    slots = np.empty((values.size, 6), np.uint32)
    words = slots.view(_U)
    rest = pointed // 1000
    pointed -= rest * 1000
    slots[:, 5] = T.last.take(pointed, mode="clip")
    del pointed
    for i in (4, 3, 2):
        group = rest
        rest = group // 10**4
        group -= rest * 10**4
        slots[:, i] = T.groups.take(group, mode="clip")
        del group
    words[:, 0] = T.top.take(rest, mode="clip")
    del rest
    words -= T.pattern.take(row, axis=0, mode="clip")
    slots = slots.view(np.uint8)
    slots.reshape(-1, cols, _SLOT)[:, -1, -1] = ord("\n")
    return (slots, T.length.take(row, mode="clip")), np.flatnonzero(~fast)


def _shortest_digits(ax: np.ndarray, fast: np.ndarray):
    """The shortest digits of each |x| in `ax` and the table row 4j +
    (digits dropped) - 1, j the binade of x; clears `fast` where the digits
    are not found.  The 128-bit product is taken in uint64; from floor(x
    10^k) on, every value is below 2^62 and the arithmetic is int64.
    """
    T = _tables()
    row = ax.view(np.int64) >> 52
    row -= _LOWEST_EXPONENT  # the binade j: ax >= 0
    low = ax.view(_U) << _U(12)
    low >>= _U(11)  # 2M - 2^53
    fast &= low.view(np.int64) > 0  # M is not a power of two
    low += _U(1 << 53)
    low *= T.pow5.take(row, mode="clip")  # wraps: the low word of 2M 5^k
    # The low word's share from its top 53 bits, in a signed conversion.
    high = T.high.take(row, mode="clip")
    high *= ax
    share = (low >> _U(11)).view(np.int64).astype(np.float64)
    share *= 2.0**-53
    high -= share
    del share
    high = np.rint(high, out=high).astype(np.int64).view(_U)
    # floor(2M 5^k / 2^s), the upper bound and how far below it the lower.
    shift = T.shift.take(row, mode="clip")
    high <<= T.left.take(row, mode="clip")
    kept = low >> shift
    high += kept
    kept <<= shift
    below = low
    below -= kept  # the bits shifted out
    del kept
    fast &= below.view(np.int64) > 0  # x 10^k is not an integer
    scaled = high.view(np.int64)
    gap = T.mask_pow5.take(row, mode="clip")
    gap -= below
    gap >>= shift
    upper = T.pow5.take(row, mode="clip")
    upper += below  # 5^k plus the bits shifted out
    del low, below
    upper >>= shift
    del shift
    upper = upper.view(np.int64)
    upper += scaled
    gap = gap.view(np.int64)
    lower = scaled - gap

    # Drop digits while the interval holds a multiple of the next power of
    # ten: the largest one up to `upper` lies above `lower`.
    row *= _MAX_DROPS
    top = np.empty_like(upper)
    for d in range(2, _MAX_DROPS + 2):
        np.floor_divide(upper, 10**d, out=top)
        top *= 10**d
        np.subtract(lower, top, out=top)  # negative where it lies above
        if d <= _MAX_DROPS:
            row -= np.right_shift(top, 63, out=top)
    fast &= top >= 0
    del upper, lower, top
    # Round the dropped digits to nearest, or up where down would reach the
    # lower bound (not read back as x): up where dropped >= min(gap, unit/2).
    unit = T.unit.take(row, mode="clip")
    digits = scaled // unit
    dropped = scaled
    dropped -= digits * unit
    unit >>= 1
    np.minimum(gap, unit, out=gap)
    del unit
    gap -= dropped
    gap -= 1
    digits -= np.right_shift(gap, 63, out=gap)
    return digits, row
