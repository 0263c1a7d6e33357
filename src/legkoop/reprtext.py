"""CSV rows of float64 values, each written as its `repr`, a block at a time.

`repr(x)` of a float is the shortest decimal that reads back as x (of
several that short, the closest), written positionally when its decimal
exponent lies in -4..16 and in scientific notation otherwise.  CPython
finds those digits one value at a time with David Gay's dtoa, at about
0.8 us a value.  `repr_rows` finds the same digits for a whole block in
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
separator last, with spaces in front; deleting the spaces leaves the rows.
A value the method does not cover is written into its slot by the `%`
line, as "%23r": zeros, subnormals, inf and nan; |x| < 1e-4, which `repr`
writes in scientific notation, or |x| >= 2^51; powers of two, whose lower
neighbour is nearer; values where x 10^k is an integer, where a tie or a
bound could be the answer; and the few that would drop more than four
digits.  Small blocks and blocks holding a repr too long for its slot go
through the `%` line whole.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace

import numpy as np

__all__ = ["repr_rows"]

# Blocks of fewer values are written by the `%` line.  With the caches
# cold, as between the blocks of a solve, the vectorized path costs about
# 0.6 ms a block plus 0.1 us a value and the `%` line about 1 us a value:
# they break even near 600 values (2-vCPU VM).
_MIN_VALUES = 700
# Bytes per value: "-0.00012345678901234567" (the longest text the fast
# path writes) and a separator.
_SLOT = 24
# Most digits the fast path drops from floor(x 10^k).
_MAX_DROPS = 4
_U = np.uint64
_LOWEST_EXPONENT = 1009  # biased exponent of 2^-14, the binade of 1e-4
_HIGHEST_EXPONENT = 1073  # biased exponent of 2^50, the binade below 2^51


def repr_rows(table: np.ndarray) -> str:
    """The CSV lines of a 2-D float64 array, each value as its `repr`.

    Exactly ``(",".join(["%r"] * cols) + "\\n") * rows % tuple(table.ravel().tolist())``.
    """
    rows, cols = table.shape
    values = np.ascontiguousarray(table, dtype=np.float64).ravel()
    # The slots are read as bytes in little-endian word order.
    if values.size < _MIN_VALUES or sys.byteorder != "little":
        return _percent_rows(values, rows, cols)
    ax = np.abs(values)
    fast = (ax >= 1e-4) & (ax < 2.0**51)
    slots, fallback = _fast_slots(values, ax, fast, cols)
    if fallback.size:
        # Each left-over value's repr, right-aligned in its slot.  Only a
        # negative value with 17 digits and a 3-digit exponent takes 24
        # characters, which do not fit.
        text = ("%23r" * fallback.size) % tuple(values[fallback].tolist())
        if len(text) != 23 * fallback.size:
            return _percent_rows(values, rows, cols)
        slots[fallback, :-1] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 23)
    text = slots.tobytes()
    del slots
    return text.translate(None, b" ").decode("ascii")


def _percent_rows(values: np.ndarray, rows: int, cols: int) -> str:
    line = ",".join(["%r"] * cols) + "\n"
    return line * rows % tuple(values.tolist())


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
    # To subtract from the six groups of a slot (digits of 10^22..10^0 and a
    # '0' in the separator's byte): per (negative, first shown byte),
    # '0' - ' ' before the first shown byte and '0' - '-' just before it
    # for a negative value; per digits after the point, '0' - '.' at the
    # point.  Built in uint8, with no arithmetic.
    byte = np.arange(_SLOT)
    first = byte[:, None]
    zero, space = np.uint8(0), np.uint8(48 - ord(" "))
    lead = np.empty((2, _SLOT, _SLOT), np.uint8)
    lead[0] = np.where(byte < first, space, zero)
    minus = np.where(byte == first - 1, np.uint8(48 - ord("-")), zero)
    lead[1] = np.where(byte < first - 1, space, minus)
    point = np.where(byte == 22 - np.arange(21)[:, None], np.uint8(48 - ord(".")), zero)
    # "0000".."9999", each as 4 bytes of ASCII.
    digit = np.arange(48, 58, dtype=np.uint8)
    groups = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        groups[..., place] = digit[(slice(None),) + (None,) * (3 - place)]
    return SimpleNamespace(
        k=k,
        shift=shift,
        left=_U(64) - shift,
        mask=(_U(1) << shift) - _U(1),
        pow5=pow5,
        # x 5^k 2^(1-E-64): the high word of 2M 5^k, plus a fraction.
        high=pow5.astype(np.float64) * 2.0 ** (1 - E - 64),
        int_digits=int_digits + 1,
        next_ten=np.where(next_ten < 2.0 * lowest, next_ten, np.inf),
        # 10^f; a value with f > 18 digits after the point is below 1.
        pow10=np.array([10**i for i in range(19)] + [0, 0], dtype=np.int64),
        groups=groups.view(np.uint32).ravel(),
        # One row per 8-byte word of the slot.
        lead=lead.reshape(-1, _SLOT).view(_U).T.copy(),
        point=point.view(_U).T.copy(),
    )


def _fast_slots(values: np.ndarray, ax: np.ndarray, fast: np.ndarray, cols: int):
    """Each value's text in a 24-byte row, padded with spaces in front and
    followed by its separator, and the indices of the rows left over.

    `ax` is |values| and `fast` marks where 1e-4 <= |x| < 2^51; both are
    overwritten.

    The steps work in place where they can and drop what they no longer
    need, so that no more than a few arrays of the block's size are alive
    at once.  They keep to a few numpy loops (no unsigned division or
    comparison, no bitwise and/or, no bool arithmetic, no integer casts):
    each new one maps more of numpy's code into memory.
    """
    T = _tables()
    np.copyto(ax, 1.0, where=~fast)  # keeps the others' arithmetic in range
    j = ax.view(np.int64) >> 52  # the biased exponent: ax >= 0
    j -= _LOWEST_EXPONENT
    digits, after = _shortest_digits(ax, j, fast)

    # digits / 10^after with a 0 put in for the point: the integer part
    # times 10^(after+1) plus the fraction.
    pointed = ax.astype(np.int64)
    pointed *= T.pow10.take(after, mode="clip")
    pointed *= 9
    pointed += digits
    del digits
    # The first byte shown is 22 - after - (digits before the point).
    first = T.int_digits.take(j)
    np.add(first, 1, out=first, where=ax >= T.next_ten.take(j))
    del ax, j
    np.subtract(22 - after, first, out=first)
    np.add(first, _SLOT, out=first, where=np.signbit(values))

    # Six groups of four digits: 10^22..10^19 (always 0) down to 10^2..10^0
    # and the separator's 0.
    slots = np.empty((values.size, 6), np.uint32)
    slots[:, 0] = T.groups[0]
    rest = pointed // 1000
    pointed -= rest * 1000
    pointed *= 10
    T.groups.take(pointed, out=slots[:, 5], mode="clip")
    for i in (4, 3, 2, 1):
        group = rest
        rest = group // 10**4
        group -= rest * 10**4
        T.groups.take(group, out=slots[:, i], mode="clip")
    words = slots.view(_U)
    for w in range(3):
        words[:, w] -= T.lead[w].take(first, mode="clip")
        words[:, w] -= T.point[w].take(after, mode="clip")
    slots = slots.view(np.uint8)
    separators = slots.reshape(-1, cols, _SLOT)[:, :, -1]
    separators[...] = ord(",")
    separators[:, -1] = ord("\n")
    return slots, np.flatnonzero(~fast)


def _shortest_digits(ax: np.ndarray, j: np.ndarray, fast: np.ndarray):
    """The shortest digits of each |x| in `ax` (binade index `j`) and how
    many of them follow the point; clears `fast` where they are not found.

    The 128-bit product is taken in uint64; from floor(x 10^k) on, every
    value is below 2^62 and the arithmetic is int64.
    """
    T = _tables()
    low = (ax.view(_U) << _U(12)) >> _U(11)  # 2M - 2^53
    fast &= low.view(np.int64) > 0  # M is not a power of two
    low += _U(1 << 53)
    p = T.pow5.take(j)
    low *= p  # wraps: the low word of 2M 5^k
    high = ax * T.high.take(j)
    high -= low.astype(np.float64) * 2.0**-64
    high = np.rint(high, out=high).astype(_U)
    shift = T.shift.take(j)
    kept = low >> shift
    below = low
    below -= kept << shift  # the bits shifted out
    del low
    fast &= below.view(np.int64) > 0  # x 10^k is not an integer
    # floor(2M 5^k / 2^s) and the interval's bounds.
    high <<= T.left.take(j)
    high += kept
    del kept
    scaled = high.view(np.int64)
    upper = below + p
    upper >>= shift
    lower = T.mask.take(j)
    lower -= below
    lower += p
    lower >>= shift
    del below, p, shift
    upper = upper.view(np.int64)
    upper += scaled
    lower = lower.view(np.int64)
    np.subtract(scaled, lower, out=lower)

    # Drop digits while the interval holds a multiple of the next power of
    # ten, then round what was dropped to nearest; where that gives the
    # lower bound, which does not read back as x, take the next one up.
    drops = np.ones(ax.size, np.intp)
    for d in range(2, _MAX_DROPS + 1):
        np.add(drops, 1, out=drops, where=upper // T.pow10[d] > lower // T.pow10[d])
    last = _MAX_DROPS + 1
    fast &= upper // T.pow10[last] <= lower // T.pow10[last]
    del upper
    after = T.k.take(j)
    after -= drops
    unit = T.pow10.take(drops)
    del drops
    digits = scaled // unit
    gap = np.subtract(scaled, lower, out=lower)
    dropped = scaled
    dropped -= digits * unit
    np.add(digits, 1, out=digits, where=(2 * dropped >= unit) | (gap <= dropped))
    return digits, after
