"""CSV rows of float64 values: `repr_rows` and `RowWriter` against the `%` line they stand for."""

import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import legkoop.reprtext as reprtext
from legkoop.cli import main
from legkoop.koopman import _TIME_BLOCK
from legkoop.reprtext import repr_rows

MIN = reprtext._MIN_VALUES


def percent_rows(table):
    line = ",".join(["%r"] * table.shape[1]) + "\n"
    return (line * table.shape[0] % tuple(table.ravel().tolist())).encode("ascii")


def check_blocks(values, cols, rows=1024):
    """repr_rows of each (rows x cols) block of `values` is the `%` line's."""
    values = values[: values.size // cols * cols].reshape(-1, cols)
    for start in range(0, len(values), rows):
        block = values[start : start + rows]
        assert repr_rows(block) == percent_rows(block)


def with_bits(sign, exponent, fraction):
    bits = (sign.astype(np.uint64) << np.uint64(63)) | (exponent.astype(np.uint64) << np.uint64(52))
    return (bits | fraction).view(np.float64)


def test_random_bit_patterns_of_both_signs():
    rng = np.random.default_rng(20260601)
    n = 100_000
    anywhere = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    # Most of those are left to repr, so also draw exponents where the
    # vectorized path works (about 1e-4 to 2^51), and a few beyond.
    sign = rng.integers(0, 2, 3 * n)
    exponent = rng.integers(1000, 1080, 3 * n)
    fraction = rng.integers(0, 2**52, 3 * n, dtype=np.uint64)
    for values, cols in [(anywhere, 3), (with_bits(sign, exponent, fraction), 3)]:
        check_blocks(values, cols)


def test_normals_scaled_across_the_positional_range():
    rng = np.random.default_rng(7)
    n = 200_000
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 18, n)
    check_blocks(values, 5)


def test_the_vectorized_path_writes_nearly_every_ordinary_value():
    # Values in the positional range, as a trajectory's are: fewer than 1 in
    # 200 are left to repr.
    rng = np.random.default_rng(11)
    values = rng.uniform(-50.0, 50.0, 3 * 1024) * 10.0 ** rng.integers(-3, 3, 3 * 1024)
    _, fallback = reprtext._fast_slots(values, 3)
    assert fallback.size < values.size / 200


def special_values():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = 10.0 ** np.arange(-30, 31)
    around = [np.nextafter(v, 0.0) for v in (powers_of_two, powers_of_ten)]
    around += [np.nextafter(v, np.inf) for v in (powers_of_two, powers_of_ten)]
    edges = [
        0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072009e-308,
        2.2250738585072014e-308, 1.7976931348623157e308,
        # repr switches to scientific notation below 1e-4 and from 1e16 on
        1e-4, 1e-5, 9.999999999999999e-05, 1.0000000000000002e-4, 1e16, 9999999999999998.0,
        2.0**51, 2.0**51 - 0.5, 2.0**50 + 0.25, 2.0**52 - 1.0,
        # short values, and ones that need all 17 digits
        0.5, 40.0, 3.5e-07, 0.1, 0.2, 0.3, 1.5, 123.456,
        0.30000000000000004, 1 / 3, 2 / 3, 0.1 + 0.7, 5e-324 * 3, 1e23, 9007199254740993.0,
    ]
    values = np.concatenate([powers_of_two, powers_of_ten, *around, edges])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("cols", [1, 3, 7])
def test_special_values_in_blocks_of_ordinary_ones(cols):
    # Each special value sits in a block of ordinary ones above the cutoff,
    # so the vectorized path writes the block and leaves the special ones to
    # repr.
    rng = np.random.default_rng(3)
    specials = special_values()
    for start in range(0, specials.size, 128):
        block = rng.uniform(-2.0, 2.0, (MIN // cols + 2) * cols)
        chunk = specials[start : start + 128]
        block[rng.choice(block.size, chunk.size, replace=False)] = chunk
        table = block.reshape(-1, cols)
        assert repr_rows(table) == percent_rows(table)


@pytest.mark.parametrize(
    "rows", [[], [1000], [0, 1000, 2047], list(range(0, 2048, 7))],
    ids=["none", "one", "first-middle-last", "every-7th"],
)
def test_24_character_reprs_are_written_in_place(monkeypatch, rows):
    # A negative value with 17 digits and a 3-digit exponent has a 24-byte
    # repr, one byte more than its slot holds; no row goes to the `%` line.
    calls = []
    percent = reprtext._percent_rows
    monkeypatch.setattr(reprtext, "_percent_rows", lambda *a: calls.append(a) or percent(*a))
    long = -1.2345678901234567e-100
    assert len(repr(long)) == 24
    table = np.linspace(0.001, 1.0, 2048 * 3).reshape(-1, 3)
    for row in rows:
        table[row, row % 3] = long
    assert repr_rows(table) == percent_rows(table) and calls == []


@pytest.mark.parametrize("cols", [1, 2, 3, 5])
def test_blocks_below_the_cutoff_take_the_percent_line(monkeypatch, cols):
    calls = []
    percent = reprtext._percent_rows
    monkeypatch.setattr(reprtext, "_percent_rows", lambda *a: calls.append(a) or percent(*a))
    values = np.random.default_rng(cols).uniform(-1.0, 1.0, (MIN // cols + 1) * cols)
    for rows in (0, 1, MIN // cols - 1, MIN // cols, MIN // cols + 1):
        table = values[: rows * cols].reshape(rows, cols)
        calls.clear()
        assert repr_rows(table) == percent_rows(table)
        assert len(calls) == (table.size < MIN)


def test_a_column_slice_and_a_float32_table_are_written_as_their_float64_values():
    table = np.random.default_rng(5).uniform(0.0, 3.0, (1024, 4))
    for view in (table[:, 1:3], table.astype(np.float32)):
        assert repr_rows(view) == percent_rows(np.asarray(view, dtype=np.float64))


def left_over(values):
    """Which values the vectorized path leaves to the `%` line."""
    _, fallback = reprtext._fast_slots(values, 1)
    return np.isin(np.arange(values.size), fallback)


def with_both_signs(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def dropped_digits(x):
    """How many digits of floor(|x| 10^k) repr(x) leaves out, worked out in
    exact arithmetic; None where |x| 10^k is an integer or x a power of two."""
    mantissa, exponent = math.frexp(abs(x))
    significand, power = int(mantissa * 2**53), exponent - 53
    k = 0
    while Fraction(3, 4) * Fraction(2) ** power * 10**k < 10:
        k += 1
    scaled = Fraction(abs(x)) * 10**k
    if significand == 2**52 or scaled.denominator == 1:
        return None
    shortest = repr(abs(x)).replace(".", "").lstrip("0")
    return len(str(math.floor(scaled))) - len(shortest)


def test_values_that_drop_one_to_four_digits_and_more():
    # Decimals of 8 to 17 significant digits from 1e-4 to 1e15: floor(x 10^k)
    # has 17 to 19 digits, so they drop from 1 to about 11.  Up to four the
    # vectorized path writes them; more go to the `%` line.
    rng = np.random.default_rng(29)
    values = [
        float("%.*e" % (digits - 1, v))
        for digits in range(8, 18)
        for e in range(-4, 15)
        for v in 10.0**e * rng.uniform(1.0, 10.0, 12)
    ]
    drops = {x: dropped_digits(x) for x in values}
    for count in (1, 2, 3, 4, 5):
        chosen = [x for x in values if drops[x] is not None and min(drops[x], 5) == count]
        assert len(chosen) >= 100
        chosen = with_both_signs(chosen)
        left = left_over(chosen)
        assert left.all() if count == 5 else not left.any()
        check_blocks(np.resize(chosen, (MIN // 3 + 1) * 3), 3)
        check_blocks(chosen, 3, rows=MIN // 3 + 1)


def test_both_ends_of_the_lowest_and_highest_binades():
    # The fast range starts at 1e-4 inside the binade of 2^-14 and ends below
    # 2^51, in the binade of 2^50, where every x 10^k is an integer.
    rng = np.random.default_rng(31)
    ends = []
    for low, high in [(1e-4, 2.0**-13), (2.0**-14, 2.0**-13), (2.0**50, 2.0**51)]:
        ends += [low, high, *rng.uniform(low, high, 40)]
        for v in (low, high):
            ends += [np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    ends = with_both_signs(ends)
    lowest = (np.abs(ends) > 1e-4) & (np.abs(ends) < 2.0**-13)
    assert not left_over(ends[lowest]).any()
    assert left_over(ends[np.abs(ends) >= 2.0**50]).all()
    block = np.random.default_rng(37).uniform(-2.0, 2.0, MIN + 2)
    for start in range(0, ends.size, 64):
        chunk = ends[start : start + 64]
        block[: chunk.size] = chunk
        for cols in (1, 3):
            table = block[: block.size // cols * cols].reshape(-1, cols)
            assert repr_rows(table) == percent_rows(table)


def test_every_pattern_row_in_both_signs():
    # Each (sign, digits before the point, digits after it) the vectorized
    # path can meet: 15 to 17 significant digits in each decade from 1e-4 to
    # 1e15, which puts the first digit at each byte from 1 to 7 of the slot.
    rng = np.random.default_rng(17)
    values = []
    for e in range(-4, 15):
        drawn = 10.0**e * rng.uniform(1.0, 10.0, 24)  # mostly 16 or 17 digits
        values += [*drawn, *(float("%.14e" % v) for v in drawn)]
    values = with_both_signs(values)

    def shown(x):
        before, after = repr(abs(x)).split(".")
        return x < 0, len(before) + len(after), len(after)

    expected = {
        (negative, digits if e >= 0 else digits - e, digits - e - 1)
        for negative in (False, True)
        for e in range(-4, 15)
        for digits in (15, 16, 17)
        if digits - e - 1 >= 1
    }
    written = {shown(x) for x, left in zip(values.tolist(), left_over(values)) if not left}
    assert expected <= written
    for cols in (1, 3, 7):
        check_blocks(values, cols, rows=MIN // cols + 1)


def test_a_damped_solve_through_1e_4_writes_each_value_as_its_repr(tmp_path):
    # q'' = -q - q' from (0.5, 0): both states fall below 1e-4 for good near
    # t = 17, in the middle of the second block; the blocks after it are left
    # to the `%` line value by value.
    config = {
        "name": "damped",
        "states": ["q", "p"],
        "dynamics": [
            {"terms": [{"coef": 1.0, "exp": [0, 1]}]},
            {"terms": [{"coef": -1.0, "exp": [1, 0]}, {"coef": -1.0, "exp": [0, 1]}]},
        ],
        "initial_state": [0.5, 0.0],
        "order": 1,
        "t_final": 40.0,
        "num_steps": 4 * _TIME_BLOCK,
    }
    path = tmp_path / "damped.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "damped_trajectory.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,q,p"
    cells = [line.split(",") for line in lines[1:]]
    table = np.array(cells, dtype=np.float64)
    last_large = np.flatnonzero(np.abs(table[:, 1:]).max(axis=1) >= 1e-4)[-1]
    assert _TIME_BLOCK + 100 < last_large < 2 * _TIME_BLOCK - 100
    assert [c for row in cells for c in row if repr(float(c)) != c] == []
    assert ("\n".join(lines[1:]) + "\n").encode("ascii") == percent_rows(table)


@pytest.mark.parametrize(
    "chunk, cols",
    [(12, 3), (10, 3), (3, 3), (4, 7), (1000, 3)],
    ids=["whole-rows", "rows-and-a-rest", "one-row", "row-wider-than-a-chunk", "all-at-once"],
)
def test_the_row_writer_writes_its_blocks_in_chunks_of_whole_rows(monkeypatch, chunk, cols):
    # Blocks of 5, 0, 1, 9 and 4 rows, each handed over as two arrays side by
    # side, one of them a transposed view: the stream gets the `%` line of
    # the whole table, a chunk of chunk // cols rows (at least one) at a time.
    monkeypatch.setattr(reprtext, "_CHUNK_VALUES", chunk)
    sizes = []
    formatter = reprtext.repr_rows
    monkeypatch.setattr(reprtext, "repr_rows", lambda table: sizes.append(len(table)) or formatter(table))
    table = np.random.default_rng(cols).uniform(-3.0, 3.0, (19, cols))
    stream = io.BytesIO()
    writer = reprtext.RowWriter(stream, cols)
    start = 0
    for rows in (5, 0, 1, 9, 4):
        block = table[start : start + rows]
        writer.write(block[:, :1], block[:, 1:].T.copy().T)
        start += rows
    writer.flush()
    writer.flush()
    assert stream.getvalue() == percent_rows(table)
    per_chunk = max(chunk // cols, 1)
    assert sizes == [per_chunk] * (19 // per_chunk) + [19 % per_chunk] * (19 % per_chunk > 0)
