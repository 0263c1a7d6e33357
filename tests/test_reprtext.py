"""CSV rows of float64 values: `repr_rows` against the `%` line it stands for."""

import numpy as np
import pytest

import legkoop.reprtext as reprtext
from legkoop.reprtext import repr_rows

MIN = reprtext._MIN_VALUES


def percent_rows(table):
    line = ",".join(["%r"] * table.shape[1]) + "\n"
    return line * table.shape[0] % tuple(table.ravel().tolist())


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
    # Most blocks of those hold a negative value whose 24-character repr
    # sends the block to the `%` line, so also draw exponents where the
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
    ax = np.abs(values)
    _, fallback = reprtext._fast_slots(values, ax, (ax >= 1e-4) & (ax < 2.0**51), 3)
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
    # repr (or, for a 24-character repr, the whole block to the `%` line).
    rng = np.random.default_rng(3)
    specials = special_values()
    for start in range(0, specials.size, 128):
        block = rng.uniform(-2.0, 2.0, (MIN // cols + 2) * cols)
        chunk = specials[start : start + 128]
        block[rng.choice(block.size, chunk.size, replace=False)] = chunk
        table = block.reshape(-1, cols)
        assert repr_rows(table) == percent_rows(table)


def test_a_24_character_repr_sends_its_block_to_the_percent_line(monkeypatch):
    calls = []
    percent = reprtext._percent_rows
    monkeypatch.setattr(reprtext, "_percent_rows", lambda *a: calls.append(a) or percent(*a))
    table = np.linspace(0.001, 1.0, 3 * 1024).reshape(-1, 3)
    text = repr_rows(table)
    assert calls == [] and text == percent_rows(table)
    table[5, 1] = -1.2345678901234567e-100
    assert len(repr(float(table[5, 1]))) == 24
    assert repr_rows(table) == percent_rows(table) and len(calls) == 1


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
