"""`barriersmc.fieldtext` gives the bytes of `%` for every double."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from barriersmc import fieldtext


def percent_fields(values):
    """The reference for `fieldtext.fields`: one `%` over the whole array."""
    return ("%-24.17g" * len(values) % tuple(values.tolist())).encode("ascii")


def with_neighbours(values):
    """Each value and -value, each with the doubles on either side of it."""
    x = np.array(values, np.float64)
    with np.errstate(over="ignore"):  # above the largest double: inf
        x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


raw_doubles = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


class TestFields:
    """`fieldtext.fields` against `%`, byte for byte."""

    @settings(deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 80), elements=st.floats() | raw_doubles))
    def test_equals_percent(self, values):
        assert fieldtext.fields(values).tobytes() == percent_fields(values)

    @pytest.mark.parametrize("values", [
        with_neighbours([float(f"1e{k}") for k in range(-323, 309)]),
        with_neighbours([1e-5, 1e-4, 1e16, 1e17, 5e-324, np.finfo(np.float64).max]),
        # 18 significant digits, the last a 5: a tie at 17, rounded to even
        with_neighbours([1 + j * 2.0 ** -17 for j in range(1, 32, 2)]
                        + [2.0 ** 20 + j * 2.0 ** -11 for j in (1, 3)]
                        + [j * 2.0 ** -25 for j in (1, 3)] + [0.5 + 2.0 ** -18]),
        np.random.default_rng(3).standard_normal(5000) * np.logspace(-6, 18, 5000),
    ], ids=["powers_of_ten", "edges", "ties", "every_layout"])
    def test_edge_cases(self, values):
        assert fieldtext.fields(values).tobytes() == percent_fields(values)

    def test_every_value_by_percent_where_the_longdouble_is_narrow(self, monkeypatch):
        def no_tables():
            raise AssertionError("built the longdouble tables")

        monkeypatch.setattr(fieldtext, "NMANT", 1000)
        monkeypatch.setattr(fieldtext, "_tables", no_tables)
        values = with_neighbours([1.0, 1e-5, 1 + 2.0 ** -17, 0.0, math.inf, math.nan])
        assert fieldtext.fields(values).tobytes() == percent_fields(values)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="the table is checked where the longdouble is x87 extended")
    def test_each_power_of_ten_is_correctly_rounded(self):
        def nearest(power, k):
            def error(v):
                return abs(Fraction(*v.as_integer_ratio()) - Fraction(10) ** k)

            below, above = (np.nextafter(power, np.longdouble(to)) for to in (0, np.inf))
            return np.isfinite(power) and error(power) <= min(error(below), error(above))

        powers = range(-fieldtext.POW10_MAX, fieldtext.POW10_MAX + 1)
        pow10 = fieldtext._tables()[0]
        assert [k for k, power in zip(powers, pow10) if not nearest(power, k)] == []
