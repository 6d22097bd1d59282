import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mstint.quantities import (
    INFINITY,
    QUANTITY_MAX,
    SCALE,
    ExtendedValue,
    QuantityOverflowError,
    QuantityParseError,
    ZERO,
    check_quantity,
    finite,
    format_quantity,
    log2_bounds,
    parse_quantity,
)


def test_parse_basic():
    assert parse_quantity("1") == SCALE
    assert parse_quantity("1.5") == 1_500_000
    assert parse_quantity("0.000001") == 1
    assert parse_quantity("0") == 0
    assert parse_quantity(".5") == 500_000


@pytest.mark.parametrize(
    "bad",
    ["", "-1", "+2", "1.2345678", "1e3", "one", "1.2.3", "²", "1.²", ".", "\u0663", "1_0"],
)
def test_parse_rejects(bad):
    with pytest.raises(QuantityParseError):
        parse_quantity(bad)


def test_format_minimal():
    assert format_quantity(SCALE) == "1"
    assert format_quantity(1_500_000) == "1.5"
    assert format_quantity(1) == "0.000001"
    assert format_quantity(0) == "0"


@given(st.integers(min_value=0, max_value=QUANTITY_MAX))
def test_format_parse_roundtrip(units):
    assert parse_quantity(format_quantity(units)) == units


def test_overflow_checked():
    with pytest.raises(QuantityOverflowError):
        check_quantity(QUANTITY_MAX + 1)
    with pytest.raises(QuantityOverflowError):
        parse_quantity("99999999999999999999")


def test_extended_ordering_total():
    values = [ZERO, finite(1), finite(SCALE), INFINITY]
    assert sorted(values, reverse=True)[0] == INFINITY
    for a in values:
        for b in values:
            assert (a < b) + (a == b) + (b < a) == 1


def test_extended_arithmetic():
    assert INFINITY - finite(7) == INFINITY
    assert finite(7) - finite(2) == finite(5)
    with pytest.raises(ArithmeticError):
        finite(1) - INFINITY
    assert str(INFINITY) == "inf"
    assert str(finite(1_500_000)) == "1.5"


def test_extended_infinity_is_unique_maximum():
    assert INFINITY > finite(QUANTITY_MAX)
    assert not (INFINITY < INFINITY)
    assert INFINITY <= INFINITY


@given(st.integers(min_value=1, max_value=10**15))
def test_log2_bounds_bracket(n):
    lo, hi = log2_bounds(n)
    exact = math.log2(n)
    assert float(lo) <= exact + 1e-9
    assert float(hi) >= exact - 1e-9
    assert hi - lo <= Fraction(3, 1 << 30)


def test_log2_bounds_exact_powers():
    for k in range(20):
        lo, hi = log2_bounds(1 << k)
        assert lo == k
        assert hi >= k


def test_log2_bounds_rejects():
    with pytest.raises(ValueError):
        log2_bounds(0)


def test_extended_value_is_hashable_dataclass():
    assert len({finite(1), finite(1), INFINITY}) == 2
    assert ExtendedValue(None) == INFINITY
