import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultranet.errors import UsageError, ValidationError
from ultranet.padic import (
    CellAddress,
    UnitFraction,
    cell_index,
    cell_int,
    character_exponent,
    character_value,
    enumerate_cells,
    padic_distance,
    parse_cell_label,
    validate_prime,
)


def test_validate_prime_accepts_small_primes():
    for p in (2, 3, 5, 7, 97):
        assert validate_prime(p) == p


@pytest.mark.parametrize("bad", [1, 4, 6, 91, 101, 0, -3, 2.0, True])
def test_validate_prime_rejects(bad):
    with pytest.raises(ValidationError):
        validate_prime(bad)


def test_cell_address_depth_and_validation():
    c = CellAddress(1, (0, 1))
    assert c.depth == 3
    c.validate(2)
    with pytest.raises(ValidationError):
        CellAddress(2, ()).validate(2)
    with pytest.raises(ValidationError):
        CellAddress(0, (3,)).validate(3)


def test_cell_label_round_trip():
    c = CellAddress(1, (0, 2))
    assert c.label() == "1.02"
    assert parse_cell_label("1.02", 3) == c
    assert CellAddress(0, ()).label() == "0"
    assert parse_cell_label("0", 2) == CellAddress(0, ())
    with pytest.raises(ValidationError):
        parse_cell_label("x.0", 3)


def test_distance_frozen_examples():
    # p = 2, depth 2: same basin, differing first within digit -> 1/2
    a = CellAddress(0, (0,))
    b = CellAddress(0, (1,))
    assert padic_distance(a, b, 2) == Fraction(1, 2)
    # differing basin -> 1
    assert padic_distance(CellAddress(0, (0,)), CellAddress(1, (0,)), 2) == 1
    # identical -> 0 sentinel, meaning "<= p^{-N}"
    assert padic_distance(a, a, 2) == 0


def test_distance_requires_equal_depths():
    with pytest.raises(UsageError):
        padic_distance(CellAddress(0, ()), CellAddress(0, (1,)), 2)


def test_character_exponent_frozen_examples():
    # p=2, r=-1, j=1: x = 2 -> {x/4}_2 = 2/4 = 1/2
    u = character_exponent(-1, 1, CellAddress(0, (1,)), 2)
    assert u.value() == Fraction(1, 2)
    # digit 0 -> x = 0 -> exponent 0
    u0 = character_exponent(-1, 1, CellAddress(0, (0,)), 2)
    assert u0.value() == 0
    # p=3, r=-2, j=2, digits (1, 2): x = 1*3 + 2*9 = 21,
    # q = 27, y = (2*21) mod 27 = 15 -> 15/27
    u3 = character_exponent(-2, 2, CellAddress(0, (1, 2)), 3)
    assert u3.value() == Fraction(15, 27)
    assert (u3.numerator, u3.exponent) == (15, 3)


def test_character_exponent_preconditions():
    with pytest.raises(UsageError):
        character_exponent(0, 1, CellAddress(0, (0,)), 2)
    with pytest.raises(UsageError):
        character_exponent(-1, 2, CellAddress(0, (0,)), 2)
    with pytest.raises(UsageError):
        character_exponent(-2, 1, CellAddress(0, (0,)), 2)  # depth 2 < 3


def test_character_value_frozen_examples():
    one = character_value(UnitFraction(0, 2, 0))
    minus_one = character_value(UnitFraction(1, 2, 1))
    i_val = character_value(UnitFraction(1, 2, 2))
    assert one == 1
    assert abs(minus_one - (-1)) < 1e-15
    assert abs(i_val - 1j) < 1e-15


def test_unit_fraction_validation_and_add():
    with pytest.raises(ValidationError):
        UnitFraction(4, 2, 2)
    with pytest.raises(ValidationError):
        UnitFraction(-1, 2, 1)
    with pytest.raises(ValidationError):
        UnitFraction(1, 2, 0)
    s = UnitFraction(1, 2, 1).add_mod1(UnitFraction(3, 2, 2))
    assert s.value() == Fraction(1, 4)  # 1/2 + 3/4 mod 1
    with pytest.raises(UsageError):
        UnitFraction(1, 2, 1).add_mod1(UnitFraction(1, 3, 1))


def _all_cells(p, depth):
    return [
        CellAddress(b, digits)
        for b in range(p)
        for digits in enumerate_cells(p, depth)
    ]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_ultrametric_exhaustive(p, depth):
    cells = _all_cells(p, depth)
    dist = {
        (i, k): padic_distance(ci, ck, p)
        for i, ci in enumerate(cells)
        for k, ck in enumerate(cells)
    }
    n = len(cells)
    for i in range(n):
        assert dist[(i, i)] == 0
        for k in range(n):
            assert dist[(i, k)] == dist[(k, i)]
            if i != k:
                assert dist[(i, k)] > 0
            for l in range(n):
                assert dist[(i, l)] <= max(dist[(i, k)], dist[(k, l)])


@given(
    p=st.sampled_from([2, 3, 5]),
    r=st.integers(min_value=-3, max_value=-1),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_character_additivity(p, r, data):
    """chi(u + v) = chi(u) chi(v) with the sum taken mod 1."""
    j = data.draw(st.integers(min_value=1, max_value=p - 1))
    depth = 1 - r
    digits1 = tuple(
        data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(depth - 1)
    )
    digits2 = tuple(
        data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(depth - 1)
    )
    u = character_exponent(r, j, CellAddress(0, digits1), p)
    v = character_exponent(r, j, CellAddress(0, digits2), p)
    lhs = character_value(u.add_mod1(v))
    rhs = character_value(u) * character_value(v)
    assert abs(lhs - rhs) < 1e-12


@given(
    p=st.sampled_from([2, 3, 5]),
    r=st.integers(min_value=-3, max_value=-1),
    extra=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_character_exponent_depth_extension_invariance(p, r, extra, data):
    """Deepening a cell by appending digits never changes the exponent."""
    j = data.draw(st.integers(min_value=1, max_value=p - 1))
    base_len = -r  # depth (1 - r) minus the basin digit
    digits = tuple(
        data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(base_len)
    )
    tail = tuple(
        data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(extra)
    )
    basin = data.draw(st.integers(min_value=0, max_value=p - 1))
    u_shallow = character_exponent(r, j, CellAddress(basin, digits), p)
    u_deep = character_exponent(r, j, CellAddress(basin, digits + tail), p)
    assert u_shallow == u_deep


def test_enumerate_cells_and_index():
    cells = enumerate_cells(3, 3)
    assert len(cells) == 9
    assert cells[0] == (0, 0)
    assert cells[-1] == (2, 2)
    for i, digits in enumerate(cells):
        assert cell_index(digits, 3) == i
    assert cell_int((1, 2), 3) == 1 * 3 + 2 * 9
    with pytest.raises(UsageError):
        enumerate_cells(2, 0)


def test_character_value_matches_direct_formula():
    u = UnitFraction(15, 3, 3)
    assert abs(character_value(u) - cmath.exp(2j * cmath.pi * 15 / 27)) < 1e-15
