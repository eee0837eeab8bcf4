import pytest

from ultranet.errors import UsageError, ValidationError
from ultranet.padic import (
    CellAddress,
    cell_index,
    enumerate_cells,
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


def test_enumerate_cells_and_index():
    cells = enumerate_cells(3, 3)
    assert len(cells) == 9
    assert cells[0] == (0, 0)
    assert cells[-1] == (2, 2)
    for i, digits in enumerate(cells):
        assert cell_index(digits, 3) == i
    with pytest.raises(UsageError):
        enumerate_cells(2, 0)
