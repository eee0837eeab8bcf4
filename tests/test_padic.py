import pytest

from ultranet.errors import UsageError, ValidationError
from ultranet.padic import (
    CellAddress,
    cell_index,
    cell_labels,
    enumerate_cells,
    parse_cell_label,
    validate_prime,
)
from ultranet.wavelets import CellFunction
from wavelet_reference import cells


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
    assert c.label(3) == "1.02"
    assert parse_cell_label("1.02", 3) == c
    assert CellAddress(0, ()).label(2) == "0"
    assert parse_cell_label("0", 2) == CellAddress(0, ())
    with pytest.raises(ValidationError):
        parse_cell_label("x.0", 3)


def test_cell_labels_for_every_supported_prime():
    for p in range(2, 98):
        if not all(p % q for q in range(2, p)):
            continue
        for digits in ((), (0,), (p - 1,), (p - 1, 0, p // 2)):
            cell = CellAddress(p - 1, digits)
            assert parse_cell_label(cell.label(p), p) == cell
    # one base-36 character per digit up to p = 31, as always
    assert CellAddress(1, (0, 10, 30)).label(31) == "1.0au"
    # past 36, each digit is a decimal number after its own '.'
    assert CellAddress(1, (0, 10, 36)).label(37) == "1.0.10.36"
    assert parse_cell_label("1.0.10.36", 37) == CellAddress(1, (0, 10, 36))
    assert CellAddress(96, (96,)).label(97) == "96.96"
    assert parse_cell_label("5", 97) == CellAddress(5, ())
    for bad in ("1..3", "1.3.", "1.+3", "1. 3", "1.a", "1.\u0663", "1.37"):
        with pytest.raises(ValidationError):
            parse_cell_label(bad, 37)
    # cell_labels spells the labels of every cell of a cell function in
    # its order, base-36 characters and dotted decimals alike
    for p in (2, 3, 5, 37, 97):
        for depth in (1, 2, 3, 4):
            for basins in ((p - 1,), (0, p - 1), tuple(range(0, p, 2))):
                if p ** (depth - 1) * len(basins) > 10**5:
                    basins = (p // 2,)
                f = CellFunction.constant(p, depth, basins, 0.0)
                labels = cell_labels(p, depth, basins)
                assert len(labels) == f.values.size
                assert labels == [cell.label(p) for cell in cells(f)]
    with pytest.raises(UsageError):
        cell_labels(2, 0, (0,))


def test_enumerate_cells_and_index():
    cells = enumerate_cells(3, 3)
    assert len(cells) == 9
    assert cells[0] == (0, 0)
    assert cells[-1] == (2, 2)
    for i, digits in enumerate(cells):
        assert cell_index(digits, 3) == i
    with pytest.raises(UsageError):
        enumerate_cells(2, 0)
