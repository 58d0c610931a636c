"""The scan kernels scan half of each range and mirror the rest; they are
checked against literal full scans."""

from math import gcd

import pytest

from cleangraphs import _kernels, verify
from cleangraphs._kernels import (
    backend,
    count_square_roots_of_one,
    count_units,
    square_roots_of_one,
)


def test_backend_reports_a_known_name():
    assert backend() == "python"


def test_known_small_values():
    assert count_units(1) == 0
    assert count_units(12) == 4
    assert list(square_roots_of_one(8)) == [1, 3, 5, 7]
    assert list(square_roots_of_one(9)) == [1, 8]
    assert count_square_roots_of_one(1) == 0
    assert count_square_roots_of_one(2) == 1


@pytest.mark.parametrize("fn", [count_units, count_square_roots_of_one, square_roots_of_one])
def test_rejects_nonpositive(fn):
    with pytest.raises(ValueError):
        fn(0)
    with pytest.raises(ValueError):
        fn(-5)


# Literal full scans over [1, n): the reference the kernels are checked
# against, since the kernels only scan half the range.
def full_scan_square_roots_of_one(n):
    return [u for u in range(1, n) if u * u % n == 1]


def full_scan_count_square_roots_of_one(n):
    return sum(1 for u in range(1, n) if u * u % n == 1)


def full_scan_count_units(n):
    return sum(1 for u in range(1, n) if gcd(u, n) == 1)


@pytest.fixture(scope="module")
def full_scans():
    return [
        (
            n,
            full_scan_square_roots_of_one(n),
            full_scan_count_square_roots_of_one(n),
            full_scan_count_units(n),
        )
        for n in range(1, 3001)
    ]


# "pykernels" is the kernel module itself; "active" is the module that
# `cleangraphs.verify` binds and the verification sweeps call through.
@pytest.mark.parametrize("impl", [_kernels, verify._kernels], ids=["pykernels", "active"])
def test_kernels_match_full_scan(impl, full_scans):
    for n, roots, root_count, unit_count in full_scans:
        assert impl.square_roots_of_one(n) == roots, n
        assert impl.count_square_roots_of_one(n) == root_count, n
        assert impl.count_units(n) == unit_count, n
