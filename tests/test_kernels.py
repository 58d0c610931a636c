"""The scan kernels are checked against literal full scans.

The square-root kernels scan half of each range and mirror the rest, and
the unit count sieves [1, n) in windows of ``WINDOW`` elements, so the
unit count is also checked on moduli that span several windows, and for
the memory it holds at n near 10^7."""

import tracemalloc
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from cleangraphs import _kernels, verify
from cleangraphs._kernels import (
    WINDOW,
    backend,
    count_square_roots_of_one,
    count_units,
    square_roots_of_one,
)
from cleangraphs.modring import factorize


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
# against, since the kernels mirror half the range or sieve it.
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


def test_kernels_match_full_scan(full_scans):
    for n, roots, root_count, unit_count in full_scans:
        assert square_roots_of_one(n) == roots, n
        assert count_square_roots_of_one(n) == root_count, n
        assert count_units(n) == unit_count, n


def test_verify_calls_the_kernel_module():
    # the verification sweeps call the kernels through `verify._kernels`
    assert verify._kernels is _kernels


@given(st.integers(min_value=1, max_value=3 * WINDOW))
@example(WINDOW - 1)
@example(WINDOW)
@example(WINDOW + 1)
@example(2 * WINDOW + 1)
@example(1 << 17)
@example(720_720)  # 240 divisors, 11 windows
@settings(max_examples=40, deadline=None)
def test_unit_count_matches_full_scan_across_windows(n):
    assert count_units(n) == full_scan_count_units(n)


@st.composite
def smooth_moduli(draw):
    """n up to 10^5 with many composite divisors: a cofactor times small
    primes, repeats allowed, for as long as the product stays in range."""
    n = draw(st.integers(min_value=1, max_value=60))
    for p in draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=14)):
        if n * p > 10**5:
            break
        n *= p
    return n


@given(st.one_of(smooth_moduli(), st.integers(min_value=1, max_value=10**5)))
@example(2 * 3 * 5 * 7 * 11 * 13)  # six primes, 64 divisors
@example(2**16)  # one prime, 16 divisors
@example(3 * 32_999)  # a prime divisor above the square root
@example(313 * 317)  # two primes near the square root
@example(99_991)  # a prime
@settings(max_examples=80, deadline=None)
def test_unit_count_marking_with_prime_divisors_matches_full_scan(n):
    assert count_units(n) == full_scan_count_units(n)


def test_unit_count_memory_stays_under_a_megabyte():
    n = 10_000_019
    tracemalloc.start()
    try:
        units = count_units(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert units == factorize(n).unit_count()
