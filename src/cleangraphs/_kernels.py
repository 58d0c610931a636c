"""Scan kernels for exhaustive modular arithmetic.

The verification sweeps spend nearly all their time in three O(n) scans
(counting units, counting and listing square roots of 1).  Each kernel
is exact over every u in [1, n) and needs nothing about the
factorisation of n.

The square-root kernels evaluate u*u % n on u in [1, n // 2] and account
for each u in (n / 2, n) through its mirror n - u, since
(n - u)**2 = u**2 (mod n): n - u is a square root of 1 iff u is.  When n
is even, u = n / 2 is its own mirror and is counted once.

The unit count is a sieve over [1, n) in windows of ``WINDOW``
elements: it marks the multiples of n's prime divisors with one slice
write per prime and window, and counts what is left unmarked.

The literal full scans over [1, n), one line each, live in
``tests/test_kernels.py`` as the reference this module is checked
against.
"""

from math import isqrt

# Elements of [1, n) that count_units marks at a time; its memory stays
# O(WINDOW) for any n.
WINDOW = 1 << 16


def backend() -> str:
    """Name of the kernel implementation, stamped on benchmark results."""
    return "python"


def count_square_roots_of_one(n: int) -> int:
    """Number of u in [1, n) with u*u = 1 (mod n)."""
    return len(square_roots_of_one(n))


def square_roots_of_one(n: int) -> list[int]:
    """Ascending list of u in [1, n) with u*u = 1 (mod n)."""
    if n < 1:
        raise ValueError("modulus must be positive")
    low = [u for u in range(1, n // 2 + 1) if u * u % n == 1]
    return low + [n - u for u in reversed(low) if 2 * u != n]


def count_units(n: int) -> int:
    """Number of u in [1, n) coprime to n (Euler phi by a divisor sieve).

    gcd(u, n) > 1 exactly when some divisor d > 1 of n divides u (take
    d = gcd(u, n)), so the u that no such divisor marks are the units.
    This is the definition of coprime, not phi's product formula.  A
    divisor that a smaller marking divisor divides marks only multiples
    of that one, so the divisors are taken in increasing order and only
    those that no marking divisor before them divides mark: n's prime
    divisors, found from n alone, and each byte is written once per prime
    that divides its u instead of once per divisor.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    small = [d for d in range(2, isqrt(n) + 1) if n % d == 0]
    primes: list[int] = []
    for d in small + [n // d for d in reversed(small) if d * d != n]:
        if all(d % p for p in primes):
            primes.append(d)
    count = 0
    for lo in range(1, n, WINDOW):
        # window[i] stands for u = lo + i
        size = min(WINDOW, n - lo)
        window = bytearray(size)
        for d in primes:
            first = -lo % d
            if first < size:
                window[first::d] = b"\x01" * len(range(first, size, d))
        count += window.count(0)
    return count
