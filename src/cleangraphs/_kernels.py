"""Scan kernels for exhaustive modular arithmetic.

The verification sweeps spend nearly all their time in three O(n) scans
(counting units, counting and listing square roots of 1).

Each kernel is an exhaustive scan over every u in [1, n): it
evaluates its predicate on u in [1, n // 2] and accounts for each u in
(n / 2, n) through its mirror n - u, using two identities that hold for
every n and need nothing about the factorisation of n:

    (n - u)**2 = u**2 (mod n)        so n - u is a square root of 1 iff u is
    gcd(n - u, n) = gcd(u, n)        so n - u is a unit iff u is

When n is even, u = n / 2 is its own mirror and is counted once.

The literal full scans over [1, n), one line each, live in
``tests/test_kernels.py`` as the reference this module is checked
against.
"""

from math import gcd


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
    """Number of u in [1, n) coprime to n (Euler phi by direct scan)."""
    if n < 1:
        raise ValueError("modulus must be positive")
    half = n // 2
    count = 0
    for u in range(1, half + 1):
        if gcd(u, n) == 1:
            count += 1
    if 2 * half == n and gcd(half, n) == 1:
        return 2 * count - 1
    return 2 * count
