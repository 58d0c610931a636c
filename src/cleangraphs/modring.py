"""Exact arithmetic and structural enumeration for the ring Z_n.

Everything downstream (graph constructions, witnesses, sweeps) is driven
by four facts about Z_n: its prime factorization, its idempotents, its
units, and the split of the units into the self-inverse ones and
inverse-paired couples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce, wraps
from math import gcd
from typing import Iterable


def is_prime(p: int) -> bool:
    """p is prime: ``factorize``'s trial division finds p alone."""
    return p >= 2 and factorize(p).factorization == ((p, 1),)


def _computed_once(method):
    """Run a ModRing enumeration on its first call only; later calls
    return the same (immutable) result."""

    @wraps(method)
    def cached(self):
        return self.kept(method.__name__, method, self)

    return cached


@dataclass(frozen=True)
class ModRing:
    """The ring Z_n with its factorization and CRT structure cached.

    ``factorization`` lists (prime, exponent) with strictly increasing
    primes; ``prime_power_moduli`` are the corresponding p_i**n_i whose
    product is ``modulus``.  ``idempotents()``, the nonzero and the
    nontrivial ones, ``units()``, ``inverses()`` and ``unit_partition()``
    are computed on first call and kept, so every caller of one ring
    shares them.  Through ``kept`` the graph module keeps its own tables
    here too: for each idempotent tuple a pair graph is built on, the
    units' inverse columns shifted across its blocks, the self-inverse
    columns and each idempotent's annihilator run, and the closed form's
    two degree columns.  All of them die with the ring.  The graph
    builders read ``inverses()`` and the witnesses ``unit_partition()``;
    neither is computed from the other, so a fault in one cannot hide in
    the check that compares them.
    """

    modulus: int
    factorization: tuple[tuple[int, int], ...]
    prime_power_moduli: tuple[int, ...]
    # CRT basis: _crt_basis[i] = 1 mod prime_power_moduli[i], 0 mod the others
    _crt_basis: tuple[int, ...] = field(repr=False, default=())
    # results of the _computed_once enumerations, by method name; not part
    # of the ring's value, so a warm ring equals, hashes and prints as a cold one
    _enumerated: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def kept(self, key, make, *args):
        """``make(*args)`` on the first call with ``key``; later calls
        return the same object, which no caller may mutate."""
        result = self._enumerated.get(key)
        if result is None:
            result = self._enumerated[key] = make(*args)
        return result

    @property
    def num_primes(self) -> int:
        return len(self.factorization)

    def __str__(self) -> str:
        parts = " * ".join(
            str(p) if e == 1 else f"{p}^{e}" for p, e in self.factorization
        )
        return f"Z_{self.modulus} ({parts})"

    # -- element predicates ------------------------------------------------

    def _check_element(self, a: int) -> None:
        if not 0 <= a < self.modulus:
            raise ValueError(f"{a} is not an element of Z_{self.modulus}")

    def is_idempotent(self, a: int) -> bool:
        self._check_element(a)
        return a * a % self.modulus == a

    def is_unit(self, a: int) -> bool:
        self._check_element(a)
        return gcd(a, self.modulus) == 1

    # -- enumeration ----------------------------------------------------------

    def _compose_all(self, residue_sets: Iterable[Iterable[int]]) -> tuple[int, ...]:
        """Every element of Z_n whose residue modulo each prime power is
        taken from the matching set in ``residue_sets`` (factor order),
        ascending: the sum over coordinates of residue times the CRT
        basis element, mod n."""
        sums = [0]
        for residues, b in zip(residue_sets, self._crt_basis):
            local = [r * b for r in residues]
            sums = [s + x for s in sums for x in local]
        n = self.modulus
        return tuple(sorted(s % n for s in sums))

    @_computed_once
    def idempotents(self) -> tuple[int, ...]:
        """All e with e*e = e (mod n), ascending.

        Built through the CRT: an idempotent is 0 or 1 in every
        coordinate, so there are exactly 2**k of them.
        """
        return self._compose_all([[0, 1]] * self.num_primes)

    @_computed_once
    def nonzero_idempotents(self) -> tuple[int, ...]:
        return tuple(e for e in self.idempotents() if e != 0)

    @_computed_once
    def nontrivial_idempotents(self) -> tuple[int, ...]:
        return tuple(e for e in self.idempotents() if e not in (0, 1))

    @_computed_once
    def units(self) -> tuple[int, ...]:
        """All u coprime to n, ascending: in every coordinate a residue
        prime to p."""
        return self._compose_all(
            [r for r in range(q) if r % p != 0]
            for (p, _), q in zip(self.factorization, self.prime_power_moduli)
        )

    @_computed_once
    def inverses(self) -> tuple[int, ...]:
        """u^-1 for every unit u, in the order of ``units()``."""
        n = self.modulus
        return tuple(pow(u, -1, n) for u in self.units())

    def unit_count(self) -> int:
        """Euler phi from the factorization."""
        return reduce(
            lambda acc, pe: acc * (pe[0] ** pe[1] - pe[0] ** (pe[1] - 1)),
            self.factorization,
            1,
        )

    def annihilating_idempotent_count(self, e: int) -> int:
        """Number of nonzero idempotents f with e*f = 0 (mod n).

        e*f = 0 exactly when the supports of e and f are disjoint, so f
        ranges over the nonempty subsets of the coordinates where e is 0.
        """
        if not self.is_idempotent(e):
            raise ValueError(f"{e} is not idempotent mod {self.modulus}")
        zero_coords = sum(e % q == 0 for q in self.prime_power_moduli)
        return (1 << zero_coords) - 1

    @_computed_once
    def unit_partition(self) -> UnitPartition:
        return unit_partition(self)


@dataclass(frozen=True)
class UnitPartition:
    """Units of Z_n split into self-inverse ones and inverse-paired couples.

    ``ordered_units()`` lays them out as u_1..u_k with the t self-inverse
    units first and the tail arranged so that u_i * u_{k+t+1-i} = 1 for
    every i in [t+1, k].  Every isomorphism witness indexes units through
    this layout.
    """

    self_inverse: tuple[int, ...]
    paired: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.self_inverse)

    @property
    def k(self) -> int:
        return len(self.self_inverse) + len(self.paired)

    def ordered_units(self) -> tuple[int, ...]:
        return self.self_inverse + self.paired

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The inverse couples (u, u^-1) in layout order."""
        half = len(self.paired) // 2
        return tuple(
            (self.paired[j], self.paired[len(self.paired) - 1 - j])
            for j in range(half)
        )


def factorize(n: int) -> ModRing:
    """Factor n by trial division and build the ring Z_n."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    m = n
    factors: list[tuple[int, int]] = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))

    prime_powers = tuple(p**e for p, e in factors)
    basis = []
    for q in prime_powers:
        rest = n // q
        basis.append(rest * pow(rest, -1, q) % n)
    return ModRing(n, tuple(factors), prime_powers, tuple(basis))


def self_inverse_closed_form(p: int, n: int) -> tuple[int, ...]:
    """Solutions of a*a = 1 (mod p**n) in closed form.

    {1, p^n - 1} for odd p; {1, 2^(n-1)-1, 2^(n-1)+1, 2^n-1} for p = 2
    with n >= 3.  The moduli 2 and 4 fall outside both shapes and are
    tabulated explicitly.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("exponent must be >= 1")
    q = p**n
    if q == 2:
        return (1,)
    if q == 4:
        return (1, 3)
    if p == 2:
        return tuple(sorted({1, q // 2 - 1, q // 2 + 1, q - 1}))
    return (1, q - 1)


def unit_partition(ring: ModRing) -> UnitPartition:
    """Split U(Z_n), pairing the non-self-inverse units deterministically.

    The tail is filled in ascending order: a non-self-inverse unit u
    with u < u^-1 takes the next front slot and its inverse the matching
    slot from the back, which realizes u_i * u_{k+t+1-i} = 1 while
    keeping the layout reproducible.  Each couple is placed at the turn
    of its smaller member, so this is the greedy layout that gives the
    smallest unplaced unit the lowest free front slot.
    """
    n = ring.modulus
    units = ring.units()
    self_inverse = tuple(u for u in units if u * u % n == 1)

    front: list[int] = []
    back: list[int] = []
    for u in units:
        v = pow(u, -1, n)
        if u < v:
            front.append(u)
            back.append(v)
    paired = tuple(front) + tuple(reversed(back))
    return UnitPartition(self_inverse, paired)
