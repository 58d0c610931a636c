"""Ring arithmetic tests.

Fixed values here were frozen from independent brute-force scans
(direct e*e % n == e enumeration and gcd filters), not from the
functions under test.
"""

from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cleangraphs.cleangraph import cl1, cl2, clean_graph, closed_form_degrees
from cleangraphs.modring import (
    ModRing,
    factorize,
    is_prime,
    self_inverse_closed_form,
    unit_partition,
)

moduli = st.integers(min_value=2, max_value=400)


def brute_idempotents(n):
    return tuple(e for e in range(n) if e * e % n == e)


def brute_units(n):
    return tuple(u for u in range(n) if gcd(u, n) == 1)


# -- factorization ---------------------------------------------------------


def test_factorize_small():
    r = factorize(360)
    assert r.factorization == ((2, 3), (3, 2), (5, 1))
    assert r.prime_power_moduli == (8, 9, 5)
    assert r.modulus == 360


@pytest.mark.parametrize("bad", [1, 0, -7])
def test_factorize_rejects_small_moduli(bad):
    with pytest.raises(ValueError):
        factorize(bad)


@given(moduli)
def test_factorization_multiplies_back(n):
    r = factorize(n)
    prod = 1
    for p, e in r.factorization:
        assert is_prime(p)
        prod *= p**e
    assert prod == n


ODD_PRIMES = [p for p in range(3, 200, 2) if all(p % d for d in range(2, p))]


def test_is_prime_refuses_squares_and_products_of_odd_primes():
    # a square's only factor below its root is the root itself, so a
    # trial division that stops short of the root calls it prime
    assert all(is_prime(p) for p in ODD_PRIMES)
    assert not any(is_prime(p * p) for p in ODD_PRIMES)
    assert not any(is_prime(p * q) for p, q in combinations(ODD_PRIMES, 2))


def test_str_form():
    assert str(factorize(12)) == "Z_12 (2^2 * 3)"


# -- CRT ----------------------------------------------------------------------


@given(moduli, st.data())
def test_crt_round_trip(n, data):
    r = factorize(n)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert r._compose_all([[a % q] for q in r.prime_power_moduli]) == (a,)


# -- idempotents and units ------------------------------------------------------


def test_idempotents_of_30():
    assert factorize(30).idempotents() == (0, 1, 6, 10, 15, 16, 21, 25)


def test_nontrivial_idempotents_of_30():
    assert factorize(30).nontrivial_idempotents() == (6, 10, 15, 16, 21, 25)


@given(moduli)
def test_idempotents_match_brute_force(n):
    r = factorize(n)
    assert r.idempotents() == brute_idempotents(n)
    assert len(r.idempotents()) == 2**r.num_primes


@given(moduli)
def test_units_match_brute_force(n):
    r = factorize(n)
    assert r.units() == brute_units(n)
    assert r.unit_count() == len(r.units())


@given(moduli)
def test_inverses_match_brute_force(n):
    r = factorize(n)
    assert r.inverses() is r.inverses()
    assert r.inverses() == tuple(next(v for v in range(n) if u * v % n == 1) for u in brute_units(n))


def test_annihilating_idempotent_count_examples():
    r = factorize(30)
    # brute: nonzero idempotents f with 6*f % 30 == 0 are 10, 15, 25
    assert r.annihilating_idempotent_count(6) == 3
    assert r.annihilating_idempotent_count(1) == 0
    assert r.annihilating_idempotent_count(0) == 7
    with pytest.raises(ValueError):
        r.annihilating_idempotent_count(2)


@given(moduli, st.data())
def test_annihilating_count_matches_scan(n, data):
    r = factorize(n)
    e = data.draw(st.sampled_from(r.idempotents()))
    want = sum(1 for f in r.idempotents() if f != 0 and e * f % n == 0)
    assert r.annihilating_idempotent_count(e) == want


# -- unit partition ------------------------------------------------------------


def test_partition_layout_of_9():
    part = factorize(9).unit_partition()
    assert part.self_inverse == (1, 8)
    assert part.paired == (2, 4, 7, 5)
    assert part.ordered_units() == (1, 8, 2, 4, 7, 5)
    assert part.pairs() == ((2, 5), (4, 7))


def test_partition_layout_of_30():
    part = unit_partition(factorize(30))
    assert part.self_inverse == (1, 11, 19, 29)
    assert part.paired == (7, 17, 23, 13)


@given(moduli)
def test_partition_mirror_invariant(n):
    part = factorize(n).unit_partition()
    units = part.ordered_units()
    assert sorted(units) == list(factorize(n).units())
    k, t = part.k, part.t
    for i in range(1, k + 1):
        if i <= t:
            assert units[i - 1] ** 2 % n == 1
        else:
            j = k + t + 1 - i
            assert t < j <= k
            assert units[i - 1] * units[j - 1] % n == 1
            assert units[i - 1] ** 2 % n != 1


@given(moduli)
def test_partition_sizes(n):
    part = factorize(n).unit_partition()
    # the paired part always has even size, so k - t is even
    assert (part.k - part.t) % 2 == 0
    assert part.t >= 1


def literal_unit_partition(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(self-inverse units, paired tail) by the greedy loop: the smallest
    unplaced non-self-inverse unit takes the lowest free front slot and
    its inverse the matching slot from the back."""
    units = factorize(n).units()
    self_inverse = tuple(u for u in units if u * u % n == 1)
    rest = [u for u in units if u * u % n != 1]
    front: list[int] = []
    back: list[int] = []
    remaining = set(rest)
    for u in rest:
        if u not in remaining:
            continue
        v = pow(u, -1, n)
        remaining.discard(u)
        remaining.discard(v)
        front.append(u)
        back.append(v)
    return self_inverse, tuple(front) + tuple(reversed(back))


def test_partition_matches_the_greedy_layout():
    for n in range(2, 3001):
        part = unit_partition(factorize(n))
        assert (part.self_inverse, part.paired) == literal_unit_partition(n), n


@pytest.mark.parametrize("n", [2, 30, 360, 1155])
def test_enumerations_are_computed_once_and_leave_the_ring_value_alone(n):
    warm, cold = factorize(n), factorize(n)
    units = warm.units()
    assert warm.units() is units
    assert warm.idempotents() is warm.idempotents()
    assert warm.nonzero_idempotents() is warm.nonzero_idempotents()
    assert warm.nontrivial_idempotents() is warm.nontrivial_idempotents()
    assert warm.unit_partition() is warm.unit_partition()
    # the graph module's tables: built on the first build, kept after it
    for builder in (cl2, clean_graph, cl1, closed_form_degrees):
        builder(warm)
    tables = dict(warm._enumerated)
    assert ("pair tables", warm.nonzero_idempotents()) in tables
    assert ("pair tables", warm.idempotents()) in tables
    assert ("pair tables", (0,)) in tables
    assert "closed form" in tables
    for builder in (cl2, clean_graph, cl1, closed_form_degrees):
        builder(warm)
    assert warm._enumerated.keys() == tables.keys()
    assert all(warm._enumerated[key] is table for key, table in tables.items())
    assert warm == cold and cold == warm
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold) and str(warm) == str(cold)
    assert "pair tables" not in repr(warm) and "_enumerated" not in repr(warm)
    # the cached results are the ones a cold ring computes
    assert units == cold.units() == brute_units(n)
    assert warm.idempotents() == cold.idempotents()
    assert warm.nonzero_idempotents() == tuple(e for e in brute_idempotents(n) if e)
    assert warm.nontrivial_idempotents() == tuple(e for e in brute_idempotents(n) if e > 1)
    assert warm.unit_partition() == unit_partition(cold)
    assert cl2(warm).adj == cl2(cold).adj
    assert closed_form_degrees(warm) == closed_form_degrees(cold)


# -- closed form for square roots of one ----------------------------------------


@pytest.mark.parametrize(
    "p,m,expected",
    [
        (2, 1, (1,)),
        (2, 2, (1, 3)),
        (2, 3, (1, 3, 5, 7)),
        (2, 4, (1, 7, 9, 15)),
        (3, 2, (1, 8)),
        (7, 1, (1, 6)),
    ],
)
def test_closed_form_examples(p, m, expected):
    assert self_inverse_closed_form(p, m) == expected


def test_closed_form_rejects_bad_arguments():
    with pytest.raises(ValueError):
        self_inverse_closed_form(6, 1)
    with pytest.raises(ValueError):
        self_inverse_closed_form(3, 0)


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_closed_form_matches_scan(p, m):
    q = p**m
    if q > 100000:
        return
    brute = tuple(u for u in range(1, q) if u * u % q == 1)
    assert self_inverse_closed_form(p, m) == brute
