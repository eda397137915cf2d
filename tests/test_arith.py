import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdescent import arith
from ecdescent.arith import (
    OO,
    LocalSquareClassGroup,
    FactoringBudgetExceeded,
    SquareClass,
    factorize,
    hilbert_symbol,
    integer_root,
    is_local_square,
    is_prime,
    kronecker_symbol,
    local_class,
    local_square_rep,
    padic_valuation,
    square_class,
    squarefree_part,
)
from oracles import hilbert_places

nonzero_ints = st.integers(min_value=-1000, max_value=1000).filter(lambda n: n != 0)


def test_integer_root():
    assert integer_root(49, 2) == 7
    assert integer_root(48, 2) is None
    assert integer_root(1, 2) == 1
    assert integer_root(2**12, 12) == 2
    assert integer_root(15**12, 12) == 15
    assert integer_root(2**12 + 1, 12) is None
    assert integer_root(2**12 - 1, 12) is None
    for n in (0, -1, -8, -27):
        assert integer_root(n, 3) is None
        assert integer_root(n, 2) is None
    assert integer_root(10**36, 3) == 10**12
    assert integer_root(10**36, 2) == 10**18
    assert integer_root(10**36, 12) == 1000
    for n in (10**36 - 1, 10**36 + 1):
        for k in (2, 3, 12):
            assert integer_root(n, k) is None


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=10**20), st.integers(min_value=2, max_value=13))
def test_integer_root_of_powers(r, k):
    n = r**k
    assert integer_root(n, k) == r
    # consecutive k-th powers of positive integers are at least 3 apart
    assert integer_root(n + 1, k) is None
    assert r == 1 or integer_root(n - 1, k) is None


def test_factorize_small():
    assert factorize(24) == [(2, 3), (3, 1)]
    assert factorize(-1) == []
    assert factorize(1) == []
    # 11^2 + 4 = 125, the non-prime case of the A^2+4 family
    assert factorize(11**2 + 4) == [(5, 3)]


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_product_property():
    for n in [-360, 97, 2**20 + 1, 600851475143, -(2**31 - 1) * 3]:
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            prod *= p**e
        assert prod * (1 if n > 0 else -1) == n
        assert [p for p, _ in fac] == sorted(p for p, _ in fac)


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and 13 prime bases
PSI12 = (399165290221, 798330580441)
PSI13 = (1287836182261, 2575672364521)


#: two 20-digit primes; Pollard rho would need about 10^10 steps to split their product
P20, Q20 = 10000000000000000051, 30000000000000000041


def test_factorize_gives_up_on_a_product_of_two_large_primes():
    assert is_prime(P20) and is_prime(Q20)
    t0 = time.perf_counter()
    with pytest.raises(FactoringBudgetExceeded, match=str(P20 * Q20)):
        factorize(P20 * Q20)
    assert time.perf_counter() - t0 < 5


def test_is_prime_beyond_the_miller_rabin_bound():
    for p, q in (PSI12, PSI13):
        assert is_prime(p) and is_prime(q)
        assert not is_prime(p * q)
        assert factorize(p * q) == [(p, 1), (q, 1)]
    for e in (89, 107, 127):  # Mersenne primes above psi_12
        assert is_prime(2**e - 1)
    assert not is_prime((2**89 - 1) * (2**61 - 1))
    assert not is_prime((2**89 - 1) ** 2)


def test_strong_lucas_pseudoprimes():
    # the odd composites below 30000 that pass the Selfridge strong Lucas test
    passed = [n for n in range(7, 30_000, 2) if not is_prime(n) and arith._strong_lucas(n)]
    assert passed == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
    assert all(arith._strong_lucas(p) for p in arith.SMALL_PRIMES if p > 5)


def test_padic_valuation():
    assert padic_valuation(16, 2) == 4
    assert padic_valuation(1, 7) == 0
    lam = Fraction(16 * 1**2 - 3**2, 16 * 3**2)
    assert padic_valuation(lam, 3) == -2


@given(nonzero_ints, nonzero_ints, st.sampled_from([2, 3, 5, 7, 13]))
def test_valuation_additive(x, y, p):
    assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)


@given(
    st.integers(min_value=-(10**12), max_value=10**12).filter(lambda n: n != 0),
    st.sampled_from([2, 3, 5, 7]),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=0, max_value=6),
)
def test_integer_and_fraction_inputs_agree(n, p, ell, k):
    # the int fast path and the Fraction path give the same valuation and class
    assert padic_valuation(Fraction(n), p) == padic_valuation(n, p)
    assert padic_valuation(Fraction(n, ell**k), p) == padic_valuation(n, p) - (k if ell == p else 0)
    assert local_square_rep(Fraction(n), p) == local_square_rep(n, p)
    assert local_square_rep(Fraction(n, ell**k), p) == local_square_rep(n * ell**k, p)


def test_kronecker_vs_bruteforce():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 101, 199]:
        residues = {x * x % p for x in range(1, p)}
        for a in range(0, p):
            expect = 0 if a % p == 0 else (1 if a % p in residues else -1)
            assert kronecker_symbol(a, p) == expect, (a, p)


def test_kronecker_known_values():
    # (2|q) = 1 whenever q = -1 mod 8
    for q in [7, 23, 31, 47, 71]:
        assert kronecker_symbol(2, q) == 1
    # (-1|p) = -1 for p = 3 mod 4
    for p in [3, 7, 11, 19]:
        assert kronecker_symbol(-1, p) == -1
    # (4|l) = 1 for every odd prime l
    for l in [3, 5, 7, 11, 97]:
        assert kronecker_symbol(4, l) == 1


@given(nonzero_ints, nonzero_ints, nonzero_ints)
def test_kronecker_multiplicative(a, b, n):
    assert kronecker_symbol(a * b, n) == kronecker_symbol(a, n) * kronecker_symbol(b, n)


def test_hilbert_known_values():
    assert hilbert_symbol(1, -2, 2) == 1
    assert hilbert_symbol(-1, -1, OO) == -1
    # square-class invariance
    for place in [2, 3, 5, OO]:
        assert hilbert_symbol(3, 9 * 7, place) == hilbert_symbol(3, 7, place)


def test_hilbert_vs_bruteforce_small_odd():
    for p in [3, 5]:
        for a in [1, 2, 3, 5, -1, -3, 6]:
            for b in [1, 2, 3, -5, 15]:
                assert hilbert_symbol(a, b, p) == _hilbert_solvable(a, b, p), (a, b, p)


def test_hilbert_solvability_mod_64_at_2():
    # cross-check the closed form at 2 against solvability modulo 2^6
    for a in [1, -1, 2, -2, 5, 10, 3]:
        for b in [1, -1, 2, 5, -5, 7]:
            assert hilbert_symbol(a, b, 2) == _hilbert_solvable(a, b, 2), (a, b)


@settings(max_examples=60)
@given(nonzero_ints, nonzero_ints)
def test_hilbert_reciprocity(a, b):
    prod = 1
    for v in hilbert_places(a, b):
        prod *= hilbert_symbol(a, b, v)
    assert prod == 1


@settings(max_examples=60)
@given(nonzero_ints, nonzero_ints, st.sampled_from([2, 3, 7, OO]))
def test_hilbert_symmetric(a, b, v):
    assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)


def test_square_class_basics():
    assert square_class(4).rep == 1
    assert square_class(-8).rep == -2
    # 16 d^6 B^2 (A^2-4B) has the class of A^2-4B
    A, B, d = 7, -3, -5
    assert square_class(16 * d**6 * B**2 * (A**2 - 4 * B)) == square_class(A**2 - 4 * B)


@given(nonzero_ints, nonzero_ints)
def test_square_class_homomorphism(x, y):
    assert square_class(x * y) == square_class(x) * square_class(y)


@given(nonzero_ints, nonzero_ints, nonzero_ints)
def test_square_class_product_with_shared_factors(x, y, g):
    assert square_class(g * x) * square_class(g * y) == square_class(g * x * g * y)


def test_square_class_is_self_inverse():
    c = square_class(-30)
    assert (c * c).is_trivial
    with pytest.raises(ValueError):
        SquareClass(12)


def test_squarefree_part():
    assert squarefree_part(720) == 5
    assert squarefree_part(-720) == -5
    assert squarefree_part(1) == 1


def test_local_square_groups():
    assert len(LocalSquareClassGroup.full(7)) == 4
    assert len(LocalSquareClassGroup.full(2)) == 8
    assert LocalSquareClassGroup.full(2).elements == {1, -1, 2, -2, 5, -5, 10, -10}
    assert len(LocalSquareClassGroup.full(OO)) == 2
    assert LocalSquareClassGroup.full(7).classes == {0, 1, 2, 3}
    g = LocalSquareClassGroup(2, frozenset({0, 0b100}))  # bit 2: u = +-3 mod 8
    assert g.elements == {1, 5}
    assert g.dim == 1
    assert g.is_subgroup()
    assert 5 in g and Fraction(45, 4) in g and -5 not in g and 2 not in g


def test_local_square_rep():
    assert local_square_rep(17, 2) == 1
    assert local_square_rep(Fraction(3, 50), 2) == -10  # 3*50 = 150 = 2*75, 75=3 mod 8
    assert is_local_square(Fraction(9, 49), 7)
    assert not is_local_square(7, 7)
    assert local_square_rep(-4, OO) == -1


def test_local_rep_consistency_with_hilbert():
    # q is a local square iff (q, n) = 1 for all n -- spot check via symbols
    for q in [5, -5, 17, 2, 50]:
        for p in [2, 3, 5]:
            if is_local_square(q, p):
                for n in [-1, 2, 3, 5]:
                    assert hilbert_symbol(q, n, p) == 1


def _seeded_rationals(rng, count):
    # signed, with every small prime to exponents 0..3 and a random cofactor
    for _ in range(count):
        num = rng.choice([-1, 1]) * rng.randint(1, 10**6) * 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 3)
        yield Fraction(num, rng.randint(1, 500) * 5 ** rng.randint(0, 3) * 7 ** rng.randint(0, 3))


@pytest.mark.parametrize("place", [2, 3, 5, 7, OO])
def test_local_class_is_a_homomorphism(place):
    rng = random.Random(19)
    pairs = list(zip(_seeded_rationals(rng, 500), _seeded_rationals(rng, 500)))
    for a, b in pairs:
        assert local_class(a * b, place) == local_class(a, place) ^ local_class(b, place), (a, b)
        # the rep lies in the class it stands for
        assert local_class(local_square_rep(a, place), place) == local_class(a, place), a
    assert {local_class(a, place) for a, _ in pairs} == set(range(len(LocalSquareClassGroup.full(place))))


@pytest.mark.parametrize("place", [2, 3, 5, 7, 11, OO])
def test_local_class_to_rep_is_a_bijection(place):
    full = LocalSquareClassGroup.full(place).elements
    assert sorted(local_class(r, place) for r in full) == list(range(len(full)))
    assert all(local_square_rep(r, place) == r for r in full)


def _hilbert_solvable(a, b, p):
    # z^2 = a x^2 + b y^2 with (x, y) primitive: up to a unit scaling, (1, y)
    # or (p t, 1), read modulo p^k; for |v(a)|, |v(b)| <= 1 a spurious square
    # mod p^k needs the form to nearly represent 0, where the symbol is 1
    if p == OO:
        return 1 if a > 0 or b > 0 else -1
    mod = p ** (6 if p == 2 else 4)
    squares = {z * z % mod for z in range(mod)}
    points = [(1, y) for y in range(mod)] + [(p * t, 1) for t in range(mod // p)]
    return 1 if any((a * x * x + b * y * y) % mod in squares for x, y in points) else -1


def test_hilbert_symbol_matches_solvability_on_every_class_pair():
    for place in [2, 3, 5, 7, OO]:
        reps = sorted(LocalSquareClassGroup.full(place).elements)
        for a, b in itertools.product(reps, repeat=2):
            assert hilbert_symbol(a, b, place) == _hilbert_solvable(a, b, place), (a, b, place)


@pytest.mark.parametrize("place", [2, 3, OO])
def test_is_subgroup_on_every_subset(place):
    # the XOR closure of the bitmasks, against closure of the reps under products of integers
    full = sorted(LocalSquareClassGroup.full(place).classes)
    for k in range(len(full) + 1):
        for subset in itertools.combinations(full, k):
            grp = LocalSquareClassGroup(place, frozenset(subset))
            reps = grp.elements
            want = 1 in reps and all(local_square_rep(x * y, place) in reps for x in reps for y in reps)
            assert grp.is_subgroup() == want, subset
