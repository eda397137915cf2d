import math
import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from ecdescent import polyutil
from ecdescent.polyutil import (
    AUX_PRIMES,
    fp_roots,
    poly_eval,
    poly_gcd_q,
    poly_mul,
    rational_roots,
    squarefree_part_poly,
)
from oracles import quadratic_rational_factors


def poly_from_roots(roots, lead=1):
    f = [lead]
    for r in roots:
        f = poly_mul(f, [-r, 1])
    return f


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(polyutil, name)
    monkeypatch.setattr(polyutil, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_rational_roots_simple(monkeypatch):
    # (x-2)(x+3)(2x-1) is squarefree mod 31: no gcd over Q
    gcd_calls = _count_calls(monkeypatch, "poly_gcd_q")
    f = poly_mul(poly_from_roots([2, -3]), [-1, 2])
    assert rational_roots(f) == [Fraction(-3), Fraction(1, 2), Fraction(2)]
    assert gcd_calls == []


def test_rational_roots_huge_coefficients():
    big = 10**60 + 7
    f = poly_mul(poly_from_roots([big, -1]), [3, 5, 1])  # quadratic factor irrational
    roots = rational_roots(f)
    assert Fraction(big) in roots and Fraction(-1) in roots and len(roots) == 2


def test_rational_roots_multiplicity(monkeypatch):
    # (x-7)^3(x+2) is squarefree mod no prime: it must reach the gcd over Q
    gcd_calls = _count_calls(monkeypatch, "poly_gcd_q")
    f = poly_mul(poly_from_roots([7, 7, 7]), poly_from_roots([-2]))
    assert rational_roots(f) == [Fraction(-2), Fraction(7)]
    assert gcd_calls
    assert rational_roots([0, 0, 1, 1]) == [Fraction(-1), Fraction(0)]  # x^2(x+1)


@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=4))
def test_rational_roots_catch_planted(planted):
    f = poly_from_roots([Fraction(r) for r in planted], lead=2)
    got = rational_roots(f)
    assert set(got) == {Fraction(r) for r in planted}


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def rational_roots_oracle(f):
    """Rational root theorem: every root u/w in lowest terms of an integer
    polynomial with f(0) != 0 has u | f(0) and w | lead(f)."""
    f = list(f)
    while f[-1] == 0:
        f.pop()
    roots = set()
    if f[0] == 0:
        roots.add(Fraction(0))
        while f[0] == 0:
            f = f[1:]
    n = len(f) - 1
    for u in _divisors(f[0]):
        for w in _divisors(f[-1]):
            if math.gcd(u, w) == 1:
                for v in (u, -u):
                    # w^n f(v/w), on integers
                    if sum(c * v**i * w ** (n - i) for i, c in enumerate(f)) == 0:
                        roots.add(Fraction(v, w))
    return sorted(roots)


def _random_poly(rng, degree):
    f = [rng.randint(-200, 200) for _ in range(degree)] + [rng.choice([-1, 1]) * rng.randint(1, 200)]
    return f if any(f) else [1]


def _oracle_cases():
    rng = random.Random(20260118)
    cases = [_random_poly(rng, rng.randint(1, 6)) for _ in range(150)]
    for _ in range(60):
        # planted roots u/w, integral or not, times a random cofactor
        f = _random_poly(rng, rng.randint(0, 3))
        for _ in range(rng.randint(1, 3)):
            f = poly_mul(f, [rng.randint(-12, 12), rng.randint(1, 9)])
        cases.append(f)
    for _ in range(40):
        # repeated factors
        h = _random_poly(rng, rng.randint(1, 2))
        cases.append(poly_mul(poly_mul(h, h), _random_poly(rng, rng.randint(0, 2))))
    for _ in range(40):
        # leading coefficient divisible by small auxiliary primes, 31-97
        lead = math.prod(rng.sample(AUX_PRIMES[:15], rng.randint(1, 3)))
        f = poly_mul([rng.randint(-12, 12), lead], _random_poly(rng, rng.randint(1, 3)))
        cases.append(f)
    cases.append(poly_mul(poly_from_roots([7, 7, 7]), poly_from_roots([-2])))
    return cases


def test_rational_roots_match_rational_root_theorem_oracle():
    for f in _oracle_cases():
        expected = rational_roots_oracle(f)
        assert rational_roots(f) == expected, f
        assert rational_roots([Fraction(c, 6) for c in f]) == expected, f


def test_rational_roots_falls_back_to_large_prime(monkeypatch):
    # the discriminant P^2 of (x - 1)(x - 1 - P) rules out the first 15
    # primes, at each of which 1 is a double root; each costs one evaluation
    gcd_calls = _count_calls(monkeypatch, "poly_gcd_q")
    fp_calls = _count_calls(monkeypatch, "fp_roots")
    P = math.prod(AUX_PRIMES[:15])
    f = poly_from_roots([1, 1 + P])
    assert rational_roots(f) == [Fraction(1), Fraction(1 + P)]
    assert AUX_PRIMES[15] == 101
    assert gcd_calls == [] and [p for _, p in fp_calls] == list(AUX_PRIMES[:16])


def test_rational_roots_searches_the_rest_after_stripping(monkeypatch):
    # every one of the 25 first-stage primes 31-149 divides the discriminant
    # P^2: the polynomial is stripped over Q and the search goes on from 151
    gcd_calls = _count_calls(monkeypatch, "poly_gcd_q")
    fp_calls = _count_calls(monkeypatch, "fp_roots")
    P = math.prod(AUX_PRIMES[:25])
    f = poly_from_roots([1, 1 + P])
    assert rational_roots(f) == [Fraction(1), Fraction(1 + P)]
    assert gcd_calls and [p for _, p in fp_calls] == list(AUX_PRIMES[:25]) + [151]


def test_rational_roots_accepts_a_prime_where_only_the_irrational_factor_repeats(monkeypatch):
    # (x^2 + 1)^2 (2x - 3) is not squarefree, but x^2 + 1 has no root mod
    # 31 = 3 mod 4, and the one root 3/2 mod 31 is simple: no stripping
    gcd_calls = _count_calls(monkeypatch, "poly_gcd_q")
    fp_calls = _count_calls(monkeypatch, "fp_roots")
    f = poly_mul(poly_mul([1, 0, 1], [1, 0, 1]), [-3, 2])
    assert rational_roots(f) == [Fraction(3, 2)] == rational_roots_oracle(f)
    assert gcd_calls == [] and [p for _, p in fp_calls] == [31]


def test_rational_roots_strips_a_repeated_rational_root(monkeypatch):
    # 2 is a double root of (x - 2)^2 (x + 5) mod every prime, so all 25
    # first-stage primes are tried; the stripped (x - 2)(x + 5) has
    # discriminant 49 and passes at 151, the first prime after them
    gcd_calls = _count_calls(monkeypatch, "poly_gcd_q")
    fp_calls = _count_calls(monkeypatch, "fp_roots")
    f = poly_from_roots([2, 2, -5])
    assert rational_roots(f) == [Fraction(-5), Fraction(2)] == rational_roots_oracle(f)
    assert gcd_calls and [p for _, p in fp_calls] == list(AUX_PRIMES[:25]) + [151]


def test_fp_roots_small_and_large():
    # x^3 - 1 over F_7: roots 1, 2, 4
    assert fp_roots([-1, 0, 0, 1], 7) == [1, 2, 4]
    p = 10007
    f = poly_from_roots([5, 17, p - 3])
    assert fp_roots(f, p) == sorted([5, 17, p - 3])


def test_squarefree_part_poly():
    f = poly_mul(poly_from_roots([1, 1, 2]), [3])
    g = squarefree_part_poly(f)
    assert sorted(rational_roots(g)) == [Fraction(1), Fraction(2)]
    assert len(g) == 3


def test_squarefree_part_check_holds_under_optimize(run_optimized):
    script = (
        "from ecdescent import polyutil\n"
        "polyutil.poly_gcd_q = lambda f, g: [1, 1]  # x + 1 does not divide x^2\n"
        "try:\n"
        "    polyutil.squarefree_part_poly([0, 0, 1])\n"
        "except ArithmeticError:\n"
        "    print('raised')\n"
    )
    assert run_optimized(script) == ["raised"]


def test_poly_gcd():
    f = poly_from_roots([1, 2, 3])
    g = poly_from_roots([2, 3, 5])
    d = poly_gcd_q(f, g)
    assert d == [Fraction(6), Fraction(-5), Fraction(1)]  # (x-2)(x-3)


def test_quadratic_factors_of_quartic():
    f = poly_mul([2, 0, 1], [5, 1, 1])  # (x^2+2)(x^2+x+5)
    facs = quadratic_rational_factors(f)
    assert sorted(facs) == sorted([[Fraction(2), Fraction(0), Fraction(1)], [Fraction(5), Fraction(1), Fraction(1)]])


def test_quadratic_factors_strips_linear():
    f = poly_mul(poly_from_roots([1]), [7, 0, 1])
    assert quadratic_rational_factors(f) == [[Fraction(7), Fraction(0), Fraction(1)]]


def test_quartic_irreducible_gives_nothing():
    # x^4 + x + 1 is irreducible over Q
    assert quadratic_rational_factors([1, 1, 0, 0, 1]) == []
