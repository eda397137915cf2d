from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from ecdescent.polyutil import (
    fp_roots,
    integer_roots,
    poly_eval,
    poly_gcd_q,
    poly_mul,
    poly_sqrt_monic_quartic,
    quadratic_rational_factors,
    rational_roots,
    squarefree_part_poly,
)


def poly_from_roots(roots, lead=1):
    f = [lead]
    for r in roots:
        f = poly_mul(f, [-r, 1])
    return f


def test_rational_roots_simple():
    # (x-2)(x+3)(2x-1)
    f = poly_mul(poly_from_roots([2, -3]), [-1, 2])
    assert rational_roots(f) == [Fraction(-3), Fraction(1, 2), Fraction(2)]


def test_rational_roots_huge_coefficients():
    big = 10**60 + 7
    f = poly_mul(poly_from_roots([big, -1]), [3, 5, 1])  # quadratic factor irrational
    roots = rational_roots(f)
    assert Fraction(big) in roots and Fraction(-1) in roots and len(roots) == 2


def test_rational_roots_multiplicity():
    f = poly_mul(poly_from_roots([7, 7, 7]), poly_from_roots([-2]))
    assert rational_roots(f) == [Fraction(-2), Fraction(7)]


def test_integer_roots_zero_root():
    assert integer_roots([0, 0, 1, 1]) == [-1, 0]  # x^2(x+1)


@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=4))
def test_rational_roots_catch_planted(planted):
    f = poly_from_roots([Fraction(r) for r in planted], lead=2)
    got = rational_roots(f)
    assert set(got) == {Fraction(r) for r in planted}


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


def test_poly_sqrt_quartic():
    q = [Fraction(3), Fraction(-2), Fraction(1)]
    f = poly_mul(q, q)
    assert poly_sqrt_monic_quartic(f) == q
    assert poly_sqrt_monic_quartic([1, 1, 1, 0, 1]) is None


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
