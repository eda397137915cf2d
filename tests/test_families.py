import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from ecdescent import arith, families, polyutil, weierstrass
from ecdescent.arith import is_prime, square_class
from ecdescent.families import (
    FAMILIES,
    SingularParameterError,
    TorsionGroup,
    build_curve,
    count_points_mod_p,
    division_poly,
    halve_point,
    points_of_order_n,
    torsion_growth,
    torsion_order_bound,
    torsion_subgroup,
    two_torsion_points,
    z2_point,
    z2z2_point,
    z2z4_point,
    z2z6_point,
    z2z6_uv,
    z3_normalize,
    z3_point,
    z4_point,
)
from ecdescent.tate import global_data
from ecdescent.weierstrass import CoordinateChange, WeierstrassModel, change_variables, point_mul, point_order
import oracles
from oracles import (
    ADVERTISED,
    count_points_kronecker,
    j_invariant,
    torsion_points_lutz_nagell,
    z3_normalize_reference,
    z3_point_reference,
)


def W(*a):
    return WeierstrassModel.from_ainvs(a)


def _has_subgroup(structure, sub):
    """Does Z/n1 x Z/n2 contain Z/m1 x Z/m2 (n1 | n2, m1 | m2)?"""
    return structure[0] % sub[0] == 0 and structure[1] % sub[1] == 0


def test_z2z6_discriminant_closed_form():
    for S, T in [(1, 7), (2, 1), (3, -2), (5, 4)]:
        u = (T - 3 * S) * (T + 3 * S)
        v = 2 * S * (5 * S - T)
        w = W(u - v, -v * (v + u), -u * v * (v + u), 0, 0)
        expected = (
            2**6
            * S**6
            * (5 * S - T) ** 6
            * (S - T) ** 6
            * (T - 3 * S) ** 2
            * (T + 3 * S) ** 2
            * (9 * S - T) ** 2
        )
        assert w.discriminant == expected
        # the normalized coprime model is isomorphic (disc differs by g^12)
        g = abs(u * v) // abs(z2z6_uv(S, T)[0] * z2z6_uv(S, T)[1])
        wn = build_curve(z2z6_point(S, T))
        assert wn.discriminant * Fraction(g) ** 6 == w.discriminant or j_invariant(wn) == j_invariant(w)


def test_z3_discriminant():
    for a, b in [(1, 1), (5, 2), (-4, 3)]:
        w = build_curve(z3_point(a, b))
        assert w.discriminant == b**3 * (a**3 - 27 * b)


def test_z4_beta_pm_1():
    # beta = -1 gives conductor 15, beta = 1 gives conductor 17
    assert global_data(build_curve(z4_point(-1))).conductor == 15
    assert global_data(build_curve(z4_point(1))).conductor == 17


def test_singular_parameters_signal():
    with pytest.raises(SingularParameterError):
        z4_point(-16)
    with pytest.raises(SingularParameterError):
        z2_point(2, 1)
    with pytest.raises(SingularParameterError):
        z3_point(3, 1)
    with pytest.raises(SingularParameterError):
        z2z6_point(1, 5)


def test_family_invariant_checks():
    with pytest.raises(ValueError):
        z2z4_point(2, 4)
    with pytest.raises(ValueError):
        z2z4_point(1, 4)
    with pytest.raises(ValueError):
        z2z6_point(2, 4)
    with pytest.raises(ValueError):
        z3_point(3, 27)


def test_z2z2_normalization():
    # repeatedly divide by p^2 until min(ord_p a, ord_p b) <= 1
    assert z2z2_point(9 * 4, 9 * 8).params == (1, 2)
    assert z2z2_point(2, 4).params == (2, 4)
    assert z2z2_point(12, 3).params == (12, 3)
    from ecdescent.arith import padic_valuation

    for a, b in [z2z2_point(16, 48).params, z2z2_point(250, 150).params]:
        for p in (2, 3, 5):
            assert min(padic_valuation(a, p), padic_valuation(b, p)) <= 1
    # one pass over the primes of gcd(a, b) reaches the same fixed point
    rng = random.Random(7)
    for _ in range(500):
        m2 = rng.randint(1, 30) ** 2
        a, b = rng.randint(-40, 40) * m2, rng.randint(-40, 40) * m2
        if a == b or 0 in (a, b):
            continue
        a2, b2 = z2z2_point(a, b).params
        assert a % a2 == 0 and math.isqrt(a // a2) ** 2 == a // a2 and a2 * b == a * b2
        assert all(a2 % (p * p) or b2 % (p * p) for p, _ in arith.factorize(math.gcd(a2, b2)))


def test_division_poly_values():
    w = W(0, 0, 1, -1, 0)  # 37a1
    f3 = division_poly(w, 3)
    # psi_3 = 3x^4 + b2 x^3 + 3 b4 x^2 + 3 b6 x + b8
    assert f3 == [w.b8, 3 * w.b6, 3 * w.b4, w.b2, 3]
    # degree of f_n is (n^2-1)/2 for odd n, (n^2-4)/2 for even n
    assert len(division_poly(w, 5)) - 1 == 12
    assert len(division_poly(w, 7)) - 1 == 24
    assert len(division_poly(w, 4)) - 1 == 6


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 6, 8])
def test_division_poly_refuses_other_n(n):
    with pytest.raises(ValueError):
        division_poly(W(0, 0, 1, -1, 0), n)


def test_division_polys_give_x_of_4p_and_6p():
    # x(nP) = x - psi_{n-1} psi_{n+1} / psi_n^2 with psi_4^2 = F f_4^2 and
    # psi_6^2 = f_3^2 F (f_5 - f_4^2)^2, F = psi_2^2; judged by point_mul
    rng = random.Random(30)
    checked = 0
    while checked < 60:
        a1, a2, a3, a4 = (rng.randint(-6, 6) for _ in range(4))
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        a6 = y * y + a1 * x * y + a3 * y - ((x + a2) * x + a4) * x
        w = W(a1, a2, a3, a4, a6)
        if w.is_singular or point_order(w, (x, y), 12):
            continue  # by Mazur a rational torsion point has order at most 12
        f3, f4, f5, f7 = (polyutil.poly_eval(division_poly(w, n), x) for n in (3, 4, 5, 7))
        F = polyutil.poly_eval(w.two_division_poly(), x)
        assert point_mul(w, 4, (x, y))[0] == x - Fraction(f3 * f5, F * f4 * f4), (w, x, y)
        assert point_mul(w, 6, (x, y))[0] == x - Fraction(f5 * f7, f3 * f3 * F * (f5 - f4 * f4) ** 2), (w, x, y)
        checked += 1


def test_torsion_z3_family():
    for a, b in [(1, 1), (0, 1), (5, 3), (-2, 1)]:
        fp = z3_point(a, b)
        w = build_curve(fp)
        tg = torsion_subgroup(w)
        assert _has_subgroup(tg.structure, (1, 3))
        P = (Fraction(0), Fraction(0))
        assert w.contains(*P)
        assert points_of_order_n(w, 3)


def test_torsion_advertised_groups():
    cases = {
        z2z4_point(1, 3): (2, 4),
        z2z4_point(2, 1): (2, 4),
        z4_point(2): (1, 4),
        z4_point(-3): (1, 4),
        z2z2_point(3, 5): (2, 2),
        z2_point(4, 7): (1, 2),
        z2z6_point(1, 7): (2, 6),
        z3_point(2, 1): (1, 3),
    }
    for fp, expected in cases.items():
        tg = torsion_subgroup(build_curve(fp))
        assert _has_subgroup(tg.structure, expected), (fp, tg.structure)


def test_torsion_well_known_curves():
    # 11a1: Z/5
    assert torsion_subgroup(W(0, -1, 1, -10, -20)).structure == (1, 5)
    # 37a1: trivial
    assert torsion_subgroup(W(0, 0, 1, -1, 0)).structure == (1, 1)
    # the beta = -1 member of the Z/4 family (conductor 15): Z/4
    assert torsion_subgroup(W(-1, 1, -1, 0, 0)).structure == (1, 4)
    # 15a3 has Z/2+Z/4 (the p^z = 3 member of the exceptional family)
    assert torsion_subgroup(W(3, -1, -3, 0, 0)).structure == (2, 4)
    # y^2 = x^3 - x: full 2-torsion
    assert torsion_subgroup(W(0, 0, 0, -1, 0)).structure == (2, 2)
    # 15a1 = [1,1,1,-10,-10] has Z/2+Z/4? it has torsion order 8
    tg = torsion_subgroup(W(1, 1, 1, -10, -10))
    assert tg.order == 8


def test_torsion_order_bound_is_multiple():
    for ainvs in [(0, -1, 1, -10, -20), (1, 1, 1, -10, -10), (0, 0, 1, -1, 0)]:
        w = W(*ainvs)
        bound = torsion_order_bound(w)
        assert bound % torsion_subgroup(w).order == 0


def test_generators_have_exact_orders():
    w = W(1, 1, 1, -10, -10)
    tg = torsion_subgroup(w)
    from ecdescent.weierstrass import point_order

    for P, k in tg.generators:
        assert point_order(tg.model, P, k) == k
    assert torsion_points_lutz_nagell(w).order == tg.order


def _kubert(b, c):
    # Tate normal form y^2 + (1-c)xy - by = x^3 - bx^2
    return W(1 - c, -b, -b, 0, 0)


def _draw(make, count):
    out = []
    while len(out) < count:
        try:
            out.append(build_curve(make()))
        except (ValueError, SingularParameterError):
            pass
    return out


def _odd_bound_curves(rng, count):
    out = []
    while len(out) < count:
        w = W(*(rng.randint(-9, 9) for _ in range(5)))
        if not w.is_singular and torsion_order_bound(w) % 2:
            out.append(w)
    return out


def test_lutz_nagell_oracle_agreement():
    # a seeded sample of every torsion shape the audit routes, plus curves
    # whose order bound is odd (no 2-torsion search runs on those)
    rng = random.Random(20260118)
    samples = {
        "z2z4": _draw(lambda: z2z4_point(rng.randint(1, 6), rng.randint(1, 6)), 3),
        "z4": _draw(lambda: z4_point(rng.choice([-1, 1]) * rng.randint(1, 20)), 3),
        "z2z2": _draw(lambda: z2z2_point(rng.randint(-12, 12), rng.randint(-12, 12)), 3),
        "z2": _draw(lambda: z2_point(rng.randint(-12, 12), rng.randint(-12, 12)), 3),
        "z2z6": _draw(lambda: z2z6_point(rng.randint(1, 4), rng.randint(-6, 6)), 3),
        "z3": _draw(lambda: z3_point(rng.randint(-30, 30), 1), 3),
        "z3b": _draw(lambda: z3_point(rng.randint(-10, 10), rng.randint(2, 10)), 3),
        "kubert5": [_kubert(t, t) for t in rng.sample([2, 3, 4, 5, 6, -2, -3, -4, -5], 3)],
        "kubert6": [_kubert(t + t * t, t) for t in rng.sample([2, 3, 4, 5, -2, -3, -4, -5], 3)],
        "z7": [W(1, -1, 1, -3, 3)],  # 26b1
        "z9": [W(1, -1, 1, -14, 29)],  # 54b3
        "odd bound": _odd_bound_curves(rng, 6),
        "known": [
            W(0, -1, 1, -10, -20),
            W(1, 1, 1, -10, -10),
            W(0, 0, 1, 0, 0),
            W(-1, 1, 1, 0, 0),
            W(0, 1, 0, -1, 0),
            W(0, 0, 0, -1, 0),
            W(1, 0, 0, -1, 0),
        ],
    }
    structures = set()
    for shape, models in samples.items():
        for w in models:
            tg = torsion_subgroup(w)
            assert torsion_points_lutz_nagell(w).structure == tg.structure, (shape, w)
            structures.add(tg.structure)
    for expected in [(2, 4), (1, 4), (2, 2), (1, 2), (2, 6), (1, 3), (1, 5), (1, 6), (1, 7), (1, 9), (1, 1)]:
        assert expected in structures


def test_torsion_needs_no_gcd_over_q(monkeypatch):
    # the division polynomials of these curves are squarefree mod a small
    # auxiliary prime, so rational_roots never falls back to the Q-gcd
    calls = []
    real = polyutil.poly_gcd_q
    monkeypatch.setattr(polyutil, "poly_gcd_q", lambda f, g: calls.append(1) or real(f, g))
    cases = {
        (0, -1, 1, -10, -20): (1, 5),  # 11a1
        (1, 1, 1, -10, -10): (2, 4),  # 15a1
        (1, -1, 1, -3, 3): (1, 7),  # 26b1
        (1, -1, 1, -14, 29): (1, 9),  # 54b3
    }
    for ainvs, structure in cases.items():
        assert torsion_subgroup(W(*ainvs)).structure == structure
    assert calls == []


def test_torsion_runs_on_ints(monkeypatch):
    # the point counts read a table of squares, not a Kronecker symbol per
    # residue, and every exact-order check of a generator adds on ints
    kron, counting, int_terms, int_adds, orders = [], [], [], [], []
    real_kron, real_count = arith.kronecker_symbol, families.count_points_mod_p
    real_add, real_order, real_exact = weierstrass.point_add, families.point_order, weierstrass._exact

    def kronecker(a, n):
        kron.append(bool(counting))
        return real_kron(a, n)

    def count(w, p):
        counting.append(p)
        try:
            return real_count(w, p)
        finally:
            counting.pop()

    def exact(x):
        int_terms.append(type(x) is int)
        return real_exact(x)

    def add(w, P, Q):
        # the four coordinates, and the sum's when it is affine, reach the
        # normalizer as ints, and the model's five coefficients are ints
        del int_terms[:]
        R = real_add(w, P, Q)
        terms = int_terms + [type(a) is int for a in w.ainvs]
        int_adds.append(len(int_terms) == (4 if R is None else 6) and all(terms))
        return R

    def order(w, P, bound=17):
        del int_adds[:]
        n = real_order(w, P, bound)
        orders.append((P, bound, w.is_integral, list(int_adds)))
        return n

    monkeypatch.setattr(arith, "kronecker_symbol", kronecker)
    monkeypatch.setattr(families, "kronecker_symbol", kronecker, raising=False)
    monkeypatch.setattr(families, "count_points_mod_p", count)
    monkeypatch.setattr(weierstrass, "point_add", add)
    monkeypatch.setattr(weierstrass, "_exact", exact)
    monkeypatch.setattr(families, "point_order", order)
    cases = {
        (0, -1, 1, -10, -20): (1, 5),  # 11a1
        (1, 1, 1, -10, -10): (2, 4),  # 15a1
        (1, -1, 1, -3, 3): (1, 7),  # 26b1
        (1, -1, 1, -14, 29): (1, 9),  # 54b3
    }
    for ainvs, structure in cases.items():
        del orders[:]
        tg = torsion_subgroup(W(*ainvs))
        assert tg.structure == structure
        gen, n = tg.generators[-1]
        # n - 1 additions reach O, each on int coordinates of an int model
        assert [c for c in orders if c[:2] == (gen, n)] == [(gen, n, True, [True] * (n - 1))], ainvs
    assert True not in kron


def test_point_counts_match_the_kronecker_sum():
    rng = random.Random(20261019)
    primes = [p for p in range(3, 3000) if is_prime(p)]
    done = 0
    while done < 120:
        w = W(*(rng.randint(-50, 50) for _ in range(5)))
        p = rng.choice(primes)
        if w.discriminant == 0 or w.discriminant % p == 0:
            continue
        assert count_points_mod_p(w, p) == count_points_kronecker(w, p), (w, p)
        done += 1


def test_random_family_sweep_contains_advertised():
    rng = random.Random(20240811)
    builders = {
        "z2z4": lambda: z2z4_point(rng.randint(1, 30), rng.randint(1, 30)),
        "z4": lambda: z4_point(rng.randint(-30, 30)),
        "z2z2": lambda: z2z2_point(rng.randint(-40, 40), rng.randint(-40, 40)),
        "z2": lambda: z2_point(rng.randint(-30, 30), rng.randint(-15, 15)),
        "z2z6": lambda: z2z6_point(rng.randint(1, 12), rng.randint(-12, 12)),
        "z3": lambda: z3_point(rng.randint(-20, 20), rng.randint(1, 10)),
    }
    for fam, make in builders.items():
        done = 0
        while done < 12:
            try:
                fp = make()
            except (ValueError, SingularParameterError):
                continue
            w = build_curve(fp)
            tg = torsion_subgroup(w)
            assert _has_subgroup(tg.structure, ADVERTISED[fp.family]), (fp, tg.structure)
            done += 1


def test_halve_point_at_two_torsion_matches_the_halving_quadratic_reference():
    # the halves x(T) +- sqrt(F'(x(T)))/2 against the points over the roots
    # of q_T, the square root of phi_2 - x(T) F, at every rational T of
    # order 2 of seeded family members and random models, every fifth of
    # them moved to a non-integral model
    rng = random.Random(26)
    makers = [
        (200, lambda: build_curve(z2z4_point(rng.randint(1, 30), rng.randint(1, 30)))),
        (200, lambda: build_curve(z4_point(rng.randint(-500, 500)))),
        (200, lambda: build_curve(z2z2_point(rng.randint(-30, 30), rng.randint(-30, 30)))),
        (200, lambda: build_curve(z2_point(rng.randint(-30, 30), rng.randint(-30, 30)))),
        (200, lambda: W(*(rng.randint(-5, 5) for _ in range(5)))),
    ]
    seen, halvable, non_integral = set(), 0, 0
    for count, make in makers:
        done = 0
        while done < count:
            try:
                w = make()
            except (ValueError, SingularParameterError):
                continue
            if w.is_singular or w.ainvs in seen:
                continue
            seen.add(w.ainvs)
            if done % 5 == 0:
                w = change_variables(w, CoordinateChange.of(2, 1, 0, 0))
                non_integral += not w.is_integral
            for T in two_torsion_points(w):
                halves = halve_point(w, T)
                assert halves == oracles.halves_reference(w, T), (w, T)
                halvable += bool(halves)
            done += 1
    assert len(seen) == 1000 and non_integral >= 150 and halvable >= 200, (non_integral, halvable)


def test_checks_hold_under_optimize(run_optimized):
    # a doctored order test on the integral model, the same on a non-integral
    # input model (the check after the change back), a Z/6 generator of the
    # wrong order whose order check runs on ints and a doctored change back
    # to an integral input model trip the checks in turn
    script = (
        "from ecdescent import families, weierstrass\n"
        "from ecdescent.weierstrass import CoordinateChange, InvariantViolation, WeierstrassModel, change_variables\n"
        "def attempt(call):\n"
        "    try:\n"
        "        call()\n"
        "    except InvariantViolation:\n"
        "        print('raised')\n"
        "w = families.build_curve(families.z3_point(1, 1))\n"
        "real = families.point_order\n"
        "families.point_order = lambda v, P, bound=17: 0 if bound == 3 and v.is_integral else real(v, P, bound)\n"
        "attempt(lambda: families.torsion_subgroup(change_variables(w, CoordinateChange.of(2))))\n"
        "families.point_order = lambda v, P, bound=17: 0 if bound == 3 and not v.is_integral else real(v, P, bound)\n"
        "attempt(lambda: families.torsion_subgroup(change_variables(w, CoordinateChange.of(2))))\n"
        "families.point_order = real\n"
        "families.point_add = lambda v, P, Q: Q\n"
        "attempt(lambda: families.torsion_subgroup(WeierstrassModel.from_ainvs([-1, -6, -6, 0, 0])))\n"
        "families.point_add = weierstrass.point_add\n"
        "families.integral_model = lambda v: (v, CoordinateChange.of(1, 1))\n"
        "attempt(lambda: families.torsion_subgroup(w))\n"
    )
    assert run_optimized(script) == ["raised"] * 4


def test_torsion_growth_classes():
    # quotient curve in the A^2+4 family: 2-torsion polynomial
    # 4(x^2+4)(x+A): splits fully only over Q(i)
    A = 5
    w = W(0, A, 0, 4, 4 * A)
    rep = torsion_growth(w, -1)
    assert square_class(-1) in rep.two_power_classes
    assert rep.gains_2_possible
    rep2 = torsion_growth(w, -7)
    assert not rep2.gains_2_possible


def test_torsion_growth_rejects_nonsquarefree():
    with pytest.raises(ValueError):
        torsion_growth(W(0, 1, 0, 1, 0), 12)


def test_torsion_growth_exceptional_quotient():
    # quotient of the exceptional Z/4 family: halving discriminants are
    # p^2z*q, 4q and -4p^2z up to squares, so 2-power growth needs
    # Q(sqrt(-1)) or the real field Q(sqrt(q))
    for p, z in [(7, 1), (11, 1)]:
        pz = p**z
        q = pz**2 + 16
        Ep = W(pz, -1, -pz, -5, -(pz**2 + 3))
        classes = torsion_growth(Ep, -1).two_power_classes
        assert classes == {square_class(-1), square_class(q)}
        assert torsion_growth(Ep, -1).gains_2_possible
        admissible_no_growth = [d for d in (-7, -11, -15) if square_class(d) not in classes]
        for d in admissible_no_growth:
            assert not torsion_growth(Ep, d).gains_2_possible


def test_torsion_growth_matches_the_four_division_reference(monkeypatch):
    # the reference also splits f_4 and its quartic remainders; every class
    # it finds must be one the halving quadratics already give
    rng = random.Random(25)
    makers = [
        (120, lambda: build_curve(z2z4_point(rng.randint(1, 20), rng.randint(1, 20)))),
        (380, lambda: build_curve(z2z2_point(rng.randint(-20, 20), rng.randint(-20, 20)))),
        (500, lambda: build_curve(z2_point(rng.randint(-20, 20), rng.randint(-20, 20)))),
        (1000, lambda: W(*(rng.randint(-3, 3) for _ in range(5)))),
    ]
    real, splits = oracles._split_quartic, []

    def split_quartic(g):
        splits.append(real(g))
        return splits[-1]

    monkeypatch.setattr(oracles, "_split_quartic", split_quartic)
    seen, two_torsion = set(), Counter()
    for count, make in makers:
        done = 0
        while done < count:
            try:
                w = make()
            except (ValueError, SingularParameterError):
                continue
            if w.is_singular or w.ainvs in seen:
                continue
            seen.add(w.ainvs)
            if done % 10 == 0:
                w = change_variables(w, CoordinateChange.of(2, 1, 0, 0))
            expected = oracles.torsion_growth_classes_reference(w)
            assert torsion_growth(w, -1).two_power_classes == expected, w
            two_torsion[len(two_torsion_points(w))] += 1
            done += 1
    assert len(seen) == 2000 and min(two_torsion[k] for k in (0, 1, 3)) >= 100, two_torsion
    assert sum(f is not None for f in splits) >= 100


def test_z3_normalize():
    assert z3_normalize(0, 27).params == (0, 1)
    assert z3_normalize(10, 8).params == (5, 1)
    assert z3_normalize(5, 4).params == (5, 4)


def _z3_outcome(f, a, b):
    try:
        return f(a, b)
    except ValueError as exc:  # SingularParameterError included
        return type(exc), str(exc)


#: (a, b) pairs with b = q^3 m beyond the grid below, a a multiple of q or not
_Z3_CUBE_PAIRS = [
    (a, q**e * m)
    for q in (2, 3, 5, 7, 11, 13, 37, 101)
    for e in (3, 4, 6, 7)
    for m in (1, 2, 3, 5, 8, 27, q, q * q)
    for a in (0, 1, -1, q, -q, 2 * q, -3 * q, q * q, -(q**3), 6 * q + 1)
]


def test_z3_gcd_normalization_matches_the_factor_b_reference():
    # only the primes of gcd(a, b) can divide a with their cube dividing b,
    # so the family point or the refusal is the one the reference gives
    # when it searches the factors of a and of b
    pairs = [(a, b) for b in range(1, 2001) for a in range(-300, 301)] + _Z3_CUBE_PAIRS
    outcomes = {z3_point: {"refused", "singular"}, z3_normalize: {"reduced", "singular"}}
    for f, ref in ((z3_point, z3_point_reference), (z3_normalize, z3_normalize_reference)):
        kinds = set()
        for a, b in pairs:
            got = _z3_outcome(f, a, b)
            assert got == _z3_outcome(ref, a, b), (f.__name__, a, b)
            if isinstance(got, tuple):
                kinds.add("singular" if got[0] is SingularParameterError else "refused")
            else:
                kinds.add("kept" if got.params == (a, b) else "reduced")
        assert kinds == {"kept"} | outcomes[f], (f.__name__, kinds)
    assert z3_normalize(2 * 3 * 5, 2**3 * 3**6 * 5**4 * 7).params == (1, 3**3 * 5 * 7)


def test_z3_normalization_factors_only_gcd(monkeypatch):
    seen = []
    real = families.factorize
    monkeypatch.setattr(families, "factorize", lambda n: seen.append(n) or real(n))
    pairs = [(a, b) for b in range(1, 301) for a in range(-60, 61)] + _Z3_CUBE_PAIRS
    factored = 0
    for f in (z3_point, z3_normalize):
        for a, b in pairs:
            del seen[:]
            _z3_outcome(f, a, b)
            # gcd(0, b) = b: every prime divides a = 0
            assert all(math.gcd(a, b) % n == 0 for n in seen), (f.__name__, a, b, seen)
            factored += bool(seen)
    assert factored > 1000
