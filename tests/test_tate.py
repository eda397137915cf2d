import collections
import itertools
import random
from fractions import Fraction

import pytest

from ecdescent.families import build_curve, torsion_subgroup, z2_point, z3_point
from ecdescent.fixtures import FIXTURES
from ecdescent.polyutil import fp_divmod
from ecdescent.tate import (
    GOOD,
    NONSPLIT,
    SPLIT,
    KodairaType,
    _cubic_repeated_root,
    _singular_point,
    global_data,
    local_reduction,
    minimal_model,
    model_from_c4c6,
    tate_algorithm,
)
from ecdescent.weierstrass import (
    CoordinateChange,
    InvariantViolation,
    SingularModelError,
    WeierstrassModel,
    change_variables,
    curve_invariants,
    quadratic_twist,
)
from oracles import change_variables_reference, multiplicative_reduction_reference


def W(*ainvs):
    return WeierstrassModel.from_ainvs(ainvs)


def lam_curve(lam):
    lam = Fraction(lam)
    return W(1, -lam, -lam, 0, 0)


def beta_curve(beta):
    return W(beta, -beta, -(beta**2), 0, 0)


def test_conductor_11a1():
    w = W(0, -1, 1, -10, -20)
    gd = global_data(w)
    assert gd.conductor == 11
    assert gd.delta_min == -(11**5)
    lr = gd.local_data[11]
    assert str(lr.kodaira) == "I5"
    assert lr.tamagawa == 5
    assert lr.conductor_exponent == 1
    assert lr.kind == SPLIT


def test_conductor_37a1():
    gd = global_data(W(0, 0, 1, -1, 0))
    assert gd.conductor == 37
    assert gd.local_data[37].tamagawa == 1
    assert str(gd.local_data[37].kodaira) == "I1"


def test_32a_type_III():
    gd = global_data(W(0, 0, 0, -1, 0))
    assert gd.conductor == 32
    lr = gd.local_data[2]
    assert str(lr.kodaira) == "III"
    assert lr.tamagawa == 2
    assert lr.v_min == 6
    assert lr.kind == "additive"


def test_lambda_family_positive_ord():
    # ord_p(lambda) = m > 0 gives split type I_{4m} with c_p = 4m
    for lam, p, m in [(3, 3, 1), (9, 3, 2), (Fraction(5, 4), 5, 1), (Fraction(49, 9), 7, 2)]:
        lr = local_reduction(lam_curve(lam), p)
        assert lr.kodaira == KodairaType("I", 4 * m)
        assert lr.kind == SPLIT
        assert lr.tamagawa == 4 * m


def test_two_two_family_odd_prime():
    # p | a, p coprime to b(a-b): type I_{2 ord_p a}, even Tamagawa number
    for a, b, p, m in [(9, 2, 3, 2), (25, 3, 5, 2), (7, 3, 7, 1)]:
        lr = local_reduction(W(0, a + b, 0, a * b, 0), p)
        assert lr.kodaira == KodairaType("I", 2 * m)
        assert lr.tamagawa % 2 == 0


def test_two_two_family_good_at_2():
    # ord_2(a) = 4, b = 1 mod 4: good reduction at 2
    lr = local_reduction(W(0, 16 + 5, 0, 16 * 5, 0), 2)
    assert lr.kind == GOOD
    assert lr.tamagawa == 1
    gd = global_data(W(0, 16 + 5, 0, 16 * 5, 0))
    assert gd.conductor % 2 == 1


def test_neumann_setzer_style_c2():
    # y^2 = x^3 + Ax^2 + x with A = 3 mod 4 has C_2 = 2
    for A in [3, 7, 11, 15]:
        w = W(0, A, 0, 1, 0)
        if w.is_singular:
            continue
        assert local_reduction(w, 2).tamagawa == 2


def test_beta_power_table_rows():
    # 40a3: C2*C5 = 2
    gd = global_data(beta_curve(4))
    assert gd.conductor == 40
    assert gd.tamagawa_product == 2
    # 32a4: C2 = 2
    gd = global_data(beta_curve(16))
    assert gd.conductor == 32
    assert gd.tamagawa_product == 2
    # 24a4: C2*C3 = 2
    gd = global_data(beta_curve(-4))
    assert gd.conductor == 24
    assert gd.tamagawa_product == 2
    # 24a3: C2*C3 = 2
    gd = global_data(beta_curve(-(2**6)))
    assert gd.conductor == 24
    assert gd.tamagawa_product == 2
    # 15a7: good at 2 and 5-smooth conductor
    gd = global_data(beta_curve(-(2**8)))
    assert gd.conductor == 15
    assert gd.tamagawa_product == 1


def test_beta_large_powers_of_two():
    assert local_reduction(beta_curve(2**6), 2).tamagawa == 4  # z >= 3
    assert local_reduction(beta_curve(-(2**10)), 2).tamagawa == 2  # z=5: 2(z-4)
    assert local_reduction(beta_curve(-(2**12)), 2).tamagawa == 4  # z=6: 2(z-4)


def test_exceptional_family_conductor():
    # y^2 + p^z xy - p^z y = x^3 - x^2 has conductor p*(p^2z+16) when the
    # second factor is prime
    for p, z in [(7, 1), (11, 1)]:
        q = p ** (2 * z) + 16
        w = W(p**z, -1, -(p**z), 0, 0)
        gd = global_data(w)
        assert gd.conductor == p * q
        assert gd.delta_min == p ** (2 * z) * q


def test_15a3_data():
    # p^z = 3: q = 25, conductor 15
    w = W(3, -1, -3, 0, 0)
    gd = global_data(w)
    assert gd.conductor == 15
    assert gd.delta_min == 225


def test_z2_family_conductor():
    # y^2 = x^3 + Ax^2 - x with A^2+4 = p prime: Delta_min = 16p and
    # N = 4p for A = 1 mod 4 (type IV at 2); N = 16p for A = 3 mod 4
    # (type II at 2; the curve at A=11 has conductor 80 = 16*5)
    for A in [1, 5, 13]:
        p = A * A + 4
        gd = global_data(W(0, A, 0, -1, 0))
        assert gd.delta_min == 16 * p
        assert gd.conductor == 4 * p
    for A in [3, 7]:
        p = A * A + 4
        gd = global_data(W(0, A, 0, -1, 0))
        assert gd.delta_min == 16 * p
        assert gd.conductor == 16 * p
    # A=11: A^2+4 = 5^3, the curve of conductor 80 = 16*5
    assert global_data(W(0, 11, 0, -1, 0)).conductor == 80


def test_mod128_table_spot_checks():
    # B = 1 parity of C_2 by A mod 128 (table rows; A=2 itself is singular)
    parity = {130: 0, 6: 0, 10: 1, 14: 0, 18: 0, 22: 0, 26: 1, 30: 1}
    for A, par in parity.items():
        lr = local_reduction(W(0, A, 0, 1, 0), 2)
        assert lr.tamagawa % 2 == par, (A, lr)


def test_good_reduction_at_2_iff_62_mod_128():
    for A in [62, 62 + 128]:
        assert local_reduction(W(0, A, 0, 1, 0), 2).kind == GOOD
    for A in [130, 30, 34, 126, 254]:
        assert local_reduction(W(0, A, 0, 1, 0), 2).kind != GOOD


def _invariant_data(w):
    gd = global_data(w)
    return (
        [local_reduction(w, p).as_dict() for p in (2, 3, 5, 7)],
        (gd.conductor, gd.delta_min, gd.tamagawa_product, gd.minimal_model),
        torsion_subgroup(w).structure,
    )


def test_invariance_under_unit_changes():
    # about 200 seeded models, a quarter of them from the torsion families,
    # each under an integral [1,r,s,t] and under a random [u,r,s,t] with
    # u != 1 and r, s, t of denominator up to 3
    rng = random.Random(7)
    us = [Fraction(sign * n, d) for sign in (1, -1) for n in (1, 2, 3) for d in (1, 2, 3, 5)]
    us.remove(1)
    families = [
        lambda: z2_point(rng.randint(-12, 12), rng.randint(-12, 12)),
        lambda: z3_point(rng.randint(-12, 12), rng.randint(1, 4)),
    ]
    done = 0
    while done < 200:
        if done % 4:
            w = W(*(rng.randint(-9, 9) for _ in range(5)))
        else:
            try:
                w = build_curve(rng.choice(families)())
            except ValueError:
                continue
        if w.is_singular:
            continue
        base = _invariant_data(w)
        rst = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)]
        unit = CoordinateChange.of(1, *(rng.randint(-9, 9) for _ in range(3)))
        for c in (unit, CoordinateChange.of(rng.choice(us), *rst)):
            assert _invariant_data(change_variables(w, c)) == base, (w, c)
        done += 1


def test_scaling_is_unwound():
    w = W(0, -1, 1, -10, -20)
    big = change_variables(w, CoordinateChange.of(Fraction(1, 6)))  # a_i * 6^i
    gd = global_data(big)
    assert gd.conductor == 11
    assert gd.delta_min == -(11**5)
    assert gd.minimal_model == w
    assert gd.local_data[2].kind == GOOD
    assert gd.local_data[2].minimal_scale_exp == 1
    assert gd.local_data[3].minimal_scale_exp == 1


def test_scale_reads_u_off_the_discriminant():
    w = W(0, -1, 1, -10, -20)
    gd = global_data(w)
    assert gd.scale(w) == 1
    for u in (Fraction(1, 6), Fraction(5), Fraction(-2, 3)):
        assert gd.scale(change_variables(w, CoordinateChange.of(u, 1, 2, 3))) == abs(1 / u)
    # the twist by 2 (disc ratio 2^6) and a different curve of the same sign
    with pytest.raises(InvariantViolation, match="twelfth power"):
        global_data(W(0, 0, 0, -1, 0)).scale(W(0, 0, 0, -4, 0))
    with pytest.raises(InvariantViolation, match="twelfth power"):
        gd.scale(W(0, 0, 1, -1, 0))


def test_scale_refuses_a_twist_with_the_same_discriminant():
    # E and its twist by -1 share disc = -1584 (so u = 1 is a twelfth root)
    # but not c6, and their conductors are 132 and 528
    w = W(0, 1, 0, 3, 0)
    tw = quadratic_twist(w, -1)
    assert tw.discriminant == w.discriminant == -1584
    assert (global_data(w).conductor, global_data(tw).conductor) == (132, 528)
    assert global_data(w).scale(w) == global_data(tw).scale(tw) == 1
    with pytest.raises(InvariantViolation, match="not a model"):
        global_data(w).scale(tw)
    with pytest.raises(InvariantViolation, match="not a model"):
        global_data(tw).scale(w)


def test_minimal_model_reduced_form():
    m = minimal_model(W(0, 4, 0, 16, 0))
    assert m.is_integral
    assert m.a1 in (0, 1) and m.a3 in (0, 1)
    assert abs(m.a2) <= 1


def test_model_from_c4c6_roundtrip():
    for ainvs in [(0, -1, 1, -10, -20), (1, 0, 1, 4, -6), (0, 0, 1, -7, 6)]:
        w = W(*ainvs)
        m = model_from_c4c6(int(w.c4), int(w.c6))
        assert m.c4 == w.c4 and m.c6 == w.c6
    for label, entry in FIXTURES.items():
        m = global_data(entry.model).minimal_model
        assert m == entry.model, label
        assert model_from_c4c6(int(m.c4), int(m.c6)) == m, label


def test_model_from_c4c6_refuses_a_pair_that_fails_only_the_round_trip():
    # b2 = 0, and both divisions are exact (b4 = 2, b6 = -1), but then
    # a3 = 1 and 4 does not divide b6 - a3 = -2, so a6 is not integral
    c4, c6 = -48, 216
    assert (0 - c4) % 24 == 0 and (-c6) % 216 == 0
    with pytest.raises(ValueError, match="invalid"):
        model_from_c4c6(c4, c6)


def test_checks_hold_under_optimize(run_optimized):
    # the shared [1,r,s,t] map, doctored on step 6's shear (the only s != 0)
    script = (
        "from ecdescent import tate\n"
        "from ecdescent.weierstrass import InvariantViolation, WeierstrassModel\n"
        "real = tate.rst_change\n"
        "tate.rst_change = lambda a, r, s, t: (lambda b: (b[0] + 1,) + b[1:] if s else b)(real(a, r, s, t))\n"
        "for ainvs, p in [([0, 1, 0, -4, 0], 2), ([1, -1, 0, -9, 0], 3)]:\n"
        "    try:\n"
        "        tate.local_reduction(WeierstrassModel.from_ainvs(ainvs), p)\n"
        "    except InvariantViolation:\n"
        "        print('raised')\n"
    )
    assert run_optimized(script) == ["raised"] * 2


def test_singular_rejected():
    with pytest.raises(SingularModelError):
        local_reduction(W(0, 0, 0, 0, 0), 2)


def test_nonsplit_case_exists():
    # y^2 = x^3 + x^2 + x: disc = 16(1-4) = -48? find an I_n nonsplit example:
    # y^2 + xy = x^3 + 4x + 1 has nonsplit reduction somewhere; just assert the
    # dichotomy c in {1,2} on some nonsplit fiber found by scanning
    found = False
    for a4 in range(1, 40):
        w = W(1, 0, 0, a4, 1)
        if w.is_singular:
            continue
        gd = global_data(w)
        for p, lr in gd.local_data.items():
            if lr.kind == NONSPLIT:
                assert lr.tamagawa in (1, 2)
                assert lr.tamagawa == (2 if lr.kodaira.n % 2 == 0 else 1)
                found = True
    assert found


def test_bad_prime_hint_validation():
    w = W(0, -1, 1, -10, -20)
    with pytest.raises(ValueError):
        global_data(w, bad_prime_hint=[3])
    assert global_data(w, bad_prime_hint=[11, 3]).conductor == 11


def test_bad_prime_hint_refuses_an_entry_that_is_not_prime():
    # disc = 289 = 17^2: the hint [289] covers it, but 289 is no prime, and
    # Tate's algorithm run "at 289" would report conductor 289
    w = W(1, -1, 1, -6, -4)
    assert global_data(w).conductor == 17
    for hint in ([289], [17, 289], [1, 17], [17, -17], [0, 17]):
        with pytest.raises(ValueError, match="not prime"):
            global_data(w, bad_prime_hint=hint)
    assert global_data(w, bad_prime_hint=[17]) == global_data(w)


def _singular_residue(a, p):
    # brute force: the residue pair where the reduction and both partials vanish
    a1, a2, a3, a4, a6 = a
    for x in range(p):
        for y in range(p):
            f = y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)
            fx = a1 * y - (3 * x * x + 2 * a2 * x + a4)
            fy = 2 * y + a1 * x + a3
            if f % p == 0 and fx % p == 0 and fy % p == 0:
                return x, y
    raise AssertionError("no singular residue")


def test_singular_point_closed_form_matches_residue_search():
    # step 2 runs only on additive reduction (p | disc and p | c4); the
    # closed forms at 2 and 3 depend only on the residues of the
    # coefficients, so every residue tuple with additive reduction covers them
    additive = 0
    for p in (2, 3):
        for a in itertools.product(range(p), repeat=5):
            _, _, _, _, c4, _, disc = curve_invariants(a)
            if disc % p == 0 and c4 % p == 0:
                assert _singular_point(a, p, curve_invariants(a)) == _singular_residue(a, p), (a, p)
                additive += 1
    assert additive == 35
    rng = random.Random(1997)
    primes = [p for p in range(5, 60) if all(p % q for q in range(2, p))]
    additive = 0
    for _ in range(1500):
        a = tuple(rng.randint(-60, 60) for _ in range(5))
        _, _, _, _, c4, _, disc = curve_invariants(a)
        if disc == 0:
            continue
        for p in primes:
            if disc % p == 0 and c4 % p == 0:
                assert _singular_point(a, p, curve_invariants(a)) == _singular_residue(a, p), (a, p)
                additive += 1
    assert additive >= 100


def _root_multiplicities(f, roots, p):
    # oracle: divide f by T - r while the division is exact
    out = {}
    for r in roots:
        g, m = f, 0
        while True:
            q, rem = fp_divmod(g, [-r, 1], p)
            if rem:
                break
            g, m = q, m + 1
        out[r] = m
    return out


def test_step6_cubic_matches_deflation_oracle():
    assert _root_multiplicities([-16, 24, -9, 1], [1, 4], 13) == {4: 2, 1: 1}  # (T-4)^2 (T-1)
    cubics = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 61, 67):
        for b, c in itertools.product(range(p), repeat=2):
            roots = {}  # d -> the roots of T^3 + b T^2 + c T + d in F_p
            for x in range(p):
                roots.setdefault(-(x**3 + b * x * x + c * x) % p, []).append(x)
            for d in range(p):
                mults = _root_multiplicities([d, c, b, 1], roots.get(d, []), p)
                repeated = [(r, m) for r, m in mults.items() if m > 1]
                assert _cubic_repeated_root([d, c, b, 1], p) == (repeated[0] if repeated else None), (p, b, c, d)
                cubics += 1
    assert cubics == 536_688


@pytest.mark.parametrize(
    "p, a, c",
    [
        (61, (0, 0, 0, -(61**2), 0), 4),  # T^3 - T splits
        (61, (0, 0, 0, -2 * 61**2, 0), 2),  # T(T^2 - 2): 2 is a nonresidue mod 61
        (61, (0, 0, 0, 0, -2 * 61**3), 1),  # T^3 - 2: 2 is not a cube mod 61
        (10007, (0, 0, 0, -(10007**2), 0), 4),
        (10007, (0, 0, 0, -5 * 10007**2, 0), 2),  # 5 is a nonresidue mod 10007
        (10007, (0, 0, 0, 10007**2, 10007**3), 1),  # T^3 + T + 1 has no root mod 10007
    ],
)
def test_i0_star_at_a_large_prime_counts_the_cubic_roots(p, a, c):
    # y^2 = x^3 + p^2 a4 x + p^3 a6 with T^3 + a4 T + a6 separable mod p is
    # I0*, and c_p is one more than the number of roots of that cubic mod p
    lr = tate_algorithm(a, curve_invariants(a), p)
    assert (str(lr.kodaira), lr.tamagawa, lr.conductor_exponent, lr.v_min) == ("I0*", c, 2, 6)


def test_multiplicative_closed_form_matches_the_node_reference():
    # Tate reads split or nonsplit from (-c6 | p) without moving the model,
    # at every p; against a residue search for the node and the tangent
    # quadratic there. Every eighth model is scaled up by p first, so Tate
    # meets it after a step-11 restart
    rng = random.Random(20261021)
    seen = collections.Counter()
    for p in (2, 3, 5, 7, 11, 13):
        done = 0
        while done < 400:
            a = tuple(rng.randint(-40, 40) for _ in range(5))
            _, _, _, _, c4, _, disc = curve_invariants(a)
            if disc == 0 or disc % p or c4 % p == 0:
                continue
            expected = multiplicative_reduction_reference(W(*a), p)
            k = 1 if done % 8 == 0 else 0
            if k:
                c = CoordinateChange.of(Fraction(1, p), *(rng.randint(-9, 9) for _ in range(3)))
                a = tuple(map(int, change_variables_reference(W(*a), c).ainvs))
            lr = tate_algorithm(a, curve_invariants(a), p)
            got = (lr.kind, str(lr.kodaira), lr.tamagawa, lr.conductor_exponent, lr.v_min)
            assert (got, lr.minimal_scale_exp) == (expected, k), (a, p)
            seen[p if p == 2 else p % 4, lr.kind, k] += 1
            done += 1
    assert sum(n for (r, _, _), n in seen.items() if r != 2) >= 2000
    for r in (1, 2, 3):
        # the residue symbol of -1 differs at p = 1 and 3 mod 4, and p = 2
        # reads (-c6 | 2) from -c6 mod 8
        assert all(seen[r, kind, 0] for kind in (SPLIT, NONSPLIT)), seen
    assert sum(n for (r, _, k), n in seen.items() if r != 2 and k) > 0, seen
