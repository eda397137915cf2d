"""Independent oracles that judge the library's fast paths.

Each one recomputes a quantity the library gets another way, by a slower
method that shares none of the fast path's code:

- `local_image_bruteforce` enumerates torsor points for `descent2.local_image`;
- `torsion_points_lutz_nagell` enumerates integral points for
  `families.torsion_subgroup`;
- `point_add_reference`, `point_mul_reference` and `point_order_reference`
  are the chord-and-tangent formulas in Fractions throughout, for the
  int paths of `weierstrass.point_add`, `point_mul` and `point_order`;
- `count_points_kronecker` sums a Kronecker symbol per residue for
  `families.count_points_mod_p`;
- `splits_in_oracle` solves x^2 = disc (mod 4p) for `descent2.splits_in`;
- `change_variables_reference` is the [u,r,s,t] formula in Fractions
  throughout, for `weierstrass.change_variables` and the [1,r,s,t] map
  `rst_change` that it shares with Tate's algorithm; `compose` and
  `inverse` are the group law on changes that its tests use;
- `find_isomorphism` solves for a change [u,r,s,t] between two models,
  taking u from its own twelfth-root search, for
  `weierstrass.isomorphism_scale`, the scale behind the check that the
  Hadano quotient is Velu's and behind `tate.GlobalData.scale`;
- `hilbert_places` lists the places the Hilbert product formula runs over;
- `multiplicative_reduction_reference` moves the node of a multiplicative
  reduction to (0,0) and reads the tangent quadratic there, for the
  closed form in `tate.tate_algorithm`, which reads (-c6 | p);
- `z3_point_reference` and `z3_normalize_reference` look for the primes
  q with q | a and q^3 | b among the factors of a and of b, for
  `families.z3_point` and `z3_normalize`, which factor gcd(a, b) only;
- `halves_reference` halves a point T of order 2 through the halving
  quadratic q_T, the square root of phi_2 - x(T) F, for
  `families.halve_point`, which reads the halves off F'(x(T));
- `torsion_growth_classes_reference` reads the growth classes from the
  rational quadratic factors of the 2- and 4-division polynomials and of
  the halving quadratics, splitting quartics through the resolvent cubic
  (`quadratic_rational_factors`), for `families.torsion_growth`, which
  reads them from closed forms in F, F'(x(T)) and the discriminant;
- `ADVERTISED` is the generic torsion structure of each family, which
  the family sweeps of `families.torsion_subgroup` must contain.

`tests/test_oracle_independence.py` checks that this module names none of
the functions it judges.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Optional

from ecdescent.arith import (
    OO,
    LocalSquareClassGroup,
    Rational,
    _as_integer_squareclass,
    _class_reps,
    factorize,
    is_square,
    kronecker_symbol,
    padic_valuation,
    prime_divisors,
    rational_sqrt,
    square_class,
)
from ecdescent.descent2 import _int_pair, dual_params, field_discriminant
from ecdescent.families import (
    Z2,
    Z2Z2,
    Z2Z4,
    Z2Z6,
    Z3,
    Z4,
    FamilyPoint,
    SingularParameterError,
    TorsionGroup,
    division_poly,
)
from ecdescent.polyutil import poly_add, poly_primitive, poly_scale, rational_roots
from ecdescent.tate import minimal_model
from ecdescent.weierstrass import (
    CoordinateChange,
    SingularModelError,
    WeierstrassModel,
    two_torsion_form,
)

# ---------------------------------------------------------------------------
# Hilbert symbol places


def hilbert_places(a: Rational, b: Rational) -> list:
    """Places where the Hilbert symbol of (a, b) could be nontrivial."""
    a = _as_integer_squareclass(a)
    b = _as_integer_squareclass(b)
    ps = {2} | set(prime_divisors(a)) | set(prime_divisors(b))
    return sorted(ps) + [OO]


# ---------------------------------------------------------------------------
# 2-isogeny local images by torsor enumeration


def local_image_bruteforce(w: WeierstrassModel, place, cap: int = 500_000) -> LocalSquareClassGroup:
    """Independent oracle: enumerate torsor points b w^2 = b^2 t^4 + A'b t^2 z^2 + B' z^4
    on both affine charts at bounded precision.

    The precision is 2 v + 6 digits (four more at 2), but never more than
    `cap` residues per chart; v is the larger valuation of disc(E) and
    disc(E'), so a non-integral model of E keeps the precision of its
    integral dual."""
    A, B = two_torsion_form(w)
    Ap, Bp = dual_params(A, B)
    if place == OO:
        return _group_of_reps(OO, _infty_oracle(Ap, Bp))
    ell = int(place)
    Ai, Bi = _int_pair(Ap, Bp)
    v = max(padic_valuation(w.discriminant, ell), padic_valuation(16 * Bi * Bi * (Ai * Ai - 4 * Bi), ell))
    k = 2 * v + 6
    if ell == 2:
        k += 4
    while k > 1 and ell**k > cap:
        k -= 1
    members = {b for b in _class_reps(ell) if _torsor_solvable(b, Ai, Bi, ell, k)}
    grp = _group_of_reps(ell, members)
    if not grp.is_subgroup():
        raise ArithmeticError(f"{w} at {ell}: torsor classes {sorted(members)} are not a subgroup")
    return grp


def _group_of_reps(place, members) -> LocalSquareClassGroup:
    # a rep's index in the rep table is the bitmask of its class
    reps = _class_reps(place)
    return LocalSquareClassGroup(place, frozenset(reps.index(b) for b in members))


def _infty_oracle(Ap, Bp) -> set:
    # minimum of b^2 s^2 + A'b s + B' over s >= 0, sign analysis for b < 0
    members = {1}
    for b in (-1,):
        s_vertex = Fraction(-Ap, 2 * b)
        vals = [Fraction(Bp)]
        if s_vertex > 0:
            vals.append(b * b * s_vertex**2 + Ap * b * s_vertex + Bp)
        if min(vals) <= 0:
            members.add(-1)
    return members


def _torsor_solvable(b: int, Ap: int, Bi: int, ell: int, k: int) -> bool:
    # each accepted candidate is an exact rational point, so hits are sound;
    # the precision k controls completeness only.  val / b = val b / b^2, so
    # the square test runs on the integer val b
    mod = ell**k
    for t in range(mod):
        # chart z = 1: b w^2 = b^2 t^4 + A'b t^2 + B'
        val = b * b * t**4 + Ap * b * t * t + Bi
        if val == 0 or _is_ell_adic_square(val * b, ell):
            return True
    for z in range(0, mod, ell):
        # chart t = 1: b w^2 = b^2 + A'b z^2 + B' z^4 with z = 0 mod ell
        val = b * b + Ap * b * z * z + Bi * z**4
        if val == 0 or _is_ell_adic_square(val * b, ell):
            return True
    return False


def _is_ell_adic_square(n: int, ell: int) -> bool:
    # the oracle's own test for nonzero n: even valuation, then a unit that
    # is 1 mod 8 at 2 or a residue by Euler's criterion at odd ell
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    if v % 2:
        return False
    return n % 8 == 1 if ell == 2 else pow(n, (ell - 1) // 2, ell) == 1


# ---------------------------------------------------------------------------
# Lutz-Nagell torsion


def torsion_points_lutz_nagell(w: WeierstrassModel) -> TorsionGroup:
    """Independent enumeration: integral points with y = 0 or y^2 | disc
    on the short model Y^2 = X^3 - 27 c4 X - 54 c6 of a minimal model."""
    m = minimal_model(w)
    c4, c6 = int(m.c4), int(m.c6)
    A, B = -27 * c4, -54 * c6
    disc_sh = abs(-16 * (4 * A**3 + 27 * B * B))
    divs = [1]
    for p, e in factorize(disc_sh):
        divs = [d * p**j for d in divs for j in range(e // 2 + 1)]
    ys = {0} | set(divs)
    pts = set()
    for y in sorted(ys):
        cube = [B - y * y, A, 0, 1]
        for x in rational_roots(cube):
            if x.denominator == 1:
                for sign in (1, -1):
                    X, Y = x, sign * y
                    if Y * Y == X**3 + A * X + B:
                        pts.add((Fraction(X), Fraction(Y)))
    # map back: X = 36x + 3b2, Y = 216y + 108(a1 x + a3)
    b2 = m.b2
    back = set()
    for X, Y in pts:
        x = (X - 3 * b2) / 36
        y = (Y / 108 - m.a1 * x - m.a3) / 2
        if m.contains(x, y) and point_order_reference(m, (x, y), 16):
            back.add((x, y))
    # group closure and structure
    group = {None} | back
    changedflag = True
    while changedflag:
        changedflag = False
        for P in list(group):
            for Q in list(group):
                R = point_add_reference(m, P, Q)
                if R not in group:
                    group.add(R)
                    changedflag = True
    order = len(group)
    two = [P for P in group if P is not None and point_order_reference(m, P, 2) == 2]
    n1 = 2 if len(two) == 3 else 1
    n2 = order // n1
    gens = []
    cyc = next((P for P in group if P is not None and point_order_reference(m, P, n2 + 1) == n2), None)
    if n1 == 2 and cyc is not None:
        inside = point_mul_reference(m, n2 // 2, cyc) if n2 % 2 == 0 else None
        gens.append((next(T for T in two if T != inside), 2))
    if cyc is not None:
        gens.append((cyc, n2))
    return TorsionGroup((n1, n2), gens, m)


# ---------------------------------------------------------------------------
# point arithmetic and point counts


def point_add_reference(w: WeierstrassModel, P, Q):
    """P + Q by the chord-and-tangent formulas, in Fractions throughout."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = Fraction(P[0]), Fraction(P[1])
    x2, y2 = Fraction(Q[0]), Fraction(Q[1])
    a1, a2, a3, a4, _ = w.ainvs
    if x1 == x2 and y1 + y2 + a1 * x2 + a3 == 0:
        return None
    if (x1, y1) == (x2, y2):
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    return (x3, -(lam + a1) * x3 - (y1 - lam * x1) - a3)


def point_mul_reference(w: WeierstrassModel, n: int, P):
    """nP by |n| repeated additions."""
    if n < 0:
        P, n = (None if P is None else (P[0], -P[1] - w.a1 * P[0] - w.a3)), -n
    R = None
    for _ in range(n):
        R = point_add_reference(w, R, P)
    return R


def point_order_reference(w: WeierstrassModel, P, bound: int = 17) -> int:
    """Least n <= bound with nP = O, else 0."""
    Q = P
    for n in range(1, bound + 1):
        if Q is None:
            return n
        Q = point_add_reference(w, Q, P)
    return 0


def count_points_kronecker(w: WeierstrassModel, p: int) -> int:
    """#E(F_p) at an odd good prime p of an integral model: p + 1 plus the
    Kronecker symbol of the discriminant of y^2 + (a1 x + a3) y - rhs(x),
    one residue x at a time."""
    a1, a2, a3, a4, a6 = (int(a) % p for a in w.ainvs)
    total = p + 1
    for x in range(p):
        yterm = a1 * x + a3
        total += kronecker_symbol(yterm * yterm + 4 * (((x + a2) * x + a4) * x + a6), p)
    return total


# ---------------------------------------------------------------------------
# splitting of primes in imaginary quadratic fields


def splits_in_oracle(d: int, p: int) -> bool:
    """Independent check: p splits iff x^2 = disc (mod 4p) is solvable
    and p does not divide disc."""
    disc = field_discriminant(d)
    if disc % p == 0:
        return False
    mod = 4 * p
    return any((x * x - disc) % mod == 0 for x in range(mod))


# ---------------------------------------------------------------------------
# coordinate changes


def j_invariant(w: WeierstrassModel) -> Fraction:
    """c4^3 / disc, which every change of coordinates preserves."""
    d = w.discriminant
    if d == 0:
        raise SingularModelError("j undefined: discriminant is zero")
    return Fraction(w.c4**3, d)


def change_variables_reference(w: WeierstrassModel, c: CoordinateChange) -> WeierstrassModel:
    """Apply [u,r,s,t]; disc scales by u^-12, c4 by u^-4, j is preserved."""
    if c.u == 0:
        raise ValueError("u must be nonzero")
    u, r, s, t = c.u, c.r, c.s, c.t
    a1, a2, a3, a4, a6 = w.ainvs
    na1 = (a1 + 2 * s) / u
    na2 = (a2 - s * a1 + 3 * r - s * s) / u**2
    na3 = (a3 + r * a1 + 2 * t) / u**3
    na4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4
    na6 = (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6
    return WeierstrassModel(na1, na2, na3, na4, na6)


def compose(first: CoordinateChange, other: CoordinateChange) -> CoordinateChange:
    """The change equivalent to applying first, then other."""
    u1, r1, s1, t1 = first.u, first.r, first.s, first.t
    u2, r2, s2, t2 = other.u, other.r, other.s, other.t
    return CoordinateChange(
        u1 * u2,
        r1 + u1 * u1 * r2,
        s1 + u1 * s2,
        t1 + u1 * u1 * s1 * r2 + u1**3 * t2,
    )


def inverse(c: CoordinateChange) -> CoordinateChange:
    u, r, s, t = c.u, c.r, c.s, c.t
    return CoordinateChange(1 / u, -r / u**2, -s / u, (r * s - t) / u**3)


# ---------------------------------------------------------------------------
# isomorphism over Q


def _twelfth_root(n: int) -> Optional[int]:
    """The r >= 0 with r^12 = n, as the cube root, by bisection, of the
    fourth root taken by two integer square roots."""
    if n < 0:
        return None
    s = math.isqrt(math.isqrt(n))
    lo, hi = 0, s
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**3 <= s else (lo, mid - 1)
    return lo if lo**12 == n else None


def find_isomorphism(w1: WeierstrassModel, w2: WeierstrassModel) -> Optional[CoordinateChange]:
    """A change c taking w1 to w2, if one exists over Q."""
    if w1.is_singular or w2.is_singular:
        raise SingularModelError("isomorphism testing needs nonsingular models")
    ratio = Fraction(w1.discriminant, w2.discriminant)
    # u^12 = disc1/disc2
    n, m = _twelfth_root(ratio.numerator), _twelfth_root(ratio.denominator)
    if n is None or m is None:
        return None
    for u in (Fraction(n, m), Fraction(-n, m)):
        s = (w2.a1 * u - w1.a1) / 2
        r = (w2.a2 * u**2 - w1.a2 + s * w1.a1 + s * s) / 3
        t = (w2.a3 * u**3 - w1.a3 - r * w1.a1) / 2
        if change_variables_reference(w1, CoordinateChange(u, r, s, t)) == w2:
            return CoordinateChange(u, r, s, t)
    return None


# ---------------------------------------------------------------------------
# multiplicative reduction at the node


def multiplicative_reduction_reference(w: WeierstrassModel, p: int) -> tuple:
    """(kind, Kodaira symbol, c_p, f_p, v_min) of an integral model w whose
    reduction at p is multiplicative.

    The node is found by a search over the residues mod p and moved to
    (0,0); there the tangent slopes are the roots of T^2 + a1 T - a2, and
    the reduction is split when they lie in F_p. It is I_n with
    n = v_p(disc), and c_p is n when split, else 2 or 1 as n is even or odd.
    """
    a1, a2, a3, a4, a6 = w.ainvs
    x0, y0 = next(
        (x, y)
        for x in range(p)
        for y in range(p)
        if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
        and (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p == 0
        and (2 * y + a1 * x + a3) % p == 0
    )
    m = change_variables_reference(w, CoordinateChange.of(1, x0, 0, y0))
    split = any((t * t + m.a1 * t - m.a2) % p == 0 for t in range(p))
    n = padic_valuation(w.discriminant, p)
    if split:
        return "split-multiplicative", f"I{n}", n, 1, n
    return "nonsplit-multiplicative", f"I{n}", 2 if n % 2 == 0 else 1, 1, n


# ---------------------------------------------------------------------------
# Z/3 family parameters


#: the tests sweep a grid of (a, b), so the oracles factor each a and b once
_factors = cache(factorize)


def z3_point_reference(a: int, b: int) -> FamilyPoint:
    """The Z/3 family point (a, b), refused when some prime q divides a
    with q^3 | b: the q are sought among the factors of a, and of b when
    a = 0."""
    if b <= 0:
        raise ValueError("b must be positive")
    if a**3 == 27 * b:
        raise SingularParameterError(f"(a, b) = {(a, b)} gives a singular curve")
    for q, _ in _factors(a) if a else []:
        if b % q**3 == 0:
            raise ValueError(f"prime {q} divides a with q^3 | b; reduce the parameters")
    if a == 0 and b != 1:
        for q, e in _factors(b):
            if e >= 3:
                raise ValueError(f"prime {q} divides a with q^3 | b; reduce the parameters")
    return FamilyPoint(Z3, (a, b))


def z3_normalize_reference(a: int, b: int) -> FamilyPoint:
    """(a, b) divided by (q, q^3) over the prime factors q of b until no
    such scaling applies, then `z3_point_reference`."""
    if b <= 0:
        raise ValueError("b must be positive")
    changed = True
    while changed:
        changed = False
        for q, e in _factors(b) if b > 1 else []:
            while e >= 3 and a % q == 0 and b % q**3 == 0:
                a //= q
                b //= q**3
                e -= 3
                changed = True
    return z3_point_reference(a, b)


# ---------------------------------------------------------------------------
# family torsion

#: Advertised generic torsion structure of each family.
ADVERTISED = {
    Z2Z4: (2, 4),
    Z4: (1, 4),
    Z2Z2: (2, 2),
    Z2: (1, 2),
    Z2Z6: (2, 6),
    Z3: (1, 3),
}


# ---------------------------------------------------------------------------
# torsion growth through the 4-division polynomial


def quadratic_rational_factors(f, roots=None) -> list[list[Fraction]]:
    """Monic irreducible quadratic factors over Q of a polynomial, given its
    rational roots or finding them.

    Works degree by degree: strips rational roots, then splits quartics via
    the resolvent cubic.  Degrees beyond 4 are reduced only through their
    rational roots.
    """
    g = poly_primitive(list(f))
    for r in rational_roots(g) if roots is None else roots:
        while (h := _divide_linear(g, r.numerator, r.denominator)) is not None:
            g = h
    g = [Fraction(c, g[-1]) for c in g]
    if len(g) == 3:
        return [g]
    return (_split_quartic(g) or []) if len(g) == 5 else []


def _divide_linear(g: list[int], u: int, v: int) -> Optional[list[int]]:
    """g / (v x - u) when it is an integer polynomial, else None."""
    h = [0] * (len(g) - 1)
    carry = 0
    for i in range(len(g) - 1, 0, -1):
        # g_i = v h_(i-1) - u h_i
        num = g[i] + u * carry
        if num % v:
            return None
        h[i - 1] = carry = num // v
    return h if g[0] == -u * carry else None


def _split_quartic(g: list[Fraction]) -> Optional[list[list[Fraction]]]:
    """Monic quartic with no rational roots -> two monic rational quadratics."""
    p3, q2, r_, s = g[3], g[2], g[1], g[0]
    # (x^2+ax+b)(x^2+cx+d): resolvent cubic in u = b + d
    resolvent = [
        -(p3 * p3 * s - 4 * q2 * s + r_ * r_),
        p3 * r_ - 4 * s,
        -q2,
        Fraction(1),
    ]
    for u in rational_roots(resolvent):
        # a + c = p3, ac = q2 - u, b + d = u, ad + bc = r_, bd = s
        sq, sq2 = rational_sqrt(p3 * p3 - 4 * (q2 - u)), rational_sqrt(u * u - 4 * s)
        if sq is None or sq2 is None:
            continue
        for a in {(p3 + sq) / 2, (p3 - sq) / 2}:
            c = p3 - a
            for b in {(u + sq2) / 2, (u - sq2) / 2}:
                d = u - b
                if a * d + b * c == r_ and b * d == s:
                    return [[b, a, Fraction(1)], [d, c, Fraction(1)]]
    return None


def _halving_quadratic_reference(w: WeierstrassModel, x0) -> list:
    """q_T for the point T of order 2 over x0: the monic square root of
    phi_2 - x0 F, with phi_2 = x^4 - b4 x^2 - 2 b6 x - b8 the numerator of
    x(2Q) and F = 4x^3 + b2 x^2 + 2 b4 x + b6 its denominator."""
    a0, a1, a2, a3, _ = poly_add([-w.b8, -2 * w.b6, -w.b4, 0, 1], poly_scale(w.two_division_poly(), -x0))
    c1 = Fraction(a3) / 2
    c0 = (a2 - c1 * c1) / 2
    assert 2 * c1 * c0 == a1 and c0 * c0 == a0, (w, x0)
    return [c0, c1, Fraction(1)]


def halves_reference(w: WeierstrassModel, T) -> list:
    """The rational Q with 2Q = T, for T of order 2: the points over the
    rational roots of q_T, kept when the chord-and-tangent 2Q is T."""
    found = set()
    for x in rational_roots(_halving_quadratic_reference(w, T[0])):
        yt = w.y_terms(x)
        s = rational_sqrt(yt * yt + 4 * w.rhs(x))
        for y in () if s is None else {Fraction(-yt + s, 2), Fraction(-yt - s, 2)}:
            if point_mul_reference(w, 2, (x, y)) == T:
                found.add((x, y))
    return sorted(found)


def torsion_growth_classes_reference(w: WeierstrassModel) -> set:
    """The square classes of the quadratic fields over which E's 2-power
    torsion can grow: the discriminants of the rational quadratic factors
    of F = 4x^3 + b2 x^2 + 2 b4 x + b6, of f_4 and of the halving quadratic
    q_T of each rational T of order 2, and the y-discriminants over their
    rational roots.  q_T is the square root of phi_2 - x(T) F, with
    phi_2 = x^4 - b4 x^2 - 2 b6 x - b8 the numerator of x(2Q)."""
    F = w.two_division_poly()
    polys = [F, division_poly(w, 4)]
    polys += [_halving_quadratic_reference(w, x0) for x0 in rational_roots(F)]
    discs = []
    for f in polys:
        roots = rational_roots(f)
        discs += [quad[1] ** 2 - 4 * quad[0] * quad[2] for quad in quadratic_rational_factors(f, roots)]
        discs += [w.y_terms(x) ** 2 + 4 * w.rhs(x) for x in roots]
    return {square_class(D) for D in discs if D != 0 and not is_square(D)}
