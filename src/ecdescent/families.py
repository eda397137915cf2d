"""Torsion-family parametrizations and exact rational torsion.

The six one- and two-parameter families used throughout the toolkit (for
Z/2, Z/3, Z/4, Z/2+Z/2, Z/2+Z/4, Z/2+Z/6 torsion) are built here, and
torsion subgroups of arbitrary curves over Q are computed exactly:
reduction mod good primes bounds the order, division polynomials and
point halving locate the points, and every generator is verified by
scalar multiplication.  The points hold int coordinates where they are
integers (`weierstrass.Point`).  The tests judge it by a Lutz-Nagell
enumeration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from .arith import (
    factorize,
    is_prime,
    is_square,
    rational_sqrt,
    square_class,
    squarefree_part,
)
from .polyutil import (
    exact_half,
    poly_add,
    poly_eval,
    poly_mul,
    poly_scale,
    rational_roots,
)
from .weierstrass import (
    CoordinateChange,
    Point,
    SingularModelError,
    WeierstrassModel,
    _exact,
    check_invariant,
    curve_invariants,
    integral_model,
    point_add,
    point_mul,
    point_order,
)


class SingularParameterError(SingularModelError):
    """Family parameters landing on a degenerate (disc = 0) curve."""


Z2Z4 = "z2z4"
Z4 = "z4"
Z2Z2 = "z2z2"
Z2 = "z2"
Z2Z6 = "z2z6"
Z3 = "z3"

FAMILIES = (Z2Z4, Z4, Z2Z2, Z2, Z2Z6, Z3)


@dataclass(frozen=True)
class FamilyPoint:
    family: str
    params: tuple

    def __str__(self):
        return f"{self.family}{self.params}"


def z2z4_point(alpha: int, beta: int) -> FamilyPoint:
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha, beta must be positive")
    if math.gcd(alpha, beta) != 1:
        raise ValueError("alpha, beta must be coprime")
    if 4 * alpha == beta:
        raise ValueError("alpha/beta = 1/4 is excluded")
    return FamilyPoint(Z2Z4, (alpha, beta))


def z4_point(beta: int) -> FamilyPoint:
    if beta == 0 or beta == -16:
        raise SingularParameterError(f"beta = {beta} gives a singular curve")
    return FamilyPoint(Z4, (beta,))


def _common_primes(a: int, b: int) -> list[int]:
    """The primes dividing both a and b: those of gcd(a, b), which is |b|
    when a = 0 (every prime divides 0)."""
    g = math.gcd(a, b)
    return [q for q, _ in factorize(g)] if g > 1 else []


def z2z2_point(a: int, b: int) -> FamilyPoint:
    if a == b or a == 0 or b == 0:
        raise SingularParameterError(f"(a, b) = {(a, b)} gives a singular curve")
    # normalize so that min(ord_p a, ord_p b) <= 1 at every common prime; a
    # division by p^2 adds no prime to gcd(a, b) and moves no other valuation
    for p in _common_primes(a, b):
        while a % (p * p) == 0 and b % (p * p) == 0:
            a //= p * p
            b //= p * p
    return FamilyPoint(Z2Z2, (a, b))


def z2_point(A: int, B: int) -> FamilyPoint:
    if B == 0 or A * A == 4 * B:
        raise SingularParameterError(f"(A, B) = {(A, B)} gives a singular curve")
    return FamilyPoint(Z2, (A, B))


def z2z6_point(S: int, T: int) -> FamilyPoint:
    if S <= 0:
        raise ValueError("S must be positive")
    if math.gcd(S, T) != 1:
        raise ValueError("S, T must be coprime")
    if T in (S, 5 * S, 3 * S, -3 * S, 9 * S):
        raise SingularParameterError(f"(S, T) = {(S, T)} gives a singular curve")
    return FamilyPoint(Z2Z6, (S, T))


def z3_point(a: int, b: int) -> FamilyPoint:
    if b <= 0:
        raise ValueError("b must be positive")
    if a**3 == 27 * b:
        raise SingularParameterError(f"(a, b) = {(a, b)} gives a singular curve")
    for q in _common_primes(a, b):
        if b % q**3 == 0:
            raise ValueError(f"prime {q} divides a with q^3 | b; reduce the parameters")
    return FamilyPoint(Z3, (a, b))


def z2z6_uv(S: int, T: int) -> tuple[int, int]:
    """The coprime (u, v) with u/v = (T-3S)(T+3S) / (2S(5S-T))."""
    num = (T - 3 * S) * (T + 3 * S)
    den = 2 * S * (5 * S - T)
    g = math.gcd(num, den)
    return num // g, den // g


def build_curve(fp: FamilyPoint) -> WeierstrassModel:
    """Integral model of a family member; raises on singular parameters."""
    fam, par = fp.family, fp.params
    if fam == Z2Z4:
        # [m, -lam m^2, -lam m^3, 0, 0] with m = 4 beta and
        # lam = (16 alpha^2 - beta^2) / (16 beta^2), so -lam m^2 = n below
        alpha, beta = par
        n = beta**2 - 16 * alpha**2
        ainvs = (4 * beta, n, 4 * beta * n, 0, 0)
    elif fam == Z4:
        (beta,) = par
        ainvs = (beta, -beta, -(beta**2), 0, 0)
    elif fam == Z2Z2:
        a, b = par
        ainvs = (0, a + b, 0, a * b, 0)
    elif fam == Z2:
        A, B = par
        ainvs = (0, A, 0, B, 0)
    elif fam == Z2Z6:
        S, T = par
        u, v = z2z6_uv(S, T)
        ainvs = (u - v, -v * (v + u), -u * v * (v + u), 0, 0)
    elif fam == Z3:
        a, b = par
        ainvs = (a, 0, b, 0, 0)
    else:
        raise ValueError(f"unknown family {fam}")
    if curve_invariants(ainvs)[6] == 0:
        raise SingularParameterError(f"{fp} gives a singular curve")
    return WeierstrassModel.from_ainvs(ainvs)


# ---------------------------------------------------------------------------
# division polynomials (univariate parts)


def division_poly(w: WeierstrassModel, n: int) -> list:
    """f_n(x): psi_n for odd n, psi_n / psi_2 for even n.

    Built from the b-invariants of w's exact terms, so an integral model
    gives int coefficients.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    b2, b4, b6, b8 = w.b2, w.b4, w.b6, w.b8
    F = [b6, 2 * b4, b2, 4]  # psi_2^2
    FF = poly_mul(F, F)
    cache: dict[int, list] = {
        0: [],
        1: [1],
        2: [1],
        3: [b8, 3 * b6, 3 * b4, b2, 3],
        4: [
            b4 * b8 - b6 * b6,
            b2 * b8 - b4 * b6,
            10 * b8,
            10 * b6,
            5 * b4,
            b2,
            2,
        ],
    }

    def f(m: int) -> list:
        if m in cache:
            return cache[m]
        if m == -1:
            return poly_scale(f(1), -1)
        if m % 2:
            k = (m - 1) // 2
            t1 = poly_mul(f(k + 2), poly_mul(f(k), poly_mul(f(k), f(k))))
            t2 = poly_mul(f(k - 1), poly_mul(f(k + 1), poly_mul(f(k + 1), f(k + 1))))
            if k % 2 == 0:
                val = poly_add(poly_mul(FF, t1), poly_scale(t2, -1))
            else:
                val = poly_add(t1, poly_scale(poly_mul(FF, t2), -1))
        else:
            k = m // 2
            inner = poly_add(
                poly_mul(f(k + 2), poly_mul(f(k - 1), f(k - 1))),
                poly_scale(poly_mul(f(k - 2), poly_mul(f(k + 1), f(k + 1))), -1),
            )
            val = poly_mul(f(k), inner)
        cache[m] = val
        return val

    return f(n)


def duplication_numerator(w: WeierstrassModel) -> list:
    """phi_2(x) = x^4 - b4 x^2 - 2 b6 x - b8; x(2P) = phi_2 / psi_2^2."""
    b4, b6, b8 = w.b4, w.b6, w.b8
    return [-b8, -2 * b6, -b4, 0, 1]


def _halving_quartic(w: WeierstrassModel, x0) -> list:
    """phi_2(x) - x0 psi_2(x)^2, whose roots are the x(Q) with x(2Q) = x0."""
    return poly_add(duplication_numerator(w), poly_scale(w.two_division_poly(), -_exact(x0)))


# ---------------------------------------------------------------------------
# torsion computation


MAZUR_STRUCTURES = {(1, n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)} | {
    (2, 2),
    (2, 4),
    (2, 6),
    (2, 8),
}


@dataclass
class TorsionGroup:
    structure: tuple[int, int]  # (n1, n2), n1 | n2, group = Z/n1 x Z/n2
    generators: list  # [(point, order)] on the input model
    model: WeierstrassModel

    @property
    def order(self) -> int:
        return self.structure[0] * self.structure[1]


@functools.cache
def _quadratic_character(p: int) -> tuple:
    """The table of (x | p) for x mod an odd prime p, read off the squares."""
    chi = [-1] * p
    for y in range(1, p // 2 + 1):
        chi[y * y % p] = 1
    chi[0] = 0
    return tuple(chi)


def count_points_mod_p(w: WeierstrassModel, p: int) -> int:
    """#E(F_p) for an odd prime of good reduction on an integral model:
    p + 1 + sum over x of chi(4x^3 + b2 x^2 + 2 b4 x + b6), the quadratic
    character read from a table of the squares mod p, built once per p."""
    b2, b4, b6 = (b % p for b in (w.b2, w.b4, w.b6))
    chi = _quadratic_character(p)
    return p + 1 + sum(chi[(((4 * x + b2) * x + 2 * b4) * x + b6) % p] for x in range(p))


def torsion_order_bound(w: WeierstrassModel) -> int:
    """gcd of #E(F_p) over up to eight good odd primes; a multiple of #tors."""
    disc = w.discriminant
    bound = 0
    count = 0
    p = 3
    while count < 8 and p < 3000:
        if disc % p:
            bound = math.gcd(bound, count_points_mod_p(w, p))
            count += 1
            if bound in (1, 2):
                break
        p += 2
        while not is_prime(p):
            p += 2
    return bound


def _points_over(w: WeierstrassModel, x) -> list[Point]:
    """The rational points (x, y) on w; on ints for an integral model and x."""
    a1, a2, a3, a4, a6 = w.ainvs
    x = _exact(x)
    yt = a1 * x + a3
    s = rational_sqrt(yt * yt + 4 * (((x + a2) * x + a4) * x + a6))
    if s is None:
        return []
    return [(x, y) for y in sorted({exact_half(-yt + s), exact_half(-yt - s)})]


def _halving_xs(w: WeierstrassModel, x0) -> tuple:
    """F'(x0) and the x(Q) with 2Q = T, for T of order 2 over a rational root
    x0 of F = 4x^3 + b2 x^2 + 2 b4 x + b6: x0 +- sqrt(F'(x0))/2, none when
    F'(x0) is not a rational square.  With eta = 2y + a1 x + a3 the curve is
    eta^2 = F = 4 prod (x - e_i); the halves of (e_1, 0) have x = e_1 +-
    sqrt((e_1 - e_2)(e_1 - e_3)) (Silverman, AEC X.1), and F'(e_1) = 4 (e_1 - e_2)(e_1 - e_3)."""
    D = (12 * x0 + 2 * w.b2) * x0 + 2 * w.b4
    s = rational_sqrt(D)
    if s is None:
        return D, []
    h = exact_half(s)
    return D, [x0 - h, x0 + h]


def two_torsion_points(w: WeierstrassModel) -> list:
    pts = []
    for x in map(_exact, rational_roots(w.two_division_poly())):
        y = exact_half(-w.y_terms(x))
        if w.contains(x, y):
            pts.append((x, y))
    return sorted(pts)


def halve_point(w: WeierstrassModel, P) -> list:
    """All rational Q with 2Q = P."""
    if point_order(w, P, 2) == 2:
        xs = _halving_xs(w, P[0])[1]
    else:
        xs = rational_roots(_halving_quartic(w, P[0]))
    return sorted({Q for x in xs for Q in _points_over(w, x) if point_mul(w, 2, Q) == P})


def points_of_order_n(w: WeierstrassModel, n: int) -> list:
    """Rational points of exact order n found through f_n."""
    xs = rational_roots(division_poly(w, n))
    return sorted({Q for x in xs for Q in _points_over(w, x) if point_order(w, Q, n + 1) == n})


def torsion_subgroup(w: WeierstrassModel) -> TorsionGroup:
    """Exact rational torsion subgroup, generators verified by scalar mult."""
    if w.is_singular:
        raise SingularModelError("torsion of a singular model")
    wi, chg = integral_model(w)
    bound = torsion_order_bound(wi)

    # 2-primary part; cyclic 2-power order is at most 8 over Q.  E(Q)[2]
    # embeds in E(F_p) at every good odd p, so an odd bound rules it out
    t2 = two_torsion_points(wi) if bound % 2 == 0 else []
    full2 = len(t2) == 3
    best2: Point = None
    best2_order = 1
    for T in t2:
        P, k = T, 2
        while bound % (2 * k) == 0 and k < 8:
            halves = halve_point(wi, P)
            if not halves:
                break
            P, k = halves[0], 2 * k
        if k > best2_order:
            best2, best2_order = P, k

    # odd part; by Mazur it has prime-power order, so the first prime found ends the search
    odd_point: Point = None
    odd_order = 1
    for ell in (3, 5, 7):
        if bound % ell:
            continue
        pts = points_of_order_n(wi, ell)
        if pts:
            odd_point, odd_order = pts[0], ell
            if ell == 3 and bound % 9 == 0:
                nine = _nine_torsion_over(wi, odd_point)
                if nine is not None:
                    odd_point, odd_order = nine, 9
            break

    gen = point_add(wi, best2, odd_point) if best2 or odd_point else None
    n2 = best2_order * odd_order
    n1 = 2 if full2 else 1
    if (n1, n2) not in MAZUR_STRUCTURES:
        raise ArithmeticError(f"computed structure {(n1, n2)} is impossible over Q")
    gens = []
    if full2:
        # a second generator of order 2, independent from gen
        inside = point_mul(wi, n2 // 2, gen) if n2 % 2 == 0 and gen else None
        T_other = next(T for T in t2 if T != inside)
        gens.append((T_other, 2))
    if gen is not None:
        check_invariant(point_order(wi, gen, n2) == n2, "{}: the generator {} does not have order {}", wi, gen, n2)
        gens.append((gen, n2))
    if chg != CoordinateChange.identity():
        # the generators on the input model are checked again after the change back
        gens = [(chg.apply_point(*P), k) for P, k in gens]
        for P, k in gens:
            check_invariant(point_order(w, P, k) == k, "{}: the generator {} does not have order {}", w, P, k)
    return TorsionGroup((n1, n2), gens, w)


def _nine_torsion_over(w: WeierstrassModel, P3) -> Optional[tuple]:
    """A rational point Q with 3Q = P3 (or -P3), if one exists."""
    f3 = division_poly(w, 3)
    f4 = division_poly(w, 4)
    F = w.two_division_poly()
    num = poly_add(poly_mul([0, 1], poly_mul(f3, f3)), poly_scale(poly_mul(F, f4), -1))
    target = poly_add(num, poly_scale(poly_mul(f3, f3), -_exact(P3[0])))
    for x in rational_roots(target):
        for Q in _points_over(w, x):
            if point_order(w, Q, 10) == 9:
                return Q
    return None


# ---------------------------------------------------------------------------
# torsion growth over quadratic fields


@dataclass
class GrowthReport:
    """Square classes of quadratic fields where 2-power torsion can grow.

    The classes are a certified superset: if class(d) avoids them, the
    2-power torsion cannot grow over Q(sqrt(d)).
    """

    two_power_classes: set
    d: int
    gains_2_possible: bool


def torsion_growth(w: WeierstrassModel, d: int) -> GrowthReport:
    """Can E(K)_tors gain 2-power order over K = Q(sqrt(d))?

    The classes are closed forms in F = 4x^3 + b2 x^2 + 2 b4 x + b6, the
    2-division polynomial.  When exactly one point of order 2, over x0, is
    rational, F = (x - x0) g with g an irreducible quadratic, and
    disc F = 16 disc(E) = F'(x0)^2 disc(g), so disc(g) has the class of the
    curve's discriminant.  Each rational T of order 2 over x0 has the
    halving quadratic q_T = (x - x0)^2 - F'(x0)/4 (`_halving_xs`): it gives
    the class of F'(x0) when that is not a square, and otherwise the
    classes of F, the curve's discriminant in y, at the two halves
    x0 +- sqrt(F'(x0))/2.

    The 4-division polynomial f_4 adds no class.  Up to a constant, f_4 is
    the product of q_T over the three T of order 2 over Qbar, and x(2Q) is
    a rational function of x(Q), so a root of f_4 generates a field that
    holds x(T) for its T.  A rational root or a rational quadratic factor
    of f_4 therefore either belongs to a rational q_T or lies over an
    irrational T; in the second case x(T) generates the field of g, and an
    irreducible F leaves nothing.  The rational quadratic factors of a
    product of two irreducible q_T are those q_T, because the only
    Galois-stable pairs of its roots are the conjugate pairs.
    """
    if squarefree_part(d) != d:
        raise ValueError("d must be squarefree")
    F = w.two_division_poly()
    ts = two_torsion_points(w)
    discs = [w.discriminant] if len(ts) == 1 else []
    for x0, _ in ts:
        D, xs = _halving_xs(w, x0)
        discs += [poly_eval(F, x) for x in xs] if xs else [D]
    classes = {square_class(D) for D in discs if not is_square(D)}
    return GrowthReport(two_power_classes=classes, d=d, gains_2_possible=square_class(d) in classes)


def z3_normalize(a: int, b: int) -> FamilyPoint:
    """Reduce (a, b) by (q, q^3) scalings until the family invariant holds."""
    if b <= 0:
        raise ValueError("b must be positive")
    # each scaling divides a and b, so no new prime enters gcd(a, b)
    for q in _common_primes(a, b):
        while a % q == 0 and b % q**3 == 0:
            a //= q
            b //= q**3
    return z3_point(a, b)
