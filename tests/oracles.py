"""Independent oracles that judge the library's fast paths.

Each one recomputes a quantity the library gets another way, by a slower
method that shares none of the fast path's code:

- `local_image_bruteforce` enumerates torsor points for `descent2.local_image`;
- `torsion_points_lutz_nagell` enumerates integral points for
  `families.torsion_subgroup`;
- `splits_in_oracle` solves x^2 = disc (mod 4p) for `descent2.splits_in`;
- `find_isomorphism` solves for a change [u,r,s,t] between two models for
  `weierstrass.isomorphic_over_q`, the test behind the check that the
  Hadano quotient is Velu's;
- `hilbert_places` lists the places the Hilbert product formula runs over.

`tests/test_oracle_independence.py` checks that this module names none of
the functions it judges.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ecdescent.arith import (
    OO,
    LocalSquareClassGroup,
    Rational,
    _as_integer_squareclass,
    factorize,
    padic_valuation,
    prime_divisors,
)
from ecdescent.descent2 import _int_pair, dual_params, field_discriminant
from ecdescent.families import TorsionGroup
from ecdescent.polyutil import rational_roots
from ecdescent.tate import minimal_model
from ecdescent.weierstrass import (
    CoordinateChange,
    SingularModelError,
    WeierstrassModel,
    _rational_twelfth_roots,
    change_variables,
    point_add,
    point_mul,
    point_order,
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
    if place == OO or place is None:
        return LocalSquareClassGroup(OO, frozenset(_infty_oracle(Ap, Bp)))
    ell = int(place)
    Ai, Bi = _int_pair(Ap, Bp)
    v = max(padic_valuation(w.discriminant, ell), padic_valuation(16 * Bi * Bi * (Ai * Ai - 4 * Bi), ell))
    k = 2 * v + 6
    if ell == 2:
        k += 4
    while k > 1 and ell**k > cap:
        k -= 1
    members = set()
    for b in sorted(LocalSquareClassGroup.full(ell).elements, key=abs):
        if _torsor_solvable(b, Ai, Bi, ell, k):
            members.add(b)
    grp = LocalSquareClassGroup(ell, frozenset(members))
    if not grp.is_subgroup():
        raise ArithmeticError(f"{w} at {ell}: torsor classes {sorted(members)} are not a subgroup")
    return grp


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
        if m.contains(x, y) and point_order(m, (x, y), 16):
            back.add((x, y))
    # group closure and structure
    group = {None} | back
    changedflag = True
    while changedflag:
        changedflag = False
        for P in list(group):
            for Q in list(group):
                R = point_add(m, P, Q)
                if R not in group:
                    group.add(R)
                    changedflag = True
    order = len(group)
    two = [P for P in group if P is not None and point_order(m, P, 2) == 2]
    n1 = 2 if len(two) == 3 else 1
    n2 = order // n1
    gens = []
    cyc = next((P for P in group if P is not None and point_order(m, P, n2 + 1) == n2), None)
    if n1 == 2 and cyc is not None:
        inside = point_mul(m, n2 // 2, cyc) if n2 % 2 == 0 else None
        gens.append((next(T for T in two if T != inside), 2))
    if cyc is not None:
        gens.append((cyc, n2))
    return TorsionGroup((n1, n2), gens, m)


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
# isomorphism over Q


def find_isomorphism(w1: WeierstrassModel, w2: WeierstrassModel) -> Optional[CoordinateChange]:
    """A change c with change_variables(w1, c) == w2, if one exists over Q."""
    if w1.is_singular or w2.is_singular:
        raise SingularModelError("isomorphism testing needs nonsingular models")
    ratio = w1.discriminant / w2.discriminant
    # u^12 = disc1/disc2
    for u in _rational_twelfth_roots(ratio):
        s = (w2.a1 * u - w1.a1) / 2
        r = (w2.a2 * u**2 - w1.a2 + s * w1.a1 + s * s) / 3
        t = (w2.a3 * u**3 - w1.a3 - r * w1.a1) / 2
        if change_variables(w1, CoordinateChange(u, r, s, t)) == w2:
            return CoordinateChange(u, r, s, t)
    return None
