"""Weierstrass models over Q.

Exact coefficients and point coordinates, each an int when it is an
integer and a Fraction otherwise (`_exact` is the one normalizer, and it
refuses floats), the one set of b/c invariant formulas and the one
[1,r,s,t] map (both shared with Tate's algorithm on integer tuples),
[u,r,s,t] coordinate changes, quadratic twists of y^2 = x^3 + Ax^2 + Bx,
point arithmetic used by the torsion and isogeny machinery, and the
scale u of an isomorphism over Q, read from c4, c6 and the discriminant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .arith import Rational, factorize, integer_root, squarefree_part


@dataclass(frozen=True)
class WeierstrassModel:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    `from_ainvs` holds the coefficients as ints when all five are integers
    and as Fractions otherwise. A model built directly with a Fraction
    among them equals, and hashes like, the one `from_ainvs` gives, but is
    `is_integral` only when all five are ints. A coefficient that is
    neither an int nor a Fraction raises TypeError.
    """

    a1: Rational
    a2: Rational
    a3: Rational
    a4: Rational
    a6: Rational

    def __post_init__(self):
        for x in (self.a1, self.a2, self.a3, self.a4, self.a6):
            if type(x) not in _EXACT_TYPES:
                raise TypeError(f"coefficient {x!r} is not an int or a Fraction")

    @staticmethod
    def from_ainvs(ainvs: Iterable[Rational]) -> "WeierstrassModel":
        """The model with these coefficients; a float raises TypeError."""
        a = tuple(ainvs)
        if any(type(x) is not int for x in a):
            a = tuple(map(_exact, a))
            if any(type(x) is not int for x in a):
                a = tuple(map(Fraction, a))
        a1, a2, a3, a4, a6 = a
        return WeierstrassModel(a1, a2, a3, a4, a6)

    @property
    def ainvs(self) -> tuple[Rational, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    # -- invariants ---------------------------------------------------------

    @cached_property
    def _invariants(self) -> tuple[Rational, ...]:
        """`curve_invariants` of the coefficients: ints on an integral model, else Fractions."""
        return curve_invariants(self.ainvs)

    @property
    def b2(self) -> Rational:
        return self._invariants[0]

    @property
    def b4(self) -> Rational:
        return self._invariants[1]

    @property
    def b6(self) -> Rational:
        return self._invariants[2]

    @property
    def b8(self) -> Rational:
        return self._invariants[3]

    @property
    def c4(self) -> Rational:
        return self._invariants[4]

    @property
    def c6(self) -> Rational:
        return self._invariants[5]

    @property
    def discriminant(self) -> Rational:
        return self._invariants[6]

    @property
    def is_singular(self) -> bool:
        return self.discriminant == 0

    @property
    def is_integral(self) -> bool:
        return all(type(a) is int for a in self.ainvs)

    # -- equation -----------------------------------------------------------

    def rhs(self, x: Fraction) -> Fraction:
        return ((x + self.a2) * x + self.a4) * x + self.a6

    def y_terms(self, x: Fraction) -> Fraction:
        return self.a1 * x + self.a3

    def contains(self, x: Rational, y: Rational) -> bool:
        a1, a2, a3, a4, a6 = self.ainvs
        x, y = _exact(x), _exact(y)
        return y * (y + a1 * x + a3) == ((x + a2) * x + a4) * x + a6

    def two_division_poly(self) -> list:
        """4x^3 + b2 x^2 + 2 b4 x + b6, whose roots are the 2-torsion x's;
        int coefficients on an integral model."""
        b2, b4, b6 = self._invariants[:3]
        return [b6, 2 * b4, b2, 4]

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.ainvs)) + "]"


def curve_invariants(a: tuple) -> tuple:
    """(b2, b4, b6, b8, c4, c6, disc) of a coefficient 5-tuple.

    The formulas are polynomials in the coefficients, so integer tuples
    give integers and Fraction tuples give Fractions.
    """
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, disc


_EXACT_TYPES = frozenset((int, Fraction))


def _exact(x) -> Rational:
    """The rational x as an int when it is an integer and as a Fraction
    otherwise, where a coefficient or a coordinate enters.

    Polynomial formulas in such terms and a model's coefficients (the
    curve equation, `rst_change`, psi_3, Velu's quotient) are exact on
    either, and run on ints when the model is integral too. A float raises
    TypeError, also under `python -O`: Fraction(float) would quietly take
    its binary value.
    """
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float; an exact rational must be an int, a Fraction or a string")
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def rst_change(a: tuple, r, s, t) -> tuple:
    """[1,r,s,t] on a coefficient 5-tuple: x = x' + r, y = y' + s x' + t.

    The formulas are polynomials, written in Horner form, so int tuples and
    shifts give ints and Fraction ones give Fractions (Cremona 1997,
    section 3.1).
    """
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * (a1 + s) + 3 * r,
        a3 + r * a1 + 2 * t,
        a4 + r * (2 * a2 + 3 * r - s * a1) - s * (a3 + 2 * t) - t * a1,
        a6 + r * (a4 + r * (a2 + r)) - t * (a3 + t + r * a1),
    )


class SingularModelError(ValueError):
    """Raised when an operation needs a nonsingular model."""


class InvariantViolation(ArithmeticError):
    """An internal arithmetic invariant failed.

    Raised explicitly rather than asserted, so the check also runs under
    `python -O`.
    """


def check_invariant(ok: bool, why: str, *args) -> None:
    """`assert ok, why.format(*args)` that `python -O` keeps: raises
    InvariantViolation. The message is formatted only when ok is false."""
    if not ok:
        raise InvariantViolation(why.format(*args))


def parse_model(text: str) -> WeierstrassModel:
    """Inverse of str(): "[a1,a2,a3,a4,a6]" with rational entries."""
    inner = text.strip().lstrip("[").rstrip("]")
    parts = [Fraction(tok.strip()) for tok in inner.split(",")]
    if len(parts) != 5:
        raise ValueError(f"expected five coefficients, got {len(parts)}")
    return WeierstrassModel.from_ainvs(parts)


@dataclass(frozen=True)
class CoordinateChange:
    """x = u^2 x' + r,  y = u^3 y' + u^2 s x' + t."""

    u: Fraction
    r: Fraction
    s: Fraction
    t: Fraction

    @staticmethod
    def of(u: Rational, r: Rational = 0, s: Rational = 0, t: Rational = 0) -> "CoordinateChange":
        """The change [u,r,s,t] in Fractions; a float raises TypeError."""
        u, r, s, t = (Fraction(_exact(x)) for x in (u, r, s, t))
        if u == 0:
            raise ValueError("u must be nonzero")
        return CoordinateChange(u, r, s, t)

    @staticmethod
    def identity() -> "CoordinateChange":
        return _IDENTITY

    def apply_point(self, x: Rational, y: Rational) -> tuple[Rational, Rational]:
        """Old-model coordinates of a point given in new-model coordinates."""
        x, y = _exact(x), _exact(y)
        return _exact(self.u**2 * x + self.r), _exact(self.u**3 * y + self.u**2 * self.s * x + self.t)


_IDENTITY = CoordinateChange.of(1)


def change_variables(w: WeierstrassModel, c: CoordinateChange) -> WeierstrassModel:
    """Apply [u,r,s,t]; disc scales by u^-12, c4 by u^-4, j is preserved.

    [1,r,s,t] runs on ints when w and r, s, t are integral; the result
    holds ints when it is integral, as `from_ainvs` does."""
    if c.u == 0:
        raise ValueError("u must be nonzero")
    a = rst_change(w.ainvs, _exact(c.r), _exact(c.s), _exact(c.t))
    if c.u != 1:
        u = Fraction(c.u)
        a = tuple(x / u**k for x, k in zip(a, (1, 2, 3, 4, 6)))
    return WeierstrassModel.from_ainvs(a)


def integral_model(w: WeierstrassModel) -> tuple[WeierstrassModel, CoordinateChange]:
    """Clear denominators by a [1/m,0,0,0] change; returns (model, change).

    An integral model comes back unchanged, with the identity change.
    """
    if w.is_integral:
        return w, _IDENTITY
    need: dict[int, int] = {}
    for i, a in zip((1, 2, 3, 4, 6), w.ainvs):
        if a.denominator > 1:
            for p, e in factorize(a.denominator):
                need[p] = max(need.get(p, 0), -(-e // i))
    m = 1
    for p, k in need.items():
        m *= p**k
    c = CoordinateChange.of(Fraction(1, m))
    out = change_variables(w, c)
    if not out.is_integral:
        raise InvariantViolation(f"{w}: scaling by {m} left {out} non-integral")
    return out, c


def quadratic_twist(w: WeierstrassModel, d: int) -> WeierstrassModel:
    """Twist of y^2 = x^3 + Ax^2 + Bx by squarefree d: y^2 = x^3 + Adx^2 + Bd^2x."""
    A, B = two_torsion_form(w)
    if d == 0:
        raise ValueError("twist parameter must be nonzero")
    if squarefree_part(d) != d:
        raise ValueError("twist parameter must be squarefree")
    return WeierstrassModel.from_ainvs([0, A * d, 0, B * d * d, 0])


def two_torsion_form(w: WeierstrassModel) -> tuple[Rational, Rational]:
    """Read off (A, B) from a model of the shape y^2 = x^3 + Ax^2 + Bx."""
    if w.a1 != 0 or w.a3 != 0 or w.a6 != 0:
        raise ValueError("model is not of the shape y^2 = x^3 + Ax^2 + Bx")
    return w.a2, w.a4


# -- point arithmetic -------------------------------------------------------

#: An affine point (x, y), each coordinate an int when it is an integer and
#: a Fraction otherwise, or None for the point at infinity.
Point = Optional[tuple[Rational, Rational]]


def point_neg(w: WeierstrassModel, P: Point) -> Point:
    if P is None:
        return None
    x, y = _exact(P[0]), _exact(P[1])
    return (x, _exact(-y - w.a1 * x - w.a3))


def point_add(w: WeierstrassModel, P: Point, Q: Point) -> Point:
    """P + Q, with exact coordinates.

    On an integral model with integral P and Q the slope is an int
    whenever its denominator divides its numerator, as it does between
    torsion points away from 2-torsion (Lutz-Nagell), and then the sum is
    computed on ints; otherwise on Fractions.
    """
    if P is None or Q is None:
        R = Q if P is None else P
        return None if R is None else (_exact(R[0]), _exact(R[1]))
    a1, a2, a3, a4, a6 = w.ainvs
    x1, y1, x2, y2 = _exact(P[0]), _exact(P[1]), _exact(Q[0]), _exact(Q[1])
    if x1 == x2 and y1 + y2 + a1 * x2 + a3 == 0:
        return None
    if x1 == x2 and y1 == y2:
        num, den = 3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1, 2 * y1 + a1 * x1 + a3
    else:
        num, den = y2 - y1, x2 - x1
    lam = num // den if num % den == 0 else Fraction(num, den)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return (_exact(x3), _exact(y3))


def point_mul(w: WeierstrassModel, n: int, P: Point) -> Point:
    if n < 0:
        return point_mul(w, -n, point_neg(w, P))
    R: Point = None
    Q = P
    while n:
        if n & 1:
            R = point_add(w, R, Q)
        n >>= 1
        if n:
            Q = point_add(w, Q, Q)
    return R


def point_order(w: WeierstrassModel, P: Point, bound: int) -> int:
    """Exact order of a point, or 0 if it exceeds `bound` (then infinite here)."""
    Q = P
    for n in range(1, bound + 1):
        if Q is None:
            return n
        Q = point_add(w, Q, P)
    return 0


# -- isomorphism testing ----------------------------------------------------


def isomorphism_scale(inv1: tuple, inv2: tuple) -> Optional[Fraction]:
    """The u > 0 with disc = u^12 disc', c4 = u^4 c4' and c6 = u^6 c6', given
    the (c4, c6, disc) of two nonsingular models, int or Fraction; None when
    there is none, that is when the models are not isomorphic over Q
    (Cremona 1997, section 3.1).  A twelfth root is unique up to sign, which
    neither c4 nor c6 sees.  Int invariants build no Fraction but the u
    returned."""
    c4, c6, d = inv1
    c4p, c6p, dp = inv2
    if d == 0 or dp == 0:
        raise SingularModelError("isomorphism testing needs nonsingular models")
    num, den = d.numerator * dp.denominator, d.denominator * dp.numerator
    g = math.gcd(num, den) * (1 if den > 0 else -1)
    n, m = integer_root(num // g, 12), integer_root(den // g, 12)  # u = n/m
    if n is None or m is None or c4 * m**4 != c4p * n**4 or c6 * m**6 != c6p * n**6:
        return None
    return Fraction(n, m)
