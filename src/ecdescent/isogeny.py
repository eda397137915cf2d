"""Rational 2- and 3-isogenies.

Degree-2 quotients by a rational 2-torsion point and degree-3 quotients
by a rational order-3 subgroup, both via Velu's formulas; the cube
criterion for when a 3-quotient again carries rational 3-torsion, with
its closed-form target model; quotient chains; which side of an isogeny
is etale (pullback scale of minimal invariant differentials). Kernel
points hold ints where they are integers, so on an integral model Velu's
formulas run on ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .arith import integer_root
from .families import FamilyPoint, build_curve, z3_normalize, z3_point
from .polyutil import exact_half
from .tate import global_data
from .weierstrass import (
    WeierstrassModel,
    _exact,
    check_invariant,
    curve_invariants,
    isomorphism_scale,
    point_neg,
    point_order,
)


@dataclass(frozen=True)
class IsogenyRecord:
    source: WeierstrassModel
    target: WeierstrassModel
    degree: int
    kernel: tuple  # rational points generating the kernel
    via: str = "velu"

    def __post_init__(self):
        for P in self.kernel:
            check_invariant(self.source.contains(*P), "kernel point ({}, {}) is not on {}", P[0], P[1], self.source)


def _velu_quotient(a: tuple, kernel_xs) -> tuple:
    """Coefficients of Velu's quotient of the model with coefficients a.

    kernel_xs holds one x per +-pair of kernel points. Like
    `curve_invariants`, this is a polynomial formula: int coefficients and
    x's give ints, Fractions give Fractions.
    """
    a1, a2, a3, a4, a6 = a
    b2, b4, b6 = curve_invariants(a)[:3]
    t = ww = 0
    for x in kernel_xs:
        uq = 4 * x**3 + b2 * x * x + 2 * b4 * x + b6
        tq = 6 * x * x + b2 * x + b4
        if uq == 0:
            # a 2-torsion x, where the t-contribution is halved. On ints tq
            # is even: uq = (a1 x + a3)^2 + 4 rhs(x) = 0 makes a1 x + a3
            # even, and tq = a1 (a1 x + a3) mod 2
            tq = exact_half(tq)
        t += tq
        ww += uq + x * tq
    return (a1, a2, a3, a4 - 5 * t, a6 - b2 * t - 7 * ww)


def velu_2_isogeny(w: WeierstrassModel, P) -> IsogenyRecord:
    """Quotient by a rational 2-torsion point."""
    P = (_exact(P[0]), _exact(P[1]))
    if not w.contains(*P):
        raise ValueError("kernel point is not on the curve")
    if point_order(w, P, 2) != 2:
        raise ValueError("kernel point is not 2-torsion")
    target = WeierstrassModel.from_ainvs(_velu_quotient(w.ainvs, [P[0]]))
    return IsogenyRecord(w, target, 2, (P,))


def velu_3_isogeny(w: WeierstrassModel, P) -> IsogenyRecord:
    """Quotient by the subgroup generated by a rational point of order 3."""
    P = (_exact(P[0]), _exact(P[1]))
    if not w.contains(*P):
        raise ValueError("kernel point is not on the curve")
    a, x = w.ainvs, P[0]
    b2, b4, b6, b8 = curve_invariants(a)[:4]
    # the points of order 3 are the affine points where psi_3 vanishes
    if 3 * x**4 + b2 * x**3 + 3 * b4 * x * x + 3 * b6 * x + b8 != 0:
        raise ValueError("kernel point is not 3-torsion")
    target = WeierstrassModel.from_ainvs(_velu_quotient(a, [x]))
    # 2P = -P for a point of order 3
    return IsogenyRecord(w, target, 3, (P, point_neg(w, P)))


@dataclass(frozen=True)
class CubeFailure:
    """The quotient exists but has no rational 3-torsion point (b not a cube)."""

    a: int
    b: int

    def __str__(self):
        return f"b = {self.b} is not a positive cube; the quotient of {z3_point(self.a, self.b)} has no rational 3-torsion"


def hadano_quotient(a: int, b: int) -> Union[IsogenyRecord, CubeFailure]:
    """Quotient of y^2 + axy + by = x^3 by its (0,0)-subgroup, when b = t^3.

    For b = t^3 (t > 0) the quotient is y^2 + (a+6t)xy + (a^2+3at+9t^2)t y = x^3
    with discriminant t^3 (a^2+3at+9t^2)^3 (a-3t)^3, and again carries the
    rational 3-torsion point (0,0).  Otherwise the quotient has no rational
    3-torsion point and a CubeFailure is returned instead of a model.
    """
    return _hadano_quotient(z3_point(a, b))  # validates, raises on singular input


def _hadano_quotient(fp: FamilyPoint) -> Union[IsogenyRecord, CubeFailure]:
    """`hadano_quotient` of an already validated Z/3 family point."""
    a, b = fp.params
    t = integer_root(b, 3)
    if t is None:
        return CubeFailure(a, b)
    src = build_curve(fp)
    q = a * a + 3 * a * t + 9 * t * t
    tgt = (a + 6 * t, 0, q * t, 0, 0)
    inv = curve_invariants(tgt)
    check_invariant(inv[6] == (t * q * (a - 3 * t)) ** 3, "a = {}, b = {}: wrong quotient discriminant", a, b)
    P = (0, 0)
    rec = IsogenyRecord(src, WeierstrassModel.from_ainvs(tgt), 3, (P, point_neg(src, P)), via="hadano")
    # the closed form agrees with Velu's construction up to isomorphism
    velu = curve_invariants(_velu_quotient(src.ainvs, [0]))
    check_invariant(isomorphism_scale(velu[4:], inv[4:]) is not None, "a = {}, b = {}: the quotient is not Velu's", a, b)
    return rec


@dataclass
class IsogenyChain:
    """Curves linked by quotienting out the rational (0,0) 3-subgroup."""

    start: FamilyPoint
    records: list
    family_points: list  # family form of every curve that has one

    @property
    def length(self) -> int:
        """Number of curves in the chain, terminal quotient included."""
        return len(self.records) + 1


def three_isogeny_chain(a: int) -> IsogenyChain:
    """Maximal quotient chain from y^2 + axy + y = x^3.

    Quotients by the rational 3-subgroup are taken while the current
    curve carries one (that is, while the cube criterion holds for its
    family parameters); the final quotient, whose target has no rational
    3-torsion, is still included.  Over Q such a chain has at most 4
    curves, the bound being attained only in the conductor-27 class.
    """
    start = z3_point(a, 1)
    cur = start
    records = []
    fps = [cur]
    while True:
        res = _hadano_quotient(cur)
        if isinstance(res, CubeFailure):
            # terminal step: the quotient still exists (kernel is rational)
            # but its target has no rational 3-torsion point
            w = build_curve(cur)
            records.append(velu_3_isogeny(w, (0, 0)))
            break
        records.append(res)
        cur = z3_normalize(res.target.a1, res.target.a3)
        fps.append(cur)
        if len(records) > 6:  # pragma: no cover
            raise ArithmeticError("impossibly long 3-isogeny chain")
    return IsogenyChain(start, records, fps)


# ---------------------------------------------------------------------------
# etale side


def pullback_scale(rec: IsogenyRecord) -> int:
    """|n| where phi^*(omega'_min) = n * omega_min; 1 or deg(phi).

    Velu's formulas preserve the invariant differential of the working
    models, so the scale is the ratio of the scalings u that carry each
    side to its minimal model.
    """
    n = global_data(rec.target).scale(rec.target) / global_data(rec.source).scale(rec.source)
    if n not in (1, rec.degree):
        raise ArithmeticError(f"pullback scale {n} is not 1 or {rec.degree}")
    return int(n)


def etale_side(scale: int) -> str:
    """Which of an isogeny and its dual is etale, "forward" or "dual", from
    the isogeny's `pullback_scale`."""
    return "forward" if scale == 1 else "dual"
