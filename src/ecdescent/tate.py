"""Local reduction data at every prime via Tate's algorithm.

The full step 1-11 loop is implemented, including the I_n* sub-loop and
the non-minimal restart, over exact integer 5-tuples: the int
coefficients of an integral model. Each step's valuation condition is a
divisibility test on the coefficients, as in Cremona, Algorithms for
Modular Elliptic Curves (1997), section 3.2, and each step is a closed
form from there, with no search over residues. Multiplicative reduction
(p | disc, p not dividing c4) is read from (c4, c6) without moving the
model: it is I_n with n = v(disc), split iff the Kronecker symbol
(-c6 | p) is 1. At the node b4 = b6 = 0 mod p, so -c6 = b2^3 there, and
b2 = a1^2 + 4 a2 is the discriminant of the tangent quadratic
T^2 + a1 T - a2; at p = 2, where a1 is odd, -c6 = b2 = 1 + 4 a2 mod 8,
and (-c6 | 2) = 1 exactly when a2 is even, that is when the quadratic
has a root mod 2. Otherwise the reduction is additive, and the
singular point of step 2 comes from a2, a4, a6 at p = 2, from b6 at
p = 3 and from b2 above; steps 5, 7 and 8 from quadratic discriminants
(parity at p = 2); and step 6 from the discriminant of its cubic, whose
repeated root, when there is one, is written down, and whose roots, when
there is none, are counted in closed form. Every move of the
model is `weierstrass.rst_change`, the [1,r,s,t] map that
`change_variables` runs too; step 6's shear and translation are one such
move. The Kodaira types handed out are shared values, one per
(family, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .arith import is_prime, kronecker_symbol, padic_valuation, prime_divisors
from .weierstrass import (
    InvariantViolation,
    SingularModelError,
    WeierstrassModel,
    check_invariant,
    curve_invariants,
    integral_model,
    isomorphism_scale,
    rst_change,
)

GOOD = "good"
SPLIT = "split-multiplicative"
NONSPLIT = "nonsplit-multiplicative"
ADDITIVE = "additive"


@dataclass(frozen=True, slots=True)
class KodairaType:
    """Kodaira symbol: family in {I, I*, II, III, IV, IV*, III*, II*}."""

    family: str
    n: int = 0

    def __post_init__(self):
        if self.family in ("I", "I*"):
            if self.n < 0:
                raise ValueError("n must be nonnegative")
        elif self.n:
            raise ValueError(f"type {self.family} carries no index")

    def __str__(self) -> str:
        if self.family == "I":
            return f"I{self.n}"
        if self.family == "I*":
            return f"I{self.n}*"
        return self.family


@cache
def _kodaira_type(family: str, n: int) -> KodairaType:
    """The one KodairaType(family, n): Tate's algorithm hands out shared
    values rather than building a frozen one per run."""
    return KodairaType(family, n)


I0 = _kodaira_type("I", 0)


@dataclass(frozen=True, slots=True)
class LocalReduction:
    prime: int
    kodaira: KodairaType
    tamagawa: int
    conductor_exponent: int
    v_min: int
    kind: str
    minimal_scale_exp: int  # p-power taken out of the input model by restarts

    def as_dict(self) -> dict:
        return {
            "prime": self.prime,
            "kodaira": str(self.kodaira),
            "c_p": self.tamagawa,
            "f_p": self.conductor_exponent,
            "v_min": self.v_min,
            "kind": self.kind,
        }


def _singular_point(a, p, invariants):
    """The singular point of an additive reduction of a mod p (p | disc and
    p | c4), as residues, given the curve_invariants of a. At p > 3, x is
    the triple root -b2/12 of X^3 - 27 c4 X - 54 c6 = X^3 mod p,
    X = 36x + 3 b2 (Cremona 1997, 3.2)."""
    a1, a2, a3, a4, a6 = a
    b2, _, b6, _, _, _, _ = invariants
    if p == 2:
        x0, y0 = a4, a4 * (1 + a2 + a4) + a6
    elif p == 3:
        x0 = -b6
        y0 = a1 * x0 + a3
    else:
        x0 = -b2 * pow(12, -1, p) % p
        y0 = -(a1 * x0 + a3) * pow(2, -1, p)
    return x0 % p, y0 % p


def _cubic_disc(P) -> int:
    """The discriminant of T^3 + b T^2 + c T + d, given as P = [d, c, b, 1]."""
    d, c, b, _ = P
    return b * b * c * c - 4 * c**3 - 4 * b**3 * d - 27 * d * d + 18 * b * c * d


def _cubic_repeated_root(P, p, disc):
    """(root, multiplicity) of the repeated root of T^3 + b T^2 + c T + d,
    given as P = [d, c, b, 1] with discriminant disc, mod p, or None when the
    cubic is separable.  A repeated root is rational: double when p does not
    divide 3c - b^2, else triple (Cremona 1997, section 3.2)."""
    d, c, b, _ = P
    if disc % p:
        return None
    x = 3 * c - b * b
    if x % p:
        if p == 2:
            return c % 2, 2
        if p == 3:
            return b * c % 3, 2
        return (b * c - 9 * d) * pow(2 * x, -1, p) % p, 2
    return (-d if p == 3 else -b * pow(3, -1, p)) % p, 3


def _cubic_root_count(P, p, disc):
    """The number of roots in F_p of the separable T^3 + b T^2 + c T + d,
    given as P = [d, c, b, 1] with discriminant disc.  At p = 2 by evaluation
    at 0 and 1.  At odd p it has one root iff disc is a nonresidue
    (Stickelberger; Swan, Pacific J. Math. 12, 1962), else three or none as
    x^p = x mod P or not, with x^p taken on residues r0 + r1 x + r2 x^2."""
    d, c, b, _ = P
    if p == 2:
        return (d % 2 == 0) + ((1 + b + c + d) % 2 == 0)
    if pow(disc, (p - 1) // 2, p) == p - 1:
        return 1
    r0, r1, r2 = 0, 1, 0
    for bit in bin(p)[3:]:
        # square, folding x^4 = -b x^3 - c x^2 - d x and then x^3 = -b x^2 - c x - d
        e4, e3 = r2 * r2, 2 * r1 * r2
        e2, e1 = r1 * r1 + 2 * r0 * r2 - c * e4, 2 * r0 * r1 - d * e4
        e3 -= b * e4
        r0, r1, r2 = (r0 * r0 - d * e3) % p, (e1 - c * e3) % p, (e2 - b * e3) % p
        if bit == "1":
            r0, r1, r2 = -d * r2 % p, (r0 - c * r2) % p, (r1 - b * r2) % p
    return 3 if (r0, r1, r2) == (0, 1, 0) else 0


def _quad_distinct_mod_p(A, B, C, p):
    """Does A y^2 + B y + C (A a unit) have distinct roots over F_p-bar?"""
    if p == 2:
        return B % 2 == 1
    return (B * B - 4 * A * C) % p != 0


def _quad_rational_mod_p(A, B, C, p):
    """Assuming distinct roots, are they in F_p?"""
    if p == 2:
        return any((A * y * y + B * y + C) % 2 == 0 for y in (0, 1))
    return kronecker_symbol(B * B - 4 * A * C, p) == 1


def _quad_double_root(A, B, C, p):
    """The double root of A y^2 + B y + C mod p (A unit, disc = 0 mod p)."""
    if p == 2:
        return (C * A) % 2
    return (-B * pow(2 * A, -1, p)) % p


def integral_tuple(w: WeierstrassModel) -> tuple:
    """Integer 5-tuple of an integral model of w (w's own coefficients when
    w is integral) and the curve invariants of that tuple."""
    a = integral_model(w)[0].ainvs
    invariants = curve_invariants(a)
    if invariants[6] == 0:
        raise SingularModelError("Tate's algorithm needs a nonsingular curve")
    return a, invariants


def local_reduction(w: WeierstrassModel, p: int) -> LocalReduction:
    """Kodaira type, Tamagawa number, conductor exponent and v(disc_min) at p."""
    return tate_algorithm(*integral_tuple(w), p)


def tate_algorithm(a: tuple, invariants: tuple, p: int) -> LocalReduction:
    """Tate's algorithm at p on the integral coefficient 5-tuple a of a
    nonsingular model, given its `curve_invariants`."""
    u_exp = 0
    while True:
        c4, disc = invariants[4], invariants[6]
        n = padic_valuation(disc, p)
        if n == 0:
            return LocalReduction(p, I0, 1, 0, 0, GOOD, u_exp)
        if c4 % p:
            # multiplicative, I_n: the tangent quadratic at the node has
            # discriminant b2, and -c6 = b2^3 there, mod p (mod 8 at p = 2);
            # c_p is n when split, else 2 or 1 as n is even or odd
            split = kronecker_symbol(-invariants[5], p) == 1
            c = n if split else (2 if n % 2 == 0 else 1)
            return LocalReduction(p, _kodaira_type("I", n), c, 1, n, SPLIT if split else NONSPLIT, u_exp)

        # Step 2: move the singular point of the reduction to (0,0).
        x0, y0 = _singular_point(a, p, invariants)
        a = rst_change(a, x0, 0, y0)
        a1, a2, a3, a4, a6 = a

        # additive from here on
        if a6 % p**2:
            return LocalReduction(p, _kodaira_type("II", 0), 1, n, n, ADDITIVE, u_exp)
        _, _, b6, b8, _, _, _ = curve_invariants(a)
        if b8 % p**3:
            return LocalReduction(p, _kodaira_type("III", 0), 2, n - 1, n, ADDITIVE, u_exp)
        if b6 % p**3:
            c = 3 if _quad_rational_mod_p(1, a3 // p, -(a6 // p**2), p) else 1
            return LocalReduction(p, _kodaira_type("IV", 0), c, n - 2, n, ADDITIVE, u_exp)

        # Step 6 normalization: p | a1, a2; p^2 | a3, a4; p^3 | a6.
        # The shear by s leaves a3 and a6 as they are, so t is read before it.
        if p == 2:
            if a3 % 4:
                raise InvariantViolation(f"{a} at 2: a3 not divisible by 4 in step 6")
            s, t = a2 % 2, 2 if a6 % 8 == 4 else 0
        else:
            s, t = -a1 * pow(2, -1, p) % p, -a3 * pow(2, -1, p * p) % (p * p)
        a = rst_change(a, 0, s, t)
        a1, a2, a3, a4, a6 = a
        if a1 % p or a2 % p:
            raise InvariantViolation(f"{a} at {p}: p does not divide a1, a2 in step 6")
        if a3 % p**2 or a4 % p**2 or a6 % p**3:
            raise InvariantViolation(f"{a} at {p}: p^2 does not divide a3, a4 or p^3 a6 in step 6")

        P = [(a6 // p**3) % p, (a4 // p**2) % p, (a2 // p) % p, 1]
        dP = _cubic_disc(P)
        rep = _cubic_repeated_root(P, p, dP)
        if rep is None:
            # separable cubic: one component per rational root, plus one
            c = 1 + _cubic_root_count(P, p, dP)
            return LocalReduction(p, _kodaira_type("I*", 0), c, n - 4, n, ADDITIVE, u_exp)
        r1, mult = rep
        a = rst_change(a, p * r1, 0, 0)
        a1, a2, a3, a4, a6 = a

        if mult == 2:
            # Step 7: I_m* sub-loop
            if a2 % p or not a2 % p**2 or a3 % p**2 or a4 % p**3 or a6 % p**4:
                raise InvariantViolation(f"{a} at {p}: valuations off at the start of step 7")
            j = 1
            while True:
                # odd sub-step m = 2j-1: Y^2 + (a3/p^{j+1}) Y - a6/p^{2j+2}
                c3 = a3 // p ** (j + 1)
                c6_ = a6 // p ** (2 * j + 2)
                if _quad_distinct_mod_p(1, c3, -c6_, p):
                    m = 2 * j - 1
                    c = 4 if _quad_rational_mod_p(1, c3, -c6_, p) else 2
                    return LocalReduction(p, _kodaira_type("I*", m), c, n - 4 - m, n, ADDITIVE, u_exp)
                y1 = _quad_double_root(1, c3, -c6_, p)
                a = rst_change(a, 0, 0, p ** (j + 1) * y1)
                a1, a2, a3, a4, a6 = a
                # even sub-step m = 2j: (a2/p) X^2 + (a4/p^{j+2}) X + a6/p^{2j+3}
                d2 = a2 // p
                d4 = a4 // p ** (j + 2)
                d6 = a6 // p ** (2 * j + 3)
                if _quad_distinct_mod_p(d2, d4, d6, p):
                    m = 2 * j
                    c = 4 if _quad_rational_mod_p(d2, d4, d6, p) else 2
                    return LocalReduction(p, _kodaira_type("I*", m), c, n - 4 - m, n, ADDITIVE, u_exp)
                x1 = _quad_double_root(d2, d4, d6, p)
                a = rst_change(a, p ** (j + 1) * x1, 0, 0)
                a1, a2, a3, a4, a6 = a
                j += 1
                if 2 * j > n:  # pragma: no cover
                    raise ArithmeticError("runaway I_n* loop")

        # Step 8: triple root
        if a2 % p**2 or a4 % p**3 or a6 % p**4:
            raise InvariantViolation(f"{a} at {p}: valuations off at the start of step 8")
        c3 = a3 // p**2
        c6_ = a6 // p**4
        if _quad_distinct_mod_p(1, c3, -c6_, p):
            c = 3 if _quad_rational_mod_p(1, c3, -c6_, p) else 1
            return LocalReduction(p, _kodaira_type("IV*", 0), c, n - 6, n, ADDITIVE, u_exp)
        y1 = _quad_double_root(1, c3, -c6_, p)
        a = rst_change(a, 0, 0, p**2 * y1)
        a1, a2, a3, a4, a6 = a
        if a4 % p**4:
            return LocalReduction(p, _kodaira_type("III*", 0), 2, n - 7, n, ADDITIVE, u_exp)
        if a6 % p**6:
            return LocalReduction(p, _kodaira_type("II*", 0), 1, n - 8, n, ADDITIVE, u_exp)

        # Step 11: not minimal; scale down and restart.
        if a1 % p or a2 % p**2 or a3 % p**3:
            raise InvariantViolation(f"{a} at {p}: model does not scale down in step 11")
        a = (a1 // p, a2 // p**2, a3 // p**3, a4 // p**4, a6 // p**6)
        invariants = curve_invariants(a)
        u_exp += 1


@dataclass(frozen=True)
class GlobalData:
    minimal_model: WeierstrassModel
    delta_min: int
    conductor: int
    tamagawa_product: int
    local_data: dict

    @property
    def bad_primes(self) -> list[int]:
        return sorted(p for p, lr in self.local_data.items() if lr.conductor_exponent > 0)

    def scale(self, w: WeierstrassModel) -> Fraction:
        """|u| with disc(w) = u^12 disc_min, c4(w) = u^4 c4_min and c6(w) = u^6 c6_min: the
        scaling from w to the minimal model; InvariantViolation when w is not a model of this curve."""
        m = self.minimal_model
        u = isomorphism_scale((w.c4, w.c6, w.discriminant), (m.c4, m.c6, m.discriminant))
        why = "{}: not a model of {}: disc / disc_min is no twelfth power u^12 with c4, c6 scaled by u^4, u^6"
        check_invariant(u is not None, why, w, m)
        return u


def global_data(w: WeierstrassModel, bad_prime_hint=None) -> GlobalData:
    """Global minimal model, minimal discriminant, conductor, Tamagawa product.

    `bad_prime_hint` may list the primes dividing the discriminant of the
    integral model (family sweeps know them without factoring); it is
    verified cheaply, so a hint with an entry that is not prime, or one
    that does not cover the discriminant, fails loudly.  Only the hint's
    primes that divide the discriminant are kept, so a hinted result equals
    the unhinted one.
    """
    a, invariants = integral_tuple(w)
    _, _, _, _, c4, c6, disc = invariants
    if bad_prime_hint is not None:
        primes = sorted(set(int(p) for p in bad_prime_hint))
        if not all(map(is_prime, primes)):
            raise ValueError(f"bad_prime_hint has an entry that is not prime: {primes}")
        rem = abs(disc)
        for p in primes:
            while rem % p == 0:
                rem //= p
        if rem != 1:
            raise ValueError("bad_prime_hint does not cover the discriminant")
        primes = [p for p in primes if disc % p == 0]
    else:
        primes = prime_divisors(disc)
    local = {p: tate_algorithm(a, invariants, p) for p in primes}
    u = 1
    for p, lr in local.items():
        u *= p**lr.minimal_scale_exp
    delta_min = disc // u**12
    conductor = 1
    tamagawa = 1
    for p, lr in local.items():
        conductor *= p**lr.conductor_exponent
        if lr.conductor_exponent > 0:
            tamagawa *= lr.tamagawa
    return GlobalData(model_from_c4c6(c4 // u**4, c6 // u**6), delta_min, conductor, tamagawa, local)


def minimal_model(w: WeierstrassModel) -> WeierstrassModel:
    return global_data(w).minimal_model


def model_from_c4c6(c4: int, c6: int) -> WeierstrassModel:
    """The reduced integral model with the given invariants (Kraus-Connell)."""
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    if (b2 * b2 - c4) % 24:
        raise ValueError("invalid (c4, c6) pair")
    b4 = (b2 * b2 - c4) // 24
    if (-(b2**3) + 36 * b2 * b4 - c6) % 216:
        raise ValueError("invalid (c4, c6) pair")
    b6 = (-(b2**3) + 36 * b2 * b4 - c6) // 216
    a1 = b2 % 2
    a2 = (b2 - a1) // 4
    a3 = b6 % 2
    a4 = (b4 - a1 * a3) // 2
    a6 = (b6 - a3) // 4
    a = (a1, a2, a3, a4, a6)
    if curve_invariants(a)[4:6] != (c4, c6):
        raise ValueError("invalid (c4, c6) pair")
    return WeierstrassModel.from_ainvs(a)
