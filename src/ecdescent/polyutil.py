"""Small exact-polynomial toolbox.

Polynomials are lists of coefficients, lowest degree first.  Rational
root extraction works on integer polynomials of modest degree (division
polynomials up to order 12) whose coefficients may be hundreds of digits;
it lifts roots modulo an auxiliary prime and reconstructs u/w exactly,
so no divisor enumeration of the constant term is ever needed.  An
auxiliary prime q is accepted when q does not divide the leading
coefficient and g'(r) != 0 mod q at every root r of g mod q, which the
evaluation of g at each residue finds: each such root is simple, so it
lifts to one q-adic root, and every rational root reduces to one of
them.  No gcd(g, g') mod q is taken, and a rejected q costs one
evaluation at its q residues.  The search runs in two stages.  The first
tries the 25 primes 31-149 on the polynomial itself.  Only when none
passes, as at a repeated rational root (a multiple root mod every q) or
a discriminant that all 25 divide, is the polynomial stripped of its
repeated factors by a gcd with its derivative over Q, and the stripped
one searched through the rest of the primes below 10^4, at O(q) per
rejected q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .arith import SMALL_PRIMES


def poly_trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_eval(f: Sequence, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_deriv(f: Sequence) -> list:
    return [i * c for i, c in enumerate(f)][1:]


def poly_mul(f: Sequence, g: Sequence) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def poly_add(f: Sequence, g: Sequence) -> list:
    n = max(len(f), len(g))
    return poly_trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def poly_scale(f: Sequence, c) -> list:
    return [c * a for a in f]


def poly_divmod_q(f: Sequence, g: Sequence) -> tuple[list, list]:
    """Exact division with remainder over Q."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    poly_trim(g)
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    r = f[:]
    poly_trim(r)
    while r and len(r) >= len(g):
        c = r[-1] / g[-1]
        d = len(r) - len(g)
        q[d] = c
        for i, gc in enumerate(g):
            r[i + d] -= c * gc
        poly_trim(r)
    return poly_trim(q), r


def poly_gcd_q(f: Sequence, g: Sequence) -> list:
    """Monic gcd over Q."""
    a = poly_trim([Fraction(c) for c in f])
    b = poly_trim([Fraction(c) for c in g])
    while b:
        _, r = poly_divmod_q(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def poly_content(f: Sequence[int]) -> int:
    c = 0
    for a in f:
        c = math.gcd(c, a)
    return c or 1


def poly_primitive(f: Sequence) -> list[int]:
    """Clear denominators and content, preserving the root set.

    The coefficients may be ints, Fractions or both; ints are read as they
    are, with no Fraction built.
    """
    den = 1
    for c in f:
        den = den * c.denominator // math.gcd(den, c.denominator)
    g = [c.numerator * (den // c.denominator) for c in f]
    cont = poly_content(g)
    return [c // cont for c in g]


def squarefree_part_poly(f: Sequence[int]) -> list[int]:
    """f / gcd(f, f'), primitive over Z; same roots, all simple."""
    g = poly_gcd_q(f, poly_deriv(f))
    if len(g) == 1:
        return poly_primitive(f)
    q, r = poly_divmod_q(f, g)
    if r:
        raise ArithmeticError(f"gcd(f, f') does not divide f = {f}")
    return poly_primitive(q)


# ---------------------------------------------------------------------------
# roots over F_p


def fp_roots(f: list[int], p: int) -> list[int]:
    """All roots of f in F_p, in increasing order, by evaluation at every residue."""
    f = [c % p for c in f]
    if not any(f):
        raise ValueError("zero polynomial")
    return [x for x in range(p) if poly_eval(f, x) % p == 0]


# ---------------------------------------------------------------------------
# exact rational roots of integer polynomials


def _rational_reconstruct(r: int, m: int, ubound: int, wbound: int):
    """Find (u, w) with u/w = r mod m, |u| <= ubound, 0 < w <= wbound, else None."""
    v0, v1 = (m, 0), (r % m, 1)
    while v1[0] > ubound:
        q = v0[0] // v1[0]
        v0, v1 = v1, (v0[0] - q * v1[0], v0[1] - q * v1[1])
    u, w = v1[0], v1[1]
    if w == 0 or abs(w) > wbound:
        return None
    if w < 0:
        u, w = -u, -w
    return u, w


def _vanishes_at(g: Sequence[int], u: int, w: int) -> bool:
    """Is u/w a root of g, tested on ints as sum c_i u^i w^(n-i) = 0?"""
    acc, wk = 0, 1
    for c in reversed(g):
        acc = acc * u + c * wk
        wk *= w
    return acc == 0


#: Auxiliary primes of `rational_roots`, in the order tried: the primes
#: above 30 and below 10^4, at each of which `fp_roots` evaluates.
AUX_PRIMES = tuple(q for q in SMALL_PRIMES if q > 30)
#: How many of them `rational_roots` tries before it strips repeated factors.
_FIRST_STAGE = 25


def _auxiliary_prime(g: list[int], primes: Sequence[int]) -> tuple[int, list[int]] | None:
    """(q, the roots of g mod q) for the first q of `primes` with q not
    dividing lead(g) and g'(r) != 0 mod q at every root r; else None."""
    dg = poly_deriv(g)
    for q in primes:
        if g[-1] % q:
            roots = fp_roots(g, q)
            if all(poly_eval(dg, r) % q for r in roots):
                return q, roots
    return None


def rational_roots(f: Sequence) -> list[Fraction]:
    """All rational roots of a nonzero polynomial with rational coefficients."""
    f = poly_primitive(list(f))
    poly_trim(f)
    if not f:
        raise ValueError("zero polynomial")
    roots = []
    if f[0] == 0:
        roots.append(Fraction(0))
        while f[0] == 0:
            f = f[1:]
    if len(f) == 1:
        return roots
    if len(f) == 2:
        return sorted(roots + [Fraction(-f[0], f[1])])
    g, found = f, _auxiliary_prime(f, AUX_PRIMES[:_FIRST_STAGE])
    if found is None:
        # every first-stage prime meets a root of f mod q that is not simple:
        # strip its repeated factors over Q and search the rest of the list
        g = squarefree_part_poly(f)
        found = _auxiliary_prime(g, AUX_PRIMES[_FIRST_STAGE:])
        if found is None:  # pragma: no cover - every prime in (149, 10^4) divides lead(g) disc(g)
            raise ArithmeticError("no good auxiliary prime found")
    q, residues = found
    ubound, wbound = abs(g[0]), abs(g[-1])
    target = 2 * ubound * wbound + 1
    prec = 1
    while q**prec < target:
        prec *= 2
    dg = poly_deriv(g)
    for r0 in residues:
        # Newton lift the simple root r0 to Z/q^prec
        r, k, qk = r0, 1, q
        while k < prec:
            k = min(2 * k, prec)
            qk = q**k
            fr = poly_eval(g, r) % qk
            r = (r - fr * pow(poly_eval(dg, r), -1, qk)) % qk
        cand = _rational_reconstruct(r, qk, ubound, wbound)
        if cand is not None and _vanishes_at(g, *cand):
            roots.append(Fraction(*cand))
    return sorted(set(roots))


def exact_half(c):
    """c / 2 for an int or a Fraction c: an int when c is even."""
    return c // 2 if c % 2 == 0 else Fraction(c, 2)

