"""Exact integer/rational kernel.

Factorization, primality, p-adic valuations, exact integer roots,
Kronecker and Hilbert symbols, and square classes of Q*/Q*^2 together
with their local analogues at a prime or at the real place.  A local class
has one encoding, the F_2 bitmask of local_class: a local subgroup stores
its classes as these bitmasks, and the canonical reps and the Hilbert
symbol are read from them.  Everything
here is a pure function of its arguments and works on plain ints and
fractions.Fraction.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

#: Marker for the archimedean place of Q.
OO = float("inf")


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


SMALL_PRIMES = _sieve(10_000)
_SMALL_PRIME_SET = set(SMALL_PRIMES)

# Miller-Rabin to the first 12 prime bases is proven deterministic only below
# psi_12 = 318665857834031151167461 (Sorenson-Webster 2015); psi_12 itself is a
# strong pseudoprime to all of them.  From psi_12 on a strong Lucas test is
# added, which makes the check BPSW (Baillie-Wagstaff 1980): no composite is
# known to pass it, but it is not proven.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Primality: proven below psi_12 (about 3.2e23), BPSW from there on."""
    if n < 2:
        return False
    if n < 10_000:
        return n in _SMALL_PRIME_SET
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_12 or _strong_lucas(n)


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters (n odd, > 1)."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := kronecker_symbol(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        x %= n
        return (x + n if x % 2 else x) // 2

    # U_k, V_k, Q^k from k = 1, reading the bits of d after the leading one
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(P * U + V), half(D * U + P * V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


#: Iterations of the rho map `_pollard_rho` may spend on one composite,
#: over all its restarts. A prime factor p takes about sqrt(p) of them, and
#: Brent's rounds double in length, so this admits rounds up to 2^20 long:
#: it splits n = psi_12 = 399165290221 * 798330580441 in its last round, and
#: runs out on a product of two 20-digit primes after about 2.6 s (one core
#: of a shared Xeon VM, Python 3.11).
RHO_BUDGET = 1 << 22


class FactoringBudgetExceeded(ArithmeticError):
    """`factorize` found no factor of a composite within RHO_BUDGET."""


def _pollard_rho(n: int, rng: random.Random) -> int | None:
    """A nontrivial factor of n, or None once RHO_BUDGET is spent."""
    # Brent's variant; n must be odd composite, not a prime power handled upstream.
    steps = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            steps += 2 * r  # r steps here, at most r more below
            if steps > RHO_BUDGET:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor |n| into a sorted list of (prime, exponent) pairs.

    The sign is not part of the result: prod(p**e) * sign(n) == n.
    Trial division by small primes, then Pollard rho on what remains.

    Raises ValueError on n == 0, and FactoringBudgetExceeded when Pollard
    rho spends RHO_BUDGET iterations on a composite part of n without
    splitting it.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n0 = n
    n = abs(n)
    out: dict[int, int] = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    rng = None  # one generator per call, seeded when Pollard rho first runs
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack += [root, root]
            continue
        rng = rng or random.Random(0x5EED)
        d = _pollard_rho(m, rng)
        if d is None:
            raise FactoringBudgetExceeded(f"factoring {n0}: Pollard rho found no factor of {m} in {RHO_BUDGET} iterations")
        stack += [d, m // d]
    return sorted(out.items())


def prime_divisors(n: int) -> list[int]:
    return [p for p, _ in factorize(n)]


def padic_valuation(q: Rational, p: int) -> int:
    """Largest v with p**v dividing q (negative for denominators)."""
    if q == 0:
        raise ValueError("valuation of 0 is undefined")
    if type(q) is not int and isinstance(q, Fraction):  # ints skip the ABC check
        return padic_valuation(q.numerator, p) - padic_valuation(q.denominator, p)
    v = 0
    q = abs(q)
    while q % p == 0:
        q //= p
        v += 1
    return v


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the full extension of Jacobi/Legendre."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # peel factors of 2 from n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if abs(a) % 8 in (3, 5):
            sign = -sign
    # now n odd positive: Jacobi
    a %= n
    result = sign
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@functools.cache
def smallest_nonresidue(p: int) -> int:
    """Least positive quadratic nonresidue of an odd prime p."""
    for a in range(2, p):
        if kronecker_symbol(a, p) == -1:
            return a
    raise ValueError(f"{p} has no nonresidue; not an odd prime?")


def _as_integer_squareclass(q: Rational) -> int:
    """Replace a nonzero rational by an integer in the same square class."""
    if type(q) is not int and isinstance(q, Fraction):
        return q.numerator * q.denominator
    return q


def squarefree_part(n: int) -> int:
    """The squarefree integer s with n/s a positive perfect square."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    s = 1 if n > 0 else -1
    for p, e in factorize(n):
        if e % 2:
            s *= p
    return s


def integer_root(n: int, k: int) -> int | None:
    """The positive integer r with r**k == n, or None if there is none."""
    if n < 1:
        return None
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo**k == n else None


def rational_sqrt(q: Rational) -> Rational | None:
    """The nonnegative rational r with r * r == q, an int when it is an
    integer, or None if there is none."""
    if q < 0:
        return None
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if n * n != q.numerator or d * d != q.denominator:
        return None
    return n if d == 1 else Fraction(n, d)


def is_square(q: Rational) -> bool:
    return rational_sqrt(q) is not None


@dataclass(frozen=True, order=True)
class SquareClass:
    """An element of Q*/Q*^2, canonically a signed squarefree integer."""

    rep: int

    def __post_init__(self):
        if self.rep == 0:
            raise ValueError("square class of 0 undefined")
        if squarefree_part(self.rep) != self.rep:
            raise ValueError(f"{self.rep} is not squarefree")

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        # both reps are squarefree, so the square part of the product is g^2
        g = math.gcd(self.rep, other.rep)
        return SquareClass((self.rep // g) * (other.rep // g))

    @property
    def is_trivial(self) -> bool:
        return self.rep == 1

    def __repr__(self):
        return f"SquareClass({self.rep})"


def square_class(q: Rational) -> SquareClass:
    """Canonical square class of a nonzero rational."""
    if q == 0:
        raise ValueError("square class of 0 undefined")
    return SquareClass(squarefree_part(_as_integer_squareclass(q)))


def local_class(q: Rational, place) -> int:
    """F_2 coordinates of q in Q_place*/Q_place*^2 as a bitmask, so that the
    class of a product is the XOR.  With q = p^v u, u a unit: bit 0 is v mod 2
    (the sign at OO); bit 1 is [u a nonresidue] at odd p, and bits 1 and 2
    are [u = 3 mod 4] and [u = +-3 mod 8] at 2."""
    if q == 0:
        raise ValueError("square class of 0 undefined")
    n = _as_integer_squareclass(q)
    if place == OO:
        return int(n < 0)
    p = int(place)
    v = padic_valuation(n, p)
    u = n // p**v
    if p == 2:
        return v & 1 | (u % 4 == 3) << 1 | (u % 8 in (3, 5)) << 2
    return v & 1 | (pow(u, (p - 1) // 2, p) == p - 1) << 1  # Euler's criterion


@functools.cache
def _class_reps(place) -> tuple:
    """Canonical reps indexed by local_class: products of the basis elements its bits select."""
    p = None if place == OO else int(place)
    basis = (-1,) if p is None else (2, -1, 5) if p == 2 else (p, smallest_nonresidue(p))
    reps = (1,)
    for g in basis:
        reps += tuple(r * g for r in reps)
    return reps


def _class_count(place) -> int:
    """The order of Q_place*/Q_place*^2: 2 at OO, 8 at 2 and 4 at an odd prime."""
    return len(_class_reps(place))


def local_square_rep(q: Rational, place) -> int:
    """Canonical representative of q in Q_place^* / squares.

    At odd p the 4 reps are {1, n, p, n*p} with n the least nonresidue;
    at 2 they are {+-1, +-2, +-5, +-10}; at OO they are {1, -1}.
    """
    return _class_reps(place)[local_class(q, place)]


def is_local_square(q: Rational, place) -> bool:
    return local_class(q, place) == 0


def hilbert_symbol(a: Rational, b: Rational, place) -> int:
    """Hilbert norm-residue symbol (a,b) at a prime p or at OO.

    +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over Q_p (resp. R).
    It is (-1)^(x G y), a fixed bilinear form on the local_class bitmasks x
    of a and y of b (Serre, A Course in Arithmetic, III.1.2, Thm. 1); the
    rows of G are bitmasks, and below a = p^alpha u and b = p^beta v.
    """
    x, y = local_class(a, place), local_class(b, place)  # ValueError on 0
    if place == OO:
        gram = (0b1,)  # [a < 0][b < 0]
    elif int(place) == 2:
        gram = (0b100, 0b010, 0b001)  # alpha omega(v) + eps(u) eps(v) + beta omega(u)
    else:
        gram = (0b10 | (int(place) % 4 == 3), 0b01)  # alpha beta eps(p) + alpha [(v|p) = -1] + beta [(u|p) = -1]
    return -1 if sum((row & y).bit_count() for i, row in enumerate(gram) if x >> i & 1) & 1 else 1


@dataclass
class LocalSquareClassGroup:
    """A subgroup of Q_place^*/Q_place^{*2}, stored as the local_class bitmasks of its classes."""

    place: object
    classes: frozenset[int]

    @staticmethod
    def full(place) -> "LocalSquareClassGroup":
        return LocalSquareClassGroup(place, frozenset(range(_class_count(place))))

    @property
    def elements(self) -> frozenset:
        """The canonical reps of the classes."""
        reps = _class_reps(self.place)
        return frozenset(reps[c] for c in self.classes)

    def __contains__(self, q) -> bool:
        return local_class(q, self.place) in self.classes

    def __len__(self) -> int:
        return len(self.classes)

    @property
    def dim(self) -> int:
        return len(self.classes).bit_length() - 1

    def is_subgroup(self) -> bool:
        c = self.classes
        return 0 in c and all(x ^ y in c for x in c for y in c if x < y)
