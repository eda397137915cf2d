"""Descent through the 2-isogeny of y^2 = x^3 + Ax^2 + Bx.

Local images of the connecting map delta at every place, the phi-Selmer
group cut out by them, the everywhere-local norm group obtained by
intersecting with the twisted Selmer group, Kramer's local norm indices
i_l, and the resulting lower bound for dim Sha(E/K)[2].

At every finite l the local image has 2 c_l(E')/c_l(E) l^(s'-s) classes:
Schaefer-Stoll 2004, Lemma 3.8 gives #E(Q_l)[phi] c_l(E')/c_l(E) |phi'(0)|^-1
with Tamagawa numbers from Tate's algorithm and phi'(0) on Neron
differentials.  The 2-isogeny keeps the model differential dx/2y, so
|phi'(0)|^-1 = l^(s'-s), where s and s' are the scales (v(disc) - v_min)/12
of the models of E and E' over their minimal models.  At odd l, s' = s:
phi'(0) and phi-hat'(0) are integral on Neron differentials and their
product 2 is a unit.  The members come from an exact p-adic scan of X with
valuation-controlled refinement: a residue determines the square class of
X^3 + A'X^2 + B'X, Hensel-converges to a root, or is split one digit deeper;
the scan stops at the predicted size, and a mismatch raises ArithmeticError.
The scan is integer arithmetic throughout: X = w l^m is an integer for
m >= 0, and the disc v(X) = -2 that l = 2 needs is cleared of denominators
by evaluating 2^6 F(X) and 2^4 F'(X), whose valuations are shifted back by 6
and 4.  The tests judge the scan by a brute-force torsor enumeration.

phi_selmer takes its places and E's local reductions from the curve's one
global_data.  The descent needs the dual [0, -2A, 0, A^2 - 4B, 0] integral,
so only 2 divides the denominators of A and B, and an integral model of w
differs from w only at 2; as disc = 16 B^2 B', the primes of its
discriminant are 2 and the odd primes of B and B', the finite descent
places.  Tate's algorithm runs there only on the integral dual.  It finds
Sel^phi as the kernel of an F_2-linear map on the generators -1 and the
finite places, in the arith.local_class coordinates that every local image
stores, so the work grows with their number, not 2 to its power.
The places and minimal_scale_exp of a GlobalData belong to the model it was
computed for, so the functions here that take one take global_data(w) of w
itself; phi_intersection, and so everywhere_local_norm_dim, checks that gd
is of w's curve and that its primes cover the places of w.

phi_intersection builds no Selmer group of the twist E_d: it keeps the
classes of Sel^phi(E) that lie in the image of E_d where the two images can
differ.  Those are infinity, 2 unless d = 1 mod 8, the odd l | d, and the
odd l | B B' at which d is not a square.  At any other odd l, either d is
in Q_l*^2, so E_d = E over Q_l, or both curves have good reduction and
both images are the unramified classes.  At an odd l | d prime to B B', E
is good and E_d additive, so the image comes from 2-torsion: it is spanned
by the class of B'_d = d^2 B' and, when B = r^2 mod l, by d(A +- 2r), the
other roots of X^2 + A'_d X + B'_d (Schaefer-Stoll 2004, section 3; Kramer
1981).  Its size is still checked against Tate's count on E_d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod

from .arith import (
    OO,
    LocalSquareClassGroup,
    SquareClass,
    _class_count,
    hilbert_symbol,
    is_local_square,
    is_square,
    kronecker_symbol,
    local_class,
    padic_valuation,
    prime_divisors,
    square_class,
    squarefree_part,
)
from .tate import GlobalData, _integral_tuple, global_data, local_reduction, tate_algorithm
from .weierstrass import (
    SingularModelError,
    WeierstrassModel,
    check_invariant,
    curve_invariants,
    quadratic_twist,
    two_torsion_form,
)

def dual_params(A: Fraction, B: Fraction) -> tuple[Fraction, Fraction]:
    """(A', B') of the quotient curve E' = E/<(0,0)>."""
    return -2 * A, A * A - 4 * B


def _int_pair(A, B) -> tuple[int, int]:
    if A.denominator != 1 or B.denominator != 1:
        raise ValueError("integral A, B required")
    return int(A), int(B)


def local_image(w: WeierstrassModel, place) -> LocalSquareClassGroup:
    """Image of delta: E'(Q_l)/phi(E(Q_l)) -> Q_l*/Q_l*^2 for the descent
    through the 2-isogeny of y^2 = x^3 + Ax^2 + Bx; Tate's algorithm runs
    on E at that place only."""
    if place == OO:
        return _local_images(w, {})[OO]
    ell = int(place)
    return _local_images(w, {ell: local_reduction(w, ell)})[ell]


def _local_images(w: WeierstrassModel, local_data: dict) -> dict:
    """Local images at infinity and at each prime of `local_data` (E's LocalReduction
    by prime), from (A, B), disc(w) and the integral dual [0, A', 0, B', 0], each read once."""
    A, B = two_torsion_form(w)
    if w.is_singular:
        raise SingularModelError("descent needs a nonsingular curve")
    ep = _dual_data(A, B) if local_data else None  # the image at infinity alone needs no integral dual
    images = {ell: _finite_image(w, lr, ep, ell) for ell, lr in sorted(local_data.items())}
    images[OO] = LocalSquareClassGroup(OO, _image_at_infinity(*dual_params(A, B), B))
    return images


def _dual_data(A, B) -> tuple:
    """The integral tuple of the dual [0, A', 0, B', 0] and its curve invariants."""
    Ai, Bi = _int_pair(*dual_params(A, B))
    ap = (0, Ai, 0, Bi, 0)
    return ap, curve_invariants(ap)


def _image_size(w: WeierstrassModel, lr, ep: tuple, ell: int) -> int:
    # lr is E's LocalReduction at ell, ep as _dual_data returns it. Size 2 c_l(E')/c_l(E) l^(s'-s):
    # E' is integral, so s' is its count of restarts, while s is read off disc(w) and v_min
    lrp = tate_algorithm(*ep, ell)
    ds = lrp.minimal_scale_exp - (padic_valuation(w.discriminant, ell) - lr.v_min) // 12
    size, rem = divmod(2 * lrp.tamagawa * ell ** max(ds, 0), lr.tamagawa * ell ** max(-ds, 0))
    if rem or not size or _class_count(ell) % size:
        raise ArithmeticError(f"{w} at {ell}: 2*{lrp.tamagawa}/{lr.tamagawa}*{ell}^{ds} is not an image size")
    return size


def _finite_image(w: WeierstrassModel, lr, ep: tuple, ell: int) -> LocalSquareClassGroup:
    size = _image_size(w, lr, ep, ell)
    if size == _class_count(ell):
        return LocalSquareClassGroup.full(ell)
    _, Ai, _, Bi, _ = ep[0]
    grp = LocalSquareClassGroup(ell, frozenset(_image_scan(Ai, Bi, ell, size)))
    if len(grp) != size:
        raise ArithmeticError(f"{w} at {ell}: scan found {sorted(grp.elements)}, Tate predicts {size}")
    if not grp.is_subgroup():
        raise ArithmeticError(f"{w} at {ell}: local image {sorted(grp.elements)} is not a subgroup")
    return grp


def _fp_sqrt(a: int, p: int) -> int:
    """Square root mod odd prime p (Tonelli-Shanks); a must be a QR."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _ramified_twist_image(A, B, d: int, ell: int) -> LocalSquareClassGroup:
    """Image of delta_ell on the twist E_d at an odd ell | d prime to B and
    B' = A^2 - 4B: the classes of 1, d^2 B' and, when B = r^2 mod ell, d(A +- 2r)."""
    xs = [d * d * (A * A - 4 * B)]
    b = B.numerator * pow(B.denominator, -1, ell) % ell
    if kronecker_symbol(b, ell) == 1:
        r = _fp_sqrt(b, ell)
        xs += [d * (A + 2 * r), d * (A - 2 * r)]  # d times units: (A + 2r)(A - 2r) = B' mod ell
    return LocalSquareClassGroup(ell, frozenset({0} | {local_class(x, ell) for x in xs}))


def _image_at_infinity(Ap, Bp, B) -> frozenset:
    # F(X) = X(X^2 + A'X + B') takes a nonnegative value on some X < 0
    # iff F has a negative real root; bit 0 is the class of -1
    return frozenset({0, 1} if Bp < 0 or (B > 0 and Bp > 0 and Ap > 0) else {0})


def _image_scan(Ap: int, Bi: int, ell: int, size: int) -> set:
    """local_class bitmasks of the first `size` classes of points of E' over Q_ell the scan finds."""
    # delta(0, 0) = B', so the class of B' lies in every image
    members = {0, local_class(Bi, ell)}
    slack = 3 if ell == 2 else 1
    c = padic_valuation(Bi, ell)  # B' != 0 on a nonsingular curve
    guard = 2 * (padic_valuation(Ap * Ap - 4 * Bi, ell) if Ap * Ap != 4 * Bi else 0) + 2 * c + 24

    if ell == 2:
        # at a point, v(F(X)) = 3 v(X) is even when v(X) < 0, so v(X) is even;
        # for v(X) <= -4 the factor 1 + A'/X + B'/X^2 of F(X)/X^3 is 1 mod 16,
        # so X is a square: only the disc v(X) = -2 can add a class
        m_range = (-2, *range(0, c + 4))
        unit_mod, k0 = 8, 3
    else:
        m_range = range(0, c + 2)
        unit_mod, k0 = ell, 1

    for m in m_range:
        # X = w * ell^m with w a unit known modulo ell^k, written X = x / s with
        # x = w ell^max(m, 0) and s = ell^j, j = max(-m, 0).  Then
        # s^3 F(X) = x (x^2 + A's x + B's^2) and s^2 F'(X) = 3x^2 + 2A's x + B's^2,
        # and modulo squares X ~ x s and F(X) ~ s^3 F(X) s.
        j = max(-m, 0)
        s = ell**j
        scale, As, Bs = ell ** max(m, 0), Ap * s, Bi * s * s
        stack = [(w0, k0) for w0 in range(1, unit_mod) if w0 % ell]
        while stack:
            if len(members) >= size:
                return members
            w0, k = stack.pop()
            x = w0 * scale
            val = x * (x * x + As * x + Bs)
            if val == 0:
                members.add(local_class(x * s, ell))
                continue
            vF = padic_valuation(val, ell) - 3 * j
            dval = 3 * x * x + 2 * As * x + Bs
            vdF = padic_valuation(dval, ell) - 2 * j if dval else OO
            if vF > 2 * vdF and vF - vdF >= m + k:
                # Newton converges to a root at distance >= vF - vdF, hence
                # inside this residue disc; X - root then varies freely there
                # and F can be made a square, so class(X) is in the image
                members.add(local_class(x * s, ell))
                continue
            second = 2 * (m + k) + min(m, 0)
            determined = vF + slack <= min(vdF + m + k, second)
            if determined:
                if is_local_square(val * s, ell):
                    members.add(local_class(x * s, ell))
                continue
            if k > guard:  # pragma: no cover - safety net
                raise ArithmeticError("runaway refinement in local image scan")
            step = ell**k
            stack.extend((w0 + t * step, k + 1) for t in range(ell))
    return members


# ---------------------------------------------------------------------------
# phi-Selmer groups


@dataclass
class SelmerGroup2:
    """Sel^phi(E/Q) as a subgroup of Q*/Q*^2, with an F_2 basis."""

    elements: frozenset  # of SquareClass
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __contains__(self, cls: SquareClass) -> bool:
        return cls in self.elements


def _f2_insert(pivots: dict, r: int) -> bool:
    """Add the bitmask r, reduced by `pivots` (pivot bit -> row), as a row; True iff r was independent."""
    for bit, pr in pivots.items():
        if r >> bit & 1:
            r ^= pr
    if not r:
        return False
    bit = (r & -r).bit_length() - 1
    for b, pr in pivots.items():
        if pr >> bit & 1:
            pivots[b] = pr ^ r
    pivots[bit] = r
    return True


def phi_selmer(w: WeierstrassModel) -> SelmerGroup2:
    """Sel^phi(E/Q): the classes supported on -1 and the finite descent places
    whose restriction lies in the local image at every place.

    It is the kernel of F_2^k -> sum_v (Q_v*/Q_v*^2)/im delta_v on the k
    generators (Cremona 1997, 3.6): each functional vanishing on a local
    image gives one row, and Gaussian elimination gives the kernel.  The basis
    is each class, by |rep| with the negative last, independent of those before."""
    return _phi_selmer(w, global_data(w))


def _phi_selmer(w: WeierstrassModel, gd: GlobalData) -> SelmerGroup2:
    # gd is global_data(w): its primes are the finite places (see the module docstring)
    gens = [-1] + sorted(gd.local_data)
    rows = []
    for place, img in _local_images(w, gd.local_data).items():
        cols = [local_class(g, place) for g in gens]
        for f in range(1, _class_count(place)):
            if not any((f & x).bit_count() & 1 for x in img.classes):
                rows.append(sum(1 << j for j, c in enumerate(cols) if (f & c).bit_count() & 1))
    pivots = {}  # pivot bit -> row, reduced so that no other row has that bit
    for r in rows:
        _f2_insert(pivots, r)
    span = [0]
    for j in range(len(gens)):
        if j not in pivots:  # the kernel vector with free coordinate j
            e = 1 << j | sum(1 << bit for bit, pr in pivots.items() if pr >> j & 1)
            span += [e ^ x for x in span]
    # -1 and distinct primes, so every product is already squarefree
    reps = {e: prod(g for j, g in enumerate(gens) if e >> j & 1) for e in span}
    pivots = {}
    order = sorted(span, key=lambda e: (abs(reps[e]), reps[e] < 0))
    basis = tuple(SquareClass(reps[e]) for e in order if _f2_insert(pivots, e))
    elements = frozenset(SquareClass(r) for r in reps.values())
    if len(elements) != 2 ** len(basis):
        raise ArithmeticError(f"{w}: the {len(elements)} Selmer classes are not a group")
    return SelmerGroup2(elements, basis)


def selmer_kernel_class(w: WeierstrassModel) -> SquareClass:
    """Generator class of ker(Sel^phi -> Sel^2): the class of A^2 - 4B."""
    A, B = two_torsion_form(w)
    return square_class(A * A - 4 * B)


def everywhere_local_norm_dim(w: WeierstrassModel, d: int, gd: GlobalData) -> int:
    """Lower bound for dim_F2 of the everywhere-local norm group:
    dim of (Sel^phi(E) intersect Sel^phi(E_d)) modulo <class(A^2-4B)>; gd is global_data(w)."""
    inter = phi_intersection(w, d, gd)
    n = len(inter)
    if not n or n & (n - 1):
        raise ArithmeticError(f"{w}, d = {d}: the {n} classes of Sel^phi(E) and Sel^phi(E_d) in common are not a group")
    g = selmer_kernel_class(w)
    drop = 1 if (not g.is_trivial and g in inter) else 0
    return n.bit_length() - 1 - drop


def phi_intersection(w: WeierstrassModel, d: int, gd: GlobalData) -> frozenset:
    """Sel^phi(E) intersect Sel^phi(E_d) for the twist E_d by squarefree d, from
    Sel^phi(E) and the images of E_d where they can differ from E's (see the
    module docstring).  gd is global_data(w): InvariantViolation when it is of
    another curve or misses a place of w.  Refuses what phi_selmer(w) and
    quadratic_twist(w, d) refuse; ArithmeticError when an image's size is not Tate's."""
    gd.scale(w)
    disc = abs(_integral_tuple(w)[1][6])  # a prime p | disc has v_p(disc) < its bit length
    check_invariant(pow(prod(gd.local_data), disc.bit_length(), disc) == 0, "{}: gd misses a place of this model", w)
    sel = _phi_selmer(w, gd)
    wd = quadratic_twist(w, d)
    (A, B), (Ad, Bd) = two_torsion_form(w), two_torsion_form(wd)
    ed, epd = _integral_tuple(wd), _dual_data(Ad, Bd)
    images = [LocalSquareClassGroup(OO, _image_at_infinity(*dual_params(Ad, Bd), Bd))]
    odd = {p for p in prime_divisors(d) + list(gd.local_data) if p != 2 and kronecker_symbol(d % p, p) != 1}
    for ell in ([] if d % 8 == 1 else [2]) + sorted(odd):
        lr = tate_algorithm(*ed, ell)
        if ell == 2 or ell in gd.local_data:
            images.append(_finite_image(wd, lr, epd, ell))
            continue
        img, size = _ramified_twist_image(A, B, d, ell), _image_size(wd, lr, epd, ell)
        if len(img) != size:
            raise ArithmeticError(f"{wd} at {ell}: closed form {sorted(img.elements)}, Tate predicts {size}")
        images.append(img)
    return frozenset(x for x in sel.elements if all(x.rep in img for img in images))


# ---------------------------------------------------------------------------
# Kramer's local norm indices and the Sha[2] bound


class FullTwoTorsionError(ValueError):
    """The norm-index formulas assume E(Q)[2] = Z/2."""


def _check_z2_two_torsion(w: WeierstrassModel):
    A, B = two_torsion_form(w)
    if is_square(A * A - 4 * B):
        raise FullTwoTorsionError("curve has full rational 2-torsion")


class InadmissibleField(ValueError):
    """Q(sqrt(d)) is not an imaginary quadratic Heegner field of the curve."""


def field_discriminant(d: int) -> int:
    if d >= 0 or squarefree_part(d) != d:
        raise InadmissibleField("d must be a negative squarefree integer")
    return d if d % 4 == 1 else 4 * d


def splits_in(d: int, p: int) -> bool:
    """Does the prime p split in Q(sqrt(d))?"""
    disc = field_discriminant(d)
    if p == 2:
        return disc % 8 == 1
    return kronecker_symbol(disc % p, p) == 1


def check_heegner_field(gd: GlobalData, d: int):
    if not all(splits_in(d, p) for p in gd.bad_primes):
        raise InadmissibleField(f"d = {d} fails the Heegner condition for N = {gd.conductor}")


@lru_cache(maxsize=8)
def _squarefree_upto(bound: int) -> tuple:
    """The squarefree n with 1 <= n <= bound, ascending."""
    square_multiples = {m for q in range(2, isqrt(max(bound, 0)) + 1) for m in range(q * q, bound + 1, q * q)}
    return tuple(n for n in range(1, bound + 1) if n not in square_multiples)


def heegner_field_scan(w: WeierstrassModel, bound: int, gd: GlobalData = None) -> list[int]:
    """Negative squarefree d with |d| <= bound, all p | N split in Q(sqrt d)."""
    if gd is None:
        gd = global_data(w)
    ds = [-n for n in _squarefree_upto(bound)]
    for p in gd.bad_primes:
        if p == 2:
            # 2 splits iff the field discriminant is d itself and d = 1 mod 8
            ds = [d for d in ds if d % 8 == 1]
        else:
            # (4d|p) = (d|p), whatever d mod 4 is, by Euler's criterion
            e = (p - 1) // 2
            ds = [d for d in ds if pow(d, e, p) == 1]
    return ds


def local_norm_index(w: WeierstrassModel, place, d: int, gd: GlobalData) -> int:
    """Kramer's i_l for E(Q)[2] = Z/2 over K = Q(sqrt(d)); gd is global_data(w)."""
    _check_z2_two_torsion(w)
    if place == OO:
        return 1 if gd.delta_min > 0 else 0
    p = int(place)
    disc = field_discriminant(d)
    ramified = disc % p == 0
    good = gd.conductor % p != 0
    if not (ramified and good):
        return 0
    A, B = two_torsion_form(w)
    if p == 2:
        return 2 if hilbert_symbol(gd.delta_min, d, 2) == 1 else 1
    return 1 + (1 if is_local_square(A * A - 4 * B, p) else 0)


def sum_local_norm_indices(w: WeierstrassModel, d: int, gd: GlobalData) -> tuple[int, dict]:
    i_map = {OO: local_norm_index(w, OO, d, gd)}
    disc = field_discriminant(d)
    for p in prime_divisors(disc):
        i_map[p] = local_norm_index(w, p, d, gd)
    return sum(i_map.values()), i_map


@dataclass
class DescentCertificate:
    """Outcome of the Sha(E/K)[2] lower-bound computation."""

    curve: WeierstrassModel
    d: int
    i_map: dict
    sum_i: int
    dim_phi_lower: int
    sha2_dim_lower: int
    two_divides_sha_sqrt: bool
    hypotheses: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "curve": str(self.curve),
            "d": self.d,
            "i": {str(k): v for k, v in sorted(self.i_map.items(), key=lambda kv: str(kv[0]))},
            "sum_i": self.sum_i,
            "dim_phi_lower": self.dim_phi_lower,
            "sha2_dim_lower": self.sha2_dim_lower,
            "two_divides_sha_sqrt": self.two_divides_sha_sqrt,
            "hypotheses": self.hypotheses,
            "notes": self.notes,
        }


def kramer_sha2_bound(w: WeierstrassModel, d: int) -> DescentCertificate:
    """dim Sha(E/K)[2] >= sum(i_l) + dim(Phi) - rank E(K) - 2 dim E(Q)[2].

    rank E(K) = 1 follows from the Heegner hypothesis (Gross-Zagier,
    Kolyvagin).  With E(Q)[2] = Z/2 and the nonnegative norm-image term
    dropped, the bound is sum(i_l) + dim(Phi) - 3; when it is >= 1, the
    square order of Sha[2^inf] forces 2 | sqrt(#Sha(E/K)).
    """
    _check_z2_two_torsion(w)
    gd = global_data(w)
    check_heegner_field(gd, d)
    total, i_map = sum_local_norm_indices(w, d, gd)
    dim_phi = everywhere_local_norm_dim(w, d, gd)
    lower = total + dim_phi - 3
    cert = DescentCertificate(
        curve=w,
        d=d,
        i_map=i_map,
        sum_i=total,
        dim_phi_lower=dim_phi,
        sha2_dim_lower=lower,
        two_divides_sha_sqrt=lower >= 1,
        hypotheses=["rank E(K) = 1", f"K = Q(sqrt({d})) satisfies the Heegner condition"],
    )
    if lower < 1:
        cert.notes.append("insufficient: sum(i_l) + dim(Phi) < 4")
    return cert
