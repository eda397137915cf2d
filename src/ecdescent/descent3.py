"""Descent bookkeeping through the rational 3-isogeny of y^2 + axy + y = x^3.

The size ratio of the two Selmer groups attached to a 3-isogeny over an
imaginary quadratic field is a product of a torsion ratio, an archimedean
factor, and local Tamagawa ratios; with the Tamagawa number of the source
prime to 3 this yields a lower bound for dim_F3 Sel(E/K) and, under a
rank-1 hypothesis, for dim Sha(E/K)[3].  Every per-prime divisibility
claim is re-verified against the local reduction data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import padic_valuation, prime_divisors
from .descent2 import InadmissibleField, check_heegner_field, field_discriminant
from .families import build_curve, z3_normalize, z3_point
from .isogeny import IsogenyRecord, hadano_quotient
from .tate import SPLIT, GlobalData, global_data
from .weierstrass import WeierstrassModel, check_invariant, point_order


class ThreeDividesTamagawa(Exception):
    """Short-circuit: 3 | C(E), no Selmer work needed."""

    def __init__(self, curve: WeierstrassModel, gd: GlobalData):
        self.curve = curve
        self.global_data = gd
        super().__init__("3 divides the Tamagawa product")


class HypothesisFailure(ValueError):
    """A named hypothesis of the criterion fails."""


class NoWitnessPrimes(HypothesisFailure):
    """Neither witness hypothesis holds; the optimal-curve route settles a."""


@dataclass
class CasselsLedger:
    curve: WeierstrassModel
    quotient: WeierstrassModel
    d: int
    torsion_ratio: int  # #E(K)[phi] / #E'(K)[phi']
    archimedean_factor: Fraction  # 1 or 1/3
    ord3_target_over_K: int  # ord_3 of prod C'_q over places of K
    ord3_source_over_K: int
    witnesses: dict  # prime -> ord_3 C'_p over Q
    sel_phi_dim_lower: int
    quotient_data: GlobalData  # global_data(quotient), whose c_p the witnesses read
    hypotheses: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "curve": str(self.curve),
            "quotient": str(self.quotient),
            "d": self.d,
            "torsion_ratio": self.torsion_ratio,
            "archimedean_factor": str(self.archimedean_factor),
            "ord3_target_over_K": self.ord3_target_over_K,
            "witnesses": self.witnesses,
            "sel_phi_dim_lower": self.sel_phi_dim_lower,
            "hypotheses": self.hypotheses,
        }


def cassels_ledger(a: int, d: int) -> CasselsLedger:
    """Selmer-size ledger for E: y^2 + axy + y = x^3 over K = Q(sqrt(d)).

    Raises HypothesisFailure when d is inadmissible, and then
    ThreeDividesTamagawa when 3 | C(E) (nothing to do); d = -3 is refused
    only past that point, where the torsion ratio needs it.

    The quotient E' has the primes of E: `hadano_quotient` checks
    disc(E') = (q (a - 3))^3 with q = a^2 + 3a + 9, and q (a - 3) = a^3 - 27
    = disc(E), so global_data(E') takes E's primes as its hint and factors
    nothing.
    """
    E = build_curve(z3_point(a, 1))
    gd = global_data(E)
    try:
        field_discriminant(d)
        if d == -3 and gd.tamagawa_product % 3:
            raise HypothesisFailure("d = -3 has u_K = 3; the torsion ratio argument needs u_K != 3")
        check_heegner_field(gd, d)
    except InadmissibleField as exc:
        raise HypothesisFailure(str(exc)) from exc
    if gd.tamagawa_product % 3 == 0:
        raise ThreeDividesTamagawa(E, gd)
    rec = hadano_quotient(a, 1)
    check_invariant(isinstance(rec, IsogenyRecord), "a = {}: no 3-isogeny quotient", a)
    Ep = rec.target
    gdp = global_data(Ep, bad_prime_hint=sorted(gd.local_data))
    # equal conductors give E' the bad primes of E, which all split in K by
    # check_heegner_field above, so Tamagawa numbers over K are the squares
    # of the rational ones
    check_invariant(gdp.conductor == gd.conductor, "a = {}: isogenous curves of different conductors", a)
    witnesses = {p: padic_valuation(gdp.local_data[p].tamagawa, 3) for p in gdp.bad_primes}
    ord3_target = 2 * sum(witnesses.values())
    ord3_source = 2 * sum(padic_valuation(lr.tamagawa, 3) for p, lr in gd.local_data.items() if lr.conductor_exponent)
    check_invariant(ord3_source == 0, "a = {}: 3 divides a Tamagawa number of E after the 3 | C check", a)
    # kernel of phi is rational, kernel of the dual has irrational points
    # (their rationality over K would force the cube roots of unity into K)
    torsion_ratio = 3
    check_invariant(point_order(E, (0, 0), 3) == 3, "a = {}: (0, 0) does not have order 3", a)
    # pullback_scale(rec) / 3, read off the scales of both sides
    arch = gdp.scale(Ep) / (3 * gd.scale(E))
    check_invariant(arch in (Fraction(1), Fraction(1, 3)), "a = {}: archimedean factor {} is not 1 or 1/3", a, arch)
    sel_lower = padic_valuation(torsion_ratio, 3) + (ord3_target - ord3_source)
    if arch == Fraction(1, 3):
        sel_lower -= 1
    return CasselsLedger(
        curve=E,
        quotient=Ep,
        d=d,
        torsion_ratio=torsion_ratio,
        archimedean_factor=arch,
        ord3_target_over_K=ord3_target,
        ord3_source_over_K=ord3_source,
        witnesses=witnesses,
        sel_phi_dim_lower=sel_lower,
        quotient_data=gdp,
        hypotheses=[
            f"K = Q(sqrt({d})) satisfies the Heegner condition",
            "E'(K)[dual] = 0 since d != -3",
        ],
    )


@dataclass
class Sha3Certificate:
    curve: WeierstrassModel
    d: int
    route: str  # "tamagawa" or "cassels"
    conclusion: str
    sha3_dim_lower: int
    ledger: CasselsLedger | None
    hypotheses: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "curve": str(self.curve),
            "d": self.d,
            "route": self.route,
            "conclusion": self.conclusion,
            "sha3_dim_lower": self.sha3_dim_lower,
            "hypotheses": self.hypotheses,
            "witnesses": self.witnesses,
        }
        if self.ledger is not None:
            out["ledger"] = self.ledger.as_dict()
        return out


def criterion_witnesses(a: int) -> tuple[list[int], list[int]]:
    """Primes for the two alternative hypotheses.

    First list: prime divisors of the quotient's family parameter after
    normalization (the effective form of "two primes divide a^2+3a+9":
    when 27 | a^2+3a+9 the factor 3 is scaled away and witnesses nothing).
    Second list: primes p | (a-3) with p = 1 mod 3.
    """
    b_eff = z3_normalize(a + 6, a * a + 3 * a + 9).params[1]
    divs = prime_divisors(b_eff) if b_eff > 1 else []
    near = [p for p in prime_divisors(a - 3) if p % 3 == 1] if a != 3 else []
    return divs, near


def sha3_criterion(a: int, d: int) -> Sha3Certificate:
    """Certify 3 | C or dim Sha(E/K)[3] >= 2 for E: y^2 + axy + y = x^3.

    Route one: 3 | C directly.  Route two: two split places of K with
    Tamagawa number divisible by 3 on the quotient curve push
    dim Sel(E/K) for the 3-isogeny to >= 4; rank E(K) = 1, which the
    infinite order of the Heegner point forces, pins E(K)/3E(K) = (Z/3)^2
    and leaves dim Sha[3] >= 2, hence 3 | sqrt(#Sha(E/K)).
    """
    try:
        ledger = cassels_ledger(a, d)
    except ThreeDividesTamagawa as short:
        return Sha3Certificate(
            curve=short.curve,
            d=d,
            route="tamagawa",
            conclusion="3 | C",
            sha3_dim_lower=0,
            ledger=None,
            hypotheses=[],
            witnesses={
                p: lr.tamagawa
                for p, lr in short.global_data.local_data.items()
                if lr.tamagawa % 3 == 0
            },
        )
    divs, near = criterion_witnesses(a)
    cond_i = len(divs) >= 2
    cond_ii = bool(near)
    if not (cond_i or cond_ii):
        raise NoWitnessPrimes(
            "neither hypothesis holds: the normalized quotient parameter is a "
            "prime power (or trivial) and no prime p = 1 mod 3 divides a-3; "
            "these parameters are settled through the optimal-curve route instead"
        )
    local = ledger.quotient_data.local_data
    primes = divs[:2] if cond_i else [near[0], next(q for q in divs if q != near[0])]
    check_invariant(set(primes) <= set(local), "a = {}: the quotient's local data misses a witness prime in {}", a, primes)
    if not cond_i:
        lr = local[near[0]]
        check_invariant(lr.kind == SPLIT and lr.v_min % 3 == 0, "a = {}: the quotient at {} is not split I_3k", a, near[0])
    confirmed = {p: local[p].tamagawa for p in primes}
    check_invariant(all(c % 3 == 0 for c in confirmed.values()), "a = {}: a witness c_p in {} is prime to 3", a, confirmed)
    check_invariant(ledger.sel_phi_dim_lower >= 4, "a = {}, d = {}: Selmer lower bound below 4", a, d)
    # Sel^phi embeds in Sel^3 (the dual kernel has no K-point), and rank 1
    # gives E(K)/3E(K) of F_3-dimension 2
    sha_lower = ledger.sel_phi_dim_lower - 2
    return Sha3Certificate(
        curve=ledger.curve,
        d=d,
        route="cassels",
        conclusion="3 | sqrt(#Sha(E/K))",
        sha3_dim_lower=sha_lower,
        ledger=ledger,
        hypotheses=ledger.hypotheses + ["rank E(K) = 1"],
        witnesses=confirmed,
    )
