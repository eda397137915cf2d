import random
from fractions import Fraction

import pytest

from ecdescent import arith, descent2, descent3, tate
from ecdescent.descent2 import heegner_field_scan
from ecdescent.descent3 import (
    CasselsLedger,
    HypothesisFailure,
    Sha3Certificate,
    ThreeDividesTamagawa,
    cassels_ledger,
    criterion_witnesses,
    sha3_criterion,
)
from ecdescent.families import build_curve, z3_point
from ecdescent.isogeny import hadano_quotient, pullback_scale
from ecdescent.tate import global_data, local_reduction
from ecdescent.weierstrass import WeierstrassModel


def W(*a):
    return WeierstrassModel.from_ainvs(a)


def find_heegner_d(a, bound=200):
    E = build_curve(z3_point(a, 1))
    for d in heegner_field_scan(E, bound):
        if d != -3:
            return d
    return None


def test_ledger_torsion_ratio_and_arch():
    # a = 1: disc = -26: b' = 13 prime: hypothesis (i) needs two primes; the
    # ledger itself still reports the ratio pieces
    a = 1
    d = find_heegner_d(a)
    assert d is not None
    led = cassels_ledger(a, d)
    assert led.torsion_ratio == 3
    assert led.archimedean_factor in (Fraction(1), Fraction(1, 3))
    # the factor read off the two global data is pullback_scale / 3
    seen = set()
    for a in range(-60, 61):
        if a == 3 or global_data(build_curve(z3_point(a, 1))).tamagawa_product % 3 == 0:
            continue
        d = find_heegner_d(a, 300)
        if d is None:
            continue
        arch = cassels_ledger(a, d).archimedean_factor
        assert arch == Fraction(pullback_scale(hadano_quotient(a, 1)), 3), a
        seen.add(arch)
    assert seen == {Fraction(1), Fraction(1, 3)}


def test_ledger_two_witness_bound():
    # hypothesis (i): two distinct primes dividing a^2+3a+9
    found = 0
    for a in range(2, 60):
        if a == 3:
            continue
        divs, _ = criterion_witnesses(a)
        if len(divs) < 2:
            continue
        d = find_heegner_d(a)
        if d is None:
            continue
        try:
            led = cassels_ledger(a, d)
        except ThreeDividesTamagawa:
            continue
        assert led.sel_phi_dim_lower >= 4, (a, d, led.as_dict())
        for p, ord3 in led.witnesses.items():
            lr = local_reduction(led.quotient, p)
            assert lr.tamagawa % 3 ** min(ord3, 1) == 0
        found += 1
        if found >= 4:
            break
    assert found >= 4


def test_sha3_certificate_cassels_route():
    done = 0
    for a in range(2, 80):
        if a == 3:
            continue
        divs, near = criterion_witnesses(a)
        if len(divs) < 2 and not near:
            continue
        d = find_heegner_d(a)
        if d is None:
            continue
        try:
            cert = sha3_criterion(a, d)
        except (HypothesisFailure, ThreeDividesTamagawa):
            continue
        if cert.route != "cassels":
            continue
        assert cert.sha3_dim_lower >= 2
        assert cert.conclusion == "3 | sqrt(#Sha(E/K))"
        assert cert.witnesses
        done += 1
        if done >= 3:
            break
    assert done >= 3


def test_sha3_short_circuit_tamagawa():
    # b = 1 curves with 3 | C exist: find one by scanning
    hit = None
    for a in range(1, 120):
        if a == 3:
            continue
        E = build_curve(z3_point(a, 1))
        gd = global_data(E)
        if gd.tamagawa_product % 3 == 0:
            hit = a
            break
    assert hit is not None
    cert = sha3_criterion(hit, -5)
    assert cert.route == "tamagawa"
    assert cert.conclusion == "3 | C"
    assert cert.witnesses


def test_sha3_refusals():
    a = 1  # a^2+3a+9 = 13 prime, a-3 = -2: prime 2 = 2 mod 3: no witness
    d = find_heegner_d(a)
    divs, near = criterion_witnesses(a)
    if len(divs) < 2 and not near:
        with pytest.raises(HypothesisFailure, match="prime power"):
            sha3_criterion(a, d)


def test_sha3_rejects_minus_three():
    for a in [2, 5]:
        E = build_curve(z3_point(a, 1))
        if global_data(E).tamagawa_product % 3 == 0:
            continue
        with pytest.raises(HypothesisFailure, match="u_K"):
            cassels_ledger(a, -3)


def test_tamagawa_of_quotient_has_split_witness():
    # hypothesis (ii): p | a - 3 with p = 1 mod 3 forces split reduction of
    # the quotient at p with 3 | ord_p(disc')
    done = 0
    for a in [10, 17, 24, 31, 16]:
        divs, near = criterion_witnesses(a)
        if not near:
            continue
        from ecdescent.isogeny import hadano_quotient

        rec = hadano_quotient(a, 1)
        for p in near:
            lr = local_reduction(rec.target, p)
            assert lr.kind == "split-multiplicative"
            assert lr.v_min % 3 == 0
            assert lr.tamagawa % 3 == 0
            done += 1
    assert done >= 2


def test_witness_checks_hold_under_optimize(run_optimized):
    # a doctored c_p of 1 must still be refused with the asserts compiled out
    script = (
        "import dataclasses\n"
        "from ecdescent import descent3, tate\n"
        "from ecdescent.weierstrass import InvariantViolation\n"
        "real = tate.tate_algorithm\n"
        "tate.tate_algorithm = lambda a, inv, p: dataclasses.replace(real(a, inv, p), tamagawa=1)\n"
        "try:\n"
        "    descent3.sha3_criterion(10, -10)\n"
        "except InvariantViolation as exc:\n"
        "    print('raised', 'prime to 3' in str(exc))\n"
    )
    assert run_optimized(script) == ["raised", "True"]


def test_criterion_reads_the_quotient_data_of_its_ledger(monkeypatch):
    # the witnesses' c_p come from the ledger's global_data of the quotient,
    # so the certificate runs Tate's algorithm no more often than its ledger
    real, calls = tate.tate_algorithm, []
    monkeypatch.setattr(tate, "tate_algorithm", lambda *args: calls.append(1) or real(*args))
    for a, d in [(10, -10), (16, -1)]:
        calls.clear()
        cassels_ledger(a, d)
        ledger_runs = len(calls)
        calls.clear()
        assert sha3_criterion(a, d).route == "cassels"
        assert len(calls) <= ledger_runs


def test_ledger_takes_the_quotient_primes_from_its_source(monkeypatch):
    # disc(E') = disc(E)^3 at b = 1, so the ledger hands E's primes to
    # global_data(E') and never factors disc(E'); the quotient data equal
    # an unhinted global_data(E'), keys in the same order
    real, seen = arith.prime_divisors, []

    def divisors(n):
        seen.append(abs(n))
        return real(n)

    rng = random.Random(20261021)
    checked = 0
    for a in rng.sample(range(-400, 400), 60):
        if a == 3:
            continue
        d = find_heegner_d(a)
        if d is None:
            continue
        for mod in (arith, tate, descent2, descent3):
            monkeypatch.setattr(mod, "prime_divisors", divisors)
        seen.clear()
        try:
            led = cassels_ledger(a, d)
        except ThreeDividesTamagawa:
            continue
        finally:
            monkeypatch.undo()
        disc_q = abs(led.quotient.discriminant)
        assert disc_q == abs(a**3 - 27) ** 3, a
        assert disc_q not in seen, a
        unhinted = global_data(led.quotient)
        assert led.quotient_data == unhinted, a
        assert list(led.quotient_data.local_data) == list(unhinted.local_data), a
        checked += 1
    assert checked >= 10
