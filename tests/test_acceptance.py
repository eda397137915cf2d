"""Acceptance suite: one test per criterion, exact-match assertions.

Each test prints one PASS line (visible with -s or on failure); the time
limits stated for the sweeps are asserted inside the tests themselves.
The paper's tables (criteria 1-5, 9-11 and the second half of 6) run
through `ecdescent.verify`, the code `ecdescent verify-paper` runs: each
test runs exactly the tables its criterion names, at their default
inputs, and asserts that no case failed, how many were checked, and the
criterion's expected values.
"""

import random
import time
from fractions import Fraction


from ecdescent import verify
from ecdescent.arith import OO, factorize, hilbert_symbol, is_prime, prime_divisors
from ecdescent.descent2 import kramer_sha2_bound, local_image, splits_in
from ecdescent.families import SingularParameterError
from ecdescent.fixtures import FIXTURES
from ecdescent.isogeny import hadano_quotient, velu_2_isogeny, velu_3_isogeny
from ecdescent.weierstrass import WeierstrassModel
from oracles import find_isomorphism, hilbert_places, local_image_bruteforce


def W(*a):
    return WeierstrassModel.from_ainvs(a)


def _report(n, ok, text):
    print(f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {n}: {text}"


def _tables(section, *tables):
    """Run the named tables of one section; the report and the seconds taken."""
    rep = verify.Report(section)
    t0 = time.time()
    for table in tables:
        table(rep)
    return rep, time.time() - t0


def _model(label):
    return str(FIXTURES[label].model)


def test_criterion_01_lambda_family_tate_rows():
    # 500 sampled pairs, every prime with ord_p(lambda) = m > 0: split I_4m, c = 4m
    rep, elapsed = _tables(3, verify.multiplicative_rows)
    _report(
        1,
        rep.failed == 0 and rep.attempted == 1553 and elapsed < 10,
        f"500 sampled parameter pairs, {rep.attempted} positive-valuation primes "
        f"all split I_4m with c=4m ({elapsed:.1f}s < 10s)",
    )


def test_criterion_02_exception_scan():
    # every curve in range is checked for 8 | C, not only the counting exceptions
    rep, elapsed = _tables(3, verify.exception_scan)
    nine = ["15a1", "15a3", "21a1", "24a1", "48a3", "120a2", "240a3", "240d5", "336e4"]
    exceptions, eight, cm = rep.cases
    ok = rep.failed == 0 and exceptions["expected"] == sorted(map(_model, nine))
    # every prime power of 2 beyond the table still has 8 | C, so the lone
    # 8|C violator across the whole scan is the C*M = 8 curve
    ok = ok and eight["computed"] == {"violators": [_model("15a3")]} and cm["computed"] == 8
    ok = ok and eight["inputs"] == {"bound": 200, "curves": 24462} and elapsed < 60
    _report(
        2,
        ok,
        f"nine counting exceptions recovered exactly; only 8|C violator has C*M=8 ({elapsed:.1f}s < 60s)",
    )


def test_criterion_03_full_two_torsion_sweep():
    rep, _ = _tables(4, verify.four_divides_scan)
    (case,) = rep.cases
    attempted = case["inputs"]["attempted"]
    ok = rep.failed == 0 and attempted == 179700
    ok = ok and case["computed"] == {_model("17a2"): 2, _model("32a2"): 2}
    _report(3, ok, f"{attempted} curves, 4 | C except the two C=M=2 curves")


def test_criterion_04_mod128_table():
    rep, _ = _tables(6, verify.b1_tables)
    got = [(c["case_id"], c["inputs"]["range"], c["computed"]["mismatches"]) for c in rep.cases]
    ok = got == [(t, [2, 2050], []) for t in ("s6-mod128-table", "s6-good-at-2", "s6-odd-criterion")]
    _report(4, ok, f"parity table, good-reduction rule, odd-C_2 classes over A in [2,2050]: {got}")


def test_criterion_05_beta_power_table():
    rep, _ = _tables(5, verify.beta_power_table)
    rows = {c["inputs"]["beta"]: (c["expected"]["C"], c["expected"]["label"]) for c in rep.cases[:-1]}
    # (beta, expected C of the curve, expected label or None)
    for beta, c, label in [
        (2**2, 2, "40a3"),
        (2**4, 2, "32a4"),
        (2**6, 4, None),
        (2**8, 4, None),
        (-(2**2), 2, "24a4"),
        (-(2**6), 2, "24a3"),
        (-(2**8), 1, "15a7"),
        (-(2**10), 2, None),
        (-(2**12), 4, None),
    ]:
        assert rows[beta] == (c, label), beta
    ok = rep.failed == 0 and rep.attempted == 12 and rep.cases[-1]["computed"] == "singular"
    _report(5, ok, f"all {rep.attempted - 1} beta rows and the singular row")


def _criterion6_pool():
    pool = []
    for p in range(17, 302, 8):
        if not is_prime(p):
            continue
        for z in (1, 2):
            q = p ** (2 * z) + 16
            fac = factorize(q)
            if max(f for f, _ in fac) > 2_000_000:
                continue
            if any(e % 2 == 0 for _, e in fac):
                continue
            if not all(splits_in(-2, r) for r in prime_divisors(p * q)):
                continue
            pool.append((p, z))
    return pool


def test_criterion_06_kramer_machinery():
    pool = _criterion6_pool()
    assert len(pool) >= 5, pool
    rng = random.Random(606)
    cache = {}
    count = 0
    for _ in range(100):
        p, z = rng.choice(pool)
        if (p, z) not in cache:
            w = W(0, p ** (2 * z) + 8, 0, 16, 0)
            cache[(p, z)] = kramer_sha2_bound(w, -2)
        cert = cache[(p, z)]
        assert cert.sum_i == 3, (p, z, cert.as_dict())
        assert cert.dim_phi_lower >= 1, (p, z, cert.as_dict())
        assert cert.sha2_dim_lower >= 1 and cert.two_divides_sha_sqrt
        count += 1
    # B = -1, A = 2 mod 4: the image of 2 is nontrivial in Phi
    rep, _ = _tables(6, verify.phi2_table)
    (phi2,) = rep.cases
    found = phi2["computed"]["count"]
    ok = phi2["inputs"]["A"] == [6, 10, 14, 18, 22, 26, 30, 34] and rep.failed == 0 and found == 7
    _report(
        6,
        count == 100 and ok,
        f"100 sampled pairs (pool of {len(pool)}): sum(i)=3, dim(Phi)>=1, Sha[2] nontrivial; "
        f"image of 2 nontrivial for {found} twisted-family cases",
    )


def test_criterion_07_local_image_oracle():
    curves = []
    for A, B in [
        (1, 3), (3, -1), (-2, 5), (5, 4), (0, -1), (2, -3), (-3, 2), (7, -1),
        (4, 1), (1, -2), (6, -1), (-1, -5), (5, 1), (0, 2), (3, 5), (-4, 3),
        (2, 7), (-5, -1), (1, 6), (8, 1), (-6, 1), (3, 4), (9, 2), (-2, -2),
        (10, 3),
    ]:
        w = W(0, A, 0, B, 0)
        if not w.is_singular:
            curves.append(w)
    assert len(curves) == 25
    raised = 0
    for i, w in enumerate(curves):
        places = [OO, 2] + [p for p in prime_divisors(int(w.discriminant)) if p != 2]
        for pl in places:
            a = local_image(w, pl).elements
            b = local_image_bruteforce(w, pl, cap=8192).elements
            assert a == b, (w, pl, sorted(a), sorted(b))
            if i % 3 == 0 and pl != OO:
                c = local_image_bruteforce(w, pl, cap=65536).elements
                assert a == c, (w, pl, "raised precision")
                raised += 1
    _report(7, True, f"25 curves: scan equals torsor enumeration at all bad places ({raised} raised-precision runs)")


def test_criterion_08_velu_hadano_closed_forms():
    rng = random.Random(88)
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    for _ in range(50):
        p = rng.choice(primes)
        z = rng.choice([1, 1, 2])
        pz = p**z
        rec = velu_2_isogeny(W(pz, -1, -pz, 0, 0), (1, 0))
        assert rec.target == W(pz, -1, -pz, -5, -(pz**2 + 3))
        assert rec.target.discriminant == pz**4 * (pz**2 + 16) ** 2
    done = 0
    while done < 50:
        a, t = rng.randint(-40, 40), rng.randint(1, 6)
        try:
            rec = hadano_quotient(a, t**3)
        except (ValueError, SingularParameterError):
            continue
        assert rec.target == W(a + 6 * t, 0, (a * a + 3 * a * t + 9 * t * t) * t, 0, 0)
        assert rec.target.discriminant == t**3 * (a * a + 3 * a * t + 9 * t * t) ** 3 * (a - 3 * t) ** 3
        # independent route: the generic odd-degree quotient is the same curve
        velu = velu_3_isogeny(rec.source, (Fraction(0), Fraction(0)))
        assert find_isomorphism(velu.target, rec.target) is not None
        done += 1
    _report(8, True, "50 + 50 random parameters match the closed-form quotient models exactly")


def test_criterion_09_chain_lengths():
    rep, _ = _tables(9, verify.chain_bound)
    (case,) = rep.cases
    ok = rep.failed == 0 and case["inputs"] == {"a_abs": 10_000, "chains": 20_000}
    ok = ok and case["computed"] == {"max": 4, "attained_at": [-6], "conductor": 27}
    _report(9, ok, f"max chain length over |a| <= 10^4: {case['computed']}")


def test_criterion_10_z2z6_sweep():
    rep, elapsed = _tables(8, verify.twelve_divides_scan)
    (case,) = rep.cases
    attempted = case["inputs"]["attempted"]
    _report(
        10,
        rep.failed == 0 and attempted == 4402 and elapsed < 120,
        f"12 | C for all {attempted} nonsingular members ({elapsed:.1f}s < 120s)",
    )


def test_criterion_11_cassels_three_descent():
    # route, Selmer and Sha bounds, and every witness re-derived, per row
    rep, _ = _tables(9, verify.selmer_rows)
    routes = {c["computed"]["route"] for c in rep.cases}
    ok = rep.failed == 0 and rep.attempted == 50 and routes == {"cassels"}
    _report(11, ok, f"{rep.attempted} admissible parameters with Selmer bound >= 4 and verified witnesses")


def test_criterion_12_hilbert_reciprocity():
    rng = random.Random(1212)
    for _ in range(10_000):
        a = rng.randint(-500, 500)
        b = rng.randint(-500, 500)
        if a == 0 or b == 0:
            continue
        prod = 1
        for v in hilbert_places(a, b):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)
    _report(12, True, "product formula holds for 10^4 random pairs")
