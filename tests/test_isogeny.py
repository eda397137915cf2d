import random
import sys
from fractions import Fraction

import pytest

from ecdescent.arith import integer_root
from ecdescent.audit import main_theorem_audit
from ecdescent.families import build_curve, division_poly, points_of_order_n, torsion_growth, z3_point
from ecdescent.isogeny import (
    CubeFailure,
    IsogenyRecord,
    _velu_quotient,
    etale_side,
    hadano_quotient,
    pullback_scale,
    three_isogeny_chain,
    velu_2_isogeny,
    velu_3_isogeny,
)
from ecdescent.polyutil import rational_roots
from ecdescent.tate import global_data, minimal_model
from ecdescent.weierstrass import (
    WeierstrassModel,
    curve_invariants,
    isomorphism_scale,
    point_mul,
    two_torsion_form,
)
import oracles
from oracles import find_isomorphism


def W(*a):
    return WeierstrassModel.from_ainvs(a)


def test_exceptional_z4_quotient_literal_model():
    # E: y^2 + p^z xy - p^z y = x^3 - x^2 quotient by its 2-torsion:
    # y^2 + p^z xy - p^z y = x^3 - x^2 - 5x - (p^2z + 3)
    for p, z in [(3, 1), (7, 1), (3, 2), (11, 1)]:
        pz = p**z
        w = W(pz, -1, -pz, 0, 0)
        rec = velu_2_isogeny(w, (1, 0))
        assert rec.target == W(pz, -1, -pz, -5, -(pz**2 + 3))
        assert rec.target.discriminant == pz**4 * (pz**2 + 16) ** 2


def test_exceptional_z4_quotient_two_torsion_roots():
    # the quotient has full rational 2-torsion; the third root is pinned by
    # the root sum -b2/4 to -(p^2z+4)/4
    for p, z in [(7, 1), (3, 1), (11, 1)]:
        pz = p**z
        rec = velu_2_isogeny(W(pz, -1, -pz, 0, 0), (1, 0))
        roots = rational_roots(rec.target.two_division_poly())
        assert sorted(roots) == sorted([Fraction(3), Fraction(-1), Fraction(-(pz**2 + 4), 4)])


def test_z2_family_quotient_literal_model():
    # y^2 = x^3 + Ax^2 - x quotient by (0,0): y^2 = x^3 + Ax^2 + 4x + 4A
    for A in [1, 3, 5, 11]:
        w = W(0, A, 0, -1, 0)
        rec = velu_2_isogeny(w, (0, 0))
        assert rec.target == W(0, A, 0, 4, 4 * A)
        assert rec.target.discriminant == -(2**8) * (A * A + 4) ** 2


def test_velu_2_rejects_bad_kernel():
    w = W(0, 3, 0, -1, 0)
    with pytest.raises(ValueError):
        velu_2_isogeny(w, (1, 1))
    # a point that is on the curve but not 2-torsion
    w2 = W(0, 0, 1, -1, 0)
    with pytest.raises(ValueError):
        velu_2_isogeny(w2, (0, 0))


def test_velu_2_random_symbolic_identity():
    rng = random.Random(99)
    count = 0
    while count < 20:
        A, B = rng.randint(-30, 30), rng.randint(-30, 30)
        w = W(0, A, 0, B, 0)
        if w.is_singular:
            continue
        rec = velu_2_isogeny(w, (0, 0))
        assert rec.target == W(0, A, 0, -4 * B, -4 * A * B)
        # same curve as the classical dual model, shifted by x -> x - A
        assert find_isomorphism(rec.target, W(0, -2 * A, 0, A * A - 4 * B, 0)) is not None
        count += 1


def test_hadano_quotient_formula():
    rec = hadano_quotient(5, 1)
    assert rec.target == W(11, 0, 49, 0, 0)
    assert rec.via == "hadano"
    rng = random.Random(4)
    done = 0
    while done < 20:
        a, t = rng.randint(-20, 20), rng.randint(1, 5)
        b = t**3
        try:
            z3_point(a, b)
        except ValueError:
            continue
        res = hadano_quotient(a, b)
        assert isinstance(res, IsogenyRecord)
        assert res.target.discriminant == t**3 * (a * a + 3 * a * t + 9 * t * t) ** 3 * (a - 3 * t) ** 3
        done += 1


def test_hadano_cube_failure():
    res = hadano_quotient(1, 2)
    assert isinstance(res, CubeFailure)
    assert "not a positive cube" in str(res)


def test_hadano_target_has_three_torsion():
    rec = hadano_quotient(5, 8)
    from ecdescent.weierstrass import point_order

    assert point_order(rec.target, (Fraction(0), Fraction(0)), 3) == 3


def test_icbrt():
    assert integer_root(27, 3) == 3
    assert integer_root(26, 3) is None
    assert integer_root(10**18, 3) == 10**6


def test_conductor_27_chain():
    chain = three_isogeny_chain(-6)
    assert chain.length == 4
    conductors = [global_data(chain.records[0].source).conductor]
    for rec in chain.records:
        conductors.append(global_data(rec.target).conductor)
    assert conductors == [27, 27, 27, 27]
    # known models along the chain: [0,0,1,-30,63], [0,0,1,0,0],
    # [0,0,1,0,-7], [0,0,1,-270,-1708]
    expected = [W(0, 0, 1, -30, 63), W(0, 0, 1, 0, 0), W(0, 0, 1, 0, -7), W(0, 0, 1, -270, -1708)]
    models = [chain.records[0].source] + [r.target for r in chain.records]
    for got, want in zip(models, expected):
        assert find_isomorphism(got, want) is not None


def test_generic_chain_length():
    for a in [1, 2, 4, 5, -1, 10]:
        chain = three_isogeny_chain(a)
        assert chain.length == 3
        assert chain.records[-1].via == "velu"
        assert len([r for r in chain.records if r.via == "hadano"]) == 1


def test_chain_length_bound_sample():
    for a in range(-40, 40):
        if a == 3:
            continue
        assert three_isogeny_chain(a).length <= 4


def test_hadano_chain_steps_are_etale():
    # semistable chains: every forward quotient is etale
    for a in [1, 2, 5, -4]:
        chain = three_isogeny_chain(a)
        for rec in chain.records:
            assert etale_side(pullback_scale(rec)) == "forward"
            assert pullback_scale(rec) == 1
    # the additive conductor-27 chain: the curve of smallest |disc| is the
    # etale-minimal one, so the first arrow is etale on the dual side only
    chain = three_isogeny_chain(-6)
    assert [etale_side(pullback_scale(r)) for r in chain.records] == ["dual", "forward", "forward"]
    assert all(pullback_scale(r) in (1, 3) for r in chain.records)


def _pullback_scale_by_isomorphism(rec):
    """|u_target| / |u_source| for the isomorphisms to the minimal models:
    the isomorphism-search derivation of the scale, kept as an oracle."""
    cs = find_isomorphism(rec.source, minimal_model(rec.source))
    ct = find_isomorphism(rec.target, minimal_model(rec.target))
    return abs(ct.u) / abs(cs.u)


def test_pullback_scale_matches_isomorphism_oracle():
    scales = set()
    for a in range(-200, 201):
        if a == 3:  # y^2 + 3xy + y = x^3 is singular
            continue
        for rec in three_isogeny_chain(a).records:
            n = pullback_scale(rec)
            assert n == _pullback_scale_by_isomorphism(rec), (a, rec.source)
            scales.add(n)
    box = [(A, B) for A in range(-4, 5) for B in range(-3, 4) if B and A * A != 4 * B][:40]
    assert len(box) == 40
    for A, B in box:
        rec = velu_2_isogeny(W(0, A, 0, B, 0), (0, 0))
        n = pullback_scale(rec)
        assert n == _pullback_scale_by_isomorphism(rec), (A, B)
        scales.add(n)
    assert scales == {1, 2, 3}


def test_three_isogeny_kernel_is_p_and_2p():
    rng = random.Random(10)
    members = set()
    while len(members) < 200:
        a, b = rng.randint(-30, 30), rng.randint(1, 30)
        try:
            members.add(z3_point(a, b))
        except ValueError:
            continue
    points = 0
    for fp in sorted(members, key=str):
        w = build_curve(fp)
        for P in points_of_order_n(w, 3):
            assert velu_3_isogeny(w, P).kernel == (P, point_mul(w, 2, P))
            points += 1
        rec = hadano_quotient(*fp.params)
        if isinstance(rec, IsogenyRecord):
            P = rec.kernel[0]
            assert rec.kernel == (P, point_mul(rec.source, 2, P))
    assert points >= 400  # (0,0) and its negative on every member


def test_checks_hold_under_optimize(run_optimized):
    # a doctored negation, target discriminant and Velu quotient trip the
    # kernel check, the integer discriminant identity and the integer
    # isomorphism cross-check
    script = (
        "from ecdescent import isogeny\n"
        "from ecdescent.weierstrass import InvariantViolation, WeierstrassModel\n"
        "def attempt(call):\n"
        "    try:\n"
        "        call()\n"
        "    except InvariantViolation as exc:\n"
        "        print('raised:', str(exc).split(': ')[-1].split()[-1])\n"
        "w = WeierstrassModel.from_ainvs([1, 0, 1, 0, 0])\n"
        "real = isogeny.point_neg\n"
        "isogeny.point_neg = lambda w, P: (P[0], P[1] + 1)\n"
        "attempt(lambda: isogeny.velu_3_isogeny(w, (0, 0)))\n"
        "attempt(lambda: isogeny.hadano_quotient(5, 8))\n"
        "isogeny.point_neg = real\n"
        "invariants = isogeny.curve_invariants\n"
        "isogeny.curve_invariants = lambda a: (*invariants(a)[:6], invariants(a)[6] + 1)\n"
        "attempt(lambda: isogeny.hadano_quotient(5, 8))\n"
        "isogeny.curve_invariants = invariants\n"
        "velu = isogeny._velu_quotient\n"
        "isogeny._velu_quotient = lambda a, xs: (*velu(a, xs)[:4], velu(a, xs)[4] + 1)\n"
        "attempt(lambda: isogeny.hadano_quotient(5, 8))\n"
    )
    expected = ["[1,0,1,0,0]", "[5,0,8,0,0]", "discriminant", "Velu's"]
    assert run_optimized(script) == [word for tail in expected for word in ("raised:", tail)]


def _invariants(w):
    return curve_invariants(tuple(int(c) for c in w.ainvs))[4:]


def test_hadano_is_velu_by_the_isomorphism_oracle():
    # every Hadano quotient with |a| <= 300, t <= 5 against Velu's quotient
    # of the same curve: the integer cross-check and find_isomorphism agree,
    # and both tell it apart from the quotient of the next member
    pairs = 0
    for t in range(1, 6):
        for a in range(-300, 301):
            try:
                fp = z3_point(a, t**3)
            except ValueError:
                continue
            rec = hadano_quotient(a, t**3)
            velu = velu_3_isogeny(build_curve(fp), (0, 0)).target
            assert isomorphism_scale(_invariants(velu), _invariants(rec.target)) is not None
            assert find_isomorphism(velu, rec.target) is not None, (a, t)
            other = velu_3_isogeny(W(a + 1, 0, t**3, 0, 0), (0, 0)).target
            if not other.is_singular:
                assert isomorphism_scale(_invariants(other), _invariants(rec.target)) is None
                assert find_isomorphism(other, rec.target) is None
            pairs += 1
    assert pairs >= 2000


def test_velu_quotient_on_ints_is_the_rational_one():
    # one formula on both coefficient types. Each model is built through an
    # integral 2-torsion point (x0, y0), odd a1 included, where the halved
    # term must stay an integer; its integral 3-division x's are tried too
    rng = random.Random(140)
    done = 0
    while done < 200:
        a1, a2, a3, a4, x0 = (rng.randint(-9, 9) for _ in range(5))
        if (a1 * x0 + a3) % 2:
            continue
        y0 = -(a1 * x0 + a3) // 2
        a = (a1, a2, a3, a4, y0 * y0 + (a1 * x0 + a3) * y0 - ((x0 + a2) * x0 + a4) * x0)
        w = W(*a)
        if w.is_singular:
            continue
        three = [x for x in rational_roots(division_poly(w, 3)) if x.denominator == 1]
        for x in [Fraction(x0)] + three:
            on_ints = _velu_quotient(a, [int(x)])
            assert all(type(c) is int for c in on_ints)
            assert on_ints == _velu_quotient(w.ainvs, [x])
        done += 1


def test_chain_runs_without_point_arithmetic(monkeypatch):
    # the chain's checks are integer identities: no point addition, no
    # change of variables and no isomorphism search
    calls = []
    for name in ("point_add", "change_variables"):
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "ecdescent"]:
            real = getattr(mod, name, None)
            if real is not None:
                monkeypatch.setattr(mod, name, lambda *args, _f=real, _n=name: calls.append(_n) or _f(*args))
    real_iso = oracles.find_isomorphism
    monkeypatch.setattr(oracles, "find_isomorphism", lambda *args: calls.append("find_isomorphism") or real_iso(*args))
    lengths = [three_isogeny_chain(a).length for a in (-6, 1, 5, 9999)]
    assert lengths == [4, 3, 3, 3]
    assert calls == []


def test_etale_side_dichotomy_on_two_isogenies():
    # on the A^2+4 family, each quotient and its dual split 1 / p
    for A in [1, 3, 5]:
        rec = velu_2_isogeny(W(0, A, 0, -1, 0), (0, 0))
        n = pullback_scale(rec)
        assert n in (1, 2)
        assert etale_side(n) == ("forward" if n == 1 else "dual")


def test_transfer_certificate_flow():
    # the audit carries the 2-part of its claim from E' = E/<(0,0)> back to E.
    # In the A^2+4 = p prime family E' has 2-torsion polynomial 4(x^2+4)(x+A),
    # so its torsion cannot gain 2-power order except over Q(i): condition (i)
    # holds over Q(sqrt(-7)) and fails over Q(i)
    A = 5
    E = W(0, A, 0, -1, 0)
    Ep = velu_2_isogeny(E, (0, 0)).target
    assert Ep == W(0, A, 0, 4, 4 * A)
    assert not torsion_growth(Ep, -7).gains_2_possible
    assert torsion_growth(Ep, -1).gains_2_possible

    cert = main_theorem_audit(E, -7)
    assert cert.holds and cert.route == "transfer"
    (step,) = [e for e in cert.evidence if e["step"] == "transfer"]
    assert step["quotient"] == str(global_data(Ep).minimal_model)
    assert "rank E(K) = 1" in cert.hypotheses


def test_transfer_identity():
    # the transfer always crosses a genuine isogeny: no 2-quotient is
    # isomorphic over Q to its source, since E -> E/<T> ~ E would be an
    # endomorphism of degree 2 defined over Q
    for A in range(-6, 7):
        for B in range(-6, 7):
            w = W(0, A, 0, B, 0)
            if w.is_singular:
                continue
            rec = velu_2_isogeny(w, (0, 0))
            assert rec.target != rec.source
            assert find_isomorphism(rec.source, rec.target) is None
