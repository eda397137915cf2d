import dataclasses
import random
import sys
from fractions import Fraction
from math import isqrt, prod

import pytest

from ecdescent import descent2, tate
from ecdescent.arith import (
    OO,
    LocalSquareClassGroup,
    SquareClass,
    local_class,
    local_square_rep,
    prime_divisors,
    smallest_nonresidue,
    square_class,
    squarefree_part,
)
from ecdescent.descent2 import (
    DescentCertificate,
    FullTwoTorsionError,
    InadmissibleField,
    check_heegner_field,
    dual_params,
    everywhere_local_norm_dim,
    field_discriminant,
    heegner_field_scan,
    kramer_sha2_bound,
    local_image,
    local_norm_index,
    phi_intersection,
    phi_selmer,
    selmer_kernel_class,
    splits_in,
    sum_local_norm_indices,
)
from ecdescent.tate import global_data
from ecdescent.weierstrass import InvariantViolation, SingularModelError, WeierstrassModel, quadratic_twist
from oracles import local_image_bruteforce, splits_in_oracle


def W(*a):
    return WeierstrassModel.from_ainvs(a)


def beta_even_curve(p, z):
    # y^2 = x^3 + (p^2z + 8) x^2 + 16 x, the working model for beta = p^2z
    return W(0, p ** (2 * z) + 8, 0, 16, 0)


def descent_places(w):
    """2, the primes of the numerators and denominators of B and B' = A^2 - 4B,
    and infinity: the places of Sel^phi, read off the 2-torsion form."""
    A, B = Fraction(w.a2), Fraction(w.a4)
    Bp = A * A - 4 * B
    return sorted({2, *prime_divisors(B.numerator * B.denominator * Bp.numerator * Bp.denominator)}) + [OO]


def test_image_at_infinity_cases():
    # beta-family curve: Im at infinity is trivial
    img = local_image(beta_even_curve(3, 1), OO)
    assert img.elements == {1}
    # B = -1 family: also trivial (no negative 2-torsion real locus)
    img = local_image(W(0, 5, 0, -1, 0), OO)
    assert img.elements == {1}
    # twist of the beta curve by -2 has full image at infinity
    tw = quadratic_twist(beta_even_curve(3, 1), -2)
    assert local_image(tw, OO).elements == {1, -1}


def test_image_at_2_beta_family():
    # Im delta_2 = {1, 5}
    for p, z in [(3, 1), (7, 1), (11, 1), (3, 2)]:
        img = local_image(beta_even_curve(p, z), 2)
        assert img.elements == {1, 5}, (p, z, img.elements)


def test_image_at_good_odd_primes():
    # good odd l: the unit classes
    w = beta_even_curve(3, 1)
    img = local_image(w, 7)
    n = smallest_nonresidue(7)
    assert img.elements == {1, n}


def test_image_at_p_depends_on_mod4():
    # at l = p: full local group iff p = 1 mod 4
    for p, z in [(5, 1), (13, 1)]:
        img = local_image(beta_even_curve(p, z), p)
        assert img.dim == 2, (p, img.elements)
    for p, z in [(3, 1), (7, 1), (11, 1)]:
        img = local_image(beta_even_curve(p, z), p)
        n = smallest_nonresidue(p)
        assert img.elements == {1, n}, (p, img.elements)


def test_image_at_odd_divisors_of_q():
    # odd l | disc, l != p: the full local group
    p, z = 3, 1  # q = 25, l = 5
    img = local_image(beta_even_curve(p, z), 5)
    assert img.dim == 2


def test_image_at_2_B_minus_one_family():
    # B = -1: {1,5} for A odd, {1,2,5,10} for A = 2 mod 4
    for A in [1, 3, 5, 7, 9]:
        w = W(0, A, 0, -1, 0)
        assert local_image(w, 2).elements == {1, 5}, A
    for A in [6, 10, 14]:
        w = W(0, A, 0, -1, 0)
        assert local_image(w, 2).elements == {1, 2, 5, 10}, A


def test_local_image_oracle_equivalence_small():
    curves = [W(0, 1, 0, 3, 0), W(0, 3, 0, -1, 0), W(0, -2, 0, 5, 0), W(0, 5, 0, 4, 0)]
    for w in curves:
        for place in [2, 3, 5, OO]:
            a = local_image(w, place).elements
            b = local_image_bruteforce(w, place).elements
            assert a == b, (w, place, a, b)


def test_local_image_ratio_path_matches_oracle():
    # odd places, sized by the Tamagawa ratio, against the torsor enumeration
    rng = random.Random(2015)
    box = [(A, B) for A in range(-12, 13) for B in range(-12, 13) if B and A * A != 4 * B]
    # models non-minimal at l (l^2 | A, l^4 | B): (1,-1) and (1,3) scaled by 3,
    # good and bad at 3 once minimal, and (1,-1) scaled by 5
    nonminimal = [(9, -81, 3), (9, 243, 3), (25, -625, 5)]
    seen = {"l=3": 0, "good": 0, "nonminimal": 0}
    sizes = set()
    for A, B in rng.sample(box, 60) + [(A, B) for A, B, _ in nonminimal]:
        w = W(0, A, 0, B, 0)
        disc = int(w.discriminant)
        good = next(p for p in (3, 5, 7, 11, 13) if disc % p)
        for ell in [p for p in prime_divisors(disc) if p != 2] + [good]:
            a = local_image(w, ell).elements
            b = local_image_bruteforce(w, ell, cap=8192).elements
            assert a == b, (w, ell, sorted(a), sorted(b))
            sizes.add(len(a))
            seen["l=3"] += ell == 3
            seen["good"] += ell == good
            seen["nonminimal"] += (A, B, ell) in nonminimal
    assert sizes == {1, 2, 4}
    assert seen["l=3"] and seen["good"] and seen["nonminimal"] == 3, seen


def test_local_image_at_2_matches_oracle(monkeypatch):
    # the exact integer scan at 2 against the torsor enumeration, on integral
    # box curves and on curves whose dual (A', B') has A' odd (A = -A'/2,
    # B = (A'^2 - 4B')/16); only the latter reach classes on the discs v(X) < 0,
    # so the oracle runs on the 2-isomorphic integral model [0, 4A, 0, 16B, 0]
    rng = random.Random(2016)
    box = [(A, B) for A in range(-12, 13) for B in range(-12, 13) if B and A * A != 4 * B]
    odd_dual = [(a, b) for a in range(-11, 12, 2) for b in range(-12, 13) if b and a * a != 4 * b]
    curves = rng.sample(box, 30)
    curves += [(Fraction(-a, 2), Fraction(a * a - 4 * b, 16)) for a, b in rng.sample(odd_dual, 30)]

    # count classes the scan adds while it works on a disc with m < 0
    real = descent2.local_class
    hits = []

    def spy(q, place):
        cls = real(q, place)
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_image_scan" and frame.f_locals.get("m", 0) < 0:
            hits.append(cls not in frame.f_locals["members"])
        return cls

    monkeypatch.setattr(descent2, "local_class", spy)
    sizes = set()
    for A, B in curves:
        a = local_image(W(0, A, 0, B, 0), 2).elements
        b = local_image_bruteforce(W(0, 4 * A, 0, 16 * B, 0), 2, cap=8192).elements
        assert a == b, (A, B, sorted(a), sorted(b))
        sizes.add(len(a))
    assert sizes == {1, 2, 4, 8}
    assert sum(hits) > 0


def test_local_image_at_2_matches_exhaustive_scan():
    # the Tate-sized image at 2 against the scan run over every class, on the
    # integral box and on the A'-odd models of the oracle test above
    box = [(A, B) for A in range(-12, 13) for B in range(-12, 13) if B and A * A != 4 * B]
    odd_dual = [(a, b) for a in range(-11, 12, 2) for b in range(-12, 13) if b and a * a != 4 * b]
    curves = box + [(Fraction(-a, 2), Fraction(a * a - 4 * b, 16)) for a, b in odd_dual]
    sizes = set()
    for A, B in curves:
        Ap, Bp = dual_params(A, B)
        a = local_image(W(0, A, 0, B, 0), 2).elements
        assert {local_class(r, 2) for r in a} == descent2._image_scan(int(Ap), int(Bp), 2, 8), (A, B, sorted(a))
        sizes.add(len(a))
    assert sizes == {1, 2, 4, 8}


def test_local_images_store_the_classes_of_their_reps():
    # on the scan, the full group, infinity and the closed form, the stored
    # bitmasks are the local classes of the reps that elements reads out
    kinds = {"scan": 0, "full": 0, "infinity": 0, "closed form": 0}
    for A, B in _z2_box(6):
        w = W(0, A, 0, B, 0)
        for place in descent_places(w):
            img = local_image(w, place)
            assert img.classes == {local_class(r, place) for r in img.elements}, (A, B, place)
            kinds["infinity" if place == OO else "full" if img == LocalSquareClassGroup.full(place) else "scan"] += 1
        for ell in (3, 5, 7):
            if B * (A * A - 4 * B) % ell == 0:
                continue  # the closed form needs ell prime to B B'
            img = descent2._ramified_twist_image(Fraction(A), Fraction(B), -ell, ell)
            assert img.classes == {local_class(r, ell) for r in img.elements}, (A, B, ell)
            kinds["closed form"] += 1
    assert all(kinds.values()), kinds


def test_oracle_on_non_integral_model():
    # y^2 = x^3 - x^2/2 - 3x/16 has disc 9/16; the oracle runs on it directly
    w = W(0, Fraction(-1, 2), 0, Fraction(-3, 16), 0)
    assert local_image_bruteforce(w, 2, cap=8192).elements == {1, 5}
    assert local_image(w, 2).elements == {1, 5}


def test_phi_selmer_refuses_a_singular_model():
    # B' = A^2 - 4B = 0, then B = 0: refused as singular before either is factored
    for w in (W(0, 2, 0, 1, 0), W(0, 1, 0, 0, 0)):
        with pytest.raises(SingularModelError):
            phi_selmer(w)


def test_phi_selmer_on_non_integral_models():
    # an A'-odd model and its 2-isomorphic integral model [0, 4A, 0, 16B, 0]
    # have the same places, candidates and local images, so the same Sel^phi
    rng = random.Random(2017)
    odd_dual = [(a, b) for a in range(-25, 26, 2) for b in range(-25, 26) if b and a * a != 4 * b]
    for a, b in [(1, 1)] + rng.sample(odd_dual, 60):  # (1, 1): y^2 = x^3 - x^2/2 - 3x/16
        A, B = Fraction(-a, 2), Fraction(a * a - 4 * b, 16)
        sel, ref = phi_selmer(W(0, A, 0, B, 0)), phi_selmer(W(0, 4 * A, 0, 16 * B, 0))
        assert (sel.elements, sel.basis) == (ref.elements, ref.basis), (a, b)


def test_heegner_scan_takes_global_data():
    w = W(0, 1, 0, 3, 0)
    assert heegner_field_scan(w, 150, global_data(w)) == heegner_field_scan(w, 150)


def test_selmer_places_are_the_primes_of_global_data():
    # disc = 16 B^2 B', so the primes of global_data(w) are the finite descent
    # places, on integral models and on A'-odd models with an integral dual
    odd_dual = [(a, b) for a in range(-25, 26, 2) for b in range(-25, 26) if b and a * a != 4 * b]
    curves = [W(0, A, 0, B, 0) for A, B in _z2_box(12)]
    curves += [W(0, Fraction(-a, 2), 0, Fraction(a * a - 4 * b, 16), 0) for a, b in random.Random(2024).sample(odd_dual, 200)]
    for w in curves:
        assert sorted(global_data(w).local_data) + [OO] == descent_places(w), w
    # an integral dual leaves only powers of 2 in the denominators of A and B;
    # a model with 3 in them has no integral dual and is refused
    with pytest.raises(ValueError, match="integral"):
        phi_selmer(W(0, Fraction(1, 9), 0, Fraction(2, 81), 0))


def test_phi_intersection_refuses_global_data_of_another_model():
    # 15a1 with its 2-torsion point at (0, 0): the minimal model's global_data
    # lacks the place 2 (disc_min = 3^4 5^4), and the twist by -1 is another curve
    w = W(0, -7, 0, -144, 0)
    gd = global_data(w)
    d = heegner_field_scan(w, 100)[0]
    assert sorted(gd.local_data) == [2, 3, 5] and phi_intersection(w, d, gd)
    for other in (global_data(gd.minimal_model), global_data(quadratic_twist(w, -1))):
        with pytest.raises(InvariantViolation):
            phi_intersection(w, d, other)
        with pytest.raises(InvariantViolation):
            everywhere_local_norm_dim(w, d, other)


def test_kramer_runs_tate_on_E_only_inside_its_global_data(monkeypatch):
    # E's local data comes from the one global_data: the Tate runs that
    # descent2 makes itself are on the dual, the twist and the twist's dual
    w = W(0, 1, 0, 3, 0)
    d = heegner_field_scan(w, 300)[0]
    real_tate, real_global = descent2.tate_algorithm, descent2.global_data
    runs, gds = [], []

    def tate_algorithm(a, invariants, p):
        runs.append(tuple(a))
        return real_tate(a, invariants, p)

    def counted(v, *args):
        gds.append(v)
        return real_global(v, *args)

    monkeypatch.setattr(descent2, "tate_algorithm", tate_algorithm)
    monkeypatch.setattr(descent2, "local_reduction", lambda v, p: runs.append(v.ainvs) or tate.local_reduction(v, p))
    monkeypatch.setattr(descent2, "global_data", counted)
    kramer_sha2_bound(w, d)
    assert gds == [w]
    assert w.ainvs not in runs
    assert {(0, -2, 0, -11, 0), quadratic_twist(w, d).ainvs} <= set(runs), runs


def _miscount(real, curve, ell, tamagawa):
    # Tate's algorithm with one wrong Tamagawa number: c_ell of the integral
    # tuple of E, not of its dual [0, A', 0, B', 0]
    ainvs = tuple(int(a) for a in curve.ainvs)

    def tate_algorithm(a, invariants, p):
        lr = real(a, invariants, p)
        return dataclasses.replace(lr, tamagawa=tamagawa) if (tuple(a), p) == (ainvs, ell) else lr

    return tate_algorithm


def test_wrong_tamagawa_number_raises(monkeypatch):
    real = descent2.tate_algorithm
    w = W(0, 1, 0, 3, 0)  # image {1} at 3: c_3(E) = 2, c_3(E') = 1
    assert local_image(w, 3).elements == {1}
    # ratio 2 * 1 / 3 is no image size
    monkeypatch.setattr(tate, "tate_algorithm", _miscount(real, w, 3, 3))
    with pytest.raises(ArithmeticError):
        local_image(w, 3)
    # ratio 2 * 1 / 1 = 2, but the scan finds a single class
    monkeypatch.setattr(tate, "tate_algorithm", _miscount(real, w, 3, 1))
    with pytest.raises(ArithmeticError):
        local_image(w, 3)
    # ratio 2 * 2 / 4 = 1 at 11, but the class of B' = -11 is nontrivial there
    monkeypatch.setattr(tate, "tate_algorithm", _miscount(real, w, 11, 4))
    with pytest.raises(ArithmeticError):
        local_image(w, 11)
    # phi_selmer reads the same images, with c_11(E) from global_data
    with pytest.raises(ArithmeticError):
        phi_selmer(w)


def test_wrong_tamagawa_number_raises_at_2(monkeypatch):
    real = descent2.tate_algorithm
    w = W(0, 1, 0, 3, 0)  # image {1, 5} at 2: c_2(E) = c_2(E') = 1
    assert local_image(w, 2).elements == {1, 5}
    # ratio 2 * 1 / 3 is no image size
    monkeypatch.setattr(tate, "tate_algorithm", _miscount(real, w, 2, 3))
    with pytest.raises(ArithmeticError):
        local_image(w, 2)
    # ratio 2 * 1 / 2 = 1, but the class of B' = -11 is 5 at 2
    monkeypatch.setattr(tate, "tate_algorithm", _miscount(real, w, 2, 2))
    with pytest.raises(ArithmeticError):
        local_image(w, 2)
    # image {1} at 2 with c_2(E) = 4, c_2(E') = 2; ratio 2 * 2 / 2 = 2, but the
    # scan finds a single class
    w = W(0, 5, 0, 4, 0)
    assert local_image(w, 2).elements == {1}
    monkeypatch.setattr(tate, "tate_algorithm", _miscount(real, w, 2, 2))
    with pytest.raises(ArithmeticError):
        local_image(w, 2)


def test_tamagawa_mismatch_raises_under_optimize(run_optimized):
    # c_ell(E) forced to 1 on the integral tuple of E, as _miscount does, and
    # a wrong c_7 on a twist where phi_intersection uses the closed form
    script = (
        "import dataclasses\n"
        "from ecdescent import descent2, tate\n"
        "from ecdescent.weierstrass import WeierstrassModel\n"
        "real = descent2.tate_algorithm\n"
        "for ainvs, ell in [([0, 1, 0, 3, 0], 3), ([0, 5, 0, 4, 0], 2)]:\n"
        "    tate.tate_algorithm = lambda a, inv, p: (\n"
        "        dataclasses.replace(real(a, inv, p), tamagawa=1) if list(a) == ainvs else real(a, inv, p)\n"
        "    )\n"
        "    try:\n"
        "        descent2.local_image(WeierstrassModel.from_ainvs(ainvs), ell)\n"
        "    except ArithmeticError:\n"
        "        print('raised')\n"
        "tate.tate_algorithm = real\n"
        "# c_7 = 4 on the twist by -7, against the closed form's two classes at 7\n"
        "descent2.tate_algorithm = lambda a, inv, p: (\n"
        "    dataclasses.replace(real(a, inv, p), tamagawa=4) if (list(a), p) == ([0, -7, 0, 147, 0], 7) else real(a, inv, p)\n"
        ")\n"
        "w = WeierstrassModel.from_ainvs([0, 1, 0, 3, 0])\n"
        "try:\n"
        "    descent2.phi_intersection(w, -7, descent2.global_data(w))\n"
        "except ArithmeticError:\n"
        "    print('raised')\n"
    )
    assert run_optimized(script) == ["raised", "raised", "raised"]


def test_norm_dim_of_a_non_group_raises_under_optimize(run_optimized):
    # three classes in common are no F_2-space, so they have no dimension
    script = (
        "from ecdescent import descent2\n"
        "from ecdescent.arith import SquareClass\n"
        "from ecdescent.weierstrass import WeierstrassModel\n"
        "descent2.phi_intersection = lambda w, d, gd: frozenset(map(SquareClass, (1, -1, 2)))\n"
        "w = WeierstrassModel.from_ainvs([0, 1, 0, 3, 0])\n"
        "try:\n"
        "    descent2.everywhere_local_norm_dim(w, -7, descent2.global_data(w))\n"
        "except ArithmeticError:\n"
        "    print('raised')\n"
    )
    assert run_optimized(script) == ["raised"]


def test_phi_selmer_contains_kernel_class():
    for ainvs in [(0, 5, 0, -1, 0), (0, 17, 0, 16, 0), (0, 3, 0, -1, 0)]:
        w = W(*ainvs)
        sel = phi_selmer(w)
        assert selmer_kernel_class(w) in sel


def test_phi_selmer_beta_family_example():
    # p = 3, z = 1: q = 25; Selmer classes land inside every local image
    w = beta_even_curve(3, 1)
    sel = phi_selmer(w)
    assert SquareClass(1) in sel
    # the kernel class A^2-4B = p^2z(p^2z+16) = 9*25: trivial class here
    assert selmer_kernel_class(w).rep == 1
    for cls in sel.elements:
        assert cls.rep > 0  # image at infinity is trivial, no negative classes


def candidate_classes(places: list) -> list:
    """Square classes supported on -1 and the finite places of `descent_places`."""
    gens = [-1] + [p for p in places if p != OO]
    classes = [1]
    for g in gens:
        # distinct primes and -1, so every product is already squarefree
        classes += [c * g for c in classes]
    return sorted(set(classes), key=abs)


def _f2_basis(elements) -> tuple:
    basis = []
    span = {SquareClass(1)}
    for e in sorted(elements, key=lambda c: (abs(c.rep), c.rep < 0)):
        if e not in span:
            basis.append(e)
            span |= {e * x for x in span}
    return tuple(basis)


def phi_selmer_by_enumeration(w):
    """Oracle: Sel^phi by testing all 2^k candidate classes at every place."""
    places = descent_places(w)
    images = {pl: local_image(w, pl) for pl in places}
    elements = frozenset(
        SquareClass(b) for b in candidate_classes(places) if all(b in images[pl] for pl in places)
    )
    return elements, _f2_basis(elements)


def test_candidate_classes_support():
    w = W(0, 5, 0, -1, 0)
    cands = candidate_classes(descent_places(w))
    assert 1 in cands and -1 in cands and 2 in cands
    assert all(abs(c) <= 2 * 29 * 2 for c in cands)


def test_phi_selmer_matches_enumeration_oracle():
    # the F_2 kernel against the 2^k enumeration on every curve of the box
    dims = set()
    for A in range(-40, 41):
        for B in range(-40, 41):
            if B == 0 or A * A == 4 * B:
                continue
            w = W(0, A, 0, B, 0)
            sel = phi_selmer(w)
            assert (sel.elements, sel.basis) == phi_selmer_by_enumeration(w), (A, B)
            dims.add(sel.dim)
    assert len(dims) >= 4, dims


def test_phi_selmer_beyond_fourteen_generators():
    # B = 2*3*5*...*43 puts 16 finite places and -1 among the generators
    B = prod(p for p in range(2, 44) if prime_divisors(p) == [p])
    w = W(0, 1, 0, B, 0)
    places = descent_places(w)
    assert len(places) == 17
    sel = phi_selmer(w)
    assert len(sel.elements) == 2**sel.dim
    assert all(x * y in sel for x in sel.elements for y in sel.elements)
    assert selmer_kernel_class(w) in sel
    for pl in places:
        img = local_image(w, pl)
        assert all(cls.rep in img for cls in sel.elements), pl


def test_field_discriminant_and_splitting():
    assert field_discriminant(-7) == -7
    assert field_discriminant(-2) == -8
    assert field_discriminant(-5) == -20
    with pytest.raises(ValueError):
        field_discriminant(-4)
    for d in [-1, -2, -7, -15, -21]:
        for p in [2, 3, 5, 7, 11, 13]:
            assert splits_in(d, p) == splits_in_oracle(d, p), (d, p)


def test_heegner_scan():
    # N = 15: both 3 and 5 must split; 2 | N absent so no mod-8 force
    w = W(-1, 1, -1, 0, 0)  # conductor 15
    ds = heegner_field_scan(w, 60)
    for d in ds:
        assert splits_in(d, 3) and splits_in(d, 5)
    assert -26 in ds  # disc -104: (-104|3): -104=1 mod 3 -> QR; mod 5: 1 -> QR
    # every 2 | N case forces d = 1 mod 8
    w2 = W(0, 5, 0, -1, 0)  # conductor 4p
    for d in heegner_field_scan(w2, 80):
        assert d % 8 == 1


def test_heegner_scan_matches_splits_in_oracle():
    parities = set()
    # y^2 = x^3 + 1031 x has bad primes 2 and 1031 > 300, so Euler's
    # criterion meets each scanned d with -p < d < 0: d mod p never wraps
    curves = [W(-1, 1, -1, 0, 0), W(0, 5, 0, -1, 0), W(0, 3, 0, -1, 0), beta_even_curve(17, 1), W(0, 1, 0, 3, 0), W(0, 0, 0, 1031, 0)]
    for w in curves:
        gd = global_data(w)
        ps = prime_divisors(gd.conductor)
        parities.add(gd.conductor % 2)
        expect = [
            d
            for d in range(-1, -301, -1)
            if squarefree_part(d) == d and all(splits_in_oracle(d, p) for p in ps)
        ]
        for bound in (0, 1, 7, 150, 300):
            assert heegner_field_scan(w, bound) == [d for d in expect if -d <= bound], (w, bound)
        # check_heegner_field reads gd.bad_primes; ps are the factors of N
        for d in range(-1, -151, -1):
            if squarefree_part(d) != d:
                continue
            assert all(splits_in(d, p) for p in ps) == (d in expect), (w, d)
            if d in expect:
                check_heegner_field(gd, d)
            else:
                with pytest.raises(InadmissibleField, match=f"fails the Heegner condition for N = {gd.conductor}"):
                    check_heegner_field(gd, d)
    assert parities == {0, 1}  # curves with and without 2 | N


def test_local_norm_index_infinity():
    w = W(0, 5, 0, -1, 0)  # disc_min = 16(A^2+4) > 0
    assert local_norm_index(w, OO, -7, global_data(w)) == 1


def test_local_norm_index_rejects_full_two_torsion():
    w = W(0, 0, 0, -1, 0)
    with pytest.raises(FullTwoTorsionError):
        local_norm_index(w, OO, -7, global_data(w))


def test_sum_indices_beta_family_d_minus_2():
    # d = -2: (disc_min, -2)_2 = 1 gives i_2 = 2, i_infty = 1: total 3
    for p, z in [(17, 1), (41, 1), (73, 1)]:
        w = beta_even_curve(p, z)
        total, i_map = sum_local_norm_indices(w, -2, global_data(w))
        assert i_map[OO] == 1
        assert i_map[2] == 2
        assert total == 3, (p, z, i_map)


def test_kramer_certificate_beta_family():
    # p = 1 mod 8 and d = -2: sum i = 3 and the class of p survives in Phi
    done = 0
    for p in [17, 41, 73, 89, 97]:
        w = beta_even_curve(p, 1)
        if not all(splits_in(-2, q) for q in global_data(w).bad_primes):
            continue
        cert = kramer_sha2_bound(w, -2)
        assert cert.sum_i == 3
        assert cert.dim_phi_lower >= 1, (p, cert.as_dict())
        assert cert.sha2_dim_lower >= 1
        assert cert.two_divides_sha_sqrt
        inter = phi_intersection(w, -2, global_data(w))
        assert square_class(p) in inter
        done += 1
    assert done >= 2


def test_B_minus_one_A_2_mod_4_image_of_two():
    # A = 2 mod 4 (A != +-2): the class of 2 gives a nontrivial element of Phi
    found = 0
    for A in [6, 10, 14, 18]:
        w = W(0, A, 0, -1, 0)
        gd = global_data(w)
        for d in heegner_field_scan(w, 120, gd):
            inter = phi_intersection(w, d, gd)
            g = selmer_kernel_class(w)
            if square_class(2) in inter and square_class(2) != g:
                assert everywhere_local_norm_dim(w, d, gd) >= 1
                found += 1
                break
    assert found >= 2


def test_kramer_insufficient_case_records_note():
    # a case where the bound falls short should not claim divisibility
    w = W(0, 3, 0, -1, 0)  # N = 208
    ds = heegner_field_scan(w, 150)
    assert ds, "expected some Heegner field"
    found_any = False
    for d in ds[:3]:
        cert = kramer_sha2_bound(w, d)
        found_any = True
        if not cert.two_divides_sha_sqrt:
            assert cert.notes
    assert found_any


def phi_intersection_reference(w, d):
    """Reference: Sel^phi(E) intersect Sel^phi(E_d), with both groups built in full."""
    return phi_selmer(w).elements & phi_selmer(quadratic_twist(w, d)).elements


def _z2_box(bound):
    # y^2 = x^3 + Ax^2 + Bx with E(Q)[2] = Z/2: B != 0 and A^2 - 4B not a square
    return [
        (A, B)
        for A in range(-bound, bound + 1)
        for B in range(-bound, bound + 1)
        if B and not (A * A - 4 * B >= 0 and isqrt(A * A - 4 * B) ** 2 == A * A - 4 * B)
    ]


def _branch_spy(monkeypatch):
    # count the E_d images phi_intersection computes, by branch
    seen = {"closed form": 0, "B square": 0, "scan at 2": 0, "scan at odd l | d": 0, "scan at odd l, d nonsquare": 0}
    real_closed, real_scan = descent2._ramified_twist_image, descent2._finite_image

    def closed(A, B, d, ell):
        img = real_closed(A, B, d, ell)
        seen["closed form"] += 1
        seen["B square"] += local_square_rep(B, ell) == 1
        return img

    def scan(wd, lr, ep, ell):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "phi_intersection":
            d = caller.f_locals["d"]
            key = "scan at 2" if ell == 2 else "scan at odd l | d" if d % ell == 0 else "scan at odd l, d nonsquare"
            seen[key] += 1
        return real_scan(wd, lr, ep, ell)

    monkeypatch.setattr(descent2, "_ramified_twist_image", closed)
    monkeypatch.setattr(descent2, "_finite_image", scan)
    return seen


def test_phi_intersection_matches_reference_on_every_d(monkeypatch):
    # every squarefree -300 <= d < 0, admissible or not, on a seeded sample of
    # the Z/2 box |A|, |B| <= 12; every branch of phi_intersection runs
    seen = _branch_spy(monkeypatch)
    ds = [d for d in range(-1, -301, -1) if squarefree_part(d) == d]
    for A, B in random.Random(2018).sample(_z2_box(12), 16):
        w = W(0, A, 0, B, 0)
        gd = global_data(w)
        for d in ds:
            assert phi_intersection(w, d, gd) == phi_intersection_reference(w, d), (A, B, d)
    assert all(seen.values()), seen


def test_phi_intersection_matches_reference_on_heegner_fields(monkeypatch):
    # every admissible d with |d| <= 300 on a seeded sample of the Z/2 box
    # |A|, |B| <= 40, and on A'-odd models whose (A, B) are not integral
    seen = _branch_spy(monkeypatch)
    rng = random.Random(2019)
    curves = [W(0, A, 0, B, 0) for A, B in rng.sample(_z2_box(40), 120)]
    odd_dual = [(a, b) for a in range(-25, 26, 2) for b in range(-25, 26) if b and a * a != 4 * b]
    curves += [W(0, Fraction(-a, 2), 0, Fraction(a * a - 4 * b, 16), 0) for a, b in rng.sample(odd_dual, 20)]
    pairs = 0
    for w in curves:
        gd = global_data(w)
        for d in heegner_field_scan(w, 300, gd):
            assert phi_intersection(w, d, gd) == phi_intersection_reference(w, d), (w, d)
            pairs += 1
    assert pairs > 600 and seen["closed form"] and seen["B square"] and seen["scan at 2"], (pairs, seen)


def test_ramified_twist_image_matches_oracle():
    # the closed form at odd l | d, l prime to B B', against the torsor
    # enumeration on E_d, with B a square mod l and not
    cases = {"B square": 0, "B nonsquare": 0}
    for A, B in _z2_box(5):
        w = W(0, A, 0, B, 0)
        for ell in (3, 5, 7, 11, 13):
            if B * (A * A - 4 * B) % ell == 0:
                continue
            for d in (-ell, -2 * ell):
                a = descent2._ramified_twist_image(Fraction(A), Fraction(B), d, ell).elements
                b = local_image_bruteforce(quadratic_twist(w, d), ell, cap=4096).elements
                assert a == b, (A, B, d, ell, sorted(a), sorted(b))
                cases["B square" if pow(B, (ell - 1) // 2, ell) == 1 else "B nonsquare"] += 1
    assert all(n > 20 for n in cases.values()), cases


def test_phi_intersection_checks_closed_form_against_tate(monkeypatch):
    real = descent2.tate_algorithm
    w, d = W(0, 1, 0, 3, 0), -7  # at 7: B = 3 and B' = -11 are nonsquares, image {1, 3}
    assert descent2._ramified_twist_image(Fraction(1), Fraction(3), d, 7).elements == {1, 3}
    gd = global_data(w)
    expect = phi_intersection(w, d, gd)
    # c_7(E_d) = 4 makes Tate's size 2 * 2 / 4 = 1
    monkeypatch.setattr(descent2, "tate_algorithm", _miscount(real, quadratic_twist(w, d), 7, 4))
    with pytest.raises(ArithmeticError, match="Tate predicts 1"):
        phi_intersection(w, d, gd)
    # c_7(E_d) = 3 gives no image size at all
    monkeypatch.setattr(descent2, "tate_algorithm", _miscount(real, quadratic_twist(w, d), 7, 3))
    with pytest.raises(ArithmeticError, match="is not an image size"):
        phi_intersection(w, d, gd)
    monkeypatch.setattr(descent2, "tate_algorithm", real)
    assert phi_intersection(w, d, gd) == expect


def test_phi_intersection_refuses_as_the_reference_does():
    cases = [
        (W(0, 1, 0, 3, 0), 0),  # d = 0
        (W(0, 1, 0, 3, 0), -4),  # d not squarefree
        (W(0, 1, 0, 3, 0), -12),
        (W(0, 2, 0, 1, 0), -7),  # singular: A^2 = 4B
        (W(0, 1, 0, 0, 0), -7),  # singular: B = 0
        (W(0, Fraction(1, 3), 0, 1, 0), -7),  # dual not integral
    ]
    for w, d in cases:
        raised = []
        for route in (lambda w, d: phi_intersection(w, d, global_data(w)), phi_intersection_reference):
            with pytest.raises(ValueError) as exc:
                route(w, d)
            raised.append(type(exc.value))
        assert raised[0] is raised[1], (w, d, raised)


def test_dual_params():
    assert dual_params(Fraction(3), Fraction(-1)) == (Fraction(-6), Fraction(13))
