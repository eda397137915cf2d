import importlib.resources
import io
import json
import os
from fractions import Fraction

import pytest

from ecdescent import audit
from ecdescent.audit import OutOfScopeTorsion, _z3_params, main_theorem_audit, shape_with_two_torsion
from ecdescent.cli import main as cli_main
from ecdescent.cremona import (
    MalformedLineError,
    ingest_cremona,
    parse_allcurves_line,
    render_allcurves_line,
)
from ecdescent.families import (
    GrowthReport,
    build_curve,
    points_of_order_n,
    torsion_subgroup,
    two_torsion_points,
    z2_point,
    z2z6_point,
    z3_normalize,
    z3_point,
    z4_point,
)
from ecdescent.fixtures import FIXTURES
from ecdescent.tate import global_data
from ecdescent.verify import verify_section
from ecdescent.weierstrass import CoordinateChange, WeierstrassModel, change_variables, integral_model
from oracles import find_isomorphism


def data_path():
    return str(importlib.resources.files("ecdescent") / "data" / "curves.allcurves")


def W(*a):
    return WeierstrassModel.from_ainvs(a)


def test_fixture_conductors_match_labels():
    for label, e in FIXTURES.items():
        num = ""
        for ch in label:
            if not ch.isdigit():
                break
            num += ch
        gd = global_data(e.model)
        assert gd.conductor == int(num), (label, gd.conductor)


def test_parse_and_render_roundtrip():
    line = "11 a 1 [0,-1,1,-10,-20] 0 5"
    row = parse_allcurves_line(line, 1)
    assert row.label == "11a1"
    assert render_allcurves_line(row) == line
    row2 = parse_allcurves_line(render_allcurves_line(row), 2)
    assert row2 == row


def test_parse_diagnostics():
    with pytest.raises(MalformedLineError) as exc:
        parse_allcurves_line("11 a x [0,-1,1,-10,-20] 0 5", 7)
    assert exc.value.lineno == 7
    assert exc.value.column > 0
    with pytest.raises(MalformedLineError):
        parse_allcurves_line("11 a 1", 3)


def test_ingest_validates_avalanche():
    table = ingest_cremona(data_path(), validate=True)
    assert "15a3" in table and "27a4" in table
    assert table["15a3"].torsion_order == 8
    # every row round-trips through render/parse
    for label, row in table.items():
        assert parse_allcurves_line(render_allcurves_line(row), 1) == row


def test_ingest_rejects_wrong_torsion(tmp_path):
    bad = tmp_path / "bad.allcurves"
    bad.write_text("11 a 1 [0,-1,1,-10,-20] 0 7\n")
    with pytest.raises(ValueError, match="torsion"):
        ingest_cremona(str(bad))
    ok = tmp_path / "ok.allcurves"
    ok.write_text("11 a 1 [0,-1,1,-10,-20] 0 5\n")
    assert "11a1" in ingest_cremona(str(ok))


def test_verify_section_reports_have_consistent_counts():
    rep = verify_section(3, bound=40)
    assert rep.attempted == rep.passed + rep.failed
    assert rep.failed == sum(c["status"] == "fail" for c in rep.cases)
    buf = io.StringIO()
    rep.dump_jsonl(buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert lines[-1]["summary"]["attempted"] == rep.attempted
    for rec in lines[:-1]:
        assert set(rec) == {"case_id", "inputs", "computed", "expected", "citation", "status"}


def test_verify_section_9_records_a_failed_heegner_scan(monkeypatch):
    import ecdescent.verify as verify

    real, calls = verify.heegner_field_scan, []

    def fail_once(w, bound, gd):
        calls.append(bound)
        if len(calls) == 1:
            raise ZeroDivisionError("scan failed")
        return real(w, bound, gd)

    monkeypatch.setattr(verify, "heegner_field_scan", fail_once)
    rep = verify_section(9, bound=10)
    failed = [c for c in rep.cases if c["status"] == "fail"]
    assert len(failed) == 1 and failed[0]["case_id"].startswith("s9-sha-")
    assert failed[0]["computed"]["raised"] == "ZeroDivisionError"
    assert any(c["case_id"].startswith("s9-sha-") and c["status"] == "pass" for c in rep.cases)


def test_audit_z2z6_has_witnesses():
    cert = main_theorem_audit(build_curve(z2z6_point(2, 1)))
    assert cert.holds and cert.route == "tamagawa"
    assert cert.divisor == 12


def test_audit_fixture_routes():
    cert = main_theorem_audit(W(3, -1, -3, 0, 0))  # 15a3
    assert cert.holds and cert.route == "fixture-manin"
    assert any("15a3" in a for a in cert.assumptions)
    cert = main_theorem_audit(build_curve(z4_point(1)))  # 17a4, M = 4
    assert cert.holds and cert.route == "fixture-manin"


def test_audit_kramer_route():
    cert = main_theorem_audit(build_curve(z4_point(41**2)))
    assert cert.holds and cert.route == "kramer"
    assert any(step.get("step") == "sha2-bound" for step in cert.evidence)


def test_audit_transfer_route(monkeypatch):
    E = W(0, 5, 0, -1, 0)
    cert = main_theorem_audit(E)
    assert cert.holds and cert.route == "transfer"
    assert cert.hypotheses  # rank and parametrisation-compatibility recorded

    cert = main_theorem_audit(E, -7)
    assert cert.holds and cert.route == "transfer"
    (step,) = [e for e in cert.evidence if e["step"] == "transfer"]
    assert step["trail"] == [
        "quotient satisfies ord_2: tors (1, 2), C = 2",
        "transferred across a degree-2 isogeny",
        "torsion 2-part stable over Q(sqrt(-7))",
    ]
    assert "isogeny respects the modular parametrisations (assumed)" in cert.hypotheses

    # condition (i): if the quotient's 2-power torsion could grow over K, the route refuses
    monkeypatch.setattr(audit, "torsion_growth", lambda w, d: GrowthReport(set(), d, True))
    cert = main_theorem_audit(E, -7)
    assert not cert.holds and cert.route == "unresolved"
    assert cert.evidence[-1] == {
        "step": "transfer-refused",
        "why": "condition (i) fails: torsion may gain 2-power order over Q(sqrt(-7))",
    }


def test_audit_cassels_route():
    cert = main_theorem_audit(build_curve(z3_point(10, 1)))
    assert cert.holds and cert.route == "cassels"


def _audited_torsion(fp):
    """The torsion group the audit routes on: that of the minimal model."""
    return torsion_subgroup(global_data(build_curve(fp)).minimal_model)


def _shape_by_search(w):
    """The 2-torsion shape through a root search of the 2-division
    polynomial: the old derivation, kept as an oracle."""
    w1 = change_variables(w, CoordinateChange.of(1, 0, Fraction(-w.a1, 2), Fraction(-w.a3, 2)))
    (x0, _), *_ = two_torsion_points(w1)
    return integral_model(change_variables(w1, CoordinateChange.of(1, x0, 0, 0)))[0]


def test_shape_with_two_torsion_matches_the_root_search():
    members = [z2_point(A, B) for A in range(-6, 7) for B in range(-6, 7) if B and A * A != 4 * B]
    members += [z4_point(beta) for beta in range(-30, 31) if beta not in (0, -16)]
    seen = set()
    for fp in members:
        tg = _audited_torsion(fp)
        if tg.structure not in ((1, 2), (1, 4)):
            continue
        seen.add(tg.structure)
        shape = shape_with_two_torsion(tg)
        assert shape == _shape_by_search(tg.model), fp
        assert shape.a1 == shape.a3 == shape.a6 == 0 and find_isomorphism(shape, tg.model) is not None
    assert seen == {(1, 2), (1, 4)}


def _z3_params_by_search(w):
    """(a, b) through the first root of the 3-division polynomial: the old
    derivation, kept as an oracle."""
    x0, y0 = points_of_order_n(w, 3)[0]
    w1 = change_variables(w, CoordinateChange.of(1, x0, 0, y0))
    w2 = change_variables(w1, CoordinateChange.of(1, 0, Fraction(w1.a4, w1.a3), 0))
    wi, _ = integral_model(w2)
    a, b = int(wi.a1), int(wi.a3)
    return z3_normalize(*((-a, -b) if b < 0 else (a, b))).params


def test_z3_params_match_the_division_polynomial_search():
    count = 0
    for a in range(-12, 13):
        for b in range(1, 9):
            try:
                fp = z3_point(a, b)
            except ValueError:
                continue
            tg = _audited_torsion(fp)
            if tg.structure != (1, 3):
                continue
            assert _z3_params(tg) == _z3_params_by_search(tg.model), fp
            count += 1
    assert count >= 100


def test_z3_params_checks_hold_under_optimize(run_optimized):
    # a doctored torsion group on 37a1, whose generator is first a point
    # off the curve and then (0,0) of infinite order, trips the two checks
    script = (
        "from ecdescent import audit\n"
        "from ecdescent.families import TorsionGroup\n"
        "from ecdescent.weierstrass import InvariantViolation, WeierstrassModel\n"
        "w = WeierstrassModel.from_ainvs([0, 0, 1, -1, 0])\n"
        "for P in [(1, 1), (0, 0)]:\n"
        "    try:\n"
        "        audit._z3_params(TorsionGroup((1, 3), [(P, 3)], w))\n"
        "    except InvariantViolation as exc:\n"
        "        print(str(exc).split(': ')[-1].split()[0])\n"
    )
    assert run_optimized(script) == ["the", "(0,0)"]


def test_audit_out_of_scope():
    with pytest.raises(OutOfScopeTorsion):
        main_theorem_audit(W(0, -1, 1, -10, -20))  # Z/5 torsion


def test_audit_never_claims_without_chain():
    # an audit that holds must carry evidence and flag its assumptions
    for w in [W(3, -1, -3, 0, 0), W(0, 5, 0, -1, 0)]:
        cert = main_theorem_audit(w)
        assert cert.holds
        assert cert.evidence
        if cert.route in ("fixture-manin", "transfer"):
            assert cert.assumptions or cert.hypotheses


def test_cli_tate_json(capsys):
    rc = cli_main(["tate", "--curve", "0,-1,1,-10,-20"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["conductor"] == 11


def test_cli_verify_exit_codes(capsys):
    rc = cli_main(["verify-paper", "--section", "3", "--bound", "40"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert json.loads(out[-1])["summary"]["failed"] == 0


@pytest.mark.parametrize("bound", [10, 16])
def test_cli_section_3_at_a_small_bound_expects_what_it_reaches(capsys, bound):
    # at 10 the scan reaches six of the nine exceptions and not 15a3 (first at
    # alpha, beta = 5, 12), so it has no C*M case; at 16 it reaches all nine
    rc = cli_main(["verify-paper", "--section", "3", "--bound", str(bound)])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rc == 0 and lines[-1]["summary"]["failed"] == 0
    scan = {rec["case_id"]: rec for rec in lines[:-1] if not rec["case_id"].startswith("s3-mult-")}
    reaches_15a3 = bound >= 12
    assert set(scan) == {"s3-exceptions", "s3-eight-divides"} | ({"s3-15a3-CM"} if reaches_15a3 else set())
    assert len(scan["s3-exceptions"]["expected"]) == (9 if reaches_15a3 else 6)
    assert len(scan["s3-eight-divides"]["expected"]["violators"]) == reaches_15a3


def _refusal(capsys, argv):
    rc = cli_main(argv)
    out = json.loads(capsys.readouterr().out)
    assert rc == 2 and out["command"] in argv and out["refused"]
    return out["refused"]


def test_cli_tate_refuses_a_composite_prime(capsys):
    assert "not a prime" in _refusal(capsys, ["tate", "--curve", "0,0,0,-1,0", "--prime", "4"])


def test_cli_refuses_a_curve_it_cannot_factor(capsys):
    # the discriminant of y^2 = x^3 + n is -432 n^2, n a product of two 20-digit primes
    n = 10000000000000000051 * 30000000000000000041
    assert str(n) in _refusal(capsys, ["tate", "--curve", f"0,0,0,0,{n}"])


def test_cli_tate_refuses_a_malformed_curve(capsys):
    assert "not a rational number" in _refusal(capsys, ["tate", "--curve", "1,2,x"])


def test_cli_tate_refuses_a_singular_curve(capsys):
    assert "singular" in _refusal(capsys, ["tate", "--curve", "0,0,0,0,0"])


def test_cli_torsion_refuses_a_singular_curve(capsys):
    assert "singular" in _refusal(capsys, ["torsion", "--curve", "0,0,0,0,0"])


def test_cli_verify_refuses_an_option_the_section_ignores(capsys):
    assert "--bound" in _refusal(capsys, ["verify-paper", "--section", "5", "--bound", "40"])
    # the sampled tables run at fixed seeds, so argparse knows no --seed
    for argv in (["--seed", "1", "verify-paper", "--section", "4"], ["verify-paper", "--section", "4", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and err.startswith("usage: ecdescent")
    assert "unrecognized arguments: --seed 1" in err


def test_cli_isogeny_refuses_a_malformed_kernel(capsys):
    assert "rational coordinates" in _refusal(capsys, ["isogeny", "--curve", "0,5,0,-1,0", "--kernel", "0,x"])


def test_cli_isogeny_computes_each_side_once(capsys, monkeypatch):
    # one global_data per side: the etale side is read off the one pullback scale
    from ecdescent import isogeny

    calls = []

    def counted(w, *args):
        calls.append(str(w))
        return global_data(w, *args)

    monkeypatch.setattr(isogeny, "global_data", counted)
    for curve, scale, side in [("0,5,0,-1,0", 1, "forward"), ("0,0,0,4,0", 2, "dual")]:
        calls.clear()
        assert cli_main(["isogeny", "--curve", curve, "--kernel", "0,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["pullback_scale"], out["etale_side"]) == (scale, side)
        assert sorted(calls) == sorted([out["source"], out["target"]])


def test_cli_sweep_refuses_a_malformed_params_range(capsys):
    assert "lo:hi" in _refusal(capsys, ["sweep", "--family", "z4", "--params-range=a"])


def test_cli_audit_refuses_a_field_that_fails_the_heegner_condition(capsys):
    assert "Heegner condition" in _refusal(capsys, ["audit", "--curve", "0,5,0,-1,0", "--disc", "-2"])


def test_cli_audit_refuses_a_disc_that_is_not_negative_squarefree(capsys):
    assert "negative squarefree" in _refusal(capsys, ["audit", "--curve", "0,5,0,-1,0", "--disc", "5"])


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["descent", "--curve", "5,-1", "--disc", "-2"], "Heegner condition"),
        (["descent", "--curve", "5,-1", "--disc", "-4"], "negative squarefree"),
        (["descent3", "--a", "10", "--disc", "-2"], "Heegner condition"),
        (["descent3", "--a", "10", "--disc", "7"], "negative squarefree"),
        (["descent3", "--a", "-15", "--disc", "5"], "negative squarefree"),
        (["descent3", "--a", "-15", "--disc", "0"], "negative squarefree"),
        (["descent3", "--a", "-15", "--disc", "-7"], "Heegner condition"),
    ],
    ids=[
        "descent-heegner",
        "descent-squarefree",
        "descent3-heegner",
        "descent3-squarefree",
        "descent3-3-divides-C-positive",
        "descent3-3-divides-C-zero",
        "descent3-3-divides-C-heegner",
    ],
)
def test_cli_descent_commands_refuse_a_bad_disc(capsys, argv, reason):
    assert reason in _refusal(capsys, argv)


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["chain", "--a", "3"], "singular"),
        (["descent3", "--a", "3", "--disc", "-2"], "singular"),
        (["verify-paper", "--section", "8", "--bound", "0"], "below 1"),
        (["verify-paper", "--section", "4", "--bound", "-5"], "below 1"),
        (["sweep", "--family", "z4", "--params-range=1:5", "--limit", "-1"], "below 0"),
    ],
    ids=[
        "chain-singular-a",
        "descent3-singular-a",
        "verify-bound-zero",
        "verify-bound-negative",
        "sweep-limit-negative",
    ],
)
def test_cli_refuses_an_out_of_range_parameter(capsys, argv, reason):
    assert reason in _refusal(capsys, argv)


def test_sweep_reports_do_not_depend_on_the_cpu_count(monkeypatch):
    import multiprocessing

    import ecdescent.verify as verify

    real_pool, pools = multiprocessing.Pool, []

    def pool(workers):
        pools.append(workers)
        return real_pool(workers)

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    # four chunks each: 2 202 pairs in chunks of 512, 1 200 values of a in chunks of 256
    for table, opts in [(verify.exception_scan, {"bound": 60}), (verify.chain_bound, {"bound": 600})]:
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(verify, "_cpus", lambda n=cpus: n)
            pools.clear()
            rep = verify.Report(0)
            table(rep, **opts)
            reports.append(json.dumps(rep.cases, default=str))
            assert pools == ([2] if cpus == 2 else []), (table.__name__, cpus)
        assert reports[0] == reports[1], table.__name__
    # a test-size sweep has fewer than two chunks and stays in this process
    monkeypatch.setattr(verify, "_cpus", lambda: 2)
    pools.clear()
    verify.chain_bound(verify.Report(0), bound=60)
    assert pools == []


def test_wrong_tamagawa_number_fails_every_tamagawa_section(monkeypatch, capsys):
    import dataclasses

    import ecdescent.verify as verify

    small = {3: {"bound": 40}, 4: {"bound": 20}, 6: {"bound": 200}, 8: {"bound": 5}}
    for section, opts in small.items():
        assert verify_section(section, **opts).failed == 0, section
    real_local, real_global = verify.local_reduction, verify.global_data

    def local_reduction(w, p):
        lr = real_local(w, p)
        return dataclasses.replace(lr, tamagawa=lr.tamagawa + 1)

    def global_data(w, bad_prime_hint=None):
        gd = real_global(w, bad_prime_hint)
        return dataclasses.replace(gd, tamagawa_product=gd.tamagawa_product + 1)

    monkeypatch.setattr(verify, "local_reduction", local_reduction)
    monkeypatch.setattr(verify, "global_data", global_data)
    for section, opts in small.items():
        assert verify_section(section, **opts).failed > 0, section
    rc = cli_main(["verify-paper", "--section", "4", "--bound", "20"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 1 and json.loads(out[-1])["summary"]["failed"] == 1


def test_cli_sweep_reports_singular(capsys):
    rc = cli_main(["sweep", "--family", "z4", "--params-range=-17:-15"])
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert rc == 0
    stati = {tuple(l["params"]) if isinstance(l["params"], list) else l["params"]: l["status"] for l in lines}
    assert stati[(-16,)] == "singular"


def test_cli_ingest_env(capsys, monkeypatch):
    monkeypatch.setenv("ECDESCENT_CREMONA", data_path())
    rc = cli_main(["ingest", "--no-validate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "15 a 3" in out


def test_cli_ingest_refuses_without_a_path(capsys, monkeypatch):
    monkeypatch.delenv("ECDESCENT_CREMONA", raising=False)
    assert cli_main(["ingest"]) == 2
    assert "no curve table" in json.loads(capsys.readouterr().out)["refused"]


def test_cli_ingest_refuses_a_missing_file(tmp_path, capsys):
    assert cli_main(["ingest", "--path", str(tmp_path / "absent.allcurves")]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["command"] == "ingest" and "No such file" in out["refused"]


@pytest.mark.parametrize(
    "rows, reason",
    [
        ("11 a 1 [0,-1,1,-10,-20] 0\n", "missing torsion field"),
        ("11 a 1 [0,-1,1,-10,-20/0] 0 5\n", "line 1, column 8: bad ainvs field '[0,-1,1,-10,-20/0]'"),
        ("12 a 1 [0,-1,1,-10,-20] 0 5\n", "computed conductor 11 != 12"),
        ("11 a 1 [0,-1,1,-10,-20] 0 7\n", "computed torsion 5 != 7"),
        ("11 a 1 [0,-1,1,-10,-20] 0 5\n" * 2, "line 2: duplicate label 11a1"),
    ],
    ids=["malformed-line", "zero-denominator", "conductor-mismatch", "torsion-mismatch", "duplicate-label"],
)
def test_cli_ingest_refuses_a_bad_table(tmp_path, capsys, rows, reason):
    table = tmp_path / "t.allcurves"
    table.write_text(rows)
    assert cli_main(["ingest", "--path", str(table)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["command"] == "ingest" and reason in out["refused"]
