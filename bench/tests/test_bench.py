"""Tests of the benchmark itself: tracer, plans and workload invariants.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import ops  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ecdescent import arith, audit, tate  # noqa: E402
from ecdescent.weierstrass import WeierstrassModel  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.begin_op()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _idx(name: str) -> int:
    return tracing.NAMES.index(name)


def _golden_plan(workload: str, seed: int, cycles: int) -> list[int]:
    import json

    pool = workloads.build_pool(workload)
    with open(os.path.join(BENCH, "golden", f"{workload}.json")) as fh:
        golden = json.load(fh)
    outcomes = golden["outcomes"] or [""] * len(pool)
    strata = [workloads.stratum(workload, e, o) for e, o in zip(pool, outcomes)]
    plan = workloads.plan(workload, strata, golden["windows"], seed)
    return [i for cycle in itertools.islice(plan, cycles) for i in cycle]


def test_wrapper_returns_and_raises_like_the_original():
    original = arith.factorize
    expected = original(2**5 * 3 * 10007)
    with pytest.raises(ValueError) as plain:
        original(0)
    t = tracing.Tracer()
    t.begin_op()
    t.install()
    try:
        assert arith.factorize is not original
        assert arith.factorize(2**5 * 3 * 10007) == expected
        with pytest.raises(ValueError) as traced:
            arith.factorize(0)
        w = WeierstrassModel.from_ainvs([0, 0, 1, -1, 0])
        assert w.discriminant == 37
    finally:
        t.uninstall()
    assert arith.factorize is original
    assert str(traced.value) == str(plain.value)
    assert t.calls[_idx("arith.factorize")] == 2
    assert t.raised[_idx("arith.factorize")] == 1
    assert t.calls[_idx("weierstrass.WeierstrassModel.discriminant")] == 1


def test_self_times_never_exceed_wall_time(tracer):
    w = WeierstrassModel.from_ainvs([0, -22, 0, 1, 0])
    t0 = time.perf_counter_ns()
    audit.main_theorem_audit(w)
    wall = time.perf_counter_ns() - t0
    assert 0 < sum(tracer.self_ns) <= wall
    top = _idx("audit.main_theorem_audit")
    spans = tracer.spans
    roots = [k for k, p in enumerate(spans["parent"]) if p == -1]
    assert [spans["name"][k] for k in roots] == [top]
    # a root span covers the whole of its self time and its children's
    assert spans["end"][roots[0]] - spans["start"][roots[0]] >= sum(tracer.self_ns)


def test_global_data_called_from_audit_is_counted(tracer):
    assert audit.global_data is tate.global_data
    assert audit.global_data.__wrapped__ is not tate.global_data
    audit.main_theorem_audit(WeierstrassModel.from_ainvs([1, 0, 1, 0, 0]))
    gd = _idx("tate.global_data")
    assert tracer.calls[gd] > 1
    assert tracer.repeats[gd] > 0


def test_plan_depends_only_on_the_seed():
    first = _golden_plan("audit", 7, 20)
    assert first == _golden_plan("audit", 7, 20)
    assert first != _golden_plan("audit", 8, 20)


def test_plan_draws_every_stratum_in_every_cycle():
    pool = workloads.build_pool("descent")
    cycle = _golden_plan("descent", 3, 1)
    sources = sorted(pool[i]["source"] for i in cycle)
    spec = workloads.CYCLES["descent"]
    assert sources == sorted(s for s, n in spec.items() for _ in range(n))


def test_sweep_never_calls_local_image(tracer):
    pool = workloads.build_pool("sweep")
    firsts = {}
    for entry in pool:
        firsts.setdefault(entry["source"], entry)
    for entry in firsts.values():
        entry = ops.prepare("sweep", entry)
        out = ops.sweep_op(entry)
        assert ops.sweep_check(entry, out)
    assert tracer.calls[_idx("descent2.local_image")] == 0
    assert tracer.calls[_idx("tate.global_data")] == 3
    assert tracer.repeats[_idx("tate.global_data")] == 0


def test_inputs_are_made_without_the_library():
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import workloads\n"
        "for w in workloads.WORKLOADS: workloads.build_pool(w)\n"
        "print(any(m.startswith('ecdescent') for m in sys.modules))" % (BENCH, os.path.join(ROOT, "src"))
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False", out.stderr

