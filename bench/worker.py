"""One workload run in a fresh interpreter; started by run.py.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/worker.py --setup-only

The worker sets the library up, prints "ready", then runs the workload as
a closed loop: one caller, each operation started only after the previous
one returned.  After one untimed cycle of the plan it measures whole
cycles until the time is up, checks every output against the golden file,
and prints one JSON line.
With --trace 1 every operation also runs a second time under the tracer,
alternating which run goes first, and the line holds per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def setup() -> None:
    """What a user pays before the first call: import and fixture table."""
    import ecdescent  # noqa: F401
    from ecdescent.fixtures import FIXTURES

    len(FIXTURES)


def load_golden(workload: str, fingerprint: str, size: int) -> dict:
    with open(os.path.join(HERE, "golden", f"{workload}.json")) as fh:
        golden = json.load(fh)
    if golden["pool"] != fingerprint or len(golden["windows"]) != size:
        raise SystemExit(f"golden file does not match the {workload} pool; rebuild it with make_golden.py")
    return golden


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # imported only now, so that setup_s counts the library alone
    import ops
    import workloads

    pool = workloads.build_pool(workload)
    golden = load_golden(workload, workloads.fingerprint(pool), len(pool))
    outcomes = golden["outcomes"] or [""] * len(pool)
    strata = [workloads.stratum(workload, e, o) for e, o in zip(pool, outcomes)]
    op = ops.OPS[workload][0]
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()

    latencies: list[float] = []
    traced_s = 0.0
    failures: list[dict] = []
    attempted = failed = 0

    def once(i: int, entry: dict, traced: bool) -> tuple[float, bool]:
        """Time one execution and check its output."""
        if traced:
            tracer.begin_op()
            tracer.install()
        try:
            exc = None
            t0 = time.perf_counter()
            try:
                out = op(entry)
            except Exception as e:  # judged against the golden file below
                out, exc = None, e
            dt = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        digest, _, statement = ops.evaluate(workload, entry, out, exc)
        ok = statement and digest == golden["digests"][8 * i : 8 * i + 8]
        if not ok and len(failures) < 5:
            failures.append({"entry": pool[i], "traced": traced, "raised": repr(exc) if exc else None})
        return dt, ok

    def step(i: int, timed: bool) -> None:
        nonlocal attempted, failed, traced_s
        entry = ops.prepare(workload, pool[i])
        ok = True
        if tracer is None or not timed:
            runs = (False,)
        else:  # alternate which of the two executions goes first
            runs = (True, False) if attempted % 2 else (False, True)
        for traced in runs:
            dt, ok_run = once(i, entry, traced)
            ok = ok and ok_run
            if timed and traced:
                traced_s += dt
            elif timed:
                latencies.append(dt)
        attempted += 1
        failed += not ok

    cycles = workloads.plan(workload, strata, golden["windows"], seed)
    # one untimed cycle lets lazy imports inside the library finish first
    for i in next(cycles):
        step(i, timed=False)
    # the pool and golden data stay alive; keep the collector off them
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for i in next(cycles):
            step(i, timed=True)

    result = {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "latencies": latencies,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(len(latencies), traced_s, sum(latencies))
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{workload}.csv.gz"))
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
