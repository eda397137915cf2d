"""Write the golden file of a workload from the library as it is now.

    python3 bench/make_golden.py sweep descent audit

Runs every pool entry REPEATS times and stores its output digest, for the
audit its route, and its cost window (see workloads.WINDOWS) in
bench/golden/<workload>.json; the repeats must agree.  Run it only when the
pool changes; a change to the library must reproduce the stored outputs.
It refuses to write a sweep golden file in which a family member breaks
its section's statement.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import ops  # noqa: E402
import workloads  # noqa: E402


REPEATS = 3


def measure(workload: str, entry: dict) -> tuple[float, tuple]:
    """Fastest of REPEATS runs, and the one (digest, outcome, statement)."""
    op = ops.OPS[workload][0]
    results, best = set(), float("inf")
    for _ in range(REPEATS):
        exc = None
        t0 = time.perf_counter()
        try:
            out = op(entry)
        except Exception as e:  # a refusal is recorded as the expected output
            out, exc = None, e
        best = min(best, time.perf_counter() - t0)
        results.add(ops.evaluate(workload, entry, out, exc))
    if len(results) != 1:
        raise SystemExit(f"{workload}: output of {entry} differs between runs")
    return best, results.pop()


def make(workload: str) -> dict:
    pool = workloads.build_pool(workload)
    digests, outcomes, strata, costs, broken = [], [], [], [], []
    for entry in pool:
        cost, (d, outcome, ok) = measure(workload, ops.prepare(workload, entry))
        if not ok:
            broken.append(entry)
        digests.append(d)
        outcomes.append(outcome)
        strata.append(workloads.stratum(workload, entry, outcome))
        costs.append(cost)
    if broken:
        raise SystemExit(f"{workload}: statement fails for {broken[:5]}")
    by_stratum: dict[str, list[float]] = {}
    for s, c in zip(strata, costs):
        by_stratum.setdefault(s, []).append(c)
    for s, cs in sorted(by_stratum.items()):
        print(f"{workload} {s}: n={len(cs)} median {statistics.median(cs) * 1e3:.1f} ms "
              f"max {max(cs) * 1e3:.1f} ms", file=sys.stderr)
    return {
        "workload": workload,
        "pool": workloads.fingerprint(pool),
        "digests": "".join(digests),
        "outcomes": outcomes if any(outcomes) else None,
        "windows": workloads.cost_windows(strata, costs),
    }


def main(argv: list[str]) -> int:
    for workload in argv or workloads.WORKLOADS:
        golden = make(workload)
        path = os.path.join(HERE, "golden", f"{workload}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(golden, fh, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
