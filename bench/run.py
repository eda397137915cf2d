"""The ecdescent benchmark: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload sweep|descent|audit|all --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the pools and the strata):
  sweep    members of the Z/2+Z/2, Z/2+Z/4 and Z/2+Z/6 table families run
           through global_data with the family's bad-prime hint, and
           3-isogeny chains; every member is also checked against the
           section's divisibility statement.
  descent  heegner_field_scan, kramer_sha2_bound for the first admissible
           d != -3, and phi_selmer on y^2 = x^3 + Ax^2 + Bx with E(Q)[2] = Z/2.
  audit    main_theorem_audit with d = None over all six torsion structures.

Each workload runs in a fresh interpreter as a closed loop with one caller.
With --trace 0 the last line of output holds the end-to-end metrics:
  setup_s      median time from a fresh interpreter to ready (import
               ecdescent and its fixture table), over SETUP_RUNS starts
  ops_per_s    operations completed per second spent in operations
  op_ms_p50    median operation latency
  op_ms_p90    90th-percentile operation latency
  peak_rss_mb  peak resident memory of the workload's process
failed_frac, the share of operations whose output differs from the golden
file or that raise anything but their recorded refusal, is printed above
the last line; the last line carries it as "failed" of "attempted".
With --trace 1 the last line holds the per-layer metrics of tracing.py,
taken from a second, traced execution of every operation, and the spans
are written to .bench_out/spans-<workload>.csv.gz.

The expected outputs live in bench/golden and are written by
bench/make_golden.py; the benchmark's own tests run with
`python3 -m pytest bench/tests`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: Interpreter starts timed for setup_s, after one untimed start that
#: leaves the byte-code caches written.
SETUP_RUNS = 11
#: Extra time a worker may take past --seconds before it is stopped.
GRACE_S = 120

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds it took to become ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _, err = proc.communicate(timeout=GRACE_S)
        raise BenchError(f"worker failed to set up:\n{err.strip()}")
    return proc, ready_s


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish in time") from None
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err.strip()}")
    return out


def setup_seconds() -> list[float]:
    times = []
    for k in range(SETUP_RUNS + 1):
        proc, ready_s = start_worker(["--setup-only"])
        finish(proc, GRACE_S)
        if k:
            times.append(ready_s)
    return times


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "unknown"
    return res.stdout.strip() or "unknown"


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    setup = [] if trace else setup_seconds()
    proc, _ = start_worker(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    )
    res = json.loads(finish(proc, seconds + GRACE_S).strip().splitlines()[-1])
    lat = sorted(res["latencies"])
    attempted, failed, timed = res["attempted"], res["failed"], len(lat)
    print(f"# {workload}: seed {seed}, python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"git {git_sha()}, closed loop with 1 caller, {seconds} s")
    print(f"{workload} failed_frac {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for f in res["failures"]:
        print(f"{workload} FAILED {json.dumps(f)}")
    if trace:
        metrics = {name: {"value": v, "unit": tracing.unit(name)} for name, v in res["per_layer"].items()}
        for name, m in metrics.items():
            if m["value"]:
                print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": timed / sum(lat),
            "op_ms_p50": 1e3 * statistics.median(lat),
            "op_ms_p90": 1e3 * percentile(lat, 0.9),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
        }
        samples = {"setup_s": len(setup), "peak_rss_mb": 1}
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        for name, m in metrics.items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']} (n={samples.get(name, timed)})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            print(json.dumps(run_workload(workload, args.seed, args.seconds, bool(args.trace))), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
