"""Input pools and seeded operation plans for the benchmark workloads.

Nothing here imports ecdescent.  Inputs come from the benchmark's own
family formulas and trial division, so making them is never timed as
program work, and a change to the library cannot change what is fed to it.

Each workload has a fixed pool of inputs, built from a fixed pool seed.
The golden file of the workload holds the expected output of every pool
entry.  The run seed only chooses which pool entries a run draws and in
what order.  Draws are stratified: the pool is split into strata by
source and route, every cycle of the plan takes a fixed number of entries
from each stratum, and within a stratum the draws spread evenly over its
cost windows.  So runs with different seeds feed different curves but the
same mix of work, which keeps the run-to-run spread small.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("sweep", "descent", "audit")

#: Seed of the pool builder; changing it invalidates the golden files.
POOL_SEED = 20150126

_SPF_LIMIT = 1 << 16
_SPF: list[int] = []


def _spf_table() -> list[int]:
    if not _SPF:
        spf = list(range(_SPF_LIMIT + 1))
        for i in range(2, math.isqrt(_SPF_LIMIT) + 1):
            if spf[i] == i:
                for j in range(i * i, _SPF_LIMIT + 1, i):
                    if spf[j] == j:
                        spf[j] = i
        _SPF.extend(spf)
    return _SPF


def prime_divisors(n: int) -> list[int]:
    """Sorted primes dividing n != 0, by table lookup and trial division."""
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime divisors")
    spf = _spf_table()
    out = set()
    p = 2
    while n > _SPF_LIMIT and p * p <= n:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > _SPF_LIMIT:
        out.add(n)
        n = 1
    while n > 1:
        p = spf[n]
        out.add(p)
        while n % p == 0:
            n //= p
    return sorted(out)


def is_prime(n: int) -> bool:
    return n > 1 and prime_divisors(n) == [n]


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def discriminant(ainvs) -> Fraction:
    a1, a2, a3, a4, a6 = (Fraction(a) for a in ainvs)
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


# -- sweep: members of the paper's table families ------------------------------
#
# Boxes are those of the acceptance sweeps (criteria 2, 3 and 9; the Z/2+Z/6
# box of criterion 10 is widened from 60 to 80), so each member satisfies
# the section's divisibility statement or is one of its recorded exceptions.


def _sweep_pool(rng: random.Random) -> list[dict]:
    pool = []

    def sample(source, count, draw):
        seen = set()
        while len(seen) < count:
            params = draw()
            if params is not None and params not in seen:
                seen.add(params)
        return [{"source": source, "params": list(p)} for p in sorted(seen)]

    def z2z2():
        a, b = rng.randint(-300, 300), rng.randint(-300, 300)
        if a == 0 or b == 0 or b >= a:
            return None
        # skip pairs the family normalizes to a smaller pair (p^2 | a, b)
        if any(a % (p * p) == 0 and b % (p * p) == 0 for p in prime_divisors(math.gcd(a, b))):
            return None
        return (a, b)

    def z2z4():
        alpha, beta = rng.randint(1, 200), rng.randint(1, 200)
        if math.gcd(alpha, beta) != 1 or 4 * alpha == beta:
            return None
        return (alpha, beta)

    def chain():
        a = rng.randint(-10_000, 10_000)
        return None if a in (3, -6) else (a,)

    # 8000 members a family: a run of the seed code draws about 5000 of each
    pool += sample("z2z2", 8000, z2z2)
    pool += sample("z2z4", 8000, z2z4)
    pool += [
        {"source": "z2z6", "params": [S, T]}
        for S in range(1, 81)
        for T in range(-80, 81)
        if math.gcd(S, T) == 1 and T not in (S, 5 * S, 3 * S, -3 * S, 9 * S)
    ]
    # a = -6 is the one length-4 chain (conductor 27)
    pool += sample("chain", 7999, chain) + [{"source": "chain", "params": [-6]}]
    return pool


def z2z6_uv(S: int, T: int) -> tuple[int, int]:
    num = (T - 3 * S) * (T + 3 * S)
    den = 2 * S * (5 * S - T)
    g = math.gcd(num, den)
    return num // g, den // g


def sweep_hint(source: str, params) -> list[int] | None:
    """Primes dividing the discriminant of the family's integral model."""
    if source == "z2z2":
        a, b = params
        return sorted(set(prime_divisors(a)) | set(prime_divisors(b)) | set(prime_divisors(a - b)) | {2})
    if source == "z2z4":
        alpha, beta = params
        return sorted(
            set(prime_divisors(16 * alpha**2 - beta**2)) | set(prime_divisors(alpha)) | set(prime_divisors(beta)) | {2}
        )
    if source == "z2z6":
        u, v = z2z6_uv(*params)
        primes = {2, 3}
        for n in (u, v, u + v, 9 * v + u):
            primes |= set(prime_divisors(n))
        return sorted(primes)
    return None


# -- descent: 2-isogeny certificates -------------------------------------------
#
# The odd-prime local image scan costs O(l) per bad place l, so the strata
# are bins of the largest bad prime.  Box curves are kept while that prime
# is at most DESCENT_L_MAX, and criterion-6 curves
# y^2 = x^3 + (p^2z + 8)x^2 + 16x while it is at most CRIT6_L_MAX: their
# twists add large places, so they cost several times a box curve of the
# same prime.  The caps keep a run of the seed code at several hundred
# operations.

DESCENT_L_MAX = 1500
DESCENT_BINS = (32, 128, 512, DESCENT_L_MAX)
CRIT6_L_MAX = 512


def _bin(ell: int) -> int:
    return next(i for i, edge in enumerate(DESCENT_BINS) if ell <= edge)


def _descent_pool(rng: random.Random) -> list[dict]:
    by_bin: dict[int, list] = {}
    for A in range(-100, 101):
        for B in range(-100, 101):
            if B == 0 or A * A == 4 * B or is_square(A * A - 4 * B):
                continue
            ell = max(prime_divisors(2 * B * (A * A - 4 * B)))
            if ell <= DESCENT_L_MAX:
                by_bin.setdefault(_bin(ell), []).append((A, B))
    pool = []
    for i in sorted(by_bin):
        for A, B in sorted(rng.sample(by_bin[i], min(160, len(by_bin[i])))):
            pool.append({"source": f"box{i}", "params": [A, B]})
    small = [r for r in range(2, CRIT6_L_MAX + 1) if is_prime(r)]
    for p in small[2:]:
        for z in (1, 2):
            q = p ** (2 * z) + 16
            # trial division by the primes up to the cap: q must be smooth
            rest = q
            for r in small:
                while rest % r == 0:
                    rest //= r
                if rest == 1:
                    break
            if rest == 1 and not is_square(q):
                pool.append({"source": "crit6", "params": [p ** (2 * z) + 8, 16]})
    return pool


# -- audit: the torsion-routed divisibility audit -------------------------------


def _kubert(b, c):
    return [1 - c, -b, -b, 0, 0]


def _audit_pool(rng: random.Random) -> list[dict]:
    pool = []

    def sample(source, count, draw):
        seen = set()
        tries = 0
        while len(seen) < count and tries < 50 * count:
            tries += 1
            params = draw()
            if params is None or params in seen:
                continue
            if discriminant(_audit_ainvs(source, params)) != 0:
                seen.add(params)
        pool.extend({"source": source, "params": list(p)} for p in sorted(seen))

    def pair(lo, hi, lo2, hi2):
        return lambda: (rng.randint(lo, hi), rng.randint(lo2, hi2))

    def z2z4():
        alpha, beta = rng.randint(1, 40), rng.randint(1, 40)
        return (alpha, beta) if math.gcd(alpha, beta) == 1 and 4 * alpha != beta else None

    def z2z6():
        S, T = rng.randint(1, 12), rng.randint(-12, 12)
        return (S, T) if math.gcd(S, T) == 1 and T not in (S, 5 * S, 3 * S, -3 * S, 9 * S) else None

    def z3b():
        a, b = rng.randint(-30, 30), rng.randint(2, 30)
        if any(b % q**3 == 0 for q in prime_divisors(b) if a % q == 0):
            return None
        return (a, b)

    sample("z2z4", 150, z2z4)
    sample("z4", 150, lambda: (rng.choice([-1, 1]) * rng.randint(1, 300),))
    sample("z2z2", 150, pair(-40, 40, -40, 40))
    sample("z2", 150, pair(-30, 30, -30, 30))
    # the Z/2 shapes with B in {1, -1, -16} reach the kramer and transfer routes
    sample("z2m", 600, lambda: (rng.randint(-60, 60), rng.choice([1, -1, -16])))
    sample("z2z6", 150, z2z6)
    # Z/3 curves (a, 1) reach the cassels and fixture-manin routes
    sample("z3", 600, lambda: (rng.randint(-600, 600),))
    sample("z3b", 150, z3b)
    # Tate normal forms with Z/5 and Z/6 torsion: OutOfScopeTorsion
    sample("kubert5", 30, lambda: (rng.choice([-1, 1]) * rng.randint(2, 40),))
    sample("kubert6", 30, lambda: (rng.choice([-1, 1]) * rng.randint(2, 40),))
    return pool


def _audit_ainvs(source: str, params) -> list:
    if source == "z2z4":
        alpha, beta = params
        lam = Fraction(16 * alpha**2 - beta**2, 16 * beta**2)
        m = 4 * beta
        return [m, -lam * m**2, -lam * m**3, 0, 0]
    if source == "z4":
        (beta,) = params
        return [beta, -beta, -(beta**2), 0, 0]
    if source == "z2z2":
        a, b = params
        return [0, a + b, 0, a * b, 0]
    if source in ("z2", "z2m"):
        A, B = params
        return [0, A, 0, B, 0]
    if source == "z2z6":
        u, v = z2z6_uv(*params)
        return [u - v, -v * (v + u), -u * v * (v + u), 0, 0]
    if source == "z3":
        return [params[0], 0, 1, 0, 0]
    if source == "z3b":
        a, b = params
        return [a, 0, b, 0, 0]
    if source == "kubert5":
        (t,) = params
        return _kubert(t, t)
    if source == "kubert6":
        (t,) = params
        return _kubert(t + t * t, t)
    raise ValueError(f"unknown audit source {source}")


def audit_ainvs(entry: dict) -> list[str]:
    """The a-invariants of an audit pool entry, as exact rational strings."""
    return [str(Fraction(a)) for a in _audit_ainvs(entry["source"], entry["params"])]


# -- pools, strata and plans -------------------------------------------------------

_BUILDERS = {"sweep": _sweep_pool, "descent": _descent_pool, "audit": _audit_pool}


def build_pool(workload: str) -> list[dict]:
    """The fixed input pool of a workload; independent of the run seed."""
    return _BUILDERS[workload](random.Random(POOL_SEED))


def fingerprint(pool: list[dict]) -> str:
    text = json.dumps(pool, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: Entries per stratum in one cycle of the plan.  Sweep draws one member of
#: each family per cycle.  Descent weights the cheap bins up so that most
#: operations are box curves and the slow tail is the large-prime scans.
#: Audit strata pair the route recorded in the golden file with the source,
#: so every route occurs in every cycle, weighted toward the Sha[2] and
#: Sha[3] routes; pairs with only a handful of members are left out.
CYCLES = {
    "sweep": {"z2z2": 1, "z2z4": 1, "z2z6": 1, "chain": 1},
    "descent": {"box0": 3, "box1": 3, "box2": 2, "box3": 2, "crit6": 2},
    "audit": {
        "tamagawa:z2z4": 1,
        "tamagawa:z4": 1,
        "tamagawa:z2z2": 1,
        "tamagawa:z2": 1,
        "tamagawa:z2m": 1,
        "tamagawa:z2z6": 1,
        "tamagawa:z3b": 1,
        "fixture-manin:z2m": 1,
        "fixture-manin:z3": 1,
        "kramer:z2m": 2,
        "transfer:z2m": 1,
        "cassels:z3": 2,
        "unresolved:z3": 1,
        "!OutOfScopeTorsion:kubert5": 1,
        "!OutOfScopeTorsion:kubert6": 1,
    },
}


def stratum(workload: str, entry: dict, outcome: str) -> str:
    return f"{outcome}:{entry['source']}" if workload == "audit" else entry["source"]


#: The golden file ranks the members of each stratum by their cost on the
#: code that wrote it and cuts them into this many windows of equal size.
#: A stratum's draws visit every window once per round, so every run draws
#: nearly the same spread of costs, whatever its seed.
WINDOWS = 8


def cost_windows(strata: list[str], costs: list[float]) -> str:
    """One digit per pool entry: its cost window within its stratum."""
    members: dict[str, list[int]] = {}
    for i, s in enumerate(strata):
        members.setdefault(s, []).append(i)
    out = ["0"] * len(strata)
    for idx in members.values():
        for rank, i in enumerate(sorted(idx, key=lambda i: costs[i])):
            out[i] = str(rank * WINDOWS // len(idx))
    return "".join(out)


def plan(workload: str, strata: list[str], windows: str, seed: int):
    """Endless seeded sequence of cycles, each a list of pool indices.

    Each window is drawn without replacement in a seeded order and
    reshuffled only when exhausted, so a run repeats an input only after
    it has used every other input of its window.
    """
    rng = random.Random(seed)
    groups: dict[str, dict[str, list[int]]] = {}
    for i, (s, w) in enumerate(zip(strata, windows)):
        groups.setdefault(s, {}).setdefault(w, []).append(i)
    spec = CYCLES[workload]
    missing = [s for s in spec if s not in groups]
    if missing:
        raise ValueError(f"{workload}: empty strata {missing}")
    rounds: dict[str, list[str]] = {s: [] for s in spec}
    queues: dict[tuple, list[int]] = {}

    def draw(s: str) -> int:
        if not rounds[s]:
            rounds[s] = sorted(groups[s])
            rng.shuffle(rounds[s])
        w = rounds[s].pop()
        queue = queues.setdefault((s, w), [])
        if not queue:
            queue.extend(groups[s][w])
            rng.shuffle(queue)
        return queue.pop()

    while True:
        cycle = [draw(s) for s, count in spec.items() for _ in range(count)]
        rng.shuffle(cycle)
        yield cycle
