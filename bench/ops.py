"""The operations each workload times, with their digests and paper checks.

An operation takes one pool entry, calls the library, and returns its
output.  `digest` reduces an output to the canonical JSON the golden file
records, hashed; a structured refusal digests to "!" and its exception
type.  Library functions are looked up through their modules at call time,
so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json

from ecdescent import audit, descent2, families, isogeny, tate
from ecdescent.weierstrass import WeierstrassModel

import workloads

#: Heegner fields are searched up to this |d|, as in the audit's default.
HEEGNER_BOUND = 300

#: Minimal models of the recorded exceptions to the sweep statements.
Z2Z2_EXCEPTIONS = {"[1,-1,1,-6,-4]", "[0,0,0,-1,0]"}  # 17a2, 32a2: C = M = 2
Z2Z4_EXCEPTION = "[1,1,1,-5,2]"  # 15a3: C = 4, C*M = 8


def sweep_op(entry: dict):
    source, params = entry["source"], entry["params"]
    if source == "chain":
        return isogeny.three_isogeny_chain(params[0])
    point = {"z2z2": families.z2z2_point, "z2z4": families.z2z4_point, "z2z6": families.z2z6_point}[source]
    w = families.build_curve(point(*params))
    return tate.global_data(w, bad_prime_hint=entry["hint"])


def sweep_record(entry: dict, out) -> list:
    if entry["source"] == "chain":
        return [
            out.length,
            [list(fp.params) for fp in out.family_points],
            [str(rec.target) for rec in out.records],
        ]
    return [str(out.minimal_model), out.delta_min, out.conductor, out.tamagawa_product]


def sweep_check(entry: dict, out) -> bool:
    """The section's statement for this family member."""
    source = entry["source"]
    if source == "chain":
        return out.length == (4 if entry["params"][0] == -6 else 3)
    model, C = str(out.minimal_model), out.tamagawa_product
    if source == "z2z2":
        return C % 4 == 0 or (model in Z2Z2_EXCEPTIONS and C == 2)
    if source == "z2z4":
        return C % 8 == 0 or (model == Z2Z4_EXCEPTION and C == 4)
    return C % 12 == 0


def descent_op(entry: dict):
    A, B = entry["params"]
    w = WeierstrassModel.from_ainvs([0, A, 0, B, 0])
    ds = [d for d in descent2.heegner_field_scan(w, HEEGNER_BOUND) if d != -3]
    cert = descent2.kramer_sha2_bound(w, ds[0]) if ds else None
    return cert, descent2.phi_selmer(w)


def descent_record(entry: dict, out) -> dict:
    cert, sel = out
    return {
        "kramer": cert.as_dict() if cert is not None else None,
        "phi_selmer": sorted(c.rep for c in sel.elements),
        "basis": [c.rep for c in sel.basis],
    }


def audit_op(entry: dict):
    return audit.main_theorem_audit(WeierstrassModel.from_ainvs(entry["ainvs"]))


def audit_record(entry: dict, out) -> dict:
    return out.as_dict()


OPS = {
    "sweep": (sweep_op, sweep_record, sweep_check),
    "descent": (descent_op, descent_record, None),
    "audit": (audit_op, audit_record, None),
}


def digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def evaluate(workload: str, entry: dict, out, exc: Exception | None) -> tuple[str, str, bool]:
    """(digest, outcome, statement holds) of one operation's result.

    The outcome is what a golden entry records besides its digest: the
    refusal's exception type, or the audit route.
    """
    _, record, check = OPS[workload]
    if exc is not None:
        # a workload with a statement to check has no refusals
        name = type(exc).__name__
        return digest({"raised": name}), "!" + name, check is None
    ok = check(entry, out) if check is not None else True
    return digest(record(entry, out)), (out.route if workload == "audit" else ""), ok


def prepare(workload: str, entry: dict) -> dict:
    """Add what the benchmark derives from an entry before timing it."""
    if workload == "sweep":
        return {**entry, "hint": workloads.sweep_hint(entry["source"], entry["params"])}
    if workload == "audit":
        return {**entry, "ainvs": workloads.audit_ainvs(entry)}
    return entry
