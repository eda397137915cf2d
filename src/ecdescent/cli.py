"""Command-line interface.

Subcommands mirror the library: local reduction data, torsion, isogeny
quotients and chains, the two descent certificates, family sweeps,
table-verification runs, the end-to-end audit, and curve-table ingestion.
Output is JSON (one object, or one object per line for sweeps/reports);
the process exits 0 only if every requested verification passed, and 2
with a {"command", "refused"} object on malformed or out-of-range input.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import os
import sys
from fractions import Fraction

from . import verify as verify_mod
from .arith import FactoringBudgetExceeded, is_prime
from .audit import OutOfScopeTorsion, main_theorem_audit
from .cremona import ingest_cremona, render_allcurves_line
from .descent2 import InadmissibleField, kramer_sha2_bound
from .descent3 import HypothesisFailure, sha3_criterion
from .families import (
    FAMILIES,
    SingularParameterError,
    build_curve,
    torsion_subgroup,
    z2_point,
    z2z2_point,
    z2z4_point,
    z2z6_point,
    z3_point,
    z4_point,
)
from .isogeny import etale_side, pullback_scale, three_isogeny_chain, velu_2_isogeny, velu_3_isogeny
from .tate import global_data, local_reduction
from .weierstrass import WeierstrassModel, point_order

_POINT_MAKERS = {
    "z2z4": z2z4_point,
    "z4": z4_point,
    "z2z2": z2z2_point,
    "z2": z2_point,
    "z2z6": z2z6_point,
    "z3": z3_point,
}


class Refusal(Exception):
    """Malformed or out-of-range command-line input."""


def _parse_curve(text: str) -> WeierstrassModel:
    try:
        parts = [Fraction(tok) for tok in text.replace("[", "").replace("]", "").split(",")]
    except (ValueError, ZeroDivisionError):
        raise Refusal(f"curve {text!r} has a coefficient that is not a rational number") from None
    if len(parts) == 5:
        w = WeierstrassModel.from_ainvs(parts)
    elif len(parts) == 2:  # (A, B) shorthand for y^2 = x^3 + Ax^2 + Bx
        A, B = parts
        w = WeierstrassModel.from_ainvs([0, A, 0, B, 0])
    else:
        raise Refusal("curve must be a1,a2,a3,a4,a6 or A,B")
    if w.is_singular:
        raise Refusal(f"curve {text!r} is singular (discriminant 0)")
    return w


def _emit(obj):
    print(json.dumps(obj, default=str))


def cmd_tate(args):
    w = _parse_curve(args.curve)
    if args.prime is not None:
        if not is_prime(args.prime):
            raise Refusal(f"--prime {args.prime} is not a prime")
        _emit(local_reduction(w, args.prime).as_dict())
        return 0
    gd = global_data(w)
    _emit(
        {
            "minimal_model": str(gd.minimal_model),
            "delta_min": gd.delta_min,
            "conductor": gd.conductor,
            "tamagawa_product": gd.tamagawa_product,
            "local": {str(p): lr.as_dict() for p, lr in sorted(gd.local_data.items())},
        }
    )
    return 0


def cmd_torsion(args):
    w = _parse_curve(args.curve)
    tg = torsion_subgroup(w)
    _emit(
        {
            "structure": list(tg.structure),
            "order": tg.order,
            "generators": [{"x": str(P[0]), "y": str(P[1]), "order": k} for P, k in tg.generators],
        }
    )
    return 0


def cmd_isogeny(args):
    w = _parse_curve(args.curve)
    try:
        x, y = (Fraction(t) for t in args.kernel.split(","))
    except (ValueError, ZeroDivisionError):
        raise Refusal(f"kernel {args.kernel!r} must be two rational coordinates x,y") from None
    if not w.contains(x, y):
        raise Refusal(f"kernel point ({x}, {y}) is not on the curve")
    order = point_order(w, (x, y), 4)
    if order not in (2, 3):
        raise Refusal(f"kernel point ({x}, {y}) has order {order or 'above 4'}, not 2 or 3")
    rec = velu_2_isogeny(w, (x, y)) if order == 2 else velu_3_isogeny(w, (x, y))
    scale = pullback_scale(rec)
    _emit(
        {
            "source": str(rec.source),
            "target": str(rec.target),
            "degree": rec.degree,
            "kernel": [[str(p[0]), str(p[1])] for p in rec.kernel],
            "pullback_scale": scale,
            "etale_side": etale_side(scale),
        }
    )
    return 0


def cmd_chain(args):
    try:
        chain = three_isogeny_chain(args.a)
    except SingularParameterError as exc:
        raise Refusal(str(exc)) from None
    _emit(
        {
            "start": str(chain.start),
            "length": chain.length,
            "curves": [str(chain.records[0].source)] + [str(r.target) for r in chain.records],
            "steps": [{"via": r.via, "target": str(r.target)} for r in chain.records],
        }
    )
    return 0


def cmd_descent(args):
    w = _parse_curve(args.curve)
    try:
        cert = kramer_sha2_bound(w, args.disc)
    except ValueError as exc:
        raise Refusal(str(exc)) from None
    _emit(cert.as_dict())
    return 0


def cmd_descent3(args):
    try:
        cert = sha3_criterion(args.a, args.disc)
    except (HypothesisFailure, SingularParameterError) as exc:
        raise Refusal(str(exc)) from None
    _emit(cert.as_dict())
    return 0


def _parse_ranges(spec: str, arity: int) -> list[range]:
    try:
        out = [range(int(lo), int(hi) + 1) for lo, hi in (dim.split(":") for dim in spec.split(","))]
    except ValueError:
        raise Refusal(f"--params-range {spec!r} must be lo:hi[,lo:hi] with integer bounds") from None
    if len(out) != arity:
        raise Refusal(f"--params-range {spec!r} gives {len(out)} ranges, the family takes {arity} parameters")
    return out


def cmd_sweep(args):
    maker = _POINT_MAKERS[args.family]
    ranges = _parse_ranges(args.params_range, len(inspect.signature(maker).parameters))
    if args.limit < 0:
        raise Refusal(f"--limit {args.limit} is below 0")
    count = 0
    for params in itertools.product(*ranges):
        if args.limit and count >= args.limit:
            break
        try:
            fp = maker(*params)
        except SingularParameterError:
            print(json.dumps({"family": args.family, "params": list(params), "status": "singular"}))
            count += 1
            continue
        except ValueError:
            continue
        w = build_curve(fp)
        gd = global_data(w)
        tg = torsion_subgroup(w)
        print(
            json.dumps(
                {
                    "family": args.family,
                    "params": list(fp.params),
                    "conductor": gd.conductor,
                    "tamagawa": gd.tamagawa_product,
                    "torsion": list(tg.structure),
                    "status": "ok",
                }
            )
        )
        count += 1
    return 0


def cmd_verify_paper(args):
    opts = {}
    if args.bound is not None:
        if args.bound < 1:
            raise Refusal(f"--bound {args.bound} is below 1")
        if "bound" not in verify_mod.section_options(args.section):
            raise Refusal(f"section {args.section} takes no --bound")
        opts["bound"] = args.bound
    rep = verify_mod.verify_section(args.section, **opts)
    rep.dump_jsonl(sys.stdout)
    return 0 if rep.failed == 0 else 1


def cmd_audit(args):
    w = _parse_curve(args.curve)
    try:
        cert = main_theorem_audit(w, args.disc)
    except InadmissibleField as exc:
        raise Refusal(str(exc)) from None
    except OutOfScopeTorsion as exc:
        _emit({"curve": args.curve, "out_of_scope": str(exc)})
        return 1
    _emit(cert.as_dict())
    return 0 if cert.holds else 1


def cmd_ingest(args):
    path = args.path or os.environ.get("ECDESCENT_CREMONA")
    if not path:
        raise Refusal("no curve table given (use --path or ECDESCENT_CREMONA)")
    try:
        table = ingest_cremona(path, validate=not args.no_validate)
    except OSError as exc:
        raise Refusal(f"curve table {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise Refusal(f"curve table {path!r}: {exc}") from None
    for label in sorted(table):
        print(render_allcurves_line(table[label]))
    print(json.dumps({"rows": len(table), "validated": not args.no_validate}), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ecdescent", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tate", help="local reduction data")
    p.add_argument("--curve", required=True)
    p.add_argument("--prime", type=int, default=None)
    p.set_defaults(func=cmd_tate)

    p = sub.add_parser("torsion", help="exact rational torsion subgroup")
    p.add_argument("--curve", required=True)
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("isogeny", help="quotient by a rational torsion point")
    p.add_argument("--curve", required=True)
    p.add_argument("--kernel", required=True, help="x,y of a 2- or 3-torsion point")
    p.set_defaults(func=cmd_isogeny)

    p = sub.add_parser("chain", help="3-isogeny quotient chain from y^2+axy+y=x^3")
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("descent", help="Sha[2] lower-bound certificate")
    p.add_argument("--curve", required=True, help="A,B for y^2 = x^3+Ax^2+Bx")
    p.add_argument("--disc", type=int, required=True)
    p.set_defaults(func=cmd_descent)

    p = sub.add_parser("descent3", help="Sha[3] certificate for y^2+axy+y=x^3")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--disc", type=int, required=True)
    p.set_defaults(func=cmd_descent3)

    p = sub.add_parser("sweep", help="family sweep, one JSON line per parameter point")
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--params-range", required=True, help="lo:hi[,lo:hi] per parameter")
    p.add_argument("--limit", type=int, default=0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify-paper", help="re-derive one section's golden tables")
    p.add_argument("--section", type=int, choices=[3, 4, 5, 6, 8, 9], required=True)
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("audit", help="end-to-end divisibility certificate")
    p.add_argument("--curve", required=True)
    p.add_argument("--disc", type=int, default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("ingest", help="parse and validate an allcurves table")
    p.add_argument("--path", default=None)
    p.add_argument("--no-validate", action="store_true")
    p.set_defaults(func=cmd_ingest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (Refusal, FactoringBudgetExceeded) as exc:
        _emit({"command": args.command, "refused": str(exc)})
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
