"""Per-layer tracing of the library from the benchmark's own files.

The layers are the ecdescent modules.  `Tracer.install` replaces every
binding of each listed function in every loaded ecdescent module with a
wrapper, so calls made through `from .x import f` are seen too, and
`uninstall` puts the originals back.  A wrapper records one span per
call: name, start, end, the span that caused it and the operation it
belongs to.  Spans stay in memory until `write_spans`.  Self time is a
span's duration minus the time covered by its wrapped children, kept with
a span stack, so self times never add up to more than the traced time.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

#: Traced functions by module; a dotted name is a property of a class.
LAYERS = {
    "arith": ("factorize", "is_prime", "hilbert_symbol", "local_square_rep"),
    "polyutil": ("rational_roots", "fp_roots"),
    "weierstrass": ("change_variables", "integral_model", "WeierstrassModel.discriminant"),
    "tate": ("local_reduction", "global_data", "model_from_c4c6"),
    "families": ("build_curve", "torsion_subgroup", "division_poly"),
    "isogeny": ("three_isogeny_chain", "hadano_quotient", "velu_2_isogeny", "velu_3_isogeny"),
    "descent2": ("local_image", "heegner_field_scan", "phi_selmer", "everywhere_local_norm_dim", "kramer_sha2_bound"),
    "descent3": ("cassels_ledger", "sha3_criterion"),
    "audit": ("main_theorem_audit",),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

#: Calls on a model already seen in the same operation are wasted work.
REPEAT_KEYED = ("tate.global_data", "families.torsion_subgroup")
#: Functions whose structured refusals are counted.
RAISED = ("descent2.kramer_sha2_bound", "descent3.sha3_criterion", "audit.main_theorem_audit")

#: Spans kept for `write_spans`; counting goes on past the cap.
SPAN_CAP = 200_000


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in output order."""
    names = [f"{n}.{kind}" for n in NAMES for kind in ("calls", "self_s")]
    names += [f"{n}.repeat_frac" for n in REPEAT_KEYED]
    names += [f"{n}.raised" for n in RAISED]
    return names + ["trace_overhead_frac"]


def unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/op"
    return "frac" if name.endswith("_frac") else "calls/op"


class Tracer:
    def __init__(self):
        self.calls = [0] * len(NAMES)
        self.self_ns = [0] * len(NAMES)
        self.raised = [0] * len(NAMES)
        self.repeats = [0] * len(NAMES)
        self.spans = {col: array("q") for col in ("op", "span", "parent", "name", "start", "end")}
        self.dropped = 0
        self._op = 0
        self._next_span = 0
        self._stack: list[list[int]] = []  # [span id, child ns] per open call
        self._seen: dict[int, set] = {}
        self._bindings = self._find_bindings()

    # -- installation ------------------------------------------------------

    def _find_bindings(self) -> list[tuple]:
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "ecdescent"]
        bindings = []
        for idx, name in enumerate(NAMES):
            mod_name, attr = name.split(".", 1)
            home = sys.modules[f"ecdescent.{mod_name}"]
            if "." in attr:
                cls_name, prop = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[prop]
                wrapped = property(self._wrap(idx, original.fget))
                bindings.append((cls, prop, original, wrapped))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(idx, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        bindings.append((mod, key, original, wrapped))
        return bindings

    def install(self) -> None:
        for owner, key, _, wrapped in self._bindings:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._bindings:
            setattr(owner, key, original)

    def begin_op(self) -> None:
        """Start a new operation: spans and repeat counts are per operation."""
        self._op += 1
        self._seen.clear()

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, idx: int, fn):
        keyed = NAMES[idx] in REPEAT_KEYED
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keyed:
                seen = self._seen.setdefault(idx, set())
                if args[0] in seen:
                    self.repeats[idx] += 1
                seen.add(args[0])
            span = self._next_span
            self._next_span += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self.calls[idx] += 1
                self.self_ns[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans["op"]) < SPAN_CAP:
                    for col, value in zip(spans.values(), (self._op, span, parent, idx, start, end)):
                        col.append(value)
                else:
                    self.dropped += 1

        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self, ops: int, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics, counts and times per operation."""
        out = {}
        for idx, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[idx] / ops
            out[f"{name}.self_s"] = self.self_ns[idx] / 1e9 / ops
        for name in REPEAT_KEYED:
            idx = NAMES.index(name)
            out[f"{name}.repeat_frac"] = self.repeats[idx] / self.calls[idx] if self.calls[idx] else 0.0
        for name in RAISED:
            out[f"{name}.raised"] = self.raised[NAMES.index(name)] / ops
        out["trace_overhead_frac"] = traced_s / untraced_s - 1
        return out

    def write_spans(self, path: str) -> None:
        """Write the kept spans as gzipped CSV, one row per call."""
        cols = list(self.spans.values())
        with gzip.open(path, "wt") as fh:
            fh.write(f"# spans kept {len(cols[0])}, dropped past the cap {self.dropped}\n")
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for row in zip(*cols):
                fh.write(f"{row[0]},{row[1]},{row[2]},{NAMES[row[3]]},{row[4]},{row[5]}\n")
