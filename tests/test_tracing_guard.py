"""The benchmark's per-layer tracer still finds every layer it names.

`bench/tracing.py` rebinds functions and one property of the library by
name, so renaming or reshaping one of them breaks `bench/run.py --trace 1`.
This test only reads `bench/`.
"""

from __future__ import annotations

import os
import sys

import ecdescent  # noqa: F401  (loads every module the tracer scans)
from ecdescent import tate
from ecdescent.weierstrass import WeierstrassModel

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import tracing  # noqa: E402


def _current(name: str):
    mod_name, attr = name.split(".", 1)
    home = sys.modules[f"ecdescent.{mod_name}"]
    if "." in attr:
        cls_name, prop = attr.split(".")
        return vars(getattr(home, cls_name))[prop]
    return getattr(home, attr)


def test_every_traced_name_binds():
    assert isinstance(vars(WeierstrassModel)["discriminant"], property)
    originals = {name: _current(name) for name in tracing.NAMES}
    tracer = tracing.Tracer()
    tracer.begin_op()
    tracer.install()
    try:
        rebound = [name for name in tracing.NAMES if _current(name) is not originals[name]]
        # through the module, since the tracer rebinds only library modules;
        # global_data reads integer invariants, so the property is read apart
        w = WeierstrassModel.from_ainvs([0, -1, 1, -10, -20])
        tate.global_data(w)
        assert not w.is_singular
    finally:
        tracer.uninstall()
    assert rebound == list(tracing.NAMES)
    assert all(_current(name) is originals[name] for name in tracing.NAMES)
    for name in ("tate.global_data", "weierstrass.WeierstrassModel.discriminant"):
        assert tracer.calls[tracing.NAMES.index(name)] > 0
