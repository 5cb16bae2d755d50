"""The span tracer of perfbench/tracing.py still times live code.

The tracer wraps irrepsk names by attribute: a wrapped name that is gone
fails at install, and one that still exists but that nothing calls any more
reads 0 calls in every traced run.  This runs one traced compile and checks
that each layer the benchmark reports is timed, inside the stage it belongs
to.
"""

import types
from pathlib import Path

import numpy as np

import irrepsk
from irrepsk import base_params, build_gateset_net
from irrepsk.skbase import rotation

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# skbase.rewrite is wrapped too but known to be dead: the irrep rewrite is
# gone (ROADMAP item 2)
LIVE_SPANS = ("refine.compile_target", "skbase.sk_compile", "net.nearest", "skbase.commutator",
              "refine.inverse", "gateset.fold")


def load_tracing() -> types.ModuleType:
    """perfbench/tracing.py as a module, compiled from its source so that no
    bytecode is written beside it."""
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def _ancestors(spans, span):
    """Names of the spans enclosing span, innermost first."""
    names = []
    while span[3] >= 0:
        span = spans[span[3]]
        names.append(span[0])
    return names


def test_traced_compile_times_every_live_layer(ht_gateset):
    params = base_params(ht_gateset, 8)
    refine_net = build_gateset_net(ht_gateset, 6)
    target = rotation(np.array([0.0, 0.0, 1.0]), 0.7)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        report = irrepsk.compile_target(ht_gateset, target, 1e-2, params, refine_net)
    finally:
        tracer.remove()
    assert report.error <= 1e-2
    spans = tracer.spans
    names = {span[0] for span in spans}
    assert set(LIVE_SPANS) <= names, sorted(set(LIVE_SPANS) - names)
    # the base stage is one span under the compile, every refined inverse is
    # taken inside it, and the verification fold is the one fold that
    # compile_target makes itself
    parents = {name: [_ancestors(spans, s)[:1] for s in spans if s[0] == name]
               for name in ("skbase.sk_compile", "gateset.fold")}
    assert parents["skbase.sk_compile"] == [["refine.compile_target"]]
    assert parents["gateset.fold"].count(["refine.compile_target"]) == 1
    assert all("skbase.sk_compile" in _ancestors(spans, s) for s in spans
               if s[0] == "refine.inverse")
