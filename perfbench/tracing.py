"""Span tracing around the public calls of each irrepsk layer.

The wrappers are installed from here by patching module attributes, so the
program itself carries no tracing code and an untraced run has no wrappers
at all.  Spans are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

import irrepsk
import irrepsk.net
import irrepsk.refine
import irrepsk.skbase

# (owner, attribute, span name, items counted per call).  compile_target is
# patched on the package, which is where the benchmark calls it; the rest
# where their callers in irrepsk look them up.
WRAPS = [
    (irrepsk, "compile_target", "refine.compile_target", None),
    (irrepsk.net, "build_net", "net.build", None),
    (irrepsk.net.EpsNet, "nearest", "net.nearest", None),
    (irrepsk.refine, "sk_compile", "skbase.sk_compile", None),
    (irrepsk.skbase, "balanced_commutator_decompose", "skbase.commutator", None),
    (irrepsk.refine, "rewrite_irrep_inverses", "skbase.rewrite",
     lambda args: len(args[1].tokens)),
    (irrepsk.refine, "refine_inverse", "refine.inverse", None),
    (irrepsk.refine, "make_word", "gateset.fold", lambda args: len(args[1])),
]


class Tracer:
    """Records (name, start_ns, end_ns, parent, op, items) for each call."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.op: int | str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name, items in WRAPS:
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(orig, name, items))
            self._undo.append((owner, attr, orig))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, fn, name, items):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                n = items(args) if items else 1
                spans[sid] = (name, t0, t1, parent, self.op, n)

        return wrapper

    def self_times(self) -> list[int]:
        """Duration of each span minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def per_op(self) -> dict:
        """op -> span name -> [calls, self ns, items]."""
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
        for s, own in zip(self.spans, self.self_times()):
            acc = out[s[4]][s[0]]
            acc[0] += 1
            acc[1] += own
            acc[2] += s[5]
        return out

    def write(self, path) -> None:
        cols = ["name", "start_ns", "end_ns", "parent", "op", "items"]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"columns": cols, "spans": self.spans}, f)
