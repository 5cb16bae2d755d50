"""Compile benchmark for irrepsk: one caller, a closed loop of compile_target.

Run from the repository root, with BLAS/OpenMP pinned to one thread:

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/run.py --workload compile_deep --seed 1 \\
        --seconds 8 --trace 0

Each operation compiles one seeded Haar-random SU(2) target.  A round is the
workload's fixed target list; after one warm-up call the run repeats whole
rounds until --seconds have passed and at least MIN_OPS operations ran.  Every
distinct output is then checked independently (check.py).  The last stdout
line is a JSON object: end-to-end metrics with --trace 0, per-layer metrics
from span tracing (tracing.py) with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

try:
    import irrepsk  # noqa: E402
except ImportError as e:
    sys.exit(f"perfbench: cannot import irrepsk from {ROOT / 'src'}: {e}")

from check import (CheckFailed, check_length_identity, check_refinement,  # noqa: E402
                   check_word, gate_matrices)

SETUPS = 3
MIN_OPS = 40
TAIL_BEYOND = 10
REFINE_LENGTH = 6  # forward refinement net word length, the same everywhere


@dataclass(frozen=True)
class Workload:
    gateset: str        # relative to the repository root
    base_length: int    # inverse-closed base net word length
    eps: float
    targets: int        # distinct targets per round


# Each eps / 2, the SK stage's target, sits just above the largest SK error
# seen at the workload's majority recursion depth (over 150-400 probe
# targets).  A target that needs one level more emits a word about 5x longer,
# so a rare one would dominate the mean word length of a run.  Operations take
# 200-450 ms: with 20 ms operations, CPU stalls of a few tens of ms on a shared
# machine decided the tail percentile.
WORKLOADS = {
    "compile_deep": Workload("gatesets/pauli_ht.json", 12, 1e-4, 40),
    "compile_bignet": Workload("gatesets/pauli_ht.json", 20, 6e-5, 50),
    "compile_skewed": Workload("perfbench/gatesets/pauli_ht_tprime.json", 12, 3e-3, 120),
}


def haar_targets(seed: int, count: int) -> list[np.ndarray]:
    """Haar-random SU(2) matrices from normalized Gaussian quaternions."""
    q = np.random.default_rng(seed).normal(size=(count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return [np.array([[w + 1j * z, y + 1j * x], [-y + 1j * x, w - 1j * z]])
            for w, x, y, z in q]


class SpeedScale:
    """Rescales measured times to a reference CPU speed.

    On a shared 2-CPU virtual machine the effective CPU speed drifted by
    10-15 % within seconds and by up to a third between runs; process CPU
    time drifted the same way, so the loss is a slower CPU, not time taken by
    other processes.  A fixed calibration job runs after every stretch of at
    most EVERY_S of measured work, and a time t is reported as
    t * REFERENCE_S / (median of the WINDOW calibrations on each side of it).
    The job is made of the kinds of work that dominate compile_target:
    Python loops over 2x2 complex products and 2x2 SVDs.  A memory-bound job
    tracked compile times worse, and a shorter, more frequent one or a
    narrower window made the scaled tail noisier.
    """

    REFERENCE_S = 0.0054  # median calibration time on that machine
    EVERY_S = 0.25
    WINDOW = 3

    def __init__(self):
        self._chain = np.stack(haar_targets(0, 600))
        self.calibrations: list[float] = []
        self.calibrate()

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        m = np.eye(2, dtype=complex)
        for a in self._chain:
            m = m @ a
        for a in self._chain[:150]:
            np.linalg.svd(a - m, compute_uv=False)
        acc = 0
        for i in range(15000):
            acc += i * i
        self._since = time.perf_counter()
        self.calibrations.append(self._since - t0)

    def tick(self) -> int:
        """Call after each measurement; returns its mark, the number of
        calibrations before it, and calibrates if EVERY_S has passed."""
        mark = len(self.calibrations)
        if time.perf_counter() - self._since >= self.EVERY_S:
            self.calibrate()
        return mark

    def scaled(self, times: list[float], marks: list[int]) -> list[float]:
        out = []
        for t, mark in zip(times, marks):
            near = self.calibrations[max(0, mark - self.WINDOW):mark + self.WINDOW]
            out.append(t * self.REFERENCE_S / statistics.median(near))
        return out


def set_up(wl: Workload, scale: SpeedScale, tracer):
    """Parse the gate set and build both nets SETUPS times.  Returns the
    seconds and scale marks of each set-up, and the objects of the last one."""
    times, marks = [], []
    gs = params = refine_net = None
    for k in range(SETUPS):
        if tracer:
            tracer.op = f"setup{k}"
        gs = params = refine_net = None
        t0 = time.perf_counter()
        gs = irrepsk.load_gateset(ROOT / wl.gateset)
        params = irrepsk.base_params(gs, wl.base_length)
        refine_net = irrepsk.build_gateset_net(gs, REFINE_LENGTH)
        times.append(time.perf_counter() - t0)
        marks.append(scale.tick())
    return times, marks, gs, params, refine_net


def timed_loop(wl: Workload, gs, params, refine_net, targets, seconds, scale, tracer):
    """Closed loop over whole rounds.  Returns the ids, latencies and scale
    marks of completed operations, first-round reports, attempted, failed,
    and outputs that differed from round one."""
    if tracer:
        tracer.op = "warmup"
    irrepsk.compile_target(gs, targets[0], wl.eps, params, refine_net)
    scale.calibrate()
    done, times, marks, first = [], [], [], {}
    attempted = failed = differed = 0
    start = time.perf_counter()
    while True:
        for k, u in enumerate(targets[1:]):
            if tracer:
                tracer.op = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                rep = irrepsk.compile_target(gs, u, wl.eps, params, refine_net)
            except irrepsk.CompilerError:
                failed += 1
                continue
            times.append(time.perf_counter() - t0)
            marks.append(scale.tick())
            done.append(attempted - 1)
            if k not in first:
                first[k] = rep
            elif rep.indices != first[k].indices:
                differed += 1
        if time.perf_counter() - start >= seconds and attempted >= MIN_OPS:
            scale.calibrate()
            return done, times, marks, first, attempted, failed, differed


def check_outputs(wl: Workload, gs, first: dict, targets) -> list[str]:
    """Independent checks on every distinct output; returns the failures."""
    doc = json.loads((ROOT / wl.gateset).read_text(encoding="utf-8"))
    names, mats = gate_matrices(doc)
    # with equal name lists, the program's indices are positions in mats
    if list(gs.names) != names:
        return [f"generator order {gs.names} differs from the file's {names}"]
    problems = []
    for k, rep in sorted(first.items()):
        try:
            check_word(rep.indices, mats, targets[k + 1], wl.eps, rep.error)
            check_length_identity(rep.length, rep.base_length, rep.inverted_extras,
                                  rep.refine_lengths)
            for i, tr in rep.refine_traces.items():
                if not tr.exact_hit:
                    check_refinement(tr.errors, tr.lengths, rep.refine_lengths[i],
                                     gs.rep.order)
        except CheckFailed as e:
            problems.append(f"target {k}: {e}")
    # the checks must reject a word with one gate changed
    if first:
        k, rep = min(first.items())
        word = list(rep.indices)
        pos = len(word) // 2
        word[pos] = (word[pos] + 1) % len(names)
        try:
            check_word(word, mats, targets[k + 1], wl.eps, rep.error)
            problems.append("a word with one gate changed passed the checks")
        except CheckFailed:
            pass
    return problems


def end_to_end(latencies, first, setups) -> dict:
    """Times are medians, the tail percentile, and operations per second of
    compile time, over one run's (speed-scaled) measurements."""
    lat = sorted(latencies)
    lengths = [rep.length for rep in first.values()]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_ms_p50": (1e3 * statistics.median(lat), "ms"),
        # highest percentile with TAIL_BEYOND operations beyond it
        "latency_ms_tail": (1e3 * lat[len(lat) - TAIL_BEYOND - 1], "ms"),
        "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
        "word_length_mean": (statistics.fmean(lengths), "gates"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, op_scale: dict, setup_scale: list, scaled, first,
              params, refine_net) -> dict:
    """Per-operation layer figures.  Counts are means over operations; times
    are medians over operations of summed span self times, speed-scaled by
    the factor of their operation (or set-up), so that the *_ms figures of
    one operation add up to its traced latency."""
    by_op = tracer.per_op()
    ops = [(by_op[op], k) for op, k in op_scale.items()]
    setups = [(by_op[f"setup{i}"], k) for i, k in enumerate(setup_scale)]
    reports = list(first.values())

    def count(name, field=0):
        return statistics.fmean(op[name][field] if name in op else 0 for op, _ in ops)

    def ms(name):
        return 1e-6 * statistics.median(k * op[name][1] if name in op else 0
                                        for op, k in ops)

    def from_reports(f):
        return statistics.fmean(f(rep) for rep in reports)

    def passes(rep):
        return sum(len(tr.errors) - 1 for tr in rep.refine_traces.values()
                   if not tr.exact_hit)

    return {
        "net.build_s": (1e-9 * statistics.median(k * s["net.build"][1] for s, k in setups),
                        "s"),
        "net.words": (len(params.net) + len(refine_net), "count"),
        "net.nearest_calls": (count("net.nearest"), "count"),
        "net.nearest_ms": (ms("net.nearest"), "ms"),
        "skbase.sk_compile_ms": (ms("skbase.sk_compile"), "ms"),
        "skbase.commutator_calls": (count("skbase.commutator"), "count"),
        "skbase.commutator_ms": (ms("skbase.commutator"), "ms"),
        "skbase.rewrite_ms": (ms("skbase.rewrite"), "ms"),
        "skbase.base_length": (from_reports(lambda r: r.base_length), "gates"),
        "refine.inverse_calls": (count("refine.inverse"), "count"),
        "refine.inverse_ms": (ms("refine.inverse"), "ms"),
        "refine.passes": (from_reports(passes), "count"),
        "refine.inverse_length": (from_reports(lambda r: sum(r.refine_lengths.values())),
                                  "gates"),
        "refine.inverted_extras": (from_reports(lambda r: r.inverted_extras), "count"),
        "refine.assemble_ms": (ms("refine.compile_target"), "ms"),
        "gateset.fold_tokens": (count("gateset.fold", 2), "count"),
        "gateset.fold_ms": (ms("gateset.fold"), "ms"),
        "trace.latency_ms_p50": (1e3 * statistics.median(scaled), "ms"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    targets = haar_targets(args.seed, wl.targets + 1)  # [0] is the warm-up

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    scale = SpeedScale()
    try:
        setup_raw, setup_marks, gs, params, refine_net = set_up(wl, scale, tracer)
        done, raw, marks, first, attempted, failed, differed = timed_loop(
            wl, gs, params, refine_net, targets, args.seconds, scale, tracer)
    finally:
        if tracer:
            tracer.remove()
    setup_scaled = scale.scaled(setup_raw, setup_marks)
    scaled = scale.scaled(raw, marks)

    problems = check_outputs(wl, gs, first, targets)
    if differed:
        problems.append(f"{differed} repeated targets compiled to a different word")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    if tracer:
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.json")
        op_scale = {op: sc / r for op, r, sc in zip(done, raw, scaled)}
        setup_scale = [sc / r for r, sc in zip(setup_raw, setup_scaled)]
        metrics = per_layer(tracer, op_scale, setup_scale, scaled, first,
                            params, refine_net)
    else:
        metrics = end_to_end(scaled, first, setup_scaled)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(raw)} ops, unscaled "
          f"p50 {1e3 * statistics.median(raw):.2f} ms, set-up "
          f"{statistics.median(setup_raw):.3f} s; calibration median "
          f"{1e3 * statistics.median(scale.calibrations):.3f} ms "
          f"(reference {1e3 * SpeedScale.REFERENCE_S:.3f})", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
