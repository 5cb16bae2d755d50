"""Benchmark a change against its parent commit and write a BENCH_*.json.

Run from the repository root, with a checkout of the parent commit beside
it, for example:

    git archive PARENT | tar -x -C ../parent
    python3 scripts/bench_rotation_search.py --parent ../parent \
        --first-seed 81 --out BENCH_near_miss.json

The defaults (--first-seed 21, --out BENCH_rotation_search.json) regenerate
the rotation search's record against commit 20c499e.  RECORDS describes the
change each output file measures; --out must name one of them.

It writes three parts.  "runs" and "summary": --pairs alternating pairs of
perfbench/run.py runs per workload (pair k uses seed --first-seed + k - 1;
odd pairs run the parent first), each in a fresh process from its own
checkout with BLAS pinned to one thread.  "traced": one traced run (per-layer
metrics) per workload and side, at --first-seed for 4 s.  "sweep": on pauli_ht and
pauli_ht_tprime (base net length 12, refine net length 6, 10 seeded Haar
targets), each side compiles every target at eps = 1e-2 ... 1e-7, in a fresh
process importing its own checkout's package.  The sides run twice per gate
set in ABBA order (the first side alternates between gate sets), so which
side runs first weighs on both alike; a side whose two runs disagree on any
length or depth stops the script.  Per eps the file records the mean output
length, the mean time per target of each run (the median of three timings
of each target, after one warm-up compile) and their mean, the depth
histogram, and how many outputs are longer than the parent's.

--sweep-side CHECKOUT GATESET runs one side alone and prints its JSON: per
eps, one [length, depth, seconds] row per target.

Records named in BUILDS also get "builds": the build times of a few nets,
with both checkouts' packages imported in one fresh process (--builds).
Records named in STACKS also get "stack": the time of one nearest call on a
Haar stack against one call per row of it, in the same way (--stack).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compile_deep", "compile_bignet", "compile_skewed")
METRICS = {"setup_s": "lower", "latency_ms_p50": "lower", "latency_ms_tail": "lower",
           "throughput_ops_s": "higher", "word_length_mean": "lower",
           "peak_rss_mb": "lower"}
SWEEP_GATESETS = {"pauli_ht": "gatesets/pauli_ht.json",
                  "pauli_ht_tprime": "perfbench/gatesets/pauli_ht_tprime.json"}
SWEEP_EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
SWEEP_TARGETS, SWEEP_SEED, SWEEP_REPEATS = 10, 7, 3
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the change each output file records, against the parent it was run with
RECORDS = {
    "BENCH_rotation_search.json":
        "each SK depth searches K = 16 exact commutator decompositions of its "
        "top-level delta (both factors conjugated by rotations about delta's "
        "axis) in one stack and keeps the closest word; after a near miss (the "
        "previous depth within 1.5 eps) it tries the plain pair first",
    "BENCH_near_miss.json":
        "a depth rejected within 1.5 eps is searched again at the K = 16 "
        "midpoint rotations, pi (2j + 1) / 16, from the same depth - 1 word, "
        "and yielded again when that finds a closer word, before the next "
        "depth is tried",
    "BENCH_free_reduce.json":
        "the gathered SK base word is freely reduced (every adjacent g g^-1 "
        "cancelled, cascading) before the irrep rewrite and the substitution "
        "of refined inverses, and the search scores its candidates in closed "
        "form (|q - q_target|) with an explicit tie rule (within 1e-12 of the "
        "best, fewest gross tokens, then lowest r)",
    "BENCH_sign_free.json":
        "SU(2) nets store each rotation once, up to sign (the builder drops a "
        "candidate within tol of a stored product's negation too), and answer "
        "queries up to sign from one k-d tree over the stored quaternions and "
        "their negations; the base alphabet adds only the inverses that no "
        "generator gives up to a phase (7 letters, not 11, on both Pauli sets), "
        "so the irrep rewrite is gone",
    "BENCH_quaternion_sk.json":
        "the SK stage computes in unit quaternions end to end (one Hamilton "
        "product, linalg.qmul; EpsNet.signed reads the query tree's rows, so "
        "the per-net table of signed 2x2 products is gone), and the "
        "refinement seed is one scan of the net's products in every mode; "
        "claims no gain",
    "BENCH_call_overhead.json":
        "each SK recursion step costs what its kernels need: the commutator "
        "decomposition reads its factor axes from index tables over the "
        "products r_i r_j and fills preallocated stacks, and the compile path "
        "calls array methods and ufuncs in place of numpy's Python-level "
        "helpers (flatnonzero, moveaxis, broadcast_to, linalg.norm, the "
        "function forms of repeat and cumsum); every word is unchanged",
    "BENCH_net_record_retired.json":
        "the net builder no longer keeps a record of each stored row's cell "
        "hash: every duplicate group's first member is measured against the "
        "stored rows by a k-d tree query, the path the record only short-cut; "
        "every net, word and saved net file is byte-identical; claims no gain",
    "BENCH_near_identity_scan.json":
        "EpsNet.nearest answers a stack of rows near the identity, as the SK "
        "recursion's commutator factors are, by one dot-product scan of the "
        "512 tree rows nearest I, and leaves ties and any other stack to the "
        "k-d tree; every word, sign and distance bit is unchanged",
    "BENCH_net_pairs.json":
        "the net builder finds its near pairs with array queries: one bounded "
        "k-nearest query for the rows that have a neighbour, asked again at a "
        "wider k only where the k-th is still within r, the same for the "
        "negations of the rows near the equator, and the pairs put in order by "
        "one np.unique of i n + j keys, not a ball query per row and a sorted "
        "Python set; EpsNet.nearest sends a stack whose lowest w puts it past "
        "the SCAN-th row to the tree without measuring its radius; every net "
        "is byte-identical",
    "BENCH_one_scan.json":
        "EpsNet.nearest is one dot-product scan of a lookup array, the stored "
        "quaternions and their negations sorted by distance to I, over the "
        "rows within 2 r + 2 TIE of I (all of them for a stack far from I), "
        "with ties settled by an exact qdist pass; the lookup's k-d tree, the "
        "SCAN cap and the 2 - 2 w pre-filter are gone; every word, sign and "
        "distance bit is unchanged; claims no gain",
    "BENCH_annulus.json":
        "EpsNet.nearest scans a shell of its lookup array, the rows whose "
        "distance to I is within h + 2 TIE of a target's (and within its "
        "reach), h the largest distance the net's lookups have returned, and "
        "scans a target past h again within its first distance; a stack too "
        "large for one block is sorted by distance to I and cut into runs; "
        "the lookup holds its quaternions as one (4, 2N) array; every word, "
        "sign and distance bit is unchanged",
}
# --out files that also record "sample": SAMPLE_TARGETS targets of one gate
# set at the small eps of the sweep, one compile per target and side, with
# the counts of targets that end longer, shorter, deeper or shallower
SAMPLES = {"BENCH_sign_free.json": ("pauli_ht_tprime", (1e-5, 1e-6, 1e-7))}
SAMPLE_TARGETS, SAMPLE_SEED = 30, 11
# --out files that also record "builds": per net (gate set, word length, with
# inverses), BUILD_PAIRS pairs of builds in one process that imports both
# checkouts' packages (the parent's as irrepsk_parent), after one warm-up
# build per side; pair k builds with the parent first when k is odd
BUILDS = {"BENCH_net_record_retired.json": (("pauli_ht", 20, True),
                                            ("pauli_ht_tprime", 12, True),
                                            ("pauli_ht", 12, True),
                                            ("pauli_ht_tprime", 6, False)),
          "BENCH_one_scan.json": (("pauli_ht", 20, True),
                                  ("pauli_ht_tprime", 12, True),
                                  ("pauli_ht", 12, True)),
          "BENCH_annulus.json": (("pauli_ht", 20, True),
                                 ("pauli_ht_tprime", 12, True),
                                 ("pauli_ht", 12, True)),
          "BENCH_net_pairs.json": (("pauli_ht_tprime", 12, True),
                                   ("pauli_ht_tprime", 14, True),
                                   ("pauli_ht", 20, True),
                                   ("pauli_ht", 12, True))}
BUILD_PAIRS = 20
# --out files that also record "stack": per side, in one process that imports
# both checkouts' packages, the time of one nearest call on a (STACK_ROWS, 4)
# Haar stack and of STACK_ROWS one-row calls on the same rows, on a base net
# (gate set, word length) that first answered a STACK_WARM-row Haar stack, the
# best and the median of STACK_REPEATS interleaved timings
STACKS = {"BENCH_annulus.json": ("pauli_ht", 20)}
STACK_ROWS, STACK_WARM, STACK_REPEATS, STACK_SEED = 40, 2000, 15, 5


def perfbench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int = 0) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, check=True,
        capture_output=True, text=True, env={**os.environ, **ONE_THREAD})
    run = json.loads(out.stdout.splitlines()[-1])
    return {"correct": run["correct"], "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {k: v["value"] for k, v in run["metrics"].items()}}


def quartiles(xs: list[float]) -> list[float]:
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs: list[dict]) -> dict:
    summary = {"note": "medians and quartiles over the pairs; change_wins counts "
                       "pairs in which the change reads better (lower, or higher "
                       "for throughput_ops_s); ties count for neither"}
    for wl in WORKLOADS:
        summary[wl] = {}
        pairs = sorted({r["pair"] for r in runs if r["workload"] == wl})
        side = {(r["pair"], r["side"]): r["metrics"] for r in runs if r["workload"] == wl}
        for name, better in METRICS.items():
            p = [side[k, "parent"][name] for k in pairs]
            c = [side[k, "change"][name] for k in pairs]
            sign = 1 if better == "lower" else -1
            summary[wl][name] = {
                "parent_median": statistics.median(p), "parent_q1_q3": quartiles(p),
                "change_median": statistics.median(c), "change_q1_q3": quartiles(c),
                "ratio": statistics.median(c) / statistics.median(p),
                "change_wins": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
                "ties": sum(a == b for a, b in zip(p, c)), "pairs": len(pairs)}
    return summary


def sweep_side(checkout: Path, gateset: str, eps_list=SWEEP_EPS, count=SWEEP_TARGETS,
               seed=SWEEP_SEED, repeats=SWEEP_REPEATS) -> dict:
    """Compile count seeded targets at every eps of eps_list with checkout's
    package, in this process: per eps, per target (length, depth, seconds),
    seconds the median of repeats timings after one warm-up compile."""
    sys.path.insert(0, str(checkout / "src"))
    import numpy as np
    import irrepsk
    from irrepsk.linalg import random_su

    gs = irrepsk.load_gateset(ROOT / gateset)
    params = irrepsk.base_params(gs, 12)
    refine_net = irrepsk.build_gateset_net(gs, 6)
    rng = np.random.default_rng(seed)
    targets = [random_su(2, rng) for _ in range(count + 1)]  # [0] warms up
    out = {}
    for eps in eps_list:
        irrepsk.compile_target(gs, targets[0], eps, params, refine_net)
        rows = []
        for t in targets[1:]:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                report = irrepsk.compile_target(gs, t, eps, params, refine_net)
                times.append(time.perf_counter() - t0)
            if report.error > eps:
                raise SystemExit(f"{gateset} at eps {eps}: error {report.error:.3e}")
            rows.append((report.length, report.depth, statistics.median(times)))
        out[repr(eps)] = rows
    return out


def sweep(parent: Path) -> dict:
    result = {}
    for i, (name, gateset) in enumerate(SWEEP_GATESETS.items()):
        runs = {"parent": [], "change": []}
        # ABBA, with A alternating from one gate set to the next
        a, b = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in (a, b, b, a):
            checkout = parent if side == "parent" else ROOT
            out = subprocess.run(
                [sys.executable, __file__, "--sweep-side", str(checkout), gateset],
                check=True, capture_output=True, text=True,
                env={**os.environ, **ONE_THREAD})
            runs[side].append(json.loads(out.stdout))
        sides = {}
        for side, (first, second) in runs.items():
            for eps in first:
                if [r[:2] for r in first[eps]] != [r[:2] for r in second[eps]]:
                    raise SystemExit(f"{name} at eps {eps}: the {side} side's two "
                                     "runs disagree on lengths or depths")
            sides[side] = first
        result[name] = {}
        for eps in map(repr, SWEEP_EPS):
            row = {}
            for side in ("parent", "change"):
                lengths, depths, _ = zip(*sides[side][eps])
                ms = [1e3 * statistics.fmean(r[2] for r in run[eps]) for run in runs[side]]
                row[side] = {
                    "length_mean": statistics.fmean(lengths),
                    "ms_per_target_runs": ms,
                    "ms_per_target": statistics.fmean(ms),
                    "depths": {str(d): depths.count(d) for d in sorted(set(depths))}}
            row["length_ratio"] = row["change"]["length_mean"] / row["parent"]["length_mean"]
            row["longer_than_parent"] = sum(
                c[0] > p[0] for c, p in zip(sides["change"][eps], sides["parent"][eps]))
            result[name][eps] = row
    return result


def sample(parent: Path, name: str, eps_list) -> dict:
    """One compile per target of the SAMPLE_TARGETS seeded targets on gate set
    name at each eps of eps_list, per side in a fresh process: per eps, the
    mean lengths and their ratio, and how many targets the change compiles
    longer, shorter, deeper and shallower than the parent."""
    sides = {}
    for side in ("parent", "change"):
        out = subprocess.run(
            [sys.executable, __file__, "--sweep-side", str(parent if side == "parent" else ROOT),
             SWEEP_GATESETS[name], "--sample", *map(repr, eps_list)],
            check=True, capture_output=True, text=True, env={**os.environ, **ONE_THREAD})
        sides[side] = json.loads(out.stdout)
    result = {"gateset": name, "targets": SAMPLE_TARGETS, "seed": SAMPLE_SEED}
    for eps in map(repr, eps_list):
        p, c = sides["parent"][eps], sides["change"][eps]
        mean_p, mean_c = (statistics.fmean(r[0] for r in rows) for rows in (p, c))
        result[eps] = {
            "parent_length_mean": mean_p, "change_length_mean": mean_c,
            "length_ratio": mean_c / mean_p,
            "longer": sum(b[0] > a[0] for a, b in zip(p, c)),
            "shorter": sum(b[0] < a[0] for a, b in zip(p, c)),
            "deeper": sum(b[1] > a[1] for a, b in zip(p, c)),
            "shallower": sum(b[1] < a[1] for a, b in zip(p, c))}
    return result


def both_packages(parent: Path) -> dict:
    """This checkout's package and parent's (as irrepsk_parent), imported
    into this process."""
    sys.path.insert(0, str(ROOT / "src"))
    import irrepsk
    spec = importlib.util.spec_from_file_location(
        "irrepsk_parent", parent / "src" / "irrepsk" / "__init__.py",
        submodule_search_locations=[str(parent / "src" / "irrepsk")])
    sys.modules[spec.name] = irrepsk_parent = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(irrepsk_parent)
    return {"parent": irrepsk_parent, "change": irrepsk}


def builds_side_by_side(parent: Path, nets) -> dict:
    """Time BUILD_PAIRS interleaved builds of each net of nets with this
    checkout's package and parent's, in this process: per net, the seconds
    of each build, the medians, the median and quartiles of the per-pair
    change / parent ratios, and whether the two sides' last nets have the
    same tokens, offsets, parents and product bytes."""
    packages = both_packages(parent)
    out = {}
    for name, length, with_inverses in nets:
        gs = {side: pkg.load_gateset(ROOT / SWEEP_GATESETS[name])
              for side, pkg in packages.items()}

        def build(side):
            t0 = time.perf_counter()
            net = packages[side].build_gateset_net(gs[side], length, with_inverses)
            return net, time.perf_counter() - t0

        built = {side: build(side)[0] for side in packages}  # warm-up
        seconds = {side: [] for side in packages}
        for k in range(1, BUILD_PAIRS + 1):
            for side in (("parent", "change") if k % 2 else ("change", "parent")):
                built[side], t = build(side)
                seconds[side].append(t)
        ratios = [c / p for p, c in zip(seconds["parent"], seconds["change"])]
        out[f"{name} L{length}" + (" with inverses" if with_inverses else "")] = {
            "words": len(built["change"]),
            "identical": all(getattr(built["parent"], a).tobytes()
                             == getattr(built["change"], a).tobytes()
                             for a in ("tokens", "offsets", "parents", "products")),
            "parent_median_s": statistics.median(seconds["parent"]),
            "change_median_s": statistics.median(seconds["change"]),
            "ratio_median": statistics.median(ratios), "ratio_q1_q3": quartiles(ratios),
            "parent_s": seconds["parent"], "change_s": seconds["change"]}
    return out


def stack_side_by_side(parent: Path, name: str, length: int) -> dict:
    """Time, with this checkout's package and parent's in this process, one
    nearest call on a (STACK_ROWS, 4) Haar stack and STACK_ROWS one-row
    calls on its rows, on the base net of gate set name at word length,
    after each net answered a STACK_WARM-row Haar stack: per side and way,
    the best and median milliseconds of STACK_REPEATS interleaved timings,
    the change's stack against the parent's one-row calls, and whether the
    two sides' answers agree bit for bit."""
    import numpy as np
    packages = both_packages(parent)
    nets = {side: pkg.base_params(pkg.load_gateset(ROOT / SWEEP_GATESETS[name]), length).net
            for side, pkg in packages.items()}
    rng = np.random.default_rng(STACK_SEED)
    warm, stack = (rng.normal(size=(k, 4)) for k in (STACK_WARM, STACK_ROWS))
    warm, stack = (q / np.linalg.norm(q, axis=1, keepdims=True) for q in (warm, stack))
    for net in nets.values():
        net.nearest(warm)
    ways = {"stack": lambda net: [net.nearest(stack)],
            "one_row_calls": lambda net: [net.nearest(row[None]) for row in stack]}
    ms = {(side, way): [] for side in nets for way in ways}
    answers = {}
    for k in range(STACK_REPEATS):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            for way, call in ways.items():
                t0 = time.perf_counter()
                answers[side, way] = call(nets[side])
                ms[side, way].append(1e3 * (time.perf_counter() - t0))
    same = all(a.tobytes() == b.tobytes()
               for way in ways for pa, pb in zip(answers["parent", way], answers["change", way])
               for a, b in zip(pa, pb))
    out = {"net": f"{name} L{length} with inverses", "rows": 2 * len(nets["change"]),
           "stack_rows": STACK_ROWS, "warm_rows": STACK_WARM, "seed": STACK_SEED,
           "identical": same}
    for (side, way), times in ms.items():
        out[f"{side}_{way}_ms"] = {"best": min(times), "median": statistics.median(times)}
    out["change_stack_over_parent_one_row_calls"] = (
        min(ms["change", "stack"]) / min(ms["parent", "one_row_calls"]))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--first-seed", type=int, default=21)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_rotation_search.json")
    ap.add_argument("--sweep-side", nargs=2, metavar=("CHECKOUT", "GATESET"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--sample", nargs="+", type=float, metavar="EPS", help=argparse.SUPPRESS)
    ap.add_argument("--builds", metavar="RECORD", help=argparse.SUPPRESS)
    ap.add_argument("--stack", metavar="RECORD", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.sweep_side:
        checkout, gateset = Path(args.sweep_side[0]).resolve(), args.sweep_side[1]
        side = (sweep_side(checkout, gateset, args.sample, SAMPLE_TARGETS, SAMPLE_SEED, 1)
                if args.sample else sweep_side(checkout, gateset))
        print(json.dumps(side))
        return 0
    if args.parent is None:
        ap.error("--parent is required")
    if args.builds:
        print(json.dumps(builds_side_by_side(args.parent.resolve(), BUILDS[args.builds])))
        return 0
    if args.stack:
        print(json.dumps(stack_side_by_side(args.parent.resolve(), *STACKS[args.stack])))
        return 0
    if args.out.name not in RECORDS:
        ap.error(f"--out must be one of {', '.join(RECORDS)}")
    parent = args.parent.resolve()
    runs = []
    for k in range(1, args.pairs + 1):
        for wl in WORKLOADS:
            for side in (("parent", "change") if k % 2 else ("change", "parent")):
                checkout = parent if side == "parent" else ROOT
                run = perfbench(checkout, wl, args.first_seed + k - 1, args.seconds)
                runs.append({"workload": wl, "pair": k, "side": side, **run})
                print(f"pair {k} {wl} {side}: {run['metrics']}", file=sys.stderr)
    traced = {wl: {side: perfbench(parent if side == "parent" else ROOT, wl,
                                   args.first_seed, 4.0, trace=1)
                   for side in ("parent", "change")} for wl in WORKLOADS}
    import numpy
    import scipy
    doc = {
        "change": RECORDS[args.out.name],
        "command": "python3 scripts/bench_rotation_search.py --parent PARENT_CHECKOUT "
                   f"--first-seed {args.first_seed} --out {args.out.name}",
        "perfbench_command": "env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 "
                             "MKL_NUM_THREADS=1 python3 perfbench/run.py --workload W "
                             f"--seed S --seconds {args.seconds:g} (pair k: S = "
                             f"{args.first_seed} + k - 1)",
        "pairing": "parent and change run back to back, each in a fresh process "
                   "from its own checkout with the same seed; odd pairs run the "
                   "parent first, even pairs the change",
        "machine": {"cpu": platform.processor() or platform.machine(),
                    "cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        "summary": summarize(runs),
        "traced_command": "the same with --seed "
                          f"{args.first_seed} --seconds 4 --trace 1",
        "traced": traced,
        "sweep_settings": {"gatesets": SWEEP_GATESETS, "base_length": 12,
                           "refine_length": 6, "targets": SWEEP_TARGETS,
                           "seed": SWEEP_SEED, "timings_per_target": SWEEP_REPEATS},
        "sweep": sweep(parent),
        "runs": runs,
    }
    if args.out.name in SAMPLES:
        doc["sample"] = sample(parent, *SAMPLES[args.out.name])
    if args.out.name in BUILDS:
        out = subprocess.run(
            [sys.executable, __file__, "--parent", str(parent), "--builds", args.out.name],
            check=True, capture_output=True, text=True, env={**os.environ, **ONE_THREAD})
        doc["builds"] = json.loads(out.stdout)
    if args.out.name in STACKS:
        out = subprocess.run(
            [sys.executable, __file__, "--parent", str(parent), "--stack", args.out.name],
            check=True, capture_output=True, text=True, env={**os.environ, **ONE_THREAD})
        doc["stack"] = json.loads(out.stdout)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
