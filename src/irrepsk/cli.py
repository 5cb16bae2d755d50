"""Command-line front end.

Subcommands: validate, net, compile, refine-inverse, bench, scan-orderings.
Exit codes: 0 success, 1 gate-set or argument validation failure, 2 the
compiler could not reach the requested tolerance (CompileFailure), 3 file
I/O problems (CacheError); errors.py gives each error class its code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from .errors import CacheError, CompileFailure, CompilerError, SchemaError
from .finitegroup import build_builtin, central_extend, check_schur_orthogonality
from .gateset import (
    GateSet,
    contraction_constant,
    eps0_constant,
    load_gateset,
    parse_matrix_literal,
)
from .linalg import check_class, random_su, su_normalize
from .net import DEFAULT_BUDGET, auto_net, build_gateset_net, load_net, probe_density, save_net
from .refine import (
    compile_target,
    naive_inverse_length,
    refine_inverse,
    scan_orderings,
)
from .skbase import SKParams, check_base_compilable, rotation

_BENCH_COLUMNS = ("trial", "eps", "status", "error", "length", "base_length",
                  "inverted_extras", "eps_k", "ell_k", "naive_length")


def _parse_target(gs: GateSet, spec: str, rng) -> np.ndarray:
    """Target forms: 'random', 'axis:x,y,z:theta', '@file.json', inline JSON."""
    if spec == "random":
        if gs.mode != "su":
            raise SchemaError("random targets are defined for su mode only")
        return random_su(gs.dim, rng)
    if spec.startswith("axis:"):
        if gs.dim != 2 or gs.mode != "su":
            raise SchemaError("axis targets need d = 2, su mode")
        parts = spec.split(":")
        if len(parts) != 3:
            raise SchemaError("axis target format is axis:x,y,z:theta")
        try:
            vec = [float(x) for x in parts[1].split(",")]
            theta = float(parts[2])
        except ValueError:
            raise SchemaError("axis target format is axis:x,y,z:theta") from None
        if not np.isfinite(vec + [theta]).all():
            raise SchemaError("axis target needs a finite axis and angle")
        if len(vec) != 3 or np.linalg.norm(vec) == 0:
            raise SchemaError("axis must be a nonzero 3-vector")
        return rotation(vec, theta)
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            spec = fh.read()
    try:
        entries = json.loads(spec)
    except json.JSONDecodeError as e:
        raise SchemaError(f"target: not valid JSON: {e}") from None
    m = parse_matrix_literal(entries, gs.dim, "target")
    if gs.mode == "su":
        m = su_normalize(m)
    check_class(m, gs.mode, gs.tolerance)
    return m


def _check_epsilon(eps: float) -> float:
    """eps itself if it is a usable tolerance; SchemaError otherwise."""
    if not 0.0 < eps < math.inf:
        raise SchemaError(f"--epsilon must be positive and finite, got {eps:g}")
    return eps


def _check_mode(gs: GateSet, mode) -> None:
    if mode and gs.mode != mode:
        raise SchemaError(f"gate set is {gs.mode} mode, not {mode}")


def _load_or_build_net(gs: GateSet, net_path, length, with_inverses: bool,
                       budget: int):
    if net_path:
        return load_net(net_path, gs, with_inverses=with_inverses)
    if length is None:
        raise SchemaError("pass a net file or a net word length")
    return build_gateset_net(gs, length, with_inverses=with_inverses,
                             budget=budget)


def _compile_setup(gs: GateSet, args):
    """compile's and bench's SK parameters and refinement net; the depth cap
    and the gate set's fitness for the base compiler are checked before
    either net is built."""
    if args.max_depth < 0:
        raise SchemaError(f"--max-depth must be at least 0, got {args.max_depth}")
    check_base_compilable(gs)
    base_net = _load_or_build_net(gs, args.base_net, args.base_length,
                                  True, args.budget)
    refine_net = _load_or_build_net(gs, args.refine_net, args.refine_length,
                                    False, args.budget)
    return SKParams(net=base_net, max_depth=args.max_depth), refine_net


def cmd_validate(args) -> int:
    gs = load_gateset(args.gateset)
    rep = gs.rep
    print(f"gateset: dimension {gs.dim}, mode {gs.mode}, "
          f"{gs.gen_count} generators ({gs.gen_count - gs.rep.order} extra)")
    print(f"group: order {rep.order}, "
          f"{'projective' if rep.projective else 'genuine'} irrep, "
          f"closure residual {rep.closure_residual:.2e}, "
          f"irreducibility residual {rep.irreducibility_residual:.2e}")
    print(f"constants: eps0 {eps0_constant(gs):.6g}, "
          f"contraction {contraction_constant(rep):.6g}")
    if rep.projective:
        cover = central_extend(rep)
        print(f"cover: order {cover.order} "
              f"(k = {cover.order // rep.order}), "
              f"Schur residual {check_schur_orthogonality(cover):.2e}")
    else:
        print(f"Schur residual: {check_schur_orthogonality(rep):.2e}")
    print(f"fingerprint: {gs.fingerprint}")
    return 0


def cmd_net(args) -> int:
    if args.probe < 0:
        raise SchemaError(f"--probe must be at least 0, got {args.probe}")
    gs = load_gateset(args.gateset)
    t0 = time.perf_counter()
    if args.auto:
        rng = np.random.default_rng(args.seed)
        net = auto_net(gs, eps0_constant(gs), max(args.probe, 200), rng,
                       with_inverses=args.with_inverses, budget=args.budget)
        print(f"auto-selected word length {net.word_length}, "
              f"density {net.achieved_density:.4g} <= eps0 "
              f"{eps0_constant(gs):.4g}")
    elif args.length is not None:
        net = build_gateset_net(gs, args.length, with_inverses=args.with_inverses,
                                budget=args.budget)
    else:
        raise SchemaError("pass --length N or --auto")
    print(f"net: {len(net)} words up to length {net.word_length}"
          f"{' (inverses included)' if args.with_inverses else ''}, "
          f"built in {time.perf_counter() - t0:.1f} s")
    if args.probe and not args.auto:
        rng = np.random.default_rng(args.seed)
        density = probe_density(net, args.probe, rng)
        print(f"probed density: {density:.4g} over {args.probe} samples")
    if args.out:
        save_net(net, args.out)
        print(f"saved: {args.out}")
    return 0


def cmd_compile(args) -> int:
    _check_epsilon(args.epsilon)
    gs = load_gateset(args.gateset)
    _check_mode(gs, args.mode)
    rng = np.random.default_rng(args.seed)
    target = _parse_target(gs, args.target, rng)
    params, refine_net = _compile_setup(gs, args)
    t0 = time.perf_counter()
    report = compile_target(gs, target, args.epsilon, params, refine_net)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    ok = report.error <= args.epsilon
    if args.json:
        doc = report.as_dict()
        doc["ok"] = ok
        print(json.dumps(doc, indent=2))
    else:
        print(f"length {report.length}, error {report.error:.3e} "
              f"(target {args.epsilon:.3e}), base length {report.base_length}, "
              f"{report.inverted_extras} inverted extras replaced")
        print(f"wall time {wall_ms:.0f} ms")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(" ".join(gs.names[i] for i in report.indices) + "\n")
        # --json keeps stdout one JSON document
        print(f"saved word: {args.out}", file=sys.stderr if args.json else sys.stdout)
    return 0 if ok else 2


def cmd_refine_inverse(args) -> int:
    _check_epsilon(args.epsilon)
    gs = load_gateset(args.gateset)
    _check_mode(gs, args.mode)
    gen_index = gs.name_index(args.gate)
    net = _load_or_build_net(gs, args.net, args.length, False, args.budget)
    word, achieved, trace = refine_inverse(gs, net, gen_index, args.epsilon)
    naive = None
    if args.naive_compare:
        naive = naive_inverse_length(gs, gen_index, args.epsilon)
        ratio = naive / word.length if word.length else float("inf")
    if args.json:
        doc = {
            "gate": args.gate,
            "length": word.length,
            "error": achieved,
            "ok": achieved <= args.epsilon,
            "trace": trace.as_dict(),
        }
        if naive is not None:
            doc["naive_length"] = naive
            doc["naive_ratio"] = ratio
        print(json.dumps(doc, indent=2))
    else:
        print(f"inverse word for {args.gate}: length {word.length}, "
              f"error {achieved:.3e} (target {args.epsilon:.3e})")
        if trace.exact_hit:
            print("exact table inverse")
        else:
            steps = ", ".join(f"{e:.3e}" for e in trace.errors)
            print(f"iteration errors: {steps}")
        if naive is not None:
            print(f"naive power inverse needs {naive} gates "
                  f"({ratio:.1f}x the refined word)")
    return 0 if achieved <= args.epsilon else 2


def _deepest_trace(report):
    traces = [t for t in report.refine_traces.values() if not t.exact_hit]
    if not traces:
        traces = list(report.refine_traces.values())
    if not traces:
        return "", ""
    tr = max(traces, key=lambda t: len(t.errors))
    return (";".join(f"{e:.6e}" for e in tr.errors),
            ";".join(str(n) for n in tr.lengths))


def cmd_bench(args) -> int:
    eps_list = [_check_epsilon(float(x)) for x in args.epsilon.split(",")]
    if args.trials < 0:
        raise SchemaError(f"--trials must be at least 0, got {args.trials}")
    gs = load_gateset(args.gateset)
    _check_mode(gs, args.mode)
    params, refine_net = _compile_setup(gs, args)
    rows = []
    all_ok = True
    for eps in eps_list:
        seeds = np.random.SeedSequence(args.seed).spawn(args.trials)
        for t, ss in enumerate(seeds):
            rng = np.random.default_rng(ss)
            target = random_su(gs.dim, rng)
            t0 = time.perf_counter()
            try:
                report = compile_target(gs, target, eps, params, refine_net)
            except CompileFailure as e:
                all_ok = False
                rows.append(dict.fromkeys(_BENCH_COLUMNS, "")
                            | {"trial": t, "eps": f"{eps:g}", "status": "error"})
                print(f"trial {t} @ {eps:g}: FAILED ({e})")
                continue
            wall_ms = 1000.0 * (time.perf_counter() - t0)
            ok = report.error <= eps
            all_ok = all_ok and ok
            eps_k, ell_k = _deepest_trace(report)
            naive = ""
            if args.naive_compare and report.inverted_extras:
                # the tolerance each refined inverse was taken at: (eps / 2)
                # over the inverted extras of the accepted SK depth
                eps_each = (eps / 2.0) / report.inverted_extras
                naive = max(naive_inverse_length(gs, i, eps_each)
                            for i in report.refine_errors)
            rows.append(dict(zip(_BENCH_COLUMNS, (
                t, f"{eps:g}", "ok" if ok else "miss", f"{report.error:.6e}",
                report.length, report.base_length, report.inverted_extras,
                eps_k, ell_k, naive))))
            print(f"trial {t} @ {eps:g}: length {report.length}, "
                  f"error {report.error:.3e}, {wall_ms:.0f} ms, "
                  f"{'ok' if ok else 'MISS'}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_BENCH_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        print(f"saved: {args.csv}")
    done = [r for r in rows if r["status"] != "error"]
    if done:
        errors = [float(r["error"]) for r in done]
        lengths = [r["length"] for r in done]
        print(f"summary: {sum(r['status'] == 'ok' for r in rows)}/{len(rows)} "
              f"ok, max error {max(errors):.3e}, "
              f"median length {int(np.median(lengths))}")
    return 0 if all_ok else 2


def cmd_scan_orderings(args) -> int:
    if args.samples < 1:
        raise SchemaError(f"--samples must be at least 1, got {args.samples}")
    if args.show < 0:
        raise SchemaError(f"--show must be at least 0, got {args.show}")
    if args.gateset:
        rep = load_gateset(args.gateset).rep
    else:
        rep = build_builtin(args.builtin, args.dimension)
    rng = np.random.default_rng(args.seed)
    results, threshold = scan_orderings(rep, samples=args.samples, rng=rng)
    vanishing = [(o, c) for o, c in results if c <= threshold]
    print(f"{len(results)} orderings scanned, vanish threshold {threshold:.3e}")
    for order, coeff in results[: args.show]:
        tag = " <- vanishing" if coeff <= threshold else ""
        print(f"  {'-'.join(map(str, order))}: {coeff:.6e}{tag}")
    print(f"{len(vanishing)} orderings with vanishing quadratic coefficient")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ordering", "coefficient", "vanishing"])
            for order, coeff in results:
                writer.writerow(["-".join(map(str, order)),
                                 f"{coeff:.9e}", int(coeff <= threshold)])
        print(f"saved: {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="irrepsk",
        description="Inverse-free gate-set compiler around a finite-group irrep",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--gateset", required=True, help="gate-set JSON file")

    def add_nets(sp):
        sp.add_argument("--base-net", help="saved net file (generators + inverses)")
        sp.add_argument("--base-length", type=int,
                        help="build the base net up to this word length")
        sp.add_argument("--refine-net", help="saved net file (generators only)")
        sp.add_argument("--refine-length", type=int,
                        help="build the refinement net up to this word length")
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="net size cap")
        sp.add_argument("--max-depth", type=int, default=SKParams.max_depth,
                        help="recursion depth cap for the base compiler")

    sp = sub.add_parser("validate", help="parse and check a gate-set file")
    add_common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("net", help="build (and optionally save) a word net")
    add_common(sp)
    sp.add_argument("--length", type=int)
    sp.add_argument("--auto", action="store_true",
                    help="grow the length until probed density reaches eps0 "
                         "(su mode only)")
    sp.add_argument("--with-inverses", action="store_true")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--probe", type=int, default=0,
                    help="sample this many random targets to estimate density")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="save the net to this file")
    sp.set_defaults(func=cmd_net)

    sp = sub.add_parser("compile", help="compile a target to an inverse-free word")
    add_common(sp)
    add_nets(sp)
    sp.add_argument("--target", required=True,
                    help="'random', 'axis:x,y,z:theta', '@file.json', or JSON")
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mode", choices=["su", "sl"],
                    help="assert the gate set is in this mode")
    sp.add_argument("--json", action="store_true", help="print a JSON report")
    sp.add_argument("--out", help="save the gate-name word to this file")
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("refine-inverse",
                        help="inverse-free approximation of one gate's inverse")
    add_common(sp)
    sp.add_argument("--gate", required=True, help="generator name")
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--net", help="saved net file (generators only)")
    sp.add_argument("--length", type=int,
                    help="build the net up to this word length")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--mode", choices=["su", "sl"],
                    help="assert the gate set is in this mode")
    sp.add_argument("--naive-compare", action="store_true",
                    help="also count gates for the power-of-the-gate inverse")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_refine_inverse)

    sp = sub.add_parser("bench", help="compile a batch of random targets")
    add_common(sp)
    add_nets(sp)
    sp.add_argument("--epsilon", required=True,
                    help="tolerance, or a comma-separated list of tolerances")
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mode", choices=["su", "sl"],
                    help="assert the gate set is in this mode")
    sp.add_argument("--naive-compare", action="store_true",
                    help="add a power-of-the-gate inverse length column")
    sp.add_argument("--csv", help="write per-trial rows to this file")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("scan-orderings",
                        help="quadratic coefficient per conjugation ordering")
    sp.add_argument("--gateset", help="gate-set JSON file")
    sp.add_argument("--builtin", default="s3",
                    help="builtin group name when no gate set is given")
    sp.add_argument("--dimension", type=int, default=2)
    sp.add_argument("--samples", type=int, default=24)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--show", type=int, default=10,
                    help="print this many best orderings")
    sp.add_argument("--csv")
    sp.set_defaults(func=cmd_scan_orderings)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CompilerError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, (CacheError, OSError)):
            return 3
        return 2 if isinstance(e, CompileFailure) else 1


if __name__ == "__main__":
    sys.exit(main())
