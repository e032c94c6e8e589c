"""Command-line interface.

Subcommands:
  eval       one point                     -> "t r p ur region"
  grid       Cartesian product of t and r  -> CSV t,r,p,ur,region
  regions    dispatch tags only            -> CSV t,r,region
  selfcheck  compare against the slow extended-precision reference
  bench      region-stratified throughput measurement (--json: one line)
  rules      dump quadrature nodes/weights

All numbers print with 17 significant digits (round-trippable doubles).
Exit codes: 0 success, 1 selfcheck failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .diagnostics import stratified_sample
from .dispatch import EPS_FLOOR, PulseEvaluator, Region
from .oracle import OracleError, oracle_eval, verify_on_lattice
from .quadrature import gauss_jacobi_m12, gauss_legendre


def _fmt(x) -> str:
    # + 0.0 folds IEEE negative zero into "0"
    return f"{float(x) + 0.0:.17g}"


@contextlib.contextmanager
def _open_out(path):
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc
    try:
        with fh:
            yield fh
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc


class _IOFailure(Exception):
    pass


def _parse_values(text):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad value list {text!r}") from exc


def _parse_pow(text):
    # BASE:NMIN:NMAX:STEP -> [BASE^n for n in range(NMIN, NMAX+1, STEP)]
    try:
        base_s, lo_s, hi_s, step_s = text.split(":")
        base = float(base_s)
        lo, hi, step = int(lo_s), int(hi_s), int(step_s)
        if base <= 0 or step <= 0:
            raise ValueError
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected BASE:NMIN:NMAX:STEP, got {text!r}") from exc
    return [base ** n for n in range(lo, hi + 1, step)]


def _parse_span(text):
    # NMIN:NMAX:STEP integer span
    try:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi, step = int(lo_s), int(hi_s), int(step_s)
        if step <= 0:
            raise ValueError
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected NMIN:NMAX:STEP, got {text!r}") from exc
    return list(range(lo, hi + 1, step))


def _axis_values(args, name, parser):
    vals = getattr(args, f"{name}_values")
    pow_ = getattr(args, f"{name}_pow")
    if (vals is None) == (pow_ is None):
        parser.error(f"give exactly one of --{name}-values / --{name}-pow")
    return vals if vals is not None else pow_


def _evaluator(args, parser) -> PulseEvaluator:
    try:
        ev = PulseEvaluator(eps=args.eps)
    except ValueError as exc:
        parser.error(str(exc))
    if ev.params.clamped:
        print(f"note: eps tightened to the double-precision floor "
              f"{EPS_FLOOR:g}", file=sys.stderr)
    return ev


def _cmd_eval(args, parser) -> int:
    ev = _evaluator(args, parser)
    try:
        sol = ev.evaluate(args.t, args.r)
    except ValueError as exc:
        parser.error(str(exc))
    with _open_out(args.out) as out:
        print(f"{_fmt(args.t)} {_fmt(args.r)} {_fmt(sol.p)} {_fmt(sol.ur)} "
              f"{sol.region.label}", file=out)
    return 0


def _cmd_grid(args, parser) -> int:
    tvals = _axis_values(args, "t", parser)
    rvals = _axis_values(args, "r", parser)
    ev = _evaluator(args, parser)
    tt = [tv for tv in tvals for _ in rvals]
    rr = rvals * len(tvals)
    try:
        p, u, codes = ev.evaluate_arrays(tt, rr)
    except ValueError as exc:
        parser.error(str(exc))
    with _open_out(args.out) as out:
        print("t,r,p,ur,region", file=out)
        for i in range(len(tt)):
            print(f"{_fmt(tt[i])},{_fmt(rr[i])},{_fmt(p[i])},{_fmt(u[i])},"
                  f"{Region(int(codes[i])).label}", file=out)
    return 0


def _cmd_regions(args, parser) -> int:
    tvals = _axis_values(args, "t", parser)
    rvals = _axis_values(args, "r", parser)
    ev = _evaluator(args, parser)
    with _open_out(args.out) as out:
        print("t,r,region", file=out)
        for tv in tvals:
            for rv in rvals:
                try:
                    reg = ev.classify(tv, rv)
                except ValueError as exc:
                    parser.error(str(exc))
                print(f"{_fmt(tv)},{_fmt(rv)},{reg.label}", file=out)
    return 0


def _cmd_selfcheck(args, parser) -> int:
    ev = _evaluator(args, parser)
    eps = float(ev.params.eps)
    target = args.target_tol if args.target_tol else max(eps * 0.05, 1e-20)
    if args.point is not None:
        t, r = args.point
        try:
            ref = oracle_eval(t, r, target_tol=target)
        except OracleError as exc:
            print(f"selfcheck: FAIL ({exc})", file=sys.stderr)
            return 1
        sol = ev.evaluate(t, r)
        dp = abs(float(sol.p) - float(ref.p))
        du = abs(float(sol.ur) - float(ref.ur))
        with _open_out(args.out) as out:
            print(f"point t={_fmt(t)} r={_fmt(r)} region={sol.region.label}",
                  file=out)
            print(f"  p   = {_fmt(sol.p)}   ref { mp_str(ref.p) }", file=out)
            print(f"  ur  = {_fmt(sol.ur)}   ref { mp_str(ref.ur) }", file=out)
            print(f"  |dp| = {dp:.3e}  |dur| = {du:.3e}  "
                  f"routes = {'/'.join(ref.routes)}  "
                  f"route-spread = {ref.est_err:.1e}", file=out)
            ok = max(dp, du) <= 1.25 * eps
            print(f"selfcheck: {'PASS' if ok else 'FAIL'} "
                  f"(max dev {max(dp, du):.3e} vs allowance {1.25 * eps:.3e})",
                  file=out)
        return 0 if ok else 1
    ns = args.n
    ms = args.m
    try:
        report = verify_on_lattice(ev, ns, ms, target_tol=target,
                                   base=args.base,
                                   progress=args.progress or None)
    except OracleError as exc:
        print(f"selfcheck: FAIL ({exc})", file=sys.stderr)
        return 1
    ok = max(report.max_dp, report.max_dur) <= 1.25 * eps
    with _open_out(args.out) as out:
        print(f"lattice: {report.n_points} points, base {_fmt(args.base)}, "
              f"n {ns[0]}..{ns[-1]}, m {ms[0]}..{ms[-1]}", file=out)
        print(f"max |dp|  = {report.max_dp:.6e}", file=out)
        print(f"max |dur| = {report.max_dur:.6e}", file=out)
        print(f"worst at t={_fmt(report.worst_t)} r={_fmt(report.worst_r)} "
              f"({report.worst_region})", file=out)
        print(f"oracle route spread max = {report.est_err_max:.3e}", file=out)
        print(f"selfcheck: {'PASS' if ok else 'FAIL'} "
              f"(allowance {1.25 * eps:.3e})", file=out)
    return 0 if ok else 1


def mp_str(v) -> str:
    import mpmath
    return mpmath.nstr(v, 22)


# per-region timings are the best of this many calls: one call on a
# shared host read Form1GL 6300 ns/point where best-of-15 read 4900-5000
_REGION_REPEATS = 5


def _cmd_bench(args, parser) -> int:
    start = time.perf_counter()
    ev = _evaluator(args, parser)
    build_s = time.perf_counter() - start
    t, r, codes = stratified_sample(ev, args.points, seed=args.seed)
    # warm caches and the allocator
    ev.evaluate_arrays(t[:256], r[:256])
    start = time.perf_counter()
    ev.evaluate_arrays(t, r)
    elapsed = time.perf_counter() - start
    regions = {}
    for reg in Region:
        idx = np.nonzero(codes == int(reg))[0]
        if idx.size == 0:
            continue
        dt = math.inf
        for _ in range(_REGION_REPEATS):
            t0 = time.perf_counter()
            ev.evaluate_arrays(t[idx], r[idx])
            dt = min(dt, time.perf_counter() - t0)
        regions[reg.label] = {"points": int(idx.size),
                              "points_per_s": idx.size / dt,
                              "ns_per_point": 1e9 * dt / idx.size}
    with _open_out(args.out) as out:
        if args.json:
            import mpmath
            import scipy
            print(json.dumps({
                "points": int(t.size), "eps": float(ev.params.eps),
                "seed": args.seed,
                "points_per_s": t.size / elapsed,
                "ns_per_point": 1e9 * elapsed / t.size,
                "evaluator_build_s": build_s,
                "regions": regions,
                "versions": {"python": platform.python_version(),
                             "numpy": np.__version__,
                             "scipy": scipy.__version__,
                             "mpmath": mpmath.__version__},
                "cpu_count": os.cpu_count()}), file=out)
            return 0
        print(f"points: {t.size}   eps: {_fmt(ev.params.eps)}   "
              f"seed: {args.seed}", file=out)
        print(f"total: {elapsed:.3f} s   throughput: {t.size / elapsed:,.0f} "
              f"points/s", file=out)
        print("region breakdown:", file=out)
        for label, row in regions.items():
            print(f"  {label:<13} {row['points']:>8} pts   "
                  f"{row['ns_per_point']:>9.1f} ns/pt", file=out)
    return 0


def _cmd_rules(args, parser) -> int:
    if args.kind == "uniform":
        tb = _evaluator(args, parser).tables
        with _open_out(args.out) as out:
            print("k,node,weight", file=out)
            for k, (kh, w) in enumerate(
                    zip(tb.u_kh, tb.u_pref * tb.u_gauss), start=1):
                print(f"{k},{_fmt(kh)},{_fmt(w)}", file=out)
        return 0
    if args.m is None:
        parser.error("--m is required for Gauss rules")
    try:
        rule = (gauss_legendre(args.m) if args.kind == "legendre"
                else gauss_jacobi_m12(args.m))
    except ValueError as exc:
        parser.error(str(exc))
    with _open_out(args.out) as out:
        print("i,node,weight", file=out)
        for i in range(rule.m):
            print(f"{i},{_fmt(rule.nodes[i])},{_fmt(rule.weights[i])}",
                  file=out)
    return 0


def _add_eps(sp):
    sp.add_argument("--eps", type=float, default=EPS_FLOOR,
                    help="target absolute accuracy (default and finest: "
                         "%(default)g; coarser values are tightened to it)")


def _add_axes(sp):
    sp.add_argument("--t-values", type=_parse_values, default=None,
                    metavar="V1,V2,...")
    sp.add_argument("--t-pow", type=_parse_pow, default=None,
                    metavar="BASE:NMIN:NMAX:STEP")
    sp.add_argument("--r-values", type=_parse_values, default=None,
                    metavar="V1,V2,...")
    sp.add_argument("--r-pow", type=_parse_pow, default=None,
                    metavar="BASE:NMIN:NMAX:STEP")


def _add_out(sp):
    sp.add_argument("--out", default="-",
                    help="output path, '-' for stdout (default)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulse2d",
        description="Evaluate the 2D acoustic Gaussian-pulse benchmark "
                    "solution (p, u_r) to a requested absolute accuracy.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate one (t, r) point")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--r", type=float, required=True)
    _add_eps(sp)
    _add_out(sp)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("grid", help="evaluate a t x r grid to CSV")
    _add_axes(sp)
    _add_eps(sp)
    _add_out(sp)
    sp.set_defaults(func=_cmd_grid)

    sp = sub.add_parser("regions", help="dispatch tags for a t x r grid")
    _add_axes(sp)
    _add_eps(sp)
    _add_out(sp)
    sp.set_defaults(func=_cmd_regions)

    sp = sub.add_parser("selfcheck",
                        help="compare against the extended-precision "
                             "reference on a power lattice")
    _add_eps(sp)
    sp.add_argument("--n", type=_parse_span, default=list(range(-600, 601, 150)),
                    metavar="NMIN:NMAX:STEP", help="t = base^n span")
    sp.add_argument("--m", type=_parse_span, default=list(range(-600, 601, 150)),
                    metavar="NMIN:NMAX:STEP", help="r = base^m span")
    sp.add_argument("--base", type=float, default=1.01)
    sp.add_argument("--target-tol", type=float, default=None,
                    help="reference accuracy (default eps/20)")
    sp.add_argument("--point", nargs=2, type=float, default=None,
                    metavar=("T", "R"), help="check a single point instead")
    sp.add_argument("--progress", type=int, default=0,
                    help="print a progress line every N points")
    _add_out(sp)
    sp.set_defaults(func=_cmd_selfcheck)

    sp = sub.add_parser("bench", help="region-stratified throughput")
    sp.add_argument("--points", type=int, default=70000)
    sp.add_argument("--seed", type=int, default=20260819)
    sp.add_argument("--json", action="store_true",
                    help="print one JSON line: throughput and ns/point per "
                         "region, evaluator build time, library versions, "
                         "CPU count")
    _add_eps(sp)
    _add_out(sp)
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("rules", help="dump quadrature rule data")
    sp.add_argument("--kind", choices=["legendre", "jacobi", "uniform"],
                    required=True)
    sp.add_argument("--m", type=int, default=None,
                    help="node count (Gauss kinds)")
    _add_eps(sp)
    _add_out(sp)
    sp.set_defaults(func=_cmd_rules)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except _IOFailure as exc:
        print(f"pulse2d: I/O error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 3


if __name__ == "__main__":
    sys.exit(main())
