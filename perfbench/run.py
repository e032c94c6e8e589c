#!/usr/bin/env python3
"""The pulse2d benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload mesh --seed 1 --seconds 10 --trace 0

Workloads are ``stratified``, ``mesh``, ``probe`` and ``extended``; see
perfbench/README.md for why each exists and which metric each layer moves.
``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced cycles of the same workload,
reports the per-layer metrics and the tracing overhead, and writes its spans
to perfbench/out/.  The lines before the last are for people: the environment,
every metric with its unit, and what the checks covered.  The last line is
the result: {"correct", "attempted", "failed", "metrics"}.

The program is imported from src/ next to this directory; without it the
benchmark exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("stratified", "mesh", "probe", "extended")
# pulse2d.dispatch.Region labels, in region-code order
REGION_LABELS = ("Zero", "SmallT", "Form1GL", "Series", "Form2Uniform",
                 "Form2Jacobi", "Form3GL")

END_TO_END = {
    "points_per_s": "points/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {"dispatch.classify_ns_per_point": "ns",
             "dispatch.overhead_us_per_call": "us"}
    for lab in REGION_LABELS:
        module = "series" if lab == "Series" else "forms"
        units[f"{module}.{lab}_ns_per_point"] = "ns"
    for lab in REGION_LABELS:
        units[f"forms.kernel_evals.{lab}"] = "count"
    units["specfun.bessel_j_ns_per_elem"] = "ns"
    units["specfun.scaled_i_pair_ns_per_elem"] = "ns"
    units["quadrature.rule_build_s"] = "s"
    units["dispatch.evaluator_build_s"] = "s"
    units["import_s"] = "s"
    units["cli.eval_cold_s"] = "s"
    for lab in REGION_LABELS:
        units[f"dispatch.share.{lab}"] = "fraction"
    units["oracle.s_per_point"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


PER_LAYER = _per_layer_units()

SETUP_RUNS = 3                 # cold starts per run; setup_s is their median
CHILD_TIMEOUT_S = 60
IDENTITY_PER_REGION = 3        # points re-evaluated one at a time
ORACLE_PER_REGION = 1          # points checked against the oracle...
ORACLE_MAX_MP = 2              # ...at most this many in 40 digits
# per backend, keyed by "is mpmath"
LAYER_POINTS = {False: 2048, True: 4}      # region-pure batch size
LAYER_REPEATS = {False: 7, True: 3}
ONE_POINT_PER_REGION = {False: 43, True: 4}
SPECFUN_ELEMS = {False: 4096 * 54, True: 50}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------- environment

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import mpmath
    import scipy
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "commit": _git_commit(),
    }


# ------------------------------------------------------------------ children

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_child(cmd) -> str:
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return proc.stdout


def cold_start(workload: str, seed: int, mode: str) -> dict:
    out = _run_child([sys.executable, str(HERE / "coldstart.py"),
                      "--workload", workload, "--seed", str(seed),
                      "--mode", mode])
    return json.loads(out.splitlines()[-1])


def cli_eval_cold() -> float:
    """Wall time of ``pulse2d eval`` in a fresh interpreter."""
    start = time.perf_counter()
    out = _run_child([sys.executable, "-m", "pulse2d.cli", "eval",
                      "--t", "2", "--r", "1"])
    elapsed = time.perf_counter() - start
    cols = out.split()
    if len(cols) != 5 or cols[4] != "Form1GL":
        raise RuntimeError(f"unexpected pulse2d eval output {out!r}")
    return elapsed


# ------------------------------------------------------------------ the loop

@dataclass
class Pass:
    """What timed cycles of calls saw; several passes may add into one."""
    latencies: list = field(default_factory=list)     # s per call
    cycle_rates: list = field(default_factory=list)   # points/s per cycle
    # (call index, call s, classify s) per traced call
    traced: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    points: int = 0
    wall: float = 0.0


def unpack(out, scalar: bool):
    """(p, ur, codes) arrays from a call's return value."""
    if scalar:
        return (np.array([out.p]), np.array([out.ur]),
                np.array([int(out.region)]))
    return out


def timed_pass(calls, call, ref, seconds, scalar, st=None, tracer=None,
               classify=None) -> Pass:
    """Repeat whole cycles of ``calls``, at least one, for ``seconds``.

    Only the library call is timed.  Each output is compared with the
    checked first cycle ``ref``; a call that raises fails all its points.
    With a tracer, every call gets a ``call`` span and a sibling
    ``dispatch.classify`` span over the same inputs, under one ``step``.
    """
    import checks
    st = st if st is not None else Pass()
    start = time.perf_counter()
    while True:
        points = 0
        busy = 0.0
        for i, c in enumerate(calls):
            n = 1 if scalar else c[0].size
            st.attempted += n
            out = None
            if tracer is None:
                t0 = time.perf_counter()
                try:
                    out = call(c)
                except Exception:  # a raising call is a counted failure
                    pass
                dt = time.perf_counter() - t0
            else:
                with tracer.span("step"):
                    with tracer.span("call") as k:
                        try:
                            out = call(c)
                        except Exception:
                            pass
                    with tracer.span("dispatch.classify") as kc:
                        classify(i)
                dt = tracer.duration(k)
                st.traced.append((i, dt, tracer.duration(kc)))
            if out is None or ref[i] is None:
                st.failed += n
                continue
            p, u, _ = unpack(out, scalar)
            st.failed += checks.count_changed(p, u, ref[i][0], ref[i][1])
            st.latencies.append(dt)
            points += n
            busy += dt
        if busy > 0:
            st.cycle_rates.append(points / busy)
        st.points += points
        if time.perf_counter() - start >= seconds:
            break
    st.wall += time.perf_counter() - start
    return st


def tail(latencies, pct: float):
    """(value, percentile, samples) of the nearest-rank tail percentile.

    When fewer than ten samples lie beyond ``pct``, the highest percentile
    that still has ten beyond it is used instead.
    """
    s = sorted(latencies)
    n = len(s)
    k = max(math.ceil(pct / 100 * n) - 1, 0)
    if n - 1 - k < 10:
        k = max(n - 11, 0)
        pct = 100 * (k + 1) / n
    return s[k], pct, n


@dataclass
class Checked:
    """The first cycle's points and outputs, flattened; checks look here."""
    t: object
    r: object
    p: object
    u: object
    codes: object


def first_cycle(calls, call, scalar, tracer):
    """Run one untimed cycle: warm-up, and the outputs all checks examine.

    Returns (per-call outputs or None, Checked, attempted, failed, errors).
    """
    import checks
    import workloads
    ref, attempted, failed, errors = [], 0, 0, []
    with tracer.span("warmup"):
        for c in calls:
            n = 1 if scalar else c[0].size
            attempted += n
            try:
                out = unpack(call(c), scalar)
            except Exception as exc:  # counted and reported; the run goes on
                errors.append(repr(exc))
                failed += n
                ref.append(None)
                continue
            failed += checks.count_nonfinite(out[0], out[1])
            ref.append(out)
    ok = [i for i, out in enumerate(ref) if out is not None]
    t, r = workloads.call_arrays([calls[i] for i in ok])
    seen = Checked(t=t, r=r,
                   p=np.concatenate([ref[i][0] for i in ok]),
                   u=np.concatenate([ref[i][1] for i in ok]),
                   codes=np.concatenate([np.asarray(ref[i][2], dtype=int)
                                         for i in ok]))
    return ref, seen, attempted, failed, errors


def check_outputs(ev, seen: Checked, scalar, is_mp, rng, tracer):
    """(failed, identity points, oracle points, oracle s/point)."""
    import checks
    failed = 0
    n_identity = 0
    if not is_mp:
        idx = checks.subset(seen.codes, IDENTITY_PER_REGION, rng)
        with tracer.span("check.identity"):
            failed += checks.identity_failures(
                ev, seen.t[idx], seen.r[idx], seen.p[idx], seen.u[idx], scalar)
        n_identity = idx.size
    idx = checks.subset(seen.codes, ORACLE_PER_REGION, rng)
    if is_mp:
        idx = np.sort(rng.choice(idx, min(ORACLE_MAX_MP, idx.size), False))
    with tracer.span("check.oracle"):
        bad, oracle_s = checks.oracle_failures(
            seen.t[idx], seen.r[idx], seen.p[idx], seen.u[idx],
            float(ev.params.eps), is_mp)
    return failed + bad, n_identity, idx.size, oracle_s


# ------------------------------------------------------------- layer probes

def region_pools(ev, seen: Checked, n, rng):
    """Region-pure point sets of ``n`` points for per-region timing.

    The workload's own points of each region, topped up with generated
    points of that region when the workload has fewer than ``n``.
    """
    import workloads
    from pulse2d.dispatch import Region
    pools = {}
    for code, label in enumerate(REGION_LABELS):
        idx = rng.permutation(np.nonzero(seen.codes == code)[0])[:n]
        t, r = seen.t[idx], seen.r[idx]
        if idx.size < n:
            tt, rr = workloads.region_points(ev.params, Region(code),
                                             n - idx.size, rng)
            t, r = np.concatenate([t, tt]), np.concatenate([r, rr])
        pools[label] = (t, r)
    return pools


def time_regions(ev, pools, repeats, tracer) -> dict[str, float]:
    """Seconds per point of region-pure ``evaluate_arrays`` calls."""
    per_point = {}
    with tracer.span("regions"):
        for code, label in enumerate(REGION_LABELS):
            t, r = pools[label]
            times = []
            for _ in range(repeats):
                with tracer.span(f"region.{label}") as k:
                    _, _, got = ev.evaluate_arrays(t, r)
                times.append(tracer.duration(k))
                if not np.all(got == code):
                    raise RuntimeError(f"region pool for {label} left it")
            per_point[label] = statistics.median(times) / t.size
    return per_point


def one_point_calls(ev, t, r, tracer) -> list:
    """(call s, classify s) of one-point ``ev.evaluate`` calls, traced."""
    bk = ev.backend
    out = []
    for ti, ri in zip(t, r):
        ta, ra = bk.asarray([ti]), bk.asarray([ri])
        with tracer.span("onepoint"):
            with tracer.span("call") as k:
                ev.evaluate(float(ti), float(ri))
            with bk.workprec(), tracer.span("dispatch.classify") as kc:
                ev.classify_codes(ta, ra)
        out.append((tracer.duration(k), tracer.duration(kc)))
    return out


def time_specfun(backend, is_mp, rng, tracer) -> tuple[float, float]:
    """ns per element of bessel_j (orders 0 and 1) and scaled_i_pair."""
    from pulse2d.specfun import bessel_j, scaled_i_pair
    n = SPECFUN_ELEMS[is_mp]
    xj = rng.uniform(0.0, 80.0, n)     # Form1GL's r*omega range
    xi = rng.uniform(0.0, 1.35, n)     # Form3GL's argument range
    if is_mp:
        xj, xi = backend.asarray(xj), backend.asarray(xi)
    for _ in range(LAYER_REPEATS[is_mp]):
        with tracer.span("specfun.bessel_j"):
            bessel_j(0, xj, backend)
            bessel_j(1, xj, backend)
        with tracer.span("specfun.scaled_i_pair"):
            scaled_i_pair(xi, backend)
    return (1e9 * statistics.median(tracer.durations("specfun.bessel_j"))
            / (2 * n),
            1e9 * statistics.median(tracer.durations("specfun.scaled_i_pair"))
            / n)


def kernel_counts() -> dict[str, int]:
    """kernel_count per region at eps = 2e-16 on the c9 gate's points."""
    from pulse2d.dispatch import PulseEvaluator, Region
    ev = PulseEvaluator(2e-16)
    P = ev.params
    s, d, ts = float(P.thr_sum), float(P.thr_diff), float(P.thr_series)
    r1, r2 = float(P.R1), float(P.R2)
    points = {
        Region.ZERO: (1.0, 1.0 + s + 1.0),
        Region.SMALL_T: (float(P.eps) * 0.25, 1.0),
        Region.FORM1_GL: (s / 4, s / 4),
        Region.SERIES: (ts + 5.0, r1 / 2),
        Region.FORM2_UNIFORM: (d + 3.0, 1.0),
        Region.FORM2_JACOBI: (s, r2 + 1.0),
        Region.FORM3_GL: (s, r2 / 2),
    }
    counts = {}
    for region, (t, r) in points.items():
        if ev.classify(t, r) is not region:
            raise RuntimeError(f"count point for {region.label} left it")
        counts[region.label] = ev.kernel_count(t, r)
    return counts


# ----------------------------------------------------------------- the run

def run(args) -> dict:
    import pulse2d
    import workloads

    name, seed, spec = args.workload, args.seed, workloads.SPECS[args.workload]
    is_mp = spec.dps is not None
    tracer = Tracer()
    env = environment()
    print("env: " + json.dumps(env))
    print(f"workload: {name}  seed: {seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}")

    with tracer.span("workload"):
        with tracer.span("cold.setup"):
            cold = [cold_start(name, seed, "setup") for _ in range(SETUP_RUNS)]
        ev = workloads.make_evaluator(name)
        calls = workloads.generate(name, seed, ev)
        if spec.scalar:
            def call(c):
                return pulse2d.evaluate(c[0], c[1])
        else:
            def call(c):
                return ev.evaluate_arrays(c[0], c[1])
        ref, seen, attempted, failed, errors = first_cycle(
            calls, call, spec.scalar, tracer)

        if args.trace:
            # untraced and traced cycles alternate, so drift hits both alike
            bk = ev.backend
            cls_in = [(bk.asarray(np.atleast_1d(c[0])),
                       bk.asarray(np.atleast_1d(c[1]))) for c in calls]

            def classify(i):
                with bk.workprec():
                    ev.classify_codes(*cls_in[i])

            plain, timed = Pass(), Pass()
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                timed_pass(calls, call, ref, 0, spec.scalar, plain)
                timed_pass(calls, call, ref, 0, spec.scalar, timed, tracer,
                           classify)
            passes = [plain, timed]
        else:
            timed = timed_pass(calls, call, ref, args.seconds, spec.scalar)
            passes = [timed]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for st in passes:
            failed += st.failed
            attempted += st.attempted

        rng = np.random.default_rng([seed, 1])
        bad, n_identity, n_oracle, oracle_s = check_outputs(
            ev, seen, spec.scalar, is_mp, rng, tracer)
        failed += bad
        shares = (np.bincount(seen.codes, minlength=len(REGION_LABELS))
                  / seen.codes.size)

        if args.trace:
            with tracer.span("cold.rules"):
                rules = cold_start(name, seed, "rules")
            with tracer.span("cli.eval"):
                cli_s = cli_eval_cold()
            pools = region_pools(ev, seen, LAYER_POINTS[is_mp], rng)
            region_s = time_regions(ev, pools, LAYER_REPEATS[is_mp], tracer)
            if spec.scalar:
                done = [x for x in timed.traced if ref[x[0]] is not None]
                codes = [int(ref[i][2][0]) for i, _, _ in done]
                one = [(dt, dc) for _, dt, dc in done]
            else:
                # one-point calls on the head of each region pool, so each
                # is set against the batch cost of the same kind of points
                k = ONE_POINT_PER_REGION[is_mp]
                heads = [pools[lab] for lab in REGION_LABELS]
                codes = np.repeat(np.arange(len(REGION_LABELS)), k)
                one = one_point_calls(
                    ev, np.concatenate([t[:k] for t, _ in heads]),
                    np.concatenate([r[:k] for _, r in heads]), tracer)
            bessel_ns, ipair_ns = time_specfun(ev.backend, is_mp, rng, tracer)
            with tracer.span("kernel_count"):
                kcounts = kernel_counts()

    notes = []
    if args.trace:
        classify_s = sum(dc for _, _, dc in timed.traced)
        plain_s_per_point = plain.wall / plain.points
        traced_s_per_point = (timed.wall - classify_s) / timed.points
        overhead = [dt - dc - region_s[REGION_LABELS[code]]
                    for (dt, dc), code in zip(one, codes)]
        metrics = {
            "dispatch.classify_ns_per_point": 1e9 * classify_s / timed.points,
            "dispatch.overhead_us_per_call": 1e6 * statistics.median(overhead),
        }
        for lab in REGION_LABELS:
            module = "series" if lab == "Series" else "forms"
            metrics[f"{module}.{lab}_ns_per_point"] = 1e9 * region_s[lab]
        for lab in REGION_LABELS:
            metrics[f"forms.kernel_evals.{lab}"] = kcounts[lab]
        metrics["specfun.bessel_j_ns_per_elem"] = bessel_ns
        metrics["specfun.scaled_i_pair_ns_per_elem"] = ipair_ns
        metrics["quadrature.rule_build_s"] = rules["rule_build_s"]
        metrics["dispatch.evaluator_build_s"] = statistics.median(
            c["build_s"] for c in cold)
        metrics["import_s"] = statistics.median(c["import_s"] for c in cold)
        metrics["cli.eval_cold_s"] = cli_s
        for lab, share in zip(REGION_LABELS, shares):
            metrics[f"dispatch.share.{lab}"] = float(share)
        metrics["oracle.s_per_point"] = oracle_s
        metrics["trace.overhead_pct"] = 100 * (
            traced_s_per_point / plain_s_per_point - 1)
        units = PER_LAYER
        notes.append(f"overhead_us_per_call is the median of {len(one)} "
                     f"one-point calls")
    else:
        value, pct, n = tail(timed.latencies, spec.tail_pct)
        metrics = {
            "points_per_s": statistics.median(timed.cycle_rates),
            "latency_p50_us": 1e6 * statistics.median(timed.latencies),
            "latency_tail_us": 1e6 * value,
            "setup_s": statistics.median(c["setup_s"] for c in cold),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        notes.append(f"latency_tail_us is p{pct:g} of {n} calls; "
                     f"points_per_s is the median of "
                     f"{len(timed.cycle_rates)} cycles")

    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    for line in notes:
        print(line)
    print("shares: " + "  ".join(f"{lab} {s:.4f}"
                                 for lab, s in zip(REGION_LABELS, shares)))
    print(f"checks: {attempted} points attempted, {n_identity} re-evaluated "
          f"for bit identity, {n_oracle} against the oracle")
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed)")
    for err in errors[:3]:
        print(f"error: {err}")

    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{name}-seed{seed}.json"
        tracer.dump(path, {"workload": name, "seed": seed,
                           "environment": env, "metrics": metrics})
        print(f"spans: {len(tracer.spans)} written to "
              f"{path.relative_to(ROOT)}")

    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pulse2d" / "__init__.py").is_file():
        print(f"perfbench: no pulse2d sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"      # one thread of load, children included
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
