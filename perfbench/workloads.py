"""Seeded inputs for the benchmark workloads.

Every generator is owned by the benchmark, not by the library: it draws
(t, r) values from a ``numpy.random.Generator`` seeded by ``--seed`` and the
library only ever receives the generated arrays.  Region-targeted draws use
the evaluator's public ``params`` thresholds and are confirmed with
``classify_codes``.

A workload is one *cycle* of library calls; the benchmark repeats whole
cycles for the measured time.  Each call is ``(t, r)``: two float64 arrays
for batch workloads, two Python floats for the one-point ``probe``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pulse2d.dispatch import PulseEvaluator, Region
from pulse2d.numerics import mp_backend

@dataclass(frozen=True)
class Spec:
    eps: float
    dps: int | None       # mpmath digits of the backend; None for float64
    scalar: bool          # one pulse2d.evaluate call per point
    tail_pct: float       # reported tail percentile of call latency


SPECS = {
    "stratified": Spec(2e-16, None, False, 90.0),
    "mesh": Spec(2e-16, None, False, 80.0),
    "probe": Spec(2e-16, None, True, 99.0),
    "extended": Spec(1e-30, 40, False, 90.0),
}

STRATIFIED_BATCHES = 20
STRATIFIED_PER_REGION = 1429          # 7 x 1429 = 10003 points per call
MESH_N = 256
MESH_L = 50.0                         # half-width; the front stays inside
MESH_TIMES = 16
MESH_T_MAX = 40.0
PROBE_RECEIVERS = (0.0, 0.002, 0.1, 1.0, 3.0, 10.0)
PROBE_TIMES = 400
PROBE_T_MAX = 60.0
EXTENDED_BATCHES = 15                 # one point per region per call


def make_evaluator(name: str) -> PulseEvaluator:
    spec = SPECS[name]
    backend = mp_backend(spec.dps) if spec.dps else None
    return PulseEvaluator(spec.eps, backend=backend)


def classify(ev: PulseEvaluator, t, r) -> np.ndarray:
    """Region codes of float (t, r) arrays under the evaluator's backend."""
    bk = ev.backend
    with bk.workprec():
        return ev.classify_codes(bk.asarray(t), bk.asarray(r))


def region_points(params, region: Region, n: int, rng):
    """n float (t, r) pairs inside one region, with margins off its seams.

    Mirrors the decision list in ``pulse2d.dispatch``; callers confirm the
    result with :func:`classify`.
    """
    eps = float(params.eps)
    s = float(params.thr_sum)
    d = float(params.thr_diff)
    ts = float(params.thr_series)
    r1 = float(params.R1)
    r2 = float(params.R2)
    if region is Region.ZERO:
        t = rng.uniform(1e-3, 50.0, n)
        r = t + s + rng.uniform(0.05, 30.0, n)
    elif region is Region.SMALL_T:
        t = 0.999 * eps * rng.uniform(0.0, 1.0, n)
        r = rng.uniform(0.0, 10.0, n)
    elif region is Region.FORM1_GL:
        u = rng.uniform(0.2, s - 0.01, n)
        t = u * rng.uniform(0.02, 0.98, n)
        r = u - t
    elif region is Region.SERIES:
        t = ts + rng.uniform(0.0, 80.0, n)
        r = 0.999 * r1 * rng.uniform(0.0, 1.0, n)
    elif region is Region.FORM2_UNIFORM:
        r = np.exp(rng.uniform(math.log(1.05 * r1), math.log(60.0), n))
        t = r + d + rng.uniform(0.01, 40.0, n)
    elif region is Region.FORM2_JACOBI:
        r = rng.uniform(1.01 * r2, 40.0, n)
        lo = np.abs(r - s) + 1e-6
        hi = r + d - 1e-6
        t = lo + (hi - lo) * rng.uniform(0.0, 1.0, n)
    elif region is Region.FORM3_GL:
        # both Form3GL branches: the band around t + r = 1.05 H near the
        # axis, and the deep axis strip before the series takes over
        k = n // 2
        r_band = 0.99 * r2 * rng.uniform(0.0, 1.0, k)
        lo = s - r_band + 1e-9
        hi = d + r_band - 1e-9
        t_band = lo + (hi - lo) * rng.uniform(0.0, 1.0, k)
        r_deep = 0.999 * r1 * rng.uniform(0.0, 1.0, n - k)
        lo = d + r_deep + 1e-6
        t_deep = lo + (ts - 1e-6 - lo) * rng.uniform(0.0, 1.0, n - k)
        t = np.concatenate([t_band, t_deep])
        r = np.concatenate([r_band, r_deep])
    else:
        raise ValueError(f"unknown region {region!r}")
    return t, r


def stratified_batch(ev: PulseEvaluator, per_region: int, rng):
    """Shuffled batch with exactly ``per_region`` points in every region."""
    parts = [region_points(ev.params, reg, per_region, rng)
             for reg in sorted(Region)]
    t = np.concatenate([p[0] for p in parts])
    r = np.concatenate([p[1] for p in parts])
    want = np.repeat(np.arange(len(parts)), per_region)
    got = np.asarray(classify(ev, t, r), dtype=int)
    if not np.array_equal(got, want):
        bad = int(np.nonzero(got != want)[0][0])
        raise RuntimeError(
            f"generator missed {Region(want[bad]).label} at t={t[bad]!r}, "
            f"r={r[bad]!r} (classified {Region(got[bad]).label})")
    perm = rng.permutation(t.size)
    return t[perm], r[perm]


def _stratified(ev, rng):
    return [stratified_batch(ev, STRATIFIED_PER_REGION, rng)
            for _ in range(STRATIFIED_BATCHES)]


def _mesh(ev, rng):
    # a CFD verification sweep: one call per output time over a fixed
    # Cartesian mesh; the seed shifts the mesh and jitters the times
    h = 2 * MESH_L / MESH_N
    dx, dy = rng.uniform(-0.5, 0.5, 2)
    x = -MESH_L + (np.arange(MESH_N) + 0.5 + dx) * h
    y = -MESH_L + (np.arange(MESH_N) + 0.5 + dy) * h
    r = np.hypot(x[None, :], y[:, None]).ravel()
    times = ((np.arange(MESH_TIMES) + rng.uniform(0.4, 0.6, MESH_TIMES))
             * MESH_T_MAX / MESH_TIMES)
    return [(np.full_like(r, tv), r) for tv in times]


def _probe(ev, rng):
    # fixed receivers, on the axis and off it, sampled over a jittered time
    # series starting at t = 0; a closed loop of one caller
    step = PROBE_T_MAX / (PROBE_TIMES - 1)
    times = [0.0] + [float((k + rng.uniform(0.0, 1.0)) * step)
                     for k in range(PROBE_TIMES - 1)]
    return [(tv, rv) for tv in times for rv in PROBE_RECEIVERS]


def _extended(ev, rng):
    return [stratified_batch(ev, 1, rng) for _ in range(EXTENDED_BATCHES)]


_GENERATORS = {
    "stratified": _stratified,
    "mesh": _mesh,
    "probe": _probe,
    "extended": _extended,
}


def generate(name: str, seed: int, ev: PulseEvaluator):
    """One cycle of calls for workload ``name``; same seed, same calls."""
    return _GENERATORS[name](ev, np.random.default_rng(seed))


def call_arrays(calls):
    """All points of a cycle as two flat float64 arrays, in call order."""
    t = np.concatenate([np.atleast_1d(np.asarray(c[0], dtype=float))
                        for c in calls])
    r = np.concatenate([np.atleast_1d(np.asarray(c[1], dtype=float))
                        for c in calls])
    return t, r
