"""Checks on the evaluator: a-priori quadrature bounds, a region-stratified
point sampler and the acoustic energy integral.

Nothing in the evaluation path calls these.  Both bounds assume the
integrand extends analytically off the real interval:

* trapezoid: f(x) e^{-x^2/2} summed on the grid kh, |k| <= n, with f
  analytic on |Im z| <= 2 pi / h.  The bound combines the crop tail beyond
  L = (n + 1/2) h, the vertical-side contribution at Re z = +-L and the
  aliasing term decaying like e^{-2 pi^2 / h^2}.
* Gauss on [-1, 1]: f analytic inside the ellipse with foci +-1 and
  semi-axes sqrt(2) and 1 (rho = 1 + sqrt 2).  An optional additive term
  accounts for an integrand factor g(x) / sqrt(x - c) whose real branch
  point c lies outside [-1, 1] but possibly inside the ellipse.
"""

from __future__ import annotations

import math

import numpy as np

from . import quadrature
from .dispatch import PulseEvaluator, Region

__all__ = ["trapezoid_bound", "gauss_bound", "RHO", "stratified_sample",
           "energy_integral"]

RHO = 1.0 + math.sqrt(2.0)


def trapezoid_bound(*, h: float, n: int, f0_bound: float, f1_bound: float,
                    tail_bound: float) -> float:
    """Error bound of the trapezoid sum on kh, |k| <= n.

    h: step, 0 < h <= pi.  n: one-sided node count; crop point
    L = (n + 1/2) h.  f0_bound: sup |f| on Im z = +-2 pi / h, |Re z| <= L.
    f1_bound: sup |f| on Re z = +-L, |Im z| <= 2 pi / h.  tail_bound:
    |integral of f e^{-x^2/2} over |x| > L|.
    """
    if not 0 < h <= math.pi:
        raise ValueError(f"step must satisfy 0 < h <= pi, got {h}")
    if n < 1:
        raise ValueError(f"need at least one node pair, got n={n}")
    if min(f0_bound, f1_bound, tail_bound) < 0:
        raise ValueError("magnitude bounds must be nonnegative")
    L = (n + 0.5) * h
    side = (4.0 * h / math.pi) * math.exp(-L * L / 2.0) * f1_bound
    alias = 5.2 * math.exp(-2.0 * math.pi ** 2 / h ** 2) * f0_bound
    return tail_bound + side + alias


def gauss_bound(*, m: int, mu0: float, fmax: float, c: float | None = None,
                g_c: float | None = None) -> float:
    """Error bound of an m-node Gauss rule on [-1, 1].

    mu0: integral of the rule's weight function.  fmax: sup |f| on the
    ellipse.  c: branch point of 1/sqrt(x - c), |c| > 1.  g_c: |g(c)| for
    the branch-point term.
    """
    if m < 1:
        raise ValueError(f"need at least one node, got m={m}")
    if mu0 <= 0 or fmax < 0:
        raise ValueError("mu0 must be positive and fmax nonnegative")
    total = 4.0 * mu0 * fmax * RHO ** (-2 * m) * (RHO / (RHO - 1.0))
    if c is not None:
        ac = abs(c)
        if ac <= 1.0:
            raise ValueError("branch point must lie outside [-1, 1]")
        gc = abs(g_c) if g_c is not None else 0.0
        if ac < math.sqrt(2.0) and gc > 0.0:
            # log form: the (|c| + sqrt(c^2-1))^(2m-2) factor overflows for
            # large m long before the term itself stops mattering
            cc = c * c
            log_term = (math.log(2.0 * mu0 * gc)
                        + 0.25 * math.log(cc - 1.0)
                        - 0.5 * math.log(2.0 * math.pi * m)
                        - (2 * m - 2) * math.log(ac + math.sqrt(cc - 1.0))
                        - math.log(ac - 1.0))
            total += math.exp(log_term) if log_term > -745.0 else 0.0
    return total


def stratified_sample(ev: PulseEvaluator, n_points: int,
                      seed: int = 20260819):
    """Random points covering every region tag about equally.

    Returns (t, r, codes) float arrays in shuffled order; double backend
    only.  Used by the benchmark command and throughput tests.
    """
    if ev.backend.dtype is object:
        raise ValueError("sampling is a double-precision utility")
    P = ev.params
    eps = float(P.eps)
    th_sum = float(P.thr_sum)
    th_diff = float(P.thr_diff)
    th_ser = float(P.thr_series)
    r1 = float(P.R1)
    r2 = float(P.R2)
    rng = np.random.default_rng(seed)
    base = n_points // len(Region)
    counts = [base + (1 if i < n_points % len(Region) else 0)
              for i in range(len(Region))]
    ts, rs = [], []
    for reg, k in zip(Region, counts):
        if k == 0:
            continue
        if reg is Region.ZERO:
            t = rng.uniform(0.001, 50.0, k)
            r = t + th_sum + rng.uniform(0.05, 30.0, k)
        elif reg is Region.SMALL_T:
            t = rng.uniform(0.0, eps, k) * 0.999
            r = rng.uniform(0.0, 10.0, k)
        elif reg is Region.FORM1_GL:
            u = rng.uniform(0.2, th_sum - 0.01, k)
            t = np.maximum(u * rng.uniform(0.02, 0.98, k), 4 * eps)
            r = u - t
        elif reg is Region.SERIES:
            t = th_ser + rng.uniform(0.0, 80.0, k)
            r = rng.uniform(0.0, r1 * 0.999, k)
        elif reg is Region.FORM2_UNIFORM:
            r = np.exp(rng.uniform(math.log(r1 * 1.05), math.log(60.0), k))
            t = r + th_diff + rng.uniform(0.01, 40.0, k)
        elif reg is Region.FORM2_JACOBI:
            r = rng.uniform(r2 * 1.01, 40.0, k)
            lo = np.maximum(np.maximum(2 * eps, r - th_sum + 1e-6),
                            th_sum - r + 1e-6)
            hi = r + th_diff - 1e-6
            t = lo + (hi - lo) * rng.uniform(0.0, 1.0, k)
        else:
            r = rng.uniform(0.0, r2 * 0.99, k)
            lo = th_sum - r + 1e-9
            hi = th_diff + r - 1e-9
            t = lo + (hi - lo) * rng.uniform(0.0, 1.0, k)
        ts.append(t)
        rs.append(r)
    t = np.concatenate(ts)
    r = np.concatenate(rs)
    codes = ev.classify_codes(t, r)
    want = np.concatenate([np.full(k, int(reg), dtype=np.int8)
                           for reg, k in zip(Region, counts) if k])
    if not np.array_equal(codes, want):
        bad = int(np.nonzero(codes != want)[0][0])
        raise RuntimeError(
            f"sampler landed outside its region at t={t[bad]}, r={r[bad]}: "
            f"wanted {Region(int(want[bad])).label}, "
            f"got {Region(int(codes[bad])).label}")
    perm = rng.permutation(t.size)
    return t[perm], r[perm], codes[perm]


def energy_integral(ev: PulseEvaluator, t: float) -> float:
    """pi * integral of (p^2 + u_r^2) r dr over [0, t + 1.5 H].

    The exact acoustic energy is pi/2 at every t.  Composite 4-node
    Gauss-Legendre over uniform panels; t + 1.5 H covers everything above
    the eps floor.
    """
    panels = 10000
    r_max = float(t) + 1.5 * float(ev.params.H)
    rule = quadrature.gauss_legendre(4, ev.backend)
    edges = np.linspace(0.0, r_max, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    hw = 0.5 * (edges[1] - edges[0])
    rr = (mid[:, None] + hw * np.asarray(rule.nodes)[None, :]).ravel()
    tt = np.full_like(rr, float(t))
    p, u, _ = ev.evaluate_arrays(tt, rr)
    integrand = (p * p + u * u) * rr
    w = np.broadcast_to(np.asarray(rule.weights), (panels, rule.m)).ravel()
    return math.pi * hw * float(np.sum(w * integrand))
