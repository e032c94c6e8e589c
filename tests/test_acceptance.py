"""End-to-end acceptance gates.

Each test prints one machine-readable verdict line

    criterion N (name): PASS|FAIL - detail

and then asserts, so a red run still reports every criterion it reached.
Tolerances are pinned; do not widen them to make a run green.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from pulse2d.diagnostics import energy_integral, gauss_bound, \
    stratified_sample, trapezoid_bound
from pulse2d.dispatch import PulseEvaluator, Region, region_eval
from pulse2d.numerics import mp_backend
from pulse2d.oracle import in_reference, verify_on_lattice
from pulse2d.quadrature import gauss_jacobi_m12, gauss_legendre, uniform_step
from pulse2d.series import asymptotic_In, asymptotic_remainder_bound


def _report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_c1_lattice_accuracy(ev64):
    span = list(range(-600, 601, 25))
    rep = verify_on_lattice(ev64, span, span)
    dev = max(rep.max_dp, rep.max_dur)
    _report(1, "lattice accuracy", dev <= 2.5e-15,
            f"max dev {dev:.3e} <= 2.5e-15 over {rep.n_points} points, "
            f"worst at t={rep.worst_t:.6g} r={rep.worst_r:.6g} "
            f"({rep.worst_region})")


def test_c2_extended_precision_consistency():
    bk = mp_backend(40)
    ev16 = PulseEvaluator(2e-16, backend=bk)
    ev24 = PulseEvaluator(1e-24, backend=bk)
    span = [1.01 ** n for n in range(-600, 601, 60)]
    tt = [tv for tv in span for _ in span]
    rr = span * len(span)
    p16, u16, _ = ev16.evaluate_arrays(tt, rr)
    p24, u24, _ = ev24.evaluate_arrays(tt, rr)
    dev = 0.0
    for i in range(len(tt)):
        dev = max(dev, abs(float(p16[i] - p24[i])),
                  abs(float(u16[i] - u24[i])))
    _report(2, "cross-eps consistency", dev <= 2e-16,
            f"max dev {dev:.3e} <= 2e-16 over {len(tt)} points "
            f"(eps 2e-16 vs 1e-24, both in 40-digit arithmetic)")


def test_c3_region_boundary_agreement(ev64):
    P = ev64.params
    s = float(P.thr_sum)
    d = float(P.thr_diff)
    ts = float(P.thr_series)
    r1 = float(P.R1)
    r2 = float(P.R2)
    rng = np.random.default_rng(20260819)
    tol = 2.0 * float(P.eps)
    worst = {}

    def pair_dev(name, ra, rb, t, r):
        # both regions' kernels at the same points, node classes included
        pa0, pa1 = region_eval(ev64, ra, t, r)
        pb0, pb1 = region_eval(ev64, rb, t, r)
        dev = max(np.max(np.abs(pa0 - pb0)), np.max(np.abs(pa1 - pb1)))
        worst[name] = dev
        return dev

    # strip half-widths: tight enough that each branch stays inside its
    # accuracy envelope on the far side of the seam it was not built for
    w = 0.02

    # t + r = 1.05 H seam: oscillatory crop vs the Jacobi band (120 pts)
    u = s + rng.uniform(-w, w, 120)
    frac = rng.uniform(0.15, 0.85, 120)
    r = u * frac
    t = u - r
    pair_dev("1.05H", Region.FORM1_GL, Region.FORM2_JACOBI, t, r)

    # r - t = 1.05 H seam: cropped zero vs the Jacobi band (80 pts)
    t = rng.uniform(0.5, 30.0, 80)
    r = t + s + rng.uniform(-w, w, 80)
    pair_dev("1.05H-front", Region.FORM2_JACOBI, Region.ZERO, t, r)

    # t - r = 1.152 H seam: Jacobi band vs the uniform far field (200 pts)
    r = np.exp(rng.uniform(math.log(2 * r1), math.log(40.0), 200))
    t = r + d + rng.uniform(-w, w, 200)
    pair_dev("1.152H", Region.FORM2_JACOBI, Region.FORM2_UNIFORM, t, r)

    # t = 1.31 H seam on the axis strip: moment form vs the series (200 pts)
    t = ts + rng.uniform(-w, w, 200)
    r = rng.uniform(0.0, r1, 200)
    pair_dev("1.31H", Region.FORM3_GL, Region.SERIES, t, r)

    # r = R1 seam deep behind the front (200 pts, both time sub-bands)
    t_lo = d + 2 * r1 + 1e-3
    t = np.concatenate([rng.uniform(t_lo, ts - w, 100),
                        rng.uniform(ts + w, ts + 40.0, 100)])
    r = r1 * (1.0 + rng.uniform(-0.02, 0.02, 200))
    dev_a = pair_dev("R1-early", Region.FORM3_GL, Region.FORM2_UNIFORM,
                     t[:100], r[:100])
    dev_b = pair_dev("R1-late", Region.SERIES, Region.FORM2_UNIFORM,
                     t[100:], r[100:])
    worst["R1"] = max(dev_a, dev_b)

    # r = R2 seam in the intermediate band (200 pts)
    r = r2 * (1.0 + rng.uniform(-0.02, 0.02, 200))
    t = rng.uniform(s - 0.05, d + 0.05, 200)
    pair_dev("R2", Region.FORM3_GL, Region.FORM2_JACOBI, t, r)

    dev = max(worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in sorted(worst.items()))
    _report(3, "boundary agreement", dev <= tol,
            f"max pair dev {dev:.3e} <= {tol:.1e} ({detail})")


def test_c4_energy_conservation(ev64):
    start = time.perf_counter()
    worst = 0.0
    for t in (0.0, 1.0, 5.0, 20.0, 100.0):
        e = energy_integral(ev64, t)
        worst = max(worst, abs(e - math.pi / 2))
    elapsed = time.perf_counter() - start
    _report(4, "energy conservation", worst <= 1e-10 and elapsed < 60.0,
            f"max |E - pi/2| {worst:.3e} <= 1e-10 at t in "
            f"{{0,1,5,20,100}}, {elapsed:.1f} s")


def test_c5_series_remainder(params64):
    bk = mp_backend(110)
    H = float(params64.H)
    eps = float(params64.eps)
    worst_ratio = 0.0
    worst_dev = 0.0
    for t in (float(params64.thr_series), 2.0 * H, 10.0 * H):
        for n in range(7):
            v = asymptotic_In(n, t, params64, backend=bk)
            ref = in_reference(n, t, dps=110)
            ref = ref.real if n % 2 else ref.imag
            dev = abs(float(v - ref))
            bound = asymptotic_remainder_bound(n, t, params64)
            worst_dev = max(worst_dev, dev)
            if bound > 0:
                worst_ratio = max(worst_ratio, dev / bound)
            ok = dev <= eps / 2 and dev <= bound * (1.0 + 1e-9)
            if not ok:
                _report(5, "series remainder", False,
                        f"n={n} t={t:.4g}: dev {dev:.3e} vs bound "
                        f"{bound:.3e} and eps/2 {eps / 2:.1e}")
    _report(5, "series remainder", True,
            f"max dev {worst_dev:.3e} <= eps/2, max dev/bound "
            f"{worst_ratio:.3f} <= 1 for n in 0..6, t in "
            f"{{1.31H, 2H, 10H}}")


def _legendre_moment(k):
    return Fraction(0) if k % 2 else Fraction(2, k + 1)


def _jacobi_moment(k):
    # int x^k (1+x)^{-1/2} dx = sqrt(2) sum_j C(k,j)(-1)^{k-j} 2^{j+1}/(2j+1)
    s = Fraction(0)
    for j in range(k + 1):
        s += Fraction(math.comb(k, j) * (-1) ** (k - j) * 2 ** (j + 1),
                      2 * j + 1)
    return s


def test_c6_rule_exactness():
    worst = 0.0
    sqrt2 = math.sqrt(2.0)
    for m in range(1, 11):
        gl = gauss_legendre(m)
        gj = gauss_jacobi_m12(m)
        for k in range(2 * m):
            q = float(np.sum(gl.weights * gl.nodes ** k))
            ref = float(_legendre_moment(k))
            worst = max(worst, abs(q - ref) / max(abs(ref), 2.0))
            q = float(np.sum(gj.weights * gj.nodes ** k))
            ref = sqrt2 * float(_jacobi_moment(k))
            worst = max(worst, abs(q - ref) / max(abs(ref), 2.0 * sqrt2))
    node_dev = abs(gauss_legendre(2).nodes[1] - 1.0 / math.sqrt(3.0))
    _report(6, "rule exactness", worst <= 1e-13 and node_dev <= 1e-15,
            f"max relative moment error {worst:.3e} <= 1e-13 for m <= 10 "
            f"(degree <= 2m-1, both weights); 2-node Legendre node off by "
            f"{node_dev:.1e} <= 1e-15")


def test_c7_bound_certification():
    checked = 0
    worst = 0.0
    with mpmath.workdps(40):
        sq2pi = mpmath.sqrt(2 * mpmath.pi)

        def gauss_tail(f, L):
            v = mpmath.quad(lambda x: f(x) * mpmath.exp(-x * x / 2),
                            [L, mpmath.inf])
            return 2.0 * abs(float(v))

        def grid(f, h, n):
            return h * mpmath.fsum(
                f(k * h) * mpmath.exp(-((k * h) ** 2) / 2)
                for k in range(-n, n + 1))

        # f = 1 and f = cos 3x on the production step law
        for m2 in (6, 10, 15):
            h = mpmath.mpf(uniform_step(m2))
            L = (m2 + mpmath.mpf(1) / 2) * h
            b = 2 * mpmath.pi / h
            cases = [
                (lambda x: mpmath.mpf(1), sq2pi, 1.0, 1.0),
                (lambda x: mpmath.cos(3 * x), sq2pi * mpmath.exp(-mpmath.mpf(9) / 2),
                 float(mpmath.cosh(3 * b)),
                 float(mpmath.sqrt(mpmath.sinh(3 * b) ** 2
                                   + mpmath.cos(3 * L) ** 2))),
            ]
            for f, exact, f0, f1 in cases:
                err = abs(float(grid(f, h, m2) - exact))
                bound = trapezoid_bound(
                    h=float(h), n=m2, f0_bound=f0, f1_bound=f1,
                    tail_bound=gauss_tail(f, L))
                worst = max(worst, err / bound)
                checked += 1

        # f = 1/(x^2 + 9): poles at +-3i force h > 2 pi / 3
        pole = lambda x: 1 / (x * x + 9)
        exact = (mpmath.pi / 3) * mpmath.exp(mpmath.mpf(9) / 2) \
            * mpmath.erfc(3 / mpmath.sqrt(2))
        direct = mpmath.quad(lambda x: pole(x) * mpmath.exp(-x * x / 2),
                             [-mpmath.inf, 0, mpmath.inf])
        assert abs(float(exact - direct)) < 1e-35
        for h_f, n in ((2.2, 4), (2.5, 4), (2.9, 3)):
            h = mpmath.mpf(h_f)
            L = (n + mpmath.mpf(1) / 2) * h
            b = float(2 * mpmath.pi / h)
            err = abs(float(grid(pole, h, n) - exact))
            bound = trapezoid_bound(
                h=h_f, n=n, f0_bound=1.0 / (9.0 - b * b),
                f1_bound=1.0 / (float(L) ** 2 - b * b + 9.0),
                tail_bound=gauss_tail(pole, L))
            worst = max(worst, err / bound)
            checked += 1

        # Gauss-Legendre on f = e^{-x}, sup over the rho = 1 + sqrt 2 ellipse
        exact = mpmath.e - 1 / mpmath.e
        fmax = math.exp(math.sqrt(2.0))
        mb = mp_backend(40)
        for m in range(4, 13):
            gl = gauss_legendre(m, mb)
            q = mpmath.fsum(w * mpmath.exp(-x)
                            for x, w in zip(gl.nodes, gl.weights))
            err = abs(float(q - exact))
            bound = gauss_bound(m=m, mu0=2.0, fmax=fmax)
            worst = max(worst, err / bound)
            checked += 1

    _report(7, "bound certification", worst <= 1.1,
            f"max empirical/bound ratio {worst:.3f} <= 1.1 over "
            f"{checked} (rule, integrand) cases")


def test_c8_throughput(ev64):
    t, r, _ = stratified_sample(ev64, 200000)
    ev64.evaluate_arrays(t[:4096], r[:4096])
    start = time.perf_counter()
    ev64.evaluate_arrays(t, r)
    elapsed = time.perf_counter() - start
    rate = t.size / elapsed
    _report(8, "throughput", rate >= 1e5,
            f"{rate:,.0f} points/s >= 100,000 points/s "
            f"({t.size} stratified points, {elapsed:.2f} s)")


def test_c9_operation_count():
    cases = [(2e-16, None, 281), (1e-20, 30, 351), (4e-32, 45, 536)]
    detail = []
    ok = True
    for eps, dps, budget in cases:
        ev = PulseEvaluator(eps) if dps is None \
            else PulseEvaluator(eps, backend=mp_backend(dps))
        P = ev.params
        assert budget == 3 * P.M3 + 2 * P.M2 + P.M + 16
        s = float(P.thr_sum)
        d = float(P.thr_diff)
        ts = float(P.thr_series)
        r1 = float(P.R1)
        r2 = float(P.R2)
        pts = [
            (Region.ZERO, (1.0, 1.0 + s + 1.0)),
            (Region.SMALL_T, (float(P.eps) * 0.25, 1.0)),
            (Region.FORM1_GL, (s / 4, s / 4)),
            (Region.SERIES, (ts + 5.0, r1 / 2)),
            (Region.FORM2_UNIFORM, (d + 3.0, 1.0)),
            (Region.FORM2_JACOBI, (s, r2 + 1.0)),
            (Region.FORM3_GL, (s, r2 / 2)),
        ]
        # one point inside each node class: Form1GL between its r edges,
        # Form2Jacobi between its crop-span edges, t + r above thr_sum
        tb = ev.tables
        r_edges = [0.0, *map(float, tb.f1_edges), s]
        for lo, hi in zip(r_edges, r_edges[1:]):
            r = (lo + hi) / 2
            pts.append((Region.FORM1_GL, ((s - r) / 2, r)))
        h = float(P.H)
        s_edges = [0.0, *map(float, tb.gj_edges), d + h]
        for lo, hi in zip(s_edges, s_edges[1:]):
            dd = (lo + hi) / 2 - h
            r = max((s - dd) / 2 + 0.5, r2 + 0.5)
            pts.append((Region.FORM2_JACOBI, (r + dd, r)))
        top = 0
        for region, (t, r) in pts:
            assert ev.classify(t, r) is region, (eps, region)
            top = max(top, ev.kernel_count(t, r))
        detail.append(f"eps {eps:g}: max {top} <= {budget}")
        ok = ok and top <= budget
    _report(9, "operation count", ok, "; ".join(detail))
