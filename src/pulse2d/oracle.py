"""Extended-precision reference evaluator (slow, certified by agreement).

Computes (p, u_r) by independent integral routes in mpmath and only returns
a value when the routes agree to 1e-3 x target_tol; disagreement raises.
The production quadratures use cropped and discretized variants of the same
representations, so the oracle integrates the *exact* integrals instead,
under substitutions that remove the endpoint singularities:

* half-line route: xi = s^2 turns the half-line integrand singular like
  xi^(-1/2) into an analytic, non-oscillatory one in s;
* self-similar route: xi = s^2 likewise on [0, 1], with both scaled
  modified Bessel kernels;
* axis route (r = 0): closed form via the Dawson function;
* oscillatory route (optional, small t and r): panel quadrature of the
  Fourier-Bessel integral, panel width pi / (2 max(t, r, 1)).

Panel edges are placed so each composite 32-node Gauss-Legendre panel sees
at most ~0.7 units of the Gaussian argument and at most a 0.8-wide slice of
the substitution variable, keeping every panel deep inside the integrand's
analyticity region.  The walker runs in float; only node evaluation runs in
extended precision.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import mpmath

from .numerics import mp_backend
from .quadrature import gauss_legendre
from .specfun import mp_axis_pressure, mp_scaled_i_pair

__all__ = ["OracleError", "OracleResult", "oracle_eval", "in_reference",
           "verify_on_lattice", "LatticeReport"]


class OracleError(RuntimeError):
    """Cross-route disagreement or an invalid reference request."""


@dataclass(frozen=True)
class OracleResult:
    p: object           # mpf
    ur: object          # mpf
    est_err: float      # max componentwise cross-route disagreement
    routes: tuple
    target_tol: float


@dataclass(frozen=True)
class LatticeReport:
    n_points: int
    max_dp: float
    max_dur: float
    worst_t: float
    worst_r: float
    worst_region: str
    est_err_max: float


def _edges(lo, hi, scale, du=0.7, cap=0.8):
    """Panel edges on [lo, hi] with Gaussian-argument steps <= du.

    The Gaussian argument is u = u0 + scale * s^2, so the step solving
    scale * ((s+d)^2 - s^2) = du is d = sqrt(s^2 + du/scale) - s.
    """
    if hi <= lo:
        return [lo, lo]
    edges = [lo]
    s = lo
    span_floor = (hi - lo) * 1e-9
    while s < hi:
        if scale > 0:
            step = math.sqrt(s * s + du / scale) - s
        else:
            step = cap
        step = min(step, cap)
        step = max(step, span_floor, 1e-12)
        s = s + step
        if s > hi:
            s = hi
        edges.append(s)
        if len(edges) > 200000:
            raise OracleError("panel walker runaway")
    return edges


def _integrate_panels(f, edges, rule, n_out):
    """Composite Gauss-Legendre of a tuple-valued mpf integrand."""
    nodes = rule.nodes
    weights = rule.weights
    tot = [mpmath.mpf(0)] * n_out
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        am = mpmath.mpf(a)
        bm = mpmath.mpf(b)
        mid = (am + bm) / 2
        hw = (bm - am) / 2
        acc = [mpmath.mpf(0)] * n_out
        for xk, wk in zip(nodes, weights):
            vals = f(mid + hw * xk)
            for i in range(n_out):
                acc[i] += wk * vals[i]
        for i in range(n_out):
            tot[i] += hw * acc[i]
    return tot


def _halfline_tau(tau, r, G, rule):
    """(J_0, J_1) at shift tau for r > 0, both with the s = sqrt(xi) map."""
    ulo = r - tau
    ulo_f = float(ulo)
    r_f = float(r)
    s2g = math.sqrt(2.0 * G)
    if ulo_f >= 0:
        ua = ulo_f
        ub = math.sqrt(ulo_f * ulo_f + 2.0 * G)
    else:
        ua = max(ulo_f, -s2g)
        ub = s2g
    slo = math.sqrt(max(ua - ulo_f, 0.0) / r_f)
    shi = math.sqrt((ub - ulo_f) / r_f)
    edges = _edges(slo, shi, scale=r_f)
    pref = 2 / mpmath.sqrt(2 * mpmath.pi)

    def f(s):
        u = ulo + r * s * s
        base = mpmath.exp(-u * u / 2) * u / mpmath.sqrt(s * s + 2)
        return base, base * (1 + s * s)

    i0, i1 = _integrate_panels(f, edges, rule, 2)
    return pref * i0, pref * i1


def _halfline(t, r, G, rule):
    a0, a1 = _halfline_tau(t, r, G, rule)
    b0, b1 = _halfline_tau(-t, r, G, rule)
    return a0 + b0, a1 - b1


def _selfsim(t, r, G, rule, dps):
    """(p, u_r) through the self-similar moments on [0, 1]."""
    t_f = float(t)
    r_f = float(r)
    ulo = r - t
    ulo_f = r_f - t_f
    s2g = math.sqrt(2.0 * G)
    if t_f == 0.0:
        slo, shi = 0.0, 1.0
    elif ulo_f >= 0:
        ub = min(r_f, math.sqrt(ulo_f * ulo_f + 2.0 * G))
        slo = 0.0
        shi = min(1.0, math.sqrt((ub - ulo_f) / t_f))
    else:
        ua = max(ulo_f, -s2g)
        ub = min(r_f, s2g)
        slo = math.sqrt((ua - ulo_f) / t_f)
        shi = min(1.0, math.sqrt((ub - ulo_f) / t_f))

    def f(s):
        u = ulo + t * s * s
        z = 1 - s * s
        i0k, i1k = mp_scaled_i_pair(r * t * z, dps)
        bz = 2 * mpmath.exp(-u * u / 2) / mpmath.sqrt(2 - s * s) * z
        return bz * i0k, bz * z * z * i0k, bz * z * i1k

    edges = _edges(slo, shi, scale=t_f, cap=0.3)
    j01, j03, j12 = _integrate_panels(f, edges, rule, 3)
    p = j01 - t * t * j03 + r * t * j12
    ur = r * t * j01 - t * t * j12
    return p, ur


def _oscillatory(t, r, tol_f, rule):
    """Fourier-Bessel route; only sensible for small t and r."""
    w_hi = math.sqrt(-2.0 * math.log(min(tol_f, 0.125) / 8.0))
    width = math.pi / (2.0 * max(float(t), float(r), 1.0))
    n_pan = max(2, int(math.ceil(w_hi / width)))
    edges = [w_hi * i / n_pan for i in range(n_pan + 1)]

    def f(w):
        e = w * mpmath.exp(-w * w / 2)
        return (e * mpmath.besselj(0, r * w) * mpmath.cos(t * w),
                e * mpmath.besselj(1, r * w) * mpmath.sin(t * w))

    return tuple(_integrate_panels(f, edges, rule, 2))


def oracle_eval(t, r, target_tol=1e-18, use_form1="auto"):
    """Certified reference value of (p, u_r) at one point.

    target_tol in [1e-20, 1e-6]; the returned values are far more accurate
    than target_tol whenever the routes agree, and the gate rejects the
    point otherwise.  use_form1: True/False/"auto" adds the oscillatory
    route as a third check ("auto": only where it is cheap).
    """
    t_f = float(t)
    r_f = float(r)
    if not (math.isfinite(t_f) and math.isfinite(r_f)) or t_f < 0 or r_f < 0:
        raise OracleError(f"invalid point t={t!r}, r={r!r}")
    if not 1e-20 <= target_tol <= 1e-6:
        raise OracleError(f"target_tol out of range: {target_tol!r}")
    digits = int(math.ceil(-math.log10(target_tol)))
    dps = digits + 22
    with mpmath.workdps(dps):
        tm = mpmath.mpf(t_f)
        rm = mpmath.mpf(r_f)
        G = math.log(1.0 / target_tol) + 46.0
        rule = gauss_legendre(32, mp_backend(dps))
        routes = []
        if r_f == 0.0:
            routes.append(("axis", (mp_axis_pressure(tm, dps), mpmath.mpf(0))))
            routes.append(("selfsim", _selfsim(tm, rm, G, rule, dps)))
        else:
            routes.append(("halfline", _halfline(tm, rm, G, rule)))
            routes.append(("selfsim", _selfsim(tm, rm, G, rule, dps)))
            if use_form1 is True or (use_form1 == "auto"
                                     and max(t_f, r_f) <= 2.5):
                routes.append(
                    ("oscillatory", _oscillatory(tm, rm, target_tol * 1e-3,
                                                 rule)))
        est = mpmath.mpf(0)
        for i in range(len(routes)):
            for j in range(i + 1, len(routes)):
                est = max(est,
                          abs(routes[i][1][0] - routes[j][1][0]),
                          abs(routes[i][1][1] - routes[j][1][1]))
        gate = mpmath.mpf(target_tol) * mpmath.mpf("1e-3")
        if est > gate:
            raise OracleError(
                f"cross-route disagreement {float(est):.3e} exceeds gate "
                f"{float(gate):.3e} at t={t_f!r}, r={r_f!r} "
                f"(routes: {', '.join(n for n, _ in routes)})")
        p, ur = routes[0][1]
        return OracleResult(p=p, ur=ur, est_err=float(est),
                            routes=tuple(n for n, _ in routes),
                            target_tol=float(target_tol))


def in_reference(n, t, dps=60):
    """Reference I_n(t) = int_0^inf He_n(w) e^{-w^2/2} e^{iwt} dw (mpc).

    Two independent routes: the exact recurrence
    I_{k+1} = i t I_k + He_k(0) seeded with the closed-form I_0, and panel
    quadrature of the defining integral; raises on disagreement.
    """
    if not isinstance(n, int) or not 0 <= n <= 8:
        raise OracleError(f"n out of range: {n!r}")
    # each step with He_k(0) != 0 cancels ~log10(t |I_{k+1}|) digits, so the
    # chain runs with headroom for that loss
    with mpmath.workdps(dps + 2 * n + 8):
        tm = mpmath.mpf(t)
        arg = tm / mpmath.sqrt(2)
        daw = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-arg * arg) * mpmath.erfi(arg)
        val = mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(-tm * tm / 2) \
            + mpmath.mpc(0, 1) * mpmath.sqrt(2) * daw
        he0 = [1, 0, -1, 0, 3, 0, -15, 0, 105]
        for k in range(n):
            val = mpmath.mpc(0, 1) * tm * val + he0[k]
    with mpmath.workdps(dps):
        q = _in_quadratures(t, dps)
        quad = mpmath.mpc(q[2 * n], q[2 * n + 1])
        diff = abs(val - quad)
        scale = max(abs(val), mpmath.mpf(1))
        if diff > scale * mpmath.mpf(10) ** (-(dps - 12)):
            raise OracleError(
                f"I_{n}({float(t)}) routes disagree by {float(diff):.3e}")
        return val


@functools.lru_cache(maxsize=16)
def _in_quadratures(t, dps):
    """Panel quadrature of the I_n(t) integral for n = 0..8 at once, as
    (Re I_0, Im I_0, Re I_1, ...).

    One node set serves every n: its cut-off w_hi is the one n = 8 needs,
    and He_n comes from the recurrence He_{k+1} = w He_k - k He_{k-1}, so
    each node costs one exp and one cos_sin for all nine integrals.
    """
    with mpmath.workdps(dps):
        tm = mpmath.mpf(t)
        w_hi = math.sqrt(2.0 * (dps * math.log(10.0) + 40.0))
        w_hi = math.sqrt(2.0 * (dps * math.log(10.0) + 40.0
                                + 8 * math.log(1.0 + w_hi)))
        width = math.pi / (2.0 * max(float(t), 1.0))
        n_pan = max(2, int(math.ceil(w_hi / width)))
        edges = [w_hi * i / n_pan for i in range(n_pan + 1)]
        # panel truncation goes like (e phase / 4m)^(2m) at phase <= pi/4
        # per panel, so the rule order must grow with the digit request
        m_rule = 24 + dps // 3

        def f(w):
            e = mpmath.exp(-w * w / 2)
            c, s = mpmath.cos_sin(tm * w)
            ec, es = e * c, e * s
            out = []
            hkm, hk = mpmath.mpf(0), mpmath.mpf(1)
            for k in range(9):
                out += [hk * ec, hk * es]
                hkm, hk = hk, w * hk - k * hkm
            return out

        rule = gauss_legendre(m_rule, mp_backend(dps))
        return tuple(_integrate_panels(f, edges, rule, 18))


def _oracle_map(tt, rr, target_tol):
    """oracle_eval without the oscillatory route at each point, in order,
    from up to four processes."""
    with ProcessPoolExecutor(min(4, os.cpu_count() or 1)) as pool:
        yield from pool.map(oracle_eval, tt, rr, [target_tol] * len(tt),
                            [False] * len(tt), chunksize=8)


def verify_on_lattice(evaluator, ns, ms, target_tol=None, base=1.01,
                      progress=None):
    """Max deviation of the evaluator against the oracle on a power lattice.

    Points are (t, r) = (base^n, base^m).  Deviations are measured in
    extended precision; the report carries the worst point and the largest
    oracle-internal disagreement seen.
    """
    if target_tol is None:
        target_tol = max(float(evaluator.params.eps) * 0.05, 1e-20)
    ns = list(ns)
    ms = list(ms)
    tvals = [float(base) ** n for n in ns]
    rvals = [float(base) ** m for m in ms]
    tt = [tv for tv in tvals for _ in rvals]
    rr = rvals * len(tvals)
    p, u, codes = evaluator.evaluate_arrays(tt, rr)
    max_dp = -1.0
    max_du = -1.0
    worst = (float("nan"), float("nan"), "", 0.0)
    est_max = 0.0
    digits = int(math.ceil(-math.log10(target_tol)))
    dps = digits + 22
    from .dispatch import Region
    refs = _oracle_map(tt, rr, target_tol)
    for i, (tv, rv, ref) in enumerate(zip(tt, rr, refs)):
        est_max = max(est_max, ref.est_err)
        with mpmath.workdps(dps):
            dp = float(abs(mpmath.mpf(float(p[i])) - ref.p))
            du = float(abs(mpmath.mpf(float(u[i])) - ref.ur))
        if max(dp, du) > max(max_dp, max_du):
            worst = (tv, rv, Region(int(codes[i])).label, max(dp, du))
        max_dp = max(max_dp, dp)
        max_du = max(max_du, du)
        if progress is not None and (i + 1) % progress == 0:
            print(f"  ... {i + 1}/{len(tt)} points, "
                  f"max |dp|={max_dp:.3e}, max |dur|={max_du:.3e}")
    return LatticeReport(n_points=len(tt), max_dp=max_dp, max_dur=max_du,
                         worst_t=worst[0], worst_r=worst[1],
                         worst_region=worst[2], est_err_max=est_max)
