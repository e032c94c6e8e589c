"""Per-region kernels against frozen cross-route reference values."""

import math

import mpmath
import numpy as np
import pytest

from pulse2d.dispatch import Region, make_params
from pulse2d.forms import (
    _two_prod,
    _uniform_terms,
    form1_eval,
    form2_jacobi_eval,
    form2_uniform_eval,
    form3_eval,
    small_t_eval,
    zero_eval,
)
from pulse2d.numerics import mp_backend

# doubles nearest the frozen 22-digit oracle anchors
REF = {
    (2.0, 1.0): (-0.111390122688882444818, 0.09834789895940712918726,
                 Region.FORM1_GL),
    (0.5, 0.3): (0.7450615827142676124412, 0.121672822885250241892,
                 Region.FORM1_GL),
    (4.0, 4.9): (0.153398569281866984447, 0.166114179422174690125,
                 Region.FORM1_GL),
    (9.0, 5.0): (-0.02496484468674173477322, -0.01489495730571300082251,
                 Region.FORM2_JACOBI),
    (150.0, 148.0): (-0.01372128187457875818947, -0.01356630837631038393881,
                     Region.FORM2_JACOBI),
    (391.5, 380.0): (-0.0004752788659997030551111, -0.00046147704493288819005,
                     Region.FORM2_UNIFORM),
    (30.0, 1.0): (-0.001116710860623739888577, -0.00003734889190295964099238,
                  Region.FORM2_UNIFORM),
    (9.2, 0.1): (-0.01226292193505599840484, -0.0001384620400538167730181,
                 Region.FORM3_GL),
}

_KERNELS = {
    Region.FORM1_GL: form1_eval,
    Region.FORM2_UNIFORM: form2_uniform_eval,
    Region.FORM2_JACOBI: form2_jacobi_eval,
    Region.FORM3_GL: form3_eval,
}


@pytest.mark.parametrize("point", sorted(REF))
def test_kernel_matches_reference(ev64, point):
    t, r = point
    p_ref, u_ref, region = REF[point]
    assert ev64.classify(t, r) is region
    fn = _KERNELS[region]
    p, u = fn(ev64, np.array([t]), np.array([r]))
    # deterministic double roundoff stays within the 2e-16 accuracy target
    assert abs(p[0] - p_ref) < 2.5e-16, f"p off by {abs(p[0] - p_ref):.2e}"
    assert abs(u[0] - u_ref) < 2.5e-16, f"u off by {abs(u[0] - u_ref):.2e}"


def test_small_t_exact(ev64):
    t = np.array([1e-18])
    r = np.array([1.0])
    p, u = small_t_eval(ev64, t, r)
    assert p[0] == math.exp(-0.5)
    # u_t = -dp/dr = r exp(-r^2/2) at t = 0, so u_r = +t r p
    assert u[0] == 1e-18 * math.exp(-0.5)
    # t = 0 hits the initial condition exactly
    p0, u0 = small_t_eval(ev64, np.array([0.0]), np.array([0.0]))
    assert p0[0] == 1.0
    assert u0[0] == 0.0


def test_zero_region_is_justified(ev64):
    # solution magnitude ahead of the front at the cropped points, from the
    # extended-precision oracle: |p(1, 30)| ~ 1.2e-183, |p(5, 16)| ~ 2.2e-27,
    # both far below the 2e-16 absolute target
    for t, r in ((1.0, 30.0), (5.0, 16.0)):
        assert ev64.classify(t, r) is Region.ZERO
        p, u = zero_eval(ev64, np.array([t]), np.array([r]))
        assert p[0] == 0.0
        assert u[0] == 0.0


def test_two_prod_exact():
    rng = np.random.default_rng(7)
    a = rng.uniform(-50, 50, 64)
    b = rng.uniform(-50, 50, 64)
    p, err = _two_prod(a, b)
    for i in range(64):
        exact = mpmath.fmul(float(a[i]), float(b[i]), exact=True)
        with mpmath.workdps(40):
            assert mpmath.mpf(float(p[i])) + mpmath.mpf(float(err[i])) == exact


def test_uniform_terms_match_mp(ev64):
    # double bracket terms against the same algebra in mp arithmetic
    from pulse2d.dispatch import PulseEvaluator

    em = PulseEvaluator(2e-16, backend=mp_backend(30))
    t, r = 30.0, 1.0
    (f0,), (f1,) = _uniform_terms(ev64, np.array([t]), np.array([r]))
    bk = em.backend
    (f0m,), (f1m,) = _uniform_terms(em, bk.asarray([t]), bk.asarray([r]))
    kh, khm = ev64.tables.u_kh, em.tables.u_kh
    assert np.allclose(kh, [float(v) for v in khm], rtol=0, atol=1e-18)
    for a, b in zip(f0, f0m):
        assert abs(a - float(b)) <= 4 * abs(a) * 2.3e-16 + 1e-300
    for a, b in zip(f1, f1m):
        assert abs(a - float(b)) <= 4 * abs(a) * 2.3e-16 + 1e-300


# log sweep of the float64 range, plus the tightest eps found by a 10^5
# point sweep (margin 0.012 H, where M2 steps from 15 to 16)
_SWEEP_EPS = [*np.logspace(-300, math.log10(2e-16), 2000),
              1.0324834142370396e-16]


def test_form2_regions_need_no_negative_shift():
    # form2_uniform_eval and form2_jacobi_eval sum tau = t only.  That is
    # exact only if every uniform node kh <= M2 h lies below t - r >
    # thr_diff (else a +kh node loses its -kh partner and, for kh > t + r,
    # tau = -t nodes enter) and if t + r >= thr_sum puts the tau = -t
    # half-line beyond the crop radius H.  Nothing checks this at run time.
    cases = [(e, None) for e in _SWEEP_EPS]
    cases += [(1e-30, mp_backend(40)), (1e-40, mp_backend(50))]
    for eps, bk in cases:
        P = make_params(eps) if bk is None else make_params(eps, bk)
        assert P.thr_diff > P.M2 * P.h, eps
        assert P.thr_sum > P.H, eps


def test_diameter_mean_node_law():
    # N_f1 = 2 M_f1 - 2 is the smallest N = 2 mod 4 with N >= 1.2 thr_sum H.
    # A dense sweep along Form1GL's edges, seam strip included, read a
    # quadrature error of at most 0.001 eps at 2e-16 and below it at 1e-20
    # to 1e-40, against N - 4 at 0.02 eps (2e-16).  The axis band keeps
    # N_ax = 10 at every eps: its error goes like R2^10 = 5^10 eps, and the
    # sweep read at most 1.3e-4 eps.
    cases = [(e, None) for e in _SWEEP_EPS]
    cases += [(1e-30, mp_backend(40)), (1e-40, mp_backend(50))]
    for eps, bk in cases:
        P = make_params(eps) if bk is None else make_params(eps, bk)
        n = 2 * P.M_f1 - 2
        law = 1.2 * float(P.thr_sum) * float(P.H)
        assert n % 4 == 2 and law <= n < law + 4, eps
        assert P.M_ax == 6, eps
    assert make_params(2e-16).M_f1 == 48
    assert make_params(1e-30, mp_backend(40)).M_f1 == 90
    assert make_params(1e-40, mp_backend(50)).M_f1 == 118


def _crop_seam_points(P):
    """Form3GL and Form2Jacobi points where their crops cost the most."""
    s, d, ts = float(P.thr_sum), float(P.thr_diff), float(P.thr_series)
    r1, r2 = float(P.R1), float(P.R2)
    # Form3GL band corner, t within 0.05 of t + r = thr_sum, r <= R2
    rb, dt = np.meshgrid(np.linspace(0, r2, 20), np.linspace(0, 0.05, 15))
    # Form3GL deep axis strip, thr_diff < t - r, t < thr_series, r <= R1
    ta, ra = np.meshgrid(np.linspace(d + r1, ts, 12)[1:-1],
                         np.linspace(0, r1, 10))
    # Form2Jacobi off the band corner, and along the seam t - r = thr_diff
    rj, dj = np.meshgrid(np.linspace(1.001 * r2, 3.0, 10),
                         np.linspace(0, 0.05, 4))
    rs, off = np.meshgrid(np.geomspace(1.001 * r2, 60.0, 10),
                          np.linspace(-0.3, 0, 4))
    t = np.concatenate([(s - rb + dt).ravel(), ta.ravel(),
                        (s - rj + dj).ravel(), (rs + d + off).ravel()])
    r = np.concatenate([rb.ravel(), ra.ravel(), rj.ravel(), rs.ravel()])
    return t, r


def test_float64_crop_seams_meet_eps(ev64):
    # float64 against a 1e-30 evaluator.  With Form3GL cropped at H these
    # points read up to 1.32 eps (the crop alone 1.83 eps, offset in part
    # by rounding); cropped at H3, about 0.84 eps.  Form2Jacobi reads about
    # 0.12 eps and guards its node count.
    from pulse2d.dispatch import PulseEvaluator

    t, r = _crop_seam_points(ev64.params)
    p, u, codes = ev64.evaluate_arrays(t, r)
    n3 = int(np.count_nonzero(codes == Region.FORM3_GL))
    assert n3 == 400
    assert np.count_nonzero(codes == Region.FORM2_JACOBI) == t.size - n3
    em = PulseEvaluator(1e-30, backend=mp_backend(40))
    pm, um, _ = em.evaluate_arrays(list(t), list(r))
    eps = float(ev64.eps)
    with em.backend.workprec():
        err = np.array([max(abs(a - mpmath.mpf(float(b))),
                            abs(c - mpmath.mpf(float(d))))
                        for a, b, c, d in zip(pm, p, um, u)], dtype=float)
    err /= eps
    for region, limit in ((Region.FORM3_GL, 1.0), (Region.FORM2_JACOBI, 0.25)):
        sel = np.flatnonzero(codes == region)
        k = sel[np.argmax(err[sel])]
        assert err[k] <= limit, (region.label, t[k], r[k], err[k])


def test_float64_form1_and_axis_band_meet_eps(ev64):
    # about 1,000 stratified points each of Form1GL and Form3GL against a
    # 1e-30 evaluator in 40 digits.  Form1GL read up to 1.30 eps when it
    # summed 48 Gauss nodes of four Bessel/trig calls with np.sum; the
    # diameter mean reads about 0.5 eps
    from pulse2d.diagnostics import stratified_sample
    from pulse2d.dispatch import PulseEvaluator

    parts = [stratified_sample(ev64, 7 * 334, seed=seed)
             for seed in (301, 302, 303)]
    t = np.concatenate([q[0] for q in parts])
    r = np.concatenate([q[1] for q in parts])
    codes = np.concatenate([q[2] for q in parts])
    keep = (codes == Region.FORM1_GL) | (codes == Region.FORM3_GL)
    t, r, codes = t[keep], r[keep], codes[keep]
    assert t.size >= 2000
    p, u, _ = ev64.evaluate_arrays(t, r)
    em = PulseEvaluator(1e-30, backend=mp_backend(40))
    pm, um, _ = em.evaluate_arrays(list(t), list(r))
    with em.backend.workprec():
        err = np.array([max(abs(a - mpmath.mpf(float(b))),
                            abs(c - mpmath.mpf(float(d))))
                        for a, b, c, d in zip(pm, p, um, u)], dtype=float)
    err /= float(ev64.eps)
    k = int(np.argmax(err))
    assert err[k] <= 1.0, (Region(int(codes[k])).label, t[k], r[k], err[k])


def test_batch_matches_single(ev64):
    # chunked array evaluation must be bit-identical to one-at-a-time calls
    pts = [(2.0, 1.0), (9.0, 5.0), (30.0, 1.0), (9.2, 0.1), (12.0, 0.003),
           (0.5, 0.3), (1.0, 30.0), (150.0, 148.0)]
    batch = ev64.evaluate_batch(pts)
    for (t, r), sol in zip(pts, batch):
        one = ev64.evaluate(t, r)
        assert one.p == sol.p
        assert one.ur == sol.ur
        assert one.region is sol.region


def test_form1_mp_agreement(ev64):
    # the double-double node table must reproduce the mp result to ~eps
    from pulse2d.dispatch import PulseEvaluator

    em = PulseEvaluator(2e-16, backend=mp_backend(30))
    for t, r in ((2.0, 1.0), (8.9, 0.05), (0.05, 8.9)):
        assert ev64.classify(t, r) is Region.FORM1_GL
        p, u = form1_eval(ev64, np.array([t]), np.array([r]))
        with em.backend.workprec():
            pm, um = form1_eval(em, em.backend.asarray([t]),
                                em.backend.asarray([r]))
        assert abs(p[0] - float(pm[0])) < 3e-16
        assert abs(u[0] - float(um[0])) < 3e-16
