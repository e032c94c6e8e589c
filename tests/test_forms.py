"""Per-region kernels against frozen cross-route reference values."""

import math

import mpmath
import numpy as np
import pytest

from pulse2d import forms
from pulse2d.dispatch import Region, make_params, region_eval
from pulse2d.forms import (
    _uniform_terms,
    _veltkamp_hi,
    diameter_mean_eval,
    form1_classes,
    form2_jacobi_classes,
    form2_jacobi_eval,
    small_t_eval,
)
from pulse2d.numerics import FLOAT64, mp_backend

# doubles nearest the frozen 22-digit oracle anchors.  The cases are named
# by position in this order, so new anchors go at the end
REF = {
    (0.5, 0.3): (0.7450615827142676124412, 0.121672822885250241892,
                 Region.FORM1_GL),
    (2.0, 1.0): (-0.111390122688882444818, 0.09834789895940712918726,
                 Region.FORM1_GL),
    (4.0, 4.9): (0.153398569281866984447, 0.166114179422174690125,
                 Region.FORM1_GL),
    (9.0, 5.0): (-0.02496484468674173477322, -0.01489495730571300082251,
                 Region.FORM2_JACOBI),
    (9.2, 0.1): (-0.01226292193505599840484, -0.0001384620400538167730181,
                 Region.FORM3_GL),
    (30.0, 1.0): (-0.001116710860623739888577, -0.00003734889190295964099238,
                  Region.FORM2_UNIFORM),
    (150.0, 148.0): (-0.01372128187457875818947, -0.01356630837631038393881,
                     Region.FORM2_JACOBI),
    (391.5, 380.0): (-0.0004752788659997030551111, -0.00046147704493288819005,
                     Region.FORM2_UNIFORM),
    (390.0, 385.0): (-0.001764077986713359335733, -0.001743000912739617348426,
                     Region.FORM2_JACOBI),
    (8.82, 0.35): (-0.01342055005471566194366, -0.0005552729808392717917174,
                   Region.FORM2_JACOBI),
}

@pytest.mark.parametrize("point", list(REF))
def test_kernel_matches_reference(ev64, point):
    t, r = point
    p_ref, u_ref, region = REF[point]
    assert ev64.classify(t, r) is region
    p, u = region_eval(ev64, region, np.array([t]), np.array([r]))
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
        p, u = region_eval(ev64, Region.ZERO, np.array([t]), np.array([r]))
        assert p[0] == 0.0
        assert u[0] == 0.0


def _has_26_bits(v):
    return all((math.frexp(x)[0] * 2.0 ** 26).is_integer() for x in v)


def test_half_node_split_is_exact(ev64):
    # Form2Jacobi's span * half node: the 26-bit leading parts multiply
    # exactly, and half26 + half_lo carries the 40-digit node up to the
    # rounding of half_lo, at most 2**-53 |half_lo| <= 2**-80 of the node
    from pulse2d.quadrature import gauss_jacobi_m12

    ss = np.random.default_rng(7).uniform(0, 2.2 * float(ev64.params.H),
                                          2000)
    s_hi = _veltkamp_hi(ss)
    assert _has_26_bits(s_hi)
    src = mp_backend(40)
    for rule in ev64.tables.gj:
        h26 = rule.half26
        assert _has_26_bits(h26)
        with src.workprec():
            gj = gauss_jacobi_m12(rule.width, src)
            for a, b, x in zip(h26, rule.half_lo, (gj.nodes + 1) / 2):
                rel = abs(mpmath.mpf(float(a)) + mpmath.mpf(float(b)) - x) / x
                assert rel <= 2.0 ** -79, (float(x), float(rel))
        prod = s_hi[:, None] * h26
        for a, row in zip(s_hi.tolist(), prod.tolist()):
            for b, ab in zip(h26.tolist(), row):
                assert mpmath.fmul(a, b, exact=True) == ab


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


def _aliasing_bound(n, r, H):
    """2 int_0^inf k exp(-k^2/2) |J_{n-1}(k r)| dk: what the n-point diameter
    mean at radius r can miss at any t.  The rule aliases the Fourier
    coefficients n -+ 1 of g(t + r cos theta), each at most the integral
    with |J_{n-+1}|.  Past K the weight leaves (eps/2) e^-30."""
    from scipy.special import jv

    k = np.linspace(0.0, math.sqrt(H * H + 60), 2001)
    return 2 * np.trapezoid(k * np.exp(-k * k / 2) * np.abs(jv(n - 1, k * r)),
                            k)


def _sweep_params():
    for eps in _SWEEP_EPS:
        yield make_params(eps)
    yield make_params(1e-30, mp_backend(40))
    yield make_params(1e-40, mp_backend(50))


def test_diameter_mean_node_law():
    # N_f1 = 2 m - 2, m the values of g of the top class, is the smallest
    # N = 2 mod 4 with N >= 1.2 thr_sum H.
    # A dense sweep along Form1GL's edges, seam strip included, read a
    # quadrature error of at most 0.001 eps at 2e-16 and below it at 1e-20
    # to 1e-40, against N - 4 at 0.02 eps (2e-16).  Each lower Form1GL
    # class takes the smallest N = 2 mod 4 at or above its share of N_f1,
    # and up to its edge the aliasing bound stays below eps/100 (checked on
    # every 20th eps of the sweep; the errors measured at the edges read
    # about 1e-3 eps from 2e-16 to 1e-40).  The axis band keeps N_ax = 10
    # at every eps: its error goes like R2^10 = 5^10 eps, and the sweep
    # read at most 1.3e-4 eps.
    for i, P in enumerate(_sweep_params()):
        bk = mp_backend(50) if isinstance(P.eps, mpmath.mpf) else None
        eps, H = float(P.eps), float(P.H)
        bound = i % 20 == 0 or bk is not None
        widths, edges, _, _ = forms._ladders(P, bk or FLOAT64)
        n = 2 * widths[-1] - 2
        law = 1.2 * float(P.thr_sum) * H
        assert n % 4 == 2 and law <= n < law + 4, eps
        assert len(widths) == len(edges) + 1
        prev = 0.0
        for m, q, e in zip(widths, forms._F1_SHARES, edges):
            nk = 2 * m - 2
            assert nk % 4 == 2 and q * n <= nk < q * n + 4, eps
            assert prev < float(e) < float(P.thr_sum), eps
            assert not bound or _aliasing_bound(nk, float(e), H) <= eps / 100, \
                (eps, nk)
            prev = float(e)
    for eps, bk, m in ((2e-16, FLOAT64, 48), (1e-30, mp_backend(40), 90),
                       (1e-40, mp_backend(50), 118)):
        assert forms._ladders(make_params(eps, bk), bk)[0][-1] == m
    assert forms._N_AX // 2 + 1 == 6


def test_gauss_jacobi_class_law():
    # the top Form2Jacobi class takes M_gj = ceil(0.65 H^2) nodes, each
    # lower class ceil(share * M_gj), and its edge is the span fraction f
    # at which M_gj (1 + 3 f) / 4 equals them.
    # A class holds spans up to its edge e, and t + r >= thr_sum needs r >=
    # (thr_sum + H - span) / 2, so the branch point c = -1 - 4 r / span
    # stays at least 4 r_min / e below the interval, r_min = (thr_sum + H -
    # e) / 2.  Over the sweep that margin reads at least 12.7 for the
    # 1/3 class, 3.49 for 1/2, 1.32 for 2/3 and 0.385 for 5/6 (eps =
    # 7.6e-18; 0.45 at 2e-16); each class is held a little below its
    # figure, and the edge test below measures the error there
    for P in _sweep_params():
        bk = mp_backend(50) if isinstance(P.eps, mpmath.mpf) else FLOAT64
        eps = float(P.eps)
        _, _, widths, edges = forms._ladders(P, bk)
        m_gj = widths[-1]
        law = 0.65 * float(P.H) ** 2
        assert law <= m_gj < law + 1, eps
        assert len(widths) == len(edges) + 1
        full = float(P.thr_diff + P.H)
        prev = 0.0
        for m, q, e, margin in zip(widths, forms._GJ_SHARES, edges,
                                   (12, 3, 1.2, 0.35)):
            f = float(e) / full
            assert m == math.ceil(q * m_gj), eps
            assert abs(m_gj * (1 + 3 * f) / 4 - m) < 1e-9 * m, eps
            assert prev < f < 1, eps
            r_min = (float(P.thr_sum + P.H) - float(e)) / 2
            assert 4 * r_min / float(e) >= margin, (eps, q)
            prev = f
    assert forms._ladders(make_params(2e-16), FLOAT64)[2] == [16, 24, 32, 40,
                                                               48]
    bk = mp_backend(40)
    assert forms._ladders(make_params(1e-30, bk), bk)[2] == [31, 46, 61, 76,
                                                            91]


@pytest.mark.parametrize("eps,dps", [(2e-16, 30), (1e-20, 30), (1e-30, 40),
                                     (1e-40, 50)])
def test_node_classes_meet_eps_at_their_edges(eps, dps):
    # quadrature error alone, in mpmath: each lower class at its edge
    # against a rule of twice the nodes.  Form1GL along the whole t range
    # of its edge radius read 3e-4 to 9e-4 eps; Form2Jacobi at its edge
    # span, from the band's smallest r to 1000, read at most 8.1e-5 eps
    # (2e-16, 40 nodes, r = 1.61), and the lowest class also at the spans
    # 1e-3 and 1e-2 of the largest crop
    from pulse2d.dispatch import PulseEvaluator

    em = PulseEvaluator(eps, backend=mp_backend(dps))
    bk, P, tb = em.backend, em.params, em.tables
    s = float(P.thr_sum)
    with bk.workprec():
        for k, e in enumerate(tb.f1_edges):
            ref = forms._diameter_rule(2 * tb.f1[k].width + 2, bk, bk, True)
            t = bk.asarray(list(np.linspace(1e-3, s - float(e) - 1e-3, 24)))
            r = bk.asarray([e] * 24)
            p, u = diameter_mean_eval(em, t, r, tb.f1[k])
            pr, ur = diameter_mean_eval(em, t, r, ref)
            err = max(abs(a - b) for a, b in zip([*p, *u], [*pr, *ur]))
            assert err <= eps / 100, ("Form1GL", k, float(err) / eps)
        ref = forms._jacobi_rule(2 * tb.gj[-1].width, bk, True)
        full = P.thr_diff + P.H
        spans = list(enumerate(tb.gj_edges))
        spans += [(0, full * f) for f in (bk.scalar(1e-3), bk.scalar(1e-2))]
        for k, e in spans:
            d = e - P.H
            r = bk.asarray(list(np.geomspace((s - float(d)) / 2 + 1e-9,
                                             1000.0, 24)))
            t = r + d
            assert all(em.classify(a, b) is Region.FORM2_JACOBI
                       for a, b in zip(t, r))
            p, u = form2_jacobi_eval(em, t, r, tb.gj[k])
            pr, ur = form2_jacobi_eval(em, t, r, ref)
            err = max(abs(a - b) for a, b in zip([*p, *u], [*pr, *ur]))
            assert err <= eps / 100, ("Form2Jacobi", k, float(err) / eps)


def test_neighbouring_node_classes_agree(ev64):
    # c3's rule across each class edge: on a +-0.02 strip the two classes
    # that meet there agree within 2 eps (r for Form1GL, the crop span
    # t - r + H for Form2Jacobi)
    P, tb = ev64.params, ev64.tables
    s, H = float(P.thr_sum), float(P.H)
    rng = np.random.default_rng(17)
    tol = 2 * float(P.eps)
    w = 0.02
    for k, e in enumerate(tb.f1_edges):
        r = e + rng.uniform(-w, w, 120)
        t = (s - r) * rng.uniform(0.0, 0.999, 120)
        pa, ua = diameter_mean_eval(ev64, t, r, tb.f1[k])
        pb, ub = diameter_mean_eval(ev64, t, r, tb.f1[k + 1])
        dev = max(np.max(np.abs(pa - pb)), np.max(np.abs(ua - ub)))
        assert dev <= tol, ("Form1GL", k, dev)
    for k, e in enumerate(tb.gj_edges):
        d = e - H + rng.uniform(-w, w, 120)
        r = np.exp(rng.uniform(math.log((s - d.min()) / 2 + 1e-6),
                               math.log(400.0), 120))
        t = r + d
        assert np.all(ev64.classify_codes(t, r) == Region.FORM2_JACOBI)
        pa, ua = form2_jacobi_eval(ev64, t, r, tb.gj[k])
        pb, ub = form2_jacobi_eval(ev64, t, r, tb.gj[k + 1])
        dev = max(np.max(np.abs(pa - pb)), np.max(np.abs(ua - ub)))
        assert dev <= tol, ("Form2Jacobi", k, dev)


def test_node_class_follows_the_edges(ev64):
    # a point exactly on an edge takes the class below it; one ulp past,
    # the class above, in a batch and one point at a time alike
    tb = ev64.tables
    for k, e in enumerate(tb.f1_edges):
        r = np.array([e, np.nextafter(e, np.inf)])
        t = 0.5 * (float(ev64.params.thr_sum) - r)
        cls, rules = form1_classes(ev64, t, r)
        assert cls.tolist() == [k, k + 1] and rules is tb.f1
        for i in (0, 1):
            assert ev64.kernel_count(t[i], r[i]) == tb.f1[k + i].width
    assert [rule.width for rule in tb.f1] == [14, 22, 30, 48]


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


def _error_in_eps(ev64, t, r, p, u):
    """max(|dp|, |du_r|) of float64 outputs against a 1e-30 evaluator in
    40 digits, in units of ev64's eps."""
    from pulse2d.dispatch import PulseEvaluator

    em = PulseEvaluator(1e-30, backend=mp_backend(40))
    pm, um, _ = em.evaluate_arrays(list(t), list(r))
    with em.backend.workprec():
        err = np.array([max(abs(a - mpmath.mpf(float(b))),
                            abs(c - mpmath.mpf(float(d))))
                        for a, b, c, d in zip(pm, p, um, u)], dtype=float)
    return err / float(ev64.eps)


def test_float64_crop_seams_meet_eps(ev64):
    # float64 against a 1e-30 evaluator.  Form3GL, the diameter mean of the
    # axis pressure, reads about 0.012 eps here, its limit of 1 eps being
    # the evaluator's own claim; Form2Jacobi reads about 0.12 eps and its
    # tighter limit guards its node count.
    t, r = _crop_seam_points(ev64.params)
    p, u, codes = ev64.evaluate_arrays(t, r)
    n3 = int(np.count_nonzero(codes == Region.FORM3_GL))
    assert n3 == 400
    assert np.count_nonzero(codes == Region.FORM2_JACOBI) == t.size - n3
    err = _error_in_eps(ev64, t, r, p, u)
    for region, limit in ((Region.FORM3_GL, 1.0), (Region.FORM2_JACOBI, 0.25)):
        sel = np.flatnonzero(codes == region)
        k = sel[np.argmax(err[sel])]
        assert err[k] <= limit, (region.label, t[k], r[k], err[k])


def _form2_jacobi_stress_points(P):
    """Form2Jacobi points where rounding span * (eta + 1)/2 costs most."""
    H, r2, s = float(P.H), float(P.R2), float(P.thr_sum)
    rng = np.random.default_rng(15)
    n = 100
    # the deep edge, t - r in [H, 1.15 H], the largest spans of the band
    # (and t + r above thr_sum, which small r needs)
    r_e = np.geomspace(1.01 * r2, 380.0, n)
    lo = np.maximum(H, s + 1e-3 - 2 * r_e)
    t_e = r_e + lo + (1.15 * H - lo) * rng.uniform(0, 1, n)
    # the near-field seam at small r, t + r just above thr_sum
    r_s = np.exp(rng.uniform(math.log(1.01 * r2), math.log(2.0), n))
    t_s = s - r_s + rng.uniform(1e-3, 0.1, n)
    # the front t ~ r at large t
    t_f = rng.uniform(100.0, 391.0, n)
    r_f = t_f + rng.uniform(-3.0, 3.0, n)
    return np.concatenate([t_e, t_s, t_f]), np.concatenate([r_e, r_s, r_f])


def test_float64_form2_jacobi_stress_meets_eps(ev64):
    # float64 against a 1e-30 evaluator in 40 digits.  Over seven random
    # draws of these families the split product read at most 0.11-0.15
    # eps, and a 90th percentile of 0.06-0.08 eps on the edge and seam
    # points.  The plain product span * half rounds by up to eps/2 of the
    # span at the integrand peak: it read a maximum of 0.20-0.30 eps,
    # which the maximum alone catches on only some draws, and a 90th
    # percentile of 0.13-0.15 eps, which catches it on every draw.
    t, r = _form2_jacobi_stress_points(ev64.params)
    p, u, codes = ev64.evaluate_arrays(t, r)
    assert np.all(codes == Region.FORM2_JACOBI)
    err = _error_in_eps(ev64, t, r, p, u)
    k = int(np.argmax(err))
    assert err[k] <= 0.25, (t[k], r[k], err[k])
    q90 = np.percentile(err[:2 * t.size // 3], 90)    # edge and seam
    assert q90 <= 0.1, q90


def test_float64_form1_and_axis_band_meet_eps(ev64):
    # about 1,000 stratified points each of Form1GL and Form3GL against a
    # 1e-30 evaluator in 40 digits.  Form1GL read up to 1.30 eps when it
    # summed 48 Gauss nodes of four Bessel/trig calls with np.sum; the
    # diameter mean reads about 0.5 eps
    from pulse2d.diagnostics import stratified_sample

    parts = [stratified_sample(ev64, 7 * 334, seed=seed)
             for seed in (301, 302, 303)]
    t = np.concatenate([q[0] for q in parts])
    r = np.concatenate([q[1] for q in parts])
    codes = np.concatenate([q[2] for q in parts])
    keep = (codes == Region.FORM1_GL) | (codes == Region.FORM3_GL)
    t, r, codes = t[keep], r[keep], codes[keep]
    assert t.size >= 2000
    p, u, _ = ev64.evaluate_arrays(t, r)
    err = _error_in_eps(ev64, t, r, p, u)
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


def test_form2_jacobi_batch_matches_one_point_in_every_class(ev64):
    # region_eval cuts each node class into blocks of _BLOCK_ELEMS // width
    # rows, so 2 rows + 1 points of a class make two full blocks and a
    # one-row block.  Every point of one shuffled batch, the first and last
    # rows of each block among them, must equal its one-point evaluation
    from pulse2d import dispatch

    P = ev64.params
    rng = np.random.default_rng(31)
    n = 40000
    d = rng.uniform(-float(P.H) - 1.0, float(P.thr_diff), n)
    r = np.exp(rng.uniform(math.log(0.5), math.log(400.0), n))
    t = r + d
    keep = ev64.classify_codes(t, r) == Region.FORM2_JACOBI
    t, r = t[keep], r[keep]
    cls, rules = form2_jacobi_classes(ev64, t, r)
    picks = []
    for k, rule in enumerate(rules):
        idx = np.flatnonzero(cls == k)
        rows = dispatch._BLOCK_ELEMS // rule.width
        assert idx.size > 2 * rows, k
        picks.append(idx[:2 * rows + 1])
    idx = rng.permutation(np.concatenate(picks))
    p, u, codes = ev64.evaluate_arrays(t[idx], r[idx])
    assert np.all(codes == Region.FORM2_JACOBI)
    for i, j in enumerate(idx):
        sol = ev64.evaluate(t[j], r[j])
        assert sol.p == p[i] and sol.ur == u[i], (t[j], r[j])


def test_batch_matches_single_mp():
    # the same under mpmath, where g comes from the fixed-point table
    from pulse2d.dispatch import PulseEvaluator

    em = PulseEvaluator(1e-30, backend=mp_backend(40))
    pts = [(2.0, 1.0), (0.5, 0.3), (13.0, 0.001), (15.0, 1e-6),
           (0.01, 0.01), (9.0, 5.0)]
    batch = em.evaluate_batch(pts)
    assert {Region.FORM1_GL, Region.FORM3_GL} <= {b.region for b in batch}
    for (t, r), sol in zip(pts, batch):
        one = em.evaluate(t, r)
        assert one.p == sol.p
        assert one.ur == sol.ur
        assert one.region is sol.region


def test_form1_mp_agreement(ev64):
    # the diameter mean over the float64 Taylor table of g must reproduce
    # the mp result to ~eps (it reads below 1.4e-17 at these points)
    from pulse2d.dispatch import PulseEvaluator

    em = PulseEvaluator(2e-16, backend=mp_backend(30))
    for t, r in ((2.0, 1.0), (8.9, 0.05), (0.05, 8.9)):
        assert ev64.classify(t, r) is Region.FORM1_GL
        p, u = region_eval(ev64, Region.FORM1_GL, np.array([t]), np.array([r]))
        with em.backend.workprec():
            pm, um = region_eval(em, Region.FORM1_GL, em.backend.asarray([t]),
                                 em.backend.asarray([r]))
        assert abs(p[0] - float(pm[0])) < 3e-16
        assert abs(u[0] - float(um[0])) < 3e-16
