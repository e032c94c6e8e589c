"""Precision parameters, region classification, and the evaluator facade."""

import dataclasses
import math
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pulse2d
from pulse2d import dispatch
from pulse2d.diagnostics import energy_integral, stratified_sample
from pulse2d.dispatch import EPS_FLOOR, PulseEvaluator, Region, make_params
from pulse2d.numerics import mp_backend

# representative interior point of each region at eps = 2e-16
POINTS = {
    Region.ZERO: (1.0, 30.0),
    Region.SMALL_T: (1e-18, 1.0),
    Region.FORM1_GL: (2.0, 1.0),
    Region.SERIES: (12.0, 0.003),
    Region.FORM2_UNIFORM: (30.0, 1.0),
    Region.FORM2_JACOBI: (9.0, 5.0),
    Region.FORM3_GL: (9.2, 0.1),
}

# instrumented kernel calls per region, frozen at eps = 2e-16
KERNELS = {
    Region.ZERO: 0,
    Region.SMALL_T: 1,
    Region.FORM1_GL: 14,
    Region.SERIES: 0,
    Region.FORM2_UNIFORM: 30,
    Region.FORM2_JACOBI: 96,
    Region.FORM3_GL: 6,
}


def test_params_frozen_floor(params64):
    P = params64
    assert P.eps == 2e-16 and not P.clamped
    assert abs(P.H - 8.583864105157389) < 1e-14
    assert abs(P.R1 - 0.0033833625914958224) < 1e-17
    assert abs(P.R2 - 0.13460866090984777) < 1e-16
    assert (P.M2, P.M3, P.M) == (15, 54, 73)
    assert abs(P.h - 0.6366842184408109) < 1e-15
    assert abs(P.thr_sum - 1.05 * P.H) < 1e-14
    assert abs(P.thr_diff - 1.152 * P.H) < 1e-14
    assert abs(P.thr_series - 1.31 * P.H) < 1e-14


@pytest.mark.parametrize("eps,m2,m3,m", [
    (1e-20, 19, 68, 93),
    (4e-32, 30, 105, 145),
])
def test_params_scale_with_eps(eps, m2, m3, m):
    P = make_params(eps)
    assert not P.clamped
    assert (P.M2, P.M3, P.M) == (m2, m3, m)


def test_params_clamp_coarse_requests():
    P = make_params(1e-6)
    assert P.clamped
    assert P.eps == EPS_FLOOR


@pytest.mark.parametrize("bad", [0.0, -1e-16, float("nan"), float("inf")])
def test_params_validation(bad):
    with pytest.raises(ValueError):
        make_params(bad)


@pytest.mark.parametrize("region", sorted(POINTS))
def test_classify_representatives(ev64, region):
    t, r = POINTS[region]
    assert ev64.classify(t, r) is region


def test_classify_boundary_nudges(ev64):
    P = ev64.params
    # crossing t + r = thr_sum flips Form1 to the Jacobi band
    s = float(P.thr_sum)
    assert ev64.classify(s / 2 - 1e-9, s / 2) is Region.FORM1_GL
    assert ev64.classify(s / 2 + 1e-9, s / 2) is Region.FORM2_JACOBI
    # crossing t - r = thr_diff flips Jacobi to the uniform far field
    d = float(P.thr_diff)
    assert ev64.classify(d + 1.0 - 1e-9, 1.0) is Region.FORM2_JACOBI
    assert ev64.classify(d + 1.0 + 1e-9, 1.0) is Region.FORM2_UNIFORM
    # crossing t = r - thr_sum enters the cropped zero region
    assert ev64.classify(1.0, 1.0 + s - 1e-9) is Region.FORM2_JACOBI \
        or ev64.classify(1.0, 1.0 + s - 1e-9) is Region.FORM1_GL
    assert ev64.classify(1.0 - 1e-9, 1.0 + s) is Region.ZERO
    # deep axis strip: series only past t = thr_series
    axis_r = float(P.R1) * 0.5
    assert ev64.classify(float(P.thr_series) - 1e-9, axis_r) is Region.FORM3_GL
    assert ev64.classify(float(P.thr_series) + 1e-9, axis_r) is Region.SERIES


def test_classify_codes_match_scalar(ev64):
    t, r, codes = stratified_sample(ev64, 700)
    for i in range(0, 700, 97):
        assert ev64.classify(t[i], r[i]) is Region(int(codes[i]))


def test_stratified_sample_deterministic(ev64):
    t1, r1, c1 = stratified_sample(ev64, 500)
    t2, r2, c2 = stratified_sample(ev64, 500)
    assert np.array_equal(t1, t2)
    assert np.array_equal(r1, r2)
    assert np.array_equal(c1, c2)
    assert set(np.unique(c1)) == {int(reg) for reg in Region}
    t3, _, _ = stratified_sample(ev64, 500, seed=1)
    assert not np.array_equal(t1, t3)


@pytest.mark.parametrize("region", sorted(KERNELS))
def test_kernel_counts_frozen(ev64, region):
    t, r = POINTS[region]
    assert ev64.kernel_count(t, r) == KERNELS[region]


# a point and its kernel calls for each node class at eps = 2e-16: Form1GL
# by r, Form2Jacobi by the crop span t - r + H
CLASS_KERNELS = {
    (Region.FORM1_GL, 0): ((2.0, 1.0), 14),
    (Region.FORM1_GL, 1): ((2.0, 2.0), 22),
    (Region.FORM1_GL, 2): ((1.0, 4.0), 30),
    (Region.FORM1_GL, 3): ((1.0, 6.0), 48),
    (Region.FORM2_JACOBI, 0): ((20.0, 20.0), 60),
    (Region.FORM2_JACOBI, 1): ((9.0, 5.0), 96),
}


@pytest.mark.parametrize("key", sorted(CLASS_KERNELS),
                         ids=lambda k: f"{k[0].label}-{k[1]}")
def test_class_kernel_counts_frozen(ev64, key):
    from pulse2d import forms

    region, k = key
    (t, r), count = CLASS_KERNELS[key]
    assert ev64.classify(t, r) is region
    classes = (forms.form1_classes if region is Region.FORM1_GL
               else forms.form2_jacobi_classes)
    cls, rules = classes(ev64, np.array([t]), np.array([r]))
    assert cls[0] == k
    assert ev64.kernel_count(t, r) == count
    assert count == rules[k].width * (1 if region is Region.FORM1_GL else 2)


def test_kernel_count_on_a_shared_evaluator_is_per_thread():
    # another thread evaluating Form3GL points must not leak into the count
    ev = PulseEvaluator(2e-16)
    stop = threading.Event()

    def busy():
        while not stop.is_set():
            ev.evaluate(*POINTS[Region.FORM3_GL])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    worker = threading.Thread(target=busy, daemon=True)
    try:
        worker.start()
        counts = [ev.kernel_count(*POINTS[Region.FORM1_GL])
                  for _ in range(200)]
    finally:
        stop.set()
        worker.join(timeout=60)
        sys.setswitchinterval(old)
    assert not worker.is_alive()
    assert set(counts) == {KERNELS[Region.FORM1_GL]}


def _in_threads(fn, args):
    """[fn(*a) for a in args], each call on its own thread, started
    together."""
    out = [None] * len(args)
    barrier = threading.Barrier(len(args))

    def work(i):
        barrier.wait()
        out[i] = fn(*args[i])

    threads = [threading.Thread(target=work, args=(i,), daemon=True)
               for i in range(len(args))]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    return out


def test_shared_evaluator_is_thread_safe(ev64):
    # four threads through one float64 evaluator and two through one
    # mpmath evaluator must give what serial calls give, bit for bit.
    # mpmath's working precision is global to the process: without the
    # backend's lock, the thread that entered workprec first and left it
    # first dropped the other to double precision mid-kernel.  The two
    # mpmath batches cost about the same, so that order is the likely one
    batches = [stratified_sample(ev64, 1400, seed=s)[:2] for s in range(4)]
    serial = [ev64.evaluate_arrays(t, r) for t, r in batches]
    for got, want in zip(_in_threads(ev64.evaluate_arrays, batches), serial):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    em = PulseEvaluator(1e-30, backend=mp_backend(40))
    pts = [([2.0, 9.2, 9.0], [1.0, 0.1, 5.0]),
           ([0.5, 9.3, 8.0], [0.3, 0.12, 4.0])]
    serial = [em.evaluate_arrays(t, r) for t, r in pts]
    for _ in range(8):
        for got, want in zip(_in_threads(em.evaluate_arrays, pts), serial):
            for a, b in zip(got, want):
                assert list(a) == list(b)


@pytest.fixture(scope="module", params=["float64", "mp40"])
def any_ev(request, ev64):
    if request.param == "float64":
        return ev64
    return PulseEvaluator(1e-30, backend=mp_backend(40))


def test_evaluator_holds_params_and_read_only_tables(any_ev, table_fields):
    assert set(vars(any_ev)) == {"backend", "params", "tables"}
    mp = any_ev.backend.dtype is object
    # one g table on both backends: float64 rows, or fixed-point integers
    # with g_frac fraction bits under mpmath
    assert (any_ev.tables.g_taylor.dtype == object) is mp
    assert (any_ev.tables.g_frac is None) is not mp
    for rule in any_ev.tables.gj:
        assert (rule.half_lo is None) is mp
        assert (rule.half26 is None) is mp
    fields = dict(table_fields(any_ev.tables))
    assert {"f1[3].cos", "gj[1].weights", "ax.cos"} <= set(fields)
    for name, v in fields.items():
        if isinstance(v, np.ndarray):
            assert not v.flags.writeable, name
    with pytest.raises(dataclasses.FrozenInstanceError):
        any_ev.tables.u_kh = None


def test_huge_points_classify_without_warnings():
    # t + r overflows to inf in classification; the region stays right
    # and no RuntimeWarning escapes, even when warnings are errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pulse2d.evaluate(1e308, 1e308).region is Region.FORM2_JACOBI
        assert pulse2d.classify(1e308, 1e308) is Region.FORM2_JACOBI


@pytest.mark.parametrize("t", [1e306, 1.7e308])
@pytest.mark.parametrize("r", [1.0, 1e3, 1e300])
def test_far_field_at_huge_t_is_finite(t, r):
    # -4 (kh)^2 t of the uniform grid overflows from about 5e305 on; the
    # solution there is far below eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = pulse2d.evaluate(t, r)
    assert sol.region is Region.FORM2_UNIFORM
    assert math.isfinite(sol.p) and math.isfinite(sol.ur)
    assert abs(sol.p) <= EPS_FLOOR and abs(sol.ur) <= EPS_FLOOR


def _decide(t, r, P):
    """The module docstring's decision list, one scalar point."""
    if t - r > P.thr_diff:
        if r > P.R1:
            return Region.FORM2_UNIFORM
        elif t >= P.thr_series:
            return Region.SERIES
        else:
            return Region.FORM3_GL
    elif t < P.eps:
        return Region.SMALL_T
    elif t < r - P.thr_sum:
        return Region.ZERO
    elif t + r < P.thr_sum:
        return Region.FORM1_GL
    elif r <= P.R2:
        return Region.FORM3_GL
    else:
        return Region.FORM2_JACOBI


def _ulps(x, k):
    """x moved k units in the last place (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


@st.composite
def _seam_point(draw, P):
    """(t, r) on or a few ulps off one seam of the decision list."""
    s, d = float(P.thr_sum), float(P.thr_diff)
    ser, r1, r2 = float(P.thr_series), float(P.R1), float(P.R2)
    eps = float(P.eps)
    k = draw(st.just(0) | st.integers(-4, 4))
    free = draw(st.floats(0.0, 60.0))
    seam = draw(st.sampled_from(
        ["t-r=d", "t-r=s", "r-t=s", "t+r=s", "t+r=d", "t=ser", "r=R1",
         "r=R2", "t=eps", "free"]))
    if seam in ("t-r=d", "t-r=s"):
        r = free
        t = _ulps(r + (d if seam == "t-r=d" else s), k)
    elif seam == "r-t=s":
        t = free
        r = _ulps(t + s, k)
    elif seam in ("t+r=s", "t+r=d"):
        total = s if seam == "t+r=s" else d
        t = draw(st.floats(0.0, total))
        r = max(0.0, _ulps(total - t, k))
    elif seam == "t=ser":
        t = _ulps(ser, k)
        r = draw(st.sampled_from([0.0, _ulps(r1, k), free * r1 / 30]))
    elif seam in ("r=R1", "r=R2"):
        # t behind the front (R1 decides) or in the band (R2 decides)
        r = _ulps(r1 if seam == "r=R1" else r2, k)
        j = draw(st.just(0) | st.integers(-4, 4))
        t = draw(st.sampled_from(
            [free, r + d + free, draw(st.floats(s - r, d + r)),
             _ulps(r + d, j), _ulps(ser, j), _ulps(s - r, j)]))
    elif seam == "t=eps":
        t = _ulps(eps, k)
        r = free
    else:
        t = draw(st.floats(0.0, 400.0))
        r = free
    return max(t, 0.0), r


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_classify_codes_follow_decision_list(any_ev, data):
    P = any_ev.params
    bk = any_ev.backend
    pts = data.draw(st.lists(_seam_point(P), min_size=8, max_size=24))
    with bk.workprec():
        t = bk.asarray([p[0] for p in pts])
        r = bk.asarray([p[1] for p in pts])
        codes = any_ev.classify_codes(t, r)
        want = [_decide(tv, rv, P) for tv, rv in zip(t, r)]
    assert codes.dtype == np.int8
    assert [Region(int(c)) for c in codes] == want


# t on the axis: a whole range, plus exact zero and SmallT's tiny times
_AXIS_T = st.floats(0.0, 1e3) | st.floats(0.0, 1e-15)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(t=st.lists(_AXIS_T, min_size=1, max_size=32))
def test_velocity_vanishes_on_the_axis(ev64, t):
    # representatives of every region reaching r = 0 ride along each draw
    t = np.array(t + [1e-17, 2.0, 9.5, 30.0])
    p, u, codes = ev64.evaluate_arrays(t, np.zeros_like(t))
    assert {Region.SMALL_T, Region.FORM1_GL, Region.FORM3_GL,
            Region.SERIES} <= {Region(int(c)) for c in codes}
    assert np.all(u == 0)


def test_velocity_vanishes_on_the_axis_mp():
    em = PulseEvaluator(2e-16, backend=mp_backend(30))
    t = [0.0, 1e-17, 2.0, 9.5, 30.0]
    p, u, codes = em.evaluate_arrays(t, [0.0] * len(t))
    assert [Region(int(c)) for c in codes] == [
        Region.SMALL_T, Region.SMALL_T, Region.FORM1_GL, Region.FORM3_GL,
        Region.SERIES]
    for v in u:
        assert isinstance(v, mpmath.mpf) and v == 0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(r=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=32),
       data=st.data())
def test_initial_state_is_the_pulse(ev64, r, data):
    r = np.array(r)
    p, u, _ = ev64.evaluate_arrays(np.zeros_like(r), r)
    assert np.array_equal(p, np.exp(-(r * r) / 2))
    assert np.all(u == 0)
    # below eps the state is still the pulse, with velocity t r p to first
    # order in t
    t = np.array(data.draw(st.lists(
        st.floats(0.0, float(ev64.eps), exclude_max=True),
        min_size=r.size, max_size=r.size)))
    p, u, codes = ev64.evaluate_arrays(t, r)
    assert np.all(codes == Region.SMALL_T)
    assert np.array_equal(p, np.exp(-(r * r) / 2))
    assert np.array_equal(u, (t * r) * p)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_2d_input_keeps_shape_and_dtypes(ev64, data):
    shape = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
    n = shape[0] * shape[1]
    t = np.array(data.draw(st.lists(st.floats(0.0, 60.0), min_size=n,
                                    max_size=n))).reshape(shape)
    r = np.array(data.draw(st.lists(st.floats(0.0, 60.0), min_size=n,
                                    max_size=n))).reshape(shape)
    p, u, codes = ev64.evaluate_arrays(t, r)
    assert p.shape == u.shape == codes.shape == shape
    assert p.dtype == u.dtype == np.float64
    assert codes.dtype == np.int8
    p1, u1, codes1 = ev64.evaluate_arrays(t.ravel(), r.ravel())
    assert np.array_equal(p.ravel(), p1) and np.array_equal(u.ravel(), u1)
    assert np.array_equal(codes.ravel(), codes1)


def test_module_facade():
    sol = pulse2d.evaluate(2.0, 1.0)
    assert sol.region is Region.FORM1_GL
    assert sol.eps_used == EPS_FLOOR
    batch = pulse2d.evaluate_batch([(2.0, 1.0), (9.0, 5.0)])
    assert batch[0].p == sol.p
    assert pulse2d.classify(9.0, 5.0) is Region.FORM2_JACOBI


def test_module_facade_shares_one_evaluator_per_resolved_eps():
    # every accepted eps resolves to the floor, so one evaluator serves all
    for eps in (1e-3, 1e-4, 1e-6, 2e-16):
        assert pulse2d.evaluate(2.0, 1.0, eps=eps).eps_used == EPS_FLOOR
    shared = dispatch._default_evaluator(EPS_FLOOR)
    assert all(dispatch._default_evaluator(eps) is shared
               for eps in (1e-3, 1e-4, 1e-6, 2e-16))
    assert list(dispatch._default_cache) == [EPS_FLOOR]
    for bad in (float("inf"), float("nan"), 0.0, -1e-3, 1e-20):
        with pytest.raises(ValueError):
            pulse2d.evaluate(2.0, 1.0, eps=bad)


def test_energy_at_t1(ev64):
    e = energy_integral(ev64, 1.0)
    assert abs(e - math.pi / 2) < 1e-10


def test_mp_evaluator_agrees_with_double(ev64):
    em = PulseEvaluator(2e-16, backend=mp_backend(30))
    for t, r in ((2.0, 1.0), (9.0, 5.0), (30.0, 1.0), (9.2, 0.1)):
        a = ev64.evaluate(t, r)
        b = em.evaluate(t, r)
        assert abs(a.p - float(b.p)) < 3e-16
        assert abs(a.ur - float(b.ur)) < 3e-16


def test_validation_errors(ev64):
    with pytest.raises(ValueError):
        ev64.evaluate_arrays([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        ev64.evaluate(-1.0, 1.0)
    with pytest.raises(ValueError):
        ev64.evaluate(1.0, float("nan"))


def test_small_eps_rejected_only_when_invalid():
    # arbitrarily small positive eps is legal; it only costs more nodes
    P = make_params(1e-40)
    assert P.M3 > 105


@pytest.mark.parametrize("digits", [20, 40])
def test_mp_backend_too_coarse_for_eps_rejected(digits):
    with pytest.raises(ValueError, match="digits"):
        PulseEvaluator(1e-40, backend=mp_backend(digits))


def test_float64_eps_below_floor_rejected():
    # 1e-20 in double precision missed the oracle by 1.34e-17 at (2, 1)
    with pytest.raises(ValueError, match=r"mp_backend\(24\)"):
        PulseEvaluator(1e-20)
    with pytest.raises(ValueError, match="floor"):
        pulse2d.evaluate(2.0, 1.0, eps=1e-20)
    assert PulseEvaluator(EPS_FLOOR).eps == EPS_FLOOR
    assert PulseEvaluator(1e-20, backend=mp_backend(24)).eps == 1e-20


@pytest.mark.parametrize("eps,digits", [
    (2e-16, 20), (2e-16, 30), (1e-20, 30), (1e-24, 40), (1e-30, 40),
    (4e-32, 45), (1e-40, 50),
])
def test_mp_backend_with_digit_margin_accepted(eps, digits):
    assert make_params(eps, mp_backend(digits)).eps == eps


@pytest.fixture(scope="module")
def composition_pool(ev64):
    return stratified_sample(ev64, 1400, seed=23)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_composition_is_bit_identical(ev64, composition_pool, data):
    # stratified points plus seam points: the whole batch, a permutation of
    # it cut into sub-batches, and single points must all agree bit for bit
    seams = data.draw(st.lists(_seam_point(ev64.params), max_size=24))
    t = np.concatenate([composition_pool[0], [q[0] for q in seams]])
    r = np.concatenate([composition_pool[1], [q[1] for q in seams]])
    p, u, codes = ev64.evaluate_arrays(t, r)
    perm = np.random.default_rng(
        data.draw(st.integers(0, 2 ** 32 - 1))).permutation(t.size)
    cuts = sorted(data.draw(st.lists(st.integers(1, t.size - 1),
                                     max_size=6)))
    for part in np.split(perm, cuts):
        if part.size == 0:
            continue
        pp, uu, cc = ev64.evaluate_arrays(t[part], r[part])
        assert np.array_equal(pp, p[part]) and np.array_equal(uu, u[part])
        assert np.array_equal(cc, codes[part])
    for i in data.draw(st.lists(st.integers(0, t.size - 1), min_size=1,
                                max_size=3)):
        sol = ev64.evaluate(t[i], r[i])
        assert sol.p == p[i] and sol.ur == u[i]
        assert sol.region is Region(int(codes[i]))


@pytest.fixture(scope="module")
def block_batch(ev64):
    # every region more than twice as large as its block at the default
    # budget: the widest block is one row per element (SmallT, Series)
    per_region = 2 * dispatch._BLOCK_ELEMS + 5
    return stratified_sample(ev64, 7 * per_region, seed=11)


@pytest.mark.parametrize("budget", [None, 300])
def test_block_boundaries_are_bit_identical(ev64, block_batch, budget,
                                            monkeypatch):
    if budget is not None:
        monkeypatch.setattr(dispatch, "_BLOCK_ELEMS", budget)
    t, r, codes = block_batch
    p, u, c = ev64.evaluate_arrays(t, r)
    assert np.array_equal(c, codes)
    # the same points grouped by region, so every block holds other rows
    order = np.argsort(codes, kind="stable")
    ps, us, _ = ev64.evaluate_arrays(t[order], r[order])
    assert np.array_equal(ps, p[order])
    assert np.array_equal(us, u[order])
    # one point at a time around the first two block boundaries of each
    # (region, node class) and at its last point.  The blocks are those
    # region_eval cuts: _BLOCK_ELEMS // width rows of one class, in the
    # order of the batch
    blocks = {}

    def spy(reg, kernel):
        def run(ev, tb, rb, *rule):
            blocks.setdefault((reg, *map(id, rule)), []).append(tb.size)
            return kernel(ev, tb, rb, *rule)
        return run

    with monkeypatch.context() as m:
        m.setattr(dispatch, "_KERNELS",
                  {reg: (spy(reg, fn), classes)
                   for reg, (fn, classes) in dispatch._KERNELS.items()})
        ev64.evaluate_arrays(t, r)
    groups = []
    for reg, (_, classes) in dispatch._KERNELS.items():
        idx = np.flatnonzero(codes == reg)
        if classes is None:
            groups.append(((reg,), idx, None))
            continue
        cls, rules = classes(ev64, t[idx], r[idx])
        assert reg is Region.FORM3_GL or len(rules) >= 2
        groups += [((reg, id(rule)), idx[cls == k], rule)
                   for k, rule in enumerate(rules)]
    for key, idx, rule in groups:
        reg = key[0]
        sizes = blocks[key]
        rows = sizes[0]
        assert sum(sizes) == idx.size and set(sizes[:-1]) == {rows}, reg
        if rule is not None:
            assert rows == max(1, dispatch._BLOCK_ELEMS // rule.width), reg
        assert idx.size > 2 * rows, (reg, rows)
        for k in (0, rows - 1, rows, 2 * rows - 1, 2 * rows, idx.size - 1):
            sol = ev64.evaluate(t[idx[k]], r[idx[k]])
            assert sol.region is reg
            assert sol.p == p[idx[k]] and sol.ur == u[idx[k]]
