"""Large-t axis expansion: signs, remainder bound, truncation policy."""

import math

import mpmath
import numpy as np
import pytest

from pulse2d.dispatch import Region
from pulse2d.numerics import mp_backend
from pulse2d.oracle import in_reference
from pulse2d.series import asymptotic_In, asymptotic_remainder_bound, \
    series_eval
from pulse2d.specfun import mp_axis_pressure

# matching real component of I_n(100), frozen from the dual-route reference
IN_100 = {
    0: 0.0100010003001501051,
    1: -0.00010003001501050946,
    2: -0.010003001501050946,
    3: 0.000300150105094604085,
    4: 0.0300150105094604085,
    5: -0.00150105094604085338,
    6: -0.150105094604085338,
}


@pytest.mark.parametrize("n", [1, 3, 5])
def test_real_part_signs_and_values(params64, n):
    v = asymptotic_In(n, 100.0, params64)
    ref = IN_100[n]
    assert math.copysign(1.0, v) == math.copysign(1.0, ref)
    assert abs(v - ref) < 1e-16 * max(1.0, abs(ref))


@pytest.mark.parametrize("n", [0, 2, 4, 6])
def test_imag_part_signs_and_values(params64, n):
    v = asymptotic_In(n, 100.0, params64)
    ref = IN_100[n]
    assert math.copysign(1.0, v) == math.copysign(1.0, ref)
    assert abs(v - ref) < 1e-16 * max(1.0, abs(ref))


def test_n_out_of_range_rejected(params64):
    with pytest.raises(ValueError):
        asymptotic_In(-1, 100.0, params64)
    with pytest.raises(ValueError):
        asymptotic_In(7, 100.0, params64)


def test_full_sum_within_remainder_bound(params64):
    # mp full truncated sum vs the dual-route reference at moderate t: the
    # difference must respect the a-priori remainder bound
    bk = mp_backend(60)
    t = 15.0
    for n in (0, 1, 4, 6):
        v = asymptotic_In(n, t, params64, backend=bk)
        ref = in_reference(n, t, dps=80)
        ref = ref.real if n % 2 else ref.imag
        bound = asymptotic_remainder_bound(n, t, params64)
        # the Gaussian cross-component e^{-t^2/2} is below 1e-48 at t = 15
        assert abs(float(v - ref)) <= bound * (1.0 + 1e-9) + 1e-40


@pytest.mark.parametrize("n", range(7))
def test_recurrence_matches_term_by_term_sum(params64, n):
    # reference: the truncated sum of (2l-1)!!/t^(2l-n+1) one term at a time
    lmax = (params64.M - 1) // 2
    bk = mp_backend(60)
    for t in (float(params64.thr_series), 40.0):
        with mpmath.workdps(60):
            tm = mpmath.mpf(t)
            ref = sum(math.prod(range(2 * l - 1, 0, -2))
                      / tm ** (2 * l - n + 1)
                      for l in range((n + 1) // 2, lmax + 1))
            vm = abs(asymptotic_In(n, t, params64, backend=bk))
            assert abs(vm - ref) <= mpmath.mpf(10) ** -57 * ref
        v = abs(asymptotic_In(n, t, params64))
        assert abs(v - float(ref)) <= 4e-16 * float(ref)


def test_remainder_bound_monotone_in_t(params64):
    bs = [asymptotic_remainder_bound(3, t, params64)
          for t in (11.3, 15.0, 40.0, 1000.0)]
    assert all(x > y for x, y in zip(bs, bs[1:]))
    assert bs[0] < float(params64.eps) / 2


def test_series_eval_matches_anchor(ev64):
    t, r = 12.0, 0.003
    assert ev64.classify(t, r) is Region.SERIES
    p, u = series_eval(ev64, np.array([t]), np.array([r]))
    assert abs(p[0] - (-0.007094405282172325356014)) < 2.5e-16
    assert abs(u[0] - (-0.000001812482090500880560011)) < 2.5e-16


def test_series_eval_on_axis(ev64):
    # at r = 0 the velocity vanishes identically and p has the closed form
    p, u = series_eval(ev64, np.array([13.0]), np.array([0.0]))
    assert u[0] == 0.0
    assert abs(p[0] - float(mp_axis_pressure(13.0, 40))) < 2.5e-16
