"""Bessel kernels and the exact double factorial."""

import mpmath
import numpy as np
import pytest

from pulse2d.numerics import FLOAT64, mp_backend
from pulse2d.specfun import (
    bessel_j,
    double_factorial,
    scaled_i_pair,
)

# frozen mpmath values, 22 digits
J0_1 = 0.7651976865579665514497
J1_1 = 0.4400505857449335159597
J0_50_5 = 0.09551989154970056708369
J1_50_5 = -0.05806287642132068647988
I0E = {0.5: 0.645035270449150068108, 10.0: 0.1278333371634286073231,
       500.0: 0.01784570650015316723654}
I1E = {0.5: 0.1564208031848716971426, 10.0: 0.121262681384455518719,
       500.0: 0.01782785185289805646138}


@pytest.mark.parametrize("k,expect", [
    (-1, 1), (0, 1), (1, 1), (3, 3), (5, 15), (9, 945), (13, 135135),
])
def test_double_factorial_values(k, expect):
    assert double_factorial(k) == expect


def test_double_factorial_is_exact_int():
    v = double_factorial(41)
    assert isinstance(v, int)
    # 41!! = 41 * 39!! exactly, no float roundoff allowed
    assert v == 41 * double_factorial(39)


@pytest.mark.parametrize("bad", [-2, 2.5, True])
def test_double_factorial_rejects(bad):
    with pytest.raises((ValueError, TypeError)):
        double_factorial(bad)


def test_bessel_j_anchors_float64():
    x = np.array([1.0, 50.5])
    j0 = bessel_j(0, x)
    j1 = bessel_j(1, x)
    assert abs(j0[0] - J0_1) < 3e-16
    assert abs(j0[1] - J0_50_5) < 3e-16
    assert abs(j1[0] - J1_1) < 3e-16
    assert abs(j1[1] - J1_50_5) < 3e-16


def test_bessel_j_rejects_order():
    with pytest.raises(ValueError):
        bessel_j(2, np.array([1.0]))


def test_bessel_j_mp_matches_float64():
    bk = mp_backend(30)
    x64 = np.array([0.25, 1.0, 7.5, 120.0])
    with bk.workprec():
        xm = bk.asarray(x64)
        j0m = bessel_j(0, xm, bk)
        j1m = bessel_j(1, xm, bk)
    j0 = bessel_j(0, x64)
    j1 = bessel_j(1, x64)
    for a, b in zip(j0, j0m):
        assert abs(a - float(b)) < 5e-16
    for a, b in zip(j1, j1m):
        assert abs(a - float(b)) < 5e-16


def test_scaled_i_pair_anchors():
    for x, ref in I0E.items():
        i0e, _ = scaled_i_pair(np.array([x]))
        assert abs(i0e[0] - ref) < 3e-16
    for x, ref in I1E.items():
        _, i1e = scaled_i_pair(np.array([x]))
        assert abs(i1e[0] - ref) < 3e-16


def test_scaled_i_pair_at_zero():
    i0e, i1e = scaled_i_pair(np.array([0.0]))
    assert i0e[0] == 1.0
    assert i1e[0] == 0.0


def test_scaled_i_pair_mp_matches_float64():
    bk = mp_backend(30)
    xs = np.array([0.0, 0.5, 10.0, 35.0, 70.0, 500.0])
    with bk.workprec():
        xm = bk.asarray(xs)
        m0, m1 = scaled_i_pair(xm, bk)
    f0, f1 = scaled_i_pair(xs)
    for a, b in zip(f0, m0):
        assert abs(a - float(b)) < 5e-16
    for a, b in zip(f1, m1):
        assert abs(a - float(b)) < 5e-16


def test_scaled_i_pair_series_asymptotic_seam():
    # the mp path switches from the power series to the large-x expansion
    # near x ~ max(40, 1.5 dps); both sides of the seam must agree with an
    # independent unscaled mpmath evaluation to the backend's digit budget
    bk = mp_backend(25)
    with bk.workprec():
        lo = scaled_i_pair(bk.asarray([mpmath.mpf("39.9")]), bk)
        hi = scaled_i_pair(bk.asarray([mpmath.mpf("40.1")]), bk)
    with mpmath.workdps(45):
        for x, (p0, p1) in (("39.9", lo), ("40.1", hi)):
            xv = mpmath.mpf(x)
            r0 = mpmath.besseli(0, xv) * mpmath.exp(-xv)
            r1 = mpmath.besseli(1, xv) * mpmath.exp(-xv)
            assert abs(p0[0] - r0) < mpmath.mpf(10) ** -24
            assert abs(p1[0] - r1) < mpmath.mpf(10) ** -24


def test_scaled_i_pair_rejects_negative_mp():
    bk = mp_backend(25)
    with bk.workprec():
        with pytest.raises(ValueError):
            scaled_i_pair(bk.asarray([-1.0]), bk)
