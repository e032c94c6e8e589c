"""Reference-value machinery: cross-route gates and frozen anchors."""

import math

import mpmath
import pytest

from pulse2d.dispatch import Region
from pulse2d.oracle import (
    OracleError,
    in_reference,
    oracle_eval,
    verify_on_lattice,
)
from pulse2d.specfun import mp_axis_pressure

# frozen cross-route values at target_tol 1e-18, 22 digits
ANCHORS = {
    (2.0, 1.0): ("-0.111390122688882444818", "0.09834789895940712918726"),
    (0.5, 0.3): ("0.7450615827142676124412", "0.121672822885250241892"),
    (4.0, 4.9): ("0.153398569281866984447", "0.166114179422174690125"),
    (9.0, 5.0): ("-0.02496484468674173477322", "-0.01489495730571300082251"),
    (9.2, 0.1): ("-0.01226292193505599840484", "-0.0001384620400538167730181"),
    (12.0, 0.003): ("-0.007094405282172325356014",
                    "-0.000001812482090500880560011"),
    (30.0, 1.0): ("-0.001116710860623739888577",
                  "-0.00003734889190295964099238"),
    (150.0, 148.0): ("-0.01372128187457875818947", "-0.01356630837631038393881"),
    (391.5, 380.0): ("-0.0004752788659997030551111", "-0.00046147704493288819005"),
}

# points off the c1 lattice 1.01^[-600, 600] (about [2.6e-3, 391]), with
# the region each falls in
OFF_LATTICE = {
    (1e-8, 5.0): Region.FORM1_GL,
    (1e4, 1e4): Region.FORM2_JACOBI,
    (1e4, 1e4 - 3): Region.FORM2_JACOBI,
    (1e4, 1e4 + 3): Region.FORM2_JACOBI,
    (1e4, 1e-3): Region.SERIES,
    (1e3, 10.0): Region.FORM2_UNIFORM,
    (1e6, 1.0): Region.FORM2_UNIFORM,
    (2.0, 1e5): Region.ZERO,
}

# matching real component of I_n(100): Im for even n, Re for odd n
IN_100 = {
    0: "0.0100010003001501051",
    1: "-0.00010003001501050946",
    2: "-0.010003001501050946",
    3: "0.000300150105094604085",
    4: "0.0300150105094604085",
    5: "-0.00150105094604085338",
    6: "-0.150105094604085338",
}


@pytest.mark.parametrize("point", sorted(ANCHORS))
def test_anchor_values(point):
    t, r = point
    res = oracle_eval(t, r)
    sp, su = ANCHORS[point]
    with mpmath.workdps(30):
        assert abs(res.p - mpmath.mpf(sp)) < mpmath.mpf("1e-20")
        assert abs(res.ur - mpmath.mpf(su)) < mpmath.mpf("1e-20")
    assert res.est_err <= res.target_tol * 1e-3
    assert res.target_tol == 1e-18


def test_routes_oscillatory_auto():
    near = oracle_eval(2.0, 1.0)
    assert near.routes == ("halfline", "selfsim", "oscillatory")
    far = oracle_eval(9.0, 5.0)
    assert far.routes == ("halfline", "selfsim")
    forced = oracle_eval(4.0, 4.9, use_form1=True)
    assert "oscillatory" in forced.routes


def test_axis_point():
    res = oracle_eval(9.0, 0.0)
    assert res.routes == ("axis", "selfsim")
    assert res.ur == 0
    with mpmath.workdps(30):
        assert abs(res.p - mpmath.mpf("-0.01283390587291349031765")) \
            < mpmath.mpf("1e-20")


def test_initial_condition():
    res = oracle_eval(0.0, 1.2)
    with mpmath.workdps(30):
        # the binary double 1.2, matching what the oracle received
        ref = mpmath.exp(-mpmath.mpf(1.2) ** 2 / 2)
        assert abs(res.p - ref) < mpmath.mpf("1e-20")
        assert abs(res.ur) < mpmath.mpf("1e-20")


def test_ahead_of_front_magnitude():
    res = oracle_eval(1.0, 30.0)
    assert abs(float(res.p)) == pytest.approx(1.177e-183, rel=1e-2)


@pytest.mark.parametrize("t,r", [(-1.0, 1.0), (1.0, -2.0),
                                 (float("nan"), 1.0), (1.0, float("inf"))])
def test_invalid_points(t, r):
    with pytest.raises(OracleError):
        oracle_eval(t, r)


@pytest.mark.parametrize("tol", [1e-25, 1e-5, 0.5])
def test_invalid_tolerance(tol):
    with pytest.raises(OracleError):
        oracle_eval(1.0, 1.0, target_tol=tol)


def test_axis_pressure_anchor():
    with mpmath.workdps(30):
        v = mp_axis_pressure(1.0, 40)
        assert abs(v - mpmath.mpf("0.2752215409929236681818")) \
            < mpmath.mpf("1e-20")
    # p(0, 0) = 1 exactly
    assert float(mp_axis_pressure(0.0, 40)) == 1.0


@pytest.mark.parametrize("n", sorted(IN_100))
def test_in_reference_t100(n):
    val = in_reference(n, 100.0)
    comp = val.imag if n % 2 == 0 else val.real
    with mpmath.workdps(30):
        ref = mpmath.mpf(IN_100[n])
        # the stored string itself carries 18 digits
        assert abs(comp - ref) < abs(ref) * mpmath.mpf("2e-17")


def test_in_reference_i0_closed_form():
    # I_0(t) = sqrt(pi/2) e^{-t^2/2} + i sqrt(2) D(t/sqrt 2)
    val = in_reference(0, 1.5, dps=40)
    with mpmath.workdps(40):
        t = mpmath.mpf("1.5")
        arg = t / mpmath.sqrt(2)
        daw = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-arg * arg) \
            * mpmath.erfi(arg)
        re = mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(-t * t / 2)
        im = mpmath.sqrt(2) * daw
        assert abs(val.real - re) < mpmath.mpf("1e-36")
        assert abs(val.imag - im) < mpmath.mpf("1e-36")


@pytest.mark.parametrize("n", [-1, 9, 2.5, "3"])
def test_in_reference_rejects_n(n):
    with pytest.raises(OracleError):
        in_reference(n, 1.0)


def test_verify_on_lattice_smoke(ev64):
    rep = verify_on_lattice(ev64, [0, 100], [-100, 50])
    assert rep.n_points == 4
    assert rep.max_dp < 1e-15
    assert rep.max_dur < 1e-15
    assert isinstance(rep.worst_region, str)
    assert rep.est_err_max <= 1e-20  # default tol 1e-17, gate tol * 1e-3
    assert math.isfinite(rep.worst_t) and math.isfinite(rep.worst_r)


def test_verify_on_lattice_raises_worker_oracle_error(ev64):
    # the oracle runs in worker processes; its errors must surface as-is
    with pytest.raises(OracleError, match="target_tol out of range"):
        verify_on_lattice(ev64, range(20), [0], target_tol=1e-30)


@pytest.mark.parametrize("point", sorted(OFF_LATTICE))
def test_off_lattice_points_meet_eps(ev64, point):
    # the eps claim covers the whole quarter-plane, not only c1's lattice
    t, r = point
    sol = ev64.evaluate(t, r)
    assert sol.region is OFF_LATTICE[point]
    ref = oracle_eval(t, r, target_tol=1e-18)
    with mpmath.workdps(30):
        err = max(abs(ref.p - mpmath.mpf(sol.p)),
                  abs(ref.ur - mpmath.mpf(sol.ur)))
    assert float(err) <= float(ev64.eps)
