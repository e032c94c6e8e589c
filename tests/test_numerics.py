"""Backend layer: elementwise functions, conversions, precision contexts."""

import mpmath
import numpy as np
import pytest

from pulse2d.numerics import FLOAT64, MPBackend, mp_backend


def test_mp_function_on_a_scalar_returns_a_scalar():
    bk = mp_backend(25)
    y = bk.exp(bk.scalar(1))
    assert isinstance(y, mpmath.mpf)
    with mpmath.workdps(25):
        assert y == mpmath.e


def test_mp_function_preserves_shape():
    bk = mp_backend(25)
    x = bk.asarray(np.arange(6).reshape(2, 3))
    y = bk.exp(x)
    assert y.shape == (2, 3)
    assert y.dtype == object
    with mpmath.workdps(25):
        assert y[1, 2] == mpmath.exp(5)


def test_float64_backend_basics():
    bk = FLOAT64
    assert bk.dtype is np.float64
    assert bk.scalar(2) == 2.0
    assert isinstance(bk.scalar(2), float)
    assert bk.asarray([1, 2]).dtype == np.float64
    assert bk.zeros((3,)).tolist() == [0.0, 0.0, 0.0]
    assert bk.ceil_int(2.1) == 3
    assert bk.floor_int(2.9) == 2
    assert bk.isfinite_all(np.array([1.0, 2.0]))
    assert not bk.isfinite_all(np.array([1.0, np.inf]))
    with bk.workprec():
        pass


def test_mp_backend_rejects_low_dps():
    with pytest.raises(ValueError):
        MPBackend(10)


def test_mp_backend_scalars_are_mpf():
    bk = mp_backend(25)
    v = bk.scalar("0.1")
    assert isinstance(v, mpmath.mpf)
    # string construction avoids the double-rounding of float 0.1
    with mpmath.workdps(25):
        assert abs(v - mpmath.mpf(1) / 10) < mpmath.mpf(10) ** -24


def test_mp_backend_asarray_and_zeros():
    bk = mp_backend(25)
    a = bk.asarray([1, 2.5])
    assert a.dtype == object
    assert all(isinstance(v, mpmath.mpf) for v in a)
    z = bk.zeros((2, 2))
    assert z.shape == (2, 2)
    assert all(v == 0 for v in z.ravel())


def test_mp_backend_functions_honour_dps():
    bk = mp_backend(45)
    x = bk.asarray([2])
    y = bk.sqrt(x)[0]
    with mpmath.workdps(45):
        assert abs(y * y - 2) < mpmath.mpf(10) ** -43


def test_mp_backend_cache_identity():
    assert mp_backend(30) is mp_backend(30)
    assert mp_backend(30) is not mp_backend(31)


def test_mp_backend_isfinite_all():
    bk = mp_backend(25)
    good = bk.asarray([1, 2])
    assert bk.isfinite_all(good)
    bad = np.array([mpmath.mpf(1), mpmath.inf], dtype=object)
    assert not bk.isfinite_all(bad)
