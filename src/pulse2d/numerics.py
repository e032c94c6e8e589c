"""Scalar/array numeric backends (double and extended precision).

The evaluation kernels are written once against a small backend interface:
the double backend maps onto numpy (vectorized, production) and the extended
backend onto mpmath (element-wise, used for reference runs and for isolating
algorithmic error from rounding error).  Backends supply transcendental
primitives, constants and conversions; special functions live in
``specfun``.

mpmath arithmetic picks up the *global* working precision, so every entry
point that does extended-precision work must run inside ``backend.workprec()``.
That precision is one per process, not per thread, so an mpmath backend
holds one process-wide lock while it has set it: threads evaluating under
mpmath take turns (pure-Python mpmath holds the GIL anyway).  The double
backend's ``workprec`` is a no-op.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager, nullcontext

import mpmath
import numpy as np

__all__ = ["Float64Backend", "MPBackend", "FLOAT64", "mp_backend"]


def as_mask(x):
    """Boolean numpy array from a comparison on either backend's arrays
    (mpmath comparisons come back as object arrays)."""
    return np.asarray(x, dtype=bool)


class Float64Backend:
    """IEEE binary64 backend on numpy ufuncs."""

    key = "float64"
    dtype = np.float64
    pi = math.pi

    exp = staticmethod(np.exp)
    log = staticmethod(np.log)
    sqrt = staticmethod(np.sqrt)

    @staticmethod
    def scalar(x):
        return float(x)

    @staticmethod
    def asarray(x):
        return np.asarray(x, dtype=np.float64)

    @staticmethod
    def zeros(shape):
        return np.zeros(shape, dtype=np.float64)

    @staticmethod
    def ceil_int(x):
        return int(math.ceil(x))

    @staticmethod
    def floor_int(x):
        return int(math.floor(x))

    @staticmethod
    def isfinite_all(x):
        return bool(np.all(np.isfinite(x)))

    @staticmethod
    def workprec():
        return nullcontext()


# held while an MPBackend has set mpmath's global precision
_MP_LOCK = threading.RLock()


class MPBackend:
    """Arbitrary-precision backend on mpmath (``dps`` decimal digits)."""

    dtype = object

    def __init__(self, dps: int = 40):
        if dps < 20:
            raise ValueError("extended backend needs dps >= 20")
        self.dps = int(dps)
        self.key = f"mp{self.dps}"
        with self.workprec():
            self.pi = +mpmath.pi
        self.exp = self._wrap(mpmath.exp)
        self.log = self._wrap(mpmath.log)
        self.sqrt = self._wrap(mpmath.sqrt)
        self.cos = self._wrap(mpmath.cos)

    def _wrap(self, fn):
        elementwise = np.frompyfunc(fn, 1, 1)

        def call(x):
            with self.workprec():
                return elementwise(x)

        return call

    def scalar(self, x):
        with self.workprec():
            return mpmath.mpf(x)

    def asarray(self, x):
        with self.workprec():
            a = np.asarray(x, dtype=object)
            flat = [v if isinstance(v, mpmath.mpf) else mpmath.mpf(v)
                    for v in a.ravel()]
            out = np.empty(len(flat), dtype=object)
            out[:] = flat
            return out.reshape(a.shape)

    def zeros(self, shape):
        out = np.empty(shape, dtype=object)
        out[...] = mpmath.mpf(0)
        return out

    def ceil_int(self, x):
        with self.workprec():
            return int(mpmath.ceil(x))

    def floor_int(self, x):
        with self.workprec():
            return int(mpmath.floor(x))

    @staticmethod
    def isfinite_all(x):
        arr = np.asarray(x, dtype=object)
        return all(mpmath.isfinite(v) for v in arr.ravel())

    @contextmanager
    def workprec(self):
        with _MP_LOCK, mpmath.workdps(self.dps):
            yield


FLOAT64 = Float64Backend()

_MP_CACHE: dict[int, MPBackend] = {}


def mp_backend(dps: int = 40) -> MPBackend:
    """Shared extended-precision backend for a given digit count."""
    be = _MP_CACHE.get(dps)
    if be is None:
        be = _MP_CACHE[dps] = MPBackend(dps)
    return be
