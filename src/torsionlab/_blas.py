"""Thread count of numpy's bundled OpenBLAS.

A run's least-squares problems have a few hundred rows; OpenBLAS worker
threads spin after each such call and do no useful work, and the sweep's
``--threads`` pool is the run's parallelism.  OpenBLAS fixes its thread count
from the environment when it loads, which is before this package is imported,
so the count is set through the library itself.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def thread_control():
    """(get, set) of numpy's OpenBLAS thread count, or None where numpy
    bundles no OpenBLAS that exposes them."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))  # already loaded by numpy: the same instance
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def one_thread():
    """Run the block with numpy's BLAS on one thread and restore the count
    afterwards, also when the block raises.  Yields the count in force (1),
    or None where the BLAS offers no control and nothing is changed.  The
    count is process-wide, so blocks must not overlap in time."""
    control = thread_control()
    if control is None:
        yield None
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield 1
    finally:
        set_(before)
