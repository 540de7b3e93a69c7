"""Machine-speed gauge: a fixed reference kernel timed between check calls.

The benchmark runs on shared hosts whose speed drifts by more than half
over minutes, so raw wall times of identical runs spread wider than any
useful regression bound. The gauge times a small kernel that does not use
msgrav, in the benchmark process, right before and after every timed call.
A call's wall time is then rescaled to *reference seconds*:

    wall * REFERENCE_S / (mean of the two kernel times around the call)

that is, the time the call would take on a machine where one kernel run
takes exactly REFERENCE_S. A change to msgrav moves reference seconds just
as it moves wall seconds; a change in the host's speed moves the kernel
and the call together and cancels. A change that slows the whole process,
not just the calls (say, a background thread left holding the interpreter
lock), slows the kernel too and would partly cancel as well. The raw wall
figures are printed beside every rescaled one.

The kernel mixes what msgrav spends its time on: interpreted arithmetic on
small objects with overloaded operators (the tangent and series types) and
small numpy contractions (the exterior-form and curvature arrays).
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

# nominal kernel time, the unit of reference seconds: a fixed constant near
# the kernel's median time on the shared 2-core x86_64 host the benchmark was
# defined on, so that reference seconds read close to wall seconds there
REFERENCE_S = 0.008


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __add__(self, o):
        return _Dual(self.v + o.v, self.d + o.d)

    def __mul__(self, o):
        return _Dual(self.v * o.v, self.v * o.d + self.d * o.v)


_A = np.linspace(0.1, 1.0, 4 * 4 * 4).reshape(4, 4, 4)
_B = np.linspace(1.0, 0.5, 4 * 4).reshape(4, 4)


def _kernel() -> float:
    acc = _Dual(0.0, 0.0)
    step = _Dual(1.0001, 1.0)
    table = {}
    for i in range(3500):
        acc = acc * step + _Dual(1e-3 * (i % 7), 0.0)
        table[i % 97] = acc.v
    t = _A
    for _ in range(350):
        t = np.einsum("abc,cd->abd", t, _B) * 0.5 + _A
    return acc.d + float(t.sum()) + sum(table.values())


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel.

    The garbage collector is held off meanwhile: a collection would walk
    msgrav's heap and time that rather than the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def settled_kernel_seconds(runs: int = 5) -> float:
    """Median kernel time after one untimed run (for a fresh process)."""
    _kernel()
    return statistics.median(kernel_seconds() for _ in range(runs))


def rescale(wall: float, kernel_s: float) -> float:
    """`wall` seconds at a kernel time of `kernel_s`, in reference seconds."""
    return wall * REFERENCE_S / kernel_s
