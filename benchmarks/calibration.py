"""A fixed reference computation timed next to every measured span.

The benchmark machine may be shared: other tenants slow every process on it,
by up to 2x for seconds to minutes at a time, and CPU time slows with wall
time.  Timing this kernel right before and right after a span and rescaling
the span by REFERENCE_S / (mean kernel seconds) cancels most of that, since
both slow down together.  The kernel mixes the program's kinds of work
(scalar Python arithmetic, adaptive scipy quadrature with a Python
integrand, numpy array arithmetic) and never calls the program, so no
change to the program can move it.
"""

import math
import time

# Kernel seconds on the reference machine (2-vCPU Intel Xeon VM, Linux,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1, undisturbed), so rescaled times
# read as seconds on that machine.
REFERENCE_S = 0.05


def _kernel():
    # imported here so that the runner, which only rescales, stays light
    import numpy as np
    from scipy import integrate

    acc = 0.0
    for i in range(300000):
        acc += math.exp(-1e-4 * i) * 0.5
    for k in range(300):
        acc += integrate.quad(lambda t: math.exp(-t - math.sqrt(t + k)),
                              0.0, math.inf)[0]
    a = np.linspace(1.0, 2.0, 4096)
    for _ in range(2000):
        a = np.sqrt(a * a + 1e-3) * 0.999
    return acc + float(a[-1])


def kernel_seconds():
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def rescale(seconds, before, after):
    """Seconds of a span as the reference machine would have taken them."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
