"""Reference implementations and checks that exist only to test the library.

- ``contrast_statistic_bruteforce``: the O(n^3) triple sum, every ordered
  triple of distinct indices, each anchor's nonzero terms summed by
  ``math.fsum``; it shares no code with the pruned statistic it checks;
- ``scale_kernel``: the time-scale map h(t) -> beta * h(beta * t) for the
  families closed under it;
- ``scale_check``: B_fac under a scaled kernel against B_fac at scaled
  frequencies.
"""

import math

import numpy as np

from clusterbispec.kernels import Exponential, Kernel, SymmetricLaplace, UniformHalf
from clusterbispec.simulate import EventSeries, ModelParams
from clusterbispec.spectra import b_factorial


def contrast_statistic_bruteforce(series: EventSeries, f) -> float:
    """O(n^3) reference on a window with T > 0: every ordered triple of distinct indices.

    Each anchor's sum is math.fsum of its nonzero terms, the correctly
    rounded exact sum, and the anchor sums are fsum-reduced, so it equals
    the pruned statistic bit for bit.
    """
    x = np.asarray(series.times, dtype=float)
    idx = np.arange(len(x))
    partials = []
    for i in idx:
        d = x - x[i]
        vals = f.evaluate(*np.meshgrid(d, d, indexing="ij"))
        vals[i, :] = 0.0
        vals[:, i] = 0.0
        vals[idx, idx] = 0.0
        partials.append(math.fsum(vals[vals != 0.0].tolist()))
    return math.fsum(partials) / series.window_end


class UnsupportedKernelScaling(ValueError):
    """The kernel family is not closed under time scaling."""


def scale_kernel(kernel: Kernel, beta: float) -> Kernel:
    """Time-scale map h(t) -> beta*h(beta*t) for families closed under it."""
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"scale factor must be positive, got {beta}")
    if isinstance(kernel, Exponential):
        return Exponential(kernel.beta * beta)
    if isinstance(kernel, UniformHalf):
        return UniformHalf(kernel.a / beta)
    if isinstance(kernel, SymmetricLaplace):
        return SymmetricLaplace(kernel.beta * beta)
    raise UnsupportedKernelScaling(f"{type(kernel).__name__} is not closed under time scaling")


def scale_check(params: ModelParams, beta: float, w1, w2, rtol: float = 1e-10) -> bool:
    """Check B_fac under the scaled kernel equals B_fac at scaled frequencies.

    Scaling h -> beta*h(beta*t) must give B^(beta)(w1, w2) = B^(1)(w1/beta,
    w2/beta); returns True when they agree to ``rtol`` relative.
    """
    scaled = ModelParams(params.nu, params.m, params.theta, scale_kernel(params.kernel, beta))
    lhs = b_factorial(scaled, w1, w2)
    rhs = b_factorial(params, np.asarray(w1) / beta, np.asarray(w2) / beta)
    scale = np.maximum(np.abs(rhs), params.lam)
    return bool(np.all(np.abs(lhs - rhs) <= rtol * scale))
