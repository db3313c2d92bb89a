"""Reference implementations and checks that exist only to test the library.

- ``contrast_statistic_bruteforce``: the O(n^3) triple sum, every ordered
  triple of distinct indices, each anchor's nonzero terms summed by
  ``math.fsum``; it shares no code with the pruned statistic it checks;
- ``scale_kernel``: the time-scale map h(t) -> beta * h(beta * t) for the
  families closed under it;
- ``scale_check``: B_fac under a scaled kernel against B_fac at scaled
  frequencies;
- ``periodogram_direct``: the periodogram from one complex exponential per
  (frequency, point), the K x N array exp(-i outer(w, x)) summed by row;
- ``w_product_prefix``: the per-cluster product of cluster transforms W(w)
  from one exponential per (frequency, member), members sorted by cluster
  and each W a difference of cumulative sums;
- ``full_lattice_inversion`` and ``full_lattice_mu_g_freq``: the lag
  inversion and the frequency route of mu_g with B_fac evaluated at every
  cell of the full meshgrid, in centered order, shifted for the FFT.
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


def periodogram_direct(series: EventSeries, omega):
    """|sum_x e^{-i w x}|^2 / T from one exponential per (frequency, point)."""
    w = np.asarray(omega, dtype=float)
    ph = np.exp(-1j * np.multiply.outer(w, series.times))
    return np.abs(ph.sum(axis=-1)) ** 2 / series.window_end


def w_product_prefix(freqs, offs, cid, batch):
    """[prod_j W(freq_j)] per cluster, each W a difference of prefix sums.

    Takes the arguments of ``montecarlo._w_product``: members are sorted by
    cluster, and every member, the root included, gets its own exponential.
    """
    order = np.argsort(cid, kind="stable")
    offs, cid = offs[order], cid[order]
    bounds = np.searchsorted(cid, np.arange(batch + 1))
    prod = np.ones(batch, dtype=complex)
    for w in freqs:
        cs = np.concatenate([[0.0 + 0.0j], np.cumsum(np.exp(-1j * float(w) * offs))])
        prod *= cs[bounds[1:]] - cs[bounds[:-1]]
    return [prod]


def full_lattice_inversion(params: ModelParams, half_width: float, n: int):
    """(c3 values, imaginary residue) of the lag inversion from B_fac at all n^2 cells."""
    dw, dtau = math.pi / half_width, 2.0 * half_width / n
    k = np.arange(-n // 2, n // 2)
    W1, W2 = np.meshgrid(k * dw, k * dw, indexing="ij")
    B = np.asarray(b_factorial(params, W1, W2), dtype=complex)
    refl = (n - np.arange(n)) % n
    B[0, :] = 0.5 * (B[0, :] + np.conj(B[0, refl]))
    B[:, 0] = 0.5 * (B[:, 0] + np.conj(B[refl, 0]))
    c = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(B))) / dtau**2
    return c.real, float(np.max(np.abs(c.imag))) / max(float(np.max(np.abs(c.real))), 1e-300)


def full_lattice_mu_g_freq(params: ModelParams, f, omega_max: float, n_omega: int):
    """(value, truncation bound) of the frequency route from Im B_fac at all n_omega^2 cells."""
    dw = 2.0 * omega_max / n_omega
    delta = 2.0 * (math.pi / dw) / n_omega
    k = np.arange(-n_omega // 2, n_omega // 2)
    T1, T2 = np.meshgrid(k * delta, k * delta, indexing="ij")
    Hg = (np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(f.evaluate(T1, T2)))) * delta**2).imag
    W1, W2 = np.meshgrid(k * dw, k * dw, indexing="ij")
    imb = np.asarray(b_factorial(params, W1, W2)).imag
    outer = np.maximum(np.abs(W1), np.abs(W2)) >= 0.9 * omega_max
    return (float((Hg * imb).sum() * dw**2 / (2.0 * math.pi) ** 2),
            float(np.abs(Hg[outer] * imb[outer]).sum() * dw**2 / (2.0 * math.pi) ** 2))
