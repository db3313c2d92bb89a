"""Lag-domain reconstruction of the reduced third factorial-cumulant density.

The factorial bispectrum is sampled on the frequency lattice conjugate to a
centered lag grid and inverted with the e^{+i w tau} convention,

    c3(tau) = (2 pi)^{-2} int B_fac(w) e^{i w . tau} dw,

via a 2-D inverse FFT.  The odd component c3_odd(tau) = (c3(tau) -
c3(-tau)) / 2 carries the whole orientation signal; D_H integrates its
absolute value over the centered box [-H, H]^2 and is the best achievable
mean of any bounded jointly odd local contrast of support radius H.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .simulate import ModelParams, write_columns
from .spectra import b_factorial, envelope

__all__ = [
    "CumulantGrid",
    "AliasWarning",
    "HOutOfRange",
    "SupportExceedsGrid",
    "TransformNotIntegrable",
    "MuFreqResult",
    "default_half_width",
    "invert_bispectrum",
    "odd_part",
    "contrast_mass_DH",
    "mu_g_time",
    "mu_g_freq",
]

HALF_WIDTH_TOL = 1e-6  # kernel survival at a third of the default lag half-width
ALIAS_FRAC = 0.01      # boundary-band share of |c3| mass above which AliasWarning fires


class AliasWarning(UserWarning):
    """Boundary band of the lag grid carries non-negligible mass (Lambda too small)."""


class HOutOfRange(ValueError):
    """Requested box radius exceeds the grid half-width."""


class SupportExceedsGrid(ValueError):
    """Test-function support does not fit inside the lag grid."""


class TransformNotIntegrable(UserWarning):
    """H_g decays slower than |w|^-2 numerically; frequency route is unreliable."""


@dataclass
class CumulantGrid:
    """Real values on the centered lag lattice tau_j = (j - n/2) * spacing.

    Row/column index 0 corresponds to lag -half_width; the lattice is
    periodic under the DFT, so index n/2 is the origin.
    """

    half_width: float
    n: int
    values: np.ndarray
    spacing: float
    imag_residue: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n & (self.n - 1) or self.n < 64:
            raise ValueError(f"n must be a power of two >= 64, got {self.n}")
        if self.values.shape != (self.n, self.n):
            raise ValueError("values must be an n-by-n array")

    @property
    def lags(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.spacing

    def total_integral(self) -> float:
        return float(self.values.sum() * self.spacing**2)

    def write_csv(self, path):
        lags = self.lags
        write_columns(path, ["tau1", "tau2", "c3", "c3_odd"], np.repeat(lags, self.n),
                      np.tile(lags, self.n), self.values, odd_part(self).values)

    def write_meta_json(self, path):
        with open(path, "w") as fh:
            json.dump({
                "half_width": self.half_width,
                "n": self.n,
                "spacing": self.spacing,
                "imag_residue": self.imag_residue,
                "meta": self.meta,
            }, fh, indent=1)


def default_half_width(params: ModelParams) -> float:
    """Lag cutoff: kernel survival at Lambda/3 below HALF_WIDTH_TOL."""
    return 3.0 * params.kernel.tail_quantile(HALF_WIDTH_TOL)


def invert_bispectrum(params: ModelParams, half_width=None, n=512) -> CumulantGrid:
    """Sample B_fac on the conjugate lattice and invert to the lag grid.

    The frequency lattice w_k = k pi / Lambda is conjugate to the lag grid;
    the shared Nyquist row is realified (its +/- pair is identified under
    periodicity), after which the inverse FFT is real to rounding.  The
    discarded imaginary residue is recorded, and an AliasWarning fires when
    the outermost 5% boundary band holds more than ALIAS_FRAC of the
    total absolute mass.
    """
    lam_w = default_half_width(params) if half_width is None else float(half_width)
    if lam_w <= 0:
        raise ValueError("half_width must be positive")
    n = int(n)
    if n & (n - 1) or n < 64:
        raise ValueError(f"n must be a power of two >= 64, got {n}")
    dtau = 2.0 * lam_w / n
    dw = math.pi / lam_w
    k = np.arange(-n // 2, n // 2)
    W1, W2 = np.meshgrid(k * dw, k * dw, indexing="ij")
    B = np.asarray(b_factorial(params, W1, W2), dtype=complex)
    # The Nyquist row/column represents both +/- n/2 Delta-w at once, like
    # the Nyquist bin of a real-signal FFT; fold it to its Hermitian average
    # so the inverse transform is real to rounding.
    refl = _reflect_index(n)
    B[0, :] = 0.5 * (B[0, :] + np.conj(B[0, refl]))
    B[:, 0] = 0.5 * (B[:, 0] + np.conj(B[refl, 0]))
    c = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(B))) / dtau**2
    scale = float(np.max(np.abs(c.real)))
    residue = float(np.max(np.abs(c.imag)))
    values = np.ascontiguousarray(c.real)

    band = max(1, n // 20)
    absval = np.abs(values)
    edge = absval.sum() - absval[band:-band, band:-band].sum()
    if edge > ALIAS_FRAC * absval.sum():
        warnings.warn(
            f"boundary band holds {edge / absval.sum():.2%} of |c3| mass; "
            f"half_width {lam_w:g} looks undersized", AliasWarning, stacklevel=2)
    return CumulantGrid(lam_w, n, values, dtau, residue / max(scale, 1e-300),
                        meta={"nu": params.nu, "m": params.m,
                              "kernel": params.kernel.spec_string(),
                              "envelope": envelope(params)})


def _reflect_index(n: int) -> np.ndarray:
    # lattice reflection tau -> -tau under DFT periodicity; index n/2 is 0
    return (n - np.arange(n)) % n


def odd_part(grid: CumulantGrid) -> CumulantGrid:
    """Antisymmetrize about the origin; exactly odd on the periodic lattice."""
    r = _reflect_index(grid.n)
    odd = 0.5 * (grid.values - grid.values[np.ix_(r, r)])
    return CumulantGrid(grid.half_width, grid.n, odd, grid.spacing,
                        grid.imag_residue, meta=dict(grid.meta))


def contrast_mass_DH(grid: CumulantGrid, H: float) -> float:
    """D_H: Riemann sum of |odd part| over the centered box [-H, H]^2."""
    if not 0.0 < H <= grid.half_width:
        raise HOutOfRange(f"H must lie in (0, {grid.half_width:g}], got {H}")
    odd = odd_part(grid)
    inside = np.abs(grid.lags) <= H
    return float(np.abs(odd.values[np.ix_(inside, inside)]).sum() * grid.spacing**2)


def mu_g_time(grid: CumulantGrid, f) -> float:
    """Lag-domain functional: Riemann sum of g * c3_odd over the lattice."""
    if f.support_radius > grid.half_width:
        raise SupportExceedsGrid(
            f"support radius {f.support_radius:g} exceeds grid half-width {grid.half_width:g}")
    odd = odd_part(grid)
    T1, T2 = np.meshgrid(grid.lags, grid.lags, indexing="ij")
    return float((f.evaluate(T1, T2) * odd.values).sum() * grid.spacing**2)


@dataclass(frozen=True)
class MuFreqResult:
    value: float
    truncation_bound: float
    omega_max: float
    n_omega: int


def mu_g_freq(params: ModelParams, f, omega_max=40.0, n_omega=1600) -> MuFreqResult:
    """Frequency route: mu_g = (2 pi)^{-2} int H_g(w) Im B_fac(w) dw.

    H_g is obtained on the lattice by an FFT of g (g real and jointly odd
    makes ghat = i H_g with H_g real), and the integral is a lattice sum
    truncated at ``omega_max``.  The reported bound combines the outer-ring
    contribution with the global envelope on |Im B|.
    """
    n_omega = int(n_omega)
    if n_omega & 1:
        raise ValueError("n_omega must be even")
    dw = 2.0 * omega_max / n_omega
    A = math.pi / dw                       # conjugate lag half-width
    delta = 2.0 * A / n_omega              # lag spacing; pi / omega_max
    if f.support_radius > A:
        raise SupportExceedsGrid("omega grid too coarse for the test-function support")
    k = np.arange(-n_omega // 2, n_omega // 2)
    tgrid = k * delta
    T1, T2 = np.meshgrid(tgrid, tgrid, indexing="ij")
    gvals = f.evaluate(T1, T2)
    ghat = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(gvals))) * delta**2
    if np.max(np.abs(ghat.real)) > 1e-9 * max(np.max(np.abs(ghat.imag)), 1e-300):
        raise ValueError("transform of g is not purely imaginary; g is not jointly odd")
    Hg = ghat.imag                         # ghat = i H_g

    w = k * dw
    W1, W2 = np.meshgrid(w, w, indexing="ij")
    imb = np.asarray(b_factorial(params, W1, W2)).imag
    value = float((Hg * imb).sum() * dw**2 / (2.0 * math.pi) ** 2)

    # decay diagnostic: |H_g| on two outer rings should fall faster than w^-2
    ring = np.maximum(np.abs(W1), np.abs(W2))
    outer = (ring >= 0.9 * omega_max)
    mid = (ring >= 0.45 * omega_max) & (ring < 0.55 * omega_max)
    peak_outer = float(np.abs(Hg[outer]).max())
    peak_mid = float(np.abs(Hg[mid]).max()) if mid.any() else 0.0
    if peak_mid > 0 and peak_outer > peak_mid * (0.5 / 0.9) ** 2:
        warnings.warn("H_g decays slower than |w|^-2 on the grid; "
                      "frequency-route truncation is unreliable",
                      TransformNotIntegrable, stacklevel=2)
    # outer-ring contribution of |integrand| as the truncation proxy: H_g
    # decays superpolynomially for smooth g, so the beyond-grid remainder is
    # below the last ring's own mass
    bound = float(np.abs(Hg[outer] * imb[outer]).sum() * dw**2 / (2.0 * math.pi) ** 2)
    return MuFreqResult(value, bound, omega_max, n_omega)
