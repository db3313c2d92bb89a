"""Lag-domain reconstruction of the reduced third factorial-cumulant density.

The factorial bispectrum is sampled on the frequency lattice conjugate to a
centered lag grid and inverted with the e^{+i w tau} convention,

    c3(tau) = (2 pi)^{-2} int B_fac(w) e^{i w . tau} dw,

via a 2-D inverse FFT.  Both this inversion and the frequency route of mu_g
evaluate B_fac on the Hermitian half of their lattice only and fill the other
half by B_fac(-w) = conj B_fac(w), which holds for a real process and is exact
in floating point (``_b_lattice``).  The odd component c3_odd(tau) = (c3(tau) -
c3(-tau)) / 2 carries the whole orientation signal; D_H integrates its
absolute value over the centered box [-H, H]^2 and is the best achievable
mean of any bounded jointly odd local contrast of support radius H.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .kernels import Refused, array_key, readonly
from .simulate import ModelParams, write_json
from .spectra import b_factorial, envelope

__all__ = [
    "CumulantGrid",
    "AliasWarning",
    "HOutOfRange",
    "SupportExceedsGrid",
    "GridBudgetExceeded",
    "LatticeOutOfRange",
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
# most cells one frequency grid may hold (a lag lattice, a CLI spectrum or bispectrum):
# the bispectrum command peaks at about 225 B a cell (tracemalloc, exp:1, n = 256, JSON
# out; invert 45 B, mu_g_freq 60 B), so 2^22 cells, n = 2048 a side, take about 1 GB
GRID_BUDGET = 2**22


class AliasWarning(UserWarning):
    """Boundary band of the lag grid carries non-negligible mass (Lambda too small)."""


class HOutOfRange(Refused):
    """Requested box radius exceeds the grid half-width."""


class SupportExceedsGrid(Refused):
    """Test-function support does not fit inside the lag grid."""


class GridBudgetExceeded(Refused):
    """The lattice would hold more cells than GRID_BUDGET."""


class LatticeOutOfRange(Refused):
    """A lag or frequency cell area spacing^2 is subnormal or overflows, or c3
    could overflow by it."""


class TransformNotIntegrable(UserWarning):
    """H_g decays slower than |w|^-2 numerically; frequency route is unreliable."""


@dataclass(frozen=True, eq=False)
class CumulantGrid:
    """Real values on the centered lag lattice tau_j = (j - n/2) * spacing.

    Row/column index 0 corresponds to lag -half_width; the lattice is
    periodic under the DFT, so index n/2 is the origin.  The values are held
    as a read-only float copy.  Two grids are equal, and hash alike, when
    their lattice, imaginary residue and values (bit for bit) are; the meta
    describes how a grid was made, not the grid, so it is left out.  The key
    of the values' bytes is built at the first == or hash, so a grid holds
    no second copy of them until then.
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
        object.__setattr__(self, "values", readonly(self.values))
        if self.values.shape != (self.n, self.n):
            raise ValueError("values must be an n-by-n array")

    @functools.cached_property
    def _key(self) -> tuple:
        return (self.half_width, self.n, self.spacing, self.imag_residue, array_key(self.values))

    def __eq__(self, other):
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key)

    @property
    def lags(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.spacing

    def total_integral(self) -> float:
        return float(self.values.sum() * self.spacing**2)

    def write_csv(self, path):
        """Rows tau1, tau2, c3, c3_odd by ``repr``, as ``write_columns`` writes them, with
        each of the n distinct lags formatted once rather than at each of its 2n cells."""
        lag = list(map(repr, self.lags.tolist()))
        c3, odd = (map(repr, np.asarray(g.values, dtype=float).ravel().tolist())
                   for g in (self, odd_part(self)))
        with open(path, "w") as fh:
            fh.write("tau1,tau2,c3,c3_odd\n")
            fh.writelines("%s,%s,%s,%s\n" % (*t, c, o) for t, c, o in zip(product(lag, lag), c3, odd))

    def write_meta_json(self, path):
        write_json(path, {"half_width": self.half_width, "n": self.n, "spacing": self.spacing,
                          "imag_residue": self.imag_residue, "meta": self.meta})


def default_half_width(params: ModelParams) -> float:
    """Lag cutoff: kernel survival at Lambda/3 below HALF_WIDTH_TOL."""
    return 3.0 * params.kernel.tail_quantile(HALF_WIDTH_TOL)


def invert_bispectrum(params: ModelParams, half_width=None, n=512) -> CumulantGrid:
    """Sample B_fac on the conjugate lattice and invert to the lag grid.

    The frequency lattice w_k = k pi / Lambda is conjugate to the lag grid.
    B_fac is evaluated on its Hermitian half only, the rows k1 <= 0, and the
    rows k1 > 0 are conjugates, B_fac(-w) = conj B_fac(w): negating k dw and
    k1 dw + k2 dw is exact and the closed form commutes with conjugation, so
    the lattice is bit for bit the full evaluation but for the sign of exact
    zeros, which the transform absorbs.  It is written straight into FFT
    order and transformed in place; the shared Nyquist row is realified (its
    +/- pair is identified under periodicity), after which the inverse FFT
    is real to rounding.  The discarded imaginary residue is recorded, and an
    AliasWarning fires when the outermost 5% boundary band holds more than
    ALIAS_FRAC of the total absolute mass.  An n^2 above GRID_BUDGET raises
    :class:`GridBudgetExceeded`, and a lag cell area spacing^2 that under- or
    overflows, or that lets c3 overflow, :class:`LatticeOutOfRange`, before
    any frequency is sampled.
    """
    lam_w = default_half_width(params) if half_width is None else float(half_width)
    if not (lam_w > 0 and math.isfinite(lam_w)):
        raise ValueError(f"half_width must be positive and finite, got {lam_w}")
    n = int(n)
    if n & (n - 1) or n < 64:
        raise ValueError(f"n must be a power of two >= 64, got {n}")
    if n * n > GRID_BUDGET:
        raise GridBudgetExceeded(f"n = {n} needs {n * n} cells, above the grid budget "
                                 f"of {GRID_BUDGET}")
    dtau = 2.0 * lam_w / n
    # |c3| <= envelope / area: nu E[(M)_3] bounds |B_fac| as well
    _check_cells(dtau, f"half_width {lam_w:g} gives lag cells", envelope(params))
    B = _b_lattice(params, n, math.pi / lam_w)
    # The Nyquist row/column represents both +/- n/2 Delta-w at once, like
    # the Nyquist bin of a real-signal FFT; fold it to its Hermitian average
    # so the inverse transform is real to rounding.  In FFT order it sits at
    # position n/2, and k -> -k is the same reflection as tau -> -tau.
    h, refl = n // 2, _reflect_index(n)
    B[h, :] = 0.5 * (B[h, :] + np.conj(B[h, refl]))
    B[:, h] = 0.5 * (B[:, h] + np.conj(B[refl, h]))
    np.fft.ifftn(B, out=B)   # in place: numpy's ifft2 drops its ``out``
    B /= dtau**2
    scale = float(np.max(np.abs(B.real)))
    residue = float(np.max(np.abs(B.imag)))
    values = np.fft.fftshift(B.real)

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


def _b_lattice(params: ModelParams, n: int, dw: float) -> np.ndarray:
    """B_fac at (k1 dw, k2 dw), k1 and k2 in [-n/2, n/2), in FFT order: lattice index k
    at position k mod n.

    Sampled on the Hermitian half: one ``b_factorial`` call broadcasts the rows k1 in
    [-n/2, 0] against the columns k2 in [-n/2, n/2], and each row k1 in (0, n/2) is the
    conjugate of row -k1 with its columns reversed, B(k1, k2) = conj B(-k1, -k2), the
    column k2 = +n/2 giving its k2 = -n/2 entry.  This is exact: negation is exact on
    k dw and on fl(k1 dw + k2 dw), and every operation of the closed form commutes with
    conjugation, so only the sign of an exactly zero imaginary part can differ from a
    full evaluation."""
    h = n // 2
    w = np.arange(-h, h + 1) * dw
    half = np.asarray(b_factorial(params, w[:h + 1, None], w[None, :]), dtype=complex)
    B = np.empty((n, n), dtype=complex)
    # rows k1 in [-n/2, -1] at positions n/2.., row 0 at position 0; columns alike
    B[h:, h:], B[h:, :h] = half[:h, :h], half[:h, h:n]
    B[0, h:], B[0, :h] = half[h, :h], half[h, h:n]
    # row k1 in (0, n/2) at position k1 from half row n/2 - k1, column k2 from n/2 - k2
    np.conjugate(half[h - 1:0:-1, h:0:-1], out=B[1:h, :h])
    np.conjugate(half[h - 1:0:-1, n:h:-1], out=B[1:h, h:])
    return B


def _check_cells(spacing, cells, bound=1.0):
    """LatticeOutOfRange unless the cell area spacing^2 is a normal double and
    bound / area is finite."""
    area = spacing * spacing
    if not (np.finfo(float).tiny <= area < math.inf and bound / area < math.inf):
        raise LatticeOutOfRange(f"{cells} of area {area:g}, too small or too large "
                                "for a finite sum")


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
    return _g_sums(odd_part(grid), f, None)[0]


def _g_sums(odd: CumulantGrid, f, *weights) -> list[float]:
    """Lattice sums of g * w * c3_odd, one per weight w (None: 1), from one evaluation
    of g: the one place g meets a lag lattice.

    g is evaluated on the column x row of lags within [-H, H] only and set into a
    lattice of zeros, the exact 0.0 it takes outside its box.  A weight takes the
    column of lags and the row and broadcasts them to the lattice; each product
    g * w * c3_odd is formed in that one array and summed whole, so every bit is
    as when g was evaluated on the whole lattice."""
    if f.support_radius > odd.half_width:
        raise SupportExceedsGrid(
            f"support radius {f.support_radius:g} exceeds grid half-width {odd.half_width:g}")
    col, row = odd.lags[:, None], odd.lags[None, :]
    box = np.flatnonzero(np.abs(odd.lags) <= f.support_radius)            # 0 is a lag
    box = slice(box[0], box[-1] + 1)
    g = np.zeros((odd.n, odd.n))
    g[box, box] = f.evaluate(*np.broadcast_arrays(col[box], row[:, box]))
    sums = []
    for w in weights:
        if w is None:
            terms = g * odd.values
        else:                      # w returns a fresh lattice: g * w * c3_odd formed in it
            terms = w(col, row)
            terms *= g
            terms *= odd.values
        sums.append(float(terms.sum() * odd.spacing**2))
    return sums


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
    truncated at ``omega_max``.  Im B_fac comes from the same Hermitian-half
    evaluation as the inversion's, Im B_fac(-w) = -Im B_fac(w) filling the
    other half exactly, so the sum is bit for bit the full lattice's.  The
    reported bound combines the outer-ring contribution with the global
    envelope on |Im B|.  An n_omega^2 above GRID_BUDGET raises
    :class:`GridBudgetExceeded`, and a lag or frequency cell area that under-
    or overflows :class:`LatticeOutOfRange`, before g or any frequency is
    sampled.
    """
    if not (omega_max > 0 and math.isfinite(omega_max)):
        raise ValueError(f"omega_max must be positive and finite, got {omega_max}")
    n_omega = int(n_omega)
    if n_omega < 2 or n_omega & 1:
        raise ValueError(f"n_omega must be an even integer >= 2, got {n_omega}")
    if n_omega * n_omega > GRID_BUDGET:
        raise GridBudgetExceeded(f"n_omega = {n_omega} needs {n_omega**2} cells, "
                                 f"above the grid budget of {GRID_BUDGET}")
    dw = 2.0 * omega_max / n_omega
    _check_cells(dw, f"omega_max {omega_max:g} and n_omega {n_omega} give frequency cells")
    A = math.pi / dw                       # conjugate lag half-width
    delta = 2.0 * A / n_omega              # lag spacing; pi / omega_max
    _check_cells(delta, f"omega_max {omega_max:g} gives lag cells")
    if f.support_radius > A:
        raise SupportExceedsGrid("omega grid too coarse for the test-function support")
    # lattice index k at position k mod n_omega, as _b_lattice writes B: no complex shifts
    k = (np.arange(n_omega) + n_omega // 2) % n_omega - n_omega // 2
    t = (k * delta)[:, None]
    ghat = np.fft.fft2(f.evaluate(*np.broadcast_arrays(t, t.T)))
    ghat *= delta**2
    if np.max(np.abs(ghat.real)) > 1e-9 * max(np.max(np.abs(ghat.imag)), 1e-300):
        raise ValueError("transform of g is not purely imaginary; g is not jointly odd")
    Hg = ghat.imag                         # ghat = i H_g

    terms = np.fft.fftshift(Hg * _b_lattice(params, n_omega, dw).imag)   # summed with k ascending
    value = float(terms.sum() * dw**2 / (2.0 * math.pi) ** 2)

    # decay diagnostic: |H_g| on two outer rings should fall faster than w^-2
    aw = np.abs(k * dw)
    ring = np.maximum(aw[:, None], aw[None, :])
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
    bound = float(np.abs(terms[np.fft.fftshift(outer)]).sum() * dw**2 / (2.0 * math.pi) ** 2)
    return MuFreqResult(value, bound, omega_max, n_omega)
