"""Closed-form first-, second-, and third-order spectra of the branching model.

With Phi(w) = m*hhat(w) and R(w) = 1/(1 - Phi(w)), the complete third-order
transform admits two algebraically equivalent forms,

    R-form:  B_comp(w1, w2) = lam R(w1) R(w2) R(w3) {R(-w1)+R(-w2)+R(-w3)-2},
             w3 = -w1-w2,
    Q-form:  B_comp = lam (1 - m^2 Q) / (|1-m hhat(w1)|^2 |1-m hhat(w2)|^2
                                          |1-m hhat(-w1-w2)|^2),

and the factorial transform differs by real pair-diagonal corrections,

    B_fac = B_comp - Gamma(w1) - Gamma(w2) - Gamma(w1+w2) + 2 lam,

so Im B_fac = Im B_comp exactly.  All evaluators are pure; expensive kernel
transforms are computed once per distinct frequency within a call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel
from .simulate import ModelParams, write_columns

__all__ = [
    "SpectralGrid",
    "bartlett",
    "b_complete",
    "b_factorial",
    "im_b_diagonal",
    "borel_factorial3",
    "envelope",
]


@dataclass
class SpectralGrid:
    """Frequencies (1D or 2D) with complex values."""

    dims: int
    frequencies: np.ndarray  # (k,) for dims=1, (k, 2) for dims=2
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dims not in (1, 2):
            raise ValueError("dims must be 1 or 2")
        if np.any(~np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    def write_csv(self, path):
        freqs = np.reshape(self.frequencies, (len(self.values), self.dims)).T
        write_columns(path, ["w1", "w2", "re", "im"] if self.dims == 2 else ["w", "re", "im"],
                      *freqs, self.values.real, self.values.imag)

    def write_json(self, path):
        doc = {
            "dims": self.dims,
            "frequencies": np.asarray(self.frequencies).tolist(),
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
            "meta": self.meta,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)


class _TransformTable:
    """Evaluate hhat once per distinct |w| within one spectra call.

    Negative frequencies take the conjugate, hhat(-w) = conj(hhat(w)), so a
    table built from some frequencies answers for their negatives too.
    """

    def __init__(self, kernel: Kernel, frequencies):
        self._grid = np.unique(np.abs(np.concatenate([np.ravel(np.asarray(f, dtype=float))
                                                      for f in frequencies])))
        self._vals = np.asarray(kernel.transform(self._grid))

    def __call__(self, w):
        w = np.asarray(w, dtype=float)
        vals = self._vals[np.searchsorted(self._grid, np.abs(w))]
        return np.where(w < 0, np.conj(vals), vals)


def _hhat_table(params: ModelParams, w1, w2):
    return _TransformTable(params.kernel, [w1, w2, w1 + w2])


def _r_form(params: ModelParams, hh: _TransformTable, w1, w2):
    """R-form of B_comp(w1, w2) from an already-built transform table."""
    m = params.m

    def R(w):
        return 1.0 / (1.0 - m * hh(w))

    w3 = -w1 - w2
    return params.lam * R(w1) * R(w2) * R(w3) * (R(-w1) + R(-w2) + R(-w3) - 2.0)


def bartlett(params: ModelParams, omega):
    """Full Bartlett spectrum Gamma(w) = lam / |1 - m hhat(w)|^2."""
    hh = params.kernel.transform(omega)
    return params.lam / np.abs(1.0 - params.m * hh) ** 2


def b_complete(params: ModelParams, w1, w2, form="R"):
    """Transform of the reduced complete third cumulant at (w1, w2).

    ``form`` selects the R-form ('R') or Q-form ('Q'); the two agree to
    rounding and the Q-form's denominator is real and >= (1-m)^6.
    """
    if form not in ("R", "Q"):
        raise ValueError(f"form must be 'R' or 'Q', got {form!r}")
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    hh = _hhat_table(params, w1, w2)
    if form == "R":
        return _r_form(params, hh, w1, w2)
    m, lam = params.m, params.lam
    w3 = -w1 - w2
    h1m, h2m, h12 = hh(-w1), hh(-w2), hh(w1 + w2)
    Q = h1m * h2m + h12 * (h1m + h2m - 2.0 * m * h1m * h2m)
    den = (np.abs(1.0 - m * hh(w1)) ** 2
           * np.abs(1.0 - m * hh(w2)) ** 2
           * np.abs(1.0 - m * hh(w3)) ** 2)
    return lam * (1.0 - m**2 * Q) / den


def b_factorial(params: ModelParams, w1, w2):
    """Factorial bispectrum B_fac = B_comp - Gamma(w1) - Gamma(w2) - Gamma(w1+w2) + 2 lam."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    hh = _hhat_table(params, w1, w2)
    m, lam = params.m, params.lam

    def gamma(w):
        return lam / np.abs(1.0 - m * hh(w)) ** 2

    bc = _r_form(params, hh, w1, w2)
    return bc - gamma(w1) - gamma(w2) - gamma(w1 + w2) + 2.0 * lam


def im_b_diagonal(params: ModelParams, t):
    """Im B_fac(t, t) via the cosine/sine decomposition of the kernel transform.

    Writes hhat(t) = U(t) - i V(t) and evaluates the diagonal numerator

        A(t) = 2(1-m)(2V(t) - V(2t))
             + 2(1-2m){(1-U(t))(V(2t)-V(t)) - (1-U(2t))V(t)}
             + 2m{[(1-U(t))^2 - V(t)^2] V(2t) - 2(1-U(2t))(1-U(t))V(t)},

    returning -lam m^2 A(t) / (|1-m hhat(t)|^4 |1-m hhat(-2t)|^2).  Agrees
    with Im b_factorial(t, t) but stays numerically clean at small t.
    """
    t = np.asarray(t, dtype=float)
    hh = _TransformTable(params.kernel, [t, 2 * t])
    m, lam = params.m, params.lam
    h1, h2 = hh(t), hh(2 * t)
    U1, V1 = h1.real, -h1.imag
    U2, V2 = h2.real, -h2.imag
    A = (2.0 * (1.0 - m) * (2.0 * V1 - V2)
         + 2.0 * (1.0 - 2.0 * m) * ((1.0 - U1) * (V2 - V1) - (1.0 - U2) * V1)
         + 2.0 * m * (((1.0 - U1) ** 2 - V1**2) * V2
                      - 2.0 * (1.0 - U2) * (1.0 - U1) * V1))
    den = np.abs(1.0 - m * h1) ** 4 * np.abs(1.0 - m * hh(-2 * t)) ** 2
    return -lam * m**2 * A / den


def borel_factorial3(m: float) -> float:
    """Third factorial moment E[(M)_3] of the total progeny, Poisson(m) offspring."""
    if not (0.0 < m < 1.0):
        raise ValueError(f"branching ratio m must lie in (0, 1), got {m}")
    return m**2 * (2.0 * m**2 - 8.0 * m + 9.0) / (1.0 - m) ** 5


def envelope(params: ModelParams) -> float:
    """Global bound nu E[(M)_3] on |Im B_fac| (kernel-free)."""
    return params.nu * borel_factorial3(params.m)

