"""Closed-form first-, second-, and third-order spectra of the branching model.

With Phi(w) = m*hhat(w) and R(w) = 1/(1 - Phi(w)), the complete third-order
transform admits two algebraically equivalent forms,

    R-form:  B_comp(w1, w2) = lam R(w1) R(w2) R(w3) {R(-w1)+R(-w2)+R(-w3)-2},
             w3 = -w1-w2,
    Q-form:  B_comp = lam (1 - m^2 Q) / (|1-m hhat(w1)|^2 |1-m hhat(w2)|^2
                                          |1-m hhat(-w1-w2)|^2),

and the factorial transform differs by real pair-diagonal corrections,

    B_fac = B_comp - Gamma(w1) - Gamma(w2) - Gamma(w1+w2) + 2 lam,

so Im B_fac = Im B_comp exactly.  All evaluators are pure.  Each call hands the
kernel its distinct |w| once and looks hhat up once per distinct argument (w1, w2
and w1+w2; t and 2t; omega), a negative one as that lookup's conjugate, exact since
1/(1 - m conj hhat) = conj(1/(1 - m hhat)) and |1 - m conj hhat| = |1 - m hhat|.
"""

from __future__ import annotations

import numpy as np

from .simulate import ModelParams

__all__ = [
    "bartlett",
    "b_complete",
    "b_factorial",
    "im_b_diagonal",
    "borel_factorial3",
    "envelope",
]


def _hhat(params: ModelParams, *ws) -> list:
    """hhat at each of the float arrays ``ws``, an array of its shape even for a scalar w:
    the kernel transforms their distinct |w| once, then each w takes one lookup, a
    negative w the conjugate hhat(-w) = conj(hhat(w))."""
    grid = np.unique(np.abs(np.concatenate([np.ravel(w) for w in ws])))
    table = np.asarray(params.kernel.transform(grid))
    table = np.concatenate([table, np.conj(table)])   # hhat(|w|), then hhat(-|w|)
    return [np.asarray(table[np.searchsorted(grid, np.abs(w)) + grid.size * (w < 0)]) for w in ws]


def _r_form(params: ModelParams, h1, h2, h12):
    """B_comp by the R-form from hhat at w1, w2 and w1+w2, each R(w) = 1/(1 - m hhat(w))
    formed once at its argument's shape, R(-w) and R(w3) = R(-(w1+w2)) as conjugates.  The
    products keep the order of lam R(w1) R(w2) R(w3) (R(-w1) + R(-w2) + R(-w3) - 2), in
    place where numpy could reuse a right-hand temporary: with fused multiply-adds a
    complex product's last bit depends on the order."""
    m, lam = params.m, params.lam
    R1, R2, R12 = (1.0 / (1.0 - m * h) for h in (h1, h2, h12))
    P = lam * R1 * R2
    P *= np.conj(R12)
    S = np.conj(R1) + np.conj(R2)
    S += R12
    S -= 2.0
    return P * S


def bartlett(params: ModelParams, omega):
    """Full Bartlett spectrum Gamma(w) = lam / |1 - m hhat(w)|^2."""
    (h,) = _hhat(params, np.asarray(omega, dtype=float))
    return params.lam / np.abs(1.0 - params.m * h) ** 2


def b_complete(params: ModelParams, w1, w2, form="R"):
    """Transform of the reduced complete third cumulant at (w1, w2).

    ``form`` selects the R-form ('R') or Q-form ('Q'); the two agree to
    rounding and the Q-form's denominator is real and >= (1-m)^6.
    """
    if form not in ("R", "Q"):
        raise ValueError(f"form must be 'R' or 'Q', got {form!r}")
    w1, w2 = np.asarray(w1, dtype=float), np.asarray(w2, dtype=float)
    if form == "R":
        return _r_form(params, *_hhat(params, w1, w2, w1 + w2))
    m, lam = params.m, params.lam
    h1m, h2m, h12 = _hhat(params, -w1, -w2, w1 + w2)   # |1 - m hhat(-w)| = |1 - m hhat(w)|
    Q = h1m * h2m + h12 * (h1m + h2m - 2.0 * m * h1m * h2m)
    den = np.abs(1.0 - m * h1m) ** 2 * np.abs(1.0 - m * h2m) ** 2 * np.abs(1.0 - m * h12) ** 2
    return lam * (1.0 - m**2 * Q) / den


def b_factorial(params: ModelParams, w1, w2):
    """Factorial bispectrum B_fac = B_comp - Gamma(w1) - Gamma(w2) - Gamma(w1+w2) + 2 lam."""
    m, lam = params.m, params.lam
    w1, w2 = np.asarray(w1, dtype=float), np.asarray(w2, dtype=float)
    hs = _hhat(params, w1, w2, w1 + w2)
    # each Gamma at its argument's shape: a column and a row for a lattice's axes
    g1, g2, g12 = (lam / np.abs(1.0 - m * h) ** 2 for h in hs)
    return _r_form(params, *hs) - g1 - g2 - g12 + 2.0 * lam


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
    m, lam = params.m, params.lam
    h1, h2 = _hhat(params, t, 2 * t)
    U1, V1 = h1.real, -h1.imag
    U2, V2 = h2.real, -h2.imag
    A = (2.0 * (1.0 - m) * (2.0 * V1 - V2)
         + 2.0 * (1.0 - 2.0 * m) * ((1.0 - U1) * (V2 - V1) - (1.0 - U2) * V1)
         + 2.0 * m * (((1.0 - U1) ** 2 - V1**2) * V2
                      - 2.0 * (1.0 - U2) * (1.0 - U1) * V1))
    den = np.abs(1.0 - m * h1) ** 4 * np.abs(1.0 - m * h2) ** 2
    return -lam * m**2 * A / den


def borel_factorial3(m: float) -> float:
    """Third factorial moment E[(M)_3] of the total progeny, Poisson(m) offspring."""
    if not (0.0 < m < 1.0):
        raise ValueError(f"branching ratio m must lie in (0, 1), got {m}")
    return m**2 * (2.0 * m**2 - 8.0 * m + 9.0) / (1.0 - m) ** 5


def envelope(params: ModelParams) -> float:
    """Global bound nu E[(M)_3] on |Im B_fac| (kernel-free)."""
    return params.nu * borel_factorial3(params.m)

