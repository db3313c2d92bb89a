"""Finite-window odd orientation contrasts on event data.

The statistic is the windowed triple sum

    O_{T,g} = (1/T) sum_{i != j != k} g(x_j - x_i, x_k - x_i)

over ordered triples of distinct indices (equal timestamps at distinct
indices do contribute), with g bounded, compactly supported, and jointly
odd.  Its mean under the sign-biased family is exactly theta * mu_{T,g}.

Accumulation is anchor-partitioned and exact: each anchor's contributions
are reduced with math.fsum (correctly rounded, order-insensitive) and the
per-anchor partials are fsum-reduced again.  Consequences: the support-
pruned implementation equals the O(n^3) reference exactly (pruning only
removes terms that are exactly zero), reflecting the window negates the
statistic exactly, and results are reproducible across platforms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cumulant3 import CumulantGrid, SupportExceedsGrid, odd_part
from .simulate import EventSeries, ModelParams, replicate_windows

__all__ = [
    "OddTestFunction",
    "EmptyWindowWarning",
    "antisymmetrize",
    "quadrant_indicator",
    "smooth_quadrant_bump",
    "sign_contrast_function",
    "contrast_statistic",
    "contrast_statistic_bruteforce",
    "ExactMeanResult",
    "exact_mean",
    "LinearityScan",
    "linearity_scan",
]


class EmptyWindowWarning(UserWarning):
    """Statistic evaluated on a window with no usable triples."""


@dataclass(frozen=True)
class OddTestFunction:
    """Bounded jointly odd test function with known support radius.

    ``evaluate`` is vectorized over numpy arrays and returns exact 0.0
    outside the closed box [-H, H]^2.  ``bound`` is a valid sup-norm bound.
    """

    support_radius: float
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bound: float
    construction: str = "explicit"

    def __post_init__(self):
        if not (self.support_radius > 0 and math.isfinite(self.support_radius)):
            raise ValueError("support radius must be positive and finite")


def antisymmetrize(u, H, bound=None) -> OddTestFunction:
    """g(tau) = u(tau) - u(-tau), clipped to the support box [-H, H]^2.

    Guarantees joint oddness for any bounded u; ``bound`` defaults to twice
    a numerically probed sup of |u| on the box.
    """
    H = float(H)

    def evaluate(t1, t2):
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        inside = (np.abs(t1) <= H) & (np.abs(t2) <= H)
        out = np.zeros(np.broadcast(t1, t2).shape)
        if np.any(inside):
            a = np.asarray(u(t1[inside], t2[inside]), dtype=float)
            b = np.asarray(u(-t1[inside], -t2[inside]), dtype=float)
            out[inside] = a - b
        return out

    if bound is None:
        probe = np.linspace(-H, H, 101)
        P1, P2 = np.meshgrid(probe, probe, indexing="ij")
        bound = 2.0 * float(np.max(np.abs(np.asarray(u(P1, P2), dtype=float))))
    return OddTestFunction(H, evaluate, float(bound), construction="antisymmetrized")


def quadrant_indicator(H) -> OddTestFunction:
    """+1 on the open (+,+) quadrant of the box, -1 on its reflection."""

    def u(t1, t2):
        return ((t1 > 0) & (t2 > 0)).astype(float)

    return antisymmetrize(u, H, bound=1.0)


def smooth_quadrant_bump(H) -> OddTestFunction:
    """Antisymmetrized C-infinity bump seated in the open positive quadrant.

    u is the standard bump exp(-1/(1 - s^2)) on the disc of radius H/2
    centered at (H/2, H/2), so g = u(tau) - u(-tau) is smooth and its
    transform decays faster than any power (usable by the frequency route).
    """
    H = float(H)
    c = H / 2.0
    r = H / 2.0

    def u(t1, t2):
        s2 = ((t1 - c) ** 2 + (t2 - c) ** 2) / r**2
        out = np.zeros(np.broadcast(np.asarray(t1), np.asarray(t2)).shape)
        inside = s2 < 1.0
        if np.any(inside):
            out[inside] = np.exp(-1.0 / (1.0 - s2[inside]))
        return out

    # the two antisymmetrized lobes have disjoint supports, so sup|g| = e^-1
    return antisymmetrize(u, H, bound=math.exp(-1.0))


def sign_contrast_function(grid: CumulantGrid, H) -> OddTestFunction:
    """The D_H-optimal contrast sgn(c3_odd) 1_{[-H,H]^2}, lattice-backed.

    Values come from the nearest lattice node (round-half-away-from-zero,
    so lookups are exactly odd); restricted to the symmetric sub-lattice
    |index| <= n/2 - 1.
    """
    odd = grid if grid.is_odd_part else odd_part(grid)
    H = float(H)
    if H > grid.half_width:
        raise SupportExceedsGrid(f"H={H:g} exceeds grid half-width {grid.half_width:g}")
    n, dx = grid.n, grid.spacing
    signs = np.sign(odd.values)

    def evaluate(t1, t2):
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        out = np.zeros(np.broadcast(t1, t2).shape)
        inside = (np.abs(t1) <= H) & (np.abs(t2) <= H)
        if np.any(inside):
            i = np.trunc(t1[inside] / dx + np.copysign(0.5, t1[inside])).astype(np.int64)
            j = np.trunc(t2[inside] / dx + np.copysign(0.5, t2[inside])).astype(np.int64)
            ok = (np.abs(i) <= n // 2 - 1) & (np.abs(j) <= n // 2 - 1)
            vals = np.zeros(int(inside.sum()))
            vals[ok] = signs[i[ok] + n // 2, j[ok] + n // 2]
            out[inside] = vals
        return out

    return OddTestFunction(H, evaluate, 1.0, construction="sign-optimal")


# ---------------------------------------------------------------------------
# the triple-sum statistic
# ---------------------------------------------------------------------------


def contrast_statistic(series: EventSeries, f: OddTestFunction) -> float:
    """Support-pruned triple sum, O(n k^2) with k the neighbor count in radius H.

    For each anchor the neighbors within [x - H, x + H] are enumerated by
    sorted-window search; ordered neighbor pairs with distinct indices
    contribute g(x_j - x_i, x_k - x_i).  Per-anchor blocks and the anchor
    reduction both use exact summation.
    """
    x = np.asarray(series.times, dtype=float)
    n = len(x)
    T = series.window_end
    if T <= 0 or n < 3:
        warnings.warn("window has no usable triples; statistic is 0",
                      EmptyWindowWarning, stacklevel=2)
        return 0.0
    H = f.support_radius
    lo = np.searchsorted(x, x - H, side="left")
    hi = np.searchsorted(x, x + H, side="right")
    counts = hi - lo
    reps = counts * counts
    total_pairs = int(reps.sum())
    if total_pairs == 0:
        return 0.0
    anchors = np.repeat(np.arange(n), reps)
    bounds = np.concatenate([[0], np.cumsum(reps)])
    pos = np.arange(total_pairs) - np.repeat(bounds[:-1], reps)
    cr = np.repeat(counts, reps)
    j = np.repeat(lo, reps) + pos // cr
    k = np.repeat(lo, reps) + pos % cr
    vals = f.evaluate(x[j] - x[anchors], x[k] - x[anchors])
    vals[(j == anchors) | (k == anchors) | (j == k)] = 0.0
    flat = vals.tolist()
    partials = [math.fsum(flat[bounds[i]:bounds[i + 1]]) for i in range(n)]
    return math.fsum(partials) / T


def contrast_statistic_bruteforce(series: EventSeries, f: OddTestFunction) -> float:
    """O(n^3) reference: every ordered triple of distinct indices, no pruning.

    Same anchor-partitioned exact accumulation as the pruned path, so the
    two agree exactly (pruning only skips terms that are exactly zero).
    """
    x = np.asarray(series.times, dtype=float)
    n = len(x)
    T = series.window_end
    if T <= 0 or n < 3:
        warnings.warn("window has no usable triples; statistic is 0",
                      EmptyWindowWarning, stacklevel=2)
        return 0.0
    idx = np.arange(n)
    partials = []
    for i in range(n):
        d = x - x[i]
        D1, D2 = np.meshgrid(d, d, indexing="ij")
        vals = f.evaluate(D1, D2)
        vals[i, :] = 0.0
        vals[:, i] = 0.0
        vals[idx, idx] = 0.0
        partials.append(math.fsum(vals.ravel().tolist()))
    return math.fsum(partials) / T


# ---------------------------------------------------------------------------
# exact means and the theta scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactMeanResult:
    value: float        # theta * mu_{T,g}
    mu_Tg: float
    mu_g: float
    gap_bound: float    # |mu_{T,g} - mu_g| <= 2 H |g|_inf |c3_odd|_1 / T


def exact_mean(params: ModelParams, f: OddTestFunction, T, c3odd: CumulantGrid) -> ExactMeanResult:
    """E_theta[O_{T,g}] = theta * mu_{T,g} from the odd cumulant grid.

    The anchor integral of the window indicator has the closed form
    overlap(tau) = max(0, min(T, T - tau1, T - tau2) - max(0, -tau1, -tau2)),
    so mu_{T,g} is a single lag-lattice Riemann sum of g * overlap/T * c3_odd.
    """
    if f.support_radius > c3odd.half_width:
        raise SupportExceedsGrid(
            f"support radius {f.support_radius:g} exceeds grid half-width {c3odd.half_width:g}")
    odd = c3odd if c3odd.is_odd_part else odd_part(c3odd)
    T = float(T)
    lags = odd.lags
    T1, T2 = np.meshgrid(lags, lags, indexing="ij")
    overlap = np.maximum(
        0.0,
        np.minimum(np.minimum(T, T - T1), T - T2) - np.maximum(np.maximum(0.0, -T1), -T2),
    )
    gvals = f.evaluate(T1, T2)
    mu_T = float((gvals * (overlap / T) * odd.values).sum() * odd.spacing**2)
    mu = float((gvals * odd.values).sum() * odd.spacing**2)
    l1 = float(np.abs(odd.values).sum() * odd.spacing**2)
    gap = 2.0 * f.support_radius * f.bound * l1 / T if T > f.support_radius else math.inf
    return ExactMeanResult(params.theta * mu_T, mu_T, mu, gap)


@dataclass(frozen=True)
class LinearityScan:
    thetas: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    slope: float
    intercept: float
    slope_stderr: float
    intercept_stderr: float


def linearity_scan(params: ModelParams, f: OddTestFunction, T, theta_list,
                   replicates, seed, pad_tol=1e-6) -> LinearityScan:
    """Mean statistic versus theta with a least-squares line through the data.

    Each (theta, replicate) cell simulates an independent window (one child
    stream of ``seed`` per cell) and evaluates the pruned statistic.  The
    fitted intercept should be consistent with 0 and the slope with mu_{T,g}.
    """
    thetas = np.asarray(theta_list, dtype=float)
    if len(thetas) < 3:
        raise ValueError("need at least three theta values")
    if np.any(np.abs(thetas) > 1):
        raise ValueError("theta values must lie in [-1, 1]")
    replicates = int(replicates)
    means = np.empty(len(thetas))
    errs = np.empty(len(thetas))
    root = np.random.SeedSequence(seed)   # each theta spawns the next `replicates` children
    for ti, theta in enumerate(thetas):
        p = ModelParams(params.nu, params.m, float(theta), params.kernel)
        vals = replicate_windows(p, T, lambda series: contrast_statistic(series, f),
                                 replicates, root, pad_tol=pad_tol)
        means[ti] = vals.mean()
        errs[ti] = vals.std(ddof=1) / math.sqrt(replicates)
    # unweighted LS line; parameter errors propagated from the cell stderrs
    tbar = thetas.mean()
    sxx = float(((thetas - tbar) ** 2).sum())
    slope = float(((thetas - tbar) * means).sum() / sxx)
    intercept = float(means.mean() - slope * tbar)
    w = (thetas - tbar) / sxx
    slope_err = math.sqrt(float((w**2 * errs**2).sum()))
    wi = 1.0 / len(thetas) - tbar * w
    intercept_err = math.sqrt(float((wi**2 * errs**2).sum()))
    return LinearityScan(thetas, means, errs, slope, intercept, slope_err, intercept_err)
