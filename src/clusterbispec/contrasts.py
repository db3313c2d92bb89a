"""Finite-window odd orientation contrasts on event data.

The statistic is the windowed triple sum

    O_{T,g} = (1/T) sum_{i != j != k} g(x_j - x_i, x_k - x_i)

over ordered triples of distinct indices (equal timestamps at distinct
indices do contribute), with g bounded, compactly supported, and jointly
odd.  Its mean under the sign-biased family is exactly theta * mu_{T,g}.

Accumulation is anchor-partitioned and exact.  Each anchor's neighbors
are cut into segments; anchors are taken in runs of bounded length and a
run's segments in blocks of bounded pair count, so memory does not grow
with the window.  Within a block the terms of every segment are summed by
a vectorized exact superaccumulator: each term is split into an integer
mantissa and an exponent, the mantissa is cut into fixed-width limbs at
absolute bit positions, and the limbs are summed per (segment, limb) in
float64, where integer sums below 2**53 are exact.  A segment's few scaled limb sums are exactly representable and add
up exactly to its terms, so math.fsum over the limb sums of all of an
anchor's segments is the correctly rounded exact sum of the anchor's terms
(ties to even, an exact zero comes out +0.0); the per-anchor partials are
fsum-reduced again.  The per-anchor sum therefore does not depend on term
order, on how anchors are cut or blocked, or on which exactly-zero terms
are dropped, and it is sign-symmetric.  Consequences: the support-pruned
implementation equals the O(n^3) reference exactly, reflecting the window
negates the statistic exactly, and results are reproducible across
platforms.

Which pairs are formed depends on the test function.  In general an
anchor has one segment, every neighbor within the box, and all ordered
pairs j != k are evaluated.  A g declared ``quadrant_symmetric`` is exactly
0 off the open quadrants (+,+) and (-,-) and has g(a, b) == g(b, a) bit for
bit, so an anchor has two segments, its forward lags in (0, H] and its
backward lags in [-H, 0), and only the unordered pairs j < k within a
segment are evaluated, each term taken as 2 * g.  Every pair left out is an
exact zero, and 2 * g is the exact sum of the two mirrored terms, so the
exact per-anchor sum, and with it every statistic, is bit-identical to the
all-pairs sum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .cumulant3 import CumulantGrid, SupportExceedsGrid, odd_part
from .simulate import DEFAULT_PAD_TOL, EventSeries, ModelParams, replicate_windows

__all__ = [
    "OddTestFunction",
    "EmptyWindowWarning",
    "SummationHeadroomExceeded",
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


class SummationHeadroomExceeded(ValueError):
    """More terms in one exact-summation segment than its integer headroom."""


# exact summation: W-bit limbs keep per-limb float64 sums exact up to
# 2**(53 - W) terms per segment; blocks stay far below that
_LIMB_BITS = 26
_LIMB_SCALE = 2.0**_LIMB_BITS
_MAX_SEGMENT_TERMS = 2 ** (53 - _LIMB_BITS)
# a block holds at most _BLOCK_PAIRS neighbor pairs, each segment also
# costing _ANCHOR_COST for its row of the (segment, limb) sum table; this
# bounds the statistic's memory
_BLOCK_PAIRS = 2**16
_ANCHOR_COST = 64
# anchors are taken in runs of _RUN_ANCHORS, whose exact parts (a few
# hundred bytes per anchor) wait together for their join; long enough that
# blocks stay full on typical windows
_RUN_ANCHORS = 2**12


@dataclass(frozen=True)
class OddTestFunction:
    """Bounded jointly odd test function with known support radius.

    ``evaluate`` is vectorized over numpy arrays and returns exact 0.0
    outside the closed box [-H, H]^2.  ``bound`` is a valid sup-norm bound,
    finite and nonnegative.

    ``quadrant_symmetric`` declares that g is exactly 0 off the open
    quadrants (+,+) and (-,-) (on both axes too) and that g(a, b) == g(b, a)
    bit for bit; contrast_statistic then forms only same-side pairs, each
    unordered pair once.  A declaration is checked on a probe lattice over
    the box (both axes, +-H and 0 included), and any violation there raises
    ValueError, so a wrong declaration fails when g is made.
    """

    support_radius: float
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bound: float
    quadrant_symmetric: bool = False

    def __post_init__(self):
        if not (self.support_radius > 0 and math.isfinite(self.support_radius)):
            raise ValueError("support radius must be positive and finite")
        if not (self.bound >= 0 and math.isfinite(self.bound)):
            raise ValueError("bound must be nonnegative and finite")
        if self.quadrant_symmetric:
            probe = np.union1d(np.linspace(-self.support_radius, self.support_radius, 101), 0.0)
            t1, t2 = np.meshgrid(probe, probe, indexing="ij")
            v = np.asarray(self.evaluate(t1, t2), dtype=float)
            bits = v.view(np.int64)
            same_side = ((t1 > 0) & (t2 > 0)) | ((t1 < 0) & (t2 < 0))
            if np.any(v[~same_side] != 0.0) or not np.array_equal(bits, bits.T):
                raise ValueError("quadrant_symmetric g must be 0 off the open quadrants "
                                 "(+,+) and (-,-) and satisfy g(a, b) == g(b, a) bitwise")


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
    return OddTestFunction(H, evaluate, float(bound))


def quadrant_indicator(H) -> OddTestFunction:
    """+1 on the open (+,+) quadrant of the box, -1 on its reflection."""

    def u(t1, t2):
        return ((t1 > 0) & (t2 > 0)).astype(float)

    return replace(antisymmetrize(u, H, bound=1.0), quadrant_symmetric=True)


def smooth_quadrant_bump(H) -> OddTestFunction:
    """Antisymmetrized C-infinity bump seated in the open positive quadrant.

    u is the standard bump exp(-1/(1 - s^2)) on the disc of radius H/2
    centered at (H/2, H/2), so g = u(tau) - u(-tau) is smooth and its
    transform decays faster than any power (usable by the frequency route).
    The disc lies where t1, t2 > 0, so u(-tau) vanishes wherever t1 >= 0 and
    u(tau) wherever t1 <= 0: g is s * u(s * tau) + 0.0 with s = sign(t1),
    the same floating-point values as u(tau) - u(-tau) (a zero stays +0.0)
    from one bump evaluation per point.  On the support sign(t1) = sign(t2),
    so swapping the lags swaps the two squares of s2: g is quadrant
    symmetric bit for bit.
    """
    H = float(H)
    c = H / 2.0
    r = H / 2.0

    def evaluate(t1, t2):
        t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))
        s = np.copysign(1.0, t1)
        s2 = ((np.abs(t1) - c) ** 2 + (s * t2 - c) ** 2) / r**2
        out = np.zeros(t1.shape)
        inside = np.flatnonzero(s2 < 1.0)
        bump = np.exp(-1.0 / (1.0 - s2.ravel()[inside]))
        out.ravel()[inside] = s.ravel()[inside] * bump + 0.0
        return out

    # the two lobes have disjoint supports, so sup|g| = e^-1
    return OddTestFunction(H, evaluate, math.exp(-1.0), quadrant_symmetric=True)


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

    return OddTestFunction(H, evaluate, 1.0)


# ---------------------------------------------------------------------------
# the triple-sum statistic
# ---------------------------------------------------------------------------


def _exact_parts(values, seg, nseg):
    """Exact per-segment decomposition of sums into few representable floats.

    Returns (parts, owner), arrays ordered by segment: the floats
    parts[owner == s] add up exactly to the sum of the terms
    values[seg == s], and each is nonzero and exactly representable, so
    math.fsum of them is the correctly rounded segment sum -- bit for bit
    what math.fsum(values[seg == s]) returns, whatever the term order.

    A nonzero term is v = y * 2**(W * limb) with limb = floor((e - 53) / W)
    for its np.frexp exponent e, so y is an integer below 2**(52 + W) in
    magnitude.  y is cut into three W-bit digits (by exact floor and
    power-of-two steps) whose weights 2**(W * (limb + t)) sit at absolute
    bit positions, and the digits are summed per (segment, limb) by
    np.bincount in float64.  A digit is at most 2**W in magnitude, so those
    integer sums are exact while a segment holds at most 2**(53 - W) terms.
    A scaled limb sum keeps at most 53 significant bits, none below 2**-1074
    (every digit is a bit field of a double), so np.ldexp returns it
    exactly, subnormals included.
    """
    v = np.asarray(values, dtype=float).ravel()
    seg = np.asarray(seg, dtype=np.intp).ravel()
    nonzero = np.flatnonzero(v)
    v, seg = v[nonzero], seg[nonzero]
    if not np.isfinite(v).all():
        raise ValueError("exact summation needs finite terms")
    if len(v) > _MAX_SEGMENT_TERMS and np.bincount(seg).max() > _MAX_SEGMENT_TERMS:
        raise SummationHeadroomExceeded(
            f"a segment holds more than {_MAX_SEGMENT_TERMS} nonzero terms")
    if len(v) == 0:
        return np.empty(0), np.empty(0, dtype=np.intp)
    mant, exp = np.frexp(v)
    limb = np.floor_divide(exp - 53, _LIMB_BITS)
    y = np.ldexp(mant, exp - limb * _LIMB_BITS)
    hi = np.floor(y / _LIMB_SCALE)
    top = np.floor(hi / _LIMB_SCALE)
    digits = (y - hi * _LIMB_SCALE, hi - top * _LIMB_SCALE, top)
    lmin = int(limb.min())
    width = int(limb.max()) - lmin + len(digits)
    key = seg * width + (limb - lmin)
    sums = np.zeros(nseg * width)
    for t, d in enumerate(digits):
        sums += np.bincount(key + t, weights=d, minlength=nseg * width)
    idx = np.flatnonzero(sums)
    owner, lim = np.divmod(idx, width)
    return np.ldexp(sums[idx], ((lim + lmin) * _LIMB_BITS).astype(np.int32)), owner


def _fsum_per_owner(parts, owner, nowner) -> list:
    """math.fsum of parts[owner == s] for each s < nowner."""
    order = np.argsort(owner, kind="stable")
    starts = np.searchsorted(owner[order], np.arange(nowner + 1)).tolist()
    parts = parts[order].tolist()
    return [math.fsum(parts[a:b]) for a, b in zip(starts[:-1], starts[1:])]


def _exact_sums(values, seg, nseg) -> list:
    """Correctly rounded sum per segment: math.fsum(values[seg == s]), bit for bit."""
    return _fsum_per_owner(*_exact_parts(values, seg, nseg), nseg)


def _pair_terms(d, rows, f):
    """Terms g(x_j - x_i, x_k - x_i) of a block of segments of equal length.

    ``d`` is (c, g): column s holds the lags from the anchor of the block's
    s-th segment to the segment's c neighbors.  One shared index pattern
    takes the pairs with j in ``rows``: every ordered pair j != k, or, for a
    quadrant-symmetric g, the pairs k > j with each term doubled (the exact
    sum of g at (j, k) and at (k, j)).  Returns the terms and each term's
    segment position in the block.
    """
    c, g = d.shape
    pj = np.repeat(rows, c)
    pk = np.tile(np.arange(c), len(rows))
    keep = pk > pj if f.quadrant_symmetric else pk != pj
    vals = f.evaluate(d[pj[keep]].ravel(), d[pk[keep]].ravel())
    if f.quadrant_symmetric:
        vals = 2.0 * vals
    return vals, np.tile(np.arange(g), int(keep.sum()))


def _anchor_sums(x, a, f) -> list:
    """Exact sum of the terms of each anchor in ``a``, rounded once.

    ``a`` holds consecutive anchor indices.  The neighbors of each anchor
    are cut into segments (see contrast_statistic); segment s holds the
    count[s] neighbors first[s], first[s] + 1, ... of anchor[s], stepping
    over index skip[s].
    """
    H = f.support_radius
    lo = np.searchsorted(x, x[a] - H, side="left")
    hi = np.searchsorted(x, x[a] + H, side="right")
    if f.quadrant_symmetric:   # [lo, first tie) and (last tie, hi); the anchor is in neither
        below = np.searchsorted(x, x[a], side="left")
        above = np.searchsorted(x, x[a], side="right")
        anchor = a.repeat(2)
        first = np.column_stack([lo, above]).ravel()
        count = np.column_stack([below - lo, hi - above]).ravel()
        skip = np.full(len(anchor), len(x))
    else:                      # the box, skipping the anchor itself
        anchor, first, count, skip = a, lo, hi - lo - 1, a
    parts, owners = [np.empty(0)], [np.empty(0, dtype=np.intp)]
    order = np.argsort(count, kind="stable")
    for grp in np.split(order, np.flatnonzero(np.diff(count[order])) + 1):
        c = int(count[grp[0]])
        if c < 2:
            continue
        pairs = c * (c - 1) // 2 if f.quadrant_symmetric else c * (c - 1)
        per_block = max(1, _BLOCK_PAIRS // (pairs + _ANCHOR_COST))
        rows_per_block = max(1, _BLOCK_PAIRS // (c - 1))
        for b in range(0, len(grp), per_block):
            s = grp[b:b + per_block]
            nb = first[s] + np.arange(c)[:, None]
            nb += nb >= skip[s]
            d = x[nb] - x[anchor[s]]
            for r0 in range(0, c, rows_per_block):
                rows = np.arange(r0, min(c, r0 + rows_per_block))
                p, owner = _exact_parts(*_pair_terms(d, rows, f), len(s))
                parts.append(p)
                owners.append(anchor[s][owner])
    return _fsum_per_owner(np.concatenate(parts), np.concatenate(owners) - a[0], len(a))


def contrast_statistic(series: EventSeries, f: OddTestFunction) -> float:
    """Support-pruned triple sum, O(n k^2) with k the neighbor count in radius H.

    For each anchor the neighbors within [x - H, x + H] are found by
    sorted-window search and cut into segments: the whole box with the
    anchor left out, or, for a quadrant-symmetric g, the backward lags in
    [-H, 0) and the forward lags in (0, H], since every other pair is an
    exact zero.  Each segment's pairs with distinct indices contribute
    g(x_j - x_i, x_k - x_i): all ordered pairs, or each unordered pair once
    as 2 * g when g is quadrant symmetric (the module docstring says why
    that is exact).  Anchors are taken in runs of _RUN_ANCHORS; within a
    run, segments of the same length are taken together, in blocks of at
    most _BLOCK_PAIRS pairs (a segment with more pairs than that is split
    over its rows j), so memory is bounded independently of the window
    length.  The exact parts of all of an anchor's segments are joined and
    rounded once (the module docstring's superaccumulator), and the anchor
    partials are fsum-reduced, so the result does not depend on the
    segments, the runs or the blocking.
    """
    x = np.asarray(series.times, dtype=float)
    n = len(x)
    T = series.window_end
    if T <= 0 or n < 3:
        warnings.warn("window has no usable triples; statistic is 0",
                      EmptyWindowWarning, stacklevel=2)
        return 0.0
    partials = []
    for a0 in range(0, n, _RUN_ANCHORS):
        partials += _anchor_sums(x, np.arange(a0, min(n, a0 + _RUN_ANCHORS)), f)
    return math.fsum(partials) / T


def contrast_statistic_bruteforce(series: EventSeries, f: OddTestFunction) -> float:
    """O(n^3) reference: every ordered triple of distinct indices, no pruning.

    Same anchor-partitioned exact accumulation as the pruned path, so the
    two agree exactly (pruning only skips terms that are exactly zero, and
    for a quadrant-symmetric g takes two equal mirrored terms as one 2 * g).
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
        partials += _exact_sums(vals, np.zeros(vals.size, dtype=np.int64), 1)
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
                   replicates, seed, pad_tol=DEFAULT_PAD_TOL) -> LinearityScan:
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
