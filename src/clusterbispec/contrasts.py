"""Finite-window odd orientation contrasts on event data.

The statistic is the windowed triple sum

    O_{T,g} = (1/T) sum_{i != j != k} g(x_j - x_i, x_k - x_i)

over ordered triples of distinct indices (equal timestamps at distinct
indices do contribute), with g bounded, compactly supported, and jointly
odd.  Its mean under the sign-biased family is exactly theta * mu_{T,g}.

Accumulation is anchor-partitioned, and each anchor's sum is the correctly
rounded exact sum of its terms (ties to even, an exact zero as +0.0); the
per-anchor partials are fsum-reduced.  Each anchor's neighbors are cut into
segments; anchors are taken in runs of bounded length and a run's segments
in blocks of bounded pair count, one column per segment, so beyond the
neighbor bounds (two or four indices per event) memory does not grow with
the window.

The fast path certifies most sums.  Each column of a block is split by one
error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
summation part I", SIAM J. Sci. Comput. 31, 2008): against a power of two
sigma above the column's sum, every term x = q + r exactly, the q add up
exactly in any order to t, and lo = fl(sum r) comes with an a-posteriori
bound beta on its rounding.  An anchor's columns are joined by TwoSum into
T + L, rounded once to s = fl(T + L), and s is kept when the enclosure of
the exact sum, T + L +- beta, lies strictly inside s's rounding interval
(part II of the same series: rounding to nearest).  Integer-valued terms,
as the quadrant indicator's, give beta = 0, so their exact cancellations
certify as +0.0.

Every other anchor -- a tie or a near-tie the bound cannot resolve,
subnormal-range or non-finite terms -- is summed again by math.fsum over its
nonzero terms (Shewchuk, "Adaptive precision floating-point arithmetic and
fast robust geometric predicates", DCG 18, 1997), which returns the
correctly rounded sum.  Exact zeros are dropped first, so an exact zero is
+0.0 whatever sign a Python version gives fsum([-0.0]); non-finite terms
raise ValueError.

Both paths return the correctly rounded exact sum, so the per-anchor sum
does not depend on which path took it, on term order, on how anchors are
cut or blocked, or on which exactly-zero terms are dropped, and it is
sign-symmetric.  Consequences: the support-pruned implementation equals
the O(n^3) reference exactly (the reference, a plain math.fsum per anchor
over every ordered triple, lives with the tests in tests/oracles.py),
reflecting the window negates the statistic exactly, and results are
reproducible across platforms.

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

The pairs a window will form are counted from the segment bounds before
any term is evaluated; a window above PAIR_BUDGET raises
PairBudgetExceeded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .cumulant3 import CumulantGrid, SupportExceedsGrid, odd_part
from .simulate import EventSeries, ModelParams, replicate_windows

__all__ = [
    "OddTestFunction",
    "EmptyWindowWarning",
    "PairBudgetExceeded",
    "antisymmetrize",
    "quadrant_indicator",
    "smooth_quadrant_bump",
    "sign_contrast_function",
    "contrast_statistic",
    "ExactMeanResult",
    "exact_mean",
    "LinearityScan",
    "linearity_scan",
]


class EmptyWindowWarning(UserWarning):
    """Statistic evaluated on a window with no usable triples."""


class PairBudgetExceeded(ValueError):
    """The window would form more neighbor pairs than PAIR_BUDGET."""


# a block holds at most _BLOCK_PAIRS neighbor pairs, each segment also
# costing _ANCHOR_COST for its gather and its extracted column sums; this
# bounds the statistic's memory
_BLOCK_PAIRS = 2**16
_ANCHOR_COST = 64
# the fast sums (_extract, _join).  A column is extracted only when its
# largest |term| is at least _EXTRACT_FLOOR: then sigma >= 2**-897, the
# granularity 2**-53 sigma of its q is a normal double far above underflow,
# and their partial sums are exact.  The rounding of lo = fl(sum r) over n
# terms, in any order, is at most gamma_{n-1} sum|r| (Higham, ch. 4;
# additions below the normal range are exact), at most 1.01 n u fl(sum|r|)
# with u = 2**-53 while n u <= 0.01, that is n <= 9e13.  A block has at most
# max(_BLOCK_PAIRS, events) rows (a segment with more pairs than a block
# takes one row j at a time), so no column comes near that.  beta =
# _BOUND_FACTOR n fl(sum|r|) takes 4 u, twice that twice over, which covers
# the roundings of the products and sums that form beta: where a product
# underflows it loses at most 2**-1075, while a nonzero rounding error is a
# multiple of 2**-1074.  The join bounds its L the same way: for m columns
# it adds m lo and m TwoSum errors, the first of which is exactly 0, so
# 2m - 2 additions round
_EXTRACT_FLOOR = 2.0**-900
_BOUND_FACTOR = 4 * 2.0**-53
# anchors are taken in runs of _RUN_ANCHORS, whose column sums (t, lo, beta)
# wait together for their join; long enough that blocks stay full on
# typical windows
_RUN_ANCHORS = 2**12
# most neighbor pairs one statistic may form: the README's T = 1e4 window
# (19,669 events, H = 4) forms 1.9e6 pairs in about 0.1 s on a 2-core Xeon
# VM, about 60 ns a pair.  In the worst case, every anchor summed again by
# math.fsum, it takes about 0.4 s, about 200 ns a pair, so 1e10 pairs take
# at most about 35 minutes
PAIR_BUDGET = 10**10


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
    """+1 on the open (+,+) quadrant of the box, -1 on its reflection.

    On a window without ties its statistic is exactly 0.0, so mu_{T,g} = 0
    for every stationary process: anchor i with f_i forward and b_i backward
    lags within H adds 2 (C(f_i, 2) - C(b_i, 2)), and the sums over i of
    C(f_i, 2) and of C(b_i, 2) both count the triples of span at most H, by
    their first and by their last event.  Its integer terms make it the test
    function of the exact-summation checks, not an orientation contrast.
    """

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
        shape = t1.shape
        t1, t2 = t1.ravel(), t2.ravel()
        s = np.copysign(1.0, t1)
        s2 = np.abs(t1)                        # ((|t1| - c)^2 + (s t2 - c)^2) / r^2, in place
        s2 -= c
        np.square(s2, out=s2)
        v = s * t2
        v -= c
        s2 += np.square(v, out=v)
        s2 /= r**2
        out = np.zeros(len(s2))
        inside = np.flatnonzero(s2 < 1.0)
        v = np.subtract(1.0, s2[inside])
        np.exp(np.divide(-1.0, v, out=v), out=v)
        v *= s[inside]
        out[inside] = v + 0.0
        return out.reshape(shape)

    # the two lobes have disjoint supports, so sup|g| = e^-1
    return OddTestFunction(H, evaluate, math.exp(-1.0), quadrant_symmetric=True)


def sign_contrast_function(grid: CumulantGrid, H) -> OddTestFunction:
    """The D_H-optimal contrast sgn(c3_odd) 1_{[-H,H]^2}, lattice-backed.

    Values come from the nearest lattice node (round-half-away-from-zero,
    so lookups are exactly odd); restricted to the symmetric sub-lattice
    |index| <= n/2 - 1.
    """
    odd = odd_part(grid)
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


def _extract(vals):
    """One error-free extraction per column of a (terms x columns) block.

    Returns (t, lo, beta) per column: t is exact, and the column's exact sum
    lies within beta of t + lo.  With M the column's largest |term| and
    sigma = 2**(e + k) (e = np.frexp(M)'s exponent, so M < 2**e, and
    2**k > n + 2 for n terms), q = (x + sigma) - sigma and r = x - q are
    exact, every q is a multiple of 2**-53 sigma and |q| <= 2**e, so every
    partial sum of the q is a multiple of 2**-53 sigma below sigma in
    magnitude: t = sum(q) is exact in any order (Rump, Ogita & Oishi 2008,
    ExtractVector).  beta bounds the rounding of lo = fl(sum(r)); it is 0
    when every r is, as for integer-valued terms.  A column that cannot be
    extracted this way -- a term that is not finite, or M below
    _EXTRACT_FLOOR or so large that sigma overflows -- comes back as t = lo = 0 with beta = inf.
    """
    n = len(vals)
    k = (n + 2).bit_length()
    big = np.abs(vals).max(axis=0)
    ok = (big == 0.0) | ((big >= _EXTRACT_FLOOR) & (big < 2.0 ** (1023 - k)))
    if not ok.all():
        vals = np.where(ok, vals, 0.0)
        big = np.where(ok, big, 0.0)
    sigma = np.ldexp(1.0, np.frexp(big)[1] + k)
    q = vals + sigma
    q -= sigma
    r = vals - q
    t = q.sum(axis=0)
    lo = r.sum(axis=0)
    beta = (_BOUND_FACTOR * n) * np.abs(r, out=r).sum(axis=0)
    beta[~ok] = np.inf
    return t, lo, beta


def _two_sum(a, b):
    """s = fl(a + b) and its exact error a + b - s (Knuth), elementwise."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _join(pos, t, lo, beta, npos):
    """Correctly rounded sums per position, where certified.

    Column i belongs to position pos[i], and its exact sum lies within
    beta[i] of t[i] + lo[i] with t[i] exact (_extract).  Each position's t
    are added by a cascade of TwoSum, whose errors join the lo in L, so the
    position's exact sum lies within B of T + L.  With s = fl(T + L) and
    its exact residual res, s is the correctly rounded exact sum when that
    whole enclosure lies strictly inside s's rounding interval: |res| + B
    below the half-gap on res's side, and B - |res| below the other one.
    The half-gap toward zero is a quarter ulp of s when |s| is a power of
    two.  s = 0 (so res = 0) is certified only when B = 0, and comes out
    +0.0.  Returns (sums, certified).
    """
    order = np.argsort(pos, kind="stable")
    pos, t = pos[order], t[order]
    count = np.bincount(pos, minlength=npos)
    start = np.cumsum(count) - count
    by_count = np.argsort(-count, kind="stable")
    ranked = -count[by_count]
    T = np.zeros(npos)
    err = np.zeros(len(t))
    for j in range(int(count.max(initial=0))):
        o = by_count[:np.searchsorted(ranked, -j)]   # positions with more than j columns
        i = start[o] + j
        T[o], err[i] = _two_sum(T[o], t[i])
    both = np.concatenate([pos, pos])
    small = np.concatenate([lo[order], err])
    L = np.bincount(both, small, minlength=npos)
    bound = (np.bincount(pos, beta[order], minlength=npos)
             + (_BOUND_FACTOR * 2) * (count - 1) * np.bincount(both, np.abs(small),
                                                              minlength=npos))
    s, res = _two_sum(T, L)
    mag = np.abs(s)
    away = np.copysign(1.0, s) * res                 # res, positive away from zero
    with np.errstate(over="ignore"):
        up = np.spacing(mag) / 2.0                   # inf at the largest double
    down = (mag - np.nextafter(mag, 0.0)) / 2.0
    certified = ((away + bound < up) & (bound - away < down) & (up < np.inf)
                 | (s == 0.0) & (bound == 0.0))
    return s + 0.0, certified


def _pair_index(c, r0, r1, symmetric):
    """(j, k) of the pairs a segment of c neighbors forms with r0 <= j < r1,
    in row-major order: every ordered pair j != k, or the pairs k > j when
    ``symmetric``."""
    k = np.arange(c)
    j = np.arange(r0, r1)[:, None]
    pj, pk = np.nonzero(k > j if symmetric else k != j)
    return pj + r0, pk


def _blocks(x, a, f, bounds):
    """Yield (pos, vals) for every block of the segments of the anchors ``a``.

    ``a`` holds anchor indices and ``bounds`` the window's neighbor bounds
    (_bounds).  The neighbors of each anchor are cut into segments (see
    contrast_statistic); segment s holds the count[s] neighbors first[s],
    first[s] + 1, ... of its anchor, stepping over index skip[s].  vals is a
    (pairs x segments) block of terms g(x_j - x_i, x_k - x_i), one column
    per segment, each term doubled for a quadrant-symmetric g (the exact
    sum of g at (j, k) and at (k, j)), and pos[s] is the position in ``a``
    of column s's anchor.
    """
    if f.quadrant_symmetric:   # [lo, first tie) and (last tie, hi); the anchor is in neither
        lo, hi, below, above = (b[a] for b in bounds)
        pos = np.arange(len(a)).repeat(2)
        first = np.column_stack([lo, above]).ravel()
        count = np.column_stack([below - lo, hi - above]).ravel()
        skip = np.full(len(pos), len(x))
    else:                      # the box, skipping the anchor itself
        lo, hi = (b[a] for b in bounds)
        pos, first, count, skip = np.arange(len(a)), lo, hi - lo - 1, a
    anchor = a[pos]
    order = np.argsort(count, kind="stable")
    for grp in np.split(order, np.flatnonzero(np.diff(count[order])) + 1):
        c = int(count[grp[0]])
        if c < 2:
            continue
        pairs = c * (c - 1) // 2 if f.quadrant_symmetric else c * (c - 1)
        per_block = max(1, _BLOCK_PAIRS // (pairs + _ANCHOR_COST))
        rows_per_block = max(1, _BLOCK_PAIRS // (c - 1))
        for r0 in range(0, c, rows_per_block):
            pj, pk = _pair_index(c, r0, min(c, r0 + rows_per_block), f.quadrant_symmetric)
            if len(pj) == 0:
                continue
            for b in range(0, len(grp), per_block):
                s = grp[b:b + per_block]
                nb = first[s] + np.arange(c)[:, None]
                nb += nb >= skip[s]
                d = x[nb] - x[anchor[s]]
                vals = np.asarray(f.evaluate(d[pj].ravel(), d[pk].ravel()), dtype=float)
                vals = vals.reshape(len(pj), len(s))
                yield pos[s], 2.0 * vals if f.quadrant_symmetric else vals


def _bounds(x, f) -> tuple:
    """Every anchor's neighbor bounds in the sorted times, one search each.

    [lo, hi) is the box [x - H, x + H]; for a quadrant-symmetric g, [below,
    above) also gives the run of ties with the anchor, which cuts the box
    into its backward and forward segments.
    """
    H = f.support_radius
    lo = np.searchsorted(x, x - H, side="left")
    hi = np.searchsorted(x, x + H, side="right")
    if not f.quadrant_symmetric:
        return lo, hi
    return lo, hi, np.searchsorted(x, x, side="left"), np.searchsorted(x, x, side="right")


def _pair_count(bounds) -> float:
    """Pairs the statistic forms, from _bounds: sum c(c-1) over the boxes, or
    sum c(c-1)/2 over the two segments of a quadrant-symmetric g.

    Summed in float64: an int64 sum overflows past about 3.8e6 events
    within one H.
    """
    lo, hi, *ties = bounds
    c = np.concatenate([ties[0] - lo, hi - ties[1]] if ties else [hi - lo - 1]).astype(float)
    return float(np.sum(c * (c - 1.0))) / (2.0 if ties else 1.0)


def _exact_anchor_sums(x, a, f, bounds) -> list:
    """Each anchor's sum by math.fsum over all of its nonzero terms."""
    terms = [[] for _ in range(len(a))]
    for pos, vals in _blocks(x, a, f, bounds):
        keep = vals.T != 0.0
        flat = vals.T[keep]                  # the nonzero terms, column by column
        if not np.isfinite(flat).all():
            raise ValueError("exact summation needs finite terms")
        flat, ends = flat.tolist(), np.cumsum(keep.sum(axis=1)).tolist()
        for p, start, end in zip(pos.tolist(), [0] + ends, ends):
            terms[p] += flat[start:end]
    return [math.fsum(t) for t in terms]


def _anchor_sums(x, a, f, bounds) -> list:
    """Correctly rounded sum of the terms of each anchor in ``a``.

    Every block is extracted (_extract) and the anchors' columns joined and
    certified (_join); the anchors left uncertified are summed again, in
    one batch, by math.fsum (_exact_anchor_sums).
    """
    cols = [(np.empty(0, dtype=np.intp), np.empty(0), np.empty(0), np.empty(0))]
    cols += [(pos, *_extract(vals)) for pos, vals in _blocks(x, a, f, bounds)]
    sums, certified = _join(*(np.concatenate(c) for c in zip(*cols)), len(a))
    redo = np.flatnonzero(~certified)
    if len(redo):
        sums[redo] = _exact_anchor_sums(x, a[redo], f, bounds)
    return sums.tolist()


def contrast_statistic(series: EventSeries, f: OddTestFunction) -> float:
    """Support-pruned triple sum, O(n k^2) with k the neighbor count in radius H.

    For each anchor the neighbors within [x - H, x + H] are found by
    sorted-window search and cut into segments: the whole box with the
    anchor left out, or, for a quadrant-symmetric g, the backward lags in
    [-H, 0) and the forward lags in (0, H], since every other pair is an
    exact zero.  Each segment's pairs with distinct indices contribute
    g(x_j - x_i, x_k - x_i): all ordered pairs, or each unordered pair once
    as 2 * g when g is quadrant symmetric (the module docstring says why
    that is exact).  Before any term is evaluated the pairs are counted from
    the segment bounds, and a window that would form more than PAIR_BUDGET
    raises PairBudgetExceeded.  Anchors are taken in runs of _RUN_ANCHORS;
    within a run, segments of the same length are taken together, in blocks
    of at most _BLOCK_PAIRS pairs (a segment with more pairs than that is
    split over its rows j), so the working memory beyond the window's bounds
    is independent of the window length.  Each block's columns are summed
    by extraction, an anchor's columns are joined and rounded once, and the
    rounding is kept where it is certified correct; the run's other anchors
    are recomputed in one batch by math.fsum over their nonzero terms (the
    module docstring has both).  The anchor partials are fsum-reduced, so the
    result does not depend on the segments, the runs, the blocking or the
    path an anchor took.
    """
    x = np.asarray(series.times, dtype=float)
    n = len(x)
    T = series.window_end
    if T <= 0 or n < 3:
        warnings.warn("window has no usable triples; statistic is 0",
                      EmptyWindowWarning, stacklevel=2)
        return 0.0
    bounds = _bounds(x, f)
    pairs = _pair_count(bounds)
    if pairs > PAIR_BUDGET:
        raise PairBudgetExceeded(
            f"{n} events with support radius {f.support_radius:g} form {pairs:.3g} pairs, "
            f"above the budget of {PAIR_BUDGET:.0e}")
    partials = []
    for a0 in range(0, n, _RUN_ANCHORS):
        partials += _anchor_sums(x, np.arange(a0, min(n, a0 + _RUN_ANCHORS)), f, bounds)
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
    T = float(T)
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"window length T must be positive and finite, got {T}")
    if f.support_radius > c3odd.half_width:
        raise SupportExceedsGrid(
            f"support radius {f.support_radius:g} exceeds grid half-width {c3odd.half_width:g}")
    odd = odd_part(c3odd)
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
                   replicates, seed) -> LinearityScan:
    """Mean statistic versus theta with a least-squares line through the data.

    Each (theta, replicate) cell simulates an independent window (one child
    stream of ``seed`` per cell) and evaluates the pruned statistic.  The
    fitted intercept should be consistent with 0 and the slope with mu_{T,g}.
    """
    thetas = np.asarray(theta_list, dtype=float)
    if len(thetas) < 3:
        raise ValueError("need at least three theta values")
    if len(np.unique(thetas)) < 2:
        raise ValueError("need at least two distinct theta values to fit a line")
    if np.any(np.abs(thetas) > 1):
        raise ValueError("theta values must lie in [-1, 1]")
    replicates = int(replicates)
    means = np.empty(len(thetas))
    errs = np.empty(len(thetas))
    root = np.random.SeedSequence(seed)   # each theta spawns the next `replicates` children
    for ti, theta in enumerate(thetas):
        p = ModelParams(params.nu, params.m, float(theta), params.kernel)
        vals = replicate_windows(p, T, lambda series: contrast_statistic(series, f),
                                 replicates, root)
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
