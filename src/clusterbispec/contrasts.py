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
the window.  contrast_statistics takes many windows in one pass: their
anchors are queued in order, and a run may hold the tail of one window and
the heads of the next, each window's times and bounds placed side by side
in one index space, unshifted, so every lag keeps its bits.

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
cut, blocked or grouped into runs (with one window's anchors or with many
windows'), or on which exactly-zero terms are dropped, and it is
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

A term is formed from a part per lag and a part per pair, which travel on
g's evaluate.  The smooth bump's are psi(|d|) = (|d| - H/2)^2, taken once
per neighbor, and phi(psi_j + psi_k) = exp(-1/(1 - S/r^2)) per pair, with
the side's sign and the factor 2 applied once per column: on a same-side
segment that is 2 g bit for bit, up to the sign of a zero term, which no
sum sees.  Every other g, and a g whose evaluate was replaced, has the
signed lags as its per-lag part and evaluate itself as its pair part.

The pairs a window will form are counted from the segment bounds before
any term is evaluated on it; a window above PAIR_BUDGET raises
PairBudgetExceeded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Hashable, Iterable

import numpy as np

from .cumulant3 import CumulantGrid, SupportExceedsGrid, _g_sums, odd_part
from .kernels import Refused, array_key, readonly
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
    "contrast_statistics",
    "ExactMeanResult",
    "exact_mean",
    "LinearityScan",
    "linearity_scan",
]


class EmptyWindowWarning(UserWarning):
    """Statistic evaluated on a window with no usable triples."""


class PairBudgetExceeded(Refused):
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
# typical windows and that the few numpy calls each distinct segment length
# costs are shared by several short windows (contrast_statistics); runs of
# 2**15 ran faster still on the C06 scan, at 16 % more process RSS
_RUN_ANCHORS = 2**13
# most neighbor pairs one statistic may form: the README's T = 1e4 window
# (19,711 events, H = 4) forms 1.9e6 pairs in about 0.035 s on a 2-core Xeon
# VM, about 18 ns a pair.  In the worst case, every anchor summed again by
# math.fsum, it takes about 0.18 s, about 95 ns a pair, so 1e10 pairs take
# at most about 16 minutes
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

    Two test functions are equal, and hash alike, when their support radius,
    bound, declaration and ``key`` are: the key names what ``evaluate``
    computes, such as ("bump", H), so ``evaluate`` itself is not compared.
    The key defaults to ``evaluate``, so a g without one, such as a g from
    :func:`antisymmetrize`, equals only itself and its copies; a g made by
    ``dataclasses.replace`` with a new ``evaluate`` needs a new key.
    """

    support_radius: float
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(compare=False)
    bound: float
    quadrant_symmetric: bool = False
    key: Hashable = None

    def __post_init__(self):
        if self.key is None:
            object.__setattr__(self, "key", self.evaluate)
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
        t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))
        inside = (np.abs(t1) <= H) & (np.abs(t2) <= H)
        out = np.zeros(t1.shape)
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

    return replace(antisymmetrize(u, H, bound=1.0), quadrant_symmetric=True,
                   key=("quadrant", float(H)))


class _BumpTerms:
    """The bump's g = s * phi(psi(s t1) + psi(s t2)) + 0.0, s = sign(t1), from
    psi(t) = (t - c)^2 and phi(S) = exp(-1/(1 - S/r^2)), an exact +0.0 off the
    open disc S < r^2 (and at NaN).  On a same-side segment s t = |t|, so the
    statistic takes ``lag`` = psi(|d|) once per neighbor and ``pair`` = phi
    once per pair (module docstring)."""

    def __init__(self, H):
        self.c = H / 2.0
        self.r2 = (H / 2.0) ** 2

    def psi(self, t):
        v = np.subtract(t, self.c)
        return np.square(v, out=v)

    def lag(self, d):
        return self.psi(np.abs(d))

    def pair(self, pj, pk):
        v = np.add(pj, pk, out=pj)             # pj is the caller's scratch
        v /= self.r2
        np.subtract(1.0, v, out=v)
        inside = v > 0.0                       # the open disc; NaN is off it
        np.fmax(v, ~inside, out=v)             # 1 off it, not 0: -1/0 = -inf would
        np.divide(-1.0, v, out=v)              # send numpy's exp down its slow path
        np.exp(v, out=v)
        v *= inside                            # off it the term is an exact +0.0
        return v

    def __call__(self, t1, t2):
        t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))
        shape = t1.shape
        s = np.copysign(1.0, t1.ravel())
        v = self.pair(self.psi(s * t1.ravel()), self.psi(s * t2.ravel()))
        v *= s
        v += 0.0
        return v.reshape(shape)


def smooth_quadrant_bump(H) -> OddTestFunction:
    """Antisymmetrized C-infinity bump seated in the open positive quadrant.

    u is the standard bump exp(-1/(1 - s^2)) on the disc of radius H/2
    centered at (H/2, H/2), so g = u(tau) - u(-tau) is smooth and its
    transform decays faster than any power (usable by the frequency route).
    The disc lies where t1, t2 > 0, so u(-tau) vanishes wherever t1 >= 0 and
    u(tau) wherever t1 <= 0: g is s * u(s * tau) + 0.0 with s = sign(t1),
    the same floating-point values as u(tau) - u(-tau) (a zero stays +0.0)
    from one bump evaluation per point.  On the support sign(t1) = sign(t2),
    so swapping the lags swaps the two terms psi(s t1) + psi(s t2): g is
    quadrant symmetric bit for bit.  ``evaluate`` divides by r^2 and squares
    distances of up to about 2.5 H^2 inside the box, so an H for which
    either is not a finite normal double is :class:`Refused`.  ``evaluate``
    carries its per-lag and per-pair parts (_BumpTerms), from which
    contrast_statistic forms its terms.
    """
    H = float(H)
    r = H / 2.0
    if not (r * r >= np.finfo(float).tiny and 2.5 * H * H < math.inf):
        raise Refused(f"bump support radius H = {H:g} is out of range: (H/2)^2 and 2.5 H^2 "
                      "must be finite normal doubles (about 3e-154 <= H <= 8.4e153)")
    # the two lobes have disjoint supports, so sup|g| = e^-1
    return OddTestFunction(H, _BumpTerms(H), math.exp(-1.0), quadrant_symmetric=True,
                           key=("bump", H))


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
        t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))
        out = np.zeros(t1.shape)
        inside = (np.abs(t1) <= H) & (np.abs(t2) <= H)
        if np.any(inside):
            i = np.trunc(t1[inside] / dx + np.copysign(0.5, t1[inside])).astype(np.int64)
            j = np.trunc(t2[inside] / dx + np.copysign(0.5, t2[inside])).astype(np.int64)
            ok = (np.abs(i) <= n // 2 - 1) & (np.abs(j) <= n // 2 - 1)
            vals = np.zeros(int(inside.sum()))
            vals[ok] = signs[i[ok] + n // 2, j[ok] + n // 2]
            out[inside] = vals
        return out

    return OddTestFunction(H, evaluate, 1.0, key=("sign", grid, H))


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
    q = np.abs(vals)                 # one scratch block: |x|, then q, then r
    big = q.max(axis=0)
    ok = (big == 0.0) | ((big >= _EXTRACT_FLOOR) & (big < 2.0 ** (1023 - k)))
    if not ok.all():
        vals = np.where(ok, vals, 0.0)
        big = np.where(ok, big, 0.0)
    sigma = np.ldexp(1.0, np.frexp(big)[1] + k)
    np.add(vals, sigma, out=q)
    q -= sigma
    t = q.sum(axis=0)
    r = np.subtract(vals, q, out=q)
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


def _split(f):
    """(lag, pair, sides): a term on a segment is pair(lag(d_j), lag(d_k)) times
    the factor ``sides`` gives its side (backward, forward), or as it is when
    ``sides`` is None.  Only the bump's own evaluate, on its same-side segments,
    has parts of its own; any other g, a replaced evaluate, or the bump's mixed
    box without its declaration, has the signed lags and evaluate itself.
    """
    if f.quadrant_symmetric and isinstance(f.evaluate, _BumpTerms):
        return f.evaluate.lag, f.evaluate.pair, (-2.0, 2.0)
    return (lambda d: d), f.evaluate, (2.0, 2.0) if f.quadrant_symmetric else None


def _blocks(x, a, f, bounds):
    """Yield (pos, vals) for every block of the segments of the anchors ``a``.

    ``a`` holds anchor indices into ``x`` and ``bounds`` their neighbor
    bounds, one entry per anchor (_bounds).  The neighbors of each anchor are
    cut into segments (see contrast_statistic); segment s holds the count[s]
    neighbors first[s], first[s] + 1, ... of its anchor, stepping over the
    anchor itself.  vals is a (pairs x segments) block of terms
    g(x_j - x_i, x_k - x_i), one column per segment, each term doubled for a
    quadrant-symmetric g (the exact sum of g at (j, k) and at (k, j)), and
    pos[s] is the position in ``a`` of column s's anchor.  The terms come
    from g's split (_split): its per-lag part on the segments' neighbors,
    its pair part on every pair, and each side's factor once per column.
    vals may live in this generator's scratch, so it is read before the
    next block is asked for.
    """
    lag, pair, sides = _split(f)
    if f.quadrant_symmetric:   # [lo, first tie) and (last tie, hi); the anchor is in neither
        lo, hi, below, above = bounds
        pos = np.arange(len(a)).repeat(2)
        first = np.column_stack([lo, above]).ravel()
        count = np.column_stack([below - lo, hi - above]).ravel()
        factor = np.tile(sides, len(a))
    else:                      # the box, skipping the anchor itself
        lo, hi = bounds
        pos, first, count = np.arange(len(a)), lo, hi - lo - 1
    anchor = a[pos]
    work = np.empty(0)         # the gathered parts; each block is read before the next
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
                if not f.quadrant_symmetric:
                    nb += nb >= anchor[s]
                p = lag(x[nb] - x[anchor[s]])
                n = len(pj) * len(s)
                if len(work) < 2 * n:
                    work = np.empty(2 * n)
                # the indices are in range; mode "wrap" spares take's copy of out
                pp = [np.take(p, i, axis=0, out=work[h * n:(h + 1) * n].reshape(len(pj), len(s)),
                              mode="wrap").ravel() for h, i in enumerate((pj, pk))]
                vals = np.asarray(pair(*pp), dtype=float).reshape(len(pj), len(s))
                if sides:
                    vals = np.multiply(vals, factor[s], out=vals if vals.flags.writeable else None)
                yield pos[s], vals


def _bounds(x, f) -> tuple:
    """Every anchor's neighbor bounds in the sorted times, one search each.

    [lo, hi) is the box [x - H, x + H]; for a quadrant-symmetric g, [below,
    above) also gives the run of ties with the anchor, which cuts the box
    into its backward and forward segments.  Each bound is nondecreasing.
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
        sums[redo] = _exact_anchor_sums(x, a[redo], f, tuple(b[redo] for b in bounds))
    return sums.tolist()


@dataclass
class _Queued:
    """A window whose anchors wait for their runs; those below ``next`` are summed."""

    x: np.ndarray
    bounds: tuple
    T: float
    slot: int                # its place among the statistics
    next: int = 0
    partials: list = field(default_factory=list)


def _run(queue, size, f, out) -> None:
    """Sum the next ``size`` queued anchors as one run; finish the windows it completes.

    Each window the run reaches places the times its anchors' boxes span,
    unshifted, in the run's index space, and its anchors and their bounds
    are offset by where those times start there.  The windows a run
    completes leave the queue, each statistic written to ``out``.
    """
    xs, anchors, bounds, taken = [], [], [], []
    offset, left = 0, size
    for w in queue:
        if not left:
            break
        a0 = w.next
        a1 = min(len(w.x), a0 + left)
        base, top = int(w.bounds[0][a0]), int(w.bounds[1][a1 - 1])   # bounds are sorted
        shift = offset - base
        xs.append(w.x[base:top])
        anchors.append(np.arange(a0 + shift, a1 + shift))
        bounds.append([b[a0:a1] + shift for b in w.bounds])
        taken.append((w, a1))
        offset += top - base
        left -= a1 - a0
    sums = _anchor_sums(np.concatenate(xs), np.concatenate(anchors), f,
                        tuple(map(np.concatenate, zip(*bounds))))
    i = done = 0
    for w, a1 in taken:
        w.partials += sums[i:i + a1 - w.next]
        i += a1 - w.next
        w.next = a1
        if a1 == len(w.x):
            out[w.slot] = math.fsum(w.partials) / w.T
            done += 1
    del queue[:done]


def _statistics(windows, f, stacklevel) -> list:
    """contrast_statistics, warning ``stacklevel`` frames up: at the line that called
    the public entry point, whichever of the two it was."""
    out, queue, queued = [], [], 0
    for series in windows:
        x = np.asarray(series.times, dtype=float)
        T = series.window_end
        out.append(0.0)
        if T <= 0 or len(x) < 3:
            warnings.warn("window has no usable triples; statistic is 0",
                          EmptyWindowWarning, stacklevel=stacklevel)
            continue
        bounds = _bounds(x, f)
        pairs = _pair_count(bounds)
        if pairs > PAIR_BUDGET:
            raise PairBudgetExceeded(
                f"{len(x)} events with support radius {f.support_radius:g} form {pairs:.3g} "
                f"pairs, above the budget of {PAIR_BUDGET:.0e}")
        queue.append(_Queued(x, bounds, T, len(out) - 1))
        queued += len(x)
        while queued >= _RUN_ANCHORS:
            _run(queue, _RUN_ANCHORS, f, out)
            queued -= _RUN_ANCHORS
    if queued:
        _run(queue, queued, f, out)
    return out


def contrast_statistics(windows: Iterable[EventSeries], f: OddTestFunction) -> list:
    """contrast_statistic of every window in ``windows``, in order, in one pass.

    The windows are read one at a time, and each is checked as it is read:
    one with no usable triples warns EmptyWindowWarning and its statistic
    is 0.0, and one that would form more than PAIR_BUDGET pairs raises
    PairBudgetExceeded before g is evaluated on it.  Its anchors then join
    one queue, which is summed in runs of _RUN_ANCHORS anchors, so a run
    can take the tail of one window and the heads of the next few; once a
    window's last anchor is summed its partials are fsum-reduced and
    divided by its own T.  Every anchor's sum is correctly rounded and
    depends only on its own window's times, so each statistic is, bit for
    bit, contrast_statistic on that window alone.  Beyond the blocks, only
    the windows with anchors still queued are held, and after each run
    fewer than _RUN_ANCHORS anchors are.
    """
    return _statistics(windows, f, 3)


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

    This is contrast_statistics on one window.  There a run can also hold
    anchors of other windows; since each anchor's sum is the correctly
    rounded sum of its own window's terms, and the times are never shifted,
    that sharing cannot move a bit either.
    """
    return _statistics([series], f, 3)[0]


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
    """E_theta[O_{T,g}] = theta * mu_{T,g} from the cumulant grid or its odd part.

    The anchor integral of the window indicator has the closed form
    overlap(tau) = max(0, min(T, T - tau1, T - tau2) - max(0, -tau1, -tau2)),
    so mu_{T,g} is a lag-lattice Riemann sum of g * overlap/T * c3_odd, as mu_g is.
    """
    T = float(T)
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"window length T must be positive and finite, got {T}")

    def window(t1, t2):   # overlap / T, on a column of lags and a row
        w = np.minimum(np.minimum(T, T - t1), T - t2)
        w -= np.maximum(np.maximum(0.0, -t1), -t2)
        np.maximum(0.0, w, out=w)
        w /= T
        return w

    odd = odd_part(c3odd)
    mu, mu_T = _g_sums(odd, f, None, window)   # SupportExceedsGrid for a g wider than the grid
    l1 = float(np.abs(odd.values).sum() * odd.spacing**2)
    gap = 2.0 * f.support_radius * f.bound * l1 / T if T > f.support_radius else math.inf
    return ExactMeanResult(params.theta * mu_T, mu_T, mu, gap)


@dataclass(frozen=True)
class LinearityScan:
    """Per-theta means and stderrs with their fitted line.  The arrays are held as
    read-only copies; two scans are equal, and hash alike, when their arrays (bit for
    bit) and fit are."""

    thetas: np.ndarray = field(compare=False)
    means: np.ndarray = field(compare=False)
    stderrs: np.ndarray = field(compare=False)
    slope: float
    intercept: float
    slope_stderr: float
    intercept_stderr: float
    _key: tuple = field(init=False, repr=False)   # == and hash see the arrays

    def __post_init__(self):
        for name in ("thetas", "means", "stderrs"):
            object.__setattr__(self, name, readonly(getattr(self, name)))
        object.__setattr__(self, "_key", array_key(self.thetas, self.means, self.stderrs))


def linearity_scan(params: ModelParams, f: OddTestFunction, T, theta_list,
                   replicates, seed) -> LinearityScan:
    """Mean statistic versus theta with a least-squares line through the data.

    Each (theta, replicate) cell simulates an independent window (one child
    stream of ``seed`` per cell), and every cell's statistic comes from one
    pass of contrast_statistics, which draws the windows as it goes.  The
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
    root = np.random.SeedSequence(seed)   # each theta spawns the next `replicates` children
    windows = [replicate_windows(ModelParams(params.nu, params.m, float(theta), params.kernel),
                                 T, replicates, root) for theta in thetas]
    vals = np.reshape(contrast_statistics(chain.from_iterable(windows), f), (len(thetas), -1))
    means = np.array([row.mean() for row in vals])
    errs = np.array([row.std(ddof=1) for row in vals]) / math.sqrt(replicates)
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
