"""Odd test functions, the triple-sum statistic, exact means, and the theta scan."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterbispec import contrasts
from clusterbispec.contrasts import (
    EmptyWindowWarning,
    OddTestFunction,
    PairBudgetExceeded,
    antisymmetrize,
    contrast_statistic,
    exact_mean,
    linearity_scan,
    quadrant_indicator,
    smooth_quadrant_bump,
)
from clusterbispec.cumulant3 import invert_bispectrum, odd_part
from clusterbispec.kernels import Exponential
from clusterbispec.match import MatchSpec, build_matched_kernel
from clusterbispec.simulate import EventSeries, ModelParams, simulate_window_batched
from oracles import contrast_statistic_bruteforce

EXP_PARAMS = ModelParams(1.0, 0.5, 1.0, Exponential(1.0))


def random_series(rng, n, T=50.0, dup_frac=0.1):
    """Sorted times with a controlled fraction of exact duplicates."""
    times = rng.uniform(0.0, T, size=n)
    n_dup = int(dup_frac * n)
    if n_dup:
        times[:n_dup] = rng.choice(times[n_dup:], size=n_dup, replace=True)
    return EventSeries(np.sort(times), T, {"kind": "test"})


def clustered_series(rng, T, n_parents):
    """Parents uniform on [0, T), each with a Poisson(1) number of children at
    two-sided exponential offsets, all on a 1/64 grid (ties, lags of exactly
    +-H), clipped to the window; no simulator involved."""
    parents = rng.uniform(0.0, T, size=n_parents)
    sizes = rng.poisson(1.0, size=n_parents)
    offsets = rng.choice([-1.0, 1.0], size=sizes.sum()) * rng.exponential(1.0, size=sizes.sum())
    times = np.round(np.concatenate([parents, np.repeat(parents, sizes) + offsets]) * 64.0) / 64.0
    return EventSeries(np.sort(times[(times >= 0.0) & (times < T)]), T, {"kind": "test"})


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


def test_antisymmetrize_even_u_vanishes(rng):
    g = antisymmetrize(lambda a, b: a * a + np.cos(b), H=3.0)
    pts = rng.uniform(-3, 3, size=(100, 2))
    assert np.all(g.evaluate(pts[:, 0], pts[:, 1]) == 0.0)


def test_quadrant_indicator_values():
    g = quadrant_indicator(2.0)
    assert g.evaluate(np.array([0.5]), np.array([1.0]))[0] == 1.0
    assert g.evaluate(np.array([-0.5]), np.array([-1.0]))[0] == -1.0
    assert g.evaluate(np.array([0.5]), np.array([-1.0]))[0] == 0.0
    assert g.evaluate(np.array([2.5]), np.array([0.5]))[0] == 0.0  # outside box


def test_antisymmetrize_already_odd_doubles(rng):
    base = smooth_quadrant_bump(4.0)
    doubled = antisymmetrize(lambda a, b: base.evaluate(a, b), H=4.0)
    pts = rng.uniform(-4, 4, size=(200, 2))
    v1 = base.evaluate(pts[:, 0], pts[:, 1])
    v2 = doubled.evaluate(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(v2 - 2.0 * v1)) < 1e-15


def test_odd_test_function_invariants(rng):
    for g in (smooth_quadrant_bump(4.0), quadrant_indicator(3.0)):
        pts = rng.uniform(-1.2 * g.support_radius, 1.2 * g.support_radius, size=(1000, 2))
        v = g.evaluate(pts[:, 0], pts[:, 1])
        v_neg = g.evaluate(-pts[:, 0], -pts[:, 1])
        assert np.max(np.abs(v + v_neg)) <= 1e-14       # jointly odd
        assert np.max(np.abs(v)) <= g.bound + 1e-15     # bounded
        outside = np.abs(pts).max(axis=1) > g.support_radius
        assert np.all(v[outside] == 0.0)                # compact support
    g = smooth_quadrant_bump(4.0)
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="bound"):
            OddTestFunction(2.0, g.evaluate, bad)


def test_quadrant_symmetric_declaration_is_checked():
    assert smooth_quadrant_bump(4.0).quadrant_symmetric
    assert quadrant_indicator(3.0).quadrant_symmetric
    # asymmetric on the (+,+) quadrant; nonzero on the (+,-) quadrant; nonzero on an axis
    for u in (lambda a, b: (a > 0) * (b > 0) * a,
              lambda a, b: ((a > 0) & (b < 0)).astype(float),
              lambda a, b: ((a > 0) & (b >= 0)).astype(float)):
        g = antisymmetrize(u, H=2.0)
        assert not g.quadrant_symmetric
        with pytest.raises(ValueError, match="quadrant_symmetric"):
            replace(g, quadrant_symmetric=True)


# ---------------------------------------------------------------------------
# statistic
# ---------------------------------------------------------------------------


def test_statistic_needs_three_events():
    g = smooth_quadrant_bump(2.0)
    with pytest.warns(EmptyWindowWarning):
        assert contrast_statistic(EventSeries(np.array([0.1, 0.2]), 1.0), g) == 0.0


def test_pruned_equals_bruteforce(rng):
    # 20 series with n <= 200, duplicates included; equality is exact
    g = smooth_quadrant_bump(3.0)
    q = quadrant_indicator(2.0)
    for i in range(20):
        n = int(rng.integers(20, 201))
        series = random_series(rng, n, T=float(rng.uniform(20, 60)))
        for f in (g, q):
            assert contrast_statistic(series, f) == contrast_statistic_bruteforce(series, f)


def test_statistic_bits_are_pinned():
    # float.hex of the statistic on two fixed windows, one with duplicated
    # times and one clustered on a dyadic grid, as exact summation of every
    # anchor computed them before the fast path: certified sums move no bit
    bump, quad = smooth_quadrant_bump(4.0), quadrant_indicator(2.0)
    fs = (bump, quad, replace(quad, quadrant_symmetric=False),
          replace(bump, quadrant_symmetric=False))
    windows = {
        "ties": random_series(np.random.default_rng(1207), 400, T=60.0),
        "clustered": clustered_series(np.random.default_rng(1208), 1e3, 700),
    }
    pinned = {
        "ties": ["0x1.be651c98d5375p+0", "0x1.2222222222222p-1",
                 "0x1.2222222222222p-1", "0x1.be651c98d5375p+0"],
        "clustered": ["0x1.7f98d942f9af8p-3", "-0x1.47ae147ae147bp-7",
                      "-0x1.47ae147ae147bp-7", "0x1.7f98d942f9af8p-3"],
    }
    assert len(windows["clustered"]) == 1407
    for name, series in windows.items():
        assert [contrast_statistic(series, f).hex() for f in fs] == pinned[name]


def test_reflection_negates_exactly():
    # times on a dyadic grid so that T - x is exact and reflected lag pairs
    # are exact negations; the statistic must flip sign bit-for-bit
    rng = np.random.default_rng(5)
    T = 64.0
    times = np.sort(rng.integers(0, 64 * 1024, size=400).astype(float) / 1024.0)
    series = EventSeries(times, T, {"kind": "test"})
    reflected = EventSeries(np.sort(T - times), T, {"kind": "test"})
    g = smooth_quadrant_bump(3.0)
    a = contrast_statistic(series, g)
    b = contrast_statistic(reflected, g)
    assert a != 0.0
    assert b == -a


def test_scaling_g_scales_statistic(rng):
    series = random_series(rng, 150)
    base = smooth_quadrant_bump(3.0)
    for c in (2.0, 0.5):
        scaled = antisymmetrize(lambda a, b, c=c: 0.5 * c * base.evaluate(a, b), H=3.0)
        assert contrast_statistic(series, scaled) == c * contrast_statistic(series, base)
    grid = invert_bispectrum(EXP_PARAMS, 40.0, 256)
    odd = odd_part(grid)
    m_base = exact_mean(EXP_PARAMS, base, 100.0, odd)
    scaled = antisymmetrize(lambda a, b: 1.0 * base.evaluate(a, b), H=3.0)
    m2 = exact_mean(EXP_PARAMS, scaled, 100.0, odd)
    assert m2.mu_Tg == 2.0 * m_base.mu_Tg


def test_null_model_statistic_mean_zero():
    p0 = ModelParams(1.0, 0.5, 0.0, Exponential(1.0))
    g = smooth_quadrant_bump(4.0)
    rng = np.random.default_rng(17)
    vals = []
    for _ in range(200):
        times = simulate_window_batched(p0, 300.0, rng)
        vals.append(contrast_statistic(EventSeries(times, 300.0, {}), g))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) < 4 * se


def test_quadrant_indicator_counts_same_side_pairs():
    # anchor i's terms add up to P_i (P_i - 1) - N_i (N_i - 1), with P_i the
    # lags in (0, H] and N_i the lags in [-H, 0); dyadic times give ties and
    # lags of exactly +-H
    rng = np.random.default_rng(11)
    for n, ticks, H in ((40, 64, 2.0), (300, 512, 2.0), (500, 4096, 1.5)):
        T = 64.0
        x = np.sort(rng.integers(0, ticks + 1, size=n) * (T / ticks))
        P = np.searchsorted(x, x + H, side="right") - np.searchsorted(x, x, side="right")
        N = np.searchsorted(x, x, side="left") - np.searchsorted(x, x - H, side="left")
        want = math.fsum((P * (P - 1) - N * (N - 1)).tolist()) / T
        got = contrast_statistic(EventSeries(x, T, {"kind": "test"}), quadrant_indicator(H))
        assert got.hex() == want.hex()


def test_quadrant_indicator_statistic_is_zero_without_ties():
    # sum_i C(f_i, 2) and sum_i C(b_i, 2) both count the triples of span <= H
    for theta in (-1.0, 0.0, 1.0):
        p = ModelParams(1.0, 0.5, theta, Exponential(1.0))
        series = EventSeries(simulate_window_batched(p, 300.0, np.random.default_rng(8)),
                             300.0, {})
        for H in (0.5, 2.0, 7.0):
            assert contrast_statistic(series, quadrant_indicator(H)).hex() == (0.0).hex()


def test_declared_and_undeclared_paths_agree():
    # same-side j < k pairs, doubled, against every ordered pair of the box
    for theta in (-1.0, 0.0, 1.0):
        p = ModelParams(1.0, 0.5, theta, Exponential(1.0))
        rng = np.random.default_rng(int(50 + theta))
        for _ in range(2):
            series = EventSeries(simulate_window_batched(p, 1e3, rng), 1e3, {})
            for g in (smooth_quadrant_bump(4.0), quadrant_indicator(2.0)):
                a = contrast_statistic(series, g)
                b = contrast_statistic(series, replace(g, quadrant_symmetric=False))
                assert a.hex() == b.hex()


def test_block_limit_does_not_change_statistic(rng, monkeypatch):
    # one pair per block splits every anchor over its rows; a huge block
    # takes each equal-count anchor group whole
    g = smooth_quadrant_bump(3.0)
    q = quadrant_indicator(2.0)
    series = [random_series(rng, n, T=40.0) for n in (30, 150)]
    times = np.sort(np.random.default_rng(5).integers(0, 64 * 1024, size=400) / 1024.0)
    forward = EventSeries(times, 64.0, {"kind": "test"})
    reflected = EventSeries(np.sort(64.0 - times), 64.0, {"kind": "test"})
    expected = [contrast_statistic(s, f) for s in series for f in (g, q)]
    expected_forward = contrast_statistic(forward, g)
    for limit in (1, 2**40):
        monkeypatch.setattr(contrasts, "_BLOCK_PAIRS", limit)
        assert [contrast_statistic(s, f) for s in series for f in (g, q)] == expected
        assert contrast_statistic(forward, g) == expected_forward != 0.0
        assert contrast_statistic(reflected, g) == -expected_forward


def test_anchor_runs_do_not_change_statistic(rng, monkeypatch):
    # each anchor's segments are joined within its run of anchors
    series = [random_series(rng, n, T=40.0) for n in (30, 150)]
    fs = (smooth_quadrant_bump(3.0), quadrant_indicator(2.0),
          replace(quadrant_indicator(2.0), quadrant_symmetric=False))
    expected = [contrast_statistic(s, f).hex() for s in series for f in fs]
    for run in (1, 7):
        monkeypatch.setattr(contrasts, "_RUN_ANCHORS", run)
        assert [contrast_statistic(s, f).hex() for s in series for f in fs] == expected


def test_statistic_memory_is_bounded():
    # one T = 1e4 window holds about 8e6 neighbor pairs; materializing them
    # all at once peaks near 1 GB, anchor blocks stay far below 100 MB
    rng = np.random.default_rng(41)
    T = 1e4
    series = EventSeries(simulate_window_batched(EXP_PARAMS, T, rng), T, {})
    g = smooth_quadrant_bump(4.0)
    tracemalloc.start()
    try:
        value = contrast_statistic(series, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert value.hex() == contrast_statistic(series, replace(g, quadrant_symmetric=False)).hex()


def test_pair_budget_refuses_before_evaluating():
    # 1e5 events within one H form 2 * C(1e5, 3) = 3.3e14 same-side pairs,
    # hours of work; the count is refused before g is evaluated once
    bump = smooth_quadrant_bump(4.0)
    armed = []

    def evaluate(t1, t2):
        assert not armed, "g evaluated on a window above the pair budget"
        return bump.evaluate(t1, t2)

    g = OddTestFunction(4.0, evaluate, bump.bound, quadrant_symmetric=True)
    armed.append(True)
    with pytest.raises(PairBudgetExceeded, match="3.33e\\+14 pairs"):
        contrast_statistic(EventSeries(np.linspace(0.0, 1.0, 10**5), 1.0), g)


def test_pair_count_is_the_pairs_formed(rng, monkeypatch):
    # the budget admits a window forming exactly PAIR_BUDGET pairs, and
    # refuses one more; 60 events within H form 2 * C(60, 3) same-side
    # pairs and 60 * 59 * 58 ordered pairs
    series = random_series(rng, 60, T=1.0, dup_frac=0.0)
    for g, pairs in ((quadrant_indicator(2.0), 2 * 34220),
                     (replace(quadrant_indicator(2.0), quadrant_symmetric=False), 60 * 59 * 58)):
        monkeypatch.setattr(contrasts, "PAIR_BUDGET", pairs)
        contrast_statistic(series, g)
        monkeypatch.setattr(contrasts, "PAIR_BUDGET", pairs - 1)
        with pytest.raises(PairBudgetExceeded):
            contrast_statistic(series, g)


# ---------------------------------------------------------------------------
# exact summation
# ---------------------------------------------------------------------------


def certified_sums(values, seg, nseg, chunks=1):
    """The statistic's fast path on segments of any length.

    Segment s's terms are dealt in turn over ``chunks`` zero-padded columns
    of one block, as the rows of a large segment are split over blocks;
    the block is extracted and the columns joined per segment.  Returns
    (sums, certified).
    """
    cols = [[] for _ in range(nseg * chunks)]
    for i, (v, s) in enumerate(zip(values.tolist(), seg.tolist())):
        cols[s * chunks + i % chunks].append(v)
    block = np.zeros((max(1, *map(len, cols)), len(cols)))
    for c, vs in enumerate(cols):
        block[:len(vs), c] = vs
    pos = np.arange(len(cols)) // chunks
    return contrasts._join(pos, *contrasts._extract(block), nseg)


# m * 2**e spans 2**-1074 (subnormal) to just below 2**0, exactly
_scaled = st.builds(math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1074, -53))
_special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022),
                            1.0, -1.0, 2.0**-53, -(2.0**-53), 1.0 + 2.0**-52, 3 * 2.0**-54])


@st.composite
def _near_tie(draw):
    """Terms whose sum is on a rounding boundary or at most 3 * 2**-60 ulp off it.

    v plus half its ulp, or, when v is a power of two, minus a quarter of
    its ulp (the boundary below it); the offset is cut into equal pieces.
    """
    mant = draw(st.one_of(st.just(2**52), st.integers(2**52, 2**53 - 1)))
    e = draw(st.integers(-800, 800))
    v = math.ldexp(mant, e)
    below = mant == 2**52 and draw(st.booleans())
    offset = -math.ldexp(1.0, e - 2) if below else math.ldexp(1.0, e - 1)
    pieces = draw(st.sampled_from([1, 2, 4, 8]))
    nudge = math.ldexp(draw(st.integers(-3, 3)), e - 60 - draw(st.integers(0, 40)))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return [sign * t for t in [v, *[offset / pieces] * pieces, nudge]]


@st.composite
def segmented_terms(draw):
    terms = draw(st.lists(st.one_of(_scaled, _special), max_size=30))
    if draw(st.booleans()):   # exact cancellation, to 0.0 or to the extra terms
        terms += [-t for t in terms] + draw(st.lists(st.one_of(_scaled, _special), max_size=2))
    terms = draw(st.permutations(terms))
    nseg = draw(st.integers(1, 5))
    seg = draw(st.lists(st.integers(0, nseg - 1), min_size=len(terms), max_size=len(terms)))
    for tie in draw(st.lists(_near_tie(), max_size=2)):   # each in a segment of its own
        terms += draw(st.permutations(tie))
        seg += [nseg] * len(tie)
        nseg += 1
    return np.array(terms, dtype=float), np.array(seg, dtype=np.intp), nseg


@settings(max_examples=300, deadline=None)
@given(segmented_terms(), st.integers(1, 3))
@example((np.array([1.0, 2.0**-53]), np.zeros(2, dtype=np.intp), 1), 1)
@example((np.array([1.0, 2.0**-53 - 2.0**-106] + [2.0**-108] * 5), np.zeros(7, dtype=np.intp), 1),
         1)
def test_certified_sums_equal_fsum_per_segment(case, chunks):
    values, seg, nseg = case
    sums, certified = certified_sums(values, seg, nseg, chunks)
    want = [math.fsum(values[seg == s].tolist()) for s in range(nseg)]
    assert [v.hex() for v in sums[certified]] == [w.hex() for w, c in zip(want, certified) if c]


def test_certificate_needs_the_bound():
    # fl(sum r) loses all five 2**-108: t + lo = 1 + 2**-53 - 2**-106 rounds
    # to 1.0, while the exact sum 1 + 2**-53 + 2**-108 rounds to 1 + 2**-52
    values = np.array([1.0, 2.0**-53 - 2.0**-106] + [2.0**-108] * 5)
    t, lo, beta = contrasts._extract(values[:, None])
    assert (t[0], lo[0]) == (1.0, 2.0**-53 - 2.0**-106) and beta[0] > 0.0
    sums, certified = certified_sums(values, np.zeros(7, dtype=np.intp), 1)
    assert not certified[0]
    assert math.fsum(values.tolist()) == 1.0 + 2.0**-52
    # the exact tie 1 + 2**-53 is left to math.fsum
    assert not certified_sums(np.array([1.0, 2.0**-53]), np.zeros(2, dtype=np.intp), 1)[1][0]
    # integer-valued terms carry no bound and certify, an exact zero as +0.0
    sums, certified = certified_sums(np.array([3.0, -1.0, -2.0, 5.0, 1.0]),
                                     np.array([0, 0, 0, 1, 1]), 2, chunks=2)
    assert certified.all() and [v.hex() for v in sums] == ["0x0.0p+0", "0x1.8000000000000p+2"]


def test_certificate_below_a_power_of_two():
    # below 1.0 the doubles are 2**-53 apart, so the half-gap toward zero is
    # 2**-54, a quarter of 1.0's ulp; an enclosure reaching past it is refused
    one = np.ones(1)
    for sign in (1.0, -1.0):
        for beta, ok in ((2.0**-55, True), (2.0**-54, False), (2.0**-53, False)):
            sums, certified = contrasts._join(np.zeros(1, dtype=np.intp), sign * one,
                                              sign * -(2.0**-56) * one, np.array([beta]), 1)
            assert sums[0] == sign and certified[0] == ok, (sign, beta)
    # away from zero the gap is the full ulp: 1 + 2**-54 + 2**-55 still rounds to 1
    sums, certified = contrasts._join(np.zeros(1, dtype=np.intp), one, 2.0**-54 * one,
                                      np.array([2.0**-55]), 1)
    assert sums[0] == 1.0 and certified[0]
    # an exact zero needs a zero bound
    sums, certified = contrasts._join(np.zeros(2, dtype=np.intp), np.array([1.0, -1.0]),
                                      np.zeros(2), np.array([0.0, 2.0**-80]), 1)
    assert sums[0] == 0.0 and not certified[0]


def test_join_needs_its_own_bound():
    # one anchor's seven columns with exact t and lo (beta = 0): the join's
    # fl(sum lo) loses the five 2**-108, so only the join's own bound keeps
    # 1.0 from being certified, while the exact sum rounds to 1 + 2**-52
    t = np.array([1.0] + [0.0] * 6)
    lo = np.array([0.0, 2.0**-53 - 2.0**-106] + [2.0**-108] * 5)
    sums, certified = contrasts._join(np.zeros(7, dtype=np.intp), t, lo, np.zeros(7), 1)
    assert sums[0] == 1.0 and not certified[0]
    assert math.fsum([*t, *lo]) == 1.0 + 2.0**-52


def _count_fallback_anchors(monkeypatch):
    """Anchors handed to the fallback, math.fsum over their terms."""
    seen = [0]
    exact_anchor_sums = contrasts._exact_anchor_sums

    def counting(x, a, f, bounds):
        seen[0] += len(a)
        return exact_anchor_sums(x, a, f, bounds)

    monkeypatch.setattr(contrasts, "_exact_anchor_sums", counting)
    return seen


def test_uncertified_anchors_take_the_exact_routine(monkeypatch):
    # anchor 0 of events 0, 1, 2 sums g(1, 2) + g(2, 1) = 1 + 2**-53, a tie
    # that rounds to even; anchor 2 sums its negation
    def u(a, b):
        return np.where((a == 1) & (b == 2), 1.0, np.where((a == 2) & (b == 1), 2.0**-53, 0.0))

    g = antisymmetrize(u, H=3.0, bound=1.0)
    series = EventSeries(np.array([0.0, 1.0, 2.0]), 3.0, {"kind": "test"})
    seen = _count_fallback_anchors(monkeypatch)
    assert contrast_statistic(series, g) == contrast_statistic_bruteforce(series, g)
    assert seen[0] == 2
    assert contrasts._anchor_sums(series.times, np.arange(3), g,
                                  contrasts._bounds(series.times, g)) == [1.0, 0.0, -1.0]


def test_fast_path_certifies_almost_every_anchor(monkeypatch):
    # on an exp:1 T = 1e3 window with the bump at most 1 % of the anchors
    # fall back; none for the indicator
    series = EventSeries(simulate_window_batched(EXP_PARAMS, 1e3, np.random.default_rng(3)),
                         1e3, {})
    seen = _count_fallback_anchors(monkeypatch)
    contrast_statistic(series, smooth_quadrant_bump(4.0))
    assert seen[0] <= 0.01 * len(series)
    seen[0] = 0
    for q in (quadrant_indicator(2.0), replace(quadrant_indicator(2.0), quadrant_symmetric=False)):
        contrast_statistic(series, q)
    assert seen[0] == 0


def test_extreme_scales_match_bruteforce(rng):
    # terms near the top of the double range are extracted; terms in the
    # subnormal range go to the exact routine; both equal the reference
    series = random_series(rng, 60, T=20.0)
    base = smooth_quadrant_bump(3.0)
    for scale in (2.0**1000, 1e-300, 2.0**-1060):
        g = antisymmetrize(lambda a, b, s=scale: s * base.evaluate(a, b), H=3.0, bound=scale)
        assert contrast_statistic(series, g) == contrast_statistic_bruteforce(series, g)


def test_non_finite_terms_raise():
    for bad in (math.nan, math.inf):
        g = antisymmetrize(lambda a, b, v=bad: np.where((a > 0) & (b > 0), v, 0.0), H=2.0,
                           bound=1.0)
        with pytest.raises(ValueError, match="finite"):
            contrast_statistic(EventSeries(np.array([0.0, 0.5, 1.0, 1.5]), 2.0), g)


# ---------------------------------------------------------------------------
# exact means
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exp_odd_grid():
    return odd_part(invert_bispectrum(EXP_PARAMS, half_width=40.0, n=512))


def test_exact_mean_linear_in_theta(exp_odd_grid):
    g = smooth_quadrant_bump(4.0)
    m_plus = exact_mean(EXP_PARAMS, g, 1000.0, exp_odd_grid)
    p0 = ModelParams(1.0, 0.5, 0.0, Exponential(1.0))
    assert exact_mean(p0, g, 1000.0, exp_odd_grid).value == 0.0
    p_neg = ModelParams(1.0, 0.5, -1.0, Exponential(1.0))
    assert exact_mean(p_neg, g, 1000.0, exp_odd_grid).value == -m_plus.value


def test_exact_mean_gap_shrinks_with_T(exp_odd_grid):
    g = smooth_quadrant_bump(4.0)
    results = [exact_mean(EXP_PARAMS, g, T, exp_odd_grid) for T in (1e2, 1e3, 1e4)]
    for res, T in zip(results, (1e2, 1e3, 1e4)):
        assert abs(res.mu_Tg - res.mu_g) <= res.gap_bound
        assert res.gap_bound == pytest.approx(
            2.0 * g.support_radius * g.bound
            * np.abs(exp_odd_grid.values).sum() * exp_odd_grid.spacing**2 / T)
    gaps = [abs(r.mu_Tg - r.mu_g) for r in results]
    assert gaps[0] >= gaps[1] >= gaps[2]


def test_exact_mean_needs_a_positive_finite_window(exp_odd_grid):
    g = smooth_quadrant_bump(4.0)
    for T in (-5.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            exact_mean(EXP_PARAMS, g, T, exp_odd_grid)


def test_exact_mean_matches_simulation(exp_odd_grid):
    # at theta = +1: 500 replicates at T = 500, and 2000 at T = 3H, where the
    # clusters rooted outside the window carry much of its third order
    g = smooth_quadrant_bump(4.0)
    rng = np.random.default_rng(23)
    for T, reps in ((500.0, 500), (12.0, 2000)):
        target = exact_mean(EXP_PARAMS, g, T, exp_odd_grid).value
        vals = np.empty(reps)
        for r in range(reps):
            times = simulate_window_batched(EXP_PARAMS, T, rng)
            vals[r] = contrast_statistic(EventSeries(times, T, {}), g)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - target) < 4 * se, T


# ---------------------------------------------------------------------------
# linearity scan
# ---------------------------------------------------------------------------


def test_linearity_scan_matched_kernel_flat():
    matched = build_matched_kernel(MatchSpec(Exponential(1.0), m=0.5))
    p = ModelParams(1.0, 0.5, 0.0, matched)
    g = smooth_quadrant_bump(3.0)
    scan = linearity_scan(p, g, 300.0, (-1.0, 0.0, 1.0), 80, seed=3)
    assert abs(scan.slope) < 4 * scan.slope_stderr
    assert abs(scan.intercept) < 4 * scan.intercept_stderr


def test_linearity_scan_antisymmetric_in_theta():
    g = smooth_quadrant_bump(4.0)
    scan = linearity_scan(EXP_PARAMS, g, 400.0, (-1.0, 0.0, 1.0), 150, seed=29)
    z = (scan.means[0] + scan.means[2]) / math.hypot(scan.stderrs[0], scan.stderrs[2])
    assert abs(z) < 4.0


def test_linearity_scan_stderr_scaling():
    # nine theta cells: a variance from 100 windows of this statistic scatters
    # by about 20 %, so three cells left the ratio within its band only ~93 %
    # of the time
    g = smooth_quadrant_bump(3.0)
    thetas = np.linspace(-1.0, 1.0, 9)
    s1 = linearity_scan(EXP_PARAMS, g, 200.0, thetas, 100, seed=7)
    s2 = linearity_scan(EXP_PARAMS, g, 200.0, thetas, 200, seed=7)
    ratio = (s1.stderrs**2).mean() / (s2.stderrs**2).mean()
    assert ratio == pytest.approx(2.0, rel=0.25)


def test_linearity_scan_validation():
    g = smooth_quadrant_bump(3.0)
    with pytest.raises(ValueError):
        linearity_scan(EXP_PARAMS, g, 100.0, (-1.0, 1.0), 10, seed=0)
    with pytest.raises(ValueError):
        linearity_scan(EXP_PARAMS, g, 100.0, (-2.0, 0.0, 1.0), 10, seed=0)
    for reps in (0, 1):   # no standard error (or no mean) from fewer than two windows
        with pytest.raises(ValueError, match="replicates"):
            linearity_scan(EXP_PARAMS, g, 100.0, (-1.0, 0.0, 1.0), reps, seed=0)


def test_linearity_scan_needs_two_distinct_thetas(monkeypatch):
    # one distinct theta leaves the line undefined (NaN slope); refused
    # before a window is drawn
    def no_windows(*args, **kwargs):
        raise AssertionError("a window was simulated")

    monkeypatch.setattr(contrasts, "replicate_windows", no_windows)
    with pytest.raises(ValueError, match="distinct"):
        linearity_scan(EXP_PARAMS, smooth_quadrant_bump(3.0), 20.0, (0.5, 0.5, 0.5), 2, seed=0)
