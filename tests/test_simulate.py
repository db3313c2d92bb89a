"""Cluster generation, window simulation, and event ingestion."""

import math
from dataclasses import replace

import numpy as np
import pytest

from clusterbispec import simulate
from clusterbispec.kernels import Exponential, Lomax, UniformHalf
from clusterbispec.match import MatchSpec, build_matched_kernel, rho_density
from clusterbispec.simulate import (
    ClusterSizeCapExceeded,
    IMMIGRANT_BUDGET,
    EventSeries,
    ModelParams,
    NonFiniteTime,
    PaddingBudgetExceeded,
    ParseError,
    ingest_events,
    leakage_bound,
    padding_length,
    read_columns,
    replicate_windows,
    sample_clusters_batch,
    simulate_window,
    simulate_window_batched,
    write_columns,
    write_events,
)


def test_model_params_validation():
    k = Exponential(1.0)
    with pytest.raises(ValueError):
        ModelParams(0.0, 0.5, 0.0, k)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 0.0, k)
    with pytest.raises(ValueError):
        ModelParams(1.0, 0.5, 1.5, k)
    assert ModelParams(1.0, 0.5, 0.0, k).lam == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# clusters
# ---------------------------------------------------------------------------


def test_tiny_branching_ratio_gives_singletons(rng):
    n = 10**4
    offs, cid = sample_clusters_batch(n, 1e-9, Exponential(1.0), rng)
    assert np.array_equal(np.bincount(cid, minlength=n), np.ones(n))
    assert np.array_equal(offs, np.zeros(n))


def test_cluster_mean_size_and_factorial_moment(rng):
    # batch engine at 1e6 clusters: mean size 1/(1-m), mean (M)_3 from the
    # total-progeny factorial-moment formula
    n = 10**6
    _, cid = sample_clusters_batch(n, 0.5, Exponential(1.0), rng)
    sizes = np.bincount(cid, minlength=n).astype(float)
    se = sizes.std(ddof=1) / math.sqrt(n)
    assert abs(sizes.mean() - 2.0) < 3 * se
    f3 = sizes * (sizes - 1) * (sizes - 2)
    se3 = f3.std(ddof=1) / math.sqrt(n)
    assert abs(f3.mean() - 44.0) < 3 * se3


def test_cluster_structure(rng):
    n = 1000
    offs, cid = sample_clusters_batch(n, 0.8, Exponential(1.0), rng)
    # the first wave is the roots, at offset 0, one per cluster in order
    assert np.array_equal(offs[:n], np.zeros(n)) and np.array_equal(cid[:n], np.arange(n))
    sizes = np.bincount(cid, minlength=n)
    assert sizes.min() >= 1 and sizes.sum() == len(offs) and sizes.max() > 1
    # every descendant sits after its root for a one-sided kernel
    assert np.all(offs >= 0.0)


def test_cluster_size_cap(rng, monkeypatch):
    monkeypatch.setattr(simulate, "DEFAULT_SIZE_CAP", 10)
    with pytest.raises(ClusterSizeCapExceeded):
        sample_clusters_batch(200, 0.99, Exponential(1.0), rng)


# ---------------------------------------------------------------------------
# window simulation
# ---------------------------------------------------------------------------


def test_intensity_matches_lambda():
    p = ModelParams(1.0, 0.5, 1.0, Exponential(1.0))
    T = 10**4
    series = simulate_window(p, T, seed=11)
    # count variance is roughly T * Gamma(0) = 8 T for this model
    se = math.sqrt(8.0 * T)
    assert abs(len(series) - p.lam * T) < 3 * se


def test_mean_count_theta_free():
    # 200 replicates per theta at T=1e3; intensity must not depend on theta
    T, reps = 1000.0, 200
    counts = {}
    for theta in (-1.0, 0.0, 1.0):
        p = ModelParams(1.0, 0.5, theta, Exponential(1.0))
        rng = np.random.default_rng(100)
        counts[theta] = np.array([len(simulate_window_batched(p, T, rng))
                                  for _ in range(reps)])
    lam_T = 2.0 * T
    for theta, c in counts.items():
        se = c.std(ddof=1) / math.sqrt(reps)
        assert abs(c.mean() - lam_T) < 4 * se, theta


def _pair_histogram(times, max_lag=10.0, width=0.1):
    hi = np.searchsorted(times, times + max_lag, side="right")
    diffs = []
    for i in range(len(times)):
        diffs.append(times[i + 1:hi[i]] - times[i])
    d = np.concatenate(diffs) if diffs else np.zeros(0)
    d = d[d > 0]
    return np.histogram(d, bins=int(max_lag / width), range=(0.0, max_lag))[0]


def test_pair_correlation_theta_free():
    # second order is sign-free: forward and reversed histograms agree binwise
    T, reps = 400.0, 40
    hists = {}
    for theta in (1.0, -1.0):
        p = ModelParams(1.0, 0.5, theta, Exponential(1.0))
        rng = np.random.default_rng(2024)
        hists[theta] = np.array([
            _pair_histogram(simulate_window_batched(p, T, rng)) for _ in range(reps)])
    m1, m2 = hists[1.0].mean(axis=0), hists[-1.0].mean(axis=0)
    s1 = hists[1.0].std(axis=0, ddof=1) / math.sqrt(reps)
    s2 = hists[-1.0].std(axis=0, ddof=1) / math.sqrt(reps)
    z = (m1 - m2) / np.hypot(s1, s2)
    assert np.max(np.abs(z)) < 4.0


def test_seeded_and_batched_windows_share_one_engine():
    for kernel in (Exponential(1.0), UniformHalf(2.0), Lomax(2.5)):
        p = ModelParams(1.0, 0.5, 0.5, kernel)
        for seed in (0, 1, 7, 2**40):
            series = simulate_window(p, 200.0, seed)
            batched = simulate_window_batched(p, 200.0,
                                              np.random.default_rng(np.random.SeedSequence(seed)))
            assert series.times.tobytes() == batched.tobytes()


def test_reproducibility_byte_identical():
    p = ModelParams(1.0, 0.5, 0.5, Exponential(1.0))
    a = simulate_window(p, 300.0, seed=42)
    b = simulate_window(p, 300.0, seed=42)
    assert np.array_equal(a.times, b.times)
    assert a.provenance == b.provenance
    c = simulate_window(p, 300.0, seed=43)
    assert not np.array_equal(a.times, c.times)


def test_padding_length_rule():
    # exp:1 at theta = 1: the left pad is the Chernoff bound's minimum over s,
    # min_s log(m M(s) / (e s (1 - m M(s))) / pad_tol) / s with M(s) = 1 / (1 - s),
    # and nothing can leak in from the right
    p = ModelParams(1.0, 0.5, 1.0, Exponential(1.0))
    s = np.linspace(1e-4, 0.5 - 1e-4, 100001)
    best = np.min(np.log(0.5 / (math.e * s * (0.5 - s)) / 1e-6) / s)
    prov = simulate_window(p, 100.0, seed=1).provenance
    assert prov["pad_right"] == 0.0
    assert best <= prov["pad_left"] <= best * (1.0 + 1e-3)
    # padding_length gives a unit window's pads, which for exp:1 are any window's
    assert padding_length(p, 1e-6) == pytest.approx(0.5 * prov["pad_left"], rel=1e-12)
    assert prov["immigrants_planned"] == p.nu * (100.0 + prov["pad_left"])
    # each pad meets pad_tol and is the shortest that does
    for params, T in ((p, 100.0), (ModelParams(1.0, 0.5, 0.0, Lomax(2.0)), 2000.0),
                      (ModelParams(1.0, 0.25, 0.3, UniformHalf(2.0)), 50.0)):
        prov = simulate_window(params, T, seed=1).provenance
        left, right = prov["pad_left"], prov["pad_right"]
        assert prov["leakage_bound"] == leakage_bound(params, T, left, right) <= 1e-6
        assert leakage_bound(params, T, 0.99 * left, right) > 1e-6
        if right > 0.0:
            assert leakage_bound(params, T, left, 0.99 * right) > 1e-6
    # a tolerance outside (0, 1) is refused, not turned into a negative pad
    # or a math domain error
    for params in (p, ModelParams(1.0, 0.5, 1.0, Lomax(1.5))):
        for pad_tol in (0.0, -1.0, 1.0, 2.0, math.nan):
            with pytest.raises(ValueError, match="pad_tol"):
                padding_length(params, pad_tol)
    with pytest.raises(ValueError, match="pad_tol"):
        simulate_window(p, 100.0, seed=1, pad_tol=2.0)


def _matched(base, m=0.5):
    return build_matched_kernel(MatchSpec(base, m))


@pytest.mark.parametrize("name, pads", [
    ("exp", (2.0, 5.0)), ("uhalf", (4.0, 6.0)), ("slap", (3.0, 6.0)), ("tab", (3.0, 6.0)),
    ("match_exp", (3.0, 6.0)), ("match_uhalf", (2.0, 3.0)), ("lomax2", (100.0, 500.0)),
])
def test_leakage_bound_above_cluster_monte_carlo(kernels, name, pads):
    # the expected number of window events from clusters rooted beyond a pad
    # P is nu E sum over members of min((D - P)^+, T), D the signed offset of
    # a member from its root: estimated from independent clusters
    kernel = {"match_exp": lambda: _matched(Exponential(1.0)),
              "match_uhalf": lambda: _matched(UniformHalf(1.0)),
              "lomax2": lambda: Lomax(2.0)}.get(name, lambda: kernels[name])()
    p = ModelParams(1.0, 0.5, 0.4, kernel)
    T, n = 2000.0, 10**6 if name == "lomax2" else 10**5
    rng = np.random.default_rng(1404)
    offs, cid = sample_clusters_batch(n, p.m, kernel, rng)
    signs = np.where(rng.random(n) < (1.0 + p.theta) / 2.0, 1.0, -1.0)
    d = signs[cid] * offs
    for pad in pads:
        lost = np.minimum(np.clip(d - pad, 0.0, None) + np.clip(-d - pad, 0.0, None), T)
        per = np.bincount(cid, weights=lost, minlength=n)
        mc = per.mean()
        bound = leakage_bound(p, T, pad, pad)
        assert 0.0 < mc <= bound <= 20.0 * mc, (pad, mc, bound)
    if name == "lomax2":
        # a 1e7-cluster estimate at theta = 1 put 0.0175 and 0.0026 events
        # past pads of 100 and 500
        forward = ModelParams(1.0, 0.5, 1.0, kernel)
        assert leakage_bound(forward, T, 100.0, 0.0) >= 0.0175
        assert leakage_bound(forward, T, 500.0, 0.0) >= 0.0026


def test_matched_lomax_bound_uses_the_base_tail():
    # the rho table of a matched Lomax(2) ends at 1e5, yet its summands reach
    # beyond: one generation-1 member of one summand alone loses
    # nu m p_1 T P(Y > P + T) events past a pad P, Y ~ rho_h
    from scipy.integrate import quad

    matched = _matched(Lomax(2.0))
    p, T = ModelParams(1.0, 0.5, 0.0, matched), 2000.0
    pad = 2.0 * matched.rho_x[-1]
    tail = quad(lambda x: rho_density(matched.spec, x), pad + T, np.inf)[0]
    assert tail > 0.0
    assert leakage_bound(p, T, pad, pad) >= 2.0 * p.nu * p.m * matched.pn[0] * T * tail
    # the null window of the benchmark's matched Lomax(2) plans at most 4e5 immigrants
    left, right, _ = simulate._window_pads(p, T, simulate.DEFAULT_PAD_TOL)
    assert p.nu * (T + left + right) <= 4e5


def test_matched_bound_covers_the_drawn_law():
    # a matched kernel draws p_n-many summands from its rho table, each uniform
    # within a table cell; near s = 0 that law's generating function lies above
    # the ideal rho_h's, so the bound must be built from the table
    matched = _matched(Exponential(1.0))
    x, mass = matched.rho_x, np.diff(matched._cdf) / matched._cdf[-1]
    s = np.array([0.05, 0.1, 0.2, 0.3])
    cell = ((np.sinh(np.outer(s, x[1:])) - np.sinh(np.outer(s, x[:-1])))
            / np.outer(s, np.diff(x))) @ mass
    drawn = np.polynomial.polynomial.polyval(cell, np.concatenate([[0.0], matched.pn]))
    mgf, _ = simulate._mgf(matched)
    assert np.all(mgf(s) >= drawn)


def test_one_sided_far_side_pad_is_zero(kernels):
    for kernel in (kernels["exp"], kernels["uhalf"], Lomax(2.0)):
        for theta, near, far in ((1.0, "pad_left", "pad_right"), (-1.0, "pad_right", "pad_left")):
            prov = simulate_window(ModelParams(1.0, 0.5, theta, kernel), 100.0, seed=2).provenance
            assert prov[far] == 0.0 and prov[near] > 0.0
    # an even kernel's clusters reach the window from both sides whatever their sign
    prov = simulate_window(ModelParams(1.0, 0.5, 1.0, kernels["slap"]), 100.0, seed=2).provenance
    assert prov["pad_left"] == prov["pad_right"] > 0.0


def test_padding_budget_fails_before_drawing():
    # lomax:0.5 at m = 0.5 meets pad_tol at no pad the budget allows; lomax:1.5
    # at theta = 0 and T = 2000 needs about 5e6 on each side, so the two sides
    # fit the budget alone but not together
    for p, T in ((ModelParams(1.0, 0.5, 1.0, Lomax(0.5)), 100.0),
                 (ModelParams(1.0, 0.5, 0.0, Lomax(1.5)), 2000.0)):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(PaddingBudgetExceeded, match=r"padding .* plans .* immigrants"):
            simulate_window_batched(p, T, rng)
        assert rng.bit_generator.state == state
        with pytest.raises(PaddingBudgetExceeded):
            simulate_window(p, T, seed=1)
    # the same Lomax(1.5) window moving forward only pads one side, and fits
    forward = ModelParams(1.0, 0.5, 1.0, Lomax(1.5))
    left, right, _ = simulate._window_pads(forward, 2000.0, simulate.DEFAULT_PAD_TOL)
    assert right == 0.0 < left <= IMMIGRANT_BUDGET - 2000.0


def test_batched_engine_matches_law():
    # same model through both front ends, seeded and caller-owned generator:
    # counts agree in distribution
    p = ModelParams(1.0, 0.5, 1.0, Exponential(1.0))
    T, reps = 300.0, 50
    a = np.array([len(simulate_window(p, T, seed=s)) for s in range(reps)])
    rng = np.random.default_rng(9)
    b = np.array([len(simulate_window_batched(p, T, rng)) for _ in range(reps)])
    z = (a.mean() - b.mean()) / math.hypot(a.std(ddof=1) / math.sqrt(reps),
                                           b.std(ddof=1) / math.sqrt(reps))
    assert abs(z) < 4.0


def test_replicate_windows_spawns_fresh_streams():
    # calls sharing one SeedSequence continue its children: two calls of four
    # replicates equal one call of eight
    p = ModelParams(1.0, 0.5, 1.0, Exponential(1.0))
    root = np.random.SeedSequence(4)
    halves = [replicate_windows(p, 50.0, len, 4, root) for _ in range(2)]
    whole = replicate_windows(p, 50.0, len, 8, 4)
    assert np.array_equal(np.concatenate(halves), whole)
    assert not np.array_equal(halves[0], halves[1])


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def test_ingest_sorts_and_keeps_duplicates(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("1.0\n0.5\n2.5\n")
    series = ingest_events(path)
    assert np.array_equal(series.times, [0.5, 1.0, 2.5])
    assert series.window_end == 2.5

    path.write_text("t\n1.0\n1.0\n0.25\n")
    series = ingest_events(path)
    assert np.array_equal(series.times, [0.25, 1.0, 1.0])  # duplicates kept


def test_ingest_empty_warns(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.warns(UserWarning, match="no events"):
        series = ingest_events(path)
    assert len(series) == 0 and series.window_end == 0.0


def test_ingest_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("abc\n")
    with pytest.raises(ParseError, match="bad.csv:1"):
        ingest_events(path)
    path.write_text("1.0\nnan\n")
    with pytest.raises(NonFiniteTime):
        ingest_events(path)


def test_read_columns_reads_what_write_columns_writes(tmp_path):
    path = tmp_path / "cols.csv"
    a, b = np.array([0.1, 1e-300, -2.5]), np.array([1.0 / 3.0, 7.0, np.pi])
    write_columns(path, ["a", "b"], a, b)
    back = read_columns(path, ["a", "b"])
    assert back.shape == (2, 3) and np.array_equal(back, [a, b])
    path.write_text("\n0.5, 1\n\n2,3\n")          # no header, blank lines skipped
    assert read_columns(path, ["a", "b"]).tolist() == [[0.5, 2.0], [1.0, 3.0]]
    path.write_text("A, B\n1,2\n3\n")
    with pytest.raises(ParseError, match="cols.csv:3: cannot parse '3'"):
        read_columns(path, ["a", "b"])
    path.write_text("a,b\n1,2\na,b\n")               # a header only on line 1
    with pytest.raises(ParseError, match="cols.csv:3"):
        read_columns(path, ["a", "b"])


def test_write_then_ingest_round_trip(tmp_path):
    p = ModelParams(1.0, 0.5, 1.0, Exponential(1.0))
    series = simulate_window(p, 100.0, seed=5)
    path = tmp_path / "events.csv"
    write_events(series, path)
    back = replace(ingest_events(path), window_end=100.0)
    assert np.array_equal(back.times, series.times) and back.window_end == 100.0


def test_event_series_validation():
    with pytest.raises(ValueError):
        EventSeries(np.array([0.5, 0.1]), 1.0)
    with pytest.raises(ValueError):
        EventSeries(np.array([0.5, 1.5]), 1.0)
    with pytest.raises(NonFiniteTime):
        EventSeries(np.array([0.1, np.nan, 0.5]), 1.0)
    for end in (np.nan, np.inf):
        with pytest.raises(NonFiniteTime):
            EventSeries(np.array([0.1, 0.5]), end)


def test_event_series_is_a_value():
    p = ModelParams(1.0, 0.5, 1.0, Exponential(1.0))
    a, b = simulate_window(p, 50.0, seed=4), simulate_window(p, 50.0, seed=4)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # the provenance is left out: the same times and end are the same window
    assert a == EventSeries(np.array(a.times), 50.0, {"kind": "other"})
    assert a != replace(a, window_end=60.0)
    assert a != simulate_window(p, 50.0, seed=5)


def test_event_series_times_are_read_only():
    # the times stay as validated: sorted, within the window, and not the caller's array
    given = np.array([0.1, 0.5, 0.7])
    series = EventSeries(given, 1.0)
    with pytest.raises(ValueError, match="read-only"):
        series.times[0] = 0.9
    given[0] = 0.9
    assert series.times.tolist() == [0.1, 0.5, 0.7]
