"""Cluster generation, window simulation, and event ingestion."""

import math
from dataclasses import replace

import numpy as np
import pytest

from clusterbispec import simulate
from clusterbispec.kernels import Exponential, Lomax, UniformHalf
from clusterbispec.montecarlo import periodogram
from clusterbispec.simulate import (
    ClusterSizeCapExceeded,
    EventSeries,
    ImmigrantBudgetExceeded,
    ModelParams,
    NonFiniteTime,
    ParseError,
    ingest_events,
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
    offs, cid, _ = sample_clusters_batch(n, 1e-9, Exponential(1.0), rng)
    assert np.array_equal(np.bincount(cid, minlength=n), np.ones(n))
    assert np.array_equal(offs, np.zeros(n))


def test_cluster_mean_size_and_factorial_moment(rng):
    # batch engine at 1e6 clusters: mean size 1/(1-m), mean (M)_3 from the
    # total-progeny factorial-moment formula
    n = 10**6
    _, cid, _ = sample_clusters_batch(n, 0.5, Exponential(1.0), rng)
    sizes = np.bincount(cid, minlength=n).astype(float)
    se = sizes.std(ddof=1) / math.sqrt(n)
    assert abs(sizes.mean() - 2.0) < 3 * se
    f3 = sizes * (sizes - 1) * (sizes - 2)
    se3 = f3.std(ddof=1) / math.sqrt(n)
    assert abs(f3.mean() - 44.0) < 3 * se3


def test_cluster_structure(rng):
    n = 1000
    offs, cid, up = sample_clusters_batch(n, 0.8, Exponential(1.0), rng)
    # the first wave is the roots, at offset 0, one per cluster in order
    assert np.array_equal(offs[:n], np.zeros(n)) and np.array_equal(cid[:n], np.arange(n))
    sizes = np.bincount(cid, minlength=n)
    assert sizes.min() >= 1 and sizes.sum() == len(offs) and sizes.max() > 1
    # every descendant sits after its root for a one-sided kernel
    assert np.all(offs >= 0.0)
    # each member after the roots sits one kernel step past its parent,
    # itself a member of its cluster
    assert len(up) == len(offs) - n and np.all(offs[n:] > up)
    members = set(zip(cid.tolist(), offs.tolist()))
    assert all((i, u) in members for i, u in zip(cid[n:].tolist(), up.tolist()))


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


def test_a_loss_tolerance_is_refused():
    # windows are exact, so a pad_tol would do nothing: it raises, not ignored
    p = ModelParams(1.0, 0.5, 0.5, Exponential(1.0))
    rng = np.random.default_rng(0)
    for call in (lambda: simulate_window(p, 10.0, seed=1, pad_tol=1e-6),
                 lambda: simulate_window_batched(p, 10.0, rng, pad_tol=1e-6),
                 lambda: simulate.padding_length(p, 1e-6)):
        with pytest.raises(ValueError, match="no loss tolerance"):
            call()


def test_padding_budget_fails_before_drawing():
    # the one budget is on the near immigrants, nu T: a window above it is
    # refused before anything is drawn, whatever the kernel's tail
    for p, T in ((ModelParams(2.0, 0.5, 1.0, Lomax(0.5)), 5.1e6),
                 (ModelParams(1.0, 0.9, 0.0, Exponential(1.0)), math.inf)):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ImmigrantBudgetExceeded, match=r"plans .* immigrants"):
            simulate_window_batched(p, T, rng)
        assert rng.bit_generator.state == state
        with pytest.raises(ImmigrantBudgetExceeded):
            simulate_window(p, T, seed=1)
    for T in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="window length T must be positive"):
            simulate_window(ModelParams(1.0, 0.5, 1.0, Exponential(1.0)), T, seed=1)


def test_far_spine_budget_fails_before_any_spine_grows(monkeypatch):
    # each far spine node roots a cluster, as an immigrant does, so the budget
    # bounds them too: a short window at high nu and m plans about 60 of them
    # an immigrant and is refused before any cluster grows, while a long
    # window with the same nu T plans about 100 in all and is drawn
    monkeypatch.setattr(simulate, "IMMIGRANT_BUDGET", 10**4)
    short = ModelParams(5000.0, 0.9, 0.0, Exponential(1.0))

    def grown(*args):
        raise AssertionError("a cluster grew in a window above the budget")

    with monkeypatch.context() as mp:
        mp.setattr(simulate, "sample_clusters_batch", grown)
        with pytest.raises(ImmigrantBudgetExceeded, match=r"plans .* far spine nodes"):
            simulate_window(short, 1.0, seed=1)
    assert len(simulate_window(replace(short, nu=1.0), 5000.0, seed=1)) > 0


def test_heavy_tailed_windows_are_accepted_and_exact():
    # no pad, so a heavy tail costs nothing: Lomax(1.5) at theta = 0 and a
    # Lomax(0.5) of infinite mean step keep the mean count nu T / (1 - m)
    for kernel, T, reps in ((Lomax(1.5), 2000.0, 100), (Lomax(0.5), 100.0, 400)):
        p = ModelParams(1.0, 0.5, 0.0, kernel)
        rng = np.random.default_rng(16)
        counts = np.array([len(simulate_window_batched(p, T, rng)) for _ in range(reps)])
        se = counts.std(ddof=1) / math.sqrt(reps)
        assert abs(counts.mean() - p.lam * T) < 4 * se, kernel


def test_lomax_window_mean_count_and_periodogram():
    # a plain Lomax(2) window at large T: mean count nu T / (1 - m), and mean
    # periodogram the Bartlett spectrum (its window bias is O(1/T))
    from clusterbispec.spectra import bartlett

    p = ModelParams(1.0, 0.5, 1.0, Lomax(2.0))
    T, reps = 2e4, 60
    omegas = np.array([0.05, 0.3, 1.0, 3.0])
    stats = replicate_windows(p, T, lambda s: np.concatenate([[len(s)], periodogram(s, omegas)]),
                              reps, 2)
    target = np.concatenate([[p.lam * T], bartlett(p, omegas).real])
    z = (stats.mean(axis=0) - target) / (stats.std(axis=0, ddof=1) / math.sqrt(reps))
    assert np.all(np.abs(z) < 4.0), z


@pytest.mark.parametrize("name, theta, m, L", [("slap", 0.3, 0.5, 60.0),
                                               ("uhalf", 0.5, 0.7, 80.0)])
def test_far_clusters_match_an_independent_count(kernels, name, theta, m, L):
    # the far clusters a window keeps are the clusters rooted outside it that
    # reach it: in mean, nu times the length of the roots outside the window
    # (L each side suffices) from which an independent cluster reaches it
    p, T = ModelParams(1.0, m, theta, kernels[name]), 5.0
    reps, n = 3000, 400_000
    far = np.array([simulate_window(p, T, seed).provenance["far_clusters"]
                    for seed in range(reps)])
    rng = np.random.default_rng(7)
    offs, cid, _ = sample_clusters_batch(n, m, p.kernel, rng)
    sign = np.where(rng.random(n) < (1.0 + theta) / 2.0, 1.0, -1.0)
    u = rng.uniform(-L, L, size=n)
    root = np.where(u < 0.0, u, u + T)
    t = root[cid] + sign[cid] * offs
    reach = np.bincount(cid, weights=(t >= 0.0) & (t <= T), minlength=n) > 0
    want = p.nu * 2.0 * L * reach.mean()
    se = math.hypot(far.std(ddof=1) / math.sqrt(reps),
                    p.nu * 2.0 * L * reach.std(ddof=1) / math.sqrt(n))
    assert abs(far.mean() - want) < 4 * se, (far.mean(), want, se)


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
