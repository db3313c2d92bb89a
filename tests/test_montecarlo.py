"""Monte-Carlo oracles against the closed forms, plus the validate suites."""

import gc
import hashlib
import json
import math
import weakref

import numpy as np
import pytest

from oracles import periodogram_direct, w_product_bincount, w_product_prefix

from clusterbispec import montecarlo
from clusterbispec.kernels import Exponential, Lomax, UniformHalf, kernel_from_spec
from clusterbispec.montecarlo import (
    cluster_size_moments,
    mc_b_complete,
    mc_cluster_m2,
    mean_periodogram,
    periodogram,
    validate_suite,
)
from clusterbispec.simulate import EventSeries, ModelParams, sample_clusters_batch
from clusterbispec.spectra import b_complete, bartlett, borel_factorial3

EXP_PARAMS = ModelParams(1.0, 0.5, 1.0, Exponential(1.0))


def R_closed(params, w):
    return 1.0 / (1.0 - params.m * params.kernel.transform(w))


# ---------------------------------------------------------------------------
# cluster-transform estimators
# ---------------------------------------------------------------------------


def test_mc_b_complete_at_origin():
    # W(0)^3 = M^3: the third complete cluster moment, 64 at nu=1, m=0.5
    est = mc_b_complete(EXP_PARAMS, 0.0, 0.0, 2 * 10**5, seed=1)
    zr, _ = est.z(complex(b_complete(EXP_PARAMS, 0.0, 0.0)))
    assert abs(zr) <= 3.0
    moments = cluster_size_moments(EXP_PARAMS, 2 * 10**5, seed=1)
    # same clusters, same seed: the raw third moment and W(0)^3 agree exactly
    m3 = moments["factorial3"].value.real + 3 * moments["second_moment"].value.real \
        - 2 * moments["mean_size"].value.real
    assert m3 == pytest.approx(est.value.real, rel=1e-12)


def test_mc_b_complete_matches_closed_form():
    pairs = [(0.3, 0.7), (1.0, 1.0), (0.5, -1.5), (2.0, 0.25), (4.0, 1.0)]
    for i, (a, b) in enumerate(pairs):
        est = mc_b_complete(EXP_PARAMS, a, b, 2 * 10**5, seed=10 + i)
        zr, zi = est.z(complex(b_complete(EXP_PARAMS, a, b)))
        assert abs(zr) <= 3.0 and abs(zi) <= 3.0, (a, b, zr, zi)


def test_mc_b_complete_uniform_kernel_imaginary_zero():
    p = ModelParams(1.0, 0.5, 1.0, UniformHalf(1.0))
    for i, (a, b) in enumerate([(0.5, 0.5), (1.0, 2.0), (3.0, -1.0), (0.25, 4.0), (2.0, 2.0)]):
        est = mc_b_complete(p, a, b, 10**5, seed=40 + i)
        assert abs(est.value.imag) <= 3.0 * est.stderr_im, (a, b)


def test_mc_cluster_m2():
    est = mc_cluster_m2(EXP_PARAMS, 0.0, 0.0, 10**5, seed=2)
    assert est.value.real == pytest.approx(8.0, abs=3 * est.stderr_re)  # R(0)^3
    rng = np.random.default_rng(0)
    for i in range(3):
        a, b = rng.uniform(-3, 3, 2)
        est = mc_cluster_m2(EXP_PARAMS, a, b, 10**5, seed=50 + i)
        target = complex(R_closed(EXP_PARAMS, a) * R_closed(EXP_PARAMS, b)
                         * R_closed(EXP_PARAMS, a + b))
        zr, zi = est.z(target)
        assert abs(zr) <= 3.0 and abs(zi) <= 3.0


def test_mc_conjugation_under_coupled_seeds():
    a, b = 0.8, -1.7
    e1 = mc_cluster_m2(EXP_PARAMS, a, b, 10**4, seed=5)
    e2 = mc_cluster_m2(EXP_PARAMS, -a, -b, 10**4, seed=5)
    assert e2.value == pytest.approx(np.conj(e1.value), rel=1e-12)


def test_mc_seed_determinism():
    e1 = mc_b_complete(EXP_PARAMS, 1.0, 1.0, 10**4, seed=3)
    e2 = mc_b_complete(EXP_PARAMS, 1.0, 1.0, 10**4, seed=3)
    assert e1.value == e2.value
    assert (e1.stderr_re, e1.stderr_im) == (e2.stderr_re, e2.stderr_im)


@pytest.mark.parametrize("params", [EXP_PARAMS, ModelParams(1.0, 0.5, 1.0, Lomax(1.5))])
def test_cluster_estimators_match_prefix_oracle(params, monkeypatch):
    # same clusters, W from the phasor walk and bincount against one
    # exponential per member and prefix-sum differences
    def both(estimator, *args):
        walk = estimator(params, *args, 2 * 10**4, 21)
        with monkeypatch.context() as mp:
            mp.setattr(montecarlo, "_w_product", w_product_prefix)
            return walk, estimator(params, *args, 2 * 10**4, 21)

    for walk, prefix in (both(mc_b_complete, 0.3, 0.7), both(mc_b_complete, 2.0, -0.25),
                         both(mc_cluster_m2, 0.5, 1.0), both(mc_cluster_m2, -1.7, 0.8)):
        assert walk.value == pytest.approx(prefix.value, rel=1e-12, abs=0)
        assert walk.stderr_re == pytest.approx(prefix.stderr_re, rel=1e-12, abs=0)
        assert walk.stderr_im == pytest.approx(prefix.stderr_im, rel=1e-12, abs=0)


@pytest.mark.parametrize("call", [
    lambda: mc_b_complete(EXP_PARAMS, math.inf, 1.0, 1000, 0),
    lambda: mc_b_complete(EXP_PARAMS, math.nan, 1.0, 1000, 0),
    lambda: mc_b_complete(EXP_PARAMS, 1e308, 1e308, 1000, 0),   # -w1-w2 overflows
    lambda: mc_cluster_m2(EXP_PARAMS, 1.0, math.nan, 1000, 0),
])
def test_cluster_estimators_refuse_non_finite_frequencies(call, monkeypatch):
    # mc_b_complete(inf, 1) returned nan+nanj with two RuntimeWarnings
    def no_clusters(*args):
        raise AssertionError("a cluster was drawn")

    monkeypatch.setattr(montecarlo, "sample_clusters_batch", no_clusters)
    with pytest.raises(ValueError, match="must be finite"):
        call()


@pytest.mark.parametrize("m, n, chunks", [
    (0.3, 2 * montecarlo._CHUNK + 5, [montecarlo._CHUNK] * 2 + [5]),
    (0.5, 2 * montecarlo._CHUNK + 5, [montecarlo._CHUNK] * 2 + [5]),
    (0.999, 1000, [400, 400, 200]),
])
def test_cluster_chunks_bound_their_members(m, n, chunks, monkeypatch):
    # a chunk of k clusters grows k / (1 - m) members in mean: _CHUNK clusters
    # up to m = 0.5, as before, and 2 _CHUNK (1 - m) nearer criticality, so
    # the members of one chunk stay near 2 _CHUNK (the stub grows roots only)
    batches = []

    def roots_only(batch, m, kernel, rng):
        batches.append(batch)
        return np.zeros(batch), np.arange(batch), np.zeros(0)

    monkeypatch.setattr(montecarlo, "sample_clusters_batch", roots_only)
    moments = cluster_size_moments(ModelParams(1.0, m, 1.0, Exponential(1.0)), n, 0)
    assert batches == chunks
    assert moments["mean_size"].value == 1.0


W_FREQS = [
    np.array([0.3, 0.7, -1.0]),
    np.array([0.0, -0.7, 0.3, 0.3, -0.3]),   # 0, negatives and repeats
    np.linspace(0.4, 6.4, 16),               # steps an ulp apart: near steps
    np.array([1.0, 1.0 + 2**-40, -(2.0 + 2**-40)]),
    np.zeros(0),
]


@pytest.mark.parametrize("kernel", [Exponential(1.0), Lomax(1.5)])
@pytest.mark.parametrize("freqs", W_FREQS, ids=range(len(W_FREQS)))
def test_blocked_w_product_keeps_the_bits_of_one_walk(kernel, freqs):
    # members walked in blocks that share the chunk's max|x| and summed by np.add.at
    # give the bits of one walk over the whole chunk summed by bincount
    batch = 2 * montecarlo._BLOCK
    offs, cid, _ = sample_clusters_batch(batch, 0.6, kernel, np.random.default_rng(31))
    assert len(offs) - batch > 2 * montecarlo._BLOCK   # the members span at least 3 blocks
    for chunk in ((offs, cid), (np.zeros(batch), np.arange(batch))):   # and no children
        (blocked,), (whole,) = (f(freqs, *chunk, batch)
                                for f in (montecarlo._w_product, w_product_bincount))
        assert blocked.tobytes() == whole.tobytes()


def test_blocks_take_the_chunks_near_step_decisions():
    # the step from 1.5 + delta to 2.0 is 0.5 - delta, a near step of the formed 0.5
    # in a block whose max|x| is small and its own exponential in the chunk, whose
    # max|x| is not; every block decides as the chunk does, and keeps its bits
    batch = 2 * montecarlo._BLOCK
    offs, cid, _ = sample_clusters_batch(batch, 0.6, Lomax(1.5), np.random.default_rng(31))
    x = np.abs(offs[batch:])
    least = min(x[s:s + montecarlo._BLOCK].max() for s in range(0, len(x), montecarlo._BLOCK))
    assert x.max() > 4.0 * least
    freqs = np.array([0.5, 1.5 + 2.0**-27 / math.sqrt(x.max() * least), 2.0])
    (blocked,), (whole,) = (f(freqs, offs, cid, batch)
                            for f in (montecarlo._w_product, w_product_bincount))
    assert blocked.tobytes() == whole.tobytes()


SUITE_PINS = {   # SHA-256 of json.dumps of each quick report at seed 0
    "bispectrum": "37de93562e240b88c1cdcb17709e2e1687cd9138015765e10cc68dac5054c4aa",
    "bartlett": "85f03fd55873e0dac4a783e55d5f8994503dda5e4af91a3dad4cd175c85dcb9f",
    "moments": "80e682848466ecf4e40c6e66ec9fa7bf3b4fc727598c443caf64552f45249b08",
}


@pytest.mark.parametrize("suite", montecarlo.SUITES)
def test_validate_suite_reports_keep_their_bits(suite):
    report = json.dumps(validate_suite(suite, "quick", seed=0))
    assert hashlib.sha256(report.encode()).hexdigest() == SUITE_PINS[suite]


@pytest.mark.parametrize("spec, pin", [
    ("lomax:1.5", "a7124c9273d7673740aec4075ed8efd8a44595d76b173aa345a30f8e87286bec"),
    ("match:exp:1:0.5", "90d0d430d39d4c130ee466751d82184d074ec7f9474653c3e9f7657c719dcd79"),
])
def test_mc_b_complete_keeps_its_bits(spec, pin):
    est = mc_b_complete(ModelParams(1.0, 0.5, 1.0, kernel_from_spec(spec)), 0.3, 0.7, 10**5, 7)
    parts = np.array([est.value.real, est.value.imag, est.stderr_re, est.stderr_im])
    assert hashlib.sha256(parts.tobytes()).hexdigest() == pin


def test_mc_requires_enough_clusters():
    with pytest.raises(ValueError):
        mc_b_complete(EXP_PARAMS, 1.0, 1.0, 100, seed=0)


# ---------------------------------------------------------------------------
# periodograms
# ---------------------------------------------------------------------------


def test_periodogram_point_value():
    series = EventSeries(np.array([0.5, 1.25, 2.0]), 4.0)
    w = 1.3
    direct = abs(np.sum(np.exp(-1j * w * series.times))) ** 2 / 4.0
    assert periodogram(series, w) == pytest.approx(direct)


def _walk_sums(x, omega):
    sums = np.empty(np.shape(omega), dtype=complex)
    for k, ph in montecarlo._phasors(x, omega):
        sums.flat[k] = ph.sum()
    return sums


@pytest.mark.parametrize("omega", [
    np.linspace(0.4, 6.4, 16),                               # C05's grid
    [0.5, 1.0, 2.0, 4.0],                                    # the bartlett suite's
    np.sort(np.random.default_rng(7).uniform(0.5, 8.0, 32)),
    [1.5, -0.25, 0.0, 3.0, -1.5, 0.25, 1.5, -0.0, 0.75],     # mixed signs, 0, duplicates
    np.linspace(0.01, 8.0, 512),
    [[0.5, -1.0, 2.0], [4.0, 0.5, -3.75]],                  # 2-D
])
def test_phasor_walk_matches_direct_sums(omega):
    # at T = 1e4, |d| max|x| of an ulp-sized near step is largest
    for span in (1e3, 1e4):
        x = np.sort(np.random.default_rng(3).uniform(0.0, span, 3000))
        direct = np.exp(-1j * np.multiply.outer(np.asarray(omega, dtype=float), x)).sum(axis=-1)
        assert np.max(np.abs(_walk_sums(x, omega) - direct)) <= 1e-12 * len(x), span


def test_phasor_walk_frees_its_phasors():
    # the walk's phasors go with its last reference, not at the cyclic
    # collector's next run: a batch's worth of them a frequency adds up
    x = np.random.default_rng(1).uniform(0.0, 100.0, 1000)
    gc.disable()
    try:
        kept = [weakref.ref(ph) for _, ph in montecarlo._phasors(x, np.linspace(0.4, 6.4, 16))]
        assert all(ref() is None for ref in kept)
    finally:
        gc.enable()


def test_near_step_factor_is_the_exponential():
    # below 2^-27 in size, cos t rounds to 1 and sin t to t: the walk's factor
    # 1 - i d x is bit for bit np.exp(-1j * d * x)
    rng = np.random.default_rng(9)
    x = rng.uniform(-1e4, 1e4, 10**5)
    for d in (2.0**-27 / 1e4 * 0.999, 1.1e-16, 3e-19, 5e-300):
        factor = np.empty(len(x), dtype=complex)
        factor.real = 1.0
        factor.imag = -d * x
        assert factor.tobytes() == np.exp(-1j * d * x).tobytes(), d


def test_periodogram_walk_against_direct_and_mpmath():
    # T = 1e4 phases reach 6.4e4, where one rounding of w x moves a phasor by
    # up to 7e-12; the walk rounds smaller phases and adds a rounding a step
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    series = EventSeries(np.sort(rng.uniform(0.0, 1e4, 3000)), 1e4)
    omegas = np.linspace(0.4, 6.4, 16)
    walk, direct = periodogram(series, omegas), periodogram_direct(series, omegas)
    with mp.workdps(40):
        xs = [mp.mpf(float(t)) for t in series.times]
        for w, a, b in zip(omegas, walk, direct):
            s = mp.fsum(mp.expj(-mp.mpf(float(w)) * t) for t in xs)
            exact = float(abs(s) ** 2 / 1e4)
            assert abs(a - exact) <= 3e-12 and abs(b - exact) <= 3e-12, w


def test_periodogram_shapes_signs_and_empty_series():
    series = EventSeries(np.array([0.5, 1.25, 2.0]), 4.0)
    value = periodogram(series, 1.3)
    assert isinstance(value, np.float64) and np.ndim(value) == 0
    grid = np.array([[0.5, -1.0, 2.0], [4.0, 0.5, -3.75]])
    assert periodogram(series, grid).shape == grid.shape
    w = np.linspace(0.4, 6.4, 16)
    assert periodogram(series, -w).tobytes() == periodogram(series, w).tobytes()
    assert np.all(periodogram(EventSeries(np.array([]), 4.0), w) == 0.0)
    assert periodogram(EventSeries(np.array([]), 4.0), 1.0) == 0.0


@pytest.fixture
def exponentials(monkeypatch):
    """The sizes of every np.exp argument, as the calls are made."""
    counted = []
    exp = np.exp

    def counting(z, *args, **kwargs):
        counted.append(np.size(z))
        return exp(z, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    return counted


@pytest.mark.parametrize("omega, most", [(np.linspace(0.4, 6.4, 16), 1),
                                         ([0.5, 1.0, 2.0, 4.0], 1),
                                         (np.linspace(0.01, 8.0, 512), 2)])
def test_periodogram_exponentials_per_point(omega, most, exponentials):
    # one complex exponential per distinct step, not one per frequency, and
    # none for a step an ulp from one already formed: 16 -> 1 on C05's grid,
    # 4 -> 1 on the doubling set, 512 -> 2 on the fine grid (its first
    # frequency and its step)
    series = EventSeries(np.sort(np.random.default_rng(5).uniform(0.0, 100.0, 250)), 100.0)
    periodogram(series, omega)
    assert 1 <= sum(exponentials) / len(series.times) <= most


def test_cluster_transform_exponentials_per_member(exponentials, monkeypatch):
    # the triple (0.3, 0.7, -1.0): e^{-0.3ix}, then the step 0.4; the step
    # from 0.7 to 1.0 is 0.3 plus an ulp, a near step of the first
    members = []

    def counting_clusters(*args):
        drawn = sample_clusters_batch(*args)
        members.append(len(drawn[0]) - args[0])
        return drawn

    monkeypatch.setattr(montecarlo, "sample_clusters_batch", counting_clusters)
    mc_b_complete(EXP_PARAMS, 0.3, 0.7, 2000, seed=0)
    assert sum(exponentials) <= 2 * sum(members)


def test_periodogram_refuses_non_finite_frequencies(monkeypatch):
    series = EventSeries(np.array([0.5, 1.25, 2.0]), 4.0)
    for omega in ([1.0, math.nan], math.inf, [[1.0], [-math.inf]]):
        with pytest.raises(ValueError, match="omega must be finite"):
            periodogram(series, omega)

    # mean_periodogram simulated every window and returned McEstimate(nan, nan, 0)
    def no_windows(*args):
        raise AssertionError("a window was drawn")

    monkeypatch.setattr(montecarlo, "replicate_windows", no_windows)
    with pytest.raises(ValueError, match="omega_list must be finite"):
        mean_periodogram(EXP_PARAMS, 100.0, [math.nan], 3, 0)


def test_periodogram_poisson_limit_is_flat():
    # m ~ 0 surrogate: the process is nearly Poisson(nu) with spectrum nu
    p = ModelParams(1.0, 1e-6, 1.0, Exponential(1.0))
    ests = mean_periodogram(p, 2000.0, [0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0],
                            100, seed=4)
    for est in ests:
        assert abs(est.value.real - 1.0) <= 4.0 * est.stderr_re


def test_mean_periodogram_matches_bartlett():
    omegas = [0.5, 1.0, 2.0, 4.0]
    ests = mean_periodogram(EXP_PARAMS, 5000.0, omegas, 150, seed=6)
    for w, est in zip(omegas, ests):
        z = (est.value.real - float(bartlett(EXP_PARAMS, w))) / est.stderr_re
        assert abs(z) <= 4.0, (w, z)


def test_mean_periodogram_theta_invariant():
    p_neg = ModelParams(1.0, 0.5, -1.0, Exponential(1.0))
    e1 = mean_periodogram(EXP_PARAMS, 2000.0, [0.5, 1.0, 2.0], 80, seed=8)
    e2 = mean_periodogram(p_neg, 2000.0, [0.5, 1.0, 2.0], 80, seed=9)
    for a, b in zip(e1, e2):
        z = (a.value.real - b.value.real) / math.hypot(a.stderr_re, b.stderr_re)
        assert abs(z) <= 4.0


def test_mean_periodogram_rejects_zero_frequency():
    with pytest.raises(ValueError):
        mean_periodogram(EXP_PARAMS, 100.0, [0.0, 1.0], 10, seed=0)
    for reps in (0, 1):
        with pytest.raises(ValueError, match="replicates"):
            mean_periodogram(EXP_PARAMS, 100.0, [1.0], reps, seed=0)


def test_mean_periodogram_threads_reproducible():
    serial = mean_periodogram(EXP_PARAMS, 500.0, [1.0, 2.0], 16, seed=12)
    sequence = mean_periodogram(EXP_PARAMS, 500.0, [1.0, 2.0], 16,
                                seed=np.random.SeedSequence(12))
    assert sequence == serial


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


REAL_ROW = ["name", "estimate_re", "target_re", "stderr_re", "z_re", "k", "pass"]
ROW_KEYS = {
    "bispectrum": ["name", "estimate_re", "estimate_im", "target_re", "target_im",
                   "stderr_re", "stderr_im", "z_re", "z_im", "k", "pass"],
    "bartlett": REAL_ROW,
    "moments": REAL_ROW,
}


def test_validate_suites_pass_quick():
    for suite in ("bispectrum", "bartlett", "moments"):
        report = validate_suite(suite, "quick", seed=0)
        assert report["pass"], report
        # the CLI writes rows in this key order, unsorted
        assert all(list(c) == ROW_KEYS[suite] for c in report["comparisons"])


def test_cluster_size_moment_targets():
    moments = cluster_size_moments(EXP_PARAMS, 2 * 10**5, seed=13)
    m = EXP_PARAMS.m
    targets = {"mean_size": 1 / (1 - m),
               "second_moment": m / (1 - m) ** 3 + 1 / (1 - m) ** 2,
               "factorial3": borel_factorial3(m)}
    for name, est in moments.items():
        assert abs(est.value.real - targets[name]) <= 4 * est.stderr_re, name


def test_validate_suite_rejects_unknown():
    with pytest.raises(ValueError):
        validate_suite("fourth-order", "quick", 0)
    with pytest.raises(ValueError):
        validate_suite("bartlett", "exhaustive", 0)
