"""Monte-Carlo oracles against the closed forms, plus the validate suites."""

import math

import numpy as np
import pytest

from clusterbispec.kernels import Exponential, UniformHalf
from clusterbispec.montecarlo import (
    cluster_size_moments,
    mc_b_complete,
    mc_cluster_m2,
    mean_periodogram,
    periodogram,
    validate_suite,
)
from clusterbispec.simulate import EventSeries, ModelParams
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
