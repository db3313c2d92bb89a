"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail line
per criterion; each line is printed only after every assertion in the
criterion has held.
"""

import math
import time

import numpy as np
import pytest

from clusterbispec.asymptotics import chi_alpha, diag_limit_check
from clusterbispec.contrasts import (
    contrast_statistic,
    exact_mean,
    linearity_scan,
    sign_contrast_function,
    smooth_quadrant_bump,
)
from clusterbispec.cumulant3 import contrast_mass_DH, invert_bispectrum, mu_g_freq, mu_g_time, odd_part
from clusterbispec.kernels import Exponential, Lomax, UniformHalf
from clusterbispec.match import MatchSpec, build_matched_kernel, phi_transform
from clusterbispec.montecarlo import mc_b_complete, mean_periodogram
from clusterbispec.simulate import EventSeries, ModelParams
from clusterbispec.spectra import b_complete, b_factorial, envelope
from oracles import contrast_statistic_bruteforce

EXP_PARAMS = ModelParams(1.0, 0.5, 1.0, Exponential(1.0))


def _report(num, text):
    print(f"\nACCEPTANCE {num:02d}: PASS - {text}", flush=True)


@pytest.fixture(scope="module")
def exp_grid():
    return invert_bispectrum(EXP_PARAMS, half_width=40.0, n=512)


def test_c01_r_form_equals_q_form():
    # 1e3 random pairs (drawn from a 0.25-step lattice so the heavy-tailed
    # transform is quadratured once per distinct frequency) per kernel and
    # branching ratio, relative 1e-10
    rng = np.random.default_rng(101)
    w1 = rng.integers(-80, 81, size=1000) * 0.25
    w2 = rng.integers(-80, 81, size=1000) * 0.25
    worst = 0.0
    for kernel in (Exponential(1.0), Lomax(1.5), UniformHalf(1.0)):
        for m in (0.2, 0.5, 0.8):
            p = ModelParams(1.0, m, 1.0, kernel)
            r = b_complete(p, w1, w2, form="R")
            q = b_complete(p, w1, w2, form="Q")
            worst = max(worst, float(np.max(np.abs(r - q) / np.abs(q))))
            assert worst < 1e-10, (kernel, m)
    _report(1, f"R-form == Q-form on 1000 pairs x 3 kernels x 3 m; "
               f"worst relative gap {worst:.2e} < 1e-10")


def test_c02_total_mass_identity():
    # resolves the flagged desk-value conflict: at nu=1, m=0.5 the value is
    # 44 = nu E[(M)_3] (B_comp(0,0) = 64, Gamma(0) = 8, lam = 2:
    # 64 - 3*8 + 2*2 = 44; neither 12 nor 22)
    worst = 0.0
    for m in (0.1, 0.3, 0.5, 0.7, 0.9):
        p = ModelParams(1.0, m, 1.0, Exponential(1.0))
        val = complex(b_factorial(p, 0.0, 0.0))
        target = p.nu * m**2 * (2 * m**2 - 8 * m + 9) / (1 - m) ** 5
        rel = abs(val - target) / target
        worst = max(worst, rel)
        assert rel < 1e-10, m
    assert complex(b_factorial(EXP_PARAMS, 0.0, 0.0)).real == pytest.approx(44.0)
    _report(2, f"B_fac(0,0) = nu m^2(2m^2-8m+9)/(1-m)^5 at 5 m values; "
               f"worst relative gap {worst:.2e} < 1e-10 (value 44 at m=0.5)")


def test_c03_monte_carlo_bispectrum_oracle():
    t0 = time.time()
    pairs = [(0.3, 0.7), (1.0, 1.0), (0.5, -1.5), (2.0, 0.25), (4.0, 1.0)]
    zs = []
    for i, (a, b) in enumerate(pairs):
        est = mc_b_complete(EXP_PARAMS, a, b, 10**6, seed=300 + i)
        zr, zi = est.z(complex(b_complete(EXP_PARAMS, a, b)))
        zs += [zr, zi]
        assert abs(zr) <= 3.0 and abs(zi) <= 3.0, (a, b, zr, zi)
    assert time.time() - t0 < 120.0
    _report(3, f"mc_b_complete (1e6 clusters) within 3 sigma componentwise at 5 "
               f"pairs; max |z| = {max(abs(z) for z in zs):.2f}")


def test_c04_uniform_exception_and_nonvacuity():
    axis = np.linspace(-20.0, 20.0, 32)
    W1, W2 = np.meshgrid(axis, axis, indexing="ij")
    pu = ModelParams(1.0, 0.5, 1.0, UniformHalf(1.0))
    peak_u = float(np.max(np.abs(b_complete(pu, W1, W2).imag)))
    assert peak_u <= 1e-10

    t = np.linspace(0.005, 1.0, 200)
    peaks = {}
    for kernel in (Exponential(1.0), Lomax(1.0)):
        p = ModelParams(1.0, 0.5, 1.0, kernel)
        diag = np.abs(np.asarray(b_factorial(p, t, t)).imag)
        peaks[kernel.spec_string()] = float(diag.max())
        assert diag.max() > 1e-3 * envelope(p), kernel
    _report(4, f"uniform kernel: max|Im B_comp| = {peak_u:.2e} <= 1e-10 on 32x32; "
               f"exp/lomax(1) diagonal peaks {peaks['exp:1']:.3f}/{peaks['lomax:1']:.3f} "
               f"> 1e-3 * envelope = {1e-3 * envelope(EXP_PARAMS):.3f}")


def test_c05_spectral_match():
    t0 = time.time()
    w = np.linspace(-40.0, 40.0, 256)
    worst = 0.0
    for base in (Exponential(1.0), Lomax(2.0)):
        spec = MatchSpec(base, m=0.5)
        phi = phi_transform(spec, w)
        hh = base.transform(w)
        gap = np.max(np.abs(np.abs(1 - 0.5 * phi) ** 2 - np.abs(1 - 0.5 * hh) ** 2))
        worst = max(worst, float(gap))
        assert gap < 1e-8, base

    # matched and base processes share the periodogram at 16 frequencies
    matched = build_matched_kernel(MatchSpec(Exponential(1.0), m=0.5))
    omegas = np.linspace(0.4, 6.4, 16)
    e_base = mean_periodogram(EXP_PARAMS, 10**4, omegas, 100, seed=500)
    e_match = mean_periodogram(ModelParams(1.0, 0.5, 0.0, matched), 10**4, omegas,
                               100, seed=501)
    zmax = 0.0
    for a, b in zip(e_base, e_match):
        z = (a.value.real - b.value.real) / math.hypot(a.stderr_re, b.stderr_re)
        zmax = max(zmax, abs(z))
        assert abs(z) <= 4.0
    assert time.time() - t0 < 300.0
    _report(5, f"|1-m phi|^2 == |1-m hhat|^2 (worst gap {worst:.2e} < 1e-8, exp and "
               f"lomax(2) bases); matched-vs-base periodograms max |z| = {zmax:.2f} <= 4")


def test_c06_sign_family_linearity(exp_grid):
    t0 = time.time()
    g = smooth_quadrant_bump(4.0)
    T = 10**3
    scan = linearity_scan(EXP_PARAMS, g, T, (-1.0, -0.5, 0.0, 0.5, 1.0), 500, seed=600)
    target = exact_mean(EXP_PARAMS, g, T, exp_grid).mu_Tg
    z_slope = (scan.slope - target) / scan.slope_stderr
    z_icept = scan.intercept / scan.intercept_stderr
    assert abs(z_icept) <= 4.0
    assert abs(z_slope) <= 4.0
    assert time.time() - t0 < 600.0
    _report(6, f"theta scan: intercept z = {z_icept:+.2f}, slope {scan.slope:+.5f} vs "
               f"mu_Tg {target:+.5f} (z = {z_slope:+.2f}), both within 4 sigma")


def test_c07_parseval_cross_route(exp_grid):
    t0 = time.time()
    f = smooth_quadrant_bump(4.0)
    t_route = mu_g_time(exp_grid, f)
    f_route = mu_g_freq(EXP_PARAMS, f).value
    rel = abs(t_route - f_route) / abs(t_route)
    assert rel < 1e-3
    assert time.time() - t0 < 60.0
    _report(7, f"mu_g time route {t_route:+.6f} vs frequency route {f_route:+.6f}; "
               f"relative gap {rel:.2e} < 1e-3")


def test_c08_optimal_contrast(exp_grid):
    odd = odd_part(exp_grid)
    for H in (5.0, 10.0, 20.0):
        g = sign_contrast_function(odd, H)
        assert mu_g_time(odd, g) == pytest.approx(contrast_mass_DH(odd, H), rel=1e-12)
    hs = np.linspace(0.5, odd.half_width, 40)
    ds = np.array([contrast_mass_DH(odd, h) for h in hs])
    assert np.all(np.diff(ds) >= 0.0)
    l1 = np.abs(odd.values).sum() * odd.spacing**2
    assert ds[-1] == pytest.approx(l1, rel=1e-12)
    _report(8, f"sign contrast attains D_H exactly at H in {{5,10,20}}; D_H "
               f"nondecreasing, D_Lambda = |c3_odd|_1 = {l1:.4f}")


def test_c09_small_frequency_limits():
    t0 = time.time()
    rep_e = diag_limit_check(EXP_PARAMS, t_list=(1e-1, 1e-2, 1e-3))
    gap_e = abs(rep_e.ratios[-1] - 1.0)
    assert gap_e < 0.02

    p_lomax = ModelParams(1.0, 0.5, 1.0, Lomax(1.0))
    rep_l = diag_limit_check(p_lomax, t_list=(1e-1, 1e-2, 1e-3, 1e-4))
    gap_l = abs(rep_l.ratios[-1] - 1.0)
    assert gap_l < 0.10
    assert rep_l.limit == pytest.approx(
        p_lomax.lam * 0.25 * chi_alpha(1.0) / (1 - 0.5) ** 5)
    assert time.time() - t0 < 30.0
    _report(9, f"diagonal limits: exponential ratio gap {gap_e:.2e} < 2% at t=1e-3; "
               f"lomax(1) ratio gap {gap_l:.2e} < 10% at t=1e-4")


def test_c10_envelope_bound():
    t0 = time.time()
    axis = np.linspace(-20.0, 20.0, 64)
    W1, W2 = np.meshgrid(axis, axis, indexing="ij")
    closest = 0.0
    for kernel in (Exponential(1.0), Lomax(1.0), UniformHalf(1.0)):
        for m in (0.2, 0.5, 0.8):
            p = ModelParams(1.0, m, 1.0, kernel)
            peak = float(np.max(np.abs(np.asarray(b_factorial(p, W1, W2)).imag)))
            assert peak < envelope(p), (kernel, m)
            closest = max(closest, peak / envelope(p))
    assert time.time() - t0 < 30.0
    _report(10, f"max|Im B_fac| < nu E[(M)_3] strictly on 64x64 grids, 3 kernels x "
                f"3 m; largest peak/envelope ratio {closest:.2e}")


def test_c11_bruteforce_statistic_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1100)
    g = smooth_quadrant_bump(3.0)
    for i in range(20):
        n = int(rng.integers(20, 201))
        T = float(rng.uniform(20.0, 60.0))
        times = rng.uniform(0.0, T, size=n)
        times[: n // 10] = rng.choice(times[n // 10:], size=n // 10)  # duplicates
        series = EventSeries(np.sort(times), T, {"kind": "acceptance"})
        assert contrast_statistic(series, g) == contrast_statistic_bruteforce(series, g)
    assert time.time() - t0 < 10.0
    _report(11, "pruned statistic equals the O(n^3) reference exactly on 20 series "
                "(n <= 200, duplicates included)")


def test_c12_mixture_moments():
    from clusterbispec.asymptotics import mixture_moment_check

    t0 = time.time()
    zmax = 0.0
    for kernel in (UniformHalf(1.0), Exponential(1.0), Lomax(4.0)):
        for p_exp in (1, 2, 3):
            res = mixture_moment_check(kernel, p_exp, 2 * 10**5,
                                       seed=1200 + 10 * p_exp)
            zmax = max(zmax, abs(res["z"]))
            assert res["pass"], (kernel, p_exp, res)
    assert time.time() - t0 < 60.0
    _report(12, f"E X^p = E Z^p/(p+1) for p in {{1,2,3}} x three kernels within "
                f"4 sigma; max |z| = {zmax:.2f}")
