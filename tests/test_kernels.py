"""Kernel densities, transforms, samplers, tails, and the spec grammar."""

import functools
import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import clusterbispec
from clusterbispec.asymptotics import diag_limit_check
from clusterbispec.cumulant3 import invert_bispectrum
from clusterbispec.kernels import (
    CHUNK_CELLS,
    TRANSFORM_TOL,
    EvenTable,
    Exponential,
    InvalidKernel,
    Kernel,
    Lomax,
    SymmetricLaplace,
    TabulatedSymmetric,
    TransformOutOfRange,
    UniformHalf,
    _gauss_legendre,
    _LOMAX_FIRST_RUNG,
    _lomax_floor,
    _lomax_rows,
    kernel_from_spec,
    load_tabulated_csv,
    transform_with_bound,
)
from clusterbispec.match import (MatchSpec, build_matched_kernel, load_matched_kernel,
                                 save_matched_kernel)
from clusterbispec.simulate import ModelParams
from oracles import UnsupportedKernelScaling, even_table_sample_interp, scale_kernel

OMEGA_GRID = np.linspace(-50.0, 50.0, 64)
LOMAX_ALPHAS = (0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0)
LOMAX_OMEGAS = np.logspace(-8.0, 6.0, 29)
# beyond the domain where the bound stays within TRANSFORM_TOL: large alpha, subnormal |w|
LOMAX_WIDE_ALPHAS = (0.001, 0.01, 30.0, 100.0, 1000.0)
LOMAX_TINY_OMEGAS = (1e-310, 1e-300, 1e-200, 1e-100, 1e-30, 1e-15)


def lomax_transform_gammainc(alpha: float, omega: float) -> complex:
    """Oracle: the Lomax transform as alpha e^{i w} (i w)^alpha Gamma(-alpha, i w).

    Substituting u = 1 + t gives this incomplete-gamma form (DLMF 8.2).
    """
    mp = pytest.importorskip("mpmath")
    if omega == 0.0:
        return 1.0 + 0.0j
    z = 1j * mp.mpf(omega)
    a = mp.mpf(alpha)
    return complex(a * mp.e**z * z**a * mp.gammainc(-a, z))


def quadpack_lomax_transform(alpha: float, omega, tol=1e-9):
    """Oracle: the Lomax transform by QUADPACK's Fourier integrals U - iV.

    QUADPACK's weight='cos'/'sin' path on [0, inf) splits the axis at the
    half-period points pi/|w| and accelerates the alternating segment series
    with the epsilon algorithm; limlst caps the cycles.  Fails the calling test
    where its error estimate exceeds ``tol``.  Use it only at |w| >= 1e-4:
    below about 1e-5 it returns about 0 (where hhat is near 1) with a tiny
    error estimate.
    """
    dens = Lomax(alpha).density
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.empty(w.shape, dtype=complex)
    for i, x in enumerate(w):
        if x == 0.0:
            out[i] = 1.0
            continue
        U, eU = quad(dens, 0.0, np.inf, weight="cos", wvar=abs(x), epsabs=0.5 * tol,
                     limlst=400, limit=500)
        V, eV = quad(dens, 0.0, np.inf, weight="sin", wvar=abs(x), epsabs=0.5 * tol,
                     limlst=400, limit=500)
        assert math.hypot(eU, eV) <= tol, f"QUADPACK missed {tol:g} at |w|={abs(x):g}"
        out[i] = U - 1j * V if x > 0 else U + 1j * V
    return out


def analytic_cdf(kernel, x):
    """CDF oracle independent of the kernel's own survival tables."""
    x = np.asarray(x, dtype=float)
    if isinstance(kernel, Exponential):
        return np.where(x < 0, 0.0, 1.0 - np.exp(-kernel.beta * np.clip(x, 0, None)))
    if isinstance(kernel, Lomax):
        return np.where(x < 0, 0.0, 1.0 - (1.0 + np.clip(x, 0, None)) ** (-kernel.alpha))
    if isinstance(kernel, UniformHalf):
        return np.clip(x / kernel.a, 0.0, 1.0)
    if isinstance(kernel, SymmetricLaplace):
        b = kernel.beta
        return np.where(x < 0, 0.5 * np.exp(b * np.clip(x, None, 0)),
                        1.0 - 0.5 * np.exp(-b * np.clip(x, 0, None)))
    # tabulated: integrate the declared piecewise-linear density directly
    fine = np.linspace(0.0, kernel.grid[-1], 8 * (len(kernel.grid) - 1) + 1)
    dens = kernel.density(fine)
    half = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(fine))])
    interp = np.interp(np.abs(x), fine, half)
    return np.where(x < 0, 0.5 - interp, 0.5 + interp)


# ---------------------------------------------------------------------------
# densities and survival
# ---------------------------------------------------------------------------


def test_density_point_values():
    assert Exponential(1.0).density(0.0) == pytest.approx(1.0)
    # alpha (1+t)^(-1-alpha) at alpha=1, t=1
    assert Lomax(1.0).density(1.0) == pytest.approx(0.25)
    assert UniformHalf(2.0).density(-0.5) == 0.0


def test_survival_point_values():
    assert Exponential(1.0).survival(0.0) == 1.0
    assert Lomax(2.0).survival(3.0) == pytest.approx(0.0625)
    assert UniformHalf(1.0).survival(2.0) == 0.0


def test_one_sided_families_vanish_below_zero(kernels):
    xs = np.linspace(-10.0, -1e-9, 57)
    for name in ("exp", "lomax15", "uhalf"):
        assert np.all(kernels[name].density(xs) == 0.0)


def test_symmetric_families_are_even(kernels):
    xs = np.linspace(0.0, 12.0, 301)
    for name in ("slap", "tab"):
        k = kernels[name]
        assert np.array_equal(k.density(xs), k.density(-xs))


def test_density_normalization_quadrature(kernels):
    for name, k in kernels.items():
        if name == "tab":
            # piecewise linear: trapezoid on a refinement containing the nodes
            # is exact, while adaptive quad cannot resolve the kinks
            fine = np.linspace(0.0, k.grid[-1], 16 * (len(k.grid) - 1) + 1)
            total = np.trapezoid(k.density(fine), fine)
        else:
            total, _ = quad(k.density, 0.0, np.inf, limit=300, epsabs=1e-12)
        if k.symmetric:
            total *= 2.0
        assert abs(total - 1.0) < 1e-8, name


def test_survival_density_consistency(kernels, rng):
    for name, k in kernels.items():
        pairs = np.sort(rng.uniform(0.0, 5.0, size=(20, 2)), axis=1)
        for x, y in pairs:
            if name == "tab":
                fine = np.linspace(x, y, 4097)
                integral = np.trapezoid(k.density(fine), fine)
                tol = 1e-6  # refined trapezoid misses the interior kinks
            else:
                integral, _ = quad(k.density, x, y, epsabs=1e-12, limit=200)
                tol = 1e-8
            assert abs((k.survival(x) - k.survival(y)) - integral) < tol, name


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_transform_at_zero_is_one(kernels):
    for name, k in kernels.items():
        assert abs(k.transform(0.0) - 1.0) < 1e-10, name


def test_exponential_transform_value():
    # beta/(beta + i w) at beta = w = 1
    assert Exponential(1.0).transform(1.0) == pytest.approx(0.5 - 0.5j)


def test_transform_bounded_and_conjugate_symmetric(kernels):
    for name, k in kernels.items():
        vals = k.transform(OMEGA_GRID)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12), name
        assert np.max(np.abs(k.transform(-OMEGA_GRID) - np.conj(vals))) < 1e-12, name


def test_symmetric_transforms_are_real(kernels):
    for name in ("slap", "tab"):
        vals = kernels[name].transform(OMEGA_GRID)
        assert np.max(np.abs(vals.imag)) < 1e-10, name


@pytest.mark.parametrize("beta", [1e-200, 1e-154, 1.0, 1e154, 1e300])
def test_laplace_transform_over_the_whole_rate_range(beta):
    # beta^2 under- or overflows at the ends of this range, so the transform must not form it
    k = SymmetricLaplace(beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = k.transform(np.array([0.0, beta, -beta, math.inf]))
    assert vals.tolist() == [1.0, 0.5, 0.5, 0.0]


def test_uniform_transform_closed_form():
    a, w = 2.0, 1.3
    val = UniformHalf(a).transform(w)
    half = a * w / 2.0
    assert val == pytest.approx(np.exp(-1j * half) * np.sin(half) / half, abs=1e-14)


def test_lomax_transform_against_bruteforce_riemann():
    # independent oracle: composite Simpson on [0, U] with 1e5 panels; for the
    # decreasing density h, |int_U^inf e^{-iwt} h(t) dt| <= 2 h(U) / |w|
    alpha, w = 1.5, 2.0
    n_panels, upper = 10**5, 1e3
    h = upper / n_panels
    k = Lomax(alpha)
    assert 2.0 * float(k.density(upper)) / w < 5e-8
    left = np.arange(n_panels, dtype=np.float64) * h
    fl, fm, fr = (np.exp(-1j * w * t) * k.density(t) for t in (left, left + 0.5 * h, left + h))
    total = (h / 6.0) * (np.sum(fl) + 4.0 * np.sum(fm) + np.sum(fr))
    val, bound = transform_with_bound(k, w)
    assert bound <= 1e-9
    assert abs(val - total) < 1e-6


def test_lomax_transform_against_incomplete_gamma():
    # the contour rule within 1e-11 wherever it runs, and its reported bound covers
    # the true error; the bound is within TRANSFORM_TOL on the documented domain
    for alpha in LOMAX_ALPHAS + LOMAX_WIDE_ALPHAS:
        k = Lomax(alpha)
        batch = dict(zip(LOMAX_OMEGAS, k.transform(LOMAX_OMEGAS)))
        for w in (*LOMAX_TINY_OMEGAS, *LOMAX_OMEGAS):
            try:
                val, bound = transform_with_bound(k, w)
            except TransformOutOfRange:
                assert alpha < 0.085 and w < 3.4e-307, (alpha, w)
                continue
            err = abs(val - lomax_transform_gammainc(alpha, w))
            assert err <= 1e-11, (alpha, w, err)
            assert err <= bound, (alpha, w, err, bound)
            assert batch.get(w, val) == val
            if alpha in LOMAX_ALPHAS and w >= 1e-8:
                assert bound <= TRANSFORM_TOL, (alpha, w, bound)


def test_lomax_transform_out_of_range_is_named():
    # for alpha < 0.085 the contour's end e^{60/alpha} overflows, so a subnormal |w|,
    # whose 60/|w| overflows too, is refused rather than returned as NaN
    for alpha in (0.001, 0.05, 0.08):
        with pytest.raises(TransformOutOfRange):
            Lomax(alpha).transform(np.array([1.0, -1e-310]))
        with pytest.raises(TransformOutOfRange):
            transform_with_bound(Lomax(alpha), 1e-310)
        assert np.isfinite(Lomax(alpha).transform(3.4e-307))
    assert np.isfinite(Lomax(0.09).transform(1e-310))


def test_lomax_transform_at_large_alpha_is_right_or_refused():
    # past alpha of about 1000 the phase (1 + alpha) arctan u turns faster than 512 nodes
    # resolve: a frequency whose 512-node rung still moves by more than TRANSFORM_TOL is
    # refused by name (at alpha = 1e4, w = 1 the 512-node rule is off by 13.8), any other
    # is right
    mpmath = pytest.importorskip("mpmath")
    for alpha in (2000.0, 5000.0, 1e4, 1e5):
        for x in (1e-3, -1e-3, 1.0, -1.0, 100.0, -100.0):
            try:
                val = Lomax(alpha).transform(x)
            except TransformOutOfRange:
                continue
            with mpmath.workdps(30):
                ref = lomax_transform_gammainc(alpha, abs(x))
            assert abs(val - (ref if x > 0 else ref.conjugate())) <= 1e-11, (alpha, x)


def test_lomax_transform_against_quadpack():
    w = np.array([-30.0, -0.37, 0.05, 0.37, 2.0, 50.0, 300.0])
    for alpha in (0.5, 1.0, 1.5, 2.0, 4.0):
        assert np.max(np.abs(Lomax(alpha).transform(w)
                             - quadpack_lomax_transform(alpha, w))) < 1e-9


def test_lomax_transform_zero_and_conjugate_exact():
    k = Lomax(1.5)
    assert k.transform(0.0) == 1.0 and k.transform(-0.0) == 1.0
    w = np.concatenate([[1e-8, 1e-3], np.linspace(0.01, 80.0, 101), [1e6]])
    assert np.array_equal(k.transform(-w), np.conj(k.transform(w)))


def test_lomax_transform_batch_independent():
    # each frequency alone is bit-identical to the same frequency in a call
    # that spans several row blocks of its first rung (the widest)
    w = np.random.default_rng(3).uniform(-60.0, 60.0, 13000)
    w[::97] = 0.0
    w[1::7] *= 1e-4   # these climb to the 128- and 256-node rungs
    assert len(w) > 3 * (CHUNK_CELLS // _LOMAX_FIRST_RUNG)
    k = Lomax(0.8)
    batch = k.transform(w)
    assert all(k.transform(np.array([x]))[0] == v for x, v in zip(w, batch))
    assert all(k.transform(float(x)) == v for x, v in zip(w[:50], batch[:50]))


def _lomax_cells(monkeypatch):
    """Count the cells (frequencies x nodes) and calls of every Lomax contour rule."""
    count = {"cells": 0, "calls": 0}

    def counted(alpha, w, nodes, *blocks):
        count["cells"] += w.size * nodes
        count["calls"] += 1
        return _lomax_rows(alpha, w, nodes, *blocks)

    monkeypatch.setattr("clusterbispec.kernels._lomax_rows", counted)
    return count


def test_lomax_rule_agrees_with_the_fixed_512_node_rule():
    # each frequency stops where doubling moves it by at most the rounding floor, so it
    # stays within two floors of the last rung's rule run at every frequency
    for alpha in LOMAX_ALPHAS + LOMAX_WIDE_ALPHAS:
        floor = _lomax_floor(alpha)
        for w in (*LOMAX_TINY_OMEGAS, *LOMAX_OMEGAS):
            try:
                val = Lomax(alpha).transform(w)
            except TransformOutOfRange:
                continue
            fixed = complex(_lomax_rows(alpha, np.array([w]), 512)[0])
            assert abs(val - fixed) <= 2.0 * floor, (alpha, w, abs(val - fixed) / floor)


def test_lomax_rule_work_on_the_spectra_grid(monkeypatch):
    # the lomax-spectra benchmark's frequencies: the distinct |w| of a 64-point axis
    # and of its pairwise sums.  Q_n is certified by Q_{2n}, or by the geometric
    # contraction of its last two changes, so from 8 nodes up a frequency stopping
    # at 16 nodes costs 8 + 16, at 32 costs 56 and at 64 costs 120; most of this grid
    # stops at 32, none passes 8 + ... + 512, and w = 0 runs no rule
    axis = np.linspace(-20.0, 20.0, 64)
    w = np.unique(np.abs(np.concatenate([axis, np.add.outer(axis, axis).ravel()])))
    count = _lomax_cells(monkeypatch)
    k = Lomax(1.5)
    per_frequency = []
    for x in w:
        count["cells"] = 0
        k.transform(x)
        per_frequency.append(count["cells"])
    assert np.mean(per_frequency) <= 70 and max(per_frequency) <= 1016
    count["cells"] = 0
    k.transform(w)
    assert count["cells"] == sum(per_frequency)
    for alpha, x in ((0.05, 1e-300), (1000.0, 0.1)):   # frequencies that climb to the cap
        count["cells"] = 0
        Lomax(alpha).transform(x)
        assert count["cells"] == 1016


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
def test_gauss_legendre_rungs(n):
    x, q = _gauss_legendre(n)
    assert np.max(np.abs(x + x[::-1])) <= 1e-15 and np.all(np.diff(x) < 0)
    assert abs(q.sum() - 2.0) <= 1e-14
    assert abs(np.sum(q * x ** (2 * n - 2)) - 2.0 / (2 * n - 1)) <= 1e-13
    # six Newton steps have converged: a seventh moves no node by more than rounding
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    assert np.max(np.abs(p / dp)) <= 4 * np.finfo(float).eps


def test_transform_with_bound_is_one_pass(monkeypatch):
    # the value is the transform's, bit for bit, and the bound comes from the same rungs
    count = _lomax_cells(monkeypatch)
    k = Lomax(1.5)
    for w in (0.37, np.array([-3.0, 0.0, 1e-3, 0.027, 7.5, 1e4])):
        count.update(cells=0, calls=0)
        val = k.transform(w)
        alone = dict(count)
        count.update(cells=0, calls=0)
        val_b, bound = transform_with_bound(k, w)
        assert np.array_equal(val_b, val) and type(val_b) is type(val)
        assert count == alone and 0.0 < bound <= TRANSFORM_TOL


def test_lomax_transform_memory_bounded():
    # blocks stay within CHUNK_CELLS cells at every rung
    w = np.geomspace(1e-6, 1e4, 20000)
    tracemalloc.start()
    try:
        Lomax(1.5).transform(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's page reuse")
def test_lomax_transform_reuses_its_pages():
    # the 649 distinct moduli of the lomax:1.5 n = 256 inversion lattice: once warm, the
    # rule's blocks stay under glibc's mmap threshold and reuse one workspace, so its
    # calls map no fresh pages (temporaries above it cost about 2300 faults a call)
    moduli = []

    class Recorded(Lomax):
        def transform(self, omega):
            moduli.append(np.array(omega))
            return super().transform(omega)

    invert_bispectrum(ModelParams(1.0, 0.5, 1.0, Recorded(1.5)), n=256)
    (w,) = moduli
    assert w.size == 649
    k = Lomax(1.5)
    k.transform(w)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        k.transform(w)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def test_tabulated_transform_blocks_bit_identical(kernels):
    # blocked rows reproduce one (frequencies x table) trapezoid sum exactly
    tab = kernels["tab"]
    w = np.random.default_rng(4).uniform(-40.0, 40.0, 300)
    assert len(w) > CHUNK_CELLS // len(tab.values)
    whole = 2.0 * np.trapezoid(np.cos(np.multiply.outer(w, tab.grid)) * tab.values,
                               dx=tab.spacing, axis=-1)
    assert np.array_equal(tab.transform(w), whole.astype(complex))


def test_tabulated_kernel_keeps_its_bits(kernels):
    # SHA-256 of the transform, density, survival and tail quantiles, pinned before the
    # tab: kernel became a table shared with the matched kernel; only its draws moved
    tab = kernels["tab"]
    w, x = np.linspace(-50.0, 50.0, 101), np.linspace(-9.0, 9.0, 1001)
    got = [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in (
        tab.transform(w), tab.density(x), tab.survival(x),
        np.array([tab.tail_quantile(e) for e in (1e-2, 1e-4, 1e-6)]))]
    assert got == ["955aa0c3504b78d420b2ea557765d32ec30aa0b92723dfaa11059118831b8ca3",
                   "96947e488ee0cbb12fadb14f8995097916c9812200ffd5fccc821c8e65b15db3",
                   "8dbda8e9ed0cda78cf8aa1ddfa239c41e6e029e3c31a35a8d659cea7a0fd1669",
                   "bbe2bf0ef44a43503165c7340bedda66d67e6fd36a6550c8e4331a0c98eb1ba1"]


def test_transform_error_bound_reported():
    _, bound = transform_with_bound(Lomax(1.0), 0.37)
    assert 0.0 < bound <= 1e-9


def test_no_quadpack_or_mpmath_in_the_package():
    # generic quadrature is a test oracle only: no module binds QUADPACK's quad,
    # and nothing the package imports or runs loads mpmath; importing every module
    # and running every transform but a Lomax-based match loads no scipy either
    code = (
        "import importlib, pkgutil, sys\n"
        "import numpy as np\n"
        "import clusterbispec\n"
        "from clusterbispec import asymptotics, kernels, match\n"
        "mods = [importlib.import_module('clusterbispec.' + m.name)\n"
        "        for m in pkgutil.iter_modules(clusterbispec.__path__)]\n"
        "w = np.linspace(-5.0, 5.0, 11)\n"
        "kernels.Exponential(1.0).transform(w)\n"
        "kernels.Lomax(1.5).transform(w)\n"
        "kernels.TabulatedSymmetric(np.exp(-0.01 * np.arange(2001)) / 2, 0.01).transform(w)\n"
        "built = match.build_matched_kernel(match.MatchSpec(kernels.Exponential(1.0), 0.5))\n"
        "built.transform(w)\n"
        "match.MatchedKernel(0.5, built.pn, built.rho_x, built.rho_vals).transform(w)\n"
        "asymptotics.chi_alpha(1.5)\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded[:5]\n"
        "from scipy.integrate import quad\n"
        "assert 'mpmath' not in sys.modules\n"
        "assert not hasattr(clusterbispec.kernels, 'quad')\n"
        "assert not any(v is quad for m in mods for v in vars(m).values())\n"
        "print(len(mods))\n"
    )
    src = os.path.dirname(os.path.dirname(clusterbispec.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) >= 9


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_sampler_seeded_determinism():
    k = Exponential(2.0)
    a = k.sample(np.random.default_rng(5), 10)
    b = k.sample(np.random.default_rng(5), 10)
    assert np.array_equal(a, b)


def test_sampler_means(rng):
    n = 10**6
    draws = UniformHalf(3.0).sample(rng, n)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - 1.5) < 3 * se  # mean a/2 by direct integration

    draws = Lomax(3.0).sample(rng, n)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - 0.5) < 3 * se  # mean 1/(alpha-1)


def test_sampler_matches_cdf(kernels, rng):
    n = 10**5
    for name, k in kernels.items():
        draws = np.sort(k.sample(rng, n))
        emp = np.arange(1, n + 1) / n
        dist = np.max(np.abs(emp - analytic_cdf(k, draws)))
        assert dist <= 0.01, name


class _Uniforms:
    """A generator whose every random(size) call hands out the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return float(self.u[0]) if size is None else self.u[:size].copy()


def _edge_uniforms(table):
    """u at each knot of the unit CDF and an ulp either side, at every dyadic bin
    edge up to twice the finest a guide of four bins a knot needs and an ulp below
    it, at 0.0 and at 1 - 2^-53."""
    knots = table._unit_cdf
    finest = 2 << (4 * knots.size - 1).bit_length()
    edges = np.arange(finest) / finest
    u = np.concatenate([knots, np.nextafter(knots, 0.0), np.nextafter(knots, 1.0),
                        edges, np.nextafter(edges, 0.0), [0.0, 1.0 - 2.0**-53]])
    return np.clip(u, 0.0, 1.0 - 2.0**-53)


def _assert_draws_match_interp(table):
    # u * G is exact only for a power of two G; a guide of another size finds the
    # right cell for all but a few u a knot's ulp below a bin edge, which draws
    # seldom meet, so its size is checked here
    bins = table._guide[0]
    assert bins & (bins - 1) == 0 and bins >= 4 * table.grid.size
    u = _edge_uniforms(table)
    for size in (None, 0, 1, len(u)):
        got = table.sample(_Uniforms(u), size)
        want = even_table_sample_interp(table, _Uniforms(u), size)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), size
    for size in (None, 0, 1, 10**5):
        got = table.sample(np.random.default_rng(5), size)
        want = even_table_sample_interp(table, np.random.default_rng(5), size)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), size


def _fixed_tables():
    x = np.linspace(0.0, 8.0, 2049)
    return {
        "two knots": EvenTable(np.array([1.0, 0.5]), 0.75),
        "infinite slopes": EvenTable(np.array([0.0, 1e-320, 3e-320, 1.0, 0.5]), 0.5),
        "uhalf rho": build_matched_kernel(MatchSpec(UniformHalf(1.0), m=0.5))._rho,
        "exp rho": build_matched_kernel(MatchSpec(Exponential(1.0), m=0.5))._rho,
        "lomax rho": build_matched_kernel(MatchSpec(Lomax(1.5), m=0.5))._rho,
        "tab": TabulatedSymmetric(np.exp(-x) / 2.0 / (1.0 - np.exp(-8.0)), x[1] - x[0]),
    }


@pytest.mark.parametrize("name", list(_fixed_tables()))
def test_table_draw_is_np_interp_bit_for_bit(name):
    # the guide table finds np.interp's cell and forms its value: the uhalf table's
    # last knot sits at nextafter(a), 4097 knots, a guide of 2^15 bins
    _assert_draws_match_interp(_fixed_tables()[name])


@st.composite
def _even_tables(draw):
    """Tables of 2 to 40 knots, with runs of zero-valued knots (flat CDF stretches)
    and subnormal densities (cells whose slope overflows to inf)."""
    n = draw(st.integers(2, 40))
    value = st.one_of(st.just(0.0), st.floats(5e-324, 1e3), st.floats(0.5, 2.0))
    values = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    step = st.floats(1e-9, 10.0)
    steps = draw(st.one_of(st.none(), st.lists(step, min_size=n - 1, max_size=n - 1)))
    try:
        if steps is None:
            return EvenTable(values, draw(step))
        return EvenTable(values, grid=np.concatenate([[0.0], np.cumsum(steps)]))
    except InvalidKernel:   # no mass, or knots that rounding left unordered
        assume(False)


@settings(max_examples=60, deadline=None)
@given(_even_tables())
def test_table_draw_is_np_interp_bit_for_bit_on_random_tables(table):
    _assert_draws_match_interp(table)


# ---------------------------------------------------------------------------
# tails, scaling, grammar
# ---------------------------------------------------------------------------


def test_tail_classification():
    # the kernel family sets the small-frequency regime and its power
    cases = {Lomax(1.5): ("regularly_varying", 1.5), Lomax(2.5): ("divergent", 3.0),
             Lomax(4.0): ("finite_third_moment", 3.0),
             Exponential(1.0): ("finite_third_moment", 3.0)}
    for kernel, expected in cases.items():
        report = diag_limit_check(ModelParams(1.0, 0.5, 1.0, kernel), t_list=(1e-1, 1e-2))
        assert (report.regime, report.power) == expected, kernel


def test_tail_quantile_bounds_mass(kernels):
    for name, k in kernels.items():
        q = k.tail_quantile(1e-6)
        tail = 2.0 * k.survival(q) if k.symmetric else k.survival(q)
        assert tail <= 1e-6 * (1 + 1e-9), name


def test_scale_kernel():
    assert scale_kernel(Exponential(1.0), 2.0) == Exponential(2.0)
    assert scale_kernel(UniformHalf(2.0), 2.0) == UniformHalf(1.0)
    with pytest.raises(UnsupportedKernelScaling):
        scale_kernel(Lomax(1.5), 2.0)


def test_kernel_spec_round_trip():
    for spec in ("exp:1", "lomax:1.5", "uhalf:2", "slap:1", "uniform:2"):
        k = kernel_from_spec(spec)
        assert kernel_from_spec(k.spec_string()) == k
    assert kernel_from_spec("uniform:2").spec_string() == "uhalf:2"
    with pytest.raises(InvalidKernel) as unknown:
        kernel_from_spec("weibull:1")
    for family in ("exp:beta", "lomax:alpha", "uhalf:a", "slap:beta", "match:<base>:<m>",
                   "tab:<path>"):
        assert family in str(unknown.value), family
    with pytest.raises(InvalidKernel):
        kernel_from_spec("exp:-1")


@dataclass(frozen=True)
class _Triangle(Kernel):
    """A monotone family declared here alone: h(t) = 2 (1 - t/a) / a on (0, a)."""

    a: float
    monotone = True
    prefix = "tri"

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0) & (x <= self.a), 2.0 * (1.0 - x / self.a) / self.a, 0.0)

    def sample(self, rng, size=None):
        return self.a * (1.0 - np.sqrt(1.0 - rng.random(size)))

    def tail_quantile(self, eps):
        return self.a

    def autocorrelation(self, x):
        b = np.clip(1.0 - np.abs(np.asarray(x, dtype=float)) / self.a, 0.0, None)
        return 2.0 * b * b * (3.0 - b) / (3.0 * self.a)

    def mixing_moments(self):   # Z = a Beta(2, 1): E Z^p = 2 a^p / (p + 2)
        return 2.0 * self.a / 3.0, self.a**2 / 2.0, 2.0 * self.a**3 / 5.0


def test_one_declaration_admits_a_new_monotone_family():
    # the match and the scale mixture read the family's declared facts, no family list
    from clusterbispec.asymptotics import MixtureZ, delta_m, mixture_moment_check, z_from_kernel
    from clusterbispec.match import rho_density

    k, m = _Triangle(2.0), 0.5
    xs = np.linspace(0.0, 2.5, 11)
    conv = [quad(lambda u: float(k.density(x + u) * k.density(u)), 0.0, max(k.a - x, 0.0),
                 epsabs=0.0, epsrel=1e-12)[0] for x in xs]
    np.testing.assert_allclose(rho_density(MatchSpec(k, m), xs),
                               (k.density(xs) - m * np.array(conv)) / (2.0 - m),
                               rtol=1e-12, atol=1e-15)
    matched = build_matched_kernel(MatchSpec(k, m))
    assert (k.spec_string(), matched.spec_string()) == ("tri:2", "match:tri:2:0.5")
    assert z_from_kernel(k) == MixtureZ(4.0 / 3.0, 2.0, 3.2)
    assert delta_m(z_from_kernel(k), m) > 0.0
    for p in (1, 2, 3):   # the declared moments against the family's own sampler
        assert mixture_moment_check(k, p, 200_000, seed=p)["pass"], p


def test_uniform_alias_in_the_grammar():
    # `uniform:a` names `uhalf:a` wherever a spec is parsed, a match base included
    assert kernel_from_spec("uniform:2") == UniformHalf(2.0)
    assert kernel_from_spec("match:uniform:1:0.5") == kernel_from_spec("match:uhalf:1:0.5")


def test_tabulated_csv_io(tmp_path):
    path = tmp_path / "kern.csv"
    xs = np.linspace(0.0, 6.0, 601)
    dens = np.exp(-xs) / 2.0 / (1.0 - np.exp(-6.0))
    path.write_text("x,density\n" + "\n".join(f"{float(x)!r},{float(d)!r}" for x, d in zip(xs, dens)))
    k = load_tabulated_csv(path)
    assert abs(k.transform(0.0) - 1.0) < 1e-10
    assert k.density(0.25) == pytest.approx(k.density(-0.25))

    bad = tmp_path / "bad.csv"
    bad.write_text("x,density\n0.0,oops\n")
    with pytest.raises(InvalidKernel, match="bad.csv:2"):
        load_tabulated_csv(bad)
    bad.write_text("x,density\n0.0,1.0\n0.5,0.5,0.1\n")    # a row of three fields
    with pytest.raises(InvalidKernel, match="bad.csv:3: cannot parse"):
        load_tabulated_csv(bad)

    nonuniform = tmp_path / "nonuniform.csv"
    nonuniform.write_text("x,density\n0.0,1.0\n0.5,0.5\n2.0,0.1\n")
    with pytest.raises(InvalidKernel, match="uniform"):
        load_tabulated_csv(nonuniform)


def test_tabulated_rejects_bad_density():
    with pytest.raises(InvalidKernel):
        TabulatedSymmetric(np.array([1.0, -0.2, 0.1]), 0.5)
    with pytest.raises(InvalidKernel):
        TabulatedSymmetric(np.array([5.0, 5.0, 5.0]), 1.0)  # mass far from 1


def test_table_mass_must_fit_a_float():
    # a CDF past the double range left a NaN unit CDF, and draws from it
    with pytest.raises(InvalidKernel, match="no mass, or more"):
        EvenTable(np.full(4, 1e308), 1.0)


def test_tabulated_equality_and_hash_by_value():
    xs = np.linspace(0.0, 8.0, 2049)
    dens = np.exp(-xs) / 2.0 / (1.0 - np.exp(-8.0))
    a = TabulatedSymmetric(dens, xs[1])
    b = TabulatedSymmetric(dens.copy(), xs[1])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    other = TabulatedSymmetric(np.exp(-2.0 * xs), xs[1])
    assert a != other
    assert a != TabulatedSymmetric(dens, xs[1] * (1.0 + 1e-12))
    assert a != Exponential(1.0)
    # the samples are held read-only, so the value cannot change under a set
    with pytest.raises(ValueError):
        a.values[3] = 0.0
    dens[3] = 0.0       # nor through the caller's array
    assert a == b and a.values[3] != 0.0


@functools.cache
def matched_kernels():
    """Built matched exp:1 and lomax:2 kernels, and the lomax:2 one saved and reloaded."""
    built = [build_matched_kernel(MatchSpec(base, m=0.5)) for base in (Exponential(1.0), Lomax(2.0))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "matched.json")
        save_matched_kernel(built[1], path)
        return (*built, load_matched_kernel(path))


@settings(max_examples=50, deadline=None)
@given(w=st.floats(min_value=-80.0, max_value=80.0, allow_nan=False))
def test_transform_conjugate_symmetry_property(kernels, w):
    # exact: spectra tabulate hhat once per |w| and conjugate for w < 0
    for k in (*kernels.values(), *matched_kernels()):
        assert k.transform(-w) == np.conj(k.transform(w)), k
        pair = k.transform(np.array([w, -w]))
        assert pair[1] == np.conj(pair[0]), k


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
def test_survival_monotone_property(x, y):
    lo, hi = min(x, y), max(x, y)
    for k in (Exponential(0.7), Lomax(2.2), UniformHalf(3.0)):
        assert k.survival(lo) >= k.survival(hi) - 1e-15
