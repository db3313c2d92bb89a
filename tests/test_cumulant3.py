"""Bispectrum inversion, odd decomposition, D_H, and the two mu_g routes."""

import dataclasses
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from clusterbispec.contrasts import antisymmetrize, sign_contrast_function, smooth_quadrant_bump
from clusterbispec.cumulant3 import (
    AliasWarning,
    CumulantGrid,
    GridBudgetExceeded,
    LatticeOutOfRange,
    HOutOfRange,
    SupportExceedsGrid,
    TransformNotIntegrable,
    contrast_mass_DH,
    default_half_width,
    invert_bispectrum,
    mu_g_freq,
    mu_g_time,
    odd_part,
)
from clusterbispec.kernels import Exponential, kernel_from_spec
from clusterbispec.match import MatchSpec, build_matched_kernel, save_matched_kernel
from clusterbispec.simulate import ModelParams, sample_clusters_batch
from clusterbispec.spectra import b_factorial, borel_factorial3
from oracles import full_lattice_inversion, full_lattice_mu_g_freq, quadrant_indicator

EXP_PARAMS = ModelParams(1.0, 0.5, 1.0, Exponential(1.0))


@pytest.fixture(scope="module")
def exp_grid():
    return invert_bispectrum(EXP_PARAMS, half_width=40.0, n=512)


@pytest.fixture(scope="module")
def matched_grid():
    matched = build_matched_kernel(MatchSpec(Exponential(1.0), m=0.5))
    return invert_bispectrum(ModelParams(1.0, 0.5, 0.0, matched), half_width=40.0, n=512)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def test_default_half_width_matches_tail_rule():
    assert default_half_width(EXP_PARAMS) == pytest.approx(3.0 * -math.log(1e-6))


def test_total_integral_is_total_factorial_mass(exp_grid):
    target = EXP_PARAMS.nu * borel_factorial3(EXP_PARAMS.m)
    assert abs(exp_grid.values.sum() * exp_grid.spacing**2 - target) < 0.01 * target


def test_imag_residue_small(exp_grid, matched_grid):
    assert exp_grid.imag_residue <= 1e-6
    assert matched_grid.imag_residue <= 1e-6


def test_matched_kernel_grid_has_no_odd_part(matched_grid):
    odd = odd_part(matched_grid)
    assert np.max(np.abs(odd.values)) <= 1e-3 * np.max(np.abs(matched_grid.values))


def test_undersized_half_width_warns():
    with pytest.warns(AliasWarning):
        invert_bispectrum(EXP_PARAMS, half_width=3.0, n=64)


@pytest.mark.parametrize("params, half_width", [
    (EXP_PARAMS, 1e-200), (EXP_PARAMS, 1e200),
    (ModelParams(1e6, 0.99, 0.0, Exponential(1.0)), 1e-152)])
def test_lattice_that_under_or_overflows_fails_before_sampling(params, half_width, monkeypatch):
    # 1e-200 gave a c3 of inf (spacing^2 is 0) and an odd part of NaN; 1e200 raised
    # a bare OverflowError from spacing**2; at 1e-152 spacing^2 is a normal double,
    # but c3 overflowed to inf, since |c3| reaches nu E[(M)_3] / spacing^2
    import clusterbispec.cumulant3 as cumulant3

    def no_sampling(*args, **kwargs):
        raise AssertionError("a frequency was sampled")

    monkeypatch.setattr(cumulant3, "b_factorial", no_sampling)
    with pytest.raises(LatticeOutOfRange, match="lag cells of area"):
        invert_bispectrum(params, half_width=half_width, n=64)


@pytest.mark.parametrize("half_width", [0.0, -1.0, math.nan, math.inf])
def test_half_width_must_be_positive_and_finite(half_width):
    # NaN gave an all-NaN grid and inf a grid of infinite spacing
    with pytest.raises(ValueError, match="half_width must be positive and finite"):
        invert_bispectrum(EXP_PARAMS, half_width=half_width, n=64)


def test_quadrant_masses_match_cluster_histogram(exp_grid, rng):
    # Monte-Carlo oracle: histogram of (x1 - x0, x2 - x0) over ordered
    # distinct triples of simulated cluster points, binned on the same
    # lattice.  The anchor can be the latest point of the triple, so the
    # (-,-) quadrant carries real mass; by the rank-counting identity
    # sum_r r(r-1) = sum_r (M-1-r)(M-2-r) = (M)_3 / 3 its total equals the
    # (+,+) mass exactly, about one third each.
    n_clusters = 2 * 10**4
    offs, cid, _ = sample_clusters_batch(n_clusters, EXP_PARAMS.m, EXP_PARAMS.kernel, rng)
    order = np.argsort(cid, kind="stable")
    offs, cid = offs[order], cid[order]
    bounds = np.searchsorted(cid, np.arange(n_clusters + 1))
    counts = np.zeros(3)  # (+,+), (-,-), mixed-or-axis
    total = 0
    for c in range(n_clusters):
        pts = offs[bounds[c]:bounds[c + 1]]
        M = len(pts)
        if M < 3:
            continue
        d = pts[None, :] - pts[:, None]   # d[i, j] = x_j - x_i
        for i in range(M):
            li = np.concatenate([d[i, :i], d[i, i + 1:]])
            L1, L2 = np.meshgrid(li, li, indexing="ij")
            keep = ~np.eye(M - 1, dtype=bool)
            l1, l2 = L1[keep], L2[keep]
            counts[0] += np.sum((l1 > 0) & (l2 > 0))
            counts[1] += np.sum((l1 < 0) & (l2 < 0))
            total += l1.size
    counts[2] = total - counts[0] - counts[1]
    frac_mc = counts / total
    # identical identity at the population level
    assert frac_mc[0] == pytest.approx(1.0 / 3.0, abs=0.01)
    assert frac_mc[0] == pytest.approx(frac_mc[1], abs=1e-12)

    lags = exp_grid.lags
    pos = lags > 0
    neg = lags < 0
    total_mass = exp_grid.values.sum() * exp_grid.spacing**2
    f_pp = exp_grid.values[np.ix_(pos, pos)].sum() * exp_grid.spacing**2 / total_mass
    f_nn = exp_grid.values[np.ix_(neg, neg)].sum() * exp_grid.spacing**2 / total_mass
    # lattice bins on the axes blur a few percent of mass out of the open quadrants
    assert f_pp == pytest.approx(frac_mc[0], abs=0.04)
    assert f_nn == pytest.approx(frac_mc[1], abs=0.04)
    assert f_pp == pytest.approx(f_nn, abs=0.005)


# ---------------------------------------------------------------------------
# odd part
# ---------------------------------------------------------------------------


def test_odd_part_projection(exp_grid):
    odd = odd_part(exp_grid)
    again = odd_part(odd)
    assert np.array_equal(odd.values, again.values)
    n = exp_grid.n
    refl = (n - np.arange(n)) % n
    assert np.max(np.abs(odd.values + odd.values[np.ix_(refl, refl)])) == 0.0


def test_odd_part_of_its_own_grid_is_not_formed_again(exp_grid):
    # a grid odd_part made is its own odd part bit for bit: its odd part is an equal
    # grid on the same read-only values, and the mark saying so is no field
    odd = odd_part(exp_grid)
    twin = odd_part(odd)
    assert twin is not odd and twin.values is odd.values and twin.meta is not odd.meta
    assert twin == odd and hash(twin) == hash(odd) and repr(twin) == repr(odd)
    formed = odd_part(CumulantGrid(odd.half_width, odd.n, odd.values, odd.spacing,
                                   odd.imag_residue, dict(odd.meta)))
    assert formed.values is not odd.values and formed.values.tobytes() == odd.values.tobytes()
    assert formed == odd


def test_odd_part_of_even_grid_is_zero(matched_grid):
    # build an exactly even grid by symmetrizing, then antisymmetrize
    n = matched_grid.n
    refl = (n - np.arange(n)) % n
    even = CumulantGrid(matched_grid.half_width, n, 0.5 * (
        matched_grid.values + matched_grid.values[np.ix_(refl, refl)]), matched_grid.spacing)
    assert np.max(np.abs(odd_part(even).values)) == 0.0


def test_odd_part_integral_vanishes(exp_grid):
    odd = odd_part(exp_grid)
    assert abs(odd.values.sum() * odd.spacing**2) < 1e-12


# ---------------------------------------------------------------------------
# D_H
# ---------------------------------------------------------------------------


def test_dh_small_for_matched(matched_grid):
    total = np.abs(matched_grid.values).sum() * matched_grid.spacing**2
    assert contrast_mass_DH(matched_grid, 20.0) <= 1e-3 * total


def test_dh_monotone_and_converges(exp_grid):
    odd = odd_part(exp_grid)
    hs = np.linspace(1.0, exp_grid.half_width, 24)
    ds = [contrast_mass_DH(odd, h) for h in hs]
    assert all(d2 >= d1 for d1, d2 in zip(ds, ds[1:]))
    full = np.abs(odd.values).sum() * odd.spacing**2
    assert ds[-1] == pytest.approx(full)


def test_dh_range_check(exp_grid):
    with pytest.raises(HOutOfRange):
        contrast_mass_DH(exp_grid, 41.0)
    with pytest.raises(HOutOfRange):
        contrast_mass_DH(exp_grid, 0.0)


# ---------------------------------------------------------------------------
# mu_g routes
# ---------------------------------------------------------------------------


def test_mu_g_time_zero_for_null_g(exp_grid):
    # antisymmetrizing an even u yields g identically zero
    f = antisymmetrize(lambda a, b: np.abs(a) + np.abs(b), H=5.0)
    assert mu_g_time(exp_grid, f) == 0.0


def test_sign_function_achieves_dh(exp_grid):
    odd = odd_part(exp_grid)
    for H in (5.0, 10.0, 20.0):
        g = sign_contrast_function(odd, H)
        assert mu_g_time(odd, g) == pytest.approx(contrast_mass_DH(odd, H), rel=1e-12)


def test_support_must_fit_grid(exp_grid):
    with pytest.raises(SupportExceedsGrid):
        mu_g_time(exp_grid, smooth_quadrant_bump(100.0))


def test_mu_g_cross_route(exp_grid):
    f = smooth_quadrant_bump(4.0)
    t_route = mu_g_time(exp_grid, f)
    f_route = mu_g_freq(EXP_PARAMS, f)
    assert f_route.value == pytest.approx(t_route, rel=1e-3)
    assert f_route.truncation_bound < 1e-3 * abs(t_route)


def test_mu_g_freq_negation():
    f = smooth_quadrant_bump(4.0)
    neg = antisymmetrize(lambda a, b: -np.exp(-1.0 / np.clip(1.0 - ((a - 2.0) ** 2 + (b - 2.0) ** 2) / 4.0, 1e-12, None)) * (((a - 2.0) ** 2 + (b - 2.0) ** 2) < 4.0), H=4.0)
    v1 = mu_g_freq(EXP_PARAMS, f).value
    v2 = mu_g_freq(EXP_PARAMS, neg).value
    assert v2 == pytest.approx(-v1, rel=1e-9)


def test_mu_g_freq_warns_on_slow_transform_decay():
    # the quadrant indicator is discontinuous, so H_g decays only like 1/w
    # along the axes and the truncated frequency integral is unreliable
    from clusterbispec.cumulant3 import TransformNotIntegrable

    with pytest.warns(TransformNotIntegrable):
        mu_g_freq(EXP_PARAMS, quadrant_indicator(4.0), omega_max=20.0, n_omega=400)


@pytest.mark.parametrize("kwargs, name", [
    ({"omega_max": 0.0}, "omega_max"), ({"omega_max": -1.0}, "omega_max"),
    ({"omega_max": math.nan}, "omega_max"), ({"omega_max": math.inf}, "omega_max"),
    ({"n_omega": 0}, "n_omega"), ({"n_omega": -2}, "n_omega"), ({"n_omega": 7}, "n_omega"),
])
def test_mu_g_freq_checks_its_lattice(kwargs, name):
    # 0 raised ZeroDivisionError, NaN a zero-size array error and -1 a
    # misleading SupportExceedsGrid
    with pytest.raises(ValueError, match=name) as info:
        mu_g_freq(EXP_PARAMS, smooth_quadrant_bump(4.0), **kwargs)
    assert not isinstance(info.value, SupportExceedsGrid)


@pytest.mark.parametrize("omega_max, n_omega, cells", [
    (1e-200, 64, "frequency cells"), (1e200, 64, "frequency cells"),
    (3e154, 2048, "lag cells")])
def test_mu_g_freq_lattice_that_under_or_overflows_fails_before_sampling(
        omega_max, n_omega, cells, monkeypatch):
    # omega_max 1e-200 evaluated g, warned of overflow and raised a bare
    # OverflowError from delta**2 (lag spacing pi / omega_max = 3.1e200)
    import clusterbispec.cumulant3 as cumulant3

    def no_sampling(*args, **kwargs):
        raise AssertionError("g or a frequency was sampled")

    monkeypatch.setattr(cumulant3, "b_factorial", no_sampling)
    f = SimpleNamespace(support_radius=1e-190, evaluate=no_sampling)
    with pytest.raises(LatticeOutOfRange, match=f"{cells} of area"):
        mu_g_freq(EXP_PARAMS, f, omega_max=omega_max, n_omega=n_omega)


def test_mu_g_freq_zero_for_matched():
    matched = build_matched_kernel(MatchSpec(Exponential(1.0), m=0.5))
    res = mu_g_freq(ModelParams(1.0, 0.5, 0.0, matched), smooth_quadrant_bump(4.0),
                    omega_max=20.0, n_omega=800)
    base = abs(mu_g_freq(EXP_PARAMS, smooth_quadrant_bump(4.0),
                         omega_max=20.0, n_omega=800).value)
    assert abs(res.value) < 1e-9 * max(base, 1e-30) or abs(res.value) < 1e-12


# ---------------------------------------------------------------------------
# transform round trips
# ---------------------------------------------------------------------------


def _forward_dft(grid):
    n, dtau = grid.n, grid.spacing
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(grid.values))) * dtau**2


def test_inversion_round_trip(exp_grid):
    back = _forward_dft(exp_grid)
    n = exp_grid.n
    k = np.arange(-n // 2, n // 2) * (np.pi / exp_grid.half_width)
    sel = slice(n // 2 - 40, n // 2 + 40)  # interior, moderate frequencies
    W1, W2 = np.meshgrid(k[sel], k[sel], indexing="ij")
    target = b_factorial(EXP_PARAMS, W1, W2)
    err = np.max(np.abs(back[sel, sel] - target) / np.abs(target))
    assert err < 1e-4


def test_even_odd_transform_split(exp_grid, rng):
    odd = odd_part(exp_grid)
    even_vals = exp_grid.values - odd.values
    even = invert_bispectrum(EXP_PARAMS, 40.0, 64)  # shell for metadata only
    n = exp_grid.n
    even_hat = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(even_vals))) * exp_grid.spacing**2
    odd_hat = _forward_dft(odd)
    k = np.arange(-n // 2, n // 2) * (np.pi / exp_grid.half_width)
    idx = rng.integers(n // 2 - 60, n // 2 + 60, size=(50, 2))
    W1 = k[idx[:, 0]]
    W2 = k[idx[:, 1]]
    target = np.asarray(b_factorial(EXP_PARAMS, W1, W2))
    scale = np.abs(target) + 1.0
    assert np.max(np.abs(even_hat[idx[:, 0], idx[:, 1]] - target.real) / scale) < 1e-6
    assert np.max(np.abs(odd_hat[idx[:, 0], idx[:, 1]] - 1j * target.imag) / scale) < 1e-6


def test_cumulant_grid_csv_dump(tmp_path):
    grid = invert_bispectrum(EXP_PARAMS, half_width=20.0, n=64)
    odd = odd_part(grid)
    path = tmp_path / "c3.csv"
    grid.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "tau1,tau2,c3,c3_odd"
    assert len(lines) == 1 + 64 * 64
    tau1, tau2, c3, c3o = (float(v) for v in lines[1].split(","))
    assert tau1 == tau2 == -20.0
    assert c3 == grid.values[0, 0] and c3o == odd.values[0, 0]


@pytest.mark.parametrize("call", [
    lambda: invert_bispectrum(EXP_PARAMS, half_width=40.0, n=128),
    lambda: mu_g_freq(EXP_PARAMS, smooth_quadrant_bump(4.0), omega_max=20.0, n_omega=128),
])
def test_lattice_beyond_the_grid_budget_fails_before_sampling(call, monkeypatch):
    import clusterbispec.cumulant3 as cumulant3

    def no_sampling(*args, **kwargs):
        raise AssertionError("a frequency was sampled")

    monkeypatch.setattr(cumulant3, "GRID_BUDGET", 128 * 128 - 1)
    monkeypatch.setattr(cumulant3, "b_factorial", no_sampling)
    with pytest.raises(GridBudgetExceeded, match="above the grid budget of 16383"):
        call()


# ---------------------------------------------------------------------------
# the Hermitian half of each frequency lattice
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lattice_params(kernels, tmp_path_factory):
    """Every kernel family, a tab: kernel and a matched kernel reloaded from its file."""
    path = tmp_path_factory.mktemp("match") / "matched.json"
    save_matched_kernel(build_matched_kernel(MatchSpec(Exponential(1.0), m=0.5)), path)
    every = {**kernels, "match-reloaded": kernel_from_spec(f"match:{path}")}
    return {name: ModelParams(1.0, 0.5, 1.0, k) for name, k in every.items()}


@pytest.mark.parametrize("n", [64, 128, 256])
def test_inversion_is_bit_identical_to_the_full_lattice(lattice_params, n, tmp_path):
    for name, params in lattice_params.items():
        half_width = default_half_width(params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AliasWarning)
            grid = invert_bispectrum(params, half_width, n)
        values, residue = full_lattice_inversion(params, half_width, n)
        assert grid.values.tobytes() == values.tobytes(), name
        assert grid.imag_residue == residue, name
        full = CumulantGrid(half_width, n, values, grid.spacing, residue)
        grid.write_csv(tmp_path / "half.csv")
        full.write_csv(tmp_path / "full.csv")
        assert (tmp_path / "half.csv").read_bytes() == (tmp_path / "full.csv").read_bytes(), name


@pytest.mark.parametrize("n_omega, omega_max, H", [(2, 1.0, 1.0), (6, 3.0, 3.0), (400, 40.0, 1.0)])
def test_mu_g_freq_is_bit_identical_to_the_full_lattice(lattice_params, n_omega, omega_max, H):
    g = smooth_quadrant_bump(H)   # within the lag half-width pi n_omega / (2 omega_max)
    values = []
    for name, params in lattice_params.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TransformNotIntegrable)
            res = mu_g_freq(params, g, omega_max=omega_max, n_omega=n_omega)
        assert (res.value, res.truncation_bound) == full_lattice_mu_g_freq(
            params, g, omega_max, n_omega), name
        values.append(res.value)
    assert n_omega == 2 or any(values)   # g meets the lattice but on its axes


@pytest.mark.parametrize("call, n", [
    (lambda n: invert_bispectrum(EXP_PARAMS, half_width=40.0, n=n), 64),
    (lambda n: mu_g_freq(EXP_PARAMS, smooth_quadrant_bump(1.0), omega_max=3.0, n_omega=n), 6),
])
def test_a_lattice_samples_its_hermitian_half_once(call, n, monkeypatch):
    # the full meshgrid handed b_factorial all n^2 points
    import clusterbispec.cumulant3 as cumulant3

    points = []

    def counting(params, w1, w2):
        points.append(np.broadcast(w1, w2).size)
        return b_factorial(params, w1, w2)

    monkeypatch.setattr(cumulant3, "b_factorial", counting)
    call(n)
    assert points == [(n // 2 + 1) * (n + 1)]


def test_inversion_peak_allocation():
    # the full meshgrid peaked at 32.1 MB here, the half lattice at 14.1 MB
    tracemalloc.start()
    try:
        invert_bispectrum(EXP_PARAMS, half_width=40.0, n=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_mu_g_freq_peak_allocation():
    # lag meshgrids and shifted copies of the complex lattices peaked at 24.1 MiB
    # here, g evaluated and transformed in FFT order at 15.1 MiB
    g = smooth_quadrant_bump(4.0)
    tracemalloc.start()
    try:
        mu_g_freq(EXP_PARAMS, g, omega_max=40.0, n_omega=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# ---------------------------------------------------------------------------
# CumulantGrid as a value
# ---------------------------------------------------------------------------


def _grid(values, spacing=0.25, **kwargs):
    return CumulantGrid(8.0, 64, values, spacing, **kwargs)


def test_cumulant_grid_equality_and_hash():
    v = np.arange(64.0 * 64).reshape(64, 64)
    a, b = _grid(v, meta={"kernel": "exp:1"}), _grid(v.copy())
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    w = v.copy()
    w[3, 5] = np.nextafter(w[3, 5], np.inf)
    assert a != _grid(w)
    assert a != _grid(v, imag_residue=1e-9)
    assert a != _grid(v, spacing=0.5)
    assert a != odd_part(a)


def test_cumulant_grid_values_are_a_read_only_copy():
    v = np.zeros((64, 64))
    grid = _grid(v)
    v[0, 0] = 1.0
    assert grid.values[0, 0] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        grid.values[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.values = v


def test_cumulant_grid_builds_its_key_at_the_first_comparison():
    grid = _grid(np.zeros((64, 64)))
    assert "_key" not in vars(grid)
    hash(grid)
    assert "_key" in vars(grid)
