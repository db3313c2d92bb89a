"""Closed-form spectra: both algebraic forms, diagonal route, envelope, scaling."""

import numpy as np
import pytest

from clusterbispec.kernels import (
    Exponential,
    Lomax,
    SymmetricLaplace,
    UniformHalf,
)
from clusterbispec.simulate import ModelParams, sample_clusters_batch
from clusterbispec.spectra import (
    b_complete,
    b_factorial,
    bartlett,
    borel_factorial3,
    envelope,
    im_b_diagonal,
)
from oracles import UnsupportedKernelScaling, scale_check


def params(kernel=None, nu=1.0, m=0.5, theta=1.0):
    return ModelParams(nu, m, theta, kernel or Exponential(1.0))


# ---------------------------------------------------------------------------
# Bartlett spectrum
# ---------------------------------------------------------------------------


def test_bartlett_point_values():
    p = params()
    # hhat(0) = 1 so Gamma(0) = lam/(1-m)^2
    assert bartlett(p, 0.0) == pytest.approx(8.0)
    # hhat -> 0 so Gamma -> lam
    assert bartlett(p, 1e9) == pytest.approx(2.0, rel=1e-6)
    hh = 0.5 - 0.5j
    assert bartlett(p, 1.0) == pytest.approx(2.0 / abs(1 - 0.5 * hh) ** 2)


def test_bartlett_even_real_and_bounded():
    w = np.linspace(-40.0, 40.0, 257)
    for kernel in (Exponential(1.0), Lomax(1.5), UniformHalf(2.0), SymmetricLaplace(1.0)):
        p = params(kernel, m=0.6)
        g = bartlett(p, w)
        assert np.all(g > 0)
        assert np.max(np.abs(g - bartlett(p, -w))) < 1e-12
        assert np.all(g >= p.lam / (1 + p.m) ** 2 - 1e-12)
        assert np.all(g <= p.lam / (1 - p.m) ** 2 + 1e-12)


# ---------------------------------------------------------------------------
# complete third-order transform
# ---------------------------------------------------------------------------


def test_r_form_equals_q_form():
    rng = np.random.default_rng(1)
    w1 = rng.uniform(-30, 30, 500)
    w2 = rng.uniform(-30, 30, 500)
    for kernel in (Exponential(1.0), UniformHalf(2.0), SymmetricLaplace(1.0)):
        for m in (0.2, 0.5, 0.8):
            p = params(kernel, m=m)
            r = b_complete(p, w1, w2, form="R")
            q = b_complete(p, w1, w2, form="Q")
            assert np.max(np.abs(r - q) / np.abs(q)) < 1e-10, (kernel, m)


def test_b_complete_at_origin():
    # R-form at 0: lam R(0)^3 (3 R(0) - 2) = lam (1 + 2m) / (1-m)^4.
    # At nu=1, m=0.5 this is 64 (the third complete cluster moment nu E[M^3]).
    p = params()
    val = complex(b_complete(p, 0.0, 0.0))
    assert val == pytest.approx(64.0)
    lam, m = p.lam, p.m
    assert val.real == pytest.approx(lam * (1 + 2 * m) / (1 - m) ** 4)


def test_lomax_b_complete_continuous_across_zero_sum():
    # on a linspace grid w1 + w2 rounds to ~1e-15 instead of 0; the Lomax
    # transform there must be ~1, so B_comp matches the exact zero-sum value
    p = params(Lomax(1.5))
    w1, w2 = -0.3174603174603199, 0.31746031746031633
    assert 0.0 < abs(w1 + w2) < 1e-14
    near = complex(b_complete(p, w1, w2))
    exact = complex(b_complete(p, w1, -w1))
    assert abs(near - exact) < 1e-9 * abs(exact)


def test_symmetric_kernels_give_real_b_complete():
    axis = np.linspace(-25.0, 25.0, 16)
    W1, W2 = np.meshgrid(axis, axis, indexing="ij")
    for kernel in (UniformHalf(1.0), SymmetricLaplace(1.0)):
        vals = b_complete(params(kernel), W1, W2)
        assert np.max(np.abs(vals.imag)) < 1e-10, kernel


# ---------------------------------------------------------------------------
# factorial transform
# ---------------------------------------------------------------------------


def test_b_factorial_total_mass_identity():
    # B_fac(0,0) = nu E[(M)_3]; at nu=1, m=0.5 that is 44 (not 12 or 22,
    # and B_comp(0,0) is 64: Gamma(0)=8, lam=2, so 64 - 24 + 4 = 44)
    for m in (0.1, 0.3, 0.5, 0.7, 0.9):
        p = params(m=m)
        val = complex(b_factorial(p, 0.0, 0.0))
        target = p.nu * borel_factorial3(m)
        assert abs(val - target) <= 1e-10 * target
    assert complex(b_factorial(params(), 0.0, 0.0)).real == pytest.approx(44.0)


def test_imaginary_parts_agree():
    rng = np.random.default_rng(2)
    w1, w2 = rng.uniform(-20, 20, 100), rng.uniform(-20, 20, 100)
    p = params()
    bc = b_complete(p, w1, w2)
    bf = b_factorial(p, w1, w2)
    assert np.max(np.abs(bc.imag - bf.imag)) < 1e-12


def test_b_factorial_hermitian():
    rng = np.random.default_rng(3)
    w1, w2 = rng.uniform(-20, 20, 100), rng.uniform(-20, 20, 100)
    p = params()
    assert np.max(np.abs(b_factorial(p, -w1, -w2) - np.conj(b_factorial(p, w1, w2)))) < 1e-12


# ---------------------------------------------------------------------------
# diagonal imaginary part
# ---------------------------------------------------------------------------


def test_im_b_diagonal_uniform_vanishes():
    p = params(UniformHalf(1.5))
    t = np.linspace(0.01, 10.0, 101)
    assert np.max(np.abs(im_b_diagonal(p, t))) < 1e-10


def test_im_b_diagonal_small_t_limit():
    # X = YZ with Z ~ Gamma(2, beta) reproduces the exponential density:
    # int z^{-1} (beta^2 z e^{-beta z}) dz over (x, inf) = beta e^{-beta x};
    # Delta_m(Z) = (12 - 8m)/beta^3, so the t^3 limit is lam m^2 Delta / (2(1-m)^6)
    p = params()
    limit = p.lam * p.m**2 * (12 - 8 * p.m) / (2 * (1 - p.m) ** 6)
    assert limit == 128.0
    val = float(im_b_diagonal(p, 1e-3))
    assert abs(abs(val) / 1e-9 - limit) < 0.02 * limit
    assert val < 0  # forward exponential model: negative diagonal imaginary part


def test_im_b_diagonal_matches_b_factorial():
    for kernel in (Exponential(1.0), Lomax(1.5)):
        p = params(kernel, m=0.4)
        for t in (0.1, 1.0, 5.0):
            direct = float(im_b_diagonal(p, t))
            via_b = complex(b_factorial(p, t, t)).imag
            assert abs(direct - via_b) <= 1e-9 * abs(via_b), (kernel, t)


# ---------------------------------------------------------------------------
# Borel factorial moment and envelope
# ---------------------------------------------------------------------------


def test_borel_factorial3_values():
    assert borel_factorial3(0.5) == pytest.approx(44.0)
    # O(m^2) leading order with coefficient 9
    m = 1e-3
    assert borel_factorial3(m) / m**2 == pytest.approx(9.0, rel=5e-3)


def test_borel_factorial3_monte_carlo():
    m = 0.3
    rng = np.random.default_rng(7)
    _, cid, _ = sample_clusters_batch(10**6, m, Exponential(1.0), rng)
    sizes = np.bincount(cid).astype(float)
    f3 = sizes * (sizes - 1) * (sizes - 2)
    se = f3.std(ddof=1) / np.sqrt(len(f3))
    assert abs(f3.mean() - borel_factorial3(m)) < 4 * se


def test_envelope_values_and_grid_bound():
    assert envelope(params()) == pytest.approx(44.0)
    axis = np.linspace(-20.0, 20.0, 64)
    W1, W2 = np.meshgrid(axis, axis, indexing="ij")
    for kernel in (Exponential(1.0), Lomax(1.0), UniformHalf(1.0)):
        for m in (0.2, 0.5, 0.8):
            p = params(kernel, m=m)
            peak = float(np.max(np.abs(b_factorial(p, W1, W2).imag)))
            assert peak < envelope(p), (kernel, m)


def test_envelope_ignores_kernel_scale():
    assert envelope(params(Exponential(1.0))) == envelope(params(Exponential(7.0)))


# ---------------------------------------------------------------------------
# scale family
# ---------------------------------------------------------------------------


def test_scale_check():
    p = params()
    assert scale_check(p, 2.0, 1.0, 1.0)
    assert scale_check(p, 1.0, 0.7, -1.3)
    assert scale_check(params(UniformHalf(2.0)), 3.0, 1.0, 2.0)
    with pytest.raises(UnsupportedKernelScaling):
        scale_check(params(Lomax(1.5)), 2.0, 1.0, 1.0)


def test_spectral_grid_csv_stderr_columns(tmp_path):
    from clusterbispec.spectra import SpectralGrid

    freqs = np.column_stack([np.array([0.5, 1.0]), np.array([1.5, -1.0])])
    grid = SpectralGrid(2, freqs, np.array([1 + 2j, 3 - 4j]))
    path = tmp_path / "grid.csv"
    grid.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "w1,w2,re,im"
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.5, 1.5, 1.0, 2.0]
    jpath = tmp_path / "grid.json"
    grid.write_json(jpath)
    import json
    doc = json.loads(jpath.read_text())
    assert doc["im"] == [2.0, -4.0]
