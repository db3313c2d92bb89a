"""The reversible spectral match: rho_h, p_n, phi transform, and the sampler."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from clusterbispec import kernels
from clusterbispec.cli import main
from clusterbispec.kernels import (Exponential, Kernel, Lomax, SymmetricLaplace, UniformHalf,
                                   kernel_from_spec)
from clusterbispec.match import (
    InvalidKernel,
    MatchSpec,
    build_matched_kernel,
    load_matched_kernel,
    phi_transform,
    pn_weights,
    rho_density,
    save_matched_kernel,
)
from clusterbispec.montecarlo import mean_periodogram
from clusterbispec.simulate import ModelParams
from clusterbispec.spectra import b_complete, bartlett


def pn_direct(n, m):
    # (2n-2)! / (2^{2n-1} n! (n-1)!) [m(2-m)]^n / m via lgamma
    ln = (math.lgamma(2 * n - 1) - (2 * n - 1) * math.log(2.0)
          - math.lgamma(n + 1) - math.lgamma(n)
          + n * math.log(m * (2.0 - m)) - math.log(m))
    return math.exp(ln)


def _convolution(base, x):
    """Quadrature oracle for (h * hcheck)(x) = int_0^inf h(|x|+u) h(u) du.

    u = e^s - 1 turns power tails into exponential ones, and the split at
    s = log(1+|x|) separates the integrand's two scales, so a relative
    tolerance holds out to the far tail; a bounded base is integrated over
    its support with the jump at u = a - |x| as a breakpoint.
    """
    ax = abs(x)

    def integrand(u):
        return base.density(ax + u) * base.density(u)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if isinstance(base, UniformHalf):
            if ax >= base.a:
                return 0.0
            return quad(integrand, 0.0, base.a, points=[base.a - ax],
                        epsabs=0.0, epsrel=1e-11, limit=500)[0]
        cut = math.log1p(ax)

        def stretched(s):
            return integrand(math.expm1(s)) * math.exp(s)

        # e^700 stays finite; the integrand is below 1e-300 well before it
        return sum(quad(stretched, lo, hi, epsabs=0.0, epsrel=1e-11, limit=500)[0]
                   for lo, hi in ((0.0, cut), (cut, 700.0)))


ORACLE_BASES = (Lomax(0.5), Lomax(1.0), Lomax(1.5), Lomax(2.0), UniformHalf(2.0),
                Exponential(1.0))


def oracle_grid(base):
    """Bulk points plus a geometric tail out to the 1e-10 tail quantile."""
    q, far = base.tail_quantile(0.5), base.tail_quantile(1e-10)
    return np.unique(np.concatenate([np.linspace(0.0, q, 12),
                                     np.geomspace(q, max(far, q), 12)]))


# ---------------------------------------------------------------------------
# rho_h
# ---------------------------------------------------------------------------


def test_rho_exponential_closed_form():
    spec = MatchSpec(Exponential(1.0), m=0.5)
    assert rho_density(spec, 0.0) == pytest.approx(0.5)
    xs = np.linspace(-6, 6, 101)
    assert np.max(np.abs(rho_density(spec, xs) - 0.5 * np.exp(-np.abs(xs)))) < 1e-14


def test_rho_even(rng):
    for base in (Exponential(1.0), Lomax(2.0)):
        spec = MatchSpec(base, m=0.5)
        xs = rng.uniform(0.0, 8.0, 25)
        assert np.array_equal(rho_density(spec, xs), rho_density(spec, -xs))


def test_rho_lomax_sandwich_bounds():
    # (1-m)/(2-m) h(|x|) <= rho <= h(|x|)/(2-m)
    base, m = Lomax(2.0), 0.5
    spec = MatchSpec(base, m=m)
    h1 = base.density(1.0)
    val = rho_density(spec, 1.0)
    assert h1 / 3.0 <= val <= 2.0 * h1 / 3.0
    xs = np.linspace(0.05, 20.0, 40)
    vals = rho_density(spec, xs)
    dens = base.density(xs)
    assert np.all(vals >= (1 - m) / (2 - m) * dens - 1e-12)
    assert np.all(vals <= dens / (2 - m) + 1e-12)


def test_rho_nonnegative_on_grid():
    for base in (Exponential(1.0), Lomax(1.5), UniformHalf(2.0)):
        for m in (0.1, 0.5, 0.9):
            spec = MatchSpec(base, m=m)
            xs = np.linspace(0.0, base.tail_quantile(1e-6), 1000)
            assert np.all(rho_density(spec, xs) >= 0.0), (base, m)


@pytest.mark.parametrize("base", ORACLE_BASES, ids=str)
def test_rho_matches_quad_oracle(base):
    m = 0.5
    xs = oracle_grid(base)
    conv = np.array([_convolution(base, x) for x in xs])
    oracle = (base.density(xs) - m * conv) / (2.0 - m)
    np.testing.assert_allclose(rho_density(MatchSpec(base, m=m), xs), oracle, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("base", ORACLE_BASES, ids=str)
def test_rho_matches_mpmath_reference(base):
    mp = pytest.importorskip("mpmath")
    m = mp.mpf("0.5")

    def conv(x):
        x = mp.mpf(float(x))
        if isinstance(base, Lomax):
            a = mp.mpf(base.alpha)
            return a**2 * mp.hyp2f1(1 + a, 1 + 2 * a, 2 + 2 * a, -x) / (1 + 2 * a)
        if isinstance(base, Exponential):
            return base.beta / mp.mpf(2) * mp.exp(-base.beta * x)
        return max(base.a - x, 0) / mp.mpf(base.a) ** 2

    xs = oracle_grid(base)
    with mp.workdps(30):
        ref = [float((mp.mpf(float(base.density(x))) - m * conv(x)) / (2 - m)) for x in xs]
    np.testing.assert_allclose(rho_density(MatchSpec(base, m=0.5), xs), ref, rtol=1e-12, atol=0.0)


def test_rho_normalization():
    # dense near the origin plus a geometric tail out to negligible mass
    for base in (Exponential(1.0), Lomax(2.0)):
        spec = MatchSpec(base, m=0.5)
        xs = np.concatenate([np.linspace(0.0, 2.0, 4001)[:-1],
                             np.geomspace(2.0, base.tail_quantile(1e-10), 4000)])
        total = 2.0 * np.trapezoid(rho_density(spec, xs), xs)
        assert abs(total - 1.0) < 1e-6, base


def test_match_spec_rejects_bad_bases():
    class HalfNormal(Kernel):          # one-sided and monotone, but no closed form
        one_sided = True

    with pytest.raises(InvalidKernel):
        MatchSpec(SymmetricLaplace(1.0), m=0.5)  # not one-sided
    with pytest.raises(InvalidKernel):
        MatchSpec(HalfNormal(), m=0.5)
    with pytest.raises(ValueError):
        MatchSpec(Exponential(1.0), m=1.0)


# ---------------------------------------------------------------------------
# p_n weights
# ---------------------------------------------------------------------------


def test_pn_first_weight_and_sum():
    p = pn_weights(0.5)
    assert p[0] == pytest.approx(0.75)  # (2 - m)/2
    assert abs(p.sum() - 1.0) < 1e-15


def test_pn_recurrence_matches_direct_formula():
    p = pn_weights(0.9, eps=1e-12)
    for n in range(1, 51):
        assert p[n - 1] == pytest.approx(pn_direct(n, 0.9), rel=1e-12)


# ---------------------------------------------------------------------------
# phi transform
# ---------------------------------------------------------------------------


def test_phi_at_zero_is_one():
    for base in (Exponential(1.0), Lomax(2.0)):
        assert phi_transform(MatchSpec(base, m=0.3), 0.0) == pytest.approx(1.0)


def test_radicand_identity_and_spectral_match():
    w = np.linspace(-40.0, 40.0, 256)
    for base in (Exponential(1.0), Lomax(2.0)):
        spec = MatchSpec(base, m=0.5)
        hh = base.transform(w)
        rho_hat = (2 * hh.real - 0.5 * np.abs(hh) ** 2) / 1.5
        assert np.max(np.abs((1 - 0.75 * rho_hat) - np.abs(1 - 0.5 * hh) ** 2)) < 1e-10
        phi = phi_transform(spec, w)
        lhs = np.abs(1 - 0.5 * phi) ** 2
        rhs = np.abs(1 - 0.5 * hh) ** 2
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-8, base
        assert np.max(np.abs(phi)) <= 1.0 + 1e-12


def test_phi_matches_random_sum_series():
    # phi_hat(w) = sum_n p_n rho_hat(w)^n summed to eps = 1e-14
    spec = MatchSpec(Exponential(1.0), m=0.5)
    hh = complex(Exponential(1.0).transform(1.0))
    rho_hat = (2 * hh.real - 0.5 * abs(hh) ** 2) / 1.5
    p = pn_weights(0.5, eps=1e-14)
    series = float(np.sum(p * rho_hat ** np.arange(1, len(p) + 1)))
    assert phi_transform(spec, 1.0) == pytest.approx(series, rel=1e-12)


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


def test_sample_match_mean_and_ecf(rng):
    spec = MatchSpec(Exponential(1.0), m=0.5)
    n = 10**6
    draws = build_matched_kernel(spec).sample(rng, n)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean()) < 3 * se  # even density

    phases = np.exp(-1j * 1.0 * draws)
    target = phi_transform(spec, 1.0)
    se_re = phases.real.std(ddof=1) / math.sqrt(n)
    se_im = phases.imag.std(ddof=1) / math.sqrt(n)
    assert abs(phases.real.mean() - target) < 3 * se_re
    assert abs(phases.imag.mean()) < 3 * se_im


def test_sample_match_sign_symmetric(rng):
    spec = MatchSpec(Exponential(1.0), m=0.5)
    n = 10**5
    draws = np.sort(build_matched_kernel(spec).sample(rng, n))
    flipped = np.sort(-draws)
    # two-sample KS distance between draws and their negation
    grid = np.concatenate([draws, flipped])
    f1 = np.searchsorted(draws, grid, side="right") / n
    f2 = np.searchsorted(flipped, grid, side="right") / n
    assert np.max(np.abs(f1 - f2)) <= 0.01


def test_sample_match_lomax_base(rng):
    spec = MatchSpec(Lomax(2.0), m=0.5)
    draws = build_matched_kernel(spec).sample(rng, 10**5)
    ecf = np.exp(-1j * 0.7 * draws).real.mean()
    target = phi_transform(spec, 0.7)
    se = np.exp(-1j * 0.7 * draws).real.std(ddof=1) / math.sqrt(len(draws))
    assert abs(ecf - target) < 4 * se


def test_sample_match_uniform_half_base(rng):
    # rho_h jumps to 0 at x = a; the table must keep that jump sharp
    spec = MatchSpec(UniformHalf(2.0), m=0.5)
    n = 10**6
    kernel = build_matched_kernel(spec)
    # the table spends its points on the support [0, a]; only the knot past a lies beyond
    assert np.all((kernel.rho_x[:-1] >= 0.0) & (kernel.rho_x[:-1] <= 2.0))
    assert kernel.rho_x[-1] > 2.0 and kernel.rho_vals[-1] == 0.0
    draws = kernel.sample(rng, n)
    for w in (0.7, 1.0, 1.5, 3.0):
        phases = np.cos(w * draws)
        se = phases.std(ddof=1) / math.sqrt(n)
        assert abs(phases.mean() - phi_transform(spec, w)) < 4 * se, w


def test_live_and_reloaded_kernels_draw_identically(tmp_path):
    for base in (Exponential(1.0), Lomax(2.0), UniformHalf(2.0)):
        live = build_matched_kernel(MatchSpec(base, m=0.5))
        path = tmp_path / "match.json"
        save_matched_kernel(live, path)
        loaded = load_matched_kernel(path)
        for size in (None, 1000):
            a = live.sample(np.random.default_rng(5), size)
            b = loaded.sample(np.random.default_rng(5), size)
            assert np.array_equal(a, b), (base, size)


# ---------------------------------------------------------------------------
# the matched kernel end to end
# ---------------------------------------------------------------------------


def test_matched_kernel_bartlett_equality():
    base = Exponential(1.0)
    matched = build_matched_kernel(MatchSpec(base, m=0.5))
    w = np.linspace(-40.0, 40.0, 256)
    pb = ModelParams(1.0, 0.5, 1.0, base)
    pm = ModelParams(1.0, 0.5, 0.0, matched)
    gb, gm = bartlett(pb, w), bartlett(pm, w)
    assert np.max(np.abs(gb - gm) / gb) < 1e-8


def test_matched_kernel_real_third_order():
    matched = build_matched_kernel(MatchSpec(Exponential(1.0), m=0.5))
    axis = np.linspace(-20.0, 20.0, 16)
    W1, W2 = np.meshgrid(axis, axis, indexing="ij")
    vals = b_complete(ModelParams(1.0, 0.5, 0.0, matched), W1, W2)
    assert np.max(np.abs(vals.imag)) <= 1e-9


def test_matched_process_periodogram_theta_invariant():
    # symmetric kernel: theta cannot matter in law
    matched = build_matched_kernel(MatchSpec(Exponential(1.0), m=0.5))
    omegas = [0.5, 1.0, 2.0]
    est0 = mean_periodogram(ModelParams(1.0, 0.5, 0.0, matched), 2000.0, omegas, 60, seed=1)
    est1 = mean_periodogram(ModelParams(1.0, 0.5, 1.0, matched), 2000.0, omegas, 60, seed=2)
    for a, b in zip(est0, est1):
        z = (a.value.real - b.value.real) / math.hypot(a.stderr_re, b.stderr_re)
        assert abs(z) < 4.0


def test_matched_kernel_lomax_base_density_and_reload(tmp_path):
    matched = build_matched_kernel(MatchSpec(Lomax(2.0), m=0.5))
    for method in (matched.density, matched.survival):   # no lattice inversion
        with pytest.raises(NotImplementedError):
            method(1.0)
    # the rho table, interpolated between its knots, matches the exact route
    probe = np.array([0.0, 0.3, 1.0, 4.0])
    exact = rho_density(matched.spec, probe)
    fast = np.interp(probe, matched.rho_x, matched.rho_vals)
    assert np.max(np.abs(fast - exact)) < 1e-3

    path = tmp_path / "lomax_match.json"
    save_matched_kernel(matched, path)
    loaded = load_matched_kernel(path)
    w = np.linspace(-5.0, 5.0, 21)
    assert np.max(np.abs(loaded.transform(w) - matched.transform(w))) < 1e-2
    draws = loaded.sample(np.random.default_rng(1), 5000)
    assert abs(float(np.median(draws))) < 0.2  # even law


def test_reloaded_transform_runs_in_bounded_blocks(tmp_path, monkeypatch):
    # the trapezoid sums of a reloaded kernel run in row blocks: bounded
    # memory, and the same bits as one (frequencies x table) block
    path = tmp_path / "lomax_match.json"
    save_matched_kernel(build_matched_kernel(MatchSpec(Lomax(2.0), m=0.5)), path)
    loaded = load_matched_kernel(path)
    w = np.linspace(-40.0, 40.0, 20000)
    tracemalloc.start()
    try:
        vals = loaded.transform(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    monkeypatch.setattr(kernels, "CHUNK_CELLS", 1 << 40)
    assert np.array_equal(loaded.transform(w[::50]), vals[::50])


def test_matched_kernel_save_load_round_trip(tmp_path):
    matched = build_matched_kernel(MatchSpec(Exponential(1.0), m=0.5))
    path = tmp_path / "match.json"
    save_matched_kernel(matched, path)
    loaded = load_matched_kernel(path)
    w = np.linspace(-10.0, 10.0, 41)
    assert np.max(np.abs(loaded.transform(w) - matched.transform(w))) < 1e-4
    draws = loaded.sample(np.random.default_rng(0), 2000)
    assert abs(float(np.mean(draws))) < 0.2
    via_spec = kernel_from_spec(f"match:{path}")
    assert np.max(np.abs(via_spec.transform(w) - loaded.transform(w))) == 0.0


def test_matched_kernel_equality_and_hash_by_value(tmp_path):
    live = build_matched_kernel(MatchSpec(Exponential(1.0), m=0.5))
    again = build_matched_kernel(MatchSpec(Exponential(1.0), m=0.5))
    assert live == again and hash(live) == hash(again)
    assert hash(ModelParams(1.0, 0.5, 0.0, live)) == hash(ModelParams(1.0, 0.5, 0.0, again))
    assert ModelParams(1.0, 0.5, 0.0, live) == ModelParams(1.0, 0.5, 0.0, again)
    assert live != build_matched_kernel(MatchSpec(Exponential(1.0), m=0.4))
    # NaN-free tables survive save/load bit for bit, so reloads are equal values
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_matched_kernel(live, first)
    loaded = load_matched_kernel(first)
    assert not np.isnan(loaded.rho_vals).any()
    assert loaded == load_matched_kernel(first)
    save_matched_kernel(loaded, second)
    reloaded = load_matched_kernel(second)
    assert reloaded == loaded and hash(reloaded) == hash(loaded)
    assert {ModelParams(1.0, 0.5, 0.0, loaded), ModelParams(1.0, 0.5, 0.0, reloaded)} == {
        ModelParams(1.0, 0.5, 0.0, loaded)}
    assert loaded != live          # table mode versus the live spec
    doc = json.loads(first.read_text())
    doc["rho_density"][3] *= 1.5
    second.write_text(json.dumps(doc))
    assert load_matched_kernel(second) != loaded
    for table in (live.pn, loaded.pn, loaded.rho_x, loaded.rho_vals):
        with pytest.raises(ValueError):   # read-only: == and hash cannot go stale
            table[0] = 1.0


def test_kernel_from_spec_builds_match():
    k = kernel_from_spec("match:exp:1:0.5")
    assert k.symmetric
    assert abs(complex(k.transform(0.0)) - 1.0) < 1e-12


def _corrupt_nan(doc):
    doc["rho_density"][5] = float("nan")


def _corrupt_negative(doc):
    doc["rho_density"][5] = -1e-3


def _corrupt_reversed_x(doc):
    doc["rho_x"] = doc["rho_x"][::-1]


def _corrupt_m(doc):
    doc["m"] = 1.5


def _corrupt_pn_mass(doc):
    doc["pn"] = [0.4 * p for p in doc["pn"]]


def _corrupt_missing_m(doc):
    del doc["m"]


@pytest.mark.parametrize("corrupt", [_corrupt_nan, _corrupt_negative, _corrupt_reversed_x,
                                     _corrupt_m, _corrupt_pn_mass, _corrupt_missing_m],
                         ids=lambda f: f.__name__[len("_corrupt_"):])
def test_malformed_matched_kernel_file_rejected(tmp_path, corrupt):
    good = tmp_path / "good.json"
    save_matched_kernel(build_matched_kernel(MatchSpec(Exponential(1.0), m=0.5)), good)
    doc = json.loads(good.read_text())
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InvalidKernel):
        load_matched_kernel(bad)
    assert main(["--out-dir", str(tmp_path), "spectrum", "--m", "0.5",
                 "--kernel", f"match:{bad}"]) == 2
