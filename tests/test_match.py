"""The reversible spectral match: rho_h, p_n, phi transform, and the sampler."""

import hashlib
import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from clusterbispec import kernels
from clusterbispec.cli import main
from clusterbispec.kernels import (Exponential, Kernel, Lomax, Refused, SymmetricLaplace,
                                   TabulatedSymmetric, UniformHalf, kernel_from_spec)
from clusterbispec.match import (
    InvalidKernel,
    MatchedKernel,
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
    class HalfNormal(Kernel):
        """One-sided and monotone, but it declares no monotone family's facts."""

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


def test_pn_past_its_term_limit_is_refused():
    # at m = 0.9999 the tail mass 1e-12 needs far more than 1e6 terms: a named
    # refusal, also where a matched spec is parsed
    with pytest.raises(Refused, match=r"m = 0.9999 needs more than its limit of 1e6 terms"):
        pn_weights(0.9999)
    with pytest.raises(InvalidKernel, match="1e6 terms"):
        kernel_from_spec("match:exp:1:0.9999")


def test_pn_refused_before_its_recurrence():
    # p_{N+1} / (1 - r_{N+1}) bounds the tail past 1e6 terms from below, so an m whose
    # tail is certainly above eps is refused without the recurrence (about 0.4 s to run
    # to its limit); m = 0.9935, inside the limit, still runs it and is accepted
    for m in (0.999, 0.9999):
        start = time.perf_counter()
        with pytest.raises(Refused, match="limit of 1e6 terms"):
            pn_weights(m)
        assert time.perf_counter() - start < 0.05, m
    p = pn_weights(0.9935)
    assert len(p) > 3 * 10**5 and abs(p.sum() - 1.0) < 1e-12


def test_pn_refused_at_once_from_its_edge():
    # the up-front margin is the loop's own rounding, 8 sqrt(pi) / (1-m) ulps, so
    # every m past the 1e6-term edge is refused without running the recurrence
    for m in np.round(np.arange(0.9960, 0.99685, 1e-4), 4):
        start = time.perf_counter()
        with pytest.raises(Refused, match="limit of 1e6 terms"):
            pn_weights(float(m))
        assert time.perf_counter() - start < 0.01, m


def test_pn_refused_at_once_across_the_edge_band():
    # from m = 0.99593 the 1e6-term sum of the loop's own rounded terms falls short of
    # 1 - eps by 80 ulps (2^-53) or more, and the loop ran to its limit (about 0.5 s)
    # before refusing; the up-front check now sees it.  0.9959 keeps its table, and so
    # does 0.995929, just past the refused 0.995928, whose rounded q lifts its sum
    for m in np.round(np.arange(0.99593, 0.995995, 1e-5), 5):
        start = time.perf_counter()
        with pytest.raises(Refused, match="limit of 1e6 terms"):
            pn_weights(float(m))
        assert time.perf_counter() - start < 0.05, m
    assert len(pn_weights(0.9959)) == 986053
    assert len(pn_weights(0.995929)) == 999155


def test_pn_sum_is_compensated():
    # with a compensated total the recurrence stops at the first term whose exact
    # partial sum reaches 1 - eps, to an ulp of 1, and accepts every m up to the
    # 1e6-term edge near 0.9960; a plain total drifts by hundreds of ulps over
    # 1e5 terms, enough to move the stop or never reach 1 - eps
    eps = 1e-12
    for m in (0.9, 0.99, 0.994, 0.9959):
        p = pn_weights(m, eps)
        n = len(p) - 1
        last = p[-2] * (2 * n - 1) * m * (2.0 - m) / (2 * (n + 1))
        short = (1.0 - eps) - math.fsum(p[:-1])
        assert 0.0 < short <= last + np.spacing(1.0), m
        assert abs(p.sum() - 1.0) < 1e-12
    for m in (0.996, 0.998):
        with pytest.raises(Refused, match="limit of 1e6 terms"):
            pn_weights(m)
    # tables of lower m stop where the plain total stopped: their bytes are unchanged
    digests = {
        0.1: "e96a33dccdf9a2e1732acff26ff291fbc1e61d4557c6c457989e141bab788403",
        0.3: "bcf20ebdb1a3b9e98fed0219170c06afff1e54eb8369572f82105e215e899d03",
        0.5: "d2af66c77fd53fcfb4b068321f99b9c53e899dd75169e70d4c2824f968683675",
        0.7: "8b1551a29817a33d4150bd5c954c95370e5a5421d358229ff4a9fadea8c0db40",
        0.9: "f1b4b8963fbdbd65410a47088a2e9184d24d87b35784054887ced06833b290d2",
    }
    for m, digest in digests.items():
        assert hashlib.sha256(pn_weights(m).tobytes()).hexdigest() == digest, m


def test_unreadable_matched_kernel_file_is_invalid(tmp_path):
    (tmp_path / "text.json").write_text("not json")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path / "missing.json", tmp_path, tmp_path / "text.json",
                 tmp_path / "binary.json"):
        with pytest.raises(InvalidKernel, match="cannot read a matched-kernel file"):
            load_matched_kernel(path)


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


# SHA-256 of each matched kernel's draws (built and reloaded draw alike), transforms and
# tail quantiles (built, then reloaded) and saved file, pinned before tab: kernels and
# matched kernels shared one table type; the live Lomax-based transforms re-pinned when
# the Lomax contour rule began to stop on geometric convergence (within one floor)
TABLE_PINS = {
    "exp:1": (
        "351f0622fc9d35166c1be0b3a2f1baab13572ac813f722c7bf674efdff65932c",
        "b7690a9d07d0137088ba620497451d8e4155f8572b531b20adf129e0a255b81c",
        "4ed7fe6c685d7b20395c1d0879d360a2d98eaf8b7b12a3346d20846e4e868b4f",
        "ba0adf090350f58f1db433f35724a5963ff2bb03b479102c1e53c57034f71415",
        "a792a5cbbd551a08fc83e66daf3b8bfaa10f6c100cee7a0c143b64dff6f3bbe1",
        "6efdcab3a4cabcb05f9fee01290abcd18bcff10e0a967b2dfd0279a53cc2d564",
    ),
    "uhalf:1": (
        "0a6a6867a24c2babd1e26afa10a6e48f95716822c7f043f49969c721dac04abf",
        "73acf2806a6627ef65b227bfbfe2ee23c2943255ec710a3b68663988417742ad",
        "5dacb1c249f01cb655d7d7b72d70b5790705d86a75106f41117ecb77442b5a56",
        "1c3352c0afeaff0bc88490e5104e64b52dd3ef92b48ce254845084df8f9b1e24",
        "25fddaa1eaf28b467e97af35cb6694fc9473a406e3f9add7a8c87e413e8ea2f5",
        "7b0f748124bf780cdec742a2dce41c3d29a6b8870227190a66fd87acaba56b6c",
    ),
    "lomax:2": (
        "5d9bf38fdb19810bec0cf7d2e338a2f77fc647aa46139144036c54599420c931",
        "b6773ca043ff24dd2ceae01becbb80f94f909ca7bce2154c7597bfd931829e9d",
        "d0102c9b09ced8207fc6fad94a66ec63b03c84a8e7fe708c2a850e25924920d0",
        "f335ec00b6f0b5fbb868233b15f8749f3d32541544c660beb153c3f542472824",
        "c6058d44cc7c325ea8fc314ec7d0e00181289aad5ff1456ba6873c854461c162",
        "0494578064f9e6edf1e6c75ffaddc25f3630da1f821f11867aacaedba373ef59",
    ),
    "lomax:1.5": (
        "2caf52b78cf450585f5349520cb300078edda157d8d0d013a2626d538e9aa180",
        "b962fb355d7ab4d72fd20edb00978d78f1ece656673431add35d5cea753547a4",
        "5942fd41296de3c7486a43432737b03253c940b4475e77acf52c49a5a69d0de1",
        "439dfdd1faa027863031f4181f01572f8cd8f21fd64397dc2951101eb0a6af54",
        "1817335adf3749c15cdb368724c4b4c5a8981c4b93249d1f56dc47a58cfe386d",
        "a10c1764280e7e997991e862fa6a8629aef515da2dfe717d237ef2e2f669b513",
    ),
}


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("base", TABLE_PINS)
def test_matched_kernels_keep_their_bits(base, tmp_path):
    built = build_matched_kernel(MatchSpec(kernel_from_spec(base), m=0.5))
    save_matched_kernel(built, tmp_path / "built.json")
    loaded = load_matched_kernel(tmp_path / "built.json")
    save_matched_kernel(loaded, tmp_path / "loaded.json")
    w = np.linspace(-50.0, 50.0, 101)
    draws, *pins, saved = TABLE_PINS[base]
    for k in (built, loaded):
        assert _sha(k.sample(np.random.default_rng(3), 10000)) == draws
    assert [_sha(k.transform(w)) for k in (built, loaded)] + [
        _sha(np.array([k.tail_quantile(e) for e in (1e-2, 1e-4, 1e-6)])) for k in (built, loaded)
    ] == pins
    for name in ("built.json", "loaded.json"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == saved


def test_tab_and_matched_tables_draw_alike():
    # one table sampler: a tab: kernel and a reloaded matched kernel with p_1 = 1 on the
    # same knots (spaced by a power of two, so np.diff gives the spacing exactly) draw the
    # same bits once the matched stream has drawn its K
    x = np.arange(1025) / 128.0
    tab = TabulatedSymmetric(np.exp(-x) / 2.0 / (1.0 - np.exp(-x[-1])), 1.0 / 128.0)
    matched = MatchedKernel(0.5, [1.0], tab.grid, tab.values)
    rng_tab, rng_matched = np.random.default_rng(8), np.random.default_rng(8)
    ours, theirs = [], []
    for _ in range(2000):
        rng_tab.random()   # the matched kernel's K
        ours.append(tab.sample(rng_tab))
        theirs.append(matched.sample(rng_matched))
    assert np.array(ours).tobytes() == np.array(theirs).tobytes()
    assert rng_tab.random() == rng_matched.random()


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
