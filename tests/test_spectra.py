"""Closed-form spectra: both algebraic forms, diagonal route, envelope, scaling."""

import tracemalloc

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


# ---------------------------------------------------------------------------
# the bytes of every closed form, and one transform lookup per argument
# ---------------------------------------------------------------------------


def _spectral_kernels():
    from clusterbispec.match import MatchSpec, build_matched_kernel
    from conftest import builtin_kernels

    k = builtin_kernels()
    return {"exp": k["exp"], "lomax": k["lomax15"], "uhalf": k["uhalf"], "slap": k["slap"],
            "tab": k["tab"], "match": build_matched_kernel(MatchSpec(Exponential(1.0), m=0.5))}


def _spectral_digests(kernel):
    """SHA-256 of b_complete (R, Q), b_factorial, bartlett and im_b_diagonal: each on
    an n = 16 conjugate lattice (its origin, where w3 = -w1 - w2 is -0.0, and its
    Nyquist row) or grid, then at scalars."""
    import hashlib

    p = params(kernel, nu=1.3, m=0.6)
    axis = np.arange(-8, 8) * 0.75
    W1, W2 = np.meshgrid(axis, axis, indexing="ij")
    pairs = [(W1, W2), (0.0, 0.0), (-0.0, 0.0), (1.0, -1.0), (2.5, -0.7)]
    calls = {
        "R": [b_complete(p, a, b) for a, b in pairs],
        "Q": [b_complete(p, a, b, form="Q") for a, b in pairs],
        "fac": [b_factorial(p, a, b) for a, b in pairs],
        "bartlett": [bartlett(p, w) for w in (np.linspace(-6.0, 6.0, 17), 0.0, -0.0, -2.0)],
        "diag": [im_b_diagonal(p, t) for t in (np.array([1e-4, 1e-2, 0.5, 3.0]), 0.1)],
    }
    return {name: hashlib.sha256(b"".join(np.ascontiguousarray(v).tobytes() for v in vals)
                                 ).hexdigest() for name, vals in calls.items()}


# lomax re-pinned when the Lomax contour rule began to stop on geometric convergence
SPECTRA_PINS = {   # R, Q, b_factorial, bartlett, im_b_diagonal
    "exp": (
        "7aac6979867f5c7a9c6073f19d5e8cae66de7722d732f6c8866b2ae7847aaa87",
        "c70829c68bb760c5eaa8db28a07fe55c154d6e8a5e899666a3cd705dc4e349ac",
        "5eb43838ea535c1a6031735621ca82ce25de5b8bbfe12a777202e5e9094991e1",
        "f8a9a1269198a590c4f9dbb6110ee9bcd738e7d739d37c2312c1195087d85c5e",
        "b24472cd5e524374b27bb90e94de57f34a99aeff06b154089cc584a574a2f5e8",
    ),
    "lomax": (
        "be399f33c1326989e0dea6703d39a8a618b5a91bad129ec2b894eac8d8cbe9d1",
        "ab7c1eaa9f063e5302b03109a8600961a18c57d22b472299b6483c53c4216ee7",
        "c3c573be82accbabe6f397631b6747a6559b2561b8feffac4cbaaa4f25299236",
        "8e38f7ef0e34e5bde4cd87d92f688d8ee58e38c818ef1e6d2538d00af3f1f094",
        "df269ef04819f3f816b29ff7a4debe96089b5c2e1519d7cc55b6bb338c89d90b",
    ),
    "uhalf": (
        "bb10e56b99efd3a675cb7ceaceea1f32cd5eb9fee3122088472fccbfbccad70f",
        "08ae9a61e298fa6904702b81de19059c2a5846ed0097c5737b7bdd888fe61d0f",
        "b8b3930ea6f2cbdfadf7bd83591df6303bda5940c4cd07c227424d5d80c09567",
        "56acabb6fd8bf23b25eb4de876a09f2833694b30ca609bbf3072be499782eb5c",
        "ee441836fb855dddfe4b84922e04f35680c27d3ee0d9aa73ca204359d81f7bdd",
    ),
    "slap": (
        "573f40cb68020e71519da140c1b115180258c1afa195fdad42655a265a96c450",
        "d7fa93991f1a12d3be6e5def817781d71c01a4dd0841d630f30c35797c23a5b3",
        "7503a7073e9c8f0178ad18d3c3c26d87aeadc360755fe3e9926366b6b63668c6",
        "c81695067ceac6464a9110abf1d23a676e4c5e86527f0b4513d783bc7a73da5d",
        "0e82de473370cb58697955ca63aca9e5ff3558b6d4a11a4862308f48b08bf74d",
    ),
    "tab": (
        "d45bebf3e659516aa9710f3a78a96059592a85b740c5927b42958ab55e788354",
        "f36422b8a6d109c5248b8c67c29c954ff8b3a16e2190fedd38a08b6bf6a43b54",
        "73993aafcc711b78256ce1109b9d95b45bc5a355188620f9d19fbd7c16bc935c",
        "0b063ef3983b5e3cb5def04918eeaca45cf023b0c9240336356b852e8f155f89",
        "0e82de473370cb58697955ca63aca9e5ff3558b6d4a11a4862308f48b08bf74d",
    ),
    "match": (
        "4528aebbf79a9c3bede98ee8a7e17273631d70dd0f98a7845dee97fa268a1ac3",
        "de3dc26f0279d4863949023b095fde3c7979db95827b06d939ba896eccaee1a1",
        "6cd287d4dd8fd39d99d43bcccd3716e34349f318cede0483ba1c6c517788eb84",
        "22324848febc4fd962d41f0312b6bf293c53afce27b91c7f7534fa830db02e49",
        "0e82de473370cb58697955ca63aca9e5ff3558b6d4a11a4862308f48b08bf74d",
    ),
}


@pytest.mark.parametrize("family", SPECTRA_PINS)
def test_closed_forms_keep_their_bits(family):
    digests = _spectral_digests(_spectral_kernels()[family])
    assert tuple(digests[k] for k in ("R", "Q", "fac", "bartlett", "diag")) == SPECTRA_PINS[family]


def test_one_transform_table_and_lookup_per_argument(monkeypatch):
    # each closed form builds one table, looked up once per distinct argument:
    # w1, w2 and w1+w2; t and 2t; omega
    from clusterbispec import spectra

    tables = []
    hhat = spectra._hhat
    monkeypatch.setattr(spectra, "_hhat", lambda p, *ws: tables.append(len(ws)) or hhat(p, *ws))
    p = params(Lomax(1.5))
    w1, w2 = np.linspace(-3.0, 3.0, 7), np.linspace(-1.0, 2.0, 7)
    for call, lookups in ((lambda: b_complete(p, w1, w2), 3),
                          (lambda: b_complete(p, w1, w2, form="Q"), 3),
                          (lambda: b_factorial(p, w1, w2), 3),
                          (lambda: b_factorial(p, 0.5, -0.25), 3),
                          (lambda: im_b_diagonal(p, w1), 2),
                          (lambda: bartlett(p, w1), 1)):
        tables.clear()
        call()
        assert tables == [lookups]


def test_closed_forms_broadcast_their_arguments():
    # a column of w1 against a row of w2 gives the meshgrid's values bit for bit
    p = params(Lomax(1.5))
    a, b = np.linspace(-3.0, 3.0, 7), np.linspace(-2.0, 5.0, 5)
    W1, W2 = np.meshgrid(a, b, indexing="ij")
    for f in (b_complete, lambda p, x, y: b_complete(p, x, y, form="Q"), b_factorial):
        got = f(p, a[:, None], b[None, :])
        assert got.shape == (7, 5)
        assert got.tobytes() == f(p, W1, W2).tobytes()


def test_b_factorial_peak_allocation():
    # a column against a row: a three-plane Gamma block of the full shape peaked at
    # 28.1 MiB here, each Gamma at its argument's shape at 22.0 MiB
    w = np.linspace(-40.0, 40.0, 512)
    tracemalloc.start()
    try:
        b_factorial(params(), w[:, None], w[None, :])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20


def test_bartlett_transforms_each_modulus_once(monkeypatch):
    # a symmetric 2k-point grid hands the kernel its k distinct |w|
    seen = []
    transform = Exponential.transform
    monkeypatch.setattr(Exponential, "transform",
                        lambda self, w: seen.append(np.array(w)) or transform(self, w))
    x = np.linspace(0.25, 10.0, 40)
    w = np.concatenate([-x[::-1], x])
    g = bartlett(params(), w)
    assert len(seen) == 1 and seen[0].tobytes() == x.tobytes()
    assert g.tobytes() == (2.0 / np.abs(1.0 - 0.5 * Exponential(1.0).transform(w)) ** 2).tobytes()
