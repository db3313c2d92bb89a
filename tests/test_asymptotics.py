"""Small-frequency constants, mixture representations, and the limit checks."""

import dataclasses
import math

import numpy as np
import pytest

from clusterbispec.asymptotics import (
    AlphaOutOfRange,
    MixtureZ,
    NonMonotoneKernel,
    c_alpha,
    chi_alpha,
    delta_m,
    diag_limit_check,
    mixture_moment_check,
    z_from_kernel,
)
from clusterbispec.kernels import Exponential, InvalidKernel, Kernel, Lomax, SymmetricLaplace, UniformHalf
from clusterbispec.simulate import ModelParams


# ---------------------------------------------------------------------------
# chi_alpha and the trigonometric constants
# ---------------------------------------------------------------------------


def test_chi_alpha_values():
    assert chi_alpha(1.0) == pytest.approx(2.772588722, abs=1e-9)  # 4 log 2
    assert chi_alpha(2.0) == pytest.approx(2.0 * math.pi)
    # C(1/2) = sqrt(pi/2) via Gamma(1/2) = sqrt(pi), cos(pi/4) = 1/sqrt(2)
    root = math.sqrt(math.pi / 2.0)
    assert c_alpha(0.5) == pytest.approx(root)
    assert chi_alpha(0.5) == pytest.approx(2.0 * (2.0 - math.sqrt(2.0)) * root)


def test_chi_alpha_continuity():
    # the case split is numerically continuous at alpha = 1 and 2
    for eps in (1e-6,):
        assert chi_alpha(1.0 - eps) == pytest.approx(4 * math.log(2), rel=1e-3)
        assert chi_alpha(1.0 + eps) == pytest.approx(4 * math.log(2), rel=1e-3)
        assert chi_alpha(2.0 - eps) == pytest.approx(2 * math.pi, rel=1e-3)
    assert chi_alpha(1.5) > 0 and chi_alpha(0.2) > 0


def test_chi_alpha_domain():
    with pytest.raises(AlphaOutOfRange):
        chi_alpha(0.0)
    with pytest.raises(AlphaOutOfRange):
        chi_alpha(2.5)
    # cos(pi/2) rounds to about 1e-16, not 0: C(alpha) refuses its poles and
    # everything outside (0, 2) rather than return 1e16
    for alpha in (0.0, 1.0, 2.0, 3.0, -0.5, math.nan):
        with pytest.raises(AlphaOutOfRange):
            c_alpha(alpha)


# ---------------------------------------------------------------------------
# mixture scale Z
# ---------------------------------------------------------------------------


def test_delta_m_cases():
    assert delta_m(MixtureZ(2.0, 4.0, 8.0), 0.5) == 0.0      # deterministic Z = 2
    # Gamma(2, 1): EZ=2, EZ2=6, EZ3=24 -> (1-m)(24-12) + m*2*2 = 12 - 8m
    assert delta_m(MixtureZ(2.0, 6.0, 24.0), 0.5) == pytest.approx(8.0)
    inf_z = MixtureZ(1.0, 2.0, math.inf)
    assert delta_m(inf_z, 0.3) == math.inf


def test_delta_m_lower_bound(rng):
    # Delta_m >= m EZ Var(Z) for any admissible moment list
    for _ in range(50):
        ez = rng.uniform(0.1, 5.0)
        ez2 = ez**2 * rng.uniform(1.0, 4.0)
        # EZ^3 >= EZ2^2 / EZ  (Cauchy-Schwarz on Z^{1/2} Z^{3/2})
        ez3 = (ez2**2 / ez) * rng.uniform(1.0, 3.0)
        m = rng.uniform(0.05, 0.95)
        z = MixtureZ(ez, ez2, ez3)
        assert delta_m(z, m) >= m * ez * (ez2 - ez**2) - 1e-12


def test_mixture_jensen_guard():
    with pytest.raises(ValueError):
        MixtureZ(2.0, 1.0, 5.0)


def test_z_from_kernel():
    assert z_from_kernel(UniformHalf(2.0)) == MixtureZ(2.0, 4.0, 8.0)
    # Gamma(2, rate 0.5): E Z^p = (p+1)! / 0.5^p
    assert z_from_kernel(Exponential(0.5)) == MixtureZ(4.0, 24.0, 192.0)
    # identity EZ^p = (p+1) E X^p against Lomax closed-form moments
    z4 = z_from_kernel(Lomax(4.0))
    assert z4.moments()[0] == pytest.approx(2.0 / 3.0)      # 2 * 1/3
    assert z4.moments()[1] == pytest.approx(1.0)            # 3 * 1/3
    assert z4.moments()[2] == pytest.approx(4.0)            # 4 * 1
    assert math.isinf(z_from_kernel(Lomax(2.5)).moments()[2])
    with pytest.raises(NonMonotoneKernel):
        z_from_kernel(SymmetricLaplace(1.0))


def test_z_from_kernel_refuses_moments_past_the_double_range():
    # a^3 or 24 / beta^3 overflows, or a^2 underflows: named, not an OverflowError,
    # ZeroDivisionError or a plain ValueError; an infinite E Z^3 stays a Lomax tail's
    for kernel in (UniformHalf(1e300), UniformHalf(1e-300), UniformHalf(1e103),
                   Exponential(1e300), Exponential(1e-300), Exponential(1e-103), Lomax(1e300)):
        with pytest.raises(InvalidKernel, match="mixing moments \\(.*\\) leave the double range"):
            z_from_kernel(kernel)
    assert z_from_kernel(UniformHalf(1e102)) == MixtureZ(1e102, 1e102 * 1e102, 1e102 * 1e102 * 1e102)


def test_mixture_z_refuses_moments_past_the_double_range():
    for moments in ((1.0, math.inf, math.inf), (math.inf, math.inf, math.inf),
                    (1e-300, 0.0, 0.0), (1.0, 2.0, 0.0), (math.nan, 1.0, 1.0)):
        with pytest.raises(InvalidKernel, match="leave the double range"):
            MixtureZ(*moments)
    # (E Z)^2 past the range is a Jensen violation, not an OverflowError
    with pytest.raises(ValueError, match="violates Jensen"):
        MixtureZ(1e200, 1e300, 1e301)


def test_z_from_kernel_rejects_other_one_sided_families():
    class HalfNormal(Kernel):
        """One-sided and monotone, but it declares no monotone family's facts."""

    with pytest.raises(NonMonotoneKernel):
        z_from_kernel(HalfNormal())


def test_exponential_mixture_reproduces_density():
    # X = YZ with Z ~ Gamma(2, beta): integrating z^{-1} G(dz) over (x, inf)
    # must reproduce beta e^{-beta x}
    from scipy.integrate import quad

    beta = 1.3
    for x in (0.0, 0.5, 2.0):
        val, _ = quad(lambda z: (1.0 / z) * beta**2 * z * np.exp(-beta * z),
                      x, np.inf, epsabs=1e-12)
        assert val == pytest.approx(beta * math.exp(-beta * x), rel=1e-10)


def test_uniform_only_kernel_with_zero_delta():
    zs = {k.spec_string(): delta_m(z_from_kernel(k), 0.5)
          for k in (UniformHalf(1.0), Exponential(1.0), Lomax(4.0))}
    assert zs["uhalf:1"] == 0.0
    assert zs["exp:1"] > 0.0 and zs["lomax:4"] > 0.0
    # exactly 0 at non-dyadic widths too (2.759: pow(a, 2) may round unlike a * a)
    for a in (0.3, 1.3, 2.759):
        assert [delta_m(z_from_kernel(UniformHalf(a)), m) for m in (0.2, 0.5, 0.8)] == [0.0] * 3


# ---------------------------------------------------------------------------
# diagonal limit checks
# ---------------------------------------------------------------------------


def test_diag_limit_exponential():
    p = ModelParams(1.0, 0.5, 1.0, Exponential(1.0))
    report = diag_limit_check(p, t_list=(1e-1, 1e-2, 1e-3))
    assert report.regime == "finite_third_moment"
    assert report.limit == pytest.approx(128.0)
    assert abs(report.ratios[-1] - 1.0) < 0.02
    assert report.converged


def test_diag_limit_lomax_alpha1():
    p = ModelParams(1.0, 0.5, 1.0, Lomax(1.0))
    report = diag_limit_check(p)
    assert report.regime == "regularly_varying"
    target = p.lam * p.m**2 * chi_alpha(1.0) / (1 - p.m) ** 5
    assert report.limit == pytest.approx(target)
    assert abs(report.ratios[-1] - 1.0) < 0.10
    assert report.converged


def test_diag_limit_check_transforms_once(monkeypatch):
    # one im_b_diagonal over every t: the kernel transforms t and 2t in one call
    calls = []
    transform = Lomax.transform
    monkeypatch.setattr(Lomax, "transform", lambda self, w: calls.append(w) or transform(self, w))
    report = diag_limit_check(ModelParams(1.0, 0.5, 1.0, Lomax(1.0)),
                              t_list=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5))
    assert len(calls) == 1 and report.converged


def test_diag_limit_uniform_underflows():
    for a in (1.0, 0.3, 1.3):
        p = ModelParams(1.0, 0.5, 1.0, UniformHalf(a))
        report = diag_limit_check(p, t_list=(1e-1, 1e-2, 1e-3))
        assert report.limit == 0.0, a
        assert np.all(report.underflow), a
        assert report.converged, a  # reported as identically-zero signal, not failed


def test_diag_limit_divergent_band():
    # Lomax alpha in (2, 3]: finite second, infinite third moment; the
    # t^3-normalized signal must increase as t decreases
    p = ModelParams(1.0, 0.5, 1.0, Lomax(2.5))
    report = diag_limit_check(p, t_list=(1e-1, 1e-2, 1e-3))
    assert report.regime == "divergent"
    assert math.isinf(report.limit)
    assert np.all(np.diff(report.ratios) > 0)
    assert report.converged


def test_diag_limit_report_is_a_value():
    p = ModelParams(1.0, 0.5, 1.0, UniformHalf(1.0))
    a, b = (diag_limit_check(p, t_list=(1e-1, 1e-2)) for _ in range(2))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != diag_limit_check(p, t_list=(1e-1, 1e-3))
    assert a != dataclasses.replace(a, underflow=~a.underflow)
    assert a.underflow.dtype == bool and a.t_values.dtype == float
    given = np.array([True, False])
    c = dataclasses.replace(a, underflow=given)
    given[0] = False
    assert c.underflow.tolist() == [True, False]   # a copy of the caller's array
    for name in ("t_values", "im_values", "ratios", "underflow"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(a, name)[0] = 1


def test_diag_limit_rejects_bad_t_list():
    p = ModelParams(1.0, 0.5, 1.0, Exponential(1.0))
    with pytest.raises(ValueError):
        diag_limit_check(p, t_list=(1e-3, 1e-2))


# ---------------------------------------------------------------------------
# mixture moment Monte Carlo
# ---------------------------------------------------------------------------


def test_mixture_moment_checks():
    # E X^p = E Z^p / (p+1): uniform p=2 gives 1/3; exponential p=3 gives
    # EZ^3/4 = 6/beta^3; Lomax(4) p=1 gives EZ/2 = 1/3
    res = mixture_moment_check(UniformHalf(1.0), 2, 10**5, seed=1)
    assert res["pass"] and res["target"] == pytest.approx(1.0 / 3.0)
    res = mixture_moment_check(Exponential(1.0), 3, 10**5, seed=2)
    assert res["pass"] and res["target"] == pytest.approx(6.0)
    res = mixture_moment_check(Lomax(4.0), 1, 10**5, seed=3)
    assert res["pass"] and res["target"] == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        mixture_moment_check(Lomax(2.5), 3, 100, seed=0)
