"""Offspring displacement kernels: densities, transforms, tails, samplers.

All Fourier transforms use the convention

    hhat(w) = int e^{-i w t} h(t) dt,

so hhat(0) = 1 and hhat(-w) = conj(hhat(w)) for real densities.  Kernels are
immutable after construction; every method is pure and safe to call
concurrently.  RNG state is caller-owned (numpy Generator) and never shared.
Lomax transforms by a fixed contour rule (within 1e-11, ``_lomax_rows``) and
tabulated densities by trapezoid sums, both in bounded frequency blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Kernel",
    "Exponential",
    "Lomax",
    "UniformHalf",
    "SymmetricLaplace",
    "TabulatedSymmetric",
    "InvalidKernel",
    "TransformOutOfRange",
    "transform_with_bound",
    "kernel_from_spec",
    "load_tabulated_csv",
]

TRANSFORM_TOL = 1e-9  # absolute error the Lomax rule's reported bound stays within
CHUNK_CELLS = 1 << 16  # cells of one (frequencies x nodes or table cells) block
_LOMAX_NODES = 400     # Gauss-Legendre nodes of the Lomax contour rule
_LOMAX_CUTOFF = 60.0   # the contour ends where e^{-w u} or u^{-alpha} reaches e^{-60}


def readonly(a):
    """Read-only copy of an array field (None stays None)."""
    if a is None:
        return None
    a = np.array(a)
    a.setflags(write=False)
    return a


def array_key(*arrays) -> tuple:
    """Hashable value of array fields: dtype, shape and bytes of each (None stays None).

    Frozen dataclasses with ndarray fields compare and hash through this key,
    so they behave as values; they hold those fields read-only (``readonly``)
    so the key cannot go stale.
    """
    return tuple(None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def in_row_chunks(rows, omega, width):
    """rows(w) over omega's frequencies, CHUNK_CELLS // width at a time, in omega's shape.

    ``rows`` reduces each frequency's own row of ``width`` cells: no value depends on the block.
    """
    w = np.asarray(omega, dtype=float).ravel()
    step = max(1, CHUNK_CELLS // width)
    parts = [rows(w[i:i + step]) for i in range(0, max(w.size, 1), step)]
    return np.concatenate(parts).reshape(np.shape(omega))


class InvalidKernel(ValueError):
    """Kernel parameters or tabulated data violate a construction invariant."""


class TransformOutOfRange(ValueError):
    """The Lomax contour runs past the double range: alpha < 0.085 at a subnormal |w|."""


class Kernel:
    """Common surface for offspring displacement laws.

    Subclasses provide density/transform/survival/sample plus tail quantiles.
    ``one_sided`` kernels put zero mass on (-inf, 0); ``symmetric`` kernels
    satisfy density(x) == density(-x) exactly.
    """

    one_sided = False
    symmetric = False

    def density(self, x):
        raise NotImplementedError

    def transform(self, omega):
        raise NotImplementedError

    def survival(self, x):
        """P(X > x)."""
        raise NotImplementedError

    def sample(self, rng, size=None):
        raise NotImplementedError

    def tail_quantile(self, eps):
        """q with P(|X| > q) <= eps; used for simulation window padding."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential(Kernel):
    """One-sided exponential kernel h(t) = beta e^{-beta t} on (0, inf)."""

    beta: float
    one_sided = True

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise InvalidKernel(f"Exponential rate must be positive, got {self.beta}")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self.beta * np.exp(-self.beta * np.clip(x, 0, None)), 0.0)

    def transform(self, omega):
        w = np.asarray(omega, dtype=float)
        return self.beta / (self.beta + 1j * w)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0, 1.0, np.exp(-self.beta * np.clip(x, 0, None)))

    def sample(self, rng, size=None):
        # inverse CDF so the stream consumption is one uniform per draw
        u = rng.random(size)
        return -np.log1p(-u) / self.beta

    def tail_quantile(self, eps):
        return -math.log(eps) / self.beta

    def spec_string(self):
        return f"exp:{self.beta:g}"


@dataclass(frozen=True)
class Lomax(Kernel):
    """Lomax kernel h(t) = alpha (1+t)^{-1-alpha} on (0, inf); contour-rule transform to 1e-11."""

    alpha: float
    one_sided = True

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise InvalidKernel(f"Lomax tail index must be positive, got {self.alpha}")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self.alpha * (1.0 + np.clip(x, 0, None)) ** (-1.0 - self.alpha), 0.0)

    def transform(self, omega):
        out = in_row_chunks(lambda w: _lomax_rows(self.alpha, w, _LOMAX_NODES), omega, _LOMAX_NODES)
        return out if np.ndim(omega) else complex(out)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0, 1.0, (1.0 + np.clip(x, 0, None)) ** (-self.alpha))

    def sample(self, rng, size=None):
        u = rng.random(size)
        return (1.0 - u) ** (-1.0 / self.alpha) - 1.0

    def tail_quantile(self, eps):
        return eps ** (-1.0 / self.alpha) - 1.0

    def moment(self, p: int) -> float:
        """Raw moment E X^p; inf when p >= alpha."""
        if p >= self.alpha:
            return math.inf
        out = float(math.factorial(p))
        for k in range(1, p + 1):
            out /= self.alpha - k
        return out

    def spec_string(self):
        return f"lomax:{self.alpha:g}"


@dataclass(frozen=True)
class UniformHalf(Kernel):
    """One-sided uniform kernel h(t) = 1/a on (0, a)."""

    a: float
    one_sided = True

    def __post_init__(self):
        if not (self.a > 0 and math.isfinite(self.a)):
            raise InvalidKernel(f"UniformHalf width must be positive, got {self.a}")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0) & (x <= self.a), 1.0 / self.a, 0.0)

    def transform(self, omega):
        w = np.asarray(omega, dtype=float)
        half = self.a * w / 2.0
        # exp(-i a w / 2) sinc(a w / 2); np.sinc carries a pi factor
        return np.exp(-1j * half) * np.sinc(half / np.pi)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip(1.0 - x / self.a, 0.0, 1.0)

    def sample(self, rng, size=None):
        return self.a * rng.random(size)

    def tail_quantile(self, eps):
        return self.a

    def spec_string(self):
        return f"uhalf:{self.a:g}"


@dataclass(frozen=True)
class SymmetricLaplace(Kernel):
    """Centrally symmetric Laplace kernel h(x) = (beta/2) e^{-beta |x|}."""

    beta: float
    symmetric = True

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise InvalidKernel(f"SymmetricLaplace rate must be positive, got {self.beta}")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.beta * np.exp(-self.beta * np.abs(x))

    def transform(self, omega):
        w = np.asarray(omega, dtype=float)
        return (self.beta**2 / (self.beta**2 + w**2)).astype(complex)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, 0.5 * np.exp(-self.beta * np.abs(x)), 1.0 - 0.5 * np.exp(-self.beta * np.abs(x)))

    def sample(self, rng, size=None):
        u = rng.random(size)
        mag = -np.log1p(-rng.random(size)) / self.beta
        return np.where(u < 0.5, -mag, mag)

    def tail_quantile(self, eps):
        return -math.log(eps) / self.beta

    def spec_string(self):
        return f"slap:{self.beta:g}"


@dataclass(frozen=True)
class TabulatedSymmetric(Kernel):
    """Even density given by samples on a uniform grid x_k = k * spacing, k >= 0.

    Linear interpolation between samples; transforms are trapezoidal cosine
    sums.  Samples are validated to integrate to 1 within 1e-3 and then
    renormalized exactly.
    """

    values: np.ndarray = field(compare=False)
    spacing: float
    symmetric = True
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False)   # == and hash see the samples

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) < 2:
            raise InvalidKernel("tabulated kernel needs at least two samples")
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise InvalidKernel(f"grid spacing must be positive, got {self.spacing}")
        if np.any(~np.isfinite(vals)) or np.any(vals < 0):
            raise InvalidKernel("tabulated density samples must be finite and nonnegative")
        total = 2.0 * np.trapezoid(vals, dx=self.spacing)  # even extension
        if abs(total - 1.0) > 1e-3:
            raise InvalidKernel(f"tabulated density integrates to {total:.6f}, expected 1")
        vals = readonly(vals / total)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_key", array_key(vals))
        # CDF of |X| on the half grid, for sampling and survival
        seg = 0.5 * (vals[1:] + vals[:-1]) * self.spacing
        cdf = np.concatenate([[0.0], np.cumsum(seg)]) * 2.0
        object.__setattr__(self, "_cdf", cdf)

    @property
    def grid(self):
        return self.spacing * np.arange(len(self.values))

    def density(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        return np.interp(ax, self.grid, self.values, right=0.0)

    def transform(self, omega):
        vals = in_row_chunks(lambda w: 2.0 * np.trapezoid(
            np.cos(np.multiply.outer(w, self.grid)) * self.values, dx=self.spacing, axis=-1),
            omega, len(self.values))
        return vals.astype(complex) if np.ndim(omega) else complex(vals)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        half = np.interp(np.abs(x), self.grid, self._cdf / 2.0, right=0.5)
        return np.where(x >= 0, 0.5 - half, 0.5 + half)

    def sample(self, rng, size=None):
        u = rng.random(size) * self._cdf[-1]
        mag = np.interp(u, self._cdf, self.grid)
        sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        return sign * mag

    def tail_quantile(self, eps):
        tail = self._cdf[-1] - self._cdf  # P(|X| > x_k)
        idx = np.searchsorted(-tail, -eps)
        return float(self.grid[min(idx, len(self.grid) - 1)])

    def spec_string(self):
        return "tab:<inline>"


# ---------------------------------------------------------------------------
# module-level operation surface
# ---------------------------------------------------------------------------


def transform_with_bound(kernel: Kernel, omega):
    """Transform plus an absolute error bound over all of omega (0.0 if exact).

    For Lomax: the change from halving the contour rule's nodes, plus 64 ulps of
    alpha int_0^inf |1 - iu|^{-1-alpha} du for rounding, plus the (alpha/60 + 1) e^{-60}
    the two cuts drop; at most TRANSFORM_TOL for alpha in [0.05, 10] and |w| >= 1e-8.
    """
    if not isinstance(kernel, Lomax):
        return kernel.transform(omega), 0.0
    a, fine = kernel.alpha, kernel.transform(omega)
    coarse = in_row_chunks(lambda w: _lomax_rows(a, w, _LOMAX_NODES // 2), omega, _LOMAX_NODES)
    modulus = a * math.exp(math.lgamma(a / 2) - math.lgamma((1 + a) / 2)) * math.sqrt(math.pi) / 2
    rounding = 64.0 * np.finfo(float).eps * modulus
    truncation = (a / _LOMAX_CUTOFF + 1.0) * math.exp(-_LOMAX_CUTOFF)
    return fine, float(np.max(np.abs(fine - coarse), initial=0.0)) + rounding + truncation


@functools.cache
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1] by Newton on the recurrence.

    numpy's leggauss(400) is off by up to 6e-10 in its end weights; this is not.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):  # four steps reach the roots from this start at n = 400
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return readonly(x), readonly(2.0 / ((1.0 - x * x) * dp * dp))


def _lomax_rows(alpha, w, nodes):
    """Lomax hhat at a 1-D block of frequencies by a ``nodes``-point contour rule.

    For w > 0, t = -iu gives hhat(w) = -i alpha int_0^inf e^{-w u} (1 - iu)^{-1-alpha} du,
    which does not oscillate (numerical steepest descent: Huybrechs & Vandewalle, SIAM
    J. Numer. Anal. 44(3), 2006); u = e^v - 1 up to u = min(60/w, e^{60/alpha}).
    Exactly 1 at w = 0 and the conjugate for w < 0; each row is summed alone.
    """
    out = np.ones(w.shape, dtype=complex)
    aw = np.abs(w[w != 0.0])[:, None]
    x, q = _gauss_legendre(nodes)
    with np.errstate(over="ignore"):  # 60/|w| and u(v_max) overflow only at subnormal |w|
        v_max = np.minimum(np.log1p(_LOMAX_CUTOFF / aw), np.logaddexp(_LOMAX_CUTOFF / alpha, 0.0))
        if np.any(np.isinf(np.expm1(v_max))):
            raise TransformOutOfRange(f"Lomax({alpha:g}) transform at |w| = {float(aw.min()):g}: "
                                      "alpha < 0.085 needs |w| >= 3.4e-307")
    half = 0.5 * v_max
    v = half * (x + 1.0)
    u = np.expm1(v)
    # (1 - iu)^{-1-alpha} = e^{-(1+alpha)(log|1 - iu| - i arctan u)}; hypot keeps |1 - iu| finite
    expo = v - aw * u - (1.0 + alpha) * (np.log(np.hypot(1.0, u)) - 1j * np.arctan(u))
    out[w != 0.0] = -1j * alpha * np.sum(half * q * np.exp(expo), axis=1)
    return np.where(w < 0, np.conj(out), out)


# ---------------------------------------------------------------------------
# kernel spec mini-grammar and tabulated CSV I/O
# ---------------------------------------------------------------------------

_FAMILIES = "exp:beta, lomax:alpha, uhalf:a, slap:beta, match:<base>:<m>, tab:<path>"


def kernel_from_spec(spec: str) -> Kernel:
    """Parse a kernel spec string.

    Grammar: exp:beta, lomax:alpha, uhalf:a (alias uniform:a), slap:beta,
    match:<base>:<m>, match:<path.json>, tab:<path>.
    """
    parts = spec.strip().split(":")
    name = parts[0].lower()
    try:
        if name == "exp" and len(parts) == 2:
            return Exponential(float(parts[1]))
        if name == "lomax" and len(parts) == 2:
            return Lomax(float(parts[1]))
        if name in ("uhalf", "uniform") and len(parts) == 2:
            return UniformHalf(float(parts[1]))
        if name == "slap" and len(parts) == 2:
            return SymmetricLaplace(float(parts[1]))
        if name == "tab" and len(parts) >= 2:
            return load_tabulated_csv(":".join(parts[1:]))
        if name == "match" and len(parts) >= 2:
            from .match import MatchSpec, build_matched_kernel, load_matched_kernel

            rest = ":".join(parts[1:])
            if rest.endswith(".json"):
                return load_matched_kernel(rest)
            base = kernel_from_spec(":".join(parts[1:-1]))
            return build_matched_kernel(MatchSpec(base=base, m=float(parts[-1])))
    except ValueError as exc:
        raise InvalidKernel(f"bad kernel spec {spec!r}: {exc}") from exc
    raise InvalidKernel(f"unknown kernel spec {spec!r}; valid families: {_FAMILIES}")


def load_tabulated_csv(path: str) -> TabulatedSymmetric:
    """Load a tabulated symmetric kernel from CSV `x,density` (header row).

    x must be strictly increasing, uniformly spaced, and start at 0.
    """
    xs, ds = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if lineno == 1 and line.lower().replace(" ", "") == "x,density":
                continue
            try:
                sx, sd = line.split(",")
                xs.append(float(sx))
                ds.append(float(sd))
            except ValueError as exc:
                raise InvalidKernel(f"{path}:{lineno}: cannot parse {line!r}") from exc
    x = np.asarray(xs)
    if len(x) < 2 or np.any(np.diff(x) <= 0):
        raise InvalidKernel(f"{path}: x column must be strictly increasing")
    dx = x[1] - x[0]
    if abs(x[0]) > 1e-9 * dx or np.max(np.abs(np.diff(x) - dx)) > 1e-9 * dx:
        raise InvalidKernel(f"{path}: grid must be uniform and start at 0")
    return TabulatedSymmetric(np.asarray(ds), float(dx))
