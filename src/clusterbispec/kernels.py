"""Offspring displacement kernels: densities, transforms, tails, samplers.

All Fourier transforms use the convention

    hhat(w) = int e^{-i w t} h(t) dt,

so hhat(0) = 1 and hhat(-w) = conj(hhat(w)) for real densities.  Kernels are
immutable after construction; every method is pure and safe to call
concurrently.  RNG state is caller-owned (numpy Generator) and never shared.
Lomax transforms by doubling contour rules that stop at rounding level (within
1e-11, ``_lomax_rule``; refused where 512 nodes do not get there) and tabulated
densities (each one ``EvenTable``: a ``tab:`` kernel, a matched kernel's rho_h) by
trapezoid sums, both in frequency blocks of CHUNK_CELLS cells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

__all__ = [
    "Kernel",
    "Exponential",
    "Lomax",
    "UniformHalf",
    "SymmetricLaplace",
    "TabulatedSymmetric",
    "Refused",
    "InvalidKernel",
    "TransformOutOfRange",
    "transform_with_bound",
    "kernel_from_spec",
    "load_tabulated_csv",
]

TRANSFORM_TOL = 1e-9  # absolute error the Lomax rule's reported bound stays within
CHUNK_CELLS = 1 << 13  # cells of one (frequencies x nodes or table cells) block: 64 KiB a
# float temporary, under glibc's 128 KiB mmap threshold, so blocks reuse heap pages
_LOMAX_FIRST_RUNG = 8    # Gauss-Legendre nodes of the Lomax contour rule's first rung
_LOMAX_LAST_RUNG = 512   # and of its last; each rung doubles the one before
_LOMAX_CUTOFF = 60.0   # the contour ends where e^{-w u} or u^{-alpha} reaches e^{-60}


def readonly(a, dtype=float):
    """Read-only copy of an array field, float unless ``dtype`` says otherwise."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def array_key(*arrays) -> tuple:
    """Hashable value of array fields: dtype, shape and bytes of each.

    Frozen dataclasses with ndarray fields compare and hash through this key,
    so they behave as values; they hold those fields read-only (``readonly``)
    so the key cannot go stale.
    """
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def in_row_chunks(rows, omega, width):
    """rows(w) over omega's frequencies, CHUNK_CELLS // width at a time, in omega's shape.

    ``rows`` reduces each frequency's own row of ``width`` cells: no value depends on the block.
    """
    w = np.asarray(omega, dtype=float).ravel()
    step = max(1, CHUNK_CELLS // width)
    parts = [rows(w[i:i + step]) for i in range(0, max(w.size, 1), step)]
    return np.concatenate(parts).reshape(np.shape(omega))


class Refused(ValueError):
    """An input the package declines, by name: every named refusal derives from
    it, so a caller (the command line's exit 2) catches them all as one type."""


class InvalidKernel(Refused):
    """Kernel parameters or tabulated data violate a construction invariant, or put
    a tail quantile, an autocorrelation or the mixing moments past the double range."""


class TransformOutOfRange(Refused):
    """The Lomax contour runs past the double range (alpha < 0.085 at a subnormal |w|),
    or its 512-node rule still moves by more than TRANSFORM_TOL (alpha from about 2000)."""


class Kernel:
    """Common surface for offspring displacement laws.

    Subclasses provide density/transform/survival/sample plus tail quantiles,
    and each family declares its facts on its class: ``symmetric`` (density
    exactly even); ``prefix`` (a one-parameter family's spec name);
    ``monotone`` (nonincreasing on (0, inf), none below 0), with closed forms
    of ``autocorrelation(x)`` = (h * hcheck)(x) = int_0^inf h(|x|+u) h(u) du,
    ``mixing_moments()`` = E Z^p, p = 1, 2, 3, of X = Y Z (Y uniform on
    (0, 1)), and ``tail_index`` (of a regularly varying tail; inf if lighter).
    """

    symmetric = False
    monotone = False
    prefix = None
    tail_index = math.inf

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
        """q with P(|X| > q) <= eps; sets the default lag-grid half-width and rho table ranges."""
        raise NotImplementedError

    def spec_string(self) -> str:
        if self.prefix is None:   # not a one-parameter family
            raise NotImplementedError
        (param,) = astuple(self)
        return f"{self.prefix}:{param:g}"


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential(Kernel):
    """One-sided exponential kernel h(t) = beta e^{-beta t} on (0, inf)."""

    beta: float
    monotone = True
    prefix = "exp"

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

    def autocorrelation(self, x):
        return 0.5 * self.beta * np.exp(-self.beta * np.abs(np.asarray(x, dtype=float)))

    def mixing_moments(self):   # Z ~ Gamma(2, beta)
        return 2.0 / self.beta, 6.0 / self.beta**2, 24.0 / self.beta**3


@dataclass(frozen=True)
class Lomax(Kernel):
    """Lomax kernel h(t) = alpha (1+t)^{-1-alpha} on (0, inf); contour-rule transform to 1e-11."""

    alpha: float
    monotone = True
    prefix = "lomax"

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise InvalidKernel(f"Lomax tail index must be positive, got {self.alpha}")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self.alpha * (1.0 + np.clip(x, 0, None)) ** (-1.0 - self.alpha), 0.0)

    def transform(self, omega):
        return _lomax_rule(self.alpha, omega)[0]

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0, 1.0, (1.0 + np.clip(x, 0, None)) ** (-self.alpha))

    def sample(self, rng, size=None):
        u = rng.random(size)
        return (1.0 - u) ** (-1.0 / self.alpha) - 1.0

    def tail_quantile(self, eps):
        try:
            return eps ** (-1.0 / self.alpha) - 1.0
        except OverflowError:
            raise InvalidKernel(f"Lomax({self.alpha:g}) quantile at {eps:g} overflows") from None

    def moment(self, p: int) -> float:
        """Raw moment E X^p; inf when p >= alpha."""
        if p >= self.alpha:
            return math.inf
        out = float(math.factorial(p))
        for k in range(1, p + 1):
            out /= self.alpha - k
        return out

    tail_index = property(lambda self: self.alpha)

    def autocorrelation(self, x):   # by Euler's integral, DLMF 15.6.1
        from scipy.special import hyp2f1  # the package's one scipy use: Lomax match bases only
        a, ax = self.alpha, np.abs(np.asarray(x, dtype=float))
        return a * a * hyp2f1(1.0 + a, 1.0 + 2.0 * a, 2.0 + 2.0 * a, -ax) / (1.0 + 2.0 * a)

    def mixing_moments(self):
        if self.alpha <= 2.0:
            raise ValueError("mixture moments need a finite second kernel moment")
        return tuple((p + 1) * self.moment(p) for p in (1, 2, 3))


@dataclass(frozen=True)
class UniformHalf(Kernel):
    """One-sided uniform kernel h(t) = 1/a on (0, a)."""

    a: float
    monotone = True
    prefix = "uhalf"

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

    def autocorrelation(self, x):
        if not 0.0 < self.a * self.a < math.inf:
            raise InvalidKernel(f"UniformHalf({self.a:g}) autocorrelation: a^2 out of range")
        return np.clip(self.a - np.abs(np.asarray(x, dtype=float)), 0.0, None) / self.a**2

    def mixing_moments(self):
        a = self.a   # products, not powers: E Z^3 - E Z E Z^2 cancels to exactly 0
        return a, a * a, a * a * a


@dataclass(frozen=True)
class SymmetricLaplace(Kernel):
    """Centrally symmetric Laplace kernel h(x) = (beta/2) e^{-beta |x|}."""

    beta: float
    symmetric = True
    prefix = "slap"

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


@dataclass(frozen=True)
class EvenTable:
    """Even density on a half-line table, the package's one tabulated law.

    Holds the density ``values`` at ``grid`` knots from 0, strictly increasing
    (k * spacing if not given), the cell widths ``spacing`` (np.diff(grid) if
    not given) and the half-line ``cdf`` of the trapezoid cells.  Owns the
    validation, the cosine transform by trapezoid sums in bounded frequency
    blocks, the draw (|X| by inverse CDF, then a fair sign) and the tail
    inversion; ``==`` and ``hash`` see the arrays.  A draw interpolates the CDF
    linearly, so the sampled law is uniform within each cell, while the
    transform integrates the piecewise-linear density: a reloaded
    ``match:lomax:1.5:0.5`` (through its table) transforms 6.3e-6 from the live
    one (exact) at |w| = 20 and up to 2.6e-4 below it, 1.8e-3 at 100, 2.2e-3 at 1000.
    """

    values: np.ndarray = field(compare=False)
    spacing: float | np.ndarray | None = field(default=None, compare=False)
    grid: np.ndarray = field(default=None, compare=False)
    _key: tuple = field(init=False, repr=False)   # == and hash see the table

    def __post_init__(self):
        vals = readonly(self.values)
        xs = readonly(self.spacing * np.arange(vals.size) if self.grid is None else self.grid)
        if (xs.ndim != 1 or xs.size < 2 or not np.all(np.isfinite(xs))
                or xs[0] != 0.0 or not np.all(np.diff(xs) > 0.0)):
            raise InvalidKernel("tabulated density: knots must start at 0 and strictly increase")
        if vals.shape != xs.shape or not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise InvalidKernel("tabulated density: one finite, non-negative value a knot")
        dx = readonly(np.diff(xs)) if self.spacing is None else self.spacing
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * dx)])
        if not cdf[-1] > 0.0:
            raise InvalidKernel("tabulated density has no mass")
        for name, a in (("values", vals), ("spacing", dx), ("grid", xs), ("cdf", readonly(cdf)),
                        ("_unit_cdf", cdf / cdf[-1]), ("_key", array_key(xs, vals))):
            object.__setattr__(self, name, a)

    def transform(self, omega):
        vals = in_row_chunks(lambda w: 2.0 * np.trapezoid(
            np.cos(np.multiply.outer(w, self.grid)) * self.values, dx=self.spacing, axis=-1),
            omega, len(self.grid))
        return vals.astype(complex) if np.ndim(omega) else complex(vals)

    def sample(self, rng, size=None):
        mag = np.interp(rng.random(size), self._unit_cdf, self.grid)
        return np.where(rng.random(size) < 0.5, -1.0, 1.0) * mag

    def tail_quantile(self, eps):
        tail = 2.0 * (self.cdf[-1] - self.cdf)   # P(|X| > x_k)
        idx = int(np.searchsorted(-tail, -eps))
        return float(self.grid[min(idx, len(self.grid) - 1)])


@dataclass(frozen=True)
class TabulatedSymmetric(EvenTable, Kernel):
    """Even density given by samples on a uniform grid x_k = k * spacing, k >= 0.

    An EvenTable whose cells are exactly ``spacing`` wide: linear interpolation
    between samples, trapezoidal cosine sums.  Samples are validated to
    integrate to 1 within 1e-3 and then renormalized exactly.
    """

    spacing: float = field()   # required, and compared, unlike a table's widths
    grid: np.ndarray = field(init=False, repr=False, compare=False)
    symmetric = True

    def __post_init__(self):
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise InvalidKernel(f"grid spacing must be positive, got {self.spacing}")
        super().__post_init__()   # the samples as given
        total = 2.0 * np.trapezoid(self.values, dx=self.spacing)  # even extension
        if abs(total - 1.0) > 1e-3:
            raise InvalidKernel(f"tabulated density integrates to {total:.6f}, expected 1")
        object.__setattr__(self, "values", self.values / total)
        super().__post_init__()   # renormalized

    def density(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        return np.interp(ax, self.grid, self.values, right=0.0)

    # on the class itself, as every family's transform and sampler are
    transform, sample = EvenTable.transform, EvenTable.sample

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        half = np.interp(np.abs(x), self.grid, self.cdf, right=0.5)
        return np.where(x >= 0, 0.5 - half, 0.5 + half)

    def spec_string(self):
        return "tab:<inline>"


# ---------------------------------------------------------------------------
# module-level operation surface
# ---------------------------------------------------------------------------


def transform_with_bound(kernel: Kernel, omega):
    """Transform plus an absolute error bound over all of omega (0.0 if exact).

    For Lomax, from the same pass as the value: the largest error estimate of the
    rule (``_lomax_rule``: a frequency's last change |Q_n - Q_{n/2}|, or d_n^3 / d_{n/2}^2
    where it stopped on geometric contraction), plus the rounding floor 64 ulps of
    alpha int_0^inf |1 - iu|^{-1-alpha} du, plus the (alpha/60 + 1) e^{-60} the two
    cuts drop; at most TRANSFORM_TOL for alpha in [0.05, 10] and |w| >= 1e-8, and at
    most TRANSFORM_TOL plus those two terms wherever the rule does not refuse.
    """
    if not isinstance(kernel, Lomax):
        return kernel.transform(omega), 0.0
    a = kernel.alpha
    value, change = _lomax_rule(a, omega)
    truncation = (a / _LOMAX_CUTOFF + 1.0) * math.exp(-_LOMAX_CUTOFF)
    return value, change + _lomax_floor(a) + truncation


@functools.cache
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1] by Newton on the recurrence.

    numpy's leggauss(400) is off by up to 6e-10 in its end weights; this is not.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):  # four steps reach the roots from this start at n = 512
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return readonly(x), readonly(2.0 / ((1.0 - x * x) * dp * dp))


def _lomax_floor(alpha):
    """The contour rule's rounding: 64 ulps of alpha int_0^inf |1 - iu|^{-1-alpha} du."""
    modulus = alpha * math.exp(math.lgamma(alpha / 2) - math.lgamma((1 + alpha) / 2))
    modulus *= math.sqrt(math.pi) / 2
    return 64.0 * np.finfo(float).eps * modulus


def _lomax_contour_end(alpha, aw):
    """v_max = log(1 + u_max) of the contour at |w| = aw > 0; refuses an end past the double range."""
    with np.errstate(over="ignore"):  # 60/|w| and u(v_max) overflow only at subnormal |w|
        v_max = np.minimum(np.log1p(_LOMAX_CUTOFF / aw), np.logaddexp(_LOMAX_CUTOFF / alpha, 0.0))
        if np.any(np.isinf(np.expm1(v_max))):
            raise TransformOutOfRange(f"Lomax({alpha:g}) transform at |w| = "
                                      f"{float(np.min(aw)):g}: alpha < 0.085 needs |w| >= 3.4e-307")
    return v_max


def _lomax_rule(alpha, omega):
    """Lomax hhat over omega by doubling contour rules, and the largest error estimate.

    Each frequency takes Q_8, then Q_16, Q_32, ... up to Q_512; only frequencies
    still open run the next rung.  With d_n = |Q_n - Q_{n/2}|, a frequency keeps the
    first Q_n with d_n <= ``_lomax_floor`` (error estimate d_n), or whose last two
    changes contract, d_n < d_{n/2}, with d_n^3 / d_{n/2}^2 <= the floor (the estimate:
    Gauss-Legendre converges geometrically on the analytic contour integrand, e_n ~ C r^n,
    so with d_n ~ e_{n/2} and d_{n/2} ~ e_{n/4}, e_n ~ d_n^3 / d_{n/2}^2); else Q_512
    with estimate d_512, refused (TransformOutOfRange) above TRANSFORM_TOL.
    A frequency's rows and its stop depend on it alone, so no value depends on the
    batch.  The contour ends are found once a frequency, and every rung's blocks write
    into one workspace of four CHUNK_CELLS temporaries.  Values come in omega's shape
    (a complex for a scalar): exactly 1 at w = 0 and the conjugate for w < 0.
    """
    w = np.asarray(omega, dtype=float).ravel()
    live = np.flatnonzero(w)
    aw = np.abs(w[live])
    half = 0.5 * _lomax_contour_end(alpha, aw)   # refuses before any rule runs
    work = [np.empty(min(CHUNK_CELLS, aw.size * _LOMAX_LAST_RUNG)) for _ in range(4)]
    floor, n = _lomax_floor(alpha), _LOMAX_FIRST_RUNG
    q = _lomax_rows(alpha, aw, n, half, work)
    error = np.zeros(aw.shape)   # each value's error estimate
    change = np.full(aw.shape, np.nan)   # |Q_n - Q_{n/2}|, none before the second rung
    open_ = np.arange(aw.size)
    while open_.size and n < _LOMAX_LAST_RUNG:
        n *= 2
        fine = _lomax_rows(alpha, aw[open_], n, half[open_], work)
        d, d_prev = np.abs(fine - q[open_]), change[open_]
        geometric = d * (d / d_prev) ** 2   # NaN until two changes exist
        done = d <= floor
        contracts = ~done & (d < d_prev) & (geometric <= floor)
        q[open_], change[open_] = fine, d
        error[open_] = np.where(contracts, geometric, d)
        open_ = open_[~(done | contracts)]
    if open_.size and np.max(error[open_]) > TRANSFORM_TOL:
        worst = open_[np.argmax(error[open_])]
        raise TransformOutOfRange(f"Lomax({alpha:g}) transform at |w| = {aw[worst]:g}: the "
                                  f"{n}-node rule still moves by {error[worst]:.3g}")
    value = np.ones(w.shape, dtype=complex)
    value[live] = q
    np.conjugate(value, out=value, where=w < 0)
    value = value.reshape(np.shape(omega))
    return (value if np.ndim(omega) else complex(value)), float(np.max(error, initial=0.0))


def _lomax_rows(alpha, w, nodes, half=None, work=None):
    """Lomax hhat at positive frequencies w by one ``nodes``-point contour rule.

    For w > 0, t = -iu gives hhat(w) = -i alpha int_0^inf e^{-w u} (1 - iu)^{-1-alpha} du,
    which does not oscillate (numerical steepest descent: Huybrechs & Vandewalle, SIAM
    J. Numer. Anal. 44(3), 2006); u = e^v - 1 up to u = min(60/w, e^{60/alpha}), v up to
    2 ``half`` (``_lomax_contour_end``).  In real arithmetic, (1 - iu)^{-1-alpha} has
    modulus e^{-(1+alpha) log|1 - iu|}, with log|1 - iu| = v + log1p(-2u e^{-2v}) / 2
    (finite wherever u is), and phase phi = (1+alpha) arctan u, so hhat = alpha (sum mod
    sin phi - i sum mod cos phi); sin and cos come from tan(phi/2).  Rows run
    CHUNK_CELLS // nodes at a time through the four arrays of ``work`` (each at least
    one block long), and each row is summed alone.
    """
    if half is None:
        half = 0.5 * _lomax_contour_end(alpha, w)
    if work is None:
        work = [np.empty(min(CHUNK_CELLS, w.size * nodes)) for _ in range(4)]
    x, q = _gauss_legendre(nodes)
    x1, c = x + 1.0, 0.5 * (1.0 + alpha)
    out = np.empty(w.shape, dtype=complex)
    step = max(1, CHUNK_CELLS // nodes)
    for i in range(0, w.size, step):
        aw, h = w[i:i + step, None], half[i:i + step, None]
        v, u, t, mod = (a[:aw.size * nodes].reshape(aw.size, nodes) for a in work)
        np.multiply(h, x1, out=v)
        np.expm1(v, out=u)
        np.add(1.0, u, out=t)
        np.divide(1.0, t, out=t)   # e^{-v}
        # e^v (du = e^v dv) over |1 - iu|^{1+alpha}, the v terms summed first: -alpha v
        np.multiply(-alpha, v, out=mod)
        np.subtract(mod, np.multiply(aw, u, out=v), out=mod)
        np.multiply(-2.0, np.multiply(u, t, out=v), out=v)
        np.log1p(np.multiply(v, t, out=v), out=v)
        np.subtract(mod, np.multiply(c, v, out=v), out=mod)
        np.multiply(np.exp(mod, out=mod), np.multiply(h, q, out=v), out=mod)
        np.tan(np.multiply(c, np.arctan(u, out=u), out=u), out=u)   # tan(phi/2)
        np.multiply(u, u, out=t)
        # sin phi, cos phi: 2 tan(phi/2) and 1 - tan^2(phi/2), each over 1 + tan^2(phi/2)
        np.divide(mod, np.add(1.0, t, out=v), out=mod)
        np.multiply(np.multiply(2.0, u, out=u), mod, out=u)
        np.multiply(np.subtract(1.0, t, out=t), mod, out=t)
        out[i:i + step] = alpha * (np.sum(u, axis=1) - 1j * np.sum(t, axis=1))
    return out


# ---------------------------------------------------------------------------
# kernel spec mini-grammar and tabulated CSV I/O
# ---------------------------------------------------------------------------

# the one-parameter families by spec prefix, each parsed as prefix:param
_BY_PREFIX = {cls.prefix: cls for cls in (Exponential, Lomax, UniformHalf, SymmetricLaplace)}
_ALIASES = {"uniform": "uhalf"}
_FAMILIES = ", ".join([f"{p}:{fields(cls)[0].name}" for p, cls in _BY_PREFIX.items()]
                      + ["match:<base>:<m>", "tab:<path>"])


def kernel_from_spec(spec: str) -> Kernel:
    """Parse a kernel spec string.

    Grammar: exp:beta, lomax:alpha, uhalf:a (alias uniform:a), slap:beta,
    match:<base>:<m>, match:<path> (a saved kernel), tab:<path>.
    """
    parts = spec.strip().split(":")
    name = parts[0].lower()
    family = _BY_PREFIX.get(_ALIASES.get(name, name))
    try:
        if family is not None and len(parts) == 2:
            return family(float(parts[1]))
        if name == "tab" and len(parts) >= 2:
            return load_tabulated_csv(":".join(parts[1:]))
        if name == "match" and len(parts) >= 2:
            from .match import MatchSpec, build_matched_kernel, load_matched_kernel

            rest = ":".join(parts[1:])
            if len(parts) == 2 or rest.endswith(".json"):   # a saved kernel, whatever its suffix
                return load_matched_kernel(rest)
            base = kernel_from_spec(":".join(parts[1:-1]))
            return build_matched_kernel(MatchSpec(base=base, m=float(parts[-1])))
    except ValueError as exc:
        raise InvalidKernel(f"bad kernel spec {spec!r}: {exc}") from exc
    raise InvalidKernel(f"unknown kernel spec {spec!r}; valid families: {_FAMILIES}")


def load_tabulated_csv(path: str) -> TabulatedSymmetric:
    """Load a tabulated symmetric kernel from CSV `x,density` (header row).

    x must start at 0 and increase in uniform steps.
    """
    from .simulate import ParseError, read_columns

    try:
        x, ds = read_columns(path, ["x", "density"])
    except ParseError as exc:
        raise InvalidKernel(str(exc)) from exc
    dx = x[1] - x[0] if len(x) > 1 else 0.0
    if not (dx > 0 and abs(x[0]) <= 1e-9 * dx and np.max(np.abs(np.diff(x) - dx)) <= 1e-9 * dx):
        raise InvalidKernel(f"{path}: x column must start at 0 and increase uniformly")
    return TabulatedSymmetric(ds, float(dx))
