"""Finite-time optimality-gap certificates and rate fits.

Two bound families are evaluated, both certifying the stepsize-weighted
running average of the network mean (or of a single agent's estimates):

* time-varying stepsizes satisfying the decay conditions (positive,
  nonincreasing, divergent sum, square-summable) get a four-term bound
  valid at every step t;
* the fixed stepsize 1/sqrt(T) over a declared horizon T gets a
  four-term bound at the horizon, with every term O(1/sqrt(T)).

The four summands are kept separate in a fixed semantic order:

  1. distance    - initial distance to the optimum plus stepsize energy,
  2. spread      - initial disagreement between agents,
  3. mass        - memory of the initial aggregate state, geometric decay,
  4. tail        - stepsize bleed-through of imperfect consensus.

All constants enter through (eta, mu): eta lower-bounds the push-sum
weights, mu is the geometric mixing rate of the companion chain.  The
caller may supply either the a-priori worst-case pair (astronomically
conservative, held in log space because the floats degenerate) or an
empirical pair measured from the run.  Powers of mu are always taken
through log space so that mu indistinguishable from 1.0 still produces
finite, valid (if huge) certificates.

In a single-agent network the consensus machinery is inactive and the
mixing-rate constants degenerate (mu = 0), so the consensus-driven
summands are reported as zero: terms 3 and 4 of the time-varying bound,
and term 4 of the fixed-stepsize bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .subgradient import StepsizeSchedule, validate_schedule

__all__ = [
    "BoundInputs",
    "BoundReport",
    "BoundSeries",
    "ContractionSeries",
    "RateFit",
    "GeometricFit",
    "timevarying_series",
    "bound_fixed",
    "agent_series",
    "contraction_series",
    "fit_rate",
    "fit_geometric_rate",
]


@dataclass(frozen=True)
class BoundInputs:
    """One run's constants, initial state and stepsizes.

    ``z0`` is the (n, d) start (every run starts at y(0) = 1, so x(0) =
    ``z0``), ``g0`` has its shape and ``z_star`` shape (d,); nothing is
    reshaped.  ``n`` and the mean ``z_bar0`` (the rows summed, then divided
    by n: bitwise a trace's ``zbar[0]``) are read from ``z0``.  A series
    covers every step of ``alphas``, and its row t depends only on
    ``alphas[:t+1]``.  ``log_mu`` < 0 (-inf for mu = 0) stays exact where
    worst-case mu rounds to 1.0; ``one_minus_mu`` is derived from it
    without cancellation, and ``decay_ok`` says whether ``schedule`` meets
    the decay conditions.
    """

    G: float
    eta: float
    log_mu: float
    z0: np.ndarray
    z_star: np.ndarray
    g0: np.ndarray
    alphas: np.ndarray
    schedule: StepsizeSchedule
    z_bar0: np.ndarray = field(init=False)
    one_minus_mu: float = field(init=False)
    decay_ok: bool = field(init=False)

    def __post_init__(self) -> None:
        z0 = np.asarray(self.z0, dtype=float)
        if z0.ndim != 2 or 0 in z0.shape:
            raise ValueError(f"z0 must have shape (n, d) with n, d positive, got {z0.shape}")
        n, d = z0.shape
        object.__setattr__(self, "z_bar0", z0.sum(axis=0) / n)
        for name, shape in (("z0", (n, d)), ("g0", (n, d)), ("z_star", (d,)), ("z_bar0", (d,))):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {v.shape}")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        if self.G <= 0:
            raise ValueError("subgradient ceiling G must be positive")
        if not 0 < self.eta <= n:
            raise ValueError(f"eta must lie in (0, n], got {self.eta}")
        if not self.log_mu < 0:
            raise ValueError("log(mu) must be negative: the chain must contract")
        object.__setattr__(self, "log_mu", float(self.log_mu))
        # positive for every log_mu < 0, -inf included
        object.__setattr__(self, "one_minus_mu", -math.expm1(self.log_mu))
        a = np.asarray(self.alphas, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("alphas must be a nonempty vector")
        a.setflags(write=False)
        object.__setattr__(self, "alphas", a)
        decay_ok = validate_schedule(self.schedule).assumption == "satisfied"
        object.__setattr__(self, "decay_ok", decay_ok)

    @property
    def n(self) -> int:
        return self.z0.shape[0]

    @property
    def initial_mass(self) -> np.ndarray:
        """sum_i (x_i(0) + alpha(0) g_i(0)), the aggregate the mass term remembers."""
        return (self.z0 + self.alphas[0] * self.g0).sum(axis=0)

    def spread_sum(self, ref: np.ndarray) -> float | list[float]:
        """sum_i (||z_bar0 - z_i0|| + ||ref - z_i0||); a list of one per row of refs (k, d)."""
        da = np.sqrt(((self.z0 - self.z_bar0) ** 2).sum(axis=1))
        db = np.sqrt(((self.z0 - np.asarray(ref, dtype=float)[..., None, :]) ** 2).sum(axis=-1))
        return (da + db).sum(axis=-1).tolist()

    @cached_property
    def memory(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(||m0||, mu^t, alpha(0) mu^(t/2) + alpha(ceil(t/2))) for each step
        t, which the decaying certificate and the envelopes both read."""
        a, ts = self.alphas, np.arange(self.alphas.size, dtype=float)
        halves = a[0] * _mu_powers(self.log_mu, ts / 2.0) + a[np.arange(1, a.size + 1) // 2]
        return float(np.sqrt((self.initial_mass ** 2).sum())), _mu_powers(self.log_mu, ts), halves


def _mu_powers(log_mu: float, ks: np.ndarray) -> np.ndarray:
    out = np.empty(ks.shape)
    nz = ks != 0
    out[~nz] = 1.0
    with np.errstate(over="ignore"):
        out[nz] = np.exp(ks[nz] * log_mu)
    return out


@dataclass(frozen=True)
class BoundSeries:
    """Certificates for one or more steps, held as read-only arrays.

    ``ts`` (float), ``terms`` of shape (len(ts), 4) and ``total`` line up
    row by row: the step, its four summands in order and their total.
    """

    ts: np.ndarray
    terms: np.ndarray
    total: np.ndarray

    def __post_init__(self) -> None:
        for name in ("ts", "terms", "total"):
            getattr(self, name).setflags(write=False)


def _exclusive_cumsum(x: np.ndarray) -> np.ndarray:
    """[0, x0, x0 + x1, ...]: the sums over steps strictly before each t."""
    out = np.zeros(x.size + 1)
    np.cumsum(x, out=out[1:])
    return out


def timevarying_series(inp: BoundInputs) -> BoundSeries:
    """The network's certificates for every step of ``inp.alphas`` under a decaying stepsize.

    The stepsize prefix sums are sequential cumulative sums, so the
    reported numbers are exactly the finite sums they claim to be, added
    in step order.  Each term keeps the left-to-right operation order of
    its formula, so every entry rounds as the one-step evaluation would.
    With tiny worst-case constants the memory terms may overflow to inf:
    such a certificate is valid but vacuous.
    """
    if not inp.decay_ok:
        raise ValueError("time-varying bound needs a stepsize satisfying the decay conditions "
                         "(positive, nonincreasing, divergent sum, square-summable)")
    a = inp.alphas
    dist0_sq = float(((inp.z_bar0 - inp.z_star) ** 2).sum())
    spread = inp.spread_sum(inp.z_bar0)

    ts = np.arange(a.size, dtype=float)
    sum_a = np.cumsum(a)
    sum_a2 = np.cumsum(a * a)
    t1 = (dist0_sq + inp.G ** 2 * sum_a2) / (2.0 * sum_a)
    t2 = inp.G * a[0] * spread / (inp.n * sum_a)
    t3 = t4 = np.zeros(a.size)
    if inp.n > 1:
        # sum_{tau<t} alpha(tau) mu^tau and
        # sum_{tau<t} alpha(tau) (alpha(0) mu^(tau/2) + alpha(ceil(tau/2)))
        mass_norm, pow_t, halves = inp.memory
        mass_acc = _exclusive_cumsum(a[:-1] * pow_t[:-1])
        tail_acc = _exclusive_cumsum(a[:-1] * halves[:-1])
        with np.errstate(over="ignore"):
            t3 = 32.0 * inp.G * mass_norm * mass_acc / (inp.eta * sum_a)
            t4 = (
                32.0 * inp.n * inp.G ** 2 * tail_acc
                / (inp.eta * inp.one_minus_mu * sum_a)
            )
    with np.errstate(over="ignore"):
        total = t1 + t2 + t3 + t4
    return BoundSeries(ts=ts, terms=np.stack([t1, t2, t3, t4], axis=1), total=total)


def bound_fixed(inp: BoundInputs) -> BoundSeries:
    """The network's certificate at the horizon T of ``inp.schedule`` for
    the constant stepsize 1/sqrt(T): the one-row series at t = T."""
    if inp.schedule.kind != "fixed":
        raise ValueError("fixed-horizon bound needs a fixed 1/sqrt(T) schedule")
    T = inp.schedule.T
    sqrt_t = math.sqrt(T)
    dist0_sq = float(((inp.z_bar0 - inp.z_star) ** 2).sum())
    spread = inp.spread_sum(inp.z_bar0)
    mass = (inp.z0 + inp.g0 / sqrt_t).sum(axis=0)
    mass_norm = float(np.sqrt((mass ** 2).sum()))
    t1 = (dist0_sq + inp.G ** 2) / (2.0 * sqrt_t)
    t2 = inp.G * spread / (inp.n * T)
    t3 = 32.0 * inp.G * mass_norm / (inp.eta * inp.one_minus_mu * T)
    t4 = (
        0.0 if inp.n == 1
        else 32.0 * inp.n * inp.G ** 2 / (inp.eta * inp.one_minus_mu * sqrt_t)
    )
    terms = (t1, t2, t3, t4)
    return BoundSeries(
        ts=np.array([float(T)]), terms=np.array([terms]), total=np.array([sum(terms)]),
    )


def agent_series(inp: BoundInputs, network: BoundSeries) -> Iterator[BoundSeries]:
    """Each agent's certificate, in agent order, from ``network``, the
    network's of the same ``inp``: only term 2 depends on whose average is
    certified, and it takes the spread about z_i0 instead of z_bar0."""
    fixed = inp.schedule.kind == "fixed"
    scale = inp.G if fixed else inp.G * inp.alphas[0]
    den = inp.n * (inp.schedule.T if fixed else np.cumsum(inp.alphas))
    for spread in inp.spread_sum(inp.z0):
        terms = network.terms.copy()
        terms[:, 1] = scale * spread / den
        with np.errstate(over="ignore"):  # ((t1 + t2) + t3) + t4, as the network's
            total = terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]
        yield BoundSeries(ts=network.ts, terms=terms, total=total)


@dataclass(frozen=True)
class ContractionSeries:
    """Per-step envelopes for the one-step consensus deviation.

    ``geometric[t]`` bounds the deviation after step t by
    (8/eta) mu^t ||m0|| + (8 n G / eta) sum_{s<=t} mu^(t-s) alpha(s);
    ``refined`` replaces the convolution by its split-sum estimate
    (alpha(0) mu^(t/2) + alpha(ceil(t/2))) / (1 - mu) and is only defined
    when the stepsize satisfies the decay conditions.
    """

    geometric: np.ndarray
    refined: np.ndarray | None


def contraction_series(inp: BoundInputs) -> ContractionSeries:
    """Evaluate both envelope forms for every step of ``inp.alphas``."""
    a = inp.alphas
    mass_norm, pow_t, halves = inp.memory
    lead = (8.0 / inp.eta) * mass_norm * pow_t

    mu = math.exp(inp.log_mu)  # rounding up toward 1.0 only loosens the bound
    conv = np.empty(a.size)
    acc = 0.0
    for t in range(a.size):
        acc = mu * acc + a[t]
        conv[t] = acc
    # Tiny worst-case constants may overflow to inf, a valid but vacuous
    # envelope (as in timevarying_series).
    with np.errstate(over="ignore"):
        geometric = lead + (8.0 * inp.n * inp.G / inp.eta) * conv
        refined = None
        if inp.decay_ok:
            refined = lead + (
                8.0 * inp.n * inp.G / (inp.eta * inp.one_minus_mu)
            ) * halves
    return ContractionSeries(geometric=geometric, refined=refined)


@dataclass(frozen=True)
class BoundReport:
    """A certificate series lined up against what the run actually did."""

    label: str
    ts: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    terms: np.ndarray  # shape (len(ts), 4)

    @property
    def margins(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def min_margin(self) -> float:
        return float(self.margins.min())

    @property
    def argmin_t(self) -> int:
        return int(self.ts[int(self.margins.argmin())])

    @property
    def ok(self) -> bool:
        return bool(self.min_margin >= 0.0)


# --------------------------------------------------------------------------
# rate fitting
# --------------------------------------------------------------------------

def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope and r^2 of the least-squares line through points whose x are
    not all equal, in closed form (no LAPACK call); constant targets count
    as perfect."""
    if y.min() == y.max():  # exactly, which their rounded mean need not show
        return 0.0, 1.0
    dx = x - x.mean()
    y_mean = y.mean()
    slope = float((dx * (y - y_mean)).sum() / (dx * dx).sum())
    resid = y - (y_mean + slope * dx)
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((y - y_mean) ** 2).sum())
    if ss_tot <= 1e-300:
        r2 = 1.0 if ss_res <= 1e-300 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, r2


@dataclass(frozen=True)
class RateFit:
    """Log-log decay fit of gap against horizon."""

    slope: float
    r2: float
    n_used: int
    exact: bool      # every gap was zero to machine noise; no fit possible


def fit_rate(points: Sequence[tuple[float, float]]) -> RateFit:
    """Fit log(gap) ~ slope * log(T) over (T, gap) pairs.

    Nonpositive gaps are exact-convergence artifacts; they are excluded
    from the fit and, if fewer than two positive gaps remain, the whole
    result is flagged exact instead of fitted.
    """
    if len(points) < 3:
        raise ValueError(f"need at least 3 points to fit a rate, got {len(points)}")
    kept = [(float(T), float(g)) for (T, g) in points if g > 0.0]
    if len(kept) < 2:
        return RateFit(slope=float("nan"), r2=1.0, n_used=0, exact=True)
    xs = np.log([T for (T, _) in kept])
    ys = np.log([g for (_, g) in kept])
    slope, r2 = _linear_fit(xs, ys)
    return RateFit(slope=slope, r2=r2, n_used=len(kept), exact=False)


@dataclass(frozen=True)
class GeometricFit:
    """Log-linear decay fit value(t) ~ coeff * rho^t."""

    rho: float
    r2: float
    n_used: int
    exact: bool


GEOMETRIC_FLOOR = 1e-13
GEOMETRIC_MIN_POINTS = 4


def fit_geometric_rate(values: np.ndarray) -> GeometricFit:
    """Fit a geometric decay rate to a nonnegative series.

    Entries at or below ``GEOMETRIC_FLOOR`` are treated as
    converged-to-noise and ignored.  The fit uses the second half of the
    above-floor range so the transient does not bias the asymptotic rate;
    if that leaves fewer than ``GEOMETRIC_MIN_POINTS`` points the whole
    above-floor range is used.  A series with fewer than two usable points
    reports exact convergence with rate 0.
    """
    v = np.asarray(values, dtype=float)
    above = np.flatnonzero(v > GEOMETRIC_FLOOR)
    if above.size < 2:
        return GeometricFit(rho=0.0, r2=1.0, n_used=0, exact=True)
    window = above[above.size // 2 :]
    if window.size < GEOMETRIC_MIN_POINTS:
        window = above
    slope, r2 = _linear_fit(window.astype(float), np.log(v[window]))
    return GeometricFit(rho=float(math.exp(slope)), r2=r2, n_used=int(window.size), exact=False)
