"""Push-sum ratio consensus and its row-stochastic companion chain.

Agents hold a value vector ``x_i`` and a scalar weight ``y_i`` (started at
1) and repeatedly push scaled copies along the current graph:

    x(t+1) = W(t) x(t),    y(t+1) = W(t) y(t).

Because the ``W(t)`` are column-stochastic, total mass is conserved and the
ratio ``z_i = x_i / y_i`` of every agent converges to the network average of
the initial values whenever the graph sequence stays jointly connected.

Each step also induces a row-stochastic companion matrix

    S[i, j] = W[i, j] * y_j / (W y)_i

acting directly on the ratios.  Products of the two families are tied
entry-by-entry through the running weights, which is what makes the ratio
dynamics analyzable as an inhomogeneous averaging chain; the normalized
weights ``y(t)/n`` form an absolute probability sequence for that chain.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .weights import WeightMatrix, WeightStack

__all__ = [
    "NetworkState",
    "RunFailure",
    "SMatrix",
    "CompanionView",
    "AbsProbSeq",
    "TheoryConstants",
    "initial_state",
    "pushsum_step",
    "ratio_state",
    "check_weight_floor",
    "build_s_matrix",
    "companion_series",
    "product_identity_residuals",
    "absolute_probability",
    "theory_constants",
]

Y_FLOOR = 1e-300
# How far sum(y) may stray from n before absolute_probability refuses the
# weights; companion_series takes y/n as it is, and the harness reports
# the drift through its own, tighter weight-mass check instead.
APS_MASS_TOL = 1e-6
# The longest product the exchange identity is checked over.
PRODUCT_SPAN = 50


@dataclass(frozen=True)
class NetworkState:
    """Joint state (t, x, y) of all agents; x has shape (n, d), y shape (n,)."""

    t: int
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        if x.ndim != 2:
            raise ValueError("x must have shape (n, d)")
        if y.shape != (x.shape[0],):
            raise ValueError("y must have shape (n,)")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def initial_state(x0: np.ndarray) -> NetworkState:
    """State at t=0 with unit weights on every agent."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    return NetworkState(t=0, x=x0, y=np.ones(x0.shape[0]))


def pushsum_step(state: NetworkState, w: WeightMatrix) -> NetworkState:
    """One mixing step x' = W x, y' = W y."""
    if w.n != state.n:
        raise ValueError(f"weight matrix is {w.n}x{w.n} but state has n={state.n}")
    return NetworkState(
        t=state.t + 1,
        x=w.entries @ state.x,
        y=w.entries @ state.y,
    )


class RunFailure(RuntimeError):
    """A check inside a run failed.

    ``check`` names the check, ``agent`` is the 1-based agent it names
    (None when it concerns the network as a whole) and ``t`` the step;
    the message is the human-readable account.
    """

    def __init__(self, check: str, agent: int | None, t: int, message: str) -> None:
        super().__init__(message)
        self.check = check
        self.agent = agent
        self.t = t


def check_weight_floor(t: int, y: np.ndarray) -> None:
    """Raise RunFailure if any weight of y, the weights at step t, has
    collapsed numerically.

    On connected runs the weights stay bounded away from zero, so a hit
    here points at a broken weight matrix upstream rather than at normal
    dynamics.
    """
    low = y <= Y_FLOOR
    if low.any():
        bad = [int(i) + 1 for i in np.flatnonzero(low)]
        raise RunFailure(
            "weight-underflow", bad[0], t,
            f"push-sum weight underflow at t={t} for agents {bad}: "
            f"min y = {y.min():.3e}",
        )


def ratio_state(state: NetworkState) -> np.ndarray:
    """Per-agent ratio estimates z_i = x_i / y_i, shape (n, d); raises
    RunFailure if a weight has collapsed (see check_weight_floor)."""
    check_weight_floor(state.t, state.y)
    return state.x / state.y[:, None]


@dataclass(frozen=True)
class SMatrix:
    """Row-stochastic companion of one push-sum step.

    Its smallest positive entry is bounded below by beta * min_i y_i / n
    on any step whose weight matrix honors the beta floor, so the
    companion chain inherits uniformly positive diagonals from the
    original weights.
    """

    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=float)
        # A read-only array is shared; anything the caller could still
        # change is copied first.
        if e.flags.writeable:
            e = np.array(e)
            e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def build_s_matrix(w: WeightMatrix | np.ndarray, y: np.ndarray) -> SMatrix:
    """Companion matrix S[i, j] = W[i, j] y_j / (W y)_i for current weights
    y; ``w`` is the WeightMatrix or its entries."""
    w = w.entries if isinstance(w, WeightMatrix) else w
    n = w.shape[0]
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"y must have shape ({n},)")
    if (y <= 0).any():
        raise ValueError("companion matrix needs strictly positive weights y")
    denom = w @ y
    if (denom <= 0).any():
        raise ValueError("W y has a nonpositive entry; weight support is broken")
    s = w * y[None, :] / denom[:, None]
    s.setflags(write=False)
    return SMatrix(s)


class CompanionView(Sequence[SMatrix]):
    """The companions S(t) of a run, rebuilt on every read as
    ``build_s_matrix(ws[t], ys[t])``.

    S(t) depends only on W(t) and y(t), so each read is bitwise the matrix
    the run used, and no list of n-by-n matrices is kept.  A slice is the
    view of those steps.
    """

    def __init__(self, ws: WeightStack, ys: np.ndarray) -> None:
        self.ws, self.ys = ws, ys

    def __len__(self) -> int:
        return len(self.ys)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return CompanionView(self.ws[t], self.ys[t])
        return build_s_matrix(self.ws[t], self.ys[t])


def companion_series(
    ws: WeightStack, ys: np.ndarray, y_last: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """The companion chain of a finished T-step run (weights W(0..T-1)
    ``ws``, y(0..T-1) ``ys`` and y(T) ``y_last``) in one pass over the
    weight blocks: the product gap max|S(t)...S(0) - 1/n| and the
    recursion residual ||pi(t+1)^T S(t) - pi(t)^T||_inf of pi = y/n, both
    (T,), and the largest deviation of any pi(t) from a probability vector.
    S(t) is build_s_matrix(W(t), y(t)), whose divisor W(t) y(t) is y(t+1),
    and the residuals are AbsProbSeq's, bitwise."""
    steps, n = ys.shape
    if len(ws) != steps:
        raise ValueError(f"need {steps} weight matrices, got {len(ws)}")
    gap, recursion = np.empty(steps), np.empty(steps)
    mass, least = np.empty(steps + 1), np.empty(steps + 1)  # |sum pi(t) - 1|, min pi(t)
    prod, lo = np.eye(n), 0
    for block in ws.blocks():
        hi = lo + len(block)
        y = np.vstack([ys[lo:hi], ys[hi] if hi < steps else y_last])  # y(lo..hi)
        pi = y / n
        mass[lo : hi + 1] = np.abs(pi.sum(axis=1) - 1.0)
        least[lo : hi + 1] = pi.min(axis=1)
        for k, w in enumerate(block):
            s = w * y[k] / y[k + 1][:, None]
            prod = s @ prod
            gap[lo + k] = np.abs(prod - 1.0 / n).max()
            recursion[lo + k] = np.abs(pi[k + 1] @ s - pi[k]).max()
        lo = hi
        del block, w, s  # free them before the next block is built
    return gap, recursion, float(max(mass.max(), max(0.0, float(-least.min()))))


def product_identity_residuals(ws: WeightStack, ys: np.ndarray) -> np.ndarray:
    """Worst exchange-identity residual for each start tau of a T-step
    run, from the stack W(0..T-1) ``ws`` and y(0..T) ``ys`` (T+1, n).

    P_S = S(t-1)...S(tau) and P_W = W(t-1)...W(tau) satisfy
    P_S[i, j] * y_i(t) = P_W[i, j] * y_j(tau) in exact arithmetic; entry
    tau is the largest mismatch over all (i, j) and t = tau+1 .. min(T,
    tau + PRODUCT_SPAN), NaN if any is NaN.  Each S(k) is built once, and
    both products grow by one dense left multiplication per t.

    The stack is read one step at a time (a step costs far less than its
    PRODUCT_SPAN products), so no block of weights outlives its step.
    Step k is kept as one index, the flat positions where W(k) or S(k)
    has a nonzero bit pattern (NaN and -0.0 included; S(k) is nonzero off
    W(k)'s support when y(k) holds a NaN), in the narrowest unsigned type,
    with W(k)'s and S(k)'s values at it: 16 B plus the index's itemsize
    per kept entry.  Dense weights keep every entry, at worst 9/8 of two
    T*n*n float stacks (5/4 once n > 256 needs a 4-byte index).  Each load
    clears the previous step's entries in one pair of n-by-n buffers and
    writes this step's, so memory is O(T * nonzeros + n^2) and every
    residual is bitwise the dense one's.
    """
    steps, n = len(ws), ws.n
    if ys.shape != (steps + 1, n):
        raise ValueError(f"need {steps + 1} weight vectors of length {n}, got {ys.shape}")
    kept = []
    for step, y in zip(ws, ys):
        w, s = step.entries, build_s_matrix(step, y).entries
        idx = np.flatnonzero(w.view(np.uint64) | s.view(np.uint64))
        kept.append((idx.astype(np.min_scalar_type(n * n - 1)), np.take(w, idx), np.take(s, idx)))
    w, s, idx = np.zeros((n, n)), np.zeros((n, n)), np.empty(0, dtype=np.intp)
    w_flat, s_flat = w.ravel(), s.ravel()
    out = np.empty(steps)
    for tau in range(steps):
        worst = 0.0
        for k in range(tau, min(steps, tau + PRODUCT_SPAN)):
            w_flat[idx] = s_flat[idx] = 0.0  # the previous step's entries
            # intp indices scatter about twice as fast as the narrow kept ones
            idx = kept[k][0].astype(np.intp)
            w_flat[idx], s_flat[idx] = kept[k][1:]
            ps = s.copy() if k == tau else s @ ps
            pw = w.copy() if k == tau else w @ pw
            # np.maximum, unlike max(), keeps a NaN
            worst = np.maximum(worst, np.abs(ps * ys[k + 1][:, None] - pw * ys[tau][None, :]).max())
        out[tau] = worst
    return out


def absolute_probability(y: np.ndarray) -> np.ndarray:
    """Probability vector y/n attached to the companion chain at one step."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    mass = float(y.sum())
    if abs(mass - n) > APS_MASS_TOL:
        raise RuntimeError(
            f"weight mass {mass!r} strayed from n={n}; mixing matrices "
            "upstream are not column-stochastic"
        )
    return y / n


@dataclass(frozen=True)
class AbsProbSeq:
    """Stacked probability vectors pi(t) = y(t)/n, one row per step."""

    vectors: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 2:
            raise ValueError("vectors must have shape (steps, n)")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @classmethod
    def from_weight_history(cls, ys: Sequence[np.ndarray]) -> "AbsProbSeq":
        return cls(vectors=np.stack([absolute_probability(y) for y in ys]))

    def stochasticity_residual(self) -> float:
        """Max deviation of any row from being a probability vector."""
        v = self.vectors
        sum_err = np.abs(v.sum(axis=1) - 1.0).max()
        neg_err = max(0.0, float(-v.min()))
        return float(max(sum_err, neg_err))

    def recursion_residual(self, ss: Sequence[SMatrix]) -> np.ndarray:
        """Per-step residual ||pi(t)^T - pi(t+1)^T S(t)||_inf.

        Zero (to rounding) exactly when the rows form an absolute
        probability sequence for the companion chain.
        """
        v = self.vectors
        steps = v.shape[0] - 1
        if len(ss) < steps:
            raise ValueError(f"need {steps} companion matrices, got {len(ss)}")
        res = np.empty(steps)
        for t in range(steps):
            res[t] = np.abs(v[t + 1] @ ss[t].entries - v[t]).max()
        return res


@dataclass(frozen=True)
class TheoryConstants:
    """A-priori contraction envelope for a jointly connected sequence.

    For n agents whose unions over every window of L steps are strongly
    connected, the agent weights obey y_i(t) >= eta with
    eta = n**(-n*L), and the companion products approach their limit at
    geometric rate mu = (1 - n**(-n*L))**(1/L), with leading factor c = 4.
    These floors shrink astronomically fast in n and L, so the log-space
    fields are the reliable representation; ``vacuous`` flags parameter
    ranges where the float versions round to 0 or 1 and the envelope no
    longer separates anything at machine precision.
    """

    eta: float
    mu: float
    c: float
    log_eta: float
    log_mu: float
    vacuous: bool


def theory_constants(n: int, L: int) -> TheoryConstants:
    """Worst-case (eta, mu, c) for n agents and connectivity window L."""
    if n < 1 or L < 1:
        raise ValueError("n and L must be positive")
    log_eta = -n * L * math.log(n)  # 0.0 when n == 1
    eta = math.exp(log_eta)
    if n == 1:
        log_mu = float("-inf")
        mu = 0.0
    else:
        # log mu = log(1 - eta)/L, kept accurate for tiny eta.
        log_mu = math.log1p(-eta) / L if eta > 0 else 0.0
        mu = math.exp(log_mu)
    vacuous = eta == 0.0 or mu >= 1.0
    return TheoryConstants(eta=eta, mu=mu, c=4.0, log_eta=log_eta, log_mu=log_mu, vacuous=vacuous)
