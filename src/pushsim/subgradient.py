"""Distributed subgradient descent driven by push-sum mixing.

Each agent privately holds one convex term f_i and the network minimizes
the average f = (1/n) sum_i f_i.  A step first moves every agent's mass
against its local subgradient, evaluated at the agent's current ratio
estimate, and then mixes through the column-stochastic weights:

    x(t+1) = W(t) [ x(t) - alpha(t) g(t) ],    y(t+1) = W(t) y(t),

with g_i(t) a subgradient of f_i at z_i(t) = x_i(t) / y_i(t).  Ratios
track the running network average of the descent iterates, so with a
divergent-but-square-summable stepsize every agent's weighted running
average approaches an optimum of f.

Objectives come from three term families (squared distance, absolute
deviation, hinge) plus an all-zero placeholder; each holds its per-agent
parameters as arrays and declares a certified optimum and a
subgradient-norm ceiling on a bounding box.  A single term
(QuadraticTerm, AbsoluteTerm, HingeTerm, ZeroTerm) is the one-agent
objective of its family, so each family has one formula.  A run raises
RunFailure if a trajectory ever leaves the box, a subgradient beats the
declared ceiling, a weight underflows or the certified optimum is
beaten.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .graphs import row_blocks
from .pushsum import (
    Y_FLOOR,
    CompanionView,
    NetworkState,
    RunFailure,
    check_weight_floor,
)
from .weights import WeightMatrix, WeightStack

__all__ = [
    "ObjectiveSpec",
    "StepsizeSchedule",
    "ScheduleReport",
    "RunTrace",
    "quadratic_objective",
    "l1_objective",
    "hinge_objective",
    "zero_objective",
    "QuadraticTerm",
    "AbsoluteTerm",
    "HingeTerm",
    "ZeroTerm",
    "subgradient",
    "stepsize",
    "stepsize_array",
    "validate_schedule",
    "run_push_subgradient",
    "mean_and_consensus",
    "running_average_gaps",
    "certified_gaps",
]

GAP_NOISE_TOL = 1e-12
_UNBOUNDED = (-math.inf, math.inf)  # the whole space; _uncertified broadcasts each end over d


# --------------------------------------------------------------------------
# network objective
# --------------------------------------------------------------------------

# The per-agent parameter arrays each objective family holds.
_PARAMETERS = {"quadratic": ("targets",), "l1": ("targets",), "hinge": ("normals", "labels"), "zero": ()}


@dataclass(frozen=True)
class ObjectiveSpec:
    """The network objective f = (1/n) sum_i f_i with its certified optimum.

    Every agent's term comes from the one family ``kind``: "quadratic"
    and "l1" hold agent i's target in row i of ``targets`` (n, d),
    "hinge" holds its normal in row i of ``normals`` (n, d) and its
    label (+1 or -1) in ``labels`` (n,), and "zero" holds neither.
    Values, subgradients and the box test are one array expression over
    all agents; with n = 1 the objective is a single term.
    ``g_bound`` upper-bounds every agent's subgradient norm on the box
    [box_lo, box_hi]; ``z_star`` and ``f_star`` are a certified minimizer
    and minimum value, with ``optimum_provenance`` recording how they
    were obtained ("analytic-mean", "analytic-median", "exact-vertex", or
    "zero").
    """

    kind: str
    n: int
    d: int
    g_bound: float
    box_lo: np.ndarray
    box_hi: np.ndarray
    z_star: np.ndarray
    f_star: float
    optimum_provenance: str
    targets: np.ndarray | None = None
    normals: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in _PARAMETERS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("objective needs at least one term")
        for name in ("box_lo", "box_hi", "z_star"):
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if v.shape != (self.d,):
                raise ValueError(f"{name} must have shape ({self.d},)")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        for name in _PARAMETERS[self.kind]:
            shape = (self.n,) if name == "labels" else (self.n, self.d)
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        if self.kind == "hinge":
            bad = self.labels[(self.labels != 1.0) & (self.labels != -1.0)]
            if bad.size:
                raise ValueError(f"label must be -1 or +1, got {bad[0]}")

    def _margins(self, zs: np.ndarray) -> np.ndarray:
        """Hinge margins 1 - label_i * normal_i . z_i for every agent i; zs
        has shape (..., n, d) or (..., 1, d).

        The stacked product takes one dot product per agent and point,
        which rounds exactly like ``normal_i @ z`` (``normals @ z`` would
        not).
        """
        dots = (self.normals[:, None, :] @ zs[..., :, None])[..., 0, 0]
        return 1.0 - self.labels * dots

    def _agent_values(self, zs: np.ndarray) -> np.ndarray:
        """f_i at zs[..., i, :] for every agent i; zs broadcasts against (n, d)."""
        if self.kind == "quadratic":
            return ((zs - self.targets) ** 2).sum(axis=-1)
        if self.kind == "l1":
            return np.abs(zs - self.targets).sum(axis=-1)
        if self.kind == "hinge":
            return np.maximum(0.0, self._margins(zs))
        return np.zeros(zs.shape[:-1])

    def value(self, z: np.ndarray) -> float:
        return float(self.value_batch(np.asarray(z, dtype=float)[None, :])[0])

    def value_batch(self, zs: np.ndarray) -> np.ndarray:
        """f at each row of zs, shape (m, d) -> (m,); row k is bitwise
        ``value(zs[k])``.  The agents are added in order (ndarray.sum
        would pair them up), one chunk of rows (:func:`_series_chunks`)
        at a time."""
        zs = np.asarray(zs, dtype=float)
        total = np.zeros(zs.shape[0])
        for rows in _series_chunks(zs.shape[0], self.n, self.d):
            _add_columns(total[rows], self._agent_values(zs[rows, None, :]))
        return total / self.n

    def agent_subgradients(self, zs: np.ndarray) -> np.ndarray:
        """Stack g_i = subgradient of f_i at z_i; zs has shape (n, d)."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        if zs.shape != (self.n, self.d):
            raise ValueError(f"expected ratios of shape ({self.n}, {self.d})")
        return self._subgradients(zs)

    def _subgradients(self, zs: np.ndarray) -> np.ndarray:
        """:meth:`agent_subgradients` on floats of shape (..., n, d), as a
        fresh array; each (n, d) row is bitwise its own call's."""
        if self.kind == "quadratic":
            g = zs - self.targets
            return np.multiply(g, 2.0, out=g)
        if self.kind == "l1":
            # np.sign maps a kink to 0, a valid subgradient.
            g = zs - self.targets
            return np.sign(g, out=g)
        if self.kind == "hinge":
            active = self._margins(zs) > 0.0
            return np.where(active[..., None], -self.labels[:, None] * self.normals, 0.0)
        return np.zeros(zs.shape)

    def in_box(self, zs: np.ndarray, slack: float = 1e-9) -> np.ndarray:
        """Per-row box membership of zs, shape (m, d) -> bool (m,)."""
        zs = np.asarray(zs, dtype=float)
        return ((zs >= self.box_lo - slack) & (zs <= self.box_hi + slack)).all(axis=1)

    def contains(self, z: np.ndarray, slack: float = 1e-9) -> bool:
        return bool(self.in_box(np.atleast_2d(z), slack)[0])


def _series_chunks(rows: int, n: int, d: int) -> Iterator[slice]:
    """Consecutive row slices for the series derived from (rows, n, d)
    arrays, in ``row_blocks`` of ``BLOCK_BYTES``: a chunk holds at most
    two temporaries of n d floats a row."""
    return row_blocks(rows, 16 * n * d)


def _add_columns(total: np.ndarray, columns: np.ndarray) -> None:
    """Add the columns of ``columns`` (m, n) to ``total`` (m,) in order."""
    for c in columns.T:
        total += c


def _default_box(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = targets.min(axis=0)
    hi = targets.max(axis=0)
    pad = 4.0 * (1.0 + (hi - lo)) + 12.0
    return lo - pad, hi + pad


def _uncertified(
    kind: str,
    n: int,
    d: int,
    box: tuple[np.ndarray, np.ndarray],
    g_bound: float | None,
    **arrays: np.ndarray,
) -> ObjectiveSpec:
    """The objective on its box with its ceiling, before its optimum is known."""
    lo, hi = (np.asarray(b, dtype=float) * np.ones(d) for b in box)
    if not (lo < hi).all():
        raise ValueError("bounding box must have box_lo < box_hi")
    spec = ObjectiveSpec(
        kind=kind, n=n, d=d, g_bound=0.0, box_lo=lo, box_hi=hi,
        z_star=np.full(d, np.nan), f_star=math.nan, optimum_provenance="", **arrays,
    )
    if g_bound is not None:
        g = float(g_bound)
    elif kind == "quadratic":
        # Each gradient norm is largest at a box corner.
        reach = np.maximum(np.abs(lo - spec.targets), np.abs(hi - spec.targets))
        g = float(2.0 * np.sqrt((reach ** 2).sum(axis=1)).max())
    elif kind == "l1":
        g = float(math.sqrt(d))
    elif kind == "hinge":
        g = float(np.sqrt((spec.normals ** 2).sum(axis=1)).max())
    else:
        g = 0.0
    if g < 0:
        raise ValueError("g_bound must be nonnegative")
    return replace(spec, g_bound=g)


def quadratic_objective(
    targets: np.ndarray,
    box: tuple[np.ndarray, np.ndarray] | None = None,
    g_bound: float | None = None,
) -> ObjectiveSpec:
    """Each agent pulls toward its own target; the optimum is their mean."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    n, d = targets.shape
    spec = _uncertified("quadratic", n, d, box or _default_box(targets), g_bound, targets=targets)
    z_star = targets.mean(axis=0)
    return replace(spec, z_star=z_star, f_star=spec.value(z_star), optimum_provenance="analytic-mean")


def l1_objective(
    targets: np.ndarray,
    box: tuple[np.ndarray, np.ndarray] | None = None,
    g_bound: float | None = None,
) -> ObjectiveSpec:
    """Absolute deviations from per-agent targets; optimum is the
    coordinatewise median (midpoint convention for even counts)."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    n, d = targets.shape
    spec = _uncertified("l1", n, d, box or _default_box(targets), g_bound, targets=targets)
    z_star = _median(targets)
    return replace(spec, z_star=z_star, f_star=spec.value(z_star), optimum_provenance="analytic-median")


def _median(rows: np.ndarray) -> np.ndarray:
    """``np.median(rows, axis=0)`` bitwise, without the ``numpy.ma`` import
    its first call costs.  Like np.median, it sums the middle one or two
    sorted values from +0.0 (so a middle -0.0 comes out +0.0), divides by
    their count, and gives NaN in a column holding a NaN."""
    s = np.sort(rows, axis=0)
    m, odd = divmod(len(s), 2)
    mid = 0.0 + s[m] if odd else (0.0 + s[m - 1] + s[m]) / 2.0
    return np.where(np.isnan(s[-1]), s[-1], mid)


def hinge_objective(
    normals: np.ndarray,
    labels: Sequence[float],
    box: tuple[np.ndarray, np.ndarray],
    g_bound: float | None = None,
) -> ObjectiveSpec:
    """Per-agent hinge losses on a (mandatory) box, for d <= 2.

    The objective is convex and piecewise linear: linear on every cell of
    the arrangement of the kink lines label_i * normal_i . z = 1 and the
    box faces.  Its minimum over the box is therefore attained at a vertex
    of that arrangement, and the certified optimum is the best vertex, the
    lexicographically smallest one among equal values.
    """
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    n, d = normals.shape
    labels = np.array([float(b) for b in labels])
    if labels.shape != (n,):
        raise ValueError("need one label per normal")
    if d > 2:
        raise ValueError(f"the exact hinge optimum covers d <= 2, got d={d}")
    spec = _uncertified("hinge", n, d, box, g_bound, normals=normals, labels=labels)
    vertices = _hinge_vertices(normals, labels, spec.box_lo, spec.box_hi)
    values = spec.value_batch(vertices)
    best = np.flatnonzero(values == values.min())
    k = best[np.lexsort(vertices[best].T[::-1])[0]]
    return replace(spec, z_star=vertices[k], f_star=float(values[k]), optimum_provenance="exact-vertex")


def _hinge_vertices(
    normals: np.ndarray, labels: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Every vertex inside [lo, hi] of the arrangement of the box faces
    and the hinge kinks normal_i . z = label_i (where label_i normal_i . z
    = 1, as labels are +-1), shape (m, d) with d <= 2.

    A vertex on a box face takes that face's coordinate exactly; only the
    other coordinate is solved for, so no rounding moves it off the box.
    """

    def inside(zs: np.ndarray) -> np.ndarray:
        return zs[((zs >= lo) & (zs <= hi)).all(axis=1)]

    if normals.shape[1] == 1:
        w = normals[:, 0]
        kinks = labels[w != 0.0] / w[w != 0.0]
        return inside(np.concatenate([lo, hi, kinks])[:, None])
    p, q = normals[:, 0], normals[:, 1]
    corners = np.array([[x, y] for x in (lo[0], hi[0]) for y in (lo[1], hi[1])])
    on_faces = [corners]
    for v in (lo[0], hi[0]):  # vertical faces z_1 = v
        k = q != 0.0
        on_faces.append(np.column_stack([np.full(k.sum(), v), (labels[k] - p[k] * v) / q[k]]))
    for v in (lo[1], hi[1]):  # horizontal faces z_2 = v
        k = p != 0.0
        on_faces.append(np.column_stack([(labels[k] - q[k] * v) / p[k], np.full(k.sum(), v)]))
    i, j = np.triu_indices(normals.shape[0], k=1)
    det = p[i] * q[j] - q[i] * p[j]
    i, j, det = i[det != 0.0], j[det != 0.0], det[det != 0.0]
    crossings = np.column_stack([
        (labels[i] * q[j] - labels[j] * q[i]) / det,
        (p[i] * labels[j] - p[j] * labels[i]) / det,
    ])
    return inside(np.concatenate(on_faces + [crossings]))


def zero_objective(n: int, d: int) -> ObjectiveSpec:
    """All terms identically zero: pure consensus with a trivial optimum."""
    spec = _uncertified("zero", n, d, _UNBOUNDED, None)
    return replace(spec, z_star=np.zeros(d), f_star=0.0, optimum_provenance="zero")


# --------------------------------------------------------------------------
# one-agent terms
# --------------------------------------------------------------------------
# A single term f is the one-agent objective (n = 1) on the unbounded box,
# so its value, batch value and subgradient are ObjectiveSpec's formulas.

def QuadraticTerm(target: np.ndarray) -> ObjectiveSpec:
    """f(z) = ||z - target||^2, subgradient 2 (z - target)."""
    target = np.atleast_1d(np.asarray(target, dtype=float))
    return _uncertified("quadratic", 1, target.size, _UNBOUNDED, None, targets=[target])


def AbsoluteTerm(target: np.ndarray) -> ObjectiveSpec:
    """f(z) = sum_c |z_c - target_c|; at a kink the flat subgradient 0 is used."""
    target = np.atleast_1d(np.asarray(target, dtype=float))
    return _uncertified("l1", 1, target.size, _UNBOUNDED, None, targets=[target])


def HingeTerm(normal: np.ndarray, label: float) -> ObjectiveSpec:
    """f(z) = max(0, 1 - label * normal . z), label -1 or +1.

    On the active side the subgradient is -label * normal; at the kink and
    on the flat side it is 0.
    """
    normal = np.atleast_1d(np.asarray(normal, dtype=float))
    return _uncertified("hinge", 1, normal.size, _UNBOUNDED, None, normals=[normal], labels=[label])


def ZeroTerm(d: int) -> ObjectiveSpec:
    """Identically-zero objective term (useful for pure-consensus runs)."""
    return _uncertified("zero", 1, d, _UNBOUNDED, None)


def subgradient(term: ObjectiveSpec, point: np.ndarray) -> np.ndarray:
    """A subgradient of one term (a one-agent objective) at the given point."""
    if not isinstance(term, ObjectiveSpec) or term.n != 1:
        raise TypeError(f"not an objective term: {term!r}")
    return term.agent_subgradients(np.asarray(point, dtype=float)[None])[0]


def _beaten_message(objective: ObjectiveSpec, gap: float) -> str:
    return (
        f"point beats the declared optimum by {-gap:.3e}; "
        f"certified f* (provenance {objective.optimum_provenance!r}) is invalid"
    )


# --------------------------------------------------------------------------
# stepsize schedules
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StepsizeSchedule:
    """Stepsize rule alpha(t).

    kinds: ``harmonic`` a/(t+1); ``polynomial`` a/(t+1)**p with p >= 0;
    ``fixed`` the constant 1/sqrt(T) defined only for t < T.
    """

    kind: str
    a: float = 1.0
    p: float = 1.0
    T: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("harmonic", "polynomial", "fixed"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind in ("harmonic", "polynomial") and self.a <= 0:
            raise ValueError("scale a must be positive")
        if self.kind == "polynomial" and self.p < 0:
            raise ValueError("exponent p must be nonnegative (stepsizes may not grow)")
        if self.kind == "fixed":
            if self.T is None or self.T < 1:
                raise ValueError("fixed schedule needs a horizon T >= 1")

    @classmethod
    def harmonic(cls, a: float = 1.0) -> "StepsizeSchedule":
        return cls(kind="harmonic", a=a)

    @classmethod
    def polynomial(cls, a: float, p: float) -> "StepsizeSchedule":
        return cls(kind="polynomial", a=a, p=p)

    @classmethod
    def fixed_horizon(cls, T: int) -> "StepsizeSchedule":
        return cls(kind="fixed", T=T)


def stepsize(schedule: StepsizeSchedule, t: int) -> float:
    """alpha(t); for a fixed schedule, t must stay below its horizon."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if schedule.kind == "harmonic":
        return schedule.a / (t + 1)
    if schedule.kind == "polynomial":
        try:
            return schedule.a / (t + 1) ** schedule.p
        except OverflowError:
            # (t+1)**p exceeds the float range, so the quotient underflows.
            return 0.0
    assert schedule.T is not None
    if t >= schedule.T:
        raise ValueError(
            f"fixed schedule is defined for t < T={schedule.T}, got t={t}"
        )
    return 1.0 / math.sqrt(schedule.T)


def stepsize_array(schedule: StepsizeSchedule, steps: int) -> np.ndarray:
    """alpha(0..steps-1) as a vector, each entry bitwise :func:`stepsize`.

    The harmonic and fixed kinds are one array expression (a quotient by
    an exact float is the same rounding); the polynomial kind keeps
    Python's power, which numpy's ``t ** p`` can miss by the last bit.
    """
    if schedule.kind == "harmonic":
        return schedule.a / np.arange(1, steps + 1, dtype=float)
    if schedule.kind == "fixed":
        if steps > schedule.T:
            stepsize(schedule, schedule.T)  # raises: the first step past the horizon
        return np.full(steps, stepsize(schedule, 0))
    return np.array([stepsize(schedule, t) for t in range(steps)])


@dataclass(frozen=True)
class ScheduleReport:
    """Whether a schedule meets the decay conditions."""

    assumption: str          # "satisfied" | "violated" | "not-applicable"
    note: str


def validate_schedule(schedule: StepsizeSchedule) -> ScheduleReport:
    """Classify whether the decay conditions for a time-varying stepsize hold.

    The classification (sum alpha divergent, sum alpha^2 finite) is made
    symbolically from the schedule family; positivity and monotone
    nonincrease are also spot-checked over the first 10,000 values.  Fixed
    schedules are a different regime and report "not-applicable".
    """
    if schedule.kind == "fixed":
        return ScheduleReport("not-applicable", "constant 1/sqrt(T) over a declared horizon")
    vals = stepsize_array(schedule, 10_000)
    noninc = bool((np.diff(vals) <= 0).all()) and bool((vals > 0).all())
    p = 1.0 if schedule.kind == "harmonic" else schedule.p
    ok = 0.5 < p <= 1.0 and noninc
    note = "" if ok else f"p={p} breaks the decay window (need 1/2 < p <= 1)"
    return ScheduleReport("satisfied" if ok else "violated", note)


# --------------------------------------------------------------------------
# the run loop
# --------------------------------------------------------------------------

@dataclass
class RunTrace:
    """Everything recorded along one optimization run.

    Row t (0 <= t < steps) describes the state *before* step t is applied
    together with the stepsize used by that step; the post-run state is
    kept separately in ``final_state``.  It stores the x, y and z rows
    and (steps, d) or (steps,) series.  ``deviation[t]`` is the largest
    distance of any next-step ratio from the network mean of the descended
    values h_j(t) = x_j(t) - alpha(t) g_j(t), i.e. the one-step consensus
    deviation the contraction envelope is meant to dominate, and
    ``gsum[t]`` is sum_i g_i(t); the run's post-loop chunks compute both.
    ``gs`` rebuilds every g(t) from ``zs`` on each read (steps n d floats,
    for tests and the acceptance gate), and ``smatrices`` each S(t).
    """

    n: int
    d: int
    steps: int
    alphas: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    zs: np.ndarray
    zbar: np.ndarray
    zlyap: np.ndarray
    consensus: np.ndarray
    running_gap: np.ndarray
    deviation: np.ndarray
    gsum: np.ndarray
    final_state: NetworkState
    final_zlyap: np.ndarray
    min_y: float
    smatrices: CompanionView
    objective: ObjectiveSpec

    @property
    def gs(self) -> np.ndarray:
        return self.objective._subgradients(self.zs)

    def prefix(self, steps: int) -> RunTrace:
        """The trace of this run's first ``steps`` steps, as views of its rows.

        A run of that length on the same weights, start and stepsizes
        records exactly these numbers, so this stands in for the shorter
        run whenever alpha(t) does not depend on the run length (every
        schedule but ``fixed``).  The state after the last step is row
        ``steps`` of the longer run.
        """
        if not 1 <= steps <= self.steps:
            raise ValueError(f"prefix length must lie in [1, {self.steps}], got {steps}")
        if steps == self.steps:
            return self
        cut = slice(steps)
        return RunTrace(
            n=self.n, d=self.d, steps=steps, alphas=self.alphas[cut],
            xs=self.xs[cut], ys=self.ys[cut], zs=self.zs[cut],
            zbar=self.zbar[cut], zlyap=self.zlyap[cut], consensus=self.consensus[cut],
            running_gap=self.running_gap[cut], deviation=self.deviation[cut], gsum=self.gsum[cut],
            final_state=NetworkState(t=steps, x=self.xs[steps], y=self.ys[steps]),
            final_zlyap=self.zlyap[steps],
            min_y=_least_weight(self.ys[1 : steps + 1]), smatrices=self.smatrices[cut],
            objective=self.objective,
        )


@np.errstate(all="ignore")
def run_push_subgradient(
    ws: Sequence[WeightMatrix],
    x0: np.ndarray,
    objective: ObjectiveSpec,
    schedule: StepsizeSchedule,
) -> RunTrace:
    """Run the full method for len(ws) steps from x(0) = x0, y(0) = 1.

    Parameters
    ----------
    ws : WeightStack or sequence of WeightMatrix
        One mixing matrix per step; its length fixes the run length.  The
        loop reads the weights one block at a time (WeightStack.blocks).
    x0 : array (n, d)
        Initial values; must sit inside the objective's box.
    objective, schedule
        The network objective and stepsize rule.

    The run enforces the declared subgradient ceiling, box containment,
    the weight floor and the certified optimum; a failure raises
    RunFailure naming the check, the agent and the step.  The step loop
    only steps: the stored x, y and z rows, the subgradients, x, y and the
    ratios.  No subgradient is stored; each later pass (``RunTrace.gs``
    too) rebuilds them, bitwise, from the stored ratios.  When a weight
    block ends, one pass over its stored rows makes the checks
    (:func:`_first_failure`), so a failing run stops at most one block
    late; the reported failure is the one a check after every step would
    raise first (per step: ceiling, box, then the weight floor), and the
    rows past it are discarded.  The run issues no floating-point
    warning: a NaN fails the box, an inf the ceiling or the box, a weight
    that reaches 0 the floor, and an overflow that passes them shows in
    the derived series.  The network mean, the
    Lyapunov average, the consensus error, the running-average gap, the
    one-step deviation and sum_i g_i(t) are computed after the loop, one
    chunk of stored rows at a time (:func:`_series_chunks`), so their
    temporaries take at most ``BLOCK_BYTES``; each row reduces on its own
    and equals, bitwise, what a per-step evaluation gives.
    """
    steps = len(ws)
    if steps == 0:
        raise ValueError("need at least one mixing step")
    ws = WeightStack.of(ws)
    x = np.atleast_2d(np.asarray(x0, dtype=float))
    n, d = x.shape
    y = np.ones(n)
    if objective.n != n or objective.d != d:
        raise ValueError(
            f"objective is for (n, d)=({objective.n}, {objective.d}), "
            f"initial values have ({n}, {d})"
        )
    if ws.n != n:
        raise ValueError(f"weight matrix is {ws.n}x{ws.n} but state has n={n}")
    alphas = stepsize_array(schedule, steps)

    xs = np.empty((steps, n, d))
    ys = np.empty((steps, n))
    zs = np.empty((steps, n, d))

    z = x / y[:, None]
    t = recorded = 0
    try:
        for block in ws.blocks():
            lo = t
            for w in block:
                xs[t], ys[t], zs[t] = x, y, z
                # alpha == 0 is exactly a pure mixing step: the subtraction is skipped.
                alpha = alphas[t]
                x = w @ (x if alpha == 0.0 else x - alpha * objective._subgradients(z))
                y = w @ y
                z = x / y[:, None]
                t += 1

            # Rows lo..t-1 are the block's steps; the weights after them are
            # the later rows and, after the last one, y.
            after = np.concatenate([ys[lo + 1 : t], y[None]])
            failure = _first_failure(objective, zs[lo:t], after)
            if failure is None:
                # Free this block (w is a view of it) before the next is built.
                del block, w
                continue
            r, order = failure
            step = lo + r
            recorded = step if order < 2 else step + 1
            if order == 0:
                raise _ceiling_failure(objective, zs[step], step)
            if order == 1:
                raise _box_failure(objective, zs[step], step)
            check_weight_floor(step + 1, after[r])
    except RunFailure:
        # The gap of every recorded step came before the failure.
        certified_gaps(objective, alphas[:recorded], _network_mean(zs[:recorded]))
        raise

    zbar, consensus = mean_and_consensus(zs)
    running_gap = certified_gaps(objective, alphas, zbar)
    zlyap = np.empty((steps, d))
    deviation = np.empty(steps)
    gsum = np.empty((steps, d))
    for rows in _series_chunks(steps, n, d):
        zlyap[rows] = ((ys[rows] / n)[:, None, :] @ zs[rows])[:, 0, :]
        gsum[rows], deviation[rows] = _subgradient_series(
            objective, xs[rows], zs[rows], alphas[rows], zs[rows.start + 1 : rows.stop + 1], z,
        )

    return RunTrace(
        n=n, d=d, steps=steps, alphas=alphas,
        xs=xs, ys=ys, zs=zs, zbar=zbar, zlyap=zlyap,
        consensus=consensus, running_gap=running_gap, deviation=deviation, gsum=gsum,
        final_state=NetworkState(t=steps, x=x, y=y), final_zlyap=(y / n) @ z,
        min_y=min(_least_weight(ys[1:]), float(y.min())), smatrices=CompanionView(ws, ys),
        objective=objective,
    )


def _first_failure(
    objective: ObjectiveSpec, zs: np.ndarray, after: np.ndarray
) -> tuple[int, int] | None:
    """The first failing in-step check over consecutive stored rows, as
    (row, order), or None.

    ``zs`` are the rows' ratios, shape (k, n, d), and ``after[r]`` the
    weights W(t) y(t) that row r's step produced.  Order 0 is the
    subgradient ceiling, 1 box containment and 2 the weight floor; a
    per-step check takes them in that order, so the smallest pair is the
    failure it raises first.  A square that overflows makes its row's
    norm inf, so that row fails the ceiling.
    """
    k, n, d = zs.shape
    norms = np.sqrt((objective._subgradients(zs) ** 2).sum(axis=2))
    over = (norms > objective.g_bound + 1e-9).any(axis=1)
    outside = ~objective.in_box(zs.reshape(k * n, d)).reshape(k, n).all(axis=1)
    low = (after <= Y_FLOOR).any(axis=1)
    checks = (over, outside, low)  # in order
    firsts = [(int(rows.argmax()), order) for order, rows in enumerate(checks) if rows.any()]
    return min(firsts, default=None)


def _ceiling_failure(objective: ObjectiveSpec, z: np.ndarray, t: int) -> RunFailure:
    norms = np.sqrt((objective._subgradients(z) ** 2).sum(axis=1))
    k = int(norms.argmax())
    return RunFailure(
        "subgradient-ceiling", k + 1, t,
        f"agent {k + 1} produced a subgradient of norm {norms[k]:.6g} "
        f"above the declared ceiling {objective.g_bound:.6g} at t={t}",
    )


def _box_failure(objective: ObjectiveSpec, z: np.ndarray, t: int) -> RunFailure:
    inside = objective.in_box(z)
    i = int(inside.argmin())
    return RunFailure(
        "box-containment", i + 1, t,
        f"agent {i + 1} left the declared box at t={t}: z={z[i]!r}",
    )


def _least_weight(ys: np.ndarray) -> float:
    """``min(1.0, *ys.min(axis=1).tolist())`` without the list: a row
    holding NaN has a NaN minimum, which neither min() nor fmin picks."""
    return float(np.fmin.reduce(ys.min(axis=1), initial=1.0))


def mean_and_consensus(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The network mean zbar(t) and the consensus error max_i ||z_i(t) -
    zbar(t)|| of every row of zs, shape (steps, n, d), one chunk of rows
    (:func:`_series_chunks`) at a time; each row reduces like the same
    expression on that row alone (sum / n is mean())."""
    steps, n, d = zs.shape
    zbar = np.empty((steps, d))
    consensus = np.empty(steps)
    for rows in _series_chunks(steps, n, d):
        zbar[rows] = _network_mean(zs[rows])
        consensus[rows] = _max_agent_norms(zs[rows] - zbar[rows, None, :])
    return zbar, consensus


def _network_mean(zs: np.ndarray) -> np.ndarray:
    """zbar(t) of each row of zs (steps, n, d), bitwise the row's mean alone."""
    return zs.sum(axis=1) / zs.shape[1]


def _subgradient_series(
    objective: ObjectiveSpec, xs: np.ndarray, zs: np.ndarray, alphas: np.ndarray, after: np.ndarray,
    z: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """sum_i g_i(t) and the one-step deviation of consecutive rows: how
    far the next ratios (the stored rows ``after``, then ``z`` past the
    last one) lie from the mean of the mixing inputs x - alpha g."""
    # One scratch, updated in place: g, alpha g, the mixing inputs, then
    # each next ratio's deviation from their mean.
    scratch = objective._subgradients(zs)
    gsum = scratch.sum(axis=1)
    np.multiply(alphas[:, None, None], scratch, out=scratch)
    h_mean = np.subtract(xs, scratch, out=scratch).sum(axis=1) / xs.shape[1]
    scratch[: len(after)] = after
    scratch[len(after) :] = z
    scratch -= h_mean[:, None, :]
    return gsum, _max_agent_norms(scratch)


def _max_agent_norms(diffs: np.ndarray) -> np.ndarray:
    """max_i ||diffs[t, i]|| for every t of a fresh (k, n, d) array,
    which is squared in place; besides it, only the (k, n) sums of
    squares are allocated.  A norm past the float range is inf, without
    a warning."""
    with np.errstate(over="ignore"):
        sums = np.square(diffs, out=diffs).sum(axis=2)
    return np.sqrt(sums, out=sums).max(axis=1)


def running_average_gaps(
    objective: ObjectiveSpec, alphas: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """f(alpha-weighted running average of rows up to t) - f* for every t,
    unclipped; rows has shape (steps, d).

    The sequential cumulative sums round like a running ``+=``.
    """
    avgs = np.cumsum(alphas[:, None] * rows, axis=0) / np.cumsum(alphas)[:, None]
    return objective.value_batch(avgs) - objective.f_star


def certified_gaps(
    objective: ObjectiveSpec, alphas: np.ndarray, rows: np.ndarray, agent: int | None = None
) -> np.ndarray:
    """:func:`running_average_gaps` with rounding noise clipped at 0; a
    gap below -1e-12 beats the declared optimum and raises RunFailure
    "certified-optimum" at the first such t, naming ``agent`` (1-based,
    None for the network mean)."""
    gaps = running_average_gaps(objective, alphas, rows)
    beaten = np.flatnonzero(gaps < -GAP_NOISE_TOL)
    if beaten.size:
        t = int(beaten[0])
        raise RunFailure("certified-optimum", agent, t, _beaten_message(objective, gaps[t]))
    return np.maximum(gaps, 0.0)
