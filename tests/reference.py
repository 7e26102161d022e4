"""Independent reference routines the tests check the package against."""

import math
from dataclasses import dataclass, fields
from itertools import chain
from typing import Sequence

import numpy as np

from pushsim.graphs import GraphSequence, _strongly_connected, unpack_adjacency
from pushsim.harness import ExperimentConfig
from pushsim.pushsum import (
    PRODUCT_SPAN,
    CompanionView,
    NetworkState,
    RunFailure,
    build_s_matrix,
    check_weight_floor,
)
from pushsim.subgradient import (
    ObjectiveSpec,
    RunTrace,
    StepsizeSchedule,
    certified_gaps,
    stepsize_array,
)
from pushsim.weights import WeightMatrix, WeightStack, validate_column_stochastic


def transition_product_w(ws: Sequence, tau: int, t: int) -> np.ndarray:
    """Product W(t-1) ... W(tau) of the raw mixing steps (left-applied),
    rebuilt from scratch; the identity when t == tau."""
    return _product([w.entries for w in ws], tau, t)


def transition_product_s(ss: Sequence, tau: int, t: int) -> np.ndarray:
    """Product S(t-1) ... S(tau) of the companion chain (left-applied)."""
    return _product([s.entries for s in ss], tau, t)


def _product(mats: Sequence[np.ndarray], tau: int, t: int) -> np.ndarray:
    if not 0 <= tau <= t <= len(mats):
        raise ValueError(f"need 0 <= tau <= t <= {len(mats)}, got tau={tau}, t={t}")
    n = mats[0].shape[0] if mats else 1
    if t == tau:
        return np.eye(n)
    p = mats[tau].copy()
    for k in range(tau + 1, t):
        p = mats[k] @ p
    return p


def reference_product_identity_residuals(ws: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Worst exchange-identity residual for each start tau, from the dense
    ``(T, n, n)`` weights and a list of every dense companion: the routine
    that keeping each step by its nonzero entries replaced."""
    steps = len(ws)
    if ys.shape != (steps + 1, ws.shape[1]):
        raise ValueError(f"need {steps + 1} weight vectors of length {ws.shape[1]}, got {ys.shape}")
    ss = [build_s_matrix(w, y).entries for w, y in zip(ws, ys)]
    out = np.empty(steps)
    for tau in range(steps):
        worst, ps, pw = 0.0, None, None
        for k in range(tau, min(steps, tau + PRODUCT_SPAN)):
            ps = ss[k] if ps is None else ss[k] @ ps
            pw = ws[k] if pw is None else ws[k] @ pw
            # np.maximum, unlike max(), keeps a NaN
            worst = np.maximum(worst, np.abs(ps * ys[k + 1][:, None] - pw * ys[tau][None, :]).max())
        out[tau] = worst
    return out


def format_matrix(entries: np.ndarray) -> str:
    """Weights-file text: one row per line, 17 significant digits."""
    w = np.asarray(entries, dtype=float)
    return "\n".join(" ".join(f"{v:.17g}" for v in row) for row in w) + "\n"


def format_graph_sequence(seq: GraphSequence) -> str:
    """Graph-file text: header ``n horizon``, then one 1-indexed
    ``t: j>i j>i ...`` line per step with self-arcs omitted.  The steps
    are unpacked one at a time."""
    cross = ~np.eye(seq.n, dtype=bool)
    lines = [f"{seq.n} {seq.horizon}"]
    for t in range(seq.horizon):
        senders, receivers = np.nonzero(unpack_adjacency(seq.bits[t], seq.n) & cross)
        body = " ".join(f"{j + 1}>{i + 1}" for j, i in zip(senders.tolist(), receivers.tolist()))
        lines.append(f"{t}: {body}".rstrip())
    return "\n".join(lines) + "\n"


def reference_adjacency(kind, n, horizon, seed=0, arc_prob=0.25, inject_every=5) -> np.ndarray:
    """The boolean stack ``adj[t, j, i]`` of a generated sequence, filled
    in place for every step at once: the dense generator that the packed,
    block-by-block one replaced."""
    eye = np.eye(n, dtype=bool)
    ring = np.roll(eye, 1, axis=1)
    if kind == "static-cycle":
        return np.broadcast_to(eye | ring, (horizon, n, n))
    adj = np.zeros((horizon, n, n), dtype=bool)
    if kind == "rotating-arc":
        t = np.arange(horizon)
        adj[t, t % n, (t + 1) % n] = True
    else:
        rng = np.random.default_rng(seed)
        for t in range(horizon):
            np.less(rng.random((n, n)), arc_prob, out=adj[t])
        adj[::inject_every] |= ring
    adj |= eye
    return adj


def reference_weight_stack(seq) -> list[WeightMatrix]:
    """The uniform rule as one expression on the boolean stack into one
    read-only C-ordered stack of every step's floats, step t a
    WeightMatrix view of W[t]: the whole-stack builder that the
    per-block WeightStack replaced."""
    adj = unpack_adjacency(seq.bits, seq.n)
    horizon, n, _ = adj.shape
    deg = np.count_nonzero(adj, axis=2)
    w = np.divide(adj.transpose(0, 2, 1), deg[:, None, :], out=np.empty((horizon, n, n)))
    w.setflags(write=False)
    betas = (1.0 / deg.max(axis=1)).tolist()
    return [WeightMatrix(w[t], betas[t]) for t in range(horizon)]


def reference_file_violations(entries: np.ndarray, seq, tol: float) -> tuple[list, float]:
    """A weights file validated once per step, stopping once more than 20
    violations are found: the (step, problem) list and the beta of the
    loop that validating each distinct step graph once replaced."""
    violations = []
    for t, g in enumerate(seq.graphs):
        rep = validate_column_stochastic(entries, g, tol=tol)
        violations.extend((t, v) for v in rep.violations)
        if len(violations) > 20:
            break
    return violations, rep.min_positive


# --------------------------------------------------------------------------
# per-agent objective terms
# --------------------------------------------------------------------------
# One object per term with its own value, subgradient and norm-ceiling
# formulas, kept apart from ObjectiveSpec's array formulas so that those
# can be checked against them bitwise.

@dataclass(frozen=True)
class QuadraticRef:
    """f(z) = ||z - target||^2, subgradient 2 (z - target)."""

    target: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_1d(np.asarray(self.target, dtype=float))
        a.setflags(write=False)
        object.__setattr__(self, "target", a)

    def value(self, z: np.ndarray) -> float:
        return float(((np.asarray(z, dtype=float) - self.target) ** 2).sum())

    def value_batch(self, zs: np.ndarray) -> np.ndarray:
        return ((zs - self.target) ** 2).sum(axis=1)

    def subgrad(self, z: np.ndarray) -> np.ndarray:
        return 2.0 * (np.asarray(z, dtype=float) - self.target)

    def grad_norm_bound(self, lo: np.ndarray, hi: np.ndarray) -> float:
        # The gradient norm is maximized at a box corner.
        reach = np.maximum(np.abs(lo - self.target), np.abs(hi - self.target))
        return 2.0 * float(np.sqrt((reach ** 2).sum()))


@dataclass(frozen=True)
class AbsoluteRef:
    """f(z) = sum_c |z_c - target_c|; at a kink the flat subgradient 0 is used."""

    target: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_1d(np.asarray(self.target, dtype=float))
        a.setflags(write=False)
        object.__setattr__(self, "target", a)

    def value(self, z: np.ndarray) -> float:
        return float(np.abs(np.asarray(z, dtype=float) - self.target).sum())

    def value_batch(self, zs: np.ndarray) -> np.ndarray:
        return np.abs(zs - self.target).sum(axis=1)

    def subgrad(self, z: np.ndarray) -> np.ndarray:
        # np.sign maps the kink z_c == target_c to 0, a valid subgradient.
        return np.sign(np.asarray(z, dtype=float) - self.target)

    def grad_norm_bound(self, lo: np.ndarray, hi: np.ndarray) -> float:
        return float(math.sqrt(self.target.shape[0]))


@dataclass(frozen=True)
class HingeRef:
    """f(z) = max(0, 1 - label * normal . z).

    On the active side the subgradient is -label * normal; at the kink and
    on the flat side it is 0.  ``value_batch`` takes one matrix-vector
    product, so its rows need not round like ``value``.
    """

    normal: np.ndarray
    label: float

    def __post_init__(self) -> None:
        w = np.atleast_1d(np.asarray(self.normal, dtype=float))
        w.setflags(write=False)
        object.__setattr__(self, "normal", w)
        if self.label not in (-1.0, 1.0):
            raise ValueError(f"label must be -1 or +1, got {self.label}")

    def value(self, z: np.ndarray) -> float:
        margin = 1.0 - self.label * float(self.normal @ np.asarray(z, dtype=float))
        return max(0.0, margin)

    def value_batch(self, zs: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, 1.0 - self.label * (zs @ self.normal))

    def subgrad(self, z: np.ndarray) -> np.ndarray:
        margin = 1.0 - self.label * float(self.normal @ np.asarray(z, dtype=float))
        if margin > 0.0:
            return -self.label * self.normal
        return np.zeros_like(self.normal)

    def grad_norm_bound(self, lo: np.ndarray, hi: np.ndarray) -> float:
        return float(np.sqrt((self.normal ** 2).sum()))


@dataclass(frozen=True)
class ZeroRef:
    """Identically-zero objective term."""

    d: int

    def value(self, z: np.ndarray) -> float:
        return 0.0

    def value_batch(self, zs: np.ndarray) -> np.ndarray:
        return np.zeros(zs.shape[0])

    def subgrad(self, z: np.ndarray) -> np.ndarray:
        return np.zeros(self.d)

    def grad_norm_bound(self, lo: np.ndarray, hi: np.ndarray) -> float:
        return 0.0


def reference_terms(objective) -> tuple:
    """Agent i's term of an ObjectiveSpec as the standalone reference
    object ``reference_terms(objective)[i]``."""
    if objective.kind == "quadratic":
        return tuple(QuadraticRef(a) for a in objective.targets)
    if objective.kind == "l1":
        return tuple(AbsoluteRef(a) for a in objective.targets)
    if objective.kind == "hinge":
        return tuple(HingeRef(w, float(b)) for w, b in zip(objective.normals, objective.labels))
    return tuple(ZeroRef(objective.d) for _ in range(objective.n))


# --------------------------------------------------------------------------
# the run loop with per-step checks, and the one-horizon window search
# --------------------------------------------------------------------------

def reference_mean(zs: np.ndarray) -> np.ndarray:
    """The network mean of every row of zs (steps, n, d), one expression
    over all the rows at once."""
    return zs.sum(axis=1) / zs.shape[1]


def reference_mean_and_consensus(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The network mean and the consensus error of every row of zs
    (steps, n, d), each one expression over all the rows at once."""
    zbar = reference_mean(zs)
    return zbar, np.sqrt(((zs - zbar[:, None, :]) ** 2).sum(axis=2)).max(axis=1)


def reference_run_push_subgradient(
    ws: Sequence[WeightMatrix],
    x0: np.ndarray,
    objective: ObjectiveSpec,
    schedule: StepsizeSchedule,
) -> RunTrace:
    """The run loop with every in-step check made after each step: the
    subgradient ceiling and box containment before the step, then the
    weight floor on the weights it produced.
    ``pushsim.subgradient.run_push_subgradient`` must record the same bits
    and stop with the same failure."""
    return reference_run_and_subgradients(ws, x0, objective, schedule)[0]


def reference_run_and_subgradients(
    ws: Sequence[WeightMatrix],
    x0: np.ndarray,
    objective: ObjectiveSpec,
    schedule: StepsizeSchedule,
) -> tuple[RunTrace, np.ndarray]:
    """:func:`reference_run_push_subgradient`'s trace and the (steps, n, d)
    subgradients its steps used, each stored as the step computed it."""
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
    gs = np.empty((steps, n, d))

    g_ceiling = objective.g_bound + 1e-9
    z = x / y[:, None]
    recorded = 0
    try:
        for t, w in enumerate(chain.from_iterable(ws.blocks())):
            alpha = alphas[t]
            g = objective.agent_subgradients(z)
            norms = np.sqrt((g ** 2).sum(axis=1))
            if (norms > g_ceiling).any():
                k = int(norms.argmax())
                raise RunFailure(
                    "subgradient-ceiling", k + 1, t,
                    f"agent {k + 1} produced a subgradient of norm {norms[k]:.6g} "
                    f"above the declared ceiling {objective.g_bound:.6g} at t={t}",
                )
            inside = objective.in_box(z)
            if not inside.all():
                i = int(inside.argmin())
                raise RunFailure(
                    "box-containment", i + 1, t,
                    f"agent {i + 1} left the declared box at t={t}: z={z[i]!r}",
                )
            xs[t] = x
            ys[t] = y
            zs[t] = z
            gs[t] = g
            recorded = t + 1

            # alpha == 0 is exactly a pure mixing step: the subtraction is skipped.
            x = w @ (x if alpha == 0.0 else x - alpha * g)
            y = w @ y
            check_weight_floor(t + 1, y)
            z = x / y[:, None]
    except RunFailure:
        # The gap of every recorded step came before the failure.
        certified_gaps(objective, alphas[:recorded], reference_mean(zs[:recorded]))
        raise

    zbar, consensus = reference_mean_and_consensus(zs)
    running_gap = certified_gaps(objective, alphas, zbar)
    zlyap = ((ys / n)[:, None, :] @ zs)[:, 0, :]
    h_mean = (xs - alphas[:, None, None] * gs).sum(axis=1) / n
    z_next = np.concatenate([zs[1:], z[None]])
    deviation = np.sqrt(((z_next - h_mean[:, None, :]) ** 2).sum(axis=2)).max(axis=1)

    return RunTrace(
        n=n, d=d, steps=steps, alphas=alphas,
        xs=xs, ys=ys, zs=zs, zbar=zbar, zlyap=zlyap,
        consensus=consensus, running_gap=running_gap, deviation=deviation, gsum=gs.sum(axis=1),
        final_state=NetworkState(t=steps, x=x, y=y), final_zlyap=(y / n) @ z,
        min_y=min(1.0, *ys[1:].min(axis=1).tolist(), float(y.min())),
        smatrices=CompanionView(ws, ys), objective=objective,
    ), gs


def reference_connectivity_window(seq: GraphSequence) -> int | None:
    """The one-horizon window search, doubling and then bisection over
    the boolean unions of one sequence: smallest L whose every full window
    is strongly connected, None if even the whole horizon fails."""
    h = seq.horizon
    block = max(1, 2**18 // seq.n**2)  # starts tested at once: 1 MiB of float32 cells

    def every_window_connected(length: int, level: np.ndarray, a: int) -> bool:
        starts = h - length + 1
        connected: set[bytes] = set()  # packed unions already shown connected
        for lo in range(0, starts, block):
            hi = min(starts, lo + block)
            unions = level[lo:hi] | level[lo + length - a : hi + length - a]
            keys = [row.tobytes() for row in np.packbits(unions.reshape(hi - lo, -1), axis=1)]
            fresh = {key: k for k, key in enumerate(keys) if key not in connected}
            if fresh and not _strongly_connected(unions[list(fresh.values())]).all():
                return False
            connected.update(fresh)
        return True

    level, a = unpack_adjacency(seq.bits, seq.n), 1
    if every_window_connected(1, level, a):
        return 1
    while 2 * a < h:
        if every_window_connected(2 * a, level, a):
            break
        level = level[:-a] | level[a:]
        a *= 2
    else:
        if not every_window_connected(h, level, a):
            return None
    # Now length a fails and length min(2a, h) passes.
    fail, ok = a, min(2 * a, h)
    while ok - fail > 1:
        mid = (fail + ok) // 2
        if every_window_connected(mid, level, a):
            ok = mid
        else:
            fail = mid
    return ok


def _float_text(x: float) -> str:
    return repr(float(x))


# Config text encoders keyed like the parser's decoders, by the field
# annotation text with any "| None" stripped.  Floats round-trip through
# repr.
_ENCODERS = {
    "str": str,
    "int": str,
    "float": _float_text,
    "bool": lambda b: str(b).lower(),
    "tuple[int, ...]": lambda v: " ".join(str(t) for t in v),
    "tuple[float, ...]": lambda v: " ".join(_float_text(x) for x in v),
    "tuple[tuple[float, ...], ...]": lambda rows: " ; ".join(
        " ".join(_float_text(x) for x in r) for r in rows
    ),
}


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it back yields an equal config and
    re-rendering yields identical bytes."""
    lines = []
    for sec in fields(cfg):
        part = getattr(cfg, sec.name)
        lines.append(f"[{sec.name}]")
        for f in fields(part):
            value = getattr(part, f.name)
            text = "" if value is None else _ENCODERS[f.type.removesuffix(" | None")](value)
            lines.append(f"{f.name} = {text}".rstrip())
        lines.append("")
    return "\n".join(lines[:-1]) + "\n"
