"""Independent reference routines the tests check the package against."""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from pushsim.weights import WeightMatrix, validate_column_stochastic


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


def format_matrix(entries: np.ndarray) -> str:
    """Weights-file text: one row per line, 17 significant digits."""
    w = np.asarray(entries, dtype=float)
    return "\n".join(" ".join(f"{v:.17g}" for v in row) for row in w) + "\n"


def reference_weight_stack(seq) -> list[WeightMatrix]:
    """The uniform rule as one expression into one read-only C-ordered
    stack of every step's floats, step t a WeightMatrix view of W[t]: the
    whole-stack builder that the per-block WeightStack replaced."""
    adj = seq.adj
    horizon, n, _ = adj.shape
    deg = np.count_nonzero(adj, axis=2)
    w = np.divide(adj.transpose(0, 2, 1), deg[:, None, :], out=np.empty((horizon, n, n)))
    w.setflags(write=False)
    betas = (1.0 / deg.max(axis=1)).tolist()
    return [WeightMatrix(n=n, entries=w[t], beta=betas[t]) for t in range(horizon)]


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
