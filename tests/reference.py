"""Independent reference routines the tests check the package against."""

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
