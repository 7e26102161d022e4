"""Independent reference routines the tests check the package against."""

from typing import Sequence

import numpy as np


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
