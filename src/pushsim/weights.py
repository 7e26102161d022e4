"""Column-stochastic mixing weights over a digraph.

Entry ``W[i, j]`` is the weight receiver ``i`` applies to the value pushed
by sender ``j``; it must be positive exactly when the arc ``j -> i`` exists
and each column must sum to one (every sender splits its whole mass among
its out-neighbors, itself included).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .graphs import Digraph, GraphSequence, row_blocks, unpack_adjacency

__all__ = [
    "WeightMatrix",
    "WeightValidation",
    "WeightStack",
    "build_weights",
    "build_weight_stack",
    "validate_column_stochastic",
    "parse_matrix",
]

COLUMN_SUM_TOL = 1e-12
# Set bits of every byte value: out-degrees from packed adjacency rows.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class WeightMatrix:
    """Immutable n-by-n column-stochastic matrix with its support floor.

    ``n`` is read from the square ``entries``.  ``beta`` is the smallest
    positive entry; with the uniform rule it is 1/(max out-degree) and
    never below 1/n.
    """

    entries: np.ndarray = field(repr=False)
    beta: float

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {e.shape}")
        # A read-only array is shared; anything the caller could still
        # change is copied first.
        if e.flags.writeable:
            e = np.array(e)
            e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class WeightValidation:
    """Outcome of checking a candidate weight matrix against a graph."""

    violations: tuple[str, ...]
    column_sum_error: float
    min_positive: float

    @property
    def ok(self) -> bool:
        return not self.violations


def build_weights(g: Digraph) -> WeightMatrix:
    """Mixing matrix for one step on graph ``g``; see :func:`build_weight_stack`."""
    return _uniform_out_degree(g._bits[None])[0]


def build_weight_stack(seq: GraphSequence) -> WeightStack:
    """Mixing matrices for every step of ``seq``.

    Each sender splits its mass equally over its out-neighbors:
    ``W[t, i, j] = 1 / outdeg_t(j)`` for every arc ``j -> i`` at step ``t``.
    The stack keeps the packed adjacency and the out-degrees, and builds
    the floats of any run of steps when they are read (:class:`WeightStack`).
    Externally supplied matrices go through
    :func:`validate_column_stochastic` instead.
    """
    return _uniform_out_degree(seq.bits)


def _uniform_out_degree(bits: np.ndarray) -> WeightStack:
    """The uniform rule on a validated packed adjacency stack
    ``bits[t, j, :]`` (arc ``j -> i`` at step ``t``, every self-arc
    present)."""
    # Counted one byte column at a time, so no temporary is as large as
    # bits, in floats, which add small integers exactly.  Kept in the
    # narrowest unsigned type that holds n (an eighth of the floats' bytes
    # for n < 256): block() converts each degree back to the same float
    # as it divides.
    deg = np.zeros(bits.shape[:2])
    for c in range(bits.shape[2]):
        deg += _POPCOUNT[bits[:, :, c]]
    deg = deg.astype(np.min_scalar_type(bits.shape[1]))
    return WeightStack(bits, deg, 1.0 / deg.max(axis=1))


class WeightStack(Sequence[WeightMatrix]):
    """The mixing matrices of a run, built from per-step arrays when read.

    Step ``t`` is ``num[t] / den[t]`` column by column: for the uniform
    rule ``num`` is the packed adjacency stack (``uint8`` rows
    ``bits[t, j, :]``, read as the transposed 0/1 matrix ``adj[t].T``) and
    ``den[t]`` the integer out-degrees; a repeated matrix is broadcast
    with ``den`` 1.  No float stack of all steps is held.  :meth:`block`
    unpacks and transposes its steps and computes them with one
    elementwise division into a fresh C-ordered array (a transposed
    layout holds the same values but sends ``W @ x`` down another BLAS
    path), so every float equals the one whole-stack expression's.
    ``ws[t]`` is step ``t``'s WeightMatrix with beta ``betas[t]``; a slice
    is the stack of those steps, a view.
    """

    def __init__(self, num: np.ndarray, den: np.ndarray, betas: np.ndarray) -> None:
        self.num, self.den, self.betas = num, den, betas

    @classmethod
    def of(cls, ws: Sequence[WeightMatrix]) -> WeightStack:
        """``ws`` itself if it is a stack, else the stack of its matrices."""
        if isinstance(ws, WeightStack):
            return ws
        nums = np.stack([w.entries for w in ws])
        return cls(nums, np.broadcast_to(1.0, nums.shape[:2]), np.array([w.beta for w in ws]))

    @classmethod
    def repeated(cls, w: WeightMatrix, horizon: int) -> WeightStack:
        """``horizon`` steps of the one matrix ``w``, without a copy."""
        return cls(
            np.broadcast_to(w.entries, (horizon, w.n, w.n)),
            np.broadcast_to(1.0, (horizon, w.n)),
            np.broadcast_to(w.beta, (horizon,)),
        )

    @property
    def n(self) -> int:
        return self.num.shape[1]

    def __len__(self) -> int:
        return self.num.shape[0]

    def __getitem__(self, t):
        if isinstance(t, slice):
            return WeightStack(self.num[t], self.den[t], self.betas[t])
        t = range(len(self))[t]
        return WeightMatrix(self.block(t, t + 1)[0], float(self.betas[t]))

    def block(self, lo: int, hi: int) -> np.ndarray:
        """``W[lo:hi]`` as a fresh read-only array (like a slice, it ends
        at the last step)."""
        num = self.num[lo:hi]
        if num.dtype == np.uint8:  # packed adjacency rows
            # As 0/1 bytes, which convert to floats faster than booleans.
            num = unpack_adjacency(num, self.n).view(np.uint8).transpose(0, 2, 1)
        w = np.divide(num, self.den[lo:hi, None, :], out=np.empty(num.shape))
        w.setflags(write=False)
        return w

    def blocks(self) -> Iterator[np.ndarray]:
        """``W[lo:lo + k]`` for ``lo = 0, k, 2k, ...``: every step in
        order, in ``row_blocks`` of ``BLOCK_BYTES`` (8 n**2 bytes a step)."""
        for rows in row_blocks(len(self), 8 * self.n ** 2):
            yield self.block(rows.start, rows.stop)


def validate_column_stochastic(
    entries: np.ndarray, g: Digraph, tol: float = COLUMN_SUM_TOL
) -> WeightValidation:
    """Check a candidate matrix against the support and stochasticity rules.

    Violations reported: a non-finite entry; column sums off by more than
    ``tol``; a positive entry without the matching arc; an arc without a
    positive entry; a nonpositive diagonal entry.  Entries must be
    nonnegative.
    """
    w = np.asarray(entries, dtype=float)
    n = g.n
    problems: list[str] = []
    if w.shape != (n, n):
        return WeightValidation(
            violations=(f"shape {w.shape} does not match n={n}",),
            column_sum_error=float("nan"),
            min_positive=float("nan"),
        )
    # NaN fails every comparison below, so it is reported on its own.
    for i, j in np.argwhere(~np.isfinite(w)).tolist():
        problems.append(f"non-finite weight w[{i + 1},{j + 1}] = {w[i, j]}")
    col_err = float(np.abs(w.sum(axis=0) - 1.0).max())
    if col_err > tol:
        bad = [j for j in range(n) if abs(w[:, j].sum() - 1.0) > tol]
        problems.append(
            f"columns {[j + 1 for j in bad]} sum off by up to {col_err:.3e}"
        )
    if (w < 0).any():
        problems.append("negative entries present")
    # Entry (i, j) breaks the support rule where its sign disagrees with
    # the arc j -> i; argwhere lists them in row-major (i, j) order.
    for i, j in np.argwhere((w > 0) != g.adjacency().T).tolist():
        if w[i, j] > 0:
            problems.append(f"positive weight w[{i + 1},{j + 1}] without arc {j + 1}>{i + 1}")
        else:
            problems.append(f"arc {j + 1}>{i + 1} carries no weight")
    positives = w[w > 0]
    min_pos = float(positives.min()) if positives.size else float("nan")
    if (np.diag(w) <= 0).any():
        bad = [i + 1 for i in range(n) if w[i, i] <= 0]
        problems.append(f"nonpositive diagonal at agents {bad}")
    return WeightValidation(
        violations=tuple(problems),
        column_sum_error=col_err,
        min_positive=min_pos,
    )


def parse_matrix(text: str) -> np.ndarray:
    """Parse a dense whitespace-separated square matrix of finite numbers."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise ValueError("empty matrix file")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(
            f"matrix is not square: {n} rows, row lengths {sorted({len(r) for r in rows})}"
        )
    try:
        entries = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ValueError(f"bad matrix entry: {exc}") from exc
    bad = np.argwhere(~np.isfinite(entries))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"non-finite matrix entry {rows[i][j]!r} at row {i + 1}, column {j + 1}")
    return entries
