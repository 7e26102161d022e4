"""Time-varying directed graphs with self-arcs.

A network is a finite sequence of digraphs on a fixed vertex set, one graph
per time step.  A sequence is stored as one read-only boolean stack
``adj[t, j, i]``, true iff arc ``j -> i`` is present at step ``t``, with
vertices indexed from 0 internally; the text format is 1-indexed.  Every
vertex always keeps a self-arc, so each agent can at least talk to itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "Digraph",
    "GraphSequence",
    "digraph",
    "generate_sequence",
    "is_strongly_connected",
    "uniform_connectivity_window",
    "connectivity_windows",
    "format_graph_sequence",
    "parse_graph_sequence",
]

GENERATOR_KINDS = ("static-cycle", "rotating-arc", "random-walkable")

# Adjacency cells per block of window unions tested at once (1 MiB as
# float32); a failing window length usually stops in the first block.
_BLOCK_CELLS = 1 << 18


def _frozen_stack(adj: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Validated read-only boolean adjacency of the given shape; a
    read-only input is shared, anything else is copied."""
    a = np.asarray(adj, dtype=bool)
    if a.shape != shape:
        raise ValueError(f"expected adjacency of shape {shape}, got {a.shape}")
    diagonals = a.diagonal(axis1=-2, axis2=-1).reshape(-1, shape[-1])
    missing = np.flatnonzero(~diagonals.all(axis=0))
    if missing.size:
        raise ValueError(f"missing self-arc at vertices {missing.tolist()}")
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


class Digraph:
    """Directed graph on vertices ``0..n-1``; every vertex has a self-arc.

    A view of one read-only boolean adjacency matrix; the ``arcs`` set of
    ``(sender, receiver)`` pairs is built on first use.
    """

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]) -> None:
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        a = np.zeros((n, n), dtype=bool)
        for (j, i) in arcs:
            if not (0 <= j < n and 0 <= i < n):
                raise ValueError(f"arc ({j}, {i}) out of range for n={n}")
            a[j, i] = True
        self._adj = _frozen_stack(a, (n, n))

    @classmethod
    def _view(cls, adj: np.ndarray) -> Digraph:
        """Wrap an already validated read-only adjacency matrix."""
        g = cls.__new__(cls)
        g._adj = adj
        return g

    @property
    def n(self) -> int:
        return self._adj.shape[0]

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        j, i = np.nonzero(self._adj)
        return frozenset(zip(j.tolist(), i.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._adj, other._adj)

    def __hash__(self) -> int:
        return hash((self.n, self._adj.tobytes()))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arcs!r})"

    def out_neighbors(self, j: int) -> set[int]:
        """Vertices that receive from ``j`` (always includes ``j``)."""
        return set(np.flatnonzero(self._adj[j]).tolist())

    def in_neighbors(self, i: int) -> set[int]:
        """Vertices that send to ``i`` (always includes ``i``)."""
        return set(np.flatnonzero(self._adj[:, i]).tolist())

    def out_degree(self, j: int) -> int:
        return int(np.count_nonzero(self._adj[j]))

    def adjacency(self) -> np.ndarray:
        """Boolean matrix ``A[j, i]`` true iff arc ``j -> i`` is present."""
        return self._adj.copy()


def digraph(n: int, cross_arcs: Iterable[tuple[int, int]] = ()) -> Digraph:
    """Build a ``Digraph`` from the cross arcs, adding all self-arcs."""
    return Digraph(n, [(i, i) for i in range(n)] + list(cross_arcs))


@dataclass(frozen=True, eq=False)
class GraphSequence:
    """One digraph per step over a finite horizon.

    ``kind``/``seed`` record how the sequence was produced ("file" or
    "custom" sequences carry seed 0).  Generated sequences are a pure
    function of (kind, n, horizon, seed) and are prefix-stable: a longer
    horizon with the same seed extends the shorter sequence unchanged.

    ``adj`` is the adjacency stack of shape ``(horizon, n, n)``, kept
    read-only; ``graphs`` and indexing give per-step views of it.
    """

    n: int
    horizon: int
    kind: str
    seed: int
    adj: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        object.__setattr__(self, "adj", _frozen_stack(self.adj, (self.horizon, self.n, self.n)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphSequence):
            return NotImplemented
        return (
            (self.n, self.horizon, self.kind, self.seed)
            == (other.n, other.horizon, other.kind, other.seed)
            and np.array_equal(self.adj, other.adj)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.horizon, self.kind, self.seed))

    @cached_property
    def graphs(self) -> tuple[Digraph, ...]:
        return tuple(Digraph._view(a) for a in self.adj)

    def __len__(self) -> int:
        return self.horizon

    def __getitem__(self, t: int) -> Digraph:
        return Digraph._view(self.adj[t])

    def prefix(self, horizon: int) -> GraphSequence:
        """The first ``horizon`` steps, a view of this sequence's stack."""
        if not 1 <= horizon <= self.horizon:
            raise ValueError(f"prefix horizon must lie in [1, {self.horizon}], got {horizon}")
        if horizon == self.horizon:
            return self
        return GraphSequence(
            n=self.n, horizon=horizon, kind=self.kind, seed=self.seed, adj=self.adj[:horizon],
        )


def generate_sequence(
    kind: str,
    n: int,
    horizon: int,
    seed: int = 0,
    *,
    arc_prob: float = 0.25,
    inject_every: int = 5,
) -> GraphSequence:
    """Generate a named deterministic graph sequence.

    Parameters
    ----------
    kind : str
        One of ``static-cycle`` (the directed ring at every step),
        ``rotating-arc`` (a single cross arc ``t mod n -> (t+1) mod n``
        per step), or ``random-walkable`` (each cross arc present
        independently with probability ``arc_prob``, plus the full ring
        injected every ``inject_every`` steps so that every window of
        ``inject_every`` consecutive steps is jointly strongly connected).
    n, horizon, seed : int
        Vertex count, number of steps, and generator seed.  The same
        arguments always reproduce the same sequence.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")
    if n < 1:
        raise ValueError("n must be positive")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    eye = np.eye(n, dtype=bool)
    ring = np.roll(eye, 1, axis=1)  # arcs j -> (j+1) mod n
    if kind == "static-cycle":
        adj = np.broadcast_to(eye | ring, (horizon, n, n))
    else:
        adj = np.zeros((horizon, n, n), dtype=bool)
        if kind == "rotating-arc":
            t = np.arange(horizon)
            adj[t, t % n, (t + 1) % n] = True
        else:  # random-walkable
            if not (0.0 <= arc_prob <= 1.0):
                raise ValueError("arc_prob must lie in [0, 1]")
            if inject_every < 1:
                raise ValueError("inject_every must be positive")
            rng = np.random.default_rng(seed)
            for t in range(horizon):
                # One draw block per step keeps prefixes seed-stable.
                np.less(rng.random((n, n)), arc_prob, out=adj[t])
            adj[::inject_every] |= ring
        adj |= eye
        adj.setflags(write=False)
    return GraphSequence(n=n, horizon=horizon, kind=kind, seed=seed, adj=adj)


def _reaches_all(adj: np.ndarray) -> np.ndarray:
    """Per graph of the 0/1 stack ``adj[m, n, n]``: does vertex 0 reach
    every vertex?

    Breadth-first search on all graphs at once; self-arcs make each
    frontier contain the previous one, so the search stops when the total
    count of reached vertices stops growing.
    """
    seen = adj[:, 0, :] > 0
    count = np.count_nonzero(seen)
    while True:
        seen = np.matmul(seen[:, None, :].astype(adj.dtype), adj)[:, 0, :] > 0
        grown = np.count_nonzero(seen)
        if grown == count:
            return seen.all(axis=1)
        count = grown


def _all_strongly_connected(adj: np.ndarray) -> bool:
    """Every graph of the boolean stack ``adj[m, n, n]`` is strongly
    connected: vertex 0 reaches all vertices and, in the reversed graph,
    again reaches all.  The products run in float32, which BLAS does
    several times faster than boolean matmul; sums of 0/1 entries stay
    exact."""
    a = adj.astype(np.float32)
    return bool(_reaches_all(a).all() and _reaches_all(a.transpose(0, 2, 1)).all())


def is_strongly_connected(g: Digraph) -> bool:
    """Every vertex reaches every other along directed arcs."""
    return _all_strongly_connected(g._adj[None])


def uniform_connectivity_window(seq: GraphSequence) -> int | None:
    """Smallest window length L certifying joint strong connectivity.

    Returns the smallest L such that for every start t with a full window
    inside the horizon, the union of graphs over [t, t+L-1] is strongly
    connected.  Returns None if even the whole horizon fails.  This is a
    finite-horizon certificate over the materialized sequence only; it
    says nothing about steps beyond the horizon.  It is the one-horizon
    case of :func:`connectivity_windows`.
    """
    return connectivity_windows(seq, [seq.horizon])[0]


def connectivity_windows(seq: GraphSequence, horizons: Iterable[int]) -> list[int | None]:
    """``uniform_connectivity_window(seq.prefix(T))`` for every T in
    ``horizons`` (in their order; each within ``1..seq.horizon``), from
    one search over ``seq``.

    Let f(L) be the first start whose length-L window is not strongly
    connected.  A longer window holds a shorter one, so f is
    nondecreasing and f(L) + L increasing, and horizon T's window is the
    smallest L with f(L) + L > T: every length-L window of the first T
    steps is connected.  So a length that fails one horizon fails every
    longer one, and the horizons are searched in ascending order, each by
    doubling and then bisection from the previous one's window (or, if
    it had none, from its length plus one).  A length is tested against
    a horizon by extending the scan of its starts from where an earlier
    horizon's test of it left off.

    ``level`` holds the unions of all windows of length ``a`` (a power of
    two, only growing, always below the window); a window of length L in
    [a, 2a] is the union of two overlapping ones.  Each scan tests the
    unions in blocks, stops at the first failing block, and tests each
    distinct union once: periodic sequences such as ``static-cycle`` and
    ``rotating-arc`` repeat a few unions, each of whose searches can take
    up to n rounds.  ``level`` starts as the sequence itself; its first
    growth makes one private copy of the stack, and every growth ORs each
    union with the one ``a`` starts later in place, in ascending blocks:
    a block reads only rows that no earlier block has updated, and NumPy
    reads the rows a block shares with its own output before writing.
    Besides the sequence, memory stays at one boolean ``T*n*n`` stack plus
    a few blocks of ``_BLOCK_CELLS`` cells.
    """
    hs = list(horizons)
    if any(not 1 <= T <= seq.horizon for T in hs):
        raise ValueError(f"horizons must lie in [1, {seq.horizon}], got {hs}")
    block = max(1, _BLOCK_CELLS // seq.n**2)
    scanned: dict[int, int] = {}  # length -> count of starts whose windows are connected

    def every_window_connected(length: int, horizon: int) -> bool:
        starts = horizon - length + 1
        connected: set[bytes] = set()  # packed unions already shown connected
        for lo in range(scanned.get(length, 0), starts, block):
            hi = min(starts, lo + block)
            unions = level[lo:hi] | level[lo + length - a : hi + length - a]
            keys = [row.tobytes() for row in np.packbits(unions.reshape(hi - lo, -1), axis=1)]
            fresh = {key: k for k, key in enumerate(keys) if key not in connected}
            if fresh and not _all_strongly_connected(unions[list(fresh.values())]):
                return False
            connected.update(fresh)
        scanned[length] = starts
        return True

    level, a = seq.adj, 1

    def reach(length: int) -> None:
        """Grow ``level`` until ``length`` is at most 2a; every length
        below ``length`` must be known to fail."""
        nonlocal level, a
        while 2 * a < length:
            if level is seq.adj:
                level = np.array(seq.adj)
            m = len(level) - a
            for lo in range(0, m, block):
                hi = min(m, lo + block)
                np.bitwise_or(level[lo:hi], level[lo + a : hi + a], out=level[lo:hi])
            level = level[:m]
            a *= 2

    windows: dict[int, int | None] = {}
    least = 1  # every shorter length fails the next horizon

    for T in sorted(set(hs)):
        reach(least)
        if every_window_connected(least, T):
            windows[T] = least
            continue
        fail = least
        while fail < T:
            reach(fail + 1)
            ok = min(2 * a, T)
            if every_window_connected(ok, T):
                break
            fail = ok
        else:  # even the whole horizon fails
            windows[T], least = None, T + 1
            continue
        # Now length fail fails and length ok passes, both in [a, 2a].
        while ok - fail > 1:
            mid = (fail + ok) // 2
            if every_window_connected(mid, T):
                ok = mid
            else:
                fail = mid
        windows[T] = least = ok
    return [windows[T] for T in hs]


def format_graph_sequence(seq: GraphSequence) -> str:
    """Render the 1-indexed text form: header ``n horizon``, then one
    ``t: j>i j>i ...`` line per step with self-arcs omitted."""
    steps, senders, receivers = np.nonzero(seq.adj & ~np.eye(seq.n, dtype=bool))
    tokens = [f"{j + 1}>{i + 1}" for j, i in zip(senders.tolist(), receivers.tolist())]
    bounds = np.searchsorted(steps, np.arange(seq.horizon + 1)).tolist()
    lines = [f"{seq.n} {seq.horizon}"]
    for t in range(seq.horizon):
        body = " ".join(tokens[bounds[t] : bounds[t + 1]])
        lines.append(f"{t}: {body}".rstrip())
    return "\n".join(lines) + "\n"


def parse_graph_sequence(text: str) -> GraphSequence:
    """Parse the text form produced by :func:`format_graph_sequence`.

    Self-arcs are implied and added on every vertex; listing one
    explicitly is tolerated.  Steps must appear in order 0..horizon-1.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header {lines[0]!r}; expected 'n horizon'")
    try:
        n, horizon = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"bad header {lines[0]!r}") from exc
    if n < 1 or horizon < 1:
        raise ValueError("header values must be positive")
    if len(lines) - 1 != horizon:
        raise ValueError(
            f"expected {horizon} step lines, found {len(lines) - 1}"
        )
    adj = np.zeros((horizon, n, n), dtype=bool)
    adj[:, np.arange(n), np.arange(n)] = True
    for t, ln in enumerate(lines[1:]):
        label, _, rest = ln.partition(":")
        try:
            step = int(label.strip())
        except ValueError as exc:
            raise ValueError(f"bad step label in line {ln!r}") from exc
        if step != t:
            raise ValueError(f"step lines out of order: expected {t}, got {step}")
        for tok in rest.split():
            j_txt, sep, i_txt = tok.partition(">")
            if not sep:
                raise ValueError(f"bad arc token {tok!r} at step {t}")
            try:
                j, i = int(j_txt), int(i_txt)
            except ValueError as exc:
                raise ValueError(f"bad arc token {tok!r} at step {t}") from exc
            if not (1 <= j <= n and 1 <= i <= n):
                raise ValueError(
                    f"arc {tok!r} at step {t} out of range for n={n}"
                )
            adj[t, j - 1, i - 1] = True
    adj.setflags(write=False)
    return GraphSequence(n=n, horizon=horizon, kind="file", seed=0, adj=adj)
