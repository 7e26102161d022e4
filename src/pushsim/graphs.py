"""Time-varying directed graphs with self-arcs.

A network is a finite sequence of digraphs on a fixed vertex set, one graph
per time step.  A sequence is stored as one read-only ``uint8`` stack of
packed adjacency rows, ``bits[t, j, :] = np.packbits(adj[t, j, :])`` of
shape ``(T, n, ceil(n/8))``, where ``adj[t, j, i]`` is true iff arc
``j -> i`` is present at step ``t``: one bit per arc slot, big bit order,
zero padding.  Vertices are indexed from 0 internally; the text format is
1-indexed.  Every vertex always keeps a self-arc, so each agent can at
least talk to itself.  :func:`unpack_adjacency` is the one way back to
booleans, a few steps at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Digraph",
    "GraphSequence",
    "digraph",
    "generate_sequence",
    "uniform_connectivity_window",
    "connectivity_windows",
    "parse_graph_sequence",
    "unpack_adjacency",
]

GENERATOR_KINDS = ("static-cycle", "rotating-arc", "random-walkable")

# Bytes of temporaries in one block of every blocked pass (row_blocks).
BLOCK_BYTES = 2 ** 19


def row_blocks(rows: int, row_bytes: int) -> Iterator[slice]:
    """Consecutive slices of ``rows`` rows whose temporaries take
    ``row_bytes`` bytes each: ``max(1, BLOCK_BYTES // row_bytes)`` rows a
    slice (the last may be shorter), with the budget read at each call."""
    k = max(1, BLOCK_BYTES // row_bytes)
    for lo in range(0, rows, k):
        yield slice(lo, min(lo + k, rows))


def unpack_adjacency(bits: np.ndarray, n: int) -> np.ndarray:
    """The boolean adjacency ``adj[..., j, i]`` of packed rows
    ``bits[..., j, :]`` on ``n`` vertices, as a read-only view of a fresh
    array.  The rows are unpacked whole, padding included, and the view
    drops the padding: one pass over the flat bytes is several times
    faster than unpacking each short row along its axis."""
    rows = np.unpackbits(bits).reshape(*bits.shape[:-1], 8 * bits.shape[-1])
    adj = rows[..., :n].view(bool)
    adj.setflags(write=False)
    return adj


def _frozen_bits(bits: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Validated read-only packed adjacency of the given shape, whose last
    two axes are ``(n, ceil(n/8))``; a read-only input is shared, anything
    else is copied."""
    b = np.asarray(bits)
    if b.dtype != np.uint8 or b.shape != shape:
        raise ValueError(
            f"expected packed uint8 adjacency of shape {shape}, got {b.dtype} {b.shape}"
        )
    n = shape[-2]
    v = np.arange(n)
    # Bytes ANDed over every step: a self-arc bit is set iff it is set at
    # every step; the last bytes ORed: a padding bit is clear iff it is
    # clear at every step.
    diagonal = np.bitwise_and.reduce(b[..., v, v >> 3].reshape(-1, n), axis=0)
    missing = np.flatnonzero(diagonal & (0x80 >> (v & 7)) == 0)
    if missing.size:
        raise ValueError(f"missing self-arc at vertices {missing.tolist()}")
    if n % 8 and np.bitwise_or.reduce(b[..., -1], axis=None) & (0xFF >> n % 8):
        raise ValueError(f"packed adjacency sets padding bits past vertex {n}")
    if b.flags.writeable:
        b = b.copy()
        b.setflags(write=False)
    return b


class Digraph:
    """Directed graph on vertices ``0..n-1``; every vertex has a self-arc.

    A view of one read-only packed adjacency matrix ``bits[j, :]``; the
    boolean matrix is unpacked when read, and the ``arcs`` set of
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
        self.n = n
        self._bits = _frozen_bits(np.packbits(a, axis=1), (n, (n + 7) // 8))

    @classmethod
    def _view(cls, bits: np.ndarray, n: int) -> Digraph:
        """Wrap an already validated read-only packed adjacency matrix."""
        g = cls.__new__(cls)
        g.n, g._bits = n, bits
        return g

    @property
    def _adj(self) -> np.ndarray:
        return unpack_adjacency(self._bits, self.n)

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        j, i = np.nonzero(self._adj)
        return frozenset(zip(j.tolist(), i.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._bits, other._bits)

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

    ``bits`` is the packed adjacency stack of shape
    ``(horizon, n, ceil(n/8))``, kept read-only; the horizon is its
    length, and ``graphs`` and indexing give per-step views of it.
    Generated sequences are a pure function of (kind, n, horizon, seed)
    and are prefix-stable: a longer horizon with the same seed extends the
    shorter sequence unchanged.
    """

    n: int
    bits: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        b = np.asarray(self.bits)
        if b.ndim != 3 or len(b) == 0:
            raise ValueError(f"expected a nonempty (horizon, n, ceil(n/8)) stack, got shape {b.shape}")
        object.__setattr__(self, "bits", _frozen_bits(b, (len(b), self.n, (self.n + 7) // 8)))

    @property
    def horizon(self) -> int:
        return len(self.bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphSequence):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.bits, other.bits)

    @cached_property
    def graphs(self) -> tuple[Digraph, ...]:
        return tuple(Digraph._view(b, self.n) for b in self.bits)

    def __getitem__(self, t: int) -> Digraph:
        return Digraph._view(self.bits[t], self.n)

    def prefix(self, horizon: int) -> GraphSequence:
        """The first ``horizon`` steps, a view of this sequence's stack."""
        if not 1 <= horizon <= self.horizon:
            raise ValueError(f"prefix horizon must lie in [1, {self.horizon}], got {horizon}")
        if horizon == self.horizon:
            return self
        return GraphSequence(self.n, self.bits[:horizon])


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

    The steps are built in :func:`row_blocks` of ``BLOCK_BYTES`` (a step
    takes its float draws, its booleans and its rows padded to whole
    bytes), each packed at once as flat bytes; besides the packed stack,
    only one block is held.
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
        bits = np.broadcast_to(np.packbits(eye | ring, axis=1), (horizon, n, (n + 7) // 8))
        return GraphSequence(n, bits)
    if kind == "random-walkable":
        if not (0.0 <= arc_prob <= 1.0):
            raise ValueError("arc_prob must lie in [0, 1]")
        if inject_every < 1:
            raise ValueError("inject_every must be positive")
        rng = np.random.default_rng(seed)
    nb = (n + 7) // 8
    bits = np.empty((horizon, n, nb), dtype=np.uint8)
    for rows in row_blocks(horizon, 9 * n * n + 8 * n * nb):
        lo, m = rows.start, rows.stop - rows.start
        if kind == "rotating-arc":
            t = np.arange(lo, lo + m)
            adj = np.zeros((m, n, n), dtype=bool)
            adj[t - lo, t % n, (t + 1) % n] = True
        else:  # random-walkable
            # Consecutive steps draw consecutively from the stream, so one
            # draw per block equals one (n, n) draw per step, and prefixes
            # stay seed-stable.
            adj = rng.random((m, n, n)) < arc_prob
            adj[-lo % inject_every :: inject_every] |= ring
        adj |= eye
        padded = np.zeros((m, n, 8 * nb), dtype=bool)  # the padding stays clear
        padded[..., :n] = adj
        bits[rows] = np.packbits(padded).reshape(m, n, nb)
    bits.setflags(write=False)
    return GraphSequence(n, bits)


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


def _strongly_connected(adj: np.ndarray) -> np.ndarray:
    """Per graph of the boolean stack ``adj[m, n, n]``: is it strongly
    connected?  Vertex 0 reaches all vertices and, in the reversed graph,
    again reaches all.  The products run in float32, which BLAS does
    several times faster than boolean matmul; sums of 0/1 entries stay
    exact."""
    a = adj.astype(np.float32)
    return _reaches_all(a) & _reaches_all(a.transpose(0, 2, 1))


def uniform_connectivity_window(seq: GraphSequence) -> int | None:
    """Smallest window length L certifying joint strong connectivity.

    Returns the smallest L such that for every start t with a full window
    inside the horizon, the union of graphs over [t, t+L-1] is strongly
    connected, or None if even the whole horizon fails.  This is a
    finite-horizon certificate over the materialized sequence only; it
    says nothing about steps beyond the horizon.  It is
    :func:`connectivity_windows` with the one horizon ``seq.horizon``.
    """
    return connectivity_windows(seq, [seq.horizon])[0]


def connectivity_windows(seq: GraphSequence, horizons: Iterable[int]) -> list[int | None]:
    """``uniform_connectivity_window(seq.prefix(T))`` for every T in
    ``horizons`` (in their order; each within ``1..seq.horizon``), from
    one scan of the first ``max(horizons)`` steps.

    Let f(L) be the first start whose length-L window is not strongly
    connected.  A window that holds a strongly connected window is itself
    strongly connected, so f is nondecreasing, every start before f(L)
    passes at every longer length, and horizon T's window is the smallest
    L with f(L) + L > T, or None if that L exceeds T.  The scan climbs
    this staircase: it tests the starts in order at a length that only
    grows, and at the first failing start it records f(L), adds one to
    the length and tests that start again.  So one scan answers every
    horizon, and each start is tested about once.  The starts are tested
    in blocks: one start after each failure, twice as many after each
    passing block, up to one :func:`row_blocks` block of ``BLOCK_BYTES``
    (a union unpacked to booleans and to float32).

    ``level`` holds the packed unions of all windows of length ``a`` (a
    power of two, only growing, below the length once it exceeds 1); a
    window of length L in [a, 2a] is the union of two overlapping ones,
    the OR of their packed bytes.  ``level`` starts as the sequence
    itself; its first growth makes one private copy of the packed stack,
    and every growth ORs each union with the one ``a`` starts later in
    place, in ascending blocks: a block reads only rows that no earlier
    block has updated, and NumPy reads the rows a block shares with its
    own output before writing.  Besides the sequence, memory stays at one
    packed stack and a few blocks.

    A test can take n rounds, so only the unions whose bytes differ from
    ``known``, the last union that passed, are unpacked and tested: a
    graph byte-equal to a strongly connected one is strongly connected.
    ``known`` starts as zeros, which no union equals (each has its
    self-arcs).  A periodic sequence has one union once the window spans
    its period; windows that repeat with period p >= 2 at a length below
    p (a graph file alternating two strongly connected graphs) save nothing.
    """
    hs = list(horizons)
    if any(not 1 <= T <= seq.horizon for T in hs):
        raise ValueError(f"horizons must lie in [1, {seq.horizon}], got {hs}")
    if not hs:
        return []
    h, n = max(hs), seq.n
    row_bytes = 8 * n * ((n + 7) // 8) + 4 * n * n
    most = next(row_blocks(h, row_bytes)).stop  # the starts in one block
    level, a = seq.bits[:h], 1
    length, lo, block = 1, 0, 1
    ends: list[int] = []  # f(L) + L for L = 1, 2, ..., length - 1
    known = np.zeros_like(seq.bits[0])  # the last union that passed
    while lo <= h - length:
        while 2 * a < length:
            if a == 1:
                level = np.array(level)
            m = len(level) - a
            for rows in row_blocks(m, row_bytes):
                np.bitwise_or(level[rows], level[rows.start + a : rows.stop + a], out=level[rows])
            level = level[:m]
            a *= 2
        hi = min(h - length + 1, lo + block)
        unions = level[lo:hi] | level[lo + length - a : hi + length - a]
        fresh = np.flatnonzero((unions != known).any(axis=(1, 2)))
        passed = _strongly_connected(unpack_adjacency(unions[fresh], n))
        if passed.any():
            known[...] = unions[fresh[passed][-1]]
        failed = fresh[~passed]
        if failed.size:
            lo += int(failed[0])
            ends.append(lo + length)
            length, block = length + 1, 1
        else:
            lo, block = hi, min(2 * block, most)
    ends.append(h + 1)
    windows = np.searchsorted(ends, hs, side="right") + 1
    return [int(L) if L <= T else None for L, T in zip(windows, hs)]


def parse_graph_sequence(text: str) -> GraphSequence:
    """Parse the 1-indexed text form: header ``n horizon``, then one
    ``t: j>i j>i ...`` line per step.

    Self-arcs are implied and added on every vertex; listing one
    explicitly is tolerated.  Steps must appear in order 0..horizon-1.
    Each step is packed as soon as it is parsed.
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
    bits = np.empty((horizon, n, (n + 7) // 8), dtype=np.uint8)
    eye = np.eye(n, dtype=bool)
    adj = np.empty((n, n), dtype=bool)
    for t, ln in enumerate(lines[1:]):
        label, _, rest = ln.partition(":")
        try:
            step = int(label.strip())
        except ValueError as exc:
            raise ValueError(f"bad step label in line {ln!r}") from exc
        if step != t:
            raise ValueError(f"step lines out of order: expected {t}, got {step}")
        adj[:] = eye
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
            adj[j - 1, i - 1] = True
        bits[t] = np.packbits(adj, axis=1)
    bits.setflags(write=False)
    return GraphSequence(n, bits)
