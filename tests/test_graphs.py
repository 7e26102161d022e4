import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pushsim.graphs
from pushsim.graphs import (
    Digraph,
    GraphSequence,
    connectivity_windows,
    digraph,
    generate_sequence,
    parse_graph_sequence,
    uniform_connectivity_window,
    unpack_adjacency,
)
from pushsim.weights import build_weight_stack
from reference import format_graph_sequence, reference_adjacency, reference_connectivity_window


def test_digraph_requires_self_arcs():
    with pytest.raises(ValueError, match="self-arc"):
        Digraph(n=2, arcs=frozenset({(0, 0), (0, 1)}))
    g = digraph(2, [(0, 1)])
    assert (0, 0) in g.arcs and (1, 1) in g.arcs


def test_digraph_rejects_out_of_range_arcs():
    with pytest.raises(ValueError, match="out of range"):
        digraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Digraph(n=0, arcs=frozenset())


def test_neighborhoods():
    g = digraph(3, [(0, 1), (2, 1)])
    assert g.in_neighbors(1) == {0, 1, 2}
    assert g.out_neighbors(0) == {0, 1}
    assert g.out_degree(2) == 2
    a = g.adjacency()
    assert a[0, 1] and a[2, 1] and not a[1, 0]
    assert all(a[i, i] for i in range(3))


def strongly_connected(g):
    """Whether one graph is strongly connected, by the window search the
    commands run: a one-step sequence has window 1 iff its graph is."""
    return uniform_connectivity_window(GraphSequence(g.n, g._bits[None])) == 1


def test_strong_connectivity_examples():
    assert strongly_connected(digraph(1))
    assert not strongly_connected(digraph(2, [(0, 1)]))
    assert strongly_connected(digraph(2, [(0, 1), (1, 0)]))
    ring = digraph(5, [(j, (j + 1) % 5) for j in range(5)])
    assert strongly_connected(ring)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 6),
    data=st.data(),
)
def test_strong_connectivity_matches_networkx(n, data):
    import networkx as nx

    pairs = [(j, i) for j in range(n) for i in range(n) if i != j]
    chosen = data.draw(st.sets(st.sampled_from(pairs)))
    g = digraph(n, chosen)
    h = nx.DiGraph()
    h.add_nodes_from(range(n))
    h.add_edges_from(g.arcs)
    assert strongly_connected(g) == nx.is_strongly_connected(h)


def test_generators_are_deterministic():
    s1 = generate_sequence("random-walkable", 4, 30, seed=9)
    s2 = generate_sequence("random-walkable", 4, 30, seed=9)
    assert s1 == s2
    assert s1 != generate_sequence("random-walkable", 4, 30, seed=10)


def test_generators_are_prefix_stable():
    short = generate_sequence("random-walkable", 5, 20, seed=3)
    long = generate_sequence("random-walkable", 5, 60, seed=3)
    assert long.graphs[:20] == short.graphs


def test_generator_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown generator"):
        generate_sequence("nope", 3, 10)
    with pytest.raises(ValueError):
        generate_sequence("static-cycle", 0, 10)
    with pytest.raises(ValueError):
        generate_sequence("static-cycle", 3, 0)
    with pytest.raises(ValueError):
        generate_sequence("random-walkable", 3, 10, arc_prob=1.5)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rotating_arc_window_is_n(n):
    seq = generate_sequence("rotating-arc", n, 4 * n, seed=0)
    assert uniform_connectivity_window(seq) == n


def test_static_cycle_window_is_one():
    seq = generate_sequence("static-cycle", 4, 12)
    assert uniform_connectivity_window(seq) == 1


def test_self_arcs_only_has_no_window():
    adj = np.stack([digraph(3).adjacency()] * 10)
    seq = GraphSequence(3, np.packbits(adj, axis=2))
    assert uniform_connectivity_window(seq) is None


def test_random_walkable_window_at_most_injection_period():
    for n in (2, 4, 6):
        seq = generate_sequence("random-walkable", n, 40, seed=1)
        w = uniform_connectivity_window(seq)
        assert w is not None and w <= 5


def test_text_round_trip():
    seq = generate_sequence("random-walkable", 4, 15, seed=5)
    text = format_graph_sequence(seq)
    back = parse_graph_sequence(text)
    assert back.n == seq.n and back.horizon == seq.horizon
    assert back.graphs == seq.graphs
    # canonical text is reproduced exactly on a second round
    assert format_graph_sequence(back) == text


def test_text_format_is_one_indexed_without_self_arcs():
    seq = generate_sequence("rotating-arc", 3, 2, seed=0)
    text = format_graph_sequence(seq)
    lines = text.splitlines()
    assert lines[0] == "3 2"
    assert lines[1] == "0: 1>2"
    assert lines[2] == "1: 2>3"


@pytest.mark.parametrize(
    "text, msg",
    [
        ("", "empty"),
        ("3\n0:", "header"),
        ("2 2\n0: 1>2", "step lines"),
        ("2 1\n1: 1>2", "out of order"),
        ("2 1\n0: 1-2", "arc token"),
        ("2 1\n0: 1>3", "out of range"),
    ],
)
def test_parse_rejects_malformed_text(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_graph_sequence(text)


def test_parse_tolerates_explicit_self_arcs():
    seq = parse_graph_sequence("2 1\n0: 1>1 1>2\n")
    assert seq.graphs[0].arcs == frozenset({(0, 0), (1, 1), (0, 1)})


# --------------------------------------------------------------------------
# reference implementations: per-arc generator and brute-force window
# --------------------------------------------------------------------------

def reference_arcs(kind, n, horizon, seed, arc_prob=0.25, inject_every=5):
    """Per-step arc sets, drawn one arc at a time (self-arcs included)."""
    selfs = {(i, i) for i in range(n)}
    ring = [(j, (j + 1) % n) for j in range(n)]
    if kind == "static-cycle":
        return [frozenset(selfs | set(ring)) for _ in range(horizon)]
    if kind == "rotating-arc":
        return [frozenset(selfs | {(t % n, (t + 1) % n)}) for t in range(horizon)]
    rng = np.random.default_rng(seed)
    out = []
    for t in range(horizon):
        coins = rng.random((n, n))
        arcs = set(selfs)
        arcs.update((j, i) for j in range(n) for i in range(n)
                    if i != j and coins[j, i] < arc_prob)
        if t % inject_every == 0:
            arcs.update(ring)
        out.append(frozenset(arcs))
    return out


def reference_strongly_connected(n, arcs):
    fwd = {v: [] for v in range(n)}
    rev = {v: [] for v in range(n)}
    for (j, i) in arcs:
        fwd[j].append(i)
        rev[i].append(j)

    def reaches_all(adj):
        seen, stack = {0}, [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == n

    return reaches_all(fwd) and reaches_all(rev)


def reference_window(n, steps):
    """Smallest L whose every full window union is strongly connected."""
    h = len(steps)
    for window in range(1, h + 1):
        if all(
            reference_strongly_connected(n, frozenset().union(*steps[s:s + window]))
            for s in range(h - window + 1)
        ):
            return window
    return None


def stack_of(n, steps):
    adj = np.zeros((len(steps), n, n), dtype=bool)
    for t, arcs in enumerate(steps):
        for (j, i) in arcs:
            adj[t, j, i] = True
    return adj


def bits_of(n, steps):
    return np.packbits(stack_of(n, steps), axis=2)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["static-cycle", "rotating-arc", "random-walkable"]),
    n=st.integers(1, 7),
    horizon=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    arc_prob=st.floats(0.0, 1.0),
    inject_every=st.integers(1, 9),
)
def test_generator_and_window_match_reference(kind, n, horizon, seed, arc_prob, inject_every):
    seq = generate_sequence(kind, n, horizon, seed, arc_prob=arc_prob, inject_every=inject_every)
    steps = reference_arcs(kind, n, horizon, seed, arc_prob, inject_every)
    assert np.array_equal(unpack_adjacency(seq.bits, n), stack_of(n, steps))
    assert [g.arcs for g in seq.graphs] == steps
    assert uniform_connectivity_window(seq) == reference_window(n, steps)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10), horizon=st.integers(1, 14), data=st.data())
def test_window_matches_reference_on_hand_built_stacks(n, horizon, data):
    pairs = [(j, i) for j in range(n) for i in range(n) if i != j]
    selfs = {(i, i) for i in range(n)}
    cross = st.sets(st.sampled_from(pairs), max_size=3) if pairs else st.just(frozenset())
    steps = [frozenset(selfs | data.draw(cross)) for _ in range(horizon)]
    seq = GraphSequence(n, bits_of(n, steps))
    assert uniform_connectivity_window(seq) == reference_window(n, steps)


@pytest.mark.parametrize(
    "n, steps, expected",
    [
        (1, [frozenset({(0, 0)})] * 4, 1),
        (3, [frozenset({(0, 0), (1, 1), (2, 2)})] * 6, None),
        (4, reference_arcs("rotating-arc", 4, 16, 0), 4),
        (4, reference_arcs("rotating-arc", 4, 4, 0), 4),
        (4, reference_arcs("rotating-arc", 4, 3, 0), None),
    ],
)
def test_window_edge_cases_match_reference(n, steps, expected):
    seq = GraphSequence(n, bits_of(n, steps))
    assert reference_window(n, steps) == expected
    assert uniform_connectivity_window(seq) == expected


def horizon_lists(horizon):
    """Horizon lists in any order, repeats allowed, all within ``horizon``."""
    return st.lists(st.integers(1, horizon), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["static-cycle", "rotating-arc", "random-walkable"]),
    n=st.integers(1, 19),  # one to three bytes per packed row
    horizon=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    arc_prob=st.floats(0.0, 0.6),
    inject_every=st.integers(1, 12),
    data=st.data(),
)
def test_every_horizon_window_matches_the_one_horizon_search(
    kind, n, horizon, seed, arc_prob, inject_every, data
):
    seq = generate_sequence(kind, n, horizon, seed, arc_prob=arc_prob, inject_every=inject_every)
    hs = data.draw(horizon_lists(horizon))
    # Budgets of one row and of a few rows a block make the in-place
    # growth of the unions run over many blocks, some of which overlap the
    # rows they read.
    budget = data.draw(st.sampled_from([None, 1, 100, 1000, 10000]))
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(pushsim.graphs, "BLOCK_BYTES", budget)
        got = connectivity_windows(seq, hs)
    assert got == [reference_connectivity_window(seq.prefix(T)) for T in hs]


@settings(max_examples=100, deadline=None)
@given(lead=st.integers(1, 30), tail=st.integers(1, 30), connected_first=st.booleans(), data=st.data())
def test_file_sequence_windows_match_the_one_horizon_search(lead, tail, connected_first, data):
    # A graph file of ``lead`` steps of one kind and ``tail`` of the
    # other: self-arcs only, or the 4-ring.  Ring steps first give every
    # horizon a window that grows with it; ring steps last leave the short
    # horizons without any.
    ring = frozenset({(i, i) for i in range(4)} | {(j, (j + 1) % 4) for j in range(4)})
    alone = frozenset((i, i) for i in range(4))
    steps = [ring] * lead + [alone] * tail if connected_first else [alone] * lead + [ring] * tail
    seq = parse_graph_sequence(format_graph_sequence(
        GraphSequence(4, bits_of(4, steps))))
    hs = data.draw(horizon_lists(len(steps)))
    windows = connectivity_windows(seq, hs)
    assert windows == [reference_connectivity_window(seq.prefix(T)) for T in hs]
    assert windows == [reference_window(4, steps[:T]) for T in hs]


def pattern_sequences():
    """Small sequences whose windows change with the horizon, each with
    its test id: the rotating arc (none below n, then n) and a ring run
    after a run of self-arcs only (none, then a window growing with the
    horizon)."""
    for n in range(2, 8):
        yield pytest.param(generate_sequence("rotating-arc", n, 2 * n + 2), id=f"rotating-arc-{n}-{2 * n + 2}")
    ring = frozenset({(i, i) for i in range(4)} | {(j, (j + 1) % 4) for j in range(4)})
    alone = frozenset((i, i) for i in range(4))
    for lead in (1, 3, 6):
        steps = [alone] * lead + [ring] * 3 + [alone] * lead + [ring]
        yield pytest.param(GraphSequence(4, bits_of(4, steps)), id=f"custom-4-{len(steps)}")


@pytest.mark.parametrize("seq", list(pattern_sequences()))
def test_every_pair_of_horizons_matches_the_one_horizon_search(seq):
    one = {T: reference_connectivity_window(seq.prefix(T)) for T in range(1, seq.horizon + 1)}
    assert connectivity_windows(seq, list(one)) == list(one.values())
    for shorter in range(1, seq.horizon + 1):
        for longer in range(shorter, seq.horizon + 1):
            assert connectivity_windows(seq, [longer, shorter]) == [one[longer], one[shorter]]


@pytest.mark.parametrize("kind", ["static-cycle", "rotating-arc"])
def test_window_search_holds_one_private_stack(monkeypatch, kind):
    # The unions grow in place in one copy of the packed stack: the search
    # holds that copy and a few blocks of BLOCK_BYTES, never a second
    # stack.  The rotating arc's window 8 grows the unions twice; the
    # static cycle's window 1 never does, and makes no copy.
    monkeypatch.setattr(pushsim.graphs, "BLOCK_BYTES", 1 << 14)
    seq = generate_sequence(kind, 8, 20000)
    tracemalloc.start()
    try:
        windows = connectivity_windows(seq, [20000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert windows == [8 if kind == "rotating-arc" else 1]
    copies = 1 if kind == "rotating-arc" else 0
    bound = copies * seq.bits.nbytes + 4 * pushsim.graphs.BLOCK_BYTES
    assert peak <= bound, f"peak {peak} B above {bound} B"


def test_window_search_holds_nothing_per_start(monkeypatch):
    # Nearly every random union is distinct.  At n=64 a packed union is
    # 512 B; the search remembers one of them, next to its one private
    # stack and a few blocks, and keeps nothing for each start.
    monkeypatch.setattr(pushsim.graphs, "BLOCK_BYTES", 1 << 16)
    seq = generate_sequence("random-walkable", 64, 2000, 1, arc_prob=0.05)
    windows, peak = traced_peak(lambda: connectivity_windows(seq, [2000]))
    assert windows == [reference_connectivity_window(seq)]
    bound = seq.bits.nbytes + 4 * pushsim.graphs.BLOCK_BYTES
    assert peak <= bound, f"peak {peak} B above {bound} B"


def test_window_search_hashes_do_not_grow_with_the_horizon(monkeypatch):
    # Nearly every random union is distinct, and the scan remembers only
    # the last one that passed: besides its private packed stack, its
    # memory is the same at either horizon.
    monkeypatch.setattr(pushsim.graphs, "BLOCK_BYTES", 1 << 16)
    seq = generate_sequence("random-walkable", 64, 4000, 1, arc_prob=0.05)
    short, long = (
        traced_peak(lambda: connectivity_windows(seq, [T]))[1] - seq.prefix(T).bits.nbytes
        for T in (1000, 4000)
    )
    assert long <= short + (1 << 14), f"{long} B at T=4000 against {short} B at T=1000"


def connected_then_failing_sequences():
    """Sequences whose early unions are connected and whose later ones
    are not, so a scan that took a union for connected without its bytes
    matching the remembered one would pass a failing length."""
    ring = frozenset({(i, i) for i in range(4)} | {(j, (j + 1) % 4) for j in range(4)})
    alone = frozenset((i, i) for i in range(4))
    for steps in ([ring] * 3 + [alone] * 2 + [ring] * 2, [ring] * 5 + [alone] + [ring] * 6 + [alone] * 3):
        yield pytest.param(GraphSequence(4, bits_of(4, steps)), id=f"ring-alone-{len(steps)}")
    yield pytest.param(generate_sequence("rotating-arc", 5, 17), id="rotating-arc-5-17")
    yield pytest.param(generate_sequence("random-walkable", 9, 60, 4, arc_prob=0.1), id="random-walkable-9-60")


@pytest.mark.parametrize("seq", list(connected_then_failing_sequences()))
def test_window_search_tests_every_union_unlike_the_last_that_passed(seq):
    for T in range(1, seq.horizon + 1):
        assert connectivity_windows(seq, [T]) == [reference_connectivity_window(seq.prefix(T))]


def counted_unions(monkeypatch, seq, hs):
    """(connectivity_windows(seq, hs), the count of unions passed to its
    strong-connectivity test)."""
    count = [0]
    test = pushsim.graphs._strongly_connected

    def counted(adj):
        count[0] += len(adj)
        return test(adj)

    monkeypatch.setattr(pushsim.graphs, "_strongly_connected", counted)
    windows = connectivity_windows(seq, hs)
    return windows, count[0]


@pytest.mark.parametrize("seq, bound", [
    pytest.param(generate_sequence("rotating-arc", 12, 600), 600, id="rotating-arc-12-600"),
    pytest.param(generate_sequence("static-cycle", 12, 600), 600, id="static-cycle-12-600"),
    # The certify workload's inputs are the arc_prob=0.05 ones.
    *(
        pytest.param(
            generate_sequence("random-walkable", 50, 2000, seed, arc_prob=p), 2100,
            id=f"random-walkable-50-2000-p{p}-seed{seed}",
        )
        for p in (0.05, 0.25) for seed in (0, 1, 7)
    ),
])
def test_window_scan_tests_each_start_about_once(monkeypatch, seq, bound):
    # A start is tested once at the length it passes, and once more per
    # failure.  The starts after a block's first failure were tested too
    # and are tested again at the next length; on the random inputs they
    # add up to 5% (the doubling-and-bisection search tested 6,504 unions
    # on the certify inputs at seed 1).  The periodic ones fail only at
    # start 0, alone in its block.
    windows, count = counted_unions(monkeypatch, seq, [seq.horizon])
    assert windows == [reference_connectivity_window(seq)]
    assert count <= bound


def test_window_scan_serves_every_horizon_from_the_longest_scan(monkeypatch):
    # The sweep workload's inputs: the shorter horizons cost no test.
    seq = generate_sequence("random-walkable", 20, 6400, 1, arc_prob=0.1)
    hs = [400, 800, 1600, 3200, 6400]
    windows, count = counted_unions(monkeypatch, seq, hs)
    assert windows == [reference_connectivity_window(seq.prefix(T)) for T in hs]
    assert (windows[-1:], count) == counted_unions(monkeypatch, seq, [6400])


@pytest.mark.parametrize("seq, hs, unions", [
    pytest.param(generate_sequence("rotating-arc", 12, 600), [600], 12, id="rotating-arc-12-600"),
    # The certify, sweep and verify workloads' inputs at seed 1.
    pytest.param(
        generate_sequence("random-walkable", 50, 2000, 1, arc_prob=0.05), [2000], 2012,
        id="random-walkable-50-2000",
    ),
    pytest.param(
        generate_sequence("random-walkable", 20, 6400, 1, arc_prob=0.1),
        [400, 800, 1600, 3200, 6400], 6401, id="random-walkable-20-6400",
    ),
    pytest.param(
        generate_sequence("random-walkable", 100, 64, 1, arc_prob=0.03), [64], 66,
        id="random-walkable-100-64",
    ),
])
def test_window_scan_tests_a_known_number_of_unions(monkeypatch, seq, hs, unions):
    # The rotating arc fails at start 0 below n, and at n every union is
    # the ring: it tests n unions.  Random unions are nearly all distinct.
    windows, count = counted_unions(monkeypatch, seq, hs)
    assert windows == [reference_connectivity_window(seq.prefix(T)) for T in hs]
    assert count == unions


@pytest.mark.parametrize("n", [12, 50])
def test_static_cycle_scan_tests_one_union_at_every_horizon(n):
    # Every union is the ring: only the first is tested.
    seq = generate_sequence("static-cycle", n, 300)
    for T in range(1, seq.horizon + 1):
        with pytest.MonkeyPatch.context() as mp:
            assert counted_unions(mp, seq, [T]) == ([1], 1)


def alternating_sequences():
    """Graph files that repeat a few graphs in turn, each with its test
    id: the ring and the reversed ring (window 1), the ring and self-arcs
    alone (window 2), and all three (window 2).  Below the period, the
    connected unions that follow each other differ."""
    n = 6
    alone = [(i, i) for i in range(n)]
    ring = frozenset(alone + [(j, (j + 1) % n) for j in range(n)])
    reversed_ring = frozenset(alone + [((j + 1) % n, j) for j in range(n)])
    for name, cycle in (
        ("ring-reversed", [ring, reversed_ring]),
        ("ring-alone", [ring, frozenset(alone)]),
        ("ring-reversed-alone", [ring, reversed_ring, frozenset(alone)]),
    ):
        steps = cycle * (60 // len(cycle))
        seq = parse_graph_sequence(format_graph_sequence(GraphSequence(n, bits_of(n, steps))))
        yield pytest.param(seq, id=name)


@pytest.mark.parametrize("seq", list(alternating_sequences()))
def test_alternating_file_windows_match_the_reference(monkeypatch, seq):
    # Such a file saves no test, and costs at most one per start.
    hs = list(range(1, seq.horizon + 1))
    windows, count = counted_unions(monkeypatch, seq, hs)
    assert windows == [reference_connectivity_window(seq.prefix(T)) for T in hs]
    assert count <= seq.horizon


def traced_peak(build):
    """(build(), the tracemalloc peak while it ran)."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["static-cycle", "rotating-arc", "random-walkable"])
def test_building_a_sequence_or_its_weights_holds_the_packed_stack_and_one_block(kind):
    # Generation, parsing and the weight stack hold the packed stack (one
    # bit per arc slot) and at most two blocks of BLOCK_BYTES, never a
    # T*n*n boolean stack (at n=100, T=4000: 5.2 MB packed, 40 MB not).
    n, horizon = 100, 4000
    packed = horizon * n * ((n + 7) // 8)
    bound = packed + 2 * pushsim.graphs.BLOCK_BYTES
    # The generator's and the parser's first calls import and cache.
    parse_graph_sequence(format_graph_sequence(generate_sequence(kind, 9, 3, 1)))
    seq, peak = traced_peak(lambda: generate_sequence(kind, n, horizon, 1, arc_prob=0.02))
    assert peak <= bound, f"generation peak {peak} B above {bound} B"
    # The weights share the stack and keep per-step degrees and floors.
    _, peak = traced_peak(lambda: build_weight_stack(seq))
    assert peak <= bound, f"weight stack peak {peak} B above {bound} B"
    if kind == "rotating-arc":  # a file whose text is small next to the stack
        text = format_graph_sequence(seq)
        back, peak = traced_peak(lambda: parse_graph_sequence(text))
        assert back.bits.nbytes == packed and np.array_equal(back.bits, seq.bits)
        assert peak <= bound, f"parse peak {peak} B above {bound} B"


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["static-cycle", "rotating-arc", "random-walkable"]),
    n=st.integers(1, 21),
    horizon=st.integers(1, 90),
    seed=st.integers(0, 2**32 - 1),
    arc_prob=st.floats(0.0, 1.0),
    inject_every=st.integers(1, 9),
    budget=st.sampled_from([None, 1, 400, 2500]),
)
def test_packed_generation_is_the_dense_generator_packed(
    kind, n, horizon, seed, arc_prob, inject_every, budget
):
    # Blocks of a few steps split the draws, the injections and the
    # rotating arcs across block boundaries.
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(pushsim.graphs, "BLOCK_BYTES", budget)
        seq = generate_sequence(kind, n, horizon, seed, arc_prob=arc_prob, inject_every=inject_every)
    dense = reference_adjacency(kind, n, horizon, seed, arc_prob, inject_every)
    assert seq.bits.dtype == np.uint8 and seq.bits.shape == (horizon, n, (n + 7) // 8)
    assert not seq.bits.flags.writeable
    assert np.array_equal(seq.bits, np.packbits(dense, axis=2))
    assert np.array_equal(unpack_adjacency(seq.bits, n), dense)
    assert [g.adjacency().tolist() for g in seq.graphs] == dense.tolist()


def test_window_search_rejects_horizons_outside_the_sequence():
    seq = generate_sequence("static-cycle", 3, 10)
    assert connectivity_windows(seq, []) == []
    for bad in ([0], [11], [5, 11]):
        with pytest.raises(ValueError, match=r"horizons must lie in \[1, 10\]"):
            connectivity_windows(seq, bad)


def test_sequence_stack_is_read_only_and_validated():
    seq = generate_sequence("random-walkable", 4, 10, seed=1)
    assert seq.bits.shape == (10, 4, 1) and seq.bits.dtype == np.uint8
    with pytest.raises(ValueError):
        seq.bits[0, 0, 0] = 0
    bits = np.array(seq.bits)
    copy = GraphSequence(4, bits)
    bits[0, 0, 0] ^= 0x40  # the sequence kept its own copy
    assert np.array_equal(copy.bits, seq.bits)
    bits[3, 2, 0] &= ~np.uint8(0x20)
    with pytest.raises(ValueError, match=r"self-arc at vertices \[2\]"):
        GraphSequence(4, bits)
    with pytest.raises(ValueError, match="shape"):
        GraphSequence(5, seq.bits)
    with pytest.raises(ValueError, match="uint8"):
        GraphSequence(4, unpack_adjacency(seq.bits, 4))
    # the horizon is the stack's length, and the stack must hold a step
    assert GraphSequence(4, seq.bits[:7]).horizon == 7
    for bad in (seq.bits[:0], seq.bits[0], seq.bits[None]):
        with pytest.raises(ValueError, match="nonempty"):
            GraphSequence(4, bad)


@pytest.mark.parametrize("n", [1, 7, 9, 16, 17])
def test_packed_rows_keep_their_padding_clear(n):
    seq = generate_sequence("static-cycle", n, 3)
    bits = np.array(seq.bits)
    assert np.array_equal(unpack_adjacency(bits, n), np.broadcast_to(seq[0].adjacency(), (3, n, n)))
    bits[2, n - 1, -1] |= 1  # the last bit of the last byte of a row
    if n % 8:
        with pytest.raises(ValueError, match=f"padding bits past vertex {n}"):
            GraphSequence(n, bits)
    else:  # no padding: the bit is vertex n-1's self-arc, already set
        assert np.array_equal(GraphSequence(n, bits).bits, seq.bits)
