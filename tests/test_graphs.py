import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushsim.graphs import (
    Digraph,
    GraphSequence,
    digraph,
    format_graph_sequence,
    generate_sequence,
    is_strongly_connected,
    parse_graph_sequence,
    uniform_connectivity_window,
)


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


def test_strong_connectivity_examples():
    assert is_strongly_connected(digraph(1))
    assert not is_strongly_connected(digraph(2, [(0, 1)]))
    assert is_strongly_connected(digraph(2, [(0, 1), (1, 0)]))
    ring = digraph(5, [(j, (j + 1) % 5) for j in range(5)])
    assert is_strongly_connected(ring)


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
    assert is_strongly_connected(g) == nx.is_strongly_connected(h)


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
    seq = GraphSequence(n=3, horizon=10, kind="custom", seed=0, adj=adj)
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
    assert np.array_equal(seq.adj, stack_of(n, steps))
    assert [g.arcs for g in seq.graphs] == steps
    assert uniform_connectivity_window(seq) == reference_window(n, steps)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5), horizon=st.integers(1, 14), data=st.data())
def test_window_matches_reference_on_hand_built_stacks(n, horizon, data):
    pairs = [(j, i) for j in range(n) for i in range(n) if i != j]
    selfs = {(i, i) for i in range(n)}
    cross = st.sets(st.sampled_from(pairs), max_size=3) if pairs else st.just(frozenset())
    steps = [frozenset(selfs | data.draw(cross)) for _ in range(horizon)]
    seq = GraphSequence(n=n, horizon=horizon, kind="custom", seed=0, adj=stack_of(n, steps))
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
    seq = GraphSequence(n=n, horizon=len(steps), kind="custom", seed=0, adj=stack_of(n, steps))
    assert reference_window(n, steps) == expected
    assert uniform_connectivity_window(seq) == expected


def test_sequence_stack_is_read_only_and_validated():
    seq = generate_sequence("random-walkable", 4, 10, seed=1)
    assert seq.adj.shape == (10, 4, 4) and seq.adj.dtype == bool
    with pytest.raises(ValueError):
        seq.adj[0, 0, 1] = True
    adj = np.array(seq.adj)
    copy = GraphSequence(n=4, horizon=10, kind="custom", seed=0, adj=adj)
    adj[0, 0, 1] = not adj[0, 0, 1]  # the sequence kept its own copy
    assert np.array_equal(copy.adj, seq.adj)
    adj[3, 2, 2] = False
    with pytest.raises(ValueError, match="self-arc"):
        GraphSequence(n=4, horizon=10, kind="custom", seed=0, adj=adj)
    with pytest.raises(ValueError, match="shape"):
        GraphSequence(n=4, horizon=9, kind="custom", seed=0, adj=seq.adj)
