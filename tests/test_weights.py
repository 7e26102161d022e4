import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushsim.graphs import digraph, generate_sequence
from pushsim.weights import (
    BLOCK_FLOATS,
    WeightMatrix,
    build_weight_stack,
    build_weights,
    parse_matrix,
    validate_column_stochastic,
)
from reference import format_matrix, reference_weight_stack


def cycle3():
    return digraph(3, [(j, (j + 1) % 3) for j in range(3)])


def test_uniform_weights_on_cycle():
    w = build_weights(cycle3())
    # every sender splits between itself and its successor
    assert np.allclose(w.entries.sum(axis=0), 1.0)
    for j in range(3):
        col = w.entries[:, j]
        assert sorted(col[col > 0]) == [0.5, 0.5]
    assert w.beta == 0.5


def test_uniform_weights_support_matches_graph():
    for g in generate_sequence("random-walkable", 5, 10, seed=2).graphs:
        w = build_weights(g)
        rep = validate_column_stochastic(w.entries, g)
        assert rep.ok, rep.violations
        assert rep.column_sum_error <= 1e-12
        assert rep.min_positive == w.beta


def test_entries_are_immutable():
    w = build_weights(cycle3())
    with pytest.raises(ValueError):
        w.entries[0, 0] = 0.9


def test_validation_catches_bad_column_sum():
    g = cycle3()
    e = build_weights(g).entries.copy()
    e[0, 0] += 1e-6
    rep = validate_column_stochastic(e, g)
    assert not rep.ok
    assert any("sum off" in v for v in rep.violations)


def test_validation_catches_support_mismatch():
    g = cycle3()
    e = build_weights(g).entries.copy()
    e[2, 0] = e[0, 0]  # arc 1>3 does not exist
    e[0, 0] = 0.0      # and the self-arc loses its weight
    rep = validate_column_stochastic(e, g)
    names = " ".join(rep.violations)
    assert "without arc" in names
    assert "carries no weight" in names
    assert "diagonal" in names


def test_validation_rejects_negative_entries():
    g = digraph(2, [(0, 1), (1, 0)])
    e = np.array([[1.5, 0.5], [-0.5, 0.5]])
    rep = validate_column_stochastic(e, g)
    assert any("negative" in v for v in rep.violations)


def test_validation_reports_non_finite_entries():
    # NaN fails every comparison, so no other rule would see it
    rep = validate_column_stochastic([[0.5, np.nan], [0.5, 1.0]], digraph(2, [(0, 1)]))
    assert rep.violations == ("non-finite weight w[1,2] = nan",)


def test_matrix_text_round_trip():
    w = build_weights(cycle3()).entries
    back = parse_matrix(format_matrix(w))
    assert np.array_equal(back, w)
    # 17 significant digits survive for awkward values too
    m = np.array([[1 / 3, 2 / 3], [0.1, 0.9]])
    assert np.array_equal(parse_matrix(format_matrix(m)), m)


def test_parse_matrix_errors():
    with pytest.raises(ValueError, match="empty"):
        parse_matrix("  \n ")
    with pytest.raises(ValueError, match="not square"):
        parse_matrix("1 0\n0.5")
    with pytest.raises(ValueError, match="bad matrix entry"):
        parse_matrix("1 x\n0 1")
    # NaN compares false everywhere, so it would slip past every check
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=f"non-finite matrix entry '{bad}' at row 2, column 1"):
            parse_matrix(f"1 0\n{bad} 1")


def reference_support_violations(w, g):
    """The per-entry loop validate_column_stochastic replaced, kept as
    the reference for its support messages and their order."""
    adj = g.adjacency()
    problems = []
    for i in range(g.n):
        for j in range(g.n):
            has_arc = adj[j, i]
            if w[i, j] > 0 and not has_arc:
                problems.append(f"positive weight w[{i + 1},{j + 1}] without arc {j + 1}>{i + 1}")
            if has_arc and w[i, j] <= 0:
                problems.append(f"arc {j + 1}>{i + 1} carries no weight")
    return problems


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 7), density=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 16))
def test_support_violations_match_the_entry_loop(n, density, seed):
    rng = np.random.default_rng(seed)
    g = digraph(n, [(j, i) for j in range(n) for i in range(n) if i != j and rng.random() < density])
    # Entries on and off the support, some zero and some negative.
    w = np.where(rng.random((n, n)) < 0.5, rng.uniform(-0.3, 1.0, (n, n)), 0.0)
    if rng.random() < 0.3:  # and sometimes the graph's own valid weights
        w = build_weights(g).entries
    support = [v for v in validate_column_stochastic(w, g).violations if "arc" in v]
    assert support == reference_support_violations(w, g)


@pytest.mark.parametrize("kind", ["static-cycle", "rotating-arc", "random-walkable"])
def test_weight_stack_steps_are_read_only_views_equal_to_per_graph_builds(kind):
    seq = generate_sequence(kind, 6, 40, seed=4, arc_prob=0.3)
    ws = build_weight_stack(seq)
    assert len(ws) == seq.horizon
    x = np.linspace(-1.0, 2.0, 6 * 3).reshape(6, 3)
    for t, g in enumerate(seq.graphs):
        w, ref = ws[t], build_weights(g)
        assert not w.entries.base.flags.writeable  # a view of a read-only block
        assert w.entries.flags.c_contiguous and not w.entries.flags.writeable
        assert np.array_equal(w.entries, ref.entries) and w.beta == ref.beta
        # same layout, so the same BLAS path and bit-identical products
        assert np.array_equal(w.entries @ x, ref.entries @ x)
        # the per-arc rule, written out
        expected = np.zeros((6, 6))
        for (j, i) in g.arcs:
            expected[i, j] = 1.0 / g.out_degree(j)
        assert np.array_equal(w.entries, expected)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(40, 160),
    full=st.integers(1, 3),
    rest=st.floats(0.0, 1.0, exclude_max=True),
    cut=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2 ** 16),
)
def test_weight_blocks_and_steps_are_bitwise_the_whole_stack(n, full, rest, cut, seed):
    # `full` whole blocks and then part of one
    k = max(1, BLOCK_FLOATS // n ** 2)
    horizon = full * k + 1 + int(rest * (k - 1))
    seq = generate_sequence("random-walkable", n, horizon, seed, arc_prob=0.1)
    ws, ref = build_weight_stack(seq), reference_weight_stack(seq)
    whole = ref[0].entries.base
    blocks = list(ws.blocks())
    assert [len(b) for b in blocks] == [k] * full + [horizon - full * k]
    for b in blocks:
        assert b.flags.c_contiguous and not b.flags.writeable
    assert same_bits(np.concatenate(blocks), whole)
    for t in range(horizon):
        w = ws[t]
        assert same_bits(w.entries, ref[t].entries) and w.beta == ref[t].beta
    # a prefix is a view with the same steps
    m = 1 + int(cut * horizon)
    pre = ws[:m]
    assert len(pre) == m and np.shares_memory(pre.betas, ws.betas)
    assert same_bits(np.concatenate(list(pre.blocks())), whole[:m])


def test_writable_entries_are_copied_read_only_ones_shared():
    e = np.full((2, 2), 0.5)
    w = WeightMatrix(n=2, entries=e, beta=0.5)
    assert not np.shares_memory(w.entries, e)
    e.setflags(write=False)
    assert WeightMatrix(n=2, entries=e, beta=0.5).entries is e
