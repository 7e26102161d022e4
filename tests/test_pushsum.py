import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pushsim.graphs import digraph, generate_sequence
from pushsim.pushsum import (
    PRODUCT_SPAN,
    AbsProbSeq,
    RunFailure,
    absolute_probability,
    build_s_matrix,
    initial_state,
    product_identity_residuals,
    pushsum_step,
    ratio_state,
    theory_constants,
)
from pushsim.subgradient import mean_and_consensus
from pushsim.weights import WeightMatrix, WeightStack, build_weight_stack, build_weights
from reference import (
    reference_product_identity_residuals,
    transition_product_s,
    transition_product_w,
)


def cycle_weights(n):
    return build_weights(digraph(n, [(j, (j + 1) % n) for j in range(n)]))


def run_history(kind, n, steps, seed, x0):
    """Run pure push-sum, returning (ws, ss, ys incl. final, states)."""
    seq = generate_sequence(kind, n, steps, seed)
    ws = [build_weights(g) for g in seq.graphs]
    st_ = initial_state(x0)
    ys = [st_.y]
    ss = []
    for w in ws:
        ss.append(build_s_matrix(w, st_.y))
        st_ = pushsum_step(st_, w)
        ys.append(st_.y)
    return ws, ss, ys, st_


def test_single_step_example():
    w = WeightMatrix(np.full((2, 2), 0.5), 0.5)
    st_ = initial_state(np.array([[0.0], [2.0]]))
    nxt = pushsum_step(st_, w)
    assert_allclose(nxt.x, [[1.0], [1.0]])
    assert_allclose(nxt.y, [1.0, 1.0])
    assert nxt.t == 1


def test_step_checks_dimensions():
    w = cycle_weights(3)
    with pytest.raises(ValueError, match="n=2"):
        pushsum_step(initial_state(np.zeros((2, 1))), w)


def test_ratio_converges_to_average_vs_matrix_power_oracle():
    # independent oracle: dense matrix powers of the same static step
    w = cycle_weights(3)
    x0 = np.array([[1.0], [4.0], [7.0]])
    st_ = initial_state(x0)
    for _ in range(100):
        st_ = pushsum_step(st_, w)
    p100 = np.linalg.matrix_power(w.entries, 100)
    assert_allclose(st_.x, p100 @ x0, rtol=1e-12, atol=1e-12)
    assert_allclose(st_.y, p100 @ np.ones(3), rtol=1e-12, atol=1e-12)
    z = ratio_state(st_)
    assert np.abs(z - 4.0).max() <= 1e-8


def test_ratio_underflow_raises_with_agent_number():
    st_ = initial_state(np.ones((2, 1)))
    bad = object.__new__(type(st_))
    object.__setattr__(bad, "t", 3)
    object.__setattr__(bad, "x", st_.x)
    object.__setattr__(bad, "y", np.array([1.0, 0.0]))
    with pytest.raises(RunFailure, match="agents \\[2\\]") as info:
        ratio_state(bad)
    assert (info.value.check, info.value.agent, info.value.t) == ("weight-underflow", 2, 3)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    kind=st.sampled_from(["static-cycle", "rotating-arc", "random-walkable"]),
    seed=st.integers(0, 50),
    steps=st.integers(1, 25),
)
def test_mass_conservation_property(n, kind, seed, steps):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-100, 100, size=(n, 2))
    seq = generate_sequence(kind, n, steps, seed)
    st_ = initial_state(x0)
    for g in seq.graphs:
        st_ = pushsum_step(st_, build_weights(g))
        assert abs(st_.y.sum() - n) <= 1e-9
        assert np.abs(st_.x.sum(axis=0) - x0.sum(axis=0)).max() <= 1e-9 * max(1.0, np.abs(x0).sum())


def test_companion_matrix_of_doubly_stochastic_step_is_w():
    w = WeightMatrix(np.full((2, 2), 0.5), 0.5)
    s = build_s_matrix(w, np.ones(2))
    assert_allclose(s.entries, w.entries)
    assert s.entries[s.entries > 0].min() == 0.5


def test_companion_matrix_row_stochastic_and_support():
    ws, ss, ys, _ = run_history("random-walkable", 5, 30, seed=4, x0=np.zeros((5, 1)))
    eta = min(float(np.min(y)) for y in ys)
    for w, s, y in zip(ws, ss, ys):
        assert np.abs(s.entries.sum(axis=1) - 1.0).max() <= 1e-12
        assert ((s.entries > 0) == (w.entries > 0)).all()
        # supported entries keep a uniform floor beta * eta / n
        floor = w.beta * eta / 5
        assert s.entries[s.entries > 0].min() >= floor - 1e-15


def test_companion_matrix_rejects_bad_weights():
    w = cycle_weights(3)
    with pytest.raises(ValueError, match="positive weights"):
        build_s_matrix(w, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="shape"):
        build_s_matrix(w, np.ones(2))


def test_transition_products_basics():
    ws, ss, ys, _ = run_history("rotating-arc", 3, 8, seed=0, x0=np.zeros((3, 1)))
    assert_allclose(transition_product_w(ws, 3, 3), np.eye(3))
    assert_allclose(transition_product_w(ws, 2, 3), ws[2].entries)
    assert_allclose(transition_product_s(ss, 2, 3), ss[2].entries)
    two = transition_product_w(ws, 1, 3)
    assert_allclose(two, ws[2].entries @ ws[1].entries)
    with pytest.raises(ValueError):
        transition_product_w(ws, 5, 3)


def as_stack(w):
    """The (T, n, n) array ``w`` as a WeightStack; each step is divided by
    1.0, which leaves every bit as it is."""
    return WeightStack(w, np.ones(w.shape[:2]), np.full(len(w), 0.1))


def stacked(ws, ys):
    """The weight stack and (T+1, n) weight history of a run_history."""
    return as_stack(np.stack([w.entries for w in ws])), np.array(ys)


def test_product_identity_single_step_is_exact_to_rounding():
    ws, ss, ys, _ = run_history("random-walkable", 4, 20, seed=7, x0=np.zeros((4, 1)))
    w, y = stacked(ws, ys)
    for tau in range(19):
        assert product_identity_residuals(w[tau : tau + 1], y[tau : tau + 2])[0] <= 1e-12


def test_product_identity_long_products():
    ws, ss, ys, _ = run_history("random-walkable", 5, 45, seed=11, x0=np.zeros((5, 1)))
    assert product_identity_residuals(*stacked(ws, ys)).max() <= 1e-9


def scratch_identity_residual(ws, ss, ys, tau, t):
    """The exchange-identity residual with both products rebuilt from scratch."""
    ps = transition_product_s(ss, tau, t)
    pw = transition_product_w(ws, tau, t)
    return float(np.abs(ps * ys[t][:, None] - pw * ys[tau][None, :]).max())


def test_incremental_identity_residuals_match_scratch_products():
    # entry tau is the worst from-scratch residual over t = tau+1 ..
    # min(T, tau + PRODUCT_SPAN), bit for bit, for T below, at and above
    # the span
    for steps in (30, PRODUCT_SPAN, PRODUCT_SPAN + 13):
        ws, ss, ys, _ = run_history("random-walkable", 6, steps, seed=5, x0=np.zeros((6, 1)))
        res = product_identity_residuals(*stacked(ws, ys))
        assert res.shape == (steps,)
        for tau in range(steps):
            want = max(
                scratch_identity_residual(ws, ss, ys, tau, t)
                for t in range(tau + 1, min(steps, tau + PRODUCT_SPAN) + 1)
            )
            assert res[tau] == want, (steps, tau)
    w, y = stacked(ws, ys)
    with pytest.raises(ValueError, match="weight vectors"):
        product_identity_residuals(w, y[:-1])


def test_a_nan_weight_gives_a_nan_residual():
    # max() would drop a NaN that is not first; every start whose products
    # reach the bad step reports NaN, the others stay finite.  A NaN in
    # W(7) or in the push-sum weights y(7) does it, and a NaN y_j(7) makes
    # column j of S(7) NaN also where W(7) is zero.
    ws, ss, ys, _ = run_history("random-walkable", 5, 20, seed=2, x0=np.zeros((5, 1)))
    w, y = stacked(ws, ys)
    w = w.num
    assert (w[7, :, 2] == 0).any()
    bad_w, bad_y = w.copy(), y.copy()
    bad_w[7, 2, 2] = np.nan
    bad_y[7, 2] = np.nan
    for weights, history in ((bad_w, y), (w, bad_y)):
        res = product_identity_residuals(as_stack(weights), history)
        assert np.isnan(res[:8]).all() and (res[8:] <= 1e-9).all()
        assert np.isnan(res.max())
        assert_bitwise(res, reference_product_identity_residuals(weights, history))


def weight_history(ws):
    """y(0..T) of pure push-sum from unit weights over the stack ``ws``."""
    ys = [np.ones(ws.n)]
    for w in chain.from_iterable(ws.blocks()):
        ys.append(w @ ys[-1])
    return np.array(ys)


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))


@pytest.mark.parametrize("steps", [30, PRODUCT_SPAN, PRODUCT_SPAN + 13])
@pytest.mark.parametrize("n", [5, 13, 40])
@pytest.mark.parametrize("kind", ["static-cycle", "rotating-arc", "random-walkable"])
def test_identity_residuals_are_bitwise_the_dense_reference(kind, n, steps):
    # a WeightStack (read one step at a time) and one holding its
    # (T, n, n) floats give the dense routine's residuals bit for bit
    ws = build_weight_stack(generate_sequence(kind, n, steps, seed=n + steps))
    ys = weight_history(ws)
    dense = ws.block(0, steps)
    want = reference_product_identity_residuals(dense, ys)
    assert_bitwise(product_identity_residuals(ws, ys), want)
    assert_bitwise(product_identity_residuals(as_stack(dense), ys), want)


def dense_file_weights(n, steps, seed):
    """WeightStack.repeated of one column-stochastic matrix with every
    entry positive, as a weights file gives it."""
    m = np.random.default_rng(seed).random((n, n)) + 0.1
    m /= m.sum(axis=0)
    return WeightStack.repeated(WeightMatrix(m, float(m.min())), steps)


@pytest.mark.parametrize("n", [5, 13, 40])
def test_identity_residuals_of_dense_file_weights_are_bitwise_the_dense_reference(n):
    steps = PRODUCT_SPAN + 13
    ws = dense_file_weights(n, steps, seed=n)
    ys = weight_history(ws)
    want = reference_product_identity_residuals(ws.block(0, steps), ys)
    assert_bitwise(product_identity_residuals(ws, ys), want)
    assert_bitwise(product_identity_residuals(as_stack(ws.block(0, steps)), ys), want)


@pytest.mark.parametrize("kind", ["static-cycle", "random-walkable"])
def test_identity_residuals_keep_nan_and_negative_zero_weights_bitwise(kind):
    # NaN and -0.0 have a nonzero bit pattern, so they are kept, on the
    # support and off it, in a stack of floats and in a stack of matrices
    steps, n = PRODUCT_SPAN + 13, 13
    ws = build_weight_stack(generate_sequence(kind, n, steps, seed=4))
    ys = weight_history(ws)
    w = ws.block(0, steps).copy()
    w[5, 0, 0] = -0.0
    w[(9, *np.argwhere(w[9] == 0)[0])] = -0.0
    w[11, 2, 6] = np.nan
    w[40, 4, 4] = np.nan
    want = reference_product_identity_residuals(w, ys)
    assert np.isnan(want[:41]).all() and not np.isnan(want[41:]).any()
    assert_bitwise(product_identity_residuals(as_stack(w), ys), want)
    stack = WeightStack.of([WeightMatrix(m, 0.1) for m in w])
    assert_bitwise(product_identity_residuals(stack, ys), want)


def test_identity_residuals_of_a_mixed_stack_are_bitwise_the_dense_reference():
    # dense and sparse steps alternate, so each load must clear every
    # entry the one before it set
    steps, n = PRODUCT_SPAN + 13, 13
    sparse = build_weight_stack(generate_sequence("random-walkable", n, steps, seed=6))
    dense = dense_file_weights(n, steps, seed=6)
    ws = WeightStack.of([(dense if t % 2 else sparse)[t] for t in range(steps)])
    ys = weight_history(ws)
    want = reference_product_identity_residuals(ws.block(0, steps), ys)
    assert_bitwise(product_identity_residuals(ws, ys), want)


def traced_peak(call):
    """(call(), the tracemalloc peak while it ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_identity_residuals_hold_no_stack_of_weights_or_companions():
    # the weights and companions are kept by their nonzero entries: below
    # one T*n*n float stack on a lazy stack, where the dense routine holds
    # the weights and every companion (more than two stacks)
    n = steps = 64
    ws = build_weight_stack(generate_sequence("random-walkable", n, steps, seed=3))
    ys = weight_history(ws)
    stack_bytes = steps * n * n * 8
    got, peak = traced_peak(lambda: product_identity_residuals(ws, ys))
    assert peak < stack_bytes, f"peak {peak} B not below one stack of {stack_bytes} B"
    want, ref_peak = traced_peak(lambda: reference_product_identity_residuals(ws.block(0, steps), ys))
    assert ref_peak > 2 * stack_bytes
    assert_bitwise(got, want)


def test_w_product_columns_approach_common_vector_within_envelope():
    # static 3-cycle: the worst-case envelope c * mu^k must hold with the
    # a-priori constants even though the true contraction is much faster
    w = cycle_weights(3)
    tc = theory_constants(3, 1)
    p60 = np.linalg.matrix_power(w.entries, 60)
    v = np.linalg.matrix_power(w.entries, 400)[:, 0]  # limit estimated from the product
    envelope = tc.c * tc.mu ** 60
    assert np.abs(p60 - v[:, None]).max() <= envelope
    assert np.abs(p60 - v[:, None]).max() <= 1e-15  # and is in fact tiny


def test_s_product_approaches_rank_one_limit():
    ws, ss, ys, _ = run_history("random-walkable", 4, 60, seed=3, x0=np.zeros((4, 1)))
    prod = transition_product_s(ss, 0, 60)
    limit = np.outer(np.ones(4), ys[0]) / 4.0
    assert np.abs(prod - limit).max() <= 1e-8
    # starting later the limit uses the weights at the start of the window
    prod2 = transition_product_s(ss, 10, 60)
    limit2 = np.outer(np.ones(4), ys[10]) / 4.0
    assert np.abs(prod2 - limit2).max() <= 1e-8


def test_absolute_probability_example_and_mass_gate():
    assert_allclose(absolute_probability(np.array([1.5, 0.5])), [0.75, 0.25])
    with pytest.raises(RuntimeError, match="column-stochastic"):
        absolute_probability(np.array([1.5, 0.6]))


def test_absolute_probability_sequence_recursion():
    ws, ss, ys, _ = run_history("random-walkable", 5, 40, seed=9, x0=np.zeros((5, 1)))
    aps = AbsProbSeq.from_weight_history(ys)
    res = aps.recursion_residual(ss)
    assert res.max() <= 1e-10
    assert aps.stochasticity_residual() <= 1e-12
    assert (aps.vectors > 0).all()


def test_theory_constants_small_case_exact():
    tc = theory_constants(3, 1)
    assert_allclose(tc.eta, 1.0 / 27.0, rtol=1e-14)
    assert_allclose(tc.mu, 26.0 / 27.0, rtol=1e-14)
    assert tc.c == 4.0
    assert not tc.vacuous


def test_theory_constants_against_mpmath_oracle():
    import mpmath as mp

    mp.mp.dps = 60
    for n, L in [(2, 3), (8, 4), (6, 6)]:
        tc = theory_constants(n, L)
        eta = mp.power(n, -n * L)
        mu = mp.power(1 - eta, mp.mpf(1) / L)
        assert abs(tc.log_eta - float(mp.log(eta))) <= 1e-12 * abs(float(mp.log(eta)))
        assert abs(tc.log_mu - float(mp.log(mu))) <= 1e-12 * max(abs(float(mp.log(mu))), 1e-300)


def test_theory_constants_degenerate_cases():
    one = theory_constants(1, 1)
    assert one.eta == 1.0 and one.mu == 0.0 and one.log_mu == float("-inf")
    big = theory_constants(50, 10)  # floats collapse, log fields survive
    assert big.vacuous
    assert big.log_eta < -1000
    with pytest.raises(ValueError):
        theory_constants(0, 1)


def test_consensus_error():
    # one row per step: agents at distance 1 from their mean, then
    # agreeing, then at +-1e308, whose squared distance overflows to inf
    # without a warning
    zs = np.array([
        [[1.0, 0.0], [3.0, 0.0]], [[2.0, 5.0], [2.0, 5.0]], [[1e308, 0.0], [-1e308, 0.0]],
    ])
    zbar, consensus = mean_and_consensus(zs)
    assert zbar.tolist() == [[2.0, 0.0], [2.0, 5.0], [0.0, 0.0]]
    assert consensus.tolist() == [1.0, 0.0, float("inf")]
