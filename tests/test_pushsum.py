import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pushsim.graphs import digraph, generate_sequence
from pushsim.pushsum import (
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
from pushsim.weights import WeightMatrix, build_weights
from reference import transition_product_s, transition_product_w


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
    w = WeightMatrix(n=2, entries=np.full((2, 2), 0.5), beta=0.5)
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
    w = WeightMatrix(n=2, entries=np.full((2, 2), 0.5), beta=0.5)
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


def test_product_identity_single_step_is_exact_to_rounding():
    ws, ss, ys, _ = run_history("random-walkable", 4, 20, seed=7, x0=np.zeros((4, 1)))
    for tau in range(19):
        assert product_identity_residuals(ws, ss, ys, tau, tau + 1)[0] <= 1e-12


def test_product_identity_long_products():
    ws, ss, ys, _ = run_history("random-walkable", 5, 45, seed=11, x0=np.zeros((5, 1)))
    worst = max(
        product_identity_residuals(ws, ss, ys, tau, min(tau + 40, 45)).max()
        for tau in range(0, 40, 5)
    )
    assert worst <= 1e-9


def scratch_identity_residual(ws, ss, ys, tau, t):
    """The exchange-identity residual with both products rebuilt from scratch."""
    ps = transition_product_s(ss, tau, t)
    pw = transition_product_w(ws, tau, t)
    return float(np.abs(ps * ys[t][:, None] - pw * ys[tau][None, :]).max())


def test_incremental_identity_residuals_match_scratch_products():
    ws, ss, ys, _ = run_history("random-walkable", 6, 30, seed=5, x0=np.zeros((6, 1)))
    for tau in range(31):
        res = product_identity_residuals(ws, ss, ys, tau, 30)
        assert res.shape == (30 - tau,)
        for t in range(tau + 1, 31):
            assert res[t - tau - 1] == scratch_identity_residual(ws, ss, ys, tau, t), (tau, t)
    with pytest.raises(ValueError, match="tau <= t"):
        product_identity_residuals(ws, ss, ys, 5, 31)
    with pytest.raises(ValueError, match="tau <= t"):
        product_identity_residuals(ws, ss, ys, 6, 5)


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
    # one row per step: agents at distance 1 from their mean, then agreeing
    zs = np.array([[[1.0, 0.0], [3.0, 0.0]], [[2.0, 5.0], [2.0, 5.0]]])
    zbar, consensus = mean_and_consensus(zs)
    assert zbar.tolist() == [[2.0, 0.0], [2.0, 5.0]]
    assert consensus.tolist() == [1.0, 0.0]
