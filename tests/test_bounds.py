import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pushsim.bounds import (
    BoundInputs,
    BoundSeries,
    _mu_powers,
    agent_series,
    bound_fixed,
    contraction_series,
    fit_geometric_rate,
    fit_rate,
    timevarying_series,
)
from pushsim.graphs import generate_sequence
from pushsim.subgradient import (
    StepsizeSchedule,
    quadratic_objective,
    run_push_subgradient,
    stepsize_array,
)
from pushsim.weights import build_weight_stack


def make_inputs(n=3, d=1, G=2.0, eta=0.5, mu=0.8, steps=64, schedule=None,
                z0=None, g0=None, z_star=None, log_mu=None):
    """Inputs with mixing rate ``mu``, or with ``log_mu`` itself when it
    is given; n and d size the default z0, and a given z0 sets them."""
    sched = schedule if schedule is not None else StepsizeSchedule.harmonic()
    alphas = stepsize_array(sched, steps)
    z0 = np.arange(n, dtype=float).reshape(n, 1) * np.ones((1, d)) if z0 is None else z0
    n, d = z0.shape
    g0 = np.ones((n, d)) if g0 is None else g0
    if log_mu is None:
        log_mu = math.log(mu) if mu > 0 else -math.inf
    return BoundInputs(
        G=G, eta=eta, log_mu=log_mu, z0=z0,
        z_star=np.zeros(d) if z_star is None else z_star,
        g0=g0, alphas=alphas, schedule=sched,
    )


# --------------------------------------------------------------------------
# constants and input validation
# --------------------------------------------------------------------------

def test_mu_power_conventions():
    # mu^0 == 1 even for mu == 0
    assert _mu_powers(float("-inf"), np.array([0.0, 3.0])).tolist() == [1.0, 0.0]
    assert _mu_powers(math.log(0.5), np.array([2.0]))[0] == pytest.approx(0.25)


def test_inputs_validation():
    with pytest.raises(ValueError, match="eta"):
        make_inputs(eta=0.0)
    with pytest.raises(ValueError, match="eta"):
        make_inputs(eta=5.0)
    with pytest.raises(ValueError, match="contract"):
        make_inputs(log_mu=0.0)
    with pytest.raises(ValueError, match="contract"):
        make_inputs(log_mu=math.nan)
    with pytest.raises(ValueError, match="G"):
        make_inputs(G=0.0)
    # n and z_bar0 are read from z0, and nothing is reshaped
    inp = make_inputs(z0=np.arange(6.0).reshape(3, 2))
    assert inp.n == 3 and inp.z_bar0.tolist() == [2.0, 3.0]
    with pytest.raises(ValueError):
        inp.z_bar0[0] = 0.0
    for bad in (np.zeros(6), np.zeros((3, 2, 1)), np.zeros((0, 2)), np.zeros((3, 0))):
        with pytest.raises(ValueError, match="z0 must have shape"):
            replace(inp, z0=bad)
    # a start stored coordinates-by-agents is refused, not read as scrambled rows
    with pytest.raises(ValueError, match=r"g0 must have shape \(2, 3\)"):
        replace(inp, z0=np.arange(6.0).reshape(2, 3))
    with pytest.raises(ValueError, match=r"g0 must have shape \(3, 2\)"):
        replace(inp, g0=np.ones((2, 3)))
    for bad in (np.zeros(3), np.zeros((1, 2)), np.zeros(())):
        with pytest.raises(ValueError, match=r"z_star must have shape \(2,\)"):
            replace(inp, z_star=bad)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 3e5]))
@example(n=8, d=1, seed=0, scale=1.0)
@example(n=9, d=3, seed=1, scale=3e5)
@example(n=17, d=4, seed=2, scale=1e-3)
def test_z_bar0_is_bitwise_the_traced_network_mean(n, d, seed, scale):
    # zbar is reduced over the whole (T, n, d) stack, z_bar0 over row 0 alone
    rng = np.random.default_rng(seed)
    x0 = scale * rng.standard_normal((n, d))
    box = (np.full(d, -1e7), np.full(d, 1e7))
    objective = quadratic_objective(scale * rng.standard_normal((n, d)), box=box)
    schedule = StepsizeSchedule.harmonic()
    ws = build_weight_stack(generate_sequence("random-walkable", n, 3, seed))
    trace = run_push_subgradient(ws, x0, objective, schedule, record_products=False)
    inp = BoundInputs(
        G=objective.g_bound, eta=0.5, log_mu=-1.0, z0=trace.zs[0], z_star=objective.z_star,
        g0=objective.agent_subgradients(trace.zs[0]), alphas=trace.alphas, schedule=schedule,
    )
    assert inp.z_bar0.tobytes() == trace.zbar[0].tobytes()


def test_log_mu_is_authoritative_over_rounded_mu():
    # worst-case constants round mu to 1.0 in floats; the log keeps working
    inp = make_inputs(log_mu=-1e-18)
    assert inp.one_minus_mu == pytest.approx(1e-18, rel=1e-12)
    total = timevarying_series(inp).total[10]
    assert math.isfinite(total) and total > 0


def test_initial_mass_and_spread():
    z0 = np.array([[0.0], [2.0], [4.0]])
    inp = make_inputs(z0=z0, g0=np.ones((3, 1)))
    assert_allclose(inp.initial_mass, [6.0 + 3.0])  # alpha(0) = 1
    # spread about the network mean: sum ||zbar - zi|| counted twice
    assert inp.spread_sum(np.array([2.0])) == pytest.approx(8.0)
    assert inp.spread_sum(np.array([0.0])) == pytest.approx(4.0 + 6.0)


# --------------------------------------------------------------------------
# decaying-stepsize certificate
# --------------------------------------------------------------------------

def test_timevarying_t0_terms_by_hand():
    z0 = np.array([[0.0], [2.0], [4.0]])
    inp = make_inputs(z0=z0, G=2.0, eta=0.5)
    b = timevarying_series(inp)
    dist_sq = (2.0 - 0.0) ** 2
    assert b.terms[0, 0] == pytest.approx((dist_sq + 4.0 * 1.0) / 2.0)
    assert b.terms[0, 1] == pytest.approx(2.0 * 1.0 * 8.0 / (3 * 1.0))
    # the network memory terms cover steps before t and are empty at t=0
    assert b.terms[0, 2] == 0.0
    assert b.terms[0, 3] == 0.0
    assert b.total[0] == sum(b.terms[0])


def test_timevarying_series_matches_explicit_sums():
    inp = make_inputs(steps=32, mu=0.6)
    series = timevarying_series(inp)
    a = inp.alphas
    t = 17
    sum_a = a[: t + 1].sum()
    mass_acc = sum(a[tau] * 0.6 ** tau for tau in range(t))
    tail_acc = sum(
        a[tau] * (a[0] * 0.6 ** (tau / 2.0) + a[math.ceil(tau / 2)])
        for tau in range(t)
    )
    mass_norm = abs(float(inp.initial_mass[0]))
    terms = series.terms[t]
    assert terms[2] == pytest.approx(32.0 * 2.0 * mass_norm * mass_acc / (0.5 * sum_a))
    assert terms[3] == pytest.approx(
        32.0 * 3 * 4.0 * tail_acc / (0.5 * 0.4 * sum_a)
    )
    assert series.total[t] == pytest.approx(sum(terms))
    assert series.ts.tolist() == list(range(32))


def test_agent_variant_uses_agent_reference_spread():
    z0 = np.array([[0.0], [2.0], [4.0]])
    inp = make_inputs(z0=z0)
    network = timevarying_series(inp)
    agents = list(agent_series(inp, network))
    assert len(agents) == 3  # one certificate per agent, in agent order
    net, ag0, ag2 = network.terms[5], agents[0].terms[5], agents[2].terms[5]
    # spread about agent 0's start (= 0.0) equals spread about agent 2's (= 4.0)
    assert ag0[1] == pytest.approx(ag2[1])
    assert ag0[1] > net[1]
    # the other three terms do not depend on the reference point
    for k in (0, 2, 3):
        assert ag0[k] == net[k]


def test_single_agent_drops_network_memory_terms():
    z0 = np.array([[3.0]])
    inp = make_inputs(n=1, z0=z0, eta=1.0, mu=0.0)
    b = timevarying_series(inp)
    assert b.terms[20, 1] == 0.0 and b.terms[20, 2] == 0.0 and b.terms[20, 3] == 0.0
    # what remains is the classic centralized certificate
    a = inp.alphas[:21]
    expect = (9.0 + 4.0 * (a ** 2).sum()) / (2.0 * a.sum())
    assert b.total[20] == pytest.approx(expect)


def test_timevarying_requires_decaying_schedule():
    inp = make_inputs(schedule=StepsizeSchedule.fixed_horizon(64))
    with pytest.raises(ValueError, match="decay"):
        timevarying_series(inp)
    inp2 = make_inputs(schedule=StepsizeSchedule.polynomial(1.0, 0.3))
    with pytest.raises(ValueError, match="decay"):
        timevarying_series(inp2)


def test_timevarying_total_decays_to_zero():
    # with p = 3/4 every term behaves like C / sum(alpha) ~ C t^(-1/4)
    # for large t, so the certificate keeps shrinking at that rate
    inp = make_inputs(steps=100_000, mu=0.9,
                      schedule=StepsizeSchedule.polynomial(1.0, 0.75))
    series = timevarying_series(inp)
    t_small, t_big = series.total[999], series.total[99_999]
    assert t_big < 0.4 * t_small
    ratio = (999 + 1) / (99_999 + 1)
    assert t_big / t_small == pytest.approx(ratio ** 0.25, rel=0.25)


def test_monotone_dependence_on_constants():
    base = make_inputs(G=1.0, eta=0.5, mu=0.8)
    bigger_g = make_inputs(G=3.0, eta=0.5, mu=0.8)
    smaller_eta = make_inputs(G=1.0, eta=0.05, mu=0.8)
    t = 12
    assert timevarying_series(bigger_g).total[t] > timevarying_series(base).total[t]
    b0, b1 = timevarying_series(base).terms[t], timevarying_series(smaller_eta).terms[t]
    assert b1[2] > b0[2] and b1[3] > b0[3]


# --------------------------------------------------------------------------
# fixed-horizon certificate
# --------------------------------------------------------------------------

def test_fixed_horizon_terms_by_hand():
    T = 400
    sched = StepsizeSchedule.fixed_horizon(T)
    z0 = np.array([[1.0], [1.0], [1.0]])
    inp = make_inputs(schedule=sched, steps=T, z0=z0,
                      g0=np.full((3, 1), 2.0), G=2.0, eta=0.5, mu=0.8,
                      z_star=np.array([0.0]))
    b = bound_fixed(inp)
    assert b.ts.tolist() == [T]
    terms = b.terms[0]
    assert terms[0] == pytest.approx((1.0 + 4.0) / (2 * 20.0))
    assert terms[1] == 0.0  # all agents start together
    mass = 3.0 * (1.0 + 2.0 / 20.0)
    assert terms[2] == pytest.approx(32.0 * 2.0 * mass / (0.5 * 0.2 * T))
    assert terms[3] == pytest.approx(32.0 * 3 * 4.0 / (0.5 * 0.2 * 20.0))


def test_fixed_horizon_scales_as_inverse_sqrt():
    # suppress the 1/T terms: zero spread and zero aggregate mass, with
    # the optimum a unit distance from the start
    def rhs(T):
        sched = StepsizeSchedule.fixed_horizon(T)
        g0 = np.ones((3, 1))
        z0 = -g0 / math.sqrt(T)
        inp = make_inputs(
            schedule=sched, steps=T, z0=z0, g0=g0, z_star=z0[0] - 1.0,
        )
        return bound_fixed(inp).total[0]

    ratio = rhs(1600) / rhs(400)
    assert 0.49 <= ratio <= 0.51


def test_fixed_horizon_terms_one_and_four_are_exactly_order_inverse_sqrt():
    # The paper's O(1/sqrt(T)) rate: sqrt(T) * term 1 and sqrt(T) * term 4
    # do not depend on T, and term 2 is O(1/T).  With T = 4^k, sqrt(T) is a
    # power of two, so the scaled terms agree exactly, not just to rounding.
    z0 = np.array([[0.0], [2.0], [4.0]])
    scaled = set()
    for k in range(1, 11):
        T = 4 ** k
        inp = make_inputs(schedule=StepsizeSchedule.fixed_horizon(T), steps=T, z0=z0,
                          z_star=np.array([1.5]), G=3.0, eta=0.3, mu=0.7)
        t1, t2, _, t4 = bound_fixed(inp).terms[0]
        scaled.add((math.sqrt(T) * t1, math.sqrt(T) * t4, T * t2))
    assert len(scaled) == 1
    assert all(v > 0 for v in scaled.pop())


def test_fixed_horizon_single_agent_keeps_mass_term_only():
    sched = StepsizeSchedule.fixed_horizon(100)
    inp = make_inputs(n=1, schedule=sched, steps=100, z0=np.array([[2.0]]),
                      eta=1.0, mu=0.0)
    terms = bound_fixed(inp).terms[0]
    assert terms[3] == 0.0
    assert terms[2] > 0.0  # self-mass memory stays, decaying like 1/T


def test_fixed_horizon_schedule_must_match():
    inp = make_inputs(schedule=StepsizeSchedule.harmonic(), steps=50)
    with pytest.raises(ValueError, match="fixed 1/sqrt"):
        bound_fixed(inp)
    # the horizon is the schedule's
    inp2 = make_inputs(schedule=StepsizeSchedule.fixed_horizon(64), steps=64)
    assert bound_fixed(inp2).ts.tolist() == [64.0]


# --------------------------------------------------------------------------
# consensus contraction envelopes
# --------------------------------------------------------------------------

def test_envelope_t0_by_hand():
    z0 = np.array([[1.0], [2.0], [3.0]])
    inp = make_inputs(z0=z0, g0=np.ones((3, 1)), G=2.0, eta=0.5, mu=0.8)
    series = contraction_series(inp)
    geo, refined = series.geometric[0], series.refined[0]
    mass = 6.0 + 3.0  # alpha(0) = 1
    assert geo == pytest.approx((8.0 / 0.5) * mass + (8.0 * 3 * 2.0 / 0.5) * 1.0)
    assert refined == pytest.approx(
        (8.0 / 0.5) * mass + (8.0 * 3 * 2.0 / (0.5 * 0.2)) * (1.0 + 1.0)
    )


def test_envelope_geometric_recursion_matches_direct_sum():
    inp = make_inputs(mu=0.7, steps=40)
    series = contraction_series(inp)
    a = inp.alphas
    t = 23
    conv = sum(0.7 ** (t - s) * a[s] for s in range(t + 1))
    mass = abs(float(inp.initial_mass[0]))
    expect = (8.0 / 0.5) * 0.7 ** t * mass + (8.0 * 3 * 2.0 / 0.5) * conv
    assert series.geometric[t] == pytest.approx(expect)


def test_envelope_without_stepsizes_is_pure_decay():
    # zero stepsizes under a schedule that does not decay: the refined form
    # is unavailable and the geometric form collapses to the decaying
    # initial-mass envelope
    z0 = np.array([[1.0], [5.0]])
    inp = BoundInputs(
        G=1.0, eta=0.5, log_mu=math.log(0.6), z0=z0, z_star=np.zeros(1),
        g0=np.zeros((2, 1)), alphas=np.zeros(30), schedule=StepsizeSchedule.fixed_horizon(30),
    )
    series = contraction_series(inp)
    assert series.refined is None
    assert_allclose(series.geometric, (8.0 / 0.5) * 6.0 * 0.6 ** np.arange(30))


def test_envelope_refined_beats_geometric_eventually():
    inp = make_inputs(mu=0.9, steps=4000)
    series = contraction_series(inp)
    # both envelopes shrink toward zero and the refined form also vanishes
    assert series.geometric[-1] < series.geometric[200] < series.geometric[0]
    assert series.refined[-1] < 1e-1 * series.refined[0]


# --------------------------------------------------------------------------
# rate fitting
# --------------------------------------------------------------------------

def test_fit_rate_recovers_sqrt_decay():
    pts = [(T, 3.0 / math.sqrt(T)) for T in (50, 100, 200, 400, 800)]
    fit = fit_rate(pts)
    assert fit.slope == pytest.approx(-0.5, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0)
    assert not fit.exact and fit.n_used == 5


def test_fit_rate_recovers_linear_decay():
    pts = [(T, 7.0 / T) for T in (50, 100, 200)]
    assert fit_rate(pts).slope == pytest.approx(-1.0, abs=1e-9)


def test_fit_rate_guards():
    with pytest.raises(ValueError, match="3 points"):
        fit_rate([(10, 1.0), (20, 0.5)])
    exact = fit_rate([(10, 0.0), (20, 0.0), (40, 0.0)])
    assert exact.exact and exact.n_used == 0 and math.isnan(exact.slope)


def test_fit_geometric_rate_recovers_rho():
    t = np.arange(60)
    fit = fit_geometric_rate(5.0 * 0.8 ** t)
    assert fit.rho == pytest.approx(0.8, rel=1e-9)
    assert fit.r2 == pytest.approx(1.0)


def test_fit_geometric_rate_masks_noise_floor():
    t = np.arange(120)
    vals = 1.0 * 0.5 ** t  # crosses 1e-13 around t = 43
    vals[vals <= 1e-13] = 1e-16
    fit = fit_geometric_rate(vals)
    assert fit.rho == pytest.approx(0.5, rel=1e-6)
    assert fit.n_used < 60


def test_fit_geometric_rate_exact_path():
    fit = fit_geometric_rate(np.zeros(50))
    assert fit.exact and fit.rho == 0.0 and fit.r2 == 1.0


# --------------------------------------------------------------------------
# the array series against the per-step loop it replaced
# --------------------------------------------------------------------------

def reference_spread(inp, agent=None):
    """sum_i (||z_bar0 - z_i0|| + ||ref - z_i0||) about z_bar0 (agent
    None) or about the agent's start, one point at a time."""
    ref = inp.z_bar0 if agent is None else inp.z0[agent]
    da = np.sqrt(((inp.z0 - inp.z_bar0) ** 2).sum(axis=1))
    db = np.sqrt(((inp.z0 - ref) ** 2).sum(axis=1))
    return float((da + db).sum())


def reference_series(inp, agent=None):
    """The certificate series as a per-step loop with running sums: the
    definition the array form of ``timevarying_series`` (and, for an
    agent, of ``agent_series``) must reproduce bit for bit, as (terms
    rows, totals)."""
    a = inp.alphas
    dist0_sq = float(((inp.z_bar0 - inp.z_star) ** 2).sum())
    spread = reference_spread(inp, agent)
    mass_norm = float(np.sqrt((inp.initial_mass ** 2).sum()))
    single = inp.n == 1

    ts = np.arange(a.size, dtype=float)
    pow_t = _mu_powers(inp.log_mu, ts)
    pow_half = _mu_powers(inp.log_mu, ts / 2.0)

    terms_rows, totals = [], []
    sum_a = 0.0
    sum_a2 = 0.0
    mass_acc = 0.0   # sum_{tau=0}^{t-1} alpha(tau) mu^tau
    tail_acc = 0.0   # sum_{tau=0}^{t-1} alpha(tau) (alpha(0) mu^(tau/2) + alpha(ceil(tau/2)))
    with np.errstate(over="ignore"):
        for t in range(a.size):
            sum_a += a[t]
            sum_a2 += a[t] * a[t]
            t1 = (dist0_sq + inp.G ** 2 * sum_a2) / (2.0 * sum_a)
            t2 = inp.G * a[0] * spread / (inp.n * sum_a)
            if single:
                t3 = 0.0
                t4 = 0.0
            else:
                t3 = 32.0 * inp.G * mass_norm * mass_acc / (inp.eta * sum_a)
                t4 = (
                    32.0 * inp.n * inp.G ** 2 * tail_acc
                    / (inp.eta * inp.one_minus_mu * sum_a)
                )
            terms = (t1, t2, t3, t4)
            terms_rows.append(terms)
            totals.append(sum(terms))
            mass_acc += a[t] * pow_t[t]
            tail_acc += a[t] * (a[0] * pow_half[t] + a[math.ceil(t / 2)])
    return terms_rows, totals


def series_for(inp, agent=None, certify=timevarying_series):
    """The network's certificate, or the agent's derived from it."""
    network = certify(inp)
    return network if agent is None else list(agent_series(inp, network))[agent]


def assert_bitwise(got, want):
    """Equal bit patterns, with NaN (of any payload) in the same places."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@st.composite
def series_inputs(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 2))
    if draw(st.booleans()):
        sched = StepsizeSchedule.harmonic(draw(st.floats(0.05, 5.0)))
    else:
        sched = StepsizeSchedule.polynomial(draw(st.floats(0.05, 5.0)),
                                            draw(st.floats(0.51, 1.0)))
    steps = draw(st.integers(1, 300))
    coords = st.floats(-10.0, 10.0)
    z0 = np.array(draw(st.lists(coords, min_size=n * d, max_size=n * d))).reshape(n, d)
    g0 = np.array(draw(st.lists(coords, min_size=n * d, max_size=n * d))).reshape(n, d)
    z_star = np.array(draw(st.lists(coords, min_size=d, max_size=d)))
    if n == 1:
        log_mu = -math.inf
    elif draw(st.booleans()):
        mu = draw(st.floats(0.0, 1.0, exclude_max=True))
        log_mu = math.log(mu) if mu > 0 else -math.inf
    else:  # worst-case constants: mu rounds to 1.0, the log stays exact
        log_mu = -draw(st.floats(1e-18, 1e-3))
    eta = draw(st.one_of(st.floats(1e-3, float(n)), st.just(1e-300)))
    inp = BoundInputs(
        G=draw(st.floats(0.01, 10.0)), eta=eta, log_mu=log_mu, z0=z0, z_star=z_star, g0=g0,
        alphas=stepsize_array(sched, steps), schedule=sched,
    )
    agent = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    t = draw(st.integers(0, steps - 1))
    return inp, agent, t


@settings(max_examples=200, deadline=None)
@given(series_inputs())
def test_series_is_bitwise_the_per_step_loop(case):
    inp, agent, t = case
    steps = inp.alphas.size
    ref_terms, ref_totals = reference_series(inp, agent)
    got = series_for(inp, agent)
    assert isinstance(got, BoundSeries) and got.ts.size == steps
    assert_bitwise(got.ts, np.arange(steps))
    assert_bitwise(got.terms, ref_terms)
    assert_bitwise(got.total, ref_totals)
    # the inputs of a run cut after step t give rows 0..t
    one = series_for(replace(inp, alphas=inp.alphas[: t + 1]), agent)
    assert one.ts[-1] == t
    assert_bitwise(one.terms, got.terms[: t + 1])
    assert_bitwise(one.total, got.total[: t + 1])


@pytest.mark.parametrize("sched", [StepsizeSchedule.harmonic(), StepsizeSchedule.polynomial(2.0, 0.6)])
def test_series_rows_depend_only_on_the_stepsize_prefix(sched):
    # A decaying run's certificates and envelopes at steps 0..t are those
    # of the same run cut after step t: every row, bit for bit.
    inp = make_inputs(n=4, d=2, steps=300, schedule=sched, mu=0.9)
    full, env = timevarying_series(inp), contraction_series(inp)
    for t in (0, 1, 2, 7, 64, 150, 298, 299):
        cut = replace(inp, alphas=inp.alphas[: t + 1])
        part, part_env = timevarying_series(cut), contraction_series(cut)
        for got, want in (
            (part.ts, full.ts), (part.terms, full.terms), (part.total, full.total),
            (part_env.geometric, env.geometric), (part_env.refined, env.refined),
        ):
            assert_bitwise(got, want[: t + 1])


def test_tiny_eta_overflows_to_an_inf_certificate_silently():
    # with filterwarnings = error a numpy overflow warning would fail here
    inp = make_inputs(n=4, eta=1e-300, log_mu=-1e-18, steps=50)
    series = timevarying_series(inp)
    assert series.terms[0, 3] == 0.0 and np.isinf(series.terms[1:, 3]).all()
    assert np.isinf(series.total[1:]).all() and np.isfinite(series.total[0])


def test_series_arrays_are_read_only():
    series = timevarying_series(make_inputs(steps=8))
    for arr in (series.ts, series.terms, series.total):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_single_row_series_holds_the_fixed_certificate():
    inp = make_inputs(schedule=StepsizeSchedule.fixed_horizon(64), steps=64)
    series = series_for(inp, 1, bound_fixed)
    assert isinstance(series, BoundSeries) and series.ts.tolist() == [64.0]
    assert series.terms.shape == (1, 4) and series.total[0] == sum(series.terms[0])
    for arr in (series.ts, series.terms, series.total):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@settings(max_examples=200, deadline=None)
@given(series_inputs(), st.integers(1, 5000))
def test_fixed_agent_certificates_are_bitwise_their_own(case, T):
    # Each agent's fixed-horizon certificate, derived from the network's,
    # is the one the fixed formula gives about that agent's start.
    inp, agent, _ = case
    sched = StepsizeSchedule.fixed_horizon(T)
    inp = replace(inp, alphas=stepsize_array(sched, T), schedule=sched)
    network = bound_fixed(inp)
    agents = list(agent_series(inp, network))
    assert len(agents) == inp.n
    for k in range(inp.n) if agent is None else [agent]:
        terms = network.terms[0].tolist()
        terms[1] = inp.G * reference_spread(inp, k) / (inp.n * T)
        assert_bitwise(agents[k].terms, [terms])
        assert_bitwise(agents[k].total, [sum(terms)])
        assert_bitwise(agents[k].ts, network.ts)


@settings(max_examples=100, deadline=None)
@given(series_inputs())
def test_spread_sums_of_a_stack_are_those_of_each_point(case):
    inp = case[0]
    assert inp.spread_sum(inp.z_bar0) == reference_spread(inp)
    assert inp.spread_sum(inp.z0) == [reference_spread(inp, k) for k in range(inp.n)]


def reference_envelopes(inp):
    """(geometric, refined) from their own powers of mu, split sums
    (with ceil(t/2)) and ||m0||, none of them shared."""
    a = inp.alphas
    mass_norm = float(np.sqrt((inp.initial_mass ** 2).sum()))
    ts = np.arange(a.size, dtype=float)
    lead = (8.0 / inp.eta) * mass_norm * _mu_powers(inp.log_mu, ts)
    conv, acc, mu = np.empty(a.size), 0.0, math.exp(inp.log_mu)
    for t in range(a.size):
        acc = mu * acc + a[t]
        conv[t] = acc
    halves = a[0] * _mu_powers(inp.log_mu, ts / 2.0) + a[np.ceil(ts / 2.0).astype(int)]
    return (
        lead + (8.0 * inp.n * inp.G / inp.eta) * conv,
        lead + (8.0 * inp.n * inp.G / (inp.eta * inp.one_minus_mu)) * halves,
    )


@settings(max_examples=100, deadline=None)
@given(series_inputs())
def test_envelopes_read_the_certificate_memory_bitwise(case):
    # The envelopes read the powers of mu, the split sums and ||m0|| that
    # the decaying certificate of the same inputs reads, computed once.
    inp = case[0]
    # Tiny worst-case eta can overflow the envelopes; here only the bits count.
    with np.errstate(over="ignore"):
        geometric, refined = reference_envelopes(inp)
        env = contraction_series(inp)
    assert_bitwise(env.geometric, geometric)
    assert_bitwise(env.refined, refined)
    assert inp.memory is inp.memory
