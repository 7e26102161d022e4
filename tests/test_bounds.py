import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pushsim.bounds import (
    BoundInputs,
    BoundSeries,
    BoundValue,
    _mu_powers,
    bound_fixed,
    contraction_series,
    fit_geometric_rate,
    fit_rate,
    timevarying_series,
)
from pushsim.subgradient import StepsizeSchedule, stepsize_array


def make_inputs(n=3, d=1, G=2.0, eta=0.5, mu=0.8, steps=64, schedule=None,
                z0=None, x0=None, g0=None, z_star=None, **kw):
    sched = schedule if schedule is not None else StepsizeSchedule.harmonic()
    alphas = stepsize_array(sched, steps)
    z0 = np.arange(n, dtype=float).reshape(n, 1) * np.ones((1, d)) if z0 is None else z0
    x0 = z0.copy() if x0 is None else x0
    g0 = np.ones((n, d)) if g0 is None else g0
    return BoundInputs(
        n=n, L=1, d=d, G=G, eta=eta, mu=mu,
        z_bar0=z0.mean(axis=0), z0=z0,
        z_star=np.zeros(d) if z_star is None else z_star,
        x0=x0, g0=g0, alphas=alphas, schedule=sched, **kw,
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
    with pytest.raises(ValueError, match="mu must lie"):
        make_inputs(mu=1.0)
    with pytest.raises(ValueError, match="contract"):
        make_inputs(log_mu=0.0)
    with pytest.raises(ValueError, match="G"):
        make_inputs(G=0.0)


def test_log_mu_is_authoritative_over_rounded_mu():
    # worst-case constants round mu to 1.0 in floats; the log keeps working
    inp = make_inputs(mu=1.0, log_mu=-1e-18)
    assert inp.one_minus_mu == pytest.approx(1e-18, rel=1e-12)
    b = timevarying_series(inp, 10)[10]
    assert math.isfinite(b.total) and b.total > 0


def test_initial_mass_and_spread():
    z0 = np.array([[0.0], [2.0], [4.0]])
    inp = make_inputs(z0=z0, x0=z0, g0=np.ones((3, 1)))
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
    b = timevarying_series(inp, 0)[0]
    dist_sq = (2.0 - 0.0) ** 2
    assert b.terms[0] == pytest.approx((dist_sq + 4.0 * 1.0) / 2.0)
    assert b.terms[1] == pytest.approx(2.0 * 1.0 * 8.0 / (3 * 1.0))
    # the network memory terms cover steps before t and are empty at t=0
    assert b.terms[2] == 0.0
    assert b.terms[3] == 0.0
    assert b.total == sum(b.terms)


def test_timevarying_series_matches_explicit_sums():
    inp = make_inputs(steps=32, mu=0.6)
    series = timevarying_series(inp, 31)
    a = inp.alphas
    t = 17
    sum_a = a[: t + 1].sum()
    mass_acc = sum(a[tau] * 0.6 ** tau for tau in range(t))
    tail_acc = sum(
        a[tau] * (a[0] * 0.6 ** (tau / 2.0) + a[math.ceil(tau / 2)])
        for tau in range(t)
    )
    mass_norm = abs(float(inp.initial_mass[0]))
    b = series[t]
    assert b.terms[2] == pytest.approx(32.0 * 2.0 * mass_norm * mass_acc / (0.5 * sum_a))
    assert b.terms[3] == pytest.approx(
        32.0 * 3 * 4.0 * tail_acc / (0.5 * 0.4 * sum_a)
    )
    assert b.total == pytest.approx(sum(b.terms))
    assert [v.t for v in series] == list(range(32))


def test_agent_variant_uses_agent_reference_spread():
    z0 = np.array([[0.0], [2.0], [4.0]])
    inp = make_inputs(z0=z0)
    net = timevarying_series(inp, 5)[5]
    ag0 = timevarying_series(inp, 5, agent=0)[5]
    ag2 = timevarying_series(inp, 5, agent=2)[5]
    # spread about agent 0's start (= 0.0) equals spread about agent 2's (= 4.0)
    assert ag0.terms[1] == pytest.approx(ag2.terms[1])
    assert ag0.terms[1] > net.terms[1]
    assert ag0.agent == 0 and net.agent is None
    # the other three terms do not depend on the reference point
    for k in (0, 2, 3):
        assert ag0.terms[k] == net.terms[k]
    with pytest.raises(ValueError, match="agent"):
        timevarying_series(inp, 5, agent=3)


def test_single_agent_drops_network_memory_terms():
    z0 = np.array([[3.0]])
    inp = make_inputs(n=1, z0=z0, eta=1.0, mu=0.0)
    b = timevarying_series(inp, 20)[20]
    assert b.terms[1] == 0.0 and b.terms[2] == 0.0 and b.terms[3] == 0.0
    # what remains is the classic centralized certificate
    a = inp.alphas[:21]
    expect = (9.0 + 4.0 * (a ** 2).sum()) / (2.0 * a.sum())
    assert b.total == pytest.approx(expect)


def test_timevarying_requires_decaying_schedule():
    inp = make_inputs(schedule=StepsizeSchedule.fixed_horizon(64))
    with pytest.raises(ValueError, match="decay"):
        timevarying_series(inp, 10)
    inp2 = make_inputs(schedule=StepsizeSchedule.polynomial(1.0, 0.3))
    with pytest.raises(ValueError, match="decay"):
        timevarying_series(inp2, 10)


def test_timevarying_total_decays_to_zero():
    # with p = 3/4 every term behaves like C / sum(alpha) ~ C t^(-1/4)
    # for large t, so the certificate keeps shrinking at that rate
    inp = make_inputs(steps=100_000, mu=0.9,
                      schedule=StepsizeSchedule.polynomial(1.0, 0.75))
    series = timevarying_series(inp, 99_999)
    t_small, t_big = series[999].total, series[99_999].total
    assert t_big < 0.4 * t_small
    ratio = (999 + 1) / (99_999 + 1)
    assert t_big / t_small == pytest.approx(ratio ** 0.25, rel=0.25)


def test_monotone_dependence_on_constants():
    base = make_inputs(G=1.0, eta=0.5, mu=0.8)
    bigger_g = make_inputs(G=3.0, eta=0.5, mu=0.8)
    smaller_eta = make_inputs(G=1.0, eta=0.05, mu=0.8)
    t = 12
    assert timevarying_series(bigger_g, t)[t].total > timevarying_series(base, t)[t].total
    b0, b1 = timevarying_series(base, t)[t], timevarying_series(smaller_eta, t)[t]
    assert b1.terms[2] > b0.terms[2] and b1.terms[3] > b0.terms[3]


# --------------------------------------------------------------------------
# fixed-horizon certificate
# --------------------------------------------------------------------------

def test_fixed_horizon_terms_by_hand():
    T = 400
    sched = StepsizeSchedule.fixed_horizon(T)
    z0 = np.array([[1.0], [1.0], [1.0]])
    inp = make_inputs(schedule=sched, steps=T, z0=z0, x0=z0,
                      g0=np.full((3, 1), 2.0), G=2.0, eta=0.5, mu=0.8,
                      z_star=np.array([0.0]))
    b = bound_fixed(inp, T)
    assert b.form == "fixed-horizon"
    assert b.terms[0] == pytest.approx((1.0 + 4.0) / (2 * 20.0))
    assert b.terms[1] == 0.0  # all agents start together
    mass = 3.0 * (1.0 + 2.0 / 20.0)
    assert b.terms[2] == pytest.approx(32.0 * 2.0 * mass / (0.5 * 0.2 * T))
    assert b.terms[3] == pytest.approx(32.0 * 3 * 4.0 / (0.5 * 0.2 * 20.0))


def test_fixed_horizon_scales_as_inverse_sqrt():
    # suppress the 1/T terms: zero spread and zero aggregate mass
    def rhs(T):
        sched = StepsizeSchedule.fixed_horizon(T)
        g0 = np.ones((3, 1))
        inp = make_inputs(
            schedule=sched, steps=T, z0=np.ones((3, 1)),
            x0=-g0 / math.sqrt(T), g0=g0, z_star=np.array([0.0]),
        )
        return bound_fixed(inp, T).total

    ratio = rhs(1600) / rhs(400)
    assert 0.49 <= ratio <= 0.51


def test_fixed_horizon_single_agent_keeps_mass_term_only():
    sched = StepsizeSchedule.fixed_horizon(100)
    inp = make_inputs(n=1, schedule=sched, steps=100, z0=np.array([[2.0]]),
                      eta=1.0, mu=0.0)
    b = bound_fixed(inp, 100)
    assert b.terms[3] == 0.0
    assert b.terms[2] > 0.0  # self-mass memory stays, decaying like 1/T


def test_fixed_horizon_schedule_must_match():
    inp = make_inputs(schedule=StepsizeSchedule.harmonic(), steps=50)
    with pytest.raises(ValueError, match="fixed 1/sqrt"):
        bound_fixed(inp, 50)
    inp2 = make_inputs(schedule=StepsizeSchedule.fixed_horizon(64), steps=64)
    with pytest.raises(ValueError, match="T=100"):
        bound_fixed(inp2, 100)


# --------------------------------------------------------------------------
# consensus contraction envelopes
# --------------------------------------------------------------------------

def test_envelope_t0_by_hand():
    z0 = np.array([[1.0], [2.0], [3.0]])
    inp = make_inputs(z0=z0, x0=z0, g0=np.ones((3, 1)), G=2.0, eta=0.5, mu=0.8)
    series = contraction_series(inp, 0)
    geo, refined = series.geometric[0], series.refined[0]
    mass = 6.0 + 3.0  # alpha(0) = 1
    assert geo == pytest.approx((8.0 / 0.5) * mass + (8.0 * 3 * 2.0 / 0.5) * 1.0)
    assert refined == pytest.approx(
        (8.0 / 0.5) * mass + (8.0 * 3 * 2.0 / (0.5 * 0.2)) * (1.0 + 1.0)
    )


def test_envelope_geometric_recursion_matches_direct_sum():
    inp = make_inputs(mu=0.7, steps=40)
    series = contraction_series(inp, 39)
    a = inp.alphas
    t = 23
    conv = sum(0.7 ** (t - s) * a[s] for s in range(t + 1))
    mass = abs(float(inp.initial_mass[0]))
    expect = (8.0 / 0.5) * 0.7 ** t * mass + (8.0 * 3 * 2.0 / 0.5) * conv
    assert series.geometric[t] == pytest.approx(expect)


def test_envelope_without_stepsizes_is_pure_decay():
    # zero stepsizes and no schedule: the refined form is unavailable and
    # the geometric form collapses to the decaying initial-mass envelope
    z0 = np.array([[1.0], [5.0]])
    inp = BoundInputs(
        n=2, L=1, d=1, G=1.0, eta=0.5, mu=0.6,
        z_bar0=z0.mean(axis=0), z0=z0, z_star=np.zeros(1),
        x0=z0, g0=np.zeros((2, 1)), alphas=np.zeros(30),
    )
    series = contraction_series(inp, 29)
    assert series.refined is None
    assert_allclose(series.geometric, (8.0 / 0.5) * 6.0 * 0.6 ** np.arange(30))


def test_envelope_refined_beats_geometric_eventually():
    inp = make_inputs(mu=0.9, steps=4000)
    series = contraction_series(inp, 3999)
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

def reference_series(inp, t_max, agent=None):
    """The certificate series as a per-step loop with running sums: the
    definition the array form of ``timevarying_series`` must reproduce
    bit for bit."""
    a = inp.alphas
    dist0_sq = float(((inp.z_bar0 - inp.z_star) ** 2).sum())
    ref = inp.z_bar0 if agent is None else inp.z0[agent]
    spread = inp.spread_sum(ref)
    mass_norm = float(np.sqrt((inp.initial_mass ** 2).sum()))
    single = inp.n == 1

    ts = np.arange(t_max + 1, dtype=float)
    pow_t = _mu_powers(inp.log_mu, ts)
    pow_half = _mu_powers(inp.log_mu, ts / 2.0)

    out = []
    sum_a = 0.0
    sum_a2 = 0.0
    mass_acc = 0.0   # sum_{tau=0}^{t-1} alpha(tau) mu^tau
    tail_acc = 0.0   # sum_{tau=0}^{t-1} alpha(tau) (alpha(0) mu^(tau/2) + alpha(ceil(tau/2)))
    with np.errstate(over="ignore"):
        for t in range(t_max + 1):
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
            out.append(BoundValue(t=t, terms=terms, total=sum(terms),
                                  form="time-varying", agent=agent))
            mass_acc += a[t] * pow_t[t]
            tail_acc += a[t] * (a[0] * pow_half[t] + a[math.ceil(t / 2)])
    return out


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
    x0 = np.array(draw(st.lists(coords, min_size=n * d, max_size=n * d))).reshape(n, d)
    g0 = np.array(draw(st.lists(coords, min_size=n * d, max_size=n * d))).reshape(n, d)
    z_star = np.array(draw(st.lists(coords, min_size=d, max_size=d)))
    if n == 1:
        mu, log_mu = 0.0, None
    elif draw(st.booleans()):
        mu, log_mu = draw(st.floats(0.0, 1.0, exclude_max=True)), None
    else:  # worst-case constants: mu rounds to 1.0, the log stays exact
        mu, log_mu = 1.0, -draw(st.floats(1e-18, 1e-3))
    eta = draw(st.one_of(st.floats(1e-3, float(n)), st.just(1e-300)))
    inp = BoundInputs(
        n=n, L=1, d=d, G=draw(st.floats(0.01, 10.0)), eta=eta, mu=mu, log_mu=log_mu,
        z_bar0=z0.mean(axis=0), z0=z0, z_star=z_star, x0=x0, g0=g0,
        alphas=stepsize_array(sched, steps), schedule=sched,
    )
    t_max = draw(st.integers(0, steps - 1))
    agent = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    t = draw(st.integers(0, t_max))
    return inp, t_max, agent, t


@settings(max_examples=200, deadline=None)
@given(series_inputs())
def test_series_is_bitwise_the_per_step_loop(case):
    inp, t_max, agent, t = case
    ref = reference_series(inp, t_max, agent)
    got = timevarying_series(inp, t_max, agent)
    assert isinstance(got, BoundSeries) and len(got) == t_max + 1
    assert_bitwise(got.ts, np.arange(t_max + 1))
    assert_bitwise(got.terms, [v.terms for v in ref])
    assert_bitwise(got.total, [v.total for v in ref])
    assert [v.t for v in got] == list(range(t_max + 1))
    one = timevarying_series(inp, t, agent=agent)[t]
    assert (one.t, one.form, one.agent) == (t, "time-varying", agent)
    assert_bitwise(one.terms, got.terms[t])
    assert_bitwise(one.total, got.total[t])


def test_tiny_eta_overflows_to_an_inf_certificate_silently():
    # with filterwarnings = error a numpy overflow warning would fail here
    inp = make_inputs(n=4, eta=1e-300, mu=1.0, log_mu=-1e-18, steps=50)
    series = timevarying_series(inp, 49)
    assert series.terms[0, 3] == 0.0 and np.isinf(series.terms[1:, 3]).all()
    assert np.isinf(series.total[1:]).all() and np.isfinite(series.total[0])


def test_series_arrays_are_read_only():
    series = timevarying_series(make_inputs(steps=8), 7)
    for arr in (series.ts, series.terms, series.total):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_single_row_series_holds_the_fixed_certificate():
    inp = make_inputs(schedule=StepsizeSchedule.fixed_horizon(64), steps=64)
    value = bound_fixed(inp, 64, agent=1)
    series = BoundSeries.single(value)
    assert len(series) == 1 and series.ts.tolist() == [64.0]
    assert series[0] == value
