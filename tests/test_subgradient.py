import dataclasses
import re
import tracemalloc

import importlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import pushsim.weights

from pushsim.graphs import digraph, generate_sequence
from pushsim.pushsum import (
    AbsProbSeq,
    NetworkState,
    RunFailure,
    build_s_matrix,
    initial_state,
    pushsum_step,
    ratio_state,
)
from pushsim.subgradient import (
    AbsoluteTerm,
    HingeTerm,
    ObjectiveSpec,
    QuadraticTerm,
    StepsizeSchedule,
    ZeroTerm,
    certified_gaps,
    hinge_objective,
    l1_objective,
    quadratic_objective,
    run_push_subgradient,
    running_average_gaps,
    stepsize,
    stepsize_array,
    subgradient,
    validate_schedule,
    zero_objective,
)
from pushsim.weights import WeightMatrix, WeightStack, build_weight_stack, build_weights
from reference import (
    AbsoluteRef,
    HingeRef,
    QuadraticRef,
    ZeroRef,
    reference_run_push_subgradient,
    reference_terms,
)

# The module itself: the package exports a function of the same name.
SUBGRADIENT = importlib.import_module("pushsim.subgradient")
CYCLE3 = [build_weights(g) for g in generate_sequence("static-cycle", 3, 1).graphs]


# --------------------------------------------------------------------------
# terms
# --------------------------------------------------------------------------

def test_quadratic_term_values_and_gradient():
    t = QuadraticTerm(np.array([2.0]))
    assert t.value(np.array([5.0])) == 9.0
    assert_allclose(subgradient(t, np.array([5.0])), [6.0])
    assert_allclose(t.value_batch(np.array([[5.0], [2.0]])), [9.0, 0.0])
    # bound = 2 * distance to the farthest box corner
    assert quadratic_objective([[2.0]], box=([-1.0], [3.0])).g_bound == pytest.approx(6.0)


def test_absolute_term_kink_rule():
    t = AbsoluteTerm(np.array([1.0, -1.0]))
    assert_allclose(subgradient(t, np.array([3.0, -1.0])), [1.0, 0.0])  # sign(0) = 0
    assert t.value(np.array([3.0, -1.0])) == 2.0
    box = (np.zeros(2), np.ones(2))
    assert l1_objective([[1.0, -1.0]], box=box).g_bound == pytest.approx(np.sqrt(2))


def test_hinge_term_kink_rule():
    t = HingeTerm(np.array([2.0, 0.0]), 1.0)
    assert t.value(np.array([0.25, 9.0])) == 0.5
    assert_allclose(subgradient(t, np.array([0.25, 9.0])), [-2.0, 0.0])
    # exactly on the margin: flat-side convention, subgradient 0
    assert_allclose(subgradient(t, np.array([0.5, 0.0])), [0.0, 0.0])
    assert_allclose(subgradient(t, np.array([4.0, 0.0])), [0.0, 0.0])
    assert hinge_objective([[2.0, 0.0]], [1.0], (np.zeros(2), np.ones(2))).g_bound == 2.0
    with pytest.raises(ValueError, match="label"):
        HingeTerm(np.ones(2), 0.5)


def test_zero_term_and_dispatch():
    t = ZeroTerm(3)
    assert t.value(np.ones(3)) == 0.0
    assert_allclose(subgradient(t, np.ones(3)), np.zeros(3))
    with pytest.raises(TypeError, match="not an objective term"):
        subgradient("nope", np.ones(3))
    with pytest.raises(TypeError, match="not an objective term"):
        subgradient(zero_objective(2, 3), np.ones(3))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "l1", "hinge", "zero"]),
    d=st.integers(1, 3),
    m=st.integers(1, 20),
    seed=st.integers(0, 2 ** 16),
)
def test_term_views_match_the_reference_terms(kind, d, m, seed):
    # Each term is a one-agent ObjectiveSpec, so its formulas are the
    # run's; they must agree bitwise with the standalone reference terms,
    # on random points and on dyadic points placed exactly on the kinks.
    rng = np.random.default_rng(seed)

    def grid(*shape):
        return rng.integers(-32, 33, shape) / 4.0

    zs = np.concatenate([rng.uniform(-6, 6, (m, d)), grid(m, d)])
    kinks = zs[m:]
    if kind == "hinge":
        normal, label = grid(d), float(rng.choice([-1.0, 1.0]))
        normal[0] = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        kinks[:, 0] = (label - kinks[:, 1:] @ normal[1:]) / normal[0]  # label * normal . z == 1
        view, ref = HingeTerm(normal, label), HingeRef(normal, label)
    elif kind == "zero":
        view, ref = ZeroTerm(d), ZeroRef(d)
    else:
        target = grid(d)
        on = rng.random(d) < 0.5
        kinks[:, on] = target[on]  # z_c == target_c
        make, make_ref = {"quadratic": (QuadraticTerm, QuadraticRef), "l1": (AbsoluteTerm, AbsoluteRef)}[kind]
        view, ref = make(target), make_ref(target)
    assert isinstance(view, ObjectiveSpec) and (view.n, view.d) == (1, d)
    if kind == "hinge":
        assert not view.value_batch(kinks).any()
    for z in zs:
        assert_same_bits(view.value(z), ref.value(z), "value")
        assert_same_bits(subgradient(view, z), ref.subgrad(z), "subgradient")
    rows = view.value_batch(zs)
    assert_same_bits(rows, np.array([ref.value(z) for z in zs]), "value_batch rows")
    if kind != "hinge":  # the reference hinge batch rounds its one product differently
        assert_same_bits(rows, ref.value_batch(zs), "value_batch")


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000))
def test_subgradient_inequality_property(seed):
    # g in df(z)  <=>  f(w) >= f(z) + g . (w - z) for every w; probe randomly
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    terms = [
        QuadraticTerm(rng.uniform(-3, 3, d)),
        AbsoluteTerm(rng.uniform(-3, 3, d)),
        HingeTerm(rng.uniform(-2, 2, d), rng.choice([-1.0, 1.0])),
        ZeroTerm(d),
    ]
    z = rng.uniform(-5, 5, d)
    for term in terms:
        g = subgradient(term, z)
        fz = term.value(z)
        for w in rng.uniform(-6, 6, (8, d)):
            assert term.value(w) >= fz + g @ (w - z) - 1e-10


# --------------------------------------------------------------------------
# objectives and certified optima
# --------------------------------------------------------------------------

def test_quadratic_objective_mean_optimum():
    obj = quadratic_objective(np.array([[0.0], [2.0], [4.0]]))
    assert_allclose(obj.z_star, [2.0])
    assert_allclose(obj.f_star, (4.0 + 0.0 + 4.0) / 3.0)
    assert obj.optimum_provenance == "analytic-mean"
    assert obj.value(np.array([2.0])) - obj.f_star == 0.0
    # gap is mean squared distance shifted by f*:  f(z) - f* = (z - mean)^2
    assert obj.value(np.array([5.0])) - obj.f_star == pytest.approx(9.0)


def test_l1_objective_median_optimum_even_count():
    obj = l1_objective(np.array([[0.0], [1.0], [3.0], [10.0]]))
    assert_allclose(obj.z_star, [2.0])  # midpoint convention
    assert obj.optimum_provenance == "analytic-median"
    # any point between 1 and 3 attains the same optimal value
    assert obj.value(np.array([1.5])) - obj.f_star == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_l1_optimum_is_bitwise_the_numpy_median(n, d):
    # Ties and signed zeros: a middle -0.0 is +0.0 in np.median, which a
    # plain midpoint (s[m-1] + s[m]) / 2 of the sorted column gets wrong.
    rng = np.random.default_rng(100 * n + d)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, -1e-300])
    for _ in range(300):
        targets = rng.choice(pool, size=(n, d))
        obj = l1_objective(targets, box=(np.full(d, -4.0), np.full(d, 4.0)))
        assert obj.z_star.tobytes() == np.median(targets, axis=0).tobytes(), targets
    for targets in (np.full((n, d), -0.0), np.full((n, d), 0.0)):
        assert SUBGRADIENT._median(targets).tobytes() == np.zeros(d).tobytes()
    with_nan = np.zeros((n, d))
    with_nan[n // 2, 0] = np.nan
    assert SUBGRADIENT._median(with_nan).tobytes() == np.median(with_nan, axis=0).tobytes()


def test_agent_subgradients_checks_the_ratio_shape():
    obj = l1_objective(np.array([[0.0], [1.0], [2.0]]))
    assert_same_bits(obj.agent_subgradients([[0.5], [1.0], [3.0]]), np.array([[1.0], [0.0], [1.0]]))
    with pytest.raises(ValueError, match=r"expected ratios of shape \(3, 1\)"):
        obj.agent_subgradients(np.zeros((2, 1)))


def test_l1_gap_example():
    obj = l1_objective(np.array([[0.0], [1.0], [2.0]]))
    assert obj.f_star == pytest.approx(2.0 / 3.0)
    assert obj.value(np.array([0.0])) - obj.f_star == pytest.approx(1.0 / 3.0)


def test_declared_optimum_must_not_be_beatable():
    obj = quadratic_objective(np.array([[0.0], [2.0]]))
    cheat = ObjectiveSpecBeaten(obj)
    with pytest.raises(RunFailure, match="beats the declared optimum") as info:
        certified_gaps(cheat, np.ones(1), np.array([[1.0]]))
    assert (info.value.check, info.value.agent, info.value.t) == ("certified-optimum", None, 0)


class ObjectiveSpecBeaten:
    """Wrapper faking an inflated f* to exercise the honesty gate."""

    def __init__(self, inner):
        self._inner = inner
        self.f_star = inner.f_star + 1.0
        self.optimum_provenance = "broken"

    def value_batch(self, zs):
        return self._inner.value_batch(zs)


def test_hinge_objective_exact_certificate():
    # one agent wants z1 >= 1, the other wants z2 <= -1: both satisfiable
    obj = hinge_objective(
        np.array([[1.0, 0.0], [0.0, 1.0]]), [1.0, -1.0],
        (np.array([-3.0, -3.0]), np.array([3.0, 3.0])),
    )
    assert obj.f_star == 0.0
    # the minimizers fill [1, 3] x [-3, -1]; the certificate names the
    # lexicographically smallest vertex
    assert obj.z_star.tolist() == [1.0, -3.0]
    assert obj.value(np.array([2.0, -2.0])) == 0.0
    assert obj.optimum_provenance == "exact-vertex"
    assert obj.g_bound == pytest.approx(1.0)  # max row norm


def test_hinge_optimum_on_an_elongated_valley():
    # A grid search that zooms around its best point reported 0.7779059829
    # at (0.33256, -0.66628) here; the minimum is 7/9 at (1/3, -2/3).
    obj = hinge_objective(
        np.array([[1.0, 2.0], [0.0, 2.0], [-1.0, 1.0]]), [-1.0, 1.0, -1.0],
        (np.full(2, -4.0), np.full(2, 4.0)),
    )
    assert abs(obj.f_star - 7.0 / 9.0) <= 1e-15
    assert np.abs(obj.z_star - [1.0 / 3.0, -2.0 / 3.0]).max() <= 1e-15


def test_hinge_optimum_ties_take_the_lexicographically_smallest_vertex():
    # f* = 0 on the triangle (2,-1), (4,-1), (4,-3)
    obj = hinge_objective(
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), [1.0, -1.0, 1.0],
        (np.full(2, -4.0), np.full(2, 4.0)),
    )
    assert obj.f_star == 0.0 and obj.z_star.tolist() == [2.0, -1.0]


def test_hinge_optimum_in_one_dimension():
    # breakpoints at 1, -1/2 and -2; f(-1/2) = (1.5 + 0 + 0.75) / 3
    obj = hinge_objective(np.array([[1.0], [-2.0], [0.5]]), [1.0, 1.0, -1.0],
                          (np.array([-4.0]), np.array([4.0])))
    assert obj.z_star.tolist() == [-0.5] and obj.f_star == 0.75


def test_hinge_objective_rejects_high_dimension():
    with pytest.raises(ValueError, match="d <= 2"):
        hinge_objective(np.ones((2, 3)), [1.0, -1.0], (-np.ones(3), np.ones(3)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    d=st.integers(1, 2),
    integral=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_exact_hinge_optimum_is_never_beaten(n, d, integral, seed):
    # integral normals make parallel kinks and exact ties likely
    rng = np.random.default_rng(seed)
    if integral:
        normals = rng.integers(-2, 3, (n, d)).astype(float)
    else:
        normals = rng.uniform(-2, 2, (n, d))
    labels = rng.choice([-1.0, 1.0], n)
    lo, hi = rng.uniform(-5, -0.5, d), rng.uniform(0.5, 5, d)
    obj = hinge_objective(normals, labels, (lo, hi))
    assert obj.contains(obj.z_star, slack=0.0)
    assert obj.f_star == obj.value(obj.z_star)
    axes = [np.linspace(lo[c], hi[c], 201 if d == 2 else 4001) for c in range(d)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    sample = np.vstack([grid, rng.uniform(lo, hi, (4000, d))])
    assert obj.value_batch(sample).min() >= obj.f_star - 1e-12


def test_zero_objective_is_free():
    obj = zero_objective(4, 2)
    assert obj.g_bound == 0.0
    assert obj.value(np.array([9.0, -9.0])) == 0.0
    assert obj.contains(np.array([1e12, -1e12]))


def test_box_containment_slack():
    obj = quadratic_objective(np.array([[0.0]]), box=(np.array([-1.0]), np.array([1.0])))
    assert obj.contains(np.array([1.0 + 1e-10]))
    assert not obj.contains(np.array([1.1]))


# --------------------------------------------------------------------------
# stepsize schedules
# --------------------------------------------------------------------------

def test_schedule_values():
    h = StepsizeSchedule.harmonic(a=2.0)
    assert stepsize(h, 0) == 2.0
    assert stepsize(h, 3) == 0.5
    p = StepsizeSchedule.polynomial(1.0, 0.75)
    assert stepsize(p, 15) == pytest.approx(16.0 ** -0.75)
    # 10000^80 overflows the float range; the quotient underflows to 0
    assert stepsize(StepsizeSchedule.polynomial(1.0, 80.0), 9_999) == 0.0
    f = StepsizeSchedule.fixed_horizon(400)
    assert stepsize(f, 0) == pytest.approx(0.05)
    assert stepsize(f, 399) == pytest.approx(0.05)
    with pytest.raises(ValueError, match="t < T"):
        stepsize(f, 400)
    assert_allclose(stepsize_array(h, 3), [2.0, 1.0, 2.0 / 3.0])


def test_schedule_constructor_validation():
    with pytest.raises(ValueError, match="positive"):
        StepsizeSchedule.harmonic(a=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        StepsizeSchedule.polynomial(1.0, -0.5)
    with pytest.raises(ValueError, match="T >= 1"):
        StepsizeSchedule.fixed_horizon(0)
    with pytest.raises(ValueError, match="unknown schedule"):
        StepsizeSchedule(kind="exp")


def per_step_stepsizes(schedule, steps):
    """alpha(0..steps-1) one ``stepsize`` call at a time."""
    return np.array([stepsize(schedule, t) for t in range(steps)])


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["harmonic", "polynomial", "fixed"]),
    a=st.floats(1e-6, 1e6),
    p=st.floats(0.0, 3.0),
    horizon=st.integers(1, 20_000),
    steps=st.integers(0, 20_000),
)
def test_stepsize_array_is_bitwise_the_per_step_values(kind, a, p, horizon, steps):
    schedule = {
        "harmonic": StepsizeSchedule.harmonic(a),
        "polynomial": StepsizeSchedule.polynomial(a, p),
        "fixed": StepsizeSchedule.fixed_horizon(horizon),
    }[kind]
    if kind == "fixed" and steps > horizon:
        with pytest.raises(ValueError) as want:
            per_step_stepsizes(schedule, steps)
        with pytest.raises(ValueError) as got:
            stepsize_array(schedule, steps)
        assert str(got.value) == str(want.value)
        steps = horizon
    assert_same_bits(stepsize_array(schedule, steps), per_step_stepsizes(schedule, steps))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SUBGRADIENT, "stepsize_array", per_step_stepsizes)
        want_report = validate_schedule(schedule)
    assert validate_schedule(schedule) == want_report


@pytest.mark.parametrize(
    "sched,expected",
    [
        (StepsizeSchedule.harmonic(), "satisfied"),
        (StepsizeSchedule.polynomial(1.0, 0.75), "satisfied"),
        (StepsizeSchedule.polynomial(1.0, 1.0), "satisfied"),
        (StepsizeSchedule.polynomial(1.0, 0.5), "violated"),   # sum of squares diverges
        (StepsizeSchedule.polynomial(1.0, 1.25), "violated"),  # sum converges
        (StepsizeSchedule.polynomial(1.0, 0.0), "violated"),
        (StepsizeSchedule.fixed_horizon(100), "not-applicable"),
    ],
)
def test_schedule_classification(sched, expected):
    assert validate_schedule(sched).assumption == expected


# --------------------------------------------------------------------------
# single optimization steps
# --------------------------------------------------------------------------

def test_step_with_zero_alpha_reduces_to_pure_mixing():
    # A zero objective has zero subgradients, and p = 2000 overflows every
    # alpha(t) after the first to 0; either way a run step is pure mixing.
    x0 = np.array([[5.0], [-1.0], [3.0]])
    ws = [CYCLE3[0]] * 12
    zero = run_push_subgradient(ws, x0, zero_objective(3, 1), StepsizeSchedule.harmonic())
    l1 = l1_objective(np.array([[0.0], [1.0], [2.0]]))
    steep = run_push_subgradient(ws, x0, l1, StepsizeSchedule.polynomial(1.0, 2000.0))
    assert steep.alphas[0] == 1.0 and not steep.alphas[1:].any()
    for trace, first in ((zero, 0), (steep, 1)):
        xs = np.concatenate([trace.xs, trace.final_state.x[None]])
        ys = np.concatenate([trace.ys, trace.final_state.y[None]])
        state = NetworkState(t=first, x=xs[first], y=ys[first])
        for t in range(first + 1, 13):
            state = pushsum_step(state, CYCLE3[0])
            assert np.array_equal(state.x, xs[t]) and np.array_equal(state.y, ys[t])


def test_ratio_form_step_matches_mass_form():
    # the companion chain governs the ratios: z(t+1) = S(t) (z(t) - alpha(t) g(t) / y(t))
    obj = quadratic_objective(np.array([[0.0, 1.0], [2.0, -1.0], [4.0, 0.0]]))
    x0 = np.random.default_rng(5).uniform(-2, 2, (3, 2))
    trace = run_push_subgradient([CYCLE3[0]] * 26, x0, obj, StepsizeSchedule.harmonic())
    for t in range(25):
        inner = trace.zs[t] - trace.alphas[t] * trace.gs[t] / trace.ys[t][:, None]
        assert np.abs(trace.zs[t + 1] - trace.smatrices[t].entries @ inner).max() <= 1e-12


# --------------------------------------------------------------------------
# the full run loop
# --------------------------------------------------------------------------

def small_run(steps=2000, record=False):
    obj = l1_objective(np.array([[0.0], [1.0], [2.0]]))
    ws = [CYCLE3[0]] * steps
    x0 = np.array([[4.0], [-2.0], [1.0]])
    return run_push_subgradient(ws, x0, obj, StepsizeSchedule.harmonic(),
                                record_products=record), obj


def test_run_converges_to_median():
    trace, obj = small_run()
    assert np.abs(trace.zs[-1] - 1.0).max() <= 0.05
    assert trace.running_gap[-1] <= 0.05
    assert trace.consensus[-1] <= 1e-3
    assert trace.min_y > 0.0


def test_run_records_prestep_rows():
    trace, _ = small_run(steps=5)
    assert_allclose(trace.xs[0], [[4.0], [-2.0], [1.0]])
    assert_allclose(trace.ys[0], np.ones(3))
    assert trace.alphas[0] == 1.0
    assert trace.steps == 5


def test_running_average_is_the_reported_iterate():
    trace, obj = small_run(steps=50)
    for t in (0, 7, 49):
        w = trace.alphas[: t + 1]
        avg = (w[:, None] * trace.zbar[: t + 1]).sum(axis=0) / w.sum()
        assert obj.value(avg) - obj.f_star == pytest.approx(trace.running_gap[t], abs=1e-12)


def test_running_average_agent_variant():
    # the per-agent certificates' gap: agent 2's own stepsize-weighted average
    trace, obj = small_run(steps=10)
    gaps = running_average_gaps(obj, trace.alphas, trace.zs[:, 1])
    direct = (trace.alphas[:, None] * trace.zs[:, 1]).sum(axis=0) / trace.alphas.sum()
    assert gaps.shape == (10,)
    assert gaps[-1] == pytest.approx(obj.value(direct) - obj.f_star, abs=1e-12)


def test_run_tracks_companion_products_when_asked():
    trace, _ = small_run(steps=40, record=True)
    assert trace.s_product_gap is not None
    assert len(trace.smatrices) == 40
    assert trace.s_product_gap[-1] <= 1e-8  # product reaches the rank-one limit


def test_run_enforces_declared_gradient_ceiling():
    obj = quadratic_objective(
        np.array([[0.0], [2.0]]),
        box=(np.array([-50.0]), np.array([50.0])),
        g_bound=1e-3,  # dishonest: the true subgradients are far larger
    )
    w = build_weights(digraph(2, [(0, 1), (1, 0)]))
    with pytest.raises(RunFailure, match="above the declared ceiling") as info:
        run_push_subgradient([w] * 5, np.array([[10.0], [-10.0]]), obj,
                             StepsizeSchedule.harmonic())
    # the largest subgradient is named: 2 |-10 - 2| = 24
    assert (info.value.check, info.value.agent, info.value.t) == ("subgradient-ceiling", 2, 0)


def test_run_enforces_box_membership():
    obj = quadratic_objective(
        np.array([[0.0], [2.0]]), box=(np.array([-1.0]), np.array([1.0]))
    )
    w = build_weights(digraph(2, [(0, 1), (1, 0)]))
    with pytest.raises(RunFailure, match="left the declared box") as info:
        run_push_subgradient([w] * 5, np.array([[0.9], [0.9]]), obj,
                             StepsizeSchedule.harmonic(a=10.0))
    assert (info.value.check, info.value.agent, info.value.t) == ("box-containment", 1, 1)


def test_run_rejects_empty_and_mismatched_input():
    obj = zero_objective(3, 1)
    with pytest.raises(ValueError, match="at least one"):
        run_push_subgradient([], np.zeros((3, 1)), obj, StepsizeSchedule.harmonic())
    with pytest.raises(ValueError):
        run_push_subgradient(CYCLE3, np.zeros((3, 2)), obj, StepsizeSchedule.harmonic())


# --------------------------------------------------------------------------
# the array loop against the per-agent loop it replaced
# --------------------------------------------------------------------------

def in_order_sum(values):
    """Left-to-right float sum (Python 3.12's sum() compensates)."""
    total = 0.0
    for v in values:
        total += v
    return total


def reference_run(ws, x0, objective, schedule, record_products):
    """The per-agent run loop: each agent's term is called on its own
    through the reference terms, and every step builds a fresh state."""
    terms = reference_terms(objective)

    def subgrads(z):
        return np.stack([term.subgrad(z[i]) for i, term in enumerate(terms)])

    def value(p):
        return in_order_sum(term.value(p) for term in terms) / len(terms)

    def contains(p, slack=1e-9):
        return bool((p >= objective.box_lo - slack).all() and (p <= objective.box_hi + slack).all())

    steps = len(ws)
    state = initial_state(x0)
    n, d = state.n, state.d
    alphas = stepsize_array(schedule, steps)
    out = {name: np.empty((steps,) + shape) for name, shape in (
        ("xs", (n, d)), ("ys", (n,)), ("zs", (n, d)), ("gs", (n, d)), ("zbar", (d,)),
        ("zlyap", (d,)), ("consensus", ()), ("running_gap", ()), ("deviation", ()),
    )}
    out["alphas"] = alphas
    out["s_product_gap"] = np.empty(steps) if record_products else None
    smatrices = [] if record_products else None
    avg_num, avg_den = np.zeros(d), 0.0
    min_y = float(state.y.min())
    prod = np.eye(n)
    z = ratio_state(state)
    for t in range(steps):
        alpha = alphas[t]
        g = subgrads(z)
        norms = np.sqrt((g ** 2).sum(axis=1))
        if (norms > objective.g_bound + 1e-9).any():
            k = int(norms.argmax())
            raise RuntimeError(
                f"agent {k + 1} produced a subgradient of norm {norms[k]:.6g} "
                f"above the declared ceiling {objective.g_bound:.6g} at t={t}"
            )
        for i in range(n):
            if not contains(z[i]):
                raise RuntimeError(f"agent {i + 1} left the declared box at t={t}: z={z[i]!r}")
        out["xs"][t], out["ys"][t], out["zs"][t], out["gs"][t] = state.x, state.y, z, g
        out["zbar"][t] = z.mean(axis=0)
        out["zlyap"][t] = (state.y / n) @ z
        out["consensus"][t] = np.sqrt(((z - z.mean(axis=0)) ** 2).sum(axis=1)).max()
        avg_num += alpha * out["zbar"][t]
        avg_den += alpha
        gap = value(avg_num / avg_den) - objective.f_star
        if gap < -1e-12:
            raise ValueError(
                f"point beats the declared optimum by {-gap:.3e}; certified f* "
                f"(provenance {objective.optimum_provenance!r}) is invalid"
            )
        out["running_gap"][t] = max(gap, 0.0)
        if record_products:
            s = build_s_matrix(ws[t], state.y)
            smatrices.append(s)
            prod = s.entries @ prod
            out["s_product_gap"][t] = float(np.abs(prod - 1.0 / n).max())
        h_mean = (state.x - alpha * g).mean(axis=0)
        inner = state.x if alpha == 0.0 else state.x - float(alpha) * subgrads(ratio_state(state))
        w = ws[t].entries
        state = NetworkState(t=state.t + 1, x=w @ inner, y=w @ state.y)
        min_y = min(min_y, float(state.y.min()))
        z = ratio_state(state)
        out["deviation"][t] = float(np.sqrt(((z - h_mean) ** 2).sum(axis=1)).max())
    out["final_zlyap"] = (state.y / n) @ z
    return out, state, min_y, smatrices


def assert_same_bits(a, b, what=""):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


def random_objective(kind, n, d, rng, squeeze):
    """An objective of the given family; ``squeeze`` shrinks its ceiling
    or its box so that runs fail part way."""
    x0 = rng.uniform(-4, 4, (n, d))
    box = None
    if squeeze == "box":
        box = (x0.min(axis=0) - 0.05, x0.max(axis=0) + 0.05)
    g_bound = float(rng.uniform(0.0, 3.0)) if squeeze == "ceiling" else None
    if kind == "quadratic":
        return quadratic_objective(rng.uniform(-5, 5, (n, d)), box=box, g_bound=g_bound), x0
    if kind == "l1":
        return l1_objective(rng.uniform(-5, 5, (n, d)), box=box, g_bound=g_bound), x0
    if kind == "hinge":
        labels = rng.choice([-1.0, 1.0], n)
        box = box or (np.full(d, -6.0), np.full(d, 6.0))
        return hinge_objective(rng.uniform(-2, 2, (n, d)), labels, box, g_bound=g_bound), x0
    return zero_objective(n, d), x0


def outcome(run):
    try:
        return run(), None
    except (RuntimeError, ValueError) as exc:
        return None, exc


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "l1", "hinge", "zero"]),
    n=st.integers(1, 12),
    d=st.integers(1, 2),
    sched=st.sampled_from(["harmonic", "polynomial", "fixed"]),
    record=st.booleans(),
    steps=st.integers(1, 40),
    seed=st.integers(0, 2 ** 16),
    squeeze=st.sampled_from([None, None, "ceiling", "box"]),
    block=st.sampled_from([1, 2, 3, None]),
)
def test_array_loop_matches_per_agent_reference(kind, n, d, sched, record, steps, seed, squeeze, block):
    # Weight blocks of ``block`` steps (None: the whole run in one), so
    # the companion pass and its running product cross block boundaries.
    rng = np.random.default_rng(seed)
    objective, x0 = random_objective(kind, n, d, rng, squeeze)
    schedule = {
        "harmonic": StepsizeSchedule.harmonic(float(rng.uniform(0.2, 3.0))),
        "polynomial": StepsizeSchedule.polynomial(float(rng.uniform(0.2, 3.0)), 0.75),
        "fixed": StepsizeSchedule.fixed_horizon(steps),
    }[sched]
    ws = build_weight_stack(generate_sequence("random-walkable", n, steps, seed, arc_prob=0.3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pushsim.weights, "BLOCK_FLOATS", blocks_of(block or steps, n))
        assert_matches_reference(ws, x0, objective, schedule, record)


def assert_matches_reference(ws, x0, objective, schedule, record):
    """Run the array loop and the per-agent loop; they must record the
    same bits or stop with the same failure, which is returned."""
    got, got_exc = outcome(lambda: run_push_subgradient(ws, x0, objective, schedule, record_products=record))
    want, want_exc = outcome(lambda: reference_run(ws, x0, objective, schedule, record))
    if want_exc is not None:
        assert isinstance(got_exc, RunFailure), repr(got_exc)
        assert str(got_exc) == str(want_exc)
        where = re.match(r"agent (\d+) .* at t=(\d+)", str(want_exc))
        if where:  # ceiling and box failures name the agent and the step
            assert (got_exc.agent, got_exc.t) == (int(where[1]), int(where[2]))
        return got_exc
    assert got_exc is None, repr(got_exc)
    arrays, state, min_y, smatrices = want
    for name, value in arrays.items():
        if value is None:
            assert getattr(got, name) is None, name
        else:
            assert_same_bits(getattr(got, name), value, name)
    assert got.final_state.t == state.t == len(ws)
    assert_same_bits(got.final_state.x, state.x, "final x")
    assert_same_bits(got.final_state.y, state.y, "final y")
    assert got.min_y == min_y
    if record:
        assert len(got.smatrices) == len(smatrices)
        for a, b in zip(got.smatrices, smatrices):
            assert_same_bits(a.entries, b.entries, "companion")
        assert_same_bits(got.aps_residual, stored_companion_residual(got), "abs-prob recursion")
    else:
        assert got.smatrices is None and got.aps_residual is None
    return None


def stored_companion_residual(trace):
    """The abs-prob recursion residual over the trace's companions, as
    the acceptance gate computes it from ``trace.smatrices``."""
    y_all = np.vstack([trace.ys, trace.final_state.y[None, :]])
    return AbsProbSeq(vectors=y_all / trace.n).recursion_residual(list(trace.smatrices))


# Six agents in the plane, 120 steps; the quadratic pull toward (10, 10)
# crosses z = 8 at t=54 and the running-average gap falls all the way.
PIN_WS = build_weight_stack(generate_sequence("random-walkable", 6, 120, 4, arc_prob=0.3))
PIN_X0 = np.random.default_rng(11).uniform(-3, 3, (6, 2))
PIN_SCHEDULE = StepsizeSchedule.polynomial(0.1, 0.75)


def pin_objective(kind):
    rng = np.random.default_rng(12)
    if kind == "hinge":
        return hinge_objective(rng.uniform(-2, 2, (6, 2)), rng.choice([-1.0, 1.0], 6),
                               (np.full(2, -6.0), np.full(2, 6.0)))
    return quadratic_objective(rng.uniform(9, 11, (6, 2)),
                               box=(np.full(2, -20.0), np.full(2, 20.0)), g_bound=80.0)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("kind", ["quadratic", "hinge"])
def test_thin_step_matches_the_per_step_loop_in_two_dimensions(kind, record):
    assert assert_matches_reference(PIN_WS, PIN_X0, pin_objective(kind), PIN_SCHEDULE, record) is None


@pytest.mark.parametrize("steps", [1, 37, 119, 120])
def test_prefix_companions_are_rebuilt_bitwise(steps):
    trace = run_push_subgradient(PIN_WS, PIN_X0, pin_objective("hinge"), PIN_SCHEDULE).prefix(steps)
    assert len(trace.smatrices) == len(trace.aps_residual) == steps
    for t in range(steps):
        assert_same_bits(trace.smatrices[t].entries, build_s_matrix(PIN_WS[t], trace.ys[t]).entries)
    assert_same_bits(trace.aps_residual, stored_companion_residual(trace))


def test_run_with_companions_holds_no_step_by_n_squared_array():
    # One float array over every step of n x n matrices would be
    # 2000 * 50**2 * 8 B = 38 MiB, above the ceiling on its own.
    seq = generate_sequence("random-walkable", 50, 2000, 3, arc_prob=0.05)
    objective = l1_objective(np.linspace(-5.0, 5.0, 50)[:, None])
    x0 = np.linspace(5.0, -5.0, 50)[:, None]
    tracemalloc.start()
    try:
        trace = run_push_subgradient(build_weight_stack(seq), x0, objective, StepsizeSchedule.harmonic())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
    assert trace.smatrices is not None and trace.aps_residual.max() <= 1e-10


@pytest.mark.parametrize("floats", [None, 2 ** 19], ids=["default", "4MiB"])
@pytest.mark.parametrize("record", [False, True])
def test_run_holds_its_trace_and_one_weight_block(monkeypatch, record, floats):
    # Besides the arrays it returns, a run holds one block of weights at a
    # time (the previous block is freed before the next is built) and,
    # after its loop, one (steps, n, d) scratch for its derived series and
    # the (steps, n) sums of its squares.  A default block is at most
    # 512 KiB.
    assert 8 * pushsim.weights.BLOCK_FLOATS <= 2 ** 19
    if floats is not None:
        monkeypatch.setattr(pushsim.weights, "BLOCK_FLOATS", floats)
    n, steps = 50, 2000
    seq = generate_sequence("random-walkable", n, steps, 3, arc_prob=0.05)
    ws = build_weight_stack(seq)
    objective = l1_objective(np.linspace(-5.0, 5.0, n)[:, None])
    x0 = np.linspace(5.0, -5.0, n)[:, None]
    tracemalloc.start()
    try:
        trace = run_push_subgradient(ws, x0, objective, StepsizeSchedule.harmonic(), record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [v for v in vars(trace).values() if isinstance(v, np.ndarray)]
    held = sum(a.nbytes for a in arrays) + trace.final_state.x.nbytes + trace.final_state.y.nbytes
    block = 8 * pushsim.weights.BLOCK_FLOATS
    scratch = trace.zs.nbytes + trace.ys.nbytes
    assert peak <= held + block + scratch, f"peak {peak / 2 ** 20:.2f} MiB"


@pytest.mark.parametrize("case,check,t", [
    ("optimum", "certified-optimum", None),
    ("box", "box-containment", 54),
    ("ceiling", "subgradient-ceiling", 0),
    ("optimum-before-box", "certified-optimum", None),
    ("box-before-optimum", "box-containment", 54),
])
@pytest.mark.parametrize("record", [False, True])
def test_thin_step_stops_at_the_first_failing_step(case, check, t, record):
    objective = pin_objective("quadratic")
    gaps = run_push_subgradient(PIN_WS, PIN_X0, objective, PIN_SCHEDULE, record_products=False).running_gap
    changes = {}
    if case.startswith("optimum"):  # an f* that the average beats mid-run
        changes["f_star"] = objective.f_star + gaps[20]
    if "box" in case:
        changes["box_hi"] = np.full(2, 8.0)
    if case == "box-before-optimum":  # the average would beat this f* only after t=80
        changes["f_star"] = objective.f_star + gaps[80]
    if case == "ceiling":
        changes["g_bound"] = 10.0
    failure = assert_matches_reference(
        PIN_WS, PIN_X0, dataclasses.replace(objective, **changes), PIN_SCHEDULE, record,
    )
    assert failure is not None and failure.check == check
    if t is None:
        assert failure.agent is None and 0 < failure.t < 54
    else:
        assert failure.t == t


# --------------------------------------------------------------------------
# the block-end check pass against the per-step checks
# --------------------------------------------------------------------------

INJECT_STEPS = 60


def underflow_weights(q, steps):
    """Three agents; agent 1 keeps q of its weight and receives nothing,
    so y_1(t) = q**t falls below the floor and then to 0."""
    w = WeightMatrix([[q, 0.0, 0.0], [1.0 - q, 0.5, 0.5], [0.0, 0.5, 0.5]], q)
    return WeightStack.repeated(w, steps)


def zero_row_weights(broken_at, steps):
    """The 3-ring, except that nobody sends to agent 1 at step ``broken_at``."""
    ring = [w.entries for w in build_weight_stack(generate_sequence("static-cycle", 3, steps))]
    ring[broken_at] = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
    return WeightStack.of([WeightMatrix(e, 0.5) for e in ring])


def unconstrained_run(ws, x0, objective, schedule):
    """The run with the ceiling and the box lifted."""
    wide = np.full(objective.d, 1e300)
    free = dataclasses.replace(objective, g_bound=1e300, box_lo=-wide, box_hi=wide)
    return run_push_subgradient(ws, x0, free, schedule, record_products=False)


def injected_run(inject, seed, frac):
    """(ws, x0, objective, schedule) of a run that fails part way:
    ``frac`` sets how late (a lowered ceiling or box is a fraction of the
    range the unconstrained run covers)."""
    rng = np.random.default_rng(seed)
    schedule = StepsizeSchedule.polynomial(float(rng.uniform(0.005, 0.05)), 0.75)
    if inject == "underflow":
        q = 10.0 ** -(6.0 + 24.0 * frac)
        return underflow_weights(q, INJECT_STEPS), rng.uniform(-3, 3, (3, 1)), zero_objective(3, 1), schedule
    if inject == "zero-row":
        broken_at = int(frac * (INJECT_STEPS - 1))
        return zero_row_weights(broken_at, INJECT_STEPS), rng.uniform(-3, 3, (3, 1)), zero_objective(3, 1), schedule
    n, d = int(rng.integers(2, 7)), int(rng.integers(1, 3))
    # Sparse graphs mix slowly, so the ratios drift over many steps.
    ws = build_weight_stack(generate_sequence(
        "random-walkable", n, INJECT_STEPS, seed, arc_prob=0.05, inject_every=8))
    if inject == "ceiling":
        # Constant stepsizes this large make the run diverge: the
        # subgradients grow about geometrically.
        schedule = StepsizeSchedule.polynomial(float(rng.uniform(0.5, 1.0)), 0.0)
        wide = (np.full(d, -1e300), np.full(d, 1e300))
        x0 = rng.uniform(-3, 3, (n, d))
        objective = quadratic_objective(rng.uniform(-5, 5, (n, d)), box=wide, g_bound=1.0)
        tops = np.sqrt((unconstrained_run(ws, x0, objective, schedule).gs ** 2).sum(axis=2)).max(axis=1)
        # A run that converges exactly has zero subgradients from some step on.
        tops = tops[tops > 0]
        low = 0.999 * tops.min()
        g_bound = low * (tops.max() / low) ** frac
        return ws, x0, dataclasses.replace(objective, g_bound=g_bound), schedule
    # The pull toward targets near 10 raises every ratio.
    x0 = rng.uniform(-3, 3, (n, d))
    box = (np.full(d, -20.0), np.full(d, 20.0))
    objective = quadratic_objective(rng.uniform(9, 11, (n, d)), box=box)
    free = unconstrained_run(ws, x0, objective, schedule)
    tops = free.zs.max(axis=(1, 2))
    box_hi = np.full(d, tops.min() + frac * (tops.max() - tops.min()) - 1e-6)
    return ws, x0, dataclasses.replace(objective, box_hi=box_hi), schedule


def failing_step(exc):
    """The step whose per-step checks raise ``exc``: a weight underflow at
    t is found by step t - 1."""
    if isinstance(exc, RunFailure):
        return exc.t - 1 if exc.check == "weight-underflow" else exc.t
    return None


def run_with_warnings(run):
    """(the RunFailure or ValueError that ``run`` raised, or None, and
    every warning it issued)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            run()
        except (RunFailure, ValueError) as exc:
            return exc, caught
    return None, caught


def blocks_of(steps, n):
    """BLOCK_FLOATS for WeightStack blocks of ``steps`` steps of n x n weights."""
    return steps * n * n


@settings(max_examples=80, deadline=None)
@given(
    inject=st.sampled_from(["ceiling", "box", "underflow", "zero-row"]),
    place=st.sampled_from([-1, 0, 1]),
    record=st.booleans(),
    beat=st.booleans(),
    seed=st.integers(0, 2 ** 16),
    frac=st.floats(0.0, 0.95),
)
# This run converges exactly: its last subgradients are all zero.
@example(inject="ceiling", place=-1, record=False, beat=False, seed=5776, frac=0.0)
def test_block_pass_raises_the_per_step_failure(inject, place, record, beat, seed, frac):
    # The injected failure sits just before (-1), at (0) or just after (1)
    # the first step of a weight block; ``beat`` also raises f* so that the
    # running average may beat it before or after that failure.
    ws, x0, objective, schedule = injected_run(inject, seed, frac)
    alone, _ = run_with_warnings(lambda: reference_run_push_subgradient(ws, x0, objective, schedule, record))
    assert alone is not None
    t = failing_step(alone)
    if t is None:  # the companion of the broken step cannot be built
        t = int(frac * (INJECT_STEPS - 1))
    m = t - place  # the first step of a block
    k = next((j for j in range(2, m + 1) if m % j == 0), 1) if m > 0 else 2
    if beat and objective.kind == "quadratic":
        gap = unconstrained_run(ws, x0, objective, schedule).running_gap[int(frac * (INJECT_STEPS - 1))]
        objective = dataclasses.replace(objective, f_star=objective.f_star + gap)

    want, want_warnings = run_with_warnings(
        lambda: reference_run_push_subgradient(ws, x0, objective, schedule, record))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pushsim.weights, "BLOCK_FLOATS", blocks_of(k, ws.n))
        got, got_warnings = run_with_warnings(
            lambda: run_push_subgradient(ws, x0, objective, schedule, record_products=record))
    assert type(got) is type(want) and str(got) == str(want)
    if isinstance(want, RunFailure):
        assert (got.check, got.agent, got.t) == (want.check, want.agent, want.t)
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
    assert not [w for w in got_warnings if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("k", [1, 3, INJECT_STEPS])
def test_steps_past_a_failure_issue_no_warnings(monkeypatch, k):
    ws = underflow_weights(1e-30, INJECT_STEPS)
    x0 = np.array([[1.0], [2.0], [3.0]])
    # Mixing past the underflow divides 0 by 0.
    x, y = x0, np.ones(3)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        for w in ws:
            x, y = w.entries @ x, w.entries @ y
            x / y[:, None]
    monkeypatch.setattr(pushsim.weights, "BLOCK_FLOATS", blocks_of(k, 3))
    got, caught = run_with_warnings(
        lambda: run_push_subgradient(ws, x0, zero_objective(3, 1), StepsizeSchedule.harmonic(), False))
    assert (got.check, got.agent, got.t) == ("weight-underflow", 1, 11)
    assert caught == []


@pytest.mark.parametrize("k", [1, 2, INJECT_STEPS])
def test_warnings_of_the_steps_before_a_failure_are_issued(monkeypatch, k):
    # An infinite initial value meets a zero weight in the first mixing
    # step, whose product warns (0 * inf); the NaN it leaves fails the box
    # at t=1.
    ws = underflow_weights(0.5, INJECT_STEPS)
    x0 = np.array([[np.inf], [0.0], [1.0]])
    run = (ws, x0, zero_objective(3, 1), StepsizeSchedule.harmonic())
    want, want_warnings = run_with_warnings(lambda: reference_run_push_subgradient(*run))
    monkeypatch.setattr(pushsim.weights, "BLOCK_FLOATS", blocks_of(k, 3))
    got, got_warnings = run_with_warnings(lambda: run_push_subgradient(*run))
    assert (got.check, got.agent, got.t, str(got)) == (want.check, want.agent, want.t, str(want))
    assert want.check == "box-containment" and want.t == 1
    messages = [(w.category, str(w.message)) for w in got_warnings]
    assert messages == [(w.category, str(w.message)) for w in want_warnings]
    assert any(category is RuntimeWarning for category, _ in messages)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "l1", "hinge", "zero"]),
    n=st.integers(1, 12),
    d=st.integers(1, 3),
    m=st.integers(1, 30),
    seed=st.integers(0, 2 ** 16),
)
# One point over more than 8 agents: numpy sums a contiguous (n, 1) column
# pairwise, so a reduction over agents must keep their order by itself.
@example(kind="l1", n=9, d=1, m=1, seed=2)
@example(kind="l1", n=12, d=1, m=1, seed=7)
def test_array_objective_matches_its_term_views(kind, n, d, m, seed):
    if kind == "hinge":
        d = min(d, 2)  # the exact certificate covers d <= 2
    rng = np.random.default_rng(seed)
    objective, _ = random_objective(kind, n, d, rng, None)
    terms = reference_terms(objective)
    assert len(terms) == objective.n == n
    zs = rng.uniform(-8, 8, (m, d))
    want = np.array([in_order_sum(term.value(z) for term in terms) / n for z in zs])
    assert_same_bits(objective.value_batch(zs), want, "value_batch")
    for z in zs[:3]:
        assert objective.value(z) == in_order_sum(term.value(z) for term in terms) / n
    at = rng.uniform(-8, 8, (n, d))
    want = np.stack([term.subgrad(at[i]) for i, term in enumerate(terms)])
    assert_same_bits(objective.agent_subgradients(at), want, "subgradients")
    if kind != "zero":
        lo, hi = objective.box_lo, objective.box_hi
        assert objective.g_bound == max(term.grad_norm_bound(lo, hi) for term in terms)
    inside = [objective.contains(z) for z in zs]
    assert objective.in_box(zs).tolist() == inside



@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "l1", "hinge", "zero"]),
    n=st.integers(1, 8),
    d=st.integers(1, 3),
    m=st.integers(1, 40),
    seed=st.integers(0, 2 ** 16),
)
def test_value_batch_rows_are_value_bitwise(kind, n, d, m, seed):
    # The run, the agent certificates and ``report`` value points in
    # batches, the certified optimum one point at a time; the last bit of
    # a row must not depend on the batch it sits in.
    if kind == "hinge":
        d = min(d, 2)
    rng = np.random.default_rng(seed)
    objective, _ = random_objective(kind, n, d, rng, None)
    zs = rng.uniform(-8, 8, (m, d))
    want = np.array([objective.value(z) for z in zs])
    assert_same_bits(objective.value_batch(zs), want, "rows")
