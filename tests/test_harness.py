import dataclasses
import hashlib
import importlib
import json
import math
import re
import runpy
import tracemalloc
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import pushsim.cli
import pushsim.graphs
import pushsim.harness
from pushsim.bounds import fit_rate
from pushsim.cli import main
from pushsim.graphs import GraphSequence, digraph, generate_sequence
from pushsim.harness import (
    BoundsConfig,
    CheckResult,
    ConfigError,
    ExperimentConfig,
    GraphConfig,
    InitConfig,
    ObjectiveConfig,
    ScheduleConfig,
    SummaryReport,
    SweepConfig,
    ValidationFailure,
    WeightConfig,
    apply_overrides,
    export_trace,
    failure_summary,
    import_trace,
    load_config,
    parse_config,
    report_from_dir,
    run_experiment,
    sweep_experiment,
    verify_experiment,
    write_report,
)
from pushsim.pushsum import RunFailure, theory_constants
from pushsim.subgradient import (
    StepsizeSchedule,
    run_push_subgradient,
    running_average_gaps,
    validate_schedule,
    zero_objective,
)
from pushsim.svgplot import Series, line_chart
from pushsim.weights import WeightMatrix, WeightStack, build_weights
from reference import (
    format_graph_sequence,
    format_matrix,
    reference_file_violations,
    reference_run_push_subgradient,
    reference_weight_stack,
    render_config,
)
from test_acceptance import CERTIFIED

# The module itself: the package exports a function of the same name.
SUBGRADIENT = importlib.import_module("pushsim.subgradient")


def base_config(**over) -> ExperimentConfig:
    cfg = ExperimentConfig(
        graph=GraphConfig(kind="random-walkable", n=4, horizon=150, seed=7),
        objective=ObjectiveConfig(
            kind="l1", d=1, targets=((0.0,), (1.0,), (2.0,), (5.0,))
        ),
        init=InitConfig(mode="random", seed=3),
    )
    return dataclasses.replace(cfg, **over)


# --------------------------------------------------------------------------
# config parsing and rendering
# --------------------------------------------------------------------------

def test_parse_minimal_ini_text():
    cfg = parse_config(
        """
        [graph]
        kind = static-cycle
        n = 3
        horizon = 40

        [objective]
        kind = quadratic
        targets = 0 ; 2 ; 4
        """
    )
    assert cfg.graph.n == 3 and cfg.graph.kind == "static-cycle"
    assert cfg.objective.targets == ((0.0,), (2.0,), (4.0,))
    assert cfg.schedule.kind == "harmonic"  # defaults fill the rest
    assert cfg.bounds.evaluate is True


def test_render_parse_is_canonical_fixed_point():
    cfg = base_config()
    text = render_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert render_config(again) == text  # byte-identical canonical form


def test_render_round_trip_covers_every_field():
    cfg = ExperimentConfig(
        graph=GraphConfig(kind="rotating-arc", n=5, horizon=200, seed=9,
                          arc_prob=0.4, inject_every=3),
        weights=WeightConfig(rule="uniform-out-degree"),
        objective=ObjectiveConfig(
            kind="hinge", d=2,
            normals=((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, -0.5), (2.0, 0.25)),
            labels=(1.0, -1.0, 1.0, 1.0, -1.0),
            g_bound=3.0, box_lo=(-4.0, -4.0), box_hi=(4.0, 4.0),
        ),
        schedule=ScheduleConfig(kind="fixed", t_fixed=200),
        init=InitConfig(mode="explicit",
                        values=((0.1, 0.2), (0.3, 0.4), (0.5, 0.6),
                                (0.7, 0.8), (0.9, 1.0))),
        sweep=SweepConfig(horizons=(50, 100, 200)),
    )
    assert parse_config(render_config(cfg)) == cfg


# Every field differs from its default; one non-default config pins key
# order, number format, matrix layout and how empty values are written.
EVERY_FIELD = ExperimentConfig(
    graph=GraphConfig(kind="file", n=2, horizon=30, seed=4, arc_prob=0.5,
                      inject_every=2, file="graphs/seq.txt"),
    weights=WeightConfig(rule="file", file="weights/w.txt"),
    objective=ObjectiveConfig(
        kind="hinge", d=2, targets=((1.5, -2.0), (0.25, 3.0)),
        normals=((1.0, -0.5), (-1e-300, 2.0)), labels=(1.0, -1.0), g_bound=2.5,
        box_lo=(-3.0, -4.0), box_hi=(3.0, 4.0),
    ),
    schedule=ScheduleConfig(kind="fixed", a=0.5, p=0.75, t_fixed=30),
    init=InitConfig(mode="explicit", seed=9, lo=-1.0, hi=2.0,
                    values=((0.1, -1e-300), (2.0, 0.5))),
    bounds=BoundsConfig(evaluate=False, agents=False, envelope=False),
    sweep=SweepConfig(horizons=(10, 20, 30)),
)

EVERY_FIELD_TEXT = """\
[graph]
kind = file
n = 2
horizon = 30
seed = 4
arc_prob = 0.5
inject_every = 2
file = graphs/seq.txt

[weights]
rule = file
file = weights/w.txt

[objective]
kind = hinge
d = 2
targets = 1.5 -2.0 ; 0.25 3.0
normals = 1.0 -0.5 ; -1e-300 2.0
labels = 1.0 -1.0
g_bound = 2.5
box_lo = -3.0 -4.0
box_hi = 3.0 4.0

[schedule]
kind = fixed
a = 0.5
p = 0.75
t_fixed = 30

[init]
mode = explicit
seed = 9
lo = -1.0
hi = 2.0
values = 0.1 -1e-300 ; 2.0 0.5

[bounds]
evaluate = false
agents = false
envelope = false

[sweep]
horizons = 10 20 30
"""

DEFAULT_TEXT = """\
[graph]
kind = static-cycle
n = 3
horizon = 100
seed = 0
arc_prob = 0.25
inject_every = 5
file =

[weights]
rule = uniform-out-degree
file =

[objective]
kind = quadratic
d = 1
targets =
normals =
labels =
g_bound =
box_lo =
box_hi =

[schedule]
kind = harmonic
a = 1.0
p = 1.0
t_fixed =

[init]
mode = random
seed = 1
lo = -5.0
hi = 5.0
values =

[bounds]
evaluate = true
agents = true
envelope = true

[sweep]
horizons =
"""


def test_render_config_golden_bytes():
    assert render_config(EVERY_FIELD) == EVERY_FIELD_TEXT
    assert parse_config(EVERY_FIELD_TEXT) == EVERY_FIELD
    assert render_config(ExperimentConfig()) == DEFAULT_TEXT


_FLOAT_KEYS = {
    "arc_prob": "graph", "a": "schedule", "p": "schedule", "lo": "init",
    "hi": "init", "g_bound": "objective", "targets": "objective",
    "normals": "objective", "labels": "objective", "box_lo": "objective",
    "box_hi": "objective", "values": "init",
}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(_FLOAT_KEYS))
def test_non_finite_numbers_are_config_errors(key, bad):
    lines = EVERY_FIELD_TEXT.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith(f"{key} = "))
    value = lines[k].split(" = ", 1)[1]
    lines[k] = f"{key} = {bad} {value.partition(' ')[2]}"  # replace the first number
    with pytest.raises(ConfigError, match=re.escape(f"[{_FLOAT_KEYS[key]}] {key}")):
        parse_config("\n".join(lines) + "\n")


def test_unknown_section_and_key_are_hard_errors():
    with pytest.raises(ConfigError, match=r"unknown section \[graf\]"):
        parse_config("[graf]\nn = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'nn'"):
        parse_config("[graph]\nnn = 3\n")
    with pytest.raises(ConfigError, match="expected integer"):
        parse_config("[graph]\nn = three\n")
    with pytest.raises(ConfigError, match="expected boolean"):
        parse_config("[bounds]\nevaluate = maybe\n")


@pytest.mark.parametrize(
    "cfg,msg",
    [
        (base_config(objective=ObjectiveConfig(kind="l1", d=1, targets=((0.0,),))),
         "rows for n=4"),
        (base_config(objective=ObjectiveConfig(kind="quadratic", d=1)),
         "needs targets"),
        (base_config(objective=ObjectiveConfig(
            kind="hinge", d=1, normals=((1.0,),) * 4, labels=(1.0,) * 4)),
         "explicit box"),
        (base_config(schedule=ScheduleConfig(kind="fixed")), "needs t_fixed"),
        (base_config(schedule=ScheduleConfig(kind="fixed", t_fixed=60)),
         "t_fixed"),
        (base_config(init=InitConfig(mode="explicit", values=((1.0,),))),
         r"\[init\] values"),
        (base_config(graph=GraphConfig(kind="moebius")), "unknown value"),
        (base_config(graph=GraphConfig(kind="random-walkable", n=4,
                                       arc_prob=float("nan"))), "arc_prob"),
        (base_config(graph=GraphConfig(kind="random-walkable", n=4, arc_prob=1.5)),
         "arc_prob"),
        (base_config(graph=GraphConfig(kind="random-walkable", n=4, arc_prob=-0.1)),
         "arc_prob"),
        (base_config(graph=GraphConfig(kind="random-walkable", n=4, inject_every=0)),
         "inject_every"),
    ],
)
def test_cross_field_sanity_errors(cfg, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config(render_config(cfg))


ZERO = "[objective]\nkind = zero\n"
HINGE2 = "[graph]\nn = 2\n[objective]\nkind = hinge\nd = 2\nbox_lo = -1 -1\nbox_hi = 1 1\n"


@pytest.mark.parametrize("text,msg", [
    ("[graph]\nkind = file\n", "[graph] kind=file needs a file path"),
    ("[weights]\nrule = magic\n", "[weights] rule: unknown value 'magic'"),
    ("[weights]\nrule = file\n", "[weights] rule=file needs a file path"),
    ("[objective]\nkind = cubic\n", "[objective] kind: unknown value 'cubic'"),
    ("[objective]\nkind = zero\nd = 0\n", "[objective] d must be positive"),
    ("[graph]\nn = 2\n[objective]\nkind = quadratic\nd = 2\ntargets = 1 2 ; 3\n",
     "[objective] targets: every row must have d=2 values"),
    (HINGE2 + "labels = 1 -1\n", "[objective] kind=hinge needs normals and labels"),
    (HINGE2 + "normals = 1 0 ; 0 1\n", "[objective] kind=hinge needs normals and labels"),
    (HINGE2 + "normals = 1 0\nlabels = 1 -1\n",
     "[objective] hinge needs one normal and label per agent (n=2)"),
    (HINGE2 + "normals = 1 0 ; 0 1\nlabels = 1\n",
     "[objective] hinge needs one normal and label per agent (n=2)"),
    (HINGE2 + "normals = 1 0 ; 1\nlabels = 1 -1\n",
     "[objective] normals: every row must have d=2 values"),
    (ZERO + "d = 2\nbox_lo = -1\n", "[objective] box_lo must have d=2 values"),
    (ZERO + "d = 2\nbox_hi = 1 1 1\n", "[objective] box_hi must have d=2 values"),
    (ZERO + "[schedule]\nkind = cosine\n", "[schedule] kind: unknown value 'cosine'"),
    (ZERO + "[init]\nmode = zeros\n", "[init] mode: unknown value 'zeros'"),
    (ZERO + "[init]\nmode = explicit\n", "[init] mode=explicit needs values"),
    (ZERO + "[init]\nlo = 1\nhi = 1\n", "[init] needs lo < hi"),
    ("[objective]\nkind = quadratic\ntargets = 1 ; ; 2\n",
     "[objective] targets: expected rows of finite numbers, got '1 ; ; 2'"),
    ("[DEFAULT]\nn = 3\n", "unexpected keys outside any section: ['n']"),
    ("[graph]\nn = 3\n[graph]\nn = 4\n", "unparseable config: "),
])
def test_parse_config_refuses(text, msg):
    with pytest.raises(ConfigError, match=re.escape(msg)):
        parse_config(text)


def test_apply_overrides():
    cfg = base_config()
    out = apply_overrides(cfg, seed=99, graph_file="graphs.txt", weights_file="w.txt")
    assert out.graph.seed == 99 and out.init.seed == 99
    assert out.graph.kind == "file" and out.graph.file == "graphs.txt"
    assert out.weights.rule == "file" and out.weights.file == "w.txt"
    assert apply_overrides(cfg) == cfg


# --------------------------------------------------------------------------
# running experiments
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = base_config()
    result = run_experiment(cfg, out_dir=out)
    return cfg, result, out


def test_run_experiment_passes_and_persists(finished):
    cfg, result, out = finished
    s = result.summary
    assert s.passed
    assert s.connectivity_window is not None and s.connectivity_window <= 5
    assert s.final_gap < 0.5
    assert all(m > 0 for m in s.bound_margins.values())
    assert {"weight-mass", "lyapunov-recursion", "abs-prob-recursion"} <= {
        c.name for c in s.checks
    }
    for name in ("trace.csv", "report.json", "report.txt",
                 "gap.svg", "consensus.svg", "bounds.svg"):
        assert (out / name).exists(), name


def test_report_json_and_text_are_readable(finished):
    _, result, out = finished
    payload = json.loads((out / "report.json").read_text())
    assert payload["passed"] is True
    assert payload["n"] == 4
    assert set(payload["bound_margins"]) == set(result.summary.bound_margins)
    text = (out / "report.txt").read_text()
    assert "PASS" in text and "bound" in text


def test_svg_artifacts_are_well_formed(finished):
    _, _, out = finished
    for name in ("gap.svg", "consensus.svg", "bounds.svg"):
        root = ET.parse(out / name).getroot()
        assert root.tag.endswith("svg")
        assert len(list(root.iter())) > 10


def test_line_chart_skips_non_finite_points(tmp_path):
    xs = [0, 1, 2, 3, 4]
    inf, nan = float("inf"), float("nan")
    for sign in (1.0, -1.0):  # some value positive: a log axis; none: a linear one
        path = tmp_path / f"chart{sign}.svg"
        line_chart(path, [Series(xs, [sign, 2 * sign, sign * inf, 4 * sign, nan], "a"),
                          Series(xs, [sign * inf] * 5, "b")])
        text = path.read_text()
        ET.fromstring(text)
        assert "inf" not in text and "nan" not in text
        assert (">1e" in text) == (sign > 0)  # log10 tick labels
        # the gap at x=2 splits "a" into a polyline and a lone point
        assert text.count("<polyline") == 1 and text.count("<circle") == 1
    # on a log axis a nonpositive value is a gap too
    line_chart(tmp_path / "zero.svg", [Series(xs, [1.0, 2.0, 0.0, 4.0, -1.0], "z")])
    text = (tmp_path / "zero.svg").read_text()
    assert text.count("<polyline") == 1 and text.count("<circle") == 1
    # with no drawable point at all, the chart is the frame and the legend
    line_chart(tmp_path / "none.svg", [Series(xs, [nan] * 5, "c"), Series(xs, [inf] * 5, "d")])
    text = (tmp_path / "none.svg").read_text()
    ET.fromstring(text)
    assert "<polyline" not in text and "<circle" not in text and ">c</text>" in text and ">d</text>" in text


def test_line_chart_memory_per_point(tmp_path):
    # The axis ranges come from one pass over the series, with no list of
    # points: what the chart holds is about its text, not a copy per point.
    rng = np.random.default_rng(3)
    steps = 20_000
    ts = np.arange(steps)
    series = [Series(ts, rng.random(steps) + k, f"s{k}") for k in range(3)]
    tracemalloc.start()
    try:
        line_chart(tmp_path / "big.svg", series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * 3 * steps, peak / (3 * steps)


def test_trace_round_trip_is_bitwise(tmp_path, finished):
    _, result, out = finished
    loaded = import_trace(out / "trace.csv")
    tr = result.trace
    assert loaded.n == tr.n and loaded.d == tr.d and loaded.steps == tr.steps
    assert np.array_equal(loaded.alphas, tr.alphas)
    assert np.array_equal(loaded.zs, tr.zs)
    assert np.array_equal(loaded.zbar, tr.zbar)
    assert np.array_equal(loaded.zlyap, tr.zlyap)
    assert np.array_equal(loaded.consensus, tr.consensus)
    assert np.array_equal(loaded.running_gap, tr.running_gap)
    assert loaded.bound_lhs is not None
    assert np.array_equal(loaded.bound_terms.sum(axis=1) > 0, np.ones(tr.steps, bool))
    # nan, inf, -inf and -0 cells come back with the same bits
    zs = tr.zs.copy()
    zs[1:5, 0, 0] = [np.nan, np.inf, -np.inf, -0.0]
    export_trace(dataclasses.replace(tr, zs=zs), tmp_path / "trace.csv")
    assert import_trace(tmp_path / "trace.csv").zs.tobytes() == zs.tobytes()


def reference_export_trace(trace, path, bound_emp=None, bound_wc=None):
    """The per-row writer export_trace replaced, kept as its reference."""
    cols = ["t", "alpha"]
    for i in range(trace.n):
        cols += [f"z{i + 1}_{c + 1}" for c in range(trace.d)]
    cols += [f"zbar_{c + 1}" for c in range(trace.d)]
    cols += [f"zlyap_{c + 1}" for c in range(trace.d)]
    cols += ["consensus", "gap"]
    if bound_emp is not None:
        cols += ["bound_lhs", "bound_rhs_emp", "bound_rhs_wc",
                 "bound_term1", "bound_term2", "bound_term3", "bound_term4"]
    lines = [",".join(cols)]
    for t in range(trace.steps):
        vals = [trace.alphas[t]]
        vals += list(trace.zs[t].reshape(-1))
        vals += list(trace.zbar[t])
        vals += list(trace.zlyap[t])
        vals += [trace.consensus[t], trace.running_gap[t]]
        if bound_emp is not None:
            vals += [bound_emp.lhs[t], bound_emp.rhs[t],
                     bound_wc.rhs[t] if bound_wc is not None else float("nan")]
            vals += list(bound_emp.terms[t])
        lines.append(str(t) + "," + ",".join(f"{v:.17g}" for v in vals))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


QUADRATIC_2D = ObjectiveConfig(
    kind="quadratic", d=2, targets=((0.0, 1.0), (1.0, -2.0), (2.0, 0.5), (5.0, 3.0)),
)


@pytest.mark.parametrize("objective", [None, QUADRATIC_2D], ids=["d1", "d2"])
@pytest.mark.parametrize("bounds", ["none", "empirical", "both", "infinite-worst-case"])
def test_export_trace_matches_the_row_writer(tmp_path, monkeypatch, objective, bounds):
    result = run_experiment(base_config() if objective is None else base_config(objective=objective))
    trace, reports = result.trace, result.reports
    emp = None if bounds == "none" else reports["gap-decaying-network-empirical"]
    wc = reports["gap-decaying-network-worst-case"] if bounds != "empirical" and emp else None
    if bounds == "infinite-worst-case":
        wc = dataclasses.replace(wc, rhs=np.where(np.arange(trace.steps) % 3 == 1, np.inf, wc.rhs))
    reference_export_trace(trace, tmp_path / "want.csv", emp, wc)
    # One block of all 150 rows, blocks of one row, and of 6 to 9 rows
    for budget in (pushsim.graphs.BLOCK_BYTES, 1, 8000):
        monkeypatch.setattr(pushsim.graphs, "BLOCK_BYTES", budget)
        export_trace(trace, tmp_path / "got.csv", emp, wc)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes(), budget
    loaded = import_trace(tmp_path / "got.csv")
    assert np.array_equal(loaded.zs, trace.zs) and np.array_equal(loaded.zbar, trace.zbar)
    assert np.array_equal(loaded.ts, np.arange(trace.steps))
    if emp is None:
        assert loaded.bound_lhs is None and loaded.bound_terms is None
    else:
        assert np.array_equal(loaded.bound_terms, emp.terms)
        want_wc = np.full(trace.steps, np.nan) if wc is None else wc.rhs
        assert np.array_equal(loaded.bound_rhs_wc, want_wc, equal_nan=True)


def fake_trace(steps, n, rng):
    """The columns export_trace reads from a run of ``steps`` steps."""
    return types.SimpleNamespace(
        n=n, d=1, steps=steps, alphas=rng.random(steps), zs=rng.random((steps, n, 1)),
        zbar=rng.random((steps, 1)), zlyap=rng.random((steps, 1)),
        consensus=rng.random(steps), running_gap=rng.random(steps),
    )


def test_export_trace_memory_stays_flat_as_the_trace_grows(tmp_path):
    # The rows go out in fixed chunks: neither the text nor the Python
    # floats of the whole trace are ever held.
    rng = np.random.default_rng(5)
    peaks, sizes = [], []
    for steps in (4000, 16000):
        trace = fake_trace(steps, 20, rng)
        path = tmp_path / f"{steps}.csv"
        tracemalloc.start()
        try:
            export_trace(trace, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(path.stat().st_size)
        assert import_trace(path).zs.tobytes() == trace.zs.tobytes()
    assert peaks[1] <= 1.1 * peaks[0], peaks
    assert peaks[1] <= sizes[1] / 8, (peaks, sizes)


def test_run_experiment_folds_the_agent_certificates(monkeypatch):
    # Each agent's certificate shows in the margins, the argmins and a
    # bound check, in the order the certificates come, and no report of
    # it is kept.
    cfg = base_config(schedule=ScheduleConfig(kind="harmonic"))
    kept = []
    certificates = pushsim.harness._certificates

    def listed(*args):
        reports = list(certificates(*args))
        kept.append(reports)
        return iter(reports)

    monkeypatch.setattr(pushsim.harness, "_certificates", listed)
    result = run_experiment(cfg)
    (reports,) = kept
    agents = [f"agent{k}" for k in range(1, 5)]
    labels = [
        f"gap-decaying-{who}-{constants}" for constants in ("empirical", "worst-case")
        for who in ["network"] + agents
    ]
    assert [r.label for r in reports if r.label.startswith("gap-")] == labels
    summary = result.summary
    assert list(summary.bound_margins) == [r.label for r in reports]
    assert summary.bound_margins == {r.label: r.min_margin for r in reports}
    assert summary.bound_argmin == {r.label: r.argmin_t for r in reports}
    assert [c.name for c in summary.checks if c.name.startswith("bound:")] == [
        f"bound:{r.label}" for r in reports
    ]
    assert [r.label for r in result.gap_reports] == [
        "gap-decaying-network-empirical", "gap-decaying-network-worst-case",
    ]
    assert all(r.label.startswith("envelope-") for r in result.envelope_reports)
    assert not [label for label in result.reports if "-agent" in label]


def test_import_trace_checks_the_header(tmp_path, finished):
    _, _, out = finished
    rows = (out / "trace.csv").read_text().splitlines()
    # an agent index beyond the header's width is refused before its
    # layout is built
    for old, new in (("zlyap_1", "zlyap_x"), ("z4_1,", "z1000000_1,")):
        (tmp_path / "trace.csv").write_text("\n".join([rows[0].replace(old, new), *rows[1:]]) + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="unexpected trace header"):
                import_trace(tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, (new, peak)  # the million-agent layout is 75 MB


def test_two_runs_are_byte_identical(tmp_path, finished):
    cfg, _, out = finished
    again = tmp_path / "again"
    run_experiment(cfg, out_dir=again)
    h1 = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
    h2 = hashlib.sha256((again / "trace.csv").read_bytes()).hexdigest()
    assert h1 == h2
    assert (out / "report.json").read_bytes() == (again / "report.json").read_bytes()


def test_no_artifact_depends_on_the_block_budget(tmp_path, monkeypatch, capsys):
    # Every blocked pass is row-independent: the default budget (one block
    # a pass at this size), one row a block in every pass, and blocks of a
    # few rows write the same bytes and print the same summaries.
    cfg = base_config(
        graph=GraphConfig(kind="random-walkable", n=5, horizon=60, seed=3, arc_prob=0.3),
        objective=ObjectiveConfig(kind="l1", d=1, targets=((1.0,), (-2.0,), (3.0,), (0.5,), (4.0,))),
        sweep=SweepConfig(horizons=(15, 30, 60)),
    )
    cfgp = write_cfg(tmp_path, cfg)
    seen = []
    for budget in (pushsim.graphs.BLOCK_BYTES, 1, 2 ** 12):
        monkeypatch.setattr(pushsim.graphs, "BLOCK_BYTES", budget)
        out = tmp_path / str(budget)
        shown = []
        for command in ("simulate", "report", "sweep", "verify"):
            target = out / ("simulate" if command == "report" else command)
            assert main([command, "--config", cfgp, "--out", str(target)]) == 0, (budget, command)
            shown.append(capsys.readouterr().out)
        files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        seen.append((files, shown))
    assert len(seen[0][0]) == 12  # simulate writes 6 files, sweep 4 and verify 2
    assert seen[1] == seen[0] and seen[2] == seen[0]


def test_report_from_dir_recomputes_and_passes(finished):
    cfg, _, out = finished
    summary = report_from_dir(cfg, out)
    assert summary.kind == "report"
    assert summary.passed
    recompute = {c.name: c for c in summary.checks if c.name.startswith("recompute")}
    # n=4 keeps the worst-case constants above underflow, so that column is checked too
    assert {"recompute-zbar", "recompute-consensus", "recompute-gap",
            "recompute-final-gap", "recompute-final-consensus", "recompute-bound-decaying",
            "recompute-bound-decaying-wc", "recompute-bound-rhs",
            "recompute-bound-rhs-wc"} <= set(recompute)
    for c in recompute.values():
        assert c.passed and c.value <= 1e-12


@pytest.mark.parametrize("schedule", [ScheduleConfig(), ScheduleConfig(kind="fixed", t_fixed=150)])
def test_report_from_dir_leaves_the_charts_alone(tmp_path, schedule):
    cfg = base_config(schedule=schedule)
    run_experiment(cfg, out_dir=tmp_path)
    charts = ("gap.svg", "consensus.svg", "bounds.svg")
    before = [hashlib.sha256((tmp_path / c).read_bytes()).hexdigest() for c in charts]
    assert report_from_dir(cfg, tmp_path).passed
    after = [hashlib.sha256((tmp_path / c).read_bytes()).hexdigest() for c in charts]
    assert after == before


def test_report_from_dir_detects_tampering(tmp_path, finished):
    cfg, _, out = finished
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("report.json", "report.txt"):
        (broken / name).write_bytes((out / name).read_bytes())
    rows = (out / "trace.csv").read_text().splitlines()
    gap_col = rows[0].split(",").index("gap")
    cells = rows[40].split(",")
    cells[gap_col] = repr(float(cells[gap_col]) + 1.0)  # corrupt one recorded gap
    rows[40] = ",".join(cells)
    (broken / "trace.csv").write_text("\n".join(rows) + "\n")
    summary = report_from_dir(cfg, broken)
    assert not summary.passed
    bad = {c.name for c in summary.checks if not c.passed}
    assert "recompute-gap" in bad or "recompute-bound-rhs" in bad


def copy_run(src, dst):
    dst.mkdir()
    for name in ("trace.csv", "report.json", "report.txt"):
        (dst / name).write_bytes((src / name).read_bytes())


def test_report_from_dir_checks_the_worst_case_column(tmp_path, finished):
    cfg, _, out = finished
    broken = tmp_path / "broken"
    copy_run(out, broken)
    rows = (broken / "trace.csv").read_text().splitlines()
    col = rows[0].split(",").index("bound_rhs_wc")
    cells = rows[40].split(",")
    cells[col] = repr(float(cells[col]) * (1 + 1e-9))
    rows[40] = ",".join(cells)
    (broken / "trace.csv").write_text("\n".join(rows) + "\n")
    bad = {c.name for c in report_from_dir(cfg, broken).checks if not c.passed}
    assert bad == {"recompute-bound-rhs-wc"}


def test_report_from_dir_checks_fixed_horizon_margins(tmp_path):
    cfg = base_config(
        graph=GraphConfig(kind="random-walkable", n=5, horizon=400, seed=7),
        objective=ObjectiveConfig(kind="l1", d=1, targets=((-2.0,), (0.0,), (1.0,), (3.0,), (6.0,))),
        schedule=ScheduleConfig(kind="fixed", t_fixed=400),
    )
    out = tmp_path / "run"
    run_experiment(cfg, out_dir=out)
    checks = {c.name: c for c in report_from_dir(cfg, out).checks}
    for name in ("recompute-bound-fixed", "recompute-bound-fixed-wc"):
        assert checks[name].passed and checks[name].value <= 1e-12, name
    broken = tmp_path / "broken"
    copy_run(out, broken)
    stored = json.loads((broken / "report.json").read_text())
    stored["bound_margins"]["gap-fixed-network-empirical"] += 1e-9
    (broken / "report.json").write_text(json.dumps(stored))
    bad = {c.name for c in report_from_dir(cfg, broken).checks if not c.passed}
    assert bad == {"recompute-bound-fixed"}


def test_cli_report_checks_an_overflowed_fixed_horizon_margin(tmp_path, capsys):
    # On the rotating arc on 12 agents (window 12) the worst-case constants
    # overflow the fixed-horizon certificate: the stored margin is inf, and
    # report checks it as it checks a finite one.
    targets = (1, -2, 3, 0.5, 4, -1, 2, -3, 0, 1.5, -0.5, 2.5)
    cfgp = write_cfg(tmp_path, base_config(
        graph=GraphConfig(kind="rotating-arc", n=12, horizon=400),
        objective=ObjectiveConfig(kind="l1", d=1, targets=tuple((float(v),) for v in targets)),
        schedule=ScheduleConfig(kind="fixed", t_fixed=400),
    ))
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
    stored = json.loads((out / "report.json").read_text())
    assert stored["bound_margins"]["gap-fixed-network-worst-case"] == math.inf
    assert math.isfinite(stored["bound_margins"]["gap-fixed-network-empirical"])
    capsys.readouterr()
    assert main(["report", "--config", cfgp, "--out", str(out)]) == 0
    assert "check recompute-bound-fixed-wc: PASS value=0 " in capsys.readouterr().out
    # a finite margin made inf, or the inf one made finite, fails its check
    for label, margin, check in (
        ("empirical", math.inf, "recompute-bound-fixed"),
        ("worst-case", 1.0, "recompute-bound-fixed-wc"),
    ):
        margins = {**stored["bound_margins"], f"gap-fixed-network-{label}": margin}
        (out / "report.json").write_text(json.dumps({**stored, "bound_margins": margins}))
        assert main(["report", "--config", cfgp, "--out", str(out)]) == 1, label
        shown = capsys.readouterr().out
        assert f"check {check}: FAIL value=inf " in shown and "overall: FAIL" in shown
    # a margin that is not a number refuses the report
    for margin in ("x", "0.0", None):
        margins = {**stored["bound_margins"], "gap-fixed-network-worst-case": margin}
        (out / "report.json").write_text(json.dumps({**stored, "bound_margins": margins}))
        assert main(["report", "--config", cfgp, "--out", str(out)]) == 2, margin
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {out / 'report.json'}: a network margin is not a number")


def test_init_outside_declared_box_fails_loud(tmp_path):
    cfg = base_config(
        objective=ObjectiveConfig(
            kind="l1", d=1, targets=((0.0,), (1.0,), (2.0,), (5.0,)),
            box_lo=(-1.0,), box_hi=(6.0,),
        ),
        init=InitConfig(mode="explicit",
                        values=((40.0,), (0.0,), (0.0,), (0.0,))),
    )
    with pytest.raises(ValidationFailure, match="box"):
        run_experiment(cfg, out_dir=tmp_path / "x")


def test_graph_without_connectivity_window_fails_loud(tmp_path, capsys):
    # simulate stops with the failed check's note, verify reports the check
    cfg = base_config(graph=GraphConfig(kind="file", n=3, horizon=20,
                                        file=graph_file(tmp_path, [digraph(3)] * 20)),
                      objective=ObjectiveConfig(kind="l1", d=1,
                                                targets=((0.0,), (1.0,), (2.0,))))
    cfgp = write_cfg(tmp_path, cfg)
    text = "no window length certifies joint strong connectivity over the 20-step horizon"
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "sim")]) == 1
    assert capsys.readouterr().err == f"certification failed: {text}\n"
    out = tmp_path / "verify"
    assert main(["verify", "--config", cfgp, "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert not checks["connectivity-window"]["passed"]
    assert checks["connectivity-window"]["note"] == text
    assert "product-identity" not in checks


# --------------------------------------------------------------------------
# externally supplied weights
# --------------------------------------------------------------------------

def cycle3_config(tmp_path, corrupt=False):
    w = build_weights(digraph(3, [(j, (j + 1) % 3) for j in range(3)]))
    entries = np.array(w.entries)
    if corrupt:
        entries[0, 0] += 0.05  # breaks the column sum
    wfile = tmp_path / "weights.txt"
    wfile.write_text(format_matrix(entries))
    return base_config(
        graph=GraphConfig(kind="static-cycle", n=3, horizon=100),
        weights=WeightConfig(rule="file", file=str(wfile)),
        objective=ObjectiveConfig(kind="l1", d=1,
                                  targets=((0.0,), (1.0,), (2.0,))),
    )


def test_weights_file_happy_path(tmp_path):
    cfg = cycle3_config(tmp_path)
    result = run_experiment(cfg)
    assert result.summary.passed
    assert result.summary.beta == pytest.approx(0.5)


def test_corrupted_weights_file_fails_loud(tmp_path):
    cfg = cycle3_config(tmp_path, corrupt=True)
    with pytest.raises(ValidationFailure, match="weight"):
        run_experiment(cfg)


def test_verify_skips_downstream_on_bad_weights(tmp_path):
    summary = verify_experiment(cycle3_config(tmp_path, corrupt=True))
    assert not summary.passed and summary.min_y is None
    by_name = {c.name: c for c in summary.checks}
    assert not by_name["weight-validation"].passed
    assert by_name["weight-validation"].note.startswith(
        "weight matrix fails column-stochastic/support validation: step 0: columns [1]"
    )
    assert by_name["downstream"].note == "skipped: weight-validation failed"
    assert "product-identity" not in by_name


def test_every_report_leaf_is_a_plain_json_value(tmp_path):
    # report.json is written with json.dumps alone: a numpy scalar among
    # the leaves would fail it (np.int64, np.bool_) or pass only because
    # np.float64 subclasses float
    def leaves(obj):
        if isinstance(obj, dict):
            return [x for v in obj.values() for x in leaves(v)]
        if isinstance(obj, (list, tuple)):
            return [x for v in obj for x in leaves(v)]
        return [obj]

    decaying = base_config()
    fixed = base_config(schedule=ScheduleConfig(kind="fixed", t_fixed=150))
    failing = base_config(objective=ObjectiveConfig(kind="l1", d=1, g_bound=0.5,
                                                    targets=((0.0,), (1.0,), (2.0,), (5.0,))))
    with pytest.raises(RunFailure) as info:
        run_experiment(failing)
    summaries = [
        run_experiment(decaying, out_dir=tmp_path / "dec").summary,
        run_experiment(fixed, out_dir=tmp_path / "fix").summary,
        run_experiment(CERTIFIED["cycle3-hinge2d-fixed"]).summary,
        run_experiment(cycle3_config(tmp_path)).summary,
        verify_experiment(decaying),
        verify_experiment(cycle3_config(tmp_path, corrupt=True)),
        sweep_experiment(base_config(sweep=SweepConfig(horizons=(40, 80, 150)))),
        report_from_dir(decaying, tmp_path / "dec"),
        report_from_dir(fixed, tmp_path / "fix"),
        failure_summary(failing, "simulate", info.value),
    ]
    assert [s.passed for s in summaries] == [True] * 5 + [False] + [True] * 3 + [False]
    for s in summaries:
        bad = [x for x in leaves(s.as_dict()) if type(x) not in (bool, int, float, str, type(None))]
        assert not bad, (s.kind, bad)


def weights_file_case(tmp_path, kind, corrupt):
    """A graph sequence and a weights file holding step 0's uniform
    weights: valid at every step of a static cycle, only at the steps
    that repeat step 0's graph of a rotating arc; ``corrupt`` breaks a
    column sum on top."""
    seq = generate_sequence(kind, 6, 300)
    entries = np.array(build_weights(seq[0]).entries)
    if corrupt:
        entries[0, 0] += 1e-3
    wfile = tmp_path / f"{kind}-{corrupt}.txt"
    wfile.write_text(format_matrix(entries))
    return seq, entries, WeightConfig(rule="file", file=str(wfile))


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("kind", ["static-cycle", "rotating-arc"])
def test_file_weights_validate_each_distinct_graph_once(tmp_path, monkeypatch, kind, corrupt):
    seq, entries, wcfg = weights_file_case(tmp_path, kind, corrupt)
    want, beta = reference_file_violations(entries, seq, pushsim.harness.FILE_WEIGHT_TOL)
    validated = []
    validate = pushsim.harness.validate_column_stochastic

    def counted(w, g, **kwargs):
        validated.append(g.adjacency().tobytes())
        return validate(w, g, **kwargs)

    monkeypatch.setattr(pushsim.harness, "validate_column_stochastic", counted)
    ws, got = pushsim.harness._materialize_weights(seq, wcfg)
    assert got == want
    assert (len(want) > 20) == (kind == "rotating-arc" or corrupt)  # the cut-off is reached
    assert len(validated) == len(set(validated)) == (1 if kind == "static-cycle" else 6)
    assert len(ws) == seq.horizon and (ws.betas == beta).all()
    if not want:
        check = pushsim.harness._weights_check(ws, got, seq.horizon)
        assert check.passed and check.value == beta


def test_verify_happy_path():
    summary = verify_experiment(base_config())
    assert summary.passed and summary.min_y is not None
    by_name = {c.name: c for c in summary.checks}
    assert by_name["product-identity"].passed
    assert by_name["product-identity"].value <= 1e-9
    assert summary.steps <= 64


def test_verify_fails_product_identity_on_a_nan_residual(monkeypatch):
    # one NaN weight late in the stack: its residuals follow finite ones,
    # which a plain max() would keep instead of the NaN
    residuals = pushsim.harness.product_identity_residuals

    def with_nan(ws, ys):
        w = ws.block(0, len(ws)).copy()
        w[40, 0, 0] = np.nan
        return residuals(WeightStack(w, np.ones(w.shape[:2]), ws.betas), ys)

    monkeypatch.setattr(pushsim.harness, "product_identity_residuals", with_nan)
    summary = verify_experiment(base_config())
    check = {c.name: c for c in summary.checks}["product-identity"]
    assert not check.passed and np.isnan(check.value)
    assert not summary.passed


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

def test_sweep_fits_decay_rate(tmp_path):
    # constant 1/sqrt(T) stepsize: the sub-runs re-resolve t_fixed = T and
    # the final gap decays at least as fast as the certified square-root rate
    cfg = base_config(
        objective=ObjectiveConfig(kind="quadratic", d=1,
                                  targets=((0.0,), (1.0,), (2.0,), (5.0,))),
        schedule=ScheduleConfig(kind="fixed", t_fixed=150),
        sweep=SweepConfig(horizons=(100, 400, 1600, 6400)),
    )
    summary = sweep_experiment(cfg, out_dir=tmp_path)
    assert summary.passed
    assert summary.sweep_slope < -0.4
    assert summary.sweep_r2 > 0.95
    assert (tmp_path / "sweep.csv").exists() and (tmp_path / "sweep.svg").exists()
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "T,gap" and len(rows) == 5


def test_sweep_zero_objective_reports_exact(tmp_path):
    # Into the directory of an earlier sweep with positive gaps: the zero
    # gaps are drawn on linear axes, over the earlier log-axis chart.
    horizons = SweepConfig(horizons=(40, 80, 160))
    sweep_experiment(base_config(sweep=horizons), out_dir=tmp_path)
    earlier = (tmp_path / "sweep.svg").read_text()
    cfg = base_config(objective=ObjectiveConfig(kind="zero", d=1), sweep=horizons)
    summary = sweep_experiment(cfg, out_dir=tmp_path)
    assert summary.sweep_exact
    assert summary.passed
    text = (tmp_path / "sweep.svg").read_text()
    ET.fromstring(text)
    assert ">1e" in earlier and ">1e" not in text
    assert text.count("<polyline") == 1 and ">final gap</text>" in text


def test_sweep_needs_three_horizons():
    cfg = base_config(sweep=SweepConfig(horizons=(40, 80)))
    with pytest.raises(ConfigError, match="at least 3"):
        sweep_experiment(cfg)


# --------------------------------------------------------------------------
# the one-run sweep against the per-horizon loop it replaced
# --------------------------------------------------------------------------

def reference_sweep(cfg, out):
    """One full ``run_experiment`` per horizon, in ascending order, after
    the longest horizon's inputs are read."""
    pushsim.harness._inputs(cfg, max(cfg.sweep.horizons))
    points, all_checks = [], []
    for T in sorted(cfg.sweep.horizons):
        sub = dataclasses.replace(
            cfg,
            graph=dataclasses.replace(cfg.graph, horizon=T),
            schedule=(
                dataclasses.replace(cfg.schedule, t_fixed=T)
                if cfg.schedule.kind == "fixed" else cfg.schedule
            ),
            bounds=BoundsConfig(evaluate=False, agents=False, envelope=False),
        )
        try:
            res = run_experiment(sub, out_dir=None)
        except RunFailure as exc:
            raise RunFailure(f"T={T}:{exc.check}", exc.agent, exc.t, f"T={T}: {exc}") from exc
        points.append((T, float(res.trace.running_gap[-1])))
        # the sweep makes no companion pass, and so has no abs-prob checks
        checks = [c for c in res.summary.checks if not c.name.startswith("abs-prob-")]
        all_checks += [dataclasses.replace(c, name=f"T={T}:{c.name}") for c in checks]
    fit = fit_rate(points)
    summary = SummaryReport(
        kind="sweep", n=cfg.graph.n, d=cfg.objective.d, steps=max(cfg.sweep.horizons),
        graph_kind=cfg.graph.kind, schedule_kind=cfg.schedule.kind,
        sweep_points=points,
        sweep_slope=None if fit.exact else fit.slope,
        sweep_r2=None if fit.exact else fit.r2,
        sweep_exact=fit.exact,
        checks=all_checks,
    )
    out.mkdir(parents=True)
    rows = ["T,gap"] + [f"{T},{g:.17g}" for (T, g) in points]
    (out / "sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    write_report(summary, out)


def graph_file(tmp_path, graphs):
    bits = np.stack([np.packbits(g.adjacency(), axis=1) for g in graphs])
    seq = GraphSequence(graphs[0].n, bits)
    path = tmp_path / "graphs.txt"
    path.write_text(format_graph_sequence(seq))
    return str(path)


RING3 = [(0, 1), (1, 2), (2, 0)]
HORIZONS = SweepConfig(horizons=(40, 100, 250))


def ring3_with_weights(tmp_path, schedule, extra_arc_from=None):
    """A 3-ring from a graph file with the ring's weights from a weights
    file; from step ``extra_arc_from`` on an arc 1>3 the weights do not
    carry; a quadratic pull toward 10 that leaves the box [-8, 8] at a
    step set by the stepsize scale."""
    graphs = [digraph(3, RING3)] * 300
    if extra_arc_from is not None:
        graphs[extra_arc_from:] = [digraph(3, RING3 + [(0, 2)])] * (300 - extra_arc_from)
    wfile = tmp_path / "weights.txt"
    wfile.write_text(format_matrix(build_weights(digraph(3, RING3)).entries))
    return base_config(
        graph=GraphConfig(kind="file", n=3, horizon=300, file=graph_file(tmp_path, graphs)),
        weights=WeightConfig(rule="file", file=str(wfile)),
        objective=ObjectiveConfig(kind="quadratic", d=1, targets=((9.0,), (10.0,), (11.0,)),
                                  box_lo=(-8.0,), box_hi=(8.0,), g_bound=40.0),
        schedule=schedule, sweep=HORIZONS,
    )


QUAD2D = ObjectiveConfig(kind="quadratic", d=2,
                         targets=((0.0, 1.0), (1.0, -2.0), (2.0, 0.5), (5.0, 3.0)))
# (config factory, expected outcome: None for a sweep that writes its
# artifacts, else the exception type and a piece of its message)
SWEEP_CASES = {
    "harmonic": (lambda tmp: base_config(sweep=HORIZONS), None),
    "polynomial-2d": (lambda tmp: base_config(
        objective=QUAD2D, schedule=ScheduleConfig(kind="polynomial", a=0.5, p=0.75),
        sweep=HORIZONS), None),
    # 1/t^2 breaks the decay conditions: every horizon fails stepsize-decay
    "polynomial-p2": (lambda tmp: base_config(
        schedule=ScheduleConfig(kind="polynomial", p=2.0), sweep=HORIZONS), None),
    "fixed": (lambda tmp: base_config(
        schedule=ScheduleConfig(kind="fixed", t_fixed=150), sweep=HORIZONS), None),
    "unsorted-duplicates": (lambda tmp: base_config(
        sweep=SweepConfig(horizons=(100, 40, 100, 250))), None),
    "file-graph": (lambda tmp: base_config(
        graph=GraphConfig(kind="file", n=4, horizon=300, file=graph_file(
            tmp, generate_sequence("random-walkable", 4, 300, 5, arc_prob=0.3).graphs)),
        sweep=HORIZONS), None),
    "file-weights": (lambda tmp: ring3_with_weights(
        tmp, ScheduleConfig(kind="polynomial", a=0.05, p=0.75)), None),
    "file-too-short": (lambda tmp: base_config(
        graph=GraphConfig(kind="file", n=4, horizon=200, file=graph_file(
            tmp, generate_sequence("random-walkable", 4, 200, 5, arc_prob=0.3).graphs)),
        sweep=HORIZONS), (ConfigError, "horizon>=250")),
    "file-too-short-unsorted": (lambda tmp: base_config(
        graph=GraphConfig(kind="file", n=4, horizon=200, file=graph_file(
            tmp, generate_sequence("random-walkable", 4, 200, 5, arc_prob=0.3).graphs)),
        sweep=SweepConfig(horizons=(250, 100, 40, 100))), (ConfigError, "horizon>=250")),
    # horizon 40 has no window, but the file is read for horizon 100
    # first, and is too short for it
    "no-window-then-too-short": (lambda tmp: base_config(
        graph=GraphConfig(kind="file", n=3, horizon=80, file=graph_file(
            tmp, [digraph(3)] * 60 + [digraph(3, RING3)] * 20)),
        objective=ObjectiveConfig(kind="l1", d=1, targets=((0.0,), (1.0,), (2.0,))),
        sweep=SweepConfig(horizons=(100, 70, 40))), (ConfigError, "horizon>=100")),
    "no-window-in-prefix": (lambda tmp: base_config(
        graph=GraphConfig(kind="file", n=3, horizon=300, file=graph_file(
            tmp, [digraph(3)] * 60 + [digraph(3, RING3)] * 240)),
        objective=ObjectiveConfig(kind="l1", d=1, targets=((0.0,), (1.0,), (2.0,))),
        sweep=HORIZONS), (ValidationFailure, "40-step horizon")),
    "run-failure-mid-horizon": (lambda tmp: base_config(
        objective=ObjectiveConfig(kind="quadratic", d=1,
                                  targets=((9.0,), (10.0,), (11.0,), (10.0,)),
                                  box_lo=(-8.0,), box_hi=(8.0,), g_bound=40.0),
        schedule=ScheduleConfig(kind="polynomial", a=0.1, p=0.75),
        graph=GraphConfig(kind="random-walkable", n=4, horizon=300, seed=7),
        sweep=HORIZONS), (RunFailure, "T=100: agent 2 left the declared box at t=63")),
    # the run leaves the box at t=28, before the weights break at step 70
    "run-failure-before-weight-violation": (lambda tmp: ring3_with_weights(
        tmp, ScheduleConfig(kind="polynomial", a=0.14, p=0.75), extra_arc_from=70),
        (RunFailure, "T=40: agent")),
    # the run would leave the box at t=57, but horizon 100 fails
    # certification first
    "weight-violation-before-run-failure": (lambda tmp: ring3_with_weights(
        tmp, ScheduleConfig(kind="polynomial", a=0.11, p=0.75), extra_arc_from=70),
        (ValidationFailure, "step 70: arc 1>3 carries no weight")),
}


def sweep_outcome(sweep, cfg, out):
    try:
        sweep(cfg, out)
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return exc
    return {name: (out / name).read_bytes() for name in ("sweep.csv", "report.json", "report.txt")}


@pytest.mark.parametrize("case", list(SWEEP_CASES))
def test_sweep_matches_the_per_horizon_loop(tmp_path, case):
    make, expected = SWEEP_CASES[case]
    cfg = make(tmp_path)
    got = sweep_outcome(lambda c, out: sweep_experiment(c, out_dir=out), cfg, tmp_path / "got")
    want = sweep_outcome(reference_sweep, cfg, tmp_path / "want")
    if expected is None:
        assert isinstance(want, dict), repr(want)
        assert got == want
        return
    kind, text = expected
    assert type(want) is kind and text in str(want), repr(want)
    assert type(got) is kind and str(got) == str(want)
    if kind is RunFailure:
        assert (got.check, got.agent, got.t) == (want.check, want.agent, want.t)


def underflow_sweep_config(tmp_path):
    """A 3-agent pure-mixing sweep whose weights file lets agent 1 keep
    1e-20 of its weight and receive only 1e-310 of agent 2's: its weight
    falls below the floor at t=16, found by step 15."""
    arcs = [(0, 1), (1, 0), (1, 2), (2, 1)]
    wfile = tmp_path / "weights.txt"
    wfile.write_text(format_matrix(
        [[1e-20, 1e-310, 0.0], [1.0 - 1e-20, 0.5 - 1e-310, 0.5], [0.0, 0.5, 0.5]]))
    return base_config(
        graph=GraphConfig(kind="file", n=3, horizon=40, file=graph_file(tmp_path, [digraph(3, arcs)] * 40)),
        weights=WeightConfig(rule="file", file=str(wfile)),
        objective=ObjectiveConfig(kind="zero", d=1),
        sweep=SweepConfig(horizons=(10, 16, 40)),
    )


def per_step_check_loop(monkeypatch):
    """Make the drivers run the per-step-check reference loop."""
    monkeypatch.setattr(pushsim.harness, "run_push_subgradient", reference_run_push_subgradient)
    monkeypatch.setattr(SUBGRADIENT, "run_push_subgradient", reference_run_push_subgradient)


@pytest.mark.parametrize("block", [1, 4, 5, 16, None])
def test_sweep_names_a_weight_underflow_for_its_horizon(tmp_path, monkeypatch, block):
    # Blocks of 4 and 16 steps end with step 15, whose weights are checked
    # after the block; blocks of 5 begin with it.
    cfg = underflow_sweep_config(tmp_path)
    if block is not None:
        monkeypatch.setattr(pushsim.graphs, "BLOCK_BYTES", 8 * block * 3 * 3)
    got = sweep_outcome(lambda c, out: sweep_experiment(c, out_dir=out), cfg, tmp_path / "got")
    per_step_check_loop(monkeypatch)
    want = sweep_outcome(lambda c, out: sweep_experiment(c, out_dir=out), cfg, tmp_path / "want")
    assert type(got) is type(want) is RunFailure
    assert (got.check, got.agent, got.t, str(got)) == (want.check, want.agent, want.t, str(want))
    assert (got.check, got.agent, got.t) == ("T=16:weight-underflow", 1, 16)
    assert str(got).startswith("T=16: push-sum weight underflow at t=16 for agents [1]")


@pytest.mark.parametrize("schedule,runs", [
    (ScheduleConfig(kind="harmonic"), [250]),
    (ScheduleConfig(kind="fixed", t_fixed=150), [40, 100, 250]),
])
def test_sweep_generates_once_and_runs_once_per_distinct_stepsize(monkeypatch, schedule, runs):
    calls = {"generate": [], "run": []}
    generate, run = pushsim.harness.generate_sequence, pushsim.harness.run_push_subgradient

    def counted_generate(kind, n, horizon, *args, **kwargs):
        calls["generate"].append(horizon)
        return generate(kind, n, horizon, *args, **kwargs)

    def counted_run(ws, *args, **kwargs):
        calls["run"].append(len(ws))
        return run(ws, *args, **kwargs)

    monkeypatch.setattr(pushsim.harness, "generate_sequence", counted_generate)
    monkeypatch.setattr(pushsim.harness, "run_push_subgradient", counted_run)
    sweep_experiment(base_config(schedule=schedule, sweep=HORIZONS))
    assert calls == {"generate": [250], "run": runs}


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------

def write_cfg(tmp_path, cfg):
    p = tmp_path / "run.ini"
    p.write_text(render_config(cfg))
    return str(p)


def test_cli_simulate_and_report(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, base_config())
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfgp, "--out", out]) == 0
    shown = capsys.readouterr().out
    assert "PASS" in shown
    assert main(["report", "--config", cfgp, "--out", out]) == 0
    assert main(["verify", "--config", cfgp]) == 0


# eta = 12^(-12 L) is tiny but positive, so the worst-case memory terms
# overflow to inf: a valid, vacuous certificate
ROTATING_ARC_L1 = ExperimentConfig(
    graph=GraphConfig(kind="rotating-arc", n=12, horizon=400),
    objective=ObjectiveConfig(
        kind="l1", d=1, targets=tuple((float(k),) for k in range(12)),
    ),
    schedule=ScheduleConfig(kind="harmonic"),
    init=InitConfig(mode="random", seed=2),
)


def test_cli_rate_fits_make_no_lapack_call(tmp_path, capsys, monkeypatch):
    # mu_emp's geometric fit and the sweep's log-log fit are closed form.
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK least-squares call")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    cfgp = write_cfg(tmp_path, base_config(sweep=SweepConfig(horizons=(40, 80, 150))))
    for command in ("simulate", "sweep"):
        assert main([command, "--config", cfgp, "--out", str(tmp_path / command)]) == 0
        assert capsys.readouterr().out.endswith("overall: PASS\n")
    report = json.loads((tmp_path / "sweep" / "report.json").read_text())
    assert report["sweep_slope"] < 0 and not report["sweep_exact"]
    assert json.loads((tmp_path / "simulate" / "report.json").read_text())["mu_emp"] > 0


def test_cli_infinite_worst_case_bound_still_charts(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, ROTATING_ARC_L1)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", cfgp, "--out", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "check recompute-bound-rhs-wc: PASS" in shown
    wc = import_trace(out / "trace.csv").bound_rhs_wc
    assert np.isfinite(wc[0]) and np.isinf(wc[1:]).all()
    ET.parse(out / "bounds.svg")


@pytest.mark.parametrize("row,edit", [
    (1, lambda v: v * (1 + 1e-9)),  # the one finite entry
    (6, lambda v: 1e300),  # an overflowed entry made finite
])
def test_report_from_dir_compares_an_overflowing_worst_case_column(tmp_path, row, edit):
    out = tmp_path / "run"
    run_experiment(ROTATING_ARC_L1, out_dir=out)
    checks = {c.name: c for c in report_from_dir(ROTATING_ARC_L1, out).checks}
    assert checks["recompute-bound-rhs-wc"].passed
    assert checks["recompute-bound-rhs-wc"].value <= 1e-12
    broken = tmp_path / "broken"
    copy_run(out, broken)
    rows = (broken / "trace.csv").read_text().splitlines()
    col = rows[0].split(",").index("bound_rhs_wc")
    cells = rows[row].split(",")
    cells[col] = repr(edit(float(cells[col])))
    rows[row] = ",".join(cells)
    (broken / "trace.csv").write_text("\n".join(rows) + "\n")
    bad = {c.name for c in report_from_dir(ROTATING_ARC_L1, broken).checks if not c.passed}
    assert bad == {"recompute-bound-rhs-wc"}


def test_cli_report_header_names_the_window_and_beta(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
    stored = json.loads((out / "report.json").read_text())
    capsys.readouterr()
    assert main(["report", "--config", cfgp, "--out", str(out)]) == 0
    header = capsys.readouterr().out.splitlines()[1]
    assert header == (
        f"graph=random-walkable schedule=harmonic "
        f"window={stored['connectivity_window']} beta={stored['beta']}"
    )
    assert stored["connectivity_window"] is not None and stored["beta"] is not None


def test_cli_seed_override_changes_the_run(tmp_path):
    cfgp = write_cfg(tmp_path, base_config())
    a, b, c = (str(tmp_path / k) for k in "abc")
    assert main(["simulate", "--config", cfgp, "--out", a, "--seed", "5"]) == 0
    assert main(["simulate", "--config", cfgp, "--out", b, "--seed", "5"]) == 0
    assert main(["simulate", "--config", cfgp, "--out", c, "--seed", "6"]) == 0
    ta, tb, tc = (Path(p, "trace.csv").read_bytes() for p in (a, b, c))
    assert ta == tb and ta != tc


def test_cli_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[graph]\nn = -3\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "o")]) == 2
    # an unusable [graph] number is a config error, not a crash in the generator
    nan_prob = tmp_path / "nan_prob.ini"
    nan_prob.write_text(render_config(base_config()).replace("arc_prob = 0.25", "arc_prob = nan"))
    assert main(["simulate", "--config", str(nan_prob), "--out", str(tmp_path / "o")]) == 2
    g_nan = tmp_path / "g_nan.ini"
    g_nan.write_text(render_config(base_config()).replace("g_bound =", "g_bound = nan"))
    assert main(["simulate", "--config", str(g_nan), "--out", str(tmp_path / "o")]) == 2
    # out-of-range schedule and objective numbers are config errors too
    good = str(tmp_path / "good")
    assert main(["simulate", "--config", write_cfg(tmp_path, base_config()), "--out", good]) == 0
    targets = ((0.0,), (1.0,), (2.0,), (5.0,))
    for bad in (
        base_config(schedule=ScheduleConfig(a=0.0)),
        base_config(schedule=ScheduleConfig(kind="polynomial", p=-1.0)),
        base_config(objective=ObjectiveConfig(kind="l1", d=1, targets=targets, g_bound=-1.0)),
        base_config(objective=ObjectiveConfig(kind="l1", d=1, targets=targets,
                                              box_lo=(6.0,), box_hi=(-1.0,))),
    ):
        badp = write_cfg(tmp_path, bad)
        for cmd, out in (("simulate", tmp_path / "o"), ("verify", None), ("report", good)):
            argv = [cmd, "--config", badp] + ([] if out is None else ["--out", str(out)])
            assert main(argv) == 2, (cmd, bad)
    # a config whose run fails validation exits 1
    cfg = base_config(
        objective=ObjectiveConfig(kind="l1", d=1,
                                  targets=((0.0,), (1.0,), (2.0,), (5.0,)),
                                  box_lo=(-1.0,), box_hi=(6.0,)),
        init=InitConfig(mode="explicit",
                        values=((40.0,), (0.0,), (0.0,), (0.0,))),
    )
    cfgp = write_cfg(tmp_path, cfg)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    # a graph or weights file that does not parse is a config error, not a traceback
    broken = {
        ("--graph-file", "[graph] file"): ["2\n"],
        ("--weights-file", "[weights] file"): [
            "1 0\n0.5\n", "1 abc\n0 1\n", "nan 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
        ],
    }
    cfgp = write_cfg(tmp_path, base_config(sweep=SweepConfig(horizons=(40, 80, 150))))
    for (flag, section), texts in broken.items():
        for text in texts:
            f = tmp_path / "broken.txt"
            f.write_text(text)
            for cmd in ("simulate", "verify", "sweep"):
                argv = [cmd, "--config", cfgp, "--out", str(tmp_path / "o"), flag, str(f)]
                capsys.readouterr()
                assert main(argv) == 2, (cmd, text)
                assert capsys.readouterr().err.startswith(f"config error: {section} {f}: "), (cmd, text)
    with pytest.raises(SystemExit):
        main(["simulate"])  # --config is required
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", cfgp])


def test_cli_unreadable_inputs_and_outputs_exit_2(tmp_path, capsys, monkeypatch):
    # a directory, a non-UTF-8 file or an existing regular file where the
    # CLI reads or writes: one stderr line and exit 2, never a traceback;
    # a regular file as the --out of simulate, sweep or verify, or as an
    # ancestor of it, is found before any run starts
    cfgp = write_cfg(tmp_path, base_config(sweep=SweepConfig(horizons=(40, 80, 150))))
    latin = tmp_path / "latin1.ini"
    latin.write_bytes(Path(cfgp).read_bytes() + "# caf\xe9\n".encode("latin-1"))
    a_dir, a_file = tmp_path / "a_dir", tmp_path / "a_file"
    a_dir.mkdir()
    a_file.write_text("not a directory\n")
    out = ["--out", str(tmp_path / "o")]
    below = a_file / "sub" / "dir"
    cases = [
        ["simulate", "--config", str(a_dir)] + out,
        ["simulate", "--config", str(latin)] + out,
        ["verify", "--config", str(latin)],
        ["simulate", "--config", cfgp, "--graph-file", str(a_dir)] + out,
        ["simulate", "--config", cfgp, "--weights-file", str(a_dir)] + out,
        ["sweep", "--config", cfgp, "--weights-file", str(a_dir)] + out,
        ["simulate", "--config", cfgp, "--out", str(a_file)],
        ["verify", "--config", cfgp, "--out", str(a_file)],
        ["sweep", "--config", cfgp, "--out", str(a_file)],
        ["report", "--config", cfgp, "--out", str(a_file)],
        ["simulate", "--config", cfgp, "--out", str(below)],
        ["verify", "--config", cfgp, "--out", str(below)],
        ["sweep", "--config", cfgp, "--out", str(below)],
    ]

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    early_errors = {
        str(a_file): f"file error: [Errno 17] File exists: '{a_file}'\n",
        str(below): f"file error: [Errno 20] Not a directory: '{below}'\n",
    }
    out_exists = early_errors[str(a_file)]
    for argv in cases:
        capsys.readouterr()
        early = argv[-1] in early_errors and argv[0] != "report"
        with monkeypatch.context() as m:
            if early:
                for name in ("run_experiment", "sweep_experiment", "verify_experiment"):
                    m.setattr(pushsim.cli, name, no_run)
            assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, (argv, err)
        assert not early or err == early_errors[argv[-1]], (argv, err)
    # a run that would fail mid-way does not start: the --out is found first
    failing = base_config(objective=ObjectiveConfig(kind="l1", d=1, g_bound=0.5,
                                                    targets=((0.0,), (1.0,), (2.0,), (5.0,))))
    assert main(["simulate", "--config", write_cfg(tmp_path, failing), "--out", str(a_file)]) == 2
    assert capsys.readouterr().err == out_exists
    assert a_file.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir", "a_file", "latin1.ini", "run.ini"]


def test_cli_report_on_a_broken_artifact_exits_2(tmp_path, capsys):
    # one stderr line naming the file, exit 2, never a traceback
    cfgp = write_cfg(tmp_path, base_config())
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
    trace, report = (out / "trace.csv").read_text(), (out / "report.json").read_text()
    lines = trace.splitlines(keepends=True)
    stored = json.loads(report)

    def without(key):
        return json.dumps({k: v for k, v in stored.items() if k != key})

    cases = [
        ("trace.csv", "T" + trace[1:], "unexpected trace header"),
        # no agent column, and one whose agent index is not a number
        ("trace.csv", lines[0].replace("z", "w") + "".join(lines[1:]), "unexpected trace header"),
        ("trace.csv", lines[0].replace("z1_1,", "z1x_1,") + "".join(lines[1:]),
         "unexpected trace header"),
        ("trace.csv", lines[0] + "x" + lines[1][lines[1].index(","):] + "".join(lines[2:]),
         "could not convert string 'x' to float64"),
        ("trace.csv", lines[0], "no data rows"),
        ("report.json", report[: len(report) // 2], "Unterminated string"),
        ("report.json", without("final_gap"), "no 'final_gap' entry"),
        ("report.json", without("final_consensus"), "no 'final_consensus' entry"),
        ("report.json", json.dumps({**stored, "final_consensus": "0.5"}),
         "final_consensus is not a number: '0.5'"),
        # a worst-case column that holds numbers, but no worst-case margin
        ("report.json", json.dumps({**stored, "bound_margins": {
            k: m for k, m in stored["bound_margins"].items() if k != "gap-decaying-network-worst-case"
        }}), "bound_margins does not match the certificate columns of trace.csv"),
        ("report.json", json.dumps({**stored, "eta_emp": None}), "eta_emp is not a number: None"),
        # recorded constants no certificate can take
        ("report.json", json.dumps({**stored, "mu_emp": 1.5}), "log(mu) must be negative"),
        ("report.json", json.dumps({**stored, "mu_emp": -0.5}), "math domain error"),
        ("report.json", json.dumps({**stored, "eta_emp": -1}), "eta must lie in (0, n]"),
        # the kinds of another run, or none: report echoed them as str() of
        # anything, "" when missing
        ("report.json", json.dumps({**stored, "graph_kind": ["x"]}),
         "graph_kind is ['x'], but the config's is 'random-walkable'"),
        ("report.json", json.dumps({**stored, "graph_kind": "static-cycle"}),
         "graph_kind is 'static-cycle', but the config's is 'random-walkable'"),
        ("report.json", without("graph_kind"), "no 'graph_kind' entry"),
        ("report.json", json.dumps({**stored, "schedule_kind": 1}),
         "schedule_kind is 1, but the config's is 'harmonic'"),
        ("report.json", json.dumps({**stored, "schedule_kind": "fixed"}),
         "schedule_kind is 'fixed', but the config's is 'harmonic'"),
        ("report.json", without("schedule_kind"), "no 'schedule_kind' entry"),
    ]

    def refused(cfgp, name, message):
        capsys.readouterr()
        assert main(["report", "--config", cfgp, "--out", str(out)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {out / name}: ") and message in err, err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    for name, text, message in cases:
        (out / "trace.csv").write_text(trace)
        (out / "report.json").write_text(report)
        (out / name).write_text(text)
        refused(cfgp, name, message)
    (out / "report.json").write_text(report)
    # a trace of another n or d than the config's, which report recomputed
    # against the config's objective as it was
    n5 = base_config(
        graph=GraphConfig(kind="random-walkable", n=5, horizon=150, seed=7),
        objective=ObjectiveConfig(kind="l1", d=1, targets=((0.0,), (1.0,), (2.0,), (5.0,), (3.0,))),
    )
    for other in (n5, base_config(objective=QUAD2D)):
        n, d = other.graph.n, other.objective.d
        message = f"the trace has n=4, d=1, but the config has n={n}, d={d}"
        refused(write_cfg(tmp_path, other), "trace.csv", message)
    # a schedule without the decay conditions has no certificate for a decaying run's columns
    p_half = base_config(schedule=ScheduleConfig(kind="polynomial", p=0.5))
    refused(write_cfg(tmp_path, p_half), "report.json", "needs a stepsize satisfying the decay")
    # a fixed-schedule run's report is read for its margins
    fixed = base_config(schedule=ScheduleConfig(kind="fixed", t_fixed=150))
    cfgp = write_cfg(tmp_path, fixed)
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
    stored = json.loads((out / "report.json").read_text())
    for margins, message in ((None, "no 'bound_margins' entry"), ([1], "not an object: [1]")):
        if margins is None:
            del stored["bound_margins"]
        else:
            stored["bound_margins"] = margins
        (out / "report.json").write_text(json.dumps(stored))
        refused(cfgp, "report.json", message)


def test_cli_report_refuses_a_trace_line_or_cell_it_cannot_read(tmp_path, capsys):
    # np.loadtxt skips a blank line, and float() read the t cell "1_0" as
    # 10: each is a config error naming trace.csv and its line at fault,
    # counted from the header as line 1, as the others are
    cfgp = write_cfg(tmp_path, base_config())
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    header, row = lines[0].split(","), lines[11].split(",")
    assert row[header.index("t")] == "10"

    def cell(value, line=12):
        """The trace with ``value`` as the t cell of ``line``, and its message."""
        cells = lines[line - 1].split(",")
        rows = lines[: line - 1] + [",".join([value, *cells[1:]])] + lines[line:]
        return rows, f"could not convert string {value!r} to float64 on line {line}, column 1."

    width = len(header)
    # (the trace's lines, the message naming the line at fault; the header is line 1)
    cases = {
        "blank line": (lines[:11] + [""] + lines[11:],
                       f"line 12 has 0 cells, but the header has {width}"),
        "ragged row": (lines[:11] + [",".join(row[:-1])] + lines[12:],
                       f"line 12 has {width - 1} cells, but the header has {width}"),
        "ragged first row": (lines[:1] + [lines[1] + ",0"] + lines[2:],
                             f"line 2 has {width + 1} cells, but the header has {width}"),
        "empty cell": cell(""),
        "# cell": cell("#"),
        "1_0 cell": cell("1_0"),
        "x in the first row": cell("x", line=2),
    }
    for case, (rows, message) in cases.items():
        (out / "trace.csv").write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["report", "--config", cfgp, "--out", str(out)]) == 2, case
        err = capsys.readouterr().err
        assert err == f"config error: {out / 'trace.csv'}: {message}\n", (case, err)


FIXED_WORST_CASE = base_config(
    graph=GraphConfig(kind="rotating-arc", n=12, horizon=400),
    objective=ObjectiveConfig(kind="l1", d=1, targets=tuple(
        (float(v),) for v in (1, -2, 3, 0.5, 4, -1, 2, -3, 0, 1.5, -0.5, 2.5)
    )),
    schedule=ScheduleConfig(kind="fixed", t_fixed=400),
)


@pytest.mark.parametrize("cfg", [FIXED_WORST_CASE, base_config()], ids=["fixed-wc", "decaying"])
def test_cli_report_reads_each_stored_number_as_a_json_number(tmp_path, capsys, cfg):
    # float() took the string "0.5" and read True as 1.0; a string, a bool
    # and a null in place of a number report reads are config errors, and
    # the window it echoes must be a JSON integer
    cfgp = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
    stored = json.loads((out / "report.json").read_text())
    assert main(["report", "--config", cfgp, "--out", str(out)]) == 0
    edits = [
        {"eta_emp": "0.5", "mu_emp": str(stored["mu_emp"])},
        {"eta_emp": "0.5"},
        {"final_gap": str(stored["final_gap"])},
        {"mu_emp": str(stored["mu_emp"])},
        {"eta_emp": True},
        {"eta_emp": None},
        {"mu_emp": None},
        {"log_mu_theory": str(stored["log_mu_theory"])},
        {"connectivity_window": "twelve", "beta": "x"},
        {"connectivity_window": str(stored["connectivity_window"])},
        {"connectivity_window": True},
        {"connectivity_window": None},
        {"connectivity_window": float(stored["connectivity_window"])},
        {"beta": str(stored["beta"])},
        {"beta": False},
        {"beta": None},
    ]
    for edit in edits:
        (out / "report.json").write_text(json.dumps({**stored, **edit}))
        capsys.readouterr()
        assert main(["report", "--config", cfgp, "--out", str(out)]) == 2, edit
        err = capsys.readouterr().err
        what = "an integer" if "connectivity_window" in edit else "a number"
        assert err.startswith(f"config error: {out / 'report.json'}: "), (edit, err)
        assert f"is not {what}: " in err and len(err.splitlines()) == 1, (edit, err)


def test_cli_unusable_files_and_horizons_exit_2_with_one_line(tmp_path, capsys, monkeypatch):
    cfgp = write_cfg(tmp_path, base_config(sweep=SweepConfig(horizons=(40, 80, 150))))
    w = tmp_path / "w.txt"
    w.write_text(format_matrix(np.eye(3)))
    # A graph with no cross arcs has no connectivity window: the weights
    # file is read, and refused, before that is certified.
    no_window = graph_file(tmp_path, [digraph(4)] * 150)
    ragged, missing = tmp_path / "r.txt", tmp_path / "none.txt"
    ragged.write_text("1 0\n0.5\n")
    cases = [
        (["--weights-file", str(w)], "config error: weights file is 3x3, but the graph has n=4"),
        (["--graph-file", no_window, "--weights-file", str(ragged)],
         f"config error: [weights] file {ragged}: matrix is not square: 2 rows, row lengths [1, 2]"),
        (["--graph-file", no_window, "--weights-file", str(missing)],
         f"file error: [Errno 2] No such file or directory: '{missing}'"),
    ]
    for text, message in (
        ("four 150\n", "bad header 'four 150'"),
        ("4 1.5\n", "bad header '4 1.5'"),
        ("4 0\n", "header values must be positive"),
        ("-4 1\n0:\n", "header values must be positive"),
        ("4 1\nx: 1>2\n", "bad step label in line 'x: 1>2'"),
        ("4 1\n0: 1>b\n", "bad arc token '1>b' at step 0"),
    ):
        f = tmp_path / f"g{len(cases)}.txt"
        f.write_text(text)
        cases.append((["--graph-file", str(f)], f"config error: [graph] file {f}: {message}"))
    for flags, message in cases:
        for command in ("simulate", "verify", "sweep"):
            capsys.readouterr()
            argv = [command, "--config", cfgp, "--out", str(tmp_path / "o"), *flags]
            assert main(argv) == 2, (argv, message)
            assert capsys.readouterr().err == message + "\n"
    nonpositive = write_cfg(tmp_path, base_config(sweep=SweepConfig(horizons=(0, 40, 80))))
    assert main(["sweep", "--config", nonpositive, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: sweep horizons must be positive\n"
    assert not (tmp_path / "o").exists()
    # Equal horizons leave the log-log fit no slope to find.
    repeated = write_cfg(tmp_path, base_config(sweep=SweepConfig(horizons=(80, 80, 80))))
    assert main(["sweep", "--config", repeated, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: sweep needs at least 2 distinct horizons, got [80, 80, 80]\n"
    assert not (tmp_path / "o").exists()
    # A graph file too short for the longest horizon is found before the
    # shortest horizon runs, here a run that fails at once.
    short = graph_file(tmp_path, generate_sequence("random-walkable", 4, 100, 7).graphs)
    failing = write_cfg(tmp_path, base_config(
        graph=GraphConfig(kind="random-walkable", n=4, horizon=40, seed=7),
        objective=dataclasses.replace(base_config().objective, g_bound=0.5),
        sweep=SweepConfig(horizons=(40, 80, 150)),
    ))
    argv = ["--config", failing, "--out", str(tmp_path / "o"), "--graph-file", short]
    assert main(["simulate", *argv]) == 1
    assert capsys.readouterr().err.startswith("run failed: ")

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(pushsim.harness, "run_push_subgradient", no_run)
    assert main(["sweep", *argv]) == 2
    assert capsys.readouterr().err == (
        "config error: graph file has n=4, horizon=100; config wants n=4, horizon>=150\n"
    )


def test_summary_passes_exactly_when_its_checks_pass(tmp_path):
    header = dict(kind="simulate", n=3, d=1, steps=10, graph_kind="static-cycle",
                  schedule_kind="harmonic")
    ok, failed = CheckResult("a", True), CheckResult("b", False)
    assert SummaryReport(**header, checks=[ok, ok]).passed is True
    assert SummaryReport(**header, checks=[ok, failed]).passed is False
    with pytest.raises(TypeError):
        SummaryReport(**header, checks=[failed], passed=True)
    # every command's report.json, a passing and a failing one of each but
    # report (which writes none: its summary is checked as written)
    p_half = ScheduleConfig(kind="polynomial", p=0.5)
    horizons = SweepConfig(horizons=(40, 80, 150))
    runs = [  # (command, config, --out directory)
        ("simulate", base_config(), "sim"),
        ("verify", base_config(), "ver"),
        ("verify", cycle3_config(tmp_path, corrupt=True), "ver-bad"),
        ("sweep", base_config(sweep=horizons), "swp"),
        ("sweep", base_config(schedule=p_half, sweep=horizons), "swp-bad"),
        ("simulate", base_config(objective=ObjectiveConfig(
            kind="l1", d=1, g_bound=0.5, targets=((0.0,), (1.0,), (2.0,), (5.0,)))), "fail"),
    ]
    payloads = []
    for command, cfg, out in runs:
        code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / out)])
        payloads.append(json.loads((tmp_path / out / "report.json").read_text()))
        assert code == (0 if payloads[-1]["passed"] else 1), out
    payloads.append(report_from_dir(base_config(), tmp_path / "sim").as_dict())
    for payload in payloads:
        assert payload["passed"] == all(c["passed"] for c in payload["checks"]), payload["kind"]
    assert [p["passed"] for p in payloads] == [True, True, False, True, False, False, True]


def test_cli_non_finite_optimum_or_ceiling_is_a_config_error(tmp_path, capsys):
    # f* and the automatic g_bound of the quadratic targets overflow to inf,
    # and so does f* of the l1 ones (whose g_bound is 1); every command
    # refuses the config without a RuntimeWarning (an error here) and
    # creates nothing
    for objective, message in (
        (ObjectiveConfig(kind="quadratic", targets=((1e160,), (0.0,), (-1e160,))), "g_bound is inf"),
        (ObjectiveConfig(kind="l1", targets=((1e308,), (-1e308,), (1e308,))), "optimum f* is inf"),
    ):
        cfg = dataclasses.replace(
            base_config(), graph=GraphConfig(kind="static-cycle", n=3, horizon=50),
            objective=objective, sweep=SweepConfig(horizons=(10, 20, 40)),
        )
        cfgp = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        for command in ("simulate", "verify", "sweep", "report"):
            capsys.readouterr()
            assert main([command, "--config", cfgp, "--out", str(out)]) == 2, command
            err = capsys.readouterr().err
            assert err == f"config error: [objective] {message}: the objective overflows a float\n", err
        assert not out.exists()


def test_cli_sweep(tmp_path):
    cfgp = write_cfg(tmp_path, base_config(sweep=SweepConfig(horizons=(40, 80, 160))))
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", cfgp, "--out", out]) == 0
    assert (Path(out) / "sweep.csv").exists()


def test_cli_weight_mass_drift_is_a_failed_check(tmp_path, capsys):
    # every column sums to 1 + 9e-10, inside the file tolerance, and over
    # 2000 steps the mass drifts by 5.4e-6
    ring = build_weights(digraph(3, RING3)).entries
    wfile = tmp_path / "weights.txt"
    wfile.write_text(format_matrix(np.where(ring > 0, 0.50000000045, 0.0)))
    cfg = base_config(
        graph=GraphConfig(kind="static-cycle", n=3, horizon=2000),
        weights=WeightConfig(rule="file", file=str(wfile)),
        objective=ObjectiveConfig(kind="l1", d=1, targets=((0.0,), (1.0,), (2.0,))),
    )
    out = tmp_path / "o"
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert not checks["weight-mass"]["passed"]
    assert checks["weight-mass"]["value"] == pytest.approx(5.4e-6, rel=1e-3)


def test_weight_mass_keeps_a_nan_in_an_inner_or_the_final_row():
    # A NaN weight makes y NaN from the step after it on: at the last step
    # only y after the run holds it.  Either way the mass residual is NaN
    # and fails, and min_y skips each row holding NaN, as min() over the
    # row minima does.
    ring = build_weights(digraph(3, RING3))
    broken = np.array(ring.entries)
    broken[0, 0] = np.nan
    schedule = StepsizeSchedule.harmonic()
    objective = zero_objective(3, 1)
    x0 = np.array([[1.0], [2.0], [3.0]])
    clean = run_push_subgradient(WeightStack.repeated(ring, 10), x0, objective, schedule)
    final = run_push_subgradient(
        WeightStack.of([ring] * 9 + [WeightMatrix(broken, ring.beta)]), x0, objective, schedule,
    )
    ys = np.array(clean.ys)
    ys[4, 1] = np.nan
    inner = dataclasses.replace(clean, ys=ys)
    assert np.isnan(final.final_state.y[0]) and np.isfinite(final.ys).all()
    assert final.min_y == min(1.0, *final.ys[1:].min(axis=1).tolist(), float(final.final_state.y.min()))
    assert not math.isnan(final.min_y)
    for t in (4, 5, 9):
        assert inner.prefix(t).min_y == min(1.0, *ys[1 : t + 1].min(axis=1).tolist())
    assert dataclasses.replace(clean, ys=np.full_like(ys, np.nan)).prefix(9).min_y == 1.0
    for trace in (inner, final):
        checks = pushsim.harness._invariant_checks(
            trace, theory_constants(3, 1), objective, validate_schedule(schedule),
        )
        mass = next(c for c in checks if c.name == "weight-mass")
        assert math.isnan(mass.value) and not mass.passed


UNDERFLOW_WEIGHTS = [[1.1e-30, 5e-324, 0.0], [0.0, 1.1e-30, 5e-324], [1.0, 1.0, 1.0]]
ARTIFACTS = sorted(["trace.csv", "report.json", "report.txt", "gap.svg", "consensus.svg", "bounds.svg"])


def collapsing_weights_config(tmp_path):
    """A valid file-weights config (arcs 1>3 2>1 2>3 3>2 at every step)
    whose weight matrix passes validation, yet lets y_1 and y_2 fall
    geometrically: every y is above the floor at t=10, and W(10) y(10) has
    y_1(11) = 0 exactly."""
    gfile, wfile = tmp_path / "collapse.graph", tmp_path / "collapse.weights"
    gfile.write_text("3 20\n" + "".join(f"{t}: 1>3 2>1 2>3 3>2\n" for t in range(20)))
    wfile.write_text("".join(" ".join(repr(v) for v in row) + "\n" for row in UNDERFLOW_WEIGHTS))
    return base_config(
        graph=GraphConfig(kind="file", n=3, horizon=20, file=str(gfile)),
        weights=WeightConfig(rule="file", file=str(wfile)),
        objective=ObjectiveConfig(kind="zero", d=1),
        sweep=SweepConfig(horizons=(5, 10, 20)),
    )


@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
def test_cli_collapsed_weight_fails_every_command_the_same_way(tmp_path, capsys, command):
    # A nonpositive W(t) y(t) is the weight floor's failure, whether or not
    # the command makes a companion pass afterwards.
    y = np.ones(3)
    for _ in range(10):
        y = np.array(UNDERFLOW_WEIGHTS) @ y
    assert y.min() > 1e-300 and (np.array(UNDERFLOW_WEIGHTS) @ y)[0] == 0.0
    out = tmp_path / "out"
    cfgp = write_cfg(tmp_path, collapsing_weights_config(tmp_path))
    assert main([command, "--config", cfgp, "--out", str(out)]) == 1
    horizon = "T=20:" if command == "sweep" else ""
    assert capsys.readouterr().err == (
        f"run failed: {horizon + ' ' if horizon else ''}push-sum weight underflow at t=11 "
        "for agents [1, 2]: min y = 0.000e+00\n"
    )
    report = json.loads((out / "report.json").read_text())
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [(horizon + "weight-underflow", False)]
    assert report["checks"][0]["note"].startswith("agent 1, t=11: ")


def test_cli_worst_case_constants_whose_log_mu_rounds_to_zero_are_not_evaluated(tmp_path, capsys):
    # eta = 2^-2140 is positive, but log1p(-eta) / 535 rounds to -0.0, a
    # rate no certificate takes: the run evaluates its empirical
    # certificates alone, and fails on its own envelopes.
    tc = theory_constants(2, 535)
    assert tc.eta > 0.0 and tc.log_mu == 0.0
    cfg = base_config(
        graph=GraphConfig(kind="random-walkable", n=2, horizon=1070, arc_prob=0.0, inject_every=535),
        objective=ObjectiveConfig(kind="l1", d=1, targets=((-1.0,), (2.0,))),
        init=InitConfig(),
    )
    cfgp, out = write_cfg(tmp_path, cfg), tmp_path / "out"
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ARTIFACTS
    report = json.loads((out / "report.json").read_text())
    assert report["connectivity_window"] == 535 and report["log_mu_theory"] == 0.0
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "bound:envelope-geometric-empirical", "bound:envelope-refined-empirical",
    ]
    assert not [c for c in report["checks"] if c["name"].endswith("-worst-case")]
    assert main(["report", "--config", cfgp, "--out", str(out)]) == 0


def test_cli_refuses_a_random_init_range_wider_than_a_float(tmp_path, capsys):
    cfg = base_config(init=InitConfig(mode="random", lo=-1e308, hi=1e308))
    cfgp = write_cfg(tmp_path, cfg)
    for command in ("simulate", "verify"):
        assert main([command, "--config", cfgp, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: [init] needs lo < hi and a finite hi - lo, got -1e+308, 1e+308\n"
        )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("init_seed, flags, section, seed", [
    (3, ["--seed", "-1"], "graph", -1),  # --seed replaces the graph's seed first
    (-3, [], "init", -3),
], ids=["flag", "init"])
def test_cli_refuses_a_negative_seed(tmp_path, capsys, init_seed, flags, section, seed):
    # numpy's generators take nonnegative seeds only
    cfgp = write_cfg(tmp_path, base_config(init=InitConfig(mode="random", seed=init_seed)))
    for command in ("simulate", "verify", "sweep"):
        assert main([command, "--config", cfgp, "--out", str(tmp_path / "out")] + flags) == 2
        assert capsys.readouterr().err == (
            f"config error: [{section}] seed must be a nonnegative integer, got {seed}\n"
        )
    assert not (tmp_path / "out").exists()


def test_cli_run_whose_consensus_overflows_writes_every_artifact(tmp_path, capsys):
    # Ratios of +-1e308 overflow the consensus error and the one-step
    # deviation to inf, so no point of the consensus chart can be drawn:
    # it holds the frame and the legend, and the run fails its Lyapunov check.
    cfg = base_config(
        graph=GraphConfig(kind="static-cycle", n=3, horizon=20),
        objective=ObjectiveConfig(kind="zero", d=1),
        init=InitConfig(mode="explicit", values=((1e308,), (-1e308,), (1e308,))),
    )
    out = tmp_path / "out"
    cfgp = write_cfg(tmp_path, cfg)
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == ARTIFACTS
    report = json.loads((out / "report.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["lyapunov-recursion"]
    assert report["final_consensus"] == math.inf
    chart = (out / "consensus.svg").read_text()
    ET.fromstring(chart)
    assert "<polyline" not in chart and ">consensus error</text>" in chart
    # The stored inf consensus errors are recomputed exactly.
    assert main(["report", "--config", cfgp, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_overflowing_polynomial_exponent_fails_the_decay_check(tmp_path, capsys):
    # (t+1)^80 leaves the float range within validate_schedule's spot
    # check; alpha(t) then underflows to 0 instead of raising
    cfg = base_config(
        graph=GraphConfig(kind="static-cycle", n=3, horizon=50),
        objective=ObjectiveConfig(kind="l1", d=1, targets=((0.0,), (1.0,), (2.0,))),
        schedule=ScheduleConfig(kind="polynomial", p=80.0),
    )
    out = tmp_path / "o"
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert not checks["stepsize-decay"]["passed"]
    assert [name for name, c in checks.items() if not c["passed"]] == ["stepsize-decay"]


@pytest.mark.parametrize("evaluate", [True, False])
def test_cli_decay_violation_fails_simulate_and_every_sweep_horizon(tmp_path, evaluate):
    # 1/t^2 is summable, so the decay conditions (1/2 < p <= 1) fail
    # whether or not the bounds are evaluated
    cfg = base_config(
        graph=GraphConfig(kind="static-cycle", n=3, horizon=20),
        objective=ObjectiveConfig(kind="l1", d=1, targets=((0.0,), (1.0,), (2.0,))),
        schedule=ScheduleConfig(kind="polynomial", p=2.0),
        bounds=BoundsConfig(evaluate=evaluate),
        sweep=SweepConfig(horizons=(20, 30, 50)),
    )
    cfgp = write_cfg(tmp_path, cfg)
    for command, failed in (
        ("simulate", ["stepsize-decay"]),
        ("sweep", ["T=20:stepsize-decay", "T=30:stepsize-decay", "T=50:stepsize-decay"]),
    ):
        out = tmp_path / command
        assert main([command, "--config", cfgp, "--out", str(out)]) == 1
        checks = json.loads((out / "report.json").read_text())["checks"]
        assert [c["name"] for c in checks if not c["passed"]] == failed
        assert all("need 1/2 < p <= 1" in c["note"] for c in checks if not c["passed"])


@pytest.mark.parametrize("command,check", [
    ("simulate", "subgradient-ceiling"),
    ("sweep", "T=100:subgradient-ceiling"),
])
def test_cli_run_failure_exits_1_with_a_report(tmp_path, capsys, command, check):
    # the README demo graph with a quadratic objective whose declared
    # ceiling the first subgradients already beat
    cfg = base_config(
        graph=GraphConfig(kind="random-walkable", n=5, horizon=400, seed=7),
        objective=ObjectiveConfig(kind="quadratic", d=1, g_bound=0.5,
                                  targets=((-2.0,), (0.0,), (1.0,), (3.0,), (6.0,))),
        init=InitConfig(mode="random", seed=42, lo=-8.0, hi=8.0),
        sweep=SweepConfig(horizons=(100, 200, 400)),
    )
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: ") and "Traceback" not in err
    assert "agent 5 produced a subgradient of norm 24.9863 above the declared ceiling 0.5 at t=0" in err
    payload = json.loads((out / "report.json").read_text())
    assert payload["passed"] is False and payload["kind"] == command
    [failed] = payload["checks"]
    assert failed["name"] == check and not failed["passed"]
    assert failed["note"].startswith("agent 5, t=0: ")
    assert "FAIL" in (out / "report.txt").read_text()


def test_load_config_reads_files(tmp_path):
    cfgp = write_cfg(tmp_path, base_config())
    assert load_config(cfgp) == base_config()


def test_an_agent_beating_the_optimum_exits_1_with_a_report(tmp_path, monkeypatch, capsys):
    # f* raised by the best gap of the network's running average: the
    # network never beats it, but agent 4's own running average does.
    cfg = base_config(objective=ObjectiveConfig(
        kind="quadratic", d=1, targets=((0.0,), (1.0,), (2.0,), (5.0,)),
    ))
    schedule, objective = pushsim.harness._materialize_spec(cfg)
    trace = run_experiment(cfg).trace
    best = float(running_average_gaps(objective, trace.alphas, trace.zbar).min())
    shifted = dataclasses.replace(objective, f_star=objective.f_star + best)
    monkeypatch.setattr(pushsim.harness, "_materialize_spec", lambda _: (schedule, shifted))
    t = int(np.flatnonzero(running_average_gaps(shifted, trace.alphas, trace.zs[:, 3]) < -1e-12)[0])
    with pytest.raises(RunFailure) as info:
        run_experiment(cfg)
    assert (info.value.check, info.value.agent, info.value.t) == ("certified-optimum", 4, t)
    out = tmp_path / "o"
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("run failed: point beats the declared optimum")
    [failed] = json.loads((out / "report.json").read_text())["checks"]
    assert failed["name"] == "certified-optimum" and failed["note"].startswith(f"agent 4, t={t}: ")


def test_readme_quick_start_output(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    config = re.search(r"```ini\n# demo\.ini\n(.*?)```", readme, re.S).group(1)
    shown = re.search(
        r"```text\n\$ pushsim simulate --config demo\.ini --out out/\n(.*?)```", readme, re.S,
    ).group(1)
    (tmp_path / "demo.ini").write_text(config, encoding="utf-8")
    assert main(["simulate", "--config", str(tmp_path / "demo.ini"), "--out", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out.splitlines()
    expected = [line for line in shown.splitlines() if line != "..."]
    assert len(expected) > 5
    assert [line for line in expected if line not in printed] == []


def test_artifacts_match_the_whole_stack_weights(tmp_path, monkeypatch):
    # Every file of the certified acceptance runs and of a weights-file
    # run, with the per-block weights and then with the one whole stack.
    configs = dict(CERTIFIED, **{"cycle3-weights-file": cycle3_config(tmp_path)})

    def artifacts(tag):
        files = {}
        for name, cfg in configs.items():
            out = tmp_path / tag / name
            run_experiment(cfg, out_dir=out)
            files.update({f"{name}/{f.name}": f.read_bytes() for f in sorted(out.iterdir())})
        return files

    lazy = artifacts("lazy")
    monkeypatch.setattr(
        pushsim.harness, "build_weight_stack", lambda seq: WeightStack.of(reference_weight_stack(seq)),
    )
    whole = artifacts("whole")
    assert len(lazy) > 3 * len(configs)
    assert whole == lazy


def bench_sweep_config(seed):
    """The benchmark's ``sweep`` workload config for one seed."""
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "workloads.py"))
    return parse_config(workloads["WORKLOADS"]["sweep"].config(seed, False))


# Six hinge agents in the plane: the one objective whose subgradient is
# not elementwise.  The CI console smoke runs every command on it.
HINGE_PLANE = """
[graph]
kind = rotating-arc
n = 6
horizon = 300
seed = 3

[objective]
kind = hinge
d = 2
normals = 1 0 ; 0 1 ; 1 1 ; -1 0 ; 0 -1 ; 1 -1
labels = 1 -1 1 -1 1 -1
box_lo = -5 -5
box_hi = 5 5

[sweep]
horizons = 50 100 200
"""


@pytest.mark.parametrize("name,residual", [
    ("hinge-plane", 2.220446049250313e-16),
    ("bench-sweep-seed-1", 1.6653345369377348e-16),
])
def test_sweep_pins_the_lyapunov_recursion_at_every_horizon(name, residual):
    # The check reads the run's stored sum of the subgradients; these are
    # the residuals it gave when the run stored every subgradient row.
    cfg = parse_config(HINGE_PLANE) if name == "hinge-plane" else bench_sweep_config(1)
    summary = sweep_experiment(cfg)
    got = {c.name: (c.value, c.passed) for c in summary.checks if c.name.endswith(":lyapunov-recursion")}
    assert got == {f"T={h}:lyapunov-recursion": (residual, True) for h in cfg.sweep.horizons}


def test_artifacts_match_the_per_step_check_loop(tmp_path, monkeypatch):
    # Every file of the certified acceptance runs, of their sweeps and of
    # the benchmark's seed-1 sweep, with the block-end check pass and then
    # with the loop that checks after every step.
    sweeps = {
        name: dataclasses.replace(cfg, sweep=SweepConfig(horizons=(
            cfg.graph.horizon // 4, cfg.graph.horizon // 2, cfg.graph.horizon)))
        for name, cfg in CERTIFIED.items()
    }
    sweeps["bench-sweep-seed-1"] = bench_sweep_config(1)

    def artifacts(tag):
        files = {}
        for driver, configs in ((run_experiment, CERTIFIED), (sweep_experiment, sweeps)):
            for name, cfg in configs.items():
                out = tmp_path / tag / driver.__name__ / name
                driver(cfg, out_dir=out)
                files.update({
                    f"{driver.__name__}/{name}/{f.name}": f.read_bytes() for f in sorted(out.iterdir())
                })
        return files

    blocks = artifacts("blocks")
    per_step_check_loop(monkeypatch)
    per_step = artifacts("per-step")
    assert len(blocks) > 3 * (len(CERTIFIED) + len(sweeps))
    assert per_step == blocks
