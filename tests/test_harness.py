import dataclasses
import hashlib
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import pushsim.harness
from pushsim.bounds import fit_rate
from pushsim.cli import main
from pushsim.graphs import GraphSequence, digraph, format_graph_sequence, generate_sequence
from pushsim.harness import (
    BoundsConfig,
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
    import_trace,
    load_config,
    parse_config,
    render_config,
    report_from_dir,
    run_experiment,
    sweep_experiment,
    verify_experiment,
    write_report,
)
from pushsim.pushsum import RunFailure
from pushsim.subgradient import running_average_gaps
from pushsim.svgplot import Series, line_chart
from pushsim.weights import WeightStack, build_weights
from reference import format_matrix, reference_file_violations, reference_weight_stack
from test_acceptance import CERTIFIED


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
    for logy in (False, True):
        path = tmp_path / f"chart-{logy}.svg"
        line_chart(path, [Series(xs, [1.0, 2.0, inf, 4.0, nan], "a"),
                          Series(xs, [inf] * 5, "b")], logy=logy)
        text = path.read_text()
        ET.fromstring(text)
        assert "inf" not in text and "nan" not in text
        # the gap at x=2 splits "a" into a polyline and a lone point
        assert text.count("<polyline") == 1 and text.count("<circle") == 1
    with pytest.raises(ValueError, match="no drawable points"):
        line_chart(tmp_path / "none.svg", [Series(xs, [nan] * 5, "c")])


def test_trace_round_trip_is_bitwise(finished):
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
def test_export_trace_matches_the_row_writer(tmp_path, objective, bounds):
    result = run_experiment(base_config() if objective is None else base_config(objective=objective))
    trace, reports = result.trace, result.reports
    emp = None if bounds == "none" else reports["gap-decaying-network-empirical"]
    wc = reports["gap-decaying-network-worst-case"] if bounds != "empirical" and emp else None
    if bounds == "infinite-worst-case":
        wc = dataclasses.replace(wc, rhs=np.where(np.arange(trace.steps) % 3 == 1, np.inf, wc.rhs))
    export_trace(trace, tmp_path / "got.csv", emp, wc)
    reference_export_trace(trace, tmp_path / "want.csv", emp, wc)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    loaded = import_trace(tmp_path / "got.csv")
    assert np.array_equal(loaded.zs, trace.zs) and np.array_equal(loaded.zbar, trace.zbar)
    assert np.array_equal(loaded.ts, np.arange(trace.steps))
    if emp is None:
        assert loaded.bound_lhs is None and loaded.bound_terms is None
    else:
        assert np.array_equal(loaded.bound_terms, emp.terms)
        want_wc = np.full(trace.steps, np.nan) if wc is None else wc.rhs
        assert np.array_equal(loaded.bound_rhs_wc, want_wc, equal_nan=True)


def test_import_trace_checks_the_header(tmp_path, finished):
    _, _, out = finished
    rows = (out / "trace.csv").read_text().splitlines()
    rows[0] = rows[0].replace("zlyap_1", "zlyap_x")
    (tmp_path / "trace.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="unexpected trace header"):
        import_trace(tmp_path / "trace.csv")


def test_two_runs_are_byte_identical(tmp_path, finished):
    cfg, _, out = finished
    again = tmp_path / "again"
    run_experiment(cfg, out_dir=again)
    h1 = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
    h2 = hashlib.sha256((again / "trace.csv").read_bytes()).hexdigest()
    assert h1 == h2
    assert (out / "report.json").read_bytes() == (again / "report.json").read_bytes()


def test_report_from_dir_recomputes_and_passes(finished):
    cfg, _, out = finished
    summary = report_from_dir(cfg, out)
    assert summary.kind == "report"
    assert summary.passed
    recompute = {c.name: c for c in summary.checks if c.name.startswith("recompute")}
    # n=4 keeps the worst-case constants above underflow, so that column is checked too
    assert {"recompute-zbar", "recompute-consensus", "recompute-gap",
            "recompute-final-gap", "recompute-bound-rhs",
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
    summary, result = verify_experiment(cycle3_config(tmp_path, corrupt=True))
    assert not summary.passed and result is None
    by_name = {c.name: c for c in summary.checks}
    assert not by_name["weight-validation"].passed
    assert by_name["weight-validation"].note.startswith(
        "weight matrix fails column-stochastic/support validation: step 0: columns [1]"
    )
    assert "skipped" in by_name["downstream"].note
    assert "product-identity" not in by_name


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
    summary, result = verify_experiment(base_config())
    assert summary.passed and result is not None
    by_name = {c.name: c for c in summary.checks}
    assert by_name["product-identity"].passed
    assert by_name["product-identity"].value <= 1e-9
    assert summary.steps <= 64


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
    cfg = base_config(
        objective=ObjectiveConfig(kind="zero", d=1),
        sweep=SweepConfig(horizons=(40, 80, 160)),
    )
    summary = sweep_experiment(cfg, out_dir=tmp_path)
    assert summary.sweep_exact
    assert summary.passed


def test_sweep_needs_three_horizons():
    cfg = base_config(sweep=SweepConfig(horizons=(40, 80)))
    with pytest.raises(ConfigError, match="at least 3"):
        sweep_experiment(cfg)


# --------------------------------------------------------------------------
# the one-run sweep against the per-horizon loop it replaced
# --------------------------------------------------------------------------

def reference_sweep(cfg, out):
    """One full ``run_experiment`` per horizon, in ascending order."""
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
        # the sweep records no companion products, and so has no abs-prob checks
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
        passed=all(c.passed for c in all_checks),
    )
    out.mkdir(parents=True)
    rows = ["T,gap"] + [f"{T},{g:.17g}" for (T, g) in points]
    (out / "sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    write_report(summary, out)


def graph_file(tmp_path, graphs):
    adj = np.stack([g.adjacency() for g in graphs])
    seq = GraphSequence(n=graphs[0].n, horizon=len(graphs), kind="file", seed=0, adj=adj)
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


def test_cli_unreadable_inputs_and_outputs_exit_2(tmp_path, capsys):
    # a directory, a non-UTF-8 file or an existing regular file where the
    # CLI reads or writes: one stderr line and exit 2, never a traceback
    cfgp = write_cfg(tmp_path, base_config(sweep=SweepConfig(horizons=(40, 80, 150))))
    latin = tmp_path / "latin1.ini"
    latin.write_bytes(Path(cfgp).read_bytes() + "# caf\xe9\n".encode("latin-1"))
    a_dir, a_file = tmp_path / "a_dir", tmp_path / "a_file"
    a_dir.mkdir()
    a_file.write_text("not a directory\n")
    out = ["--out", str(tmp_path / "o")]
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
    ]
    for argv in cases:
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, (argv, err)
    # a run that fails mid-way says so, then cannot write its report
    failing = base_config(objective=ObjectiveConfig(kind="l1", d=1, g_bound=0.5,
                                                    targets=((0.0,), (1.0,), (2.0,), (5.0,))))
    assert main(["simulate", "--config", write_cfg(tmp_path, failing), "--out", str(a_file)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["run failed", "file error"]
    assert a_file.read_text() == "not a directory\n"


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
