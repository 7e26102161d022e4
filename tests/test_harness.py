import dataclasses
import hashlib
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from pushsim.cli import main
from pushsim.graphs import digraph, format_graph_sequence, generate_sequence
from pushsim.harness import (
    BoundsConfig,
    ConfigError,
    ExperimentConfig,
    GraphConfig,
    InitConfig,
    ObjectiveConfig,
    ScheduleConfig,
    SweepConfig,
    ValidationFailure,
    WeightConfig,
    apply_overrides,
    import_trace,
    load_config,
    parse_config,
    render_config,
    report_from_dir,
    run_experiment,
    sweep_experiment,
    verify_experiment,
)
from pushsim.svgplot import Series, line_chart
from pushsim.weights import build_weights, format_matrix


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


def test_graph_without_connectivity_window_fails_loud(tmp_path):
    seq = generate_sequence("static-cycle", 3, 20)
    isolated = dataclasses.replace(
        seq, kind="file", graphs=tuple(digraph(3, []) for _ in range(20))
    )
    gfile = tmp_path / "graphs.txt"
    gfile.write_text(format_graph_sequence(isolated))
    cfg = base_config(graph=GraphConfig(kind="file", n=3, horizon=20,
                                        file=str(gfile)),
                      objective=ObjectiveConfig(kind="l1", d=1,
                                                targets=((0.0,), (1.0,), (2.0,))))
    with pytest.raises(ValidationFailure, match="window"):
        run_experiment(cfg)


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
    assert "skipped" in by_name["downstream"].note
    assert "product-identity" not in by_name


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


def test_cli_infinite_worst_case_bound_still_charts(tmp_path):
    # eta = 12^(-12 L) is tiny but positive, so the worst-case memory
    # terms overflow to inf: a valid, vacuous certificate
    cfg = ExperimentConfig(
        graph=GraphConfig(kind="rotating-arc", n=12, horizon=400),
        objective=ObjectiveConfig(
            kind="l1", d=1, targets=tuple((float(k),) for k in range(12)),
        ),
        schedule=ScheduleConfig(kind="harmonic"),
        init=InitConfig(mode="random", seed=2),
    )
    cfgp = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
    assert main(["report", "--config", cfgp, "--out", str(out)]) == 0
    wc = import_trace(out / "trace.csv").bound_rhs_wc
    assert np.isfinite(wc[0]) and np.isinf(wc[1:]).all()
    ET.parse(out / "bounds.svg")


def test_cli_seed_override_changes_the_run(tmp_path):
    cfgp = write_cfg(tmp_path, base_config())
    a, b, c = (str(tmp_path / k) for k in "abc")
    assert main(["simulate", "--config", cfgp, "--out", a, "--seed", "5"]) == 0
    assert main(["simulate", "--config", cfgp, "--out", b, "--seed", "5"]) == 0
    assert main(["simulate", "--config", cfgp, "--out", c, "--seed", "6"]) == 0
    ta, tb, tc = (Path(p, "trace.csv").read_bytes() for p in (a, b, c))
    assert ta == tb and ta != tc


def test_cli_error_exit_codes(tmp_path):
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
    with pytest.raises(SystemExit):
        main(["simulate"])  # --config is required
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", cfgp])


def test_cli_sweep(tmp_path):
    cfgp = write_cfg(tmp_path, base_config(sweep=SweepConfig(horizons=(40, 80, 160))))
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", cfgp, "--out", out]) == 0
    assert (Path(out) / "sweep.csv").exists()


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
