"""Experiment harness: configs, certified runs, reports, artifacts.

A run is described by an INI config (sections [graph], [weights],
[objective], [schedule], [init], [bounds], [sweep]).  The harness
materializes the graph sequence, certifies the standing hypotheses it can
check at finite horizon (a joint-connectivity window, weight support and
column sums, stepsize decay), executes the optimization, measures the
empirical contraction constants, evaluates every applicable finite-time
certificate with both empirical and worst-case constants, and writes a
deterministic set of artifacts: ``trace.csv``, ``report.json``,
``report.txt`` and three SVG charts.  Identical configs produce identical
bytes for one numpy build and one BLAS kernel: no clock, path or unseeded
state enters the outputs, but another BLAS kernel can round the matrix
products differently (ROADMAP item 9).
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from configparser import ConfigParser
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .bounds import (
    BoundInputs,
    BoundReport,
    agent_series,
    bound_fixed,
    contraction_series,
    fit_geometric_rate,
    fit_rate,
    timevarying_series,
)
from .graphs import (
    GraphSequence,
    connectivity_windows,
    generate_sequence,
    parse_graph_sequence,
    row_blocks,
    uniform_connectivity_window,
)
from .pushsum import RunFailure, companion_series, product_identity_residuals, theory_constants
from .subgradient import (
    ObjectiveSpec,
    RunTrace,
    ScheduleReport,
    StepsizeSchedule,
    certified_gaps,
    hinge_objective,
    l1_objective,
    mean_and_consensus,
    quadratic_objective,
    run_push_subgradient,
    running_average_gaps,
    validate_schedule,
    zero_objective,
)
from .svgplot import Series, line_chart
from .weights import (
    WeightMatrix,
    WeightStack,
    build_weight_stack,
    parse_matrix,
    validate_column_stochastic,
)

__all__ = [
    "ConfigError",
    "ValidationFailure",
    "ExperimentConfig",
    "ExperimentResult",
    "SummaryReport",
    "CheckResult",
    "parse_config",
    "load_config",
    "apply_overrides",
    "run_experiment",
    "verify_experiment",
    "sweep_experiment",
    "report_from_dir",
    "failure_summary",
    "export_trace",
    "import_trace",
    "write_report",
]

MU_EMP_CAP = 1.0 - 1e-6
MASS_TOL = 1e-9
LYAPUNOV_TOL = 1e-9
APS_RECURSION_TOL = 1e-10
APS_STOCH_TOL = 1e-12
PRODUCT_IDENTITY_TOL = 1e-9
FILE_WEIGHT_TOL = 1e-9
VERIFY_HORIZON = 64


class ConfigError(ValueError):
    """The config text is malformed or inconsistent."""


class ValidationFailure(RuntimeError):
    """A standing hypothesis failed certification: ``check``, with its note."""

    def __init__(self, check: CheckResult) -> None:
        super().__init__(check.note)
        self.check = check


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphConfig:
    kind: str = "static-cycle"
    n: int = 3
    horizon: int = 100
    seed: int = 0
    arc_prob: float = 0.25
    inject_every: int = 5
    file: str | None = None


@dataclass(frozen=True)
class WeightConfig:
    rule: str = "uniform-out-degree"
    file: str | None = None


@dataclass(frozen=True)
class ObjectiveConfig:
    kind: str = "quadratic"
    d: int = 1
    targets: tuple[tuple[float, ...], ...] | None = None
    normals: tuple[tuple[float, ...], ...] | None = None
    labels: tuple[float, ...] | None = None
    g_bound: float | None = None
    box_lo: tuple[float, ...] | None = None
    box_hi: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ScheduleConfig:
    kind: str = "harmonic"
    a: float = 1.0
    p: float = 1.0
    t_fixed: int | None = None


@dataclass(frozen=True)
class InitConfig:
    mode: str = "random"
    seed: int = 1
    lo: float = -5.0
    hi: float = 5.0
    values: tuple[tuple[float, ...], ...] | None = None


@dataclass(frozen=True)
class BoundsConfig:
    evaluate: bool = True
    agents: bool = True
    envelope: bool = True


@dataclass(frozen=True)
class SweepConfig:
    horizons: tuple[int, ...] = ()


@dataclass(frozen=True)
class ExperimentConfig:
    graph: GraphConfig = field(default_factory=GraphConfig)
    weights: WeightConfig = field(default_factory=WeightConfig)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    init: InitConfig = field(default_factory=InitConfig)
    bounds: BoundsConfig = field(default_factory=BoundsConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)


def _number(raw: str) -> float:
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {raw!r}")
    return x


def _numbers(raw: str) -> tuple[float, ...]:
    return tuple(_number(v) for v in raw.split())


def _rows(raw: str) -> tuple[tuple[float, ...], ...]:
    rows = tuple(_numbers(part) for part in raw.split(";"))
    if not all(rows):
        raise ValueError("empty row")
    return rows


def _boolean(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# Config text decoders keyed by the field annotation text (annotations are
# strings under ``from __future__ import annotations``), with any "| None"
# stripped: (what the error message expects, decode).  Every config
# number passes through here, so this is where non-finite values are
# rejected.
_CODECS: dict[str, tuple[str, Callable[[str], object]]] = {
    "str": ("text", str),
    "int": ("integer", int),
    "float": ("finite number", _number),
    "bool": ("boolean", _boolean),
    "tuple[int, ...]": ("integers", lambda raw: tuple(int(v) for v in raw.split())),
    "tuple[float, ...]": ("finite numbers", _numbers),
    "tuple[tuple[float, ...], ...]": ("rows of finite numbers", _rows),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse an INI config; unknown sections or keys are hard errors and
    an empty or missing value means the field's default."""
    cp = ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except Exception as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc
    # section name -> its dataclass, in config order
    sections = {f.name: f.default_factory for f in dataclasses.fields(ExperimentConfig)}
    for sec in cp.sections():
        if sec not in sections:
            raise ConfigError(f"unknown section [{sec}]")
        keys = {f.name for f in dataclasses.fields(sections[sec])}
        for key in cp.options(sec):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
    if cp.defaults():
        raise ConfigError(f"unexpected keys outside any section: {sorted(cp.defaults())}")

    parts = {}
    for sec, cls in sections.items():
        values = {}
        for f in dataclasses.fields(cls):
            raw = cp.get(sec, f.name, fallback="").strip()
            if not raw:
                continue
            what, decode = _CODECS[f.type.removesuffix(" | None")]
            try:
                values[f.name] = decode(raw)
            except ValueError as exc:
                raise ConfigError(f"[{sec}] {f.name}: expected {what}, got {raw!r}") from exc
        parts[sec] = cls(**values)
    cfg = ExperimentConfig(**parts)
    _sanity(cfg)
    return cfg


def _sanity(cfg: ExperimentConfig) -> None:
    g, o, s, init = cfg.graph, cfg.objective, cfg.schedule, cfg.init
    if g.kind not in ("static-cycle", "rotating-arc", "random-walkable", "file"):
        raise ConfigError(f"[graph] kind: unknown value {g.kind!r}")
    if g.kind == "file" and not g.file:
        raise ConfigError("[graph] kind=file needs a file path")
    if g.n < 1 or g.horizon < 1:
        raise ConfigError("[graph] n and horizon must be positive")
    if not 0.0 <= g.arc_prob <= 1.0:
        raise ConfigError(f"[graph] arc_prob must be a number in [0, 1], got {g.arc_prob}")
    if g.inject_every < 1:
        raise ConfigError(f"[graph] inject_every must be at least 1, got {g.inject_every}")
    for section, seed in (("graph", g.seed), ("init", init.seed)):
        if seed < 0:
            raise ConfigError(f"[{section}] seed must be a nonnegative integer, got {seed}")
    if cfg.weights.rule not in ("uniform-out-degree", "file"):
        raise ConfigError(f"[weights] rule: unknown value {cfg.weights.rule!r}")
    if cfg.weights.rule == "file" and not cfg.weights.file:
        raise ConfigError("[weights] rule=file needs a file path")
    if o.kind not in ("quadratic", "l1", "hinge", "zero"):
        raise ConfigError(f"[objective] kind: unknown value {o.kind!r}")
    if o.d < 1:
        raise ConfigError("[objective] d must be positive")
    if o.kind in ("quadratic", "l1"):
        if o.targets is None:
            raise ConfigError(f"[objective] kind={o.kind} needs targets")
        if len(o.targets) != g.n:
            raise ConfigError(
                f"[objective] targets: {len(o.targets)} rows for n={g.n} agents"
            )
        if any(len(r) != o.d for r in o.targets):
            raise ConfigError(f"[objective] targets: every row must have d={o.d} values")
    if o.kind == "hinge":
        if o.normals is None or o.labels is None:
            raise ConfigError("[objective] kind=hinge needs normals and labels")
        if len(o.normals) != g.n or len(o.labels) != g.n:
            raise ConfigError(f"[objective] hinge needs one normal and label per agent (n={g.n})")
        if any(len(r) != o.d for r in o.normals):
            raise ConfigError(f"[objective] normals: every row must have d={o.d} values")
        if o.box_lo is None or o.box_hi is None:
            raise ConfigError("[objective] kind=hinge needs an explicit box_lo/box_hi")
    for name in ("box_lo", "box_hi"):
        v = getattr(o, name)
        if v is not None and len(v) != o.d:
            raise ConfigError(f"[objective] {name} must have d={o.d} values")
    if s.kind not in ("harmonic", "polynomial", "fixed"):
        raise ConfigError(f"[schedule] kind: unknown value {s.kind!r}")
    if s.kind == "fixed":
        if s.t_fixed is None:
            raise ConfigError("[schedule] kind=fixed needs t_fixed")
        if s.t_fixed != g.horizon:
            raise ConfigError(
                f"[schedule] fixed stepsize is defined over its own horizon: "
                f"t_fixed={s.t_fixed} must equal [graph] horizon={g.horizon}"
            )
    if init.mode not in ("random", "explicit"):
        raise ConfigError(f"[init] mode: unknown value {init.mode!r}")
    if init.mode == "explicit":
        if init.values is None:
            raise ConfigError("[init] mode=explicit needs values")
        if len(init.values) != g.n or any(len(r) != o.d for r in init.values):
            raise ConfigError(f"[init] values must be {g.n} rows of {o.d} numbers")
    if init.mode == "random" and not (init.lo < init.hi and math.isfinite(init.hi - init.lo)):
        raise ConfigError(f"[init] needs lo < hi and a finite hi - lo, got {init.lo!r}, {init.hi!r}")


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config(text)


def apply_overrides(
    cfg: ExperimentConfig,
    seed: int | None = None,
    graph_file: str | None = None,
    weights_file: str | None = None,
) -> ExperimentConfig:
    """CLI-level overrides: --seed replaces both graph and init seeds,
    the file flags replace the corresponding sources.  The result passes
    the same checks as a parsed config."""
    g, w, init = cfg.graph, cfg.weights, cfg.init
    if seed is not None:
        g = dataclasses.replace(g, seed=seed)
        init = dataclasses.replace(init, seed=seed)
    if graph_file is not None:
        g = dataclasses.replace(g, kind="file", file=graph_file)
    if weights_file is not None:
        w = dataclasses.replace(w, rule="file", file=weights_file)
    cfg = dataclasses.replace(cfg, graph=g, weights=w, init=init)
    _sanity(cfg)
    return cfg


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float | int | None = None
    threshold: float | None = None
    note: str = ""


def _residual_check(name: str, value: float, tol: float) -> CheckResult:
    """The check that a residual stays within its tolerance."""
    return CheckResult(name, value <= tol, value=value, threshold=tol)


@dataclass
class SummaryReport:
    """Condensed outcome of a run, verification or sweep.

    Every quantity that refers to the trajectory is recomputable from the
    persisted trace (plus the constants recorded here); the report never
    contains information the artifacts cannot back up.  ``passed`` is read
    from the checks: a summary passes exactly when each of its checks does.
    """

    kind: str
    n: int
    d: int
    steps: int
    graph_kind: str
    schedule_kind: str
    connectivity_window: int | None = None
    beta: float | None = None
    schedule_status: str = ""
    eta_emp: float | None = None
    mu_emp: float | None = None
    mu_fit_r2: float | None = None
    eta_theory: float | None = None
    mu_theory: float | None = None
    log_eta_theory: float | None = None
    log_mu_theory: float | None = None
    theory_vacuous: bool = False
    final_gap: float | None = None
    final_consensus: float | None = None
    min_y: float | None = None
    f_star: float | None = None
    optimum_provenance: str = ""
    bound_margins: dict[str, float] = field(default_factory=dict)
    bound_argmin: dict[str, int] = field(default_factory=dict)
    sweep_points: list[tuple[int, float]] = field(default_factory=list)
    sweep_slope: float | None = None
    sweep_r2: float | None = None
    sweep_exact: bool = False
    checks: list[CheckResult] = field(default_factory=list)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        self.passed = all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def format_text(self) -> str:
        lines = [f"{self.kind} summary: n={self.n} d={self.d} steps={self.steps}"]
        lines.append(
            f"graph={self.graph_kind} schedule={self.schedule_kind} "
            f"window={self.connectivity_window} beta={self.beta}"
        )
        if self.eta_emp is not None:
            parts = [f"constants: eta_emp={self.eta_emp:.6g}"]
            if self.mu_emp is not None:
                parts.append(f"mu_emp={self.mu_emp:.6g}")
            if self.eta_theory is not None:
                parts.append(f"eta_wc={self.eta_theory:.6g} mu_wc={self.mu_theory:.6g}")
            if self.theory_vacuous:
                parts.append("(worst-case floats vacuous)")
            lines.append(" ".join(parts))
        if self.final_gap is not None:
            line = f"final gap={self.final_gap:.6g} consensus={self.final_consensus:.6g}"
            if self.min_y is not None:
                line += f" min_y={self.min_y:.6g}"
            lines.append(line)
        for name, margin in self.bound_margins.items():
            t_at = self.bound_argmin.get(name)
            lines.append(f"margin[{name}] = {margin:.6g} (tightest at t={t_at})")
        if self.sweep_points:
            pts = ", ".join(f"T={T}: {g:.3e}" for (T, g) in self.sweep_points)
            lines.append(f"sweep: {pts}")
            if self.sweep_exact:
                lines.append("sweep fit: exact convergence (no positive gaps to fit)")
            else:
                lines.append(
                    f"sweep fit: slope={self.sweep_slope:.4f} r2={self.sweep_r2:.4f}"
                )
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            detail = ""
            if c.value is not None:
                detail = f" value={c.value:.6g}"
                if c.threshold is not None:
                    detail += f" (threshold {c.threshold:.3g})"
            if c.note:
                detail += f" [{c.note}]"
            lines.append(f"check {c.name}: {status}{detail}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _summary(
    cfg: ExperimentConfig, kind: str, checks: list[CheckResult], **fields
) -> SummaryReport:
    """The ``kind`` summary of a run of ``cfg`` with its final ``checks``:
    n, d, the graph and schedule kinds and, unless ``fields`` gives them,
    the steps the command runs (a sweep's longest horizon, verify's prefix)."""
    h = cfg.graph.horizon
    steps = {"sweep": max(cfg.sweep.horizons, default=h), "verify": min(h, VERIFY_HORIZON)}
    return SummaryReport(
        kind=kind, n=cfg.graph.n, d=cfg.objective.d, graph_kind=cfg.graph.kind,
        schedule_kind=cfg.schedule.kind, checks=checks, **{"steps": steps.get(kind, h), **fields},
    )


def failure_summary(
    cfg: ExperimentConfig, kind: str, failure: RunFailure | ValidationFailure
) -> SummaryReport:
    """Summary of a run stopped by a failure: its one failed check, the
    failed certification's, or for a failed in-run check one that names
    the check, the agent and the step."""
    if isinstance(failure, ValidationFailure):
        return _summary(cfg, kind, [failure.check])
    where = f"t={failure.t}" if failure.agent is None else f"agent {failure.agent}, t={failure.t}"
    return _summary(cfg, kind, [CheckResult(failure.check, False, note=f"{where}: {failure}")])


@dataclass
class ExperimentResult:
    """A finished run.  ``gap_reports`` holds the network's gap
    certificates and ``envelope_reports`` the contraction envelopes; each
    agent's certificate shows only in the summary's margins and checks."""

    trace: RunTrace
    summary: SummaryReport
    gap_reports: list[BoundReport] = field(default_factory=list)
    envelope_reports: list[BoundReport] = field(default_factory=list)

    @property
    def reports(self) -> dict[str, BoundReport]:
        """Every bound report the result keeps, by its label."""
        return {r.label: r for r in self.gap_reports + self.envelope_reports}


# --------------------------------------------------------------------------
# materialization helpers
# --------------------------------------------------------------------------

def _materialize_weights(
    seq: GraphSequence, wcfg: WeightConfig
) -> tuple[WeightStack, list[tuple[int, str]]]:
    """Per-step mixing matrices and, for file-supplied weights, the
    validation violations as (step, problem) pairs in step order (each
    distinct step graph is validated once).  A weights file that does not
    parse is a config error."""
    if wcfg.rule == "uniform-out-degree":
        return build_weight_stack(seq), []
    try:
        entries = parse_matrix(Path(wcfg.file).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"[weights] file {wcfg.file}: {exc}") from exc
    if entries.shape != (seq.n, seq.n):
        raise ConfigError(
            f"weights file is {entries.shape[0]}x{entries.shape[1]}, "
            f"but the graph has n={seq.n}"
        )
    violations: list[tuple[int, str]] = []
    reports = {}  # the validation of each distinct step graph, by its packed rows
    for t, rows in enumerate(seq.bits):
        key = rows.tobytes()
        if key not in reports:
            reports[key] = validate_column_stochastic(entries, seq[t], tol=FILE_WEIGHT_TOL)
        rep = reports[key]
        violations.extend((t, v) for v in rep.violations)
        if len(violations) > 20:
            break
    entries.setflags(write=False)  # every step shares the one matrix, and so its beta
    w = WeightMatrix(entries, rep.min_positive)
    return WeightStack.repeated(w, seq.horizon), violations


def _materialize_spec(cfg: ExperimentConfig) -> tuple[StepsizeSchedule, ObjectiveSpec]:
    """The configured stepsize schedule and objective.  Their constructors
    hold the range rules (a > 0, p >= 0, g_bound >= 0, box_lo < box_hi,
    ...); a config that breaks one, or whose objective's optimum value f*
    or ceiling g_bound overflows a float, is a config error."""
    s, o = cfg.schedule, cfg.objective
    box = None
    if o.box_lo is not None and o.box_hi is not None:
        box = (np.array(o.box_lo), np.array(o.box_hi))
    section = "schedule"
    try:
        if s.kind == "harmonic":
            schedule = StepsizeSchedule.harmonic(s.a)
        elif s.kind == "polynomial":
            schedule = StepsizeSchedule.polynomial(s.a, s.p)
        else:
            schedule = StepsizeSchedule.fixed_horizon(s.t_fixed)
        section = "objective"
        with np.errstate(over="ignore", invalid="ignore"):
            if o.kind == "quadratic":
                objective = quadratic_objective(np.array(o.targets), box=box, g_bound=o.g_bound)
            elif o.kind == "l1":
                objective = l1_objective(np.array(o.targets), box=box, g_bound=o.g_bound)
            elif o.kind == "hinge":
                normals = np.array(o.normals)
                objective = hinge_objective(normals, o.labels, box=box, g_bound=o.g_bound)
            else:
                objective = zero_objective(cfg.graph.n, o.d)
        for name, value in (("g_bound", objective.g_bound), ("optimum f*", objective.f_star)):
            if not math.isfinite(value):
                raise ValueError(f"{name} is {value}: the objective overflows a float")
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc
    return schedule, objective


def _inputs(cfg: ExperimentConfig, horizon: int) -> tuple[
    StepsizeSchedule, ObjectiveSpec, GraphSequence, WeightStack, list[tuple[int, str]], np.ndarray
]:
    """The schedule and objective, the first ``horizon`` graphs, the
    weights with their file violations, and x(0) of ``cfg``: every input
    each command reads before it certifies or runs anything.  A graph
    file with another n or fewer than ``horizon`` steps is a config error."""
    schedule, objective = _materialize_spec(cfg)
    g, init = cfg.graph, cfg.init
    if g.kind == "file":
        try:
            seq = parse_graph_sequence(Path(g.file).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"[graph] file {g.file}: {exc}") from exc
        if seq.n != g.n or seq.horizon < horizon:
            raise ConfigError(
                f"graph file has n={seq.n}, horizon={seq.horizon}; "
                f"config wants n={g.n}, horizon>={horizon}"
            )
        seq = seq.prefix(horizon)
    else:
        seq = generate_sequence(
            g.kind, g.n, horizon, g.seed, arc_prob=g.arc_prob, inject_every=g.inject_every,
        )
    ws, violations = _materialize_weights(seq, cfg.weights)
    if init.mode == "explicit":
        x0 = np.array(init.values, dtype=float).reshape(g.n, objective.d)
    else:
        x0 = np.random.default_rng(init.seed).uniform(init.lo, init.hi, size=(g.n, objective.d))
    return schedule, objective, seq, ws, violations, x0


# --------------------------------------------------------------------------
# derived series
# --------------------------------------------------------------------------

def _empirical_mu(product_gap: np.ndarray) -> tuple[float, float]:
    """(mu_emp, fit r2) of a run's companion product gap series."""
    fit = fit_geometric_rate(product_gap)
    if fit.exact:
        return 0.0, 1.0
    return float(min(max(fit.rho, 0.0), MU_EMP_CAP)), fit.r2


# --------------------------------------------------------------------------
# certification
# --------------------------------------------------------------------------

def _window_check(window: int | None, horizon: int) -> CheckResult:
    """The connectivity-window check of a ``horizon``-step sequence whose
    window search gave ``window``."""
    if window is None:
        return CheckResult("connectivity-window", False, note=(
            "no window length certifies joint strong connectivity over "
            f"the {horizon}-step horizon"
        ))
    return CheckResult("connectivity-window", True, value=window)


def _weights_check(
    ws: WeightStack, violations: list[tuple[int, str]], horizon: int
) -> CheckResult:
    """The weight-validation check of the first ``horizon`` steps, given
    the violations ``_materialize_weights`` found; a passing check holds
    the smallest positive weight beta."""
    texts = [f"step {t}: {v}" for t, v in violations if t < horizon]
    if texts:
        return CheckResult("weight-validation", False, note=(
            "weight matrix fails column-stochastic/support validation: "
            + "; ".join(texts[:5])
        ))
    return CheckResult("weight-validation", True, value=float(ws.betas[:horizon].min()))


def _certified(check: CheckResult) -> CheckResult:
    """``check`` if it passed; a failed one raises ValidationFailure."""
    if not check.passed:
        raise ValidationFailure(check)
    return check


def _check_init(objective: ObjectiveSpec, x0: np.ndarray) -> None:
    outside = np.flatnonzero(~objective.in_box(x0))
    if outside.size:
        raise ValidationFailure(CheckResult("init-in-box", False, note=(
            f"initial value of agent {outside[0] + 1} lies outside the objective box"
        )))


# --------------------------------------------------------------------------
# the main drivers
# --------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    """Execute one configured run with certification and bound evaluation.

    Raises ValidationFailure when a standing hypothesis fails outright
    (no connectivity window, broken weight support, initial values
    outside the declared box).  Softer outcomes (a bound margin going
    negative, residuals above tolerance) become failed checks in the
    summary instead.
    """
    schedule, objective, seq, ws, violations, x0 = _inputs(cfg, cfg.graph.horizon)
    hypotheses = [
        _certified(_window_check(uniform_connectivity_window(seq), seq.horizon)),
        _certified(_weights_check(ws, violations, seq.horizon)),
    ]
    window, beta = (c.value for c in hypotheses)
    sched_report = validate_schedule(schedule)
    _check_init(objective, x0)

    trace = run_push_subgradient(ws, x0, objective, schedule)
    companions = companion_series(ws, trace.ys, trace.final_state.y)

    tc = theory_constants(seq.n, window)
    mu_emp, mu_r2 = _empirical_mu(companions[0])
    checks = hypotheses + _invariant_checks(trace, tc, objective, sched_report, companions)
    margins, argmin = {}, {}  # each bound's smallest margin and its step, by label
    gap_reports, envelope_reports = [], []
    if cfg.bounds.evaluate and any(c.name == "stepsize-decay" and c.passed for c in checks):
        constants = {"empirical": (trace.min_y, mu_emp, None)}
        if tc.log_mu < 0.0:  # what BoundInputs needs; eta > 0 can still round log mu to 0
            constants["worst-case"] = (tc.eta, tc.mu, tc.log_mu)
        for rep in _certificates(
            trace, objective, schedule, constants, cfg.bounds.agents, cfg.bounds.envelope,
        ):
            # A per-agent certificate is folded into the summary and dropped.
            if rep.label.startswith("envelope-"):
                envelope_reports.append(rep)
            elif "-network-" in rep.label:
                gap_reports.append(rep)
            margins[rep.label] = rep.min_margin
            argmin[rep.label] = rep.argmin_t
            checks.append(CheckResult(
                f"bound:{rep.label}", rep.ok, value=rep.min_margin, threshold=0.0,
            ))

    summary = _summary(
        cfg, "simulate", checks,
        connectivity_window=window, beta=beta,
        schedule_status=sched_report.assumption,
        eta_emp=trace.min_y, mu_emp=mu_emp, mu_fit_r2=mu_r2,
        eta_theory=tc.eta, mu_theory=tc.mu,
        log_eta_theory=tc.log_eta, log_mu_theory=tc.log_mu,
        theory_vacuous=tc.vacuous,
        final_gap=float(trace.running_gap[-1]),
        final_consensus=float(trace.consensus[-1]),
        min_y=trace.min_y, f_star=objective.f_star,
        optimum_provenance=objective.optimum_provenance,
        bound_margins=margins, bound_argmin=argmin,
    )
    result = ExperimentResult(trace, summary, gap_reports, envelope_reports)
    if out_dir is not None:
        _persist(result, Path(out_dir))
    return result


def _invariant_checks(
    trace: RunTrace, tc, objective: ObjectiveSpec, sched_report: ScheduleReport, companions=None,
) -> list[CheckResult]:
    """The checks of a finished run, before any bound: its residuals (the
    absolute probability ones given its ``companion_series``), its weight
    floor and, when the objective has a subgradient, the stepsize decay
    conditions the rate needs."""
    n = trace.n
    # np.maximum, unlike max(), keeps a NaN from either part.
    mass = np.maximum(np.abs(trace.ys.sum(axis=1) - n).max(), np.abs(trace.final_state.y.sum() - n))
    zl = np.vstack([trace.zlyap, trace.final_zlyap[None, :]])
    predicted = zl[:-1] - (trace.alphas[:, None] / n) * trace.gsum
    checks = [
        _residual_check("weight-mass", float(mass), MASS_TOL),
        CheckResult(
            "weight-floor", bool(trace.min_y >= tc.eta or tc.eta == 0.0),
            value=trace.min_y, threshold=tc.eta,
            note="worst-case floor rounds to 0" if tc.eta == 0.0 else "",
        ),
        _residual_check("lyapunov-recursion", float(np.abs(zl[1:] - predicted).max()), LYAPUNOV_TOL),
    ]
    if companions is not None:
        _, recursion, stochastic = companions
        checks += [
            _residual_check("abs-prob-recursion", float(recursion.max()), APS_RECURSION_TOL),
            _residual_check("abs-prob-stochastic", stochastic, APS_STOCH_TOL),
        ]
    if objective.g_bound > 0:
        violated = sched_report.assumption == "violated"
        checks.append(CheckResult(
            "stepsize-decay", not violated,
            note=sched_report.note if violated else sched_report.assumption,
        ))
    return checks


def _certificates(
    trace: RunTrace | LoadedTrace,
    objective: ObjectiveSpec,
    schedule: StepsizeSchedule,
    constants: dict[str, tuple[float, float, float | None]],
    agents: bool,
    envelope: bool,
) -> Iterator[BoundReport]:
    """Every certificate of a run or of its persisted trace, one at a time
    in report order: for each constant set (label -> eta, mu, log mu; the
    log is None for an empirical mu and taken here), the network's gap
    certificate, then each agent's (with ``agents``), then the contraction
    envelopes (with ``envelope``).  A fixed schedule gets the one-row
    certificate at the horizon, a decaying one the series over every step."""
    # g(0) is the subgradient at the initial ratios zs[0].
    g0 = objective.agent_subgradients(trace.zs[0])
    fixed = schedule.kind == "fixed"
    form, certify = ("fixed", bound_fixed) if fixed else ("decaying", timevarying_series)
    # (who, realized gap series), the agents only with ``agents``; each
    # agent's series is computed once and shared by every constant set
    targets = [("network", trace.running_gap)]
    if agents and constants:
        targets += [
            (f"agent{k + 1}", certified_gaps(objective, trace.alphas, trace.zs[:, k], k + 1))
            for k in range(trace.n)
        ]
    for label, (eta, mu, log_mu) in constants.items():
        if log_mu is None:  # an empirical mu, 0 when the products converged exactly
            log_mu = math.log(mu) if mu != 0 else -math.inf
        inp = BoundInputs(
            G=objective.g_bound, eta=eta, log_mu=log_mu, z0=trace.zs[0],
            z_star=objective.z_star, g0=g0, alphas=trace.alphas, schedule=schedule,
        )
        network = certify(inp)
        for (who, gaps), series in zip(targets, chain([network], agent_series(inp, network))):
            yield BoundReport(
                label=f"gap-{form}-{who}-{label}",
                ts=series.ts, lhs=gaps[-series.ts.size:], rhs=series.total, terms=series.terms,
            )
        if envelope:
            env = contraction_series(inp)
            for kind, rhs in (("geometric", env.geometric), ("refined", env.refined)):
                if rhs is not None:
                    yield BoundReport(
                        label=f"envelope-{kind}-{label}", ts=np.arange(trace.steps, dtype=float),
                        lhs=trace.deviation, rhs=rhs, terms=np.zeros((trace.steps, 4)),
                    )


# --------------------------------------------------------------------------
# verification driver
# --------------------------------------------------------------------------

def verify_experiment(cfg: ExperimentConfig) -> SummaryReport:
    """Run the invariant suite on a short prefix of the configured setup.

    Uses a pure mixing run (zero objective) so every identity can be
    checked in isolation.  If a hypothesis fails, the downstream checks are
    skipped rather than reported against garbage, naming what failed.
    """
    # the configured objective only has to be valid
    schedule, _, seq, ws, violations, x0 = _inputs(cfg, min(cfg.graph.horizon, VERIFY_HORIZON))
    window_check = _window_check(uniform_connectivity_window(seq), seq.horizon)
    weights_check = _weights_check(ws, violations, seq.horizon)
    checks = [window_check, weights_check]
    fields = dict(connectivity_window=window_check.value, beta=weights_check.value)
    failed = [c.name for c in checks if not c.passed]
    if failed:
        checks.append(CheckResult("downstream", True, note=f"skipped: {' and '.join(failed)} failed"))
    else:
        objective = zero_objective(seq.n, cfg.objective.d)
        trace = run_push_subgradient(ws, x0, objective, schedule)
        companions = companion_series(ws, trace.ys, trace.final_state.y)
        tc = theory_constants(seq.n, window_check.value)
        checks += _invariant_checks(trace, tc, objective, validate_schedule(schedule), companions)

        # The exchange identity over every window tau < t <= tau + PRODUCT_SPAN.
        ys = np.vstack([trace.ys, trace.final_state.y[None, :]])
        worst = float(product_identity_residuals(ws, ys).max())
        checks.append(_residual_check("product-identity", worst, PRODUCT_IDENTITY_TOL))
        fields.update(
            eta_emp=trace.min_y, min_y=trace.min_y, final_consensus=float(trace.consensus[-1]),
        )
    return _summary(cfg, "verify", checks, **fields)


# --------------------------------------------------------------------------
# sweep driver
# --------------------------------------------------------------------------

def sweep_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> SummaryReport:
    """Run the config over several horizons and fit the gap decay rate.

    One run at the longest horizon serves every horizon: shorter horizons
    are its prefixes.  The graph sequence and the weights are built once,
    at the longest horizon (generated sequences are prefix-stable and the
    weights are per step), one search finds every horizon's connectivity
    window (``connectivity_windows``), and a decaying stepsize does not
    depend on the horizon, so horizon T's final gap and checks are read
    from the first T steps of that run (``RunTrace.prefix``).  The fixed
    stepsize 1/sqrt(T) does depend on it, so a fixed schedule runs once
    per horizon on the shared inputs.

    Every input is read first, at the longest horizon, so an unusable
    config, graph file or weights file, or a graph file too short for the
    longest horizon, raises before any horizon is certified or run.  Other
    failures are those a run per horizon in ascending order would raise:
    the first failing horizon's, with a run failure at step t raised for
    the smallest horizon past t as ``T=<horizon>:<check>``.  Nonpositive
    final gaps are excluded from the log-log fit; if nothing positive
    remains the report flags exact convergence instead of fitting.
    """
    hs = list(cfg.sweep.horizons)
    if len(hs) < 3:
        raise ConfigError(f"sweep needs at least 3 horizons, got {hs}")
    if any(h < 1 for h in hs):
        raise ConfigError("sweep horizons must be positive")
    if len(set(hs)) < 2:  # equal horizons leave the log-log fit no slope
        raise ConfigError(f"sweep needs at least 2 distinct horizons, got {hs}")
    hs.sort()
    points, all_checks = _sweep_horizons(cfg, hs)
    fit = fit_rate(points)
    summary = _summary(
        cfg, "sweep", all_checks,
        sweep_points=points,
        sweep_slope=None if fit.exact else fit.slope,
        sweep_r2=None if fit.exact else fit.r2,
        sweep_exact=fit.exact,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rows = ["T,gap"]
        rows += [f"{T},{g:.17g}" for (T, g) in points]
        (out / "sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        write_report(summary, out)
        # the positive gaps on a log axis, or else the zero gaps on a linear one
        drawn = [(T, g) for (T, g) in points if g > 0] or points
        line_chart(
            out / "sweep.svg",
            [Series([T for T, _ in drawn], [g for _, g in drawn], "final gap")],
            title="optimality gap vs horizon",
            xlabel="T", ylabel="gap",
        )
    return summary


def _sweep_horizons(
    cfg: ExperimentConfig, hs: list[int]
) -> tuple[list[tuple[int, float]], list[CheckResult]]:
    """The sweep's (T, final gap) points and its checks, named per
    horizon, for the ascending horizons ``hs``.  The graphs, the weights
    and the run are freed on return, before the fit and the artifacts.
    Every input is read before any horizon is certified; only a
    certification failure waits for the horizons before it to run."""
    schedule, objective, seq, ws, violations, x0 = _inputs(cfg, hs[-1])
    sched_report = validate_schedule(schedule)  # a fixed schedule's does not depend on T
    certified: list[tuple[int, list[CheckResult]]] = []  # (T, its hypothesis checks)
    deferred: ValidationFailure | None = None  # the first certification failure
    try:
        for T, window in zip(hs, connectivity_windows(seq, hs)):
            hypotheses = [
                _certified(_window_check(window, T)),
                _certified(_weights_check(ws, violations, T)),
            ]
            _check_init(objective, x0)
            certified.append((T, hypotheses))
    except ValidationFailure as exc:
        # raised once the horizons before this one have run, named for its horizon
        deferred = ValidationFailure(dataclasses.replace(exc.check, name=f"T={T}:{exc.check.name}"))

    points: list[tuple[int, float]] = []
    all_checks: list[CheckResult] = []
    decaying = schedule.kind != "fixed"
    if certified and decaying:
        longest = _sweep_run(ws, x0, objective, schedule, [T for T, _ in certified])
    for T, hypotheses in certified:
        if decaying:
            trace = longest.prefix(T)
        else:
            trace = _sweep_run(ws, x0, objective, dataclasses.replace(schedule, T=T), [T])
        tc = theory_constants(seq.n, hypotheses[0].value)
        checks = hypotheses + _invariant_checks(trace, tc, objective, sched_report)
        points.append((T, float(trace.running_gap[-1])))
        all_checks += [dataclasses.replace(c, name=f"T={T}:{c.name}") for c in checks]
    if deferred is not None:
        raise deferred
    return points, all_checks


def _sweep_run(
    ws: WeightStack,
    x0: np.ndarray,
    objective: ObjectiveSpec,
    schedule: StepsizeSchedule,
    horizons: list[int],
) -> RunTrace:
    """The run over the first ``horizons[-1]`` steps of ``ws``; a run
    failure is renamed for the smallest horizon whose run reaches it."""
    try:
        return run_push_subgradient(ws[: horizons[-1]], x0, objective, schedule)
    except RunFailure as exc:
        # check_weight_floor names the weights at t, found by step t - 1.
        step = exc.t - 1 if exc.check == "weight-underflow" else exc.t
        T = next(T for T in horizons if T > step)
        raise RunFailure(f"T={T}:{exc.check}", exc.agent, exc.t, f"T={T}: {exc}") from exc


# --------------------------------------------------------------------------
# artifacts
# --------------------------------------------------------------------------

def _trace_layout(
    n: int, d: int, with_bounds: bool
) -> list[tuple[str, tuple[int, ...], list[str]]]:
    """The columns of ``trace.csv`` in order, as (``LoadedTrace`` field,
    per-step shape, column names).  The certificate block is present only
    for decaying-stepsize runs."""
    dims = [f"_{c + 1}" for c in range(d)]
    layout = [
        ("ts", (), ["t"]),
        ("alphas", (), ["alpha"]),
        ("zs", (n, d), [f"z{i + 1}{c}" for i in range(n) for c in dims]),
        ("zbar", (d,), ["zbar" + c for c in dims]),
        ("zlyap", (d,), ["zlyap" + c for c in dims]),
        ("consensus", (), ["consensus"]),
        ("running_gap", (), ["gap"]),
    ]
    if with_bounds:
        layout += [
            ("bound_lhs", (), ["bound_lhs"]),
            ("bound_rhs_emp", (), ["bound_rhs_emp"]),
            ("bound_rhs_wc", (), ["bound_rhs_wc"]),
            ("bound_terms", (4,), [f"bound_term{k}" for k in range(1, 5)]),
        ]
    return layout


def export_trace(
    trace: RunTrace,
    path: str | Path,
    bound_emp: BoundReport | None = None,
    bound_wc: BoundReport | None = None,
) -> None:
    """Write the per-step trace as CSV with 17-significant-digit floats.

    When per-step certificate series are supplied (decaying-stepsize runs)
    seven extra columns carry the lhs, both rhs variants, and the four
    empirical-constant summands.  The rows go out in ``row_blocks`` of
    ``BLOCK_BYTES`` (about 64 bytes of Python floats and text a cell).
    """
    steps = trace.steps
    columns = {
        "ts": range(steps), "alphas": trace.alphas, "zs": trace.zs, "zbar": trace.zbar,
        "zlyap": trace.zlyap, "consensus": trace.consensus, "running_gap": trace.running_gap,
    }
    if bound_emp is not None:
        columns.update(
            bound_lhs=bound_emp.lhs, bound_rhs_emp=bound_emp.rhs,
            bound_rhs_wc=np.broadcast_to(np.nan, steps) if bound_wc is None else bound_wc.rhs,
            bound_terms=bound_emp.terms,
        )
    layout = _trace_layout(trace.n, trace.d, bound_emp is not None)
    header = [col for _, _, cols in layout for col in cols]
    # A whole-number float formats under .17g as the integer itself, so t
    # needs no column of its own type.
    row = ",".join(["{:.17g}"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for rows in row_blocks(steps, 64 * len(header)):
            m = rows.stop - rows.start
            data = np.column_stack([np.reshape(columns[name][rows], (m, -1)) for name, _, _ in layout])
            f.write((row * m).format(*data.ravel().tolist()))


@dataclass
class LoadedTrace:
    """Trace columns read back from CSV (shapes mirror RunTrace)."""

    n: int
    d: int
    steps: int
    ts: np.ndarray
    alphas: np.ndarray
    zs: np.ndarray
    zbar: np.ndarray
    zlyap: np.ndarray
    consensus: np.ndarray
    running_gap: np.ndarray
    bound_lhs: np.ndarray | None = None
    bound_rhs_emp: np.ndarray | None = None
    bound_rhs_wc: np.ndarray | None = None
    bound_terms: np.ndarray | None = None


def import_trace(path: str | Path) -> LoadedTrace:
    """Read a trace CSV back into arrays; floats round-trip bitwise."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 2:
        raise ValueError("no data rows")
    header = lines[0].split(",")
    agents = [m for m in map(re.compile(r"z([0-9]+)_([0-9]+)").fullmatch, header) if m]
    n, d = (max((int(m[k]) for m in agents), default=0) for k in (1, 2))
    # the header holds all n d agent columns: a larger index is refused
    # before a layout of its size is built
    fits = 0 < n * d <= len(header)
    layout = _trace_layout(n, d, "bound_lhs" in header) if fits else []
    if not fits or header != [col for _, _, cols in layout for col in cols]:
        raise ValueError("unexpected trace header")
    for i, line in enumerate(lines[1:], 2):  # np.loadtxt would skip a blank line
        cells = line.count(",") + 1 if line else 0
        if cells != len(header):
            raise ValueError(f"line {i} has {cells} cells, but the header has {len(header)}")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:  # numpy counts the rows from 0 below the header
        raise ValueError(re.sub(r"at row (\d+)", lambda m: f"on line {int(m[1]) + 2}", str(exc)))
    steps = data.shape[0]
    blocks = np.split(data, np.cumsum([len(cols) for _, _, cols in layout])[:-1], axis=1)
    fields = {name: b.reshape(steps, *shape) for (name, shape, _), b in zip(layout, blocks)}
    return LoadedTrace(n=n, d=d, steps=steps, **fields)


def write_report(summary: SummaryReport, out_dir: str | Path) -> None:
    """Write ``report.json`` (sorted keys, deterministic bytes) and
    ``report.txt`` for a summary, creating ``out_dir`` if needed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(summary.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out / "report.txt").write_text(summary.format_text(), encoding="utf-8")


def _persist(result: ExperimentResult, out: Path) -> None:
    """Write a finished run's trace, its report and its charts (gap.svg,
    consensus.svg and bounds.svg) to ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    trace, reports = result.trace, result.reports
    emp = reports.get("gap-decaying-network-empirical")
    wc = reports.get("gap-decaying-network-worst-case")
    export_trace(trace, out / "trace.csv", bound_emp=emp, bound_wc=wc)
    write_report(result.summary, out)

    ts = range(trace.steps)
    line_chart(
        out / "gap.svg",
        [Series(ts, trace.running_gap, "running-average gap")],
        title="optimality gap of the weighted running average",
        xlabel="t", ylabel="f - f*",
    )

    cons = [Series(ts, trace.consensus, "consensus error")]
    cons.append(Series(ts, trace.deviation, "one-step deviation"))
    env = reports.get("envelope-refined-empirical", reports.get("envelope-geometric-empirical"))
    if env is not None:
        cons.append(Series(ts, env.rhs, "contraction envelope"))
    line_chart(
        out / "consensus.svg", cons,
        title="agent disagreement", xlabel="t", ylabel="max deviation",
    )

    bnd = [Series(ts, trace.running_gap, "gap (lhs)")]
    if emp is not None:
        bnd.append(Series(ts, emp.rhs, "bound, empirical constants"))
    if wc is not None:
        bnd.append(Series(ts, wc.rhs, "bound, worst-case constants"))
    for rep in result.gap_reports:
        if rep.label.startswith("gap-fixed-network-"):
            bnd.append(Series([trace.steps - 1], [rep.rhs[0]], "bound at horizon"))
    line_chart(
        out / "bounds.svg", bnd,
        title="finite-time certificate vs realized gap",
        xlabel="t", ylabel="value",
    )


# --------------------------------------------------------------------------
# recomputation from artifacts
# --------------------------------------------------------------------------

RECOMPUTE_TOL = 1e-12


def _column_error(recomputed, stored) -> float:
    """Largest deviation of a recomputed column (or number) from the
    stored one over their finite entries; inf unless the non-finite
    entries (an overflowed mean, certificate or consensus error) sit at
    the same steps with the same values."""
    recomputed, stored = np.atleast_1d(recomputed, stored)
    finite = np.isfinite(stored)
    if not (
        np.array_equal(finite, np.isfinite(recomputed))
        and np.array_equal(recomputed[~finite], stored[~finite], equal_nan=True)
    ):
        return math.inf
    return float(np.abs(recomputed[finite] - stored[finite]).max(initial=0.0))


def _stored_number(value: object, name: str) -> float:
    """A JSON int or float of report.json; float() would also take "0.5" or True."""
    if type(value) not in (int, float):
        raise TypeError(f"{name} is not a number: {value!r}")
    return float(value)


def report_from_dir(cfg: ExperimentConfig, out_dir: str | Path) -> SummaryReport:
    """Recompute a run's derived numbers from its persisted trace.

    Loads ``trace.csv`` and ``report.json`` from ``out_dir``, re-derives the
    agent mean, consensus errors and running-average gaps, both finals,
    every network margin ``bound_margins`` records (either schedule kind)
    and a decaying run's certificate columns, and checks each against its
    stored value at 1e-12.  ``eta_emp``, ``mu_emp``, the window, beta and
    the worst-case constants are recorded inputs (they need the raw weight
    history); agent margins, ``bound_argmin`` and the charts are not
    re-derived.  An artifact that does not parse, lacks an
    entry this reads, stores one of its numbers as anything but a JSON
    number, records constants that no certificate of the configured
    schedule can take or network margins its certificate columns do not
    match, or describes a run with another n, d, graph kind or schedule
    kind than the config's, is a ConfigError naming its file.
    """
    schedule, objective = _materialize_spec(cfg)
    out = Path(out_dir)
    path = out / "trace.csv"
    try:
        loaded = import_trace(path)
        if (loaded.n, loaded.d) != (cfg.graph.n, cfg.objective.d):
            raise ValueError(
                f"the trace has n={loaded.n}, d={loaded.d}, but the config has "
                f"n={cfg.graph.n}, d={cfg.objective.d}"
            )
        path = out / "report.json"
        stored = json.loads(path.read_text(encoding="utf-8"))
        final_gap, final_cons = (_stored_number(stored[k], k) for k in ("final_gap", "final_consensus"))
        window, beta, margins = stored["connectivity_window"], stored["beta"], stored["bound_margins"]
        if type(window) is not int:  # echoed in the header as simulate wrote it
            raise TypeError(f"connectivity_window is not an integer: {window!r}")
        _stored_number(beta, "beta")
        if not isinstance(margins, dict):
            raise TypeError(f"bound_margins is not an object: {margins!r}")
        # The network certificate of each constant set whose margin the
        # report recorded (an overflowed, inf, one included) is rebuilt
        # from the trace and the recorded constants.
        form = "fixed" if schedule.kind == "fixed" else "decaying"
        recorded = {
            "empirical": ("eta_emp", "mu_emp", None),
            "worst-case": ("eta_theory", "mu_theory", "log_mu_theory"),
        }
        network = {
            label: _stored_number(margins[key], "a network margin")
            for label in recorded if (key := f"gap-{form}-network-{label}") in margins
        }
        # a decaying run's trace holds the empirical set's columns, and an
        # all-NaN worst-case column unless that set was evaluated too
        columns = loaded.bound_lhs is not None
        wc_column = columns and not np.isnan(loaded.bound_rhs_wc).all()
        if form == "decaying" and (columns, wc_column) != ("empirical" in network, "worst-case" in network):
            raise ValueError("bound_margins does not match the certificate columns of trace.csv")
        constants = {
            label: tuple(None if k is None else _stored_number(stored[k], k) for k in keys)
            for label, keys in recorded.items() if label in network
        }
        # recorded constants the certificates cannot take refuse the report
        certificates = list(_certificates(loaded, objective, schedule, constants, False, False))
        for key, kind in (("graph_kind", cfg.graph.kind), ("schedule_kind", cfg.schedule.kind)):
            if stored[key] != kind:
                raise ValueError(f"{key} is {stored[key]!r}, but the config's is {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"{path}: no {exc} entry") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # an overflowed number is recomputed and compared as any other, without a warning
    with np.errstate(all="ignore"):
        zbar, cons = mean_and_consensus(loaded.zs)
        # Clipped, never raised: a beaten optimum shows as a failed check
        # here, and the report.json of the run stays as it is.
        gaps = np.maximum(running_average_gaps(objective, loaded.alphas, loaded.zbar), 0.0)
        # (check name, recomputed, stored)
        pairs = [
            ("recompute-zbar", zbar, loaded.zbar),
            ("recompute-consensus", cons, loaded.consensus),
            ("recompute-gap", gaps, loaded.running_gap),
            ("recompute-final-gap", loaded.running_gap[-1], final_gap),
            ("recompute-final-consensus", loaded.consensus[-1], final_cons),
        ]
        for rep in certificates:
            label = rep.label.split("-network-")[1]
            wc = "-wc" if label == "worst-case" else ""
            pairs.append((f"recompute-bound-{form}{wc}", rep.min_margin, network[label]))
            if form == "decaying":
                column = loaded.bound_rhs_wc if wc else loaded.bound_rhs_emp
                pairs.append((f"recompute-bound-rhs{wc}", rep.rhs, column))
        if columns:
            pairs.append(("bound-terms-sum", loaded.bound_terms.sum(axis=1), loaded.bound_rhs_emp))
        checks = [_residual_check(name, _column_error(a, b), RECOMPUTE_TOL) for name, a, b in pairs]
    return _summary(
        cfg, "report", checks, steps=loaded.steps, connectivity_window=window, beta=beta,
        final_gap=float(loaded.running_gap[-1]), final_consensus=float(loaded.consensus[-1]),
    )
