"""The benchmark's workloads: the configs it writes and the CLI calls it makes.

Every input is a pure function of the workload seed, so one seed always
gives the same configs and (the package being deterministic) the same
artifacts.  ``tiny`` variants keep every code path of a workload but shrink
its sizes so the self-check finishes in seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    # Subcommands in call order; "{config}" and "{out}" are filled in per run.
    commands: tuple[tuple[str, ...], ...]
    # Artifacts whose sha256 is printed as output-identity evidence.
    hashed: tuple[str, ...]
    config: Callable[[int, bool], str]


def _targets(rng: random.Random, n: int) -> str:
    """n distinct targets in [-5, 5), exact in decimal."""
    return " ; ".join(f"{v / 100:g}" for v in rng.sample(range(-500, 500), n))


# The ROADMAP baseline row.  ``report`` alone is too short to time steadily
# (48% spread over 5 runs), so it counts only inside wall_s.
def _certify_config(seed: int, tiny: bool) -> str:
    n, horizon, arc_prob = (6, 60, 0.3) if tiny else (50, 2000, 0.05)
    rng = random.Random(seed)
    return f"""[graph]
kind = random-walkable
n = {n}
horizon = {horizon}
seed = {seed}
arc_prob = {arc_prob}

[objective]
kind = l1
d = 1
targets = {_targets(rng, n)}

[schedule]
kind = harmonic

[init]
mode = random
seed = {seed + 1}
lo = -8
hi = 8
"""


# ``sweep`` forces companion products, bounds and per-step persistence off,
# so a change to those should leave this workload flat.
def _sweep_config(seed: int, tiny: bool) -> str:
    n, arc_prob, horizons = (5, 0.4, "20 40 80") if tiny else (20, 0.1, "400 800 1600 3200 6400")
    rng = random.Random(seed)
    return f"""[graph]
kind = random-walkable
n = {n}
horizon = {horizons.split()[0]}
seed = {seed}
arc_prob = {arc_prob}

[objective]
kind = l1
d = 1
targets = {_targets(rng, n)}

[schedule]
kind = harmonic

[init]
mode = random
seed = {seed + 1}

[sweep]
horizons = {horizons}
"""


# About 90% of the time is in verify_product_identity: 1,975 calls that
# rebuild 75,950 dense 100x100 products (152 GFLOP, computed).  The config's
# objective is ignored: verify always mixes with a zero objective.
def _verify_config(seed: int, tiny: bool) -> str:
    n, horizon, arc_prob = (8, 16, 0.3) if tiny else (100, 64, 0.03)
    return f"""[graph]
kind = random-walkable
n = {n}
horizon = {horizon}
seed = {seed}
arc_prob = {arc_prob}

[objective]
kind = zero
d = 1

[init]
mode = random
seed = {seed + 1}
"""


# There is no hinge workload: its optimum still comes from grid_minimize,
# which is due to be replaced by an exact method.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="certify",
            commands=(
                ("simulate", "--config", "{config}", "--out", "{out}"),
                ("report", "--config", "{config}", "--out", "{out}"),
            ),
            hashed=("trace.csv", "report.json"),
            config=_certify_config,
        ),
        Workload(
            name="sweep",
            commands=(("sweep", "--config", "{config}", "--out", "{out}"),),
            hashed=("sweep.csv", "report.json"),
            config=_sweep_config,
        ),
        Workload(
            name="verify",
            commands=(("verify", "--config", "{config}", "--out", "{out}"),),
            hashed=("report.json",),
            config=_verify_config,
        ),
    )
}

# Which end-to-end metric each per-layer metric should move, on which
# workload.  Recorded before measuring, so a later change can be checked
# against the layer it claims to speed up.
PREDICTIONS: dict[str, str] = {
    "graphs.generate_s": "wall_s on sweep and certify; flat on verify",
    "graphs.window_s": "wall_s on sweep and certify; flat on verify",
    "graphs.scc_checks": "wall_s on sweep and certify; flat on verify",
    "graphs.neighbor_scans": "wall_s on sweep and certify; flat on verify",
    "graphs.arcs": "input size; fixed by the workload",
    "weights.build_s": "wall_s on sweep and certify",
    "weights.build_calls": "wall_s on sweep and certify",
    "subgradient.run_s": "wall_s on sweep most, then certify",
    "subgradient.run_self_s": "wall_s on sweep most, then certify",
    "subgradient.subgrad_s": "wall_s on sweep most, then certify",
    "subgradient.step_s": "wall_s on sweep most, then certify",
    "subgradient.gap_s": "wall_s on sweep most, then certify",
    "subgradient.box_checks": "wall_s on sweep most, then certify",
    "subgradient.steps": "input size; fixed by the workload",
    "subgradient.certify_s": "wall_s on sweep most, then certify",
    "subgradient.trace_mb": "peak_rss_mb on certify",
    "pushsum.companion_s": "wall_s on certify only; sweep records no products",
    "pushsum.companion_calls": "wall_s on certify only; sweep records no products",
    "pushsum.identity_s": "wall_s on verify only",
    "pushsum.identity_calls": "wall_s on verify only",
    "pushsum.product_matmuls": "wall_s on verify only",
    "pushsum.product_gflop": "wall_s on verify only (computed as 2n^3 per product)",
    "bounds.series_s": "wall_s on certify only",
    "bounds.series_calls": "wall_s on certify only",
    "bounds.envelope_s": "wall_s on certify only",
    "bounds.fit_s": "wall_s on certify only",
    "harness.config_s": "setup_s on all workloads",
    "harness.self_s": "wall_s on certify",
    "harness.export_s": "wall_s on certify",
    "harness.import_s": "wall_s on certify",
    "harness.trace_bytes": "wall_s on certify",
    "harness.artifact_bytes": "wall_s on certify",
    "svgplot.chart_s": "wall_s on certify",
    "svgplot.charts": "wall_s on certify",
    "svgplot.points": "wall_s on certify",
    "cli.self_s": "wall_s on all workloads (argument parsing and summary output)",
    "trace.overhead_s": "none; the cost of tracing itself",
}
