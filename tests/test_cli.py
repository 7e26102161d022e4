"""Console cases: whole `pushsim` calls on INI configs, run in-process
through ``pushsim.cli.main``.  Each call is checked for its exit code, for
its stderr (empty, or one ``config error:`` or ``certification failed:``
line, so no traceback), for no warning, for the ``passed`` of the
``report.json`` it writes or, for ``report``, for the checks it fails and,
when it stops at a failed certification or run, for leaving that report
alone in ``--out``."""

import json
import math
import re
import warnings

import pytest

from pushsim.cli import main
from pushsim.subgradient import _series_chunks

# The CI smoke config: an l1 objective, so it has certificates and a fit.
SMOKE_CONFIG = (
    "[graph]\nkind = random-walkable\nn = 5\nhorizon = 40\nseed = 7\n\n"
    "[objective]\nkind = l1\ntargets = -2 ; 0 ; 1 ; 3 ; 6\n\n[sweep]\nhorizons = 10 20 40\n"
)
# 40 steps of 5 agents and no arc between them, so no connectivity window.
NO_WINDOW_GRAPH = "5 40\n" + "".join(f"{t}:\n" for t in range(40))
# An l1 objective on 4 agents, whose worst-case constants stay above
# underflow: a decaying run evaluates both constant sets.
N4_CONFIG = (
    "[graph]\nkind = random-walkable\nn = 4\nhorizon = 150\nseed = 7\n\n"
    "[objective]\nkind = l1\ntargets = 0 ; 1 ; 2 ; 5\n\n[init]\nmode = random\nseed = 3\n"
)


def edit_report(change):
    """A step between calls: ``change`` applied to the dict of the
    report.json that simulate wrote, which is written back."""
    def step(tmp_path):
        path = tmp_path / "simulate" / "report.json"
        stored = json.loads(path.read_text())
        change(stored)
        path.write_text(json.dumps(stored))
    return step


# id: (files written next to the config, the config, the calls as
# (command and its flags, exit code, start of the stderr line or None for
# none[, for report, the checks it fails]) and the edits between them, and
# a test of every report.json the calls write)
CASES = {
    # Dense file weights: every entry 1/3 on the complete graph K3, so the
    # exchange-identity check keeps every entry of each step.
    "k3-dense-file-weights": (
        {
            "k3.graph": "3 10\n" + "".join(f"{t}: 1>2 1>3 2>1 2>3 3>1 3>2\n" for t in range(10)),
            "k3.weights": "0.3333333333333333 0.3333333333333333 0.3333333333333333\n" * 3,
        },
        "[graph]\nkind = file\nn = 3\nhorizon = 10\nfile = {dir}/k3.graph\n\n"
        "[weights]\nrule = file\nfile = {dir}/k3.weights\n\n[objective]\nkind = zero\n",
        [("verify", 0, None)],
        lambda r: any(c["name"] == "product-identity" and c["passed"] for c in r["checks"]),
    ),
    # A fixed 1/sqrt(T) schedule builds the network's and every agent's
    # certificate at the horizon; report recomputes them.
    "fixed-schedule-agent-certificates": (
        {},
        "[graph]\nkind = random-walkable\nn = 5\nhorizon = 40\nseed = 7\n\n"
        "[objective]\nkind = l1\ntargets = 1 ; -2 ; 3 ; 0.5 ; 4\n\n"
        "[schedule]\nkind = fixed\nt_fixed = 40\n\n[bounds]\nagents = true\n",
        [("simulate", 0, None), ("report", 0, None)],
        lambda r: "gap-fixed-agent5-empirical" in r["bound_margins"],
    ),
    # The static cycle: every union after the first equals the last one
    # that passed, so the window scan tests one union.
    "static-cycle-window-1": (
        {},
        "[graph]\nkind = static-cycle\nn = 50\nhorizon = 4000\n\n[objective]\nkind = zero\n",
        [("simulate", 0, None)],
        lambda r: r["connectivity_window"] == 1,
    ),
    # A sweep whose longest run (8000 steps of 5 agents in the plane)
    # derives its series in three chunks of rows.
    "sweep-in-three-chunks": (
        {},
        "[graph]\nkind = random-walkable\nn = 5\nhorizon = 2000\nseed = 7\n\n"
        "[objective]\nkind = l1\nd = 2\ntargets = 1 0 ; -2 1 ; 3 -1 ; 0.5 2 ; 4 -3\n\n"
        "[sweep]\nhorizons = 2000 4000 8000\n",
        [("sweep", 0, None)],
        lambda r: r["steps"] == 8000 and len(list(_series_chunks(8000, 5, 2))) == 3,
    ),
    # The rotating arc on 12 agents fails every window length below 12 at
    # its first step, so the window scan takes its failure path at each
    # length before it certifies 12, in simulate and at every sweep horizon.
    "rotating-arc-window-12": (
        {},
        "[graph]\nkind = rotating-arc\nn = 12\nhorizon = 120\n\n[objective]\nkind = zero\n\n"
        "[sweep]\nhorizons = 30 60 120\n",
        [("simulate", 0, None), ("sweep", 0, None)],
        lambda r: {c["value"] for c in r["checks"] if c["name"].endswith("connectivity-window")} == {12},
    ),
    # Every command reads the graph and weights files its config names
    # before it certifies or runs anything: a graph with no cross arcs (so
    # no connectivity window) and a non-square weights file exit 2 alike.
    "files-in-config-no-window-ragged-weights": (
        {"nowindow.graph": "3 20\n" + "".join(f"{t}:\n" for t in range(20)),
         "ragged.weights": "1 0\n0.5\n"},
        "[graph]\nkind = file\nn = 3\nhorizon = 20\nfile = {dir}/nowindow.graph\n\n"
        "[weights]\nrule = file\nfile = {dir}/ragged.weights\n\n[objective]\nkind = zero\n\n"
        "[sweep]\nhorizons = 5 10 20\n",
        [
            (command, 2, "config error: [weights] file {dir}/ragged.weights: matrix is not square")
            for command in ("simulate", "verify", "sweep")
        ],
        None,
    ),
    # An explicit initial value outside the objective box fails
    # certification: simulate and sweep exit 1 and write a report naming
    # the failed check.
    "init-outside-box": (
        {},
        "[graph]\nkind = random-walkable\nn = 3\nhorizon = 20\nseed = 7\n\n"
        "[objective]\nkind = l1\ntargets = 0 ; 1 ; 2\nbox_lo = -1\nbox_hi = 3\n\n"
        "[init]\nmode = explicit\nvalues = 40 ; 0 ; 0\n\n[sweep]\nhorizons = 5 10 20\n",
        [
            (command, 1, "certification failed: initial value of agent 1 lies outside the objective box")
            for command in ("simulate", "sweep")
        ],
        lambda r: [c["name"] for c in r["checks"]] in (["init-in-box"], ["T=5:init-in-box"]),
    ),
    # A failed certification into a directory that holds a passing run
    # leaves its report alone there: the run's trace and charts go.
    "failed-simulate-clears-the-earlier-run": (
        {"nowindow.graph": NO_WINDOW_GRAPH},
        SMOKE_CONFIG,
        [
            ("simulate", 0, None),
            ("simulate --graph-file {dir}/nowindow.graph", 1,
             "certification failed: no window length certifies joint strong connectivity over the 40-step horizon"),
        ],
        lambda r: r["passed"] or [c["name"] for c in r["checks"]] == ["connectivity-window"],
    ),
    # The same for a sweep: its sweep.csv and sweep.svg go.
    "failed-sweep-clears-the-earlier-sweep": (
        {"nowindow.graph": NO_WINDOW_GRAPH},
        SMOKE_CONFIG,
        [
            ("sweep", 0, None),
            ("sweep --graph-file {dir}/nowindow.graph", 1,
             "certification failed: no window length certifies joint strong connectivity over the 10-step horizon"),
        ],
        lambda r: r["passed"] or [c["name"] for c in r["checks"]] == ["T=10:connectivity-window"],
    ),
    # A stopped command's report names the steps the command runs: the
    # sweep's longest horizon, not [graph] horizon, and simulate's horizon.
    "stopped-commands-name-their-steps": (
        {},
        "[graph]\nkind = random-walkable\nn = 5\nhorizon = 150\nseed = 7\n\n"
        "[objective]\nkind = l1\ntargets = -2 ; 0 ; 1 ; 3 ; 6\n\n"
        "[init]\nmode = explicit\nvalues = 100 ; 0 ; 1 ; 3 ; 6\n\n[sweep]\nhorizons = 20 40 80\n",
        [
            (command, 1, "certification failed: initial value of agent 1 lies outside the objective box")
            for command in ("sweep", "simulate")
        ],
        lambda r: r["steps"] == {"sweep": 80, "simulate": 150}[r["kind"]],
    ),
    # Any failed hypothesis skips verify's downstream checks and names
    # itself: here the window of 4 steps of 3 agents and no cross arc.
    "verify-without-a-window-skips-downstream": (
        {"nowindow.graph": "3 4\n" + "".join(f"{t}:\n" for t in range(4))},
        "[graph]\nkind = file\nn = 3\nhorizon = 4\nfile = {dir}/nowindow.graph\n\n"
        "[objective]\nkind = zero\n",
        [("verify", 1, None)],
        lambda r: [(c["name"], c["passed"], c["note"]) for c in r["checks"]][1:] == [
            ("weight-validation", True, ""),
            ("downstream", True, "skipped: connectivity-window failed"),
        ],
    ),
    # Three agents that agree at 1e308: the mean overflows to inf, and
    # report recomputes and compares it as simulate stored it.
    "overflowing-mean": (
        {},
        "[graph]\nkind = static-cycle\nn = 3\nhorizon = 20\n\n[objective]\nkind = zero\n\n"
        "[init]\nmode = explicit\nvalues = 1e308 ; 1e308 ; 1e308\n",
        [("simulate", 0, None), ("report", 0, None)],
        lambda r: r["final_consensus"] == math.inf,
    ),
}

# report re-derives both decaying network margins of the n=4 config and
# its final consensus: each edit fails its own check.  Margins that do not
# match the trace's certificate columns refuse the report.
EDITS = {
    "edited-decaying-network-margin": (
        lambda r: r["bound_margins"].update({"gap-decaying-network-empirical": -123}),
        ("report", 1, None, ["recompute-bound-decaying"]),
    ),
    "edited-decaying-worst-case-network-margin": (
        lambda r: r["bound_margins"].update({"gap-decaying-network-worst-case": -123}),
        ("report", 1, None, ["recompute-bound-decaying-wc"]),
    ),
    "edited-final-consensus": (
        lambda r: r.update(final_consensus=999),
        ("report", 1, None, ["recompute-final-consensus"]),
    ),
    "margins-without-the-decaying-keys": (
        lambda r: r.update(bound_margins={
            k: m for k, m in r["bound_margins"].items() if "-decaying-network-" not in k
        }),
        ("report", 2, "config error: {dir}/simulate/report.json: bound_margins does not match"),
    ),
}
CASES.update({
    case: (
        {}, N4_CONFIG, [("simulate", 0, None), edit_report(change), call],
        lambda r: "gap-decaying-network-worst-case" in r["bound_margins"],
    )
    for case, (change, call) in EDITS.items()
})


@pytest.mark.parametrize("case", list(CASES))
def test_console_case(tmp_path, capsys, case):
    files, config, calls, holds = CASES[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    cfgp = tmp_path / "case.ini"
    cfgp.write_text(config.replace("{dir}", str(tmp_path)))
    for call in calls:
        if callable(call):
            call(tmp_path)
            continue
        call, code, err_start, *fails = call
        command, *flags = call.replace("{dir}", str(tmp_path)).split()
        # report reads what simulate wrote
        out = tmp_path / ("simulate" if command == "report" else command)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(cfgp), "--out", str(out), *flags]) == code, call
        shown = capsys.readouterr()
        assert not caught, [str(w.message) for w in caught]
        if err_start is None:
            assert shown.err == "", shown.err
        else:
            assert len(shown.err.splitlines()) == 1, shown.err
            assert shown.err.startswith(err_start.replace("{dir}", str(tmp_path))), shown.err
        if code == 0:
            assert shown.out.endswith("overall: PASS\n"), shown.out
        if fails:
            assert re.findall(r"^check (\S+): FAIL", shown.out, re.M) == fails[0], shown.out
        if command == "report":  # it writes nothing
            continue
        if code == 2:
            assert not out.exists()
        else:
            report = json.loads((out / "report.json").read_text())
            assert report["passed"] is (code == 0)
            assert holds(report), report
        if code == 1 and err_start is not None:  # a failed certification or run
            assert sorted(p.name for p in out.iterdir()) == ["report.json", "report.txt"]
