"""Benchmark of the pushsim CLI: time to a certified result, per workload.

Run from the root of a source checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --self-check

Each CLI call runs in its own child process (``python -m pushsim.cli``)
against ``src/`` of the checkout.  With ``--trace 0`` the benchmark repeats
the workload's calls for ``--seconds`` and reports the end-to-end metrics:

- ``wall_s``: spawn-to-exit time summed over the workload's calls (median
  over repeats);
- ``setup_s``: spawn-to-exit time of a fresh interpreter that imports
  ``pushsim.cli`` and loads the workload's config (median over probes);
- ``peak_rss_mb``: the largest ``ru_maxrss`` among the workload's calls,
  read per child with ``os.wait4`` (median over repeats).

With ``--trace 1`` it measures the untraced calls the same way, then runs
the calls once more through ``bench/tracing.py`` and reports the per-layer
metrics, including the tracing overhead.

A call fails on a nonzero exit, a missing ``overall: PASS``, a report.json
that does not say ``passed``, or artifacts that differ from the first
repeat's.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  All outputs
go to a temporary directory under ``.bench_tmp/`` that is removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import PREDICTIONS, WORKLOADS, Workload

ROOT = Path.cwd()
SRC = ROOT / "src"
# Every run must end within this many seconds, children included.
RUN_DEADLINE_S = 170.0
PROBES_PER_REPEAT = 4
PROBE = (
    "import sys, pushsim.cli\n"
    "from pushsim.harness import load_config\n"
    "load_config(sys.argv[1])\n"
    "sys.exit(0 if pushsim.cli.__file__.startswith(sys.argv[2]) else 3)\n"
)


@dataclass
class Call:
    command: str
    seconds: float
    rss_mb: float
    ok: bool
    note: str = ""


@dataclass
class Iteration:
    calls: list[Call] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    artifact_bytes: int = 0
    trace_bytes: int = 0

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.calls)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.calls)


class Runner:
    """Spawns children against the checkout and stops each one it starts."""

    def __init__(self, tmp: Path, deadline: float) -> None:
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.seq = 0

    def spawn(self, argv: list[str]) -> tuple[int, float, float, str]:
        """Run argv to completion; return (exit code, seconds, peak RSS MiB, stdout)."""
        self.seq += 1
        out_path = self.tmp / f"child{self.seq}.out"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=self.tmp,
            )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = out_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        # ru_maxrss is in KiB on Linux.
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0, text

    def probe_setup(self, config: Path) -> float | None:
        rc, seconds, _, text = self.spawn(
            [sys.executable, "-c", PROBE, str(config), str(SRC)]
        )
        if rc != 0:
            print(f"setup probe failed (exit {rc}): {text.strip()[-300:]}")
            return None
        return seconds

    def iterate(self, wl: Workload, config: Path, out: Path, spans: list[Path] | None) -> Iteration:
        """One repeat of the workload's calls into a fresh output directory.

        With ``spans`` given, each call runs through the tracer and leaves
        its span file at the next path of that list.
        """
        shutil.rmtree(out, ignore_errors=True)
        it = Iteration()
        for k, cmd in enumerate(wl.commands):
            args = [a.format(config=config, out=out) for a in cmd]
            if spans is None:
                argv = [sys.executable, "-m", "pushsim.cli", *args]
            else:
                span_file = self.tmp / f"spans{self.seq}_{k}.npz"
                spans.append(span_file)
                argv = [sys.executable, str(ROOT / "bench" / "tracing.py"), str(span_file), *args]
            rc, seconds, rss, text = self.spawn(argv)
            call = Call(command=cmd[0], seconds=seconds, rss_mb=rss, ok=True)
            if rc != 0:
                call.ok, call.note = False, f"exit {rc}: {text.strip()[-300:]}"
            elif "overall: PASS" not in text:
                call.ok, call.note = False, "no 'overall: PASS' in output"
            it.calls.append(call)
            if not call.ok:
                return it
        files = sorted(p for p in out.iterdir() if p.is_file()) if out.is_dir() else []
        for p in files:
            data = p.read_bytes()
            it.hashes[p.name] = hashlib.sha256(data).hexdigest()
            it.artifact_bytes += len(data)
            if p.name == "trace.csv":
                it.trace_bytes = len(data)
        try:
            passed = json.loads((out / "report.json").read_text(encoding="utf-8")).get("passed")
        except (OSError, ValueError):
            passed = None
        if passed is not True:
            it.calls[-1].ok = False
            it.calls[-1].note = "report.json missing, unreadable or not passed"
        return it


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no tail percentile (needs > 10 samples, have {n})"
    k = n - 10
    return f"p{100 * k // n}={sorted(values)[k - 1]:.6g} (n={n})"


def environment() -> str:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    threads = "unknown"
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower()}
        for lib in libs:
            cdll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(cdll, sym):
                    threads = str(getattr(cdll, sym)())
                    break
    except OSError:
        pass
    rev = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = res.stdout.strip() or rev
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return (
        f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={np.__version__} blas={blas} "
        f"blas_threads={threads} OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')} "
        f"git={rev} src_sha256={digest.hexdigest()[:16]}"
    )


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; return the result object the benchmark prints."""
    wl = WORKLOADS[name]
    start = time.monotonic()
    bench_tmp = ROOT / ".bench_tmp"
    bench_tmp.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=bench_tmp))
    try:
        run = Runner(tmp, start + RUN_DEADLINE_S)
        config = tmp / f"{name}.ini"
        # numpy seeds must be nonnegative; folding keeps one seed, one input.
        config.write_text(wl.config(seed % 2**32, tiny), encoding="utf-8")
        out = tmp / "out"
        print(f"workload {name} seed={seed} seconds={seconds:g} trace={int(trace)}"
              + (" (tiny sizes)" if tiny else ""))
        print("why: " + next(w["why"] for w in load_spec()["workloads"] if w["name"] == name))
        print(f"env: {environment()}")

        # The first probe fills the bytecode cache; it is not timed.  The
        # timed probes are spread between the repeats, so that setup_s and
        # wall_s sample the same stretch of machine load.
        setup_ok = run.probe_setup(config) is not None
        setups: list[float] = []
        iters: list[Iteration] = []
        rounds: list[float] = []
        t0 = time.monotonic()
        while True:
            r0 = time.monotonic()
            iters.append(run.iterate(wl, config, out, None))
            for _ in range(0 if trace else PROBES_PER_REPEAT):
                s = run.probe_setup(config)
                setup_ok &= s is not None
                if s is not None:
                    setups.append(s)
            rounds.append(time.monotonic() - r0)
            typical = statistics.median(rounds)
            now = time.monotonic()
            if now - t0 + typical > seconds or now + 2 * typical > run.deadline:
                break
        spans: list[Path] = []
        if trace:
            iters.append(run.iterate(wl, config, out, spans))

        # Artifacts must repeat exactly, traced repeat included.
        ref = next((i.hashes for i in iters if i.hashes), None)
        for k, it in enumerate(iters):
            if it.hashes and it.hashes != ref:
                it.calls[-1].ok = False
                it.calls[-1].note = "artifacts differ from the first repeat"
            label = "traced" if trace and k == len(iters) - 1 else f"repeat {k + 1}"
            parts = ", ".join(f"{c.command} {c.seconds:.3f} s" for c in it.calls)
            bad = "; ".join(c.note for c in it.calls if not c.ok)
            print(f"{label}: wall {it.seconds:.3f} s ({parts}) rss {it.rss_mb:.1f} MiB "
                  + ("ok" if not bad else f"FAILED: {bad}"))
        if ref is not None:
            for fname in wl.hashed:
                print(f"sha256 {name} seed={seed} {fname} {ref.get(fname, 'missing')}")
        calls = [c for it in iters for c in it.calls]
        failed = sum(not c.ok for c in calls)
        print(f"fail_ratio: {failed}/{len(calls)} calls")

        untraced = iters[:-1] if trace else iters
        walls = [i.seconds for i in untraced]
        rss = [i.rss_mb for i in untraced]
        wall_s = statistics.median(walls)
        print(f"wall_s: median {wall_s:.6g} s, {tail(walls)}")
        print(f"peak_rss_mb: median {statistics.median(rss):.6g} MiB, {tail(rss)}")
        if trace:
            metrics = traced_metrics(spans, iters[-1], wall_s)
        else:
            print(f"setup_s: median {statistics.median(setups):.6g} s, {tail(setups)}"
                  if setups else "setup_s: no successful probe")
            metrics = {
                "wall_s": (wall_s, "s"),
                "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
                "peak_rss_mb": (statistics.median(rss), "MiB"),
            }
        return {
            "correct": failed == 0 and setup_ok,
            "attempted": len(calls),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            bench_tmp.rmdir()
        except OSError:
            pass


def traced_metrics(spans: list[Path], it: Iteration, untraced_wall: float) -> dict:
    from tracing import Spans, layer_metrics

    sp = Spans()
    for path in spans:
        if path.is_file():
            sp.add_file(str(path))
    metrics = layer_metrics(sp)
    metrics["harness.trace_bytes"] = (it.trace_bytes, "B")
    metrics["harness.artifact_bytes"] = (it.artifact_bytes, "B")
    metrics["trace.overhead_s"] = (it.seconds - untraced_wall, "s")
    layers = sp.layer_self_seconds()
    traced_total = sum(layers.values())
    print(f"traced wall {it.seconds:.3f} s; self time by layer "
          f"(outside spans: {it.seconds - traced_total:.3f} s):")
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {s:9.3f} s  {100 * s / it.seconds:5.1f}%")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}  [moves {PREDICTIONS[key]}]")
    return metrics


def self_check() -> int:
    """Tiny runs of every workload in both modes: each metric of
    BENCHMARK.json is printed with its unit, and traced counts repeat."""
    spec = load_spec()
    problems: list[str] = []
    for wl in spec["workloads"]:
        name = wl["name"]
        counts = []
        for trace, group in ((False, "end_to_end"), (True, "per_layer"), (True, "per_layer")):
            res = measure(name, seed=1, seconds=1, trace=trace, tiny=True)
            print(json.dumps(res))
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={int(trace)}: not correct")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != {want}")
            if trace:
                counts.append({k: v["value"] for k, v in res["metrics"].items()
                               if not k.endswith("_s")})
        if counts[0] != counts[1]:
            diff = {k for k in counts[0] if counts[0][k] != counts[1].get(k)}
            problems.append(f"{name}: traced counts differ between runs: {sorted(diff)}")
    for p in problems:
        print(f"self-check: {p}")
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload at tiny sizes and check the metric names and units")
    args = ap.parse_args()
    if not (SRC / "pushsim" / "cli.py").is_file():
        print(f"no pushsim sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
