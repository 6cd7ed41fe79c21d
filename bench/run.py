"""Benchmark of clfgsim: one workload, run by one closed-loop client in one process.

    python3 bench/run.py --workload pulse --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each is there):
``pulse``, ``readout``, ``refresh`` and ``sweep``.  The seed picks the
generated input; the program sees only the scenario file.

One iteration is what ``clfgsim run`` does after set-up:
``engine.run_scenario`` and ``engine.export`` into a fresh directory.
Iterations run back to back, each starting when the previous one and
its check have ended, until ``--seconds`` of wall time have passed.
Every iteration's output is checked against ``reference.json`` and
``reference.npz``; one that raises or misses the check counts as failed.
All times are host times; the simulated time of the modelled chip is an
input.

``--trace 0`` prints the end-to-end metrics.  Their times are taken
relative to a fixed reference task timed next to each interval and read
in seconds at a fixed reference host speed (see REFERENCE_LOOP_S); the
raw host-second medians are printed in the report.

- ``setup_s``: median, over fresh interpreters, of the host seconds from
  interpreter start to a validated scenario (``import clfgsim`` with
  numpy and ``scipy.signal``, then ``engine.load_scenario``);
- ``run_s``: median host seconds of one iteration;
- ``sim_events_per_s``, ``samples_per_s``, ``runs_per_s``: the
  workload's closed-form switch events (with DAC moves), trace samples
  and scenario runs per iteration, divided by ``run_s``;
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates plain and traced iterations (spans.py) and
prints the per-layer metrics: calls, span time ``s`` and self time
``self_s`` per traced iteration, in raw host seconds.  The self times of
all spans, the ``harness.self_s`` of the iteration itself included, add
up to ``trace.run_s``; ``trace.overhead_s`` is the traced minus the
plain mean iteration time.  Nothing in the program waits on anything (one thread,
no queues, sweeps run with ``jobs=1``), so there is no wait-time metric.

Besides the report, the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import check
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
REFERENCE_ARRAYS = BENCH / "reference.npz"

# Fresh interpreters per setup_s figure: one takes 1-2 s, and single
# start-ups spread by more than a tenth even after scaling (below), so
# setup_s is the median of this many.
SETUP_SAMPLES = 9
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from clfgsim import engine
engine.load_scenario(sys.argv[2])
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""

# Host speed on a shared machine drifts by up to 2x over minutes, which
# no statistic of a 10 s run averages out.  So each timed interval is
# divided by the host time of a fixed reference task of the same kind,
# measured next to it, and a time metric reads the seconds the interval
# takes at the host speed where that task takes its REFERENCE_*_S (about
# its time on an idle 2-core Xeon virtual machine).  The reference tasks
# belong to the benchmark: no change to the program changes their cost.
# An iteration is paired with `reference_loop` run before and after it.
REFERENCE_LOOP_N = 6000
REFERENCE_LOOP_S = 0.01
# A set-up sample is paired with the mean of two fresh interpreters, started
# just before and just after it, that import a fixed set of standard-library
# modules: start-up, unmarshalling and extension loading, as in set-up, with
# none of the program.
REFERENCE_START_CODE = """\
import time
import asyncio, ctypes, decimal, email.mime.multipart, http.server, json, logging
import sqlite3, unittest, xml.dom.minidom
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""
REFERENCE_START_S = 0.13

CALLS, S, SELF_S = 0, 1, 2
# (metric, span, field): per traced iteration.
LAYER_SPANS = (
    ("fsm.playback.calls", "fsm.playback", CALLS),
    ("fsm.playback.s", "fsm.playback", S),
    ("fsm.step.calls", "fsm.step", CALLS),
    ("fsm.step.s", "fsm.step", S),
    ("analog.settle.calls", "analog.settle", CALLS),
    ("analog.settle.self_s", "analog.settle", SELF_S),
    ("analog.apply_fg.calls", "analog.apply_fg", CALLS),
    ("analog.apply_fg.self_s", "analog.apply_fg", SELF_S),
    ("analog.lock.calls", "analog.lock", CALLS),
    ("analog.unlock.calls", "analog.unlock", CALLS),
    ("analog.set_hold.calls", "analog.set_hold", CALLS),
    ("analog.set_hold.self_s", "analog.set_hold", SELF_S),
    ("analog.output_voltage.calls", "analog.output_voltage", CALLS),
    ("analog.output_voltage.self_s", "analog.output_voltage", SELF_S),
    ("device.conductance.calls", "device.conductance", CALLS),
    ("device.conductance.self_s", "device.conductance", SELF_S),
    ("device.low_pass.s", "device.low_pass", S),
    ("thermal.temperature.calls", "thermal.temperature", CALLS),
    ("thermal.temperature.s", "thermal.temperature", S),
    ("thermal.pulse_power.calls", "thermal.pulse_power", CALLS),
    ("protocol.apply_write.calls", "protocol.apply_write", CALLS),
    ("engine.build_scenario.calls", "engine.build_scenario", CALLS),
    ("engine.build_scenario.s", "engine.build_scenario", S),
    ("engine.set_axis.s", "engine.set_axis", S),
    ("engine.run_generic.self_s", "engine.run_generic", SELF_S),
    ("engine.export.s", "engine.export", S),
    ("figures.fig3g.self_s", "figures.fig3g", SELF_S),
    ("figures.fig3b.self_s", "figures.fig3b", SELF_S),
    ("harness.self_s", "harness", SELF_S),
)


def iteration(engine, scenario, outdir: Path):
    """What ``clfgsim run`` does after set-up; returns the bundle and written files."""
    bundle = engine.run_scenario(scenario)
    return bundle, engine.export(bundle, outdir)


class Runner:
    """Closed loop over one scenario: time, check and count each iteration."""

    def __init__(self, engine, scenario, expected: dict, columns: dict, work: Path) -> None:
        self.engine = engine
        self.scenario = scenario
        self.expected = expected
        self.columns = columns
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.export_rows = 0
        self.export_bytes = 0

    def plain(self, outdir: Path):
        return iteration(self.engine, self.scenario, outdir)

    def once(self, call) -> float | None:
        """Host seconds of one checked iteration of `call`, or None if it failed."""
        outdir = self.work / f"out{self.attempted}"
        self.attempted += 1
        gc.collect()
        try:
            t0 = time.perf_counter()
            bundle, files = call(outdir)
            elapsed = time.perf_counter() - t0
            problems = check.compare(self.expected, self.columns,
                                     check.fingerprint(bundle, files))
            self.export_rows = sum(len(t.rows) for t in bundle.tables.values())
            self.export_bytes = sum(Path(p).stat().st_size for p in files)
        except Exception:  # any failure of the program counts against error_rate
            traceback.print_exc(file=sys.stderr)
            problems = ["iteration raised"]
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"check failed: {problem}", file=sys.stderr)
            return None
        return elapsed


def _until(seconds: float, step) -> None:
    deadline = time.perf_counter() + seconds
    step()
    while time.perf_counter() < deadline:
        step()


@dataclass(frozen=True)
class _Point:
    x: float = 0.0
    y: float = 0.0


def reference_loop() -> float:
    """Host seconds of a fixed pure-Python task shaped like the simulator's hot path:
    frozen-dataclass updates, dict stores and float math."""
    t0 = time.perf_counter()
    point = _Point()
    slots = {}
    for i in range(REFERENCE_LOOP_N):
        point = replace(point, x=point.x + 1.0, y=math.exp(-i * 1e-4))
        slots[i & 127] = (point.x, point.y)
    return time.perf_counter() - t0


def fresh_start(code: str, *args: str) -> float:
    """Host seconds from starting an interpreter on `code` to the clock value it prints."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout) - t0


def scaled(pairs: list[tuple[float, float]], reference_s: float) -> float:
    """Median of interval / reference time, in seconds at the reference speed."""
    return statistics.median(t / ref for t, ref in pairs) * reference_s


def setup_seconds(scenario_path: Path) -> tuple[float, list[float]]:
    """setup_s at the reference speed, and the raw host seconds of each sample."""
    references = [fresh_start(REFERENCE_START_CODE)]
    setups = []
    for _ in range(SETUP_SAMPLES):
        setups.append(fresh_start(SETUP_CODE, str(SRC), str(scenario_path)))
        references.append(fresh_start(REFERENCE_START_CODE))
    pairs = [(t, (references[i] + references[i + 1]) / 2) for i, t in enumerate(setups)]
    return scaled(pairs, REFERENCE_START_S), setups


def end_to_end(runner: Runner, workload, scenario_path: Path, seconds: float) -> dict:
    setup_s, setup_raw = setup_seconds(scenario_path)
    runner.once(runner.plain)  # warm-up: checked, not timed
    pairs: list[tuple[float, float]] = []
    loops = [reference_loop()]

    def step():
        elapsed = runner.once(runner.plain)
        loops.append(reference_loop())
        if elapsed is not None:
            pairs.append((elapsed, (loops[-2] + loops[-1]) / 2))

    _until(seconds, step)
    if not pairs:
        raise SystemExit("run.py: every iteration failed")
    run_s = scaled(pairs, REFERENCE_LOOP_S)
    print(f"host seconds: setup median {statistics.median(setup_raw)!r} of {len(setup_raw)}, "
          f"iteration median {statistics.median(t for t, _ in pairs)!r} of {len(pairs)}, "
          f"reference loop median {statistics.median(loops)!r}")
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "sim_events_per_s": (workload.sim_events / run_s, "1/s"),
        "samples_per_s": (workload.samples / run_s, "1/s"),
        "runs_per_s": (workload.runs / run_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    warm = spans.Tracer()
    runner.once(runner.plain)
    with warm.installed():
        runner.once(warm.span("harness", runner.plain))

    tracer = spans.Tracer()
    harness = tracer.span("harness", runner.plain)
    plain: list[float] = []
    traced: list[float] = []

    def step():
        plain.append(runner.once(runner.plain))
        with tracer.installed():
            traced.append(runner.once(harness))

    _until(seconds, step)
    n = len(traced)
    plain = [t for t in plain if t is not None]
    traced = [t for t in traced if t is not None]
    if not plain or not traced:
        raise SystemExit("run.py: every iteration failed")

    def value(v: float):
        return int(v) if v == int(v) else v

    metrics = {
        "trace.run_s": (tracer.per_iteration("harness", S, n), "s"),
        "trace.overhead_s": (statistics.fmean(traced) - statistics.fmean(plain), "s"),
    }
    for name, span, field in LAYER_SPANS:
        per = tracer.per_iteration(span, field, n)
        metrics[name] = (value(per), "count") if field == CALLS else (per, "s")
    metrics["fsm.playback.events"] = (value(tracer.counts["fsm.playback.events"] / n), "count")
    metrics["protocol.s"] = (tracer.module_total("protocol", S) / n, "s")
    for module in spans.MODULES:
        metrics[f"{module}.self_s"] = (tracer.module_total(module, SELF_S) / n, "s")
    metrics["engine.export.rows"] = (runner.export_rows, "count")
    metrics["engine.export.bytes"] = (runner.export_bytes, "bytes")
    return metrics


def load_reference(workload) -> tuple[dict, dict]:
    """The recorded entry for `workload`'s input and the float columns it names."""
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[workload.name][str(workload.variant)]
    with np.load(REFERENCE_ARRAYS) as npz:
        return reference, check.load_columns(reference["output"], npz)


def check_counts(workload, measured: dict) -> None:
    """The closed-form counts must equal what the reference run counted."""
    closed = {
        "switch_events": workload.switch_events,
        "dac_moves": workload.dac_moves,
        "samples": workload.samples,
    }
    if closed != measured:
        raise SystemExit(f"run.py: closed-form counts {closed} != measured {measured}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clfgsim" / "__init__.py").is_file():
        print(f"run.py: no clfgsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from clfgsim import engine

    workload = workloads.make(args.workload, args.seed)
    reference, columns = load_reference(workload)
    check_counts(workload, reference["measured"])
    print(f"workload {workload.name} (input {workload.variant}, seed {args.seed}): "
          f"{workload.switch_events} switch events + {workload.dac_moves} DAC moves, "
          f"{workload.samples} samples, {workload.runs} runs per iteration")

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        scenario_path = work / "scenario.scn"
        scenario_path.write_text(json.dumps(workload.doc), encoding="utf-8")
        scenario = engine.load_scenario(scenario_path)
        runner = Runner(engine, scenario, reference["output"], columns, work)
        if args.trace:
            metrics = per_layer(runner, args.seconds)
        else:
            metrics = end_to_end(runner, workload, scenario_path, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value!r} {unit}")
    print(f"error_rate {runner.failed / runner.attempted!r} "
          f"({runner.failed} failed of {runner.attempted} attempted)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
