"""Smoke test of the benchmark itself (kept out of the tier-1 suite).

    python3 bench/smoke.py

Checks, on the current code:

1. span accounting: a parent's ``s`` equals its ``self_s`` plus its
   children's ``self_s``, and the self times of a real iteration add up
   to the iteration's time;
2. the traced run puts every wrapped function back, also when the traced
   block raises, and a plain iteration after a traced one calls the
   original functions;
3. the closed-form work counts of every workload equal the counts a
   traced run measures (events, samples, DAC moves, lock actions);
4. each workload runs for one second with ``--trace 0`` and ``--trace 1``,
   passes its reference check, and prints exactly the metric names and
   units of ``BENCHMARK.json``, whose per-layer names are the ones
   described in ``layers.json``;
5. the reference check passes a real iteration and catches one row of
   a float column moved by twice its tolerance;
6. without the program's sources the benchmark fails with no result.

Exits non-zero on the first failed check.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import run
import spans
import workloads

BENCHMARK = run.ROOT / "BENCHMARK.json"
LAYERS = run.BENCH / "layers.json"


def expect(ok: bool, what: str, detail: str = "") -> None:
    if not ok:
        raise SystemExit(f"smoke: FAILED: {what}\n{detail}")
    print(f"ok  {what}")


def span_accounting() -> None:
    tracer = spans.Tracer()

    def child():
        return sum(range(20000))

    traced_child = tracer.span("child", child)

    def parent():
        for _ in range(3):
            traced_child()
        return sum(range(20000))

    tracer.span("parent", parent)()
    calls, s, self_s = tracer.stats["parent"]
    expect(calls == 1 and math.isclose(s, self_s + tracer.stats["child"][run.SELF_S],
                                       rel_tol=1e-12),
           "parent s == parent self_s + child self_s")


def restore(engine) -> None:
    import clfgsim.figures as figures

    tracer = spans.Tracer()
    with tracer.installed():
        patched = list(tracer.patches)
    expect(len(patched) >= len(spans.TRACED) + len(figures.DRIVERS),
           f"{len(patched)} function references wrapped")
    expect(all((h[k] if type(h) is dict else getattr(h, k)) is original
               for h, k, original in patched),
           "every wrapped reference restored after the traced block")
    try:
        with tracer.installed():
            raise KeyError("boom")
    except KeyError:
        pass
    expect(all((h[k] if type(h) is dict else getattr(h, k)) is original
               for h, k, original in patched),
           "every wrapped reference restored after a traced block raised")

    workload = workloads.make("readout", 0)
    scenario = engine.build_scenario(workload.doc)
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    harness = tracer.span("harness", lambda out: run.iteration(engine, scenario, out))
    with tracer.installed():
        harness(work / "traced")
    before = json.dumps(tracer.stats, sort_keys=True)
    run.iteration(engine, scenario, work / "plain")
    shutil.rmtree(work)
    expect(json.dumps(tracer.stats, sort_keys=True) == before,
           "a plain iteration after a traced one records no spans")


def counts(engine) -> None:
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    for name in workloads.NAMES:
        workload = workloads.make(name, 5)
        scenario = engine.build_scenario(workload.doc)
        tracer = spans.Tracer()
        harness = tracer.span("harness", lambda out: run.iteration(engine, scenario, out))
        with tracer.installed():
            harness(work / name)

        def calls(span):
            return tracer.stats.get(span, [0])[run.CALLS]

        measured = {
            "switch_events": tracer.counts["engine.run_generic.events"],
            "samples": tracer.counts["engine.run_generic.samples"],
            "set_hold calls": calls("analog.set_hold"),
            "playback events + locks + unlocks": tracer.counts["fsm.playback.events"]
            + calls("analog.lock") + calls("analog.unlock"),
        }
        closed = {
            "switch_events": workload.switch_events,
            "samples": workload.samples,
            "set_hold calls": workload.dac_moves * workloads.N_CELLS,
            "playback events + locks + unlocks": workload.switch_events,
        }
        expect(measured == closed, f"{name}: closed-form counts {closed} measured")
        total = tracer.stats["harness"][run.S]
        attributed = sum(v[run.SELF_S] for v in tracer.stats.values())
        expect(math.isclose(attributed, total, rel_tol=1e-9),
               f"{name}: self times add up to the iteration time ({total:.4f} s)")
    shutil.rmtree(work)


def float_check(engine) -> None:
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    for name, seed, table, column in (("readout", 0, "fig3g", "signal"),
                                      ("refresh", 5, "cells", "v_out_volts")):
        workload = workloads.make(name, seed)
        reference, columns = run.load_reference(workload)
        expected = reference["output"]
        bundle, files = run.iteration(engine, engine.build_scenario(workload.doc), work / name)
        got = check.fingerprint(bundle, files)
        expect(check.compare(expected, columns, got) == [], f"{name}: output matches reference")
        values = got["tables"][table]["floats"][column]
        absolute, relative = check.FLOAT_COLUMNS[column]
        row = len(values) // 3
        values[row] += 2 * (absolute + relative * abs(values[row]))
        problems = check.compare(expected, columns, got)
        expect(len(problems) == 1 and f"{table}.{column}: 1 of" in problems[0],
               f"{name}: one {column} row off by twice its tolerance is caught",
               "\n".join(problems))
    shutil.rmtree(work)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def runs(bench: dict) -> None:
    layers = json.loads(LAYERS.read_text(encoding="utf-8"))
    expect(sorted(layers["metrics"]) == sorted(m["name"] for m in bench["per_layer"]),
           "layers.json describes every per-layer metric of BENCHMARK.json")
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.NAMES),
           "BENCHMARK.json lists the benchmark's workloads")
    for name in workloads.NAMES:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
                 "--seed", "11", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300,
            )
            result = last_json(done.stdout)
            expect(done.returncode == 0 and result is not None,
                   f"{name} --trace {trace} exits 0 with a result", done.stderr[-2000:])
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} --trace {trace}: {result['attempted']} iterations, all correct")
            declared = {m["name"]: m["unit"] for m in bench[kind]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == declared,
                   f"{name} --trace {trace} prints the {kind} metrics of BENCHMARK.json")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result["metrics"].values()),
                   f"{name} --trace {trace}: every value is a finite number")
            if trace == 0:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{name}: every end-to-end metric is above 0")
                expect("error_rate 0.0 " in done.stdout, f"{name}: error_rate 0 printed")


def without_sources(bench: dict) -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    shutil.copy(BENCHMARK, bare / "BENCHMARK.json")
    for path in bench["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(bench["command"] + ["--workload", "pulse", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(done.returncode != 0 and last_json(done.stdout) is None,
           "without the program's sources: non-zero exit and no result")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from clfgsim import engine

    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    run.WORK.mkdir(exist_ok=True)
    try:
        span_accounting()
        restore(engine)
        counts(engine)
        float_check(engine)
        without_sources(bench)
        runs(bench)
    finally:
        try:
            run.WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
