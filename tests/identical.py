"""Run every byte-identity input against one source tree.

    python tests/identical.py SRC OUT

writes every input into OUT/inputs/ (a copy of SRC's bundled scenarios
among them), then runs each entry of `ENTRIES` as `python -m clfgsim.cli
COMMAND` with PYTHONPATH=SRC and this process's own environment otherwise,
in working directory OUT and on relative paths only, so no output names
the tree.  The commands that write files (`run`, `sweep`, `replay`,
`figures`) get `--out ENTRY/out`; every entry's exit `code`, `stdout` and
`stderr` go beside it in OUT/ENTRY/.  Two trees give the same outputs when
`diff -r` of their OUTs is empty:

    python tests/identical.py PARENT/src A; python tests/identical.py src B; diff -r A B

It imports only the standard library, so it never imports the tree it runs
and needs no test extra; `tests/conftest.py` takes its document builders
from here.
"""
from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WRITERS = ("run", "sweep", "replay", "figures")

# One entry a line: its name, the exit code it must give, and its command.
# The seed-21 bench inputs cover what no bundled scenario does (REFRESH to
# `cell_targets`, host DAC moves inside playback and at slot times, locks in
# two groups, several `export` chunks of `events`, several `CHUNK_ROWS`
# chunks of sampled cells).  The entries that exit 1
# are refusals, among them one input per exception class the simulator had
# before its two error types.
ENTRIES = [(name, int(code), command.split()) for name, code, command in (
    line.split(maxsplit=2) for line in """
figures 0 figures all
sweep-fig3b 0 sweep inputs/scenarios/fig3b.scn
sweep-fig3c 0 sweep inputs/scenarios/fig3c.scn
sweep-axis-fig3b 0 sweep inputs/scenarios/fig3b.scn --axis schedule.5.dac.v_hold --values=-0.815,-0.81 --override rails.v_hold=-0.8
sweep-axis-fig3b-patterns 0 sweep inputs/scenarios/fig3b.scn --axis schedule.5.dac.v_hold --values=-0.81,-0.8,-0.0,-0.8,0.0,-0.79
sweep-axis-fig3c 0 sweep inputs/scenarios/fig3c.scn --axis rails.v_hold --values=-0.5,-0.8
sweep-build-fig3b 0 sweep inputs/scenarios/fig3b.scn --axis analog.c_ds --values=1e-14,2e-14
sweep-build-fig3c 0 sweep inputs/scenarios/fig3c.scn --axis analog.leak_rate --values=1e-8,2e-8
sweep-axis-fig3g 0 sweep inputs/scenarios/fig3g.scn --axis rails.v_hold --values=-0.80,-0.81
sweep-build-fig3b-device 0 sweep inputs/scenarios/fig3b.scn --axis device.peak_width --values=8e-4,9e-4
override-fig3e 0 run inputs/scenarios/fig3e.scn --override rails.v_hold=-1.05 --override analog.c_ds=2e-14
run-pulse 0 run inputs/pulse.scn
run-refresh 0 run inputs/refresh.scn
run-refresh-rate1 0 run inputs/refresh.scn --override traces.sample_rate_hz=1
sweep-refresh-sweep 0 sweep inputs/refresh-sweep.scn
run-refresh-cell7 0 run inputs/refresh-cell7.scn
run-refresh-hold 0 run inputs/refresh-hold.scn
run-refresh-write 0 run inputs/refresh-write.scn
run-refresh-dac 0 run inputs/refresh-dac.scn
run-refresh-slots 0 run inputs/refresh-slots.scn
run-pulse-dac 0 run inputs/pulse-dac.scn
sweep-pulse-dac-sweep 0 sweep inputs/pulse-dac-sweep.scn
run-pulse-groups 0 run inputs/pulse-groups.scn
run-pulse-chunks 0 run inputs/pulse-chunks.scn
sweep-pulse-sweep 0 sweep inputs/pulse-sweep.scn
sweep-pulse-sweep-lists 0 sweep inputs/pulse-sweep-lists.scn
sweep-pulse-sweep-text 0 sweep inputs/pulse-sweep-text.scn
run-fig4b-bigint 0 run inputs/fig4b-bigint.scn
run-fig4e-bigint 0 run inputs/fig4e-bigint.scn
replay-read 0 replay inputs/read.hex --duration 0.01
budget-default 0 budget --cells 1000 --freq 1e6
budget-swing-0.2 0 budget --cells 1000 --freq 1e6 --swing 0.2
write-0x99 1 run inputs/write-0x99.scn
divider-16 1 run inputs/divider-16.scn
word-0xff 1 run inputs/word-0xff.scn
exec-fsm-clear 1 run inputs/exec-fsm-clear.scn
clock-stopped 1 run inputs/clock-stopped.scn
readout-slow 1 run inputs/readout-slow.scn
gate-no-lever 1 run inputs/gate-no-lever.scn
short-line 1 replay inputs/short-line.hex
override-index 1 run inputs/plain.scn --override schedule.9.t=1
override-not-kv 1 run inputs/plain.scn --override nope
sweep-axis-index 1 sweep inputs/plain.scn --axis traces.cells.9 --values=1
sweep-block-index 1 run inputs/sweep-block-index.scn
sample-overflow 1 run inputs/sample-overflow.scn
validate-sample-overflow 1 validate inputs/sample-overflow.scn
validate-sweep-block-index 1 validate inputs/sweep-block-index.scn
duration-nan 1 run inputs/duration-nan.scn
override-seed-nan 1 run inputs/scenarios/fig4b.scn --override seed=NaN
""".strip().splitlines())]

# Writes of CTRL, PULSE_MASK_LO and DIVIDER, a READ of DIVIDER and an EXEC;
# and a stream whose second line is one hex digit short.
STREAMS = {"read.hex": "01000007\n01040003\n0101000f\n02010000\n03000000\n",
           "short-line.hex": "01000007\n0100007\n"}


def bench_document(name: str, seed: int) -> dict:
    """The benchmark's generated input `name` at `seed` (bench/workloads.py, only read)."""
    if (workloads := sys.modules.get("bench_workloads")) is None:
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    return workloads.make(name, seed).doc


def pulse_dac_document() -> dict:
    """The seed-21 bench pulse input with the hold and conductance traces, a dot
    gate read from DAC `v_sdp`, and inside playback a move of that DAC, a
    hold-rail move (schedule item `len - 2`, at t = 0.005 s) and a repeat of
    its value."""
    doc = bench_document("pulse", 21)
    doc["traces"]["kinds"] += ["hold", "conductance"]
    doc["device"] = {"levers": {"sdp": 1.0}, "gate_sources": {"sdp": {"dac": "v_sdp"}}}
    doc["schedule"] += [{"t": 0.0025, "dac": {"v_sdp": 0.004}}, {"t": 0.005, "dac": {"v_hold": -0.1}},
                        {"t": 0.0075, "dac": {"v_hold": -0.1}}]
    return doc


def _refused(schedule=(), **sections) -> dict:
    """A 10 us document that sets fsm-enable, then `schedule`, with `sections` in place."""
    return {"schema_version": 1, "name": "refused", "duration_s": 1e-5,
            "traces": {"sample_rate_hz": 1e6, "kinds": ["cells"], "cells": [0]},
            "schedule": [{"t": 0.0, "write": ["CTRL", 2]}, *schedule], **sections}


def documents(scenarios: Path) -> dict[str, dict]:
    """Every input document of `ENTRIES` by name; the fig4 ones are read from `scenarios`."""
    docs = {name: bench_document(name, 21) for name in ("pulse", "refresh")}
    docs["refresh-write"] = bench_document("refresh", 21)
    docs["refresh-write"]["schedule"].append({"t": 3600.0, "write": ["PATTERN0", 1]})
    docs["refresh-cell7"] = bench_document("refresh", 21)
    docs["refresh-cell7"]["traces"]["cells"] = [7]
    docs["refresh-hold"] = bench_document("refresh", 21)
    docs["refresh-hold"]["traces"]["kinds"] = ["hold"]
    docs["refresh-sweep"] = bench_document("refresh", 21)
    docs["refresh-sweep"]["sweep"] = {"axis": "rails.v_hold", "values": [-1.101, -1.1, -0.0, 0.0]}
    docs["pulse-sweep"] = bench_document("pulse", 21)
    docs["pulse-sweep"]["sweep"] = {"axis": "rails.v_hold", "values": [-0.1, 0.0, 0.1]}
    docs["pulse-sweep-lists"] = bench_document("pulse", 21)
    docs["pulse-sweep-lists"]["sweep"] = {"axis": "traces.cells", "values": [[3, 14], [18, 20]]}
    docs["pulse-sweep-text"] = bench_document("pulse", 21)
    docs["pulse-sweep-text"]["sweep"] = {"axis": "name", "values": ["a,b", 'say "hi"']}
    docs["pulse-dac"] = pulse_dac_document()
    docs["pulse-dac-sweep"] = pulse_dac_document()
    docs["pulse-dac-sweep"]["sweep"] = {
        "axis": f"schedule.{len(docs['pulse-dac']['schedule']) - 2}.dac.v_hold",
        "values": [-0.1, 0.0, -0.0, 0.05]}
    # That refresh with the hold and conductance traces, a dot gate read from
    # DAC `v_sdp`, a move of both DACs at a targeted slot's time, and after
    # REFRESH a LOCKING close that follows a rail move from 0.0 to -0.0.
    docs["refresh-dac"] = refresh_dac = bench_document("refresh", 21)
    refresh_dac["traces"]["kinds"] += ["hold", "conductance"]
    refresh_dac["device"] = {"levers": {"sdp": 1.0}, "gate_sources": {"sdp": {"dac": "v_sdp"}}}
    refresh_dac["schedule"] += [
        {"t": 37.5, "dac": {"v_hold": -1.0, "v_sdp": 0.004}}, {"t": 3600.5, "dac": {"v_hold": 0.0}},
        {"t": 3601.0, "dac": {"v_hold": -0.0}}, {"t": 3602.0, "write": ["REFRESH_PERIOD", 0]},
        {"t": 3602.0, "exec": True}]
    # That refresh sampled every 4 s, on every 16th slot (60 s apart), with a
    # host hold-rail move to -0.0 on slot 480's time and the EXEC that leaves
    # REFRESH for LOCKING on slot 960's time, t = 3600 s.
    docs["refresh-slots"] = slots = bench_document("refresh", 21)
    slots["traces"]["sample_rate_hz"] = 0.25
    slots["schedule"] += [{"t": 1800.0, "dac": {"v_hold": -0.0}},
                          {"t": 3600.0, "write": ["REFRESH_PERIOD", 0]}, {"t": 3600.0, "exec": True}]
    # The pulsed cells locked in two groups, at -1.0 V and -1.1 V, and released
    # before playback; and that at DIVIDER 0 for 1 ms: 35,840 ticks of 6 cells,
    # past three `export` chunks, after the lock blocks.
    docs["pulse-groups"] = groups = bench_document("pulse", 21)
    cells, locks = groups["traces"]["cells"], [{"t": -4e-4, "write": ["CTRL", 3]}]
    for k, (rail, group) in enumerate([(-1.0, cells[:3]), (-1.1, cells[3:])]):
        t, mask = -4e-4 + 2e-4 * k, sum(1 << c for c in group)
        locks += [
            {"t": t, "dac": {"v_hold": rail}}, {"t": t, "write": ["LOCK_MASK_LO", mask & 0xFFFF]},
            {"t": t, "write": ["LOCK_MASK_HI", mask >> 16]}, {"t": t, "exec": True},
            {"t": t + 1e-4, "write": ["LOCK_MASK_LO", 0]}, {"t": t + 1e-4, "write": ["LOCK_MASK_HI", 0]},
            {"t": t + 1e-4, "exec": True}]
    groups["schedule"][:0] = locks
    docs["pulse-chunks"] = chunks = json.loads(json.dumps(groups))
    chunks["duration_s"] = 0.001
    for item in chunks["schedule"]:
        if item.get("write", [None])[0] == "DIVIDER":
            item["write"][1] = 0
    # Ints past int64 in a figure table, which `export` writes as they are.
    for name, key, counts in (("fig4b", "n_cells", [1, 2**63, 2**64]),
                              ("fig4e", "n_values", [1, 2**64 + 1])):
        docs[f"{name}-bigint"] = doc = json.loads((scenarios / f"{name}.scn").read_text(encoding="utf-8"))
        doc["figure_params"][key] = counts
    pulse = [{"t": 0.0, "write": ["CTRL", 7]}, {"t": 0.0, "write": ["DIVIDER", 0]},
             {"t": 0.0, "write": ["PULSE_MASK_LO", 1]}, {"t": 0.0, "exec": True}]
    return docs | {
        "write-0x99": _refused([{"t": 0.0, "write": [153, 1]}]),
        "divider-16": _refused([{"t": 0.0, "write": ["DIVIDER", 16]}]),
        "word-0xff": _refused([{"t": 0.0, "word": 0xFF000000}]),
        "exec-fsm-clear": _refused([{"t": 0.0, "write": ["CTRL", 0]}, {"t": 0.0, "exec": True}]),
        "clock-stopped": _refused([*pulse, {"t": 5e-6, "write": ["CTRL", 6]}]),
        "readout-slow": _refused(device={"levers": {"lw": 0.2}, "gate_sources": {"lw": {"cell": 0}},
                                         "bandwidth_hz": 1e6},
                                 traces={"sample_rate_hz": 9.9e6, "kinds": ["readout"]}),
        "gate-no-lever": _refused(device={"levers": {"lw": 0.2}, "gate_sources": {"x": {"cell": 0}}}),
        "sweep-block-index": _refused(sweep={"axis": "traces.cells.9", "values": [1]}),
        "sample-overflow": _refused(duration_s=1e300, traces={"sample_rate_hz": 1e10}),
        "duration-nan": _refused(duration_s=float("nan")),
        "plain": _refused(),
    }


def write_inputs(src: Path, out: Path) -> None:
    """Write every input of `ENTRIES` into `out`/inputs/, `src`'s bundled scenarios included."""
    inputs = out / "inputs"
    shutil.copytree(src / "clfgsim" / "scenarios", inputs / "scenarios")
    for name, doc in documents(inputs / "scenarios").items():
        (inputs / f"{name}.scn").write_text(json.dumps(doc), encoding="utf-8")
    for name, text in STREAMS.items():
        (inputs / name).write_text(text, encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = (Path(arg).resolve() for arg in argv)
    write_inputs(src, out)
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, code, command in ENTRIES:
        flags = ["--out", f"{name}/out"] if command[0] in WRITERS else []
        done = subprocess.run([sys.executable, "-m", "clfgsim.cli", *command, *flags], cwd=out,
                              env=env, stdin=subprocess.DEVNULL, capture_output=True)
        (out / name).mkdir(exist_ok=True)
        for part, data in (("code", b"%d\n" % done.returncode), ("stdout", done.stdout),
                           ("stderr", done.stderr)):
            (out / name / part).write_bytes(data)
        if done.returncode != code:
            print(f"{name}: exit {done.returncode}, listed as {code}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
