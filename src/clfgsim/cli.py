"""Command-line front end.

Exit codes: 0 success, 1 a `ScenarioError`, an error in the scenario, input
or output directory (`validate` refuses every document that `run` refuses),
2 any other `SimulationError`, a fault in the simulator.
The default output directory comes from --out or the CLFGSIM_OUT
environment variable (falling back to ./out).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import __version__, engine, protocol, thermal
from .errors import ScenarioError, SimulationError
from .figures import DRIVERS, _at_least, require_sections

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

BUNDLED = sorted(DRIVERS)


def bundled_scenario_path(name: str) -> Path:
    ref = resources.files("clfgsim").joinpath("scenarios", f"{name}.scn")
    if not ref.is_file():
        raise ScenarioError(f"no bundled scenario {name!r}")
    return Path(str(ref))


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get("CLFGSIM_OUT", "out"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clfgsim",
        description="Behavioral simulator of a cryogenic charge-lock "
        "fast-gate control chip",
    )
    parser.add_argument("--version", action="version", version=f"clfgsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file and exit")
    p.add_argument("scenario")

    p = sub.add_parser("run", help="run a scenario and write its CSV outputs")
    p.add_argument("scenario")

    p = sub.add_parser("sweep", help="run a scenario once per value of an axis")
    p.add_argument("scenario")
    p.add_argument("--axis", help="dotted config path (default: the scenario's sweep block)")
    p.add_argument("--values", help="comma-separated values; with --axis, replace the sweep block")

    p = sub.add_parser("replay", help="feed a raw hex command stream to the chip")
    p.add_argument("stream", help="file of 8-hex-digit words, one per line")
    p.add_argument("--duration", type=float, default=0.0,
                   help="seconds of autonomous operation after the stream")

    p = sub.add_parser("budget", help="power/cooling feasibility for one operating point")
    p.add_argument("--scenario", default=None,
                   help="scenario supplying the power section (default: bundled fig4e)")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--freq", type=float, required=True)
    p.add_argument("--swing", type=float, default=0.1)

    p = sub.add_parser("figures", help="regenerate figure CSVs from bundled scenarios")
    p.add_argument("name", choices=BUNDLED + ["all"])

    for name, p in sub.choices.items():  # last, after each subcommand's own options
        if name not in ("validate", "budget"):  # the commands that write files
            p.add_argument("--out", help="output directory (default: $CLFGSIM_OUT or ./out)")
        p.add_argument(
            "--override", action="append", default=[], metavar="K=V",
            help="dotted-path config override, repeatable (e.g. analog.c_pulse=2e-12)",
        )
    return parser


def _cmd_validate(args) -> int:
    engine.load_scenario(args.scenario, args.override)
    print(f"{args.scenario}: ok")
    return EXIT_OK


def _cmd_run(args) -> int:
    scenario = engine.load_scenario(args.scenario, args.override)
    bundle = engine.run_scenario(scenario)
    written = engine.export(bundle, _out_dir(args))
    for path in written:
        print(path)
    return EXIT_OK


def _csv_field(value) -> str:
    """A sweep value as `export` writes it, quoted where RFC 4180 needs it."""
    text = engine._format_cell(value)
    return '"' + text.replace('"', '""') + '"' if set(text) & set(',"\r\n') else text


def _cmd_sweep(args) -> int:
    if (args.axis is None) != (args.values is None):
        given, missing = ("--axis", "--values") if args.values is None else ("--values", "--axis")
        raise ScenarioError(f"{missing} required when {given} is given")
    raw = engine.apply_overrides(engine.read_document(args.scenario), args.override)
    if args.axis is not None:  # the flags replace the sweep block, which is never built
        # Parsed like --override: after the value the axis holds now.
        values = [engine._coerce_like(raw, args.axis, v) for v in args.values.split(",")]
        raw = engine.set_axis(raw, "sweep", {"axis": args.axis, "values": values})
    scenario = replace(engine.build_scenario(raw), overrides=tuple(args.override))
    if scenario.sweep is None:
        raise ScenarioError("scenario has no sweep block and no --axis given")
    axis, values = scenario.sweep.axis, scenario.sweep.values
    summaries = [bundle.summary for bundle in engine.sweep(scenario)]
    # One column per cell any run traced (a sweep may move them), in
    # first-seen order; a run that did not trace a cell leaves it empty.
    finals = [summary["v_out_final"] for summary in summaries]
    cells = list(dict.fromkeys(c for final in finals for c in final))
    columns = [list(map(_csv_field, values))]
    columns += [[final.get(c, "") for final in finals] for c in cells]
    header = ["value"] + [f"v_out_final_cell{c}" for c in cells]
    if any("conductance_final_s" in summary for summary in summaries):
        header.append("conductance_final_s")
        columns.append([summary.get("conductance_final_s", "") for summary in summaries])
    table = engine.Table.from_rows(header, list(zip(*columns)))  # object columns
    bundle = engine.TraceBundle(
        tables={"sweep": table}, summary={"axis": axis, "n": len(values)},
        manifest=dict(engine._manifest(scenario), axis=axis),
    )
    for path in engine.export(bundle, _out_dir(args)):
        print(path)
    return EXIT_OK


def _cmd_replay(args) -> int:
    with engine.refusing(f"cannot read {args.stream}", (OSError, UnicodeDecodeError)):
        text = Path(args.stream).read_text(encoding="utf-8")
    words = protocol.parse_stream(text)
    raw = {
        "schema_version": engine.SCHEMA_VERSION,
        "name": "replay",
        "schedule": [{"t": 0.0, "word": w} for w in words],
        "duration_s": args.duration,
        "traces": {"sample_rate_hz": 1e3},
    }
    scenario = engine.with_overrides(raw, args.override)
    bundle = engine.run_scenario(scenario)
    outdir = _out_dir(args)
    written = engine.export(bundle, outdir)
    state = {
        "words": len(words),
        "events": len(bundle.tables["events"]),
        "responses": [{"time_s": t, "address": f.address, "data": f.data}
                      for t, f in scenario.responses],
    }
    spath = outdir / "replay_state.json"
    with engine.refusing(f"cannot write {outdir}"):
        spath.write_text(json.dumps(state, indent=2, sort_keys=True) + "\n", "utf-8")
    for path in [*written, spath]:
        print(path)
    return EXIT_OK


def _cmd_budget(args) -> int:
    path = args.scenario or bundled_scenario_path("fig4e")
    scenario = engine.load_scenario(path, args.override)
    require_sections(scenario, ("power", "budget"))
    for flag, value in (("--cells", args.cells), ("--freq", args.freq)):
        with engine._section(flag):
            _at_least(0, engine._number)(value)
    result = thermal.feasible(
        args.cells, args.freq, args.swing, scenario.analog, scenario.power,
        scenario.budget,
    )
    if not math.isfinite(result.total_watts):
        raise ScenarioError(
            f"--cells {args.cells}, --freq {args.freq} and --swing {args.swing}"
            " give a power that is not finite"
        )
    print(json.dumps({
        "n_cells": args.cells,
        "f_hz": args.freq,
        "swing_volts": args.swing,
        "total_watts": result.total_watts,
        "budget_watts": result.budget_watts,
        "feasible": result.feasible,
        "headroom_watts": result.headroom_watts,
    }, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_figures(args) -> int:
    names = BUNDLED if args.name == "all" else [args.name]
    outdir = _out_dir(args)
    for name in names:
        scenario = engine.load_scenario(bundled_scenario_path(name), args.override)
        bundle = engine.run_scenario(scenario)
        for path in engine.export(bundle, outdir):
            print(path)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "replay": _cmd_replay,
    "budget": _cmd_budget,
    "figures": _cmd_figures,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SimulationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
