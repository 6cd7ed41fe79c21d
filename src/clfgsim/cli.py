"""Command-line front end.

Exit codes: 0 success, 1 scenario/validation error, 2 runtime error.
The default output directory comes from --out or the CLFGSIM_OUT
environment variable (falling back to ./out).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

from . import __version__, engine, protocol, thermal
from .errors import SimulationError
from .figures import DRIVERS, require_sections

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

BUNDLED = sorted(DRIVERS)


def bundled_scenario_path(name: str) -> Path:
    ref = resources.files("clfgsim").joinpath("scenarios", f"{name}.scn")
    if not ref.is_file():
        raise engine.ScenarioError(f"no bundled scenario {name!r}")
    return Path(str(ref))


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get("CLFGSIM_OUT", "out"))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output directory (default: $CLFGSIM_OUT or ./out)")
    parser.add_argument(
        "--override", action="append", default=[], metavar="K=V",
        help="dotted-path config override, repeatable (e.g. analog.c_pulse=2e-12)",
    )


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
    p.add_argument(
        "--override", action="append", default=[], metavar="K=V",
        help="dotted-path config override, repeatable",
    )

    p = sub.add_parser("run", help="run a scenario and write its CSV outputs")
    p.add_argument("scenario")
    _add_common(p)

    p = sub.add_parser("sweep", help="run a scenario once per value of an axis")
    p.add_argument("scenario")
    p.add_argument("--axis", help="dotted config path (default: scenario sweep block)")
    p.add_argument("--values", help="comma-separated values (default: sweep block)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    _add_common(p)

    p = sub.add_parser("replay", help="feed a raw hex command stream to the chip")
    p.add_argument("stream", help="file of 8-hex-digit words, one per line")
    p.add_argument("--duration", type=float, default=0.0,
                   help="seconds of autonomous operation after the stream")
    p.add_argument("--master-freq", type=float, default=35.84e6)
    _add_common(p)

    p = sub.add_parser("budget", help="power/cooling feasibility for one operating point")
    p.add_argument("--scenario", default=None,
                   help="scenario supplying the power section (default: bundled fig4e)")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--freq", type=float, required=True)
    p.add_argument("--swing", type=float, default=0.1)
    p.add_argument(
        "--override", action="append", default=[], metavar="K=V",
        help="dotted-path config override, repeatable",
    )

    p = sub.add_parser("figures", help="regenerate figure CSVs from bundled scenarios")
    p.add_argument("name", choices=BUNDLED + ["all"])
    _add_common(p)
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


def _cmd_sweep(args) -> int:
    scenario = engine.load_scenario(args.scenario, args.override)
    if args.axis is not None:
        axis = args.axis
        if args.values is None:
            raise engine.ScenarioError("--values required when --axis is given")
        values = [float(v) for v in args.values.split(",")]
    else:
        if not scenario.sweep:
            raise engine.ScenarioError("scenario has no sweep block and no --axis given")
        axis = scenario.sweep["axis"]
        values = list(scenario.sweep["values"])
    bundles = engine.sweep(scenario, axis, values, jobs=args.jobs)
    rows = []
    for value, bundle in zip(values, bundles):
        row = [value]
        for cell in scenario.traces.cells:
            row.append(bundle.summary["v_out_final"][cell])
        if "conductance_final_s" in bundle.summary:
            row.append(bundle.summary["conductance_final_s"])
        rows.append(tuple(row))
    header = ["value"] + [f"v_out_final_cell{c}" for c in scenario.traces.cells]
    if rows and len(rows[0]) > len(header):
        header.append("conductance_final_s")
    table = engine.Table(tuple(header), rows)
    bundle = engine.TraceBundle(
        tables={"sweep": table}, events=[], summary={"axis": axis, "n": len(values)},
        manifest=dict(engine._manifest(scenario), axis=axis),
    )
    for path in engine.export(bundle, _out_dir(args)):
        print(path)
    return EXIT_OK


def _cmd_replay(args) -> int:
    try:
        text = Path(args.stream).read_text(encoding="utf-8")
    except OSError as exc:
        raise engine.ScenarioError(f"cannot read {args.stream}: {exc}") from exc
    words = protocol.parse_stream(text)
    raw = {
        "schema_version": engine.SCHEMA_VERSION,
        "name": "replay",
        "chip": {"master_freq_hz": args.master_freq},
        "schedule": [{"t": 0.0, "word": w} for w in words],
        "duration_s": args.duration,
        "traces": {"sample_rate_hz": 1e3},
    }
    raw = engine.apply_overrides(raw, args.override)
    try:
        scenario = engine.build_scenario(raw)
        bundle = engine.run_generic(scenario)
    except SimulationError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    outdir = _out_dir(args)
    written = engine.export(bundle, outdir)
    state = {
        "words": len(words),
        "events": len(bundle.events),
        "responses": [
            {"time_s": t, "address": a, "data": d}
            for t, _op, a, d in bundle.tables.get(
                "responses", engine.Table((), [])
            ).rows
        ],
    }
    spath = outdir / "replay_state.json"
    spath.write_text(json.dumps(state, indent=2, sort_keys=True) + "\n", "utf-8")
    for path in [*written, spath]:
        print(path)
    return EXIT_OK


def _cmd_budget(args) -> int:
    path = args.scenario or bundled_scenario_path("fig4e")
    scenario = engine.load_scenario(path, args.override)
    require_sections(scenario, ("power", "budget"))
    result = thermal.feasible(
        args.cells, args.freq, args.swing, scenario.power, scenario.budget
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
    except (engine.ScenarioError, engine.UnknownAxis, protocol.StreamFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SimulationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
