"""Deterministic scenario execution: protocol -> fsm -> analog -> device -> thermal.

A scenario is a JSON document (conventional extension `.scn`) with nested
config sections, a timed command schedule and trace requests; the schema
is documented in README.md and versioned through `schema_version`.  A run
walks the schedule through the controller FSM, expands the resulting
switch events, applies them to the analog cells in exact time order and
samples the requested traces.  Everything is pure arithmetic on the
scenario contents, so two runs of the same scenario produce byte-identical
output files.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np
import scipy

from . import __version__, analog, device as devmod, fsm, protocol, thermal
from .errors import SimulationError

SCHEMA_VERSION = 1
N_CELLS = fsm.N_CELLS

# Ordering of coincident timeline entries: releases first, then host DAC
# moves, then lock closures, then fast-gate edges; samples observe the
# post-event state at their own timestamp.
_PRIO_OPEN, _PRIO_DAC, _PRIO_CLOSE, _PRIO_FG = 0, 1, 2, 3


class ScenarioError(SimulationError):
    pass


class UnknownAxis(SimulationError):
    pass


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ChipConfig:
    master_freq_hz: float = 35.84e6
    # Host-side calibration: aim the hold DAC below the target by the known
    # injection offset so the released voltage lands on target.  Applies to
    # autonomous (REFRESH) locking only; explicit LOCKING uses the DAC as-is.
    compensate_injection: bool = True

    def __post_init__(self) -> None:
        if not self.master_freq_hz > 0:
            raise ValueError("master_freq_hz must be positive")


@dataclass(frozen=True)
class TraceConfig:
    sample_rate_hz: float = 1e3
    kinds: tuple[str, ...] = ()
    cells: tuple[int, ...] = ()


@dataclass(frozen=True)
class ScheduleItem:
    time_s: float
    frame: protocol.Frame | None = None
    dac: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: each hardware block as its own parameter type.

    `device` and `tank` come from the `device` section, whose `gate_sources`
    and `axis_gate` wire the dot's gates to cells, DACs or constants.
    `calibration` and `budget` come from `power.calibration` and
    `power.budget`.
    """

    name: str
    chip: ChipConfig
    analog: analog.CellParams
    rails: analog.SupplyRails
    device: devmod.DotDevice | None
    tank: devmod.TankReadout | None
    gate_sources: dict[str, dict]
    axis_gate: str | None
    power: thermal.PowerModel | None
    calibration: thermal.ThermalCalibration | None
    budget: thermal.CoolingBudget | None
    schedule: tuple[ScheduleItem, ...]
    duration_s: float
    traces: TraceConfig
    cell_targets: dict[int, float]
    figure: str | None
    figure_params: dict
    sweep: dict | None
    raw: dict  # resolved source document, for sweeps and hashing


_TRACE_KINDS = ("cells", "hold", "conductance", "readout", "power", "temperature")

# Keys of the `device` section that do not belong to the dot itself.
_DEVICE_WIRING = ("gate_sources", "axis_gate")
_TANK_KEYS = ("bandwidth_hz",)


@contextmanager
def _section(where: str):
    """Report a parameter type's own check failing as a ScenarioError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _build_section(cls, raw, where: str, renames: Mapping[str, str] = {}):
    """Build parameter type `cls` from a section; `renames` maps keys to fields."""
    if not isinstance(raw, Mapping):
        raise ScenarioError(f"{where}: expected an object")
    names = {f.name for f in dataclasses.fields(cls)} - set(renames.values())
    unknown = set(raw) - names - set(renames)
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {sorted(unknown)}")
    with _section(where):
        return cls(**{renames.get(k, k): v for k, v in raw.items()})


def _parse_register(ref) -> int:
    if isinstance(ref, str):
        if ref in protocol.NAME_TO_ADDRESS:
            return protocol.NAME_TO_ADDRESS[ref]
        raise ScenarioError(f"unknown register name {ref!r}")
    return int(ref)


def _parse_int(value) -> int:
    if isinstance(value, str):
        return int(value, 0)
    return int(value)


def _parse_schedule_item(raw: Mapping, index: int) -> ScheduleItem:
    where = f"schedule[{index}]"
    if "t" not in raw:
        raise ScenarioError(f"{where}: missing time key 't'")
    t = float(raw["t"])
    keys = set(raw) - {"t"}
    if keys == {"write"}:
        reg, value = raw["write"]
        frame = protocol.Frame(protocol.Opcode.WRITE, _parse_register(reg), _parse_int(value))
    elif keys == {"read"}:
        frame = protocol.Frame(protocol.Opcode.READ, _parse_register(raw["read"]))
    elif keys == {"exec"}:
        frame = protocol.Frame(protocol.Opcode.EXEC)
    elif keys == {"nop"}:
        frame = protocol.Frame(protocol.Opcode.NOP)
    elif keys == {"word"}:
        try:
            frame = protocol.decode_frame(_parse_int(raw["word"]))
        except SimulationError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    elif keys == {"dac"}:
        moves = tuple(sorted((str(k), float(v)) for k, v in raw["dac"].items()))
        return ScheduleItem(time_s=t, dac=moves)
    else:
        raise ScenarioError(f"{where}: expected one of write/read/exec/nop/word/dac")
    return ScheduleItem(time_s=t, frame=frame)


def build_scenario(raw: Mapping) -> Scenario:
    """Validate a scenario document and build the typed configuration."""
    if not isinstance(raw, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    known = {
        "schema_version", "name", "seed", "chip", "analog", "rails", "device",
        "power", "schedule", "duration_s", "traces", "cell_targets", "figure",
        "figure_params", "sweep", "_overrides",
    }
    unknown = set(raw) - known
    if unknown:
        raise ScenarioError(f"unknown top-level key(s) {sorted(unknown)}")

    chip = _build_section(ChipConfig, raw.get("chip", {}), "chip")
    cell = _build_section(analog.CellParams, raw.get("analog", {}), "analog")
    rails = _build_section(analog.SupplyRails, raw.get("rails", {}), "rails")

    traw = raw.get("traces", {})
    traces = TraceConfig(
        sample_rate_hz=float(traw.get("sample_rate_hz", 1e3)),
        kinds=tuple(traw.get("kinds", ())),
        cells=tuple(int(c) for c in traw.get("cells", ())),
    )
    if traces.sample_rate_hz <= 0:
        raise ScenarioError("traces.sample_rate_hz must be positive")
    for kind in traces.kinds:
        if kind not in _TRACE_KINDS:
            raise ScenarioError(f"traces: unknown kind {kind!r}")
    for c in traces.cells:
        if not 0 <= c < N_CELLS:
            raise ScenarioError(f"traces: cell {c} outside 0..{N_CELLS - 1}")

    dot = tank = axis_gate = None
    gate_sources: dict[str, dict] = {}
    if "device" in raw:
        draw = raw["device"]
        if not isinstance(draw, Mapping):
            raise ScenarioError("device: expected an object")
        dot = _build_section(
            devmod.DotDevice,
            {k: v for k, v in draw.items() if k not in _DEVICE_WIRING + _TANK_KEYS},
            "device",
            renames={"levers": "gate_levers"},
        )
        tank = _build_section(
            devmod.TankReadout,
            {k: v for k, v in draw.items() if k in _TANK_KEYS}
            | {"sample_rate_hz": traces.sample_rate_hz},
            "device",
        )
        gate_sources = draw.get("gate_sources", {})
        axis_gate = draw.get("axis_gate")
        with _section("device"):
            for gate, source in gate_sources.items():
                if gate not in dot.gate_levers:
                    raise ScenarioError(f"device: source for gate {gate!r} has no lever arm")
                if set(source) not in ({"cell"}, {"dac"}, {"const"}):
                    raise ScenarioError(f"device: gate {gate!r} needs one of cell/dac/const")
                if "cell" in source and not 0 <= int(source["cell"]) < N_CELLS:
                    raise ScenarioError(f"device: gate {gate!r} references cell >= {N_CELLS}")
        if axis_gate is not None and axis_gate not in gate_sources:
            raise ScenarioError(f"device: axis_gate {axis_gate!r} has no gate source")

    power = calibration = budget = None
    if "power" in raw:
        with _section("power"):
            praw = dict(raw["power"])
        cal_raw = praw.pop("calibration", None)
        bud_raw = praw.pop("budget", None)
        # The pulsing capacitances default to the analog section's.
        for key in ("c_pulse", "c_p"):
            if praw.get(key) is None:
                praw[key] = getattr(cell, key)
        power = _build_section(thermal.PowerModel, praw, "power")
        if cal_raw is not None:
            with _section("power.calibration"):
                cal_raw = dict(cal_raw)
                cal_raw["points"] = tuple(
                    (float(p), float(t)) for p, t in cal_raw.get("points", ())
                )
            calibration = _build_section(
                thermal.ThermalCalibration, cal_raw, "power.calibration"
            )
        if bud_raw is not None:
            budget = _build_section(thermal.CoolingBudget, bud_raw, "power.budget")

    if {"conductance", "readout"} & set(traces.kinds) and dot is None:
        raise ScenarioError("conductance/readout traces need a device section")
    if {"power", "temperature"} & set(traces.kinds) and power is None:
        raise ScenarioError("power/temperature traces need a power section")
    if "temperature" in traces.kinds and calibration is None:
        raise ScenarioError("temperature trace needs power.calibration")

    schedule = tuple(
        _parse_schedule_item(item, i) for i, item in enumerate(raw.get("schedule", ()))
    )
    for prev, item in zip(schedule, schedule[1:]):
        if item.time_s < prev.time_s:
            raise ScenarioError("schedule times must be nondecreasing")
    duration = float(raw.get("duration_s", 0.0))
    if duration < 0:
        raise ScenarioError("duration_s must be non-negative")
    if schedule and schedule[-1].time_s > duration:
        raise ScenarioError("schedule extends past duration_s")

    targets = {int(k): float(v) for k, v in raw.get("cell_targets", {}).items()}
    for c in targets:
        if not 0 <= c < N_CELLS:
            raise ScenarioError(f"cell_targets: cell {c} outside 0..{N_CELLS - 1}")

    scenario = Scenario(
        name=str(raw.get("name", "scenario")),
        chip=chip,
        analog=cell,
        rails=rails,
        device=dot,
        tank=tank,
        gate_sources=gate_sources,
        axis_gate=axis_gate,
        power=power,
        calibration=calibration,
        budget=budget,
        schedule=schedule,
        duration_s=duration,
        traces=traces,
        cell_targets=targets,
        figure=raw.get("figure"),
        figure_params=dict(raw.get("figure_params", {})),
        sweep=raw.get("sweep"),
        raw=_as_plain_dict(raw),
    )
    if scenario.figure is not None:
        from . import figures

        figures.check_sections(scenario)
    return scenario


def load_scenario_dict(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot load scenario {path}: {exc}") from exc


def load_scenario(path: str | Path, overrides: Iterable[str] = ()) -> Scenario:
    raw = load_scenario_dict(path)
    raw = apply_overrides(raw, overrides)
    return build_scenario(raw)


def _as_plain_dict(obj):
    if isinstance(obj, Mapping):
        return {k: _as_plain_dict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_plain_dict(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# overrides / sweep axes


def _coerce_like(existing, text: str):
    if isinstance(existing, bool):
        if text.lower() in ("true", "1"):
            return True
        if text.lower() in ("false", "0"):
            return False
        raise UnknownAxis(f"cannot parse {text!r} as a boolean")
    if isinstance(existing, int) and not isinstance(existing, bool):
        try:
            return int(text, 0)
        except ValueError:
            return float(text)
    if isinstance(existing, float):
        return float(text)
    if isinstance(existing, str) or existing is None:
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return text
    raise UnknownAxis(f"cannot override structured value with {text!r}")


def set_axis(raw: dict, axis: str, value) -> dict:
    """Return a copy of the document with the dotted `axis` set to `value`.

    Path components index into nested objects; integer components index
    into lists.  Missing object keys are created (so defaults-only
    sections can be overridden); misspelled keys are still rejected when
    the resulting document is validated.  List indices must exist.
    """
    doc = json.loads(json.dumps(raw))  # deep copy of plain data
    node = doc
    parts = axis.split(".")
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if isinstance(node, list):
            try:
                idx = int(part)
                node[idx]
            except (ValueError, IndexError) as exc:
                raise UnknownAxis(f"axis {axis!r}: bad list index {part!r}") from exc
            if last:
                node[idx] = value
            else:
                node = node[idx]
        elif isinstance(node, dict):
            if last:
                node[part] = value
            else:
                node = node.setdefault(part, {})
        else:
            raise UnknownAxis(f"axis {axis!r}: {part!r} is not a container")
    return doc


def apply_overrides(raw: dict, overrides: Iterable[str]) -> dict:
    doc = raw
    applied = []
    for text in overrides:
        if "=" not in text:
            raise UnknownAxis(f"override {text!r} is not KEY=VALUE")
        axis, value_text = text.split("=", 1)
        current = _get_axis(doc, axis)
        doc = set_axis(doc, axis, _coerce_like(current, value_text))
        applied.append(text)
    if applied:
        doc = dict(doc)
        doc["_overrides"] = applied  # recorded for the run manifest
    return doc


def _get_axis(raw: dict, axis: str):
    node = raw
    for part in axis.split("."):
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError) as exc:
                raise UnknownAxis(f"axis {axis!r}: bad list index {part!r}") from exc
        elif isinstance(node, dict):
            node = node.get(part)
        elif node is None:
            return None
        else:
            raise UnknownAxis(f"axis {axis!r}: {part!r} is not a container")
    return node


# ---------------------------------------------------------------------------
# results


@dataclass
class Table:
    header: tuple[str, ...]
    rows: list[tuple]


@dataclass
class TraceBundle:
    tables: dict[str, Table]
    events: list[fsm.SwitchEvent]
    summary: dict
    manifest: dict


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def export(bundle: TraceBundle, outdir: str | Path) -> list[Path]:
    """Write one CSV per table plus the JSON run manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for key in sorted(bundle.tables):
        table = bundle.tables[key]
        path = outdir / f"{key}.csv"
        lines = [",".join(table.header)]
        lines += [",".join(_format_cell(v) for v in row) for row in table.rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    manifest = dict(bundle.manifest)
    manifest["outputs"] = [p.name for p in written]
    mpath = outdir / f"manifest_{manifest['name']}.json"
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")
    written.append(mpath)
    return written


def _manifest(scenario: Scenario) -> dict:
    canonical = json.dumps(
        {k: v for k, v in scenario.raw.items() if k != "_overrides"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return {
        "name": scenario.name,
        "figure": scenario.figure,
        "schema_version": SCHEMA_VERSION,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "overrides": scenario.raw.get("_overrides", []),
        "seed": scenario.raw.get("seed"),
        "versions": {
            "clfgsim": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


# ---------------------------------------------------------------------------
# execution


@dataclass
class _Segment:
    t_start: float
    t_end: float
    mode: fsm.Mode
    regs: protocol.RegisterFile


class _Timeline:
    """Chronological stream of prioritized actions plus mode segments."""

    def __init__(self) -> None:
        self.entries: list[tuple[float, int, int, str, object]] = []
        self._seq = 0

    def add(self, t: float, prio: int, kind: str, payload) -> None:
        self.entries.append((t, prio, self._seq, kind, payload))
        self._seq += 1

    def sorted(self):
        return sorted(self.entries, key=lambda e: (e[0], e[1], e[2]))


def _expand_schedule(scenario: Scenario):
    """Walk the schedule through the FSM, expanding all switch activity.

    REFRESH re-locks the masked cells one at a time in ascending index
    order, round robin, in slots of REFRESH_PERIOD / n seconds counted from
    the EXEC that started it.  Each slot boundary opens the previous cell
    before closing the next, so at most one lock switch is closed at any
    instant.

    Returns the ordered action timeline, the mode segments (for the power
    trace) and the READ responses.
    """
    chip = fsm.ChipState(master_freq_hz=scenario.chip.master_freq_hz)
    timeline = _Timeline()
    segments: list[_Segment] = []
    responses: list[tuple[float, protocol.Frame]] = []

    locked_cells: list[int] = []      # closed via LOCKING, in close order
    refresh: dict | None = None       # anchor/cells/slot/next_j/closed
    seg_start = 0.0
    cursor = 0.0

    def emit_periodic(a: float, b: float) -> None:
        nonlocal chip, refresh
        if b <= a:
            return
        if chip.mode == fsm.Mode.PULSING:
            chip, events = fsm.playback(chip, b - a, a)
            for ev in events:
                timeline.add(ev.time_s, _PRIO_FG, "fg", ev)
        elif chip.mode == fsm.Mode.REFRESH and refresh is not None:
            cells, slot, anchor = refresh["cells"], refresh["slot"], refresh["anchor"]
            j = refresh["next_j"]
            while anchor + j * slot < b:
                t = anchor + j * slot
                if t >= a:
                    if refresh["closed"] is not None:
                        timeline.add(
                            t, _PRIO_OPEN, "open",
                            fsm.SwitchEvent(t, refresh["closed"],
                                            lock_action=fsm.LockAction.OPEN),
                        )
                    cell = cells[j % len(cells)]
                    timeline.add(
                        t, _PRIO_CLOSE, "close",
                        fsm.SwitchEvent(t, cell, lock_action=fsm.LockAction.CLOSE),
                    )
                    refresh["closed"] = cell
                j += 1
            refresh["next_j"] = j

    def close_segment(t_end: float) -> None:
        nonlocal seg_start
        if t_end > seg_start or not segments:
            segments.append(_Segment(seg_start, t_end, chip.mode, chip.regs))
        seg_start = t_end

    def leave_mode(t: float) -> None:
        nonlocal locked_cells, refresh
        if chip.mode == fsm.Mode.LOCKING:
            for cell in locked_cells:
                timeline.add(
                    t, _PRIO_OPEN, "open",
                    fsm.SwitchEvent(t, cell, lock_action=fsm.LockAction.OPEN),
                )
            locked_cells = []
        elif chip.mode == fsm.Mode.REFRESH and refresh is not None:
            if refresh["closed"] is not None:
                timeline.add(
                    t, _PRIO_OPEN, "open",
                    fsm.SwitchEvent(t, refresh["closed"],
                                    lock_action=fsm.LockAction.OPEN),
                )
            refresh = None

    for index, item in enumerate(scenario.schedule):
        emit_periodic(cursor, item.time_s)
        cursor = item.time_s
        if item.frame is None:
            timeline.add(item.time_s, _PRIO_DAC, "dac", item.dac)
            continue
        try:
            new_chip, response = fsm.step(chip, item.frame)
        except SimulationError as exc:
            raise ScenarioError(f"schedule[{index}] at t={item.time_s}: {exc}") from exc
        if response is not None:
            responses.append((item.time_s, response))
        if new_chip.mode != chip.mode:
            close_segment(item.time_s)
            leave_mode(item.time_s)
            chip = new_chip
            if chip.mode == fsm.Mode.LOCKING:
                locked_cells = fsm.mask_cells(chip.regs.lock_mask)
                for cell in locked_cells:
                    timeline.add(
                        item.time_s, _PRIO_CLOSE, "close",
                        fsm.SwitchEvent(item.time_s, cell,
                                        lock_action=fsm.LockAction.CLOSE),
                    )
            elif chip.mode == fsm.Mode.REFRESH:
                cells = fsm.mask_cells(chip.regs.lock_mask)
                refresh = {
                    "anchor": item.time_s,
                    "cells": cells,
                    "slot": chip.regs.refresh_period / len(cells),
                    "next_j": 0,
                    "closed": None,
                }
        else:
            if new_chip.regs != chip.regs:
                close_segment(item.time_s)
            chip = new_chip
    emit_periodic(cursor, scenario.duration_s)
    close_segment(scenario.duration_s)
    return timeline, segments, responses


def _gate_voltage(source: dict, cells, dacs, t: float) -> float:
    if "cell" in source:
        return analog.output_voltage(cells[int(source["cell"])], t)
    if "dac" in source:
        return dacs.get(source["dac"], 0.0)
    return float(source["const"])


def _segment_power(scenario: Scenario, seg: _Segment) -> float:
    """Chip dissipation under one segment's register state and mode."""
    regs = seg.regs
    f_master = scenario.chip.master_freq_hz
    pulsing = seg.mode == fsm.Mode.PULSING
    return thermal.total_power(
        len(fsm.mask_cells(regs.pulse_mask)) if pulsing else 0,
        f_master / (1 << regs.divider),
        scenario.rails.swing,
        scenario.power,
        f_clock=f_master,
        clock_on=regs.clock_enabled,
        fsm_on=regs.fsm_enabled,
    )


def run_generic(scenario: Scenario) -> TraceBundle:
    """Execute a time-domain scenario and collect the requested traces."""
    timeline, segments, responses = _expand_schedule(scenario)

    kinds = scenario.traces.kinds
    if "readout" in kinds:
        devmod.require_sample_rate(scenario.tank)

    # Cell states are immutable, so all 32 can start as one value.
    cells = [analog.ClfgCell(scenario.analog)] * N_CELLS
    rails = scenario.rails
    v_hold = rails.v_hold
    dacs: dict[str, float] = {}

    rate = scenario.traces.sample_rate_hz
    n_samples = math.floor(scenario.duration_s * rate) + 1
    sample_times = [k / rate for k in range(n_samples)]

    seg_bounds = [s.t_start for s in segments]

    def move_dac(value: float) -> None:
        nonlocal v_hold
        if value != v_hold:
            for i in range(N_CELLS):
                cells[i] = analog.set_hold(cells[i], value)
            v_hold = value

    # sample buffers
    want_cells = "cells" in kinds
    want_hold = "hold" in kinds
    want_g = "conductance" in kinds or "readout" in kinds
    want_power = "power" in kinds or "temperature" in kinds
    seg_power = [_segment_power(scenario, seg) for seg in segments] if want_power else []
    cell_rows: list[tuple] = []
    hold_rows: list[tuple] = []
    g_samples: list[float] = []
    axis_samples: list[float] = []
    power_samples: list[float] = []

    def take_sample(t: float) -> None:
        if want_cells:
            for c in scenario.traces.cells:
                cell_rows.append((t, c, analog.output_voltage(cells[c], t)))
        if want_hold:
            hold_rows.append((t, v_hold))
        if want_g:
            volts = {
                gate: _gate_voltage(src, cells, dacs, t)
                for gate, src in scenario.gate_sources.items()
            }
            g_samples.append(devmod.conductance(scenario.device, volts))
            axis = scenario.axis_gate
            axis_samples.append(volts.get(axis, 0.0) if axis else 0.0)
        if want_power:
            idx = min(bisect_right(seg_bounds, t) - 1, len(segments) - 1)
            power_samples.append(seg_power[max(idx, 0)])

    events_log: list[fsm.SwitchEvent] = []
    si = 0
    for t, _prio, _seq, kind, payload in timeline.sorted():
        while si < n_samples and sample_times[si] < t:
            take_sample(sample_times[si])
            si += 1
        if kind == "dac":
            for name, value in payload:  # type: ignore[union-attr]
                if name == "v_hold":
                    move_dac(value)
                else:
                    dacs[name] = value
            continue
        ev: fsm.SwitchEvent = payload  # type: ignore[assignment]
        events_log.append(ev)
        i = ev.cell
        cells[i] = analog.settle(cells[i], t)
        if kind == "fg":
            cells[i] = analog.apply_fg(cells[i], ev.fg_level, t, rails)
        elif kind == "close":
            target = scenario.cell_targets.get(i)
            if target is not None:
                v_cmd = target
                if scenario.chip.compensate_injection:
                    v_cmd = target - analog.injection_offset(scenario.analog)
                move_dac(v_cmd)
            cells[i] = analog.lock(cells[i], v_hold)
        else:  # open
            cells[i] = analog.unlock(cells[i])
    while si < n_samples:
        take_sample(sample_times[si])
        si += 1

    tables: dict[str, Table] = {}
    tables["events"] = Table(
        header=("time_s", "cell", "action", "level"),
        rows=[fsm.event_csv_row(ev) for ev in events_log],
    )
    if want_cells:
        tables["cells"] = Table(("time_s", "cell", "v_out_volts"), cell_rows)
    if want_hold:
        tables["hold"] = Table(("time_s", "v_hold_volts"), hold_rows)
    if "conductance" in kinds:
        tables["conductance"] = Table(
            ("time_s", "conductance_s"),
            list(zip(sample_times, g_samples)),
        )
    if "readout" in kinds:
        signal = devmod._low_pass(np.asarray(g_samples, dtype=float), scenario.tank)
        tables["readout"] = Table(
            ("time_s", "v_sdp_volts", "signal"),
            list(zip(sample_times, axis_samples, signal.tolist())),
        )
    if "power" in kinds:
        tables["power"] = Table(
            ("time_s", "power_watts"), list(zip(sample_times, power_samples))
        )
    if "temperature" in kinds:
        temps = [thermal.temperature(p, scenario.calibration) for p in power_samples]
        tables["temperature"] = Table(
            ("time_s", "temperature_k"), list(zip(sample_times, temps))
        )
    if responses:
        tables["responses"] = Table(
            ("time_s", "opcode", "address", "data"),
            [(t, int(f.opcode), f.address, f.data) for t, f in responses],
        )

    summary: dict[str, Any] = {
        "final_time_s": scenario.duration_s,
        "v_out_final": {
            c: analog.output_voltage(cells[c], scenario.duration_s)
            for c in scenario.traces.cells
        },
        "n_events": len(events_log),
    }
    if g_samples:
        summary["conductance_final_s"] = g_samples[-1]
    return TraceBundle(
        tables=tables, events=events_log, summary=summary, manifest=_manifest(scenario)
    )


def run_scenario(scenario: Scenario) -> TraceBundle:
    """Run a scenario, dispatching to its figure driver when it names one."""
    if scenario.figure is not None:
        from . import figures

        return figures.run_figure(scenario)
    return run_generic(scenario)


# ---------------------------------------------------------------------------
# sweeps


def _sweep_worker(args: tuple[dict, str, object]) -> TraceBundle:
    raw, axis, value = args
    return run_generic(build_scenario(set_axis(raw, axis, value)))


def sweep(
    scenario: Scenario, axis: str, values: Iterable, jobs: int = 1
) -> list[TraceBundle]:
    """Independent generic runs with `axis` set to each value, in order.

    Results depend only on (scenario, axis, value), so parallel execution
    returns exactly the sequential result.
    """
    values = list(values)
    if values:
        # The base scenario already validated, so a build failure here is
        # the axis (or its value) breaking the document.
        try:
            build_scenario(set_axis(scenario.raw, axis, values[0]))
        except ScenarioError as exc:
            raise UnknownAxis(f"axis {axis!r}: {exc}") from exc
    work = [(scenario.raw, axis, v) for v in values]
    if jobs > 1 and len(values) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_sweep_worker, work))
    return [_sweep_worker(w) for w in work]
