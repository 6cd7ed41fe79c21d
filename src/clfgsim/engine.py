"""Deterministic scenario execution: protocol -> fsm -> analog -> device -> thermal.

A scenario is a JSON document (conventional extension `.scn`) with nested
config sections, a timed command schedule and trace requests; the schema
is documented in README.md and versioned through `schema_version`.  Load
walks the schedule through the controller FSM into a plan, refusing what
the chip refuses and a run past `MAX_ROWS`; a run expands the plan's switch
events, applies them to the analog cells in exact time order and samples
the requested traces.  Everything is pure arithmetic on the scenario
contents, so two runs of the same scenario produce byte-identical files.
Load refuses with a ScenarioError, `_section` turning a model's
SimulationError into one that names the section; a run raises it as is.
The `events` table's rows are made, written and read back here only.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import struct
from bisect import bisect_left
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from . import __version__, analog, device as devmod, fsm, protocol, thermal
from .errors import ScenarioError, SimulationError

SCHEMA_VERSION = 1
N_CELLS = fsm.N_CELLS
# The most rows a run may fill, counted at load by `build_scenario`: the
# sample grid and each sampled column, the `events` table and the READ
# responses.  The costliest, an `events` row, holds about 140 bytes at the
# peak of a run (in `analog.apply_fg_run`; `export` adds nothing to it), so
# a run at the budget peaks near 0.3 GB.
MAX_ROWS = 2**21
# The most rows `export` formats into one string and writes at once.
CHUNK_ROWS = 2**16

# A timeline entry is (time, priority, kind, payload): OPEN or CLOSE, a
# lock action with the cell as payload; DAC, a hold-rail move as (value,
# changes), the only DAC that couples into the cells; FG, a slice of a
# playback run, as one `fsm.TickRun` at its first tick.  Coincident
# entries apply releases first (of cells locked at that instant, after
# the lock), then hold-rail moves, then lock closures, then fast-gate
# edges; samples observe the post-event state at their own timestamp.  A
# plan holds no DAC entry, and PLAY stretches and REFRESH modes in place
# of FG and slot entries; the chip's modes are `Scenario.modes`.
_PRIO = {"OPEN": 0, "DAC": 1, "CLOSE": 2, "FG": 3}


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ChipConfig:
    master_freq_hz: float = 35.84e6

    def __post_init__(self) -> None:
        if not self.master_freq_hz > 0:
            raise ValueError("master_freq_hz must be positive")


_TRACE_KINDS = ("cells", "hold", "conductance", "readout", "power", "temperature")


@dataclass(frozen=True)
class TraceConfig:
    sample_rate_hz: float = 1e3
    kinds: tuple[str, ...] = ()
    cells: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        for kind in self.kinds:
            if kind not in _TRACE_KINDS:
                raise ValueError(f"unknown kind {kind!r}")
        for c in self.cells:
            if not 0 <= c < N_CELLS:
                raise ValueError(f"cell {c!r} outside 0..{N_CELLS - 1}")
            if self.cells.count(c) > 1:
                raise ValueError(f"cell {c} is listed more than once")


@dataclass(frozen=True)
class SweepConfig:
    """The scenario's own sweep: a dotted config path and the values it takes."""

    axis: str
    values: tuple


@dataclass(frozen=True)
class GateSource:
    """A dot gate's voltage: a cell's output, a DAC's value or a constant."""

    kind: str
    value: int | str | float


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
    `power.budget`.  For a figure scenario, `figure_params` holds the
    values its driver reads, converted to their types, defaults filled in.
    `plan`, `modes` (the chip's (mode, regs) from each time it changes),
    `responses` and `rows` (what a run fills) are the walk at load (`_walk_schedule`).
    `points` are its own `sweep` block's, made at load: this base with one leaf
    swapped where the axis allows it (`_sweep_points`), else a full build.
    """

    name: str
    chip: ChipConfig
    analog: analog.CellParams
    rails: analog.SupplyRails
    device: devmod.DotDevice | None
    tank: devmod.TankReadout | None
    gate_sources: Mapping[str, GateSource]
    axis_gate: str | None
    power: thermal.PowerModel | None
    calibration: thermal.ThermalCalibration | None
    budget: thermal.CoolingBudget | None
    schedule: tuple[ScheduleItem, ...]
    duration_s: float
    traces: TraceConfig
    cell_targets: dict[int, float]
    figure: str | None
    figure_params: Mapping
    sweep: SweepConfig | None
    plan: tuple[tuple[float, int, str, object], ...]
    modes: tuple[tuple[float, tuple[fsm.Mode, protocol.RegisterFile]], ...]
    responses: tuple[tuple[float, protocol.Frame], ...]
    rows: int
    raw: Mapping  # the document as given, for sweeps and hashing
    overrides: tuple[str, ...] = ()  # the `--override` texts applied to `raw`
    points: tuple[Scenario, ...] = ()  # the own `sweep` block's points, made at load


# The keys a scenario document may have at its top level.
_TOP_LEVEL_KEYS = frozenset({
    "schema_version", "name", "seed", "chip", "analog", "rails", "device", "power",
    "schedule", "duration_s", "traces", "cell_targets", "figure", "figure_params", "sweep",
})
# Keys of the `device` section that do not belong to the dot itself.
_DEVICE_WIRING = ("gate_sources", "axis_gate")
_TANK_KEYS = ("bandwidth_hz",)
# A `cell_targets` key is a cell's index in plain decimal, as `str` writes it.
_CELL_KEYS = {str(c): c for c in range(N_CELLS)}


@contextmanager
def _section(where: str):
    """Report a parameter type's check or a model's refusal as a ScenarioError."""
    try:
        yield
    except ScenarioError:
        raise
    except (TypeError, ValueError, OverflowError, SimulationError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


@contextmanager
def refusing(what: str, errors=OSError):
    """Report `errors` raised inside as a ScenarioError, `what: reason`."""
    try:
        yield
    except errors as exc:
        raise ScenarioError(f"{what}: {exc}") from exc


def _number(value, convert=float):
    """`convert(value)` for a number a document gives, the one rule in every
    section: an int or a float, not a bool and not text, finite, an int only
    within float range and, where `convert` is int, a whole number (5.0
    reads as 5, 3.7 is refused).  Anything else is a ValueError."""
    with suppress(OverflowError):  # an int past float range
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value) and (convert is float or value == int(value))):
            return convert(value)
    raise ValueError(f"expected a finite {convert.__name__}, got {value!r}")


def _list_of(value, read=_number) -> tuple:
    """Each item of a list through `read` (None: each as it is)."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(value if read is None else map(read, value))


def _items(reads, value) -> tuple:
    """A list of exactly `len(reads)` items, each through its own reader."""
    if not isinstance(value, list) or len(value) != len(reads):
        raise TypeError(f"expected a list of {len(reads)}, got {value!r}")
    return tuple(read(item) for read, item in zip(reads, value))


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected text, got {value!r}")
    return value


def _floats_by_name(value) -> dict:
    """Each value of an object through `_number`."""
    if not isinstance(value, Mapping):
        raise TypeError(f"expected an object, got {value!r}")
    return {key: _number(v) for key, v in value.items()}


def _float_or_none(value) -> float | None:
    return None if value is None else _number(value)


def _finite_inside(v) -> None:
    """Refuse, as `_number` does, a non-finite number anywhere inside `v`,
    walked without recursion, so any depth that JSON loads is walked."""
    stack = [v]
    while stack:
        if isinstance(v := stack.pop(), float):
            _number(v)
        stack.extend(v.values() if isinstance(v, Mapping) else v if isinstance(v, list) else ())


_INT = partial(_number, convert=int)
# How `_build_section` reads each field of a parameter type, by its
# annotation: every number goes through `_number`, one value at a time, a
# list or pair is a JSON list, and text is a JSON string.
_READERS = {
    "str": _text,
    "float": _number,
    "float | None": _float_or_none,
    "tuple": partial(_list_of, read=None),
    "tuple[int, ...]": partial(_list_of, read=_INT),
    "tuple[str, ...]": partial(_list_of, read=_text),
    "tuple[tuple[float, float], ...]": partial(_list_of, read=partial(_items, (_number, _number))),
    "Mapping[str, float]": _floats_by_name,
}


def _object(raw, where: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise ScenarioError(f"{where}: expected an object")
    return raw


def _build_section(cls, raw, where: str):
    """Build parameter type `cls` from a section, whose keys are its fields.

    Each field is read by its annotation's `_READERS` entry, if it has
    one: each number in it goes through `_number`, so a field that holds
    one float gets a float (a JSON 1 is 1.0 wherever it goes), and a list,
    a pair or text is refused as anything else.  These readers are the one
    check of what a document or an `--override` or `--values` flag gives.
    """
    fields = dataclasses.fields(cls)
    unknown = set(_object(raw, where)) - {f.name for f in fields}
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {sorted(unknown)}")
    args = dict(raw)
    for field in fields:
        if field.name in raw and field.type in _READERS:
            with _section(f"{where}.{field.name}"):
                args[field.name] = _READERS[field.type](raw[field.name])
    with _section(where):
        return cls(**args)


def _gate_source(dot: devmod.DotDevice, gate: str, raw) -> GateSource:
    """Check one `device.gate_sources` entry and give it its type."""
    if gate not in dot.levers:
        raise ScenarioError(f"device: source for gate {gate!r} has no lever arm")
    if not isinstance(raw, Mapping) or set(raw) not in ({"cell"}, {"dac"}, {"const"}):
        raise ScenarioError(f"device: gate {gate!r} needs one of cell/dac/const")
    (kind, value), = raw.items()
    with _section(f"device: gate {gate!r}"):
        value = {"cell": _INT, "dac": _text, "const": _number}[kind](value)
        if kind == "cell" and not 0 <= value < N_CELLS:
            raise ValueError(f"cell {value} is not an index 0..{N_CELLS - 1}")
    return GateSource(kind, value)


def _dac_names(gate_sources: Mapping[str, GateSource]) -> set[str]:
    """The DACs something reads, which a `dac` item may move: the hold rail
    and the DAC of each `dac` gate source."""
    return {"v_hold", *(src.value for src in gate_sources.values() if src.kind == "dac")}


def _parse_register(ref) -> int:
    if isinstance(ref, str):
        if ref in protocol.NAME_TO_ADDRESS:
            return protocol.NAME_TO_ADDRESS[ref]
        raise ScenarioError(f"unknown register name {ref!r}")
    return _INT(ref)


def _parse_int(value) -> int:
    """A register value or word: a number, or text of `0x` and hex digits."""
    if isinstance(value, str):
        if not re.fullmatch("0x[0-9a-fA-F]+", value):
            raise ValueError(f"expected a finite int or text of 0x and hex digits, got {value!r}")
        return int(value, 16)
    return _INT(value)


def _parse_schedule_item(raw, index: int, dacs: Collection[str]) -> ScheduleItem:
    where = f"schedule[{index}]"
    if "t" not in _object(raw, where):
        raise ScenarioError(f"{where}: missing time key 't'")
    with _section(where):
        t = _number(raw["t"])
        keys = set(raw) - {"t"}
        if keys == {"write"}:
            frame = protocol.Frame(protocol.Opcode.WRITE,
                                   *_items((_parse_register, _parse_int), raw["write"]))
        elif keys == {"read"}:
            frame = protocol.Frame(protocol.Opcode.READ, _parse_register(raw["read"]))
        elif keys in ({"exec"}, {"nop"}):
            (key,) = keys
            if raw[key] is not True:
                raise ScenarioError(f"{where}: {key!r} takes only true, got {raw[key]!r}")
            frame = protocol.Frame(protocol.Opcode[key.upper()])
        elif keys == {"word"}:
            frame = protocol.decode_frame(_parse_int(raw["word"]))
        elif keys == {"dac"}:
            moves = sorted((str(k), _number(v)) for k, v in _object(raw["dac"], where).items())
            for name, _ in moves:
                if name not in dacs:
                    raise ScenarioError(f"{where}: dac {name!r} is neither 'v_hold' nor the dac"
                                        " of a device.gate_sources entry")
            return ScheduleItem(t, dac=tuple(moves))
        else:
            raise ScenarioError(f"{where}: expected one of write/read/exec/nop/word/dac")
    return ScheduleItem(time_s=t, frame=frame)


def build_scenario(raw: Mapping, *, points: bool = True) -> Scenario:
    """Validate a scenario document and build the typed configuration.

    Each section goes through `_build_section` or `_section`, so a
    malformed one is a ScenarioError naming it; so is a readout trace the
    tank cannot take, a schedule that `_walk_schedule` refuses, and a run
    past `MAX_ROWS` rows, which samples x (1 + traced cells + other kinds) seed.
    A `sweep` block makes its `points` here, which refuses a point that a
    run would refuse; a sweep point is built without them (`points=False`):
    `run_generic` runs a point, and does not sweep.
    """
    if not isinstance(raw, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ScenarioError(f"unknown top-level key(s) {sorted(unknown)}")
    with _section("seed"):  # read by no model, but written into the manifest
        _finite_inside(raw.get("seed"))

    chip = _build_section(ChipConfig, raw.get("chip", {}), "chip")
    cell = _build_section(analog.CellParams, raw.get("analog", {}), "analog")
    rails = _build_section(analog.SupplyRails, raw.get("rails", {}), "rails")
    traces = _build_section(TraceConfig, raw.get("traces", {}), "traces")

    dot = tank = axis_gate = None
    gate_sources: dict[str, GateSource] = {}
    if "device" in raw:
        draw = _object(raw["device"], "device")
        dot = _build_section(
            devmod.DotDevice,
            {k: v for k, v in draw.items() if k not in _DEVICE_WIRING + _TANK_KEYS},
            "device",
        )
        tank = _build_section(
            devmod.TankReadout,
            {k: v for k, v in draw.items() if k in _TANK_KEYS}
            | {"sample_rate_hz": traces.sample_rate_hz},
            "device",
        )
        sources = _object(draw.get("gate_sources", {}), "device.gate_sources")
        gate_sources = {gate: _gate_source(dot, gate, src) for gate, src in sources.items()}
        if (axis_gate := draw.get("axis_gate")) is not None:
            with _section("device.axis_gate"):
                if _text(axis_gate) not in gate_sources:
                    raise ScenarioError(f"device: axis_gate {axis_gate!r} has no gate source")

    power = calibration = budget = None
    if "power" in raw:
        praw = dict(_object(raw["power"], "power"))
        cal_raw = praw.pop("calibration", None)
        bud_raw = praw.pop("budget", None)
        power = _build_section(thermal.PowerModel, praw, "power")
        if cal_raw is not None:
            calibration = _build_section(thermal.ThermalCalibration, cal_raw, "power.calibration")
        if bud_raw is not None:
            budget = _build_section(thermal.CoolingBudget, bud_raw, "power.budget")

    if {"conductance", "readout"} & set(traces.kinds):
        if dot is None:
            raise ScenarioError("conductance/readout traces need a device section")
        if not gate_sources:
            raise ScenarioError("conductance/readout traces need device.gate_sources")
    if "readout" in traces.kinds:
        with _section("traces"):
            devmod.require_sample_rate(tank)
    if {"power", "temperature"} & set(traces.kinds) and power is None:
        raise ScenarioError("power/temperature traces need a power section")
    if "temperature" in traces.kinds and calibration is None:
        raise ScenarioError("temperature trace needs power.calibration")

    items = raw.get("schedule", [])
    if not isinstance(items, (list, tuple)):
        raise ScenarioError("schedule: expected a list")
    dacs = _dac_names(gate_sources)
    schedule = tuple(_parse_schedule_item(item, i, dacs) for i, item in enumerate(items))
    for prev, item in zip(schedule, schedule[1:]):
        if item.time_s < prev.time_s:
            raise ScenarioError("schedule times must be nondecreasing")
    with _section("duration_s"):
        duration = _number(raw.get("duration_s", 0.0))
    if duration < 0:
        raise ScenarioError("duration_s must be finite and non-negative")
    if schedule and schedule[-1].time_s > duration:
        raise ScenarioError("schedule extends past duration_s")

    targets = _object(raw.get("cell_targets", {}), "cell_targets")
    for key in targets:
        if key not in _CELL_KEYS:
            raise ScenarioError(f"cell_targets: key {key!r} is not a cell index 0..{N_CELLS - 1}")
    with _section("cell_targets"):
        targets = {_CELL_KEYS[k]: _number(v) for k, v in targets.items()}

    with _section("name"):
        name = _text(raw.get("name", "scenario"))
    if set(name) & set("/\\\0"):
        raise ScenarioError(f"name {name!r} must be a string with no path separator")
    with _section("duration_s"):  # duration_s * rate past float range
        samples = sample_count(duration, traces.sample_rate_hz)
    kinds = set(traces.kinds)
    rows = samples * (1 + len(traces.cells) * ("cells" in kinds) + len(kinds - {"cells"}))
    _check_budget(rows, f"duration_s: sampling {samples} times", duration)
    plan, modes, responses, rows = _walk_schedule(chip, schedule, duration, rows)
    scenario = Scenario(
        name=name,
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
        figure_params=_object(raw.get("figure_params", {}), "figure_params"),
        sweep=_build_section(SweepConfig, raw["sweep"], "sweep") if "sweep" in raw else None,
        plan=plan,
        modes=modes,
        responses=responses,
        rows=rows,
        raw=raw,
    )
    if "figure" in raw or scenario.figure_params:  # a null figure, or params with none, is refused
        from . import figures

        scenario = dataclasses.replace(scenario, figure_params=figures.check_sections(scenario))
    if points and scenario.sweep is not None:
        made = _sweep_points(scenario, scenario.sweep.axis, scenario.sweep.values)
        scenario = dataclasses.replace(scenario, points=tuple(made))
        if scenario.figure is not None:
            figures.check_sweep_values(scenario)
    return scenario


def read_document(path: str | Path):
    """The JSON document in the file at `path`, not yet built."""
    # ValueError: bad JSON, or an int of too many digits; RecursionError: nested too deep.
    with refusing(f"cannot load scenario {path}", (OSError, ValueError, RecursionError)):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def load_scenario(path: str | Path, overrides: Sequence[str] = ()) -> Scenario:
    return with_overrides(read_document(path), overrides)


# ---------------------------------------------------------------------------
# overrides / sweep axes


def flag_value(text: str):
    """An `--override` value or a `--values` item: its text read as JSON (refused if
    nested too deep), else the text itself, which the document's readers check."""
    with refusing("cannot read flag value", RecursionError):
        try:
            return json.loads(text)
        except ValueError:  # not JSON, or an int of too many digits
            return text


def _key(node, part: str, axis: str):
    """Object key or existing list index that `part` names in `node`."""
    if isinstance(node, list):
        try:
            node[int(part)]
        except (ValueError, IndexError) as exc:
            raise ScenarioError(f"axis {axis!r}: bad list index {part!r}") from exc
        return int(part)
    if isinstance(node, dict):
        return part
    raise ScenarioError(f"axis {axis!r}: {part!r} is not a container")


def _copy(node):
    return node.copy() if isinstance(node, (dict, list)) else node


def set_axis(raw: Mapping, axis: str, value) -> dict:
    """Return the document with the dotted `axis` set to `value`.

    Only the objects and lists on the axis path are copied; the rest is
    shared with `raw`, which is left as it was.  Missing object keys are
    created (so defaults-only sections can be overridden); misspelled keys
    are still rejected when the resulting document is validated.  List
    indices must exist.
    """
    doc = node = _copy(raw)
    *path, last = axis.split(".")
    for part in path:
        key = _key(node, part, axis)
        child = _copy(node[key] if isinstance(node, list) else node.get(key, {}))
        node[key] = child
        node = child
    node[_key(node, last, axis)] = value
    return doc


def apply_overrides(raw: Mapping, overrides: Iterable[str]) -> Mapping:
    """The document with each `KEY=VALUE` override set, in order, at the
    dotted axis KEY to `flag_value(VALUE)`; `build_scenario` checks the result."""
    doc = raw
    for text in overrides:
        if "=" not in text:
            raise ScenarioError(f"override {text!r} is not KEY=VALUE")
        axis, value_text = text.split("=", 1)
        doc = set_axis(doc, axis, flag_value(value_text))
    return doc


def with_overrides(raw: Mapping, overrides: Sequence[str]) -> Scenario:
    """Build the document with `overrides` applied; the scenario records them."""
    scenario = build_scenario(apply_overrides(raw, overrides))
    return dataclasses.replace(scenario, overrides=tuple(overrides))


# ---------------------------------------------------------------------------
# results


Block = tuple[np.ndarray, ...] | fsm.TickRun

# The `level` text of an `events` row, indexed by a tick run's level (0 or 1).
_LEVEL_NAMES = np.array([level.name for level in analog.Level])


def csv_columns(run: fsm.TickRun) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A tick run's `events` rows as float64, int64 and text columns, tick by
    tick, cells ascending: `Table.columns` reads them, `export` their text."""
    n = len(run.cells)
    return (
        np.repeat(run.times, n),
        np.tile(np.array(run.cells, dtype=np.int64), len(run.times)),
        np.full(len(run), "FG"),
        _LEVEL_NAMES[np.repeat(run.levels, n)],
    )


class Table:
    """A CSV table held as blocks of rows, in order, from where it is made to
    `export`: a block is either a tuple of 1-D numpy columns, `block[i]`
    holding values under `header[i]`, or an `events` `fsm.TickRun`, whose
    rows are `csv_columns(block)`.  `Table(header, columns)` is one block."""

    def __init__(self, header: Iterable[str], *blocks: Block) -> None:
        self.header = tuple(header)
        self.blocks = blocks

    @classmethod
    def from_rows(cls, header: Iterable[str], rows: list[tuple]) -> Table:
        """Object columns of the values as given, so an int past int64, or an int
        among floats, is written as it is."""
        header = tuple(header)
        columns = zip(*rows) if rows else [()] * len(header)
        return cls(header, tuple(np.array(column, dtype=object) for column in columns))

    def __len__(self) -> int:
        return sum(len(b) if isinstance(b, fsm.TickRun) else len(b[0]) for b in self.blocks)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The blocks' rows as one numpy array per column, made on each read."""
        parts = [csv_columns(b) if isinstance(b, fsm.TickRun) else b for b in self.blocks]
        return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))

    @property
    def rows(self) -> list[tuple]:
        """The rows, as tuples of Python scalars."""
        return list(zip(*(column.tolist() for column in self.columns)))


class LockAction(Enum):
    CLOSE = "CLOSE"
    OPEN = "OPEN"


class SwitchEvent(NamedTuple):
    """One switch actuation: either a fast-gate level or a lock action."""

    time_s: float
    cell: int
    fg_level: analog.Level | None = None
    lock_action: LockAction | None = None


def event_from_row(time_s: float, cell: int, action: str, level: str) -> SwitchEvent:
    """The event a row of the `time_s,cell,action,level` `events` table stands for."""
    if action == "FG":
        return SwitchEvent(time_s, cell, fg_level=analog.Level[level])
    return SwitchEvent(time_s, cell, lock_action=LockAction(action))


@dataclass
class TraceBundle:
    tables: dict[str, Table]
    summary: dict
    manifest: dict | None = None  # set by `run_scenario`, once per run

    @property
    def events(self) -> list[SwitchEvent]:
        """The run's switch events, one per row of its `events` table: one
        per lock action and per tick of each pulsed cell."""
        if "events" not in self.tables:
            return []
        return list(map(event_from_row, *(c.tolist() for c in self.tables["events"].columns)))


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):  # bool too, as 0/1
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _refuse_non_finite(values) -> None:
    """Refuse a NaN or an infinity among the floats `values`: no CSV holds one."""
    values = np.asarray(values, dtype=float)
    if len(bad := values[~np.isfinite(values)]):
        raise SimulationError(f"output table value {float(bad[0])!r} is not finite")


def _format_column(column: np.ndarray) -> list[str]:
    """`_format_cell` of every value of a column, by its dtype, refusing a
    non-finite float: text as it is; float64 and ints and bools (as 0/1) once per
    distinct int64 or bit pattern (-0.0 and 0.0 apart), indexed back; objects one by one."""
    kind = column.dtype.kind
    if kind == "U":
        return column.tolist()
    if kind not in "fbi":
        cells = column.tolist()
        _refuse_non_finite([v for v in cells if isinstance(v, (float, np.floating))])
        return list(map(_format_cell, cells))
    keys = column.astype(float if kind == "f" else np.int64, copy=False)
    unique, inverse = np.unique(keys.view(np.int64), return_inverse=True)
    fmt, values = (float.__repr__, unique.view(float)) if kind == "f" else (str, unique)
    if kind == "f":  # an int or a bool is always finite
        _refuse_non_finite(values)
    return np.array(list(map(fmt, values.tolist())), dtype=object)[inverse].tolist()


def _block_text(block: Block) -> Iterator[str]:
    """A table block's CSV lines, `CHUNK_ROWS` rows a string (a tick's rows
    are never split).  A columns block goes through `_format_column`; a
    `TickRun` block formats each tick time once and makes each tick's rows
    with one join, the time between the rows' precomputed rest."""
    if not isinstance(block, fsm.TickRun):
        for i in range(0, len(block[0]), CHUNK_ROWS):
            columns = (_format_column(column[i:i + CHUNK_ROWS]) for column in block)
            yield "\n".join(map(",".join, zip(*columns))) + "\n"
        return
    # Per level, "" and then each cell's ",{cell},FG,{LEVEL}\n": joined by a
    # tick's time, it gives that tick's rows.
    rests = [["", *(f",{c},FG,{name}\n" for c in block.cells)] for name in _LEVEL_NAMES.tolist()]
    ticks = max(1, CHUNK_ROWS // len(block.cells))
    for i in range(0, len(block.times), ticks):
        times = map(float.__repr__, block.times[i:i + ticks].tolist())
        yield "".join(map(str.join, times, map(rests.__getitem__, block.levels[i:i + ticks].tolist())))


def export(bundle: TraceBundle, outdir: str | Path) -> list[Path]:
    """Write one CSV per table, block by block, and the manifest `run_scenario` set
    into `outdir` (made if missing); refuse a failed write, removing this call's files."""
    outdir = Path(outdir)
    files = [(outdir / f"{key}.csv", chain([",".join(table.header) + "\n"],
                                           *map(_block_text, table.blocks)))
             for key, table in sorted(bundle.tables.items())]
    manifest = dict(bundle.manifest, outputs=[path.name for path, _ in files])
    files.append((outdir / f"manifest_{manifest['name']}.json",
                  [json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"]))
    written = []
    with refusing(f"cannot write {outdir}"):
        outdir.mkdir(parents=True, exist_ok=True)
        try:
            for path, lines in files:
                with open(path, "w", encoding="utf-8") as fh:
                    written.append(path)
                    fh.writelines(lines)
        except BaseException:  # no output directory holds tables without their manifest
            for path in written:
                path.unlink(missing_ok=True)
            raise
    return written


def _manifest(scenario: Scenario) -> dict:
    canonical = json.dumps(scenario.raw, sort_keys=True, separators=(",", ":"))
    return {
        "name": scenario.name,
        "figure": scenario.figure,
        "schema_version": SCHEMA_VERSION,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "overrides": list(scenario.overrides),
        "seed": scenario.raw.get("seed"),
        "versions": {"clfgsim": __version__, "numpy": np.__version__},
    }


# ---------------------------------------------------------------------------
# execution


def _walk_schedule(config: ChipConfig, schedule: Sequence[ScheduleItem], duration_s: float,
                   rows: int):
    """The run's plan, in walk order, modes, READ responses and rows; every
    refusal of a schedule is made here, as a ScenarioError naming the item
    or `duration_s`.

    One loop over the schedule, skipping `dac` items, then a NOP at
    `duration_s`.  Only WRITE and EXEC split playback: before each (and at
    the end) the stretch since the last one is one PLAY entry, at its start
    with the chip state there and its `fsm.tick_count` ticks, which the
    rows, the cursor and the run take.  A REFRESH mode is one entry,
    at the EXEC that entered it with the integer period, the cells and the
    slot count `stop`, made at the EXEC that leaves it or at the end: no
    WRITE changes a running refresh.  Their rows of the `events` table,
    each mode change's lock actions and each READ response add to `rows`,
    against `MAX_ROWS`.  Leaving a mode opens the cells it keeps `closed`:
    every masked cell under LOCKING, the last slot's under REFRESH.  The
    modes are (time, (mode, regs)) pairs in time order: the chip's at -inf,
    then its state after the last step at each time that changes it.
    """
    chip = fsm.ChipState(master_freq_hz=config.master_freq_hz)
    plan: list[tuple[float, int, str, object]] = []
    modes = {-math.inf: (chip.mode, chip.regs)}  # before any item: times may be negative
    responses: list[tuple[float, protocol.Frame]] = []
    closed: list[int] = []
    anchor, cells, period, stop = 0.0, [], 0, 0  # when the mode began; the rest only REFRESH reads
    cursor = 0.0
    end = ScheduleItem(duration_s, protocol.Frame(protocol.Opcode.NOP))
    try:
        for index, item in enumerate([*schedule, end]):
            t, frame = item.time_s, item.frame
            if frame is None:  # a DAC move, which `_expand_plan` reads from the schedule
                continue
            where = "duration_s" if item is end else f"schedule[{index}]"
            if item is end or frame.opcode in (protocol.Opcode.WRITE, protocol.Opcode.EXEC):
                if chip.mode == fsm.Mode.PULSING and t > cursor:
                    ticks = fsm.tick_count(chip, cursor, t)
                    rows += ticks * len(fsm.mask_cells(chip.regs.pulse_mask))
                    _check_budget(rows, "playback", t)
                    plan.append((cursor, _PRIO["FG"], "PLAY", (chip, ticks)))
                    chip = fsm.advance(chip, ticks)
                elif chip.mode == fsm.Mode.REFRESH and frame.opcode != protocol.Opcode.WRITE:
                    stop = _first_slot_at(t, anchor, period, cells)
                    rows += stop + max(0, stop - 1)  # slot k closes a cell; k > 0 opens one
                    _check_budget(rows, "refresh", t, _slot_time(stop, anchor, period, cells) < t)
                    plan.append((anchor, _PRIO["OPEN"], "REFRESH", (period, cells, stop)))
                cursor = t
            new_chip, response = fsm.step(chip, frame)
            if response is not None:
                responses.append((t, response))
                rows += 1
            if new_chip.mode != chip.mode or new_chip.regs != chip.regs:
                modes[t] = (new_chip.mode, new_chip.regs)
            if new_chip.mode != chip.mode:
                if chip.mode == fsm.Mode.REFRESH:
                    closed = [cells[(stop - 1) % len(cells)]] if stop else []
                cells = fsm.mask_cells(new_chip.regs.lock_mask)
                locked = cells if new_chip.mode == fsm.Mode.LOCKING else []
                rows += len(closed) + len(locked)
                release = _PRIO["CLOSE"] if anchor == t else _PRIO["OPEN"]  # after a lock at t
                for cell in closed:
                    plan.append((t, release, "OPEN", cell))
                closed = locked
                for cell in closed:
                    plan.append((t, _PRIO["CLOSE"], "CLOSE", cell))
                anchor, period = t, new_chip.regs.refresh_period
            _check_budget(rows, "the schedule", t)
            chip = new_chip
    except (SimulationError, OverflowError) as exc:  # OverflowError: ticks past float range
        raise ScenarioError(f"{where}: {exc}") from exc
    return tuple(plan), tuple(modes.items()), tuple(responses), rows


def _check_budget(rows: int, what: str, t: float, at_least: bool = False) -> None:
    """Refuse a run past `MAX_ROWS` rows; `at_least`: `rows` is a lower bound."""
    if rows > MAX_ROWS:
        raise ScenarioError(
            f"{what} up to t={t!r} s brings the run to {'at least ' * at_least}{rows} rows,"
            f" past the budget of {MAX_ROWS}"
        )


def _slot_time(k: int, anchor: float, period: int, cells: Sequence[int]) -> float:
    """REFRESH slot k's time: k * REFRESH_PERIOD / n after the EXEC at `anchor`, for n cells."""
    return anchor + k * period / len(cells)


def _first_slot_at(t: float, anchor: float, period: int, cells: Sequence[int]) -> int:
    """The first REFRESH slot not before `t`, or 2 * `MAX_ROWS` (where the mode
    alone is past the budget, and that slot is before `t`): the times rise, so bisect."""
    key = partial(_slot_time, anchor=anchor, period=period, cells=cells)
    return bisect_left(range(2 * MAX_ROWS), t, key=key)


def _expand_plan(scenario: Scenario, sample_times: np.ndarray, sampled: Collection[int]):
    """The timeline a run applies, sorted once by time, then priority, and
    each DAC's (time, value) changes from its value before the run
    (`rails.v_hold` for the hold rail, else 0.0).  A PLAY entry becomes its
    `fsm.playback` ticks, if any.  A REFRESH entry's slot k, k *
    REFRESH_PERIOD / n after its EXEC (slot n lands on the period), opens
    the previous cell after slot 0, moves the hold rail to the closing
    cell's `cell_targets` entry less the injection offset and closes
    cells[k % n].  The DAC moves, the schedule's then the slots', are
    sorted by time once, stably; only the hold rail's reach the timeline,
    as DAC entries (value, changes), `changes` whether the value differs
    from the previous move's.  Each tick run is cut before its first tick
    at or after each move that changes the rail and, when it pulses a cell
    of `sampled`, after its last tick at or before each of `sample_times`.
    Each slice (views of the run's columns) is an FG entry at its first tick.
    """
    offset = analog.injection_offset(scenario.analog)
    moves = [(item.time_s, *move) for item in scenario.schedule for move in item.dac]
    timeline: list[tuple[float, int, str, object]] = []
    runs = []
    for entry in scenario.plan:
        start, _prio, kind, payload = entry
        if kind == "PLAY":
            if len(run := fsm.playback(*payload, start)[1]):
                runs.append(run)
        elif kind == "REFRESH":
            period, cells, stop = payload
            for k in range(stop):
                slot = _slot_time(k, start, period, cells)
                if k:
                    timeline.append((slot, _PRIO["OPEN"], "OPEN", cell))
                cell = cells[k % len(cells)]
                if cell in scenario.cell_targets:
                    moves.append((slot, "v_hold", scenario.cell_targets[cell] - offset))
                timeline.append((slot, _PRIO["CLOSE"], "CLOSE", cell))
        else:
            timeline.append(entry)
    dacs = {name: [(-math.inf, 0.0)] for name in _dac_names(scenario.gate_sources)}
    dacs["v_hold"] = [(-math.inf, scenario.rails.v_hold)]
    cuts = []  # times of the hold-rail moves that change the rail
    for t, name, value in sorted(moves, key=itemgetter(0)):
        if name == "v_hold":
            changes = value != dacs[name][-1][1]
            timeline.append((t, _PRIO["DAC"], "DAC", (value, changes)))
            if changes:
                cuts.append(t)
        dacs[name].append((t, value))
    for run in runs:
        # starts[k]: a slice starts at tick k; starts[len] closes the last one.
        starts = np.zeros(len(run.times) + 1, dtype=bool)
        starts[[0, -1]] = True
        lo, hi = np.searchsorted(cuts, run.times[[0, -1]], "right")
        starts[np.searchsorted(run.times, cuts[lo:hi])] = True
        if not set(sampled).isdisjoint(run.cells):
            first = np.searchsorted(sample_times, run.times)  # first sample at or after
            starts[1:-1] |= first[:-1] < first[1:]
        bounds = np.flatnonzero(starts).tolist()
        timeline += [
            (float(run.times[k]), _PRIO["FG"], "FG",
             fsm.TickRun(run.times[k:j], run.levels[k:j], run.cells, run.period_s))
            for k, j in zip(bounds, bounds[1:])
        ]
    return sorted(timeline, key=itemgetter(0, 1)), dacs


def _segment_power(scenario: Scenario, state: tuple[fsm.Mode, protocol.RegisterFile]) -> float:
    """Chip dissipation under one (mode, regs) state of `Scenario.modes`."""
    mode, regs = state
    f_master = scenario.chip.master_freq_hz
    pulsing = mode == fsm.Mode.PULSING
    return thermal.total_power(
        len(fsm.mask_cells(regs.pulse_mask)) if pulsing else 0,
        f_master / (1 << regs.divider),
        scenario.rails.swing,
        scenario.analog,
        scenario.power,
        f_clock=f_master,
        clock_on=regs.clock_enabled,
        fsm_on=regs.fsm_enabled,
    )


def sample_count(duration_s: float, rate: float) -> int:
    """The length of `sample_grid`, floor(duration_s * rate) + 1; an
    OverflowError past float range, which only `build_scenario` meets."""
    return math.floor(duration_s * rate) + 1


def sample_grid(scenario: Scenario) -> np.ndarray:
    """The sample times of a run: k / rate for k = 0 ... floor(duration_s * rate)."""
    rate = scenario.traces.sample_rate_hz
    return np.arange(sample_count(scenario.duration_s, rate)) / rate


def _held(changes: Sequence[tuple[float, float]], times: np.ndarray) -> np.ndarray:
    """The value of a step-valued trace that each of `times` sees, the last
    set at or before it, from its `changes`: (time, value) pairs in the
    order they apply, the first at -inf."""
    at, values = zip(*changes)
    return np.array(values, dtype=float)[np.searchsorted(at, times, "right") - 1]


def _events(timeline: Sequence[tuple[float, int, str, object]]) -> Table:
    """The `events` table from the timeline alone, since each OPEN, CLOSE and
    FG entry fixes its own rows: the lock actions before each slice (and,
    at a closing entry, after the last) as one block of float64, int64 and
    text columns, no level, then the slice itself, a `TickRun` block."""
    blocks, locks = [], []
    for t, _prio, kind, payload in chain(timeline, [(math.inf, None, "FG", None)]):
        if kind in ("OPEN", "CLOSE"):
            locks.append((t, payload, kind))
        elif kind == "FG":
            if locks or payload is None and not blocks:  # no block at all: an empty table
                times, cells, actions = zip(*locks) if locks else ((), (), ())
                blocks.append((np.array(times, dtype=float), np.array(cells, dtype=np.int64),
                               np.array(actions, dtype=str), np.zeros(len(locks), dtype=str)))
                locks = []
            if payload is not None:
                blocks.append(payload)
    return Table(("time_s", "cell", "action", "level"), *blocks)


# A cell state's fields after `params`, which every state of a run shares,
# with the floats as their bit patterns (so 0.0 and -0.0 stay apart): two
# states of a run with one key are bit-equal, so a pure transition gives
# them bit-equal results.
_state_key = struct.Struct("=?BB5d").pack


def run_generic(scenario: Scenario) -> TraceBundle:
    """Execute a time-domain scenario and collect the requested traces.

    Every entry of the timeline (`_expand_plan`, with each tick run cut
    where it is read) is applied eagerly, in order: a slice is one
    `analog.apply_fg_run` call per distinct `_state_key` of its pulsed
    cells, whose result every cell with that key takes (exact, since
    `apply_fg_run` is pure), a DAC entry sets the hold rail, which a close
    locks onto, and fans `set_hold` out to the 32 cells if it changes the
    rail, and a lock action is one `lock` or `unlock` at its time.  The loop
    relies on one invariant: only WRITE and EXEC split playback and lock
    actions happen only at EXEC, so no lock action falls inside a run.
    Before each entry it records one block, the samples before that entry,
    as the sampled cells' `output_fields` they see; it logs nothing, since
    `_events` reads the `events` table from the timeline.  The traces are
    then evaluated as arrays, which the tables hold: the hold rail, DAC
    gates, power and temperature by `_held` from their change points
    (`_expand_plan`'s, and `Scenario.modes` once per distinct mode).  The
    bundle carries no manifest: `run_scenario` adds one.
    """
    kinds = scenario.traces.kinds
    traced = scenario.traces.cells if "cells" in kinds else ()
    sources = scenario.gate_sources if {"conductance", "readout"} & set(kinds) else {}
    cell_gates = [src.value for src in sources.values() if src.kind == "cell"]
    # What the samples read, each once: traced cells, then gate sources.
    sampled = list(dict.fromkeys([*traced, *cell_gates]))

    times = sample_grid(scenario)
    sample_times = times.tolist()
    n_samples = len(times)
    rails = scenario.rails
    timeline, dacs = _expand_plan(scenario, times, sampled)

    # Cell states are immutable, so all 32 can start as one value: at t = 0,
    # or at the first schedule item if that is earlier (load allows t < 0).
    start = min(0.0, scenario.schedule[0].time_s) if scenario.schedule else 0.0
    cells = [analog.ClfgCell(scenario.analog, t_last=start)] * N_CELLS
    v_hold = rails.v_hold  # the hold rail now, which a close locks onto
    # What each block of samples sees, the sampled cells' `output_fields`
    # (floats, so no state outlives its block), and its length.
    fields: list[float] = []
    counts: list[int] = []
    si = 0
    # The last entry only closes the block of the samples after the timeline.
    for t, _prio, kind, payload in chain(timeline, [(math.inf, None, "END", None)]):
        if (end := bisect_left(sample_times, t, si)) > si:
            for c in sampled:
                fields.extend(analog.output_fields(cells[c]))
            counts.append(end - si)
            si = end
        if kind == "DAC":
            v_hold, changes = payload  # type: ignore[misc]
            if changes:
                cells = list(map(analog.set_hold, cells, repeat(v_hold, N_CELLS)))
        elif kind == "FG":
            run: fsm.TickRun = payload  # type: ignore[assignment]
            done: dict[bytes, tuple] = {}
            for c in run.cells:
                if (key := _state_key(*cells[c][1:])) not in done:
                    done[key] = analog.apply_fg_run(
                        cells[c], run.times, run.levels, run.period_s, rails
                    )
                cells[c] = done[key]
        elif kind == "CLOSE":
            cells[payload] = analog.lock(cells[payload], v_hold, t)  # type: ignore[index]
        elif kind == "OPEN":
            cells[payload] = analog.unlock(cells[payload], t)  # type: ignore[index]

    # The sampled cells' fields sample by sample, evaluated in one call.
    per_sample = np.fromiter(fields, float, len(fields)).reshape(len(counts), -1).repeat(counts, axis=0)
    volts = analog.sample_output(
        scenario.analog, per_sample, times.repeat(len(sampled))
    ).reshape(n_samples, len(sampled))

    tables = {"events": _events(timeline)}
    if traced:
        cell = np.tile(np.array(traced, dtype=np.int64), n_samples)
        v_out = volts[:, [sampled.index(c) for c in traced]].ravel()
        tables["cells"] = Table(("time_s", "cell", "v_out_volts"),
                                (times.repeat(len(traced)), cell, v_out))
    if "hold" in kinds:
        tables["hold"] = Table(("time_s", "v_hold_volts"), (times, _held(dacs["v_hold"], times)))
    summary: dict[str, Any] = {
        "final_time_s": scenario.duration_s,
        "v_out_final": {
            c: analog.output_voltage(cells[c], scenario.duration_s)
            for c in scenario.traces.cells
        },
        "n_events": len(tables["events"]),
    }
    if sources:
        gates = {
            gate: volts[:, sampled.index(src.value)] if src.kind == "cell"
            else _held(dacs[src.value], times) if src.kind == "dac"
            else np.full(n_samples, src.value)
            for gate, src in sources.items()
        }
        g = devmod.conductance(scenario.device, gates)
        summary["conductance_final_s"] = float(g[-1])
        if "conductance" in kinds:
            tables["conductance"] = Table(("time_s", "conductance_s"), (times, g))
        if "readout" in kinds:
            axis = scenario.axis_gate
            tables["readout"] = Table(("time_s", "v_sdp_volts", "signal"), (
                times, gates[axis] if axis else np.zeros(n_samples),
                devmod.tank_signal(scenario.tank, g),
            ))
    if "power" in kinds or "temperature" in kinds:
        states = dict.fromkeys(state for _, state in scenario.modes)
        power = {state: _segment_power(scenario, state) for state in states}
        if "power" in kinds:
            watts = _held([(t, power[state]) for t, state in scenario.modes], times)
            tables["power"] = Table(("time_s", "power_watts"), (times, watts))
        if "temperature" in kinds:
            temp = {state: thermal.temperature(p, scenario.calibration) for state, p in power.items()}
            kelvin = _held([(t, temp[state]) for t, state in scenario.modes], times)
            tables["temperature"] = Table(("time_s", "temperature_k"), (times, kelvin))
    if scenario.responses:
        tables["responses"] = Table.from_rows(
            ("time_s", "opcode", "address", "data"),
            [(t, int(f.opcode), f.address, f.data) for t, f in scenario.responses],
        )

    return TraceBundle(tables=tables, summary=summary)


def run_scenario(scenario: Scenario) -> TraceBundle:
    """Run a scenario (through its figure driver if it names one); add its manifest."""
    if scenario.figure is not None:
        from . import figures

        bundle = figures.run_figure(scenario)
    else:
        bundle = run_generic(scenario)
    bundle.manifest = _manifest(scenario)
    return bundle


# ---------------------------------------------------------------------------
# sweeps


def _sweep_points(base: Scenario, axis: str, values: Iterable) -> list[Scenario]:
    """The points of `base`'s `sweep` block, made by `build_scenario` only:
    `base` with `axis` set to each value, in order.  Each point equals
    `build_scenario(set_axis(base.raw, axis, value))`, the oracle, or is
    refused with its message, as a ScenarioError naming the axis.

    Two leaves are read at load only by their own parse: `rails.v_hold`,
    and `schedule.<i>.dac.<name>` where item i of the base is a `dac` item,
    which the walk skips.  A point on either parses the new leaf as a full
    build does and swaps it into the base, as `rails` or as that schedule
    item; a point on any other axis is a full build.
    """
    parts = axis.split(".")
    dac = None  # the `dac` item that the axis names, if it names one
    if len(parts) == 4 and parts[0] == "schedule" and parts[2] == "dac":
        with suppress(ScenarioError):  # no such item: the full build refuses the axis
            i = _key(base.raw.get("schedule"), parts[1], axis) % len(base.schedule)
            dac = i if base.schedule[i].frame is None else None
    docs = [set_axis(base.raw, axis, value) for value in values]  # its refusal names the axis
    points = []
    with refusing(f"axis {axis!r}", ScenarioError):
        for doc in docs:
            if axis == "rails.v_hold":
                swap = {"rails": _build_section(analog.SupplyRails, doc["rails"], "rails")}
            elif dac is not None:
                item = _parse_schedule_item(doc["schedule"][dac], dac, _dac_names(base.gate_sources))
                swap = {"schedule": (*base.schedule[:dac], item, *base.schedule[dac + 1:])}
            else:
                points.append(build_scenario(doc, points=False))
                continue
            points.append(dataclasses.replace(base, raw=doc, overrides=(), points=(), **swap))
    return points


def sweep(scenario: Scenario) -> Iterator[TraceBundle]:
    """Generic runs of the scenario's `sweep` block's points, made at load, in order,
    each as it is read, so one point's tables are held at a time: the only sweep."""
    return map(run_generic, scenario.points)
