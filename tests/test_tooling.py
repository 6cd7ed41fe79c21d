"""Checks that tools and documents outside the package stay in step with it:
the benchmark's trace mode wraps clfgsim functions by name, its workloads'
closed-form row counts match the ones counted at load, README.md lists each
scenario section's keys and each figure's `figure_params`, every number
field it lists refuses what is no number, and each input of
`tests/identical.py` loads or is refused as its list says; and checks on the
package's own structure."""
import ast
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from clfgsim import analog, cli, device, engine, figures, fsm, protocol, thermal

import identical

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
WORKLOADS = ROOT / "bench" / "workloads.py"
PACKAGE = ROOT / "src" / "clfgsim"


def _bench_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def _traced() -> tuple:
    return _bench_module("bench_spans", SPANS).TRACED


@pytest.mark.parametrize("pair", _traced(), ids=".".join)
def test_traced_function_exists(pair):
    module, name = pair
    assert callable(getattr(importlib.import_module(f"clfgsim.{module}"), name, None))


def _bench_documents(name: str) -> list[tuple[dict, int]]:
    """Each document the workload runs, with the rows its run fills in
    closed form: `switch_events` + `samples` + the sample grid + the READ
    items; for every variant of a generated workload, and each point of
    the sweep."""
    workloads = _bench_module("bench_workloads", WORKLOADS)

    def rows(doc: dict, switch_events: int, samples: int) -> int:
        reads = sum("read" in item for item in doc["schedule"])
        return switch_events + samples + workloads._n_times(doc) + reads

    if name == "sweep":
        sweep = workloads.make(name, 0)
        axis, values = sweep.doc["sweep"]["axis"], sweep.doc["sweep"]["values"]
        per_point = (sweep.switch_events // sweep.runs, sweep.samples // sweep.runs)
        return [(doc, rows(doc, *per_point))
                for doc in (engine.set_axis(sweep.doc, axis, v) for v in values)]
    variants = workloads.VARIANTS if name in ("pulse", "refresh") else 1
    return [(w.doc, rows(w.doc, w.switch_events, w.samples))
            for w in map(workloads.make, [name] * variants, range(variants))]


def _filled_rows(doc: dict) -> int:
    """The rows a generic run of `doc` fills, read back from its tables:
    every table's rows and the sample grid, and for fig3f the envelope,
    one value per `v_sdp_values` entry and per sample of its cell from
    `pulse_start_s` on."""
    scenario = engine.build_scenario(doc)
    tables = engine.run_generic(scenario).tables
    rows = sum(len(table.columns[0]) for table in tables.values()) + len(engine.sample_grid(scenario))
    if scenario.figure == "fig3f":
        params = scenario.figure_params
        pulsed = [t for t, c, _ in tables["cells"].rows
                  if c == params["cell"] and t >= params["pulse_start_s"]]
        rows += len(params["v_sdp_values"]) * len(pulsed)
    return rows


def _assert_budget_is(doc: dict, rows: int, monkeypatch) -> None:
    """A budget of exactly `rows` takes `doc`; one less refuses it, quoting `rows`."""
    monkeypatch.setattr(engine, "MAX_ROWS", rows)
    engine.build_scenario(doc)
    monkeypatch.setattr(engine, "MAX_ROWS", rows - 1)
    with pytest.raises(engine.ScenarioError,
                       match=f"brings the run to {rows} rows, past the budget of {rows - 1}$"):
        engine.build_scenario(doc)


@pytest.mark.parametrize("name", ["pulse", "refresh", "readout", "sweep"])
def test_load_counts_the_bench_switch_events(name, monkeypatch):
    # Load counts every row a run fills, the closed-form count of the bench.
    for doc, rows in _bench_documents(name):
        _assert_budget_is(doc, rows, monkeypatch)


@pytest.mark.parametrize("name", ["fig3b", "fig3c", "fig3e", "fig3f", "fig3g"])
def test_load_counts_the_rows_a_figure_run_fills(name, monkeypatch):
    doc = json.loads((PACKAGE / "scenarios" / f"{name}.scn").read_text(encoding="utf-8"))
    _assert_budget_is(doc, _filled_rows(doc), monkeypatch)


def _counting(calls: dict, name: str):
    """`analog.<name>`, counting its calls in `calls[name]`."""
    original = getattr(analog, name)

    def counted(*args):
        calls[name] += 1
        return original(*args)
    return counted


# `bench/smoke.py`'s `counts` pins these on each workload, outside tier-1:
# `set_hold` runs on all 32 cells at each hold-DAC move, and each lock
# action is one `lock` or `unlock`.  Neither input pulses a cell.  The
# bench counts events and sample rows from each `engine.run_generic`
# result (`bench/spans.py`), so a sweep makes one call per point, each
# returning that point's whole bundle.
@pytest.mark.parametrize("name, seed, set_hold, runs, events, samples", [
    ("refresh", 21, 61_440, 1, 3_839, 23_072), ("sweep", 0, 3_840, 121, 1_210, 605),
], ids=["refresh-21-61440", "sweep-0-3840"])
def test_run_makes_the_calls_the_bench_pins(name, seed, set_hold, runs, events, samples,
                                            monkeypatch):
    workloads = _bench_module("bench_workloads", WORKLOADS)
    workload = workloads.make(name, seed)
    calls = dict.fromkeys(("set_hold", "lock", "unlock"), 0)
    for fn in calls:
        monkeypatch.setattr(analog, fn, _counting(calls, fn))
    counters = _bench_module("bench_spans", SPANS).RESULT_COUNTS["engine.run_generic"]
    counted = dict.fromkeys(["engine.run_generic.calls", *counters], 0)
    real = engine.run_generic

    def run_generic(*args):
        bundle = real(*args)
        counted["engine.run_generic.calls"] += 1
        for counter, count in counters.items():
            counted[counter] += count(bundle)
        return bundle
    monkeypatch.setattr(engine, "run_generic", run_generic)
    engine.run_scenario(engine.build_scenario(workload.doc))
    assert calls["set_hold"] == set_hold == workload.dac_moves * workloads.N_CELLS
    assert calls["lock"] + calls["unlock"] == workload.switch_events
    assert (runs, events, samples) == (workload.runs, workload.switch_events, workload.samples)
    assert counted == {"engine.run_generic.calls": runs, "engine.run_generic.events": events,
                       "engine.run_generic.samples": samples}


def test_engine_defines_no_function_inside_another():
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    tree = ast.parse((PACKAGE / "engine.py").read_text(encoding="utf-8"))
    nested = [inner.lineno for outer in ast.walk(tree) if isinstance(outer, functions)
              for inner in ast.walk(outer) if inner is not outer and isinstance(inner, functions)]
    assert nested == []


def test_register_access_is_checked_only_in_protocol():
    # The FSM walk checks each frame through `apply_write` and `RegisterFile.read`.
    users = [path.name for path in PACKAGE.glob("*.py")
             if path.name != "protocol.py" and "check_access" in path.read_text(encoding="utf-8")]
    assert users == []


def test_events_row_is_spelled_only_in_engine():
    # `engine` makes, writes and reads the `time_s,cell,action,level` table,
    # so the controller needs nothing of the cell physics.
    tree = ast.parse((PACKAGE / "fsm.py").read_text(encoding="utf-8"))
    package = {name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
               for name in ([node.module] if node.module else [a.name for a in node.names])}
    assert package == {"errors", "protocol"}
    spellers = [(path.name, token) for path in PACKAGE.glob("*.py") if path.name != "engine.py"
                for token in ('"FG"', "'FG'", "csv_columns", "event_from_row")
                if token in path.read_text(encoding="utf-8")]
    assert spellers == []


def test_sweep_points_are_made_only_by_build_scenario():
    # A sweep has one representation, the document's `sweep` block: the
    # `sweep` command's flags write it, and `engine.sweep` runs its points.
    tree = ast.parse((PACKAGE / "engine.py").read_text(encoding="utf-8"))
    [sweep] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name == "sweep"]
    assert [arg.arg for arg in sweep.args.args] == ["scenario"]
    assert not (sweep.args.vararg or sweep.args.kwonlyargs or sweep.args.kwarg)
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(outer, ast.FunctionDef):
                callers += [(path.name, outer.name) for node in ast.walk(outer)
                            if isinstance(node, ast.Call)
                            and "_sweep_points" in (getattr(node.func, "id", None),
                                                    getattr(node.func, "attr", None))]
    assert callers == [("engine.py", "build_scenario")]


@pytest.mark.parametrize("path", sorted(
    path.relative_to(ROOT) for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py")
), ids=str)
def test_source_parses_as_python_3_10(path):
    # The oldest interpreter the package supports: no syntax newer than 3.10.
    ast.parse((ROOT / path).read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_cli_import_leaves_scipy_out():
    # SciPy is a test dependency only: the program must not load it.
    code = "import sys, clfgsim.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


def test_cli_import_leaves_process_pools_out():
    # A sweep runs in one process: the program loads no process machinery.
    code = ("import sys, clfgsim.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_identical_imports_only_the_standard_library():
    # `tests/identical.py` runs a tree it never imports, on an install without the test extra.
    tree = ast.parse((ROOT / "tests" / "identical.py").read_text(encoding="utf-8"))
    tops = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names}
    tops |= {node.module.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert tops <= sys.stdlib_module_names, tops - sys.stdlib_module_names
    assert not tops & {"clfgsim", "pytest", "hypothesis", "numpy"}


@pytest.fixture(scope="module")
def identical_inputs(tmp_path_factory) -> Path:
    """A directory holding every input of `identical.ENTRIES`, this tree's scenarios among them."""
    out = tmp_path_factory.mktemp("identical")
    identical.write_inputs(PACKAGE.parent, out)
    return out


@pytest.mark.parametrize("name, code, command", [
    pytest.param(*entry, id=entry[0]) for entry in identical.ENTRIES
    if entry[1] or entry[2][0] in ("run", "sweep")
])
def test_identical_entry_is_what_the_list_says(name, code, command, identical_inputs, monkeypatch,
                                               capsys):
    # A document that `run` or `sweep` runs loads, under its overrides; a
    # refusal gives the exit code listed for it.  So a broken input fails here.
    monkeypatch.chdir(identical_inputs)
    if code:
        out = ["--out", f"{name}/out"] if command[0] in identical.WRITERS else []
        assert cli.main([*command, *out]) == code
        assert capsys.readouterr().err.startswith("error: ")
    else:
        overrides = [arg for flag, value in zip(command, command[1:]) if flag == "--override"
                     for arg in (flag, value)]
        assert cli.main(["validate", command[1], *overrides]) == 0


def test_failing_hypothesis_test_is_reported_under_this_config(tmp_path):
    # Every warning is an error here; one that hypothesis raises while it
    # reports a failing example must not end the pytest run.
    (tmp_path / "test_given.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n"
        "def test_passes():\n"
        "    pass\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_given.py")],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert re.search(r"^1 failed, 1 passed\b", result.stdout, re.MULTILINE), result.stdout


def test_package_builds_no_tuple_by_tuple_new():
    # A cell state is a plain tuple display, not a `ClfgCell` built field by field.
    users = [path.name for path in PACKAGE.glob("*.py")
             if "tuple.__new__" in path.read_text(encoding="utf-8")]
    assert users == []


def _fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


# The keys `build_scenario` accepts in each section: the parameter type's
# fields, with `device` adding its wiring and `power` its two subsections.
SCHEMA_KEYS = {
    "top level": set(engine._TOP_LEVEL_KEYS),
    "chip": _fields(fsm.ChipConfig),
    "analog": _fields(analog.CellParams),
    "rails": _fields(analog.SupplyRails),
    "device": _fields(device.DotDevice) | _fields(device.TankReadout) | {"gate_sources", "axis_gate"},
    "power": _fields(thermal.PowerModel) | {"calibration", "budget"},
    "power.calibration": _fields(thermal.ThermalCalibration),
    "power.budget": _fields(thermal.CoolingBudget),
    "traces": _fields(engine.TraceConfig),
}


def _readme_tables() -> dict[str, set[str]]:
    """Backticked keys in the first column of the table under each section:
    a `### `name`` (or deeper) heading, or "top level" for the table under
    `## Scenario schema v1`; any other heading ends a section."""
    tables: dict[str, set[str]] = {}
    section = None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            match = re.match(r"###+ `([\w.]+)`", line)
            section = match.group(1) if match else "top level" if line == "## Scenario schema v1" else None
        elif line.startswith("| `") and section is not None:
            first = line.split("|")[1]
            tables.setdefault(section, set()).update(re.findall(r"`([^`]+)`", first))
    return tables


@pytest.mark.parametrize("section", SCHEMA_KEYS)
def test_readme_schema_table_lists_the_accepted_keys(section):
    assert _readme_tables().get(section) == SCHEMA_KEYS[section]


def _readme_figure_params() -> dict[str, dict[str, tuple[str, str]]]:
    """figure -> key -> (type, default) columns, from the README's
    `figure_params` table, whose rows start with the figure's name."""
    listed: dict[str, dict[str, tuple[str, str]]] = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if re.match(r"\| fig\w+ \|", line):
            _, figure, keys, type_, default, _ = (cell.strip() for cell in line.split("|"))
            for key in re.findall(r"`([^`]+)`", keys):
                listed.setdefault(figure, {})[key] = (type_, default)
    return listed


def test_readme_figure_params_table_matches_the_drivers():
    listed = _readme_figure_params()
    assert {figure: set(keys) for figure, keys in listed.items()} == {
        figure: set(table) for figure, table in figures._PARAMS.items()
    }
    for figure, table in figures._PARAMS.items():
        for key, (_convert, default) in table.items():
            assert (listed[figure][key][1] == "required") == (default is None), (figure, key)


# The parameter types each typed section of the README schema is built into.
SECTION_TYPES = {
    "chip": (fsm.ChipConfig,), "analog": (analog.CellParams,), "rails": (analog.SupplyRails,),
    "device": (device.DotDevice, device.TankReadout), "power": (thermal.PowerModel,),
    "power.calibration": (thermal.ThermalCalibration,), "power.budget": (thermal.CoolingBudget,),
    "traces": (engine.TraceConfig,),
}


def test_no_parameter_is_copied_into_another_type():
    # One copy of each value: no field of the chip state or of a type that
    # `build_scenario` builds repeats a field of another such type, but the
    # power model's clock-block rate, a parameter of its own.
    types = {fsm.ChipState, engine.SweepConfig, engine.GateSource, engine.ScheduleItem,
             protocol.Frame, *(cls for classes in SECTION_TYPES.values() for cls in classes)}
    owners: dict[str, list[str]] = {}
    for cls in types:
        for name in _fields(cls):
            owners.setdefault(name, []).append(f"{cls.__module__.split('.')[-1]}.{cls.__name__}")
    repeated = {name: sorted(where) for name, where in owners.items() if len(where) > 1}
    assert repeated == {"master_freq_hz": ["fsm.ChipConfig", "thermal.PowerModel"]}


# How one number sits in a field of each annotation, and what it is due as.
_ONE, _LIST = (lambda v: v), (lambda v: [v])
_PLACES = {
    "float": (_ONE, "float"),
    "float | None": (_ONE, "float"),
    "Mapping[str, float]": (lambda v: {"lw": v}, "float"),
    "tuple[int, ...]": (_LIST, "int"),
    "tuple[tuple[float, float], ...]": (lambda v: [[v, 0.1], [2e-6, 0.2]], "float"),
}
# A document that loads, with every section the number fields need.
_LOADS = {"schema_version": 1, "duration_s": 1.0,
          "power": {"calibration": {"points": [[1e-6, 0.1], [2e-6, 0.2]]}}}
_GATE = {"levers": {"lw": 0.2}, "gate_sources": {"lw": {}}}


def _number_places() -> list:
    """(where, due, doc, axis, wrap) for every number a document gives, `doc`
    with `wrap(value)` at `axis` putting a value there: each number field of
    the README schema tables, `duration_s`, the schedule's `t` and `dac`
    values, `cell_targets`, a gate source's `const` and `cell`, and each
    number of the README's `figure_params` table."""
    places = []
    for section, keys in sorted(_readme_tables().items()):
        for cls in SECTION_TYPES.get(section, ()):
            for field in dataclasses.fields(cls):
                if field.name in keys and re.search(r"\b(float|int)\b", field.type):
                    wrap, due = _PLACES[field.type]
                    axis = f"{section}.{field.name}"
                    places.append(pytest.param(axis, due, _LOADS, axis, wrap, id=axis))
    for where, due, doc, axis in [
        ("duration_s", "float", _LOADS, "duration_s"),
        ("schedule[0]", "float", dict(_LOADS, schedule=[{"t": 0.0, "nop": True}]), "schedule.0.t"),
        ("schedule[0]", "float", dict(_LOADS, schedule=[{"t": 0.0, "dac": {}}]),
         "schedule.0.dac.v_hold"),
        ("cell_targets", "float", _LOADS, "cell_targets.3"),
        ("device: gate 'lw'", "float", dict(_LOADS, device=_GATE), "device.gate_sources.lw.const"),
        ("device: gate 'lw'", "int", dict(_LOADS, device=_GATE), "device.gate_sources.lw.cell"),
    ]:
        places.append(pytest.param(where, due, doc, axis, _ONE, id=axis))
    for figure, keys in sorted(_readme_figure_params().items()):
        doc = json.loads((PACKAGE / "scenarios" / f"{figure}.scn").read_text(encoding="utf-8"))
        for key, (type_, _default) in keys.items():
            if type_ != "string":
                due, wrap = re.search("int|float", type_)[0], _LIST if "list" in type_ else _ONE
                places.append(pytest.param(f"figure_params: {key}", due, doc,
                                           f"figure_params.{key}", wrap, id=f"{figure}.{key}"))
    return places


@pytest.mark.parametrize("where, due, doc, axis, wrap", _number_places())
@pytest.mark.parametrize("value", ["0.5", True, math.nan, math.inf, 10**400, [1]],
                         ids=["text", "bool", "NaN", "Infinity", "past-float-range", "list"])
def test_every_number_field_refuses_what_is_no_number(where, due, doc, axis, wrap, value,
                                                      tmp_path):
    # `engine._number` decides what a number is, in every section, with one message.
    path = tmp_path / "refused.scn"
    path.write_text(json.dumps(engine.set_axis(doc, axis, wrap(value))), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["validate", str(path)])
    refusal = f"error: {where}: expected a finite {due}, got {value!r}\n"
    assert (code, err.getvalue()) == (1, refusal)


def test_whole_float_reads_as_an_int():
    # `traces.cells: [5.0]` was refused, as `cell 5.0 outside 0..31`.
    gate = dict(_GATE, gate_sources={"lw": {"cell": 5.0}})
    doc = dict(_LOADS, traces={"cells": [5.0]}, device=gate)
    scenario = engine.build_scenario(doc)
    assert scenario.traces.cells == (5,) and scenario.gate_sources["lw"].value == 5
    assert type(scenario.traces.cells[0]) is type(scenario.gate_sources["lw"].value) is int
