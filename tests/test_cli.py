import contextlib
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clfgsim import analog, cli, engine, figures, protocol, thermal
from clfgsim.errors import SimulationError

from conftest import drawn_schedule


MINIMAL = {
    "schema_version": 1,
    "name": "mini",
    "duration_s": 0.5,
    "rails": {"v_hold": -1.1},
    "schedule": [
        {"t": 0.0, "write": ["CTRL", 2]},
        {"t": 0.0, "write": ["LOCK_MASK_LO", 1]},
        {"t": 0.0, "exec": True},
        {"t": 0.2, "write": ["LOCK_MASK_LO", 0]},
        {"t": 0.2, "exec": True},
    ],
    "traces": {"sample_rate_hz": 10.0, "kinds": ["cells"], "cells": [0]},
}


def _mini(**sections) -> dict:
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(sections)
    return doc


def _without(name: str, section: str) -> dict:
    doc = json.loads(cli.bundled_scenario_path(name).read_text())
    del doc[section]
    return doc


def _without_kind(name: str, kind: str) -> dict:
    doc = json.loads(cli.bundled_scenario_path(name).read_text())
    doc["traces"]["kinds"].remove(kind)
    return doc


def _with_param(name: str, key: str, value) -> dict:
    doc = json.loads(cli.bundled_scenario_path(name).read_text())
    doc["figure_params"][key] = value
    return doc


_DOT = {"levers": {"lw": 0.2}, "gate_sources": {"lw": {"cell": 0}}}
_NAN, _INF = float("nan"), float("inf")
# JSON nested deeper than any Python's `json` reads: its limit, and the text
# of its RecursionError, differ between versions, so tests match one line.
_DEEP = "[" * 100_000 + "]" * 100_000


def _traced(kind: str) -> dict:
    return {"sample_rate_hz": 10.0, "kinds": [kind]}


def _pulse_cell_0(divider: int) -> list[dict]:
    """Pulse cell 0 from t = 0 at `DIVIDER` `divider` of the default clock."""
    return [{"t": 0.0, "write": ["CTRL", 7]}, {"t": 0.0, "write": ["DIVIDER", divider]},
            {"t": 0.0, "write": ["PULSE_MASK_LO", 1]}, {"t": 0.0, "exec": True}]


# One malformed section per document; each must be refused at load.
MALFORMED = {
    "c_pulse_text": _mini(analog={"c_pulse": "abc"}),
    "c_p_negative": _mini(analog={"c_p": -1e-12}),
    "peak_width_zero": _mini(device=dict(_DOT, peak_width=0), traces=_traced("readout")),
    "bandwidth_zero": _mini(device=dict(_DOT, bandwidth_hz=0), traces=_traced("readout")),
    "calibration_not_increasing": _mini(
        power={"calibration": {"points": [[1e-6, 0.1], [2e-6, 0.05]]}},
        traces=_traced("temperature"),
    ),
    "static_floor_negative": _mini(power={"static_floor_w": -1}, traces=_traced("power")),
    "budget_negative": _mini(power={"budget": {"budget_watts_at_100mk": -1}}),
    "master_freq_zero": _mini(chip={"master_freq_hz": 0}),
    "fig3f_without_device": _without("fig3f", "device"),
    "lever_text": _mini(
        device={"levers": {"lw": "x"}, "gate_sources": {"lw": {"cell": 0}}},
        traces=_traced("conductance"),
    ),
    "t_nan": _mini(schedule=[{"t": "nan", "write": ["CTRL", 2]}]),
    "t_inf": _mini(schedule=[{"t": "inf", "write": ["CTRL", 2]}]),
    "t_minus_infinity": _mini(schedule=[{"t": "-Infinity", "write": ["CTRL", 2]}]),
    "t_nan_number": _mini(schedule=[{"t": float("nan"), "exec": True}]),
    "gate_dac_list": _mini(
        device={"levers": {"lw": 0.2}, "gate_sources": {"lw": {"dac": ["x"]}}},
        traces=_traced("conductance"),
    ),
    "gate_cell_float": _mini(
        device={"levers": {"lw": 0.2}, "gate_sources": {"lw": {"cell": 1.7}}},
        traces=_traced("conductance"),
    ),
    "gate_const_nan": _mini(
        device={"levers": {"lw": 0.2}, "gate_sources": {"lw": {"const": "nan"}}},
        traces=_traced("conductance"),
    ),
    "fig3b_without_conductance": _without_kind("fig3b", "conductance"),
    "fig3c_without_cells": _without_kind("fig3c", "cells"),
    "fig3e_without_hold": _without_kind("fig3e", "hold"),
    "fig3f_without_cells": _without_kind("fig3f", "cells"),
    "fig3g_without_readout": _without_kind("fig3g", "readout"),
    "overrides_key": _mini(_overrides=["analog.c_pulse=9e-12"]),
    # A number must be finite, and a bool is no number outside a bool field.
    "c_pulse_nan": _mini(analog={"c_pulse": _NAN}),
    "v_high_nan": _mini(rails={"v_high": _NAN}),
    "v_hold_infinite": _mini(rails={"v_hold": _INF}),
    "lever_nan": _mini(device=dict(_DOT, levers={"lw": _NAN}), traces=_traced("conductance")),
    "bandwidth_nan": _mini(device=dict(_DOT, bandwidth_hz=_NAN), traces=_traced("readout")),
    "dac_nan": _mini(schedule=[{"t": 0, "dac": {"v_hold": _NAN}}]),
    "fig4b_swing_nan": _with_param("fig4b", "swing", _NAN),
    "fig4e_swing_nan": _with_param("fig4e", "swing", _NAN),
    "master_freq_infinite": _mini(chip={"master_freq_hz": _INF}),
    "sample_rate_infinite": _mini(traces={"sample_rate_hz": _INF, "kinds": ["cells"], "cells": [0]}),
    "fig3c_open_time_nan": _with_param("fig3c", "open_time_s", _NAN),
    "traced_cell_bool": _mini(traces={"sample_rate_hz": 10.0, "kinds": ["cells"], "cells": [True]}),
    "gate_cell_bool": _mini(
        device={"levers": {"lw": 0.2}, "gate_sources": {"lw": {"cell": True}}},
        traces=_traced("conductance"),
    ),
    "c_pulse_bool": _mini(analog={"c_pulse": True}),
    "write_value_bool": _mini(schedule=[{"t": 0.0, "write": ["CTRL", True]}]),
    # Figure parameters and names that used to fail only at run time.
    "fig3f_settle_fraction_2": _with_param("fig3f", "settle_fraction", 2.0),
    "fig3f_pulse_start_after_samples": _with_param("fig3f", "pulse_start_s", 1.0),
    "name_with_separator": _mini(name="a/b"),
    "name_list": _mini(name=["x"]),
    # Values that load used to narrow or ignore without a word.
    "write_value_fraction": _mini(schedule=[{"t": 0.0, "write": ["DIVIDER", 3.7]}]),
    # REFRESH always aims below the target by the injection offset; no key turns that off.
    "compensate_injection_key": _mini(chip={"compensate_injection": True}),
    "fig4b_unknown_param": _with_param("fig4b", "swingg", 0.2),
    # A field that holds one number, given text or a list: it broke the run.
    "v_hold_text": _mini(rails={"v_hold": "x"}),
    "q_inj_numeric_text": _mini(analog={"q_inj": "1"}),
    "v_offset_text": _mini(device=dict(_DOT, v_offset="x"), traces=_traced("conductance")),
    "power_master_freq_list": _mini(power={"master_freq_hz": [1]}, traces=_traced("power")),
    # The pulsing capacitors are the `analog` section's; `power` has no copy of them.
    "power_c_pulse_key": _mini(power={"c_pulse": 3.6e-12}, traces=_traced("power")),
    "power_c_p_key": _mini(power={"c_p": 3.6e-12}, traces=_traced("power")),
    "figure_list": _mini(figure=["fig4b"]),
    # A sample grid past numpy's size limit, which fig3c works out at load.
    "fig3c_duration_past_grid": {
        **json.loads(cli.bundled_scenario_path("fig3c").read_text()), "duration_s": 1e300
    },
    # 1e14 samples at 10 Hz: addressable, but past memory and the row budget.
    "duration_past_sample_budget": _mini(duration_s=1e13),
    # Schedules the chip refuses only in the state earlier items leave it in.
    "exec_with_fsm_enable_clear": _mini(schedule=[{"t": 0, "exec": True}]),
    "clock_stopped_while_pulsing": _mini(
        schedule=[*_pulse_cell_0(15), {"t": 0.5, "write": ["CTRL", 6]}], duration_s=1.0
    ),
    # 35.84e6 ticks a second for 10 s, one cell: 358,400,000 rows of the events
    # table, after 202 sample rows (101 samples of the grid and one cell).
    "pulsing_past_event_budget": _mini(schedule=_pulse_cell_0(0), duration_s=10.0),
    # Slot indices past Py_ssize_t: 1e300 one-second slots of one cell.
    "refresh_past_index_range": _mini(
        schedule=[{"t": 0.0, "write": ["CTRL", 2]}, {"t": 0.0, "write": ["LOCK_MASK_LO", 1]},
                  {"t": 0.0, "write": ["REFRESH_PERIOD", 1]}, {"t": 0.0, "exec": True}],
        duration_s=1e300, traces={"sample_rate_hz": 1e-294, "kinds": ["cells"], "cells": [0]},
    ),
    # 16,777,001 samples of the grid, four cells and the hold rail: 100,662,006
    # rows, within the old sample budget.  Never run: refused at load.
    "edge_past_row_budget": _mini(
        schedule=[{"t": 0.0, "write": ["CTRL", 2]}], duration_s=1.6777,
        traces={"sample_rate_hz": 1e7, "kinds": ["cells", "hold"], "cells": [0, 1, 2, 3]},
    ),
    # Refusals of the wiring between sections, and of a parameter type's own check.
    "gate_without_lever": _mini(device={"levers": {"lw": 0.2}, "gate_sources": {"x": {"cell": 0}}}),
    "gate_two_sources": _mini(
        device={"levers": {"lw": 0.2}, "gate_sources": {"lw": {"cell": 0, "const": 1.0}}}
    ),
    "item_without_t": _mini(schedule=[{"exec": True}]),
    "document_list": [],
    "axis_gate_without_source": _mini(device=dict(_DOT, axis_gate="x")),
    "power_trace_without_power": _mini(traces=_traced("power")),
    "temperature_without_calibration": _mini(power={}, traces=_traced("temperature")),
    "sample_rate_zero": _mini(traces={"sample_rate_hz": 0, "kinds": ["cells"], "cells": [0]}),
    "calibration_without_points": _mini(power={"calibration": {}}, traces=_traced("temperature")),
    "sweep_axis_number": _mini(sweep={"axis": 5, "values": [1]}),
    "sweep_axis_bad_index": _mini(sweep={"axis": "traces.cells.9", "values": [1]}),
    "v_high_below_v_low": _mini(rails={"v_high": -0.2}),
    "c_ds_negative": _mini(analog={"c_ds": -1e-15}),
    "r_switch_zero": _mini(analog={"r_switch": 0}),
    "leak_rate_negative": _mini(analog={"leak_rate": -1e-8}),
    # `figure_params` that no figure reads: it loaded and ran as a generic run.
    "figure_params_without_figure": {
        "schema_version": 1, "duration_s": 1.0, "figure_params": {"cell": "x", "junk": 1}
    },
    # Shapes the readers used to let through or unpack: a list, a pair, text.
    "kinds_object": _mini(traces={"sample_rate_hz": 10.0, "kinds": {"cells": "no"}, "cells": [0]}),
    "kinds_text": _mini(traces={"sample_rate_hz": 10.0, "kinds": "cells", "cells": [0]}),
    "calibration_point_of_3": _mini(power={"calibration": {"points": [[1e-6, 0.1, 3], [2e-6, 0.2]]}},
                                    traces=_traced("temperature")),
    "calibration_point_of_1": _mini(power={"calibration": {"points": [[1e-6], [2e-6, 0.2]]}},
                                    traces=_traced("temperature")),
    "write_object": _mini(schedule=[{"t": 0.0, "write": {"CTRL": 0, "7": 0}}]),
    "write_text": _mini(schedule=[{"t": 0.0, "write": "CT"}]),
    "write_of_3": _mini(schedule=[{"t": 0.0, "write": ["CTRL", 2, 0]}]),
    "gate_dac_number": _mini(device={"levers": {"lw": 0.2}, "gate_sources": {"lw": {"dac": 5}}}),
    "axis_gate_number": _mini(device=dict(_DOT, axis_gate=5)),
    "name_number": _mini(name=5),
    "fig3f_pulse_gate_number": _with_param("fig3f", "pulse_gate", 5),
    "fig3f_pulse_gate_list": _with_param("fig3f", "pulse_gate", ["lw"]),
    "fig3f_sweep_gate_number": _with_param("fig3f", "sweep_gate", 5),
    "fig3f_sweep_gate_list": _with_param("fig3f", "sweep_gate", ["sdp"]),
    # Register text other than 0x and hex digits, which loaded as a Python int literal.
    "write_value_text_underscore": _mini(schedule=[{"t": 0.0, "write": ["DIVIDER", "1_0"]}]),
    "write_value_text_spaced": _mini(schedule=[{"t": 0.0, "write": ["DIVIDER", " 7 "]}]),
    "write_value_text_binary": _mini(schedule=[{"t": 0.0, "write": ["DIVIDER", "0b11"]}]),
    "write_value_text_octal": _mini(schedule=[{"t": 0.0, "write": ["DIVIDER", "0o7"]}]),
    "word_text_decimal": _mini(schedule=[{"t": 0.0, "word": "16777223"}]),  # 0x01000007
    # A non-finite `seed`, which the manifest wrote as NaN, and no JSON reads.
    "seed_nan": _mini(seed=_NAN),
    "seed_infinity_inside": _mini(seed={"a": [1, -_INF]}),
    "sweep_seed_nan": _mini(sweep={"axis": "seed", "values": [_NAN, _INF]}),
    # The cached coupling ratio is no key of the `analog` section.
    "analog_coupling_key": _mini(analog={"coupling": 0.1}),
    # Document text (not an object to dump): a `seed` nested past what
    # `json` reads, whose RecursionError ended `cli.main` in a traceback.
    "seed_nested_past_json_depth": '{"seed": ' + _DEEP + ", " + json.dumps(_mini())[1:],
}
# Documents whose run would fill gigabytes if load let them through:
# checked with `validate` only.
VALIDATE_ONLY = {"edge_past_row_budget"}
# The whole refusal, `error: ` and its message, of some of them.
REFUSED_AS = {
    "gate_without_lever": "device: source for gate 'x' has no lever arm",
    "gate_two_sources": "device: gate 'lw' needs one of cell/dac/const",
    "item_without_t": "schedule[0]: missing time key 't'",
    "document_list": "scenario document must be a JSON object",
    "axis_gate_without_source": "device: axis_gate 'x' has no gate source",
    "power_trace_without_power": "power/temperature traces need a power section",
    "temperature_without_calibration": "temperature trace needs power.calibration",
    "sample_rate_zero": "traces: sample_rate_hz must be positive",
    "calibration_without_points": "power.calibration: calibration needs at least 2 points",
    "sweep_axis_number": "sweep.axis: expected text, got 5",
    "sweep_axis_bad_index": "axis 'traces.cells.9': bad list index '9'",  # named once
    "v_high_below_v_low": "rails: v_high must be >= v_low",
    "c_ds_negative": "analog: c_ds must be non-negative",
    "r_switch_zero": "analog: r_switch must be positive",
    "leak_rate_negative": "analog: leak_rate must be non-negative",
    "figure_params_without_figure": "figure_params: given with no figure",
    "kinds_object": "traces.kinds: expected a list, got {'cells': 'no'}",
    "kinds_text": "traces.kinds: expected a list, got 'cells'",
    "calibration_point_of_3": "power.calibration.points: expected a list of 2, got [1e-06, 0.1, 3]",
    "calibration_point_of_1": "power.calibration.points: expected a list of 2, got [1e-06]",
    "write_object": "schedule[0]: expected a list of 2, got {'CTRL': 0, '7': 0}",
    "write_text": "schedule[0]: expected a list of 2, got 'CT'",
    "write_of_3": "schedule[0]: expected a list of 2, got ['CTRL', 2, 0]",
    "gate_dac_number": "device: gate 'lw': expected text, got 5",
    "axis_gate_number": "device.axis_gate: expected text, got 5",
    "name_number": "name: expected text, got 5",
    "fig3f_pulse_gate_number": "figure_params: pulse_gate: expected text, got 5",
    "fig3f_pulse_gate_list": "figure_params: pulse_gate: expected text, got ['lw']",
    "fig3f_sweep_gate_number": "figure_params: sweep_gate: expected text, got 5",
    "fig3f_sweep_gate_list": "figure_params: sweep_gate: expected text, got ['sdp']",
    **{f"write_value_text_{case}": f"schedule[0]: expected a finite int or text of 0x and hex"
                                   f" digits, got {text!r}"
       for case, text in (("underscore", "1_0"), ("spaced", " 7 "), ("binary", "0b11"),
                          ("octal", "0o7"))},
    "word_text_decimal": "schedule[0]: expected a finite int or text of 0x and hex digits,"
                         " got '16777223'",
    "seed_nan": "seed: expected a finite float, got nan",
    "seed_infinity_inside": "seed: expected a finite float, got -inf",
    "sweep_seed_nan": "axis 'seed': seed: expected a finite float, got nan",
    "analog_coupling_key": "analog: unknown key(s) ['coupling']",
}

# A section of the wrong JSON type, or a malformed entry inside one; each
# must be refused at load with a message, never a traceback.
_SECTIONS = (
    "chip", "analog", "rails", "device", "power", "traces", "schedule",
    "cell_targets", "figure", "figure_params", "sweep",
)
_WRONG = {"number": 5, "text": "x", "null": None}
WRONG_TYPE = {
    f"{section}_{name}": _mini(**{section: value})
    for section in _SECTIONS
    for name, value in _WRONG.items()
}
WRONG_TYPE |= {
    "duration_s_text": _mini(duration_s="x"),
    "duration_s_null": _mini(duration_s=None),
    "duration_s_infinite": _mini(duration_s=float("inf")),
    "gate_sources_number": _mini(device={"levers": {"lw": 0.2}, "gate_sources": 5}),
    "schedule_item_number": _mini(schedule=[5]),
    "write_without_value": _mini(schedule=[{"t": 0.0, "write": ["CTRL"]}]),
    "cell_target_text": _mini(cell_targets={"a": 1}),
    "sweep_without_axis": _mini(sweep={"values": [1]}),
}


def _main(argv: list[str]) -> tuple[int, str, str]:
    """`cli.main(argv)`'s exit code, stdout and stderr; argparse's own
    refusal (a SystemExit) counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _no_constant(name: str):
    raise AssertionError(f"{name} in JSON output")


def _assert_contract(code: int, err: str, outdir: Path | None = None, stdout: str = "") -> None:
    """Exit 0, 1 or 2 with no traceback; on exit 0, every number in the
    CSVs and JSON files under `outdir` and in JSON on stdout is finite."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        return
    if stdout.startswith("{"):
        json.loads(stdout, parse_constant=_no_constant)
    for path in Path(outdir).glob("*.csv") if outdir else ():
        for line in path.read_text().splitlines()[1:]:
            for field in line.split(","):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(field)), f"{path.name}: {line}"
    for path in Path(outdir).glob("*.json") if outdir else ():
        json.loads(path.read_text(), parse_constant=_no_constant)


@pytest.fixture
def mini_scn(tmp_path):
    path = tmp_path / "mini.scn"
    path.write_text(json.dumps(MINIMAL))
    return path


class TestValidate:
    def test_bundled_scenarios_validate(self, capsys):
        for name in cli.BUNDLED:
            assert cli.main(["validate", str(cli.bundled_scenario_path(name))]) == 0
        assert "ok" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["fig9z", "all"])
    def test_unknown_bundled_name_is_refused(self, name):
        with pytest.raises(engine.ScenarioError, match=f"^no bundled scenario {re.escape(repr(name))}$"):
            cli.bundled_scenario_path(name)

    def test_missing_file(self, capsys):
        assert cli.main(["validate", "/nonexistent.scn"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_override(self, mini_scn, capsys):
        assert cli.main(["validate", str(mini_scn), "--override", "nope.x=1"]) == 1

    # Frames the chip refuses on their own, whatever its state: no register
    # at the address, or a value outside the register's range.
    @pytest.mark.parametrize("item", [
        {"write": ["DIVIDER", 16]},
        {"write": [153, 1]},
        {"word": 26804225},  # 0x01990001, a write to 0x99
        {"write": ["PATTERN_LEN", 0]},
        {"read": 153},
    ], ids=["divider_16", "write_0x99", "word_0x99", "pattern_len_0", "read_0x99"])
    def test_frame_the_chip_refuses_exits_1_at_load(self, item, tmp_path):
        doc = _mini(schedule=[{"t": 0.0, "write": ["CTRL", 2]}, {"t": 0.0, **item}])
        path = tmp_path / "bad.scn"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path)]):
            code, _, err = _main(argv)
            assert code == 1 and err.startswith("error: schedule[1]: "), err

    @pytest.mark.parametrize("command, cells, message", [
        (["validate"], [0, 0], "traces: cell 0 is listed more than once"),
        (["run"], [0, 0], "traces: cell 0 is listed more than once"),
        (["sweep", "--axis", "traces.cells.0", "--values=1"], [0, 1],
         "axis 'traces.cells.0': traces: cell 1 is listed more than once"),
    ], ids=["validate", "run", "sweep_axis"])
    def test_repeated_trace_cell_exits_1(self, command, cells, message, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text(json.dumps(_mini(traces={"sample_rate_hz": 10.0, "kinds": ["cells"],
                                                  "cells": cells})))
        out = [] if command[0] == "validate" else ["--out", str(tmp_path / "out")]
        code, _, err = _main([command[0], str(path), *command[1:], *out])
        assert (code, err) == (1, f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_section_exits_1(self, name, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        doc = MALFORMED[name]
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        first_lines = []
        run = [] if name in VALIDATE_ONLY else [["run", str(path), "--out", str(tmp_path)]]
        for argv in (["validate", str(path)], *run):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "Traceback" not in err
            first_lines.append(err.splitlines()[0])
            if name in REFUSED_AS:
                assert err == f"error: {REFUSED_AS[name]}\n"
        assert first_lines[0] == first_lines[-1]  # validate refuses what run refuses

    @pytest.mark.parametrize("name, why", [
        ("exec_with_fsm_enable_clear", "schedule[0]: EXEC not allowed in mode IDLE"),
        ("clock_stopped_while_pulsing", "duration_s: CTRL clock-enable is clear"),
        ("pulsing_past_event_budget", "duration_s: playback up to t=10.0 s brings the run"
         " to 358400202 rows"),
        ("refresh_past_index_range", "duration_s: refresh up to t=1e+300 s brings the run"
         " to at least "),
    ])
    def test_schedule_the_chip_refuses_exits_1_at_load(self, name, why, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text(json.dumps(MALFORMED[name]))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path)]):
            code, _, err = _main(argv)
            assert code == 1 and err.startswith(f"error: {why}"), err
            if "brings the run" in why:
                assert f"past the budget of {engine.MAX_ROWS}" in err
        assert "index-sized" not in err

    def test_document_nested_past_json_depth_exits_1_in_one_line(self, tmp_path):
        path = tmp_path / "deep.scn"
        path.write_text(MALFORMED["seed_nested_past_json_depth"])
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path)]):
            code, _, err = _main(argv)
            assert code == 1, err
            assert re.fullmatch(rf"error: cannot load scenario {re.escape(str(path))}: .+\n", err)
        with pytest.raises(engine.ScenarioError) as refused:
            engine.read_document(path)
        assert isinstance(refused.value.__cause__, RecursionError)

    def test_nesting_json_reads_still_loads(self, tmp_path):
        # Deep, but within what `json` reads under this test's own stack.
        deep = "[" * 800 + "1" + "]" * 800
        path = tmp_path / "deep.scn"
        path.write_text('{"seed": ' + deep + ", " + json.dumps(_mini())[1:])
        assert _main(["validate", str(path)])[0] == 0
        path.write_text(json.dumps(_mini()))
        assert _main(["validate", str(path), "--override", "seed=" + deep])[0] == 0

    def test_edge_document_exits_1_quoting_rows_and_budget(self, tmp_path):
        path = tmp_path / "edge.scn"
        path.write_text(json.dumps(MALFORMED["edge_past_row_budget"]))
        code, _, err = _main(["validate", str(path)])
        assert code == 1 and err == (
            "error: duration_s: sampling 16777001 times up to t=1.6777 s brings the run to"
            f" 100662006 rows, past the budget of {engine.MAX_ROWS}\n"
        )

    def test_run_refuses_the_edge_shape_at_load(self, tmp_path, monkeypatch):
        # The edge document's columns at 1,001 samples, one row past a
        # lowered budget: `run` refuses it as `validate` does, building nothing.
        doc = dict(MALFORMED["edge_past_row_budget"], duration_s=1e-4)
        monkeypatch.setattr(engine, "MAX_ROWS", 6 * 1001 - 1)
        def no_grid(scenario):
            raise AssertionError("sample_grid called for a refused document")

        monkeypatch.setattr(engine, "sample_grid", no_grid)
        path, out = tmp_path / "edge.scn", tmp_path / "out"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            code, _, err = _main(argv)
            assert code == 1 and err == (
                "error: duration_s: sampling 1001 times up to t=0.0001 s brings the run to"
                " 6006 rows, past the budget of 6005\n"
            )
        assert not out.exists()

    def test_fig3f_envelope_counts_against_the_budget(self, tmp_path, monkeypatch):
        # 15,000,001 samples at 100 MHz: past the budget at load, never built.
        path = cli.bundled_scenario_path("fig3f")
        code, _, err = _main(["validate", str(path), "--override", "duration_s=0.15"])
        assert code == 1 and err.startswith("error: duration_s: sampling 15000001 times")
        assert f"past the budget of {engine.MAX_ROWS}" in err
        # The bundled run's 11,912 rows and its envelope of 81 x 5,751 values.
        assert engine.load_scenario(path).rows == 11912
        rows = 11912 + 81 * 5751
        monkeypatch.setattr(engine, "MAX_ROWS", rows - 1)
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path)]):
            code, _, err = _main(argv)
            assert code == 1 and err == (
                "error: figure_params: the envelope of 81 values x 5751 samples up to"
                f" t=5.95e-05 s brings the run to {rows} rows, past the budget of {rows - 1}\n"
            )
        monkeypatch.setattr(engine, "MAX_ROWS", rows)
        assert engine.load_scenario(path).figure == "fig3f"

    @pytest.mark.parametrize(
        "key", ["cell", "pulse_gate", "sweep_gate", "v_sdp_values", "pulse_start_s"]
    )
    def test_fig3f_figure_param_missing_exits_1(self, key, tmp_path, capsys):
        doc = json.loads(cli.bundled_scenario_path("fig3f").read_text())
        del doc["figure_params"][key]
        path = tmp_path / "bad.scn"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path)]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and repr(key) in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "figure, key, value",
        [
            ("fig3f", "cell", "x"),
            ("fig3c", "cell", "x"),
            ("fig4b", "f_values", ["x"]),
            ("fig4e", "n_values", 5),
            ("fig3f", "v_sdp_values", "abc"),
            ("fig3e", "cell", 3),  # a cell the scenario does not trace
            ("fig3c", "open_time_s", 4000),  # past the last sample
            ("fig3c", "open_time_s", 3540.0),  # only the last sample after it
            ("fig3e", "cell", 5.9),  # not an int: it was read as cell 5
            ("fig4b", "n_cells", [0]),
            ("fig4b", "n_cells", [-2]),
            ("fig4b", "f_values", [-1.0]),
            ("fig4d", "f_values", [-1.0]),
            ("fig4e", "f_values", [-1.0]),
            ("fig4e", "n_values", [-1]),
            ("fig4e", "n_values", [10**400]),  # past float range
            ("fig3f", "v_sdp_values", []),
            ("fig3f", "pulse_gate", "nope"),  # a gate with no lever arm
            ("fig3f", "sweep_gate", "nope"),
        ],
    )
    def test_figure_param_of_wrong_type_exits_1(self, figure, key, value, tmp_path, capsys):
        doc = json.loads(cli.bundled_scenario_path(figure).read_text())
        doc["figure_params"][key] = value
        path = tmp_path / "bad.scn"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path)]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: figure_params: " + key)
            assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["exec", "nop"])
    @pytest.mark.parametrize("value", [False, "no", "true", 1, 0, None, []])
    def test_frame_flag_other_than_true_exits_1(self, key, value, tmp_path, capsys):
        # `{"exec": false}` used to run as an EXEC and close cell 0's lock.
        doc = _mini()
        doc["schedule"][2] = {"t": 0.0, key: value}
        path = tmp_path / "bad.scn"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path)]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: schedule[2]: {key!r} takes only true")
            assert "Traceback" not in err

    def test_sample_count_past_float_range_exits_1(self, tmp_path, capsys):
        path = tmp_path / "overflow.scn"
        path.write_text(json.dumps(_mini(duration_s=1e300, traces={"sample_rate_hz": 1e10})))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "o")]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err == "error: duration_s: cannot convert float infinity to integer\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc", WRONG_TYPE.values(), ids=WRONG_TYPE.keys())
    def test_wrong_type_exits_1(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


# A JSON value of each kind: null, bool, an int past float range either
# way, a finite float, a short string, or a short list of these.
_SCALARS = (st.none() | st.booleans() | st.integers(-10**400, 10**400)
            | st.floats(-1e308, 1e308) | st.text(max_size=5))
_JSON_VALUES = _SCALARS | st.lists(_SCALARS, max_size=5)


class TestFigureParamsContract:
    """One `figure_params` key, known or not, set to any JSON value: each
    command exits 0, 1 or 2 without a traceback, and a document that
    validates never fails to load under `run`.  Nothing that sizes a run
    is drawn."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exit_codes(self, data):
        figure = data.draw(st.sampled_from(["fig3c", "fig3e", "fig3f", "fig4b", "fig4d", "fig4e"]))
        key = data.draw(st.sampled_from([*figures._PARAMS[figure], "extra"]))
        doc = _with_param(figure, key, data.draw(_JSON_VALUES))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.scn"
            path.write_text(json.dumps(doc))
            codes = []
            for argv in (["validate", str(path)], ["run", str(path), "--out", tmp]):
                code, _, err = _main(argv)
                _assert_contract(code, err, Path(tmp))
                codes.append(code)
        assert codes != [0, 1]


# Override text: what does not parse as a number, and numbers of every size.
_TEXT = (st.sampled_from(["", "abc", "0x10", "true", "false", "null", "[1]"])
         | st.integers(-2**70, 2**70).map(str) | st.floats().map(repr))
# The keys that size a run, which the override test leaves alone.
_SIZING = {"duration_s", "traces.sample_rate_hz", "chip.master_freq_hz"}
_FIG4E = json.loads(cli.bundled_scenario_path("fig4e").read_text())


def _leaf_paths(node, path: tuple = ()) -> list[str]:
    """The dotted path of every value in a JSON document that is not an object or list."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, child in items for leaf in _leaf_paths(child, (*path, str(key)))]
    return [".".join(path)]


_REGISTER = st.sampled_from(sorted(protocol.REGISTERS)) | st.integers(0, 0xFF)
_WORD = st.builds(
    lambda opcode, address, data: opcode << 24 | address << 16 | data,
    st.sampled_from(list(protocol.Opcode)) | st.integers(0, 0xFF), _REGISTER,
    st.integers(0, 0x20) | st.integers(0, 0xFFFF),
)


class TestDrawnInputContract:
    """One drawn input to `run --override`, `budget` or `replay`: each exits
    0, 1 or 2 with no traceback, and on exit 0 writes and prints only
    finite numbers."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_override(self, data):
        doc = data.draw(st.sampled_from([MINIMAL, _FIG4E]))
        key = data.draw(st.sampled_from([k for k in _leaf_paths(doc) if k not in _SIZING]))
        text = data.draw(_TEXT)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.scn"
            path.write_text(json.dumps(doc))
            code, out, err = _main(["run", str(path), "--out", tmp, "--override", f"{key}={text}"])
            _assert_contract(code, err, Path(tmp))

    @settings(max_examples=80, deadline=None)
    @given(cells=st.integers(-10, 10**400), freq=st.floats(), swing=st.floats())
    def test_budget(self, cells, freq, swing):
        argv = ["budget", f"--cells={cells}", f"--freq={freq!r}", f"--swing={swing!r}"]
        code, out, err = _main(argv)
        _assert_contract(code, err, stdout=out)

    @settings(max_examples=80, deadline=None)
    @given(words=st.lists(_WORD, max_size=16))
    def test_replay(self, words):
        with tempfile.TemporaryDirectory() as tmp:
            stream = Path(tmp) / "words.txt"
            stream.write_text("".join(f"{w:08X}\n" for w in words))
            argv = ["replay", str(stream), "--duration", "1e-5", "--out", tmp]
            code, out, err = _main(argv)
            _assert_contract(code, err, Path(tmp))


class TestDrawnScheduleContract:
    """A drawn schedule is refused by `validate` exactly when `run` refuses
    it, with exit 1 and never 2: every refusal is made at load, and a
    document that loads runs.  Also with a small row budget."""

    @pytest.mark.parametrize("budget", [engine.MAX_ROWS, 40])
    @settings(max_examples=60, deadline=None)
    @given(schedule=drawn_schedule())
    @example(schedule=[{"t": 0.0, "exec": True}])  # fsm-enable clear
    @example(schedule=[*_pulse_cell_0(15), {"t": 0.02, "write": ["CTRL", 6]}])  # clock stopped
    @example(schedule=[  # into LOCKING and out to REFRESH at one instant
        {"t": 0.0, "write": ["CTRL", 3]}, {"t": 0.0, "write": ["LOCK_MASK_LO", 1]},
        {"t": 0.0, "write": ["REFRESH_PERIOD", 0]}, {"t": 0.0, "exec": True},
        {"t": 0.0, "write": ["REFRESH_PERIOD", 1]}, {"t": 0.0, "exec": True}])
    def test_validate_and_run_agree(self, budget, schedule):
        doc = _mini(schedule=schedule, duration_s=0.05,
                    traces={"sample_rate_hz": 100.0, "kinds": ["cells", "hold"], "cells": [0, 1]})
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            # A small budget is what the schedule may add to the 24 sample
            # rows (6 samples of the grid, two cells and the hold rail).
            patch.setattr(engine, "MAX_ROWS", min(engine.MAX_ROWS, 24 + budget))
            path = Path(tmp) / "drawn.scn"
            path.write_text(json.dumps(doc))
            validated, _, refusal = _main(["validate", str(path)])
            ran, _, err = _main(["run", str(path), "--out", tmp])
            assert (validated, refusal) == (ran, err)
            assert validated in (0, 1) and "Traceback" not in err
            if validated == 0:
                engine.run_generic(engine.build_scenario(doc))


class TestRefusedText:
    """Override and sweep text is read as JSON, else as the text itself, and
    the document's own readers refuse what it gives with their one message,
    as they refuse the value in a file, whatever the document held there."""

    # The reader's refusal of the value each (axis, text) below gives.
    REFUSED_AS = {
        ("rails.v_hold", "abc"): "rails.v_hold: expected a finite float, got 'abc'",
        ("figure_params.cell", "true"): "figure_params: cell: expected a finite int, got True",
        ("rails.v_hold", "0x10"): "rails.v_hold: expected a finite float, got '0x10'",
        ("rails.v_hold", ""): "axis 'rails.v_hold': rails.v_hold: expected a finite float, got ''",
        ("traces.cells.0", "abc"): "axis 'traces.cells.0': traces.cells: expected a finite int,"
                                   " got 'abc'",
        ("traces.cells", "[0]"): "figure_params: cell 5 is not in traces.cells",
        ("seed", "NaN"): "seed: expected a finite float, got nan",
    }

    @pytest.mark.parametrize("argv, axis, text", [
        (["validate", "fig3c", "--override", "rails.v_hold=abc"], "rails.v_hold", "abc"),
        (["run", "fig3e", "--override", "figure_params.cell=true"], "figure_params.cell", "true"),
        (["run", "fig3e", "--override", "rails.v_hold=0x10"], "rails.v_hold", "0x10"),
        (["sweep", "fig3c", "--axis", "rails.v_hold", "--values="], "rails.v_hold", ""),
        (["sweep", "fig3c", "--axis", "traces.cells.0", "--values=abc"], "traces.cells.0", "abc"),
        (["validate", "fig3c", "--override", "traces.cells=[0]"], "traces.cells", "[0]"),
        (["run", "fig4b", "--override", "seed=NaN"], "seed", "NaN"),
    ])
    def test_exits_1(self, argv, axis, text, tmp_path):
        command, name, *rest = argv
        argv = [command, str(cli.bundled_scenario_path(name)), *rest]
        if command != "validate":
            argv += ["--out", str(tmp_path)]
        code, _, err = _main(argv)
        assert (code, err) == (1, f"error: {self.REFUSED_AS[axis, text]}\n")

    # Text nested past what `json` reads, which fell back to text or a traceback.
    @pytest.mark.parametrize("argv", [
        pytest.param(["run", "fig4b", "--override", "seed=" + _DEEP], id="override-seed-too-deep"),
        pytest.param(["sweep", "fig3c", "--axis", "seed", "--values=" + _DEEP],
                     id="values-seed-too-deep"),
    ])
    def test_text_nested_past_json_depth_exits_1_in_one_line(self, argv, tmp_path):
        command, name, *rest = argv
        code, _, err = _main([command, str(cli.bundled_scenario_path(name)), *rest,
                              "--out", str(tmp_path)])
        assert code == 1, err
        assert re.fullmatch(r"error: cannot read flag value: .+\n", err)
        with pytest.raises(engine.ScenarioError) as refused:
            engine.flag_value(_DEEP)
        assert isinstance(refused.value.__cause__, RecursionError)

    def test_one_message_whether_or_not_the_document_holds_the_key(self, tmp_path):
        # The message was another where the document spelled the default.
        left_out, given = _mini(), _mini(traces={"sample_rate_hz": 1000.0})
        del left_out["traces"]
        for doc in (left_out, given):
            path = tmp_path / "doc.scn"
            path.write_text(json.dumps(doc))
            code, _, err = _main(["validate", str(path), "--override", "traces.sample_rate_hz=abc"])
            assert (code, err) == (1, "error: traces.sample_rate_hz: expected a finite float,"
                                      " got 'abc'\n")


class TestNonFinitePower:
    """A fig4 table value or a `budget` result that would not be finite is
    exit 1 with a message naming the value."""

    @pytest.mark.parametrize("figure, params, named", [
        ("fig4b", {"swing": 1e300, "f_values": [0.0, 1e6]}, "1e+300"),
        ("fig4e", {"swing": 1e300, "f_values": [0.0, 1e6]}, "1e+300"),
        ("fig4d", {"swing_values": [1e300], "f_values": [0.0, 1e6]}, "1e+300"),
        ("fig4b", {"swing": 1e154}, "1e+154"),  # finite watts, but not their nW/MHz
    ])
    def test_figure_exits_1(self, figure, params, named, tmp_path):
        doc = json.loads(cli.bundled_scenario_path(figure).read_text())
        doc["figure_params"].update(params)
        path = tmp_path / "big.scn"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path)]):
            code, _, err = _main(argv)
            assert code == 1
            assert err.startswith("error: figure_params:") and "not finite" in err
            assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("flags, named", [
        (["--cells", "-5", "--freq", "1e6"], "-5"),
        (["--cells", "5", "--freq", "-1"], "-1.0"),
        (["--cells", "5", "--freq", "nan"], "nan"),
        (["--cells", "5", "--freq", "1e6", "--swing", "1e200"], "1e+200"),
    ])
    def test_budget_exits_1(self, flags, named):
        code, out, err = _main(["budget", *flags])
        assert code == 1 and out == ""
        assert err.startswith("error:") and named in err and "Traceback" not in err


class TestRun:
    def test_run_writes_outputs(self, mini_scn, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", str(mini_scn), "--out", str(out)]) == 0
        assert (out / "cells.csv").exists()
        assert (out / "events.csv").exists()

    def test_manifest_records_override(self, mini_scn, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "run", str(mini_scn), "--out", str(out),
            "--override", "analog.c_pulse=2e-12",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest_mini.json").read_text())
        assert manifest["overrides"] == ["analog.c_pulse=2e-12"]

    def test_power_trace_reads_the_analog_capacitors(self, tmp_path):
        # One cell pulses at DIVIDER 8 from t = 0.5 s; the power trace
        # charges it with the `analog` section's capacitors.
        doc = _mini(
            power={"static_floor_w": 1e-9},
            schedule=[{"t": 0.0, "write": ["CTRL", 7]}, {"t": 0.0, "write": ["DIVIDER", 8]},
                      {"t": 0.0, "write": ["PULSE_MASK_LO", 1]}, {"t": 0.5, "exec": True}],
            duration_s=1.0,
            traces=_traced("power"),
        )
        path, out = tmp_path / "pulse.scn", tmp_path / "out"
        path.write_text(json.dumps(doc))
        override = ["--override", "analog.c_pulse=2e-12"]
        assert cli.main(["run", str(path), "--out", str(out), *override]) == 0
        rows = (out / "power.csv").read_text().splitlines()[1:]
        watts = dict(map(float, row.split(",")) for row in rows)
        scenario = engine.load_scenario(path, override[1:])
        f_master = scenario.chip.master_freq_hz

        def pulsing(cell):
            return thermal.total_power(1, f_master / 2**8, scenario.rails.swing, cell,
                                       scenario.power, f_clock=f_master)

        assert scenario.analog.c_pulse == 2e-12
        assert watts[0.5] == pulsing(scenario.analog)
        assert watts[0.5] != pulsing(analog.CellParams())

    def test_runtime_error_exit_code(self, mini_scn, tmp_path, capsys, monkeypatch):
        # No document error reaches exit 2: only a fault in the model, here
        # the lock switch refusing mid-run.
        def fault(cell, v_hold, t):
            raise SimulationError("lock switch fault")
        monkeypatch.setattr(analog, "lock", fault)
        assert cli.main(["validate", str(mini_scn)]) == 0
        assert cli.main(["run", str(mini_scn), "--out", str(tmp_path / "o")]) == 2
        assert "runtime error: lock switch fault" in capsys.readouterr().err

    def test_readout_below_ten_times_bandwidth_exits_1(self, tmp_path, capsys):
        doc = _mini(
            device=dict(_DOT, bandwidth_hz=1e6),
            traces={"sample_rate_hz": 9.9e6, "kinds": ["readout"]},
        )
        path = tmp_path / "slow.scn"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "o")]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert "sample rate" in err and "Traceback" not in err

    def test_fig3f_below_ten_times_bandwidth_exits_1(self, tmp_path, capsys):
        path, override = cli.bundled_scenario_path("fig3f"), "traces.sample_rate_hz=2e7"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path)]):
            assert cli.main([*argv, "--override", override]) == 1
            err = capsys.readouterr().err
            assert "sample rate" in err and "Traceback" not in err

    def test_sample_grid_past_numpy_limit_exits_1(self, mini_scn, tmp_path):
        argv = ["run", str(mini_scn), "--out", str(tmp_path), "--override", "duration_s=1e300"]
        code, _, err = _main(argv)
        assert code == 1 and err.startswith("error: duration_s:") and "Traceback" not in err

    def test_lock_at_a_negative_time_runs(self, tmp_path):
        # Load takes t < 0; the cells start there, so the lock is no traceback.
        doc = _mini(schedule=[{"t": -1.0, "write": ["CTRL", 2]},
                              {"t": -1.0, "write": ["LOCK_MASK_LO", 1]}, {"t": -1.0, "exec": True}])
        path = tmp_path / "early.scn"
        path.write_text(json.dumps(doc))
        code, _, err = _main(["run", str(path), "--out", str(tmp_path / "o")])
        assert code == 0, err
        rows = (tmp_path / "o" / "cells.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["-1.1"] * 6

    def test_out_dir_from_environment(self, mini_scn, tmp_path, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv("CLFGSIM_OUT", str(out))
        assert cli.main(["run", str(mini_scn)]) == 0
        assert (out / "cells.csv").exists()


class TestSweepCommand:
    def test_axis_flag(self, mini_scn, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "sweep", str(mini_scn), "--axis", "rails.v_hold",
            "--values=-1.2,-1.1,-1.0", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("value,v_out_final_cell0")
        assert len(lines) == 4

    @pytest.mark.parametrize("name, flags, message", [
        ("fig3c", ["--values", "1,2"], "--axis required when --values is given"),
        ("fig3c", ["--axis", "rails.v_hold"], "--values required when --axis is given"),
        ("fig3e", [], "scenario has no sweep block and no --axis given"),
    ], ids=["values_alone", "axis_alone", "neither"])
    def test_axis_and_values_go_together(self, name, flags, message, tmp_path):
        # Even where the document's own sweep block (fig3c's) would give the
        # other; with neither, the document must have one (fig3e has none).
        argv = ["sweep", str(cli.bundled_scenario_path(name)), *flags, "--out", str(tmp_path)]
        code, out, err = _main(argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_jobs_flag_is_refused(self, mini_scn, tmp_path):
        # A sweep runs its points in order in one process; there is no pool to size.
        argv = ["sweep", str(mini_scn), "--axis", "rails.v_hold", "--values=-1.2,-1.1",
                "--jobs", "2", "--out", str(tmp_path)]
        code, _, err = _main(argv)
        assert code == 2 and "--jobs" in err

    def test_values_parsed_like_the_axis(self, mini_scn, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "sweep", str(mini_scn), "--axis", "traces.cells.0",
            "--values=0,1", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]

    def test_columns_follow_each_runs_traced_cells(self, mini_scn, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "sweep", str(mini_scn), "--axis", "traces.cells.0",
            "--values=0,1", "--out", str(out),
        ])
        assert code == 0
        header, first, second = (out / "sweep.csv").read_text().splitlines()
        assert header == "value,v_out_final_cell0,v_out_final_cell1"
        # Cell 0 is locked and released, so it ends near the hold voltage;
        # cell 1 is never touched.
        assert first.split(",")[0] == "0" and float(first.split(",")[1]) < -1.0
        assert first.split(",")[2] == ""
        assert second.split(",") == ["1", "", "0.0"]

    @pytest.mark.parametrize("axis, values", [
        ("name", ["a,b", "c\nd", 'say "hi"', "c\r", "plain"]),
        ("traces.kinds", [["cells"], ["cells", "hold"]]),
    ])
    def test_values_are_quoted_as_csv_needs(self, axis, values, tmp_path):
        # Unquoted, "a,b" made a row of 3 fields under a 2-field header, and
        # "c\nd" split a row in two.
        path = tmp_path / "swept.scn"
        path.write_text(json.dumps(_mini(sweep={"axis": axis, "values": values})))
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["value", "v_out_final_cell0"]
        assert [row[0] for row in rows] == [engine._format_cell(v) for v in values]
        assert all(len(row) == len(header) for row in rows)

    @pytest.mark.parametrize("name, axis, values, overrides", [
        ("mini", "traces.cells.0", [0, 1], []),
        ("mini", "traces.cells.0", [1, 0], ["rails.v_hold=-1.2"]),
        ("fig3c", "rails.v_hold", [-0.3, -0.9], []),
        ("fig3c", "rails.v_hold", [-0.6], ["analog.leak_rate=1e-3"]),
        ("mini", "rails.v_hold", [-1, -2], []),  # ints on a float axis stay ints
        ("mini", "traces.kinds", [["cells"]], []),  # a list, which no flag could give
    ])
    def test_flags_sweep_the_document_with_their_block(self, name, axis, values, overrides,
                                                       tmp_path):
        # The flags replace the document's sweep block before its points are
        # made, so both write the same bytes, the manifest's hash included.
        doc = _mini() if name == "mini" else json.loads(cli.bundled_scenario_path(name).read_text())
        plain, block = tmp_path / "plain.scn", tmp_path / "block.scn"
        plain.write_text(json.dumps(doc))
        block.write_text(json.dumps(dict(doc, sweep={"axis": axis, "values": values})))
        flags = [arg for text in overrides for arg in ("--override", text)]
        argv = ["sweep", str(plain), "--axis", axis, f"--values={','.join(map(json.dumps, values))}"]
        assert cli.main([*argv, *flags, "--out", str(tmp_path / "flags")]) == 0
        assert cli.main(["sweep", str(block), *flags, "--out", str(tmp_path / "block")]) == 0
        written = {path.name: path.read_bytes() for path in (tmp_path / "flags").iterdir()}
        assert written == {path.name: path.read_bytes() for path in (tmp_path / "block").iterdir()}
        assert sorted(written) == [f"manifest_{doc['name']}.json", "sweep.csv"]

    def test_manifest_hashes_the_swept_values(self, tmp_path):
        # The flags' values were not in the hashed document: both manifests
        # were byte-identical while their sweep.csv files differed.
        path = str(cli.bundled_scenario_path("fig3e"))
        manifests = []
        for values in ("-1,-2", "-3,-4"):
            out = tmp_path / values
            argv = ["sweep", path, "--axis", "rails.v_hold", f"--values={values}", "--out", str(out)]
            assert cli.main(argv) == 0
            manifests.append(json.loads((out / "manifest_fig3e.json").read_text()))
        first, second = (manifest.pop("config_sha256") for manifest in manifests)
        assert first != second and manifests[0] == manifests[1]

    def test_flags_build_the_document_once(self, monkeypatch, tmp_path):
        # The document was built with its own block, whose 121 points were
        # then thrown away, and built again with the flags' block.
        calls = []
        real = engine._sweep_points
        monkeypatch.setattr(engine, "_sweep_points",
                            lambda *args: calls.append(args[1]) or real(*args))
        argv = ["sweep", str(cli.bundled_scenario_path("fig3b")), "--axis",
                "schedule.5.dac.v_hold", "--values=-0.815,-0.81",
                "--override", "rails.v_hold=-0.8", "--out", str(tmp_path)]
        assert _main(argv)[0] == 0
        assert calls == ["schedule.5.dac.v_hold"]

    def test_flags_replace_a_bad_block_unread(self, tmp_path):
        # The document's own block was built first, so its refusal was exit 1.
        path = tmp_path / "bad-block.scn"
        path.write_text(json.dumps(_mini(sweep={"axis": "rails.v_hold", "values": ["x"]})))
        argv = ["sweep", str(path), "--axis", "rails.v_hold", "--values=-1.0,-0.9"]
        code, _, err = _main([*argv, "--out", str(tmp_path / "out")])
        assert (code, err) == (0, "")
        assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("name, axis, text", [
        ("fig3b", "name", "a,b"), ("fig3c", "name", "1x,b"), ("fig3b", "seed", "nan"),
        ("fig3c", "seed", "1,inf"),
    ])
    def test_flag_values_the_table_cannot_write_are_refused(self, name, axis, text, tmp_path):
        # They ran as generic points with exit 0, where the same values in the
        # block are refused; the flags now write that block.
        out = tmp_path / "out"
        argv = ["sweep", str(cli.bundled_scenario_path(name)), "--axis", axis, f"--values={text}"]
        code, stdout, err = _main([*argv, "--out", str(out)])
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: axis {axis!r}: {name} writes floats: ") and "\n" == err[-1]
        assert not out.exists()

    def test_sweep_block_values_are_built_at_load(self, tmp_path):
        # A value no point can take was validate 0 and run 0 (a generic run
        # never read the block), and only `sweep` refused it.
        path = tmp_path / "swept.scn"
        path.write_text(json.dumps(_mini(sweep={"axis": "rails.v_hold", "values": ["x"]})))
        results = [_main([command, str(path), *extra]) for command, extra in (
            ("validate", []), ("run", ["--out", str(tmp_path / "run")]),
            ("sweep", ["--out", str(tmp_path / "sweep")]))]
        assert {(code, err) for code, _, err in results} == {(1, (
            "error: axis 'rails.v_hold': rails.v_hold: expected a finite float, got 'x'\n"))}
        assert not (tmp_path / "run").exists() and not (tmp_path / "sweep").exists()


class TestFigureSweepPoints:
    """`validate` builds each point of fig3b's and fig3c's own sweep, so it
    refuses a point that `run` refuses, with the same message."""

    @pytest.mark.parametrize("name, sweep", [
        ("fig3b", {"values": [-0.8, "x"]}),
        ("fig3b", {"values": [True]}),
        ("fig3b", {"values": [math.nan]}),
        ("fig3b", {"axis": "rails.v_hold", "values": ["x"]}),
        ("fig3b", {"axis": "schedule.4.dac.v_hold", "values": [-0.8]}),
        ("fig3b", {"axis": "duration_s", "values": [-1.0]}),  # a full build per point
        ("fig3c", {"values": [-0.5, "x"]}),
    ], ids=["dac_text", "dac_bool", "dac_nan", "rails_text", "exec_item", "full_build",
            "fig3c_text"])
    def test_validate_refuses_what_run_refuses(self, name, sweep, tmp_path):
        doc = json.loads(cli.bundled_scenario_path(name).read_text())
        doc["sweep"].update(sweep)
        path = tmp_path / "swept.scn"
        path.write_text(json.dumps(doc))
        validated, _, refusal = _main(["validate", str(path)])
        ran, _, err = _main(["run", str(path), "--out", str(tmp_path / "out")])
        assert (validated, refusal) == (ran, err)
        axis = sweep.get("axis", doc["sweep"]["axis"])
        assert validated == 1 and refusal.startswith(f"error: axis {axis!r}: ")

    @pytest.mark.parametrize("name, sweep", [
        ("fig3b", {"axis": "name", "values": ["a", "b"]}),
        ("fig3c", {"axis": "name", "values": ["1", "b"]}),
        ("fig3b", {"axis": "traces.kinds", "values": [["conductance"]]}),
        ("fig3b", {"axis": "name", "values": ["0.5", "nan"]}),
        ("fig3c", {"axis": "seed", "values": [1, "inf"]}),
    ])
    def test_values_the_table_cannot_write_are_refused(self, name, sweep, tmp_path):
        # Every point builds, so `validate` passed them; `run` then died in the
        # driver's `float(value)` with a ValueError or TypeError traceback, or
        # wrote `nan` or `inf` into the table.
        doc = json.loads(cli.bundled_scenario_path(name).read_text())
        doc["sweep"] = sweep
        path = tmp_path / "swept.scn"
        path.write_text(json.dumps(doc))
        validated, _, refusal = _main(["validate", str(path)])
        assert (validated, refusal) == _main(["run", str(path), "--out", str(tmp_path / "out")])[::2]
        axis = sweep["axis"]
        assert validated == 1 and refusal.startswith(f"error: axis {axis!r}: {name} writes floats: ")
        assert not (tmp_path / "out").exists()


class TestIntPastFloatRange:
    def test_hold_rail_past_float_range_exits_1(self, tmp_path):
        # It passed `validate`, then `run` overflowed converting it to a float.
        doc = json.loads(cli.bundled_scenario_path("fig3e").read_text())
        doc["rails"]["v_hold"] = 10**400
        path = tmp_path / "big.scn"
        path.write_text(json.dumps(doc))
        refusal = f"error: rails.v_hold: expected a finite float, got {10**400!r}\n"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
            code, _, err = _main(argv)
            assert (code, err) == (1, refusal)
        assert not (tmp_path / "out").exists()

    def test_int_past_the_digit_limit_exits_1(self, tmp_path):
        # json.load itself refuses an int of more than 4,300 digits, with a ValueError.
        text = cli.bundled_scenario_path("fig3e").read_text()
        path = tmp_path / "huge.scn"
        path.write_text(text.replace('"v_hold": ', '"v_hold": ' + "1" * 5000 + ', "x": ', 1))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
            code, _, err = _main(argv)
            assert code == 1 and err.startswith(f"error: cannot load scenario {path}: ")
            assert "Traceback" not in err


class TestUnwritableOut:
    """An `--out` that cannot be written is exit 1 naming it, not a traceback:
    a path that is a file, one under a file, or a directory holding a
    directory where an output file goes."""

    @staticmethod
    def _argv(command: str, tmp_path: Path) -> list[str]:
        mini = tmp_path / "mini.scn"
        mini.write_text(json.dumps(MINIMAL))
        stream = tmp_path / "cmds.txt"
        stream.write_text(TestReplay.STREAM)
        return {
            "run": ["run", str(mini)],
            "sweep": ["sweep", str(mini), "--axis", "rails.v_hold", "--values=-1.0,-0.9"],
            "replay": ["replay", str(stream), "--duration", "0.001"],
            "figures": ["figures", "fig4d"],
        }[command]

    @pytest.mark.parametrize("command", ["run", "sweep", "replay", "figures"])
    @pytest.mark.parametrize("where", ["file", "under-file"])
    def test_out_that_is_not_a_directory_exits_1(self, command, where, tmp_path):
        (tmp_path / "taken").write_text("")
        out = tmp_path / {"file": "taken", "under-file": "taken/out"}[where]
        code, stdout, err = _main([*self._argv(command, tmp_path), "--out", str(out)])
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: cannot write {out}: [Errno ") and err.count("\n") == 1
        assert (tmp_path / "taken").read_text() == ""

    @pytest.mark.parametrize("command, taken", [("run", "events.csv"), ("sweep", "sweep.csv"),
                                                ("replay", "replay_state.json"),
                                                ("figures", "manifest_fig4d.json")])
    def test_output_file_that_is_a_directory_exits_1(self, command, taken, tmp_path):
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        code, _, err = _main([*self._argv(command, tmp_path), "--out", str(out)])
        assert code == 1
        assert err.startswith(f"error: cannot write {out}: [Errno 21] Is a directory: ")
        # `export` removes what it wrote: `run` left cells.csv and `figures`
        # fig4d.csv.  `replay` writes its state after `export`, whose files stay.
        if command != "replay":
            assert [path.name for path in out.iterdir()] == [taken]


class TestReplay:
    STREAM = """
    # configure: ctrl=clock|fsm|playback, divider=15, pattern "10"
    01000007
    0101000F
    01108000
    01200002
    01040001
    02000000   # read back CTRL
    03000000   # exec -> playback
    """

    def test_replay_emits_events(self, tmp_path, capsys):
        stream = tmp_path / "cmds.txt"
        stream.write_text(self.STREAM)
        out = tmp_path / "out"
        code = cli.main([
            "replay", str(stream), "--duration", "0.01", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "events.csv").read_text().splitlines()
        assert lines[0] == "time_s,cell,action,level"
        assert len(lines) == 1 + 10  # floor(0.01 * 35.84e6 / 2**15) ticks
        state = json.loads((out / "replay_state.json").read_text())
        assert state["words"] == 7
        assert state["responses"][0]["data"] == 7

    def test_replay_manifest_records_override(self, tmp_path, capsys):
        stream = tmp_path / "cmds.txt"
        stream.write_text(self.STREAM)
        out = tmp_path / "out"
        code = cli.main([
            "replay", str(stream), "--duration", "0.01", "--out", str(out),
            "--override", "analog.c_pulse=2e-12",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest_replay.json").read_text())
        assert manifest["overrides"] == ["analog.c_pulse=2e-12"]

    def test_replay_bad_stream(self, tmp_path, capsys):
        stream = tmp_path / "bad.txt"
        stream.write_text("zzz")
        assert cli.main(["replay", str(stream)]) == 1

    # An unknown opcode, an EXEC while fsm-enable is clear, a write and a
    # read with no register at 0x99, and writes out of range: exit 1, as
    # under `run`, with the refusal of each.  None: no stream file at the
    # path, exit 1 too.
    REFUSED_AS = {
        "FF000000": "schedule[0]: unknown opcode 0xff",
        "03000000": "schedule[0]: EXEC not allowed in mode IDLE (fsm-enable is clear)",
        "01990001": "schedule[0]: no register at address 0x99",
        "02990000": "schedule[0]: no register at address 0x99",
        "01010010": "schedule[0]: DIVIDER=16 outside [0..15]",
        "01200000": "schedule[0]: PATTERN_LEN=0 outside [1..128]",
        None: "cannot read {0}: [Errno 2] No such file or directory: {0!r}",
    }

    @pytest.mark.parametrize("word", REFUSED_AS)
    def test_replay_bad_frame_exits_1(self, word, tmp_path, capsys):
        stream = tmp_path / "bad.txt"
        if word is not None:
            stream.write_text(word + "\n")
        assert cli.main(["replay", str(stream), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {self.REFUSED_AS[word].format(str(stream))}\n"

    def test_replay_of_bytes_not_utf8_exits_1(self, tmp_path, capsys):
        stream = tmp_path / "bad.txt"
        stream.write_bytes(b"\xff\xfe0100\n")
        assert cli.main(["replay", str(stream), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {stream}: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte\n"
        )
        assert not (tmp_path / "out").exists()


class TestBudget:
    def test_thousand_gate_point(self, capsys):
        assert cli.main(["budget", "--cells", "1000", "--freq", "1e6"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["feasible"] is True
        assert result["headroom_watts"] > 350e-6


class TestFigures:
    def test_fig4e_feasible_row(self, tmp_path):
        out = tmp_path / "figs"
        assert cli.main(["figures", "fig4e", "--out", str(out)]) == 0
        lines = (out / "fig4e.csv").read_text().splitlines()
        assert lines[0] == "n_cells,f_hz,total_watts,feasible"
        row = next(
            line for line in lines[1:]
            if line.startswith("1000,") and ",1000000.0," in line
        )
        _, _, watts, ok = row.split(",")
        assert ok == "1"
        assert 400e-6 - float(watts) > 0

    @pytest.mark.parametrize("name, keys", [
        ("fig3f", ["settle_fraction"]), ("fig4b", ["swing", "n_cells"]), ("fig4e", ["swing"]),
    ])
    def test_omitted_params_take_their_defaults(self, name, keys, tmp_path):
        # Each bundled value is its default, so leaving it out changes no table.
        doc = json.loads(cli.bundled_scenario_path(name).read_text())
        for key in keys:
            default = figures._PARAMS[name][key][1]
            assert doc["figure_params"].pop(key) == (list(default) if isinstance(default, tuple)
                                                     else default)
        path = tmp_path / "defaults.scn"
        path.write_text(json.dumps(doc))
        assert cli.main(["figures", name, "--out", str(tmp_path / "bundled")]) == 0
        assert cli.main(["run", str(path), "--out", str(tmp_path / "defaults")]) == 0
        tables = sorted(p.name for p in (tmp_path / "bundled").glob("*.csv"))
        assert tables == sorted(p.name for p in (tmp_path / "defaults").glob("*.csv"))
        assert f"{name}.csv" in tables
        for table in tables:
            assert (tmp_path / "defaults" / table).read_bytes() == (
                tmp_path / "bundled" / table).read_bytes(), table

    def test_sweep_conductance_column_is_fig3b_conductance(self, tmp_path):
        # `sweep` writes each point's final conductance as fig3b's driver
        # writes its `g_siemens`: the same text, row by row.
        path = cli.bundled_scenario_path("fig3b")
        assert cli.main(["figures", "fig3b", "--out", str(tmp_path / "figure")]) == 0
        assert cli.main(["sweep", str(path), "--out", str(tmp_path / "sweep")]) == 0
        with open(tmp_path / "figure" / "fig3b.csv", newline="") as fh:
            figure = list(csv.DictReader(fh))
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            swept = list(csv.DictReader(fh))
        assert len(figure) == len(swept) == 121
        assert [row["conductance_final_s"] for row in swept] == [row["g_siemens"] for row in figure]
        assert [row["value"] for row in swept] == [row["v_lp_volts"] for row in figure]


class TestHelp:
    @pytest.mark.parametrize(
        "sub", ["validate", "run", "sweep", "replay", "budget", "figures"]
    )
    def test_subcommand_help(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out
