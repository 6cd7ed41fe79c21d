import copy
import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections.abc import Sequence
from pathlib import Path

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clfgsim import analog, cli, device, engine, figures, fsm, thermal
from clfgsim.engine import ScenarioError, build_scenario
from clfgsim.errors import SimulationError

from conftest import (
    DRAWN_ITEM, FIG3G_SWEEP, assert_same_bundle, assert_sweep_is_each_point_alone, bench_document,
    bundled_swept, drawn_schedule, lock_then_open_schedule, make_scenario, pulse_dac_document,
)


def _timeline(scenario: engine.Scenario, sampled: Sequence[int] = ()) -> tuple[list, dict]:
    """A run's timeline, each DAC entry as (value, changes), and each DAC's
    changes, with tick runs cut where `sampled` cells are read: the batch's
    part (`_expand_plan`), the point's own moves (`_moves`) and the timeline
    of their pattern (`_timeline`), its DAC entries given the point's values."""
    shared = engine._expand_plan(scenario, list(sampled))
    pattern, values, dacs = engine._moves(scenario, shared)
    timeline = [(t, prio, kind, (values[payload[0]], payload[1]) if kind == "DAC" else payload)
                for t, prio, kind, payload in engine._timeline(shared, pattern)]
    return timeline, dacs


class TestValidation:
    def test_schema_version_required(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            build_scenario({"name": "x"})

    def test_seed_is_walked_at_any_depth(self):
        # Deeper than the interpreter's recursion limit: the walk keeps its own stack.
        seed = [{"a": float("nan")}]
        for _ in range(5000):
            seed = [seed]
        with pytest.raises(ScenarioError, match=r"^seed: expected a finite float, got nan$"):
            make_scenario(seed=seed)

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown top-level"):
            build_scenario({"schema_version": 1, "bogus": 1})

    def test_times_must_be_nondecreasing(self):
        with pytest.raises(ScenarioError, match="nondecreasing"):
            make_scenario(schedule=[{"t": 1.0, "exec": True}, {"t": 0.5, "exec": True}])

    def test_schedule_within_duration(self):
        with pytest.raises(ScenarioError, match="past duration"):
            make_scenario(duration_s=1.0, schedule=[{"t": 2.0, "exec": True}])

    def test_unknown_register_name(self):
        with pytest.raises(ScenarioError, match="unknown register"):
            make_scenario(schedule=[{"t": 0.0, "write": ["NOPE", 1]}])

    def test_bad_word_reports_opcode(self):
        with pytest.raises(ScenarioError, match="opcode"):
            make_scenario(schedule=[{"t": 0.0, "word": "0xFF000000"}])

    def test_trace_cells_bounded(self):
        with pytest.raises(ScenarioError, match="cell 32"):
            make_scenario(traces={"sample_rate_hz": 10, "kinds": ["cells"], "cells": [32]})

    def test_a_repeated_trace_cell_is_refused(self):
        # It loaded, counted its rows twice and wrote each `cells` row twice.
        traces = {"sample_rate_hz": 1.0, "kinds": ["cells"], "cells": [3, 0, 3]}
        with pytest.raises(ScenarioError, match=r"^traces: cell 3 is listed more than once$"):
            make_scenario(traces=traces)
        # A sweep point that repeats another traced index, when the block is read.
        with pytest.raises(ScenarioError, match=r"^axis 'traces.cells.1': traces: cell 3 is listed"):
            make_scenario(traces=dict(traces, cells=[3, 0]),
                          sweep={"axis": "traces.cells.1", "values": [1, 3]})

    def test_readout_needs_device(self):
        with pytest.raises(ScenarioError, match="device"):
            make_scenario(traces={"sample_rate_hz": 1e8, "kinds": ["readout"]})

    def test_integer_in_a_float_field_is_written_as_a_float(self, tmp_path):
        # The hold rail, the power with the clock off and the temperature at
        # zero power are the values as given; each is written as a float.
        scenario = make_scenario(
            rails={"v_hold": 1},
            power={"static_floor_w": 0, "calibration": {"base_temperature_k": 1,
                                                        "points": [[1e-6, 2], [2e-6, 3]]}},
            traces={"sample_rate_hz": 1.0, "kinds": ["hold", "power", "temperature"]},
        )
        assert scenario.rails.v_hold == 1.0 and type(scenario.rails.v_hold) is float
        engine.export(engine.run_scenario(scenario), tmp_path)
        for name, value in [("hold", "1.0"), ("power", "0.0"), ("temperature", "1.0")]:
            rows = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
            assert rows == [f"0.0,{value}", f"1.0,{value}"]

    def test_a_dac_that_nothing_reads_is_refused(self):
        # A misspelt hold rail used to move nothing: `hold` read -1.0 throughout.
        with pytest.raises(ScenarioError, match=r"^schedule\[1\]: dac 'v_hld' is neither 'v_hold'"
                           r" nor the dac of a device.gate_sources entry$"):
            make_scenario(rails={"v_hold": -1.0}, traces={"sample_rate_hz": 1.0, "kinds": ["hold"]},
                          schedule=[{"t": 0.0, "nop": True}, {"t": 0.5, "dac": {"v_hld": -0.5}}])

    @given(wiring=st.dictionaries(st.sampled_from(["a", "b"]), st.sampled_from(["v_hold", "x", "y"])),
           names=st.sets(st.sampled_from(["v_hold", "x", "y", "z"]), min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_load_accepts_exactly_the_dacs_something_reads(self, wiring, names):
        # The hold rail and the DAC of each `dac` gate source are read; a
        # sweep point that swaps a `dac` item in is checked as a full build.
        read = {"v_hold", *wiring.values()}
        device = {"levers": {"a": 1.0, "b": 1.0},
                  "gate_sources": {gate: {"dac": dac} for gate, dac in wiring.items()}}
        item = {"t": 0.5, "dac": dict.fromkeys(sorted(names), -0.5)}
        if names <= read:
            assert make_scenario(device=device, schedule=[item]).schedule[0].dac
        else:
            with pytest.raises(ScenarioError, match=f"^schedule\\[0\\]: dac '{min(names - read)}'"):
                make_scenario(device=device, schedule=[item])
        base = make_scenario(device=device, schedule=[{"t": 0.5, "dac": {"v_hold": -0.5}}])
        for name in names:
            axis = f"schedule.0.dac.{name}"
            TestSweep._assert_points_are_full_builds(base, axis, [-0.4])
            if name not in read:
                with pytest.raises(ScenarioError, match=f"^axis '{axis}': schedule\\[0\\]: dac '{name}'"):
                    engine._sweep_points(base, axis, [-0.4])

    @pytest.mark.parametrize("key", ["01", "1_0", " 3 ", "-0", "+1", "1.0", "32", "0x1", "", "٣"])
    def test_a_cell_target_key_is_a_plain_cell_index(self, key):
        # Each was read by `int`: "01" next to "1" dropped one target, and
        # "1_0" aimed at cell 10.
        with pytest.raises(ScenarioError, match=f"^cell_targets: key {re.escape(repr(key))} is not"
                           " a cell index 0..31$"):
            make_scenario(cell_targets={"1": -1.0, key: -1.1})

    def test_cell_target_keys_are_the_cell_indices(self):
        targets = {str(c): -1.0 - c / 100 for c in range(engine.N_CELLS)}
        assert make_scenario(cell_targets=targets).cell_targets == {
            c: -1.0 - c / 100 for c in range(engine.N_CELLS)}

    def test_step_errors_carry_schedule_context(self):
        with pytest.raises(ScenarioError, match=r"schedule\[4\]"):
            make_scenario(
                schedule=[
                    {"t": 0.0, "write": ["CTRL", 7]},
                    {"t": 0.0, "write": ["DIVIDER", 15]},
                    {"t": 0.0, "write": ["PULSE_MASK_LO", 1]},
                    {"t": 0.0, "exec": True},
                    {"t": 0.5, "exec": True},
                ],
            )


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("ab0", min_size=1, max_size=2), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def _documents_with_axis(draw):
    """A JSON object and a dotted axis that `set_axis` accepts in it: a
    path through existing containers, then an existing key or index, or
    one to three keys that the object at the end does not have."""
    doc = draw(st.dictionaries(st.text("ab0", min_size=1, max_size=2), _JSON, max_size=4))
    parts, node = [], doc
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        inner = [k for k in keys
                 if isinstance(node[k], dict) or isinstance(node[k], list) and node[k]]
        if not inner or draw(st.booleans()):
            break
        key = draw(st.sampled_from(inner))
        parts.append(str(key))
        node = node[key]
    if isinstance(node, list):
        parts.append(str(draw(st.integers(0, len(node) - 1))))
    elif node and draw(st.booleans()):
        parts.append(draw(st.sampled_from(sorted(node))))
    else:
        parts += draw(st.lists(st.text("xyz", min_size=1, max_size=2), min_size=1, max_size=3))
    return doc, ".".join(parts)


def _round_trip_set_axis(raw, axis, value):
    """The former `set_axis`: a deep copy through JSON, then a write in place."""
    doc = json.loads(json.dumps(raw))
    *path, last = axis.split(".")
    node = doc
    for part in path:
        node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
    node[int(last) if isinstance(node, list) else last] = value
    return doc


class TestOverrides:
    def test_override_applies_and_is_recorded(self):
        raw = {"schema_version": 1, "name": "x", "duration_s": 0.0,
               "analog": {"c_pulse": 1e-12}}
        scenario = engine.with_overrides(raw, ["analog.c_pulse=2e-12"])
        assert scenario.analog.c_pulse == 2e-12
        assert scenario.overrides == ("analog.c_pulse=2e-12",)
        assert engine._manifest(scenario)["overrides"] == ["analog.c_pulse=2e-12"]

    def test_misspelled_override_rejected_at_validation(self):
        raw = {"schema_version": 1, "name": "x", "duration_s": 0.0}
        doc = engine.apply_overrides(raw, ["analog.nope=1"])
        with pytest.raises(ScenarioError, match="unknown key"):
            build_scenario(doc)

    def test_malformed_override_rejected(self):
        with pytest.raises(ScenarioError, match=r"^override 'analog.c_pulse' is not KEY=VALUE$"):
            engine.apply_overrides({"schema_version": 1}, ["analog.c_pulse"])

    def test_list_index_axis(self):
        raw = {
            "schema_version": 1, "name": "x", "duration_s": 1.0,
            "schedule": [{"t": 0.0, "dac": {"v_hold": -1.0}}],
        }
        doc = engine.set_axis(raw, "schedule.0.dac.v_hold", -2.0)
        assert doc["schedule"][0]["dac"]["v_hold"] == -2.0
        with pytest.raises(ScenarioError, match=r"^axis 'schedule.5.dac.v_hold': bad list index '5'$"):
            engine.set_axis(raw, "schedule.5.dac.v_hold", -2.0)

    def test_step_into_a_value_is_unknown_axis(self):
        raw = {"schema_version": 1, "duration_s": 1.0, "rails": {"v_hold": -1.0}}
        snapshot = copy.deepcopy(raw)
        for axis in ("duration_s.x", "rails.v_hold.x", "rails.v_hold.x.y"):
            with pytest.raises(ScenarioError, match=f"^axis '{axis}': 'x' is not a container$"):
                engine.set_axis(raw, axis, 1.0)
        assert raw == snapshot

    def test_bool_coercion(self):
        raw = {"schema_version": 1, "name": "x", "duration_s": 0.0,
               "schedule": [{"t": 0.0, "exec": True}]}
        doc = engine.apply_overrides(raw, ["schedule.0.exec=false"])
        assert doc["schedule"][0]["exec"] is False

    @given(case=st.data(), value=_JSON)
    @settings(max_examples=200, deadline=None)
    def test_set_axis_matches_json_round_trip(self, case, value):
        raw, axis = case.draw(_documents_with_axis())
        snapshot = copy.deepcopy(raw)
        assert engine.set_axis(raw, axis, value) == _round_trip_set_axis(raw, axis, value)
        assert raw == snapshot

    @pytest.mark.parametrize("name", cli.BUNDLED)
    def test_build_leaves_bundled_document_unchanged(self, name):
        raw = json.loads(cli.bundled_scenario_path(name).read_text())
        snapshot = copy.deepcopy(raw)
        scenario = build_scenario(raw)
        # Sweep points share every subtree off the axis path with `raw`.
        for value in scenario.sweep.values if scenario.sweep else ():
            build_scenario(engine.set_axis(raw, scenario.sweep.axis, value))
        assert raw == snapshot


class TestGenericRun:
    def test_empty_schedule_flat_traces(self):
        scenario = make_scenario(
            duration_s=1.0,
            traces={"sample_rate_hz": 10.0, "kinds": ["cells"], "cells": [0, 7]},
        )
        bundle = engine.run_generic(scenario)
        assert bundle.tables["events"].rows == []
        assert all(v == 0.0 for _, _, v in bundle.tables["cells"].rows)
        assert len(bundle.tables["cells"].rows) == 2 * 11

    @pytest.mark.parametrize("cells", [[], [7], list(range(32))], ids=["none", "one", "all"])
    def test_blocks_record_each_sampled_cell(self, cells):
        # Cells 0-15 and 16-31 locked and released in turn, at two rail
        # values, with rail moves that the locked ones track and the others
        # couple: each block records every sampled cell, or none when no
        # trace reads one.
        moves = [(0.15, -1.0), (0.55, -0.8), (0.8, -1.2)]
        masks = [(0.0, "LO", 0xFFFF), (0.35, "LO", 0), (0.45, "HI", 0xFFFF), (0.7, "HI", 0)]
        schedule = [{"t": 0.0, "write": ["CTRL", 2]}]
        schedule += [{"t": t, "dac": {"v_hold": v}} for t, v in moves]
        for t, half, mask in masks:
            schedule += [{"t": t, "write": [f"LOCK_MASK_{half}", mask]}, {"t": t, "exec": True}]
        scenario = make_scenario(
            rails={"v_hold": -1.1},
            schedule=sorted(schedule, key=lambda item: item["t"]),
            traces={"sample_rate_hz": 10.0, "kinds": ["cells", "hold"], "cells": cells}
            if cells else {"sample_rate_hz": 10.0, "kinds": ["hold"]},
        )
        bundle = engine.run_generic(scenario)
        times = bundle.tables["hold"].columns[0]
        expected_rail = [-1.1 if t < 0.15 else -1.0 if t < 0.55 else -0.8 if t < 0.8 else -1.2
                         for t in times.tolist()]
        assert bundle.tables["hold"].columns[1].tolist() == expected_rail
        if not cells:
            assert "cells" not in bundle.tables
            return
        got = bundle.tables["cells"].rows
        expected = replay_cells_edge_by_edge(scenario, bundle, moves)
        assert len(got) == 11 * len(cells)
        assert [(t, c) for t, c, _ in got] == [(t, c) for t, c, _ in expected]
        for (_, _, v_got), (_, _, v_expected) in zip(got, expected):
            assert abs(v_got - v_expected) <= 1e-12

    def test_timeline_without_tick_runs_is_not_cut(self):
        # A refresh with hold-rail moves: lock actions and DAC entries, no FG,
        # so a sampled cell and rail moves cut nothing.
        scenario = dataclasses.replace(_refreshing(), cell_targets={0: -1.0, 1: -0.9})
        timeline, dacs = _timeline(scenario, [0])
        kinds = {kind for _, _, kind, _ in timeline}
        assert "FG" not in kinds and {"DAC", "CLOSE", "OPEN"} <= kinds
        assert (timeline, dacs) == _timeline(scenario)
        assert timeline == sorted(timeline, key=lambda e: e[:2])
        assert list(dacs) == ["v_hold"]
        assert [(e[0], e[3][0]) for e in timeline if e[2] == "DAC"] == dacs["v_hold"][1:]

    def test_bundle_without_events_table_has_no_events(self):
        assert engine.TraceBundle({}, {}).events == []

    def test_events_are_the_events_table_rows(self):
        # `bench/` reads `TraceBundle.events`: one `engine.SwitchEvent` per row.
        scenario = make_scenario(
            schedule=[*lock_then_open_schedule(0b10, 0.0), {"t": 0.0, "write": ["CTRL", 7]},
                      {"t": 0.0, "write": ["PULSE_MASK_LO", 1]}, {"t": 0.0, "write": ["DIVIDER", 15]},
                      {"t": 0.0, "exec": True}],
            duration_s=3.5 * 2**15 / 35.84e6,
        )
        bundle = engine.run_generic(scenario)
        rows = bundle.tables["events"].rows
        assert {action for _, _, action, _ in rows} == {"CLOSE", "OPEN", "FG"}
        assert bundle.events == [engine.event_from_row(*row) for row in rows]
        assert [ev.lock_action for ev in bundle.events[:2]] == [engine.LockAction.CLOSE,
                                                                  engine.LockAction.OPEN]
        assert {ev.fg_level for ev in bundle.events[2:]} == {analog.Level.LOW}  # PATTERN0 0

    def test_lock_release_injection_visible(self):
        scenario = make_scenario(
            rails={"v_hold": -1.1},
            schedule=lock_then_open_schedule(0b1, 0.5),
            duration_s=1.0,
            traces={"sample_rate_hz": 10.0, "kinds": ["cells"], "cells": [0]},
        )
        bundle = engine.run_generic(scenario)
        rows = {t: v for t, _, v in bundle.tables["cells"].rows}
        assert rows[0.0] == -1.1          # pinned while locked
        assert rows[0.5] == pytest.approx(-1.099, rel=1e-9)  # 1 mV injection
        actions = [a for _, _, a, _ in bundle.tables["events"].rows]
        assert actions == ["CLOSE", "OPEN"]

    @pytest.mark.parametrize("release, closes_again, v0", [
        ([{"t": 0.0, "write": ["LOCK_MASK_LO", 0]}, {"t": 0.0, "exec": True}], [], -1.099),
        ([{"t": 0.0, "write": ["REFRESH_PERIOD", 1]}, {"t": 0.0, "exec": True}], ["CLOSE"], -1.1),
    ], ids=["to_idle", "to_refresh"])
    def test_release_at_the_instant_of_its_lock_follows_the_lock(self, release, closes_again, v0):
        # Two EXECs at t = 0, into LOCKING and out of it: the release goes
        # after the lock it undoes, though releases go first at one time.
        # Released to IDLE the cell floats at the rail plus 1 mV of injection;
        # REFRESH's slot 0 locks it again.
        scenario = make_scenario(
            rails={"v_hold": -1.1},
            schedule=[{"t": 0.0, "write": ["CTRL", 3]}, {"t": 0.0, "write": ["LOCK_MASK_LO", 1]},
                      {"t": 0.0, "exec": True}, *release],
            duration_s=1.0,
            traces={"sample_rate_hz": 10.0, "kinds": ["cells"], "cells": [0]},
        )
        bundle = engine.run_generic(scenario)
        at_zero = [a for t, _, a, _ in bundle.tables["events"].rows if t == 0.0]
        assert at_zero == ["CLOSE", "OPEN", *closes_again]
        assert bundle.tables["cells"].rows[0][2] == pytest.approx(v0, rel=1e-9)

    def test_hold_staircase_couples_with_ratio_alpha(self):
        steps = [{"t": float(2 + i), "dac": {"v_hold": -1.1 + 0.1 * (i + 1)}}
                 for i in range(3)]
        scenario = make_scenario(
            analog={"leak_rate": 0.0, "q_inj": 0.0},
            rails={"v_hold": -1.1},
            schedule=lock_then_open_schedule(0b1, 1.0) + steps,
            duration_s=6.0,
            traces={"sample_rate_hz": 2.0, "kinds": ["cells", "hold"], "cells": [0]},
        )
        bundle = engine.run_generic(scenario)
        alpha = analog.coupling_ratio(analog.CellParams())
        v_final = bundle.summary["v_out_final"][0]
        assert v_final == pytest.approx(-1.1 + alpha * 0.3, rel=1e-12)
        hold = [v for _, v in bundle.tables["hold"].rows]
        assert hold[-1] == pytest.approx(-0.8, rel=1e-12)

    def test_locked_cell_tracks_dac(self):
        scenario = make_scenario(
            rails={"v_hold": -1.1},
            schedule=lock_then_open_schedule(0b1, 2.0)[:4]
            + [{"t": 1.0, "dac": {"v_hold": -0.5}}],
            duration_s=2.0,
            traces={"sample_rate_hz": 2.0, "kinds": ["cells"], "cells": [0]},
        )
        bundle = engine.run_generic(scenario)
        rows = {t: v for t, _, v in bundle.tables["cells"].rows}
        assert rows[0.5] == -1.1
        assert rows[1.5] == -0.5

    def test_causality_no_sample_sees_future_events(self):
        scenario = make_scenario(
            rails={"v_high": 0.1, "v_low": -0.1},
            schedule=[
                {"t": 0.0, "write": ["CTRL", 7]},
                {"t": 0.0, "write": ["DIVIDER", 15]},
                {"t": 0.0, "write": ["PULSE_MASK_LO", 1]},
                {"t": 0.0, "write": ["PATTERN0", 0x8000]},
                {"t": 0.0, "write": ["PATTERN_LEN", 2]},
                {"t": 0.5005, "exec": True},
            ],
            duration_s=0.6,
            traces={"sample_rate_hz": 1000.0, "kinds": ["cells"], "cells": [0]},
        )
        bundle = engine.run_generic(scenario)
        for t, _, v in bundle.tables["cells"].rows:
            if t <= 0.5:
                assert v == 0.0
        rows = {t: v for t, _, v in bundle.tables["cells"].rows}
        assert rows[0.501] > 0.09  # first HIGH tick has happened

    @pytest.mark.parametrize(
        "item", [{"read": "CTRL"}, {"nop": True}, {"dac": {"v_hold": -0.5}}],
        ids=["read", "nop", "dac"],
    )
    def test_read_nop_dac_leave_playback_running(self, item):
        tick = 2**15 / 35.84e6
        schedule = [
            {"t": 0.0, "write": ["CTRL", 7]},
            {"t": 0.0, "write": ["DIVIDER", 15]},
            {"t": 0.0, "write": ["PULSE_MASK_LO", 1]},
            {"t": 0.0, "write": ["PATTERN0", 0xAAAA]},
            {"t": 0.0, "write": ["PATTERN_LEN", 16]},
            {"t": 0.0, "exec": True},
        ]

        def events(extra: list) -> list:
            scenario = make_scenario(schedule=schedule + extra, duration_s=10.5 * tick)
            return engine.run_generic(scenario).tables["events"].rows

        plain = events([])
        assert len(plain) == 10
        assert events([dict(item, t=2.5 * tick)]) == plain

    def test_power_and_temperature_traces(self):
        scenario = make_scenario(
            rails={"v_high": 0.05, "v_low": 0.0},
            power={
                "fsm_energy_per_cycle": 2e-14,
                "clock_energy_per_cycle": 1e-14,
                "static_floor_w": 1e-9,
                "master_freq_hz": 35.84e6,
                "calibration": {
                    "base_temperature_k": 0.036,
                    "points": [[7.038e-07, 0.096], [5e-06, 0.15]],
                },
            },
            schedule=[
                {"t": 0.0, "write": ["CTRL", 7]},
                {"t": 0.0, "write": ["DIVIDER", 8]},
                {"t": 0.0, "write": ["PATTERN0", 0x8000]},
                {"t": 0.0, "write": ["PATTERN_LEN", 2]},
                {"t": 0.0, "write": ["PULSE_MASK_LO", 0b111111]},
                {"t": 0.4, "exec": True},
            ],
            duration_s=1.0,
            traces={"sample_rate_hz": 10.0, "kinds": ["power", "temperature"]},
        )
        bundle = engine.run_generic(scenario)
        power = dict(bundle.tables["power"].rows)
        from clfgsim import thermal

        f_div = 35.84e6 / 2**8
        idle = 1e-9 + 1e-14 * 35.84e6 + 2e-14 * f_div
        pulsing = idle + 6 * thermal.pulse_power(analog.CellParams(), 0.05, f_div)
        assert power[0.0] == pytest.approx(idle, rel=1e-12)
        assert power[0.5] == pytest.approx(pulsing, rel=1e-12)
        temps = dict(bundle.tables["temperature"].rows)
        assert temps[0.5] > temps[0.0] > 0.036

    def test_register_write_at_the_end_shows_in_the_last_sample(self):
        # A sample sees every entry at its own time, a write at duration_s too.
        scenario = make_scenario(
            power={"static_floor_w": 1e-9, "clock_energy_per_cycle": 1e-14},
            schedule=[{"t": 0.5, "write": ["CTRL", 1]}, {"t": 1.0, "write": ["CTRL", 0]},
                      {"t": 1.0, "dac": {"v_hold": -0.5}}],
            traces={"sample_rate_hz": 2.0, "kinds": ["power", "hold"]},
        )
        bundle = engine.run_generic(scenario)
        on = 1e-9 + 1e-14 * 35.84e6
        assert bundle.tables["power"].columns[1].tolist() == [1e-9, on, 1e-9]
        assert bundle.tables["hold"].columns[1][-1] == -0.5

    def test_register_write_before_zero_shows_from_the_first_sample(self):
        # Load takes a negative schedule time; the initial chip goes before it.
        scenario = make_scenario(
            power={"static_floor_w": 1e-9, "clock_energy_per_cycle": 1e-14},
            schedule=[{"t": -1.0, "write": ["CTRL", 1]}],
            traces={"sample_rate_hz": 2.0, "kinds": ["power"]},
        )
        on = 1e-9 + 1e-14 * 35.84e6
        assert engine.run_generic(scenario).tables["power"].columns[1].tolist() == [on] * 3

    def test_lock_before_zero_holds_from_the_first_sample(self):
        # The cells start at the first schedule time, so a lock there settles.
        scenario = make_scenario(
            rails={"v_hold": -1.1},
            schedule=[{"t": -1.0, "write": ["CTRL", 2]},
                      {"t": -1.0, "write": ["LOCK_MASK_LO", 1]}, {"t": -1.0, "exec": True}],
            traces={"sample_rate_hz": 2.0, "kinds": ["cells"], "cells": [0]},
        )
        bundle = engine.run_generic(scenario)
        assert bundle.tables["cells"].columns[2].tolist() == [-1.1] * 3
        assert bundle.tables["events"].rows == [(-1.0, 0, "CLOSE", "")]

    def test_power_computed_once_per_distinct_mode(self, monkeypatch):
        calls = []
        power = engine._segment_power
        monkeypatch.setattr(engine, "_segment_power", lambda s, m: calls.append(m) or power(s, m))
        scenario = make_scenario(
            power={"static_floor_w": 1e-9},
            schedule=[{"t": 0.2, "write": ["CTRL", 1]}, {"t": 0.4, "write": ["CTRL", 0]},
                      {"t": 0.6, "write": ["CTRL", 1]}],
            traces={"sample_rate_hz": 10.0, "kinds": ["power"]},
        )
        assert len(engine.run_generic(scenario).tables["power"].rows) == 11
        assert len(calls) == 2

    def test_locking_uses_the_dac_as_is(self):
        # `cell_targets` aims the hold DAC under REFRESH only.
        scenario = make_scenario(
            rails={"v_hold": -1.0},
            cell_targets={"0": 0.5},
            schedule=lock_then_open_schedule(0b1, 1.0),
            duration_s=1.0,
            traces={"sample_rate_hz": 2.0, "kinds": ["cells", "hold"], "cells": [0]},
        )
        bundle = engine.run_generic(scenario)
        assert bundle.tables["hold"].columns[1].tolist() == [-1.0, -1.0, -1.0]
        assert bundle.tables["cells"].columns[2][:2].tolist() == [-1.0, -1.0]

    def test_refresh_moves_the_dac_before_each_targeted_close(self):
        scenario = make_scenario(
            cell_targets={"1": 0.25},
            schedule=[
                {"t": 0.0, "write": ["CTRL", 2]},
                {"t": 0.0, "write": ["LOCK_MASK_LO", 0b11]},
                {"t": 0.0, "write": ["REFRESH_PERIOD", 2]},
                {"t": 0.0, "exec": True},
            ],
            duration_s=4.0,
        )
        timeline, dacs = _timeline(scenario)
        aim = 0.25 - analog.injection_offset(scenario.analog)
        # The second move repeats the rail: a DAC entry that changes nothing.
        assert [entry[2:] for entry in timeline] == [
            ("CLOSE", 0),
            ("OPEN", 0), ("DAC", (aim, True)), ("CLOSE", 1),
            ("OPEN", 1), ("CLOSE", 0),
            ("OPEN", 0), ("DAC", (aim, False)), ("CLOSE", 1),
        ]
        assert [entry[0] for entry in timeline] == [0.0] + [1.0] * 3 + [2.0] * 2 + [3.0] * 3
        assert dacs == {"v_hold": [(-math.inf, 0.0), (1.0, aim), (3.0, aim)]}

    def test_one_manifest_per_run(self, monkeypatch):
        made = []
        manifest = engine._manifest
        monkeypatch.setattr(engine, "_manifest", lambda s: made.append(s) or manifest(s))
        scenario = engine.load_scenario(cli.bundled_scenario_path("fig3c"))
        bundle = engine.run_scenario(scenario)
        assert len(made) == 1 and made[0] is scenario
        assert bundle.manifest == manifest(scenario)
        assert engine.run_generic(scenario).manifest is None

    def test_run_twice_identical(self, tmp_path):
        scenario = make_scenario(
            rails={"v_hold": -1.1},
            schedule=lock_then_open_schedule(0b11, 0.5),
            duration_s=1.0,
            traces={"sample_rate_hz": 50.0, "kinds": ["cells"], "cells": [0, 1]},
        )
        a = engine.run_scenario(scenario)
        b = engine.run_scenario(scenario)
        assert a.tables["cells"].rows == b.tables["cells"].rows
        files_a = engine.export(a, tmp_path / "a")
        files_b = engine.export(b, tmp_path / "b")
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()


def replay_cells_edge_by_edge(scenario, bundle, moves) -> list[tuple]:
    """The `cells` table rebuilt from the `events` table's rows and hold-DAC
    `moves` (time, volts), one scalar call per event, in the engine's order:
    by time, then `engine._PRIO` (a move before a tick at its own time)."""
    cells = [analog.ClfgCell(scenario.analog)] * engine.N_CELLS
    actions = sorted(
        [(t, engine._PRIO[action], cell, action, level)
         for t, cell, action, level in bundle.tables["events"].rows]
        + [(t, engine._PRIO["DAC"], None, "DAC", volts) for t, volts in moves],
        key=lambda action: action[:2],
    )
    v_hold = scenario.rails.v_hold
    rows = []
    i = 0
    for t_sample in bundle.tables["cells"].columns[0][:: len(scenario.traces.cells)]:
        while i < len(actions) and actions[i][0] <= t_sample:
            t, _prio, c, action, value = actions[i]
            i += 1
            if action == "DAC":
                v_hold = value
                cells = [analog.set_hold(cell, v_hold) for cell in cells]
                continue
            cell = analog.settle(cells[c], t)
            if action == "CLOSE":
                cell = analog.lock(cell, v_hold, t)
            elif action == "OPEN":
                cell = analog.unlock(cell, t)
            else:
                cell = analog.apply_fg(cell, analog.Level[value], t, scenario.rails)
            cells[c] = cell
        rows += [(t_sample, c, analog.output_voltage(cells[c], t_sample))
                 for c in scenario.traces.cells]
    return rows


class TestQueuedEdges:
    """Tick runs, cut where they are read and applied in timeline order,
    match applying each edge."""

    @given(
        pattern=st.integers(0, 0xFFFF),
        plen=st.integers(1, 16),
        n_ticks=st.integers(1, 128),
        divider=st.integers(0, 15),
        pulse_mask=st.integers(1, 0xFF),
        lock_mask=st.integers(0, 0xFF),
        periods_per_tau=st.floats(0.1, 100.0),
        leak_rate=st.floats(0.0, 1e3),
        t_open=st.one_of(st.just(0.0), st.floats(1e-9, 1e-6)),
        n_samples=st.integers(1, 40),
        ticks_per_sample=st.one_of(st.none(), st.sampled_from([1, 2, 4, 64])),
        dac_tick=st.one_of(st.none(), st.integers(0, 127)),
        dac_on_tick=st.booleans(),
        split_tick=st.one_of(st.none(), st.integers(1, 127)),
        traced_mask=st.one_of(st.none(), st.integers(1, 0xFF)),
    )
    @settings(max_examples=100, deadline=None)
    def test_cells_trace_matches_edge_by_edge(
        self, pattern, plen, n_ticks, divider, pulse_mask, lock_mask,
        periods_per_tau, leak_rate, t_open, n_samples, ticks_per_sample, dac_tick,
        dac_on_tick, split_tick, traced_mask,
    ):
        period = (1 << divider) / 35.84e6
        # Lock some cells, then release them as playback starts, so their
        # first edge falls on the lock-open instant.
        if t_open == 0.0:
            lock_mask = 0
        schedule = [
            {"t": 0.0, "write": ["CTRL", 3]},
            {"t": 0.0, "write": ["LOCK_MASK_LO", lock_mask]},
            {"t": 0.0, "exec": True},
        ] if lock_mask else []
        schedule += [
            {"t": t_open, "write": ["LOCK_MASK_LO", 0]},
            {"t": t_open, "write": ["PATTERN0", pattern]},
            {"t": t_open, "write": ["PATTERN_LEN", plen]},
            {"t": t_open, "write": ["DIVIDER", divider]},
            {"t": t_open, "write": ["PULSE_MASK_LO", pulse_mask]},
            {"t": t_open, "write": ["CTRL", 7]},
            {"t": t_open, "exec": True},
        ]
        duration = t_open + (n_ticks + 0.5) * period
        # A WRITE a quarter period past the time of tick `split_tick` splits
        # playback in two runs (ticks 0..split_tick-1, then the rest from the
        # WRITE on) and inverts the pattern; the tick count stays n_ticks.
        starts = [(0, t_open)]  # (first tick, start time) of each run
        if split_tick is not None and split_tick < n_ticks:
            t_split = t_open + (split_tick + 0.25) * period
            schedule.append({"t": t_split, "write": ["PATTERN0", pattern ^ 0xFFFF]})
            starts.append((split_tick, t_split))
        # A hold-DAC move couples into every cell: halfway between two
        # ticks, or on tick `dac_tick` itself (the time playback gives it,
        # bit for bit), where it must apply before that tick.
        moves = []
        if dac_tick is not None and dac_tick < n_ticks:
            if dac_on_tick:
                first, start = max(run for run in starts if run[0] <= dac_tick)
                t_move = start + ((dac_tick - first) << divider) / 35.84e6
            else:
                t_move = t_open + (dac_tick + 0.5) * period
            moves = [(t_move, -0.7)]
            schedule.append({"t": t_move, "dac": {"v_hold": -0.7}})
        schedule.sort(key=lambda item: item["t"])
        rate = n_samples / duration
        if ticks_per_sample and t_open == 0.0:
            # Power-of-two multiples of the tick period: samples fall exactly
            # on ticks, and must see the edge at their own time.
            rate = 35.84e6 / (ticks_per_sample << divider)
        # All of the first 8 cells, or some pulsed cells only: a run is then
        # cut where its traced cells are read, with its other cells.
        traced = list(range(8)) if traced_mask is None else (
            fsm.mask_cells(traced_mask & pulse_mask) or fsm.mask_cells(pulse_mask)[:1]
        )
        scenario = make_scenario(
            analog={"r_switch": period / periods_per_tau / 0.5e-12, "leak_rate": leak_rate},
            rails={"v_high": 0.1, "v_low": -0.1, "v_hold": -1.1},
            schedule=schedule,
            duration_s=duration,
            traces={
                "sample_rate_hz": rate,
                "kinds": ["cells"],
                "cells": traced,
            },
        )
        bundle = engine.run_generic(scenario)
        pulsed = bin(pulse_mask).count("1")
        assert len(bundle.tables["events"].rows) == n_ticks * pulsed + 2 * bin(lock_mask).count("1")
        expected = replay_cells_edge_by_edge(scenario, bundle, moves)
        got = bundle.tables["cells"].rows
        assert [(t, c) for t, c, _ in got] == [(t, c) for t, c, _ in expected]
        for (_, _, v_got), (_, _, v_expected) in zip(got, expected):
            assert abs(v_got - v_expected) <= 1e-12  # volts, as for the run kernel


_RAILS = [0.0, -0.0, -1.0, -1.1]


def _groups_doc(subject: int, others: list[int], case: str, r0, r1, alone: bool, *,
                pattern: int = 0xA5C3, length: int = 16, v_hold: float = 0.0,
                swing: tuple[float, float] = (0.05, 0.0), q_inj: float = 2e-15) -> dict:
    """Cell `subject` pulsed from 10 ms to 30 ms of a 1 kHz tick, alone or
    with `others`, after their histories as `case` says: "same", every cell
    locked at `r0` (None: never) and released; "rail", `others` locked at
    `r1` and released, then `subject` at `r0`; "ref", `others` pulsed before
    every cell is locked at `r0` and released, so their reference level is
    the last one they pulsed.  Only `subject` is traced, at 500 Hz."""
    def mask(cells) -> int:
        return sum(1 << c for c in cells)

    items = [{"t": 0.0, "write": ["CTRL", 7]}, {"t": 0.0, "write": ["DIVIDER", 0]},
             {"t": 0.0, "write": ["PATTERN0", pattern]}, {"t": 0.0, "write": ["PATTERN_LEN", length]}]
    if case == "ref":
        items += [{"t": 0.0, "write": ["PULSE_MASK_LO", mask(others)]}, {"t": 0.0, "exec": True}]
    items.append({"t": 0.005, "write": ["CTRL", 3]})
    groups = [(r1, others), (r0, [subject])] if case == "rail" else [(r0, [subject, *others])]
    for k, (rail, cells) in enumerate(groups):
        if rail is not None:
            t = 0.005 + 0.002 * k
            items += [{"t": t, "dac": {"v_hold": rail}}, {"t": t, "write": ["LOCK_MASK_LO", mask(cells)]},
                      {"t": t, "exec": True}, {"t": t + 0.001, "write": ["LOCK_MASK_LO", 0]},
                      {"t": t + 0.001, "exec": True}]
    items += [{"t": 0.01, "write": ["CTRL", 7]},
              {"t": 0.01, "write": ["PULSE_MASK_LO", mask([subject] if alone else [subject, *others])]},
              {"t": 0.01, "exec": True}]
    return {"schema_version": 1, "name": "groups", "duration_s": 0.03,
            "chip": {"master_freq_hz": 1e3}, "analog": {"q_inj": q_inj},
            "rails": {"v_high": swing[0], "v_low": swing[1], "v_hold": v_hold}, "schedule": items,
            "traces": {"sample_rate_hz": 500.0, "kinds": ["cells"], "cells": [subject]}}


def _count_calls(monkeypatch, *names: str) -> dict[str, list]:
    """The arguments of each call to each of `analog`'s functions `names`."""
    calls: dict[str, list] = {name: [] for name in names}
    for name in names:
        real = getattr(analog, name)
        monkeypatch.setattr(analog, name,
                            lambda *args, log=calls[name], real=real: log.append(args) or real(*args))
    return calls


def _count_fg_runs(monkeypatch) -> list:
    return _count_calls(monkeypatch, "apply_fg_run")["apply_fg_run"]


def _slices(scenario: engine.Scenario) -> int:
    timeline, _ = _timeline(scenario, scenario.traces.cells)
    return sum(kind == "FG" for _, _, kind, _ in timeline)


class TestPulseGroups:
    """A slice runs `analog.apply_fg_run` once per distinct state of its
    pulsed cells, and a cell's result does not depend on who pulses with it."""

    @given(
        subject=st.integers(0, 5),
        others=st.sets(st.integers(0, 5), min_size=1),
        case=st.sampled_from(["same", "rail", "ref"]),
        r0=st.one_of(st.none(), st.sampled_from(_RAILS)),
        r1=st.sampled_from(_RAILS),
        pattern=st.integers(0, 0xFFFF),
        length=st.integers(1, 16),
        v_hold=st.sampled_from(_RAILS),
        swing=st.sampled_from([(0.05, 0.0), (0.0, 0.0), (0.1, -0.1)]),
        q_inj=st.sampled_from([2e-15, 0.0, -0.0]),
    )
    # No swing: from the second slice on, the others differ only in `fg_ref`.
    @example(subject=5, others={0, 1, 2, 3, 4}, case="ref", r0=-1.0, r1=0.0, pattern=0x0F0F,
             length=12, v_hold=0.0, swing=(0.0, 0.0), q_inj=2e-15)
    # One rail for both groups: the states differ only in `t_last`.
    @example(subject=5, others={0}, case="rail", r0=-1.0, r1=-1.0, pattern=0xA5C3,
             length=16, v_hold=0.0, swing=(0.05, 0.0), q_inj=2e-15)
    @settings(max_examples=40, deadline=None)
    def test_a_cell_pulses_alike_alone_and_with_others(
        self, subject, others, case, r0, r1, pattern, length, v_hold, swing, q_inj
    ):
        # "same": the others are in the subject's state; "rail": locked at
        # another drawn rail and released; "ref": their reference level is
        # the last one they pulsed, so with no swing, once a slice has set
        # every level, they differ from the subject only in `fg_ref`.
        others = sorted(others - {subject}) or [(subject + 1) % 6]
        if case == "ref" and r0 is None:
            r0 = r1
        args = (subject, others, case, r0, r1)
        kwargs = {"pattern": pattern, "length": length, "v_hold": v_hold, "swing": swing, "q_inj": q_inj}
        alone = engine.run_generic(build_scenario(_groups_doc(*args, True, **kwargs)))
        grouped = engine.run_generic(build_scenario(_groups_doc(*args, False, **kwargs)))
        assert len(grouped.tables["events"].rows) > len(alone.tables["events"].rows)
        assert list(map(repr, grouped.tables["cells"].rows)) == list(map(repr, alone.tables["cells"].rows))
        assert repr(grouped.summary["v_out_final"]) == repr(alone.summary["v_out_final"])

    def test_state_key_tells_each_field_apart(self):
        # Floats by bit pattern: states that differ only in the sign of a
        # zero have two keys, which `==` on the states would merge.
        zero = analog.ClfgCell(t_last=0.0)
        assert engine._state_key(*zero[1:]) == engine._state_key(*analog.ClfgCell(t_last=0.0)[1:])
        for field in ("v_hold_seen", "v_base", "v_start", "v_target", "t_last"):
            signed = zero._replace(**{field: -0.0})
            assert signed == zero
            assert engine._state_key(*signed[1:]) != engine._state_key(*zero[1:])
        for field, value in (("lock_closed", True), ("fg_level", analog.Level.HIGH),
                             ("fg_ref", analog.Level.HIGH)):
            other = zero._replace(**{field: value})
            assert engine._state_key(*other[1:]) != engine._state_key(*zero[1:])

    def test_states_apart_only_in_a_zero_sign_run_apart(self, monkeypatch):
        # Cell 1, locked at -0.0 and released with no injection, floats at
        # -0.0 beside cell 0's 0.0 from reset: two states, two calls a slice.
        scenario = build_scenario(_groups_doc(0, [1], "rail", None, -0.0, False, v_hold=-0.0,
                                              q_inj=-0.0))
        calls = _count_fg_runs(monkeypatch)
        engine.run_generic(scenario)
        assert len(calls) == 2 * _slices(scenario) > 0

    @pytest.mark.parametrize("case, r0, r1, per_slice", [
        ("same", None, None, 1),
        ("same", -1.0, None, 1),
        ("rail", -1.0, -1.1, 2),
        ("rail", None, -1.1, 2),
    ], ids=["from_reset", "one_rail", "two_rails", "reset_and_a_rail"])
    def test_apply_fg_run_runs_once_per_state_and_slice(self, monkeypatch, case, r0, r1, per_slice):
        # Six pulsed cells: in one state from reset or after one lock, in two
        # after locks at two rail values.
        scenario = build_scenario(_groups_doc(5, [0, 1, 2, 3, 4], case, r0, r1, False))
        calls = _count_fg_runs(monkeypatch)
        engine.run_generic(scenario)
        assert _slices(scenario) == 11  # 20 ticks, cut at the 500 Hz samples
        assert len(calls) == per_slice * 11


class TestSweep:
    def _scenario(self):
        return make_scenario(
            rails={"v_hold": -1.1},
            schedule=lock_then_open_schedule(0b1, 0.5),
            duration_s=1.0,
            traces={"sample_rate_hz": 10.0, "kinds": ["cells"], "cells": [0]},
        )

    @staticmethod
    def _swept(base, axis, values):
        """`base`'s document with the sweep block `{"axis": axis, "values": values}`, built."""
        return build_scenario(engine.set_axis(base.raw, "sweep", {"axis": axis, "values": values}))

    def test_single_point_sweep_equals_run(self):
        assert self._scenario().points == ()  # no block, no points
        scenario = self._swept(self._scenario(), "rails.v_hold", [-1.1])
        [swept] = engine.sweep(scenario)
        direct = engine.run_generic(scenario)
        assert swept.tables["cells"].rows == direct.tables["cells"].rows
        assert swept.summary == direct.summary

    def test_unknown_axis(self):
        with pytest.raises(ScenarioError,
                           match=r"^axis 'rails.nope': rails: unknown key\(s\) \['nope'\]$"):
            self._swept(self._scenario(), "rails.nope", [1.0])

    def test_fig3b_point_makes_one_call_per_lock_action(self, monkeypatch):
        # Five closes and five opens, each one transition at its own time
        # with no `settle` first, and the hold rail's 32-cell fan-out once.
        point = engine.load_scenario(cli.bundled_scenario_path("fig3b")).points[0]
        calls = _count_calls(monkeypatch, "settle", "lock", "unlock", "set_hold")
        engine.run_generic(point)
        assert {name: len(log) for name, log in calls.items()} == {
            "settle": 0, "lock": 5, "unlock": 5, "set_hold": 32,
        }

    def test_points_run_one_at_a_time_as_read(self, monkeypatch):
        ran = []
        real = engine.run_generic
        monkeypatch.setattr(engine, "run_generic",
                            lambda point, *share: ran.append(point) or real(point, *share))
        bundles = engine.sweep(self._swept(self._scenario(), "rails.v_hold", [-1.1, -1.0, -0.9]))
        assert ran == []  # every point is built, none run
        next(bundles)
        assert len(ran) == 1
        assert len(list(bundles)) == 2 and len(ran) == 3

    def test_bad_value_is_refused_before_any_run(self, monkeypatch):
        ran = []
        monkeypatch.setattr(engine, "run_generic", ran.append)
        with pytest.raises(ScenarioError, match=r"^axis 'rails.v_hold': rails.v_hold: expected"
                           r" a finite float, got 'x'$"):
            engine.sweep(self._swept(self._scenario(), "rails.v_hold", [-1.1, "x"]))
        assert ran == []

    @staticmethod
    def _assert_points_are_full_builds(base, axis, values):
        """Each point equals the full build of its document, field by field,
        or is refused with the full build's message; a point is built, as
        `_sweep_points` builds one, without the sweep points of its own."""
        for value in values:
            doc = engine.set_axis(base.raw, axis, value)
            try:
                full = build_scenario(doc, points=False)
            except ScenarioError as exc:
                with pytest.raises(ScenarioError) as refused:
                    engine._sweep_points(base, axis, [value])
                assert str(refused.value) == f"axis {axis!r}: {exc}"
                continue
            [point] = engine._sweep_points(base, axis, [value])
            for field in dataclasses.fields(engine.Scenario):
                assert getattr(point, field.name) == getattr(full, field.name), field.name

    @pytest.mark.parametrize("name, overrides", [
        ("fig3b", []), ("fig3c", []),
        ("fig3b", ["rails.v_hold=-1.2"]), ("fig3c", ["analog.leak_rate=1e-3"]),
    ])
    def test_bundled_points_are_full_builds(self, name, overrides):
        base = engine.load_scenario(cli.bundled_scenario_path(name), overrides)
        assert base.overrides == tuple(overrides)
        self._assert_points_are_full_builds(base, base.sweep.axis, base.sweep.values)

    @given(value=st.floats() | st.integers() | st.booleans() | st.text(max_size=4) | st.none()
           | st.sampled_from([math.nan, math.inf, -math.inf, 10**400, "1e3", " -1 "])
           | st.dictionaries(st.text("ab", min_size=1, max_size=2), st.floats(), max_size=2))
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("name, axis", [
        ("fig3b", "schedule.5.dac.v_hold"),  # the bundled sweep's axis
        ("fig3b", "schedule.-5.dac.v_hold"),  # the same item, from the end
        ("fig3b", "schedule.5.dac.v_gate"),  # a DAC the item does not move yet
        ("fig3b", "rails.v_hold"),
        ("fig3c", "rails.v_hold"),
    ])
    def test_drawn_points_are_full_builds(self, name, axis, value):
        base = engine.load_scenario(cli.bundled_scenario_path(name))
        self._assert_points_are_full_builds(base, axis, [value])

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        calls = []
        real = engine.build_scenario
        monkeypatch.setattr(engine, "build_scenario",
                            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        return calls

    @pytest.mark.parametrize("name", ["fig3b", "fig3c"])
    def test_bundled_sweep_makes_no_full_build(self, name, monkeypatch):
        base = engine.load_scenario(cli.bundled_scenario_path(name))
        calls = self._count_builds(monkeypatch)
        engine.run_scenario(base)
        assert calls == []

    @pytest.mark.parametrize("name", ["fig3b", "fig3c"])
    def test_points_are_made_once_per_command(self, name, monkeypatch):
        made = []
        real = engine.set_axis
        monkeypatch.setattr(engine, "set_axis", lambda *args: made.append(args) or real(*args))
        base = engine.load_scenario(cli.bundled_scenario_path(name))
        assert len(made) == len(base.sweep.values) == len(base.points)
        engine.run_scenario(base)
        assert len(made) == len(base.sweep.values)  # the run makes none again
        assert all(point.points == () for point in base.points)

    def test_other_axis_builds_each_point(self, monkeypatch):
        base = self._scenario()
        calls = self._count_builds(monkeypatch)
        points = engine._sweep_points(base, "traces.cells.0", [0, 1, 2])
        bundles = list(map(engine.run_generic, points))
        assert len(calls) == 3 and len(bundles) == 3

    def test_dac_axis_on_another_item_is_refused(self):
        base = engine.load_scenario(cli.bundled_scenario_path("fig3b"))
        assert base.schedule[4].frame is not None  # item 4 is an `exec`
        with pytest.raises(ScenarioError) as refused:
            engine._sweep_points(base, "schedule.4.dac.v_hold", [-0.8])
        assert str(refused.value) == ("axis 'schedule.4.dac.v_hold': schedule[4]:"
                                      " expected one of write/read/exec/nop/word/dac")


# Run in a child process whose numpy skips every dispatch target named in
# argv: print those still on, then check the fig3b and fig3g sweeps.
_SECOND_PATH = """
import sys
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1
    from numpy.core import _multiarray_umath as umath
from clfgsim import cli, engine
from conftest import FIG3G_SWEEP, assert_sweep_is_each_point_alone, bundled_swept
print(sorted(target for target in sys.argv[1:] if umath.__cpu_features__[target]))
assert_sweep_is_each_point_alone(engine.load_scenario(cli.bundled_scenario_path("fig3b")))
assert_sweep_is_each_point_alone(bundled_swept(*FIG3G_SWEEP))
print("ok")
"""


def _batch_sizes(scenario) -> list[int]:
    return [len(batch) for batch in engine._batches(scenario.points)]


class TestSweepBatches:
    """`engine.sweep` walks a batch of points, evaluates all their samples
    at once and splits the arrays back: each point's bundle is still the
    point run alone, bit for bit."""

    _VALUES = st.lists(st.sampled_from([-0.0, 0.0]) | st.floats(-1.5, 0.5), min_size=1, max_size=6)

    @given(values=_VALUES, repeats=st.integers(0, 2))
    @example(values=[-0.81, -0.0, 0.0], repeats=2)
    # The rail value and ±0.0 between values that change the rail: two
    # timelines, (A, B, A, B, A, A), whose points keep their own values' bits.
    @example(values=[-0.81, -0.8, -0.0, -0.8, 0.0, -0.79], repeats=0)
    @settings(max_examples=25, deadline=None)
    def test_fig3b_dac_axis(self, values, repeats):
        # The bundled sweep's axis; a value equal to the rail, -0.8, moves nothing.
        scenario = bundled_swept("fig3b", "schedule.5.dac.v_hold", [*values, *[-0.8] * repeats])
        assert _batch_sizes(scenario) == [len(scenario.points)]
        assert_sweep_is_each_point_alone(scenario)

    @given(values=_VALUES, repeats=st.integers(0, 2))
    @example(values=[-0.5, -0.0, 0.0], repeats=2)
    @settings(max_examples=25, deadline=None)
    def test_fig3c_hold_rail(self, values, repeats):
        scenario = bundled_swept("fig3c", "rails.v_hold", [-1.1] * repeats + values)
        assert _batch_sizes(scenario) == [len(scenario.points)]
        assert_sweep_is_each_point_alone(scenario)

    def test_bundled_fig3b(self):
        assert_sweep_is_each_point_alone(engine.load_scenario(cli.bundled_scenario_path("fig3b")))

    def test_fig3g_readout_and_conductance(self):
        scenario = bundled_swept(*FIG3G_SWEEP)
        assert len(engine.sample_grid(scenario)) == 22_401
        assert _batch_sizes(scenario) == [6]
        assert_sweep_is_each_point_alone(scenario)

    def test_dac_and_const_gates(self):
        # Each point's DAC gate and hold trace are its own, joined for one call.
        locks = lock_then_open_schedule(0b11, 0.02)
        doc = {
            "schema_version": 1, "name": "gates", "duration_s": 0.05, "rails": {"v_hold": -1.0},
            "device": {"levers": {"sdp": 1.0, "lw": 0.2, "bg": 0.5},
                       "gate_sources": {"sdp": {"dac": "v_sdp"}, "lw": {"cell": 0}, "bg": {"const": -0.1}}},
            "schedule": [*locks[:4], {"t": 0.01, "dac": {"v_sdp": 0.004}}, *locks[4:],
                         {"t": 0.03, "dac": {"v_hold": -0.9, "v_sdp": -0.0}}],
            "traces": {"sample_rate_hz": 1e3, "kinds": ["cells", "hold", "conductance"], "cells": [1, 0]},
            "sweep": {"axis": "schedule.4.dac.v_sdp", "values": [0.004, -0.0, 0.0, 0.01]},
        }
        scenario = build_scenario(doc)
        assert _batch_sizes(scenario) == [4]
        assert_sweep_is_each_point_alone(scenario)

    def test_full_build_axis_runs_batches_of_one(self):
        scenario = bundled_swept("fig3b", "analog.c_ds", [1e-14, 2e-14, 1e-14])
        assert _batch_sizes(scenario) == [1, 1, 1]
        assert_sweep_is_each_point_alone(scenario)

    @staticmethod
    def _pulse_dac_swept(axis: str | None = None, values=(-0.1, 0.0, -0.0, 0.05)) -> engine.Scenario:
        """`pulse_dac_document` swept on `axis`, by default its hold-rail move inside playback."""
        doc = pulse_dac_document()
        axis = axis or f"schedule.{len(doc['schedule']) - 2}.dac.v_hold"
        return build_scenario(dict(doc, sweep={"axis": axis, "values": list(values)}))

    def test_points_cut_their_tick_runs_differently(self):
        # The rail starts at 0.0: -0.1 cuts the run at 0.005 s, 0.0 and -0.0
        # change nothing there and the repeat at 0.0075 s cuts it, 0.05 cuts at both.
        scenario = self._pulse_dac_swept()
        assert _batch_sizes(scenario) == [4]
        starts = [[t for t, _, kind, _ in _timeline(point, point.traces.cells)[0] if kind == "FG"]
                  for point in scenario.points]
        assert list(map(len, starts)) == [12, 12, 12, 13]
        assert starts[0] != starts[1] == starts[2]
        assert_sweep_is_each_point_alone(scenario)

    def test_shared_work_runs_once_per_batch(self, monkeypatch):
        # The sample grid, the tick runs and the `events` table, per batch,
        # and one timeline per distinct pattern of rail moves in a batch:
        # fig3b's -0.8 point (index 60) does not move the rail, and of the
        # swap's -0.1 | 0.0 and -0.0 | 0.05, 0.0 and -0.0 share one.
        fig3b = engine.load_scenario(cli.bundled_scenario_path("fig3b"))
        swap, build = self._pulse_dac_swept(), self._pulse_dac_swept("analog.c_ds", [1e-14, 2e-14, 1e-14])
        shared = ((engine, "sample_grid"), (engine, "_events"), (fsm, "playback"), (engine, "_timeline"))
        calls: dict[str, int] = {}
        for module, name in shared:
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, real=real: calls.update(
                {name: calls.get(name, 0) + 1}) or real(*args))
        assert [v for v in fig3b.sweep.values if v == fig3b.rails.v_hold] == [fig3b.sweep.values[60]]
        names = [name for _, name in shared]
        for scenario, per_batch, batches in (
                (fig3b, {"sample_grid": 1, "_events": 1, "_timeline": 2}, 1),  # no playback
                (swap, dict(dict.fromkeys(names, 1), _timeline=3), 1),
                (build, dict.fromkeys(names, 3), 3)):
            calls.clear()
            assert len(list(engine.sweep(scenario))) == len(scenario.points)
            assert (calls, len(_batch_sizes(scenario))) == (per_batch, batches)

    def test_refresh_swept_on_the_hold_rail(self):
        # One batch of the seed-21 refresh input: 1,920 hold-rail moves a
        # point, each changing the rail, so the four points share one
        # timeline; only the rail before the first move is each point's own.
        doc = bench_document("refresh", 21)
        scenario = build_scenario(dict(doc, sweep={"axis": "rails.v_hold",
                                                   "values": [-1.101, -1.1, -0.0, 0.0]}))
        assert _batch_sizes(scenario) == [4]
        shared = engine._expand_plan(scenario, [])
        assert len(engine._moves(scenario.points[0], shared)[0]) == 1920
        assert_sweep_is_each_point_alone(scenario)

    def test_budget_splits_the_batches(self, monkeypatch):
        scenario = engine.load_scenario(cli.bundled_scenario_path("fig3b"))
        rows = scenario.points[0].rows
        monkeypatch.setattr(engine, "MAX_ROWS", 2 * rows + 1)  # after load, which checked each point
        assert _batch_sizes(scenario) == [2] * 60 + [1]
        assert_sweep_is_each_point_alone(scenario)
        monkeypatch.setattr(engine, "MAX_ROWS", rows - 1)  # a point alone past it still runs
        assert _batch_sizes(scenario) == [1] * 121
        assert_sweep_is_each_point_alone(scenario)

    @pytest.mark.parametrize("budget, calls", [(None, 1), (41, 61)])
    def test_one_evaluation_per_batch(self, budget, calls, monkeypatch):
        scenario = engine.load_scenario(cli.bundled_scenario_path("fig3b"))
        if budget is not None:
            monkeypatch.setattr(engine, "MAX_ROWS", budget)
        sampled = _count_calls(monkeypatch, "sample_output")["sample_output"]
        conducted = []
        real = device.conductance
        monkeypatch.setattr(device, "conductance", lambda *args: conducted.append(args) or real(*args))
        assert len(list(engine.sweep(scenario))) == 121
        assert (len(sampled), len(conducted)) == (calls, calls)

    def test_batches_match_on_numpy_second_cpu_path(self):
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy 1
            from numpy.core import _multiarray_umath as umath
        targets = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
        if not targets:
            pytest.skip(f"this CPU runs no numpy dispatch target above the baseline"
                        f" {umath.__cpu_baseline__}, so numpy has no second path here")
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets), PYTHONPATH=path)
        result = subprocess.run([sys.executable, "-c", _SECOND_PATH, *targets], env=env,
                                capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stderr, result.stdout) == (0, "", "[]\nok\n")


class TestExport:
    def test_event_csv_format(self, tmp_path):
        scenario = make_scenario(
            schedule=lock_then_open_schedule(0b1, 0.5),
            duration_s=1.0,
            traces={"sample_rate_hz": 10.0, "kinds": ["cells"], "cells": [0]},
        )
        bundle = engine.run_scenario(scenario)
        engine.export(bundle, tmp_path)
        lines = (tmp_path / "events.csv").read_text().splitlines()
        assert lines[0] == "time_s,cell,action,level"
        assert lines[1] == "0.0,0,CLOSE,"
        header = (tmp_path / "cells.csv").read_text().splitlines()[0]
        assert header == "time_s,cell,v_out_volts"
        manifest = json.loads((tmp_path / "manifest_test.json").read_text())
        assert manifest["schema_version"] == 1
        assert "config_sha256" in manifest


    # A column of each kind, as a dtype and the values it takes: float64 with
    # both zeros and subnormals, int64 to its edges, bools, text (which
    # numpy's str dtype holds only without trailing NULs; the program's text
    # columns hold fixed names), and objects: ints past int64 among floats,
    # bools and text.
    _FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308])
    _KINDS = {
        "f": (np.float64, _FLOATS),
        "i": (np.int64, st.integers(-(2**63), 2**63 - 1) | st.sampled_from([2**63 - 1, -(2**63)])),
        "b": (bool, st.booleans()),
        "U": (str, st.text(st.characters(exclude_characters="\0"))),
        "O": (object, _FLOATS | st.booleans() | st.text()
              | st.integers() | st.sampled_from([2**63, -(2**63) - 1, 2**64])),
    }

    @given(st.data(), st.sampled_from(sorted(_KINDS)))
    @settings(max_examples=300, deadline=None)
    def test_format_column_matches_format_cell(self, data, kind):
        # Repeats, so the distinct-value paths index text back.
        dtype, values = self._KINDS[kind]
        pool = data.draw(st.lists(values, min_size=1, max_size=6))
        values = data.draw(st.lists(st.sampled_from(pool), max_size=40))
        column = np.array(values, dtype=dtype)
        assert column.dtype.kind == kind
        if not all(math.isfinite(v) for v in values if isinstance(v, float)):
            with pytest.raises(SimulationError,
                               match=r"^output table value -?(nan|inf) is not finite$"):
                engine._format_column(column)
            return
        assert engine._format_column(column) == [engine._format_cell(v) for v in values]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("table", [
        lambda value: engine.Table(("t", "v"), (np.array([0.0, 1.0]), np.array([1.5, value]))),
        # Object columns, with an int and text among the floats.
        lambda value: engine.Table.from_rows(("t", "v", "w"), [(0, 1.5, "a"), (2**64, value, "b")]),
    ], ids=["float", "object"])
    def test_non_finite_value_is_refused_and_nothing_written(self, value, table, tmp_path):
        table = table(value)
        with pytest.raises(SimulationError) as refused:
            engine.export(engine.TraceBundle({"t": table}, {}, {"name": "t"}), tmp_path)
        assert str(refused.value) == f"output table value {value!r} is not finite"
        assert list(tmp_path.iterdir()) == []

    def test_from_rows_writes_each_value_as_given(self, tmp_path):
        # Ints past int64, and an int among floats, written as the values
        # are: an array that numpy types itself writes 9.223372036854776e+18
        # and 1.0.
        rows = [(1, 1, -1, 1, "a"), (2**63, 2**64, 2**63, 2.5, -0.0)]
        table = engine.Table.from_rows(("a", "b", "c", "d", "e"), rows)
        assert table.rows == rows
        assert [list(map(type, row)) for row in table.rows] == [list(map(type, row)) for row in rows]
        engine.export(engine.TraceBundle({"t": table}, {}, {"name": "t"}), tmp_path)
        assert (tmp_path / "t.csv").read_text().splitlines() == [
            "a,b,c,d,e", "1,1,-1,1,a",
            "9223372036854775808,18446744073709551616,9223372036854775808,2.5,-0.0",
        ]


def _pulsing(duration_s: float) -> engine.Scenario:
    """Cells 0 and 1 pulsed at DIVIDER 0 of a 1 kHz clock, from t = 0, with
    a write at 0.5 s that splits playback in two: 2,000 events per second."""
    return make_scenario(
        duration_s=duration_s,
        chip={"master_freq_hz": 1e3},
        schedule=[
            {"t": 0.0, "write": ["CTRL", 7]},
            {"t": 0.0, "write": ["DIVIDER", 0]},
            {"t": 0.0, "write": ["PULSE_MASK_LO", 3]},
            {"t": 0.0, "write": ["PATTERN0", 0xAAAA]},
            {"t": 0.0, "exec": True},
            {"t": 0.5, "write": ["PATTERN0", 0xCCCC]},
        ],
        traces={"sample_rate_hz": 10.0, "kinds": ["cells"], "cells": [0]},
    )


# `_pulsing` samples 11 times (10 Hz for 1 s) into the grid and one cell.
PULSING_SAMPLE_ROWS = 22


class TestStretchTicks:
    """A stretch of playback plays the whole periods on its own tick grid
    (`fsm.tick_count`): one count for the plan, the rows, the cursor and the run."""

    def test_a_float_difference_loses_no_tick(self):
        # Cell 0 plays "1011" at 1 kHz from 0.01 s to a write at 0.03 s, then
        # to 0.05 s.  0.03 - 0.01 is 0.019999999999999997, so a count of
        # floor(length * f_div) lost the tick at 0.029 s.
        scenario = make_scenario(
            duration_s=0.05,
            chip={"master_freq_hz": 1e3},
            schedule=[
                {"t": 0.0, "write": ["CTRL", 7]}, {"t": 0.0, "write": ["DIVIDER", 0]},
                {"t": 0.0, "write": ["PULSE_MASK_LO", 1]}, {"t": 0.0, "write": ["PATTERN0", 0xB000]},
                {"t": 0.0, "write": ["PATTERN_LEN", 4]}, {"t": 0.01, "exec": True},
                {"t": 0.03, "write": ["PATTERN_LEN", 4]},
            ],
            traces={"sample_rate_hz": 100.0},
        )
        assert scenario.rows == 6 + 40
        times, cells, _actions, levels = engine.run_generic(scenario).tables["events"].columns
        assert times.tolist() == [0.01 + k / 1e3 for k in range(20)] + [0.03 + k / 1e3 for k in range(20)]
        assert cells.tolist() == [0] * 40
        assert levels.tolist() == ["HIGH", "LOW", "HIGH", "HIGH"] * 10


class TestEventBudget:
    """Ticks x pulsed cells over a run are counted against
    `engine.MAX_ROWS`, after the sample rows, at load, before any tick run
    is made."""

    def test_run_at_the_budget_plays_back(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_ROWS", PULSING_SAMPLE_ROWS + 2000)
        scenario = _pulsing(1.0)
        assert scenario.rows == PULSING_SAMPLE_ROWS + 2000
        bundle = engine.run_generic(scenario)
        assert bundle.tables["events"].columns[2].tolist().count("FG") == 2000

    def test_run_past_the_budget_is_refused_before_its_ticks(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_ROWS", PULSING_SAMPLE_ROWS + 1999)
        made = []
        real = fsm.playback
        monkeypatch.setattr(
            fsm, "playback", lambda state, d, s=0.0: made.append(d) or real(state, d, s)
        )
        budget = "duration_s: playback up to t=1.0 s brings the run to 2022 rows"
        with pytest.raises(ScenarioError, match=budget + r", past the budget of 2021$"):
            _pulsing(1.0)
        assert made == []  # refused at load: no tick is made

    def test_run_command_exits_1_quoting_count_and_budget(self, monkeypatch, tmp_path, capsys):
        scenario = _pulsing(1.0)
        monkeypatch.setattr(engine, "MAX_ROWS", PULSING_SAMPLE_ROWS + 999)
        path = tmp_path / "long.scn"
        path.write_text(json.dumps(scenario.raw))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "o")]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: schedule[5]: playback up to t=0.5 s")
            assert "1022 rows" in err and "past the budget of 1021" in err
            assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_tick_count_past_float_range_is_refused(self):
        doc = json.loads(json.dumps(_pulsing(1.0).raw))
        # 10 s at 1e308 Hz is past float range.  At 1e-5 Hz the 1e10 s take
        # 100,001 samples, within the row budget, so the ticks are what is refused.
        doc.update(duration_s=1e10, traces={"sample_rate_hz": 1e-5})
        doc["chip"]["master_freq_hz"] = 1e308
        doc["schedule"][5]["t"] = 10.0
        with pytest.raises(ScenarioError, match=r"^schedule\[5\]: "):
            build_scenario(doc)


def _refreshing() -> engine.Scenario:
    """Cells 0 and 1 refreshed with a 1 s period, a slot every 0.5 s, for
    10 s, with a write at 5 s that leaves the refresh running: 20 closes
    and 19 opens, 39 rows in all, counted at `duration_s`, after 22 sample
    rows (11 samples of the grid and one cell)."""
    return make_scenario(
        duration_s=10.0,
        schedule=[
            {"t": 0.0, "write": ["CTRL", 2]},
            {"t": 0.0, "write": ["LOCK_MASK_LO", 3]},
            {"t": 0.0, "write": ["REFRESH_PERIOD", 1]},
            {"t": 0.0, "exec": True},
            {"t": 5.0, "write": ["PATTERN0", 1]},
        ],
        traces={"sample_rate_hz": 1.0, "kinds": ["cells"], "cells": [0]},
    )


class TestLockActionBudget:
    """Lock actions count against `engine.MAX_ROWS` with the sample rows and
    fast-gate events, at load: a REFRESH mode's slots before any slot of it
    is made."""

    @staticmethod
    def _spy_slots(monkeypatch) -> list:
        # REFRESH picks slot k's cell as `cells[k % n]`: record each pick.
        made = []
        real = fsm.mask_cells

        class Cells(list):
            def __getitem__(self, k):
                made.append(k)
                return super().__getitem__(k)

        monkeypatch.setattr(fsm, "mask_cells", lambda mask: Cells(real(mask)))
        return made

    def test_refresh_at_the_budget_runs(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_ROWS", 22 + 39)
        made = self._spy_slots(monkeypatch)
        scenario = _refreshing()
        assert made == []  # the slots are made by the run, not at load
        log = engine.run_generic(scenario).tables["events"]
        assert len(log.rows) == 39 and log.columns[2].tolist().count("CLOSE") == 20
        assert len(made) == 20

    def test_refresh_past_the_budget_is_refused_before_its_slots(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_ROWS", 22 + 38)
        made = self._spy_slots(monkeypatch)
        budget = "duration_s: refresh up to t=10.0 s brings the run to 61 rows, past the budget of 60"
        with pytest.raises(ScenarioError, match=f"^{re.escape(budget)}$"):
            _refreshing()
        assert made == []  # refused at load: no slot is made

    def test_refresh_is_counted_where_the_mode_ends(self, monkeypatch):
        # The write at 5 s does not end the refresh, so the count is the
        # whole mode's, at `duration_s`; it was the first 19 rows', at the write.
        monkeypatch.setattr(engine, "MAX_ROWS", 40)
        budget = "duration_s: refresh up to t=10.0 s brings the run to 61 rows, past the budget of 40"
        with pytest.raises(ScenarioError, match=f"^{re.escape(budget)}$"):
            _refreshing()

    def test_refresh_past_the_budget_in_slots_alone_quotes_a_lower_bound(self):
        # 1e300 s of one-second slots: the count stops once past the budget.
        schedule = [{"t": 0.0, "write": ["CTRL", 2]}, {"t": 0.0, "write": ["LOCK_MASK_LO", 1]},
                    {"t": 0.0, "write": ["REFRESH_PERIOD", 1]}, {"t": 0.0, "exec": True}]
        refusal = (r"^duration_s: refresh up to t=1e\+300 s brings the run to at least \d+ rows,"
                   f" past the budget of {engine.MAX_ROWS}$")
        with pytest.raises(ScenarioError, match=refusal):
            make_scenario(schedule=schedule, duration_s=1e300, traces={"sample_rate_hz": 1e-300})

    def test_lock_and_release_count_at_the_mode_change(self, monkeypatch):
        schedule = lock_then_open_schedule(0b111, 0.5)
        monkeypatch.setattr(engine, "MAX_ROWS", 11 + 6)  # 11 samples of the grid alone
        scenario = make_scenario(schedule=schedule)
        assert len(engine.run_generic(scenario).tables["events"].rows) == 6
        monkeypatch.setattr(engine, "MAX_ROWS", 11 + 5)
        with pytest.raises(ScenarioError, match=r"^schedule\[6\]: the schedule up to"
                           r" t=0.5 s brings the run to 17 rows, past the budget of 16$"):
            make_scenario(schedule=schedule)


class TestRefreshPlan:
    """A REFRESH mode is one plan entry, and the plan holds no DAC move: the
    run takes the slots from that entry and the moves from the schedule."""

    @staticmethod
    def _timeline(scenario) -> tuple[list, dict]:
        """The timeline and each DAC's changes, no sampled cell cutting a tick run."""
        return _timeline(scenario)

    @given(
        mask=st.integers(1, 15),
        period=st.integers(1, 3),
        anchor=st.integers(0, 8).map(lambda k: k / 2),
        span=st.integers(0, 12).map(lambda k: k / 2),
        writes=st.lists(st.tuples(st.floats(0, 1), st.sampled_from(
            [("PATTERN0", 0xBEEF), ("REFRESH_PERIOD", 5), ("LOCK_MASK_LO", 0b1000)])),
            min_size=1, max_size=3),
        moves=st.lists(st.tuples(st.integers(0, 24), st.floats(-1.5, -0.5)), max_size=3),
        targets=st.dictionaries(st.integers(0, 3), st.floats(-1.5, -0.5), max_size=3),
        leave=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_slots_in_closed_form(self, mask, period, anchor, span, writes, moves, targets, leave):
        # WRITEs inside the mode, to its own registers too, change nothing of
        # it: slot k at anchor + k·period/n closes cells[k % n], each slot
        # after slot 0 opens the cell before it, and a targeted close gets a
        # DAC entry just before it.  Schedule DAC moves fall on slot times.
        # Each DAC entry is (value, whether it differs from the move before).
        cells, end = fsm.mask_cells(mask), anchor + span
        n = len(cells)
        items = [(anchor + f * span, 0, {"write": list(w)}) for f, w in writes]
        items += [(min(anchor + k * period / n, end), 0, {"dac": {"v_hold": v}}) for k, v in moves]
        if leave:
            items += [(end, 1, {"write": ["LOCK_MASK_LO", 0]}), (end, 1, {"exec": True})]
        scenario = make_scenario(
            duration_s=end, cell_targets={str(c): v for c, v in targets.items()},
            schedule=[{"t": anchor, "write": ["CTRL", 2]}, {"t": anchor, "write": ["LOCK_MASK_LO", mask]},
                      {"t": anchor, "write": ["REFRESH_PERIOD", period]}, {"t": anchor, "exec": True},
                      *({"t": t, **item} for t, _, item in sorted(items, key=lambda i: i[:2]))],
            traces={"sample_rate_hz": 1.0},
        )
        slots = [k for k in range(25) if anchor + k * period / n < end]  # 6 s at 4 a second, at most
        assert list(scenario.plan[:1]) == [
            (anchor, engine._PRIO["OPEN"], "REFRESH", (period, cells, len(slots)))]
        assert not {"DAC", "MODE"} & {e[2] for e in scenario.plan}
        aim = analog.injection_offset(scenario.analog)
        expected = [(t, engine._PRIO["DAC"], "DAC", item["dac"]["v_hold"])
                    for t, _, item in sorted(items, key=lambda i: i[:2]) if "dac" in item]
        for k in slots:
            slot, cell = anchor + k * period / n, cells[k % n]
            if k:
                expected.append((slot, engine._PRIO["OPEN"], "OPEN", cells[(k - 1) % n]))
            if cell in targets:
                expected.append((slot, engine._PRIO["DAC"], "DAC", targets[cell] - aim))
            expected.append((slot, engine._PRIO["CLOSE"], "CLOSE", cell))
        if leave and slots:
            expected.append((end, engine._PRIO["OPEN"], "OPEN", cells[slots[-1] % n]))
        expected.sort(key=lambda e: e[:2])
        rail = [(-math.inf, scenario.rails.v_hold)]
        for i, (t, prio, kind, value) in enumerate(expected):
            if kind == "DAC":
                expected[i] = (t, prio, kind, (value, value != rail[-1][1]))
                rail.append((t, value))
        assert self._timeline(scenario) == (expected, {"v_hold": rail})

    def test_schedule_move_at_a_targeted_slot_goes_first(self):
        # Slot 1 (t = 1 s) closes cell 1 onto its target; a host move at
        # that instant goes before the target's move, so the close uses the target.
        scenario = make_scenario(
            cell_targets={"1": 0.25},
            schedule=[
                {"t": 0.0, "write": ["CTRL", 2]},
                {"t": 0.0, "write": ["LOCK_MASK_LO", 0b11]},
                {"t": 0.0, "write": ["REFRESH_PERIOD", 2]},
                {"t": 0.0, "exec": True},
                {"t": 1.0, "dac": {"v_hold": 0.5}},
            ],
            duration_s=2.0,
            traces={"sample_rate_hz": 1.0, "kinds": ["hold"]},
        )
        assert "DAC" not in {entry[2] for entry in scenario.plan}
        aim = 0.25 - analog.injection_offset(scenario.analog)
        timeline, dacs = self._timeline(scenario)
        assert [entry[2:] for entry in timeline] == [
            ("CLOSE", 0),
            ("OPEN", 0), ("DAC", (0.5, True)), ("DAC", (aim, True)), ("CLOSE", 1),
        ]
        assert dacs == {"v_hold": [(-math.inf, 0.0), (1.0, 0.5), (1.0, aim)]}
        assert engine.run_generic(scenario).tables["hold"].columns[1].tolist() == [0.0, aim, aim]

    # Rail values that repeat, and 0.0 next to -0.0, which compare equal.
    _VOLTS = st.sampled_from([0.0, -0.0, -1.0, -1.1])

    @given(
        mask=st.integers(1, 15),
        period=st.integers(1, 3),
        moves=st.lists(st.tuples(
            st.integers(0, 12), st.booleans(),
            st.dictionaries(st.sampled_from(["v_hold", "v_sdp"]), _VOLTS, min_size=1)), max_size=6),
        targets=st.dictionaries(st.integers(0, 3), _VOLTS, max_size=4),
        v_hold=_VOLTS,
        leave=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_dac_changes_match_the_reference(self, mask, period, moves, targets, v_hold, leave):
        # Host moves of one or two DACs, on slot times or between them, and
        # REFRESH slots that aim the rail at their cells' targets.  With no
        # injection charge a slot moves the rail to its target as given.
        cells, end = fsm.mask_cells(mask), 3.0
        n = len(cells)
        items = sorted(((k * period / n + 0.25 * off, {"dac": dac}) for k, off, dac in moves
                        if k * period / n + 0.25 * off <= end), key=lambda item: item[0])
        tail = [{"t": end, "write": ["LOCK_MASK_LO", 0]}, {"t": end, "exec": True}] * leave
        scenario = make_scenario(
            analog={"q_inj": 0.0}, rails={"v_hold": v_hold}, duration_s=end,
            cell_targets={str(c): v for c, v in targets.items()},
            device={"levers": {"sdp": 1.0}, "gate_sources": {"sdp": {"dac": "v_sdp"}}},
            schedule=[{"t": 0.0, "write": ["CTRL", 2]}, {"t": 0.0, "write": ["LOCK_MASK_LO", mask]},
                      {"t": 0.0, "write": ["REFRESH_PERIOD", period]}, {"t": 0.0, "exec": True},
                      *({"t": t, **item} for t, item in items), *tail],
            traces={"sample_rate_hz": 1.0},
        )
        slots = {k * period / n: cells[k % n] for k in range(4 * n) if k * period / n < end}
        timeline, dacs = self._timeline(scenario)
        expected = _dac_reference(scenario, slots)
        assert {name: list(map(repr, changes)) for name, changes in dacs.items()} == {
            name: list(map(repr, changes)) for name, changes in expected.items()}
        rail = expected["v_hold"]
        assert [(e[0], repr(e[3][0]), e[3][1]) for e in timeline if e[2] == "DAC"] == [
            (t, repr(v), v != u) for (_, u), (t, v) in zip(rail, rail[1:])]


def _dac_reference(scenario: engine.Scenario, slots: dict[float, int]) -> dict[str, list]:
    """Each DAC's (time, value) changes, time by time: the schedule's `dac`
    items at that time in order, then the move of a REFRESH slot there
    (`slots`: time -> cell) to its cell's target less the injection offset."""
    changes = {"v_hold": [(-math.inf, scenario.rails.v_hold)], "v_sdp": [(-math.inf, 0.0)]}
    offset = analog.injection_offset(scenario.analog)
    for t in sorted({item.time_s for item in scenario.schedule if item.dac} | set(slots)):
        for item in scenario.schedule:
            for name, value in item.dac if item.time_s == t else ():
                changes[name].append((t, value))
        if slots.get(t) in scenario.cell_targets:
            changes["v_hold"].append((t, scenario.cell_targets[slots[t]] - offset))
    return changes


class TestRunHasNoRefusal:
    """Every refusal of a schedule is made at load: a run only expands the
    plan, so it steps no FSM and checks no budget."""

    @pytest.mark.parametrize("build", [
        lambda: _pulsing(1.0),
        _refreshing,
        lambda: make_scenario(schedule=lock_then_open_schedule(0b111, 0.5)),
    ], ids=["pulsing", "refresh", "locking"])
    def test_run_expands_the_plan_only(self, build, monkeypatch):
        scenario = build()
        def refuse(*args):
            raise SimulationError("refused at run")
        monkeypatch.setattr(fsm, "step", refuse)
        monkeypatch.setattr(engine, "_check_budget", refuse)
        assert engine.run_generic(scenario).tables["events"].rows


# A host move of the hold rail, of the gate DAC `v_sdp` or of both at once.
_DAC_MOVE = st.dictionaries(st.sampled_from(["v_hold", "v_sdp"]), st.floats(-1.2, -1.0),
                            min_size=1).map(lambda moves: {"dac": moves})


def _step_reference(scenario: engine.Scenario, t: float) -> tuple[float, float, float, float]:
    """The hold rail, the `v_sdp` DAC, the power and the temperature that a
    sample at `t` sees, item by item: the last DAC move at or before `t`,
    and the power of the chip state that `fsm.step` reaches over the
    commands at or before it."""
    dacs = {"v_hold": scenario.rails.v_hold, "v_sdp": 0.0}
    chip = fsm.ChipState(config=scenario.chip)
    for item in scenario.schedule:
        if item.time_s > t:
            break
        if item.frame is None:
            dacs.update(item.dac)
        else:
            chip = fsm.step(chip, item.frame)[0]
    power = engine._segment_power(scenario, (chip.mode, chip.regs))
    return dacs["v_hold"], dacs["v_sdp"], power, thermal.temperature(power, scenario.calibration)


class TestStepTraces:
    """The hold rail, a DAC gate, power and temperature hold the value last
    set at or before each sample, against an item-by-item reference."""

    @given(schedule=drawn_schedule(st.one_of(DRAWN_ITEM, _DAC_MOVE, _DAC_MOVE)), pulse=st.booleans())
    @settings(max_examples=150, deadline=None)
    @example(schedule=[  # moves inside playback, at a sample and between two, twice at one time
        {"t": 0.01, "dac": {"v_sdp": -1.1, "v_hold": -1.05}}, {"t": 0.025, "dac": {"v_hold": -1.1}},
        {"t": 0.025, "dac": {"v_hold": -1.1, "v_sdp": -1.0}}, {"t": 0.03, "write": ["CTRL", 3]},
        {"t": 0.04, "dac": {"v_hold": -1.0}}], pulse=True)
    def test_traces_match_the_reference(self, schedule, pulse):
        if pulse:  # pulse cells 0 and 1 from t = 0, until a drawn EXEC
            schedule = [{"t": 0.0, "write": ["CTRL", 7]}, {"t": 0.0, "write": ["DIVIDER", 12]},
                        {"t": 0.0, "write": ["PULSE_MASK_LO", 3]}, {"t": 0.0, "exec": True},
                        *schedule]
        try:
            scenario = make_scenario(
                schedule=schedule, duration_s=0.05,
                device={"levers": {"sdp": 1.0}, "gate_sources": {"sdp": {"dac": "v_sdp"}},
                        "axis_gate": "sdp", "bandwidth_hz": 1.0},
                power={"fsm_energy_per_cycle": 2e-14, "clock_energy_per_cycle": 1e-14,
                       "static_floor_w": 1e-9,
                       "calibration": {"points": [[7.038e-07, 0.096], [5e-06, 0.15]]}},
                traces={"sample_rate_hz": 100.0, "cells": [0, 1],
                        "kinds": ["cells", "hold", "readout", "power", "temperature"]},
            )
        except ScenarioError:
            return  # a schedule that the chip refuses
        tables = engine.run_generic(scenario).tables
        expected = [_step_reference(scenario, t) for t in engine.sample_grid(scenario).tolist()]
        hold, gate, watts, kelvin = map(list, zip(*expected))
        assert tables["hold"].columns[1].tolist() == hold
        assert tables["readout"].columns[1].tolist() == gate
        assert tables["power"].columns[1].tolist() == watts
        assert tables["temperature"].columns[1].tolist() == kelvin


def _logged_events(timeline) -> list[tuple]:
    """The `events` rows of a timeline as a run loop logs them, entry by
    entry: a lock action's (time, cell, action, ""), a slice's rows tick by
    tick with its cells ascending, nothing for a hold-rail move."""
    rows = []
    for t, _prio, kind, payload in timeline:
        if kind == "FG":
            for time, level in zip(payload.times.tolist(), payload.levels.tolist()):
                rows += [(time, c, "FG", analog.Level(level).name) for c in payload.cells]
        elif kind in ("OPEN", "CLOSE"):
            rows.append((t, payload, kind, ""))
    return rows


# A hold-rail move that often repeats the rail (or gives its zero the other sign).
_HOLD_REPEAT = st.sampled_from([-1.1, -1.0, 0.0, -0.0]).map(lambda v: {"dac": {"v_hold": v}})


class TestEventsTable:
    """The `events` table, built from the timeline after the run, holds the
    rows a loop logging each entry would, bit for bit, as float64, int64 and
    text columns."""

    @given(schedule=drawn_schedule(st.one_of(DRAWN_ITEM, _HOLD_REPEAT, st.just({"exec": True}))))
    @settings(max_examples=150, deadline=None)
    @example(schedule=[  # a rail move and a repeat inside a stretch, locks between two
        {"t": 0.01, "dac": {"v_hold": -1.0}}, {"t": 0.02, "dac": {"v_hold": -1.0}},
        {"t": 0.03, "exec": True}, {"t": 0.04, "exec": True}])
    def test_rows_match_the_logged_timeline(self, schedule):
        # Cells 0 and 1 pulse from t = 0.  Each drawn EXEC follows a CTRL
        # write, 3 then 7 in turn, so EXECs go from playback to LOCKING or
        # REFRESH (cells 1 and 2, unless a drawn write moves the masks) and back.
        ctrl = itertools.cycle([3, 7])
        items = [{"t": 0.0, "write": ["CTRL", 7]}, {"t": 0.0, "write": ["DIVIDER", 12]},
                 {"t": 0.0, "write": ["PULSE_MASK_LO", 3]}, {"t": 0.0, "write": ["LOCK_MASK_LO", 6]},
                 {"t": 0.0, "exec": True}]
        for item in schedule:
            if "exec" in item:
                items.append({"t": item["t"], "write": ["CTRL", next(ctrl)]})
            items.append(item)
        try:
            scenario = make_scenario(schedule=items, duration_s=0.05, rails={"v_hold": -1.1},
                                     traces={"sample_rate_hz": 100.0, "kinds": ["cells"], "cells": [0]})
        except ScenarioError:
            return  # a schedule that the chip refuses
        timeline, _ = _timeline(scenario, [0])
        bundle = engine.run_generic(scenario)
        table = bundle.tables["events"]
        expected = _logged_events(timeline)
        assert list(map(repr, table.rows)) == list(map(repr, expected))
        assert [column.dtype.str[1:] for column in table.columns[:2]] == ["f8", "i8"]
        assert [column.dtype.kind for column in table.columns[2:]] == ["U", "U"]
        assert bundle.summary["n_events"] == len(expected)


def _doubled(doc: dict) -> dict:
    """`doc` with every voltage input doubled: the rails, each `dac` move of
    the hold rail, each `cell_targets` value and `analog.q_inj`, defaults
    included."""
    doc = copy.deepcopy(doc)
    rails = {**dataclasses.asdict(analog.SupplyRails()), **doc.get("rails", {})}
    doc["rails"] = {key: 2 * v for key, v in rails.items()}
    q_inj = doc.setdefault("analog", {}).get("q_inj", analog.CellParams().q_inj)
    doc["analog"]["q_inj"] = 2 * q_inj
    doc["cell_targets"] = {c: 2 * v for c, v in doc.get("cell_targets", {}).items()}
    for item in doc["schedule"]:
        if "v_hold" in item.get("dac", {}):
            item["dac"]["v_hold"] *= 2
    return doc


class TestVoltageScaling:
    """The cell model is linear in voltage, and doubling is exact in binary
    floating point: doubling every voltage input doubles every `cells` and
    `hold` value, bit for bit.  A constant term or a nonlinearity in any
    voltage path breaks it."""

    @staticmethod
    def _assert_doubles(doc: dict) -> None:
        doc = dict(doc, traces=dict(doc["traces"], kinds=["cells", "hold"]))
        once, twice = (engine.run_generic(build_scenario(d)).tables for d in (doc, _doubled(doc)))
        for key, column in (("cells", 2), ("hold", 1)):
            assert (2 * once[key].columns[column]).tobytes() == twice[key].columns[column].tobytes(), key

    @pytest.mark.parametrize("name, seed", [("pulse", 7), ("pulse", 21), ("refresh", 7), ("refresh", 21)])
    def test_bench_inputs(self, name, seed):
        self._assert_doubles(bench_document(name, seed))

    @given(schedule=drawn_schedule(st.one_of(DRAWN_ITEM, _HOLD_REPEAT)),
           targets=st.dictionaries(st.sampled_from(["0", "1", "2"]), st.floats(-1.2, -1.0), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_drawn_schedules(self, schedule, targets):
        doc = {"schema_version": 1, "name": "drawn", "duration_s": 0.05, "cell_targets": targets,
               "rails": {"v_high": 0.1, "v_low": -0.1, "v_hold": -1.1}, "schedule": schedule,
               "traces": {"sample_rate_hz": 1000.0, "cells": [0, 1, 2]}}
        try:
            build_scenario(doc)
        except ScenarioError:
            return  # a schedule that the chip refuses
        self._assert_doubles(doc)


# Each mask register's low half, which drawn schedules write, and its high half.
_MASKS = {"LOCK_MASK_LO": "LOCK_MASK_HI", "PULSE_MASK_LO": "PULSE_MASK_HI"}
# Drawn items, and hold-rail moves, but no READ of a mask: its response is the mask.
_ANY_CELLS_ITEM = st.one_of(DRAWN_ITEM.filter(lambda item: item.get("read") not in _MASKS),
                            _HOLD_REPEAT)


def _renamed(doc: dict, perm: Sequence[int]) -> dict:
    """`doc` with each cell c named perm[c]: in each mask write (written as
    both halves, at its time), the traced cells, the gate sources and the
    cell targets."""
    doc = copy.deepcopy(doc)
    schedule = []
    for item in doc["schedule"]:
        reg, value = item.get("write", (None, None))
        if reg in _MASKS:
            mask = sum(1 << perm[c] for c in fsm.mask_cells(value))
            schedule += [{"t": item["t"], "write": [reg, mask & 0xFFFF]},
                         {"t": item["t"], "write": [_MASKS[reg], mask >> 16]}]
        else:
            schedule.append(item)
    doc["schedule"] = schedule
    doc["traces"]["cells"] = [perm[c] for c in doc["traces"]["cells"]]
    for source in doc["device"]["gate_sources"].values():
        source["cell"] = perm[source["cell"]]
    doc["cell_targets"] = {str(perm[int(c)]): v for c, v in doc["cell_targets"].items()}
    return doc


def _by_time_and_cell(table: engine.Table, name=lambda c: c) -> list[str]:
    """The reprs of a table's rows, each `cell` mapped by `name`, sorted
    stably by time and cell (a cell's rows at one time keep their order)."""
    if "cell" not in table.header:
        return list(map(repr, table.rows))
    i = table.header.index("cell")
    rows = [(*row[:i], name(row[i]), *row[i + 1:]) for row in table.rows]
    return list(map(repr, sorted(rows, key=lambda row: (row[0], row[i]))))


class TestRenamedCells:
    """Only the shared hold rail couples cells, and it reaches all 32 alike,
    so renaming the cells of a document renames them in its run, and changes
    nothing else, bit for bit.  REFRESH visits its cells in ascending order,
    so the drawn documents have none: every refresh period is 0."""

    @given(schedule=drawn_schedule(_ANY_CELLS_ITEM), perm=st.permutations(range(engine.N_CELLS)))
    @settings(max_examples=150, deadline=None)
    def test_tables_are_the_run_renamed(self, schedule, perm):
        # Cells 0 and 1 pulse from t = 0.  Each drawn EXEC follows a CTRL
        # write, 3 then 7 in turn, so EXECs go from playback to LOCKING
        # (cells 1 and 2, unless a drawn write moves the masks) and back.
        ctrl = itertools.cycle([3, 7])
        items = [{"t": 0.0, "write": ["CTRL", 7]}, {"t": 0.0, "write": ["DIVIDER", 12]},
                 {"t": 0.0, "write": ["PULSE_MASK_LO", 3]}, {"t": 0.0, "write": ["LOCK_MASK_LO", 6]},
                 {"t": 0.0, "exec": True}]
        for item in schedule:
            if "exec" in item:
                items.append({"t": item["t"], "write": ["CTRL", next(ctrl)]})
            if item.get("write", [None])[0] == "REFRESH_PERIOD":
                item = dict(item, write=["REFRESH_PERIOD", 0])
            items.append(item)
        doc = {
            "schema_version": 1, "name": "renamed", "duration_s": 0.05, "rails": {"v_hold": -1.1},
            "schedule": items,
            "device": {"levers": {"lw": 0.2, "rw": 0.3}, "axis_gate": "lw", "bandwidth_hz": 1.0,
                       "gate_sources": {"lw": {"cell": 0}, "rw": {"cell": 2}}},
            "power": {"fsm_energy_per_cycle": 2e-14, "clock_energy_per_cycle": 1e-14,
                      "static_floor_w": 1e-9,
                      "calibration": {"points": [[7.038e-07, 0.096], [5e-06, 0.15]]}},
            "cell_targets": {"0": -1.0, "2": -1.05},
            "traces": {"sample_rate_hz": 100.0, "cells": [0, 1, 2, 9],
                       "kinds": ["cells", "hold", "conductance", "readout", "power", "temperature"]},
        }
        try:
            scenario = build_scenario(doc)
        except ScenarioError:  # a schedule that the chip refuses, whatever the cells' names
            with pytest.raises(ScenarioError):
                build_scenario(_renamed(doc, perm))
            return
        assert fsm.Mode.REFRESH not in {mode for _, (mode, _) in scenario.modes}
        want = engine.run_generic(scenario)
        got = engine.run_generic(build_scenario(_renamed(doc, perm)))
        assert sorted(got.tables) == sorted(want.tables)
        for name, table in want.tables.items():
            assert _by_time_and_cell(got.tables[name], perm.index) == _by_time_and_cell(table), name
        finals = {perm.index(c): v for c, v in got.summary["v_out_final"].items()}
        assert repr(dict(got.summary, v_out_final=finals)) == repr(want.summary)


_ANY_TIME = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 5e-324])


@st.composite
def _lock_and_tick_timeline(draw) -> list[tuple]:
    """A timeline of lock actions and tick slices: groups of lock actions
    (an OPEN and a CLOSE may share an instant), each maybe followed by a
    slice of 1-32 cells and drawn levels, often of one tick."""
    timeline = []
    for _ in range(draw(st.integers(0, 4))):
        for _ in range(draw(st.integers(0, 3))):
            t = draw(_ANY_TIME)
            for kind in draw(st.sampled_from([["CLOSE"], ["OPEN"], ["OPEN", "CLOSE"]])):
                timeline.append((t, engine._PRIO[kind], kind, draw(st.integers(0, 31))))
        if draw(st.booleans()):
            n = draw(st.sampled_from([1, 1, 2, 5, 9]))
            times = draw(st.lists(_ANY_TIME, min_size=n, max_size=n))
            levels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
            cells = draw(st.sets(st.integers(0, 31), min_size=1, max_size=32))
            run = fsm.TickRun(np.array(times), np.array(levels, dtype=np.uint8), tuple(sorted(cells)), 1.0)
            timeline.append((times[0], engine._PRIO["FG"], "FG", run))
    return timeline


def _exported(table: engine.Table, outdir: Path) -> bytes:
    engine.export(engine.TraceBundle({"events": table}, {}, {"name": "t"}), outdir)
    return (outdir / "events.csv").read_bytes()


class TestBlockExport:
    """`export` writes a table block by block, `CHUNK_ROWS` rows a write: the
    bytes are those of the same rows as one columns block, whose text is
    `_format_column`'s."""

    @given(timeline=_lock_and_tick_timeline(), chunk=st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    @example(timeline=[], chunk=1)  # an empty `events` table
    def test_blocks_write_the_bytes_of_one_columns_block(self, timeline, chunk):
        table = engine._events(timeline)
        assert len(table) == len(table.rows) == len(_logged_events(timeline))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            expected = _exported(engine.Table(table.header, table.columns), Path(tmp, "one"))
            mp.setattr(engine, "CHUNK_ROWS", chunk)  # chunk ends inside blocks
            assert _exported(table, Path(tmp, "blocks")) == expected

    def test_run_expands_no_tick_run(self, monkeypatch, tmp_path):
        def expanded(run):
            raise AssertionError("a tick run was expanded into columns")

        path = tmp_path / "pulse.scn"
        path.write_text(json.dumps(_pulsing(1.0).raw))
        monkeypatch.setattr(engine, "csv_columns", expanded)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "events.csv").read_text().splitlines()
        assert len(lines) == 1 + 2000 and lines[1] == "0.0,0,FG,HIGH"


def _bundles(scenario: engine.Scenario) -> list[engine.TraceBundle]:
    """Its sweep's bundles, or its run's alone."""
    return list(engine.sweep(scenario)) if scenario.points else [engine.run_generic(scenario)]


class TestChunkedEvaluation:
    """`_walk` converts the batch's sampled fields to float64 every
    `FLUSH_FIELDS` of them, and `_evaluate` computes `CHUNK_ROWS`
    cell-samples (conductance samples) a call: no flush or chunk edge, inside
    a sample block, on its edge or between the points of a sweep batch,
    changes a bit of any table or of the summary."""

    @staticmethod
    def _assert_sizes_change_no_bit(scenario: engine.Scenario, chunk: int, flush: int) -> None:
        want = _bundles(scenario)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "CHUNK_ROWS", chunk)
            mp.setattr(engine, "FLUSH_FIELDS", flush)
            got = _bundles(scenario)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_bundle(a, b)

    @given(schedule=drawn_schedule(st.one_of(DRAWN_ITEM, _HOLD_REPEAT)), swept=st.booleans(),
           chunk=st.integers(1, 40), flush=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_drawn_schedules(self, schedule, swept, chunk, flush):
        doc = {"schema_version": 1, "name": "drawn", "duration_s": 0.05, "schedule": schedule,
               "rails": {"v_high": 0.1, "v_low": -0.1, "v_hold": -1.1},
               "device": {"levers": {"lw": 0.2}, "gate_sources": {"lw": {"cell": 3}}},
               "traces": {"sample_rate_hz": 1000.0, "cells": [0, 1, 2],
                          "kinds": ["cells", "conductance"]}}
        if swept:
            doc["sweep"] = {"axis": "rails.v_hold", "values": [-1.1, -1.0, -0.0, 0.0]}
        try:
            scenario = build_scenario(doc)
        except ScenarioError:
            return  # a schedule that the chip refuses
        self._assert_sizes_change_no_bit(scenario, chunk, flush)

    @pytest.mark.parametrize("chunk, flush", [(1, 1), (100, 37)])
    @pytest.mark.parametrize("name, kinds", [
        ("pulse", None), ("refresh", None),
        ("refresh", ["hold"]),  # samples no cell
        ("pulse", []),  # the events table alone
    ])
    def test_bench_inputs(self, name, kinds, chunk, flush):
        doc = bench_document(name, 21)
        if kinds is not None:
            doc["traces"]["kinds"] = kinds
        self._assert_sizes_change_no_bit(build_scenario(doc), chunk, flush)

    def test_bytes_per_row(self):
        # The seed-21 refresh input at 1 Hz: 7,201 samples of 32 cells,
        # 241,473 rows.  Chunked, a run peaks at about 56 bytes a row under
        # tracemalloc, the 24 of its tables included; evaluated in one call
        # over the whole run, it peaked at about 120.
        doc = bench_document("refresh", 21)
        doc["traces"]["sample_rate_hz"] = 1.0
        scenario = build_scenario(doc)
        tracemalloc.start()
        try:
            engine.run_scenario(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / scenario.rows < 80


class TestSampleCount:
    """The sample grid's size at load: `build_scenario` counts its rows
    against the budget before `figures.check_sections` reads the grid."""

    @given(
        figure=st.sampled_from(["fig3c", "fig3f"]),
        back=st.integers(0, 3),
        fraction=st.floats(-0.1, 1.1),
        on_grid=st.booleans(),
        settle=st.floats(0.0, 0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_figure_refusals_match_the_grid(self, figure, back, fraction, on_grid, settle):
        # fig3c needs two samples after `open_time_s`; fig3f one to compare
        # at or after `pulse_start_s`, past the settle fraction.
        doc = json.loads(cli.bundled_scenario_path(figure).read_text())
        duration, rate = doc["duration_s"], doc["traces"]["sample_rate_hz"]
        grid = engine.sample_grid(make_scenario(duration_s=duration, traces={"sample_rate_hz": rate}))
        t = float(grid[-1 - back]) if on_grid else fraction * duration  # the ties, near the end
        if figure == "fig3c":
            doc["figure_params"]["open_time_s"] = t
            refused = np.count_nonzero(grid > t) < 2
            message = "open_time_s leaves fewer than two samples"
        else:
            doc["figure_params"].update(pulse_start_s=t, settle_fraction=settle)
            m = np.count_nonzero(grid >= t)
            refused = round(settle * m) >= m
            message = "pulse_start_s and settle_fraction leave no sample to compare"
        if refused:
            with pytest.raises(ScenarioError, match=f"^figure_params: {message}$"):
                build_scenario(doc)
        else:
            assert build_scenario(doc).figure == figure

    def test_budget_is_checked_at_load(self):
        # At 1 Hz, duration d gives d + 1 samples, one row each with no
        # trace kind; neither grid is built.
        at = make_scenario(duration_s=engine.MAX_ROWS - 1.0, traces={"sample_rate_hz": 1.0})
        assert engine.sample_count(at.duration_s, 1.0) == at.rows == engine.MAX_ROWS
        n = engine.MAX_ROWS + 1
        budget = (f"duration_s: sampling {n} times up to t={n - 1.0!r} s brings the run to {n}"
                  f" rows, past the budget of {engine.MAX_ROWS}")
        with pytest.raises(ScenarioError, match=f"^{re.escape(budget)}$"):
            make_scenario(duration_s=float(engine.MAX_ROWS), traces={"sample_rate_hz": 1.0})

    def test_sample_count_past_float_range_is_refused_at_load(self):
        # duration_s * rate is inf, which `sample_count` cannot floor.
        with pytest.raises(ScenarioError,
                           match=r"^duration_s: cannot convert float infinity to integer$"):
            make_scenario(duration_s=1e300, traces={"sample_rate_hz": 1e10})

    @pytest.mark.parametrize("name", ["fig3c", "fig3f"])
    def test_figures_read_the_grid_only_within_the_budget(self, name, monkeypatch):
        def refuse(scenario):
            raise AssertionError("sample_grid called past the budget")

        doc = json.loads(cli.bundled_scenario_path(name).read_text())
        samples = engine.sample_count(doc["duration_s"], doc["traces"]["sample_rate_hz"])
        monkeypatch.setattr(engine, "sample_grid", refuse)
        monkeypatch.setattr(engine, "MAX_ROWS", samples - 1)
        with pytest.raises(ScenarioError, match=f"^duration_s: sampling {samples} times"):
            engine.build_scenario(doc)


# Absolute tolerance of the conductance and readout traces against the
# scalar `output_voltage` + `conductance` oracle.
SIEMENS_TOL = 1e-13


class TestGateSources:
    """Conductance and readout traces from cell, DAC and constant gate sources."""

    LEVERS = {"lw": 0.2, "aux": 0.5, "sdp": 1.0}

    @given(
        pattern=st.integers(0, 0xFFFF),
        plen=st.integers(1, 16),
        n_ticks=st.integers(1, 64),
        divider=st.integers(0, 15),
        periods_per_tau=st.floats(0.1, 100.0),
        v_hold=st.floats(-0.02, 0.02),
        sdp=st.floats(-0.02, 0.02),
        aux=st.floats(-0.02, 0.02),
        dac_fraction=st.floats(0.0, 1.0),
        n_samples=st.integers(2, 200),
    )
    @settings(max_examples=100, deadline=None)
    def test_traces_match_scalar_oracle(
        self, pattern, plen, n_ticks, divider, periods_per_tau, v_hold, sdp, aux,
        dac_fraction, n_samples,
    ):
        period = (1 << divider) / 35.84e6
        t_open = 1e-9  # cell 3 is locked at 0 and released as playback starts
        duration = t_open + (n_ticks + 0.5) * period
        t_dac = t_open + dac_fraction * (duration - t_open)
        rate = n_samples / duration
        scenario = make_scenario(
            analog={"r_switch": period / periods_per_tau / 0.5e-12},
            rails={"v_high": 0.004, "v_low": 0.0, "v_hold": v_hold},
            device={
                "levers": self.LEVERS,
                "bandwidth_hz": rate / 20.0,
                "gate_sources": {
                    "lw": {"cell": 3}, "aux": {"dac": "aux"}, "sdp": {"const": sdp},
                },
                "axis_gate": "sdp",
            },
            schedule=[
                {"t": 0.0, "write": ["CTRL", 2]},
                {"t": 0.0, "write": ["LOCK_MASK_LO", 1 << 3]},
                {"t": 0.0, "exec": True},
                {"t": t_open, "write": ["LOCK_MASK_LO", 0]},
                {"t": t_open, "write": ["PATTERN0", pattern]},
                {"t": t_open, "write": ["PATTERN_LEN", plen]},
                {"t": t_open, "write": ["DIVIDER", divider]},
                {"t": t_open, "write": ["PULSE_MASK_LO", 1 << 3]},
                {"t": t_open, "write": ["CTRL", 7]},
                {"t": t_open, "exec": True},
                {"t": t_dac, "dac": {"aux": aux}},
            ],
            duration_s=duration,
            traces={
                "sample_rate_hz": rate,
                "kinds": ["cells", "conductance", "readout"],
                "cells": [3],
            },
        )
        bundle = engine.run_generic(scenario)
        cells = replay_cells_edge_by_edge(scenario, bundle, [])
        expected = [
            device.conductance(scenario.device, {
                "lw": v, "aux": aux if t >= t_dac else 0.0, "sdp": sdp,
            })
            for t, _, v in cells
        ]
        times, g = bundle.tables["conductance"].columns
        assert times.tolist() == [t for t, _, _ in cells]
        for got, want in zip(g, expected):
            assert abs(got - want) <= SIEMENS_TOL
        assert bundle.summary["conductance_final_s"] == g[-1]

        # The tank: y[0] = x[0], then y[k] = (1 - a) y[k-1] + a x[k].
        a = 1.0 - math.exp(-2.0 * math.pi / 20.0)
        signal = [expected[0]]
        for x in expected[1:]:
            signal.append((1.0 - a) * signal[-1] + a * x)
        times, v_sdp, got_signal = bundle.tables["readout"].columns
        assert v_sdp.tolist() == [sdp] * len(times)
        for got, want in zip(got_signal, signal):
            assert abs(got - want) <= SIEMENS_TOL

    def test_constant_gates_give_one_row_per_sample(self):
        scenario = make_scenario(
            device={"levers": {"sdp": 1.0}, "gate_sources": {"sdp": {"const": 0.0021}}},
            duration_s=1e-6,
            traces={"sample_rate_hz": 1e9, "kinds": ["conductance", "readout"]},
        )
        bundle = engine.run_generic(scenario)
        g = device.conductance(scenario.device, {"sdp": 0.0021})
        n_samples = 1001
        assert bundle.tables["conductance"].columns[1].tolist() == [g] * n_samples
        assert len(bundle.tables["readout"].rows) == n_samples
        assert bundle.summary["conductance_final_s"] == g

    def test_gates_sharing_a_dac(self):
        scenario = make_scenario(
            device={
                "levers": {"lw": 0.2, "rw": 0.3, "sdp": 1.0},
                "gate_sources": {
                    "lw": {"dac": "aux"}, "rw": {"dac": "aux"}, "sdp": {"cell": 0},
                },
            },
            schedule=[{"t": 0.5e-6, "dac": {"aux": 0.01}}],
            duration_s=1e-6,
            traces={"sample_rate_hz": 1e7, "kinds": ["conductance"]},
        )
        times, g = engine.run_generic(scenario).tables["conductance"].columns
        assert len(g) == 11
        for t, got in zip(times, g):
            aux = 0.01 if t >= 0.5e-6 else 0.0
            want = device.conductance(scenario.device, {"lw": aux, "rw": aux, "sdp": 0.0})
            assert abs(got - want) <= SIEMENS_TOL

    def test_gate_on_the_hold_rail(self):
        # The hold rail is the DAC "v_hold": a gate wired to it reads what
        # the hold trace reads, across a move.
        scenario = make_scenario(
            rails={"v_hold": -1.103},
            device={"levers": {"g": 1.0}, "bandwidth_hz": 0.1, "axis_gate": "g",
                    "gate_sources": {"g": {"dac": "v_hold"}}},
            schedule=[{"t": 1.0, "dac": {"v_hold": -0.8}}],
            duration_s=2.0,
            traces={"sample_rate_hz": 1.0, "kinds": ["hold", "conductance", "readout"]},
        )
        bundle = engine.run_generic(scenario)
        _, holds = bundle.tables["hold"].columns
        assert holds.tolist() == [-1.103, -0.8, -0.8]
        _, v_sdp, _ = bundle.tables["readout"].columns
        assert v_sdp.tolist() == holds.tolist()
        _, g = bundle.tables["conductance"].columns
        for got, v in zip(g, holds):
            assert abs(got - device.conductance(scenario.device, {"g": v})) <= SIEMENS_TOL

    def test_slow_readout_rejected_before_simulating(self):
        with pytest.raises(ScenarioError, match="sample rate"):
            make_scenario(
                device={"levers": {"sdp": 1.0}, "bandwidth_hz": 1e6,
                        "gate_sources": {"sdp": {"const": 0.0}}},
                traces={"sample_rate_hz": 9.9e6, "kinds": ["readout"]},
            )

    def test_gate_sources_required(self):
        with pytest.raises(ScenarioError, match="gate_sources"):
            make_scenario(
                device={"levers": {"sdp": 1.0}},
                traces={"sample_rate_hz": 1e9, "kinds": ["conductance"]},
            )
