import json

import pytest

from clfgsim import analog, device, engine
from clfgsim.engine import ScenarioError, UnknownAxis, build_scenario

from conftest import lock_then_open_schedule, make_scenario


class TestValidation:
    def test_schema_version_required(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            build_scenario({"name": "x"})

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

    def test_readout_needs_device(self):
        with pytest.raises(ScenarioError, match="device"):
            make_scenario(traces={"sample_rate_hz": 1e8, "kinds": ["readout"]})

    def test_step_errors_carry_schedule_context(self):
        scenario = make_scenario(
            schedule=[
                {"t": 0.0, "write": ["CTRL", 7]},
                {"t": 0.0, "write": ["DIVIDER", 15]},
                {"t": 0.0, "write": ["PULSE_MASK_LO", 1]},
                {"t": 0.0, "exec": True},
                {"t": 0.5, "exec": True},
            ],
        )
        with pytest.raises(ScenarioError, match=r"schedule\[4\]"):
            engine.run_generic(scenario)


class TestOverrides:
    def test_override_applies_and_is_recorded(self):
        raw = {"schema_version": 1, "name": "x", "duration_s": 0.0,
               "analog": {"c_pulse": 1e-12}}
        doc = engine.apply_overrides(raw, ["analog.c_pulse=2e-12"])
        scenario = build_scenario(doc)
        assert scenario.analog.c_pulse == 2e-12
        assert scenario.raw["_overrides"] == ["analog.c_pulse=2e-12"]
        assert engine._manifest(scenario)["overrides"] == ["analog.c_pulse=2e-12"]

    def test_misspelled_override_rejected_at_validation(self):
        raw = {"schema_version": 1, "name": "x", "duration_s": 0.0}
        doc = engine.apply_overrides(raw, ["analog.nope=1"])
        with pytest.raises(ScenarioError, match="unknown key"):
            build_scenario(doc)

    def test_malformed_override_rejected(self):
        with pytest.raises(UnknownAxis, match="KEY=VALUE"):
            engine.apply_overrides({"schema_version": 1}, ["analog.c_pulse"])

    def test_list_index_axis(self):
        raw = {
            "schema_version": 1, "name": "x", "duration_s": 1.0,
            "schedule": [{"t": 0.0, "dac": {"v_hold": -1.0}}],
        }
        doc = engine.set_axis(raw, "schedule.0.dac.v_hold", -2.0)
        assert doc["schedule"][0]["dac"]["v_hold"] == -2.0
        with pytest.raises(UnknownAxis):
            engine.set_axis(raw, "schedule.5.dac.v_hold", -2.0)

    def test_bool_coercion(self):
        raw = {"schema_version": 1, "name": "x", "duration_s": 0.0,
               "chip": {"compensate_injection": True}}
        doc = engine.apply_overrides(raw, ["chip.compensate_injection=false"])
        assert doc["chip"]["compensate_injection"] is False


class TestGenericRun:
    def test_empty_schedule_flat_traces(self):
        scenario = make_scenario(
            duration_s=1.0,
            traces={"sample_rate_hz": 10.0, "kinds": ["cells"], "cells": [0, 7]},
        )
        bundle = engine.run_generic(scenario)
        assert bundle.events == []
        assert all(v == 0.0 for _, _, v in bundle.tables["cells"].rows)
        assert len(bundle.tables["cells"].rows) == 2 * 11

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
        pulsing = idle + 6 * thermal.pulse_power(1e-12, 1e-12, 0.05, 0.0, f_div)
        assert power[0.0] == pytest.approx(idle, rel=1e-12)
        assert power[0.5] == pytest.approx(pulsing, rel=1e-12)
        temps = dict(bundle.tables["temperature"].rows)
        assert temps[0.5] > temps[0.0] > 0.036

    def test_run_twice_identical(self, tmp_path):
        scenario = make_scenario(
            rails={"v_hold": -1.1},
            schedule=lock_then_open_schedule(0b11, 0.5),
            duration_s=1.0,
            traces={"sample_rate_hz": 50.0, "kinds": ["cells"], "cells": [0, 1]},
        )
        a = engine.run_generic(scenario)
        b = engine.run_generic(scenario)
        assert a.tables["cells"].rows == b.tables["cells"].rows
        files_a = engine.export(a, tmp_path / "a")
        files_b = engine.export(b, tmp_path / "b")
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()


class TestSweep:
    def _scenario(self):
        return make_scenario(
            rails={"v_hold": -1.1},
            schedule=lock_then_open_schedule(0b1, 0.5),
            duration_s=1.0,
            traces={"sample_rate_hz": 10.0, "kinds": ["cells"], "cells": [0]},
        )

    def test_single_point_sweep_equals_run(self):
        scenario = self._scenario()
        [swept] = engine.sweep(scenario, "rails.v_hold", [-1.1])
        direct = engine.run_generic(scenario)
        assert swept.tables["cells"].rows == direct.tables["cells"].rows
        assert swept.summary == direct.summary

    def test_parallel_matches_sequential(self):
        scenario = self._scenario()
        values = [-1.3, -1.2, -1.1, -1.0]
        seq = engine.sweep(scenario, "rails.v_hold", values, jobs=1)
        par = engine.sweep(scenario, "rails.v_hold", values, jobs=2)
        for a, b in zip(seq, par):
            assert a.tables["cells"].rows == b.tables["cells"].rows
            assert a.summary == b.summary

    def test_unknown_axis(self):
        with pytest.raises(UnknownAxis):
            engine.sweep(self._scenario(), "rails.nope", [1.0])


class TestExport:
    def test_event_csv_format(self, tmp_path):
        scenario = make_scenario(
            schedule=lock_then_open_schedule(0b1, 0.5),
            duration_s=1.0,
            traces={"sample_rate_hz": 10.0, "kinds": ["cells"], "cells": [0]},
        )
        bundle = engine.run_generic(scenario)
        engine.export(bundle, tmp_path)
        lines = (tmp_path / "events.csv").read_text().splitlines()
        assert lines[0] == "time_s,cell,action,level"
        assert lines[1] == "0.0,0,CLOSE,"
        header = (tmp_path / "cells.csv").read_text().splitlines()[0]
        assert header == "time_s,cell,v_out_volts"
        manifest = json.loads((tmp_path / "manifest_test.json").read_text())
        assert manifest["schema_version"] == 1
        assert "config_sha256" in manifest
