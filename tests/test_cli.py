import json

import pytest

from clfgsim import cli


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


_DOT = {"levers": {"lw": 0.2}, "gate_sources": {"lw": {"cell": 0}}}


def _traced(kind: str) -> dict:
    return {"sample_rate_hz": 10.0, "kinds": [kind]}


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
}


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

    def test_missing_file(self, capsys):
        assert cli.main(["validate", "/nonexistent.scn"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_override(self, mini_scn, capsys):
        assert cli.main(["validate", str(mini_scn), "--override", "nope.x=1"]) == 1

    @pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_section_exits_1(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path)]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "Traceback" not in err


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

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        doc = dict(MINIMAL)
        doc["device"] = {
            "levers": {"lw": 0.2},
            "gate_sources": {"lw": {"cell": 0}},
        }
        # readout at 10 Hz against a 10 MHz tank: rejected at runtime
        doc["traces"] = {"sample_rate_hz": 10.0, "kinds": ["readout"]}
        path = tmp_path / "bad.scn"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "runtime error" in capsys.readouterr().err

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
            "--values=-1.2,-1.1,-1.0", "--jobs", "2", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("value,v_out_final_cell0")
        assert len(lines) == 4


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

    def test_replay_bad_stream(self, tmp_path, capsys):
        stream = tmp_path / "bad.txt"
        stream.write_text("zzz")
        assert cli.main(["replay", str(stream)]) == 1


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


class TestHelp:
    @pytest.mark.parametrize(
        "sub", ["validate", "run", "sweep", "replay", "budget", "figures"]
    )
    def test_subcommand_help(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out
