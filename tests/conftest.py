"""Shared helpers for the test suite."""
from __future__ import annotations

import json

import pytest
from hypothesis import strategies as st

from clfgsim import analog, cli, engine, protocol
from identical import bench_document, pulse_dac_document  # the byte-identity inputs' builders


@pytest.fixture
def default_cell() -> analog.ClfgCell:
    return analog.ClfgCell()


@pytest.fixture
def rails() -> analog.SupplyRails:
    return analog.SupplyRails(v_high=0.1, v_low=-0.1, v_hold=-1.1)


def encode_frame(frame: protocol.Frame) -> int:
    """Pack a frame into its 32-bit wire word (MSB first): the inverse of
    `protocol.decode_frame`, which the program never needs."""
    return (frame.opcode << 24) | (frame.address << 16) | frame.data


def make_scenario(**kwargs) -> engine.Scenario:
    """Build a scenario document with sensible test defaults."""
    raw = {
        "schema_version": 1,
        "name": kwargs.pop("name", "test"),
        "duration_s": kwargs.pop("duration_s", 1.0),
        "traces": kwargs.pop("traces", {"sample_rate_hz": 10.0}),
    }
    raw.update(kwargs)
    return engine.build_scenario(raw)


def bundled_swept(name: str, axis: str, values, kinds=None) -> engine.Scenario:
    """Bundled scenario `name` with the sweep block `{"axis": axis, "values":
    values}` (and `kinds` as its trace kinds, if given), built."""
    raw = json.loads(cli.bundled_scenario_path(name).read_text(encoding="utf-8"))
    raw["sweep"] = {"axis": axis, "values": list(values)}
    if kinds is not None:
        raw["traces"]["kinds"] = list(kinds)
    return engine.build_scenario(raw)


# fig3g's readout, with its conductance traced too, swept on the hold rail:
# 22,401 samples a point, the rail value repeated, -0.0 and 0.0.
FIG3G_SWEEP = ("fig3g", "rails.v_hold", (-0.80, -0.81, -1.101, -1.101, -0.0, 0.0),
               ("cells", "conductance", "readout"))


def assert_same_bundle(got: engine.TraceBundle, want: engine.TraceBundle) -> None:
    """Every table column bit for bit (`tobytes`; an object column by its
    values) and the summary exactly (`repr`, so -0.0 and 0.0 stay apart)."""
    assert repr(got.summary) == repr(want.summary)
    assert got.tables.keys() == want.tables.keys()
    for key, table in want.tables.items():
        assert got.tables[key].header == table.header
        for a, b in zip(got.tables[key].columns, table.columns, strict=True):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), key
            if a.dtype == object:
                assert a.tolist() == b.tolist(), key
            else:
                assert a.tobytes() == b.tobytes(), key


def assert_sweep_is_each_point_alone(scenario: engine.Scenario) -> None:
    """Each point's `engine.sweep` bundle is `engine.run_generic`'s of the
    point run alone (`assert_same_bundle`)."""
    swept = list(engine.sweep(scenario))
    assert len(swept) == len(scenario.points)
    for point, got in zip(scenario.points, swept):
        assert_same_bundle(got, engine.run_generic(point))


def lock_then_open_schedule(cell_mask: int, open_time_s: float) -> list[dict]:
    """Lock the masked cells at t=0, release them at `open_time_s`."""
    return [
        {"t": 0.0, "write": ["CTRL", 2]},
        {"t": 0.0, "write": ["LOCK_MASK_LO", cell_mask & 0xFFFF]},
        {"t": 0.0, "write": ["LOCK_MASK_HI", (cell_mask >> 16) & 0xFFFF]},
        {"t": 0.0, "exec": True},
        {"t": open_time_s, "write": ["LOCK_MASK_LO", 0]},
        {"t": open_time_s, "write": ["LOCK_MASK_HI", 0]},
        {"t": open_time_s, "exec": True},
    ]


# Register values for drawn schedules: small masks, slow dividers and short
# patterns, so a run stays small; every CTRL bit pattern.
DRAWN_WRITES = {
    "CTRL": st.integers(0, 7), "DIVIDER": st.integers(10, 15),
    "LOCK_MASK_LO": st.integers(0, 7), "PULSE_MASK_LO": st.integers(0, 7),
    "PATTERN_LEN": st.integers(1, 4), "REFRESH_PERIOD": st.integers(0, 2),
}
_DRAWN_WRITE = st.sampled_from(sorted(DRAWN_WRITES)).flatmap(
    lambda reg: DRAWN_WRITES[reg].map(lambda value: {"write": [reg, value]}))
DRAWN_ITEM = st.one_of(  # writes most often
    _DRAWN_WRITE, _DRAWN_WRITE, _DRAWN_WRITE, st.just({"exec": True}),
    st.sampled_from(sorted(DRAWN_WRITES)).map(lambda reg: {"read": reg}),
    st.floats(-1.2, -1.0).map(lambda v: {"dac": {"v_hold": v}}),
)


@st.composite
def drawn_schedule(draw, item=DRAWN_ITEM) -> list[dict]:
    """Up to 15 items (of `item`) at times on a 10 ms grid over 0.05 s, so
    many coincide; most start by setting fsm-enable, a lock mask and a
    refresh period."""
    items = draw(st.lists(item, min_size=2, max_size=12))
    if draw(st.integers(0, 3)):
        items[:0] = [{"write": ["CTRL", draw(st.sampled_from([3, 7]))]}] + [
            {"write": [reg, draw(DRAWN_WRITES[reg])]} for reg in ("LOCK_MASK_LO", "REFRESH_PERIOD")]
    times = sorted(draw(st.lists(st.integers(0, 5), min_size=len(items), max_size=len(items))))
    return [{"t": k * 0.01, **entry} for k, entry in zip(times, items)]
