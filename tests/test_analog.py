import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from clfgsim import fsm, protocol
from clfgsim.device import TankReadout, _low_pass
from clfgsim.engine import build_scenario
from clfgsim.errors import ScenarioError, SimulationError
from clfgsim.analog import (
    CellParams,
    ClfgCell,
    Level,
    SupplyRails,
    apply_fg,
    apply_fg_run,
    couple_hold,
    coupling_ratio,
    injection_offset,
    lock,
    one_pole,
    output_fields,
    output_voltage,
    pulse_amplitude,
    sample_output,
    series_capacitance,
    set_hold,
    settle,
    time_constant,
    unlock,
)

finite_volts = st.floats(-2.0, 2.0, allow_nan=False)


def floating_cell(v: float, **params) -> ClfgCell:
    """Cell released at voltage `v` with no injection offset, its fields named."""
    cell = ClfgCell(CellParams(q_inj=0.0, **params))
    return ClfgCell._make(unlock(lock(cell, v, cell.t_last), cell.t_last))


class TestLock:
    def test_lock_sets_output_to_hold(self, default_cell):
        cell = lock(default_cell, -1.1, default_cell.t_last)
        assert ClfgCell._make(cell).lock_closed
        assert output_voltage(cell, 0.0) == -1.1

    def test_lock_at_zero(self, default_cell):
        cell = lock(default_cell, 0.0, default_cell.t_last)
        assert output_voltage(cell, 5.0) == 0.0

    def test_lock_idempotent(self, default_cell, rails):
        once = lock(default_cell, rails.v_hold, default_cell.t_last)
        assert lock(once, rails.v_hold, ClfgCell._make(once).t_last) == once

    def test_locked_output_ignores_fg_history(self, default_cell, rails):
        cell = apply_fg(default_cell, Level.HIGH, 0.0, rails)
        cell = lock(cell, rails.v_hold, ClfgCell._make(cell).t_last)
        cell = apply_fg(cell, Level.LOW, 1.0, rails)
        cell = apply_fg(cell, Level.HIGH, 2.0, rails)
        assert output_voltage(cell, 3.0) == rails.v_hold


class TestUnlock:
    def test_no_injection_no_offset(self):
        cell = ClfgCell(CellParams(q_inj=0.0))
        cell = unlock(lock(cell, -1.1, cell.t_last), cell.t_last)
        assert output_voltage(cell, 0.0) == -1.1

    def test_injection_offset_value(self):
        # 2 fC onto 2 pF of node capacitance is a 1 mV step.
        params = CellParams(c_pulse=1e-12, c_p=1e-12, q_inj=2e-15)
        assert injection_offset(params) == pytest.approx(1e-3, rel=1e-12)
        cell = unlock(lock(ClfgCell(params), -1.1, 0.0), 0.0)
        assert output_voltage(cell, 0.0) == pytest.approx(-1.099, rel=1e-12)

    def test_double_unlock(self, default_cell, rails):
        cell = unlock(lock(default_cell, rails.v_hold, default_cell.t_last), default_cell.t_last)
        with pytest.raises(SimulationError, match=r"^lock switch is already open$"):
            unlock(cell, ClfgCell._make(cell).t_last)


class TestCoupleHold:
    def test_zero_move_unchanged(self):
        cell = floating_cell(-1.1)
        assert couple_hold(cell, 0.0) == cell

    def test_coupling_ratio_example(self):
        # c_ds=10 fF against 2 pF: a +100 mV hold move shifts the output
        # by 100 mV * 10/2010 = 0.4975 mV.
        cell = floating_cell(-1.1, c_ds=10e-15, c_pulse=1e-12, c_p=1e-12)
        moved = couple_hold(cell, 0.1)
        dv = output_voltage(moved, 0.0) - output_voltage(cell, 0.0)
        assert dv == pytest.approx(0.1 * 10e-15 / (10e-15 + 2e-12), rel=1e-12)
        assert dv == pytest.approx(0.4975e-3, rel=1e-3)

    @given(dv=st.floats(-0.5, 0.5, allow_nan=False))
    def test_reversible(self, dv):
        cell = floating_cell(-1.1)
        back = couple_hold(couple_hold(cell, dv), -dv)
        assert output_voltage(back, 0.0) == pytest.approx(
            output_voltage(cell, 0.0), rel=1e-12
        )

    def test_rejected_while_locked(self, default_cell, rails):
        with pytest.raises(SimulationError,
                           match=r"^output tracks the hold rail directly while locked$"):
            couple_hold(lock(default_cell, rails.v_hold, default_cell.t_last), 0.1)

    def test_set_hold_tracks_when_locked(self, default_cell, rails):
        cell = lock(default_cell, rails.v_hold, default_cell.t_last)
        cell = set_hold(cell, -0.7)
        assert output_voltage(cell, 0.0) == -0.7


_capacitances = st.fixed_dictionaries({
    "c_pulse": st.floats(1e-16, 1e-9), "c_p": st.floats(1e-16, 1e-9), "c_ds": st.floats(0.0, 1e-9),
})


class TestCachedCoupling:
    """`CellParams.coupling` and `CellParams.offset`, which `set_hold` and
    `unlock` read, are `coupling_ratio` and `injection_offset` computed once
    when the parameters are built."""

    @given(first=_capacitances, second=_capacitances,
           charges=st.tuples(st.floats(-1e-12, 1e-12), st.floats(-1e-12, 1e-12)))
    @example(first={"c_pulse": 1e-12, "c_p": 1e-12, "c_ds": 0.0},
             second={"c_pulse": 1e-12, "c_p": 1e-12, "c_ds": 10e-15}, charges=(2e-15, -0.0))
    def test_is_the_formula_bit_for_bit(self, first, second, charges):
        params = CellParams(**first, q_inj=charges[0])
        assert repr(params.coupling) == repr(coupling_ratio(params))
        assert repr(params.offset) == repr(injection_offset(params))
        replaced = dataclasses.replace(params, **second, q_inj=charges[1])
        assert repr(replaced.coupling) == repr(coupling_ratio(replaced))
        assert repr(replaced.offset) == repr(injection_offset(replaced))

    def test_is_not_a_field(self):
        params = CellParams()
        assert params == CellParams() and hash(params) == hash(CellParams())
        for name in ("coupling", "offset"):
            assert name not in {field.name for field in dataclasses.fields(CellParams)}
            assert name not in repr(params)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(params, name, 0.5)
            with pytest.raises(ScenarioError, match=rf"^analog: unknown key\(s\) \['{name}'\]$"):
                build_scenario({"schema_version": 1, "analog": {name: 0.1}})

    @pytest.mark.parametrize("q_inj", [1e300, -1e300, 1.8e296])
    def test_offset_past_half_float_range_is_refused(self, q_inj):
        # `unlock` adds the offset to a hold value and a REFRESH slot takes
        # it from a target, so it is bounded as a hold value is.
        with pytest.raises(ValueError, match="^injection offset .* outside -8.98"):
            CellParams(q_inj=q_inj)
        assert CellParams(q_inj=1.7e296).offset == 1.7e296 / 2e-12


class TestLeak:
    def test_zero_dt_unchanged(self):
        cell = floating_cell(-1.1)
        assert settle(cell, cell.t_last) == cell

    def test_hour_drift_matches_tens_of_microvolts(self):
        cell = floating_cell(-1.1, leak_rate=1e-8)
        drifted = ClfgCell._make(settle(cell, cell.t_last + 3600.0))
        drift = output_voltage(drifted, drifted.t_last) - (-1.1)
        expected = -1.1 * math.exp(-1e-8 * 3600.0) + 1.1
        assert drift == pytest.approx(expected, rel=1e-12)
        assert drift == pytest.approx(39.6e-6, abs=0.05e-6)

    @given(t1=st.floats(0, 1e5), t2=st.floats(0, 1e5))
    def test_semigroup(self, t1, t2):
        cell = floating_cell(-1.1)
        split = ClfgCell._make(settle(settle(cell, cell.t_last + t1), cell.t_last + t1 + t2))
        joined = ClfgCell._make(settle(cell, cell.t_last + (t1 + t2)))
        assert output_voltage(split, split.t_last) == pytest.approx(
            output_voltage(joined, joined.t_last), rel=1e-12
        )

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            settle(floating_cell(0.0), -1.0)

    def test_noop_while_locked(self, default_cell, rails):
        cell = ClfgCell._make(lock(default_cell, rails.v_hold, default_cell.t_last))
        after = ClfgCell._make(settle(cell, cell.t_last + 1e6))
        assert output_voltage(after, after.t_last) == rails.v_hold


class TestPulseAmplitude:
    def test_equal_caps_halve_the_swing(self):
        params = CellParams(c_pulse=1e-12, c_p=1e-12)
        assert pulse_amplitude(params, SupplyRails(v_high=0.1, v_low=-0.1)) == 0.1

    def test_vanishing_parasitic_gives_full_swing(self):
        params = CellParams(c_pulse=1e-12, c_p=1e-18)
        dv = pulse_amplitude(params, SupplyRails(v_high=0.1, v_low=-0.1))
        assert dv == pytest.approx(0.2, rel=1e-5)

    def test_against_charge_redistribution_solve(self):
        # Independent oracle: conservation of charge on the floating node,
        # written as a 2x2 linear system in (v_after, node_charge).
        rng = np.random.default_rng(7)
        for _ in range(200):
            c_pulse, c_p = rng.uniform(0.1e-12, 5e-12, size=2)
            v_low = rng.uniform(-1, 1)
            v_high = v_low + rng.uniform(0.01, 2)
            v0 = rng.uniform(-2, 2)
            a = np.array([[c_pulse + c_p, -1.0], [0.0, 1.0]])
            b = np.array([c_pulse * v_high, c_pulse * (v0 - v_low) + c_p * v0])
            v1, _ = np.linalg.solve(a, b)
            params = CellParams(c_pulse=c_pulse, c_p=c_p)
            dv = pulse_amplitude(params, SupplyRails(v_high=v_high, v_low=v_low))
            assert abs((v1 - v0) - dv) <= 1e-12 * abs(dv)


class TestFastGateTransient:
    def test_time_constant_and_rise_time(self):
        tau = time_constant(CellParams(c_pulse=1e-12, c_p=1e-12, r_switch=2e3))
        assert tau == pytest.approx(1e-9, rel=1e-12)
        # 10-90% rise of the simulated step is ln(9) tau ~ 2.2 ns.
        cell = floating_cell(0.0, r_switch=2e3)
        rails = SupplyRails(v_high=0.1, v_low=-0.1)
        params = cell.params
        cell = apply_fg(cell, Level.HIGH, 0.0, rails)
        times = np.linspace(0.0, 10e-9, 10001)
        v = sample_output(params, [output_fields(cell)] * len(times), times)
        dv = pulse_amplitude(params, rails)
        t10 = times[np.searchsorted(v, 0.1 * dv)]
        t90 = times[np.searchsorted(v, 0.9 * dv)]
        assert t90 - t10 == pytest.approx(math.log(9) * 1e-9, abs=0.01e-9)

    def test_same_level_is_a_no_op(self):
        cell = floating_cell(-1.1)
        rails = SupplyRails()
        after = apply_fg(cell, Level.LOW, 0.0, rails)
        assert ClfgCell._make(after).v_target == cell.v_target
        assert output_voltage(after, 1.0) == output_voltage(cell, 1.0)

    def test_full_cycle_returns_exactly(self):
        # Linear circuit: HIGH then LOW long after the transient leaves the
        # output at the pre-pulse value exactly (no pumping), checked with
        # leakage off so the baseline itself is static.
        cell = floating_cell(-1.1, leak_rate=0.0)
        rails = SupplyRails(v_high=0.1, v_low=-0.1)
        before = output_voltage(cell, 0.0)
        cell = apply_fg(cell, Level.HIGH, 0.0, rails)
        cell = apply_fg(cell, Level.LOW, 1e-6, rails)
        assert output_voltage(cell, 2e-6) == before

    def test_step_settles_within_5e5_relative_at_10_tau(self):
        cell = floating_cell(0.0)
        rails = SupplyRails(v_high=0.1, v_low=-0.1)
        dv = pulse_amplitude(cell.params, rails)
        tau = time_constant(cell.params)
        cell = apply_fg(cell, Level.HIGH, 0.0, rails)
        v = output_voltage(cell, 10 * tau)
        assert abs(v - dv) / dv <= 5e-5

    def test_no_events_reduces_to_pure_leak(self):
        cell = floating_cell(-1.1, leak_rate=1e-8)
        t = 1234.5
        assert output_voltage(cell, t) == -1.1 * math.exp(-1e-8 * t)

    def test_unlock_references_current_fg_level(self):
        # Charge stored while the fast gate is HIGH: dropping to LOW
        # afterwards steps the output down by one pulse amplitude.
        rails = SupplyRails(v_high=0.1, v_low=-0.1, v_hold=-1.1)
        cell = ClfgCell(CellParams(q_inj=0.0, leak_rate=0.0))
        params = cell.params
        cell = ClfgCell._make(apply_fg(cell, Level.HIGH, 0.0, rails))
        cell = unlock(lock(cell, rails.v_hold, cell.t_last), cell.t_last)
        cell = apply_fg(cell, Level.LOW, 1.0, rails)
        v = output_voltage(cell, 1.0 + 1e-6)
        assert v == pytest.approx(-1.1 - pulse_amplitude(params, rails), rel=1e-9)

    def test_sample_rejects_times_before_last_event(self):
        cell = settle(floating_cell(0.0), 1.0)
        with pytest.raises(ValueError):
            output_voltage(cell, 0.5)


class TestEnergyOracle:
    def test_cycle_dissipation_matches_series_capacitance_law(self):
        # Integrate i^2 R over one full HIGH/LOW cycle, with the current
        # recovered from the simulated trajectory by finite differences
        # (i = c_p dV/dt on the output node).  Must land on C_series V^2.
        rng = np.random.default_rng(42)
        for _ in range(10):
            c_pulse, c_p = rng.uniform(0.2e-12, 5e-12, size=2)
            r = rng.uniform(0.5e3, 10e3)
            swing = rng.uniform(0.05, 0.5)
            cell = floating_cell(0.0, c_pulse=c_pulse, c_p=c_p,
                                 r_switch=r, leak_rate=0.0)
            rails = SupplyRails(v_high=swing, v_low=0.0)
            params = cell.params
            tau = time_constant(params)
            dt = tau / 1000.0
            half = 20000  # 20 tau per half cycle
            energy = 0.0
            t0 = 0.0
            for level in (Level.HIGH, Level.LOW):
                cell = apply_fg(cell, level, t0, rails)
                times = t0 + np.arange(half + 1) * dt
                v = sample_output(params, [output_fields(cell)] * len(times), times)
                i = c_p * np.gradient(v, dt)
                energy += np.trapezoid(i * i * r, dx=dt)
                t0 = times[-1]
            expected = series_capacitance(params) * swing**2
            assert energy == pytest.approx(expected, rel=5e-3)


# Absolute tolerance of the run kernel against the edge-by-edge oracle.
KERNEL_TOL_V = 1e-12


def edge_by_edge(cell: ClfgCell, times, levels, rails: SupplyRails) -> ClfgCell:
    """The scalar oracle: settle to each edge, then drive the level."""
    for t, level in zip(np.asarray(times).tolist(), np.asarray(levels).tolist()):
        cell = apply_fg(settle(cell, t), Level(level), t, rails)
    return cell


def playback_run(words, plen: int, divider: int, mask: int, n_ticks: int, start_s: float):
    """The columnar run the controller plays for `n_ticks` ticks from `start_s`."""
    state = fsm.ChipState()
    frames = [(protocol.PATTERN_BASE + i, w) for i, w in enumerate(words)] + [
        (protocol.PATTERN_LEN, plen),
        (protocol.DIVIDER, divider),
        (protocol.PULSE_MASK_LO, mask & 0xFFFF),
        (protocol.PULSE_MASK_HI, mask >> 16),
        (protocol.CTRL, 0b111),
    ]
    for address, value in frames:
        state, _ = fsm.step(state, protocol.Frame(protocol.Opcode.WRITE, address, value))
    state, _ = fsm.step(state, protocol.Frame(protocol.Opcode.EXEC))
    _, run = fsm.playback(state, n_ticks, start_s)
    assert len(run.times) == n_ticks
    return run


class TestRunKernel:
    """`apply_fg_run` against `settle` + `apply_fg` edge by edge.

    Element values put the tick period between 0.1 and 100 time constants,
    so transients overlap the next edges (with the default values
    exp(-T/tau) underflows to 0).  Times stay within a few ms of zero: the
    oracle sees each period as a difference of rounded absolute times,
    which at large times alone moves it by more than the tolerance.
    """

    @given(
        words=st.lists(st.integers(0, 0xFFFF), min_size=8, max_size=8),
        plen=st.integers(1, 128),
        n_ticks=st.integers(1, 128),
        divider=st.integers(0, 15),
        mask=st.integers(1, 2**32 - 1),
        periods_per_tau=st.floats(0.1, 100.0),
        c_pulse=st.floats(0.1e-12, 10e-12),
        c_p=st.floats(0.1e-12, 10e-12),
        leak_rate=st.floats(0.0, 1e3),
        v_hold=st.floats(-1.5, 1.5),
        swing=st.tuples(st.floats(-0.2, 0.0), st.floats(0.0, 0.2)),
        t_open=st.floats(0.0, 1e-6),
        at_open=st.booleans(),
        locked=st.booleans(),
        cuts=st.lists(st.integers(1, 127), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_edge_by_edge(
        self, words, plen, n_ticks, divider, mask, periods_per_tau, c_pulse, c_p,
        leak_rate, v_hold, swing, t_open, at_open, locked, cuts,
    ):
        period = (1 << divider) / fsm.ChipState().config.master_freq_hz
        series = c_pulse * c_p / (c_pulse + c_p)
        params = CellParams(
            c_pulse=c_pulse, c_p=c_p, r_switch=period / periods_per_tau / series,
            leak_rate=leak_rate,
        )
        rails = SupplyRails(v_low=swing[0], v_high=swing[1], v_hold=v_hold)
        start = t_open if at_open else t_open + 0.37 * period
        run = playback_run(words, plen, divider, mask, n_ticks, start)
        assert run.cells == tuple(fsm.mask_cells(mask))
        assert run.period_s == period

        cell = lock(ClfgCell(params), v_hold, 0.0)
        if not locked:
            cell = unlock(settle(cell, t_open), t_open)
        expected = edge_by_edge(cell, run.times, run.levels, rails)
        # A run flushed at arbitrary cut points and then continued.
        got = cell
        bounds = [0, *sorted(c for c in set(cuts) if c < n_ticks), n_ticks]
        for a, b in zip(bounds, bounds[1:]):
            got = apply_fg_run(got, run.times[a:b], run.levels[a:b], run.period_s, rails)

        assert type(got) is tuple and got[0] is params
        got, expected = ClfgCell._make(got), ClfgCell._make(expected)
        assert (got.fg_level, got.fg_ref, got.lock_closed, got.t_last) == (
            expected.fg_level, expected.fg_ref, expected.lock_closed, expected.t_last
        )
        later = expected.t_last + 0.5 * period
        for value_got, value_expected in [
            (got.v_base, expected.v_base),
            (got.v_start, expected.v_start),
            (got.v_target, expected.v_target),
            (got.v_hold_seen, expected.v_hold_seen),
            (output_voltage(got, later), output_voltage(expected, later)),
        ]:
            assert abs(value_got - value_expected) <= KERNEL_TOL_V


# Absolute tolerance of `sample_output` against `output_voltage`.
SAMPLE_TOL_V = 1e-12


cell_params = st.builds(
    CellParams,
    r_switch=st.floats(1e2, 1e5),
    leak_rate=st.floats(0.0, 1e3),
    q_inj=st.floats(-5e-15, 5e-15),
)


@st.composite
def cell_states(draw, params: CellParams) -> ClfgCell:
    """A locked cell, or a floating one mid-transient after a fast-gate edge.

    A locked state is drawn field by field, so its transient fields need
    not equal the hold voltage it reads.
    """
    t_last = draw(st.floats(0.0, 1e-3))
    if draw(st.booleans()):
        return ClfgCell(
            params, lock_closed=True, v_hold_seen=draw(finite_volts),
            v_start=draw(finite_volts), v_target=draw(finite_volts), t_last=t_last,
        )
    cell = unlock(lock(ClfgCell(params), draw(finite_volts), 0.0), 0.0)
    rails = SupplyRails(v_high=draw(st.floats(0.0, 0.5)), v_low=draw(st.floats(-0.5, 0.0)))
    return ClfgCell._make(apply_fg(cell, draw(st.sampled_from(Level)), t_last, rails))


class TestSampleOutput:
    """`sample_output` reads the state of `fields[i]` at `times[i]`, as
    `output_voltage` does."""

    @given(
        states=cell_params.flatmap(
            lambda params: st.lists(cell_states(params), min_size=1, max_size=6)
        ),
        # (state index, delay after its last event in RC time constants);
        # runs of one state and interleaved states both occur.
        reads=st.lists(
            st.tuples(st.integers(0, 5), st.floats(0.0, 50.0)), min_size=1, max_size=60
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_output_voltage(self, states, reads):
        cells = [states[i % len(states)] for i, _ in reads]
        times = [
            cell.t_last + delay * time_constant(cell.params)
            for cell, (_, delay) in zip(cells, reads)
        ]
        got = sample_output(states[0].params, list(map(output_fields, cells)), np.array(times))
        assert got.shape == (len(cells),)
        for cell, t, v in zip(cells, times, got.tolist()):
            assert abs(v - output_voltage(cell, t)) <= SAMPLE_TOL_V

    def test_locked_cell_reads_hold_at_any_time(self):
        cell = lock(ClfgCell(), -1.1, 0.0)
        got = sample_output(CellParams(), [output_fields(cell)] * 3, [-1.0, 0.0, 5.0])
        assert got.tolist() == [-1.1] * 3

    def test_time_before_last_event_rejected(self):
        cell = settle(floating_cell(-1.1), 1.0)
        with pytest.raises(ValueError, match="precede"):
            sample_output(CellParams(q_inj=0.0), [output_fields(cell)] * 2, [1.0, 0.5])

    def test_one_state_per_time(self):
        cell = ClfgCell()
        with pytest.raises(ValueError, match="one cell state per sample time"):
            sample_output(cell.params, [output_fields(cell)], [0.0, 1.0])


# Any state at all, every field drawn on its own, so that two fields a
# transition copies (or swaps by mistake) hold different values.
any_cell_states = st.builds(
    ClfgCell,
    params=cell_params,
    lock_closed=st.booleans(),
    fg_level=st.sampled_from(Level),
    fg_ref=st.sampled_from(Level),
    v_hold_seen=finite_volts,
    v_base=finite_volts,
    v_start=finite_volts,
    v_target=finite_volts,
    t_last=st.floats(0.0, 1e-3),
)


def assert_same_state(got: tuple, want: tuple, cell: ClfgCell) -> None:
    """`got` is a plain tuple and `want` field by field (floats bit for bit,
    by `repr`), and shares the `params` object of `cell`, the state it was
    built from."""
    assert type(got) is tuple
    got, want = ClfgCell._make(got), ClfgCell._make(want)
    assert got.params is cell.params
    for name in ClfgCell._fields:
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


class TestStateTransitions:
    """Each transition against the keyword `_replace` that states it, so a
    state built positionally with its fields out of order fails."""

    @given(cell=any_cell_states, dv=finite_volts)
    @settings(max_examples=200, deadline=None)
    def test_couple_hold(self, cell, dv):
        if cell.lock_closed:
            with pytest.raises(SimulationError,
                               match=r"^output tracks the hold rail directly while locked$"):
                couple_hold(cell, dv)
            return
        step = coupling_ratio(cell.params) * dv
        want = cell._replace(
            v_hold_seen=cell.v_hold_seen + dv,
            v_base=cell.v_base + step,
            v_start=cell.v_start + step,
            v_target=cell.v_target + step,
        )
        assert_same_state(couple_hold(cell, dv), want, cell)

    @given(cell=any_cell_states, v=finite_volts)
    @settings(max_examples=200, deadline=None)
    def test_set_hold(self, cell, v):
        if cell.lock_closed:
            want = cell._replace(v_hold_seen=v, v_base=v, v_start=v, v_target=v)
        else:
            dv = v - cell.v_hold_seen
            step = coupling_ratio(cell.params) * dv
            want = cell._replace(
                v_hold_seen=cell.v_hold_seen + dv,
                v_base=cell.v_base + step,
                v_start=cell.v_start + step,
                v_target=cell.v_target + step,
            )
        assert_same_state(set_hold(cell, v), want, cell)

    @given(cell=any_cell_states, dt=st.floats(0.0, 1e-3) | st.just(0.0))
    @settings(max_examples=200, deadline=None)
    def test_settle(self, cell, dt):
        t = cell.t_last + dt
        if cell.lock_closed or t == cell.t_last:
            want = cell._replace(t_last=t)
        else:
            rc = math.exp(-(t - cell.t_last) / time_constant(cell.params))
            decay = math.exp(-cell.params.leak_rate * (t - cell.t_last))
            v_inst = cell.v_target + (cell.v_start - cell.v_target) * rc
            want = cell._replace(
                v_base=cell.v_base * decay,
                v_target=cell.v_target * decay,
                v_start=v_inst * decay,
                t_last=t,
            )
        assert_same_state(settle(cell, t), want, cell)

    @given(cell=any_cell_states, v=finite_volts)
    @settings(max_examples=200, deadline=None)
    def test_lock(self, cell, v):
        want = cell._replace(lock_closed=True, v_hold_seen=v, v_base=v, v_start=v, v_target=v)
        assert_same_state(lock(cell, v, cell.t_last), want, cell)

    @given(cell=any_cell_states)
    @settings(max_examples=200, deadline=None)
    def test_unlock(self, cell):
        if not cell.lock_closed:
            with pytest.raises(SimulationError, match=r"^lock switch is already open$"):
                unlock(cell, cell.t_last)
            return
        v = cell.v_hold_seen + injection_offset(cell.params)
        want = cell._replace(
            lock_closed=False, fg_ref=cell.fg_level, v_base=v, v_start=v, v_target=v
        )
        assert_same_state(unlock(cell, cell.t_last), want, cell)

    @given(cell=any_cell_states, v=finite_volts, dt=st.floats(0.0, 1e-3) | st.just(0.0))
    @example(cell=ClfgCell(lock_closed=True, v_hold_seen=-0.0, v_base=0.0, v_start=-0.0,
                           v_target=0.0, t_last=1e-4), v=-0.0, dt=0.0)
    @example(cell=ClfgCell(v_hold_seen=0.0, v_base=-0.0, v_start=-0.0, v_target=-0.0),
             v=0.0, dt=1e-5)
    @settings(max_examples=200, deadline=None)
    def test_lock_actions_are_settle_then_action(self, cell, v, dt):
        # `lock` and `unlock` at `t` against settling to `t` first, their oracle.
        t = cell.t_last + dt
        assert_same_state(lock(cell, v, t), lock(settle(cell, t), v, t), cell)
        if not cell.lock_closed:
            with pytest.raises(SimulationError, match=r"^lock switch is already open$"):
                unlock(cell, t)
            return
        assert_same_state(unlock(cell, t), unlock(settle(cell, t), t), cell)

    @given(cell=any_cell_states, back=st.floats(1e-9, 1.0))
    @example(cell=ClfgCell(lock_closed=False, t_last=0.0), back=1.0)
    @settings(max_examples=100, deadline=None)
    def test_lock_actions_refuse_a_time_before_the_last_event(self, cell, back):
        # Refused as `settle` refuses, before `unlock` looks at the switch.
        t = cell.t_last - back
        with pytest.raises(ValueError) as want:
            settle(cell, t)
        for action in (lambda: lock(cell, 0.0, t), lambda: unlock(cell, t)):
            with pytest.raises(ValueError) as got:
                action()
            assert str(got.value) == str(want.value)

    @given(cell=any_cell_states, back=st.floats(1e-9, 1.0), level=st.sampled_from(Level))
    @settings(max_examples=100, deadline=None)
    def test_fast_gate_edge_on_a_floating_cell_refuses_a_time_before_the_last_event(
            self, cell, back, level):
        # A locked cell only records the level, at any time.
        cell, t = cell._replace(lock_closed=False), cell.t_last - back
        with pytest.raises(ValueError) as got:
            apply_fg(cell, level, t, SupplyRails())
        assert str(got.value) == f"time {t} precedes last event at {cell.t_last}"

    @given(cell=any_cell_states, v=finite_volts)
    @settings(max_examples=200, deadline=None)
    def test_set_hold_couples_as_couple_hold(self, cell, v):
        # `couple_hold` stays the oracle of the floating branch `set_hold` fuses.
        cell = cell._replace(lock_closed=False)
        assert_same_state(set_hold(cell, v), couple_hold(cell, v - cell.v_hold_seen), cell)

    @given(cell=any_cell_states, level=st.sampled_from(Level), dt=st.floats(0.0, 1e-3))
    @settings(max_examples=200, deadline=None)
    def test_apply_fg(self, cell, level, dt):
        rails = SupplyRails(v_high=0.3, v_low=-0.2)
        t = cell.t_last + dt
        if cell.lock_closed:
            want = cell._replace(fg_level=level)
        else:
            want = ClfgCell._make(settle(cell, t))
            if level != want.fg_level:
                pulse = pulse_amplitude(cell.params, rails) * (int(level) - int(cell.fg_ref))
                want = want._replace(fg_level=level, v_target=want.v_base + pulse)
        assert_same_state(apply_fg(cell, level, t, rails), want, cell)

    @given(cell=any_cell_states, levels=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_apply_fg_run_locked(self, cell, levels):
        cell = cell._replace(lock_closed=True)
        times = cell.t_last + 1e-6 * np.arange(len(levels))
        want = cell._replace(fg_level=Level(levels[-1]), t_last=float(times[-1]))
        got = apply_fg_run(cell, times, np.array(levels), 1e-6, SupplyRails())
        assert_same_state(got, want, cell)

    @given(cell=any_cell_states, level=st.sampled_from([0, 1]), dt=st.floats(0.0, 1e-3))
    @settings(max_examples=200, deadline=None)
    def test_apply_fg_run_floating_one_edge(self, cell, level, dt):
        # Longer runs are checked against the edge-by-edge oracle in `TestRunKernel`.
        cell, rails = cell._replace(lock_closed=False), SupplyRails(v_high=0.3, v_low=-0.2)
        t = cell.t_last + dt
        got = apply_fg_run(cell, np.array([t]), np.array([level]), 1e-6, rails)
        assert_same_state(got, apply_fg(cell, Level(level), t, rails), cell)

    @given(cell=any_cell_states)
    @settings(max_examples=50, deadline=None)
    def test_state_survives_pickle(self, cell):
        # Plain data: a module-level NamedTuple pickles.
        for protocol_ in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(cell, protocol=protocol_))
            assert type(back) is ClfgCell
            assert back == cell and hash(back) == hash(cell)


# Inputs of the one-pole filter: ordinary values, and the zeros and
# subnormals whose signs and roundings a reordered recurrence would change.
_filter_values = st.floats(-1e6, 1e6) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0]
)
_filter_taps = st.floats(-1.5, 1.5) | st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.0])


class TestOnePole:
    """`one_pole`, and the tank low-pass that runs it along each row,
    against `scipy.signal.lfilter`, bit for bit."""

    @given(
        b0=_filter_taps,
        c=_filter_taps,
        x=st.lists(_filter_values, max_size=40),
        z0=_filter_values,
    )
    @settings(max_examples=500, deadline=None)
    def test_1d_matches_lfilter_bits(self, b0, c, x, z0):
        x = np.array(x, dtype=float)
        expected, _ = lfilter([b0], [1.0, -c], x, zi=[z0])
        assert one_pole(b0, c, x, z0).tobytes() == expected.tobytes()

    @given(
        ratio=st.floats(10.0, 1e4),
        rows=st.integers(1, 40).flatmap(
            lambda n: st.lists(
                st.lists(_filter_values, min_size=n, max_size=n), min_size=1, max_size=4
            )
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_2d_matches_lfilter_bits_row_by_row(self, ratio, rows):
        # `device._low_pass` on 2-D input: each row settled at its first value.
        tank, rate = TankReadout(bandwidth_hz=1e6), ratio * 1e6
        x = np.array(rows, dtype=float)
        a = 1.0 - float(np.exp(-2.0 * np.pi * tank.bandwidth_hz / rate))
        expected, _ = lfilter([a], [1.0, -(1.0 - a)], x, axis=-1, zi=(1.0 - a) * x[:, :1])
        assert _low_pass(x, tank, rate).tobytes() == expected.tobytes()
