import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clfgsim.analog import (
    AlreadyUnlocked,
    CellParams,
    ClfgCell,
    Level,
    LockClosed,
    SupplyRails,
    apply_fg,
    couple_hold,
    injection_offset,
    leak,
    lock,
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
    """Cell released at voltage `v` with no injection offset."""
    cell = ClfgCell(CellParams(q_inj=0.0, **params))
    cell = lock(cell, v)
    return unlock(cell)


class TestLock:
    def test_lock_sets_output_to_hold(self, default_cell):
        cell = lock(default_cell, -1.1)
        assert cell.lock_closed
        assert output_voltage(cell, 0.0) == -1.1

    def test_lock_at_zero(self, default_cell):
        cell = lock(default_cell, 0.0)
        assert output_voltage(cell, 5.0) == 0.0

    def test_lock_idempotent(self, default_cell, rails):
        once = lock(default_cell, rails.v_hold)
        assert lock(once, rails.v_hold) == once

    def test_locked_output_ignores_fg_history(self, default_cell, rails):
        cell = apply_fg(default_cell, Level.HIGH, 0.0, rails)
        cell = lock(cell, rails.v_hold)
        cell = apply_fg(cell, Level.LOW, 1.0, rails)
        cell = apply_fg(cell, Level.HIGH, 2.0, rails)
        assert output_voltage(cell, 3.0) == rails.v_hold


class TestUnlock:
    def test_no_injection_no_offset(self):
        cell = ClfgCell(CellParams(q_inj=0.0))
        cell = unlock(lock(cell, -1.1))
        assert output_voltage(cell, 0.0) == -1.1

    def test_injection_offset_value(self):
        # 2 fC onto 2 pF of node capacitance is a 1 mV step.
        params = CellParams(c_pulse=1e-12, c_p=1e-12, q_inj=2e-15)
        assert injection_offset(params) == pytest.approx(1e-3, rel=1e-12)
        cell = unlock(lock(ClfgCell(params), -1.1))
        assert output_voltage(cell, 0.0) == pytest.approx(-1.099, rel=1e-12)

    def test_double_unlock(self, default_cell, rails):
        cell = unlock(lock(default_cell, rails.v_hold))
        with pytest.raises(AlreadyUnlocked):
            unlock(cell)


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
        with pytest.raises(LockClosed):
            couple_hold(lock(default_cell, rails.v_hold), 0.1)

    def test_set_hold_tracks_when_locked(self, default_cell, rails):
        cell = lock(default_cell, rails.v_hold)
        cell = set_hold(cell, -0.7)
        assert output_voltage(cell, 0.0) == -0.7


class TestLeak:
    def test_zero_dt_unchanged(self):
        cell = floating_cell(-1.1)
        assert leak(cell, 0.0) == cell

    def test_hour_drift_matches_tens_of_microvolts(self):
        cell = floating_cell(-1.1, leak_rate=1e-8)
        drifted = leak(cell, 3600.0)
        drift = output_voltage(drifted, drifted.t_last) - (-1.1)
        expected = -1.1 * math.exp(-1e-8 * 3600.0) + 1.1
        assert drift == pytest.approx(expected, rel=1e-12)
        assert drift == pytest.approx(39.6e-6, abs=0.05e-6)

    @given(t1=st.floats(0, 1e5), t2=st.floats(0, 1e5))
    def test_semigroup(self, t1, t2):
        cell = floating_cell(-1.1)
        split = leak(leak(cell, t1), t2)
        joined = leak(cell, t1 + t2)
        assert output_voltage(split, split.t_last) == pytest.approx(
            output_voltage(joined, joined.t_last), rel=1e-12
        )

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            leak(floating_cell(0.0), -1.0)

    def test_noop_while_locked(self, default_cell, rails):
        cell = lock(default_cell, rails.v_hold)
        after = leak(cell, 1e6)
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
        cell = apply_fg(cell, Level.HIGH, 0.0, rails)
        times = np.linspace(0.0, 10e-9, 10001)
        v = sample_output(cell, times)
        dv = pulse_amplitude(cell.params, rails)
        t10 = times[np.searchsorted(v, 0.1 * dv)]
        t90 = times[np.searchsorted(v, 0.9 * dv)]
        assert t90 - t10 == pytest.approx(math.log(9) * 1e-9, abs=0.01e-9)

    def test_same_level_is_a_no_op(self):
        cell = floating_cell(-1.1)
        rails = SupplyRails()
        after = apply_fg(cell, Level.LOW, 0.0, rails)
        assert after.v_target == cell.v_target
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
        cell = apply_fg(cell, Level.HIGH, 0.0, rails)
        cell = unlock(lock(cell, rails.v_hold))
        cell = apply_fg(cell, Level.LOW, 1.0, rails)
        v = output_voltage(cell, 1.0 + 1e-6)
        assert v == pytest.approx(-1.1 - pulse_amplitude(cell.params, rails), rel=1e-9)

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
            tau = time_constant(cell.params)
            dt = tau / 1000.0
            half = 20000  # 20 tau per half cycle
            energy = 0.0
            t0 = 0.0
            for level in (Level.HIGH, Level.LOW):
                cell = apply_fg(cell, level, t0, rails)
                times = t0 + np.arange(half + 1) * dt
                v = sample_output(cell, times)
                i = c_p * np.gradient(v, dt)
                energy += np.trapezoid(i * i * r, dx=dt)
                t0 = times[-1]
            expected = series_capacitance(cell.params) * swing**2
            assert energy == pytest.approx(expected, rel=5e-3)
