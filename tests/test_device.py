import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clfgsim import analog
from clfgsim.errors import SimulationError
from clfgsim.device import (
    DotDevice,
    TankReadout,
    conductance,
    envelope_check,
    tank_signal,
)


@pytest.fixture
def dot() -> DotDevice:
    return DotDevice(levers={"sdp": 1.0, "lw": 0.2})


@pytest.fixture
def tank() -> TankReadout:
    return TankReadout(bandwidth_hz=10e6, sample_rate_hz=2e8)


class TestConductance:
    def test_on_peak_is_g_max(self, dot):
        assert conductance(dot, {"sdp": 0.0}) == dot.g_max
        assert conductance(dot, {"sdp": 3 * dot.peak_spacing}) == pytest.approx(
            dot.g_max, rel=1e-12
        )

    def test_mid_valley_closed_form(self, dot):
        g = conductance(dot, {"sdp": dot.peak_spacing / 2})
        expected = dot.g_max / math.cosh(dot.peak_spacing / (2 * dot.peak_width)) ** 2
        assert g == pytest.approx(expected, rel=1e-12)
        assert g < 2e-5 * dot.g_max  # essentially pinched off

    @given(v=st.floats(-0.05, 0.05), k=st.integers(-3, 3))
    def test_periodic_in_gate_over_lever(self, v, k):
        dot = DotDevice(levers={"lw": 0.2})
        shifted = v + k * dot.peak_spacing / 0.2
        a = conductance(dot, {"lw": v})
        b = conductance(dot, {"lw": shifted})
        assert b == pytest.approx(a, rel=1e-9, abs=1e-9 * dot.g_max)

    def test_lever_arms_combine(self, dot):
        # 1.0 * 3 mV + 0.2 * 10 mV lands 5 mV off a peak: mid valley.
        g = conductance(dot, {"sdp": 0.003, "lw": 0.010})
        assert g == pytest.approx(
            conductance(dot, {"sdp": 0.005}), rel=1e-12
        )

    def test_bounded_by_g_max(self, dot):
        v = np.linspace(-0.05, 0.05, 5001)
        g = conductance(dot, {"sdp": v})
        assert np.all(g >= 0.0) and np.all(g <= dot.g_max)

    def test_unknown_gate(self, dot):
        with pytest.raises(SimulationError, match=r"^no lever arm for gate\(s\) \['nope'\]$"):
            conductance(dot, {"nope": 0.0})


class TestReadout:
    def test_constant_input_passes_unchanged(self, dot, tank):
        v = np.full(1000, 0.0021)
        y = tank_signal(tank, conductance(dot, {"sdp": v}))
        g = conductance(dot, {"sdp": 0.0021})
        assert np.allclose(y, g, rtol=1e-12)

    def test_sample_rate_guard(self, dot):
        slow = TankReadout(bandwidth_hz=10e6, sample_rate_hz=50e6)
        with pytest.raises(SimulationError, match=r"^sample rate 5e\+07 Hz < 10 x bandwidth 1e\+07 Hz$"):
            tank_signal(slow, conductance(dot, {"sdp": np.zeros(10)}))

    def test_scalar_conductance_is_refused(self, tank):
        with pytest.raises(ValueError, match=r"^the conductance trace must be a sampled array$"):
            tank_signal(tank, 1e-6)

    def test_edge_rise_time_set_by_bandwidth(self, dot, tank):
        # A sharp step in conductance comes out with a 10-90% rise of
        # ln(9)/(2 pi BW) ~ 35 ns, regardless of how fast the input edge is.
        fs = tank.sample_rate_hz
        n = 40000
        # Gate jumps from mid-valley to a peak: conductance step 0 -> g_max.
        v = np.where(np.arange(n) < n // 2, dot.peak_spacing / 2, 0.0)
        y = tank_signal(tank, conductance(dot, {"sdp": v}))
        t = np.arange(n) / fs
        seg = slice(n // 2 - 1, None)
        t10 = np.interp(0.1 * dot.g_max, y[seg], t[seg])
        t90 = np.interp(0.9 * dot.g_max, y[seg], t[seg])
        expected = math.log(9) / (2 * math.pi * tank.bandwidth_hz)
        assert t90 - t10 == pytest.approx(expected, abs=2e-9)
        assert expected == pytest.approx(35e-9, abs=0.1e-9)

    def test_fast_pulsing_flattens_to_mean(self, dot):
        tank = TankReadout(bandwidth_hz=10e6, sample_rate_hz=1e9)
        n = 100000
        # 100 MHz square in effective gate volts, way above the 10 MHz tank.
        square = np.where((np.arange(n) // 5) % 2 == 0, 0.0, 0.005)
        g = conductance(dot, {"sdp": square})
        y = tank_signal(tank, g)
        settled = y[n // 2:]
        assert np.ptp(settled) < 0.4 * np.ptp(g)
        assert np.mean(settled) == pytest.approx(np.mean(g[n // 2:]), rel=1e-3)

    def test_dc_average_preserved_over_integer_periods(self, dot):
        # 200 kHz square sampled at 100 MHz: 500 samples per period.
        tank = TankReadout(bandwidth_hz=10e6, sample_rate_hz=1e8)
        period = 500
        n_periods = 100
        square = np.where(
            (np.arange(period * n_periods) // (period // 2)) % 2 == 0, 0.0, 0.005
        )
        g = conductance(dot, {"sdp": square})
        y = tank_signal(tank, g)
        tail = slice(period * n_periods // 2, None)  # integer period count
        assert np.mean(y[tail]) == pytest.approx(np.mean(g[tail]), rel=1e-6)


class TestEnvelope:
    def _square_rows(self, v_sweep, dv_eff, n_time, plateau):
        bit = (np.arange(n_time) // plateau) % 2
        offs = np.where(bit == 1, dv_eff, 0.0)
        return v_sweep[:, None] + offs[None, :]

    def test_zero_pulse_amplitude_coincides(self, dot, tank):
        v = np.linspace(-0.01, 0.01, 41)
        g_static = np.asarray(conductance(dot, {"sdp": v}))
        pulsed = np.asarray(conductance(dot, {"sdp": self._square_rows(v, 0.0, 2000, 250)}))
        report = envelope_check(dot, tank, pulsed, g_static, g_static)
        assert report.max_rel_deviation <= 1e-12

    def test_envelope_tracks_statics_at_slow_pulsing(self, dot):
        # Pulse at bandwidth/50 (200 kHz at 10 MHz): each plateau settles,
        # so the envelope traces the two static combs within 1%.
        tank = TankReadout(bandwidth_hz=10e6, sample_rate_hz=1e8)
        v = np.linspace(-0.012, 0.012, 49)
        dv = dot.peak_spacing / 2
        rows = self._square_rows(v, dv, 2000, 250)
        pulsed = np.asarray(conductance(dot, {"sdp": rows}))
        g_lo = np.asarray(conductance(dot, {"sdp": v}))
        g_hi = np.asarray(conductance(dot, {"sdp": v + dv}))
        report = envelope_check(dot, tank, pulsed, g_lo, g_hi)
        assert report.max_rel_deviation < 0.01
        # Half-spacing offset: the envelope max follows the shifted comb's
        # peaks wherever those exceed the unshifted one.
        expected_max = np.maximum(g_lo, g_hi)
        assert np.allclose(report.env_max, expected_max, atol=0.01 * dot.g_max)

    def test_axis_mismatch(self, dot, tank):
        with pytest.raises(SimulationError, match=r"^sweep axes differ: pulsed 5, low 5, high 4$"):
            envelope_check(dot, tank, np.zeros((5, 100)), np.zeros(5), np.zeros(4))

    @pytest.mark.parametrize("pulsed, settle, message", [
        (np.zeros(5), 0.5, r"pulsed_trace must be 2-D \(sweep x time\)"),
        (np.zeros((5, 100)), 1.0, r"settle_fraction must be in \[0, 1\)"),
        (np.zeros((5, 100)), -0.1, r"settle_fraction must be in \[0, 1\)"),
    ], ids=["one_d", "settle_one", "settle_negative"])
    def test_refused_arguments(self, dot, tank, pulsed, settle, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            envelope_check(dot, tank, pulsed, np.zeros(5), np.zeros(5), settle)


class TestDriftRecovery:
    def test_flank_slope_method_recovers_leak_rate(self):
        # Bias on a peak flank and watch the conductance drift as the held
        # gate relaxes: slope / (dG/dV) returns the voltage drift rate.
        lam = 1e-8
        dot = DotDevice(levers={"lw": 1.0}, v_offset=1.1003)
        params = analog.CellParams(q_inj=0.0, leak_rate=lam)
        cell = analog.unlock(analog.lock(analog.ClfgCell(params), -1.1, 0.0), 0.0)
        times = np.arange(0.0, 201.0, 1.0)
        v = analog.sample_output(params, [analog.output_fields(cell)] * len(times), times)
        g = np.asarray(conductance(dot, {"lw": v}))
        probe_dv = 1e-6
        slope = np.polyfit(times, g, 1)[0]
        dg_dv = (conductance(dot, {"lw": -1.1 + probe_dv})
                 - conductance(dot, {"lw": -1.1 - probe_dv})) / (2.0 * probe_dv)
        drift = float(slope / dg_dv)
        assert drift == pytest.approx(lam * 1.1, rel=0.05)
