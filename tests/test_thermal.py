import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clfgsim.analog import CellParams
from clfgsim.thermal import (
    CoolingBudget,
    PowerModel,
    ThermalCalibration,
    feasibility_map,
    feasible,
    pulse_power,
    temperature,
    total_power,
)

# The measured 18 nW/MHz per cell at 0.1 V is a 1.8 pF series
# capacitance, split as two equal capacitors.
C_SERIES_18NW = 18e-15 / 0.1**2
CELL_18NW = CellParams(c_pulse=2.0 * C_SERIES_18NW, c_p=2.0 * C_SERIES_18NW)
DEFAULT = CellParams()


def cell(c_pulse: float, c_p: float) -> CellParams:
    return CellParams(c_pulse=c_pulse, c_p=c_p)


class TestPulsePower:
    def test_default_point(self):
        # 1 pF against 1 pF at 0.2 V and 1 MHz burns 20 nW.
        assert pulse_power(cell(1e-12, 1e-12), 0.2, 1e6) == pytest.approx(20e-9, rel=1e-12)

    def test_zero_frequency(self):
        assert pulse_power(cell(1e-12, 1e-12), 0.2, 0.0) == 0.0

    def test_doubling_swing_quadruples_power(self):
        p1 = pulse_power(cell(1e-12, 2e-12), 0.1, 1e6)
        p2 = pulse_power(cell(1e-12, 2e-12), 0.2, 1e6)
        assert p2 == 4.0 * p1

    @given(
        s=st.floats(1e-6, 10.0),
        c1=st.floats(1e-13, 1e-11),
        c2=st.floats(1e-13, 1e-11),
        f=st.floats(1.0, 1e8),
    )
    def test_quadratic_law_exact(self, s, c1, c2, f):
        # Doubling is an exact exponent bump, so the 4x law holds to the bit.
        assert pulse_power(cell(c1, c2), 2 * s, f) == 4.0 * pulse_power(cell(c1, c2), s, f)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pulse_power(cell(0.0, 1e-12), 0.1, 1.0)
        with pytest.raises(ValueError):
            pulse_power(cell(1e-12, 1e-12), 0.1, -1.0)


class TestTotalPower:
    def test_idle_chip_is_the_static_floor(self):
        model = PowerModel(static_floor_w=3e-9)
        assert total_power(0, 0.0, 0.1, DEFAULT, model) == 3e-9

    @pytest.mark.parametrize("n", [-1, -0.5])
    def test_negative_cell_count_is_refused(self, n):
        with pytest.raises(ValueError, match=r"^n_cells must be non-negative$"):
            total_power(n, 1e6, 0.1, DEFAULT, PowerModel())

    def test_measured_coefficient_projection(self):
        # 18 nW/MHz per cell at 0.1 V: 1000 cells at 1 MHz cost 18 uW.
        model = PowerModel()
        assert total_power(1000, 1e6, 0.1, CELL_18NW, model) == pytest.approx(18e-6, rel=1e-12)

    def test_cell_staircase_increments_equally(self):
        model = PowerModel()
        steps = [total_power(n, 1e6, 0.1, DEFAULT, model) for n in range(1, 7)]
        increments = np.diff(steps)
        p_cell = pulse_power(cell(1e-12, 1e-12), 0.1, 1e6)
        assert np.allclose(increments, p_cell, rtol=1e-12)

    def test_linear_in_frequency(self):
        model = PowerModel(fsm_energy_per_cycle=2e-14, clock_energy_per_cycle=1e-14)
        assert total_power(5, 2e6, 0.1, DEFAULT, model) == pytest.approx(
            2.0 * total_power(5, 1e6, 0.1, DEFAULT, model), rel=1e-12
        )

    def test_fixed_master_clock(self):
        model = PowerModel(clock_energy_per_cycle=1e-14, master_freq_hz=35.84e6)
        assert total_power(0, 0.0, 0.1, DEFAULT, model) == pytest.approx(
            1e-14 * 35.84e6, rel=1e-12
        )

    @given(
        n=st.integers(0, 5000),
        f=st.floats(0.0, 1e7),
        dn=st.integers(0, 100),
        df=st.floats(0.0, 1e6),
    )
    def test_monotone(self, n, f, dn, df):
        model = PowerModel(fsm_energy_per_cycle=2e-14, static_floor_w=1e-9)
        assert total_power(n + dn, f + df, 0.1, DEFAULT, model) >= total_power(
            n, f, 0.1, DEFAULT, model
        )


class TestTemperature:
    def cal(self) -> ThermalCalibration:
        return ThermalCalibration(
            points=((7.038e-7, 0.096), (5e-6, 0.15), (5e-5, 0.25)),
            base_temperature_k=0.036,
        )

    def test_zero_power_is_base(self):
        assert temperature(0.0, self.cal()) == 0.036

    def test_knots_reproduce_exactly(self):
        cal = self.cal()
        for p, t in cal.points:
            assert temperature(p, cal) == t

    def test_interpolates_between_base_and_first_point(self):
        cal = self.cal()
        mid = temperature(7.038e-7 / 2, cal)
        assert mid == pytest.approx((0.036 + 0.096) / 2, rel=1e-12)

    def test_extrapolates_last_segment(self):
        cal = self.cal()
        slope = (0.25 - 0.15) / (5e-5 - 5e-6)
        assert temperature(1e-4, cal) == pytest.approx(
            0.25 + slope * (1e-4 - 5e-5), rel=1e-12
        )

    def test_monotone(self):
        cal = self.cal()
        grid = np.linspace(0.0, 2e-4, 4001)
        temps = [temperature(p, cal) for p in grid]
        assert all(b >= a for a, b in zip(temps, temps[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalCalibration(points=((1e-6, 0.1),))
        with pytest.raises(ValueError):
            ThermalCalibration(points=((1e-6, 0.1), (2e-6, 0.05)))
        with pytest.raises(ValueError):
            temperature(-1.0, self.cal())


class TestFeasibility:
    def model(self) -> PowerModel:
        return PowerModel(
            fsm_energy_per_cycle=2e-14, clock_energy_per_cycle=1e-14,
        )

    def test_thousand_gates_fit_commercial_budget(self):
        budget = CoolingBudget(budget_watts_at_100mk=400e-6)
        result = feasible(1000, 1e6, 0.1, CELL_18NW, self.model(), budget)
        assert result.feasible
        assert result.headroom_watts >= 350e-6
        assert result.headroom_watts == budget.budget_watts_at_100mk - result.total_watts

    def test_tiny_budget_infeasible(self):
        budget = CoolingBudget(budget_watts_at_100mk=1e-12)
        assert not feasible(1, 1e6, 0.1, CELL_18NW, self.model(), budget).feasible

    def test_feasibility_monotone_in_n_and_f(self):
        budget = CoolingBudget(budget_watts_at_100mk=400e-6)
        ns = [1, 10, 100, 1000, 20000, 400000]
        fs = [1e5, 1e6, 1e7]
        grid = {
            (n, f): feasible(n, f, 0.1, CELL_18NW, self.model(), budget).feasible
            for n in ns for f in fs
        }
        for n, f in grid:
            if grid[(n, f)]:
                assert all(
                    grid[(n2, f2)]
                    for n2 in ns for f2 in fs if n2 <= n and f2 <= f
                )

    def test_map_rows(self):
        budget = CoolingBudget(budget_watts_at_100mk=400e-6)
        rows = feasibility_map([1, 1000], [1e5, 1e6], 0.1, CELL_18NW, self.model(), budget)
        assert len(rows) == 4
        n, f, watts, ok = rows[-1]
        assert (n, f) == (1000, 1e6)
        assert ok == 1 and watts < 400e-6

