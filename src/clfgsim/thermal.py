"""Power and thermal budget engine.

Per-cell pulsing dissipation follows the switched-capacitor law

    p_pulse = analog.series_capacitance(cell) * swing**2 * f

(the full swing's worth of series-capacitance energy is burned in the
switch resistance each cycle, independent of its value).  The capacitors
are the cell's own `analog.CellParams`, the one copy that runs, figures
and `budget` read.  Block powers add linearly; power maps to temperature
through a measured calibration curve rather than a physical conductance
model, because interpolating measured points is exactly what the
underlying measurement procedure provides.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

from .analog import CellParams, series_capacitance


@dataclass(frozen=True)
class PowerModel:
    """Coefficients for the dissipation blocks beside the pulsing cells.

    The cell term comes from the cell's own `CellParams` (`pulse_power`),
    so it scales exactly quadratically with drive swing.  FSM and clock
    energies default to 0: no trustworthy per-cycle numbers exist for
    those blocks, so non-zero values must come from configuration.  When `master_freq_hz` is set the
    clock block runs at that fixed rate; otherwise it follows the clock
    rate `total_power` is given (a run passes the chip's master clock),
    else the operating frequency.
    """

    fsm_energy_per_cycle: float = 0.0
    clock_energy_per_cycle: float = 0.0
    static_floor_w: float = 0.0
    master_freq_hz: float | None = None

    def __post_init__(self) -> None:
        if min(self.fsm_energy_per_cycle, self.clock_energy_per_cycle,
               self.static_floor_w) < 0:
            raise ValueError("power coefficients must be non-negative")


@dataclass(frozen=True)
class ThermalCalibration:
    """Measured (power, temperature) points above a zero-power base."""

    points: tuple[tuple[float, float], ...] = ()
    base_temperature_k: float = 0.036

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("calibration needs at least 2 points")
        last_p, last_t = 0.0, self.base_temperature_k
        for p, t in self.points:
            if p <= last_p or t <= last_t:
                raise ValueError("points must increase strictly in both coordinates")
            last_p, last_t = p, t


@dataclass(frozen=True)
class CoolingBudget:
    """Refrigerator cooling power at the qubit operating temperature."""

    budget_watts_at_100mk: float = 400e-6

    def __post_init__(self) -> None:
        if self.budget_watts_at_100mk <= 0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class FeasibilityResult:
    total_watts: float
    budget_watts: float
    feasible: bool
    headroom_watts: float


def pulse_power(cell: CellParams, swing: float, f: float) -> float:
    """Dissipation of one cell pulsing by `swing` at frequency `f` (exact closed form)."""
    if f < 0:
        raise ValueError("frequency must be non-negative")
    return series_capacitance(cell) * (swing * swing) * f


def total_power(
    n_cells: float,
    f: float,
    swing: float,
    cell: CellParams,
    model: PowerModel,
    *,
    f_clock: float | None = None,
    clock_on: bool = True,
    fsm_on: bool = True,
) -> float:
    """System power: static floor + clock + FSM + n_cells pulsing `cell`s.

    The cells and the FSM run at `f`.  The clock block runs at
    `model.master_freq_hz` when that is set, else at `f_clock` when given,
    else at `f`.  A gated clock leaves only the static floor; a gated FSM
    drops its term.  Monotone nondecreasing in every argument.  `n_cells`
    may be fractional for projections (crossover roots, contour lines).
    """
    if n_cells < 0:
        raise ValueError("n_cells must be non-negative")
    total = model.static_floor_w
    if not clock_on:
        return total
    if model.master_freq_hz is not None:
        f_clock = model.master_freq_hz
    total += model.clock_energy_per_cycle * (f if f_clock is None else f_clock)
    if fsm_on:
        total += model.fsm_energy_per_cycle * f
    return total + n_cells * pulse_power(cell, swing, f)


def temperature(p_watts: float, cal: ThermalCalibration) -> float:
    """Temperature for a dissipation level, interpolating the calibration.

    Piecewise linear through (0, base) and the calibration points; knots
    reproduce exactly; beyond the last point the final segment is
    extrapolated.
    """
    if p_watts < 0:
        raise ValueError("power must be non-negative")
    knots = [(0.0, cal.base_temperature_k), *cal.points]
    powers = [p for p, _ in knots]
    idx = bisect_right(powers, p_watts) - 1
    if idx >= 0 and powers[idx] == p_watts:
        return knots[idx][1]
    if idx >= len(knots) - 1:
        idx = len(knots) - 2  # extrapolate the last segment
    (p0, t0), (p1, t1) = knots[idx], knots[idx + 1]
    return t0 + (t1 - t0) * (p_watts - p0) / (p1 - p0)


def feasible(
    n_cells: int, f: float, swing: float, cell: CellParams, model: PowerModel,
    budget: CoolingBudget,
) -> FeasibilityResult:
    """Does the projected load fit in the refrigerator's cooling power?"""
    total = total_power(n_cells, f, swing, cell, model)
    return FeasibilityResult(
        total_watts=total,
        budget_watts=budget.budget_watts_at_100mk,
        feasible=total <= budget.budget_watts_at_100mk,
        headroom_watts=budget.budget_watts_at_100mk - total,
    )


def feasibility_map(
    n_values: Sequence[int],
    f_values: Sequence[float],
    swing: float,
    cell: CellParams,
    model: PowerModel,
    budget: CoolingBudget,
) -> list[tuple[int, float, float, int]]:
    """Rows (n_cells, f_hz, total_watts, feasible) over an (N, f) grid."""
    rows = []
    for n in n_values:
        for f in f_values:
            r = feasible(n, f, swing, cell, model, budget)
            rows.append((int(n), float(f), r.total_watts, int(r.feasible)))
    return rows
