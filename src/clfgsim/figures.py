"""Drivers that turn bundled scenarios into figure-ready CSV tables.

Each driver consumes a scenario whose `figure` field names it, executes
the underlying runs/sweeps through the engine, and returns a bundle whose
tables are keyed by the figure name so a shared output directory holds
one CSV per figure.
"""
from __future__ import annotations

import numpy as np

from . import analog, device as devmod, engine, thermal
from .engine import Scenario, Table, TraceBundle


def _bundle(scenario: Scenario, tables: dict[str, Table], summary: dict) -> TraceBundle:
    return TraceBundle(
        tables=tables, events=[], summary=summary, manifest=engine._manifest(scenario)
    )


def _sweep_values(scenario: Scenario) -> tuple[str, list]:
    if not scenario.sweep or "axis" not in scenario.sweep or "values" not in scenario.sweep:
        raise engine.ScenarioError("figure needs a sweep block with axis and values")
    return scenario.sweep["axis"], list(scenario.sweep["values"])


def fig3b(scenario: Scenario) -> TraceBundle:
    """Coulomb oscillations vs the charge-locked plunger voltage."""
    axis, values = _sweep_values(scenario)
    bundles = engine.sweep(scenario, axis, values)
    rows = [
        (float(v), b.summary["conductance_final_s"]) for v, b in zip(values, bundles)
    ]
    table = Table(("v_lp_volts", "g_siemens"), rows)
    return _bundle(scenario, {"fig3b": table}, {"n_points": len(rows)})


def fig3c(scenario: Scenario) -> TraceBundle:
    """Held-voltage drift over an hour for several hold voltages."""
    axis, values = _sweep_values(scenario)
    cell = int(scenario.figure_params.get("cell", 0))
    open_time = float(scenario.figure_params.get("open_time_s", 0.0))
    bundles = engine.sweep(scenario, axis, values)
    rows = []
    for v_hold, bundle in zip(values, bundles):
        table = bundle.tables["cells"]
        pairs = [(t, v) for t, c, v in table.rows if c == cell and t > open_time]
        t0, v0 = pairs[0]
        t1, v1 = pairs[-1]
        drift = v1 - v0
        rate = -(drift / (t1 - t0)) / v0 if v0 else 0.0
        rows.append(
            (float(v_hold), v0, drift / (t1 - t0) * 3600.0 * 1e6, rate)
        )
    table = Table(
        ("v_hold_volts", "v_held_volts", "drift_uv_per_hr", "leak_rate_per_s"), rows
    )
    return _bundle(scenario, {"fig3c": table}, {"n_points": len(rows)})


def fig3e(scenario: Scenario) -> TraceBundle:
    """Floating output tracking a swept hold rail through c_ds."""
    run = engine.run_generic(scenario)
    cell = int(scenario.figure_params.get("cell", 0))
    hold = {t: v for t, v in run.tables["hold"].rows}
    rows = [
        (t, hold[t], v) for t, c, v in run.tables["cells"].rows if c == cell
    ]
    table = Table(("time_s", "v_hold_volts", "v_out_volts"), rows)
    return _bundle(scenario, {"fig3e": table}, run.summary)


def fig3f(scenario: Scenario) -> TraceBundle:
    """Pulsed-readout envelope against the two static reference sweeps."""
    params = scenario.figure_params
    cell_idx = int(params["cell"])
    pulse_gate = str(params["pulse_gate"])
    sweep_gate = str(params["sweep_gate"])
    v_sweep = np.asarray([float(v) for v in params["v_sdp_values"]])
    pulse_start = float(params["pulse_start_s"])
    settle = float(params.get("settle_fraction", 0.5))

    run = engine.run_generic(scenario)
    cells_table = run.tables["cells"]
    pairs = [(t, v) for t, c, v in cells_table.rows if c == cell_idx and t >= pulse_start]
    v_out = np.asarray([v for _, v in pairs])

    dot = scenario.device

    # Static references: the output parked at the released hold voltage
    # (fast gate LOW) and one pulse amplitude above it (fast gate HIGH).
    rails = scenario.rails
    v_low_ref = rails.v_hold + analog.injection_offset(scenario.analog)
    v_high_ref = v_low_ref + analog.pulse_amplitude(scenario.analog, rails)
    g_low = np.asarray(
        devmod.conductance(dot, {sweep_gate: v_sweep, pulse_gate: v_low_ref})
    )
    g_high = np.asarray(
        devmod.conductance(dot, {sweep_gate: v_sweep, pulse_gate: v_high_ref})
    )
    pulsed = np.asarray(
        devmod.conductance(
            dot, {sweep_gate: v_sweep[:, None], pulse_gate: v_out[None, :]}
        )
    )
    report = devmod.envelope_check(dot, scenario.tank, pulsed, g_low, g_high, settle)
    rows = list(
        zip(v_sweep.tolist(), g_low.tolist(), g_high.tolist(),
            report.env_min.tolist(), report.env_max.tolist())
    )
    table = Table(("v_sdp_volts", "g_low", "g_high", "g_env_min", "g_env_max"), rows)
    return _bundle(
        scenario, {"fig3f": table},
        {"max_rel_deviation": report.max_rel_deviation, "n_points": len(rows)},
    )


def fig3g(scenario: Scenario) -> TraceBundle:
    """Square-wave readout at divider-stepped pulse frequencies."""
    run = engine.run_generic(scenario)
    table = Table(run.tables["readout"].header, run.tables["readout"].rows)
    return _bundle(scenario, {"fig3g": table}, run.summary)


def fig4b(scenario: Scenario) -> TraceBundle:
    """Per-cell pulsing cost for 1..6 simultaneously pulsed cells."""
    params = scenario.figure_params
    model = scenario.power
    swing = float(params.get("swing", 0.1))
    rows = []
    for n in [int(v) for v in params.get("n_cells", range(1, 7))]:
        for f in [float(v) for v in params["f_values"]]:
            watts = n * thermal.pulse_power(model.c_pulse, model.c_p, swing, 0.0, f)
            rows.append((n, f, watts, watts / n / f * 1e15 if f else 0.0))
    table = Table(("n_cells", "f_hz", "cells_watts", "nw_per_mhz_per_cell"), rows)
    return _bundle(scenario, {"fig4b": table}, {"n_points": len(rows)})


def fig4d(scenario: Scenario) -> TraceBundle:
    """Quadratic dependence of pulsing power on drive amplitude."""
    params = scenario.figure_params
    model = scenario.power
    rows = []
    for swing in [float(v) for v in params["swing_values"]]:
        for f in [float(v) for v in params["f_values"]]:
            rows.append(
                (swing, f, thermal.pulse_power(model.c_pulse, model.c_p, swing, 0.0, f))
            )
    table = Table(("swing_volts", "f_hz", "pulse_watts"), rows)
    return _bundle(scenario, {"fig4d": table}, {"n_points": len(rows)})


def fig4e(scenario: Scenario) -> TraceBundle:
    """Total-system power vs gate count and frequency, with feasibility."""
    params = scenario.figure_params
    model = scenario.power
    budget = scenario.budget
    swing = float(params.get("swing", 0.1))
    rows = thermal.feasibility_map(
        [int(v) for v in params["n_values"]],
        [float(v) for v in params["f_values"]],
        swing, model, budget,
    )
    table = Table(("n_cells", "f_hz", "total_watts", "feasible"), rows)
    return _bundle(
        scenario, {"fig4e": table},
        {"budget_watts": budget.budget_watts_at_100mk, "n_points": len(rows)},
    )


DRIVERS = {
    "fig3b": fig3b,
    "fig3c": fig3c,
    "fig3e": fig3e,
    "fig3f": fig3f,
    "fig3g": fig3g,
    "fig4b": fig4b,
    "fig4d": fig4d,
    "fig4e": fig4e,
}


# Scenario sections each driver reads beyond the always-present ones.
_NEEDS = {
    "fig3f": ("device",),
    "fig4b": ("power",),
    "fig4d": ("power",),
    "fig4e": ("power", "budget"),
}
_MISSING = {
    "device": "figure needs a device section",
    "power": "figure needs a power section",
    "budget": "figure needs power.budget",
}


def require_sections(scenario: Scenario, sections) -> None:
    """Raise ScenarioError for the first of `sections` the scenario lacks."""
    for section in sections:
        if getattr(scenario, section) is None:
            raise engine.ScenarioError(_MISSING[section])


def check_sections(scenario: Scenario) -> None:
    """Reject an unknown figure or one whose driver lacks a section it reads."""
    if scenario.figure not in DRIVERS:
        raise engine.ScenarioError(f"unknown figure {scenario.figure!r}")
    require_sections(scenario, _NEEDS.get(scenario.figure, ()))


def run_figure(scenario: Scenario) -> TraceBundle:
    return DRIVERS[scenario.figure](scenario)
