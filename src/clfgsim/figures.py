"""Drivers that turn bundled scenarios into figure-ready CSV tables.

Each driver consumes a scenario whose `figure` field names it, executes
the underlying runs/sweeps through the engine, and returns a bundle whose
tables are keyed by the figure name so a shared output directory holds
one CSV per figure.  `engine.run_scenario` adds the run's manifest.
"""
from __future__ import annotations

import dataclasses
import math
from functools import partial

import numpy as np

from . import analog, device as devmod, engine, thermal
from .engine import Scenario, Table, TraceBundle


def fig3b(scenario: Scenario) -> TraceBundle:
    """Coulomb oscillations vs the charge-locked plunger voltage."""
    values = np.array([float(v) for v in scenario.sweep.values])
    g = np.array([bundle.summary["conductance_final_s"] for bundle in engine.sweep(scenario)])
    table = Table(("v_lp_volts", "g_siemens"), (values, g))
    return TraceBundle({"fig3b": table}, {"n_points": len(values)})


def fig3c(scenario: Scenario) -> TraceBundle:
    """Held-voltage drift over an hour for several hold voltages."""
    cell = scenario.figure_params["cell"]
    open_time = scenario.figure_params["open_time_s"]
    rows = []
    for v_hold, bundle in zip(scenario.sweep.values, engine.sweep(scenario)):
        times, cells, volts = bundle.tables["cells"].columns
        after = (cells == cell) & (times > open_time)
        (t0, t1), (v0, v1) = times[after][[0, -1]], volts[after][[0, -1]]
        slope = (v1 - v0) / (t1 - t0)
        rate = -slope / v0 if v0 else 0.0
        rows.append((float(v_hold), float(v0), float(slope * 3600.0 * 1e6), float(rate)))
    table = Table.from_rows(
        ("v_hold_volts", "v_held_volts", "drift_uv_per_hr", "leak_rate_per_s"), rows
    )
    return TraceBundle({"fig3c": table}, {"n_points": len(rows)})


def fig3e(scenario: Scenario) -> TraceBundle:
    """Floating output tracking a swept hold rail through c_ds."""
    run = engine.run_generic(scenario)
    times, cells, volts = run.tables["cells"].columns
    mine = cells == scenario.figure_params["cell"]  # one row per sample, as `hold` has
    table = Table(("time_s", "v_hold_volts", "v_out_volts"),
                  (times[mine], run.tables["hold"].columns[1], volts[mine]))
    return TraceBundle({"fig3e": table}, run.summary)


def fig3f(scenario: Scenario) -> TraceBundle:
    """Pulsed-readout envelope against the two static reference sweeps."""
    params = scenario.figure_params
    pulse_gate = params["pulse_gate"]
    sweep_gate = params["sweep_gate"]
    v_sweep = np.asarray(params["v_sdp_values"])
    settle = params["settle_fraction"]

    run = engine.run_generic(scenario)
    times, cells, volts = run.tables["cells"].columns
    v_out = volts[(cells == params["cell"]) & (times >= params["pulse_start_s"])]

    dot = scenario.device

    # Static references: the output parked at the released hold voltage
    # (fast gate LOW) and one pulse amplitude above it (fast gate HIGH).
    rails = scenario.rails
    v_low_ref = rails.v_hold + analog.injection_offset(scenario.analog)
    v_high_ref = v_low_ref + analog.pulse_amplitude(scenario.analog, rails)
    g_low = devmod.conductance(dot, {sweep_gate: v_sweep, pulse_gate: v_low_ref})
    g_high = devmod.conductance(dot, {sweep_gate: v_sweep, pulse_gate: v_high_ref})
    pulsed = devmod.conductance(dot, {sweep_gate: v_sweep[:, None], pulse_gate: v_out[None, :]})
    report = devmod.envelope_check(dot, scenario.tank, pulsed, g_low, g_high, settle)
    table = Table(
        ("v_sdp_volts", "g_low", "g_high", "g_env_min", "g_env_max"),
        (v_sweep, g_low, g_high, report.env_min, report.env_max),
    )
    return TraceBundle(
        {"fig3f": table},
        {"max_rel_deviation": report.max_rel_deviation, "n_points": len(v_sweep)},
    )


def fig3g(scenario: Scenario) -> TraceBundle:
    """Square-wave readout at divider-stepped pulse frequencies."""
    run = engine.run_generic(scenario)
    return TraceBundle({"fig3g": run.tables["readout"]}, run.summary)


def fig4b(scenario: Scenario) -> TraceBundle:
    """Per-cell pulsing cost for 1..6 simultaneously pulsed cells."""
    params = scenario.figure_params
    swing = params["swing"]
    rows = []
    for n in params["n_cells"]:
        for f in params["f_values"]:
            watts = n * thermal.pulse_power(scenario.analog, swing, f)
            rows.append((n, f, watts, watts / n / f * 1e15 if f else 0.0))
    table = Table.from_rows(("n_cells", "f_hz", "cells_watts", "nw_per_mhz_per_cell"), rows)
    return TraceBundle({"fig4b": table}, {"n_points": len(rows)})


def fig4d(scenario: Scenario) -> TraceBundle:
    """Quadratic dependence of pulsing power on drive amplitude."""
    params = scenario.figure_params
    rows = [(swing, f, thermal.pulse_power(scenario.analog, swing, f))
            for swing in params["swing_values"] for f in params["f_values"]]
    table = Table.from_rows(("swing_volts", "f_hz", "pulse_watts"), rows)
    return TraceBundle({"fig4d": table}, {"n_points": len(rows)})


def fig4e(scenario: Scenario) -> TraceBundle:
    """Total-system power vs gate count and frequency, with feasibility."""
    params = scenario.figure_params
    budget = scenario.budget
    rows = thermal.feasibility_map(
        params["n_values"], params["f_values"], params["swing"], scenario.analog,
        scenario.power, budget,
    )
    table = Table.from_rows(("n_cells", "f_hz", "total_watts", "feasible"), rows)
    return TraceBundle(
        {"fig4e": table},
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
    "fig3b": ("sweep",),
    "fig3c": ("sweep",),
    "fig3f": ("device",),
    "fig4e": ("power", "budget"),
}
# Trace kinds each time-domain driver reads from its runs.
_TRACES = {"fig3b": ("conductance",), "fig3c": ("cells",), "fig3e": ("cells", "hold"),
           "fig3f": ("cells",), "fig3g": ("readout",)}


def _at_least(low, convert):
    """`convert`, refusing a result below `low` as a float (so past float range too)."""
    def checked(value):
        if not float(number := convert(value)) >= low:
            raise ValueError(f"expected at least {low}, got {value!r}")
        return number
    return checked


_FLOAT, _INT, _FLOATS = engine._number, engine._INT, engine._list_of
_FREQS = partial(engine._list_of, read=_at_least(0, _FLOAT))
_COUNTS = partial(engine._list_of, read=_at_least(0, _INT))
# `figure_params` each driver reads: key -> (conversion, default); a key
# with no default (None) must be given, and no other key is read.
_PARAMS = {
    "fig3c": {"cell": (_INT, 0), "open_time_s": (_FLOAT, 0.0)},
    "fig3e": {"cell": (_INT, 0)},
    "fig3f": {"cell": (_INT, None), "pulse_gate": (str, None), "sweep_gate": (str, None),
              "v_sdp_values": (_FLOATS, None), "pulse_start_s": (_FLOAT, None),
              "settle_fraction": (_FLOAT, 0.5)},
    "fig4b": {"swing": (_FLOAT, 0.1),
              "n_cells": (partial(engine._list_of, read=_at_least(1, _INT)), (1, 2, 3, 4, 5, 6)),
              "f_values": (_FREQS, None)},
    "fig4d": {"swing_values": (_FLOATS, None), "f_values": (_FREQS, None)},
    "fig4e": {"swing": (_FLOAT, 0.1), "n_values": (_COUNTS, None), "f_values": (_FREQS, None)},
}
_MISSING = {
    "device": "figure needs a device section",
    "power": "figure needs a power section",
    "budget": "figure needs power.budget",
    "sweep": "figure needs a sweep block with axis and values",
}


def require_sections(scenario: Scenario, sections) -> None:
    """Raise ScenarioError for the first of `sections` the scenario lacks."""
    for section in sections:
        if getattr(scenario, section) is None:
            raise engine.ScenarioError(_MISSING[section])


def check_sections(scenario: Scenario) -> dict:
    """Reject an unknown figure, one whose driver lacks a section, trace
    kind or `figure_params` key it reads, a `figure_params` key it does not
    read, fig3f's envelope past the row budget and fig4 values that give a
    table value that is not finite; return the `figure_params` the driver
    reads, each converted once to its type and range, with defaults filled in.
    Refuse `figure_params` with no `figure`, and a null `figure`, too."""
    if "figure" not in scenario.raw:
        raise engine.ScenarioError("figure_params: given with no figure")
    if not isinstance(scenario.figure, str) or scenario.figure not in DRIVERS:
        raise engine.ScenarioError(f"unknown figure {scenario.figure!r}")
    require_sections(scenario, _NEEDS.get(scenario.figure, ()))
    for kind in _TRACES.get(scenario.figure, ()):
        if kind not in scenario.traces.kinds:
            raise engine.ScenarioError(f"traces: {scenario.figure} needs kind {kind!r}")
    table = _PARAMS.get(scenario.figure, {})
    unknown = set(scenario.figure_params) - set(table)
    if unknown:
        raise engine.ScenarioError(f"figure_params: unknown key(s) {sorted(unknown)}")
    params = {}
    for key, (convert, default) in table.items():
        if key in scenario.figure_params:
            with engine._section(f"figure_params: {key}"):
                params[key] = convert(scenario.figure_params[key])
        elif default is None:
            raise engine.ScenarioError(f"figure_params: {scenario.figure} needs key {key!r}")
        else:
            params[key] = default
    if "cell" in params and params["cell"] not in scenario.traces.cells:
        raise engine.ScenarioError(f"figure_params: cell {params['cell']} is not in traces.cells")
    # The grid is within `MAX_ROWS`: `build_scenario` counts it before this check.
    if scenario.figure == "fig3c":  # its drift needs two samples after open_time_s
        grid = engine.sample_grid(scenario)
        if len(grid) - np.searchsorted(grid, params["open_time_s"], "right") < 2:
            raise engine.ScenarioError("figure_params: open_time_s leaves fewer than two samples")
    if scenario.figure == "fig3f":  # its envelope needs both gates, a sweep and a settled sample
        for key in ("pulse_gate", "sweep_gate"):
            if params[key] not in scenario.device.levers:
                raise engine.ScenarioError(f"figure_params: {key} {params[key]!r} has no lever arm")
        if not params["v_sdp_values"]:
            raise engine.ScenarioError("figure_params: v_sdp_values must not be empty")
        settle = params["settle_fraction"]
        if not 0 <= settle < 1:
            raise engine.ScenarioError("figure_params: settle_fraction must be in [0, 1)")
        grid = engine.sample_grid(scenario)
        m = len(grid) - int(np.searchsorted(grid, params["pulse_start_s"]))
        if round(settle * m) >= m:
            raise engine.ScenarioError(
                "figure_params: pulse_start_s and settle_fraction leave no sample to compare"
            )
        n = len(params["v_sdp_values"])  # the envelope, n x m values built whole, adds to the run
        engine._check_budget(scenario.rows + n * m, f"figure_params: the envelope of {n} values"
                             f" x {m} samples", scenario.duration_s)
        with engine._section("traces"):  # `envelope_check` reads the tank's samples
            devmod.require_sample_rate(scenario.tank)
    if scenario.figure in ("fig4b", "fig4d", "fig4e"):  # closed form: check what it writes
        run = DRIVERS[scenario.figure](dataclasses.replace(scenario, figure_params=params))
        table = run.tables[scenario.figure]
        for row in table.rows:
            if not all(map(math.isfinite, row)):
                values = ", ".join(map("{}={!r}".format, table.header, row))
                at = f" at swing={params['swing']!r}" if "swing" in params else ""
                raise engine.ScenarioError(f"figure_params: {values}{at} is not finite")
    return params


def check_sweep_values(scenario: Scenario) -> None:
    """Refuse a fig3b or fig3c sweep value that its table cannot write as a finite float."""
    if "sweep" in _NEEDS.get(scenario.figure, ()):
        with engine._section(f"axis {scenario.sweep.axis!r}: {scenario.figure} writes floats"):
            list(map(_FLOAT, scenario.sweep.values))


def run_figure(scenario: Scenario) -> TraceBundle:
    return DRIVERS[scenario.figure](scenario)
