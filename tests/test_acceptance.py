"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see
them) and enforces its stated tolerance and runtime budget.
"""
import math
import time

import numpy as np
import pytest

from clfgsim import analog, cli, device, engine, fsm, protocol, thermal
from clfgsim.errors import SimulationError

from conftest import encode_frame


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f" ({detail})" if detail else ""))


def test_01_pulse_amplitude_matches_charge_redistribution_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240601)
    n = 10_000
    c_pulse = rng.uniform(0.1e-12, 10e-12, n)
    c_p = rng.uniform(0.1e-12, 10e-12, n)
    v_low = rng.uniform(-1.0, 1.0, n)
    v_high = v_low + rng.uniform(0.01, 2.0, n)
    v0 = rng.uniform(-2.0, 2.0, n)

    # Oracle: conservation of charge on the floating output node, written
    # as a batched 2x2 linear solve in (v_after, node_charge).
    a = np.zeros((n, 2, 2))
    a[:, 0, 0] = c_pulse + c_p
    a[:, 0, 1] = -1.0
    a[:, 1, 1] = 1.0
    b = np.stack([c_pulse * v_high, c_pulse * (v0 - v_low) + c_p * v0], axis=1)
    v_after = np.linalg.solve(a, b[:, :, None])[:, 0, 0]
    oracle_dv = v_after - v0

    model_dv = np.array([
        analog.pulse_amplitude(
            analog.CellParams(c_pulse=c_pulse[i], c_p=c_p[i]),
            analog.SupplyRails(v_high=v_high[i], v_low=v_low[i]),
        )
        for i in range(n)
    ])
    rel = np.abs(oracle_dv - model_dv) / np.abs(model_dv)
    elapsed = time.perf_counter() - t0
    ok = bool(rel.max() <= 1e-12 and elapsed < 1.0)
    report(1, "pulse-amplitude oracle", ok,
           f"max rel err {rel.max():.2e}, {elapsed:.2f}s over {n} draws")
    assert rel.max() <= 1e-12
    assert elapsed < 1.0


def test_02_pulse_power_matches_integrated_dissipation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240602)
    worst = 0.0
    for _ in range(100):
        c_pulse = rng.uniform(0.2e-12, 5e-12)
        c_p = rng.uniform(0.2e-12, 5e-12)
        r = rng.uniform(0.5e3, 10e3)
        swing = rng.uniform(0.05, 0.5)
        f = rng.uniform(1e5, 1e7)
        params = analog.CellParams(c_pulse=c_pulse, c_p=c_p, r_switch=r,
                                   leak_rate=0.0, q_inj=0.0)
        cell = analog.unlock(analog.lock(analog.ClfgCell(params), 0.0, 0.0), 0.0)
        rails = analog.SupplyRails(v_high=swing, v_low=0.0)
        tau = analog.time_constant(params)
        dt = tau / 1000.0
        half = 20_000  # 20 tau per half cycle
        energy = 0.0
        t_edge = 0.0
        for level in (analog.Level.HIGH, analog.Level.LOW):
            cell = analog.apply_fg(cell, level, t_edge, rails)
            times = t_edge + np.arange(half + 1) * dt
            v = analog.sample_output(
                cell.params, [analog.output_fields(cell)] * len(times), times
            )
            current = c_p * np.gradient(v, dt)  # all switch current flows into c_p
            energy += np.trapezoid(current * current * r, dx=dt)
            t_edge = times[-1]
        closed_form = thermal.pulse_power(params, swing, f)
        worst = max(worst, abs(energy * f / closed_form - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-3 and elapsed < 10.0
    report(2, "power-equation consistency", ok,
           f"worst rel err {worst:.2e}, {elapsed:.2f}s over 100 configs")
    assert worst <= 5e-3
    assert elapsed < 10.0


def test_03_default_cell_cost_brackets_measured_coefficient():
    watts = thermal.pulse_power(analog.CellParams(c_pulse=1e-12, c_p=1e-12), 0.2, 1e6)
    nw_per_mhz = watts / 1e6 * 1e15  # W at 1 MHz -> nW/MHz
    ok = 18.0 <= nw_per_mhz <= 22.0 and abs(nw_per_mhz - 18.0) / 18.0 <= 0.25
    report(3, "per-cell cost vs measured 18 nW/MHz", ok,
           f"model {nw_per_mhz:.1f} nW/MHz/cell")
    assert 18.0 <= nw_per_mhz <= 22.0
    assert abs(nw_per_mhz - 18.0) / 18.0 <= 0.25


def test_04_quadratic_amplitude_law_exact():
    rng = np.random.default_rng(20240604)
    ok = True
    for _ in range(2000):
        c1 = rng.uniform(0.1e-12, 10e-12)
        c2 = rng.uniform(0.1e-12, 10e-12)
        s = rng.uniform(1e-6, 5.0)
        f = rng.uniform(1.0, 1e8)
        cell = analog.CellParams(c_pulse=c1, c_p=c2)
        if thermal.pulse_power(cell, 2 * s, f) != 4.0 * thermal.pulse_power(cell, s, f):
            ok = False
            break
    report(4, "quadratic amplitude law (exact)", ok, "2000 random draws")
    assert ok


def test_05_envelope_reproduction():
    t0 = time.perf_counter()
    scenario = engine.load_scenario(cli.bundled_scenario_path("fig3f"))
    bundle = engine.run_scenario(scenario)
    deviation = bundle.summary["max_rel_deviation"]
    elapsed = time.perf_counter() - t0
    ok = deviation < 0.01 and elapsed < 5.0
    report(5, "pulsed envelope vs static sweeps", ok,
           f"max deviation {deviation:.2%} over {bundle.summary['n_points']} "
           f"points, {elapsed:.2f}s")
    assert deviation < 0.01
    assert elapsed < 5.0


def test_06_leakage_benchmark_and_flank_recovery():
    lam = 1e-8
    # Hour-long hold at -1.1 V through the full engine path.
    raw = {
        "schema_version": 1,
        "name": "leak-hour",
        "analog": {"q_inj": 0.0, "leak_rate": lam},
        "rails": {"v_hold": -1.1},
        "schedule": [
            {"t": 0.0, "write": ["CTRL", 2]},
            {"t": 0.0, "write": ["LOCK_MASK_LO", 32]},
            {"t": 0.0, "exec": True},
            {"t": 1.0, "write": ["LOCK_MASK_LO", 0]},
            {"t": 1.0, "exec": True},
        ],
        "duration_s": 3661.0,
        "traces": {"sample_rate_hz": 1.0 / 60.0, "kinds": ["cells"], "cells": [5]},
    }
    bundle = engine.run_generic(engine.build_scenario(raw))
    pairs = [(t, v) for t, c, v in bundle.tables["cells"].rows if t > 1.0]
    (t_a, v_a) = pairs[0]
    (t_b, v_b) = next((t, v) for t, v in pairs if t >= t_a + 3600.0)
    drift = v_b - v_a
    drift_ok = abs(drift - 39.6e-6) <= 0.1e-6

    # Flank-slope recovery of the programmed rate through the dot oracle.
    dot = device.DotDevice(levers={"lw": 1.0}, v_offset=1.1003)
    cell = analog.ClfgCell(analog.CellParams(q_inj=0.0, leak_rate=lam))
    cell = analog.unlock(analog.lock(cell, -1.1, cell.t_last), cell.t_last)
    times = np.arange(0.0, 201.0, 1.0)
    v = analog.sample_output(cell.params, [analog.output_fields(cell)] * len(times), times)
    g = np.asarray(device.conductance(dot, {"lw": v}))
    # Flank slope: the fitted dG/dt over dG/dV probed at the -1.1 V bias.
    probe_dv = 1e-6
    slope = np.polyfit(times, g, 1)[0]
    dg_dv = (device.conductance(dot, {"lw": -1.1 + probe_dv})
             - device.conductance(dot, {"lw": -1.1 - probe_dv})) / (2.0 * probe_dv)
    drift_rate = float(slope / dg_dv)
    lam_rec = drift_rate / 1.1
    lam_ok = abs(lam_rec - lam) / lam <= 0.05

    ok = drift_ok and lam_ok
    report(6, "leakage drift and flank-slope recovery", ok,
           f"drift {drift * 1e6:.3f} uV/hr, recovered rate {lam_rec:.3e}/s")
    assert drift_ok, f"drift {drift * 1e6:.4f} uV not within 39.6 +/- 0.1 uV"
    assert lam_ok


def _refresh_scenario(
    q_inj: float, v_hold: float, period: int = 120, duration: float = 7200.0,
    rate: float = 0.1,
) -> dict:
    """32 cells refreshed round robin onto -1.1 V every `period` seconds."""
    return {
        "schema_version": 1,
        "name": "refresh",
        "analog": {"q_inj": q_inj},
        "rails": {"v_hold": v_hold},
        "cell_targets": {str(i): -1.1 for i in range(32)},
        "schedule": [
            {"t": 0.0, "write": ["CTRL", 2]},
            {"t": 0.0, "write": ["LOCK_MASK_LO", 0xFFFF]},
            {"t": 0.0, "write": ["LOCK_MASK_HI", 0xFFFF]},
            {"t": 0.0, "write": ["REFRESH_PERIOD", period]},
            {"t": 0.0, "exec": True},
        ],
        "duration_s": duration,
        "traces": {"sample_rate_hz": rate, "kinds": ["cells"],
                   "cells": list(range(32))},
    }


def _closed_intervals(bundle):
    """Each cell's (close, open) lock intervals, from the `events` table's rows."""
    opened_at: dict[int, float] = {}
    intervals: dict[int, list[tuple[float, float]]] = {i: [] for i in range(32)}
    for t, cell, action, _level in bundle.tables["events"].rows:
        if action == "CLOSE":
            opened_at[cell] = t
        elif action == "OPEN":
            intervals[cell].append((opened_at.pop(cell), t))
    for cell, t in opened_at.items():
        intervals[cell].append((t, math.inf))
    return intervals


def _worst_floating_error(bundle, t_from: float, target: float) -> float:
    """Largest |v - target| of a cell while floating, from `t_from` on."""
    intervals = _closed_intervals(bundle)
    worst = 0.0
    for t, c, v in bundle.tables["cells"].rows:
        if t < t_from or any(a <= t < b for a, b in intervals[c]):
            continue
        worst = max(worst, abs(v - target))
    return worst


def test_07_round_robin_refresh_holds_cells_on_target():
    t0 = time.perf_counter()
    target = -1.1

    # Injection compensated in software: the held (floating) intervals sit
    # on target; each cell is parked at the compensated DAC value only
    # during its own 3.75 s refresh slot.
    bundle = engine.run_generic(engine.build_scenario(_refresh_scenario(2e-15, -1.101)))
    intervals = _closed_intervals(bundle)
    flat = sorted(iv for per_cell in intervals.values() for iv in per_cell)
    no_overlap = all(b2 >= a1 for (_, a1), (b2, _) in zip(flat, flat[1:]))
    worst = _worst_floating_error(bundle, 120.0, target)

    # With zero injection charge the bound holds at every instant,
    # refresh slots included.
    bundle0 = engine.run_generic(engine.build_scenario(_refresh_scenario(0.0, -1.1)))
    worst_all = max(
        abs(v - target) for t, c, v in bundle0.tables["cells"].rows if t >= 120.0
    )

    first_pass = [c for t, c, action, _ in bundle.tables["events"].rows
                  if action == "CLOSE" and t < 120.0]
    fair = sorted(first_pass) == list(range(32)) and len(first_pass) == 32

    # Slower refresh: two passes at each period; once every cell has been
    # refreshed, the floating error stays within the leak over one period.
    lam = analog.CellParams().leak_rate
    period_ok = True
    for period in (60, 120, 600):
        raw = _refresh_scenario(2e-15, -1.101, period, 2.0 * period, max(0.1, 64.0 / period))
        run = engine.run_generic(engine.build_scenario(raw))
        worst_p = _worst_floating_error(run, float(period), target)
        period_ok = period_ok and worst_p <= 1.1 * lam * period

    elapsed = time.perf_counter() - t0
    ok = (worst <= 5e-6 and worst_all <= 5e-6 and no_overlap and fair and period_ok
          and elapsed < 5.0)
    report(7, "round-robin refresh efficacy", ok,
           f"worst held error {worst * 1e6:.2f} uV over 2 h, {elapsed:.2f}s")
    assert no_overlap and fair
    assert worst <= 5e-6
    assert worst_all <= 5e-6
    assert period_ok, "floating error above 1.1 V x leak_rate x period"
    assert elapsed < 5.0


def test_08_temperature_calibration_reproduces_anchor():
    cell = analog.CellParams(c_pulse=3.6e-12, c_p=3.6e-12)
    model = thermal.PowerModel(fsm_energy_per_cycle=2e-14, clock_energy_per_cycle=1e-14)
    # Full-chip benchmark point: 6 cells pulsing 0.1 V at 5.1 MHz.
    p_51 = thermal.total_power(6, 5.1e6, 0.1, cell, model)
    cal = thermal.ThermalCalibration(
        points=((p_51, 0.096), (5e-6, 0.15), (5e-5, 0.25)),
        base_temperature_k=0.036,
    )
    anchor_ok = thermal.temperature(p_51, cal) == 0.096
    base_ok = thermal.temperature(0.0, cal) == 0.036
    knots_ok = all(thermal.temperature(p, cal) == t for p, t in cal.points)
    grid = np.linspace(0.0, 1e-4, 2001)
    temps = [thermal.temperature(p, cal) for p in grid]
    monotone = all(b >= a for a, b in zip(temps, temps[1:]))
    ok = anchor_ok and base_ok and knots_ok and monotone
    report(8, "thermal calibration anchor", ok,
           f"5.1 MHz point {p_51 * 1e9:.1f} nW -> 96 mK, base 36 mK")
    assert anchor_ok and base_ok and knots_ok and monotone


def test_09_feasibility_projection():
    # The measured 18 nW/MHz per cell at 0.1 V is a 1.8 pF series
    # capacitance, split as two equal capacitors.
    c_series = 18e-15 / 0.1**2
    cell = analog.CellParams(c_pulse=2.0 * c_series, c_p=2.0 * c_series)
    model = thermal.PowerModel(fsm_energy_per_cycle=2e-14, clock_energy_per_cycle=1e-14)
    budget = thermal.CoolingBudget(budget_watts_at_100mk=400e-6)
    result = thermal.feasible(1000, 1e6, 0.1, cell, model, budget)
    point_ok = result.feasible and result.headroom_watts >= 350e-6

    ns = [1, 10, 100, 1000, 5000, 50000]
    fs = [1e5, 5e5, 1e6, 5e6, 1e7]
    grid = {(n, f): thermal.feasible(n, f, 0.1, cell, model, budget).feasible
            for n in ns for f in fs}
    monotone = all(
        grid[(n2, f2)]
        for (n, f), feas in grid.items() if feas
        for n2 in ns if n2 <= n
        for f2 in fs if f2 <= f
    )
    ok = point_ok and monotone
    report(9, "cooling-budget feasibility", ok,
           f"1000 gates @ 1 MHz: {result.total_watts * 1e6:.2f} uW, "
           f"headroom {result.headroom_watts * 1e6:.0f} uW")
    assert point_ok
    assert monotone


def test_10_protocol_fuzz():
    rng = np.random.default_rng(20240610)
    n = 100_000
    opcodes = rng.integers(0, 4, n)
    addresses = rng.integers(0, 256, n)
    data = rng.integers(0, 65536, n)
    ok = True
    for i in range(n):
        frame = protocol.Frame(int(opcodes[i]), int(addresses[i]), int(data[i]))
        if protocol.decode_frame(encode_frame(frame)) != frame:
            ok = False
            break

    # Invalid opcodes are rejected before they can touch any state.
    state = fsm.ChipState()
    bad_words = (rng.integers(4, 256, 10_000) << 24) | rng.integers(0, 1 << 24, 10_000)
    rejected = 0
    for word in bad_words:
        try:
            protocol.decode_frame(int(word))
        except SimulationError as exc:
            rejected += str(exc) == f"unknown opcode 0x{int(word) >> 24:02x}"
    untouched = state == fsm.ChipState()

    # A decodable frame with a bad address is rejected without side effects.
    regs_before = state.regs
    with pytest.raises(SimulationError, match=r"^no register at address 0x99$"):
        fsm.step(state, protocol.Frame(protocol.Opcode.WRITE, 0x99, 1))
    untouched = untouched and state.regs == regs_before

    ok = ok and rejected == len(bad_words) and untouched
    report(10, "protocol fuzz round-trip", ok,
           f"{n} frames round-tripped, {rejected} bad opcodes rejected")
    assert ok


def test_11_bundled_scenarios_are_deterministic(tmp_path):
    import contextlib
    import io

    identical = True
    for name in cli.BUNDLED:
        path = str(cli.bundled_scenario_path(name))
        dir_a = tmp_path / f"{name}_a"
        dir_b = tmp_path / f"{name}_b"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", path, "--out", str(dir_a)]) == 0
            assert cli.main(["run", path, "--out", str(dir_b)]) == 0
        files_a = sorted(p for p in dir_a.iterdir())
        files_b = sorted(p for p in dir_b.iterdir())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for fa, fb in zip(files_a, files_b):
            if fa.read_bytes() != fb.read_bytes():
                identical = False
    report(11, "byte-identical reruns", identical,
           f"{len(cli.BUNDLED)} bundled scenarios")
    assert identical
