"""Benchmark workloads: the scenario each one feeds the program, and its work counts.

Every workload is a scenario document plus counts of the work it asks
for, worked out in closed form from that document rather than read back
from the program's output, so that a later change to what the program
logs cannot change a throughput denominator:

- ``switch_events``: fast-gate ticks x pulsed cells + lock closes + lock
  opens, which is what ``len(bundle.events)`` holds for a generic run;
- ``dac_moves``: hold-DAC moves that reach the cells (``set_hold`` on
  all 32 of them);
- ``samples``: (floor(duration * rate) + 1) x traced columns, which is
  the row count of the sample tables of a generic run;
- ``runs``: full scenario runs per iteration.

``pulse`` and ``refresh`` are generated from the seed.  Each seed maps to
one of ``VARIANTS`` inputs, so that the reference outputs recorded for
every input (``reference.json`` and ``reference.npz``) cover any seed.
``readout`` and ``sweep`` are bundled figure scenarios, which the seed
does not change.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "clfgsim" / "scenarios"

MASTER_HZ = 35.84e6  # the chip's default master clock, which every workload uses
N_CELLS = 32
VARIANTS = 32

# pulse: the shape of the 6-cell, 140 kHz engine test, 10 ms long.
PULSE_DURATION_S = 0.01
PULSE_DIVIDER = 8
PULSE_CELLS = 6
PULSE_TRACE_HZ = 1e3

# refresh: 32 cells in 120 s round-robin refresh for two hours.
REFRESH_PERIOD_S = 120
REFRESH_DURATION_S = 7200.0
REFRESH_TRACE_HZ = 0.1
REFRESH_Q_INJ = 2e-15
REFRESH_V_HOLD = -1.101

# fig3g.scn pulses cell 5 in three segments, as (start, stop, DIVIDER),
# after locking and releasing that one cell.
FIG3G_SEGMENTS = ((2e-6, 62e-6, 8), (63e-6, 93e-6, 7), (94e-6, 109e-6, 6))

@dataclass(frozen=True)
class Workload:
    name: str
    variant: int
    doc: dict
    switch_events: int
    dac_moves: int
    samples: int
    runs: int

    @property
    def sim_events(self) -> int:
        return self.switch_events + self.dac_moves


def _ticks(seconds: float, divider: int) -> int:
    # Same expression as fsm.playback: floor(duration * f_master / 2**n).
    return math.floor(seconds * (MASTER_HZ / (1 << divider)))


def _n_times(doc: dict) -> int:
    return math.floor(doc["duration_s"] * doc["traces"]["sample_rate_hz"]) + 1


def _write(t: float, register: str, value: int) -> dict:
    return {"t": t, "write": [register, value]}


def _masks(cells) -> tuple[int, int]:
    mask = sum(1 << c for c in cells)
    return mask & 0xFFFF, mask >> 16


def _pattern_bits(rng: random.Random, length: int) -> list[int]:
    """`length` bits (a multiple of 4) with exactly length/2 cyclic level changes.

    A fixed share of level-changing ticks keeps the per-event cost the
    same for every seed, so seeds move the inputs but not the run time.
    """
    flips = set(rng.sample(range(length), length // 2))
    bit = rng.randint(0, 1)
    bits = []
    for i in range(length):
        bits.append(bit)
        if i in flips:
            bit ^= 1
    return bits


def pulse(seed: int) -> Workload:
    variant = seed % VARIANTS
    rng = random.Random(f"pulse/{variant}")
    cells = sorted(rng.sample(range(N_CELLS), PULSE_CELLS))
    length = 4 * rng.randint(4, 32)
    pattern = 0
    for i, bit in enumerate(_pattern_bits(rng, length)):
        pattern |= bit << (127 - i)
    lo, hi = _masks(cells)
    schedule = [_write(0.0, "CTRL", 7), _write(0.0, "DIVIDER", PULSE_DIVIDER)]
    schedule += [
        _write(0.0, f"PATTERN{w}", (pattern >> (16 * (7 - w))) & 0xFFFF) for w in range(8)
    ]
    schedule += [
        _write(0.0, "PATTERN_LEN", length),
        _write(0.0, "PULSE_MASK_LO", lo),
        _write(0.0, "PULSE_MASK_HI", hi),
        {"t": 0.0, "read": "PATTERN_LEN"},
        {"t": 0.0, "read": "PULSE_MASK_LO"},
        {"t": 0.0, "exec": True},
    ]
    doc = {
        "schema_version": 1,
        "name": f"pulse{variant}",
        "rails": {"v_high": 0.05, "v_low": 0.0},
        "power": {
            "fsm_energy_per_cycle": 2e-14,
            "clock_energy_per_cycle": 1e-14,
            "static_floor_w": 1e-9,
            "master_freq_hz": MASTER_HZ,
            "calibration": {
                "base_temperature_k": 0.036,
                "points": [[7.038e-07, 0.096], [5e-06, 0.15]],
            },
        },
        "schedule": schedule,
        "duration_s": PULSE_DURATION_S,
        "traces": {
            "sample_rate_hz": PULSE_TRACE_HZ,
            "kinds": ["power", "temperature", "cells"],
            "cells": cells,
        },
    }
    return Workload(
        name="pulse",
        variant=variant,
        doc=doc,
        switch_events=_ticks(PULSE_DURATION_S, PULSE_DIVIDER) * len(cells),
        dac_moves=0,
        samples=_n_times(doc) * (len(cells) + 2),
        runs=1,
    )


def refresh(seed: int) -> Workload:
    variant = seed % VARIANTS
    rng = random.Random(f"refresh/{variant}")
    targets = {str(c): -1.1 + rng.uniform(-2e-3, 2e-3) for c in range(N_CELLS)}
    doc = {
        "schema_version": 1,
        "name": f"refresh{variant}",
        "analog": {"q_inj": REFRESH_Q_INJ},
        "rails": {"v_hold": REFRESH_V_HOLD},
        "cell_targets": targets,
        "schedule": [
            _write(0.0, "CTRL", 2),
            _write(0.0, "LOCK_MASK_LO", 0xFFFF),
            _write(0.0, "LOCK_MASK_HI", 0xFFFF),
            _write(0.0, "REFRESH_PERIOD", REFRESH_PERIOD_S),
            {"t": 0.0, "read": "REFRESH_PERIOD"},
            {"t": 0.0, "exec": True},
        ],
        "duration_s": REFRESH_DURATION_S,
        "traces": {
            "sample_rate_hz": REFRESH_TRACE_HZ,
            "kinds": ["cells"],
            "cells": list(range(N_CELLS)),
        },
    }
    # Slot j closes at j * slot for every j * slot < duration; each close
    # but the first opens the previous cell, and the last stays closed.
    # Every close moves the DAC to a new cell's compensated target, since
    # the seeded targets differ from each other and from the start value.
    closes = math.ceil(REFRESH_DURATION_S / (REFRESH_PERIOD_S / N_CELLS))
    return Workload(
        name="refresh",
        variant=variant,
        doc=doc,
        switch_events=closes + closes - 1,
        dac_moves=closes,
        samples=_n_times(doc) * N_CELLS,
        runs=1,
    )


def readout(seed: int) -> Workload:
    doc = json.loads((SCENARIOS / "fig3g.scn").read_text(encoding="utf-8"))
    ticks = sum(_ticks(stop - start, n) for start, stop, n in FIG3G_SEGMENTS)
    return Workload(
        name="readout",
        variant=0,
        doc=doc,
        switch_events=ticks + 2,  # one pulsed cell, plus its lock close and open
        dac_moves=0,
        samples=_n_times(doc) * 2,  # the cells trace of cell 5 and the readout
        runs=1,
    )


def sweep(seed: int) -> Workload:
    doc = json.loads((SCENARIOS / "fig3b.scn").read_text(encoding="utf-8"))
    values = doc["sweep"]["values"]
    # Each non-zero LOCK_MASK_LO write is followed by an EXEC into LOCKING
    # and, later, an EXEC that opens the same cells again.
    locks = sum(
        bin(item["write"][1]).count("1")
        for item in doc["schedule"]
        if "write" in item and item["write"][0] == "LOCK_MASK_LO"
    )
    v_hold = doc["rails"]["v_hold"]
    return Workload(
        name="sweep",
        variant=0,
        doc=doc,
        switch_events=len(values) * 2 * locks,
        dac_moves=sum(1 for v in values if v != v_hold),
        samples=len(values) * _n_times(doc),  # one conductance column
        runs=len(values),
    )


BUILDERS = {"pulse": pulse, "readout": readout, "refresh": refresh, "sweep": sweep}
NAMES = tuple(BUILDERS)


def make(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
