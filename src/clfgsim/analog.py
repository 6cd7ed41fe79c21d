"""Physics of one charge-lock fast-gate cell.

The output node sees two capacitors: `c_pulse` down to the switched
bottom plate and the parasitic `c_p` (bond pad, bond wire, gate
interconnect) to ground.  Closing the lock switch pins the node to the
external hold rail; opening it leaves the charge floating, after which
the node drifts (exponential leak toward 0 V at rate `leak_rate`), picks
up a fixed injection offset `q_inj / (c_p + c_pulse)` at the moment the
lock opens, and couples to later hold-rail moves through the lock
switch's source-drain parasitic `c_ds`.

Toggling the bottom plate between the two supply rails moves the output
by

    dv_pulse = c_pulse / (c_p + c_pulse) * (v_high - v_low)

with a first-order transient of time constant

    tau = r_switch * c_pulse * c_p / (c_pulse + c_p)

All operations are pure: they take a cell value and return a new one.
The element values live in a `CellParams` that every state of a cell
shares, so an event copies only the few state fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .errors import SimulationError

# Leak-rate presets.  Published figures for this class of hardware quote
# both "one part in 1e7 per second" and "tens of microvolts per hour";
# at volt-scale holds those differ by roughly 10x, so both are kept as
# named presets instead of being averaged.  The slower value is the
# package default.
LEAK_RATE_TENS_OF_MICROVOLTS_PER_HOUR = 1e-8
LEAK_RATE_PART_IN_1E7_PER_SECOND = 1e-7


class Level(IntEnum):
    """Drive level of the fast-gate switch (bottom plate of c_pulse)."""

    LOW = 0
    HIGH = 1


class AlreadyUnlocked(SimulationError):
    pass


class LockClosed(SimulationError):
    pass


@dataclass(frozen=True)
class SupplyRails:
    """External voltage sources: the two pulse rails and the hold DAC."""

    v_high: float = 0.1
    v_low: float = -0.1
    v_hold: float = 0.0

    def __post_init__(self) -> None:
        if self.v_high < self.v_low:
            raise ValueError("v_high must be >= v_low")

    @property
    def swing(self) -> float:
        return self.v_high - self.v_low


@dataclass(frozen=True)
class CellParams:
    """Fixed element values of one cell, checked once when built."""

    c_pulse: float = 1e-12
    c_p: float = 1e-12
    c_ds: float = 10e-15
    r_switch: float = 2e3
    leak_rate: float = LEAK_RATE_TENS_OF_MICROVOLTS_PER_HOUR
    q_inj: float = 2e-15

    def __post_init__(self) -> None:
        if self.c_pulse <= 0 or self.c_p <= 0:
            raise ValueError("c_pulse and c_p must be positive")
        if self.c_ds < 0:
            raise ValueError("c_ds must be non-negative")
        if self.r_switch <= 0:
            raise ValueError("r_switch must be positive")
        if self.leak_rate < 0:
            raise ValueError("leak_rate must be non-negative")


@dataclass(frozen=True)
class ClfgCell:
    """Evolving analog state of one cell, with its element values by reference.

    `v_base` is the asymptotic floating voltage (lock value plus injection
    plus coupling, decayed by leakage); `v_target` additionally carries the
    pulse contribution of the current fast-gate level relative to `fg_ref`,
    the level the charge was referenced to when the lock last opened.
    `v_start` is the instantaneous output at `t_last`, from which any
    pending RC transient relaxes toward `v_target`.
    """

    params: CellParams = CellParams()
    lock_closed: bool = False
    fg_level: Level = Level.LOW
    fg_ref: Level = Level.LOW
    v_hold_seen: float = 0.0
    v_base: float = 0.0
    v_start: float = 0.0
    v_target: float = 0.0
    t_last: float = 0.0


def series_capacitance(p: CellParams) -> float:
    """Series combination c_pulse*c_p/(c_pulse+c_p) seen by the switch."""
    return p.c_pulse * p.c_p / (p.c_pulse + p.c_p)


def time_constant(p: CellParams) -> float:
    """RC time constant of a fast-gate transition."""
    return p.r_switch * series_capacitance(p)


def injection_offset(p: CellParams) -> float:
    """Voltage step left on the node when the lock switch opens."""
    return p.q_inj / (p.c_p + p.c_pulse)


def coupling_ratio(p: CellParams) -> float:
    """Fraction of a hold-rail move that reaches a floating output."""
    return p.c_ds / (p.c_ds + p.c_pulse + p.c_p)


def pulse_amplitude(p: CellParams, rails: SupplyRails) -> float:
    """Output step when the bottom plate toggles between the rails."""
    return p.c_pulse / (p.c_p + p.c_pulse) * rails.swing


def lock(cell: ClfgCell, v_hold: float) -> ClfgCell:
    """Close the lock switch: the output is pinned to the hold rail at `v_hold`.

    Idempotent; any pending transient is discarded because the rail now
    drives the node directly.
    """
    return replace(
        cell,
        lock_closed=True,
        v_hold_seen=v_hold,
        v_base=v_hold,
        v_start=v_hold,
        v_target=v_hold,
    )


def unlock(cell: ClfgCell) -> ClfgCell:
    """Open the lock switch, leaving the charge floating.

    The channel charge of the opening switch lands on the node, offsetting
    the held voltage by `q_inj / (c_p + c_pulse)`.  The current fast-gate
    level becomes the reference level for later pulses.
    """
    if not cell.lock_closed:
        raise AlreadyUnlocked("lock switch is already open")
    v = cell.v_hold_seen + injection_offset(cell.params)
    return replace(
        cell,
        lock_closed=False,
        fg_ref=cell.fg_level,
        v_base=v,
        v_start=v,
        v_target=v,
    )


def couple_hold(cell: ClfgCell, dv_hold: float) -> ClfgCell:
    """Capacitive feedthrough of a hold-rail move onto a floating output.

    Exactly linear, so a closed loop in the hold voltage returns the
    output to its starting value (to machine precision).
    """
    if cell.lock_closed:
        raise LockClosed("output tracks the hold rail directly while locked")
    dv = coupling_ratio(cell.params) * dv_hold
    return replace(
        cell,
        v_hold_seen=cell.v_hold_seen + dv_hold,
        v_base=cell.v_base + dv,
        v_start=cell.v_start + dv,
        v_target=cell.v_target + dv,
    )


def set_hold(cell: ClfgCell, v_hold: float) -> ClfgCell:
    """Move the hold rail: locked cells track it, floating cells couple."""
    if cell.lock_closed:
        return replace(
            cell, v_hold_seen=v_hold, v_base=v_hold, v_start=v_hold, v_target=v_hold
        )
    return couple_hold(cell, v_hold - cell.v_hold_seen)


def leak(cell: ClfgCell, dt: float) -> ClfgCell:
    """Advance a floating cell by `dt`: leakage decay plus RC relaxation.

    The held voltage relaxes exponentially toward 0 V at `leak_rate`, so
    the drift rate is proportional to the held voltage.  Composes as a
    semigroup: leak(t1) then leak(t2) equals leak(t1+t2).  No-op while the
    lock switch pins the node (only the local clock advances).
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    return settle(cell, cell.t_last + dt)


def settle(cell: ClfgCell, t: float) -> ClfgCell:
    """Advance the cell's internal time to `t` (t >= t_last)."""
    dt = t - cell.t_last
    if dt < 0:
        raise ValueError(f"time {t} precedes last event at {cell.t_last}")
    if cell.lock_closed or dt == 0.0:
        return replace(cell, t_last=t)
    rc = math.exp(-dt / time_constant(cell.params))
    decay = math.exp(-cell.params.leak_rate * dt)
    v_inst = cell.v_target + (cell.v_start - cell.v_target) * rc
    return replace(
        cell,
        v_base=cell.v_base * decay,
        v_target=cell.v_target * decay,
        v_start=v_inst * decay,
        t_last=t,
    )


def apply_fg(cell: ClfgCell, level: Level, t: float, rails: SupplyRails) -> ClfgCell:
    """Drive the fast-gate switch to `level` at time `t`.

    On a floating cell the asymptotic output steps by +/- the pulse
    amplitude and relaxes there with the cell's RC time constant.  The
    pulse contribution is recomputed from (level - fg_ref) on every edge,
    never accumulated, so a full HIGH/LOW cycle returns the target to the
    baseline exactly.  While locked the level is recorded but the output
    stays pinned.
    """
    if cell.lock_closed:
        return replace(cell, fg_level=level)
    cell = settle(cell, t)
    if level == cell.fg_level:
        return cell
    pulse = pulse_amplitude(cell.params, rails) * (int(level) - int(cell.fg_ref))
    return replace(cell, fg_level=level, v_target=cell.v_base + pulse)


def output_voltage(cell: ClfgCell, t: float) -> float:
    """Output voltage at time `t >= t_last`; read-only."""
    if cell.lock_closed:
        return cell.v_hold_seen
    dt = t - cell.t_last
    if dt < 0:
        raise ValueError(f"sample time {t} precedes last event at {cell.t_last}")
    rc = math.exp(-dt / time_constant(cell.params))
    decay = math.exp(-cell.params.leak_rate * dt)
    return (cell.v_target + (cell.v_start - cell.v_target) * rc) * decay


def sample_output(cell: ClfgCell, times: np.ndarray) -> np.ndarray:
    """Vectorized :func:`output_voltage` over an array of sample times."""
    times = np.asarray(times, dtype=float)
    if cell.lock_closed:
        return np.full(times.shape, cell.v_hold_seen)
    dt = times - cell.t_last
    if np.any(dt < 0):
        raise ValueError("sample times precede the cell's last event")
    rc = np.exp(-dt / time_constant(cell.params))
    decay = np.exp(-cell.params.leak_rate * dt)
    return (cell.v_target + (cell.v_start - cell.v_target) * rc) * decay
