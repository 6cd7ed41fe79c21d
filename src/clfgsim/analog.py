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
A cell state is a plain tuple of the nine fields of `ClfgCell`, in that
order.  Each transition unpacks it once and returns the next state as a
tuple display in its own frame, with no call to another transition (the
hold-rail fan-out runs `set_hold` on all 32 cells at each move); a
`ClfgCell`, itself such a tuple, builds a first state by keyword and
names the fields of any state (`ClfgCell._make(state)`).  The element
values live in a `CellParams` that every state of a cell shares by
reference, so an event copies only the few state fields; it also holds
their `coupling_ratio`, computed once when built, as `coupling`, which
`set_hold` reads and `couple_hold`, its oracle, recomputes.
`apply_fg_run` applies a whole playback run in one step;
`settle` and `apply_fg`, one edge at a time, are its test oracle.  Its RC
transient is `one_pole`, the first-order recurrence the tank readout in
`device` filters with too.  `lock` and `unlock` set the clock to their own
time, with `settle` before them as their oracle.  Likewise `sample_output`
reads many states (as their `output_fields`) at many times in one array
step, and `output_voltage`, one state at one time, is its oracle.  Unlocking
an open switch or coupling into a locked cell raises a SimulationError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import SimulationError

# The default leak rate.  Published figures for this class of hardware
# quote both "one part in 1e7 per second" and "tens of microvolts per hour",
# about 10x apart at volt-scale holds; the default is the slower of the two.
LEAK_RATE_TENS_OF_MICROVOLTS_PER_HOUR = 1e-8


class Level(IntEnum):
    """Drive level of the fast-gate switch (bottom plate of c_pulse)."""

    LOW = 0
    HIGH = 1


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
        # Not a field: ==, hash, repr and a document's keys stay the six above.
        object.__setattr__(self, "coupling", coupling_ratio(self))


def coupling_ratio(p: CellParams) -> float:
    """Fraction of a hold-rail move that reaches a floating output."""
    return p.c_ds / (p.c_ds + p.c_pulse + p.c_p)


class ClfgCell(NamedTuple):
    """Names and order of the fields of a cell state (one cell's evolving analog
    values, and its element values by reference), the plain tuple each transition
    returns: it builds a first state by keyword and names any state's by `_make`.

    `v_base` is the asymptotic floating voltage (lock value plus injection
    plus coupling, decayed by leakage); `v_target` additionally carries the
    pulse contribution of the current fast-gate level relative to `fg_ref`,
    the level the charge was referenced to when the lock last opened.
    `v_start` is the instantaneous output at `t_last`, from which any
    pending RC transient relaxes toward `v_target`.  Every transition
    builds its state positionally, so each relies on this field order.
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


def pulse_amplitude(p: CellParams, rails: SupplyRails) -> float:
    """Output step when the bottom plate toggles between the rails."""
    return p.c_pulse / (p.c_p + p.c_pulse) * rails.swing


def lock(cell: tuple, v_hold: float, t: float) -> tuple:
    """Close the lock switch at time `t >= t_last`: the output is pinned to
    the hold rail at `v_hold`.  Idempotent; any pending transient and leak
    is discarded because the rail now drives the node directly, so this
    is `settle(cell, t)` then the close, its test oracle, in one step."""
    params, _, fg_level, fg_ref, _, _, _, _, t_last = cell
    if t - t_last < 0:
        raise ValueError(f"time {t} precedes last event at {t_last}")
    return (params, True, fg_level, fg_ref, v_hold, v_hold, v_hold, v_hold, t)


def unlock(cell: tuple, t: float) -> tuple:
    """Open the lock switch at time `t >= t_last`, leaving the charge floating:
    `settle(cell, t)`, which only moves a locked cell's clock, then the open.

    The channel charge of the opening switch lands on the node, offsetting
    the held voltage by `q_inj / (c_p + c_pulse)`.  The current fast-gate
    level becomes the reference level for later pulses.
    """
    params, locked, fg_level, _, v_hold_seen, _, _, _, t_last = cell
    if t - t_last < 0:
        raise ValueError(f"time {t} precedes last event at {t_last}")
    if not locked:
        raise SimulationError("lock switch is already open")
    v = v_hold_seen + injection_offset(params)
    return (params, False, fg_level, fg_level, v_hold_seen, v, v, v, t)


def couple_hold(cell: tuple, dv_hold: float) -> tuple:
    """Capacitive feedthrough of a hold-rail move onto a floating output.

    Exactly linear, so a closed loop in the hold voltage returns the
    output to its starting value (to machine precision).  The oracle of
    `set_hold` on a floating cell, which computes it in its own frame.
    """
    params, locked, fg_level, fg_ref, v_hold_seen, v_base, v_start, v_target, t_last = cell
    if locked:
        raise SimulationError("output tracks the hold rail directly while locked")
    dv = coupling_ratio(params) * dv_hold
    return (params, locked, fg_level, fg_ref, v_hold_seen + dv_hold,
            v_base + dv, v_start + dv, v_target + dv, t_last)


def set_hold(cell: tuple, v_hold: float) -> tuple:
    """Move the hold rail: locked cells track it, floating cells couple."""
    params, locked, fg_level, fg_ref, v_hold_seen, v_base, v_start, v_target, t_last = cell
    if locked:
        return (params, locked, fg_level, fg_ref, v_hold, v_hold, v_hold, v_hold, t_last)
    dv_hold = v_hold - v_hold_seen
    dv = params.coupling * dv_hold
    return (params, locked, fg_level, fg_ref, v_hold_seen + dv_hold,
            v_base + dv, v_start + dv, v_target + dv, t_last)


def settle(cell: tuple, t: float) -> tuple:
    """Advance the cell's internal time to `t` (t >= t_last): a floating
    output leaks toward 0 V at `leak_rate` (a semigroup in t) and relaxes
    any RC transient; a locked one only advances its clock."""
    params, locked, fg_level, fg_ref, v_hold_seen, v_base, v_start, v_target, t_last = cell
    if (dt := t - t_last) < 0:
        raise ValueError(f"time {t} precedes last event at {t_last}")
    if not (locked or dt == 0.0):
        rc = math.exp(-dt / time_constant(params))
        decay = math.exp(-params.leak_rate * dt)
        v_inst = v_target + (v_start - v_target) * rc
        v_base, v_start, v_target = v_base * decay, v_inst * decay, v_target * decay
    return (params, locked, fg_level, fg_ref, v_hold_seen, v_base, v_start, v_target, t)


def apply_fg(cell: tuple, level: Level, t: float, rails: SupplyRails) -> tuple:
    """Drive the fast-gate switch to `level` at time `t`.

    A floating cell is settled to `t`, as `settle` does; its asymptotic
    output then steps by +/- the pulse amplitude and relaxes there with
    the cell's RC time constant.  The pulse contribution is recomputed
    from (level - fg_ref) on every edge, never accumulated, so a full
    HIGH/LOW cycle returns the target to the baseline exactly.  While
    locked the level is recorded but the output stays pinned.
    """
    params, locked, fg_level, fg_ref, v_hold_seen, v_base, v_start, v_target, t_last = cell
    if locked:
        fg_level = level
    else:
        if (dt := t - t_last) < 0:
            raise ValueError(f"time {t} precedes last event at {t_last}")
        if dt != 0.0:
            rc = math.exp(-dt / time_constant(params))
            decay = math.exp(-params.leak_rate * dt)
            v_inst = v_target + (v_start - v_target) * rc
            v_base, v_start, v_target = v_base * decay, v_inst * decay, v_target * decay
        t_last = t
        if level != fg_level:
            fg_level = level
            v_target = v_base + pulse_amplitude(params, rails) * (int(level) - int(fg_ref))
    return (params, locked, fg_level, fg_ref, v_hold_seen, v_base, v_start, v_target, t_last)


def apply_fg_run(
    cell: tuple,
    times: np.ndarray,
    levels: np.ndarray,
    period_s: float,
    rails: SupplyRails,
) -> tuple:
    """Drive the fast-gate switch to `levels[k]` (0 LOW, 1 HIGH) at `times[k]`.

    The result is that of `settle` and `apply_fg` edge by edge.  The
    first edge goes through `apply_fg`; the later ones are `period_s`
    apart (the nominal tick period, not differences of the rounded
    times).  Between them a floating cell is a first-order linear
    recurrence with a = exp(-T/tau) and d = exp(-leak_rate*T):

    - `v_base` decays by d per tick;
    - `v_target` is set by the last level change and decays by d from
      there (a repeated level moves nothing);
    - `v_start[k] = a*d*v_start[k-1] + (1-a)*d*v_target[k-1]`, one
      `one_pole` call.

    A locked cell only records the last level.
    """
    params, locked, _, fg_ref, v_hold_seen, v_base, v_start, v_target, _ = cell
    if locked:
        return (params, locked, Level(int(levels[-1])), fg_ref, v_hold_seen,
                v_base, v_start, v_target, float(times[-1]))
    cell = apply_fg(cell, Level(int(levels[0])), float(times[0]), rails)
    if len(times) == 1:
        return cell
    _, _, _, _, _, v_base, v_start, v_target, _ = cell
    a = math.exp(-period_s / time_constant(params))
    d = math.exp(-params.leak_rate * period_s)
    k = np.arange(1, len(times))
    changed = levels[1:] != levels[:-1]
    base = v_base * d**k
    # Target at each level change, with index 0 standing for the first edge.
    anchors = np.concatenate((
        [v_target],
        base + pulse_amplitude(params, rails) * (levels[1:] - float(fg_ref)),
    ))
    last = np.maximum.accumulate(np.where(changed, k, 0))
    target = anchors[last] * d ** (k - last)
    previous = np.concatenate(([v_target], target[:-1]))
    start = one_pole((1.0 - a) * d, a * d, previous, a * d * v_start)
    return (params, locked, Level(int(levels[-1])), fg_ref, v_hold_seen,
            float(base[-1]), float(start[-1]), float(target[-1]), float(times[-1]))


def one_pole(b0: float, c: float, x, z0: float) -> np.ndarray:
    """The first-order recurrence y[n] = z + b0*x[n], then z = 0*x[n] + c*y[n],
    over the 1-D `x`, from z = `z0`.

    These are the operations of `scipy.signal.lfilter([b0], [1, -c], x,
    zi=[z0])` in its transposed form and order, whose second tap is 0: the
    `0*x[n]` term only gives a zero z the sign lfilter gives it.  So the
    result has lfilter's bits, which the tests check.  `x` is looped over
    as Python floats, which is about 10x faster than over numpy scalars.
    """
    z, out = float(z0), []
    for xn in np.asarray(x, dtype=float).tolist():
        y = z + b0 * xn
        out.append(y)
        z = 0.0 * xn + c * y
    return np.array(out, dtype=float)


def output_voltage(cell: tuple, t: float) -> float:
    """Output voltage at time `t >= t_last`; read-only."""
    params, locked, _, _, v_hold_seen, _, v_start, v_target, t_last = cell
    if locked:
        return v_hold_seen
    dt = t - t_last
    if dt < 0:
        raise ValueError(f"sample time {t} precedes last event at {t_last}")
    rc = math.exp(-dt / time_constant(params))
    decay = math.exp(-params.leak_rate * dt)
    return (v_target + (v_start - v_target) * rc) * decay


# The state fields `sample_output` reads, in the order of its `fields` rows.
OUTPUT_FIELDS = ("lock_closed", "t_last", "v_target", "v_start", "v_hold_seen")
output_fields = itemgetter(*map(ClfgCell._fields.index, OUTPUT_FIELDS))


def sample_output(params: CellParams, fields, times) -> np.ndarray:
    """Output voltage at `times[i]` of the state whose `output_fields` are
    `fields[i]`, for every i, as one array; every state has `params`.

    The array form of `output_voltage`, which stays as its scalar oracle.
    It takes the states' fields, not the states, so a caller that samples
    many states need not keep them alive until it evaluates them.
    """
    times = np.asarray(times, dtype=float)
    fields = np.asarray(fields, dtype=float).reshape(-1, len(OUTPUT_FIELDS))
    if len(fields) != len(times):
        raise ValueError("need one cell state per sample time")
    locked, t_last, target, start, hold = fields.T
    locked = locked != 0.0
    dt = np.where(locked, 0.0, times - t_last)
    if (dt < 0).any():
        raise ValueError("sample times precede the cell's last event")
    rc = np.exp(-dt / time_constant(params))
    decay = np.exp(-params.leak_rate * dt)
    return np.where(locked, hold, (target + (start - target) * rc) * decay)
