"""On-chip digital controller: clock divider, mode FSM, pattern playback.

The controller is modeled as four modes.  EXEC resolves its target mode
from the current registers: playback-enable wins and starts PULSING;
otherwise a non-zero lock mask starts REFRESH when a refresh period is
programmed, or plain LOCKING when it is not; with nothing selected the
chip returns to IDLE.  Re-triggering the mode that is already active is
rejected.  WRITE and READ never change mode, so the host stops an
activity by clearing the relevant registers and issuing EXEC again.
This transition table is a minimal reconstruction; the real controller's
internal states are not public.

Tick timing is exact: tick k of a playback run happens at
`start + k * 2**n / master_freq_hz`, computed from the integer tick
index each time, so a million ticks accumulate no floating-point drift.
Playback returns its ticks in columns (`TickRun`), not one object per
edge, and `engine` makes them rows of its `events` table.  A refused
EXEC, a stopped clock and playback outside PULSING raise a SimulationError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import SimulationError
from .protocol import PATTERN_BITS, Frame, Opcode, RegisterFile, apply_write

N_CELLS = 32


class Mode(Enum):
    IDLE = "IDLE"
    LOCKING = "LOCKING"
    PULSING = "PULSING"
    REFRESH = "REFRESH"


@dataclass(frozen=True, eq=False)
class TickRun:
    """One playback run in columns: at `times[k]` every cell in `cells` goes to `levels[k]`.

    `levels` holds 0 (LOW) or 1 (HIGH); `period_s` is the nominal tick
    period.  `len()` is the event count, ticks x cells.
    """

    times: np.ndarray
    levels: np.ndarray
    cells: tuple[int, ...]
    period_s: float

    def __len__(self) -> int:
        return len(self.times) * len(self.cells)


@dataclass(frozen=True)
class ChipConfig:
    # Default master so the 2**8 divider lands on a 140 kHz switch rate.
    master_freq_hz: float = 35.84e6

    def __post_init__(self) -> None:
        if not self.master_freq_hz > 0:
            raise ValueError("master_freq_hz must be positive")


@dataclass(frozen=True)
class ChipState:
    """Digital state of the chip, sharing its `config` by reference; advanced only by
    the pure functions below."""

    config: ChipConfig = ChipConfig()
    regs: RegisterFile = RegisterFile()
    mode: Mode = Mode.IDLE
    pattern_cursor: int = 0


def mask_cells(mask: int) -> list[int]:
    """Cell indices selected by a 32-bit mask, ascending."""
    return [i for i in range(N_CELLS) if (mask >> i) & 1]


def exec_target(regs: RegisterFile) -> Mode:
    """Mode an EXEC command resolves to under the current registers."""
    if regs.playback_enabled:
        return Mode.PULSING
    if regs.lock_mask != 0:
        return Mode.REFRESH if regs.refresh_period > 0 else Mode.LOCKING
    return Mode.IDLE


def step(state: ChipState, frame: Frame) -> tuple[ChipState, Frame | None]:
    """Apply one decoded frame; returns the new state and any READ response."""
    opcode = Opcode(frame.opcode)
    if opcode == Opcode.NOP:
        return state, None
    if opcode == Opcode.WRITE:
        regs = apply_write(state.regs, frame.address, frame.data)
        # Keep the cursor inside a shrunk pattern.
        cursor = state.pattern_cursor % regs.pattern_len
        return replace(state, regs=regs, pattern_cursor=cursor), None
    if opcode == Opcode.READ:
        value = state.regs.read(frame.address)
        return state, Frame(opcode=Opcode.READ, address=frame.address, data=value)
    # EXEC
    if not state.regs.fsm_enabled:
        raise SimulationError(f"EXEC not allowed in mode {state.mode.name} (fsm-enable is clear)")
    target = exec_target(state.regs)
    if target == state.mode and target != Mode.IDLE:
        raise SimulationError(f"EXEC not allowed in mode {state.mode.name} (already in {target.name})")
    cursor = 0 if target == Mode.PULSING else state.pattern_cursor
    return replace(state, mode=target, pattern_cursor=cursor), None


def divided_frequency(state: ChipState) -> float:
    """Divided clock f_master / 2**n; exact because n is a register value."""
    if not state.regs.clock_enabled:
        raise SimulationError("CTRL clock-enable is clear")
    return state.config.master_freq_hz / (1 << state.regs.divider)


def tick_time(state: ChipState, k: int, start_s: float = 0.0) -> float:
    """Time of tick `k`, from the integer tick index (no accumulation)."""
    return start_s + (k << state.regs.divider) / state.config.master_freq_hz


def tick_count(state: ChipState, start_s: float, end_s: float) -> int:
    """Whole divided periods from `start_s` to `end_s` on the tick grid: the
    largest k with `tick_time(state, k, start_s) <= end_s`, bisected below
    floor((end_s - start_s) * f_div) or the first doubling of it past `end_s`."""
    lo, hi = 0, max(1, math.floor((end_s - start_s) * divided_frequency(state)))
    while tick_time(state, hi, start_s) <= end_s:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if tick_time(state, mid, start_s) > end_s else (mid, hi)
    return lo


def advance(state: ChipState, n_ticks: int) -> ChipState:
    """`state` after `n_ticks` divided ticks of playback: the cursor wraps modulo PATTERN_LEN."""
    return replace(state, pattern_cursor=(state.pattern_cursor + n_ticks) % state.regs.pattern_len)


def playback(state: ChipState, n_ticks: int, start_s: float = 0.0) -> tuple[ChipState, TickRun]:
    """Play the loaded pattern for `n_ticks` divided ticks, one bit per tick.

    Returns the new state and the run's ticks in columns: tick k is at
    `tick_time(state, k, start_s)`, bit for bit, and every pulse-enabled
    cell takes the same level on it (the cells share the pattern).  The
    cursor wraps modulo PATTERN_LEN and keeps running across calls, so
    segmented playback is seamless.  Event count (`len` of the run) is
    n_ticks * popcount(mask).  With no cell in the mask the run has no
    ticks; the cursor still advances by `n_ticks`.  A stretch of playback
    from one time to another plays `tick_count` ticks.
    """
    if state.mode != Mode.PULSING:
        raise SimulationError(f"mode is {state.mode.name}")
    plen = state.regs.pattern_len
    cells = tuple(mask_cells(state.regs.pulse_mask))
    k = np.arange(n_ticks if cells else 0, dtype=np.int64)
    bits = state.regs.pattern_int  # bit 127 plays first, as `pattern_bit` reads it
    pattern = np.array([(bits >> (PATTERN_BITS - 1 - i)) & 1 for i in range(plen)], dtype=np.uint8)
    run = TickRun(
        times=start_s + (k << state.regs.divider) / state.config.master_freq_hz,
        levels=pattern[(state.pattern_cursor + k) % plen],
        cells=cells,
        period_s=(1 << state.regs.divider) / state.config.master_freq_hz,
    )
    return advance(state, n_ticks), run
