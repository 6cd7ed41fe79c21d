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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

from .analog import Level
from .errors import SimulationError
from .protocol import Frame, Opcode, RegisterFile, apply_write

N_CELLS = 32


class Mode(Enum):
    IDLE = "IDLE"
    LOCKING = "LOCKING"
    PULSING = "PULSING"
    REFRESH = "REFRESH"


class LockAction(Enum):
    CLOSE = "CLOSE"
    OPEN = "OPEN"


class SwitchEvent(NamedTuple):
    """One switch actuation: either a fast-gate level or a lock action."""

    time_s: float
    cell: int
    fg_level: Level | None = None
    lock_action: LockAction | None = None


class IllegalTransition(SimulationError):
    def __init__(self, mode: Mode, opcode: Opcode, detail: str = "") -> None:
        msg = f"{opcode.name} not allowed in mode {mode.name}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.mode = mode
        self.opcode = opcode


class ClockDisabled(SimulationError):
    pass


class NotInPlayback(SimulationError):
    pass


@dataclass(frozen=True)
class ChipState:
    """Digital state of the chip; advanced only by the pure functions below."""

    regs: RegisterFile = RegisterFile()
    mode: Mode = Mode.IDLE
    # Default master so the 2**8 divider lands on a 140 kHz switch rate.
    master_freq_hz: float = 35.84e6
    tick_count: int = 0
    pattern_cursor: int = 0

    def __post_init__(self) -> None:
        if self.master_freq_hz <= 0:
            raise ValueError("master_freq_hz must be positive")


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
        raise IllegalTransition(state.mode, opcode, "fsm-enable is clear")
    target = exec_target(state.regs)
    if target == state.mode and target != Mode.IDLE:
        raise IllegalTransition(state.mode, opcode, f"already in {target.name}")
    cursor = 0 if target == Mode.PULSING else state.pattern_cursor
    return replace(state, mode=target, pattern_cursor=cursor), None


def divided_frequency(state: ChipState) -> float:
    """Divided clock f_master / 2**n; exact because n is a register value."""
    if not state.regs.clock_enabled:
        raise ClockDisabled("CTRL clock-enable is clear")
    return state.master_freq_hz / (1 << state.regs.divider)


def tick_time(state: ChipState, k: int, start_s: float = 0.0) -> float:
    """Time of tick `k`, from the integer tick index (no accumulation)."""
    return start_s + (k << state.regs.divider) / state.master_freq_hz


def playback(
    state: ChipState, duration_s: float, start_s: float = 0.0
) -> tuple[ChipState, list[SwitchEvent]]:
    """Play the loaded pattern for `duration_s`, one bit per divided tick.

    Each tick emits one event per pulse-enabled cell, all at the same
    level (the cells share the pattern).  The cursor wraps modulo
    PATTERN_LEN and keeps running across calls, so segmented playback is
    seamless.  Event count is floor(duration * f_div) * popcount(mask).
    """
    if state.mode != Mode.PULSING:
        raise NotInPlayback(f"mode is {state.mode.name}")
    if duration_s < 0:
        raise ValueError("duration_s must be non-negative")
    f_div = divided_frequency(state)
    n_ticks = math.floor(duration_s * f_div)
    cells = mask_cells(state.regs.pulse_mask)
    plen = state.regs.pattern_len
    events: list[SwitchEvent] = []
    for k in range(n_ticks):
        t = tick_time(state, k, start_s)
        bit = state.regs.pattern_bit((state.pattern_cursor + k) % plen)
        level = Level.HIGH if bit else Level.LOW
        for cell in cells:
            events.append(SwitchEvent(time_s=t, cell=cell, fg_level=level))
    new_state = replace(
        state,
        tick_count=state.tick_count + n_ticks,
        pattern_cursor=(state.pattern_cursor + n_ticks) % plen,
    )
    return new_state, events


def event_csv_row(event: SwitchEvent) -> tuple[float, int, str, str]:
    """Row for the `time_s,cell,action,level` event dump."""
    if event.lock_action is not None:
        return (event.time_s, event.cell, event.lock_action.value, "")
    assert event.fg_level is not None
    return (event.time_s, event.cell, "FG", event.fg_level.name)
