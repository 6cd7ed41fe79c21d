import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfgsim import engine, protocol
from clfgsim.analog import Level
from clfgsim.fsm import (
    ChipState,
    ClockDisabled,
    IllegalTransition,
    LockAction,
    Mode,
    NotInPlayback,
    divided_frequency,
    playback,
    step,
    tick_time,
)
from clfgsim.protocol import Frame, Opcode

from conftest import make_scenario


def write(reg: int, value: int) -> Frame:
    return Frame(Opcode.WRITE, reg, value)


EXEC = Frame(Opcode.EXEC)


def configured(**regs) -> ChipState:
    """Chip with fsm+clock enabled and the given registers written."""
    state = ChipState()
    state, _ = step(state, write(protocol.CTRL, 0b011))
    for name, value in regs.items():
        state, _ = step(state, write(protocol.NAME_TO_ADDRESS[name], value))
    return state


def pulsing(pattern0=0x8000, pattern_len=2, divider=8, pulse_mask=1) -> ChipState:
    state = configured(
        DIVIDER=divider,
        PATTERN0=pattern0,
        PATTERN_LEN=pattern_len,
        PULSE_MASK_LO=pulse_mask & 0xFFFF,
        PULSE_MASK_HI=(pulse_mask >> 16) & 0xFFFF,
    )
    state, _ = step(state, write(protocol.CTRL, 0b111))
    state, _ = step(state, EXEC)
    assert state.mode == Mode.PULSING
    return state


class TestStep:
    def test_write_never_changes_mode(self):
        state = ChipState()
        state, resp = step(state, write(protocol.DIVIDER, 8))
        assert state.mode == Mode.IDLE
        assert state.regs.divider == 8
        assert resp is None

    def test_exec_playback_enters_pulsing(self):
        state = pulsing()
        assert state.pattern_cursor == 0

    def test_exec_while_pulsing_is_illegal(self):
        state = pulsing()
        with pytest.raises(IllegalTransition):
            step(state, EXEC)

    def test_exec_lock_mask_enters_locking(self):
        state = configured(LOCK_MASK_LO=0x000F)
        state, _ = step(state, EXEC)
        assert state.mode == Mode.LOCKING

    def test_exec_with_refresh_period_enters_refresh(self):
        state = configured(LOCK_MASK_LO=0x000F, REFRESH_PERIOD=120)
        state, _ = step(state, EXEC)
        assert state.mode == Mode.REFRESH

    def test_exec_with_nothing_selected_returns_to_idle(self):
        state = configured(LOCK_MASK_LO=1)
        state, _ = step(state, EXEC)
        state, _ = step(state, write(protocol.LOCK_MASK_LO, 0))
        state, _ = step(state, EXEC)
        assert state.mode == Mode.IDLE

    def test_exec_requires_fsm_enable(self):
        state = ChipState()
        with pytest.raises(IllegalTransition):
            step(state, EXEC)

    def test_read_returns_response_without_state_change(self):
        state = configured(DIVIDER=5)
        after, resp = step(state, Frame(Opcode.READ, protocol.DIVIDER))
        assert after == state
        assert resp == Frame(Opcode.READ, protocol.DIVIDER, 5)

    def test_nop(self):
        state = ChipState()
        after, resp = step(state, Frame(Opcode.NOP))
        assert after == state and resp is None

    def test_failed_write_leaves_state(self):
        state = configured(DIVIDER=5)
        with pytest.raises(protocol.UnknownAddress):
            step(state, write(0x99, 1))
        assert state.regs.divider == 5

    def test_stop_pulsing_via_ctrl_then_exec(self):
        state = pulsing()
        state, _ = step(state, write(protocol.CTRL, 0b011))
        state, _ = step(state, EXEC)
        assert state.mode == Mode.IDLE


class TestDividedFrequency:
    def test_paper_default_lands_on_140khz(self):
        state = configured(DIVIDER=8)
        assert divided_frequency(state) == 140e3

    def test_divider_zero_is_identity(self):
        state = configured(DIVIDER=0)
        assert divided_frequency(state) == state.master_freq_hz

    def test_consecutive_exponents_halve_exactly(self):
        f4 = divided_frequency(configured(DIVIDER=4))
        f5 = divided_frequency(configured(DIVIDER=5))
        assert f4 == 2.0 * f5

    def test_clock_disabled(self):
        state = ChipState()
        state, _ = step(state, write(protocol.CTRL, 0b010))
        with pytest.raises(ClockDisabled):
            divided_frequency(state)


class TestPlayback:
    def test_alternating_pattern_counts(self):
        state = pulsing()  # "10", 1 cell, 140 kHz
        _, events = playback(state, 1e-3)
        assert len(events) == 140
        levels = [e.fg_level for e in events]
        assert levels == [Level.HIGH, Level.LOW] * 70

    def test_multi_cell_same_level(self):
        state = pulsing(pulse_mask=0b111111)
        _, events = playback(state, 1e-3)
        assert len(events) == 6 * 140
        first_tick = events[:6]
        assert [e.cell for e in first_tick] == [0, 1, 2, 3, 4, 5]
        assert len({e.fg_level for e in first_tick}) == 1
        assert len({e.time_s for e in first_tick}) == 1

    def test_zero_duration(self):
        _, events = playback(pulsing(), 0.0)
        assert events == []

    def test_not_in_playback(self):
        with pytest.raises(NotInPlayback):
            playback(configured(), 1.0)

    def test_determinism(self):
        a = playback(pulsing(), 1e-3, 0.25)
        b = playback(pulsing(), 1e-3, 0.25)
        assert a == b

    def test_cursor_continuity_across_calls(self):
        state = pulsing(pattern0=0xB000, pattern_len=4)  # "1011"
        whole_state, whole = playback(state, 1e-3)
        state2, part1 = playback(state, 0.5e-3)
        state2, part2 = playback(state2, 0.5e-3, tick_time(state, len(part1)))
        assert [e.fg_level for e in part1 + part2] == [e.fg_level for e in whole]
        assert state2.pattern_cursor == whole_state.pattern_cursor

    def test_tick_times_are_exact_over_1e6_ticks(self):
        state = pulsing(divider=0)
        n = 10**6
        duration = (n + 0.5) / state.master_freq_hz
        new_state, events = playback(state, duration)
        assert len(events) == n
        assert new_state.tick_count == n
        # Times come from the integer tick index, so the millionth tick is
        # bit-identical to the direct expression, with no accumulated drift.
        assert events[-1].time_s == (n - 1) / 35.84e6
        assert events[-1].time_s == tick_time(state, n - 1)

    @given(
        words=st.lists(st.integers(0, 0xFFFF), min_size=8, max_size=8),
        plen=st.integers(1, 128),
        periods=st.integers(2, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_waveform_period_is_pattern_length(self, words, plen, periods):
        state = ChipState()
        state, _ = step(state, write(protocol.CTRL, 0b111))
        for i, w in enumerate(words):
            state, _ = step(state, write(protocol.PATTERN_BASE + i, w))
        state, _ = step(state, write(protocol.PATTERN_LEN, plen))
        state, _ = step(state, write(protocol.PULSE_MASK_LO, 1))
        state, _ = step(state, write(protocol.DIVIDER, 0))
        state, _ = step(state, EXEC)
        n = periods * plen
        _, events = playback(state, (n + 0.5) / state.master_freq_hz)
        levels = [e.fg_level for e in events]
        assert len(levels) == n
        assert levels[plen:] == levels[:-plen]


def refresh_pass(cells: list[int], period_s: int) -> list:
    """Lock actions of one round-robin REFRESH pass, run through the engine.

    The host starts refresh at t=0 and ends it one period later by clearing
    the lock mask, which opens the last cell's lock.
    """
    mask = sum(1 << c for c in cells)
    end = float(period_s)
    scenario = make_scenario(
        duration_s=end,
        schedule=[
            {"t": 0.0, "write": ["CTRL", 2]},
            {"t": 0.0, "write": ["LOCK_MASK_LO", mask & 0xFFFF]},
            {"t": 0.0, "write": ["LOCK_MASK_HI", mask >> 16]},
            {"t": 0.0, "write": ["REFRESH_PERIOD", period_s]},
            {"t": 0.0, "exec": True},
            {"t": end, "write": ["LOCK_MASK_LO", 0]},
            {"t": end, "write": ["LOCK_MASK_HI", 0]},
            {"t": end, "exec": True},
        ],
    )
    return engine.run_generic(scenario).events


class TestRefreshSchedule:
    def test_even_spacing_32_cells(self):
        events = refresh_pass(list(range(32)), 120)
        closes = [e for e in events if e.lock_action == LockAction.CLOSE]
        assert [e.cell for e in closes] == list(range(32))
        for k, e in enumerate(closes):
            assert e.time_s == k * 3.75

    def test_single_cell_uses_whole_period(self):
        events = refresh_pass([0], 120)
        assert [(e.time_s, e.lock_action) for e in events] == [
            (0.0, LockAction.CLOSE),
            (120.0, LockAction.OPEN),
        ]

    def test_exactly_one_closed_at_any_instant(self):
        events = refresh_pass(list(range(32)), 120)
        closed: set[int] = set()
        seen_nonempty = False
        for e in events:
            if e.lock_action == LockAction.OPEN:
                closed.discard(e.cell)
            else:
                assert not closed, "overlapping close intervals"
                closed.add(e.cell)
            seen_nonempty = True
        assert seen_nonempty and len(closed) == 0

    def test_fairness_one_refresh_per_cell_per_pass(self):
        events = refresh_pass([3, 9, 11, 20, 25, 30, 31], 60)
        closes = [e.cell for e in events if e.lock_action == LockAction.CLOSE]
        assert closes == [3, 9, 11, 20, 25, 30, 31]
