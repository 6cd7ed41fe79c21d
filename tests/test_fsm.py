import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clfgsim import engine, protocol
from clfgsim.analog import Level
from clfgsim.errors import SimulationError
from clfgsim.fsm import (
    ChipConfig,
    ChipState,
    Mode,
    divided_frequency,
    playback,
    step,
    tick_count,
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
    @pytest.mark.parametrize("hz", [0.0, -1.0])
    def test_master_clock_must_be_positive(self, hz):
        with pytest.raises(ValueError, match=r"^master_freq_hz must be positive$"):
            ChipConfig(master_freq_hz=hz)

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
        with pytest.raises(SimulationError,
                           match=r"^EXEC not allowed in mode PULSING \(already in PULSING\)$"):
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
        with pytest.raises(SimulationError,
                           match=r"^EXEC not allowed in mode IDLE \(fsm-enable is clear\)$"):
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
        with pytest.raises(SimulationError, match=r"^no register at address 0x99$"):
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
        assert divided_frequency(state) == state.config.master_freq_hz

    def test_consecutive_exponents_halve_exactly(self):
        f4 = divided_frequency(configured(DIVIDER=4))
        f5 = divided_frequency(configured(DIVIDER=5))
        assert f4 == 2.0 * f5

    def test_clock_disabled(self):
        state = ChipState()
        state, _ = step(state, write(protocol.CTRL, 0b010))
        with pytest.raises(SimulationError, match=r"^CTRL clock-enable is clear$"):
            divided_frequency(state)


class TestTickCount:
    """`tick_count` counts the whole periods on the tick grid itself: the
    largest k with `tick_time(state, k, start) <= end`."""

    def test_a_float_difference_loses_no_tick(self):
        state = dataclasses.replace(pulsing(divider=0), config=ChipConfig(master_freq_hz=1e3))
        assert math.floor((0.03 - 0.01) * 1e3) == 19  # 0.019999999999999997 s
        assert tick_count(state, 0.01, 0.03) == 20
        assert tick_time(state, 20, 0.01) == 0.03

    @given(
        divider=st.integers(0, 15),
        master=st.sampled_from([1e3, 3.0, 35.84e6, 1e9]),
        start_s=st.floats(-10.0, 10.0) | st.integers(-100, 100).map(lambda k: k / 100),
        k=st.integers(1, 10**4),
        shift=st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=500, deadline=None)
    @example(divider=0, master=1e3, start_s=-0.32, k=615, shift=-1)  # floor(length * f_div) is 615
    def test_is_the_last_tick_at_or_before_the_end(self, divider, master, start_s, k, shift):
        # The end at tick k, or one float below or above it.
        state = dataclasses.replace(pulsing(divider=divider), config=ChipConfig(master_freq_hz=master))
        end_s = tick_time(state, k, start_s)
        end_s = math.nextafter(end_s, shift * math.inf) if shift else end_s
        n = tick_count(state, start_s, end_s)
        assert n >= 0
        assert tick_time(state, n, start_s) <= end_s < tick_time(state, n + 1, start_s)

    def test_ticks_closer_than_the_time_step_are_counted_by_search(self):
        # At 1e300 Hz, ~1e282 ticks fall on each float near 0.03 s: the count
        # gallops and bisects to the last of them, not steps through them.
        state = dataclasses.replace(pulsing(divider=0), config=ChipConfig(master_freq_hz=1e300))
        n = tick_count(state, 0.01, 0.03)
        assert tick_time(state, n, 0.01) <= 0.03 < tick_time(state, n + 1, 0.01)


class TestPlayback:
    def test_alternating_pattern_counts(self):
        state = pulsing()  # "10", 1 cell, 140 kHz
        _, run = playback(state, tick_count(state, 0.0, 1e-3))
        assert len(run) == 140
        assert run.levels.tolist() == [Level.HIGH, Level.LOW] * 70

    def test_multi_cell_same_level(self):
        state = pulsing(pulse_mask=0b111111)
        _, run = playback(state, tick_count(state, 0.0, 1e-3))
        assert len(run) == 6 * 140
        assert len(run.times) == len(run.levels) == 140
        # Each tick is one time and one level for all pulsed cells, in order.
        assert run.cells == (0, 1, 2, 3, 4, 5)
        times, cells, actions, levels = engine.csv_columns(run)
        assert cells[:6].tolist() == [0, 1, 2, 3, 4, 5]
        assert len(set(levels[:6])) == 1
        assert len(set(times[:6])) == 1
        assert set(actions) == {"FG"}

    def test_zero_duration(self):
        state = pulsing()
        _, run = playback(state, tick_count(state, 0.25, 0.25))
        assert len(run) == 0

    def test_empty_mask_builds_no_ticks_but_advances_the_cursor(self):
        state = pulsing(pattern_len=9, divider=0, pulse_mask=0)
        after, run = playback(state, tick_count(state, 0.0, 1e-3))
        assert len(run.times) == len(run.levels) == 0 and run.cells == ()
        assert after.pattern_cursor == math.floor(1e-3 * state.config.master_freq_hz) % 9 == 2

    def test_not_in_playback(self):
        with pytest.raises(SimulationError, match=r"^mode is IDLE$"):
            playback(configured(), 1)

    def test_determinism(self):
        state_a, a = playback(pulsing(), 140, 0.25)
        state_b, b = playback(pulsing(), 140, 0.25)
        assert state_a == state_b
        assert a.times.tobytes() == b.times.tobytes()
        assert a.levels.tobytes() == b.levels.tobytes()
        assert (a.cells, a.period_s) == (b.cells, b.period_s)

    def test_cursor_continuity_across_calls(self):
        state = pulsing(pattern0=0xB000, pattern_len=4)  # "1011"
        whole_state, whole = playback(state, 140)
        state2, part1 = playback(state, 70)
        state2, part2 = playback(state2, 70, tick_time(state, len(part1)))
        joined = part1.levels.tolist() + part2.levels.tolist()
        assert joined == whole.levels.tolist()
        assert state2.pattern_cursor == whole_state.pattern_cursor

    def test_tick_times_are_exact_over_1e6_ticks(self):
        state = pulsing(divider=0)
        n = 10**6
        _, run = playback(state, n)
        assert len(run) == n
        # Times come from the integer tick index, so the millionth tick is
        # bit-identical to the direct expression, with no accumulated drift.
        assert run.times[-1] == (n - 1) / 35.84e6
        assert run.times[-1] == tick_time(state, n - 1)

    @given(
        words=st.lists(st.integers(0, 0xFFFF), min_size=8, max_size=8),
        plen=st.integers(1, 128),
        periods=st.integers(2, 4),
        divider=st.integers(0, 15),
        start_s=st.floats(0.0, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_waveform_period_is_pattern_length(self, words, plen, periods, divider, start_s):
        state = ChipState()
        state, _ = step(state, write(protocol.CTRL, 0b111))
        for i, w in enumerate(words):
            state, _ = step(state, write(protocol.PATTERN_BASE + i, w))
        state, _ = step(state, write(protocol.PATTERN_LEN, plen))
        state, _ = step(state, write(protocol.PULSE_MASK_LO, 1))
        state, _ = step(state, write(protocol.DIVIDER, divider))
        state, _ = step(state, EXEC)
        n = periods * plen
        _, run = playback(state, n, start_s)
        levels = run.levels.tolist()
        assert len(levels) == n
        assert levels[plen:] == levels[:-plen]
        assert run.times.tolist() == [tick_time(state, k, start_s) for k in range(n)]

    @given(
        words=st.lists(st.integers(0, 0xFFFF), min_size=8, max_size=8),
        plen=st.integers(1, 128),
        cursor=st.integers(0, 127),
        n_ticks=st.integers(1, 300),
    )
    @settings(max_examples=100, deadline=None)
    def test_levels_are_pattern_bits_at_each_cursor(self, words, plen, cursor, n_ticks):
        # `playback` reads the pattern once; `pattern_bit` is its oracle.
        state, start = pulsing(), cursor % plen
        regs = dataclasses.replace(state.regs, pattern=tuple(words), pattern_len=plen)
        after, run = playback(dataclasses.replace(state, regs=regs, pattern_cursor=start), n_ticks)
        assert run.levels.tolist() == [regs.pattern_bit((start + k) % plen) for k in range(n_ticks)]
        assert after.pattern_cursor == (start + n_ticks) % plen


def refresh_pass(cells: list[int], period_s: int) -> list:
    """Lock actions of one round-robin REFRESH pass, run through the engine:
    the run's `events` table rows, (time_s, cell, action, level).

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
    return engine.run_generic(scenario).tables["events"].rows


class TestRefreshSchedule:
    def test_even_spacing_32_cells(self):
        events = refresh_pass(list(range(32)), 120)
        closes = [(t, cell) for t, cell, action, _ in events if action == "CLOSE"]
        assert [cell for _, cell in closes] == list(range(32))
        for k, (t, _) in enumerate(closes):
            assert t == k * 3.75

    def test_single_cell_uses_whole_period(self):
        events = refresh_pass([0], 120)
        assert [(t, action) for t, _, action, _ in events] == [
            (0.0, "CLOSE"),
            (120.0, "OPEN"),
        ]

    def test_exactly_one_closed_at_any_instant(self):
        events = refresh_pass(list(range(32)), 120)
        closed: set[int] = set()
        seen_nonempty = False
        for _, cell, action, _ in events:
            if action == "OPEN":
                closed.discard(cell)
            else:
                assert not closed, "overlapping close intervals"
                closed.add(cell)
            seen_nonempty = True
        assert seen_nonempty and len(closed) == 0

    @pytest.mark.parametrize(
        "cells, period_s",
        [
            ([3, 9, 11, 20, 25, 30, 31], 60),
            # n * (period / n) rounds below the period for these.
            (list(range(11)), 60),
            (list(range(13)), 120),
            (list(range(22)), 60),
            (list(range(26)), 120),
        ],
        ids=["7-cells-60s", "11-cells-60s", "13-cells-120s", "22-cells-60s", "26-cells-120s"],
    )
    def test_fairness_one_refresh_per_cell_per_pass(self, cells, period_s):
        events = refresh_pass(cells, period_s)
        closes = [cell for _, cell, action, _ in events if action == "CLOSE"]
        assert closes == cells
