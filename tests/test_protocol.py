import re
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clfgsim import protocol
from clfgsim.errors import ScenarioError, SimulationError
from clfgsim.protocol import (
    Frame,
    Opcode,
    RegisterFile,
    apply_write,
    decode_frame,
    parse_stream,
)

from conftest import encode_frame

# The register map as README.md lists it, written out apart from
# `protocol.REGISTERS`: address -> (name, lowest, highest value).
REGISTER_SPEC = {
    0x00: ("CTRL", 0, 7),
    0x01: ("DIVIDER", 0, 15),
    0x02: ("LOCK_MASK_LO", 0, 0xFFFF),
    0x03: ("LOCK_MASK_HI", 0, 0xFFFF),
    0x04: ("PULSE_MASK_LO", 0, 0xFFFF),
    0x05: ("PULSE_MASK_HI", 0, 0xFFFF),
    0x10: ("PATTERN0", 0, 0xFFFF),
    0x11: ("PATTERN1", 0, 0xFFFF),
    0x12: ("PATTERN2", 0, 0xFFFF),
    0x13: ("PATTERN3", 0, 0xFFFF),
    0x14: ("PATTERN4", 0, 0xFFFF),
    0x15: ("PATTERN5", 0, 0xFFFF),
    0x16: ("PATTERN6", 0, 0xFFFF),
    0x17: ("PATTERN7", 0, 0xFFFF),
    0x20: ("PATTERN_LEN", 1, 128),
    0x21: ("REFRESH_PERIOD", 0, 0xFFFF),
}

valid_frames = st.builds(
    Frame,
    opcode=st.sampled_from([Opcode.NOP, Opcode.WRITE, Opcode.READ, Opcode.EXEC]),
    address=st.integers(0, 0xFF),
    data=st.integers(0, 0xFFFF),
)


class TestCodec:
    def test_all_zero_nop(self):
        assert encode_frame(Frame(0, 0, 0)) == 0x00000000
        assert decode_frame(0x00000000) == Frame(Opcode.NOP, 0, 0)

    def test_encode_bit_layout(self):
        assert encode_frame(Frame(1, 0x01, 8)) == 0x01010008

    def test_decode_write(self):
        frame = decode_frame(0x01100ABC)
        assert frame.opcode == Opcode.WRITE
        assert frame.address == 0x10
        assert frame.data == 0x0ABC

    def test_unknown_opcode(self):
        with pytest.raises(SimulationError, match=r"^unknown opcode 0xff$"):
            decode_frame(0xFF000000)

    def test_word_too_wide(self):
        with pytest.raises(ValueError):
            decode_frame(1 << 32)

    @given(valid_frames)
    def test_round_trip(self, frame):
        assert decode_frame(encode_frame(frame)) == frame

    @given(st.integers(4, 0xFF), st.integers(0, 0xFFFFFF))
    def test_out_of_set_opcodes_rejected(self, opcode, rest):
        with pytest.raises(SimulationError, match=f"^unknown opcode 0x{opcode:02x}$"):
            decode_frame((opcode << 24) | rest)

    def test_field_range_validation(self):
        with pytest.raises(ValueError):
            Frame(256, 0, 0)
        with pytest.raises(ValueError):
            Frame(0, 0, 0x10000)


class TestRegisterFile:
    @pytest.mark.parametrize("address", range(256))
    def test_read_after_write(self, address):
        regs = apply_write(RegisterFile(), protocol.DIVIDER, 3)
        before = replace(regs)
        if address not in REGISTER_SPEC:
            with pytest.raises(SimulationError, match=f"^no register at address 0x{address:02x}$"):
                apply_write(regs, address, 0)
            assert regs == before
            assert address not in protocol.NAME_TO_ADDRESS.values()
            return
        name, lo, hi = REGISTER_SPEC[address]
        assert protocol.NAME_TO_ADDRESS[name] == address
        for value in (lo, hi):
            written = apply_write(regs, address, value)
            assert written.read(address) == value
            word = name.removeprefix("PATTERN")
            if word.isdigit():
                assert written.pattern[int(word)] == value
            else:
                assert getattr(written, name.lower()) == value
        for value in (lo - 1, hi + 1):
            refusal = f"{name.rstrip('0123456789')}={value} outside [{lo}..{hi}]"
            with pytest.raises(SimulationError, match=f"^{re.escape(refusal)}$"):
                apply_write(regs, address, value)
            assert regs == before

    def test_pattern_bit_order(self):
        # PATTERN0 holds bits 127..112 and bit 127 plays first, so filling
        # every word with 0xAAAA makes the played bits alternate 1010...
        regs = RegisterFile()
        for i in range(protocol.N_PATTERN_WORDS):
            regs = apply_write(regs, protocol.PATTERN_BASE + i, 0xAAAA)
        bits = [regs.pattern_bit(c) for c in range(protocol.PATTERN_BITS)]
        assert bits == [1, 0] * 64

    @pytest.mark.parametrize("cursor", [-1, protocol.PATTERN_BITS])
    def test_pattern_bit_outside_the_pattern_is_refused(self, cursor):
        with pytest.raises(ValueError, match=f"^cursor {cursor} outside 0\\.\\.127$"):
            RegisterFile().pattern_bit(cursor)

    def test_pattern_len_bounds(self):
        with pytest.raises(SimulationError, match=r"^PATTERN_LEN=0 outside \[1\.\.128\]$"):
            apply_write(RegisterFile(), protocol.PATTERN_LEN, 0)
        with pytest.raises(SimulationError, match=r"^PATTERN_LEN=129 outside \[1\.\.128\]$"):
            apply_write(RegisterFile(), protocol.PATTERN_LEN, 129)
        regs = apply_write(RegisterFile(), protocol.PATTERN_LEN, 128)
        assert regs.pattern_len == 128

    def test_divider_four_bits(self):
        with pytest.raises(SimulationError, match=r"^DIVIDER=16 outside \[0\.\.15\]$"):
            apply_write(RegisterFile(), protocol.DIVIDER, 16)

    @pytest.mark.parametrize("address", range(256))
    def test_unknown_address_rejected(self, address):
        if address in REGISTER_SPEC:
            _name, lo, hi = REGISTER_SPEC[address]
            assert lo <= RegisterFile().read(address) <= hi
            return
        refusal = f"^no register at address 0x{address:02x}$"
        with pytest.raises(SimulationError, match=refusal):
            apply_write(RegisterFile(), address, 1)
        with pytest.raises(SimulationError, match=refusal):
            RegisterFile().read(address)

    def test_masks_combine(self):
        regs = apply_write(RegisterFile(), protocol.LOCK_MASK_LO, 0xBEEF)
        regs = apply_write(regs, protocol.LOCK_MASK_HI, 0xDEAD)
        assert regs.lock_mask == 0xDEADBEEF

    @given(st.integers(0, 0xFFFF))
    def test_write_idempotent(self, data):
        once = apply_write(RegisterFile(), protocol.PULSE_MASK_LO, data)
        twice = apply_write(once, protocol.PULSE_MASK_LO, data)
        assert once == twice

    def test_rejected_write_leaves_state_unchanged(self):
        regs = apply_write(RegisterFile(), protocol.DIVIDER, 3)
        before = regs
        with pytest.raises(SimulationError, match=r"^no register at address 0x99$"):
            apply_write(regs, 0x99, 1)
        with pytest.raises(SimulationError, match=r"^PATTERN_LEN=0 outside \[1\.\.128\]$"):
            apply_write(regs, protocol.PATTERN_LEN, 0)
        assert regs == before


class TestStreamParsing:
    def test_parse_with_comments(self):
        text = """
        # configure then trigger
        01000007
        0101000F  # divider
        0x03000000
        """
        assert parse_stream(text) == [0x01000007, 0x0101000F, 0x03000000]

    def test_bad_width(self):
        with pytest.raises(ScenarioError, match=r"^line 1: expected 8 hex digits, got '0100007'$"):
            parse_stream("0100007")

    def test_not_hex(self):
        with pytest.raises(ScenarioError, match=r"^line 1: not hexadecimal: '01zz0007'$"):
            parse_stream("01zz0007")

    @given(st.lists(valid_frames, max_size=20))
    def test_stream_round_trip(self, frames):
        text = "\n".join(f"{encode_frame(f):08X}" for f in frames)
        assert parse_stream(text) == [encode_frame(f) for f in frames]
