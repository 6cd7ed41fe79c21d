"""Codec and register map for the four-wire serial host link.

Command words are 32 bits, most significant bit first: an 8-bit opcode,
an 8-bit register address and 16 bits of immediate data.  The register
map is a behavioural reconstruction of a minimal host interface for this
kind of control chip (see README.md); real silicon will differ.  It is
written once, in the table `REGISTERS`, which `check_access` (for
`RegisterFile.read` and `apply_write`) and `NAME_TO_ADDRESS` read.  A
frame the chip refuses raises a SimulationError; a malformed stream line, a ScenarioError.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum

from .errors import ScenarioError, SimulationError


class Opcode(IntEnum):
    NOP = 0x00
    WRITE = 0x01
    READ = 0x02
    EXEC = 0x03


# Register addresses.
CTRL = 0x00            # bit0 clock-enable, bit1 fsm-enable, bit2 playback-enable
DIVIDER = 0x01         # exponent n in f_div = f_master / 2**n, 0..15
LOCK_MASK_LO = 0x02    # lock-select mask, cells 0..15
LOCK_MASK_HI = 0x03    # lock-select mask, cells 16..31
PULSE_MASK_LO = 0x04   # pulse-enable mask, cells 0..15
PULSE_MASK_HI = 0x05   # pulse-enable mask, cells 16..31
PATTERN_BASE = 0x10    # PATTERN0..PATTERN7 at 0x10..0x17
PATTERN_LEN = 0x20     # active pattern length in bits, 1..128
REFRESH_PERIOD = 0x21  # round-robin refresh period, whole seconds

CTRL_CLOCK_ENABLE = 1 << 0
CTRL_FSM_ENABLE = 1 << 1
CTRL_PLAYBACK_ENABLE = 1 << 2

N_PATTERN_WORDS = 8
PATTERN_BITS = 16 * N_PATTERN_WORDS

# address -> (RegisterFile field, lowest, highest value).  A register is
# named after its field, upper-cased; PATTERN0..7 are the `pattern` words.
REGISTERS: dict[int, tuple[str, int, int]] = {
    CTRL: ("ctrl", 0, 0b111),
    DIVIDER: ("divider", 0, 15),
    LOCK_MASK_LO: ("lock_mask_lo", 0, 0xFFFF),
    LOCK_MASK_HI: ("lock_mask_hi", 0, 0xFFFF),
    PULSE_MASK_LO: ("pulse_mask_lo", 0, 0xFFFF),
    PULSE_MASK_HI: ("pulse_mask_hi", 0, 0xFFFF),
    PATTERN_LEN: ("pattern_len", 1, PATTERN_BITS),
    REFRESH_PERIOD: ("refresh_period", 0, 0xFFFF),
}
for _i in range(N_PATTERN_WORDS):
    REGISTERS[PATTERN_BASE + _i] = ("pattern", 0, 0xFFFF)
NAME_TO_ADDRESS: dict[str, int] = {
    f"PATTERN{addr - PATTERN_BASE}" if field == "pattern" else field.upper(): addr
    for addr, (field, _lo, _hi) in REGISTERS.items()
}


@dataclass(frozen=True)
class Frame:
    """One serial command word: opcode / address / data, packed 8/8/16."""

    opcode: int
    address: int = 0
    data: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.opcode <= 0xFF:
            raise ValueError(f"opcode {self.opcode} not an 8-bit value")
        if not 0 <= self.address <= 0xFF:
            raise ValueError(f"address {self.address} not an 8-bit value")
        if not 0 <= self.data <= 0xFFFF:
            raise ValueError(f"data {self.data} not a 16-bit value")


def decode_frame(word: int) -> Frame:
    """The frame a 32-bit wire word carries (MSB first); rejects opcodes outside the command set."""
    if not 0 <= word <= 0xFFFFFFFF:
        raise ValueError(f"word 0x{word:x} wider than 32 bits")
    opcode = (word >> 24) & 0xFF
    if opcode not in (Opcode.NOP, Opcode.WRITE, Opcode.READ, Opcode.EXEC):
        raise SimulationError(f"unknown opcode 0x{opcode:02x}")
    return Frame(opcode=Opcode(opcode), address=(word >> 16) & 0xFF, data=word & 0xFFFF)


@dataclass(frozen=True)
class RegisterFile:
    """Host-visible configuration registers.

    Immutable; writes go through :func:`apply_write` and return a new file,
    so a rejected write can never leave partial effects behind.
    """

    ctrl: int = 0
    divider: int = 0
    lock_mask_lo: int = 0
    lock_mask_hi: int = 0
    pulse_mask_lo: int = 0
    pulse_mask_hi: int = 0
    pattern: tuple[int, ...] = (0,) * N_PATTERN_WORDS
    pattern_len: int = 1
    refresh_period: int = 0

    @property
    def clock_enabled(self) -> bool:
        return bool(self.ctrl & CTRL_CLOCK_ENABLE)

    @property
    def fsm_enabled(self) -> bool:
        return bool(self.ctrl & CTRL_FSM_ENABLE)

    @property
    def playback_enabled(self) -> bool:
        return bool(self.ctrl & CTRL_PLAYBACK_ENABLE)

    @property
    def lock_mask(self) -> int:
        return (self.lock_mask_hi << 16) | self.lock_mask_lo

    @property
    def pulse_mask(self) -> int:
        return (self.pulse_mask_hi << 16) | self.pulse_mask_lo

    @property
    def pattern_int(self) -> int:
        """128-bit pattern; PATTERN0 supplies bits 127..112."""
        value = 0
        for word in self.pattern:
            value = (value << 16) | word
        return value

    def pattern_bit(self, cursor: int) -> int:
        """Pattern bit at playback position `cursor`; bit 127 plays first."""
        if not 0 <= cursor < PATTERN_BITS:
            raise ValueError(f"cursor {cursor} outside 0..{PATTERN_BITS - 1}")
        return (self.pattern_int >> (PATTERN_BITS - 1 - cursor)) & 1

    def read(self, address: int) -> int:
        value = getattr(self, check_access(address))
        return value[address - PATTERN_BASE] if isinstance(value, tuple) else value


def check_access(address: int, data: int | None = None) -> str:
    """The `RegisterFile` field a READ (`data` None) or a WRITE of `data`
    reaches at `address`, refusing an unknown address or a value outside
    the register's range (every range lies within 16 bits)."""
    if address not in REGISTERS:
        raise SimulationError(f"no register at address 0x{address:02x}")
    field, lo, hi = REGISTERS[address]
    if data is not None and not lo <= data <= hi:
        raise SimulationError(f"{field.upper()}={data} outside [{lo}..{hi}]")
    return field


def apply_write(regs: RegisterFile, address: int, data: int) -> RegisterFile:
    """Write one register, returning the updated file.

    Unknown addresses and out-of-range values are rejected (`check_access`)
    before any state changes; the input register file is never touched.
    """
    field = check_access(address, data)
    if field == "pattern":
        i = address - PATTERN_BASE
        data = (*regs.pattern[:i], data, *regs.pattern[i + 1:])
    return replace(regs, **{field: data})


def parse_stream(text: str) -> list[int]:
    """Parse a raw command-stream file into 32-bit words.

    One 8-hex-digit word per line; `#` starts a comment; blank lines are
    skipped.  This is the ingestion format for the CLI `replay` mode.
    """
    words: list[int] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        token = line[2:] if line.lower().startswith("0x") else line
        if len(token) != 8:
            raise ScenarioError(f"line {lineno}: expected 8 hex digits, got {line!r}")
        try:
            words.append(int(token, 16))
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: not hexadecimal: {line!r}") from exc
    return words
