"""Behavioral simulator of a cryogenic charge-lock fast-gate control chip.

The package splits along the hardware boundaries: `protocol` (serial
command codec and register map), `fsm` (on-chip controller), `analog`
(charge-lock fast-gate cell physics), `device` (quantum-dot transport
oracle and tank-circuit readout), `thermal` (power and cooling budget),
`engine` (deterministic scenario execution) and `cli`.
"""

__version__ = "0.1.0"

from .analog import CellParams, ClfgCell, Level, SupplyRails
from .device import DotDevice, TankReadout
from .engine import SwitchEvent
from .fsm import ChipState, Mode
from .protocol import Frame, Opcode, RegisterFile
from .thermal import CoolingBudget, PowerModel, ThermalCalibration

__all__ = [
    "CellParams",
    "ChipState",
    "ClfgCell",
    "CoolingBudget",
    "DotDevice",
    "Frame",
    "Level",
    "Mode",
    "Opcode",
    "PowerModel",
    "RegisterFile",
    "SupplyRails",
    "SwitchEvent",
    "TankReadout",
    "ThermalCalibration",
    "__version__",
]
