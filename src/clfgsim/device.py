"""Quantum-dot transport oracle and band-limited tank-circuit readout.

The dot is a single-island Coulomb-blockade conductance model with
thermally broadened peaks:

    g(v_eff) = g_max / cosh((v_eff - nearest peak) / peak_width)**2

where v_eff = sum_i lever[i] * V_i + v_offset and peaks sit at integer
multiples of `peak_spacing` in v_eff.  The readout chain is reduced to a
first-order low-pass at the tank bandwidth; only the bandwidth limit
matters to the verification signatures this oracle is used for.  A gate
with no lever arm, a sample rate below 10x the tank bandwidth and
envelope traces whose sweep axes differ raise a SimulationError."""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .analog import one_pole
from .errors import SimulationError

# 2 e^2 / h, the natural conductance scale for a near-open dot.
CONDUCTANCE_QUANTUM_S = 7.748091729e-5


@dataclass(frozen=True)
class DotDevice:
    """Coulomb-blockade conductance model for one dot."""

    levers: Mapping[str, float] = field(default_factory=dict)
    peak_spacing: float = 0.010
    peak_width: float = 0.0008
    g_max: float = CONDUCTANCE_QUANTUM_S
    v_offset: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.levers, Mapping) or not all(
            isinstance(lever, Real) for lever in self.levers.values()
        ):
            raise TypeError("levers must map gate names to real numbers")
        if self.peak_spacing <= 0 or self.peak_width <= 0 or self.g_max <= 0:
            raise ValueError("peak_spacing, peak_width and g_max must be positive")


@dataclass(frozen=True)
class TankReadout:
    """First-order stand-in for the LC tank readout chain, at its caller's sample rate."""

    bandwidth_hz: float = 10e6

    def __post_init__(self) -> None:
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be positive")


def effective_voltage(device: DotDevice, gate_voltages: Mapping[str, object]):
    """Lever-arm weighted sum of the supplied gate voltages."""
    unknown = gate_voltages.keys() - device.levers.keys()
    if unknown:
        raise SimulationError(f"no lever arm for gate(s) {sorted(unknown)}")
    v_eff = device.v_offset
    for gate, voltage in gate_voltages.items():
        v_eff = v_eff + device.levers[gate] * np.asarray(voltage)
    return v_eff


def conductance(device: DotDevice, gate_voltages: Mapping[str, object]):
    """Dot conductance in siemens, broadcast over the gate voltages.

    Periodic in v_eff with period `peak_spacing`; maximal (g_max) on a
    peak and suppressed as cosh**-2 away from it.
    """
    v_eff = effective_voltage(device, gate_voltages)
    d = v_eff - device.peak_spacing * np.rint(v_eff / device.peak_spacing)
    with np.errstate(over="ignore"):  # cosh² past float range far off a peak: g is 0.0
        return device.g_max / np.cosh(d / device.peak_width) ** 2


def _low_pass(x: np.ndarray, tank: TankReadout, sample_rate_hz: float) -> np.ndarray:
    """One-pole low-pass along the last axis, each row started settled at its x[0].

    Discrete form y[n] = (1-a) y[n-1] + a x[n] with a chosen so the
    continuous-time bandwidth is `bandwidth_hz`; DC gain is exactly 1.
    Each row is one `analog.one_pole` call with b0 = a, c = 1-a and
    z0 = (1-a) x[0].
    """
    a = 1.0 - float(np.exp(-2.0 * np.pi * tank.bandwidth_hz / sample_rate_hz))
    rows = [one_pole(a, 1.0 - a, row, (1.0 - a) * row[0]) for row in x.reshape(-1, x.shape[-1])]
    return np.array(rows).reshape(x.shape)


def require_sample_rate(tank: TankReadout, sample_rate_hz: float) -> None:
    """Raise a SimulationError unless traces reach the tank at >= 10x its bandwidth.

    Below that the sampled one-pole filter no longer has the tank's shape.
    """
    if sample_rate_hz < 10.0 * tank.bandwidth_hz:
        raise SimulationError(
            f"sample rate {sample_rate_hz:g} Hz < 10 x bandwidth "
            f"{tank.bandwidth_hz:g} Hz"
        )


def tank_signal(tank: TankReadout, sample_rate_hz: float, g: np.ndarray) -> np.ndarray:
    """Readout signal for conductance traces `g` (one per row) sampled at
    `sample_rate_hz`: the tank's first-order low-pass, after `require_sample_rate`."""
    require_sample_rate(tank, sample_rate_hz)
    g = np.asarray(g, dtype=float)
    if g.ndim == 0:
        raise ValueError("the conductance trace must be a sampled array")
    return _low_pass(g, tank, sample_rate_hz)


@dataclass(frozen=True)
class EnvelopeReport:
    """Per-sweep-point envelope of a pulsed readout vs the static traces."""

    env_min: np.ndarray
    env_max: np.ndarray
    max_rel_deviation: float


def envelope_check(
    device: DotDevice,
    tank: TankReadout,
    sample_rate_hz: float,
    pulsed_trace: np.ndarray,
    static_low_trace: np.ndarray,
    static_high_trace: np.ndarray,
    settle_fraction: float = 0.5,
) -> EnvelopeReport:
    """Compare the envelope of a pulsed readout with two static sweeps.

    `pulsed_trace` holds one conductance time series per sweep point
    (shape n_sweep x n_time, sampled at `sample_rate_hz`);
    it goes through `tank_signal` here, the first `settle_fraction` of each
    series is discarded as filter settling, and the per-point max/min are
    compared with the pointwise max/min of the two static traces.
    Deviations are normalized by g_max (full scale) so valleys with
    near-zero conductance do not blow up the ratio.
    """
    pulsed = np.asarray(pulsed_trace, dtype=float)
    s_lo = np.asarray(static_low_trace, dtype=float)
    s_hi = np.asarray(static_high_trace, dtype=float)
    if pulsed.ndim != 2:
        raise ValueError("pulsed_trace must be 2-D (sweep x time)")
    if pulsed.shape[0] != s_lo.shape[0] or pulsed.shape[0] != s_hi.shape[0]:
        raise SimulationError(
            f"sweep axes differ: pulsed {pulsed.shape[0]}, "
            f"low {s_lo.shape[0]}, high {s_hi.shape[0]}"
        )
    if not 0.0 <= settle_fraction < 1.0:
        raise ValueError("settle_fraction must be in [0, 1)")
    filtered = tank_signal(tank, sample_rate_hz, pulsed)
    start = int(round(settle_fraction * pulsed.shape[1]))
    settled = filtered[:, start:]
    env_min = settled.min(axis=1)
    env_max = settled.max(axis=1)
    ref_max = np.maximum(s_lo, s_hi)
    ref_min = np.minimum(s_lo, s_hi)
    dev_max = np.abs(env_max - ref_max) / device.g_max
    dev_min = np.abs(env_min - ref_min) / device.g_max
    return EnvelopeReport(
        env_min=env_min,
        env_max=env_max,
        max_rel_deviation=float(max(dev_max.max(), dev_min.max())),
    )
