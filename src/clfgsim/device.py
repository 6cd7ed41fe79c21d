"""Quantum-dot transport oracle and band-limited tank-circuit readout.

The dot is a single-island Coulomb-blockade conductance model with
thermally broadened peaks:

    g(v_eff) = g_max / cosh((v_eff - nearest peak) / peak_width)**2

where v_eff = sum_i lever[i] * V_i + v_offset and peaks sit at integer
multiples of `peak_spacing` in v_eff.  The readout chain is reduced to a
first-order low-pass at the tank bandwidth; only the bandwidth limit
matters to the verification signatures this oracle is used for.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.signal import lfilter

from .errors import SimulationError

# 2 e^2 / h, the natural conductance scale for a near-open dot.
CONDUCTANCE_QUANTUM_S = 7.748091729e-5


class UnknownGate(SimulationError):
    pass


class SampleRateTooLow(SimulationError):
    pass


class AxisMismatch(SimulationError):
    pass


@dataclass(frozen=True)
class DotDevice:
    """Coulomb-blockade conductance model for one dot."""

    gate_levers: Mapping[str, float] = field(default_factory=dict)
    peak_spacing: float = 0.010
    peak_width: float = 0.0008
    g_max: float = CONDUCTANCE_QUANTUM_S
    v_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.peak_spacing <= 0 or self.peak_width <= 0 or self.g_max <= 0:
            raise ValueError("peak_spacing, peak_width and g_max must be positive")


@dataclass(frozen=True)
class TankReadout:
    """First-order stand-in for the LC tank readout chain."""

    bandwidth_hz: float = 10e6
    sample_rate_hz: float = 100e6

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0 or self.sample_rate_hz <= 0:
            raise ValueError("bandwidth_hz and sample_rate_hz must be positive")


def effective_voltage(device: DotDevice, gate_voltages: Mapping[str, object]):
    """Lever-arm weighted sum of the supplied gate voltages."""
    unknown = set(gate_voltages) - set(device.gate_levers)
    if unknown:
        raise UnknownGate(f"no lever arm for gate(s) {sorted(unknown)}")
    v_eff = device.v_offset
    for gate, voltage in gate_voltages.items():
        v_eff = v_eff + device.gate_levers[gate] * np.asarray(voltage)
    return v_eff


def conductance(device: DotDevice, gate_voltages: Mapping[str, object]):
    """Dot conductance in siemens; scalar or array depending on input.

    Periodic in v_eff with period `peak_spacing`; maximal (g_max) on a
    peak and suppressed as cosh**-2 away from it.
    """
    v_eff = effective_voltage(device, gate_voltages)
    d = v_eff - device.peak_spacing * np.round(v_eff / device.peak_spacing)
    g = device.g_max / np.cosh(d / device.peak_width) ** 2
    if np.ndim(g) == 0:
        return float(g)
    return g


def _one_pole_coeff(tank: TankReadout) -> float:
    return 1.0 - float(np.exp(-2.0 * np.pi * tank.bandwidth_hz / tank.sample_rate_hz))


def _low_pass(x: np.ndarray, tank: TankReadout) -> np.ndarray:
    """One-pole low-pass along the last axis, started settled at x[..., 0].

    Discrete form y[n] = (1-a) y[n-1] + a x[n] with a chosen so the
    continuous-time bandwidth is `bandwidth_hz`; DC gain is exactly 1.
    """
    a = _one_pole_coeff(tank)
    zi = (1.0 - a) * x[..., :1]
    y, _ = lfilter([a], [1.0, -(1.0 - a)], x, axis=-1, zi=zi)
    return y


def require_sample_rate(tank: TankReadout) -> None:
    """Raise SampleRateTooLow unless traces reach the tank at >= 10x its bandwidth.

    Below that the sampled one-pole filter no longer has the tank's shape.
    """
    if tank.sample_rate_hz < 10.0 * tank.bandwidth_hz:
        raise SampleRateTooLow(
            f"sample rate {tank.sample_rate_hz:g} Hz < 10 x bandwidth "
            f"{tank.bandwidth_hz:g} Hz"
        )


def readout(
    device: DotDevice, tank: TankReadout, v_gate_trace: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Readout signal for uniformly sampled gate-voltage traces.

    Pointwise conductance mapped through the tank's first-order low-pass.
    """
    require_sample_rate(tank)
    g = np.asarray(conductance(device, v_gate_trace), dtype=float)
    if g.ndim == 0:
        raise ValueError("v_gate_trace must contain at least one sampled array")
    return _low_pass(g, tank)


@dataclass(frozen=True)
class EnvelopeReport:
    """Per-sweep-point envelope of a pulsed readout vs the static traces."""

    env_min: np.ndarray
    env_max: np.ndarray
    deviation_min: np.ndarray
    deviation_max: np.ndarray
    max_rel_deviation: float


def envelope_check(
    device: DotDevice,
    tank: TankReadout,
    pulsed_trace: np.ndarray,
    static_low_trace: np.ndarray,
    static_high_trace: np.ndarray,
    settle_fraction: float = 0.5,
) -> EnvelopeReport:
    """Compare the envelope of a pulsed readout with two static sweeps.

    `pulsed_trace` holds one conductance time series per sweep point
    (shape n_sweep x n_time, uniformly sampled at the tank sample rate);
    it is low-pass filtered here, the first `settle_fraction` of each
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
        raise AxisMismatch(
            f"sweep axes differ: pulsed {pulsed.shape[0]}, "
            f"low {s_lo.shape[0]}, high {s_hi.shape[0]}"
        )
    if not 0.0 <= settle_fraction < 1.0:
        raise ValueError("settle_fraction must be in [0, 1)")
    filtered = _low_pass(pulsed, tank)
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
        deviation_min=dev_min,
        deviation_max=dev_max,
        max_rel_deviation=float(max(dev_max.max(), dev_min.max())),
    )


def infer_gate_drift_rate(
    device: DotDevice,
    gate: str,
    static_gates: Mapping[str, float],
    times_s: np.ndarray,
    g_trace: np.ndarray,
    probe_dv: float = 1e-6,
) -> float:
    """Recover a gate's drift rate (V/s) from a conductance time series.

    The flank-slope method: bias on the flank of a peak, fit dG/dt from
    the measured trace, convert with a numerically probed dG/dV at the
    bias point.  This is the in-model analogue of watching the transport
    current while a held gate voltage leaks.
    """
    times_s = np.asarray(times_s, dtype=float)
    g_trace = np.asarray(g_trace, dtype=float)
    if times_s.shape != g_trace.shape:
        raise AxisMismatch("times and conductance trace differ in length")
    if gate not in device.gate_levers:
        raise UnknownGate(f"no lever arm for gate {gate!r}")
    slope = np.polyfit(times_s, g_trace, 1)[0]
    v0 = float(static_gates[gate])
    up = dict(static_gates, **{gate: v0 + probe_dv})
    dn = dict(static_gates, **{gate: v0 - probe_dv})
    dg_dv = (conductance(device, up) - conductance(device, dn)) / (2.0 * probe_dv)
    if dg_dv == 0.0:
        raise ValueError("dG/dV is zero at the bias point; not on a flank")
    return float(slope / dg_dv)
