"""Wireless quantities: bistatic measurement SNR, port-dependent fluid
antenna gain, uplink SINR and transmission latency.

The measuring link (active UAV -> target -> passive UAV) is line of
sight; only its SNR matters downstream.  The uplink (passive UAV ->
ground station) runs through a linear fluid antenna whose active port
shifts the per-path phase, so the gain depends on which of the N ports
is selected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LIGHT_SPEED = 3.0e8


class ChannelError(ValueError):
    """Invalid channel geometry or parameter."""


@dataclass(frozen=True)
class ChannelParams:
    """All radio constants.

    dB figures convert to linear amplitude via 10^(-L/amp_db_divisor);
    the divisor 10 applies the path-loss exponent literally to the field
    amplitude, 20 reads the dB figure as a power loss (the physically
    standard convention, and the default here).
    """

    tx_power_active: float = 10.0     # W, measuring signal
    tx_power_passive: float = 5.0     # W, uplink
    unit_path_gain: float = 1e-3      # linear LoS gain at 1 m
    reflect_coeff: float = 0.5        # target reflection, unitless
    noise_power: float = 1e-12        # W, AWGN on the measuring link (-90 dBm)
    n_ports: int = 32
    fas_size: float = 5.0             # aperture / (LIGHT_SPEED / carrier_freq)
    carrier_freq: float = 2e9         # Hz, uplink carrier
    ref_distance: float = 1.0         # m
    path_loss_exp: float = 2.7
    shadow_std_db: float = 4.0
    n_paths: int = 5                  # uplink multipath count
    rician_k: float = 10.0            # deterministic-to-scattered path power
                                      # ratio; 0 -> pure complex-normal fading
                                      # (port response then unpredictable from
                                      # the observed departure angles)
    dominant_paths: int = 2           # paths carrying most of the power, as in
                                      # a direct + ground-reflection geometry;
                                      # 0 -> equal power on every path
    dominant_share: float = 0.75      # total power carried by the dominant set
    amp_db_divisor: float = 20.0      # 10 = verbatim amplitude reading
    data_bits: float = 1000.0         # payload per slot
    bandwidth: float = 1e6            # Hz
    uplink_noise: float = 3e-12       # W, denominator noise term of the SINR

    def __post_init__(self):
        if self.tx_power_active <= 0 or self.tx_power_passive <= 0:
            raise ChannelError("transmit powers must be positive")
        if self.n_ports < 2:
            raise ChannelError("need at least 2 antenna ports")
        if self.fas_size <= 0:
            raise ChannelError("fas_size must be positive")
        if self.n_paths < 1:
            raise ChannelError("need at least one propagation path")


@dataclass(frozen=True)
class ChannelDraw:
    """One slot's uplink channel realization for one passive UAV."""

    fading: np.ndarray      # (I,) complex path coefficients
    aod: np.ndarray         # (I,) departure angles, radians in [0, pi]
    shadow_db: float        # shadowing sample, dB


def path_power_profile(params: ChannelParams) -> np.ndarray:
    """Per-path power weights, unit total.

    With dominant_paths > 0 the first paths share dominant_share of the
    power (direct ray plus strong reflections), the rest split the rest;
    otherwise all paths carry equal power.
    """
    i = params.n_paths
    d = min(params.dominant_paths, i)
    if d <= 0 or d == i:
        return np.full(i, 1.0 / i)
    profile = np.empty(i)
    profile[:d] = params.dominant_share / d
    profile[d:] = (1.0 - params.dominant_share) / (i - d)
    return profile


def draw_channel(rng: np.random.Generator, params: ChannelParams,
                 aod: np.ndarray | None = None) -> ChannelDraw:
    """Draw a per-slot channel realization.

    Every path has unit mean power, E|fading_i|^2 = 1; path_power_profile
    sets how the total of n_paths is split across the paths (path i gets
    n_paths * profile_i).  A positive rician_k concentrates each path's
    power in a deterministic zero-phase component so that the port
    response is predictable from the departure angles.  Pass aod to reuse
    angles across slots (coherent geometry).
    """
    i = params.n_paths
    if aod is None:
        aod = rng.uniform(0.0, math.pi, i)
    else:
        aod = np.asarray(aod, dtype=float)
        if aod.shape != (i,):
            raise ChannelError(f"aod must have shape ({i},)")
    k = params.rician_k
    scatter = (rng.standard_normal(i) + 1j * rng.standard_normal(i)) / math.sqrt(2.0)
    fading = math.sqrt(k / (k + 1.0)) + math.sqrt(1.0 / (k + 1.0)) * scatter
    fading = fading * np.sqrt(i * path_power_profile(params))
    shadow = rng.normal(0.0, params.shadow_std_db)
    return ChannelDraw(fading=fading, aod=aod, shadow_db=float(shadow))


def bistatic_snr(q0, qk, u, params: ChannelParams) -> float:
    """Linear SNR of the reflected measuring signal at passive UAV k.

    p0 * a0^2 * beta^2 / (noise * d0^2 * dk^2) with d0 the active-target
    and dk the target-passive distance.
    """
    q0 = np.asarray(q0, float)
    qk = np.asarray(qk, float)
    u = np.asarray(u, float)
    d0 = float(np.linalg.norm(q0 - u))
    dk = float(np.linalg.norm(u - qk))
    if d0 == 0.0 or dk == 0.0:
        raise ChannelError("target coincides with a UAV")
    num = (params.tx_power_active * params.unit_path_gain ** 2
           * params.reflect_coeff ** 2)
    return num / (params.noise_power * d0 ** 2 * dk ** 2)


def path_loss_db(r: float, params: ChannelParams, shadow_db: float = 0.0) -> float:
    """Distance-dependent uplink path loss in dB, plus a shadowing sample."""
    if r < params.ref_distance:
        raise ChannelError(f"distance {r} below reference {params.ref_distance}")
    free_space = 20.0 * math.log10(params.ref_distance * params.carrier_freq
                                   * 4.0 * math.pi / LIGHT_SPEED)
    return (free_space + 10.0 * params.path_loss_exp * math.log10(r)
            + shadow_db)


def _port_phases(params: ChannelParams, port: np.ndarray, aod: np.ndarray) -> np.ndarray:
    # phase slope per port index: 2*pi*S/(N-1) * n * cos(aod)
    coeff = 2.0 * math.pi * params.fas_size / (params.n_ports - 1)
    return np.exp(-1j * coeff * np.multiply.outer(port, np.cos(aod)))


def fas_gain(draw: ChannelDraw, port: int, params: ChannelParams,
             loss_db: float = 0.0) -> complex:
    """Complex uplink gain at one antenna port.

    loss_db is the output of path_loss_db for this UAV and slot; 0 keeps
    the response unscaled, which the geometry-only tests use.
    """
    if not 1 <= port <= params.n_ports:
        raise ChannelError(f"port {port} outside 1..{params.n_ports}")
    amp = 10.0 ** (-loss_db / params.amp_db_divisor)
    phases = _port_phases(params, np.array([float(port)]), draw.aod)[0]
    return complex(np.sum(draw.fading * amp * phases))


def fas_gain_all_ports(draw: ChannelDraw, params: ChannelParams,
                       loss_db: float = 0.0) -> np.ndarray:
    """Complex gains for every port 1..N at once."""
    amp = 10.0 ** (-loss_db / params.amp_db_divisor)
    ports = np.arange(1, params.n_ports + 1, dtype=float)
    phases = _port_phases(params, ports, draw.aod)
    return phases @ (draw.fading * amp)


def uplink_sinr(gains, params: ChannelParams) -> np.ndarray:
    """Per-UAV uplink SINR; every other passive UAV acts as interference."""
    g2 = np.abs(np.asarray(gains)) ** 2
    own = params.tx_power_passive * g2
    total = own.sum()
    return own / (total - own + params.uplink_noise)


def uplink_latency(sinr: float, params: ChannelParams) -> float:
    """Seconds to deliver the range report; infinite at zero SINR."""
    if sinr < 0:
        raise ChannelError("sinr must be nonnegative")
    if sinr == 0.0:
        return math.inf
    rate = params.bandwidth * math.log2(1.0 + sinr)
    return params.data_bits / rate


def uplink_latencies(sinrs, params: ChannelParams) -> np.ndarray:
    return np.array([uplink_latency(float(s), params) for s in np.asarray(sinrs)])
