"""Wireless quantities: bistatic measurement SNR, port-dependent fluid
antenna gain, uplink SINR and transmission latency.

The measuring link (active UAV -> target -> passive UAV) is line of
sight; only its SNR matters downstream.  The uplink (passive UAV ->
ground station) runs through a linear fluid antenna whose active port
shifts the per-path phase, so the gain depends on which of the N ports
is selected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .world import norms

LIGHT_SPEED = 3.0e8


class ChannelError(ValueError):
    """Invalid channel geometry or parameter."""


# The radio constants.  A dB loss L is a power loss: the field amplitude
# scales by 10^(-L/20).
TX_POWER_ACTIVE = 10.0      # W, measuring signal
TX_POWER_PASSIVE = 5.0      # W, uplink
UNIT_PATH_GAIN = 1e-3       # linear LoS gain at 1 m
REFLECT_COEFF = 0.5         # target reflection, unitless
NOISE_POWER = 1e-12         # W, AWGN on the measuring link (-90 dBm)
FAS_SIZE = 5.0              # aperture / (LIGHT_SPEED / CARRIER_FREQ)
CARRIER_FREQ = 2e9          # Hz, uplink carrier
REF_DISTANCE = 1.0          # m
PATH_LOSS_EXP = 2.7
SHADOW_STD_DB = 4.0
RICIAN_K = 10.0             # deterministic-to-scattered path power ratio;
                            # 0 -> pure complex-normal fading (port response
                            # then unpredictable from the observed
                            # departure angles)
DOMINANT_PATHS = 2          # paths carrying most of the power, as in a
                            # direct + ground-reflection geometry
DOMINANT_SHARE = 0.75       # total power carried by the dominant set
DATA_BITS = 1000.0          # payload per slot
BANDWIDTH = 1e6             # Hz
UPLINK_NOISE = 3e-12        # W, denominator noise term of the SINR


@dataclass(frozen=True)
class ChannelDraw:
    """One slot's uplink channel realization for passive UAVs (...)."""

    fading: np.ndarray      # (..., I) complex path coefficients
    cos_aod: np.ndarray     # (..., I) cosines of the departure angles
    shadow_db: np.ndarray   # (...) shadowing samples, dB


def _per_element(fn, x) -> np.ndarray:
    """fn over the elements of x as Python floats, for the math (log10,
    log2, powers) whose numpy ufunc or array power rounds differently."""
    x = np.asarray(x, float)
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


@functools.lru_cache(maxsize=16)
def path_power_profile(n_paths: int) -> np.ndarray:
    """Per-path power weights, unit total, read-only: every draw shares it.

    The first DOMINANT_PATHS paths share DOMINANT_SHARE of the power
    (direct ray plus strong reflections), the rest split the rest; with
    no more paths than that, all paths carry equal power.
    """
    i = n_paths
    d = min(DOMINANT_PATHS, i)
    if d == i:
        profile = np.full(i, 1.0 / i)
    else:
        share = DOMINANT_SHARE
        profile = np.repeat([share / d, (1.0 - share) / (i - d)], [d, i - d])
    profile.setflags(write=False)
    return profile


def draw_channel(rng: np.random.Generator, cos_aod: np.ndarray) -> ChannelDraw:
    """Draw a per-slot channel realization per row of cos_aod (..., I), the
    cosines of the departure angles of the I = n_paths uplink paths the
    episode draws once (coherent geometry).

    Every path has unit mean power, E|fading_i|^2 = 1; path_power_profile
    sets how the total of n_paths is split across the paths (path i gets
    n_paths * profile_i).  A positive RICIAN_K concentrates each path's
    power in a deterministic zero-phase component so that the port
    response is predictable from the departure angles.  Each row draws
    its scatter's real parts, imaginary parts and shadowing in turn.
    """
    cos_aod = np.asarray(cos_aod, dtype=float)
    i = cos_aod.shape[-1]
    z = rng.standard_normal((*cos_aod.shape[:-1], 2 * i + 1))
    k = RICIAN_K
    scatter = (z[..., :i] + 1j * z[..., i:2 * i]) / math.sqrt(2.0)
    fading = math.sqrt(k / (k + 1.0)) + math.sqrt(1.0 / (k + 1.0)) * scatter
    fading = fading * np.sqrt(i * path_power_profile(i))
    return ChannelDraw(fading=fading, cos_aod=cos_aod,
                       shadow_db=SHADOW_STD_DB * z[..., -1])


def bistatic_snr(q0, qk, u) -> np.ndarray:
    """Linear SNR p0 * a0^2 * beta^2 / (noise * d0^2 * dk^2) of the reflected
    measuring signal at passive UAVs qk (..., 3), with d0 the active-target
    and dk the target-passive distance."""
    d0 = norms(np.asarray(q0, float) - u)
    dk = norms(np.asarray(u, float) - qk)
    if ((d0 == 0.0) | (dk == 0.0)).any():
        raise ChannelError("target coincides with a UAV")
    num = TX_POWER_ACTIVE * UNIT_PATH_GAIN ** 2 * REFLECT_COEFF ** 2
    sq0, sqk = (_per_element(lambda d: d ** 2, d) for d in (d0, dk))
    return (num / (NOISE_POWER * sq0 * sqk))[()]


def path_loss_db(r, shadow_db=0.0) -> np.ndarray:
    """Distance-dependent uplink path loss in dB at distances r (...),
    plus shadowing samples."""
    r = np.asarray(r, float)
    if (r < REF_DISTANCE).any():
        raise ChannelError(f"distance {r} below reference {REF_DISTANCE}")
    free_space = 20.0 * math.log10(REF_DISTANCE * CARRIER_FREQ
                                   * 4.0 * math.pi / LIGHT_SPEED)
    return (free_space + 10.0 * PATH_LOSS_EXP * _per_element(math.log10, r)
            + shadow_db)[()]


def fas_gain(draw: ChannelDraw, port, n_ports: int,
             loss_db=0.0) -> np.ndarray:
    """Complex uplink gains of draw's rows (...) at their antenna ports (...)
    of an n_ports grid (one draw's at every port: fas_gain(draw,
    arange(1, N + 1), N)).
    loss_db is path_loss_db's output for these UAVs and this slot; 0 keeps
    the response unscaled, which the geometry-only tests use."""
    port = np.asarray(port)
    off = port[(port < 1) | (port > n_ports)]
    if off.size:
        raise ChannelError(f"port {off[0]} outside 1..{n_ports}")
    amp = _per_element(lambda loss: 10.0 ** (-loss / 20.0), loss_db)
    # phase slope per port index: 2*pi*S/(N-1) * n * cos(aod)
    coeff = 2.0 * math.pi * FAS_SIZE / (n_ports - 1)
    phases = np.exp(-1j * coeff * (port.astype(float)[..., None] * draw.cos_aod))
    return np.sum(draw.fading * amp[..., None] * phases, axis=-1)[()]


def uplink_sinr(gains) -> np.ndarray:
    """Uplink SINRs over the last axis of gains (..., K); every other
    passive UAV of a row acts as interference."""
    g2 = np.abs(np.asarray(gains)) ** 2
    own = TX_POWER_PASSIVE * g2
    total = own.sum(axis=-1, keepdims=True)
    return own / (total - own + UPLINK_NOISE)


def uplink_latency(sinr: float) -> float:
    """Seconds to deliver the range report; infinite where the rate is 0
    (an SINR of 0, or one so small that 1 + sinr rounds to 1)."""
    if sinr < 0:
        raise ChannelError("sinr must be nonnegative")
    rate = BANDWIDTH * math.log2(1.0 + sinr)
    return math.inf if rate == 0.0 else DATA_BITS / rate


def uplink_latencies(sinrs) -> np.ndarray:
    return _per_element(uplink_latency, sinrs)
