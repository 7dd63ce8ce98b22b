"""Uplink budget model: NLoS path loss, log-normal shadowing, Rayleigh
fading, Shannon rate, and the resulting per-window token budget.

All stochastic draws go through explicit RngStream arguments, so Monte-Carlo
sweeps are reproducible and parallelizable with per-lane streams.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .rng import RngStream


@dataclass
class ChannelParams:
    """Radio parameters; defaults follow a 2.4 GHz urban NLoS uplink."""
    f_c_ghz: float = 2.4
    d_c_m: float = 100.0
    bandwidth_hz: float = 10e6
    tx_power_dbm: float = 23.0
    noise_psd_dbm_hz: float = -174.0
    shadowing_std_db: float = 7.8
    t_ul_s: float = 0.1
    bits_per_token: int = 1024  # one offloaded token: d * bits_per_value bits

    def __post_init__(self):
        if self.f_c_ghz <= 0 or self.d_c_m < 1:
            raise ValueError("carrier frequency must be > 0 and distance >= 1 m")
        if self.bandwidth_hz <= 0 or self.t_ul_s <= 0 or self.bits_per_token <= 0:
            raise ValueError("bandwidth, uplink time, and bits per token must be positive")
        # `token_budget` divides a float64 rate by it
        if self.bits_per_token > sys.float_info.max:
            raise ValueError(f"bits per token (channel.bits_per_token, or model.d * "
                             f"channel.bits_per_value when it is 0) is about "
                             f"1e{math.log10(self.bits_per_token):.0f}, above the float64 range")
        if self.shadowing_std_db < 0:
            raise ValueError("shadowing std must be nonnegative")
        # a +-10 sigma draw then keeps 10**(xi/10) a finite, nonzero float64
        # (overflow starts at 3,083 dB)
        if self.shadowing_std_db > 300:
            raise ValueError(f"channel.shadowing_std_db {self.shadowing_std_db:g} dB exceeds 300 dB")


@dataclass(slots=True)
class ChannelRealization:
    """One uplink draw under `params`: shadowing psi, fading chi and the
    token budget m_ul they give. Path loss, SNR and rate follow from these
    and are recomputed when read, so a kept draw holds two floats."""
    params: ChannelParams
    psi: float
    chi: float
    m_ul: int

    @property
    def pl_db(self) -> float:
        return path_loss_db(self.params.f_c_ghz, self.params.d_c_m)

    @property
    def snr(self) -> float:
        return float(uplink_chain(self.params, self.pl_db, self.psi, self.chi)[1])

    @property
    def rate_bps(self) -> float:
        return float(uplink_chain(self.params, self.pl_db, self.psi, self.chi)[2])


def path_loss_db(f_c_ghz: float, d_c_m: float) -> float:
    """NLoS urban path loss: 32.4 + 20 log10 f[GHz] + 30 log10 d[m]."""
    if f_c_ghz <= 0:
        raise ValueError(f"carrier frequency must be positive, got {f_c_ghz}")
    if d_c_m < 1:
        raise ValueError(f"distance must be >= 1 m, got {d_c_m}")
    return 32.4 + 20.0 * math.log10(f_c_ghz) + 30.0 * math.log10(d_c_m)


def sample_shadowing(rng: RngStream, sigma_db: float, size=None):
    """Log-normal shadowing: psi = 10^(xi/10), xi ~ N(0, sigma^2)."""
    if sigma_db < 0:
        raise ValueError("sigma must be nonnegative")
    xi = rng.normal(0.0, sigma_db, size)
    return np.power(10.0, np.asarray(xi) / 10.0) if size is not None else 10.0 ** (xi / 10.0)


def sample_fading(rng: RngStream, size=None):
    """Rayleigh power gain: chi = |eta|^2 with eta ~ CN(0,1); Exp(1)."""
    a = rng.normal(0.0, math.sqrt(0.5), size)
    b = rng.normal(0.0, math.sqrt(0.5), size)
    return a * a + b * b


def channel_gain(pl_db: float, psi, chi):
    return np.power(10.0, -np.asarray(pl_db, dtype=float) / 10.0) * psi * chi


def snr_linear(h_ul, params: ChannelParams):
    """Linear SNR = P h / (N0 W), with P and N0 converted from dBm scale."""
    try:
        p_mw = 10.0 ** (params.tx_power_dbm / 10.0)
        n_mw = 10.0 ** (params.noise_psd_dbm_hz / 10.0) * params.bandwidth_hz
    except OverflowError:
        raise ValueError(f"transmit power {params.tx_power_dbm:g} dBm or noise density "
                         f"{params.noise_psd_dbm_hz:g} dBm/Hz overflows in mW") from None
    return p_mw * h_ul / n_mw


def rate_bps(snr, bandwidth_hz: float):
    return bandwidth_hz * np.log2(1.0 + snr)


def token_budget(rate, t_ul_s: float, bits_per_tok: int):
    """Whole tokens transmittable in one uplink window (fraction floored):
    an int for a scalar rate, an int64 array for an array of rates."""
    if t_ul_s <= 0 or bits_per_tok <= 0:
        raise ValueError("uplink time and bits per token must be positive")
    m = np.floor(t_ul_s * np.asarray(rate) / bits_per_tok)
    if not np.all(m < 2.0 ** 63):  # false for inf and NaN too
        raise ValueError(f"token budget {np.max(m):g} per uplink window does not fit "
                         f"in int64 (uplink time {t_ul_s:g} s)")
    return int(m) if m.ndim == 0 else m.astype(np.int64)


def uplink_chain(params: ChannelParams, pl_db: float, psi, chi) -> tuple:
    """Gain -> SNR -> rate -> token budget, for scalar or array draws of
    shadowing and fading. Returns (h_ul, snr, rate_bps, m_ul); an overflow
    on the way ends as a budget that `token_budget` rejects."""
    with np.errstate(all="ignore"):
        h = channel_gain(pl_db, psi, chi)
        s = snr_linear(h, params)
        r = rate_bps(s, params.bandwidth_hz)
        return h, s, r, token_budget(r, params.t_ul_s, params.bits_per_token)


def draw_realization(
    params: ChannelParams,
    rng: RngStream,
    deterministic: bool = False,
) -> ChannelRealization:
    """One stochastic uplink draw; deterministic mode pins psi = chi = 1."""
    pl = path_loss_db(params.f_c_ghz, params.d_c_m)
    if deterministic:
        psi, chi = 1.0, 1.0
    else:
        psi = float(sample_shadowing(rng, params.shadowing_std_db))
        chi = float(sample_fading(rng))
    return ChannelRealization(params, psi, chi, uplink_chain(params, pl, psi, chi)[3])


def budget_samples(params: ChannelParams, rng: RngStream, n: int) -> np.ndarray:
    """Vectorized m_ul draws for Monte-Carlo sweeps."""
    pl = path_loss_db(params.f_c_ghz, params.d_c_m)
    psi = sample_shadowing(rng, params.shadowing_std_db, size=n)
    chi = sample_fading(rng, size=n)
    return uplink_chain(params, pl, psi, chi)[3]
