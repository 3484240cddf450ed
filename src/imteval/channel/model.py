"""Drop-path propagation curves: LOS probability and LOS/NLOS pathloss,
evaluated by ``engine.compute_coupling`` on whole UE x TRxP matrices."""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError
from .profiles import ChannelProfile

SPEED_OF_LIGHT = 299_792_458.0


# per-model decay distance (m) of the 3GPP macro and micro LOS curves
_LOS_DECAY_M = {"uma": 63.0, "umi": 36.0}


def los_probability(model: str, d2d_m):
    """Distance-to-LOS-probability curves, monotone non-increasing."""
    d = np.asarray(d2d_m, dtype=float)
    if d.size and not (d.min() >= 0.0):
        raise DomainError("2D distance must be >= 0 and not NaN")
    if model == "always":
        p = np.ones_like(d)
    elif model in _LOS_DECAY_M:
        with np.errstate(divide="ignore", invalid="ignore"):
            near = 18.0 / d
            far = near + np.exp(-d / _LOS_DECAY_M[model]) * (1.0 - near)
        p = np.where(d <= 18.0, 1.0, far)
    elif model == "rma":
        p = np.where(d <= 10.0, 1.0, np.exp(-(d - 10.0) / 1000.0))
    elif model == "inh":
        mid = np.exp(-(d - 1.2) / 4.7)
        far = 0.32 * np.exp(-(d - 6.5) / 32.6)
        p = np.where(d <= 1.2, 1.0, np.where(d < 6.5, mid, far))
    else:
        raise DomainError(f"unknown LOS probability model '{model}'")
    p = np.clip(p, 0.0, 1.0)
    return p if p.ndim else float(p)


def free_space_1m_db(fc_hz: float) -> float:
    return 20.0 * math.log10(4.0 * math.pi * fc_hz / SPEED_OF_LIGHT)


def breakpoint_distance_m(fc_hz: float, h_tx_m: float, h_rx_m: float) -> float:
    # effective antenna heights with a 1 m environment offset
    he_tx = max(h_tx_m - 1.0, 0.5)
    he_rx = max(h_rx_m - 1.0, 0.5)
    return 4.0 * he_tx * he_rx * fc_hz / SPEED_OF_LIGHT


def pathloss_curves(profile: ChannelProfile, fc_hz: float, d3d_m, h_tx_m: float, h_rx_m: float):
    """(LOS curve, NLOS curve) in dB at the given 3D distances.

    The LOS curve is dual-slope log-distance anchored at the 1 m free-space
    value; the NLOS curve is single-slope with an offset and floored at the
    LOS value so NLOS >= LOS everywhere.
    """
    d = np.asarray(d3d_m, dtype=float)
    anchor = free_space_1m_db(fc_hz)
    p_los = profile.los
    p_nlos = profile.nlos
    dbp = breakpoint_distance_m(fc_hz, h_tx_m, h_rx_m)
    with np.errstate(divide="ignore"):
        pl_los = (anchor
                  + 10.0 * p_los.pl_exp1 * np.log10(np.minimum(d, dbp))
                  + 10.0 * p_los.pl_exp2 * np.log10(np.maximum(d / dbp, 1.0)))
        pl_nlos_raw = anchor + 10.0 * p_nlos.nlos_exp * np.log10(d) + p_nlos.nlos_offset_db
    return pl_los, np.maximum(pl_los, pl_nlos_raw)
