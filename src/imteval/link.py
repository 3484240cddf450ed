"""Link budget arithmetic: dB conversions, noise, uplink power control and
the SINR-to-rate / SINR-to-BLER abstraction with HARQ.

The link abstraction (truncated-capacity map plus a parametric BLER
waterfall) stands in for proprietary link-level simulators; its parameters
are ordinary configuration and every KPI that uses them reports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

DOWNLINK = "downlink"
UPLINK = "uplink"

# one PF scheduling decision per interval; also the normalized Doppler's time base
SCHEDULING_INTERVAL_S = 1e-3


def db_to_lin(db, out=None):
    """10 ** (db / 10); ``out`` receives the result when given and may be
    ``db`` itself."""
    x = np.divide(np.asarray(db, dtype=float), 10.0, out=out)
    return np.power(10.0, x, out=out)


def lin_to_db(lin):
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.asarray(lin, dtype=float))


def noise_power(bandwidth_hz: float, noise_figure_db: float, density_dbm_hz: float) -> float:
    """Noise power in dBm over the given bandwidth at the given thermal
    noise density."""
    DomainError.require_positive(bandwidth_hz=bandwidth_hz)
    return density_dbm_hz + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def uplink_power_control(coupling_db, p0_dbm: float, alpha: float, p_max_dbm: float):
    """Open-loop UE transmit power in dBm, min(p_max, p0 + alpha * coupling
    loss), elementwise over the serving coupling losses."""
    coupling = np.asarray(coupling_db, dtype=float)
    if not np.isfinite(coupling).all():
        raise DomainError("coupling loss must be finite")
    p = np.minimum(p_max_dbm, p0_dbm + alpha * coupling)
    return p if p.ndim else float(p)


@dataclass(frozen=True)
class LinkParams:
    """Per-scenario link abstraction bundle carried by the configuration; the
    formulas below read it, and scenario.validate checks its ranges."""

    alpha: float = 0.6
    se_max_dl: float = 7.4
    se_max_ul: float = 5.5
    sinr_min_db: float = -10.0
    csi_backoff_db: float = 1.0  # stands in for estimation/feedback error
    bler_sinr_50_db: float = -5.0
    bler_slope_db: float = 2.0
    bler_floor: float = 1e-9
    harq_max_transmissions: int = 4
    harq_tx_time_s: float = 0.25e-3
    harq_combining_gain_db: float = 0.0
    ul_p0_dbm: float = -90.0
    ul_alpha: float = 1.0
    ul_iot_target_db: float = 10.0
    # idealized spatial multiplexing order of the scheduler (MU-MIMO layers)
    mu_layers_dl: int = 4
    mu_layers_ul: int = 2


def sinr_to_se(link: LinkParams, direction: str, sinr_db):
    """Spectral efficiency in bit/s/Hz: 0 below cutoff, capped at the
    direction's se_max."""
    s = np.asarray(sinr_db, dtype=float)
    se = link.alpha * np.log2(1.0 + db_to_lin(s))
    se = np.minimum(se, {DOWNLINK: link.se_max_dl, UPLINK: link.se_max_ul}[direction])
    se = np.where(s < link.sinr_min_db, 0.0, se)
    return se if se.ndim else float(se)


def bler(link: LinkParams, sinr_db):
    """Block error probability at the given SINR (monotone non-increasing):
    a log-linear waterfall, bler_slope_db dB per decade through
    (bler_sinr_50_db, 0.5), floored at bler_floor."""
    s = np.asarray(sinr_db, dtype=float)
    log_bler = math.log10(0.5) - (s - link.bler_sinr_50_db) / link.bler_slope_db
    out = np.clip(10.0 ** log_bler, link.bler_floor, 1.0)
    return out if out.ndim else float(out)


def harq_success_probability(link: LinkParams, sinr_db: float, latency_budget_s: float) -> float:
    """Residual-error arithmetic for up to k transmissions within the budget.

    k = min(harq_max_transmissions, floor(budget / harq_tx_time_s)); each
    retransmission sees the SINR improved by harq_combining_gain_db. A
    budget too short for even one transmission yields success 0.
    """
    DomainError.require_positive(latency_budget_s=latency_budget_s)
    if math.isnan(sinr_db):
        raise DomainError("SINR must not be NaN")
    k = min(link.harq_max_transmissions,
            int(math.floor(latency_budget_s / link.harq_tx_time_s + 1e-12)))
    p_all_failed = 1.0
    for i in range(1, k + 1):
        p_all_failed *= bler(link, sinr_db + (i - 1) * link.harq_combining_gain_db)
    return 1.0 - p_all_failed
