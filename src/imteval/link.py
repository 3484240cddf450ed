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

from .errors import ConfigInvalid, DomainError

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
class LinkAbstraction:
    """Truncated-capacity SINR-to-spectral-efficiency map."""

    efficiency: float = 0.6
    se_max: float = 7.4
    sinr_min_db: float = -10.0

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise DomainError("efficiency must be in (0, 1]", "efficiency")
        if self.se_max <= 0:
            raise DomainError("se_max must be > 0", "se_max")


def sinr_to_se(abstraction: LinkAbstraction, sinr_db):
    """Spectral efficiency in bit/s/Hz: 0 below cutoff, capped at se_max."""
    s = np.asarray(sinr_db, dtype=float)
    se = abstraction.efficiency * np.log2(1.0 + db_to_lin(s))
    se = np.minimum(se, abstraction.se_max)
    se = np.where(s < abstraction.sinr_min_db, 0.0, se)
    return se if se.ndim else float(se)


@dataclass(frozen=True)
class BlerModel:
    """Log-linear BLER waterfall: slope dB per decade through (sinr_50, 0.5)."""

    sinr_50_db: float = -5.0
    slope_db_per_decade: float = 2.0
    bler_floor: float = 1e-9

    def __post_init__(self):
        if self.slope_db_per_decade <= 0:
            raise DomainError("slope must be > 0", "slope_db_per_decade")
        if not 0.0 <= self.bler_floor < 1.0:
            raise DomainError("bler_floor must be in [0, 1)", "bler_floor")


def bler(model: BlerModel, sinr_db):
    """Block error probability at the given SINR (monotone non-increasing)."""
    s = np.asarray(sinr_db, dtype=float)
    log_bler = math.log10(0.5) - (s - model.sinr_50_db) / model.slope_db_per_decade
    out = np.clip(10.0 ** log_bler, model.bler_floor, 1.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class HarqConfig:
    """Bounded retransmissions counted against a latency budget."""

    max_transmissions: int = 4
    per_transmission_time_s: float = 0.25e-3
    combining_gain_db: float = 0.0

    def __post_init__(self):
        if self.max_transmissions < 1:
            raise DomainError("max_transmissions must be >= 1", "max_transmissions")
        if self.per_transmission_time_s <= 0:
            raise DomainError("per_transmission_time_s must be > 0",
                              "per_transmission_time_s")


def harq_success_probability(
    bler_model: BlerModel,
    harq: HarqConfig,
    sinr_db: float,
    latency_budget_s: float,
) -> float:
    """Residual-error arithmetic for up to k transmissions within the budget.

    k = min(max_transmissions, floor(budget / per_transmission_time)); each
    retransmission sees the SINR improved by the configured combining gain.
    A budget too short for even one transmission yields success 0.
    """
    DomainError.require_positive(latency_budget_s=latency_budget_s)
    if math.isnan(sinr_db):
        raise DomainError("SINR must not be NaN")
    k = min(harq.max_transmissions, int(math.floor(latency_budget_s / harq.per_transmission_time_s + 1e-12)))
    p_all_failed = 1.0
    for i in range(1, k + 1):
        p_all_failed *= bler(bler_model, sinr_db + (i - 1) * harq.combining_gain_db)
    return 1.0 - p_all_failed


@dataclass(frozen=True)
class LinkParams:
    """Per-scenario link abstraction bundle carried by the configuration."""

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

    def _build(self, name: str):
        cls, feeds = _FEEDS[name]
        return cls(**{field: getattr(self, key) for field, key in feeds.items()})

    def abstraction(self, direction: str) -> LinkAbstraction:
        return self._build(direction)

    def bler_model(self) -> BlerModel:
        return self._build("bler")

    def harq(self) -> HarqConfig:
        return self._build("harq")

    def validate(self) -> None:
        """Build every object the bundle feeds, so each applies its own
        checks; raises ConfigInvalid naming the ``link.<key>`` at fault."""
        for name, (_, feeds) in _FEEDS.items():
            try:
                self._build(name)
            except DomainError as exc:
                raise ConfigInvalid(f"link.{feeds[exc.field]}", str(exc)) from exc


# each object a LinkParams bundle builds: its class and, per class field, the
# bundle key that feeds it
_FEEDS = {
    "downlink": (LinkAbstraction, {"efficiency": "alpha", "se_max": "se_max_dl",
                                   "sinr_min_db": "sinr_min_db"}),
    "uplink": (LinkAbstraction, {"efficiency": "alpha", "se_max": "se_max_ul",
                                 "sinr_min_db": "sinr_min_db"}),
    "bler": (BlerModel, {"sinr_50_db": "bler_sinr_50_db", "slope_db_per_decade": "bler_slope_db",
                         "bler_floor": "bler_floor"}),
    "harq": (HarqConfig, {"max_transmissions": "harq_max_transmissions",
                          "per_transmission_time_s": "harq_tx_time_s",
                          "combining_gain_db": "harq_combining_gain_db"}),
}
