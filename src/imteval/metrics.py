"""KPI computation: spectral efficiency, connection density (both routes),
reliability, mobility and user-experienced data rate, plus the empirical
CDF machinery and the drop-convergence monitor they all feed on.

Functions here return measured values only; ``report.judge`` compares them
with the requirement table.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .channel.model import SPEED_OF_LIGHT
from .errors import DomainError, InsufficientSamples, InternalError
from .geometry import hex_sector_area_m2
from .link import BlerModel, HarqConfig, LinkAbstraction, harq_success_probability, sinr_to_se


class CdfEstimator:
    """Exact empirical distribution over a growing sample buffer.

    Quantiles interpolate linearly between order statistics at positions
    p*(n-1)+1 (one-indexed), so quantile(0) is the minimum sample and
    quantile(1) the maximum. Added chunks are kept aside and joined onto
    the buffer once, at the next read, so n adds cost O(total samples).
    Samples must be finite: a NaN would sort last and leave the low
    quantiles silently finite.
    """

    def __init__(self, samples=None):
        self._samples = _finite_samples([] if samples is None else samples)
        self._pending = []
        self._sorted = False

    def add(self, samples) -> None:
        self._pending.append(_finite_samples(samples))
        self._sorted = False

    def _buffer(self) -> np.ndarray:
        if self._pending:
            self._samples = np.concatenate([self._samples, *self._pending])
            self._pending = []
        return self._samples

    @property
    def count(self) -> int:
        return len(self._buffer())

    @property
    def samples(self) -> np.ndarray:
        """The raw sample buffer (a view; treat as read-only)."""
        return self._buffer()

    def _ensure_sorted(self) -> np.ndarray:
        data = self._buffer()
        if not self._sorted:
            data.sort()
            self._sorted = True
        return data

    def quantiles(self, q) -> np.ndarray:
        """The same floats as ``np.quantile(samples, q, method="linear")``,
        read off the sorted buffer without copying it. The virtual index is
        (n-1)*q; numpy marks one at or past n-1 as index -1 (the last sample)
        and takes the weight g from that mark, then interpolates with its
        two-sided lerp, a + (b-a)*g or, where g >= 0.5, b - (b-a)*(1-g)."""
        if self.count == 0:
            raise InsufficientSamples("empty CDF estimator")
        q = np.asarray(q, dtype=float)
        if not ((q >= 0.0) & (q <= 1.0)).all():
            raise DomainError("quantile levels must lie in [0, 1]")
        data = self._ensure_sorted()
        n = len(data)
        v = (n - 1) * q
        lo = np.where(v >= n - 1, -1.0, np.floor(v))
        i = lo.astype(np.intp)
        a, b = data[i], data[np.where(i < 0, i, i + 1)]
        g = v - lo
        diff = b - a
        return np.where(g >= 0.5, b - diff * (1.0 - g), a + diff * g)

    def quantile(self, p) -> float:
        return float(self.quantiles(p))


def _finite_samples(samples) -> np.ndarray:
    arr = np.array(samples, dtype=float, ndmin=1)
    if not np.isfinite(arr).all():
        bad = arr.size - np.count_nonzero(np.isfinite(arr))
        raise DomainError(f"{bad} of {arr.size} CDF samples are NaN or infinite")
    return arr


def avg_spectral_efficiency(bits_per_drop, duration_s: float, bandwidth_hz: float,
                            n_trxps: int) -> float:
    """Correctly received bits summed over drops, normalized by drops x time
    x bandwidth x TRxPs (bit/s/Hz per TRxP). ``bits_per_drop`` holds each
    drop's total over its users, received over ``duration_s``."""
    if not (0.0 < duration_s < math.inf and 0.0 < bandwidth_hz < math.inf and n_trxps > 0):
        raise DomainError("duration, bandwidth and TRxP count must be finite and positive")
    if len(bits_per_drop) == 0:
        raise DomainError("need at least one drop")
    total = 0.0
    for bits in bits_per_drop:
        if not (0.0 <= bits < math.inf):
            raise DomainError("received bit counts must be finite and >= 0")
        total += float(bits)
    return total / (len(bits_per_drop) * duration_s * bandwidth_hz * n_trxps)


def pct5_user_se(cdf: CdfEstimator) -> float:
    """Linear-interpolated empirical 5 percent quantile of user spectral
    efficiency; requires at least 20 samples. On user throughputs in bit/s
    the same quantile is the user-experienced data rate."""
    if cdf.count < 20:
        raise InsufficientSamples(f"need >= 20 samples for the 5th percentile, got {cdf.count}")
    return cdf.quantile(0.05)


def b_value(duration_s: float, received_bits, w_user_hz: float):
    """Per-user bandwidth-time value B_i = T / (R_i / W_user), elementwise
    over the users' received bits."""
    bits = np.asarray(received_bits, dtype=float)
    if not (bits > 0).all():
        raise DomainError("received bits must be positive for B_i")
    b = duration_s / (bits / w_user_hz)
    return b if b.ndim else float(b)


def connection_density_fullbuffer(n_mux: float, bandwidth_hz: float, b_values,
                                  isd_m: float) -> float:
    """Devices per km^2: (n_mux * W / mean(B_i)) / (ISD^2 * sqrt(3)/6 in km^2),
    with ``b_values`` the per-user B_i from ``b_value``."""
    if not (0.0 < n_mux < math.inf and 0.0 < bandwidth_hz < math.inf and 0.0 < isd_m < math.inf):
        raise DomainError("multiplexing order, bandwidth and ISD must be finite and positive")
    if np.size(b_values) == 0 or not np.isfinite(b_values).all():
        raise DomainError("B_i values must be non-empty and finite")
    if float(np.mean(b_values)) <= 0:
        raise DomainError("mean(B_i) must be positive")
    sector_area_km2 = hex_sector_area_m2(isd_m) / 1e6
    supported = n_mux * bandwidth_hz / float(np.mean(b_values))
    return supported / sector_area_km2


def p99_delay(delays) -> float:
    """Linear-interpolated 99th percentile of message delays, where an
    undelivered message counts as an infinite delay.

    Returns numpy's ``method="linear"`` quantile whenever that is not NaN.
    numpy gives NaN when it interpolates towards an ``inf`` neighbour with
    weight 0 (0 x inf) or between two ``inf`` neighbours; then the answer
    is the lower order statistic at weight 0 and ``inf`` otherwise.
    """
    delays = np.asarray(delays, dtype=float)
    if delays.size == 0:
        raise InsufficientSamples("p99 of no messages")
    if np.isnan(delays).any():
        raise InternalError("NaN message delay")
    with np.errstate(invalid="ignore"):
        q = float(np.quantile(delays, 0.99, method="linear"))
    if not math.isnan(q):
        return q
    position = (delays.size - 1) * 0.99  # numpy's linear virtual index
    lower = math.floor(position)
    if position - lower == 0.0:
        return float(np.partition(delays, lower)[lower])
    return math.inf


# the 99th-percentile message delay a density must meet
QOS_DELAY_S = 10.0


@dataclass(frozen=True)
class DensitySearchResult:
    density_per_km2: float  # largest tested density meeting the QoS
    delay_p99_s: float  # achieved 99th-percentile delay at that density
    evaluations: tuple  # (density, p99_delay) pairs in evaluation order
    monotone: bool  # False when delay-vs-density came out non-monotone
    bracket: tuple  # (highest passing density, lowest failing density or inf)


def connection_density_search(evaluate_p99_delay, lo_per_km2: float, hi_per_km2: float,
                              steps: int = 12) -> DensitySearchResult:
    """Bisection over device density for the non-full-buffer route.

    ``evaluate_p99_delay(density)`` must run the engine at that density and
    return the 99th-percentile per-user delay in seconds. Returns the
    largest tested density whose delay met QOS_DELAY_S (boundary
    inclusive). Non-monotone samples are reported with the widest
    bracketing interval rather than hidden. A NaN delay raises
    InternalError: it would neither pass nor fail the bound honestly.
    """
    if not (0 < lo_per_km2 < hi_per_km2):
        raise DomainError("need 0 < lo < hi for the density search")
    evals = []

    def probe(density):
        delay = float(evaluate_p99_delay(density))
        if math.isnan(delay):
            raise InternalError(f"density probe at {density:g} /km^2 gave a NaN p99 delay")
        evals.append((density, delay))
        return delay

    lo_delay = probe(lo_per_km2)
    if lo_delay > QOS_DELAY_S:
        return DensitySearchResult(0.0, lo_delay, tuple(evals), True, (0.0, lo_per_km2))
    hi_delay = probe(hi_per_km2)
    if hi_delay <= QOS_DELAY_S:
        return DensitySearchResult(hi_per_km2, hi_delay, tuple(evals), True,
                                   (hi_per_km2, math.inf))

    lo, hi = lo_per_km2, hi_per_km2
    best_delay = lo_delay
    for _ in range(steps):
        mid = math.sqrt(lo * hi)  # geometric bisection suits the /km^2 scale
        mid_delay = probe(mid)
        if mid_delay <= QOS_DELAY_S:
            lo, best_delay = mid, mid_delay
        else:
            hi = mid

    passing = [d for d, t in evals if t <= QOS_DELAY_S]
    failing = [d for d, t in evals if t > QOS_DELAY_S]
    monotone = not passing or not failing or max(passing) <= min(failing) + 1e-9
    bracket = (max(passing) if passing else 0.0, min(failing) if failing else math.inf)
    return DensitySearchResult(lo, best_delay, tuple(evals), monotone, bracket)


# the user-plane budget a URLLC PDU must be delivered within
LATENCY_BUDGET_S = 1e-3


def reliability(sinr_cdf: CdfEstimator, bler: BlerModel, harq: HarqConfig,
                extra_backoff_db: float = 0.0) -> float:
    """Success probability of delivering the PDU within LATENCY_BUDGET_S at
    the coverage edge (5th-percentile SINR)."""
    edge_sinr = sinr_cdf.quantile(0.05) - extra_backoff_db
    return harq_success_probability(bler, harq, edge_sinr, LATENCY_BUDGET_S)


# (normalized Doppler upper bound, SINR backoff dB); normalized Doppler is
# shift x scheduling interval. The last entry also covers anything beyond.
DOPPLER_BACKOFF = ((1e-4, 0.0), (1e-3, 0.5), (1e-2, 1.5), (1e-1, 3.0))


def doppler_backoff_db(speed_kmh: float, carrier_hz: float, interval_s: float = 1e-3) -> float:
    if not (0.0 <= speed_kmh < math.inf):
        raise DomainError(f"speed must be finite and >= 0, got {speed_kmh}")
    shift_hz = (speed_kmh / 3.6) * carrier_hz / SPEED_OF_LIGHT
    norm = shift_hz * interval_s
    for bound, backoff in DOPPLER_BACKOFF:
        if norm <= bound:
            return backoff
    return DOPPLER_BACKOFF[-1][1]


def mobility_rate(sinr_cdf: CdfEstimator, speed_kmh: float, carrier_hz: float,
                  abstraction: LinkAbstraction, extra_backoff_db: float = 0.0) -> float:
    """Normalized traffic-channel rate (bit/s/Hz) at the median SINR with a
    Doppler-dependent backoff."""
    median = sinr_cdf.quantile(0.5)
    penalty = doppler_backoff_db(speed_kmh, carrier_hz) + extra_backoff_db
    return float(sinr_to_se(abstraction, median - penalty))


CONTINUE = "continue"
CONVERGED = "converged"
CAPPED = "capped"


@dataclass
class ConvergenceMonitor:
    """Running-mean convergence over per-drop statistics.

    Declares convergence once the running mean moved by less than ``tol``
    (relative) over the last ``window`` drops, or caps at ``max_drops``.
    """

    window: int = 50
    tol: float = 1e-4
    max_drops: int = 10_000
    _count: int = 0
    _total: float = 0.0
    _recent_means: deque = field(init=False)  # running means of the last window + 1 drops

    def __post_init__(self):
        self._recent_means = deque(maxlen=self.window + 1)

    def observe(self, drop_mean: float) -> str:
        self._count += 1
        self._total += float(drop_mean)
        mean = self._total / self._count
        self._recent_means.append(mean)
        if self._count >= self.max_drops:
            return CAPPED
        if self._count >= self.window + 1:
            ref = self._recent_means[0]
            denom = max(abs(ref), 1e-300)
            if abs(mean - ref) / denom < self.tol:
                return CONVERGED
        return CONTINUE
