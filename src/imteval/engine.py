"""Drop-loop orchestration: seeded streams, per-drop link budgets and SINR,
scheduling, KPI accumulation, uplink power-control calibration and the
non-full-buffer connection-density evaluator.

Reproducibility contract: every random draw comes from a stream derived
from (master_seed, drop_index, stream_name), so identical (config, seed)
produce identical results for any worker count, and drop results merge in
drop-index order.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import multiprocessing
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import metrics
from .antenna import combined_gain, vertical_attenuation
from .channel.model import los_probability, pathloss_curves
from .channel.profiles import profile_for
from .errors import DomainError, InternalError
from .geometry import MICRO_TX_OFFSET_DB, NetworkLayout, UeDrop, build_layout, drop_ues
from .link import (DOWNLINK, SCHEDULING_INTERVAL_S, UPLINK, bler, db_to_lin, lin_to_db,
                   noise_power, sinr_to_se, uplink_power_control)
from .scenario import EMBB_ENVIRONMENTS, EvaluationConfig, TestEnvironment, builtin_requirements
from .traffic import pf_run, serve_fifo

STREAM_ALGORITHM = (
    "numpy PCG64 seeded by SeedSequence(master_seed, spawn_key=(drop_index, "
    "blake2s_64(stream_name)))"
)

# drop indices above this offset are reserved for calibration probes
_CALIBRATION_DROP_BASE = 2 ** 40

# retransmission budget and channel-occupancy floor for the messaging model
_MAX_MESSAGE_ATTEMPTS = 8
_SE_CHANNEL_FLOOR = 0.1  # bit/s/Hz, slot length of an undecodable transfer


def derive_stream(master_seed: int, drop_index: int, stream: str) -> np.random.Generator:
    """Independent, collision-resistant RNG stream for (drop, stream name)."""
    key = int.from_bytes(hashlib.blake2s(stream.encode("utf-8"), digest_size=8).digest(), "little")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(drop_index, key)))


# ---------------------------------------------------------------------------
# vectorized link budget


class DropWork:
    """The full-size (n_ue, n_trxp) planes of one drop loop, allocated once.

    A drop writes its transient planes (LOS draws, shadow normals, gathered
    pathloss, angles, coupling, received power) into these buffers instead of
    fresh arrays, so a loop of drops does not hand the heap back to the OS
    and fault it in again on every drop. A plane is named by its first use,
    and a later stage may take it over once its contents are spent; it is
    reallocated only when a drop needs another shape. Nothing a drop
    returns lives here except ``compute_coupling``'s plane; one object
    serves one loop at a time.
    """

    def __init__(self):
        self._planes = {}

    def plane(self, name: str, shape: tuple) -> np.ndarray:
        """The float64 buffer called ``name``, of this shape; contents undefined."""
        buf = self._planes.get(name)
        if buf is None or buf.shape != shape:
            buf = self._planes[name] = np.empty(shape)
        return buf


def compute_coupling(config: EvaluationConfig, layout: NetworkLayout, ues: UeDrop,
                     rng: np.random.Generator, work: DropWork | None = None) -> np.ndarray:
    """Pathloss + shadowing - antenna gain in dB for every UE x TRxP pair,
    an (n_ue, n_trxp) plane; the UE's serving TRxP is its row's argmin.

    Distance, LOS probability, both pathloss curves, the UE's azimuth and
    the element's zenith cut depend only on the site, so they are computed
    once per site and gathered to the site's TRxPs; the wrapped distance
    and displacement to each site come from the drop (``drop_ues`` computed
    them). LOS conditions and shadow fading are drawn here, once per link
    per drop, and the azimuth cut is taken per TRxP boresight. The
    dense-urban micro layer uses its own profile. The full-size planes are
    ``work``'s (a fresh ``DropWork`` when None); the returned one is its
    "coupling" plane, valid until the next call with the same work object.
    """
    work = DropWork() if work is None else work
    delta, d2d = ues.site_delta, ues.site_dist
    n_ue, n_site = d2d.shape
    shape = (n_ue, layout.n_trxps)
    site = layout.trxp_site
    dz = layout.site_height - config.ue_height
    d3d = np.maximum(np.sqrt(d2d ** 2 + dz ** 2), 1.0)

    # build_layout puts the macro sites, and their TRxPs, first: the element
    # gain is taken on that prefix, and the dense-urban micro profile on the
    # span after it. An order that breaks this is refused, not misread
    trxp_micro = layout.trxp_is_micro
    m_site = int(np.count_nonzero(~layout.site_is_micro))
    m = int(np.count_nonzero(~trxp_micro))
    if layout.site_is_micro[:m_site].any() or trxp_micro[:m].any():
        raise InternalError("micro sites and TRxPs must follow the macro ones")
    spans = [(profile_for(config.environment, config.config_variant), slice(None), slice(None))]
    if config.environment is TestEnvironment.DENSE_URBAN_EMBB:
        spans = [(spans[0][0], slice(m_site), slice(m)),
                 (profile_for(config.environment, config.config_variant, micro=True),
                  slice(m_site, None), slice(m, None))]

    # the per-site table: each site's NLOS and LOS pathloss side by side, so
    # a link's column, in the table and in the sigma vector, is 2 site + LOS
    p_los = np.empty_like(d2d)
    table = np.empty((n_ue, n_site, 2))
    sigma = np.empty((n_site, 2))
    for profile, sites, _ in spans:
        p_los[:, sites] = los_probability(profile.plos_model, d2d[:, sites])
        table[:, sites, 1], table[:, sites, 0] = pathloss_curves(
            profile, config.carrier_frequency, d3d[:, sites],
            float(layout.site_height[sites][0]), config.ue_height)
        sigma[sites] = profile.nlos.sf_sigma_db, profile.los.sf_sigma_db

    # pl = table[2 site + LOS] + sigma[2 site + LOS] * z + indoor penetration:
    # one gather each, and no masked write on the random LOS pattern. The
    # draw plane holds the LOS uniforms, then the shadowing normals; the
    # gather plane the LOS probability, then, as intp, each link's column
    # and then its element of the table; the coupling plane sigma, then pl
    draw = rng.random(out=work.plane("draw", shape))
    gather = np.take(p_los, site, axis=1, out=work.plane("gather", shape), mode="clip")
    index = np.less(draw, gather, out=gather.view(np.intp))
    index += 2 * site
    pl = np.take(sigma, index, out=work.plane("coupling", shape), mode="clip")
    sf_z = np.multiply(pl, rng.standard_normal(out=draw), out=draw)
    index += np.arange(0, table.size, 2 * n_site)[:, None]
    np.take(table, index, out=pl, mode="clip")
    pl += sf_z
    # one masked add per profile and building type, its mask constant along a row
    high = ues.indoor & ues.high_loss
    for profile, _, trxps in spans:
        cols = pl[:, trxps]
        for pen, rows in ((profile.pen_high_db, high), (profile.pen_low_db, ues.indoor & ~high)):
            np.add(cols, pen, out=cols, where=rows[:, None])

    # BS-side element gain toward each UE, on the macro TRxPs and their
    # sites only: micro/indoor points are omnidirectional at their element
    # gain. x lies in [-270, 360]: below 0 numpy's float remainder mod 360
    # is exactly x + 360; at 360 (boresight 0, UE due west) it would give
    # -180 where this gives +180, which has the same gain
    pattern = config.bs_pattern()
    az = np.degrees(np.arctan2(delta[:, :m_site, 1], delta[:, :m_site, 0]))
    x = np.take(az, site[:m], axis=1, out=work.plane("gain", (n_ue, m)), mode="clip")
    x -= layout.trxp_boresight_deg[:m]
    x += 180.0
    x += 360.0 * (x < 0.0)
    x -= 180.0
    # the zenith of the UE seen from the BS, and its cut, per site
    zen = np.degrees(np.arctan2(d2d[:, :m_site], dz[:m_site]))
    zen -= config.antenna_bs.downtilt_deg
    vertical = vertical_attenuation(pattern, np.clip(zen, 0.0, 180.0, out=zen), zen)
    gain = combined_gain(pattern, x, np.take(
        vertical, site[:m], axis=1, out=work.plane("zenith", (n_ue, m)), mode="clip"), out=x)

    pl[:, :m] -= gain
    pl[:, m:] -= config.bs_element_gain
    pl -= config.ue_element_gain
    return pl


# ---------------------------------------------------------------------------
# per-drop simulation


@dataclass
class DropResult:
    drop_index: int
    serving: np.ndarray
    dl_signal_dbm: np.ndarray
    dl_interf_dbm: np.ndarray
    dl_noise_dbm: float
    dl_sinr_db: np.ndarray
    ul_signal_dbm: np.ndarray
    ul_interf_dbm: np.ndarray
    ul_noise_dbm: float
    ul_sinr_db: np.ndarray
    mean_iot_db: float
    ue_positions: np.ndarray  # (n_ue, 3)
    ue_indoor: np.ndarray
    dl_bits: np.ndarray | None = None  # per-UE bits received over duration; eMBB only
    ul_bits: np.ndarray | None = None
    n_mux_ul: float = 0.0
    b_values_ul: np.ndarray | None = None  # B_i of the UEs with ul_bits > 0, in id order


def _uplink_interferers(by_cell: np.ndarray, cell_sizes: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """The transmitting UE of each cell on the co-channel uplink resource,
    -1 for an empty cell. The UEs of cell c are
    by_cell[start[c]:start[c] + cell_sizes[c]] in ascending id; one
    ``integers`` draw per non-empty cell, in cell order."""
    cell_start = np.cumsum(cell_sizes) - cell_sizes
    pick = np.full(len(cell_sizes), -1, dtype=int)
    nz = np.flatnonzero(cell_sizes)
    pick[nz] = by_cell[cell_start[nz] + rng.integers(cell_sizes[nz])]
    return pick


def _link_stage(config: EvaluationConfig, layout: NetworkLayout, drop_index: int, work):
    """A drop's UEs, their coupling plane (``work``'s) and serving TRxPs."""
    ues = drop_ues(layout, config, derive_stream(config.master_seed, drop_index, "ues"))
    coupling = compute_coupling(config, layout, ues,
                                derive_stream(config.master_seed, drop_index, "links"), work)
    return ues, coupling, np.argmin(coupling, axis=1)


def _uplink_stage(config: EvaluationConfig, coupling: np.ndarray, serving: np.ndarray,
                  drop_index: int):
    """A drop's uplink SINR, one co-scheduled UE per other cell interfering:
    per UE its signal (mW, MRC gain included), interference (mW) and linear
    SINR; UE ids by cell, cell sizes, noise (dBm) and mean per-TRxP IoT (dB)."""
    cl_serving = coupling[np.arange(len(serving)), serving]
    p_ue = uplink_power_control(cl_serving, config.link.ul_p0_dbm, config.link.ul_alpha,
                                config.ue_tx_power)
    noise_dbm = noise_power(_ul_user_bw(config), config.bs_noise_figure,
                            config.thermal_noise_density)
    by_cell = np.argsort(serving, kind="stable")
    cell_sizes = np.bincount(serving, minlength=coupling.shape[1])
    pick = _uplink_interferers(by_cell, cell_sizes,
                               derive_stream(config.master_seed, drop_index, "sched"))
    # received power of every cell's active UE at every TRxP: (n_active, n_t)
    own_cell = np.flatnonzero(pick >= 0)
    act_idx = pick[own_cell]
    act_rx_mw = db_to_lin(p_ue[act_idx, None] - coupling[act_idx, :])
    interf_at = act_rx_mw.sum(axis=0)  # less each active UE's own cell
    interf_at[own_cell] -= act_rx_mw[np.arange(len(own_cell)), own_cell]
    noise_mw = float(db_to_lin(noise_dbm))
    iot_db = float(np.mean(lin_to_db(np.maximum(interf_at, 1e-30) / noise_mw)))
    signal_mw = db_to_lin(p_ue - cl_serving) * config.antenna_bs.n_ports
    interf_mw = interf_at[serving]
    return (signal_mw, interf_mw, signal_mw / (interf_mw + noise_mw), by_cell, cell_sizes,
            noise_dbm, iot_db)


def _ul_user_bw(config: EvaluationConfig) -> float:
    """One uplink transmission's bandwidth: a messaging channel or a carrier share per MU layer."""
    return config.traffic.w_user_hz if config.environment is TestEnvironment.URBAN_MACRO_MMTC \
        else config.bandwidth / config.link.mu_layers_ul


def run_drop(config: EvaluationConfig, layout: NetworkLayout, drop_index: int,
             sinr_only: bool = False, work: DropWork | None = None) -> DropResult:
    """One Monte-Carlo drop: place UEs, build the link budget, compute DL
    and UL SINR with explicit inter-site interference, and (unless
    sinr_only) run the scheduler to get per-UE throughput. A loop of drops
    passes one ``work`` to every drop; the result never shares its memory."""
    work = DropWork() if work is None else work
    ues, coupling, serving = _link_stage(config, layout, drop_index, work)
    n_ue, n_t = coupling.shape
    ul_serving_mw, ul_interf_mw, ul_sinr, by_cell, cell_sizes, ul_noise_dbm, iot_db = \
        _uplink_stage(config, coupling, serving, drop_index)

    # --- downlink: every co-channel TRxP transmits at full configured power
    tx_dbm = np.full(n_t, config.bs_tx_power)
    if config.environment is TestEnvironment.DENSE_URBAN_EMBB:
        tx_dbm[layout.trxp_is_micro] += MICRO_TX_OFFSET_DB
    # unit-power coupling gain times each TRxP's transmit power, in the
    # plane of compute_coupling's spent random draws
    rx_mw = np.negative(coupling, out=work.plane("draw", (n_ue, n_t)))
    db_to_lin(rx_mw, out=rx_mw)
    rx_mw *= db_to_lin(tx_dbm)
    idx = np.arange(n_ue)
    dl_serving_mw = rx_mw[idx, serving] * config.antenna_ue.n_ports  # MRC gain on the signal
    dl_interf_mw = rx_mw.sum(axis=1) - rx_mw[idx, serving]
    dl_noise_dbm = noise_power(config.bandwidth, config.ue_noise_figure,
                               config.thermal_noise_density)
    dl_sinr = dl_serving_mw / (dl_interf_mw + float(db_to_lin(dl_noise_dbm)))

    result = DropResult(
        drop_index=drop_index,
        serving=serving,
        dl_signal_dbm=lin_to_db(dl_serving_mw),
        dl_interf_dbm=lin_to_db(dl_interf_mw),
        dl_noise_dbm=dl_noise_dbm,
        dl_sinr_db=lin_to_db(dl_sinr),
        ul_signal_dbm=lin_to_db(ul_serving_mw),
        ul_interf_dbm=lin_to_db(ul_interf_mw),
        ul_noise_dbm=ul_noise_dbm,
        ul_sinr_db=lin_to_db(ul_sinr),
        mean_iot_db=iot_db,
        ue_positions=ues.positions,
        ue_indoor=ues.indoor,
    )
    if sinr_only:
        return result

    # --- scheduling and per-UE throughput over the drop duration
    lk = config.link
    backoff = lk.csi_backoff_db
    n_intervals = max(1, int(round(config.duration_t / SCHEDULING_INTERVAL_S)))
    dt = config.duration_t / n_intervals
    is_mmtc_style = config.environment is TestEnvironment.URBAN_MACRO_MMTC
    rates_ul = np.asarray(sinr_to_se(lk, UPLINK, result.ul_sinr_db - backoff)) \
        * _ul_user_bw(config)
    ul_resources = config.traffic.channels if is_mmtc_style else lk.mu_layers_ul

    # one PF scheduler per (direction, non-empty cell): the DL rows (eMBB
    # only) then the UL rows, each cell's UEs in ascending id order and
    # padded with zero rates, all run in a single batch
    sizes = cell_sizes[cell_sizes > 0]
    n_cells = len(sizes)
    cell_row = np.repeat(np.arange(n_cells), sizes)
    slot = np.arange(n_ue) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    n_dl_rows = n_cells if config.environment in EMBB_ENVIRONMENTS else 0
    row_rates = np.zeros((n_dl_rows + n_cells, sizes.max(initial=0)))
    row_rates[n_dl_rows + cell_row, slot] = rates_ul[by_cell]
    resources = np.full(n_dl_rows + n_cells, ul_resources)
    if n_dl_rows:
        rates_dl = np.asarray(sinr_to_se(lk, DOWNLINK, result.dl_sinr_db - backoff)) \
            * config.bandwidth
        row_rates[cell_row, slot] = rates_dl[by_cell]
        resources[:n_dl_rows] = lk.mu_layers_dl
    counts, mux = pf_run(row_rates, n_intervals, resources)

    if n_dl_rows:
        result.dl_bits = np.zeros(n_ue)
        result.dl_bits[by_cell] = counts[cell_row, slot] * dt * rates_dl[by_cell]
    ul_bits = np.zeros(n_ue)
    ul_bits[by_cell] = counts[n_dl_rows + cell_row, slot] * dt * rates_ul[by_cell]

    result.ul_bits = ul_bits
    # one UL row per non-empty cell, and a drop has at least one UE
    result.n_mux_ul = float(np.mean(mux[n_dl_rows:]))
    if is_mmtc_style:
        result.b_values_ul = metrics.b_value(config.duration_t, ul_bits[ul_bits > 0],
                                             config.traffic.w_user_hz)
    return result


# ---------------------------------------------------------------------------
# uplink power-control calibration


def calibrate_ul_power(config: EvaluationConfig, layout: NetworkLayout,
                       probes: int = 3, max_iterations: int = 8):
    """Adjust the open-loop P0 until the mean uplink IoT meets the target.

    Calibration only ever lowers P0. The IoT target is a cap, not a set
    point: a config whose mean IoT already meets it keeps its configured P0,
    and each step lowers P0 by the excess IoT plus a 0.5 dB margin.

    Returns (adjusted config, achieved mean IoT dB, warnings). Probe drops
    use reserved stream indices so they never collide with run drops. Raises
    DomainError naming the first argument out of its domain before any drop."""
    DomainError.require_counts(1, probes=probes, max_iterations=max_iterations)
    target = config.link.ul_iot_target_db
    warnings = []
    cfg = config
    achieved = math.inf
    work = DropWork()
    for iteration in range(max_iterations):
        iots = []
        for p in range(probes):  # a probe stops at the uplink IoT
            drop = _CALIBRATION_DROP_BASE + iteration * probes + p
            iots.append(_uplink_stage(cfg, *_link_stage(cfg, layout, drop, work)[1:], drop)[-1])
        achieved = float(np.mean(iots))
        if achieved <= target:
            break
        # IoT moves ~1:1 with P0; step down with a small margin
        new_p0 = cfg.link.ul_p0_dbm - (achieved - target) - 0.5
        cfg = replace(cfg, link=replace(cfg.link, ul_p0_dbm=new_p0))
    else:
        warnings.append(
            f"CalibrationWarning: mean uplink IoT {achieved:.2f} dB still above "
            f"{target:.1f} dB after {max_iterations} iterations"
        )
    return cfg, achieved, warnings


# ---------------------------------------------------------------------------
# full runs


@dataclass(frozen=True)
class KpiValue:
    metric: str
    direction: str | None
    value: float
    unit: str
    speed_kmh: float | None = None
    note: str = ""


@dataclass
class RunResult:
    config: EvaluationConfig  # as run: after uplink power calibration
    layout: NetworkLayout
    drops_executed: int
    convergence_status: str
    kpis: list
    cdfs: dict
    per_drop_mean_ul_sinr: np.ndarray
    mean_iot_db: float
    warnings: list


_WORKER_STATE: dict = {}


def _worker_init(config, layout, sinr_only):
    _WORKER_STATE["args"] = (config, layout, sinr_only)
    _WORKER_STATE["work"] = DropWork()


def _drop_worker(drop_index):
    config, layout, sinr_only = _WORKER_STATE["args"]
    return run_drop(config, layout, drop_index, sinr_only, _WORKER_STATE["work"])


def _drops(config: EvaluationConfig, layout: NetworkLayout, indices: range,
           sinr_only: bool, workers: int = 1):
    """``run``'s drops: ``run_drop`` of each index, in index order, through
    one ``DropWork`` with one worker (or one index), else from a pool of at
    most one process per index whose workers keep one each. Closing the
    generator early shuts the pool down."""
    workers = min(workers, len(indices))
    if workers <= 1:
        work = DropWork()
        for d in indices:
            yield run_drop(config, layout, d, sinr_only, work)
        return
    chunk = max(1, min(64, len(indices) // (workers * 4)))
    with multiprocessing.Pool(processes=workers, initializer=_worker_init,
                              initargs=(config, layout, sinr_only)) as pool:
        yield from pool.imap(_drop_worker, indices, chunksize=chunk)


_PREFIX = {DOWNLINK: "dl", UPLINK: "ul"}


def run(config: EvaluationConfig, workers: int = 1, sinr_only: bool = False,
        early_stop: bool = False, convergence_window: int = 50,
        convergence_tol: float = 1e-4, calibrate: bool = True) -> RunResult:
    """Execute the drop loop and compute every KPI defined for the
    environment. Results are identical for any worker count. Raises
    DomainError naming the first argument out of its domain before any set-up."""
    DomainError.require_counts(1, workers=workers, convergence_window=convergence_window)
    DomainError.require_positive(convergence_tol=convergence_tol)
    layout = build_layout(config)
    warnings = []
    if calibrate:
        config, _, warnings = calibrate_ul_power(config, layout)

    # each CDF that gets samples reserves room for every drop's UEs or, with
    # early stop, for the drops before the first convergence test, so a
    # large drop cap is never reserved up front
    room_drops = min(config.drops, convergence_window + 1) if early_stop else config.drops
    capacity = room_drops * config.ues_per_trxp * layout.n_trxps
    names = ("sinr_db",) if sinr_only else ("sinr_db", "user_se", "user_tput_bps")
    cdfs = {f"{prefix}_{name}": metrics.CdfEstimator(capacity=capacity)
            for name in names for prefix in _PREFIX.values()}
    monitor = metrics.ConvergenceMonitor(window=convergence_window, tol=convergence_tol)
    # one row per figure, one column per drop: mean UL SINR, mean IoT, UL
    # multiplexing order, and the DL and UL bits (NaN where a drop schedules
    # no such link), reserved like the CDFs and doubled when full
    per_drop = np.empty((5, room_drops))
    n = 0
    b_pool = metrics.CdfEstimator(capacity=capacity)  # the served UEs' B_i, mMTC only
    status = "capped"
    with contextlib.closing(_drops(config, layout, range(config.drops), sinr_only,
                                   workers)) as drops:
        for drop in drops:
            if n == per_drop.shape[1]:
                per_drop = np.concatenate([per_drop, np.empty_like(per_drop)], axis=1)
            mean_ul = float(np.mean(drop.ul_sinr_db))
            per_drop[:3, n] = mean_ul, drop.mean_iot_db, drop.n_mux_ul
            for row, prefix in enumerate(_PREFIX.values(), start=3):
                cdfs[f"{prefix}_sinr_db"].add(getattr(drop, f"{prefix}_sinr_db"))
                bits = getattr(drop, f"{prefix}_bits")
                per_drop[row, n] = math.nan if bits is None else bits.sum()
                if bits is not None:
                    cdfs[f"{prefix}_user_se"].add(bits / (config.duration_t * config.bandwidth))
                    cdfs[f"{prefix}_user_tput_bps"].add(bits / config.duration_t)
            if drop.b_values_ul is not None:
                b_pool.add(drop.b_values_ul)
            n += 1
            # the drop cap wins: a run that converges on its last drop is capped
            if early_stop and n < config.drops and monitor.observe(mean_ul):
                status = "converged"
                break

    per_drop = per_drop[:, :n]
    return RunResult(
        config=config,
        layout=layout,
        drops_executed=n,
        convergence_status=status,
        kpis=_assemble_kpis(config, layout, cdfs, dict(zip(_PREFIX, per_drop[3:])),
                            per_drop[2], b_pool, sinr_only),
        cdfs=cdfs,
        per_drop_mean_ul_sinr=per_drop[0],
        mean_iot_db=float(np.mean(per_drop[1])) if n else math.nan,
        warnings=warnings,
    )


def _assemble_kpis(config, layout, cdfs, bits_per_drop, n_mux_values, b_pool, sinr_only):
    kpis = []
    env = config.environment
    lk = config.link

    # reliability needs only the SINR CDFs, so it survives sinr_only mode
    if env is TestEnvironment.URBAN_MACRO_URLLC:
        for direction, prefix in _PREFIX.items():
            prob = metrics.reliability(cdfs[f"{prefix}_sinr_db"], lk)
            kpis.append(KpiValue("reliability", direction, prob, "probability"))
    if sinr_only:
        return kpis

    if env in EMBB_ENVIRONMENTS:
        for direction, prefix in _PREFIX.items():
            avg_se = metrics.avg_spectral_efficiency(bits_per_drop[direction], config.duration_t,
                                                     config.bandwidth, layout.n_trxps)
            kpis.append(KpiValue("avg_se", direction, avg_se, "bit/s/Hz/TRxP"))
            se = metrics.pct5_user_se(cdfs[f"{prefix}_user_se"])
            kpis.append(KpiValue("pct5_se", direction, se, "bit/s/Hz"))
        # normalized traffic-channel rate at the speeds the requirement table names
        for speed in [r.speed_kmh for r in builtin_requirements().rows
                      if r.environment is env and r.metric == "mobility_rate"]:
            rate = metrics.mobility_rate(cdfs["ul_sinr_db"], speed, config.carrier_frequency, lk)
            kpis.append(KpiValue("mobility_rate", UPLINK, rate, "bit/s/Hz", speed_kmh=speed))
        if env is TestEnvironment.DENSE_URBAN_EMBB:
            for direction, prefix in _PREFIX.items():
                rate = metrics.pct5_user_se(cdfs[f"{prefix}_user_tput_bps"])
                kpis.append(KpiValue("ued_rate", direction, rate, "bit/s"))

    if env is TestEnvironment.URBAN_MACRO_MMTC and b_pool.count:
        density = metrics.connection_density_fullbuffer(
            float(np.mean(n_mux_values)), config.traffic.eval_bandwidth_hz,
            b_pool.samples, layout.sector_area_m2)
        kpis.append(KpiValue("connection_density", UPLINK, density, "/km^2",
                             note="full-buffer multiplexing route"))
    return kpis


# ---------------------------------------------------------------------------
# non-full-buffer connection density route


def _queue_capacity(mean_messages: float) -> int:
    """Slots to allocate per queue for Poisson(mean) messages; a longer
    queue grows the tables."""
    return int(mean_messages + 6.0 * math.sqrt(mean_messages)) + 16


# numpy's Generator.geometric draws one uniform U per value for p at or above
# this double (its C literal 0.333333333333333333333333) and inverts an
# exponential draw below it
_GEOMETRIC_SEARCH_MIN_P = 0.3333333333333333


def _success_sums(p_success: np.ndarray) -> np.ndarray:
    """The (UEs x 8) running sums that numpy's geometric search compares U
    with: ``sum = prod = p; q = 1.0 - p``, then ``prod *= q; sum += prod``
    per column, the same float operations in the same order."""
    sums = np.empty((len(p_success), _MAX_MESSAGE_ATTEMPTS))
    sums[:, 0] = p_success
    prod = p_success.copy()
    q = 1.0 - p_success
    for k in range(1, _MAX_MESSAGE_ATTEMPTS):
        prod *= q
        np.add(sums[:, k - 1], prod, out=sums[:, k])
    return sums


def _search_floor(p_success: np.ndarray):
    """A cell's retry draw: its smallest p when that is at least 1/3, so it
    searches uniforms, else None (also on NaN), so it calls ``geometric``."""
    p_min = p_success.min()
    return p_min if p_min >= _GEOMETRIC_SEARCH_MIN_P else None


def _draw_retries(rng: np.random.Generator, pick: np.ndarray, p_success: np.ndarray,
                  sums: np.ndarray, floor):
    """(messages, their retries): the messages of UEs ``pick`` that take more
    than one transmission, and min(n_tx, 9) - 1 for each, where n_tx is what
    ``rng.geometric(p_success[pick])`` draws; 8 retries means no success in
    8 attempts. Where ``floor`` (``_search_floor``) is set it draws
    ``rng.random`` instead, the same doubles numpy's search draws, and
    counts the ``sums`` (``_success_sums``) below each U: the first n with
    U <= sum_n is numpy's n_tx, and the stream ends in the same state."""
    if floor is not None:
        u = rng.random(len(pick))
        # only U above the smallest sum_1 = p can need a retry
        again = np.flatnonzero(u > floor)
        if len(again) == 0:
            return again, again
        return again, np.count_nonzero(u[again, None] > sums[pick[again]], axis=1)
    n_tx = rng.geometric(p_success[pick])
    again = np.flatnonzero(n_tx > 1)
    return again, np.minimum(n_tx[again], _MAX_MESSAGE_ATTEMPTS + 1) - 1


def _require_messaging(config: EvaluationConfig) -> None:
    """Raise DomainError naming ``config`` unless its environment is UrbanMacro_mMTC."""
    if config.environment is not TestEnvironment.URBAN_MACRO_MMTC:
        raise DomainError(f"config must be {TestEnvironment.URBAN_MACRO_MMTC.value}, "
                          f"got {config.environment.value}", "config")


class MessageService:
    """The message service of drops 0 .. n_drops - 1 at their uplink SINR,
    mapped once per search; it keeps ``config`` and the layout's
    ``sector_area_m2`` for its probes.

    A message's service time is ``overhead_s + n_tx * tx_time`` of its UE
    after the CSI backoff, n_tx in 1 .. 8. UE u (d n_ue + i for drop d's UE
    i) sent n_tx times has code 8 u + n_tx into ``table``; a lost message
    (undecodable UE, or no success in 8 attempts) has that code plus
    ``lost``, whose entry repeats the time; code 0 is the pad, of service
    +inf. ``cells[d][c]`` is None for a cell without UEs, else its UEs'
    codes after 1 + k transmissions (k = 8: lost after 8 attempts), success
    probabilities, ``_success_sums`` and ``_search_floor``. Raises
    DomainError naming the first argument out of its domain before any drop."""

    def __init__(self, config: EvaluationConfig, layout: NetworkLayout, n_drops: int):
        _require_messaging(config)
        DomainError.require_counts(1, n_drops=n_drops)
        self.config, self.sector_area_m2 = config, layout.sector_area_m2
        spec, lk = config.traffic, config.link
        n_ue = config.ues_per_trxp * layout.n_trxps  # the UEs drop_ues places
        self.lost = lost = _MAX_MESSAGE_ATTEMPTS * n_drops * n_ue
        self.table = np.empty(1 + 2 * lost)
        self.table[0] = np.inf
        per_ue = self.table[1:1 + lost].reshape(n_drops, n_ue, _MAX_MESSAGE_ATTEMPTS)  # a view
        attempts = np.arange(1, _MAX_MESSAGE_ATTEMPTS + 1)
        self.cells, work = [], DropWork()
        for d in range(n_drops):
            ul_sinr, by_cell, cell_sizes = _uplink_stage(
                config, *_link_stage(config, layout, d, work)[1:], d)[2:5]
            sinr = lin_to_db(ul_sinr) - lk.csi_backoff_db
            se = np.asarray(sinr_to_se(lk, UPLINK, sinr))
            # an undecodable UE (se 0) sends at the floor rate as often as p
            # draws (8 times at the presets' curves, where p clips to 1e-9)
            tx_time = spec.pdu_size_bytes * 8 / np.maximum(se, _SE_CHANNEL_FLOOR) / spec.w_user_hz
            p_success = np.clip(1.0 - np.asarray(bler(lk, sinr)), 1e-9, 1.0)
            service = np.multiply(attempts, tx_time[:, None], out=per_ue[d])
            service += spec.overhead_s  # addition commutes: overhead + n_tx * tx_time
            # UEs in cell order from here
            ue_code = _MAX_MESSAGE_ATTEMPTS * (d * n_ue + by_cell)
            codes = np.empty((_MAX_MESSAGE_ATTEMPTS + 1, len(by_cell)),
                             np.min_scalar_type(2 * lost))
            codes[:-1] = ue_code + attempts[:, None] + lost * ~(se[by_cell] > 0.0)
            codes[-1] = ue_code + _MAX_MESSAGE_ATTEMPTS + lost
            p_success = p_success[by_cell]
            sums = _success_sums(p_success)
            ends = np.cumsum(cell_sizes).tolist()
            self.cells.append([None if lo == hi else (
                codes[:, lo:hi], p_success[lo:hi], sums[lo:hi], _search_floor(p_success[lo:hi]))
                for lo, hi in zip([0] + ends, ends)])
        self.table[1 + lost:] = self.table[1:1 + lost]


def _draw_messages(service: MessageService, mean_messages: float, horizon_s: float):
    """Each (drop, cell) queue's messages as one row of padded (queues x
    slots) arrival-time and service-code tables, pads holding arrival 0 and
    code 0, and the queue lengths. Per cell it draws ``poisson``, the
    arrival times (``random`` into the row, times ``horizon_s``: the bytes
    of numpy's ``uniform(0.0, horizon_s)``, 0.0 + horizon_s * U), then
    ``integers`` and the retries, an order that fixes the results of a
    seed; a cell without UEs queues none of its draws. The row takes each
    message's one-transmission code, and only those sent again are corrected."""
    n_t = len(service.cells[0])
    shape = (len(service.cells) * n_t, _queue_capacity(mean_messages))
    arrival = np.zeros(shape)
    codes = np.zeros(shape, np.min_scalar_type(2 * service.lost))
    lengths = np.zeros(shape[0], dtype=np.intp)
    for d, cells in enumerate(service.cells):
        rng = derive_stream(service.config.master_seed, d, "density")
        poisson, random, integers = rng.poisson, rng.random, rng.integers
        for c, cell in enumerate(cells):
            n_msgs = poisson(mean_messages)
            if n_msgs == 0:
                continue
            if cell is None:  # drawn, but no UE of the cell sends them
                random(n_msgs)
                continue
            if n_msgs > arrival.shape[1]:
                arrival, codes = (
                    np.concatenate([a, np.zeros((len(a), n_msgs - a.shape[1]), a.dtype)], axis=1)
                    for a in (arrival, codes))
            q = d * n_t + c
            times = random(out=arrival[q, :n_msgs])
            times *= horizon_s
            cell_codes, p_success, sums, floor = cell
            pick = integers(len(p_success), size=n_msgs)
            again, retries = _draw_retries(rng, pick, p_success, sums, floor)
            lengths[q] = n_msgs
            times.sort()
            row = codes[q, :n_msgs]
            np.take(cell_codes[0], pick, out=row, mode="clip")
            row[again] = cell_codes[retries, pick[again]]
    return arrival, codes, lengths


def evaluate_p99_delay(service: MessageService, density_per_km2: float,
                       horizon_s: float = 20.0, record_sink: list | None = None) -> float:
    """99th-percentile message delay over ``service``'s drops at a device
    density: Poisson messages per cell (density x sector area x per-device
    rate), each from a random UE of the cell at its full-buffer-interference
    SINR, served FIFO over the narrowband channels with retransmissions drawn
    from the block-error model. The delays are served over the arrival
    times, packed and ranked there, a lost message's as inf (see
    metrics.p99_delay). ``record_sink`` receives per-message (drop, cell,
    arrival, start, completion, transmissions, delivered) tuples. Raises
    DomainError naming the first argument out of its domain before any draw."""
    DomainError.require_positive(density_per_km2=density_per_km2, horizon_s=horizon_s)
    spec = service.config.traffic
    mean_messages = density_per_km2 * (service.sector_area_m2 / 1e6) * spec.rate_per_s * horizon_s
    arrival, codes, lengths = _draw_messages(service, mean_messages, horizon_s)
    rows = int(lengths.max(initial=0))
    if rows == 0:
        return 0.0
    table, lost, n_t = service.table, service.lost, len(service.cells[0])
    packed = arrival.reshape(-1)  # a view: arrival is one contiguous block
    arrival, codes = arrival[:, :rows], codes[:, :rows]
    delays, starts = arrival, None
    if record_sink is not None:  # the arrival times must outlive the serving
        delays, starts = np.empty(arrival.shape), np.empty(arrival.shape)
        packed = delays.reshape(-1)
    serve_fifo(arrival.T, codes.T, table, spec.channels,
               None if starts is None else starts.T, out=delays.T)
    if record_sink is not None:
        for q in np.flatnonzero(lengths).tolist():
            n, (d, c) = int(lengths[q]), divmod(q, n_t)
            code, start = codes[q, :n], starts[q, :n]
            record_sink.extend(zip(repeat(d), repeat(c), arrival[q, :n].tolist(),
                                   start.tolist(), (start + table[code]).tolist(),
                                   ((code - 1) % _MAX_MESSAGE_ATTEMPTS + 1).tolist(),
                                   (code <= lost).tolist()))
    # each queue's delays move to the front of the array, in queue order, a
    # lost message's as inf
    n_valid = 0
    for q, n in enumerate(lengths.tolist()):
        packed[n_valid:n_valid + n] = delays[q, :n]
        np.copyto(packed[n_valid:n_valid + n], np.inf, where=codes[q, :n] > lost)
        n_valid += n
    return metrics.p99_delay(packed[:n_valid])


def density_search(config: EvaluationConfig, lo_per_km2: float = 2e5,
                   hi_per_km2: float = 4e7, steps: int = 10,
                   n_drops: int = 3, layout: NetworkLayout | None = None):
    """Non-full-buffer connection density: the largest device density whose
    99th-percentile delay stays within 10 s. Without ``layout`` it builds and
    calibrates its own; a passed layout comes with the calibrated config of its run.
    Raises DomainError naming the first argument out of its domain (``config``
    of an environment but UrbanMacro_mMTC, a bracket not 0 < lo < hi < inf) before any set-up."""
    _require_messaging(config)
    DomainError.require_counts(1, n_drops=n_drops)
    metrics._check_bracket(lo_per_km2, hi_per_km2, steps)
    if layout is None:
        layout = build_layout(config)
        config, _, _ = calibrate_ul_power(config, layout)
    service = MessageService(config, layout, n_drops)
    # every probe calls the module's evaluate_p99_delay, the name a tracer wraps
    return metrics.connection_density_search(lambda density: evaluate_p99_delay(service, density),
                                             lo_per_km2, hi_per_km2, steps=steps), config
