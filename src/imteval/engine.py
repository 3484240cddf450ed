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
from .antenna import element_gain
from .channel.model import los_probability, pathloss_curves
from .channel.profiles import profile_for
from .errors import DomainError, InternalError
from .geometry import (
    MICRO_TX_OFFSET_DB,
    LayoutKind,
    NetworkLayout,
    UeDrop,
    build_layout,
    drop_ues,
)
from .link import bler, db_to_lin, lin_to_db, noise_power, sinr_to_se, uplink_power_control
from .scenario import (DOWNLINK, UPLINK, EMBB_ENVIRONMENTS, EvaluationConfig, TestEnvironment,
                       builtin_requirements)
from .traffic import TrafficKind, pf_run, serve_fifo

STREAM_ALGORITHM = (
    "numpy PCG64 seeded by SeedSequence(master_seed, spawn_key=(drop_index, "
    "blake2s_64(stream_name)))"
)

# drop indices above this offset are reserved for calibration probes
_CALIBRATION_DROP_BASE = 2 ** 40

# retransmission budget and channel-occupancy floor for the messaging model
_MAX_MESSAGE_ATTEMPTS = 8
_SE_CHANNEL_FLOOR = 0.1  # bit/s/Hz, slot length of an undecodable transfer


def _stream_key(link_id) -> int:
    if isinstance(link_id, (int, np.integer)):
        return int(link_id)
    digest = hashlib.blake2s(str(link_id).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_stream(master_seed: int, drop_index: int, link_id) -> np.random.Generator:
    """Independent, collision-resistant RNG stream for (drop, link)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(drop_index, _stream_key(link_id)))
    return np.random.default_rng(seq)


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
    returns lives here except ``LinkBudget.coupling_db``; one object serves
    one loop at a time.
    """

    def __init__(self):
        self._planes = {}

    def plane(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        """The buffer called ``name``, of this shape and dtype; contents undefined."""
        buf = self._planes.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._planes[name] = np.empty(shape, dtype)
        return buf


@dataclass
class LinkBudget:
    """Per-drop coupling state for all UE x TRxP pairs.

    ``coupling_db`` lives in the ``DropWork`` that computed it: it is valid
    until the next ``compute_coupling`` call with the same work object."""

    coupling_db: np.ndarray  # (n_ue, n_trxp) pathloss + shadow - antenna gains
    serving: np.ndarray  # (n_ue,) argmin coupling


def compute_coupling(config: EvaluationConfig, layout: NetworkLayout, ues: UeDrop,
                     rng: np.random.Generator, work: DropWork | None = None) -> LinkBudget:
    """Pathloss + shadowing - antenna gain for every UE x TRxP pair.

    Distance, LOS probability, both pathloss curves and the UE's azimuth and
    zenith depend only on the site, so they are computed once per site and
    gathered to the site's TRxPs; the wrapped distance and displacement to
    each site come from the drop (``drop_ues`` computed them). LOS
    conditions and shadow fading are drawn here, once per link per drop,
    and the element gain is taken per TRxP boresight. The dense-urban micro
    layer uses its own profile. The full-size planes are ``work``'s (a
    fresh ``DropWork`` when None).
    """
    work = DropWork() if work is None else work
    delta, d2d = ues.site_delta, ues.site_dist
    n_ue, n_t = len(ues.positions), layout.n_trxps
    shape = (n_ue, n_t)
    site = layout.trxp_site
    dz = layout.site_height - config.ue_height
    d3d = np.maximum(np.sqrt(d2d ** 2 + dz ** 2), 1.0)

    # the dense-urban micro layer has its own profile; its sites follow the
    # macro ones, so each profile's site columns are one slice. With one
    # profile, sigma and penetration below are scalars, and no plane
    # operation broadcasts a row
    profiles = [profile_for(config.environment, config.config_variant)]
    spans = [slice(None)]
    trxp_profile = 0
    if layout.layout_kind is LayoutKind.DENSE_URBAN_TWO_LAYER:
        n_macro = int(np.count_nonzero(~layout.site_is_micro))
        if layout.site_is_micro[:n_macro].any():
            raise InternalError("dense-urban micro sites must follow the macro sites")
        profiles.append(profile_for(config.environment, config.config_variant, micro=True))
        spans = [slice(n_macro), slice(n_macro, None)]
        trxp_profile = layout.trxp_is_micro.astype(np.intp)

    p_los = np.empty_like(d2d)
    pl_los = np.empty_like(d2d)
    pl_nlos = np.empty_like(d2d)
    for profile, cols in zip(profiles, spans):
        h_ref = float(layout.site_height[cols][0])
        p_los[:, cols] = los_probability(profile.plos_model, d2d[:, cols])
        pl_los[:, cols], pl_nlos[:, cols] = pathloss_curves(
            profile, config.carrier_frequency, d3d[:, cols], h_ref, config.ue_height)

    # shadowing sigma and penetration loss of each column's profile
    sf_los, sf_nlos, pen_high, pen_low = np.array(
        [(p.los.sf_sigma_db, p.nlos.sf_sigma_db, p.pen_high_db, p.pen_low_db)
         for p in profiles])[trxp_profile].T

    # pl = (LOS ? pl_los : pl_nlos) + sigma * z + indoor penetration, with
    # no masked write on the random LOS pattern: both selects are _select's.
    # The draw plane holds the LOS uniforms, then the shadowing normals; the
    # gather plane the LOS probability, pl_nlos, then sigma
    draw = rng.random(out=work.plane("draw", shape))
    gather = np.take(p_los, site, axis=1, out=work.plane("gather", shape), mode="clip")
    los = np.less(draw, gather, out=work.plane("los", shape, bool)).view(np.int8)
    np.negative(los, out=los)  # the select mask: -1 (every bit set) on LOS links
    sf_z = rng.standard_normal(out=draw)
    pl = np.take(pl_los, site, axis=1, out=work.plane("coupling", shape), mode="clip")
    _select(los, pl, np.take(pl_nlos, site, axis=1, out=gather, mode="clip"), out=pl)
    sigma = _select(los, sf_los, sf_nlos, out=gather)
    pl += np.multiply(sigma, sf_z, out=sf_z)
    # one masked add per building type; each mask is constant along a row
    high = ues.indoor & ues.high_loss
    for pen, rows in ((pen_high, high), (pen_low, ues.indoor & ~high)):
        np.add(pl, pen, out=pl, where=rows[:, None])

    # BS-side element gain toward each UE, evaluated on the macro TRxPs and
    # their sites only: micro/indoor points are omnidirectional at their
    # element gain. x lies in [-270, 360]: below 0 numpy's float remainder
    # mod 360 is exactly x + 360; at 360 (boresight 0, UE due west) it would
    # give -180 where this gives +180, which has the same gain
    macro = ~layout.trxp_is_micro
    macro_sites, col = (slice(None), site) if macro.all() else \
        np.unique(site[macro], return_inverse=True)
    macro_shape = (n_ue, len(col))
    to_site = delta[:, macro_sites]
    az = np.degrees(np.arctan2(to_site[..., 1], to_site[..., 0]))
    x = np.take(az, col, axis=1, out=work.plane("gain", macro_shape), mode="clip")
    x -= layout.trxp_boresight_deg[macro]
    x += 180.0
    x += 360.0 * (x < 0.0)
    x -= 180.0
    # zenith of the UE seen from the BS
    zen = np.degrees(np.arctan2(d2d[:, macro_sites], dz[macro_sites]))
    zen_eff = np.clip(zen - config.antenna_bs.downtilt_deg, 0.0, 180.0)
    gain = element_gain(config.bs_pattern(), x,
                        np.take(zen_eff, col, axis=1, out=work.plane("zenith", macro_shape),
                                mode="clip"),
                        out=x)
    if not macro.all():
        omni = draw  # the shadowing normals are spent
        omni[...] = float(config.bs_element_gain)
        omni[:, macro] = gain
        gain = omni

    pl -= gain
    pl -= config.ue_element_gain
    return LinkBudget(coupling_db=pl, serving=np.argmin(pl, axis=1))


def _select(mask: np.ndarray, a, b, out: np.ndarray) -> np.ndarray:
    """``np.where(mask, a, b)`` written to ``out`` with no branch per element.

    ``mask`` is a signed integer array of 0 and -1 (every bit set, also
    once widened to 64 bits). The result is the bit select
    b ^ ((a ^ b) & mask) on the floats' 64-bit patterns, so each element is
    one of its operands bit for bit. ``out`` may be ``a`` but not ``b``.
    """
    bits = out.view(np.int64)
    a, b = (np.asarray(v, dtype=float).view(np.int64) for v in (a, b))
    # a ^ b at the operands' own shape: a scalar or a row broadcasts once
    diff = np.bitwise_xor(a, b, out=bits if a.shape == bits.shape else None)
    np.bitwise_and(diff, mask, out=bits)
    np.bitwise_xor(bits, b, out=bits)
    return out


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


def run_drop(config: EvaluationConfig, layout: NetworkLayout, drop_index: int,
             sinr_only: bool = False, work: DropWork | None = None) -> DropResult:
    """One Monte-Carlo drop: place UEs, build the link budget, compute DL
    and UL SINR with explicit inter-site interference, and (unless
    sinr_only) run the scheduler to get per-UE throughput. A loop of drops
    passes one ``work`` to every drop; the result never shares its memory."""
    work = DropWork() if work is None else work
    rng_ues = derive_stream(config.master_seed, drop_index, "ues")
    rng_links = derive_stream(config.master_seed, drop_index, "links")
    rng_sched = derive_stream(config.master_seed, drop_index, "sched")

    ues = drop_ues(layout, config, rng_ues)
    budget = compute_coupling(config, layout, ues, rng_links, work)
    n_ue, n_t = budget.coupling_db.shape
    serving = budget.serving

    # --- downlink: every co-channel TRxP transmits at full configured power
    tx_dbm = np.full(n_t, config.bs_tx_power)
    if layout.layout_kind is LayoutKind.DENSE_URBAN_TWO_LAYER:
        tx_dbm[layout.trxp_is_micro] += MICRO_TX_OFFSET_DB
    # unit-power coupling gain times each TRxP's transmit power, in the
    # plane of compute_coupling's spent random draws
    rx_mw = np.negative(budget.coupling_db, out=work.plane("draw", (n_ue, n_t)))
    db_to_lin(rx_mw, out=rx_mw)
    rx_mw *= db_to_lin(tx_dbm)
    idx = np.arange(n_ue)
    dl_branches = config.antenna_ue.n_ports
    dl_serving_mw = rx_mw[idx, serving] * dl_branches  # MRC array gain on the signal
    dl_interf_mw = rx_mw.sum(axis=1) - rx_mw[idx, serving]
    dl_noise_dbm = noise_power(config.bandwidth, config.ue_noise_figure,
                               config.thermal_noise_density)
    dl_noise_mw = float(db_to_lin(dl_noise_dbm))
    dl_sinr = dl_serving_mw / (dl_interf_mw + dl_noise_mw)

    # --- uplink: open-loop power control, one co-scheduled UE per other cell
    is_mmtc_style = config.traffic.kind is TrafficKind.POISSON_MESSAGING
    ul_user_bw = config.traffic.w_user_hz if is_mmtc_style else \
        config.bandwidth / config.link.mu_layers_ul
    cl_serving = budget.coupling_db[idx, serving]
    p_ue = uplink_power_control(cl_serving, config.link.ul_p0_dbm, config.link.ul_alpha,
                                config.ue_tx_power)
    ul_noise_dbm = noise_power(ul_user_bw, config.bs_noise_figure, config.thermal_noise_density)
    ul_noise_mw = float(db_to_lin(ul_noise_dbm))
    ul_branches = config.antenna_bs.n_ports

    by_cell = np.argsort(serving, kind="stable")
    cell_sizes = np.bincount(serving, minlength=n_t)
    pick = _uplink_interferers(by_cell, cell_sizes, rng_sched)
    active = pick >= 0
    # received power of every cell's active UE at every TRxP: (n_active, n_t)
    act_idx = pick[active]
    own_cell = np.flatnonzero(active)
    act_rx_mw = db_to_lin(p_ue[act_idx, None] - budget.coupling_db[act_idx, :])
    total = act_rx_mw.sum(axis=0)
    own_contrib = np.zeros(n_t)
    own_contrib[own_cell] = act_rx_mw[np.arange(len(own_cell)), own_cell]
    interf_at = total - own_contrib

    ul_serving_mw = db_to_lin(p_ue - cl_serving) * ul_branches
    ul_interf_mw = interf_at[serving]
    ul_sinr = ul_serving_mw / (ul_interf_mw + ul_noise_mw)

    # mean cell IoT taken over per-TRxP values in dB
    iot_db = float(np.mean(lin_to_db(np.maximum(interf_at, 1e-30) / ul_noise_mw)))

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
    n_intervals = max(1, int(round(config.duration_t / 1e-3)))
    dt = config.duration_t / n_intervals
    rates_ul = np.asarray(sinr_to_se(lk.abstraction(UPLINK), result.ul_sinr_db - backoff)) \
        * ul_user_bw
    ul_resources = int(config.traffic.eval_bandwidth_hz // config.traffic.w_user_hz) \
        if is_mmtc_style else lk.mu_layers_ul

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
        rates_dl = np.asarray(sinr_to_se(lk.abstraction(DOWNLINK),
                                         result.dl_sinr_db - backoff)) * config.bandwidth
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
    use reserved stream indices so they never collide with run drops.
    """
    target = config.link.ul_iot_target_db
    warnings = []
    cfg = config
    achieved = math.inf
    work = DropWork()
    for iteration in range(max_iterations):
        iots = []
        for p in range(probes):
            drop = _CALIBRATION_DROP_BASE + iteration * probes + p
            iots.append(run_drop(cfg, layout, drop, sinr_only=True, work=work).mean_iot_db)
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

    def kpi(self, metric: str, direction: str | None = None, speed_kmh: float | None = None):
        for k in self.kpis:
            if k.metric == metric and (direction is None or k.direction == direction) \
                    and (speed_kmh is None or k.speed_kmh == speed_kmh):
                return k
        raise KeyError(f"no KPI ({metric}, {direction}, {speed_kmh}) in this run")


_WORKER_STATE: dict = {}


def _worker_init(config, layout, sinr_only):
    _WORKER_STATE["args"] = (config, layout, sinr_only)
    _WORKER_STATE["work"] = DropWork()


def _drop_worker(drop_index):
    config, layout, sinr_only = _WORKER_STATE["args"]
    return run_drop(config, layout, drop_index, sinr_only, _WORKER_STATE["work"])


def _drops(config: EvaluationConfig, layout: NetworkLayout, indices: range,
           sinr_only: bool, workers: int = 1):
    """``run_drop`` of each index, yielded in index order: through one
    ``DropWork`` with one worker, else from a pool whose workers keep one
    each. Closing the generator early shuts the pool down."""
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
    environment. Results are identical for any worker count."""
    layout = build_layout(config)
    warnings = []
    if calibrate:
        config, _, warnings = calibrate_ul_power(config, layout)

    names = ("sinr_db",) if sinr_only else ("sinr_db", "user_se", "user_tput_bps")
    cdfs = {f"{prefix}_{name}": metrics.CdfEstimator()
            for name in names for prefix in _PREFIX.values()}
    monitor = metrics.ConvergenceMonitor(window=convergence_window, tol=convergence_tol,
                                         max_drops=config.drops)
    per_drop_mean = []
    iot_values = []
    bits_per_drop = {DOWNLINK: [], UPLINK: []}
    n_mux_values = []
    b_pool = []
    status = "capped"
    with contextlib.closing(_drops(config, layout, range(config.drops), sinr_only,
                                   workers)) as drops:
        for drop in drops:
            mean_ul = float(np.mean(drop.ul_sinr_db))
            per_drop_mean.append(mean_ul)
            iot_values.append(drop.mean_iot_db)
            for direction, prefix in _PREFIX.items():
                cdfs[f"{prefix}_sinr_db"].add(getattr(drop, f"{prefix}_sinr_db"))
                bits = getattr(drop, f"{prefix}_bits")
                if bits is not None:
                    bits_per_drop[direction].append(float(bits.sum()))
                    cdfs[f"{prefix}_user_se"].add(bits / (config.duration_t * config.bandwidth))
                    cdfs[f"{prefix}_user_tput_bps"].add(bits / config.duration_t)
            n_mux_values.append(drop.n_mux_ul)
            if drop.b_values_ul is not None:
                b_pool.append(drop.b_values_ul)
            if early_stop and monitor.observe(mean_ul) == metrics.CONVERGED:
                status = "converged"
                break

    return RunResult(
        config=config,
        layout=layout,
        drops_executed=len(per_drop_mean),
        convergence_status=status,
        kpis=_assemble_kpis(config, layout.n_trxps, cdfs, bits_per_drop, n_mux_values,
                            b_pool, sinr_only),
        cdfs=cdfs,
        per_drop_mean_ul_sinr=np.array(per_drop_mean),
        mean_iot_db=float(np.mean(iot_values)) if iot_values else math.nan,
        warnings=warnings,
    )


def _assemble_kpis(config, n_trxps, cdfs, bits_per_drop, n_mux_values, b_pool, sinr_only):
    kpis = []
    env = config.environment
    lk = config.link

    # reliability needs only the SINR CDFs, so it survives sinr_only mode
    if env is TestEnvironment.URBAN_MACRO_URLLC:
        for direction, prefix in _PREFIX.items():
            prob = metrics.reliability(cdfs[f"{prefix}_sinr_db"], lk.bler_model(), lk.harq(),
                                       extra_backoff_db=lk.csi_backoff_db)
            kpis.append(KpiValue("reliability", direction, prob, "probability"))
    if sinr_only:
        return kpis

    if env in EMBB_ENVIRONMENTS:
        for direction, prefix in _PREFIX.items():
            avg_se = metrics.avg_spectral_efficiency(bits_per_drop[direction], config.duration_t,
                                                     config.bandwidth, n_trxps)
            kpis.append(KpiValue("avg_se", direction, avg_se, "bit/s/Hz/TRxP"))
            se = metrics.pct5_user_se(cdfs[f"{prefix}_user_se"])
            kpis.append(KpiValue("pct5_se", direction, se, "bit/s/Hz"))
        # normalized traffic-channel rate at the speeds the requirement table names
        for speed in [r.speed_kmh for r in builtin_requirements().rows
                      if r.environment is env and r.metric == "mobility_rate"]:
            rate = metrics.mobility_rate(
                cdfs["ul_sinr_db"], speed, config.carrier_frequency,
                lk.abstraction(UPLINK), extra_backoff_db=lk.csi_backoff_db)
            kpis.append(KpiValue("mobility_rate", UPLINK, rate, "bit/s/Hz", speed_kmh=speed))
        if env is TestEnvironment.DENSE_URBAN_EMBB:
            for direction, prefix in _PREFIX.items():
                rate = metrics.pct5_user_se(cdfs[f"{prefix}_user_tput_bps"])
                kpis.append(KpiValue("ued_rate", direction, rate, "bit/s"))

    if env is TestEnvironment.URBAN_MACRO_MMTC and b_pool:
        density = metrics.connection_density_fullbuffer(
            float(np.mean(n_mux_values)), config.traffic.eval_bandwidth_hz,
            np.concatenate(b_pool), config.isd)
        kpis.append(KpiValue("connection_density", UPLINK, density, "/km^2",
                             note="full-buffer multiplexing route"))
    return kpis


# ---------------------------------------------------------------------------
# non-full-buffer connection density route


@dataclass(frozen=True)
class MessageLinks:
    """Per-UE uplink message service of one drop: the same at every density."""

    members: list  # per TRxP, the ascending ids of the UEs it serves
    se: np.ndarray  # (n_ue,) spectral efficiency after the CSI backoff
    tx_time: np.ndarray  # (n_ue,) seconds per transmission of one PDU
    p_success: np.ndarray  # (n_ue,) probability that one transmission decodes


def message_links(config: EvaluationConfig, layout: NetworkLayout,
                  probe: DropResult) -> MessageLinks:
    """Map each UE's uplink SINR in the SINR-only drop ``probe`` to its
    message service (saturated-neighbor interference: the drop's
    per-victim level)."""
    spec, lk = config.traffic, config.link
    sinr = probe.ul_sinr_db - lk.csi_backoff_db
    se = np.asarray(sinr_to_se(lk.abstraction(UPLINK), sinr))
    # undecodable messages still occupy the channel at the slowest rate for
    # the full retransmission budget, then count as lost
    tx_time = spec.pdu_size_bytes * 8 / np.maximum(se, _SE_CHANNEL_FLOOR) / spec.w_user_hz
    p_success = np.clip(1.0 - np.asarray(bler(lk.bler_model(), sinr)), 1e-9, 1.0)
    by_cell = np.argsort(probe.serving, kind="stable")
    bounds = np.cumsum(np.bincount(probe.serving, minlength=layout.n_trxps))[:-1]
    return MessageLinks(np.split(by_cell, bounds), se, tx_time, p_success)


def _search_links(config: EvaluationConfig, layout: NetworkLayout, n_drops: int) -> list:
    """``message_links`` of SINR-only drops 0 .. n_drops - 1; their
    ``DropWork`` is freed before any probe runs."""
    return [message_links(config, layout, probe)
            for probe in _drops(config, layout, range(n_drops), sinr_only=True)]


def _queue_capacity(mean_messages: float) -> int:
    """Rows to allocate for Poisson(mean) queues; longer ones grow the arrays."""
    return int(mean_messages + 6.0 * math.sqrt(mean_messages)) + 16


def evaluate_p99_delay(config: EvaluationConfig, layout: NetworkLayout,
                       density_per_km2: float, n_drops: int = 3,
                       horizon_s: float = 20.0, record_sink: list | None = None,
                       links: list | None = None) -> float:
    """99th-percentile message delay at the given device density.

    Messages arrive per cell as aggregate Poisson traffic (device density x
    sector area x per-device rate); each message samples a fresh device
    position. Service uses the narrowband channels of the evaluated
    carrier, retransmissions draw from the block-error model, and the
    co-channel interference level comes from the same budget machinery as
    the full-buffer runs (saturated-neighbor assumption).

    ``links`` holds ``message_links`` of drops 0 .. n_drops - 1 (and then
    sets the drop count); a search computes them once for all its probes,
    and they are computed here when it is None. The per-cell loop only
    draws (``poisson``, ``uniform``, ``integers``, ``geometric`` per cell,
    an order that fixes the results of a seed) into padded (queues x
    messages) arrays, one contiguous row per drop and cell, and
    ``serve_fifo`` serves every queue at once from their transposes. An
    undelivered message counts as an infinite delay (see metrics.p99_delay
    for the percentile rule around ``inf``).

    When ``record_sink`` is given, per-message rows (drop, cell, arrival,
    service start, completion, transmissions, delivered) are appended to it
    as Python (int, int, float, float, float, int, bool) tuples.
    """
    spec = config.traffic
    if spec.kind is not TrafficKind.POISSON_MESSAGING:
        raise DomainError("density evaluation needs the Poisson messaging traffic model")
    if links is None:
        links = _search_links(config, layout, n_drops)
    area_km2 = layout.sector_area_m2 / 1e6
    mean_messages = density_per_km2 * area_km2 * spec.rate_per_s * horizon_s
    n_servers = max(1, int(spec.eval_bandwidth_hz // spec.w_user_hz))
    n_t = layout.n_trxps
    shape = (len(links) * n_t, _queue_capacity(mean_messages))
    arrival, busy = np.zeros(shape), np.zeros(shape)
    delivered = np.zeros(shape, dtype=bool)
    lengths = np.zeros(shape[0], dtype=np.intp)
    transmissions = {}  # queue -> transmissions per message, kept for record_sink

    for d, link in enumerate(links):
        rng = derive_stream(config.master_seed, d, "density")
        for c, members in enumerate(link.members):
            n_msgs = rng.poisson(mean_messages)
            if n_msgs == 0:
                continue
            times = np.sort(rng.uniform(0.0, horizon_s, size=n_msgs))
            # sample message SINRs from this drop's UE population of the cell
            if len(members) == 0:
                continue
            chosen = members[rng.integers(len(members), size=n_msgs)]
            first_success = rng.geometric(link.p_success[chosen])
            n_tx = np.minimum(first_success, _MAX_MESSAGE_ATTEMPTS)
            if n_msgs > arrival.shape[1]:
                arrival, busy, delivered = (
                    np.concatenate([a, np.zeros((len(a), n_msgs - a.shape[1]), a.dtype)],
                                   axis=1)
                    for a in (arrival, busy, delivered))
            q = d * n_t + c
            lengths[q] = n_msgs
            arrival[q, :n_msgs] = times
            busy[q, :n_msgs] = spec.overhead_s + n_tx * link.tx_time[chosen]
            delivered[q, :n_msgs] = (link.se[chosen] > 0.0) & \
                (first_success <= _MAX_MESSAGE_ATTEMPTS)
            if record_sink is not None:
                transmissions[q] = n_tx

    rows = int(lengths.max(initial=0))
    if rows == 0:
        return 0.0
    arrival, busy, delivered = arrival[:, :rows], busy[:, :rows], delivered[:, :rows]
    starts = np.empty_like(arrival) if record_sink is not None else None
    delays = serve_fifo(arrival.T, busy.T, n_servers, lengths,
                        None if starts is None else starts.T)
    # serve_fifo orders delays by position, then queue: gather delivered alike
    delays[~delivered.T[np.arange(rows)[:, None] < lengths]] = np.inf
    if record_sink is not None:
        for q in np.flatnonzero(lengths).tolist():
            n, (d, c) = int(lengths[q]), divmod(q, n_t)
            start = starts[q, :n]
            record_sink.extend(zip(repeat(d), repeat(c), arrival[q, :n].tolist(),
                                   start.tolist(), (start + busy[q, :n]).tolist(),
                                   transmissions[q].tolist(), delivered[q, :n].tolist()))
    del arrival, busy, delivered, starts  # freed before the percentile copies delays
    return metrics.p99_delay(delays)


def density_search(config: EvaluationConfig, lo_per_km2: float = 2e5,
                   hi_per_km2: float = 4e7, steps: int = 10,
                   n_drops: int = 3, layout: NetworkLayout | None = None):
    """Non-full-buffer connection density: the largest device density whose
    99th-percentile delay stays within 10 s. Without ``layout`` it builds and
    calibrates its own; a passed layout comes with the calibrated config of its run."""
    if layout is None:
        layout = build_layout(config)
        config, _, _ = calibrate_ul_power(config, layout)

    links = _search_links(config, layout, n_drops)

    def probe(density):
        return evaluate_p99_delay(config, layout, density, n_drops=n_drops, links=links)

    return metrics.connection_density_search(probe, lo_per_km2, hi_per_km2, steps=steps), config
