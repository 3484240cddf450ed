"""Per-link stochastic channel generation (small-scale fading).

The per-link pipeline: assign the LOS/NLOS condition, compute pathloss,
draw correlated large-scale parameters, build the cluster set (delays,
powers, angles, ray coupling, XPR, initial phases), then evaluate
time-varying coefficients per antenna element pair and finally scale by
pathloss and shadowing. The drop loop does not call it: the engine's link
budget reads only the curves in ``model``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..antenna import ArrayConfig, ElementPattern, array_response, element_gain
from ..errors import DomainError
from .model import SPEED_OF_LIGHT, los_probability, pathloss_curves
from .profiles import C_PHI, C_THETA, N_RAYS, RAY_OFFSETS, ChannelProfile, ConditionParams


@dataclass(frozen=True)
class PropagationCondition:
    los: bool
    indoor: bool = False
    high_loss: bool = False


def assign_los(profile: ChannelProfile, d2d_m: float, indoor: bool,
               rng: np.random.Generator, high_loss: bool = False) -> PropagationCondition:
    """Bernoulli LOS draw from the profile's probability curve (fixed per drop)."""
    p = float(los_probability(profile.plos_model, d2d_m))
    return PropagationCondition(los=bool(rng.uniform() < p), indoor=indoor,
                                high_loss=high_loss)


def pathloss(profile: ChannelProfile, condition: PropagationCondition, fc_hz: float,
             tx_pos, rx_pos) -> float:
    """Pathloss in dB for one link, including building penetration for
    indoor receivers; a link shorter than 1 m in 3D is a DomainError."""
    tx = np.asarray(tx_pos, dtype=float)
    rx = np.asarray(rx_pos, dtype=float)
    d3d = float(np.linalg.norm(tx - rx))
    if d3d < 1.0:
        raise DomainError(f"3D distance {d3d:.3f} m below minimum 1.0 m")
    pl_los, pl_nlos = pathloss_curves(profile, fc_hz, d3d, tx[2], rx[2])
    pl = float(pl_los if condition.los else pl_nlos)
    if condition.indoor:
        pl += profile.pen_high_db if condition.high_loss else profile.pen_low_db
    return pl


@dataclass(frozen=True)
class LargeScaleParams:
    ds_s: float  # rms delay spread, seconds
    asd_deg: float
    asa_deg: float
    zsd_deg: float
    zsa_deg: float
    sf_db: float
    ricean_k_db: float | None  # None for NLOS


def gen_lsp(params: ConditionParams, los: bool, rng: np.random.Generator) -> LargeScaleParams:
    """Correlated LSP draw: Cholesky-colored Gaussian scores mapped to
    log-normal spreads, normal shadow fading and (LOS only) Ricean K."""
    z = params.chol @ rng.standard_normal(7)  # order: sf, k, ds, asd, asa, zsd, zsa
    sf = params.sf_sigma_db * z[0]
    k = params.k_mu_db + params.k_sigma_db * z[1] if los else None
    ds = 10.0 ** (params.lg_ds_mu + params.lg_ds_sigma * z[2])
    asd = min(10.0 ** (params.lg_asd_mu + params.lg_asd_sigma * z[3]), 104.0)
    asa = min(10.0 ** (params.lg_asa_mu + params.lg_asa_sigma * z[4]), 104.0)
    zsd = min(10.0 ** (params.lg_zsd_mu + params.lg_zsd_sigma * z[5]), 52.0)
    zsa = min(10.0 ** (params.lg_zsa_mu + params.lg_zsa_sigma * z[6]), 52.0)
    return LargeScaleParams(ds, asd, asa, zsd, zsa, sf, k)


@dataclass(frozen=True)
class ClusterSet:
    delays_s: np.ndarray  # (n,), sorted, first element 0
    powers: np.ndarray  # (n,), sum 1
    aoa_deg: np.ndarray
    aod_deg: np.ndarray
    zoa_deg: np.ndarray
    zod_deg: np.ndarray
    perm_aoa: np.ndarray  # (n, N_RAYS) ray coupling permutations
    perm_zoa: np.ndarray
    xpr_linear: np.ndarray  # (n, N_RAYS)
    phases_rad: np.ndarray  # (n, N_RAYS, 4): theta-theta, theta-phi, phi-theta, phi-phi
    c_asd_deg: float
    c_asa_deg: float
    c_zsa_deg: float
    c_zsd_deg: float


def _draw_angles(spread_deg, ratio, c_const, center_deg, los, rng, zenith=False):
    n = len(ratio)
    if zenith:
        base = -spread_deg * np.log(ratio) / c_const
    else:
        base = 2.0 * (spread_deg / 1.4) * np.sqrt(-np.log(ratio)) / c_const
    signs = np.array((-1.0, 1.0))[rng.integers(0, 2, size=n)]
    jitter = rng.normal(0.0, spread_deg / 7.0, size=n)
    angles = signs * base + jitter + center_deg
    if los:
        # first (strongest-by-construction) cluster aligns with the LOS ray
        angles = angles - (angles[0] - center_deg)
    return angles


def gen_clusters(lsp: LargeScaleParams, n_clusters: int, rng: np.random.Generator,
                 params: ConditionParams,
                 los: bool = False,
                 center_aoa_deg: float = 0.0, center_aod_deg: float = 0.0,
                 center_zoa_deg: float = 90.0, center_zod_deg: float = 90.0) -> ClusterSet:
    """Cluster-level small-scale structure (generation steps 5 through 10)."""
    DomainError.require_counts(1, n_clusters=n_clusters)
    if n_clusters == 1:
        delays = np.zeros(1)
        powers = np.ones(1)
        ratio = np.ones(1)
    else:
        raw = -params.r_tau * lsp.ds_s * np.log(rng.uniform(size=n_clusters))
        delays = np.sort(raw - raw.min())
        shadow = 10.0 ** (-params.per_cluster_shadow_db * rng.standard_normal(n_clusters) / 10.0)
        powers = np.exp(-delays * (params.r_tau - 1.0) / (params.r_tau * lsp.ds_s)) * shadow
        powers = powers / powers.sum()
        ratio = np.clip(powers / powers.max(), 1e-12, 1.0)

    c_phi = C_PHI.get(n_clusters, 1.0)
    c_theta = C_THETA.get(n_clusters, 1.0)
    if los and lsp.ricean_k_db is not None:
        # scaling factors shrink slightly with K (keeps spreads consistent)
        k = lsp.ricean_k_db
        c_phi = c_phi * (1.1035 - 0.028 * k - 0.002 * k ** 2 + 0.0001 * k ** 3)
        c_theta = c_theta * (1.3086 + 0.0339 * k - 0.0077 * k ** 2 + 0.0002 * k ** 3)

    aoa = _draw_angles(lsp.asa_deg, ratio, c_phi, center_aoa_deg, los, rng)
    aod = _draw_angles(lsp.asd_deg, ratio, c_phi, center_aod_deg, los, rng)
    zoa = _draw_angles(lsp.zsa_deg, ratio, c_theta, center_zoa_deg, los, rng, zenith=True)
    zod = _draw_angles(lsp.zsd_deg, ratio, c_theta, center_zod_deg, los, rng, zenith=True)

    rays = np.tile(np.arange(N_RAYS), (n_clusters, 1))
    perm_aoa = rng.permuted(rays, axis=1)
    perm_zoa = rng.permuted(rays, axis=1)
    xpr_db = rng.normal(params.xpr_mu_db, params.xpr_sigma_db, size=(n_clusters, N_RAYS))
    xpr = 10.0 ** (xpr_db / 10.0)
    phases = rng.uniform(-math.pi, math.pi, size=(n_clusters, N_RAYS, 4))

    return ClusterSet(
        delays_s=delays, powers=powers,
        aoa_deg=aoa, aod_deg=aod, zoa_deg=zoa, zod_deg=zod,
        perm_aoa=perm_aoa, perm_zoa=perm_zoa,
        xpr_linear=xpr, phases_rad=phases,
        c_asd_deg=params.c_asd, c_asa_deg=params.c_asa,
        c_zsa_deg=params.c_zsa, c_zsd_deg=0.375 * lsp.zsd_deg,
    )


@dataclass(frozen=True)
class ChannelRealization:
    """Everything needed to evaluate H(t) for one link."""

    pathloss_db: float
    shadow_db: float
    condition: PropagationCondition
    clusters: ClusterSet
    ricean_k_db: float | None
    carrier_hz: float
    speed_kmh: float
    direction_rad: float
    los_aoa_deg: float
    los_aod_deg: float
    los_zoa_deg: float
    los_zod_deg: float
    d3d_m: float


def _fold_zenith(zen_deg: np.ndarray) -> np.ndarray:
    z = np.mod(zen_deg, 360.0)
    return np.where(z > 180.0, 360.0 - z, z)


def _wrap_azimuth(az_deg: np.ndarray) -> np.ndarray:
    return (np.asarray(az_deg) + 180.0) % 360.0 - 180.0


def _ray_geometry(real: ChannelRealization):
    """Per-ray angles (degrees) after applying ray offsets and coupling.

    Supports cluster sets with any ray count: the departure side uses the
    offset table in order, the arrival side follows the coupling
    permutations.
    """
    cl = real.clusters
    m = cl.perm_aoa.shape[1]
    aod = cl.aod_deg[:, None] + cl.c_asd_deg * RAY_OFFSETS[None, :m]
    zod = cl.zod_deg[:, None] + cl.c_zsd_deg * RAY_OFFSETS[None, :m]
    aoa = cl.aoa_deg[:, None] + cl.c_asa_deg * RAY_OFFSETS[cl.perm_aoa]
    zoa = cl.zoa_deg[:, None] + cl.c_zsa_deg * RAY_OFFSETS[cl.perm_zoa]
    return (_wrap_azimuth(aoa), _wrap_azimuth(aod),
            _fold_zenith(zoa), _fold_zenith(zod))


def _field_and_phase(cfg: ArrayConfig, pattern: ElementPattern, az_deg, zen_deg):
    """Per-element field amplitudes (theta/phi components) and array phases
    at the given ray angles, each of shape (n_elem,) + the angles' shape."""
    gain_db = element_gain(pattern, np.clip(az_deg, -180.0, 180.0), np.clip(zen_deg, 0.0, 180.0))
    amp = np.sqrt(10.0 ** (np.asarray(gain_db) / 10.0))
    slants = np.radians(cfg.polarization_slants_deg())  # (u,)
    f_theta = np.multiply.outer(np.cos(slants), amp)
    f_phi = np.multiply.outer(np.sin(slants), amp)
    phase = array_response(cfg, np.ravel(az_deg), np.ravel(zen_deg))
    return f_theta, f_phi, phase.reshape((cfg.n_elements,) + np.shape(az_deg))


def channel_coeff(real: ChannelRealization,
                  tx_cfg: ArrayConfig, tx_pattern: ElementPattern,
                  rx_cfg: ArrayConfig, rx_pattern: ElementPattern,
                  t_s) -> np.ndarray:
    """Channel matrix H(t) of shape (n_rx, n_tx), or (n_t, n_rx, n_tx) for a
    vector of times. Pathloss and shadowing are NOT applied here.

    One sum over rays of field-pattern products, the 2x2 polarization
    coupling (XPR and initial random phases), array phase terms and per-ray
    Doppler. A LOS realization appends the deterministic ray, with coupling
    diag(1, -1) and weight sqrt(K/(K+1)), and scales the cluster rays by
    sqrt(1/(K+1)), so total power is preserved (TR 38.901 eq. 7.5-30).
    """
    t = np.atleast_1d(np.asarray(t_s, dtype=float))
    cl = real.clusters
    aoa, aod, zoa, zod = (np.ravel(a) for a in _ray_geometry(real))
    m = cl.perm_aoa.shape[1]
    lam = SPEED_OF_LIGHT / real.carrier_hz

    # per ray: coupling [[theta-theta, theta-phi], [phi-theta, phi-phi]] and weight
    coupling = np.exp(1j * cl.phases_rad.reshape(-1, 4).T).reshape(2, 2, -1)
    inv_sqrt_xpr = np.sqrt(1.0 / cl.xpr_linear).ravel()
    coupling[0, 1] *= inv_sqrt_xpr
    coupling[1, 0] *= inv_sqrt_xpr
    weight = np.repeat(np.sqrt(cl.powers / m), m)
    if real.condition.los and real.ricean_k_db is not None:
        k_lin = 10.0 ** (real.ricean_k_db / 10.0)
        aoa, zoa = np.append(aoa, real.los_aoa_deg), np.append(zoa, real.los_zoa_deg)
        aod, zod = np.append(aod, real.los_aod_deg), np.append(zod, real.los_zod_deg)
        coupling = np.dstack((coupling, [[1.0, 0.0], [0.0, -1.0]]))
        los_weight = math.sqrt(k_lin / (k_lin + 1.0)) * np.exp(-1j * 2.0 * np.pi * real.d3d_m / lam)
        weight = np.append(weight * math.sqrt(1.0 / (k_lin + 1.0)), los_weight)

    fr_t, fr_p, ph_rx = _field_and_phase(rx_cfg, rx_pattern, aoa, zoa)
    ft_t, ft_p, ph_tx = _field_and_phase(tx_cfg, tx_pattern, aod, zod)
    rx = np.stack((fr_t, fr_p), axis=1) * ph_rx[:, None]  # (u, 2, ray)
    tx = np.stack((ft_t, ft_p), axis=1) * ph_tx[:, None]  # (s, 2, ray)

    # Doppler frequency per ray from the arrival direction vs UE motion
    nu = (real.speed_kmh / 3.6 / lam) * np.sin(np.radians(zoa)) * np.cos(
        np.radians(aoa) - real.direction_rad)
    dopp = weight * np.exp(1j * 2.0 * np.pi * np.multiply.outer(t, nu))  # (T, ray)
    # the sum over (b, ray) as one matrix product: folded into the einsum,
    # it runs several times slower on multi-element arrays
    g = np.einsum("uar,abr->ubr", rx, coupling) * dopp[:, None, None, :]  # (T, u, 2, ray)
    h = g.reshape(len(t), len(rx), -1) @ tx.reshape(len(tx), -1).T
    return h[0] if np.ndim(t_s) == 0 else h


def apply_pl_sf(real: ChannelRealization, coeff: np.ndarray) -> np.ndarray:
    """Scale coefficients by the amplitude factor 10^(-(PL+SF)/20)."""
    total_db = real.pathloss_db + real.shadow_db
    if not math.isfinite(total_db):
        raise DomainError("pathloss/shadow must be finite")
    return coeff * 10.0 ** (-total_db / 20.0)


def geometry_angles(tx_pos, rx_pos):
    """LOS departure/arrival angles (degrees) between two 3D positions."""
    tx = np.asarray(tx_pos, dtype=float)
    rx = np.asarray(rx_pos, dtype=float)
    d = rx - tx
    d3d = float(np.linalg.norm(d))
    d2d = float(np.hypot(d[0], d[1]))
    aod = math.degrees(math.atan2(d[1], d[0]))
    aoa = math.degrees(math.atan2(-d[1], -d[0]))
    zod = math.degrees(math.atan2(d2d, d[2]))
    zoa = math.degrees(math.atan2(d2d, -d[2]))
    return aod, aoa, zod, zoa, d3d, d2d


def realize_link(profile: ChannelProfile, fc_hz: float, tx_pos, rx_pos,
                 rng: np.random.Generator,
                 indoor: bool = False, high_loss: bool = False,
                 speed_kmh: float = 0.0, direction_rad: float = 0.0,
                 condition: PropagationCondition | None = None) -> ChannelRealization:
    """Run the full per-link generation pipeline for one link."""
    aod, aoa, zod, zoa, d3d, d2d = geometry_angles(tx_pos, rx_pos)
    if condition is None:
        condition = assign_los(profile, d2d, indoor, rng, high_loss)
    pl = pathloss(profile, condition, fc_hz, tx_pos, rx_pos)
    params = profile.condition_params(condition.los)
    lsp = gen_lsp(params, condition.los, rng)
    clusters = gen_clusters(
        lsp, params.n_clusters, rng, params, los=condition.los,
        center_aoa_deg=aoa, center_aod_deg=aod,
        center_zoa_deg=zoa, center_zod_deg=zod,
    )
    return ChannelRealization(
        pathloss_db=pl,
        shadow_db=lsp.sf_db,
        condition=condition,
        clusters=clusters,
        ricean_k_db=lsp.ricean_k_db,
        carrier_hz=fc_hz,
        speed_kmh=speed_kmh,
        direction_rad=direction_rad,
        los_aoa_deg=aoa, los_aod_deg=aod,
        los_zoa_deg=zoa, los_zod_deg=zod,
        d3d_m=d3d,
    )
