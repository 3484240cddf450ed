"""Network layouts, wrap-around services and UE drops.

The test environment fixes one of three layout families: the 19-site /
57-sector hexagonal macro grid with toroidal wrap-around, the 12-point
indoor floor (no wrap-around), and the dense-urban two-layer variant that
adds 3 randomly dropped micro points per macro sector. Sector boresights
are 30/150/270 degrees from east.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError
from .scenario import EvaluationConfig, TestEnvironment

SECTOR_BORESIGHTS_DEG = (30.0, 150.0, 270.0)
MIN_UE_DISTANCE_MACRO_M = 35.0
MIN_UE_DISTANCE_MICRO_M = 10.0
MICRO_HEIGHT_M = 10.0
MICRO_TX_OFFSET_DB = -13.0  # micro TRxP power relative to the macro layer
MICRO_MIN_SEPARATION_M = 57.9
MICROS_PER_SECTOR = 3

INDOOR_FLOOR_X_M = 120.0
INDOOR_FLOOR_Y_M = 50.0
INDOOR_BS_XS = (10.0, 30.0, 50.0, 70.0, 90.0, 110.0)
INDOOR_BS_YS = (15.0, 35.0)


# 19-site hexagonal cluster in lattice coordinates (center + 2 rings)
_HEX19_IJ = [
    (0, 0),
    (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1),
    (2, 0), (1, 1), (0, 2), (-1, 2), (-2, 2), (-2, 1),
    (-2, 0), (-1, -1), (0, -2), (1, -2), (2, -2), (2, -1),
]


@dataclass
class NetworkLayout:
    """Geometry only, macro sites and TRxPs first: sites hold position, height
    and layer, and each TRxP points to its site. ``build_layout`` sets the
    area one TRxP serves, the denominator of the density formula."""

    sector_area_m2: float
    site_positions: np.ndarray  # (n_sites, 2) meters
    site_height: np.ndarray  # (n_sites,) meters
    site_is_micro: np.ndarray  # (n_sites,) bool; micro/indoor points are omni
    trxp_site: np.ndarray  # (n_trxp,) site index
    trxp_boresight_deg: np.ndarray  # (n_trxp,)
    wrap_translations: np.ndarray  # (k, 2) meters, includes zero
    drop_basis: np.ndarray | None = None  # (2, 2) columns span the wrapped region
    drop_origin: np.ndarray | None = None  # (2,)
    drop_bbox: tuple | None = None  # ((x0, y0), (x1, y1)) for indoor

    @property
    def n_trxps(self) -> int:
        return len(self.trxp_site)

    @property
    def trxp_is_micro(self) -> np.ndarray:
        return self.site_is_micro[self.trxp_site]


def hex_sector_area_m2(isd_m: float) -> float:
    """Area of one of the three sectors of a hexagonal site at the given ISD."""
    return isd_m ** 2 * math.sqrt(3.0) / 6.0


def _wrap_set_19(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Translation set of the 19-site rhombic lattice spanned by (t1, t2).

    All 9 combinations i*T1 + j*T2 with i, j in {-1, 0, 1}: the 6 nearest
    cluster images plus the two diagonal images. The diagonals are needed
    because the drop region is the rhombus spanned by (T1, T2), whose
    corners are closer to a diagonal image than to any of the 6 neighbors.
    """
    vs = [i * t1 + j * t2 for i in (-1, 0, 1) for j in (-1, 0, 1)]
    return np.array(vs)


def _in_hex_cell(points: np.ndarray, center: np.ndarray, isd: float) -> np.ndarray:
    """True where a point lies in the hexagonal Voronoi cell of `center`."""
    rel = points - center
    ok = np.ones(len(points), dtype=bool)
    for k in range(6):
        ang = math.radians(60.0 * k)
        u = np.array([math.cos(ang), math.sin(ang)])
        ok &= rel @ u <= isd / 2.0 + 1e-9
    return ok


def _drop_micros(sites: np.ndarray, isd: float, rng: np.random.Generator) -> np.ndarray:
    """3 micro points per sector, uniform in the site's hex cell, separated
    by at least MICRO_MIN_SEPARATION_M from the site center and each other.

    Greedy rejection sampling can dead-end at small ISDs, so a site that
    cannot be completed is restarted from scratch.
    """
    r_max = isd / math.sqrt(3.0)
    sep = MICRO_MIN_SEPARATION_M
    out = []
    for site in sites:
        for _restart in range(800):
            placed = _try_micros_for_site(site, isd, r_max, sep, rng)
            if placed is not None:
                out.extend(placed)
                break
        else:
            raise DomainError("micro placement did not converge; separation too strict for ISD")
    return np.array(out)


def _try_micros_for_site(site, isd, r_max, sep, rng):
    placed = np.empty((0, 2))
    for boresight in SECTOR_BORESIGHTS_DEG:
        need = MICROS_PER_SECTOR
        for _ in range(40):  # batches per sector before declaring a dead end
            cand = site + rng.uniform(-r_max, r_max, size=(256, 2))  # one batch
            ok = _in_hex_cell(cand, site, isd)
            rel = cand - site
            az = np.degrees(np.arctan2(rel[:, 1], rel[:, 0])) % 360.0
            ok &= np.minimum((az - boresight) % 360.0, (boresight - az) % 360.0) <= 60.0
            ok &= np.linalg.norm(rel, axis=1) >= sep
            live = cand[ok]
            live = live[(np.linalg.norm(live[:, None] - placed, axis=2) >= sep).all(axis=1)]
            while need and len(live):
                placed = np.vstack([placed, live[0]])
                need -= 1
                live = live[1:][np.linalg.norm(live[1:] - live[0], axis=1) >= sep]
            if need == 0:
                break
        if need > 0:
            return None
    return placed


def build_layout(config: EvaluationConfig) -> NetworkLayout:
    """Construct the layout for the config's environment.

    The dense-urban micro layer is random; its placement stream derives
    from the master seed.
    """
    env = config.environment
    if env is TestEnvironment.INDOOR_HOTSPOT_EMBB:
        sites = np.array([[x, y] for y in INDOOR_BS_YS for x in INDOOR_BS_XS])
        n = len(sites)
        return NetworkLayout(
            sector_area_m2=INDOOR_FLOOR_X_M * INDOOR_FLOOR_Y_M / 12.0,
            site_positions=sites,
            site_height=np.full(n, config.bs_height),
            site_is_micro=np.ones(n, dtype=bool),  # ceiling points, omni
            trxp_site=np.arange(n),
            trxp_boresight_deg=np.zeros(n),
            wrap_translations=np.zeros((1, 2)),
            drop_bbox=((0.0, 0.0), (INDOOR_FLOOR_X_M, INDOOR_FLOOR_Y_M)),
        )

    isd = config.isd
    a1 = np.array([isd, 0.0])
    a2 = np.array([isd * 0.5, isd * math.sqrt(3.0) / 2.0])
    t1 = 3 * a1 + 2 * a2
    t2 = -2 * a1 + 5 * a2
    sites = np.array([i * a1 + j * a2 for i, j in _HEX19_IJ])
    n_macro = len(sites)
    heights = np.full(n_macro, config.bs_height)
    is_micro = np.zeros(n_macro, dtype=bool)
    trxp_site = np.repeat(np.arange(n_macro), len(SECTOR_BORESIGHTS_DEG))
    boresight = np.tile(SECTOR_BORESIGHTS_DEG, n_macro)

    if env is TestEnvironment.DENSE_URBAN_EMBB:
        rng = np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=(0xA11CE,)))
        micros = _drop_micros(sites, isd, rng)
        n_micro = len(micros)
        sites = np.vstack([sites, micros])
        heights = np.concatenate([heights, np.full(n_micro, MICRO_HEIGHT_M)])
        is_micro = np.concatenate([is_micro, np.ones(n_micro, dtype=bool)])
        trxp_site = np.concatenate([trxp_site, np.arange(n_macro, n_macro + n_micro)])
        boresight = np.concatenate([boresight, np.zeros(n_micro)])

    return NetworkLayout(
        sector_area_m2=hex_sector_area_m2(isd),
        site_positions=sites,
        site_height=heights,
        site_is_micro=is_micro,
        trxp_site=trxp_site,
        trxp_boresight_deg=boresight,
        wrap_translations=_wrap_set_19(t1, t2),
        drop_basis=np.column_stack([t1, t2]),
        drop_origin=-(t1 + t2) / 2.0,
    )


def wrap_displacements(layout: NetworkLayout, from_pos: np.ndarray, to_pos: np.ndarray):
    """Vectorized wrapped displacement from each `from_pos` to each `to_pos`.

    Returns (delta, dist): delta has shape (n_from, n_to, 2) holding
    to - from under the minimizing translation, dist has shape (n_from, n_to).
    The loop keeps only the least squared distance and the index of its
    translation (the first one on a tie); delta is gathered once at the end.
    Neither is a masked write: the running minimum is ``np.minimum`` (exact,
    it returns one of its operands), and the index is the running maximum of
    k times "strictly closer", which, as k only grows, is the last strict
    improvement: the first index of the least distance.
    """
    f = np.asarray(from_pos, dtype=float)[:, :2]
    t = np.asarray(to_pos, dtype=float)[:, :2]
    base_x = t[None, :, 0] - f[:, 0, None]
    base_y = t[None, :, 1] - f[:, 1, None]
    best_d2 = np.empty(base_x.shape)
    # translation indices fit a byte, and byte planes are the cheapest to
    # multiply and compare; ``step`` takes "closer" as bool, then k or 0
    best_k = np.zeros(base_x.shape, dtype=np.uint8)
    step = np.empty(base_x.shape, dtype=np.uint8)
    x, y = np.empty(base_x.shape), np.empty(base_x.shape)
    shift_x, shift_y = layout.wrap_translations.T.copy()
    for k, (tx, ty) in enumerate(zip(shift_x.tolist(), shift_y.tolist())):
        d2 = x if k else best_d2
        np.square(np.add(base_x, tx, out=x), out=x)
        np.square(np.add(base_y, ty, out=y), out=y)
        np.add(x, y, out=d2)
        if k:
            np.less(d2, best_d2, out=step.view(bool))
            np.minimum(best_d2, d2, out=best_d2)
            np.maximum(best_k, np.multiply(step, np.uint8(k), out=step), out=best_k)
    delta = np.empty(base_x.shape + (2,))
    np.add(base_x, np.take(shift_x, best_k, out=x, mode="clip"), out=delta[..., 0])
    np.add(base_y, np.take(shift_y, best_k, out=y, mode="clip"), out=delta[..., 1])
    return delta, np.sqrt(best_d2, out=best_d2)


@dataclass(frozen=True)
class UeDrop:
    """The UEs of one drop as parallel arrays; row i is UE i.

    It carries each UE's wrapped displacement and distance to every site,
    computed once from its positions. All arrays are read-only views, so the
    geometry cannot go stale: UEs placed by hand go through ``from_positions``.
    """

    positions: np.ndarray  # (n, 3) meters
    indoor: np.ndarray  # (n,) bool
    high_loss: np.ndarray  # (n,) bool, only ever set for indoor UEs
    site_delta: np.ndarray  # (n, n_sites, 2) wrapped site position - UE position
    site_dist: np.ndarray  # (n, n_sites) wrapped 2D distance

    def __post_init__(self):
        for name in _UE_DROP_FIELDS:
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @classmethod
    def from_positions(cls, layout: NetworkLayout, positions, indoor, high_loss) -> UeDrop:
        """A drop of UEs at the given (n, 3) positions, with its site geometry.

        Raises DomainError on a non-finite coordinate.
        """
        positions = np.array(positions, dtype=float)
        if not np.isfinite(positions).all():
            raise DomainError("UE positions must be finite")
        delta, dist = wrap_displacements(layout, positions, layout.site_positions)
        return cls(positions, np.asarray(indoor, dtype=bool), np.asarray(high_loss, dtype=bool),
                   delta, dist)


_UE_DROP_FIELDS = tuple(field.name for field in fields(UeDrop))


def drop_ues(layout: NetworkLayout, config: EvaluationConfig, rng: np.random.Generator) -> UeDrop:
    """Drop ues_per_trxp x n_trxps UEs uniformly over the wrapped region.

    Indoor/outdoor flags follow the configured fraction; indoor UEs draw a
    high-loss building type with probability high_loss_fraction. Positions
    closer than the per-layer minimum 2D distance to any station are
    redrawn. The wrapped geometry to every site is computed once, and each
    rejection round recomputes only the rows it redrew.
    """
    n = config.ues_per_trxp * layout.n_trxps
    pos = _sample_positions(layout, n, rng)
    sites = layout.site_positions
    delta, dist = wrap_displacements(layout, pos, sites)

    radius = np.where(layout.site_is_micro, MIN_UE_DISTANCE_MICRO_M, MIN_UE_DISTANCE_MACRO_M)
    if config.environment is TestEnvironment.INDOOR_HOTSPOT_EMBB:
        radius[:] = 0.0
    # the first round tests every UE, each later one only the rows it redrew
    rows, tested = np.arange(n), dist
    for _ in range(1000):
        rows = rows[(tested < radius).any(axis=1)]
        if not len(rows):
            break
        pos[rows] = _sample_positions(layout, len(rows), rng)
        delta[rows], tested = wrap_displacements(layout, pos[rows], sites)
        dist[rows] = tested
    else:
        raise DomainError("could not place UEs outside the exclusion radius")

    indoor = rng.uniform(size=n) < config.indoor_fraction
    high_loss = indoor & (rng.uniform(size=n) < config.high_loss_fraction)
    return UeDrop(
        positions=np.column_stack([pos, np.full(n, config.ue_height)]),
        indoor=indoor,
        high_loss=high_loss,
        site_delta=delta,
        site_dist=dist,
    )


def _sample_positions(layout: NetworkLayout, n: int, rng: np.random.Generator) -> np.ndarray:
    if layout.drop_bbox is not None:
        (x0, y0), (x1, y1) = layout.drop_bbox
        return np.column_stack([rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)])
    uv = rng.uniform(size=(n, 2))
    return layout.drop_origin[None, :] + uv @ layout.drop_basis.T


def export_layout_csv(layout: NetworkLayout, path) -> None:
    """CSV of (trxp_id, x, y, z, azimuth_deg, is_micro)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trxp_id,site_id,x_m,y_m,z_m,azimuth_deg,is_micro\n")
        for k, s in enumerate(layout.trxp_site):
            x, y = layout.site_positions[s]
            fh.write(
                f"{k},{s},{x:.3f},{y:.3f},{layout.site_height[s]:.3f},"
                f"{layout.trxp_boresight_deg[k]:.1f},{int(layout.site_is_micro[s])}\n"
            )
