"""Layout construction, wrap-around services, UE drops and attachment."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from imteval.antenna import element_gain
from imteval.channel.model import los_probability, pathloss_curves
from imteval.channel.profiles import profile_for
from imteval.errors import DomainError, InternalError
from imteval.geometry import (
    MIN_UE_DISTANCE_MICRO_M,
    MICRO_MIN_SEPARATION_M,
    MIN_UE_DISTANCE_MACRO_M,
    MICROS_PER_SECTOR,
    SECTOR_BORESIGHTS_DEG,
    NetworkLayout,
    UeDrop,
    _in_hex_cell,
    _sample_positions,
    _try_micros_for_site,
    build_layout,
    drop_ues,
    hex_sector_area_m2,
    wrap_displacements,
)
from imteval.scenario import EvaluationConfig, TestEnvironment, list_presets, preset
from imteval.engine import DropWork, compute_coupling, derive_stream

MMTC_A = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
MMTC_B = preset(TestEnvironment.URBAN_MACRO_MMTC, "B")
INDOOR = preset(TestEnvironment.INDOOR_HOTSPOT_EMBB, "A")


class TestHexLayout:
    def test_site_and_trxp_counts(self):
        layout = build_layout(MMTC_A)
        assert len(layout.site_positions) == 19
        assert layout.n_trxps == 57
        assert np.array_equal(np.bincount(layout.trxp_site), np.full(19, 3))

    def test_nearest_neighbor_distance_is_isd(self):
        layout = build_layout(MMTC_A)
        sites = layout.site_positions
        dists = np.linalg.norm(sites[None, :, :] - sites[:, None, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        assert abs(dists.min() - 500.0) < 1e-9

    def test_sector_boresights(self):
        layout = build_layout(MMTC_A)
        assert set(np.unique(layout.trxp_boresight_deg)) == {30.0, 150.0, 270.0}

    def test_sector_area_formula(self):
        layout = build_layout(MMTC_A)
        expected = 500.0 ** 2 * math.sqrt(3.0) / 6.0
        assert abs(layout.sector_area_m2 - expected) / expected < 1e-6

    @pytest.mark.parametrize("env, area", [
        # the 120 m x 50 m floor over its 12 points
        (TestEnvironment.INDOOR_HOTSPOT_EMBB, 500.0),
        # one sector of a hexagonal site at ISD 200 m
        (TestEnvironment.DENSE_URBAN_EMBB, 200.0 ** 2 * math.sqrt(3.0) / 6.0),
    ], ids=lambda v: getattr(v, "value", None))
    def test_build_layout_sets_the_sector_area(self, env, area):
        assert build_layout(preset(env, "A")).sector_area_m2 == area

    def test_scale_similarity(self):
        small = build_layout(MMTC_A)
        large = build_layout(MMTC_B)
        ratio = 1732.0 / 500.0
        assert np.allclose(large.site_positions, small.site_positions * ratio, atol=1e-9)
        assert ratio == pytest.approx(3.464, abs=1e-3)

    def test_wrap_translations_structure(self):
        layout = build_layout(MMTC_A)
        ts = layout.wrap_translations
        assert ts.shape == (9, 2)
        assert np.any(np.all(ts == 0.0, axis=1))
        for t in ts:
            assert np.any(np.all(np.isclose(ts, -t), axis=1))
        norms = np.sort(np.linalg.norm(ts, axis=1))
        # zero, six nearest cluster images, two diagonal images
        assert np.allclose(norms[1:7], math.sqrt(19.0) * 500.0)
        assert np.allclose(norms[7:], math.sqrt(57.0) * 500.0)


class TestIndoorLayout:
    def test_twelve_points_on_the_floor(self):
        layout = build_layout(INDOOR)
        assert layout.n_trxps == 12
        pos = layout.site_positions[layout.trxp_site]
        assert pos[:, 0].min() >= 0.0 and pos[:, 0].max() <= 120.0
        assert pos[:, 1].min() >= 0.0 and pos[:, 1].max() <= 50.0

    def test_adjacent_spacing_20m(self):
        layout = build_layout(INDOOR)
        pos = layout.site_positions[layout.trxp_site]
        d = np.linalg.norm(pos[None, :, :] - pos[:, None, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert abs(d.min() - 20.0) < 1e-9

    def test_no_wrap_around(self):
        layout = build_layout(INDOOR)
        assert layout.wrap_translations.shape == (1, 2)
        assert np.all(layout.wrap_translations == 0.0)


class TestDenseUrbanLayout:
    def test_two_layers_with_separations(self):
        layout = build_layout(preset(TestEnvironment.DENSE_URBAN_EMBB, "A"))
        micro = layout.site_positions[layout.site_is_micro]
        assert layout.n_trxps == 57 + 57 * 3
        assert len(micro) == 171
        macro_sites = layout.site_positions[~layout.site_is_micro]
        for site in macro_sites:
            mine = micro[np.linalg.norm(micro - site, axis=1) <= 200.0 / math.sqrt(3.0) + 1e-6]
            if len(mine):
                assert np.linalg.norm(mine - site, axis=1).min() >= MICRO_MIN_SEPARATION_M - 1e-9
        # deterministic for a given master seed
        layout2 = build_layout(preset(TestEnvironment.DENSE_URBAN_EMBB, "A"))
        assert np.array_equal(layout.site_positions, layout2.site_positions)


@functools.lru_cache(maxsize=None)
def _layout(env, variant="A"):
    return build_layout(preset(env, variant))


class TestSiteLayers:
    @pytest.mark.parametrize("env, variant",
                             [(env, variant) for env, variant, _ in list_presets()])
    def test_site_layers_of_every_preset(self, env, variant):
        """Hex sites are macro, indoor points micro (omni), and the dense-urban
        micro layer is exactly the sites after the 19 macro ones, one TRxP each."""
        layout = _layout(env, variant)
        trxps_per_site = np.bincount(layout.trxp_site, minlength=len(layout.site_positions))
        if env is TestEnvironment.INDOOR_HOTSPOT_EMBB:
            expected = np.ones(12, dtype=bool)
        elif env is TestEnvironment.DENSE_URBAN_EMBB:
            expected = np.arange(len(layout.site_positions)) >= 19
            assert len(layout.site_positions) == 19 + 171
        else:
            expected = np.zeros(19, dtype=bool)
        assert np.array_equal(layout.site_is_micro, expected)
        assert np.all(trxps_per_site[layout.site_is_micro] == 1)
        assert np.all(trxps_per_site[~layout.site_is_micro] == 3)
        assert np.array_equal(layout.trxp_is_micro, expected[layout.trxp_site])


_WRAPPED_ENVS = st.sampled_from([TestEnvironment.URBAN_MACRO_MMTC,
                                 TestEnvironment.DENSE_URBAN_EMBB])
# coordinates well beyond the wrapped regions, so images on every side matter
_POINTS = st.lists(st.tuples(st.floats(-2500.0, 2500.0), st.floats(-2500.0, 2500.0)),
                   min_size=1, max_size=5)


def _tie_points(layout, k):
    """Points half of translation k away from the origin: each is exactly as
    far from the origin as from its image under translation k."""
    half = layout.wrap_translations[k] / 2.0
    return np.array([half, -half])


def _three_image_points(layout):
    """±(T1 + T2)/3: T1 and T2 have equal length at 60 degrees, so each
    point is near-equidistant from three images of the origin (0, T1, T2
    or their negatives), up to rounding."""
    third = (layout.drop_basis[:, 0] + layout.drop_basis[:, 1]) / 3.0
    return np.array([third, -third])


class TestLayoutInvariant:
    """Every TRxP reads its site's position, height and layer."""

    @staticmethod
    def _two_sector_layout():
        return NetworkLayout(
            sector_area_m2=hex_sector_area_m2(500.0),
            site_positions=np.array([[0.0, 0.0], [500.0, 0.0]]),
            site_height=np.array([25.0, 10.0]),
            site_is_micro=np.array([False, True]),
            trxp_site=np.array([0, 0, 1]),
            trxp_boresight_deg=np.array([30.0, 150.0, 0.0]),
            wrap_translations=np.zeros((1, 2)),
        )

    def test_consistent_layout_builds(self):
        layout = self._two_sector_layout()
        assert (len(layout.site_positions), layout.n_trxps) == (2, 3)
        assert np.array_equal(layout.trxp_is_micro, [False, False, True])

    def test_coupling_needs_the_micro_sites_after_the_macro_ones(self):
        """compute_coupling takes each profile's sites as one slice of
        columns; a micro site before a macro one is refused, not misread."""
        config = preset(TestEnvironment.DENSE_URBAN_EMBB, "A")
        layout = self._two_sector_layout()
        swapped = dataclasses.replace(
            layout, site_positions=layout.site_positions[::-1],
            site_height=layout.site_height[::-1], site_is_micro=layout.site_is_micro[::-1],
            trxp_site=1 - layout.trxp_site)
        ues = UeDrop.from_positions(layout, [[250.0, 100.0, 1.5]], [False], [False])
        coupling = compute_coupling(config, layout, ues, derive_stream(1, 0, "links"))
        assert np.all(np.isfinite(coupling))
        ues = UeDrop.from_positions(swapped, [[250.0, 100.0, 1.5]], [False], [False])
        with pytest.raises(InternalError, match="micro sites"):
            compute_coupling(config, swapped, ues, derive_stream(1, 0, "links"))

    @pytest.mark.parametrize("env, trxp_site, site_is_micro", [
        # sites in order, but a micro TRxP between two macro ones
        (TestEnvironment.DENSE_URBAN_EMBB, [0, 1, 0], [False, True]),
        # a one-profile layout whose micro site comes first
        (TestEnvironment.URBAN_MACRO_URLLC, [1, 1, 0], [True, False]),
    ], ids=["micro_trxp_between_macro", "one_profile_micro_site_first"])
    def test_coupling_needs_every_macro_trxp_first(self, env, trxp_site, site_is_micro):
        """The element gain is taken on the macro TRxP prefix, whose sites are
        the macro site prefix, in every environment; a layout out of that
        order is refused, not clipped into it."""
        config = preset(env, "A")
        layout = dataclasses.replace(
            self._two_sector_layout(), trxp_site=np.array(trxp_site),
            site_is_micro=np.array(site_is_micro))
        ues = UeDrop.from_positions(layout, [[250.0, 100.0, 1.5]], [False], [False])
        with pytest.raises(InternalError, match="must follow the macro ones"):
            compute_coupling(config, layout, ues, derive_stream(1, 0, "links"))


def wrap_distance(layout, a, b):
    """Scalar oracle for wrap_displacements: the minimum distance between a
    and b over the wrap translation set.

    Returns (distance, translation) where ``b + translation`` realizes the
    minimum. Symmetric in (a, b) because the set is closed under negation.
    """
    a = np.asarray(a, dtype=float)[:2]
    b = np.asarray(b, dtype=float)[:2]
    shifted = b[None, :] + layout.wrap_translations
    d = np.linalg.norm(a[None, :] - shifted, axis=1)
    k = int(np.argmin(d))
    return float(d[k]), layout.wrap_translations[k].copy()


class TestWrapDistance:
    def test_identity(self):
        layout = build_layout(MMTC_A)
        d, t = wrap_distance(layout, [100.0, 50.0], [100.0, 50.0])
        assert d == 0.0
        assert np.all(t == 0.0)

    @settings(max_examples=100, deadline=None)
    @given(env=_WRAPPED_ENVS, a=_POINTS, b=_POINTS)
    def test_symmetry_on_random_pairs(self, env, a, b):
        layout = _layout(env)
        a, b = np.array(a), np.array(b)
        _, d_ab = wrap_displacements(layout, a, b)
        _, d_ba = wrap_displacements(layout, b, a)
        # the translation set is closed under exact negation
        assert np.array_equal(d_ab, d_ba.T)
        for i in range(len(a)):
            for j in range(len(b)):
                assert wrap_distance(layout, a[i], b[j])[0] == pytest.approx(
                    wrap_distance(layout, b[j], a[i])[0], abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(env=_WRAPPED_ENVS, a=_POINTS, b=_POINTS)
    def test_wrapped_never_exceeds_direct(self, env, a, b):
        layout = _layout(env)
        a, b = np.array(a), np.array(b)
        _, d = wrap_displacements(layout, a, b)
        direct = np.linalg.norm(b[None, :, :] - a[:, None, :], axis=-1)
        assert np.all(d <= direct + 1e-9)

    def test_far_points_wrap_closer(self):
        layout = build_layout(MMTC_A)
        # points near opposite corners of the wrapped region
        a = np.array([-1800.0, -900.0])
        b = np.array([1800.0, 900.0])
        d, t = wrap_distance(layout, a, b)
        direct = float(np.linalg.norm(a - b))
        # exhaustive check over the translation set is the definition
        exhaustive = min(float(np.linalg.norm(a - (b + tt))) for tt in layout.wrap_translations)
        assert d == pytest.approx(exhaustive, abs=1e-12)
        assert d < direct

    def test_edge_bias_eliminated(self):
        # a probe at the region center and one at the region edge must see
        # the same mean number of co-dropped UEs within a wrapped radius
        layout = build_layout(MMTC_A)
        center = np.zeros((1, 2))
        edge = (layout.drop_origin + 0.98 * (layout.drop_basis[:, 0] + layout.drop_basis[:, 1]))[None, :]
        counts = {"center": [], "edge": []}
        for d in range(150):
            pos = drop_ues(layout, MMTC_A, derive_stream(99, d, "ues")).positions[:, :2]
            for name, probe in (("center", center), ("edge", edge)):
                _, dist = wrap_displacements(layout, probe, pos)
                counts[name].append(int((dist <= 600.0).sum()))
        c = np.array(counts["center"], dtype=float)
        e = np.array(counts["edge"], dtype=float)
        sigma_diff = math.sqrt(c.var(ddof=1) / len(c) + e.var(ddof=1) / len(e))
        assert abs(c.mean() - e.mean()) < 3.0 * sigma_diff


class TestWrapDisplacements:
    @settings(max_examples=100, deadline=None)
    @given(env=_WRAPPED_ENVS, a=_POINTS, b=_POINTS)
    def test_matches_scalar_wrap_distance(self, env, a, b):
        layout = _layout(env)
        a, b = np.array(a), np.array(b)
        delta, dist = wrap_displacements(layout, a, b)
        assert delta.shape == (len(a), len(b), 2) and dist.shape == (len(a), len(b))
        for i in range(len(a)):
            for j in range(len(b)):
                d, t = wrap_distance(layout, a[i], b[j])
                assert dist[i, j] == pytest.approx(d, abs=1e-9)
                # the displacement is b + t - a; only where two images tie for
                # the minimum may it take the other tied translation
                images = b[j] + layout.wrap_translations - a[i]
                tied = images[np.linalg.norm(images, axis=1) <= d + 1e-9]
                assert any(np.allclose(delta[i, j], image, rtol=0.0, atol=1e-9)
                           for image in tied)
                assert len(tied) > 1 or np.allclose(delta[i, j], b[j] + t - a[i],
                                                    rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("env", [TestEnvironment.URBAN_MACRO_MMTC,
                                     TestEnvironment.DENSE_URBAN_EMBB])
    def test_exact_tie_takes_first_translation(self, env):
        """On an exact tie between two images, the first translation wins."""
        layout = _layout(env)
        ts = layout.wrap_translations
        norms = np.linalg.norm(ts, axis=1)
        k_zero = int(np.flatnonzero(norms == 0.0)[0])
        nearest = np.flatnonzero(np.isclose(norms, norms[norms > 0].min()))
        assert len(nearest) == 6
        for k in nearest.tolist():
            a = _tie_points(layout, k)[:1]
            delta, dist = wrap_displacements(layout, a, np.zeros((1, 2)))
            # the origin image and the image under k are exactly tied
            assert np.sum((ts[k_zero] - a[0]) ** 2) == np.sum((ts[k] - a[0]) ** 2)
            assert np.array_equal(delta[0, 0], ts[min(k, k_zero)] - a[0])
            assert dist[0, 0] == np.sqrt(np.sum((ts[k] - a[0]) ** 2))


class TestDropUes:
    def test_count_is_ues_per_trxp_times_trxps(self):
        layout = build_layout(MMTC_A)
        ues = drop_ues(layout, MMTC_A, derive_stream(1, 0, "ues"))
        assert ues.positions.shape == (10 * 57, 3) == (570, 3)
        for column in (ues.indoor, ues.high_loss):
            assert column.shape == (570,)
        assert np.all(ues.positions[:, 2] == MMTC_A.ue_height)

    def test_degenerate_indoor_fraction(self):
        import dataclasses
        cfg = dataclasses.replace(MMTC_A, indoor_fraction=1.0)
        layout = build_layout(cfg)
        ues = drop_ues(layout, cfg, derive_stream(2, 0, "ues"))
        assert ues.indoor.dtype == bool and ues.indoor.all()

    def test_indoor_fraction_within_binomial_3_sigma(self):
        layout = build_layout(MMTC_A)
        indoor = np.concatenate([drop_ues(layout, MMTC_A, derive_stream(3, d, "ues")).indoor
                                 for d in range(10)])
        n = len(indoor)
        k = int(indoor.sum())
        p = MMTC_A.indoor_fraction
        assert abs(k - n * p) < 3.0 * math.sqrt(n * p * (1 - p))

    def test_minimum_bs_distance_enforced(self):
        layout = build_layout(MMTC_A)
        ues = drop_ues(layout, MMTC_A, derive_stream(4, 0, "ues"))
        _, d = wrap_displacements(layout, ues.positions, layout.site_positions)
        assert d.min() >= MIN_UE_DISTANCE_MACRO_M - 1e-9

    def test_positions_uniform_chi_square(self):
        # map positions back to unit-square coordinates of the wrapped
        # region and test uniformity on a 10x10 grid at significance 0.01
        layout = build_layout(MMTC_A)
        cfg = MMTC_A
        import dataclasses
        cfg_many = dataclasses.replace(cfg, ues_per_trxp=100)
        pos = np.vstack([drop_ues(layout, cfg_many, derive_stream(5, d, "ues")).positions[:, :2]
                         for d in range(2)])
        inv = np.linalg.inv(layout.drop_basis)
        uv = (pos - layout.drop_origin[None, :]) @ inv.T
        # the exclusion radius carves holes, so keep the test coarse: bins
        # are large relative to the 35 m exclusion disks
        assert np.all(uv > -1e-9) and np.all(uv < 1.0 + 1e-9)
        counts, _, _ = np.histogram2d(uv[:, 0], uv[:, 1], bins=10, range=[[0, 1], [0, 1]])
        chi2, p_value = stats.chisquare(counts.ravel())
        assert p_value > 0.01

    def test_high_loss_only_for_indoor(self):
        layout = build_layout(MMTC_A)
        ues = drop_ues(layout, MMTC_A, derive_stream(8, 0, "ues"))
        assert ues.high_loss.any()
        assert np.all(ues.indoor[ues.high_loss])


class _NoFading:
    """Link stream stand-in: every LOS draw 0.5 and no shadow fading, so
    identical links get identical coupling."""

    def random(self, out):
        out[...] = 0.5
        return out

    def standard_normal(self, out):
        out[...] = 0.0
        return out


def _colocated_layout(n):
    """n identical indoor ceiling points at the same place."""
    return NetworkLayout(
        sector_area_m2=500.0,
        site_positions=np.array([[60.0, 25.0]]),
        site_height=np.array([3.0]),
        site_is_micro=np.array([True]),
        trxp_site=np.zeros(n, dtype=int),
        trxp_boresight_deg=np.zeros(n),
        wrap_translations=np.zeros((1, 2)),
        drop_bbox=((0.0, 0.0), (120.0, 50.0)),
    )


class TestAttach:
    """Each UE is served by the TRxP of least coupling loss, as
    compute_coupling decides it."""

    def test_colocated_ue_attaches_to_its_site(self):
        layout = build_layout(MMTC_A)
        dropped = drop_ues(layout, MMTC_A, derive_stream(10, 0, "ues"))
        site = 7
        positions = dropped.positions.copy()
        positions[0, :2] = layout.site_positions[site] + np.array([1.0, 1.0])
        ues = UeDrop.from_positions(layout, positions, dropped.indoor, dropped.high_loss)
        coupling = compute_coupling(MMTC_A, layout, ues, _NoFading())
        serving = np.argmin(coupling, axis=1)
        # brute-force oracle over all 57: same answer, and it is a sector of
        # the nearest site
        oracle = [min(range(layout.n_trxps), key=lambda k: coupling[i, k])
                  for i in range(len(serving))]
        assert np.array_equal(serving, oracle)
        assert layout.trxp_site[serving[0]] == site

    def test_tie_breaks_to_lower_index(self):
        layout = _colocated_layout(3)
        ues = drop_ues(layout, INDOOR, derive_stream(11, 0, "ues"))
        coupling = compute_coupling(INDOOR, layout, ues, _NoFading())
        assert np.all(coupling == coupling[:, :1])
        assert np.all(np.argmin(coupling, axis=1) == 0)


# ---------------------------------------------------------------------------
# bit-for-bit oracles: the per-TRxP coupling and the re-test-all UE drop that
# the per-site versions replace


def wrap_displacements_reference(layout, from_pos, to_pos):
    """Oracle for wrap_displacements: gathers the minimizing translation."""
    f = np.asarray(from_pos, dtype=float)[:, :2]
    t = np.asarray(to_pos, dtype=float)[:, :2]
    base_x = t[None, :, 0] - f[:, 0, None]
    base_y = t[None, :, 1] - f[:, 1, None]
    best_d2 = None
    best_k = None
    for k, (tx, ty) in enumerate(layout.wrap_translations):
        d2 = (base_x + tx) ** 2 + (base_y + ty) ** 2
        if best_d2 is None:
            best_d2, best_k = d2, np.zeros(d2.shape, dtype=np.intp)
        else:
            closer = d2 < best_d2
            np.copyto(best_d2, d2, where=closer)
            best_k[closer] = k
    shift = layout.wrap_translations[best_k]
    delta = np.stack([base_x + shift[..., 0], base_y + shift[..., 1]], axis=-1)
    return delta, np.sqrt(best_d2)


def drop_ues_reference(layout, config, rng):
    """Oracle for drop_ues: every rejection round re-tests every UE."""
    n = config.ues_per_trxp * layout.n_trxps
    pos = _sample_positions(layout, n, rng)

    env = config.environment
    min_macro = 0.0 if env is TestEnvironment.INDOOR_HOTSPOT_EMBB else MIN_UE_DISTANCE_MACRO_M
    if min_macro > 0.0 or env is TestEnvironment.DENSE_URBAN_EMBB:
        trxp_pos = layout.site_positions[layout.trxp_site]
        macro_sites = trxp_pos[~layout.trxp_is_micro]
        micro_pos = trxp_pos[layout.trxp_is_micro]
        for _ in range(1000):
            _, d_macro = wrap_displacements_reference(layout, pos, macro_sites)
            bad = d_macro.min(axis=1) < min_macro
            if len(micro_pos):
                _, d_micro = wrap_displacements_reference(layout, pos, micro_pos)
                bad |= d_micro.min(axis=1) < MIN_UE_DISTANCE_MICRO_M
            if not bad.any():
                break
            pos[bad] = _sample_positions(layout, int(bad.sum()), rng)
        else:
            raise DomainError("could not place UEs outside the exclusion radius")

    indoor = rng.uniform(size=n) < config.indoor_fraction
    high_loss = indoor & (rng.uniform(size=n) < config.high_loss_fraction)
    positions = np.column_stack([pos, np.full(n, config.ue_height)])
    return UeDrop(positions, indoor, high_loss,
                  *wrap_displacements_reference(layout, positions, layout.site_positions))


def compute_coupling_reference(config, layout, ues, rng):
    """Oracle for compute_coupling: every quantity on all TRxP columns.

    Returns (coupling_db, serving).
    """
    trxp_height = layout.site_height[layout.trxp_site]
    delta, d2d = wrap_displacements_reference(layout, ues.positions,
                                              layout.site_positions[layout.trxp_site])
    n_ue, n_t = d2d.shape
    dz = trxp_height[None, :] - config.ue_height
    d3d = np.maximum(np.sqrt(d2d ** 2 + dz ** 2), 1.0)

    micro_mask = layout.trxp_is_micro if config.environment is TestEnvironment.DENSE_URBAN_EMBB \
        else np.zeros(n_t, dtype=bool)
    los_u = rng.uniform(size=(n_ue, n_t))
    sf_z = rng.standard_normal((n_ue, n_t))

    pl = np.zeros((n_ue, n_t))
    profiles = [(profile_for(config.environment, config.config_variant), ~micro_mask),
                (profile_for(config.environment, config.config_variant, micro=True), micro_mask)]
    for profile, mask in profiles:
        if not mask.any():
            continue
        p_los = los_probability(profile.plos_model, d2d[:, mask])
        los_part = los_u[:, mask] < p_los
        h_ref = float(trxp_height[mask][0])
        pl_los, pl_nlos = pathloss_curves(profile, config.carrier_frequency,
                                          d3d[:, mask], h_ref, config.ue_height)
        part = np.where(los_part, pl_los, pl_nlos)
        sf_sigma = np.where(los_part, profile.los.sf_sigma_db, profile.nlos.sf_sigma_db)
        part = part + sf_sigma * sf_z[:, mask]
        pen = np.where(ues.high_loss, profile.pen_high_db, profile.pen_low_db)
        part = part + np.where(ues.indoor, pen, 0.0)[:, None]
        pl[:, mask] = part

    az = np.degrees(np.arctan2(delta[..., 1], delta[..., 0]))
    az_rel = (az - layout.trxp_boresight_deg[None, :] + 180.0) % 360.0 - 180.0
    zen = np.degrees(np.arctan2(d2d, -(config.ue_height - trxp_height[None, :])))
    zen_eff = np.clip(zen - config.antenna_bs.downtilt_deg, 0.0, 180.0)
    gain = np.asarray(element_gain(config.bs_pattern(), az_rel, zen_eff))
    if layout.trxp_is_micro.any():
        gain = np.where(layout.trxp_is_micro[None, :], config.bs_element_gain, gain)
    coupling = pl - gain - config.ue_element_gain
    return coupling, np.argmin(coupling, axis=1)


_ORACLE_CASES = {
    "hex19": (MMTC_A, lambda: _layout(TestEnvironment.URBAN_MACRO_MMTC)),
    "dense_urban": (preset(TestEnvironment.DENSE_URBAN_EMBB, "A"),
                    lambda: _layout(TestEnvironment.DENSE_URBAN_EMBB)),
    "indoor": (INDOOR, lambda: _layout(TestEnvironment.INDOOR_HOTSPOT_EMBB)),
    "colocated": (INDOOR, lambda: _colocated_layout(3)),
}


class TestPerSiteGeometryOracle:
    """The per-site drop and coupling give the bytes of the per-TRxP ones."""

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(sorted(_ORACLE_CASES)), seed=st.integers(0, 2 ** 32 - 1),
           drop=st.integers(0, 2 ** 20))
    def test_drop_and_coupling_match_per_trxp_reference(self, case, seed, drop):
        config, make_layout = _ORACLE_CASES[case]
        layout = make_layout()
        ues = drop_ues(layout, config, derive_stream(seed, drop, "ues"))
        ref_ues = drop_ues_reference(layout, config, derive_stream(seed, drop, "ues"))
        for name in [field.name for field in dataclasses.fields(UeDrop)]:
            assert np.array_equal(getattr(ues, name), getattr(ref_ues, name)), name

        coupling = compute_coupling(config, layout, ues, derive_stream(seed, drop, "links"))
        ref_coupling, ref_serving = compute_coupling_reference(
            config, layout, ues, derive_stream(seed, drop, "links"))
        assert np.array_equal(coupling, ref_coupling)
        assert np.array_equal(np.argmin(coupling, axis=1), ref_serving)

    @pytest.mark.parametrize("seed, drop", [(20200101, 0), (3, 17)])
    def test_dense_urban_coupling_matches_gain_on_every_column(self, seed, drop):
        """Element gain taken on the macro columns only gives the bytes of
        the gain taken on all 228 columns with the micro ones overwritten."""
        config, make_layout = _ORACLE_CASES["dense_urban"]
        layout = make_layout()
        assert layout.trxp_is_micro.any() and not layout.trxp_is_micro.all()
        ues = drop_ues(layout, config, derive_stream(seed, drop, "ues"))
        coupling = compute_coupling(config, layout, ues, derive_stream(seed, drop, "links"))
        ref_coupling, ref_serving = compute_coupling_reference(
            config, layout, ues, derive_stream(seed, drop, "links"))
        assert np.array_equal(coupling, ref_coupling)
        assert np.array_equal(np.argmin(coupling, axis=1), ref_serving)

    @settings(max_examples=100, deadline=None)
    @given(env=_WRAPPED_ENVS, a=_POINTS, b=_POINTS, k=st.integers(0, 8))
    def test_wrap_displacements_match_gathered_translation(self, env, a, b, k):
        layout = _layout(env)
        # with points tied between two images of the origin, and points
        # near-equidistant from three
        a = np.vstack([np.array(a), _tie_points(layout, k), _three_image_points(layout)])
        b = np.vstack([np.array(b), np.zeros((1, 2))])
        delta, dist = wrap_displacements(layout, a, b)
        ref_delta, ref_dist = wrap_displacements_reference(layout, a, b)
        assert np.array_equal(delta, ref_delta)
        assert np.array_equal(dist, ref_dist)
        # no UEs, or no sites
        for rows, cols in ((np.empty((0, 2)), b), (a, np.empty((0, 2)))):
            delta, dist = wrap_displacements(layout, rows, cols)
            assert delta.shape == (len(rows), len(cols), 2)
            assert dist.shape == (len(rows), len(cols))


class TestCouplingWork:
    """compute_coupling writes its planes into the DropWork it is given:
    across layouts whose plane shapes differ, one reused object gives the
    bytes and the generator state of a fresh one, and of what it returns
    only the coupling plane lives in the work object."""

    def test_reused_work_matches_fresh_work(self):
        cases = sorted(_ORACLE_CASES)
        layouts = {case: _ORACLE_CASES[case][1]() for case in cases}
        work = DropWork()
        for step in range(2 * len(cases) + 1):
            case = cases[step % len(cases)]
            config, layout = _ORACLE_CASES[case][0], layouts[case]
            ues = drop_ues(layout, config, derive_stream(5, step, "ues"))
            rng, fresh_rng = derive_stream(5, step, "links"), derive_stream(5, step, "links")
            coupling = compute_coupling(config, layout, ues, rng, work)
            fresh = compute_coupling(config, layout, ues, fresh_rng)
            assert np.array_equal(coupling, fresh), case
            assert rng.bit_generator.state == fresh_rng.bit_generator.state
            planes = list(work._planes.values())
            assert any(np.shares_memory(coupling, p) for p in planes)
            for f in dataclasses.fields(UeDrop):
                assert not any(np.shares_memory(getattr(ues, f.name), p) for p in planes)

    @pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
    def test_builds_the_bs_pattern_once_per_call(self, case, monkeypatch):
        """The horizontal and vertical cuts share one ElementPattern."""
        config, make_layout = _ORACLE_CASES[case]
        layout = make_layout()
        ues = drop_ues(layout, config, derive_stream(5, 0, "ues"))
        built = []
        bs_pattern = EvaluationConfig.bs_pattern
        monkeypatch.setattr(EvaluationConfig, "bs_pattern",
                            lambda self: built.append(bs_pattern(self)) or built[-1])
        compute_coupling(config, layout, ues, derive_stream(5, 0, "links"))
        assert len(built) == 1


class TestSharedDropGeometry:
    """drop_ues computes the wrapped geometry to every site once, and it is
    the geometry of the drop's final positions bit for bit."""

    @pytest.mark.parametrize("env", [
        TestEnvironment.URBAN_MACRO_URLLC,
        TestEnvironment.INDOOR_HOTSPOT_EMBB,
        TestEnvironment.DENSE_URBAN_EMBB,
    ], ids=lambda v: v.value)
    def test_drop_geometry_matches_reference(self, env):
        layout = _layout(env)
        config = preset(env, "A")
        ues = drop_ues(layout, config, derive_stream(config.master_seed, 0, "ues"))
        delta, dist = wrap_displacements_reference(layout, ues.positions, layout.site_positions)
        assert ues.site_delta.shape == (len(ues.positions), len(layout.site_positions), 2)
        assert np.array_equal(ues.site_delta, delta)
        assert np.array_equal(ues.site_dist, dist)

    def test_arrays_are_read_only(self):
        layout = _layout(TestEnvironment.URBAN_MACRO_MMTC)
        ues = drop_ues(layout, MMTC_A, derive_stream(12, 0, "ues"))
        for field in dataclasses.fields(UeDrop):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ues, field.name)[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ues.positions = ues.positions.copy()

    def test_from_positions_computes_the_geometry(self):
        layout = _layout(TestEnvironment.URBAN_MACRO_MMTC)
        positions = np.array([[10.0, 20.0, 1.5], [-900.0, 400.0, 1.5]])
        mine = positions.copy()
        ues = UeDrop.from_positions(layout, mine, [True, False], [False, False])
        mine[0] = 0.0  # the drop holds its own copy
        assert np.array_equal(ues.positions, positions)
        delta, dist = wrap_displacements_reference(layout, positions, layout.site_positions)
        assert np.array_equal(ues.site_delta, delta)
        assert np.array_equal(ues.site_dist, dist)
        assert ues.indoor.dtype == bool and ues.high_loss.dtype == bool

    @pytest.mark.parametrize("bad, coordinate", [(np.nan, 0), (np.inf, 1), (-np.inf, 2)])
    def test_from_positions_rejects_non_finite(self, bad, coordinate):
        """One non-finite coordinate is a DomainError, not a drop whose
        couplings are NaN and whose UEs all attach to TRxP 0."""
        layout = _layout(TestEnvironment.URBAN_MACRO_MMTC)
        positions = np.array([[10.0, 20.0, 1.5], [-900.0, 400.0, 1.5]])
        positions[1, coordinate] = bad
        with pytest.raises(DomainError, match="finite"):
            UeDrop.from_positions(layout, positions, [False, False], [False, False])


def try_micros_for_site_reference(site, isd, r_max, sep, rng, batch: int = 256):
    """Oracle for _try_micros_for_site: each candidate of a batch is tested
    against the placed points one at a time."""
    placed = []
    for boresight in SECTOR_BORESIGHTS_DEG:
        need = MICROS_PER_SECTOR
        for _ in range(40):  # batches per sector before declaring a dead end
            cand = site + rng.uniform(-r_max, r_max, size=(batch, 2))
            ok = _in_hex_cell(cand, site, isd)
            rel = cand - site
            az = np.degrees(np.arctan2(rel[:, 1], rel[:, 0])) % 360.0
            ok &= np.minimum((az - boresight) % 360.0, (boresight - az) % 360.0) <= 60.0
            ok &= np.linalg.norm(rel, axis=1) >= sep
            for p in cand[ok]:
                if placed and np.min(np.linalg.norm(np.array(placed) - p, axis=1)) < sep:
                    continue
                placed.append(p)
                need -= 1
                if need == 0:
                    break
            if need == 0:
                break
        if need > 0:
            return None
    return placed


class TestMicroPlacement:
    """Batch filtering places the points, and draws the numbers, of the
    candidate-by-candidate oracle."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_per_candidate_reference(self, seed):
        isd = 200.0
        r_max = isd / math.sqrt(3.0)
        layout = _layout(TestEnvironment.DENSE_URBAN_EMBB)
        for site in layout.site_positions[[0, 1, 7, 12, 18]]:
            rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            for _restart in range(20):
                placed = _try_micros_for_site(site, isd, r_max, MICRO_MIN_SEPARATION_M, rng)
                ref = try_micros_for_site_reference(site, isd, r_max, MICRO_MIN_SEPARATION_M,
                                                    ref_rng)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                if ref is None:
                    assert placed is None
                    continue
                assert np.array(placed).tobytes() == np.array(ref).tobytes()
                break
