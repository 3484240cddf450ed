"""Layout construction, wrap-around services, UE drops and attachment."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from imteval.geometry import (
    MICRO_MIN_SEPARATION_M,
    MIN_UE_DISTANCE_MACRO_M,
    LayoutKind,
    NetworkLayout,
    build_layout,
    drop_ues,
    wrap_displacements,
    wrap_distance,
)
from imteval.scenario import TestEnvironment, preset
from imteval.engine import compute_coupling, derive_stream

MMTC_A = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
MMTC_B = preset(TestEnvironment.URBAN_MACRO_MMTC, "B")
INDOOR = preset(TestEnvironment.INDOOR_HOTSPOT_EMBB, "A")


class TestHexLayout:
    def test_site_and_trxp_counts(self):
        layout = build_layout(MMTC_A)
        assert layout.n_sites == 19
        assert layout.n_trxps == 57
        assert set(np.unique(layout.trxp_sector)) == {0, 1, 2}

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
        assert layout.layout_kind is LayoutKind.INDOOR_12
        assert layout.n_trxps == 12
        pos = layout.trxp_pos
        assert pos[:, 0].min() >= 0.0 and pos[:, 0].max() <= 120.0
        assert pos[:, 1].min() >= 0.0 and pos[:, 1].max() <= 50.0

    def test_adjacent_spacing_20m(self):
        layout = build_layout(INDOOR)
        pos = layout.trxp_pos
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
        assert layout.layout_kind is LayoutKind.DENSE_URBAN_TWO_LAYER
        micro = layout.trxp_pos[layout.trxp_is_micro]
        assert layout.n_trxps == 57 + 57 * 3
        assert len(micro) == 171
        macro_sites = layout.macro_site_positions()
        for site in macro_sites:
            mine = micro[np.linalg.norm(micro - site, axis=1) <= 200.0 / math.sqrt(3.0) + 1e-6]
            if len(mine):
                assert np.linalg.norm(mine - site, axis=1).min() >= MICRO_MIN_SEPARATION_M - 1e-9
        # deterministic for a given master seed
        layout2 = build_layout(preset(TestEnvironment.DENSE_URBAN_EMBB, "A"))
        assert np.array_equal(layout.trxp_pos, layout2.trxp_pos)


class TestWrapDistance:
    def test_identity(self):
        layout = build_layout(MMTC_A)
        d, t = wrap_distance(layout, [100.0, 50.0], [100.0, 50.0])
        assert d == 0.0
        assert np.all(t == 0.0)

    def test_symmetry_on_random_pairs(self):
        layout = build_layout(MMTC_A)
        rng = np.random.default_rng(11)
        span = 1500.0
        for _ in range(1000):
            a = rng.uniform(-span, span, 2)
            b = rng.uniform(-span, span, 2)
            d_ab, _ = wrap_distance(layout, a, b)
            d_ba, _ = wrap_distance(layout, b, a)
            assert d_ab == pytest.approx(d_ba, abs=1e-9)

    def test_wrapped_never_exceeds_direct(self):
        layout = build_layout(MMTC_A)
        rng = np.random.default_rng(12)
        a = rng.uniform(-2000, 2000, (500, 2))
        b = rng.uniform(-2000, 2000, (500, 2))
        _, d = wrap_displacements(layout, a, b)
        direct = np.linalg.norm(a - b, axis=1)
        assert np.all(np.diagonal(d) <= direct + 1e-9)

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


@functools.lru_cache(maxsize=None)
def _layout(env):
    return build_layout(preset(env, "A"))


# coordinates well beyond the wrapped regions, so images on every side matter
_POINTS = st.lists(st.tuples(st.floats(-2500.0, 2500.0), st.floats(-2500.0, 2500.0)),
                   min_size=1, max_size=5)


class TestWrapDisplacements:
    @settings(max_examples=100, deadline=None)
    @given(env=st.sampled_from([TestEnvironment.URBAN_MACRO_MMTC,
                                TestEnvironment.DENSE_URBAN_EMBB]),
           a=_POINTS, b=_POINTS)
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


class TestDropUes:
    def test_count_is_ues_per_trxp_times_trxps(self):
        layout = build_layout(MMTC_A)
        ues = drop_ues(layout, MMTC_A, derive_stream(1, 0, "ues"))
        assert ues.positions.shape == (10 * 57, 3) == (570, 3)
        for column in (ues.indoor, ues.high_loss, ues.speed_kmh, ues.direction_rad):
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

    def test_speed_follows_indoor_flag(self):
        import dataclasses
        cfg = dataclasses.replace(MMTC_A, ue_speed_indoor=3.0, ue_speed_outdoor=30.0)
        layout = build_layout(cfg)
        ues = drop_ues(layout, cfg, derive_stream(6, 0, "ues"))
        assert ues.indoor.any() and not ues.indoor.all()
        assert np.array_equal(ues.speed_kmh, np.where(ues.indoor, 3.0, 30.0))

    def test_direction_uniform(self):
        layout = build_layout(MMTC_A)
        dirs = np.concatenate([drop_ues(layout, MMTC_A, derive_stream(7, d, "ues")).direction_rad
                               for d in range(20)])
        assert dirs.min() >= 0.0 and dirs.max() < 2.0 * math.pi
        _, p_value = stats.kstest(dirs / (2.0 * math.pi), "uniform")
        assert p_value > 0.01

    def test_high_loss_only_for_indoor(self):
        layout = build_layout(MMTC_A)
        ues = drop_ues(layout, MMTC_A, derive_stream(8, 0, "ues"))
        assert ues.high_loss.any()
        assert np.all(ues.indoor[ues.high_loss])


class _NoFading:
    """Link stream stand-in: every LOS draw 0.5 and no shadow fading, so
    identical links get identical coupling."""

    def uniform(self, size):
        return np.full(size, 0.5)

    def standard_normal(self, size):
        return np.zeros(size)


def _colocated_layout(n):
    """n identical indoor ceiling points at the same place."""
    return NetworkLayout(
        layout_kind=LayoutKind.INDOOR_12,
        isd=20.0,
        site_positions=np.array([[60.0, 25.0]]),
        trxp_site=np.zeros(n, dtype=int),
        trxp_pos=np.tile([60.0, 25.0], (n, 1)),
        trxp_sector=np.zeros(n, dtype=int),
        trxp_boresight_deg=np.zeros(n),
        trxp_height=np.full(n, 3.0),
        trxp_is_micro=np.ones(n, dtype=bool),
        wrap_translations=np.zeros((1, 2)),
        drop_bbox=((0.0, 0.0), (120.0, 50.0)),
    )


class TestAttach:
    """Each UE is served by the TRxP of least coupling loss, as
    compute_coupling decides it."""

    def test_colocated_ue_attaches_to_its_site(self):
        layout = build_layout(MMTC_A)
        ues = drop_ues(layout, MMTC_A, derive_stream(10, 0, "ues"))
        site = 7
        ues.positions[0, :2] = layout.site_positions[site] + np.array([1.0, 1.0])
        budget = compute_coupling(MMTC_A, layout, ues, _NoFading())
        # brute-force oracle over all 57: same answer, and it is a sector of
        # the nearest site
        oracle = [min(range(layout.n_trxps), key=lambda k: budget.coupling_db[i, k])
                  for i in range(len(budget.serving))]
        assert np.array_equal(budget.serving, oracle)
        assert layout.trxp_site[budget.serving[0]] == site

    def test_tie_breaks_to_lower_index(self):
        layout = _colocated_layout(3)
        ues = drop_ues(layout, INDOOR, derive_stream(11, 0, "ues"))
        budget = compute_coupling(INDOOR, layout, ues, _NoFading())
        assert np.all(budget.coupling_db == budget.coupling_db[:, :1])
        assert np.all(budget.serving == 0)
