"""Stochastic channel generator: LOS curves, pathloss, LSPs, clusters and
time-varying coefficients."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from imteval.antenna import ArrayConfig, ElementPattern, array_response, element_gain
from imteval.channel import smallscale
from imteval.channel.model import SPEED_OF_LIGHT, free_space_1m_db, los_probability, pathloss_curves
from imteval.channel.profiles import (
    C_PHI,
    C_THETA,
    N_RAYS,
    ChannelProfile,
    builtin_profiles,
    get_profile,
)
from imteval.channel.smallscale import (
    ChannelRealization,
    ClusterSet,
    PropagationCondition,
    _field_and_phase,
    _ray_geometry,
    apply_pl_sf,
    assign_los,
    channel_coeff,
    gen_clusters,
    gen_lsp,
    pathloss,
    realize_link,
)
from imteval.engine import derive_stream
from imteval.errors import ConfigInvalid, DomainError

# 0 dB caps on both cuts: 0 dBi at every angle
ISO = ElementPattern(max_gain_dbi=0.0, front_back_db=0.0, sidelobe_db=0.0)
ONE = ArrayConfig()


def los_probability_reference(model: str, d2d_m):
    """The LOS curves as first written, one branch per model: the bitwise
    oracle for ``los_probability``."""
    d = np.asarray(d2d_m, dtype=float)
    if np.any(d < 0):
        raise DomainError("2D distance must be >= 0")
    if model == "always":
        p = np.ones_like(d)
    elif model == "uma":
        with np.errstate(divide="ignore", invalid="ignore"):
            far = 18.0 / d + np.exp(-d / 63.0) * (1.0 - 18.0 / d)
        p = np.where(d <= 18.0, 1.0, far)
    elif model == "umi":
        with np.errstate(divide="ignore", invalid="ignore"):
            far = 18.0 / d + np.exp(-d / 36.0) * (1.0 - 18.0 / d)
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


LOS_MODELS = ["always", "uma", "umi", "rma", "inh"]


class TestLosProbability:
    @pytest.mark.parametrize("model", LOS_MODELS)
    def test_bitwise_equal_to_reference(self, model):
        edges = np.array([0.0, 1.2, 6.5, 10.0, 18.0, 1e-300])
        edges = np.concatenate([edges, np.nextafter(edges, np.inf),
                                np.nextafter(edges[1:], -np.inf)])
        rng = np.random.default_rng(11)
        d = np.concatenate([edges, rng.uniform(0.0, 60.0, 4000),
                            rng.exponential(2000.0, 4000), [1e9, 1e300]])
        with np.errstate(over="ignore"):  # 18 / 1e-300 overflows in both
            got = los_probability(model, d)
            assert got.tobytes() == los_probability_reference(model, d).tobytes()
            assert got.dtype == np.float64
            for x in edges:
                assert los_probability(model, float(x)) == los_probability_reference(model, float(x))
            block = d[:60].reshape(6, 10)
            assert los_probability(model, block).tobytes() == \
                los_probability_reference(model, block).tobytes()

    @pytest.mark.parametrize("model", LOS_MODELS)
    @pytest.mark.parametrize("bad", [math.nan, -1.0, -1e-300])
    def test_nan_or_negative_distance_rejected(self, model, bad):
        with pytest.raises(DomainError):
            los_probability(model, bad)
        with pytest.raises(DomainError):
            los_probability(model, np.array([5.0, bad, 50.0]))

    @pytest.mark.parametrize("model", ["uma", "umi", "rma", "inh"])
    def test_zero_distance_is_certain_los(self, model):
        assert los_probability(model, 0.0) == 1.0

    @pytest.mark.parametrize("model", ["uma", "umi"])
    def test_tiny_distance_warns_nothing(self, model):
        # 18 / d overflows below about 1e-307 in the far branch, which
        # d <= 18 m never reads
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert los_probability(model, 1e-300) == 1.0
            assert los_probability(model, np.array([1e-308, 5e-324])).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("model", ["uma", "umi", "rma", "inh"])
    def test_monotone_non_increasing(self, model):
        d = np.linspace(0.0, 5000.0, 2000)
        p = los_probability(model, d)
        assert np.all(np.diff(p) <= 1e-12)
        assert np.all((p >= 0.0) & (p <= 1.0))

    @pytest.mark.parametrize("model", ["uma", "umi", "rma", "inh"])
    def test_far_distance_reaches_floor(self, model):
        assert los_probability(model, 1e9) < 1e-6

    def test_empirical_frequency_matches_curve(self):
        profile = get_profile("UMa_A")
        rng = derive_stream(17, 0, "los-test")
        n = 100_000
        hits = sum(assign_los(profile, 100.0, False, rng).los for _ in range(n))
        p = los_probability("uma", 100.0)
        assert abs(hits - n * p) < 3.0 * math.sqrt(n * p * (1.0 - p))

    def test_unknown_model_rejected(self):
        with pytest.raises(DomainError):
            los_probability("void", 10.0)


class TestPathloss:
    @pytest.mark.parametrize("name", ["UMa_A", "UMa_B", "UMi", "RMa", "InH"])
    def test_friis_anchor_at_one_meter(self, name):
        profile = get_profile(name)
        for fc in (700e6, 4e9, 30e9):
            expected = 20.0 * math.log10(4.0 * math.pi * fc / 299_792_458.0)
            pl_los, _ = pathloss_curves(profile, fc, 1.0, 25.0, 1.5)
            assert abs(float(pl_los) - expected) < 1e-9
            assert free_space_1m_db(fc) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_distance(self):
        profile = get_profile("UMa_A")
        d = np.linspace(1.0, 10_000.0, 1000)
        pl_los, pl_nlos = pathloss_curves(profile, 700e6, d, 25.0, 1.5)
        assert np.all(np.diff(pl_los) >= -1e-12)
        assert np.all(np.diff(pl_nlos) >= -1e-12)

    def test_nlos_never_below_los(self):
        rng = np.random.default_rng(5)
        for name in ("UMa_A", "UMi", "RMa", "InH"):
            profile = get_profile(name)
            d = rng.uniform(1.0, 5000.0, 200)
            pl_los, pl_nlos = pathloss_curves(profile, 4e9, d, 25.0, 1.5)
            assert np.all(pl_nlos - pl_los >= -1e-12)

    def test_below_minimum_distance_rejected(self):
        profile = get_profile("UMa_A")
        cond = PropagationCondition(los=True)
        with pytest.raises(DomainError):
            pathloss(profile, cond, 700e6, [0.0, 0.0, 25.0], [0.1, 0.0, 24.9])

    def test_indoor_penetration_added(self):
        profile = get_profile("UMa_A")
        tx, rx = [0.0, 0.0, 25.0], [200.0, 0.0, 1.5]
        base = pathloss(profile, PropagationCondition(True), 700e6, tx, rx)
        low = pathloss(profile, PropagationCondition(True, indoor=True), 700e6, tx, rx)
        high = pathloss(profile, PropagationCondition(True, indoor=True, high_loss=True),
                        700e6, tx, rx)
        assert low == pytest.approx(base + profile.pen_low_db)
        assert high == pytest.approx(base + profile.pen_high_db)


def gen_lsp_reference(params, los, rng):
    """Oracle for gen_lsp: factors the correlation matrix on every draw."""
    chol = np.linalg.cholesky(params.corr + 1e-10 * np.eye(7))
    z = chol @ rng.standard_normal(7)
    k = params.k_mu_db + params.k_sigma_db * z[1] if los else None
    ds = 10.0 ** (params.lg_ds_mu + params.lg_ds_sigma * z[2])
    asd = min(10.0 ** (params.lg_asd_mu + params.lg_asd_sigma * z[3]), 104.0)
    asa = min(10.0 ** (params.lg_asa_mu + params.lg_asa_sigma * z[4]), 104.0)
    zsd = min(10.0 ** (params.lg_zsd_mu + params.lg_zsd_sigma * z[5]), 52.0)
    zsa = min(10.0 ** (params.lg_zsa_mu + params.lg_zsa_sigma * z[6]), 52.0)
    return smallscale.LargeScaleParams(ds, asd, asa, zsd, zsa, params.sf_sigma_db * z[0], k)


class TestLargeScaleParams:
    @pytest.mark.parametrize("name", ["UMa_A", "RMa", "InH"])
    def test_stored_factor_draws_match_per_call_factor(self, name):
        profile = get_profile(name)
        for los in (True, False):
            params = profile.condition_params(los)
            assert not params.chol.flags.writeable
            rng, ref_rng = derive_stream(21, 0, name), derive_stream(21, 0, name)
            for _ in range(1_000):
                assert gen_lsp(params, los, rng) == gen_lsp_reference(params, los, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_sigma_gives_means_exactly(self):
        params = get_profile("UMa_A").los
        degenerate = replace(
            params, lg_ds_sigma=0.0, lg_asd_sigma=0.0, lg_asa_sigma=0.0,
            lg_zsd_sigma=0.0, lg_zsa_sigma=0.0, sf_sigma_db=0.0, k_sigma_db=0.0)
        lsp = gen_lsp(degenerate, True, derive_stream(1, 0, "lsp"))
        assert lsp.ds_s == 10.0 ** params.lg_ds_mu
        assert lsp.asa_deg == 10.0 ** params.lg_asa_mu
        assert lsp.sf_db == 0.0
        assert lsp.ricean_k_db == params.k_mu_db

    def test_ds_sf_correlation_matches_configuration(self):
        params = get_profile("UMa_A").los
        rng = derive_stream(2, 0, "lsp")
        n = 100_000
        lg_ds = np.empty(n)
        sf = np.empty(n)
        for i in range(n):
            lsp = gen_lsp(params, True, rng)
            lg_ds[i] = math.log10(lsp.ds_s)
            sf[i] = lsp.sf_db
        sample_corr = np.corrcoef(lg_ds, sf)[0, 1]
        configured = params.corr[0, 2]  # (sf, ds) entry
        assert abs(sample_corr - configured) < 0.03

    def test_sf_zero_mean(self):
        params = get_profile("UMa_A").nlos
        rng = derive_stream(3, 0, "lsp")
        sf = np.array([gen_lsp(params, False, rng).sf_db for _ in range(20_000)])
        assert abs(sf.mean()) < 3.0 * params.sf_sigma_db / math.sqrt(len(sf))

    def test_non_psd_matrix_rejected(self):
        params = get_profile("UMa_A").los
        bad = np.eye(7)
        bad[0, 2] = bad[2, 0] = 0.9
        bad[0, 4] = bad[4, 0] = 0.9
        bad[2, 4] = bad[4, 2] = -0.9
        with pytest.raises(ConfigInvalid):
            gen_lsp(replace(params, corr=bad), True, derive_stream(4, 0, "lsp"))

    def test_nlos_has_no_ricean_k(self):
        params = get_profile("UMa_A").nlos
        assert gen_lsp(params, False, derive_stream(5, 0, "lsp")).ricean_k_db is None


class TestClusters:
    def test_powers_sum_to_one(self):
        params = get_profile("UMa_A").nlos
        rng = derive_stream(6, 0, "clusters")
        lsp = gen_lsp(params, False, rng)
        for _ in range(2000):
            cl = gen_clusters(lsp, params.n_clusters, rng, params)
            assert abs(cl.powers.sum() - 1.0) < 1e-12

    def test_single_cluster_degenerate(self):
        params = get_profile("UMa_A").los
        lsp = gen_lsp(params, True, derive_stream(7, 0, "clusters"))
        cl = gen_clusters(lsp, 1, derive_stream(7, 1, "clusters"), params)
        assert cl.delays_s.tolist() == [0.0]
        assert cl.powers.tolist() == [1.0]

    def test_delays_sorted_and_anchored(self):
        params = get_profile("RMa").nlos
        rng = derive_stream(8, 0, "clusters")
        lsp = gen_lsp(params, False, rng)
        for _ in range(200):
            cl = gen_clusters(lsp, params.n_clusters, rng, params)
            assert cl.delays_s[0] == 0.0
            assert np.all(np.diff(cl.delays_s) >= 0.0)
            assert np.all(cl.phases_rad > -math.pi - 1e-12)
            assert np.all(cl.phases_rad <= math.pi + 1e-12)

    def test_rms_delay_spread_tracks_input(self):
        params = get_profile("UMa_A").nlos
        rng = derive_stream(9, 0, "clusters")
        ds_in = 100e-9
        lsp = gen_lsp(params, False, rng)
        lsp = replace(lsp, ds_s=ds_in)
        spreads = np.empty(10_000)
        for i in range(len(spreads)):
            cl = gen_clusters(lsp, params.n_clusters, rng, params)
            mean_tau = np.sum(cl.powers * cl.delays_s)
            spreads[i] = math.sqrt(np.sum(cl.powers * cl.delays_s ** 2) - mean_tau ** 2)
        assert abs(spreads.mean() - ds_in) / ds_in < 0.10

    def test_ray_coupling_is_permutation(self):
        params = get_profile("InH").nlos
        rng = derive_stream(10, 0, "clusters")
        lsp = gen_lsp(params, False, rng)
        cl = gen_clusters(lsp, params.n_clusters, rng, params)
        for perm in (cl.perm_aoa, cl.perm_zoa):
            for row in perm:
                assert sorted(row.tolist()) == list(range(N_RAYS))

    def test_invalid_cluster_count(self):
        params = get_profile("InH").los
        lsp = gen_lsp(params, True, derive_stream(11, 0, "clusters"))
        with pytest.raises(DomainError):
            gen_clusters(lsp, 0, derive_stream(11, 1, "c"), params)


def _draw_angles_reference(spread_deg, ratio, c_const, center_deg, los, rng, zenith=False):
    """Oracle for the cluster-angle draw: signs from ``rng.choice``."""
    if zenith:
        base = -spread_deg * np.log(ratio) / c_const
    else:
        base = 2.0 * (spread_deg / 1.4) * np.sqrt(-np.log(ratio)) / c_const
    signs = rng.choice((-1.0, 1.0), size=len(ratio))
    jitter = rng.normal(0.0, spread_deg / 7.0, size=len(ratio))
    angles = signs * base + jitter + center_deg
    if los:
        angles = angles - (angles[0] - center_deg)
    return angles


def gen_clusters_reference(lsp, n_clusters, rng, params, los=False):
    """Oracle for gen_clusters: one ``rng.permutation`` call per ray-coupling row."""
    if n_clusters == 1:
        delays, powers, ratio = np.zeros(1), np.ones(1), np.ones(1)
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
        k = lsp.ricean_k_db
        c_phi = c_phi * (1.1035 - 0.028 * k - 0.002 * k ** 2 + 0.0001 * k ** 3)
        c_theta = c_theta * (1.3086 + 0.0339 * k - 0.0077 * k ** 2 + 0.0002 * k ** 3)
    aoa = _draw_angles_reference(lsp.asa_deg, ratio, c_phi, 0.0, los, rng)
    aod = _draw_angles_reference(lsp.asd_deg, ratio, c_phi, 0.0, los, rng)
    zoa = _draw_angles_reference(lsp.zsa_deg, ratio, c_theta, 90.0, los, rng, zenith=True)
    zod = _draw_angles_reference(lsp.zsd_deg, ratio, c_theta, 90.0, los, rng, zenith=True)
    perm_aoa = np.array([rng.permutation(N_RAYS) for _ in range(n_clusters)])
    perm_zoa = np.array([rng.permutation(N_RAYS) for _ in range(n_clusters)])
    xpr = 10.0 ** (rng.normal(params.xpr_mu_db, params.xpr_sigma_db,
                              size=(n_clusters, N_RAYS)) / 10.0)
    phases = rng.uniform(-math.pi, math.pi, size=(n_clusters, N_RAYS, 4))
    return ClusterSet(
        delays_s=delays, powers=powers,
        aoa_deg=aoa, aod_deg=aod, zoa_deg=zoa, zod_deg=zod,
        perm_aoa=perm_aoa, perm_zoa=perm_zoa,
        xpr_linear=xpr, phases_rad=phases,
        c_asd_deg=params.c_asd, c_asa_deg=params.c_asa,
        c_zsa_deg=params.c_zsa, c_zsd_deg=0.375 * lsp.zsd_deg,
    )


class TestClusterDrawOracle:
    """gen_clusters draws its ray couplings with one ``permuted`` call and
    its angle signs with ``integers``: the values and the generator state
    of the per-row ``permutation`` and the ``choice`` draws they replace."""

    @pytest.mark.parametrize("los", [False, True])
    def test_matches_reference_values_and_state(self, los):
        params = get_profile("UMa_A").los if los else get_profile("UMa_A").nlos
        lsp = gen_lsp(params, los, derive_stream(12, 0, "clusters"))
        for seed in range(200):
            for n_clusters in (1, 4, 12, 20):
                rng = derive_stream(seed, n_clusters, "clusters")
                ref_rng = derive_stream(seed, n_clusters, "clusters")
                cl = gen_clusters(lsp, n_clusters, rng, params, los=los)
                ref = gen_clusters_reference(lsp, n_clusters, ref_rng, params, los=los)
                for field in dataclasses.fields(ClusterSet):
                    mine, theirs = getattr(cl, field.name), getattr(ref, field.name)
                    assert np.array_equal(mine, theirs), field.name
                    assert np.asarray(mine).dtype == np.asarray(theirs).dtype, field.name
                assert rng.bit_generator.state == ref_rng.bit_generator.state


def _single_ray_realization(aoa_deg=0.0, speed_kmh=30.0, k_db=None, los=False,
                            carrier=2e9, direction_rad=0.0):
    cl = ClusterSet(
        delays_s=np.array([0.0]),
        powers=np.array([1.0]),
        aoa_deg=np.array([aoa_deg]), aod_deg=np.array([0.0]),
        zoa_deg=np.array([90.0]), zod_deg=np.array([90.0]),
        perm_aoa=np.array([[0]]), perm_zoa=np.array([[0]]),
        xpr_linear=np.array([[1e9]]),
        phases_rad=np.array([[[0.3, 0.0, 0.0, 0.0]]]),
        c_asd_deg=0.0, c_asa_deg=0.0, c_zsa_deg=0.0, c_zsd_deg=0.0,
    )
    return ChannelRealization(
        pathloss_db=0.0, shadow_db=0.0,
        condition=PropagationCondition(los=los),
        clusters=cl, ricean_k_db=k_db, carrier_hz=carrier,
        speed_kmh=speed_kmh, direction_rad=direction_rad,
        los_aoa_deg=aoa_deg, los_aod_deg=0.0, los_zoa_deg=90.0, los_zod_deg=90.0,
        d3d_m=100.0,
    )


class TestCoefficients:
    def test_determinism_at_fixed_time(self):
        profile = get_profile("UMa_A")
        real = realize_link(profile, 700e6, [0, 0, 25.0], [150.0, 40.0, 1.5],
                            derive_stream(12, 0, "link"))
        h1 = channel_coeff(real, ONE, ISO, ONE, ISO, 0.0)
        h2 = channel_coeff(real, ONE, ISO, ONE, ISO, 0.0)
        assert np.array_equal(h1, h2)

    def test_zero_speed_is_time_invariant(self):
        profile = get_profile("UMa_A")
        real = realize_link(profile, 700e6, [0, 0, 25.0], [150.0, 40.0, 1.5],
                            derive_stream(13, 0, "link"), speed_kmh=0.0)
        h = channel_coeff(real, ONE, ISO, ONE, ISO, np.array([0.0, 0.5, 1.0]))
        assert np.linalg.norm(h[0] - h[1]) == 0.0
        assert np.linalg.norm(h[0] - h[2]) == 0.0

    def test_single_ray_has_unit_modulus_and_doppler_rotation(self):
        real = _single_ray_realization(aoa_deg=0.0, speed_kmh=30.0, direction_rad=0.0)
        t = np.linspace(0.0, 0.01, 64)
        h = channel_coeff(real, ONE, ISO, ONE, ISO, t)[:, 0, 0]
        assert np.allclose(np.abs(h), 1.0, atol=1e-9)
        # phase advances at the Doppler rate for motion straight into the ray
        nu = (30.0 / 3.6) / (299_792_458.0 / 2e9)
        phases = np.unwrap(np.angle(h))
        slopes = np.diff(phases) / np.diff(t)
        assert np.allclose(slopes, 2.0 * math.pi * nu, rtol=1e-6)

    def test_single_ray_autocorrelation_first_zero(self):
        # closed form: Re R(tau) = cos(2 pi nu tau), first zero at 1/(4 nu)
        real = _single_ray_realization(aoa_deg=0.0, speed_kmh=60.0, carrier=3.5e9)
        nu = (60.0 / 3.6) / (299_792_458.0 / 3.5e9)
        t = np.linspace(0.0, 1.2 / (4.0 * nu), 4000)
        h = channel_coeff(real, ONE, ISO, ONE, ISO, t)[:, 0, 0]
        corr = np.real(h * np.conj(h[0]))
        crossing = t[np.argmax(corr <= 0.0)]
        assert crossing == pytest.approx(1.0 / (4.0 * nu), rel=0.05)

    @pytest.mark.parametrize("name", ["UMa_A", "UMa_B", "UMi", "RMa", "InH"])
    def test_unit_power_per_profile(self, name):
        # pathloss and shadowing excluded, ensemble mean power over
        # realizations must come back to 1 (checked per profile at reduced
        # sample count; the acceptance suite runs the 1e4-sample version)
        profile = get_profile(name)
        rng = derive_stream(14, 0, f"unit-{name}")
        powers = np.empty(2500)
        for i in range(len(powers)):
            real = realize_link(profile, 4e9, [0, 0, 25.0], [120.0, 30.0, 1.5], rng,
                                speed_kmh=3.0)
            h = channel_coeff(real, ONE, ISO, ONE, ISO, 0.0)
            powers[i] = np.abs(h[0, 0]) ** 2
        assert abs(powers.mean() - 1.0) < 0.05

    def test_los_ray_power_split_by_k_factor(self):
        real = _single_ray_realization(k_db=10.0, los=True, speed_kmh=0.0)
        h = channel_coeff(real, ONE, ISO, ONE, ISO, 0.0)[0, 0]
        k_lin = 10.0
        # NLOS part has unit modulus, LOS part unit modulus: the magnitude
        # lies within the triangle inequality bounds of the two-component sum
        lo = abs(math.sqrt(k_lin / (k_lin + 1)) - math.sqrt(1 / (k_lin + 1)))
        hi = math.sqrt(k_lin / (k_lin + 1)) + math.sqrt(1 / (k_lin + 1))
        assert lo - 1e-9 <= abs(h) <= hi + 1e-9

    def test_matrix_shape_follows_arrays(self):
        profile = get_profile("UMa_A")
        real = realize_link(profile, 700e6, [0, 0, 25.0], [100.0, 10.0, 1.5],
                            derive_stream(15, 0, "link"))
        tx = ArrayConfig(m=2, n=2)
        rx = ArrayConfig(m=1, n=2)
        h = channel_coeff(real, tx, ElementPattern(8.0), rx, ISO, 0.0)
        assert h.shape == (2, 4)


class TestApplyPathloss:
    def test_zero_total_is_identity(self):
        real = _single_ray_realization()
        h = channel_coeff(real, ONE, ISO, ONE, ISO, 0.0)
        assert np.array_equal(apply_pl_sf(real, h), h)

    def test_hundred_db_power_ratio(self):
        real = replace(_single_ray_realization(), pathloss_db=100.0, shadow_db=0.0)
        h = channel_coeff(real, ONE, ISO, ONE, ISO, 0.0)
        scaled = apply_pl_sf(real, h)
        ratio = np.abs(scaled[0, 0]) ** 2 / np.abs(h[0, 0]) ** 2
        assert ratio == pytest.approx(1e-10, abs=1e-22)

    def test_sequential_application_adds_in_db(self):
        base = _single_ray_realization()
        h = channel_coeff(base, ONE, ISO, ONE, ISO, 0.0)
        once = apply_pl_sf(replace(base, pathloss_db=37.0, shadow_db=5.0), h)
        twice = apply_pl_sf(replace(base, pathloss_db=37.0, shadow_db=0.0),
                            apply_pl_sf(replace(base, pathloss_db=0.0, shadow_db=5.0), h))
        assert np.allclose(once, twice, atol=1e-15)

    def test_non_finite_rejected(self):
        real = replace(_single_ray_realization(), pathloss_db=math.inf)
        h = np.ones((1, 1), dtype=complex)
        with pytest.raises(DomainError):
            apply_pl_sf(real, h)


class TestDeterminism:
    def test_same_stream_triple_reproduces_link_bitwise(self):
        profile = get_profile("UMa_A")

        def make():
            rng = derive_stream(777, 42, "link-9")
            return realize_link(profile, 700e6, [0, 0, 25.0], [250.0, -60.0, 1.5], rng,
                                indoor=True, speed_kmh=3.0)

        a, b = make(), make()
        assert a.pathloss_db == b.pathloss_db
        assert a.shadow_db == b.shadow_db
        assert np.array_equal(a.clusters.delays_s, b.clusters.delays_s)
        assert np.array_equal(a.clusters.powers, b.clusters.powers)
        assert np.array_equal(a.clusters.phases_rad, b.clusters.phases_rad)
        h_a = channel_coeff(a, ONE, ISO, ONE, ISO, 0.123)
        h_b = channel_coeff(b, ONE, ISO, ONE, ISO, 0.123)
        assert np.array_equal(h_a, h_b)


def _phase_before_split(cfg, az_deg, zen_deg):
    """The array phase as the generator computed it before it called
    ``antenna.array_response``: unit directions contracted with the element
    positions."""
    az = np.radians(az_deg)
    zen = np.radians(zen_deg)
    dirs = np.stack([np.sin(zen) * np.cos(az), np.sin(zen) * np.sin(az), np.cos(zen)], axis=-1)
    pos = cfg.element_positions_wl()  # (u, 3)
    return np.exp(1j * 2.0 * np.pi * np.tensordot(pos, dirs, axes=([1], [2])))


class TestSteeringVectorOracle:
    @pytest.mark.parametrize("cfg", [
        ArrayConfig(m=2, n=4, p=1, mp=1, np=1),
        ArrayConfig(m=2, n=4, p=2, mp=1, np=1),
        ArrayConfig(m=1, n=2, mp=1, np=2),
    ], ids=["single-pol", "dual-pol", "ue-pair"])
    @pytest.mark.parametrize("shape", [(12, 20), (1, 1)], ids=["rays", "los-ray"])
    def test_phase_is_bitwise_the_old_expression(self, cfg, shape):
        rng = np.random.default_rng(11)
        az = rng.uniform(-180.0, 180.0, size=shape)
        zen = rng.uniform(0.0, 180.0, size=shape)
        _, _, phase = _field_and_phase(cfg, ISO, az, zen)
        assert phase.shape == (cfg.n_elements,) + shape
        assert np.array_equal(phase, _phase_before_split(cfg, az, zen))


def test_field_and_phase_takes_one_dimensional_ray_angles():
    cfg = ArrayConfig(m=2, n=4, p=2, mp=1, np=1)
    rng = np.random.default_rng(12)
    az = rng.uniform(-180.0, 180.0, size=(3, 7))
    zen = rng.uniform(0.0, 180.0, size=(3, 7))
    flat = _field_and_phase(cfg, ElementPattern(8.0), az.ravel(), zen.ravel())
    grid = _field_and_phase(cfg, ElementPattern(8.0), az, zen)
    for mine, theirs in zip(flat, grid):
        assert mine.shape == (cfg.n_elements, 21)
        assert np.array_equal(mine, theirs.reshape(cfg.n_elements, 21))


def _field_and_phase_reference(cfg, pattern, az_deg, zen_deg):
    """``_field_and_phase`` as it was before it took angle arrays of any shape."""
    gain_db = element_gain(pattern, np.clip(az_deg, -180.0, 180.0), np.clip(zen_deg, 0.0, 180.0))
    amp = np.sqrt(10.0 ** (np.asarray(gain_db) / 10.0))  # (n, m)
    slants = np.radians(cfg.polarization_slants_deg())  # (u,)
    f_theta = np.cos(slants)[:, None, None] * amp[None, :, :]
    f_phi = np.sin(slants)[:, None, None] * amp[None, :, :]
    phase = array_response(cfg, np.ravel(az_deg), np.ravel(zen_deg))
    return f_theta, f_phi, phase.reshape((cfg.n_elements,) + np.shape(az_deg))


def channel_coeff_reference(real, tx_cfg, tx_pattern, rx_cfg, rx_pattern, t_s):
    """``channel_coeff`` as it was before the LOS ray joined the ray sum: the
    cluster rays and the LOS ray each had their own field, Doppler and
    polarization-coupling pipeline."""
    t = np.atleast_1d(np.asarray(t_s, dtype=float))
    cl = real.clusters
    aoa, aod, zoa, zod = _ray_geometry(real)
    n, m = aoa.shape

    fr_t, fr_p, ph_rx = _field_and_phase_reference(rx_cfg, rx_pattern, aoa, zoa)
    ft_t, ft_p, ph_tx = _field_and_phase_reference(tx_cfg, tx_pattern, aod, zod)

    inv_sqrt_xpr = np.sqrt(1.0 / cl.xpr_linear)
    p = cl.phases_rad
    p00 = np.exp(1j * p[..., 0])
    p01 = inv_sqrt_xpr * np.exp(1j * p[..., 1])
    p10 = inv_sqrt_xpr * np.exp(1j * p[..., 2])
    p11 = np.exp(1j * p[..., 3])

    # Doppler frequency per ray from the arrival direction vs UE motion
    v_ms = real.speed_kmh / 3.6
    lam = SPEED_OF_LIGHT / real.carrier_hz
    dir_deg = math.degrees(real.direction_rad)
    nu = (v_ms / lam) * np.sin(np.radians(zoa)) * np.cos(np.radians(aoa - dir_deg))
    dopp = np.exp(1j * 2.0 * np.pi * nu[None, :, :] * t[:, None, None])  # (T, n, m)

    weight = np.sqrt(cl.powers / m)[:, None]  # (n, 1)

    # polarization-coupled field product per (u, s, n, m)
    pol = (np.einsum("unm,snm,nm->usnm", fr_t, ft_t, p00)
           + np.einsum("unm,snm,nm->usnm", fr_t, ft_p, p01)
           + np.einsum("unm,snm,nm->usnm", fr_p, ft_t, p10)
           + np.einsum("unm,snm,nm->usnm", fr_p, ft_p, p11))
    core = np.einsum("usnm,unm,snm->usnm", pol, ph_rx, ph_tx) * weight[None, None, :, :]
    h = np.einsum("usnm,tnm->tus", core, dopp)

    if real.condition.los and real.ricean_k_db is not None:
        k_lin = 10.0 ** (real.ricean_k_db / 10.0)
        h = h * math.sqrt(1.0 / (k_lin + 1.0))
        az_a = np.array([[real.los_aoa_deg]])
        ze_a = np.array([[real.los_zoa_deg]])
        az_d = np.array([[real.los_aod_deg]])
        ze_d = np.array([[real.los_zod_deg]])
        fr_t, fr_p, ph_rx = _field_and_phase_reference(rx_cfg, rx_pattern, az_a, ze_a)
        ft_t, ft_p, ph_tx = _field_and_phase_reference(tx_cfg, tx_pattern, az_d, ze_d)
        # deterministic ray: co-polarized coupling with a sign flip on phi-phi
        los_pol = (np.einsum("unm,snm->usnm", fr_t, ft_t)
                   - np.einsum("unm,snm->usnm", fr_p, ft_p))
        los_core = np.einsum("usnm,unm,snm->us", los_pol, ph_rx, ph_tx)
        phase0 = np.exp(-1j * 2.0 * np.pi * real.d3d_m / lam)
        nu_los = (v_ms / lam) * math.sin(math.radians(real.los_zoa_deg)) * math.cos(
            math.radians(real.los_aoa_deg) - real.direction_rad)
        dopp_los = np.exp(1j * 2.0 * np.pi * nu_los * t)
        h = h + math.sqrt(k_lin / (k_lin + 1.0)) * phase0 * np.einsum(
            "us,t->tus", los_core, dopp_los)

    return h[0] if np.isscalar(t_s) or np.asarray(t_s).ndim == 0 else h


_ARRAY_PAIRS = {
    "single-isotropic": (ONE, ISO, ONE, ISO),
    "4x4-bs-to-ue": (ArrayConfig(m=4, n=4, p=2, mp=1, np=1), ElementPattern(8.0),
                     ArrayConfig(m=1, n=2, p=2, mp=1, np=1), ISO),
    "ue-to-4x4-bs": (ArrayConfig(m=1, n=2, p=2, mp=1, np=1), ISO,
                     ArrayConfig(m=4, n=4, p=2, mp=1, np=1), ElementPattern(8.0)),
}


class TestRaySumOracle:
    """The one ray sum (LOS ray appended to the cluster rays) against the
    former two-pipeline ``channel_coeff``; the summation order changed, so
    agreement is to 1e-12 of max|H| rather than bitwise."""

    @pytest.mark.parametrize("pair", list(_ARRAY_PAIRS))
    @pytest.mark.parametrize("t_s", [0.0, np.array([0.0, 0.004, 0.25])], ids=["scalar", "vector"])
    @pytest.mark.parametrize("los", [True, False], ids=["los", "nlos"])
    @pytest.mark.parametrize("name", ["UMa_A", "RMa", "InH", "UMi"])
    def test_matches_the_two_pipeline_sum(self, name, los, t_s, pair):
        tx, tx_pattern, rx, rx_pattern = _ARRAY_PAIRS[pair]
        real = realize_link(get_profile(name), 4e9, [0, 0, 25.0], [90.0, 35.0, 1.5],
                            derive_stream(16, 0, f"oracle-{name}"), speed_kmh=60.0,
                            direction_rad=0.9, condition=PropagationCondition(los=los))
        h = channel_coeff(real, tx, tx_pattern, rx, rx_pattern, t_s)
        ref = channel_coeff_reference(real, tx, tx_pattern, rx, rx_pattern, t_s)
        assert h.shape == ref.shape
        assert np.abs(h - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("los", [True, False], ids=["los", "nlos"])
    def test_fields_are_evaluated_once_per_side(self, monkeypatch, los):
        calls = []

        def counting(*args):
            calls.append(np.shape(args[2]))
            return _field_and_phase(*args)

        monkeypatch.setattr(smallscale, "_field_and_phase", counting)
        real = realize_link(get_profile("UMa_A"), 4e9, [0, 0, 25.0], [90.0, 35.0, 1.5],
                            derive_stream(17, 0, "count"), condition=PropagationCondition(los=los))
        channel_coeff(real, ONE, ISO, ONE, ISO, np.array([0.0, 0.1]))
        n_rays = real.clusters.perm_aoa.size + (1 if los else 0)
        assert calls == [(n_rays,), (n_rays,)]


def test_drop_path_does_not_load_the_small_scale_generator():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys\n"
            "import imteval.cli, imteval.engine, imteval.report, imteval.metrics\n"
            "assert 'imteval.channel.model' in sys.modules\n"
            "print('imteval.channel.smallscale' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
