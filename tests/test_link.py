"""Link budget arithmetic, power control, abstraction and HARQ."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import ZERO_BLER

from imteval.engine import run_drop
from imteval.errors import DomainError
from imteval.geometry import build_layout
from imteval.link import (
    DOWNLINK,
    UPLINK,
    LinkParams,
    bler,
    harq_success_probability,
    noise_power,
    sinr_to_se,
    uplink_power_control,
)
from imteval.scenario import TestEnvironment, preset


class TestNoisePower:
    def test_ten_mhz_five_db(self):
        assert noise_power(10e6, 5.0, -174.0) == pytest.approx(-99.0, abs=1e-9)

    def test_one_hz_reference(self):
        assert noise_power(1.0, 0.0, -174.0) == -174.0

    def test_noise_density_argument(self):
        assert noise_power(1.0, 0.0, -170.0) == -170.0

    def test_doubling_bandwidth_adds_3db(self):
        delta = noise_power(2e6, 0.0, -174.0) - noise_power(1e6, 0.0, -174.0)
        assert delta == pytest.approx(10.0 * math.log10(2.0), abs=1e-12)

    def test_positive_bandwidth_required(self):
        with pytest.raises(DomainError):
            noise_power(0.0, 5.0, -174.0)


class TestComputeSinr:
    def test_linear_consistency_invariant(self):
        # SINR = S / (I + N) in linear units, on every UE and both directions,
        # including the uplink UEs whose interference is empty (-inf dBm)
        config = preset(TestEnvironment.INDOOR_HOTSPOT_EMBB, "A")
        layout = build_layout(config)
        for d in range(3):
            drop = run_drop(config, layout, d, sinr_only=True)
            for signal, interference, noise, sinr in (
                    (drop.dl_signal_dbm, drop.dl_interf_dbm, drop.dl_noise_dbm, drop.dl_sinr_db),
                    (drop.ul_signal_dbm, drop.ul_interf_dbm, drop.ul_noise_dbm, drop.ul_sinr_db)):
                lin_sinr = 10 ** (sinr / 10)
                lin_sig = 10 ** (signal / 10)
                lin_int = 10 ** (interference / 10)
                lin_noise = 10 ** (noise / 10)
                assert np.allclose(lin_sinr, lin_sig / (lin_int + lin_noise), rtol=1e-9, atol=0.0)


class TestPowerControl:
    def test_floors_at_p0(self):
        assert uplink_power_control(0.0, -100.0, 1.0, 23.0) == -100.0

    def test_caps_at_23_dbm(self):
        assert uplink_power_control(200.0, -100.0, 1.0, 23.0) == 23.0
        # the cap is the argument, not a constant
        assert uplink_power_control(200.0, -100.0, 1.0, 0.0) == 0.0

    def test_open_loop_slope(self):
        assert uplink_power_control(100.0, -100.0, 0.8, 23.0) == pytest.approx(-20.0)
        p = uplink_power_control(np.array([90.0, 100.0, 110.0]), -100.0, 0.8, 23.0)
        assert np.allclose(np.diff(p), 0.8 * 10.0)

    def test_requires_finite_pathloss(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                uplink_power_control(bad, -90.0, 1.0, 23.0)
        with pytest.raises(DomainError):
            uplink_power_control(np.array([100.0, math.inf]), -90.0, 1.0, 23.0)


class TestSinrToSe:
    LINK = LinkParams(alpha=0.6, se_max_dl=7.4, se_max_ul=5.5, sinr_min_db=-10.0)

    def test_below_cutoff_is_zero(self):
        assert sinr_to_se(self.LINK, DOWNLINK, -10.01) == 0.0

    def test_alpha_log_formula(self):
        expected = 0.6 * math.log2(1.0 + 10.0)
        assert sinr_to_se(self.LINK, DOWNLINK, 10.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2.0756, abs=3e-4)

    def test_cap_at_se_max(self):
        assert sinr_to_se(self.LINK, DOWNLINK, 80.0) == 7.4
        assert sinr_to_se(self.LINK, UPLINK, 80.0) == 5.5

    def test_monotone(self):
        s = np.linspace(-20, 40, 500)
        se = sinr_to_se(self.LINK, UPLINK, s)
        assert np.all(np.diff(se) >= 0.0)


def waterfall(sinr_50_db, slope_db, floor=1e-9):
    """A link with this BLER curve."""
    return LinkParams(bler_sinr_50_db=sinr_50_db, bler_slope_db=slope_db, bler_floor=floor)


def harq(link, k, tx_time_s, gain_db=0.0):
    """``link`` with up to k transmissions of tx_time_s, each retransmission
    gaining gain_db."""
    return replace(link, harq_max_transmissions=k, harq_tx_time_s=tx_time_s,
                   harq_combining_gain_db=gain_db)


class TestBler:
    def test_half_at_sinr50_by_construction(self):
        for model in (waterfall(-5.0, 2.0), waterfall(3.0, 1.0), waterfall(0.0, 4.0)):
            assert bler(model, model.bler_sinr_50_db) == pytest.approx(0.5, abs=1e-9)

    def test_monotone_non_increasing(self):
        model = waterfall(-5.0, 2.0, 1e-9)
        s = np.linspace(-20, 30, 500)
        b = bler(model, s)
        assert np.all(np.diff(b) <= 1e-15)
        assert np.all((b >= model.bler_floor) & (b <= 1.0))

    def test_floor_and_ceiling(self):
        model = waterfall(-5.0, 2.0, 1e-6)
        assert bler(model, 100.0) == 1e-6
        assert bler(model, -100.0) == 1.0


class TestHarq:
    def test_zero_bler_succeeds_first_attempt(self):
        assert harq_success_probability(harq(ZERO_BLER, 4, 0.25e-3), 0.0, 1e-3) == 1.0
        assert harq_success_probability(harq(ZERO_BLER, 1, 0.25e-3), 0.0, 1e-3) == 1.0

    def test_two_attempts_product_arithmetic(self):
        # per-attempt BLER 0.01, no combining gain: residual 1e-4 exactly
        model = waterfall(0.0, 1.0, 0.0)
        sinr = 0.0 + 1.0 * math.log10(0.5 / 0.01)  # solve BLER(s) = 0.01
        assert bler(model, sinr) == pytest.approx(0.01, abs=1e-15)
        prob = harq_success_probability(harq(model, 2, 0.5e-3), sinr, 1e-3)
        assert prob == pytest.approx(1.0 - 1e-4, abs=1e-12)

    def test_budget_shorter_than_one_attempt(self):
        assert harq_success_probability(harq(ZERO_BLER, 4, 2e-3), 0.0, 1e-3) == 0.0

    def test_budget_caps_attempts(self):
        # a 1 ms budget holds 4 transmissions of 0.25 ms, whatever the maximum
        model = waterfall(0.0, 2.0, 0.0)
        capped = harq_success_probability(harq(model, 8, 0.25e-3), 1.0, 1e-3)
        assert capped == harq_success_probability(harq(model, 4, 0.25e-3), 1.0, 1e-3)
        assert capped == pytest.approx(1.0 - bler(model, 1.0) ** 4, rel=1e-12)
        assert capped < harq_success_probability(harq(model, 5, 0.25e-3), 1.0, 1.25e-3)

    def test_monotone_in_sinr_attempts_and_budget(self):
        model = waterfall(-2.0, 2.0, 1e-9)
        probs = [harq_success_probability(harq(model, 4, 0.25e-3), s, 1e-3)
                 for s in np.linspace(-10, 10, 40)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        by_attempts = [harq_success_probability(harq(model, k, 0.2e-3), -3.0, 1e-3)
                       for k in (1, 2, 3, 4, 5)]
        assert all(b >= a for a, b in zip(by_attempts, by_attempts[1:]))
        by_budget = [harq_success_probability(harq(model, 8, 0.25e-3), -3.0, b)
                     for b in (0.3e-3, 0.6e-3, 1e-3, 2e-3)]
        assert all(b >= a for a, b in zip(by_budget, by_budget[1:]))

    def test_combining_gain_improves_retransmissions(self):
        model = waterfall(-2.0, 2.0, 1e-9)
        plain = harq_success_probability(harq(model, 4, 0.25e-3, 0.0), -3.0, 1e-3)
        combined = harq_success_probability(harq(model, 4, 0.25e-3, 3.0), -3.0, 1e-3)
        assert combined > plain

    @pytest.mark.parametrize("sinr_db, budget_s", [(0.0, math.nan), (0.0, 0.0), (0.0, -1e-3),
                                                   (0.0, math.inf), (math.nan, 1e-3)])
    def test_nan_or_out_of_range_input_rejected(self, sinr_db, budget_s):
        with pytest.raises(DomainError):
            harq_success_probability(LinkParams(), sinr_db, budget_s)
