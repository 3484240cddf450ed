"""Link budget arithmetic, combining, power control, abstraction and HARQ."""

import math

import numpy as np
import pytest

from imteval.errors import DomainError
from imteval.link import (
    BlerModel,
    HarqConfig,
    LinkAbstraction,
    PowerControlParams,
    ZERO_BLER,
    bler,
    combine_mrc,
    compute_sinr,
    harq_outcome,
    noise_power,
    sinr_to_se,
    uplink_power_control,
)


class TestNoisePower:
    def test_ten_mhz_five_db(self):
        assert noise_power(10e6, 5.0) == pytest.approx(-99.0, abs=1e-9)

    def test_one_hz_reference(self):
        assert noise_power(1.0, 0.0) == -174.0

    def test_noise_density_argument(self):
        assert noise_power(1.0, 0.0, -170.0) == -170.0
        assert noise_power(10e6, 5.0, -174.0) == noise_power(10e6, 5.0)

    def test_doubling_bandwidth_adds_3db(self):
        delta = noise_power(2e6, 0.0) - noise_power(1e6, 0.0)
        assert delta == pytest.approx(10.0 * math.log10(2.0), abs=1e-12)

    def test_positive_bandwidth_required(self):
        with pytest.raises(DomainError):
            noise_power(0.0, 5.0)


class TestComputeSinr:
    def test_no_interferers_gives_snr(self):
        s = compute_sinr(2.0, [], 0.5)
        assert s.sinr_db == pytest.approx(10.0 * math.log10(4.0))
        assert s.interference_dbm == -math.inf

    def test_serving_equals_noise_is_zero_db(self):
        assert compute_sinr(0.5, [], 0.5).sinr_db == pytest.approx(0.0, abs=1e-12)

    def test_explicit_sum(self):
        s = compute_sinr(1.0, [0.5], 0.5)
        assert s.sinr_db == pytest.approx(0.0, abs=1e-12)

    def test_linear_consistency_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            serving = rng.uniform(1e-9, 10.0)
            interferers = rng.uniform(0.0, 1.0, rng.integers(0, 6))
            noise = rng.uniform(1e-9, 1.0)
            s = compute_sinr(serving, interferers, noise)
            lin_sinr = 10 ** (s.sinr_db / 10)
            lin_sig = 10 ** (s.signal_dbm / 10)
            lin_int = 10 ** (s.interference_dbm / 10)
            lin_noise = 10 ** (s.noise_dbm / 10)
            assert lin_sinr == pytest.approx(lin_sig / (lin_int + lin_noise), rel=1e-9)

    def test_adding_interference_never_helps(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            base = list(rng.uniform(0, 1, 3))
            extra = base + [float(rng.uniform(0, 1))]
            assert compute_sinr(1.0, extra, 0.1).sinr_db <= compute_sinr(1.0, base, 0.1).sinr_db


class TestMrc:
    def test_single_branch_identity(self):
        assert combine_mrc([3.7]) == 3.7

    def test_two_equal_branches_double(self):
        combined = combine_mrc([2.0, 2.0])
        gain_db = 10 * math.log10(combined / 2.0)
        assert gain_db == pytest.approx(10 * math.log10(2.0), abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(10)
        branches = rng.uniform(0, 5, 6)
        assert combine_mrc(branches) == pytest.approx(combine_mrc(branches[::-1]))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            combine_mrc([])


class TestPowerControl:
    def test_floors_at_p0(self):
        params = PowerControlParams(p0_dbm=-100.0, alpha=1.0)
        assert uplink_power_control(0.0, params) == -100.0

    def test_caps_at_23_dbm(self):
        params = PowerControlParams(p0_dbm=-100.0, alpha=1.0)
        assert uplink_power_control(200.0, params) == 23.0

    def test_open_loop_slope(self):
        params = PowerControlParams(p0_dbm=-100.0, alpha=0.8)
        assert uplink_power_control(100.0, params) == pytest.approx(-20.0)

    def test_requires_finite_pathloss(self):
        with pytest.raises(DomainError):
            uplink_power_control(math.inf, PowerControlParams())


class TestLinkAbstraction:
    def test_below_cutoff_is_zero(self):
        abstraction = LinkAbstraction(0.6, 7.4, -10.0)
        assert sinr_to_se(abstraction, -10.01) == 0.0

    def test_alpha_log_formula(self):
        abstraction = LinkAbstraction(0.6, 7.4, -10.0)
        expected = 0.6 * math.log2(1.0 + 10.0)
        assert sinr_to_se(abstraction, 10.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2.0756, abs=3e-4)

    def test_cap_at_se_max(self):
        abstraction = LinkAbstraction(0.6, 7.4, -10.0)
        assert sinr_to_se(abstraction, 80.0) == 7.4

    def test_monotone(self):
        abstraction = LinkAbstraction(0.6, 5.5, -10.0)
        s = np.linspace(-20, 40, 500)
        se = sinr_to_se(abstraction, s)
        assert np.all(np.diff(se) >= 0.0)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            LinkAbstraction(efficiency=0.0)
        with pytest.raises(DomainError):
            LinkAbstraction(se_max=0.0)


class TestBler:
    def test_half_at_sinr50_by_construction(self):
        for model in (BlerModel(-5.0, 2.0), BlerModel(3.0, 1.0), BlerModel(0.0, 4.0)):
            assert bler(model, model.sinr_50_db) == pytest.approx(0.5, abs=1e-9)

    def test_monotone_non_increasing(self):
        model = BlerModel(-5.0, 2.0, 1e-9)
        s = np.linspace(-20, 30, 500)
        b = bler(model, s)
        assert np.all(np.diff(b) <= 1e-15)
        assert np.all((b >= model.bler_floor) & (b <= 1.0))

    def test_floor_and_ceiling(self):
        model = BlerModel(-5.0, 2.0, 1e-6)
        assert bler(model, 100.0) == 1e-6
        assert bler(model, -100.0) == 1.0


class TestHarq:
    def test_zero_bler_succeeds_first_attempt(self):
        out = harq_outcome(ZERO_BLER, HarqConfig(4, 0.25e-3), 0.0, 1e-3)
        assert out.success_probability == 1.0
        assert out.attempts[0][2] == 1.0

    def test_two_attempts_product_arithmetic(self):
        # per-attempt BLER 0.01, no combining gain: residual 1e-4 exactly
        model = BlerModel(sinr_50_db=0.0, slope_db_per_decade=1.0, bler_floor=0.0)
        sinr = 0.0 + 1.0 * math.log10(0.5 / 0.01)  # solve BLER(s) = 0.01
        assert bler(model, sinr) == pytest.approx(0.01, abs=1e-15)
        out = harq_outcome(model, HarqConfig(2, 0.5e-3, 0.0), sinr, 1e-3)
        assert out.success_probability == pytest.approx(1.0 - 1e-4, abs=1e-12)

    def test_budget_shorter_than_one_attempt(self):
        out = harq_outcome(ZERO_BLER, HarqConfig(4, 2e-3), 0.0, 1e-3)
        assert out.success_probability == 0.0
        assert out.degenerate_budget

    def test_budget_caps_attempts(self):
        model = BlerModel(0.0, 2.0, 0.0)
        out = harq_outcome(model, HarqConfig(8, 0.25e-3), -1.0, 1e-3)
        assert len(out.attempts) == 4
        assert out.attempts[-1][1] == pytest.approx(1e-3)

    def test_monotone_in_sinr_attempts_and_budget(self):
        model = BlerModel(-2.0, 2.0, 1e-9)
        probs = [harq_outcome(model, HarqConfig(4, 0.25e-3), s, 1e-3).success_probability
                 for s in np.linspace(-10, 10, 40)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        by_attempts = [harq_outcome(model, HarqConfig(k, 0.2e-3), -3.0, 1e-3).success_probability
                       for k in (1, 2, 3, 4, 5)]
        assert all(b >= a for a, b in zip(by_attempts, by_attempts[1:]))
        by_budget = [harq_outcome(model, HarqConfig(8, 0.25e-3), -3.0, b).success_probability
                     for b in (0.3e-3, 0.6e-3, 1e-3, 2e-3)]
        assert all(b >= a for a, b in zip(by_budget, by_budget[1:]))

    def test_combining_gain_improves_retransmissions(self):
        model = BlerModel(-2.0, 2.0, 1e-9)
        plain = harq_outcome(model, HarqConfig(4, 0.25e-3, 0.0), -3.0, 1e-3)
        combined = harq_outcome(model, HarqConfig(4, 0.25e-3, 3.0), -3.0, 1e-3)
        assert combined.success_probability > plain.success_probability

    def test_delay_distribution_sums_to_success(self):
        model = BlerModel(-2.0, 2.0, 1e-9)
        out = harq_outcome(model, HarqConfig(4, 0.25e-3), -1.5, 1e-3)
        assert 0.0 < out.success_probability < 1.0
        assert sum(p for _, _, p in out.attempts) == pytest.approx(out.success_probability)
        assert out.expected_transmissions() >= 1.0
