"""KPI formulas, CDF machinery, density search and the convergence monitor."""

import dataclasses
import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imteval.engine import run
from imteval.errors import DomainError, InsufficientSamples, InternalError
from imteval.link import BlerModel, HarqConfig, LinkAbstraction, bler
from imteval.metrics import (
    CAPPED,
    CdfEstimator,
    CONTINUE,
    CONVERGED,
    ConvergenceMonitor,
    avg_spectral_efficiency,
    b_value,
    connection_density_fullbuffer,
    connection_density_search,
    doppler_backoff_db,
    mobility_rate,
    p99_delay,
    pct5_user_se,
    reliability,
)
from imteval.report import check_compliance, emit
from imteval.scenario import TestEnvironment, preset


def cdf_text_reference(name, est):
    """The row loop ``report.emit`` used before it joined the rows, kept as
    the oracle: np.quantile over the sorted buffer at every 0.1 percentile,
    one StringIO write per row."""
    ps = np.arange(0.0, 100.0 + 0.1 / 2.0, 0.1)
    vals = np.quantile(np.sort(est.samples), ps / 100.0, method="linear")
    buf = io.StringIO()
    buf.write("metric,percentile,value\n")
    for pct, value in zip(ps.tolist(), vals.tolist()):
        buf.write(f"{name},{pct:.1f},{value!r}\n")
    return buf.getvalue()


@st.composite
def repeated_samples(draw):
    """1 to 5,000 finite samples drawn with repeats from up to 12 values. At
    most one signed zero appears: np.quantile may read either zero of a
    -0.0/0.0 tie, depending on its partition's pivots."""
    zero = draw(st.sampled_from([0.0, -0.0]))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                           .map(lambda x: zero if x == 0.0 else x), min_size=1, max_size=12))
    n = draw(st.integers(1, 5000))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).choice(np.array(values), n)


class TestCdfEstimator:
    def test_quantile_convention_on_1_to_100(self):
        est = CdfEstimator(np.arange(1, 101, dtype=float))
        assert est.quantile(0.05) == pytest.approx(5.95)
        assert est.quantile(0.0) == 1.0
        assert est.quantile(1.0) == 100.0

    def test_quantiles_monotone_in_p(self):
        rng = np.random.default_rng(0)
        est = CdfEstimator(rng.normal(size=1000))
        qs = [est.quantile(p) for p in np.linspace(0, 1, 101)]
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_uniform_quantile_accuracy(self):
        rng = np.random.default_rng(1)
        est = CdfEstimator(rng.uniform(size=1_000_000))
        assert abs(est.quantile(0.05) - 0.05) < 0.002

    def test_chunked_adds_equal_one_pooled_add(self):
        rng = np.random.default_rng(5)
        chunks = [rng.normal(size=n) for n in (570, 0, 1, 333, 570)] + [2.5]
        chunked, pooled = CdfEstimator(), CdfEstimator()
        for chunk in chunks:
            chunked.add(chunk)
        pooled.add(np.concatenate([np.atleast_1d(c) for c in chunks]))
        assert chunked.count == pooled.count == 1475
        assert chunked.samples.tobytes() == pooled.samples.tobytes()
        assert chunked.quantile(0.05) == pooled.quantile(0.05)
        # adds after a sorting read append to the sorted buffer, as pooling would
        tail = rng.normal(size=40)
        chunked.add(tail)
        pooled.add(tail)
        assert chunked.samples.tobytes() == pooled.samples.tobytes()
        q = np.linspace(0.0, 1.0, 101)
        assert chunked.quantiles(q).tobytes() == pooled.quantiles(q).tobytes()

    def test_added_chunk_is_copied(self):
        chunk = np.array([3.0, 1.0, 2.0])
        est = CdfEstimator()
        est.add(chunk)
        chunk[:] = 0.0
        assert est.samples.tolist() == [3.0, 1.0, 2.0]

    def test_empty_estimator_raises(self):
        with pytest.raises(InsufficientSamples):
            CdfEstimator().quantile(0.5)

    def test_percentile_rows_non_decreasing(self):
        rng = np.random.default_rng(3)
        est = CdfEstimator(rng.normal(size=5000))
        values = est.quantiles(np.arange(0.0, 100.05, 0.1) / 100.0)
        assert len(values) == 1001
        assert (np.diff(values) >= 0.0).all()
        assert values[0] == est.samples.min() and values[-1] == est.samples.max()

    @settings(max_examples=150, deadline=None)
    @given(samples=repeated_samples(), levels=st.lists(st.floats(0.0, 1.0), max_size=30))
    def test_quantiles_are_numpys_linear_quantiles_bit_for_bit(self, samples, levels):
        q = np.array([0.0, 1.0, *levels])
        est = CdfEstimator(samples)
        assert est.quantiles(q).tobytes() == np.quantile(samples, q, method="linear").tobytes()
        for p in q.tolist():
            assert np.float64(est.quantile(p)).tobytes() == \
                np.quantile(samples, p, method="linear").tobytes()

    def test_quantile_read_copies_no_buffer(self):
        est = CdfEstimator(np.random.default_rng(8).normal(size=1_000_000))
        q = np.arange(0.0, 100.05, 0.1) / 100.0
        est.quantiles(q)  # sorts in place
        tracemalloc.start()
        try:
            est.quantiles(q)
            est.quantile(0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < est.samples.nbytes // 20

    @pytest.mark.parametrize("level", [-0.01, 1.01, math.nan])
    def test_level_outside_0_1_rejected(self, level):
        with pytest.raises(DomainError):
            CdfEstimator([1.0, 2.0]).quantile(level)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(DomainError, match="2 of 4"):
            CdfEstimator([1.0, bad, 2.0, bad])
        est = CdfEstimator([1.0, 2.0])
        with pytest.raises(DomainError, match="1 of 3"):
            est.add([3.0, bad, 4.0])
        assert est.quantile(1.0) == 2.0

    def test_cdf_files_equal_the_row_loop_oracle(self, tmp_path):
        cfg = dataclasses.replace(preset(TestEnvironment.URBAN_MACRO_URLLC, "B"), drops=2)
        result = run(cfg, sinr_only=True)
        special = CdfEstimator([1e-05, 1e16, -0.0, 5e-324, 1e16, 3.0, -2.5])
        result = dataclasses.replace(result, cdfs={**result.cdfs, "special": special})
        files = [f for f in emit(result, check_compliance(result), tmp_path)
                 if os.path.basename(f).startswith("cdf_")]
        assert len(files) == 3
        for path in files:
            name = os.path.basename(path)[len("cdf_"):-len(".csv")]
            with open(path, encoding="utf-8", newline="") as fh:
                assert fh.read() == cdf_text_reference(name, result.cdfs[name])


class TestAverageSpectralEfficiency:
    def test_synthetic_example(self):
        # one drop whose two users received 5 and 15 Mbit
        se = avg_spectral_efficiency([5e6 + 15e6], duration_s=1.0, bandwidth_hz=10e6, n_trxps=1)
        assert se == pytest.approx(2.0, abs=1e-15)

    def test_all_zero_bits(self):
        assert avg_spectral_efficiency([0.0], 1.0, 10e6, 3) == 0.0

    def test_linearity(self):
        base = avg_spectral_efficiency([3e6, 3e6], 0.5, 5e6, 2)
        doubled = avg_spectral_efficiency([6e6, 6e6], 0.5, 5e6, 2)
        assert doubled == pytest.approx(2.0 * base)

    def test_invariant_under_drop_reordering(self):
        assert (avg_spectral_efficiency([1e6, 2e6, 3e6], 1.0, 1e6, 1)
                == avg_spectral_efficiency([3e6, 1e6, 2e6], 1.0, 1e6, 1))

    def test_sums_drops_in_order_with_float_addition(self):
        bits = [0.1, 0.2, 0.3, 1e16, 1.0, -0.0]
        total = 0.0
        for b in bits:
            total += b
        assert avg_spectral_efficiency(bits, 1.0, 1.0, 1) == total / len(bits)

    def test_negative_bits_rejected(self):
        with pytest.raises(DomainError):
            avg_spectral_efficiency([-1.0], 1.0, 1e6, 1)

    @pytest.mark.parametrize("bits, duration_s, bandwidth_hz, n_trxps", [
        ([math.nan], 1.0, 1e6, 1), ([1e6, math.inf], 1.0, 1e6, 1), ([], 1.0, 1e6, 1),
        ([1e6], math.nan, 1e6, 1), ([1e6], 1.0, math.nan, 1), ([1e6], 1.0, 1e6, math.nan),
        ([1e6], 0.0, 1e6, 1), ([1e6], 1.0, math.inf, 1), ([1e6], 1.0, 1e6, 0)])
    def test_nan_or_out_of_range_input_rejected(self, bits, duration_s, bandwidth_hz, n_trxps):
        with pytest.raises(DomainError):
            avg_spectral_efficiency(bits, duration_s, bandwidth_hz, n_trxps)


class TestPct5UserSe:
    def test_constant_distribution(self):
        assert pct5_user_se(CdfEstimator([3.25] * 100)) == 3.25

    def test_interpolation_value(self):
        assert pct5_user_se(CdfEstimator(range(1, 101))) == pytest.approx(5.95)

    def test_adding_high_sample_never_decreases(self):
        rng = np.random.default_rng(4)
        samples = list(rng.uniform(0, 1, 200))
        before = pct5_user_se(CdfEstimator(samples))
        after = pct5_user_se(CdfEstimator(samples + [10.0]))
        assert after >= before - 1e-12

    def test_requires_20_samples(self):
        with pytest.raises(InsufficientSamples):
            pct5_user_se(CdfEstimator([1.0] * 19))


class TestConnectionDensityFullBuffer:
    def test_reference_evaluation(self):
        # sector area 72,168.78 m^2; 10 * 180e3 / 1.8e3 = 1000 supported
        density = connection_density_fullbuffer(n_mux=10.0, bandwidth_hz=180e3,
                                                b_values=np.array([1.8e3]), isd_m=500.0)
        assert density == pytest.approx(13_856.4, abs=0.1)

    def test_b_value_spot_check(self):
        assert b_value(10.0, 1000.0, 100.0) == pytest.approx(1.0, abs=1e-15)
        bits = np.array([1000.0, 500.0, 250.0])
        assert np.array_equal(b_value(10.0, bits, 100.0), 10.0 / (bits / 100.0))
        for bad in (0.0, np.array([1000.0, 0.0]), np.array([math.nan])):
            with pytest.raises(DomainError):
                b_value(10.0, bad, 100.0)

    @pytest.mark.parametrize("b_values", [np.array([]), np.array([1.8e3, math.nan]),
                                          np.array([math.inf])])
    def test_empty_or_non_finite_b_values_rejected(self, b_values):
        with pytest.raises(DomainError):
            connection_density_fullbuffer(10.0, 180e3, b_values, 500.0)

    @pytest.mark.parametrize("n_mux, bandwidth_hz, isd_m", [
        (math.nan, 180e3, 500.0), (10.0, math.nan, 500.0), (10.0, 180e3, math.nan),
        (0.0, 180e3, 500.0), (10.0, -180e3, 500.0), (10.0, 180e3, 0.0),
        (math.inf, 180e3, 500.0), (10.0, 180e3, math.inf)])
    def test_nan_or_out_of_range_input_rejected(self, n_mux, bandwidth_hz, isd_m):
        with pytest.raises(DomainError):
            connection_density_fullbuffer(n_mux, bandwidth_hz, np.array([1.8e3]), isd_m)

    def test_doubling_isd_quarters_density(self):
        b = np.array([1.8e3])
        assert connection_density_fullbuffer(10.0, 180e3, b, 500.0) == pytest.approx(
            4.0 * connection_density_fullbuffer(10.0, 180e3, b, 1000.0))

    def test_unit_scale_consistency(self):
        hz = connection_density_fullbuffer(10.0, 180e3, np.array([1.8e3, 2.2e3]), 500.0)
        khz = connection_density_fullbuffer(10.0, 180.0, np.array([1.8, 2.2]), 500.0)
        assert hz == pytest.approx(khz)


class TestDensitySearch:
    def test_all_zero_delays_hit_upper_bound(self):
        result = connection_density_search(lambda d: 0.0, 1e5, 1e8)
        assert result.density_per_km2 == 1e8

    def test_analytic_queueing_crossing(self):
        # single-queue sojourn-quantile oracle: with exponential service at
        # rate mu and Poisson arrivals lambda = k * density, the 99th
        # percentile sojourn is ln(100)/(mu - lambda); it crosses 10 s at
        # density = (mu - ln(100)/10) / k, solvable in closed form.
        mu = 50.0
        k = 1e-5  # arrivals per second per (device/km^2)
        crossing = (mu - math.log(100.0) / 10.0) / k

        def p99(density):
            lam = k * density
            if lam >= mu:
                return math.inf
            return math.log(100.0) / (mu - lam)

        result = connection_density_search(p99, 1e5, 1e7, steps=24)
        assert result.monotone
        assert result.delay_p99_s <= 10.0
        # bisection lands within one geometric grid step of the crossing
        step = (1e7 / 1e5) ** (1.0 / 2 ** 12)
        assert crossing / (1.0 + step) <= result.density_per_km2 <= crossing * (1.0 + step)

    def test_delay_at_the_qos_bound_meets_it(self):
        result = connection_density_search(
            lambda d: 10.0 if d <= 1_000_000.0 else 99.0, 1_000_000.0, 4_000_000.0, steps=10)
        assert (result.density_per_km2, result.delay_p99_s) == (1_000_000.0, 10.0)

    def test_fails_when_even_low_density_misses_qos(self):
        result = connection_density_search(lambda d: 99.0, 1e5, 1e7)
        assert result.density_per_km2 == 0.0

    def test_nan_probe_raises(self):
        with pytest.raises(InternalError, match="NaN"):
            connection_density_search(lambda d: math.nan, 1e5, 1e7)
        # a NaN later in the bisection is not read as passing either
        with pytest.raises(InternalError, match="NaN"):
            connection_density_search(lambda d: 1.0 if d <= 1e5 else
                                      (99.0 if d >= 1e7 else math.nan), 1e5, 1e7)


class TestP99Delay:
    def test_finite_sample_is_numpy_linear_quantile(self):
        delays = np.random.default_rng(8).exponential(1.0, 977)
        assert p99_delay(delays) == float(np.quantile(delays, 0.99, method="linear"))

    def test_zero_weight_next_to_inf_takes_lower_order_statistic(self):
        # 101 samples: position 0.99 * 100 = 99 exactly, upper neighbour inf
        delays = np.append(np.arange(100.0), math.inf)
        with np.errstate(invalid="ignore"):
            assert math.isnan(np.quantile(delays, 0.99, method="linear"))
        assert p99_delay(delays) == 99.0

    def test_positive_weight_towards_inf_is_inf(self):
        # 51 samples: position 49.5, between a finite and an infinite delay
        delays = np.append(np.arange(50.0), math.inf)
        with np.errstate(invalid="ignore"):
            assert math.isnan(np.quantile(delays, 0.99, method="linear"))
        assert p99_delay(delays) == math.inf

    def test_all_lost_is_inf(self):
        assert p99_delay([math.inf] * 7) == math.inf

    def test_empty_and_nan_samples_rejected(self):
        with pytest.raises(InsufficientSamples):
            p99_delay([])
        with pytest.raises(InternalError):
            p99_delay([1.0, math.nan])

    @settings(max_examples=200, deadline=None)
    @given(delivered=st.lists(st.floats(0.0, 1e3, allow_nan=False), min_size=1, max_size=300),
           n_lost=st.integers(1, 40))
    def test_losses_never_give_nan_or_lower_p99(self, delivered, n_lost):
        delays = list(delivered)
        previous = p99_delay(delays)
        for _ in range(n_lost):
            delays.append(math.inf)
            p99 = p99_delay(delays)
            assert not math.isnan(p99)
            assert p99 >= previous
            previous = p99


class TestReliability:
    def test_zero_bler_is_one(self):
        est = CdfEstimator(np.linspace(0, 20, 100))
        zero_bler = BlerModel(sinr_50_db=-math.inf, slope_db_per_decade=1.0, bler_floor=0.0)
        assert reliability(est, zero_bler, HarqConfig(4, 0.25e-3)) == 1.0

    def test_two_attempt_product(self):
        model = BlerModel(sinr_50_db=0.0, slope_db_per_decade=1.0, bler_floor=0.0)
        sinr = math.log10(0.5 / 0.01)  # per-attempt BLER 0.01
        est = CdfEstimator([sinr] * 100)
        prob = reliability(est, model, HarqConfig(2, 0.5e-3, 0.0))
        assert prob == pytest.approx(0.9999, abs=1e-12)

    def test_one_attempt_is_one_minus_bler(self):
        est = CdfEstimator([5.0] * 100)
        # craft a per-attempt BLER of 1e-5 in one attempt
        model = BlerModel(sinr_50_db=5.0 - math.log10(0.5 / 1e-5), slope_db_per_decade=1.0,
                          bler_floor=0.0)
        assert bler(model, 5.0) == pytest.approx(1e-5, rel=1e-9)
        prob = reliability(est, model, HarqConfig(1, 1e-3))
        assert prob == pytest.approx(0.99999, abs=1e-12)

    def test_evaluation_point_is_5th_percentile(self):
        # degrade only the lowest 5 percent and the result must move
        good = CdfEstimator([10.0] * 100)
        bad = CdfEstimator([10.0] * 94 + [-4.0] * 6)
        model = BlerModel(-5.0, 2.0, 1e-9)
        p_good = reliability(good, model, HarqConfig(4, 0.25e-3))
        p_bad = reliability(bad, model, HarqConfig(4, 0.25e-3))
        assert p_bad < p_good


class TestMobility:
    def test_zero_speed_no_backoff(self):
        assert doppler_backoff_db(0.0, 4e9) == 0.0
        est = CdfEstimator([10.0] * 100)
        abstraction = LinkAbstraction(0.6, 7.4, -10.0)
        rate = mobility_rate(est, 0.0, 4e9, abstraction)
        static = 0.6 * math.log2(1.0 + 10.0)
        assert rate == pytest.approx(static, abs=1e-12)

    def test_backoff_tiers(self):
        # normalized Doppler = speed/3.6 * fc / c * 1 ms
        assert doppler_backoff_db(0.1, 700e6, interval_s=1e-3) == 0.0
        assert doppler_backoff_db(1.0, 700e6, interval_s=1e-3) == 0.5
        assert doppler_backoff_db(3.0, 700e6, interval_s=1e-3) == 1.5
        assert doppler_backoff_db(120.0, 700e6, interval_s=1e-3) == 3.0
        assert doppler_backoff_db(500.0, 700e6, interval_s=1e-3) == 3.0  # saturates

    @pytest.mark.parametrize("speed_kmh", [math.nan, -1.0, math.inf])
    def test_nan_or_out_of_range_speed_rejected(self, speed_kmh):
        with pytest.raises(DomainError):
            doppler_backoff_db(speed_kmh, 700e6)

    def test_median_10db_rate(self):
        est = CdfEstimator([10.0] * 100)
        abstraction = LinkAbstraction(0.6, 7.4, -10.0)
        assert mobility_rate(est, 0.0, 700e6, abstraction) == pytest.approx(2.0756, abs=3e-4)


class TestUserExperiencedRate:
    # the ued_rate KPI is pct5_user_se over per-user throughputs in bit/s
    def test_constant_samples(self):
        assert pct5_user_se(CdfEstimator([60e6] * 100)) == 60e6

    def test_boundary_pass_inclusive(self):
        # 5th-percentile spectral efficiency 0.5 bit/s/Hz on 100 MHz
        rate = pct5_user_se(CdfEstimator([0.5 * 100e6] * 100))
        assert rate == pytest.approx(50e6)
        assert rate >= 50e6

    def test_sample_floor(self):
        with pytest.raises(InsufficientSamples):
            pct5_user_se(CdfEstimator([1e8] * 19))


class TestConvergenceMonitor:
    def test_constant_stream_converges_after_window_plus_one(self):
        monitor = ConvergenceMonitor(window=50, tol=1e-4, max_drops=10_000)
        verdicts = [monitor.observe(7.7) for _ in range(51)]
        assert all(v == CONTINUE for v in verdicts[:50])
        assert verdicts[50] == CONVERGED

    def test_oscillating_stream_caps(self):
        monitor = ConvergenceMonitor(window=10, tol=1e-12, max_drops=200)
        verdict = CONTINUE
        # aperiodic oscillation: the running mean keeps drifting slightly
        values = [10.0 + 5.0 * math.sin(i) for i in range(500)]
        seen = 0
        for v in values:
            seen += 1
            verdict = monitor.observe(v)
            if verdict != CONTINUE:
                break
        assert verdict == CAPPED
        assert seen == 200

    def test_iid_standard_error_shrinks_10x(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(5.0, 2.0, 10_000)
        se_100 = xs[:100].std(ddof=1) / math.sqrt(100)
        se_10k = xs.std(ddof=1) / math.sqrt(10_000)
        ratio = se_100 / se_10k
        assert abs(ratio - 10.0) < 3.0  # within 30 percent of the CLT factor
