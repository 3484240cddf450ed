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
from conftest import ZERO_BLER

from imteval.engine import run
from imteval.errors import DomainError, InsufficientSamples, InternalError
from imteval.geometry import hex_sector_area_m2
from imteval.channel.model import SPEED_OF_LIGHT
from imteval.link import SCHEDULING_INTERVAL_S, LinkParams, bler
from imteval.metrics import (
    CdfEstimator,
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


def cdf(samples) -> CdfEstimator:
    """An estimator holding ``samples``, filled by one add."""
    est = CdfEstimator()
    est.add(samples)
    return est


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
        est = cdf(np.arange(1, 101, dtype=float))
        assert est.quantile(0.05) == pytest.approx(5.95)
        assert est.quantile(0.0) == 1.0
        assert est.quantile(1.0) == 100.0

    def test_quantiles_monotone_in_p(self):
        rng = np.random.default_rng(0)
        est = cdf(rng.normal(size=1000))
        qs = [est.quantile(p) for p in np.linspace(0, 1, 101)]
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_uniform_quantile_accuracy(self):
        rng = np.random.default_rng(1)
        est = cdf(rng.uniform(size=1_000_000))
        assert abs(est.quantile(0.05) - 0.05) < 0.002

    @pytest.mark.parametrize("capacity", [0, 600, 1475])  # grown from empty, grown, exact
    def test_chunked_adds_equal_one_pooled_add(self, capacity):
        rng = np.random.default_rng(5)
        chunks = [rng.normal(size=n) for n in (570, 0, 1, 333, 570)] + [2.5]
        chunked, pooled = CdfEstimator(capacity=capacity), CdfEstimator()
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
        est = cdf(rng.normal(size=5000))
        values = est.quantiles(np.arange(0.0, 100.05, 0.1) / 100.0)
        assert len(values) == 1001
        assert (np.diff(values) >= 0.0).all()
        assert values[0] == est.samples.min() and values[-1] == est.samples.max()

    @settings(max_examples=150, deadline=None)
    @given(samples=repeated_samples(), levels=st.lists(st.floats(0.0, 1.0), max_size=30))
    def test_quantiles_are_numpys_linear_quantiles_bit_for_bit(self, samples, levels):
        q = np.array([0.0, 1.0, *levels])
        est = cdf(samples)
        assert est.quantiles(q).tobytes() == np.quantile(samples, q, method="linear").tobytes()
        for p in q.tolist():
            assert np.float64(est.quantile(p)).tobytes() == \
                np.quantile(samples, p, method="linear").tobytes()

    def test_quantile_read_copies_no_buffer(self):
        est = cdf(np.random.default_rng(8).normal(size=1_000_000))
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
            cdf([1.0, 2.0]).quantile(level)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(DomainError, match="2 of 4"):
            cdf([1.0, bad, 2.0, bad])
        est = cdf([1.0, 2.0])
        with pytest.raises(DomainError, match="1 of 3"):
            est.add([3.0, bad, 4.0])
        assert est.quantile(1.0) == 2.0

    def test_cdf_files_equal_the_row_loop_oracle(self, tmp_path):
        cfg = dataclasses.replace(preset(TestEnvironment.URBAN_MACRO_URLLC, "B"), drops=2)
        result = run(cfg, sinr_only=True)
        special = cdf([1e-05, 1e16, -0.0, 5e-324, 1e16, 3.0, -2.5])
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
        assert pct5_user_se(cdf([3.25] * 100)) == 3.25

    def test_interpolation_value(self):
        assert pct5_user_se(cdf(range(1, 101))) == pytest.approx(5.95)

    def test_adding_high_sample_never_decreases(self):
        rng = np.random.default_rng(4)
        samples = list(rng.uniform(0, 1, 200))
        before = pct5_user_se(cdf(samples))
        after = pct5_user_se(cdf(samples + [10.0]))
        assert after >= before - 1e-12

    def test_requires_20_samples(self):
        with pytest.raises(InsufficientSamples):
            pct5_user_se(cdf([1.0] * 19))


class TestConnectionDensityFullBuffer:
    def test_reference_evaluation(self):
        # sector area 72,168.78 m^2; 10 * 180e3 / 1.8e3 = 1000 supported
        density = connection_density_fullbuffer(n_mux=10.0, bandwidth_hz=180e3,
                                                b_values=np.array([1.8e3]),
                                                sector_area_m2=hex_sector_area_m2(500.0))
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
            connection_density_fullbuffer(10.0, 180e3, b_values, hex_sector_area_m2(500.0))

    @pytest.mark.parametrize("n_mux, bandwidth_hz, sector_area_m2", [
        (math.nan, 180e3, 500.0), (10.0, math.nan, 500.0), (10.0, 180e3, math.nan),
        (0.0, 180e3, 500.0), (10.0, -180e3, 500.0), (10.0, 180e3, 0.0),
        (math.inf, 180e3, 500.0), (10.0, 180e3, math.inf)])
    def test_nan_or_out_of_range_input_rejected(self, n_mux, bandwidth_hz, sector_area_m2):
        with pytest.raises(DomainError, match="must be positive and finite"):
            connection_density_fullbuffer(n_mux, bandwidth_hz, np.array([1.8e3]),
                                          sector_area_m2)

    def test_doubling_isd_quarters_density(self):
        b = np.array([1.8e3])
        assert connection_density_fullbuffer(10.0, 180e3, b, hex_sector_area_m2(500.0)) == \
            pytest.approx(4.0 * connection_density_fullbuffer(10.0, 180e3, b,
                                                              hex_sector_area_m2(1000.0)))

    def test_unit_scale_consistency(self):
        hz = connection_density_fullbuffer(10.0, 180e3, np.array([1.8e3, 2.2e3]), 7.2e4)
        khz = connection_density_fullbuffer(10.0, 180.0, np.array([1.8, 2.2]), 7.2e4)
        assert hz == pytest.approx(khz)


class TestDensitySearch:
    def test_all_zero_delays_hit_upper_bound(self):
        result = connection_density_search(lambda d: 0.0, 1e5, 1e8, steps=12)
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
        result = connection_density_search(lambda d: 99.0, 1e5, 1e7, steps=12)
        assert result.density_per_km2 == 0.0

    @pytest.mark.parametrize("lo, hi, steps, field", [
        (4e7, 2e5, 10, "hi_per_km2"), (0.0, 1e7, 10, "lo_per_km2"),
        (1e5, math.nan, 10, "hi_per_km2"), (1e5, math.inf, 10, "hi_per_km2"),
        (1e5, 1e7, -1, "steps"), (1e5, 1e7, 2.5, "steps"), (1e5, 1e7, True, "steps"),
        (True, 1e7, 10, "lo_per_km2"), (1e5, "1e7", 10, "hi_per_km2"),
    ])
    def test_bad_bracket_or_steps_is_a_domain_error_before_any_probe(self, lo, hi, steps,
                                                                      field):
        def no_probe(density):
            raise AssertionError("a density was probed")

        with pytest.raises(DomainError) as err:
            connection_density_search(no_probe, lo, hi, steps=steps)
        assert err.value.field == field

    def test_nan_probe_raises(self):
        with pytest.raises(InternalError, match="NaN"):
            connection_density_search(lambda d: math.nan, 1e5, 1e7, steps=12)
        # a NaN later in the bisection is not read as passing either
        with pytest.raises(InternalError, match="NaN"):
            connection_density_search(lambda d: 1.0 if d <= 1e5 else
                                      (99.0 if d >= 1e7 else math.nan), 1e5, 1e7,
                                      steps=12)


def p99_delay_reference(delays):
    """Oracle for p99_delay: np.quantile's linear rule, and where that gives
    NaN the lower order statistic at weight 0 and inf otherwise."""
    delays = np.array(delays, dtype=float)
    with np.errstate(invalid="ignore"):
        q = float(np.quantile(delays, 0.99, method="linear"))
    if not math.isnan(q):
        return q
    position = (delays.size - 1) * 0.99
    lower = math.floor(position)
    return float(np.sort(delays)[lower]) if position == lower else math.inf


# sample counts whose percentile position is whole: a weight-0 interpolation step
_WHOLE_POSITION = [n for n in range(1, 5001) if ((n - 1) * 0.99).is_integer()]


class TestP99Delay:
    @settings(max_examples=300, deadline=None)
    @given(n=st.one_of(st.integers(1, 5000), st.sampled_from(_WHOLE_POSITION)),
           n_lost=st.integers(0, 60), seed=st.integers(0, 2 ** 32 - 1),
           pool=st.lists(st.one_of(st.sampled_from([0.0, 0.25, 1.0, 7.5]),
                                   st.floats(0.0, 1e4, allow_nan=False)),
                         min_size=1, max_size=6),
           spread=st.booleans())
    def test_equals_numpy_linear_quantile_bit_for_bit(self, n, n_lost, seed, pool, spread):
        """Samples of 1 to 5,000 delays, tied (drawn from a small pool) or
        spread, with up to 60 infinite losses: p99_delay gives the bits of
        np.quantile's linear rule, or its NaN fallback, and reorders its
        argument in place without changing its values."""
        rng = np.random.default_rng(seed)
        delays = rng.exponential(5.0, n) if spread else rng.choice(pool, n)
        delays[rng.permutation(n)[:n_lost]] = math.inf
        want = p99_delay_reference(delays)
        argument = delays.copy()
        got = p99_delay(argument)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert np.array_equal(np.sort(argument), np.sort(delays))

    @pytest.mark.parametrize("n, n_lost, want", [
        (1, 0, 0.0), (1, 1, math.inf),
        (1001, 1, 990.0),  # weight 0, upper neighbour inf
        (101, 2, math.inf),  # weight 0 on an inf order statistic
        (51, 2, math.inf), (5000, 51, math.inf),  # two inf neighbours
        (5000, 50, math.inf),  # positive weight towards inf
    ])
    def test_inf_neighbours(self, n, n_lost, want):
        delays = np.arange(float(n))
        delays[n - n_lost:] = math.inf
        assert p99_delay_reference(delays) == want
        assert p99_delay(delays) == want

    def test_upper_half_weight_interpolates_down_from_the_upper_neighbour(self):
        # weight 0.99: numpy computes b - (b - a) * 0.01, which here rounds
        # differently from a + (b - a) * 0.99 (3.674)
        assert p99_delay([1.1, 3.7]) == 3.6740000000000004

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
        est = cdf(np.linspace(0, 20, 100))
        assert reliability(est, ZERO_BLER) == 1.0

    def test_two_attempt_product(self):
        model = LinkParams(csi_backoff_db=0.0, bler_sinr_50_db=0.0, bler_slope_db=1.0,
                           bler_floor=0.0, harq_max_transmissions=2, harq_tx_time_s=0.5e-3)
        sinr = math.log10(0.5 / 0.01)  # per-attempt BLER 0.01
        est = cdf([sinr] * 100)
        prob = reliability(est, model)
        assert prob == pytest.approx(0.9999, abs=1e-12)

    def test_one_attempt_is_one_minus_bler(self):
        est = cdf([5.0] * 100)
        # craft a per-attempt BLER of 1e-5 in one attempt
        model = LinkParams(csi_backoff_db=0.0, bler_sinr_50_db=5.0 - math.log10(0.5 / 1e-5),
                           bler_slope_db=1.0, bler_floor=0.0, harq_max_transmissions=1,
                           harq_tx_time_s=1e-3)
        assert bler(model, 5.0) == pytest.approx(1e-5, rel=1e-9)
        prob = reliability(est, model)
        assert prob == pytest.approx(0.99999, abs=1e-12)

    def test_evaluation_point_is_5th_percentile(self):
        # degrade only the lowest 5 percent and the result must move
        good = cdf([10.0] * 100)
        bad = cdf([10.0] * 94 + [-4.0] * 6)
        model = LinkParams(bler_sinr_50_db=-5.0, bler_slope_db=2.0, bler_floor=1e-9)
        assert reliability(bad, model) < reliability(good, model)

    def test_csi_backoff_lowers_the_edge_sinr(self):
        model = LinkParams(bler_sinr_50_db=-5.0, bler_slope_db=2.0, bler_floor=0.0)
        backed_off = dataclasses.replace(model, csi_backoff_db=1.0)
        plain = dataclasses.replace(model, csi_backoff_db=0.0)
        assert reliability(cdf([-3.0] * 100), backed_off) == reliability(cdf([-4.0] * 100), plain)


class TestMobility:
    def test_zero_speed_no_backoff(self):
        assert doppler_backoff_db(0.0, 4e9) == 0.0
        est = cdf([10.0] * 100)
        rate = mobility_rate(est, 0.0, 4e9, LinkParams(alpha=0.6, csi_backoff_db=0.0))
        static = 0.6 * math.log2(1.0 + 10.0)
        assert rate == pytest.approx(static, abs=1e-12)
        # the CSI backoff comes off the median too
        backed_off = mobility_rate(cdf([11.0] * 100), 0.0, 4e9, LinkParams(csi_backoff_db=1.0))
        assert backed_off == rate

    def test_backoff_tiers(self):
        # normalized Doppler = speed/3.6 * fc / c * the 1 ms scheduling interval
        assert doppler_backoff_db(0.1, 700e6) == 0.0
        assert doppler_backoff_db(1.0, 700e6) == 0.5
        assert doppler_backoff_db(3.0, 700e6) == 1.5
        assert doppler_backoff_db(120.0, 700e6) == 3.0
        assert doppler_backoff_db(500.0, 700e6) == 3.0  # saturates
        # the speed whose normalized Doppler is the 1e-3 tier bound
        edge_kmh = 1e-3 / SCHEDULING_INTERVAL_S * SPEED_OF_LIGHT / 700e6 * 3.6
        assert doppler_backoff_db(0.99 * edge_kmh, 700e6) == 0.5
        assert doppler_backoff_db(1.01 * edge_kmh, 700e6) == 1.5

    @pytest.mark.parametrize("speed_kmh", [math.nan, -1.0, math.inf])
    def test_nan_or_out_of_range_speed_rejected(self, speed_kmh):
        with pytest.raises(DomainError):
            doppler_backoff_db(speed_kmh, 700e6)

    def test_median_10db_rate(self):
        est = cdf([10.0] * 100)
        link = LinkParams(alpha=0.6, sinr_min_db=-10.0, csi_backoff_db=0.0)
        assert mobility_rate(est, 0.0, 700e6, link) == pytest.approx(2.0756, abs=3e-4)


class TestUserExperiencedRate:
    # the ued_rate KPI is pct5_user_se over per-user throughputs in bit/s
    def test_constant_samples(self):
        assert pct5_user_se(cdf([60e6] * 100)) == 60e6

    def test_boundary_pass_inclusive(self):
        # 5th-percentile spectral efficiency 0.5 bit/s/Hz on 100 MHz
        rate = pct5_user_se(cdf([0.5 * 100e6] * 100))
        assert rate == pytest.approx(50e6)
        assert rate >= 50e6

    def test_sample_floor(self):
        with pytest.raises(InsufficientSamples):
            pct5_user_se(cdf([1e8] * 19))


class TestConvergenceMonitor:
    def test_constant_stream_converges_after_window_plus_one(self):
        monitor = ConvergenceMonitor(window=50, tol=1e-4)
        verdicts = [monitor.observe(7.7) for _ in range(51)]
        assert all(v is False for v in verdicts[:50])
        assert verdicts[50] is True

    def test_iid_standard_error_shrinks_10x(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(5.0, 2.0, 10_000)
        se_100 = xs[:100].std(ddof=1) / math.sqrt(100)
        se_10k = xs.std(ddof=1) / math.sqrt(10_000)
        ratio = se_100 / se_10k
        assert abs(ratio - 10.0) < 3.0  # within 30 percent of the CLT factor
