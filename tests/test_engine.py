"""Drop orchestration: stream derivation, determinism, SINR pipeline,
calibration and parallel-merge identity."""

import dataclasses
import functools
import hashlib
import math
import multiprocessing
import tracemalloc
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_traffic import serve_fifo_reference

from imteval import engine, metrics
from imteval.engine import (
    DropResult,
    DropWork,
    MessageService,
    calibrate_ul_power,
    compute_coupling,
    density_search,
    derive_stream,
    evaluate_p99_delay,
    run,
    run_drop,
)
from imteval.errors import DomainError
from imteval.geometry import NetworkLayout, build_layout, drop_ues
from imteval.link import bler, sinr_to_se
from imteval.scenario import DOWNLINK, UPLINK, TestEnvironment, list_presets, preset
from imteval.traffic import serve_fifo, track_delays

MMTC_A = dataclasses.replace(preset(TestEnvironment.URBAN_MACRO_MMTC, "A"), drops=5)


def small(config, drops=5, **kw):
    return dataclasses.replace(config, drops=drops, **kw)


def kpi(result, metric, direction):
    """The run's one KPI of this metric and direction."""
    found, = [k for k in result.kpis if (k.metric, k.direction) == (metric, direction)]
    return found


def traced_peak(call):
    """``call()`` and its traced peak above the memory traced when it began.
    tracemalloc counts numpy's data buffers on every platform, so the figure
    is the host's own."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - base


class TestDeriveStream:
    def test_same_triple_same_prefix(self):
        a = derive_stream(42, 7, "links").uniform(size=16)
        b = derive_stream(42, 7, "links").uniform(size=16)
        assert np.array_equal(a, b)

    def test_distinct_link_ids_differ(self):
        a = derive_stream(42, 7, "links").uniform(size=64)
        b = derive_stream(42, 7, "ues").uniform(size=64)
        assert not np.array_equal(a, b)
        assert np.all(a != b[np.argsort(b)][np.argsort(np.argsort(a))]) or True
        c = derive_stream(42, 8, "links").uniform(size=64)
        assert not np.array_equal(a, c)

    def test_first_value_collisions_within_birthday_bound(self):
        # 1e4 streams, first draw discretized to 2^32 buckets: expected
        # collisions n^2 / (2 * 2^32) ~ 0.0116, so 3 sigma allows only a few
        n = 10_000
        firsts = np.array([derive_stream(1, i, "collision").integers(2 ** 32)
                           for i in range(n)])
        n_collisions = n - len(np.unique(firsts))
        expect = n * n / (2.0 * 2.0 ** 32)
        assert n_collisions <= expect + 3.0 * math.sqrt(max(expect, 1.0))

    def test_stream_key_is_blake2s_of_the_name(self):
        # the derivation every manifest states as its stream_algorithm
        key = int.from_bytes(hashlib.blake2s(b"links", digest_size=8).digest(), "little")
        want = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(3, key)))
        assert np.array_equal(derive_stream(5, 3, "links").uniform(size=4), want.uniform(size=4))


def _single_trxp_layout():
    return NetworkLayout(
        sector_area_m2=500.0,
        site_positions=np.array([[60.0, 25.0]]),
        site_height=np.array([3.0]),
        site_is_micro=np.array([True]),
        trxp_site=np.array([0]),
        trxp_boresight_deg=np.array([0.0]),
        wrap_translations=np.zeros((1, 2)),
        drop_bbox=((0.0, 0.0), (120.0, 50.0)),
    )


def _coupling(config, layout, drop_index):
    """The coupling run_drop computes for this drop, from the same streams."""
    ues = drop_ues(layout, config, derive_stream(config.master_seed, drop_index, "ues"))
    return compute_coupling(config, layout, ues,
                            derive_stream(config.master_seed, drop_index, "links"))


def _assert_same_drop(a: DropResult, b: DropResult):
    for field in dataclasses.fields(DropResult):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), \
                field.name
        else:
            assert x == y or (x != x and y != y), field.name


class TestDropWork:
    """A drop loop hands one DropWork to every drop: the planes are reused,
    the results are those of fresh planes and never share their memory."""

    def test_reused_work_matches_fresh_work_across_layouts(self):
        envs = (TestEnvironment.URBAN_MACRO_URLLC, TestEnvironment.DENSE_URBAN_EMBB,
                TestEnvironment.INDOOR_HOTSPOT_EMBB)
        configs = [preset(env, "A") for env in envs]
        layouts = [build_layout(config) for config in configs]
        assert [layout.n_trxps for layout in layouts] == [57, 228, 12]
        work = DropWork()
        for step in range(21):
            config, layout = configs[step % 3], layouts[step % 3]
            sinr_only = step % 2 == 1
            reused = run_drop(config, layout, step, sinr_only, work)
            _assert_same_drop(reused, run_drop(config, layout, step, sinr_only))
            planes = list(work._planes.values())
            assert planes
            for field in dataclasses.fields(DropResult):
                value = getattr(reused, field.name)
                if isinstance(value, np.ndarray):
                    assert not any(np.shares_memory(value, p) for p in planes), field.name

    def test_reused_work_keeps_a_drop_small(self):
        """After warm-up, the traced peak of a UMa URLLC SINR-only drop
        through reused work stays under 1.5 MiB; with a fresh (570, 57)
        array for every plane it is 3.4 MiB."""
        config = preset(TestEnvironment.URBAN_MACRO_URLLC, "A")
        layout = build_layout(config)
        work = DropWork()
        for d in range(3):
            run_drop(config, layout, d, sinr_only=True, work=work)
        _, peak = traced_peak(lambda: run_drop(config, layout, 3, sinr_only=True, work=work))
        assert peak <= 1.5 * 2 ** 20


class TestRunDrop:
    def test_bit_identical_repeat(self):
        layout = build_layout(MMTC_A)
        a = run_drop(MMTC_A, layout, 3)
        b = run_drop(MMTC_A, layout, 3)
        assert np.array_equal(a.dl_sinr_db, b.dl_sinr_db)
        assert np.array_equal(a.ul_sinr_db, b.ul_sinr_db)
        assert np.array_equal(a.ul_bits, b.ul_bits)
        assert a.mean_iot_db == b.mean_iot_db

    def test_different_drops_differ(self):
        layout = build_layout(MMTC_A)
        a = run_drop(MMTC_A, layout, 0, sinr_only=True)
        b = run_drop(MMTC_A, layout, 1, sinr_only=True)
        assert not np.array_equal(a.dl_sinr_db, b.dl_sinr_db)

    def test_interference_free_single_site_sinr_equals_snr(self):
        cfg = small(preset(TestEnvironment.INDOOR_HOTSPOT_EMBB, "A"), ues_per_trxp=20)
        layout = _single_trxp_layout()
        drop = run_drop(cfg, layout, 0, sinr_only=True)
        # downlink: no co-channel TRxP exists, interference is empty
        assert np.all(drop.dl_interf_dbm == -math.inf)
        snr_dl = drop.dl_signal_dbm - drop.dl_noise_dbm
        assert np.allclose(drop.dl_sinr_db, snr_dl, atol=1e-12)
        # uplink: no other cell schedules an interferer
        assert np.all(drop.ul_interf_dbm == -math.inf)
        snr_ul = drop.ul_signal_dbm - drop.ul_noise_dbm
        assert np.allclose(drop.ul_sinr_db, snr_ul, atol=1e-12)

    def test_linear_consistency_of_samples(self):
        layout = build_layout(MMTC_A)
        drop = run_drop(MMTC_A, layout, 1, sinr_only=True)
        for signal, interference, noise, sinr in (
                (drop.dl_signal_dbm, drop.dl_interf_dbm, drop.dl_noise_dbm, drop.dl_sinr_db),
                (drop.ul_signal_dbm, drop.ul_interf_dbm, drop.ul_noise_dbm, drop.ul_sinr_db)):
            assert signal.shape == interference.shape == sinr.shape == (570,)
            expected = 10 ** (signal / 10) / (10 ** (interference / 10) + 10 ** (noise / 10))
            assert np.allclose(10 ** (sinr / 10), expected, rtol=1e-9, atol=0.0)

    def test_serving_is_coupling_argmin(self):
        layout = build_layout(MMTC_A)
        drop = run_drop(MMTC_A, layout, 2, sinr_only=True)
        coupling = _coupling(MMTC_A, layout, 2)
        assert coupling.shape == (570, layout.n_trxps)
        assert np.array_equal(drop.serving, np.argmin(coupling, axis=1))


    def test_doubling_ue_ports_adds_3db_to_downlink_signal(self):
        layout = build_layout(MMTC_A)
        ue = MMTC_A.antenna_ue
        doubled = dataclasses.replace(MMTC_A, antenna_ue=dataclasses.replace(ue, p=2 * ue.p))
        assert doubled.antenna_ue.n_ports == 2 * ue.n_ports
        base = run_drop(MMTC_A, layout, 4, sinr_only=True)
        more = run_drop(doubled, layout, 4, sinr_only=True)
        assert np.array_equal(more.serving, base.serving)
        assert np.allclose(more.dl_signal_dbm - base.dl_signal_dbm, 10 * math.log10(2.0),
                           rtol=0.0, atol=1e-9)
        assert np.array_equal(more.dl_interf_dbm, base.dl_interf_dbm)
        assert np.array_equal(more.ul_signal_dbm, base.ul_signal_dbm)

    def test_doubling_bs_ports_adds_3db_to_uplink_signal(self):
        layout = build_layout(MMTC_A)
        bs = MMTC_A.antenna_bs
        doubled = dataclasses.replace(MMTC_A, antenna_bs=dataclasses.replace(bs, p=2 * bs.p))
        assert doubled.antenna_bs.n_ports == 2 * bs.n_ports
        base = run_drop(MMTC_A, layout, 4, sinr_only=True)
        more = run_drop(doubled, layout, 4, sinr_only=True)
        assert np.array_equal(more.serving, base.serving)
        assert np.allclose(more.ul_signal_dbm - base.ul_signal_dbm, 10 * math.log10(2.0),
                           rtol=0.0, atol=1e-9)
        assert np.array_equal(more.ul_interf_dbm, base.ul_interf_dbm)
        assert np.array_equal(more.dl_signal_dbm, base.dl_signal_dbm)

    def test_ue_transmit_power_capped_at_configured_maximum(self):
        layout = build_layout(MMTC_A)
        capped = dataclasses.replace(MMTC_A, ue_tx_power=0.0)
        drop = run_drop(capped, layout, 5, sinr_only=True)
        coupling = _coupling(capped, layout, 5)[np.arange(570), drop.serving]
        mrc_gain_db = 10 * math.log10(capped.antenna_bs.n_ports)
        p_ue = drop.ul_signal_dbm - mrc_gain_db + coupling
        assert np.all(p_ue <= 0.0 + 1e-9)
        assert np.isclose(p_ue, 0.0, atol=1e-9).sum() > 10  # the cap binds


def _uplink_interferers_loop(by_cell, cell_sizes, rng):
    """Oracle for engine._uplink_interferers: one scalar draw per non-empty
    cell, in cell order."""
    cell_start = np.cumsum(cell_sizes) - cell_sizes
    pick = np.full(len(cell_sizes), -1, dtype=int)
    for c in np.flatnonzero(cell_sizes).tolist():
        pick[c] = by_cell[cell_start[c] + int(rng.integers(int(cell_sizes[c])))]
    return pick


class TestUplinkInterferers:
    """The vectorized pick draws the values and leaves the generator state
    of the per-cell loop."""

    def _check(self, by_cell, cell_sizes, seed, drop_index):
        rng = derive_stream(seed, drop_index, "sched")
        ref_rng = derive_stream(seed, drop_index, "sched")
        pick = engine._uplink_interferers(by_cell, cell_sizes, rng)
        assert np.array_equal(pick, _uplink_interferers_loop(by_cell, cell_sizes, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("env", [TestEnvironment.URBAN_MACRO_MMTC,
                                     TestEnvironment.URBAN_MACRO_URLLC,
                                     TestEnvironment.RURAL_EMBB,
                                     TestEnvironment.INDOOR_HOTSPOT_EMBB],
                             ids=lambda env: env.value)
    @pytest.mark.parametrize("seed, drop_index", [(20200101, 0), (7, 3), (13, 11)])
    def test_matches_per_cell_loop_on_preset_drops(self, env, seed, drop_index):
        config = small(preset(env, "A"), master_seed=seed)
        layout = build_layout(config)
        serving = np.argmin(_coupling(config, layout, drop_index), axis=1)
        by_cell = np.argsort(serving, kind="stable")
        self._check(by_cell, np.bincount(serving, minlength=layout.n_trxps), seed, drop_index)

    @settings(max_examples=50, deadline=None)
    @given(sizes=st.lists(st.integers(0, 40), min_size=1, max_size=60),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_cell_loop_with_empty_cells(self, sizes, seed):
        cell_sizes = np.array(sizes, dtype=np.int64)
        by_cell = np.random.default_rng(seed).permutation(int(cell_sizes.sum()))
        self._check(by_cell, cell_sizes, seed, 0)


def calibrate_ul_power_reference(config, layout, probes=3, max_iterations=8):
    """Oracle for calibrate_ul_power: the loop that ran one whole SINR-only
    run_drop per probe and read its mean_iot_db."""
    target = config.link.ul_iot_target_db
    cfg, achieved, warnings = config, math.inf, []
    for iteration in range(max_iterations):
        drops = [engine._CALIBRATION_DROP_BASE + iteration * probes + p for p in range(probes)]
        achieved = float(np.mean([run_drop(cfg, layout, d, sinr_only=True).mean_iot_db
                                  for d in drops]))
        if achieved <= target:
            break
        new_p0 = cfg.link.ul_p0_dbm - (achieved - target) - 0.5
        cfg = dataclasses.replace(cfg, link=dataclasses.replace(cfg.link, ul_p0_dbm=new_p0))
    else:
        warnings.append(
            f"CalibrationWarning: mean uplink IoT {achieved:.2f} dB still above "
            f"{target:.1f} dB after {max_iterations} iterations")
    return cfg, achieved, warnings


@functools.lru_cache(maxsize=None)
def _preset_layout(env, variant):
    return build_layout(preset(env, variant))


class TestCalibration:
    @pytest.mark.parametrize("env, variant", [(env, v) for env, v, _ in list_presets()])
    def test_iot_only_probes_match_run_drop_probes(self, env, variant):
        """Probes that stop at the uplink IoT give the config and the IoT of
        whole drops, bit for bit, on every preset."""
        config, layout = preset(env, variant), _preset_layout(env, variant)
        got = calibrate_ul_power(config, layout)
        assert got == calibrate_ul_power_reference(config, layout)

    def test_iot_only_probes_match_when_the_target_is_missed(self):
        cfg = dataclasses.replace(
            MMTC_A, link=dataclasses.replace(MMTC_A.link, ul_iot_target_db=-60.0))
        layout = _preset_layout(TestEnvironment.URBAN_MACRO_MMTC, "A")
        got = calibrate_ul_power(cfg, layout, probes=2, max_iterations=2)
        assert got == calibrate_ul_power_reference(cfg, layout, probes=2, max_iterations=2)
        assert len(got[2]) == 1

    @pytest.mark.parametrize("env", [TestEnvironment.URBAN_MACRO_URLLC,
                                     TestEnvironment.DENSE_URBAN_EMBB,
                                     TestEnvironment.INDOOR_HOTSPOT_EMBB])
    def test_uplink_stage_iot_is_the_drops_iot(self, env):
        config, layout = preset(env, "A"), _preset_layout(env, "A")
        work = DropWork()
        for d in (0, 1, 2, 7):
            _, coupling, serving = engine._link_stage(config, layout, d, work)
            iot = engine._uplink_stage(config, coupling, serving, d)[-1]
            full = run_drop(config, layout, d, sinr_only=d % 2 == 0)
            assert iot == full.mean_iot_db
            assert np.array_equal(serving, full.serving)

    @pytest.mark.parametrize("kwargs, field", [
        ({"probes": 0}, "probes"), ({"probes": -1}, "probes"),
        ({"max_iterations": 0}, "max_iterations"),
    ])
    def test_no_probe_or_no_iteration_is_a_domain_error(self, kwargs, field):
        """probes=0 used to return a NaN P0 and max_iterations=0 the
        uncalibrated config with an infinite IoT."""
        layout = _preset_layout(TestEnvironment.URBAN_MACRO_MMTC, "A")
        with pytest.raises(DomainError, match=field) as err:
            calibrate_ul_power(MMTC_A, layout, **kwargs)
        assert err.value.field == field

    def test_iot_meets_target(self):
        layout = build_layout(MMTC_A)
        cal, achieved, warnings = calibrate_ul_power(MMTC_A, layout)
        assert achieved <= MMTC_A.link.ul_iot_target_db
        assert warnings == []
        assert cal.link.ul_p0_dbm <= MMTC_A.link.ul_p0_dbm

    def test_target_already_met_keeps_p0(self):
        cfg = dataclasses.replace(
            MMTC_A, link=dataclasses.replace(MMTC_A.link, ul_iot_target_db=60.0))
        cal, achieved, warnings = calibrate_ul_power(cfg, build_layout(cfg), probes=1)
        assert achieved <= 60.0 and warnings == []
        assert cal.link.ul_p0_dbm == cfg.link.ul_p0_dbm

    def test_impossible_target_warns(self):
        cfg = dataclasses.replace(
            MMTC_A, link=dataclasses.replace(MMTC_A.link, ul_iot_target_db=-60.0))
        layout = build_layout(cfg)
        _, achieved, warnings = calibrate_ul_power(cfg, layout, probes=1, max_iterations=2)
        assert len(warnings) == 1
        assert "CalibrationWarning" in warnings[0]


class TestRun:
    def test_single_drop_equals_its_statistics(self):
        cfg = small(MMTC_A, drops=1)
        result = run(cfg, calibrate=False)
        layout = build_layout(cfg)
        drop = run_drop(cfg, layout, 0)
        assert result.drops_executed == 1
        assert np.array_equal(np.sort(result.cdfs["ul_sinr_db"].samples),
                              np.sort(drop.ul_sinr_db))
        assert result.per_drop_mean_ul_sinr[0] == pytest.approx(float(drop.ul_sinr_db.mean()))

    def test_worker_count_does_not_change_results(self):
        cfg = small(MMTC_A, drops=6)
        serial = run(cfg)
        parallel = run(cfg, workers=3)
        assert serial.config == parallel.config
        assert np.array_equal(serial.per_drop_mean_ul_sinr, parallel.per_drop_mean_ul_sinr)
        assert np.array_equal(serial.cdfs["ul_sinr_db"].samples,
                              parallel.cdfs["ul_sinr_db"].samples)
        assert [(k.metric, k.direction, k.value) for k in serial.kpis] == \
               [(k.metric, k.direction, k.value) for k in parallel.kpis]

    @pytest.mark.parametrize("workers, n_drops, processes", [
        (50, 2, [2]),  # one process per drop, not per requested worker
        (2, 3, [2]),
        (4, 1, []),  # one drop runs in this process
    ])
    def test_pool_has_at_most_one_process_per_drop(self, monkeypatch, workers, n_drops,
                                                   processes):
        sizes = []

        class SerialPool:
            """Records the pool size and maps in this process."""

            def __init__(self, processes, initializer, initargs):
                sizes.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, iterable, chunksize=1):
                return map(func, iterable)

        monkeypatch.setattr(engine.multiprocessing, "Pool", SerialPool)
        monkeypatch.setattr(engine, "_WORKER_STATE", {})
        cfg = small(MMTC_A, drops=n_drops)
        layout = build_layout(cfg)
        indices = range(n_drops)
        drops = list(engine._drops(cfg, layout, indices, sinr_only=True, workers=workers))
        assert sizes == processes
        assert len(drops) == n_drops
        for d, drop in zip(indices, drops):
            _assert_same_drop(drop, run_drop(cfg, layout, d, sinr_only=True))

    @pytest.mark.parametrize("workers, sinr_only, early_stop", [
        (1, False, False), (2, True, False), (1, True, True), (2, False, True)])
    def test_drop0_is_the_runs_drop_0(self, workers, sinr_only, early_stop):
        """``RunResult.drop0`` is drop 0 as the run computed it, field for
        field, on the calibrated config and whichever process ran it."""
        kw = dict(convergence_window=5, convergence_tol=0.05) if early_stop else {}
        result = run(small(MMTC_A, drops=40 if early_stop else 3), workers=workers,
                     sinr_only=sinr_only, early_stop=early_stop, **kw)
        assert result.convergence_status == ("converged" if early_stop else "capped")
        assert result.config.link.ul_p0_dbm != MMTC_A.link.ul_p0_dbm
        _assert_same_drop(result.drop0, run_drop(result.config, result.layout, 0, sinr_only))
        assert (result.drop0.ul_bits is None) == sinr_only

    def test_default_drop_count_is_10000(self):
        assert preset(TestEnvironment.URBAN_MACRO_MMTC, "A").drops == 10_000

    def test_mmtc_reports_connection_density(self):
        result = run(small(MMTC_A, drops=3))
        assert kpi(result, "connection_density", UPLINK).value > 0
        assert result.mean_iot_db <= MMTC_A.link.ul_iot_target_db + 1.0

    def test_mmtc_connection_density_value_is_pinned(self):
        # the UrbanMacro_mMTC full_buffer golden cases digest this KPI in
        # kpi.json, rounded to 12 digits; here its value at seed 7 is pinned
        # float for float
        result = run(small(MMTC_A, drops=2, master_seed=7))
        assert kpi(result, "connection_density", UPLINK).value == 21099370.180030078

    def test_urllc_reports_reliability_in_sinr_only_mode(self):
        cfg = small(preset(TestEnvironment.URBAN_MACRO_URLLC, "B"), drops=3)
        result = run(cfg, sinr_only=True)
        assert 0.0 <= kpi(result, "reliability", DOWNLINK).value <= 1.0
        assert 0.0 <= kpi(result, "reliability", UPLINK).value <= 1.0

    def test_embb_kpi_set(self):
        cfg = small(preset(TestEnvironment.RURAL_EMBB, "A"), drops=3)
        result = run(cfg)
        metrics = {(k.metric, k.direction, k.speed_kmh) for k in result.kpis}
        assert ("avg_se", DOWNLINK, None) in metrics
        assert ("pct5_se", UPLINK, None) in metrics
        assert ("mobility_rate", UPLINK, 120.0) in metrics
        assert ("mobility_rate", UPLINK, 500.0) in metrics

    def test_early_stop_truncates_only(self):
        cfg = small(MMTC_A, drops=40)
        full = run(cfg, sinr_only=True)
        stopped = run(cfg, sinr_only=True, early_stop=True,
                      convergence_window=5, convergence_tol=0.05)
        n = stopped.drops_executed
        assert n <= full.drops_executed
        # early stop never changes already-computed drop results
        assert np.array_equal(stopped.per_drop_mean_ul_sinr, full.per_drop_mean_ul_sinr[:n])

    @pytest.mark.parametrize("env", [TestEnvironment.URBAN_MACRO_MMTC,
                                     TestEnvironment.RURAL_EMBB])
    def test_per_drop_figures_outgrow_their_first_room(self, env):
        """An early-stopped run reserves per-drop room for window + 1 drops
        and doubles it when it runs past them; its KPIs (multiplexing order
        and bits per drop included), mean IoT and per-drop means equal those
        of a run capped at the drop where it stopped."""
        cfg = small(preset(env, "A"), drops=40)
        stopped = run(cfg, early_stop=True, convergence_window=3, convergence_tol=0.02,
                      calibrate=False)
        n = stopped.drops_executed
        assert 4 < n < 40
        capped = run(small(cfg, drops=n), calibrate=False)
        assert stopped.kpis == capped.kpis
        assert stopped.mean_iot_db == capped.mean_iot_db
        assert np.array_equal(stopped.per_drop_mean_ul_sinr, capped.per_drop_mean_ul_sinr)

    def test_early_stop_reserves_no_room_for_the_drop_cap(self):
        """Room for 10 million drops would be 45.6 GB per CDF; an early-stopped
        run reserves room for the drops before its first convergence test
        and stops where a 40-drop cap stops it."""
        kw = dict(sinr_only=True, early_stop=True, convergence_window=5, convergence_tol=0.05)
        capped = run(small(MMTC_A, drops=40), **kw)
        stopped, peak = traced_peak(lambda: run(small(MMTC_A, drops=10_000_000), **kw))
        n = stopped.drops_executed
        assert stopped.convergence_status == "converged"
        assert n == capped.drops_executed < 40
        n_ue = MMTC_A.ues_per_trxp * stopped.layout.n_trxps
        assert {name: cdf.count for name, cdf in stopped.cdfs.items()} == \
            {"dl_sinr_db": n * n_ue, "ul_sinr_db": n * n_ue}
        assert peak <= 4 * 2 ** 20

    def test_samples_are_held_once(self):
        """Doubling a URLLC A SINR-only run from 400 to 800 drops raises its
        traced peak by at most 1.1x the added samples (2 CDFs x 57 UEs x 8 B
        per drop); it reads about 1.03x in the suite. Per-drop figures held
        in Python lists, and a fields() tuple made per drop, put it at
        1.15x; chunks kept aside and joined onto a fresh buffer at the first
        read at 1.7x, as one CDF's chunks and its joined copy are alive at
        once. One UE per TRxP lets that join outweigh the drop's own planes,
        which set the peak of a 50-drop run of the preset whatever the
        samples' storage."""
        cfg = small(preset(TestEnvironment.URBAN_MACRO_URLLC, "A"), ues_per_trxp=1)
        run(small(cfg, 2), sinr_only=True, calibrate=False)  # one-off allocations
        runs = {drops: traced_peak(lambda: run(small(cfg, drops), sinr_only=True,
                                                calibrate=False))
                for drops in (400, 800)}
        added = sum(cdf.samples.nbytes for cdf in runs[800][0].cdfs.values()) - \
            sum(cdf.samples.nbytes for cdf in runs[400][0].cdfs.values())
        assert added == 2 * 400 * 57 * 8
        assert runs[800][1] - runs[400][1] <= 1.1 * added

    def test_early_stop_with_a_pool_equals_serial(self):
        cfg = small(MMTC_A, drops=40)
        kw = dict(early_stop=True, convergence_window=5, convergence_tol=0.05)
        serial = run(cfg, **kw)
        pooled = run(cfg, workers=2, **kw)
        # the pool is shut down as soon as the loop stops, not left running
        assert multiprocessing.active_children() == []
        assert serial.convergence_status == pooled.convergence_status == "converged"
        assert serial.drops_executed == pooled.drops_executed < cfg.drops
        assert np.array_equal(serial.per_drop_mean_ul_sinr, pooled.per_drop_mean_ul_sinr)
        assert serial.kpis == pooled.kpis
        assert kpi(serial, "connection_density", UPLINK).value > 0
        assert serial.cdfs.keys() == pooled.cdfs.keys() == {
            f"{prefix}_{name}" for prefix in ("dl", "ul")
            for name in ("sinr_db", "user_se", "user_tput_bps")}
        for name, cdf in serial.cdfs.items():
            assert np.array_equal(cdf.samples, pooled.cdfs[name].samples), name

    @pytest.mark.parametrize("early_stop", [False, True])
    def test_run_to_the_last_drop_is_capped(self, early_stop):
        cfg = small(MMTC_A, drops=3)
        result = run(cfg, sinr_only=True, early_stop=early_stop, calibrate=False)
        assert result.drops_executed == 3
        assert result.convergence_status == "capped"

    def test_cap_wins_over_convergence_on_the_last_drop(self):
        """``run`` owns the drop cap: a run whose first convergence falls on
        its last drop reports "capped", as it did when the monitor held the
        cap and tested it first."""
        kw = dict(sinr_only=True, early_stop=True, convergence_window=5, convergence_tol=0.05,
                  calibrate=False)
        stopped = run(small(MMTC_A, drops=40), **kw)
        n = stopped.drops_executed
        assert stopped.convergence_status == "converged" and n < 40
        capped = run(small(MMTC_A, drops=n), **kw)
        assert capped.convergence_status == "capped"
        assert capped.drops_executed == n
        assert np.array_equal(capped.per_drop_mean_ul_sinr, stopped.per_drop_mean_ul_sinr)

    def test_mmtc_b_values_are_those_of_the_served_ues(self):
        cfg = small(MMTC_A, drops=1)
        drop = run_drop(cfg, build_layout(cfg), 0)
        served = drop.ul_bits[drop.ul_bits > 0]
        assert 0 < len(served) < len(drop.ul_bits)
        assert not np.isnan(drop.b_values_ul).any()
        assert np.array_equal(drop.b_values_ul,
                              metrics.b_value(cfg.duration_t, served, cfg.traffic.w_user_hz))

    @pytest.mark.parametrize("env", [TestEnvironment.URBAN_MACRO_MMTC,
                                     TestEnvironment.URBAN_MACRO_URLLC,
                                     TestEnvironment.RURAL_EMBB])
    def test_downlink_bits_only_where_the_downlink_is_scheduled(self, env):
        # full buffer schedules the downlink in the eMBB environments only
        cfg = small(preset(env, "A"), drops=1)
        drop = run_drop(cfg, build_layout(cfg), 0)
        if env is TestEnvironment.RURAL_EMBB:
            assert drop.dl_bits.shape == drop.ul_bits.shape and drop.dl_bits.sum() > 0
        else:
            assert drop.dl_bits is None
        assert drop.ul_bits.sum() > 0


def evaluate_p99_delay_reference(config, layout, density_per_km2, n_drops=3,
                                 horizon_s=20.0, record_sink=None):
    """Oracle for evaluate_p99_delay: runs every drop again, then serves
    each cell's messages through its own heap queue as they are drawn."""
    spec = config.traffic
    area_km2 = layout.sector_area_m2 / 1e6
    rate_per_cell = density_per_km2 * area_km2 * spec.rate_per_s
    n_servers = max(1, int(spec.eval_bandwidth_hz // spec.w_user_hz))
    pdu_bits = spec.pdu_size_bytes * 8
    lk = config.link
    max_attempts = engine._MAX_MESSAGE_ATTEMPTS
    delays = []
    for d in range(n_drops):
        rng = derive_stream(config.master_seed, d, "density")
        probe = run_drop(config, layout, d, sinr_only=True)
        sinr = probe.ul_sinr_db - lk.csi_backoff_db
        se = np.asarray(sinr_to_se(lk, UPLINK, sinr))
        tx_time = pdu_bits / np.maximum(se, engine._SE_CHANNEL_FLOOR) / spec.w_user_hz
        p_success = np.clip(1.0 - np.asarray(bler(lk, sinr)), 1e-9, 1.0)
        for c in range(layout.n_trxps):
            n_msgs = rng.poisson(rate_per_cell * horizon_s)
            if n_msgs == 0:
                continue
            arrival = np.sort(rng.uniform(0.0, horizon_s, size=n_msgs))
            members = np.flatnonzero(probe.serving == c)
            if len(members) == 0:
                continue
            chosen = members[rng.integers(len(members), size=n_msgs)]
            first_success = rng.geometric(p_success[chosen])
            delivered = (se[chosen] > 0.0) & (first_success <= max_attempts)
            n_tx = np.minimum(first_success, max_attempts)
            busy = spec.overhead_s + n_tx * tx_time[chosen]
            log = serve_fifo_reference(list(zip(arrival.tolist(), range(n_msgs))),
                                       busy.tolist(), n_servers)
            start = np.array([row[2] for row in log])
            done = start + busy
            delays.append(np.where(delivered, track_delays(arrival, start, done), np.inf))
            if record_sink is not None:
                record_sink.extend(zip(repeat(d), repeat(c), arrival.tolist(), start.tolist(),
                                       done.tolist(), n_tx.tolist(), delivered.tolist()))
    if not delays:
        return 0.0
    return metrics.p99_delay(np.concatenate(delays))


def draw_messages_reference(service, mean_messages, horizon_s):
    """Oracle for engine._draw_messages: each cell's arrival times drawn
    with ``uniform`` into their own array, then copied into the table row."""
    n_t = len(service.cells[0])
    shape = (len(service.cells) * n_t, engine._queue_capacity(mean_messages))
    arrival = np.zeros(shape)
    codes = np.zeros(shape, np.min_scalar_type(2 * service.lost))
    lengths = np.zeros(shape[0], dtype=np.intp)
    for d, cells in enumerate(service.cells):
        rng = derive_stream(service.config.master_seed, d, "density")
        for c, cell in enumerate(cells):
            n_msgs = rng.poisson(mean_messages)
            if n_msgs == 0:
                continue
            times = rng.uniform(0.0, horizon_s, size=n_msgs)
            if cell is None:  # drawn, but no UE of the cell sends them
                continue
            cell_codes, p_success, sums, floor = cell
            pick = rng.integers(len(p_success), size=n_msgs)
            again, retries = engine._draw_retries(rng, pick, p_success, sums, floor)
            if n_msgs > arrival.shape[1]:
                arrival, codes = (
                    np.concatenate([a, np.zeros((len(a), n_msgs - a.shape[1]), a.dtype)], axis=1)
                    for a in (arrival, codes))
            q = d * n_t + c
            lengths[q] = n_msgs
            arrival[q, :n_msgs] = times
            arrival[q, :n_msgs].sort()
            row = codes[q, :n_msgs]
            np.take(cell_codes[0], pick, out=row, mode="clip")
            row[again] = cell_codes[retries, pick[again]]
    return arrival, codes, lengths


def _assert_draws_match_reference(service, density_per_km2, horizon_s):
    """``engine._draw_messages`` fills the tables of
    ``draw_messages_reference`` byte for byte, shapes and dtypes included."""
    spec = service.config.traffic
    mean = density_per_km2 * (service.sector_area_m2 / 1e6) * spec.rate_per_s * horizon_s
    got = engine._draw_messages(service, mean, horizon_s)
    for a, b in zip(got, draw_messages_reference(service, mean, horizon_s), strict=True):
        assert (a.shape, a.dtype) == (b.shape, b.dtype)
        assert a.tobytes() == b.tobytes()


def _search_sums(p):
    """The running sums of numpy's geometric search (distributions.c,
    ``random_geometric_search``) for each p, as (len(p), 8): ``sum = prod =
    p; q = 1.0 - p``, then ``prod *= q; sum += prod`` per column."""
    total, prod, q = p.copy(), p.copy(), 1.0 - p
    columns = [total]
    for _ in range(engine._MAX_MESSAGE_ATTEMPTS - 1):
        prod = prod * q
        total = total + prod
        columns.append(total)
    return np.stack(columns, axis=1)


def _boundary_p(u, k):
    """Per message, the smallest double p in [1/3, 1] whose k-th running sum
    reaches its uniform u (1/3 when that one does): U then sits at or just
    below sum_k, and above sum_k of the next smaller p."""
    lo = np.full(len(u), np.float64(engine._GEOMETRIC_SEARCH_MIN_P)).view(np.int64)
    hi = np.full(len(u), 1.0).view(np.int64)
    rows = np.arange(len(u))
    for _ in range(64):  # positive doubles order like their bit patterns
        mid = lo + (hi - lo) // 2
        reaches = _search_sums(mid.view(np.float64))[rows, k - 1] >= u
        hi = np.where(reaches, mid, hi)
        lo = np.where(reaches, lo, mid)
    low_reaches = _search_sums(lo.view(np.float64))[rows, k - 1] >= u
    return np.where(low_reaches, lo, hi).view(np.float64)


class _CallLog:
    """A Generator stand-in that logs the name of each sampler called."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


class TestGeometricSearch:
    """``_draw_retries`` draws numpy's own geometric values, from
    ``rng.random`` where every p is at least 1/3: bit for bit, stream state
    included."""

    @staticmethod
    def _retries(seed, p):
        """Retries per message, one message per p, and the samplers called."""
        rng = _CallLog(np.random.default_rng(seed))
        again, retries = engine._draw_retries(rng, np.arange(len(p)), p, engine._success_sums(p),
                                              engine._search_floor(p))
        out = np.zeros(len(p), dtype=np.intp)
        out[again] = retries
        return out, rng

    @staticmethod
    def _geometric_retries(seed, p):
        rng = np.random.default_rng(seed)
        return np.minimum(rng.geometric(p), engine._MAX_MESSAGE_ATTEMPTS + 1) - 1, rng

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1),
           messages=st.lists(st.tuples(st.floats(engine._GEOMETRIC_SEARCH_MIN_P, 1.0),
                                       st.integers(0, engine._MAX_MESSAGE_ATTEMPTS)),
                             max_size=300))
    # the stream's first five uniforms are all at most 1/3, the floor: no
    # message can need a retry
    @example(seed=156, messages=[(0.5, 0), (0.9, 0), (1.0, 0)])
    def test_uniform_search_is_numpys_geometric(self, seed, messages):
        """p in [1/3, 1], with 1.0 and the boundary double always present. A
        message with k > 0 takes the p whose k-th running sum sits at its own
        uniform, so U == sum_1 exactly and U next to sum_2 .. sum_8 are
        drawn: comparing with >=, or sums not summed as numpy sums them,
        miscounts there."""
        p = np.array([p for p, _ in messages] + [1.0, engine._GEOMETRIC_SEARCH_MIN_P])
        k = np.array([k for _, k in messages] + [0, 0], dtype=np.intp)
        u = np.random.default_rng(seed).random(len(p))  # what both samplers draw
        tie = np.flatnonzero(k)
        p[tie] = _boundary_p(u[tie], k[tie])
        retries, rng = self._retries(seed, p)
        expected, expected_rng = self._geometric_retries(seed, p)
        assert rng.calls == ["random"]
        assert np.array_equal(retries, expected)
        assert rng.rng.bit_generator.state == expected_rng.bit_generator.state

    def test_below_one_third_numpy_inverts_instead(self):
        """One double below the switch numpy draws an exponential and
        inverts, so a search of the same stream's uniforms gives other
        values, and the engine calls ``geometric`` there. Should numpy move
        its switch, this or the property above fails."""
        p = np.full(2_000, 0.3333333333333332)
        p[::7] = np.random.default_rng(3).uniform(1e-9, 1.0, len(p[::7]))
        retries, rng = self._retries(5, p)
        expected, expected_rng = self._geometric_retries(5, p)
        assert rng.calls == ["geometric"]
        assert np.array_equal(retries, expected)
        assert rng.rng.bit_generator.state == expected_rng.bit_generator.state
        u = np.random.default_rng(5).random(len(p))
        searched = (u[:, None] > _search_sums(p)).sum(axis=1)
        assert not np.array_equal(searched, expected)


@pytest.fixture(scope="module")
def mmtc_calibrated():
    cfg = small(MMTC_A, drops=2)
    layout = build_layout(cfg)
    return calibrate_ul_power(cfg, layout)[0], layout


class TestDensityRoute:
    @pytest.mark.parametrize("seed, density, n_drops, calibrated", [
        (20200101, 2e5, 1, True),
        (7, 4e6, 2, True),
        (11, 3e7, 1, True),
        (3, 1e6, 2, False),
        (5, 1e3, 2, True),  # most cells draw no message
    ])
    def test_matches_per_cell_heap_reference(self, mmtc_calibrated, seed, density, n_drops,
                                             calibrated):
        cal, layout = mmtc_calibrated
        cfg = dataclasses.replace(cal if calibrated else small(MMTC_A, drops=2),
                                  master_seed=seed)
        service = MessageService(cfg, layout, n_drops)
        rows, ref_rows = [], []
        delay = evaluate_p99_delay(service, density, horizon_s=10.0, record_sink=rows)
        expected = evaluate_p99_delay_reference(cfg, layout, density, n_drops=n_drops,
                                                horizon_s=10.0, record_sink=ref_rows)
        assert delay == expected
        assert rows == ref_rows
        assert evaluate_p99_delay(service, density, horizon_s=10.0) == delay

    def test_drops_on_both_sides_of_one_third_match_reference(self, mmtc_calibrated):
        """With a 6 dB CSI backoff drop 0 has UEs below p = 1/3, so their
        cells call ``geometric``, and drop 1 has none, so its cells search
        uniforms: one probe runs both branches, and equals the reference."""
        cal, layout = mmtc_calibrated
        cfg = dataclasses.replace(cal, link=dataclasses.replace(cal.link, csi_backoff_db=6.0))
        cells_below = []
        for d in range(2):
            probe = run_drop(cfg, layout, d, sinr_only=True)
            sinr = probe.ul_sinr_db - cfg.link.csi_backoff_db
            p = np.clip(1.0 - np.asarray(bler(cfg.link, sinr)), 1e-9, 1.0)
            cells_below.append(len(np.unique(probe.serving[p < 1 / 3])))
        assert 0 < cells_below[0] < layout.n_trxps and cells_below[1] == 0
        service = MessageService(cfg, layout, 2)
        assert [sum(cell is not None and cell[3] is None for cell in cells)
                for cells in service.cells] == cells_below
        _assert_draws_match_reference(service, 1e6, 10.0)
        rows, ref_rows = [], []
        delay = evaluate_p99_delay(service, 1e6, horizon_s=10.0, record_sink=rows)
        expected = evaluate_p99_delay_reference(cfg, layout, 1e6, n_drops=2, horizon_s=10.0,
                                                record_sink=ref_rows)
        assert delay == expected and rows == ref_rows
        assert {r[0] for r in rows if r[5] > 1} == {0, 1}

    def test_queues_longer_than_first_capacity_grow(self, mmtc_calibrated, monkeypatch):
        cal, layout = mmtc_calibrated
        monkeypatch.setattr(engine, "_queue_capacity", lambda mean: 2)
        service = MessageService(cal, layout, 2)
        _assert_draws_match_reference(service, 2e6, 10.0)
        rows, ref_rows = [], []
        delay = evaluate_p99_delay(service, 2e6, horizon_s=10.0, record_sink=rows)
        expected = evaluate_p99_delay_reference(cal, layout, 2e6, n_drops=2, horizon_s=10.0,
                                                record_sink=ref_rows)
        assert max(sum(1 for r in rows if r[:2] == key) for key in {r[:2] for r in rows}) > 2
        assert delay == expected and rows == ref_rows

    def test_cells_without_ues_match_reference(self):
        """With one UE per TRxP some cells serve nobody: their messages are
        drawn (so later cells see the same draws) but never queued."""
        cfg = small(MMTC_A, drops=2, ues_per_trxp=1, master_seed=19)
        layout = build_layout(cfg)
        empty = [np.bincount(run_drop(cfg, layout, d, sinr_only=True).serving,
                             minlength=layout.n_trxps) == 0 for d in range(2)]
        assert any(e.any() for e in empty)
        service = MessageService(cfg, layout, 2)
        assert [[cell is None for cell in cells] for cells in service.cells] == \
            [e.tolist() for e in empty]
        _assert_draws_match_reference(service, 1e6, 10.0)
        rows, ref_rows = [], []
        delay = evaluate_p99_delay(service, 1e6, horizon_s=10.0, record_sink=rows)
        expected = evaluate_p99_delay_reference(cfg, layout, 1e6, n_drops=2, horizon_s=10.0,
                                                record_sink=ref_rows)
        assert delay == expected and rows == ref_rows
        served = {r[:2] for r in rows}
        assert all((d, c) not in served for d, e in enumerate(empty)
                   for c in np.flatnonzero(e).tolist())

    def test_search_runs_each_drop_once(self, monkeypatch):
        """The route reads each UE's serving TRxP and uplink SINR only, so
        the search's MessageService runs each drop's link and uplink stages
        once and never ``run_drop``: no downlink plane, no dBm vectors, no
        ``DropResult``. Its delays are still those of the reference, which
        takes them from ``run_drop``."""
        cfg = small(MMTC_A, drops=2)
        link_stage = engine._link_stage
        drop_indices = []

        def counting_link_stage(config, layout, drop_index, work):
            drop_indices.append(drop_index)
            return link_stage(config, layout, drop_index, work)

        def no_drop(*args, **kwargs):
            raise AssertionError("run_drop ran")

        monkeypatch.setattr(engine, "_link_stage", counting_link_stage)
        monkeypatch.setattr(engine, "run_drop", no_drop)
        search, cal = density_search(cfg, steps=3, n_drops=2)
        monkeypatch.undo()
        assert [d for d in drop_indices if d < engine._CALIBRATION_DROP_BASE] == [0, 1]
        layout = build_layout(cfg)
        reference = metrics.connection_density_search(
            lambda density: evaluate_p99_delay_reference(cal, layout, density, n_drops=2),
            2e5, 4e7, steps=3)
        assert search.evaluations == reference.evaluations

    def test_more_codes_than_uint16_holds_match_reference(self, monkeypatch):
        """8 drops of 570 UEs have 16 x 4,560 = 72,960 service codes: the
        code table widens past uint16, and an uncalibrated config loses
        enough messages that codes above 65,535 are served. Delays and
        packet rows still match the heap reference bit for bit."""
        cfg = small(MMTC_A, drops=8)
        layout = build_layout(cfg)
        served = []

        def spy(arrival, codes, table, *args, **kwargs):
            served.append((codes.dtype, int(codes.max()), len(table)))
            return serve_fifo(arrival, codes, table, *args, **kwargs)

        monkeypatch.setattr(engine, "serve_fifo", spy)
        service = MessageService(cfg, layout, 8)
        _assert_draws_match_reference(service, 1e6, 10.0)
        rows, ref_rows = [], []
        delay = evaluate_p99_delay(service, 1e6, horizon_s=10.0, record_sink=rows)
        (dtype, top, n_codes), = served
        assert n_codes == 1 + 16 * 8 * 570 and dtype == np.uint32
        assert top > np.iinfo(np.uint16).max
        assert delay == evaluate_p99_delay_reference(cfg, layout, 1e6, n_drops=8, horizon_s=10.0,
                                                     record_sink=ref_rows)
        assert rows == ref_rows

    def test_dense_probe_holds_one_copy_of_its_messages(self, mmtc_calibrated):
        """At 4e7 /km^2 (one drop, about 457k messages) the traced peak of a
        probe stays within 1.15x its padded arrival-time and uint16 service
        code tables (10 B per slot): each cell's messages are drawn into
        them, the delays are served over the arrival times and scored and
        ranked there, and the last cell's per-message arrays are released
        before serving (about 1.12x, the rest being one block's contiguous
        arrival-time copy, its service and start times and the delay
        check's temporaries; without the copy, 1.10x). Float service times
        and a delivered flag per slot (17 B) put it at 1.80x."""
        cal, layout = mmtc_calibrated
        service = MessageService(cal, layout, 1)
        spec = cal.traffic
        mean = 4e7 * (layout.sector_area_m2 / 1e6) * spec.rate_per_s * 20.0
        table_bytes = 10 * layout.n_trxps * engine._queue_capacity(mean)
        _, peak = traced_peak(lambda: evaluate_p99_delay(service, 4e7))
        assert peak <= 1.15 * table_bytes

    def test_p99_delay_increases_with_density(self):
        cfg = small(MMTC_A, drops=2)
        layout = build_layout(cfg)
        cal, _, _ = calibrate_ul_power(cfg, layout)
        service = MessageService(cal, layout, 1)
        low = evaluate_p99_delay(service, 2e5, horizon_s=10.0)
        high = evaluate_p99_delay(service, 3e7, horizon_s=10.0)
        assert low < high

    def test_search_returns_bracketed_result(self):
        cfg = small(MMTC_A, drops=2)
        search, cal_config = density_search(cfg, steps=4, n_drops=1)
        assert search.density_per_km2 > 0
        assert search.bracket[0] <= search.density_per_km2 <= search.bracket[1]
        assert cal_config.link.ul_p0_dbm <= cfg.link.ul_p0_dbm

    def test_uncalibrated_p99_is_never_nan(self):
        # uncalibrated UL power loses more than 1% of messages here, so the
        # p99 sits among the infinite delays of undelivered messages
        cfg = small(MMTC_A, drops=2)
        delay = evaluate_p99_delay(MessageService(cfg, build_layout(cfg), 1), 2e5)
        assert not math.isnan(delay)
        assert delay == math.inf

    def test_p99_equals_percentile_of_packet_rows(self):
        cfg = small(MMTC_A, drops=2)
        layout = build_layout(cfg)
        rows = []
        delay = evaluate_p99_delay(MessageService(cfg, layout, 2), 2e5, horizon_s=10.0,
                                   record_sink=rows)
        assert len(rows) > 100
        for row in rows:
            assert tuple(type(x) for x in row) == (int, int, float, float, float, int, bool)
        assert {row[0] for row in rows} == {0, 1}
        assert any(not row[6] for row in rows)  # some messages are lost
        delays = np.array([done - arrival if ok else math.inf
                           for _, _, arrival, _, done, _, ok in rows])
        assert delay == float(np.quantile(delays, 0.99, method="linear"))
        assert math.isfinite(delay)

    def test_requires_messaging_traffic(self, monkeypatch):
        """URLLC A has full-buffer traffic: the service and the search name
        ``config`` and its environment before any drop runs."""
        cfg = small(preset(TestEnvironment.URBAN_MACRO_URLLC, "A"), drops=2)
        layout = build_layout(cfg)

        def no_drop(*args, **kwargs):
            raise AssertionError("a drop ran")

        monkeypatch.setattr(engine, "run_drop", no_drop)
        monkeypatch.setattr(engine, "_link_stage", no_drop)
        for call in (lambda: MessageService(cfg, layout, 2),
                     lambda: density_search(cfg, n_drops=2)):
            with pytest.raises(DomainError, match="got UrbanMacro_URLLC") as err:
                call()
            assert err.value.field == "config"

    @pytest.mark.parametrize("kwargs, field", [
        ({"n_drops": 0}, "n_drops"), ({"n_drops": -2}, "n_drops"),
        ({"horizon_s": 0.0}, "horizon_s"), ({"horizon_s": -5.0}, "horizon_s"),
        ({"horizon_s": math.nan}, "horizon_s"),
    ])
    def test_no_drop_or_no_horizon_is_a_domain_error(self, mmtc_calibrated, kwargs, field):
        """Both used to give a 0.0 s p99 at a density whose true p99 is
        about two minutes, a silent pass."""
        cal, layout = mmtc_calibrated
        args = {"n_drops": 1, "horizon_s": 20.0, **kwargs}
        with pytest.raises(DomainError, match=field) as err:
            evaluate_p99_delay(MessageService(cal, layout, args["n_drops"]), 4e7,
                               args["horizon_s"])
        assert err.value.field == field

    @pytest.mark.parametrize("n_drops", [0, -1])
    def test_search_without_drops_is_a_domain_error(self, monkeypatch, n_drops):
        """It used to report the upper bracket, 40x the requirement, from
        probes whose delays were all 0.0. It raises before any set-up."""
        def no_layout(*args, **kwargs):
            raise AssertionError("a layout was built")

        monkeypatch.setattr(engine, "build_layout", no_layout)
        with pytest.raises(DomainError, match="n_drops") as err:
            density_search(MMTC_A, steps=2, n_drops=n_drops)
        assert err.value.field == "n_drops"

    @pytest.mark.parametrize("call, field, shown", [
        (lambda cfg: MessageService(cfg, None, -2), "n_drops", "-2"),
        (lambda cfg: evaluate_p99_delay(None, -1e6), "density_per_km2", "-1000000.0"),
        (lambda cfg: evaluate_p99_delay(None, math.nan), "density_per_km2", "nan"),
        (lambda cfg: evaluate_p99_delay(None, math.inf), "density_per_km2", "inf"),
        (lambda cfg: evaluate_p99_delay(None, 1e6, horizon_s=math.inf), "horizon_s", "inf"),
        (lambda cfg: evaluate_p99_delay(None, 1e6, horizon_s=True), "horizon_s", "True"),
        (lambda cfg: evaluate_p99_delay(None, True), "density_per_km2", "True"),
        (lambda cfg: evaluate_p99_delay(None, "1e6"), "density_per_km2", "'1e6'"),
        (lambda cfg: density_search(cfg, hi_per_km2=math.inf), "hi_per_km2", "inf"),
        (lambda cfg: density_search(cfg, lo_per_km2=math.nan), "lo_per_km2", "nan"),
        (lambda cfg: density_search(preset(TestEnvironment.RURAL_EMBB, "A"), n_drops=2),
         "config", "Rural_eMBB"),
        (lambda cfg: density_search(cfg, lo_per_km2=4e7, hi_per_km2=2e5, n_drops=2),
         "hi_per_km2", "200000.0"),
        (lambda cfg: density_search(cfg, steps=-1, n_drops=2), "steps", "-1"),
        (lambda cfg: density_search(cfg, steps=2.5, n_drops=2), "steps", "2.5"),
        (lambda cfg: density_search(cfg, n_drops=1.5), "n_drops", "1.5"),
        (lambda cfg: density_search(cfg, n_drops=True), "n_drops", "True"),
        (lambda cfg: density_search(cfg, steps=True, n_drops=2), "steps", "True"),
        (lambda cfg: MessageService(cfg, None, 1.5), "n_drops", "1.5"),
        (lambda cfg: calibrate_ul_power(cfg, None, probes=1.5), "probes", "1.5"),
        (lambda cfg: calibrate_ul_power(cfg, None, probes=True), "probes", "True"),
        (lambda cfg: calibrate_ul_power(cfg, None, max_iterations=2.0), "max_iterations", "2.0"),
        (lambda cfg: run(cfg, workers=0), "workers", "0"),
        (lambda cfg: run(small(cfg, drops=0)), "drops", "0"),
        (lambda cfg: run(cfg, workers=True), "workers", "True"),
        (lambda cfg: run(cfg, workers=2.5), "workers", "2.5"),
        (lambda cfg: run(cfg, early_stop=True, convergence_window=-1), "convergence_window", "-1"),
        (lambda cfg: run(cfg, early_stop=True, convergence_tol=math.nan), "convergence_tol",
         "nan"),
    ])
    def test_bad_probe_argument_is_a_domain_error_before_any_drop(self, monkeypatch, call,
                                                                  field, shown):
        """``n_drops`` used to be checked after its drops ran ("got 0" for
        -2), and a density, horizon or bracket end that is not finite and
        positive died in ``_queue_capacity`` (ValueError, OverflowError),
        the search's after its set-up. A search on full-buffer traffic or
        with an inverted bracket ran its layout, calibration and drops
        first, and a negative ``steps`` was accepted; a float ``steps``,
        ``n_drops`` or ``probes`` failed late in ``range``, and a bool one
        counted as 1 (``n_drops=True`` searched one drop, ``horizon_s=True``
        served a one-second horizon). ``run`` ran serially on ``workers=0`` or
        ``True``, failed in the pool on 2.5, in ``IndexError`` on a negative
        window, never converged on a NaN tolerance, and returned an empty
        result on ``drops=0``. Now the bad argument
        and its value are named before any layout or drop is made (the
        probes' service and layout are None here)."""
        def no_work(*args, **kwargs):
            raise AssertionError("work was done")

        monkeypatch.setattr(engine, "build_layout", no_work)
        monkeypatch.setattr(engine, "run_drop", no_work)
        monkeypatch.setattr(engine, "_link_stage", no_work)
        with pytest.raises(DomainError, match=f"{field}.*got {shown}") as err:
            call(small(MMTC_A, drops=2))
        assert err.value.field == field

    def test_a_probe_maps_no_service(self, monkeypatch):
        """The search maps each drop's UEs to message service once: its
        probes call neither ``sinr_to_se`` nor ``bler``."""
        calls = {"sinr_to_se": 0, "bler": 0}

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(engine, name, spy(name, getattr(engine, name)))
        search, _ = density_search(small(MMTC_A, drops=2), steps=3, n_drops=2)
        assert len(search.evaluations) >= 3
        assert calls == {"sinr_to_se": 2, "bler": 2}

    def test_every_probe_goes_through_evaluate_p99_delay(self, monkeypatch):
        """perfbench counts a search's probes from its spans of
        ``engine.evaluate_p99_delay``: a probe that bypassed that name would
        read as 0 probes, and raise no error."""
        probed, probe = [], engine.evaluate_p99_delay

        def spy(service, density, *args, **kwargs):
            probed.append(density)
            return probe(service, density, *args, **kwargs)

        monkeypatch.setattr(engine, "evaluate_p99_delay", spy)
        search, _ = density_search(small(MMTC_A, drops=2), steps=3, n_drops=2)
        assert probed == [density for density, _ in search.evaluations]
