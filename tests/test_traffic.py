"""Traffic model validation, PF scheduling against its scalar oracle, the
FIFO queue and delay tracking."""

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imteval import engine, traffic
from imteval.errors import ConfigInvalid, DomainError, InternalError
from imteval.geometry import build_layout
from imteval.link import SCHEDULING_INTERVAL_S
from imteval.scenario import TestEnvironment, preset, validate
from imteval.traffic import pf_run, serve_fifo, track_delays


class TestArrivals:
    def test_zero_rate_rejected_at_validation(self):
        mmtc = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
        with pytest.raises(ConfigInvalid) as err:
            validate(replace(mmtc, traffic=replace(mmtc.traffic, rate_per_s=0.0)))
        assert err.value.field == "traffic.rate_per_s"


@dataclass
class SchedulerState:
    """Exponentially averaged per-UE throughput for the PF metric."""

    n_ues: int
    beta: float = 0.01
    avg_rate: np.ndarray = None
    allocation_log: list = field(default_factory=list)

    def __post_init__(self):
        if self.avg_rate is None:
            self.avg_rate = np.zeros(self.n_ues)


def schedule_pf(backlogged, instantaneous_rates, state: SchedulerState, resources: int):
    """Scalar oracle for pf_run: one proportional-fair scheduling interval.

    Grants one resource unit each to up to ``resources`` backlogged UEs in
    descending rate/average order (ties broken by lower ue_id; UEs that have
    never been served sort first). UEs with zero instantaneous rate are
    never scheduled. Updates the state averages once and appends the set of
    scheduled UEs to the allocation log.
    """
    rates = np.asarray(instantaneous_rates, dtype=float)
    candidates = [ue for ue in sorted(backlogged) if rates[ue] > 0.0]
    # metric: rate / average; unserved UEs (avg == 0) get priority
    scored = sorted(
        candidates,
        key=lambda ue: (-math.inf if state.avg_rate[ue] == 0.0 else -rates[ue] / state.avg_rate[ue], ue),
    )
    chosen = scored[: max(resources, 0)]
    allocation = {ue: 1 for ue in chosen}
    served = np.zeros(state.n_ues)
    for ue in chosen:
        served[ue] = rates[ue]
    state.avg_rate = (1.0 - state.beta) * state.avg_rate + state.beta * served
    state.allocation_log.append(frozenset(chosen))
    return allocation


def n_mux(allocation_log) -> float:
    """Average number of distinct UEs holding resources per scheduling interval."""
    if not allocation_log:
        raise InternalError("n_mux of an empty allocation log")
    return float(np.mean([len(s) for s in allocation_log]))


class TestSchedulePf:
    def test_single_backlogged_ue_takes_everything(self):
        state = SchedulerState(n_ues=4)
        alloc = schedule_pf({2}, [0, 0, 5.0, 0], state, resources=3)
        assert alloc == {2: 1}

    def test_zero_rate_ue_starved(self):
        state = SchedulerState(n_ues=3)
        for _ in range(50):
            alloc = schedule_pf({0, 1, 2}, [1.0, 0.0, 2.0], state, resources=2)
            assert 1 not in alloc
        assert state.avg_rate[1] == 0.0

    def test_long_run_fairness_for_symmetric_ues(self):
        n = 8
        state = SchedulerState(n_ues=n, beta=0.05)
        counts = np.zeros(n)
        rng = np.random.default_rng(3)
        for _ in range(4000):
            rates = rng.uniform(0.5, 1.5, n)  # i.i.d. symmetric
            for ue in schedule_pf(set(range(n)), rates, state, resources=1):
                counts[ue] += 1
        share = counts / counts.sum()
        assert np.all(np.abs(share - 1.0 / n) < 0.10 / n * n)  # within 10 percent relative
        assert np.all(np.abs(share - 1.0 / n) / (1.0 / n) < 0.10)

    def test_ties_break_by_ue_id(self):
        state = SchedulerState(n_ues=4)
        alloc = schedule_pf({0, 1, 2, 3}, [1.0, 1.0, 1.0, 1.0], state, resources=2)
        assert set(alloc) == {0, 1}

    def test_work_conservation(self):
        state = SchedulerState(n_ues=5)
        for _ in range(20):
            alloc = schedule_pf({0, 1, 2, 3, 4}, [1.0, 2.0, 3.0, 4.0, 5.0], state, 3)
            assert len(alloc) == 3  # no resource idles while UEs are backlogged

    def test_deterministic_replay(self):
        def run():
            state = SchedulerState(n_ues=6, beta=0.01)
            log = []
            for i in range(200):
                rates = [(1 + ue + i) % 7 for ue in range(6)]
                log.append(tuple(sorted(schedule_pf(set(range(6)), rates, state, 2))))
            return log
        assert run() == run()


class TestPfRunEquivalence:
    def test_matches_schedule_pf_exactly(self):
        rng = np.random.default_rng(4)
        rates = rng.uniform(0.0, 3.0, 9)
        rates[2] = 0.0
        n_intervals, resources = 300, 3

        state = SchedulerState(n_ues=9)
        ref_counts = np.zeros(9, dtype=int)
        mux_total = 0
        for _ in range(n_intervals):
            alloc = schedule_pf(set(range(9)), rates, state, resources)
            for ue in alloc:
                ref_counts[ue] += 1
            mux_total += len(alloc)

        counts, mux = pf_run(rates, n_intervals, resources)
        assert np.array_equal(counts, ref_counts)
        assert mux == pytest.approx(mux_total / n_intervals)


# few distinct rate values make ties in rate/average frequent
_RATES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                   st.floats(0.0, 10.0, allow_nan=False, allow_subnormal=False))


class TestPfRunBatch:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(st.lists(_RATES, max_size=8), st.integers(0, 5)),
                         min_size=1, max_size=6),
           n_intervals=st.integers(0, 40))
    def test_every_row_matches_schedule_pf(self, rows, n_intervals):
        width = max(len(rates) for rates, _ in rows)
        padded = np.zeros((len(rows), width))
        for r, (rates, _) in enumerate(rows):
            padded[r, :len(rates)] = rates
        resources = [k for _, k in rows]
        counts, mux = pf_run(padded, n_intervals, resources)
        assert counts.shape == padded.shape and mux.shape == (len(rows),)

        for r, (rates, k) in enumerate(rows):
            n = len(rates)
            state = SchedulerState(n_ues=n)
            ref_counts = np.zeros(width, dtype=int)
            mux_total = 0
            for _ in range(n_intervals):
                alloc = schedule_pf(set(range(n)), rates, state, k)
                for ue in alloc:
                    ref_counts[ue] += 1
                mux_total += len(alloc)
            assert np.array_equal(counts[r], ref_counts)  # padding is never served
            assert mux[r] == (mux_total / n_intervals if n_intervals else 0.0)

    def test_one_dimensional_input_is_one_row(self):
        rates = np.array([1.0, 0.0, 1.0, 3.0])
        counts, mux = pf_run(rates, 50, 2)
        batch_counts, batch_mux = pf_run(rates[None, :], 50, [2])
        assert counts.shape == (4,) and isinstance(mux, float)
        assert np.array_equal(counts, batch_counts[0]) and mux == batch_mux[0]


# rates saturated at se_max x bandwidth tie often; negative ones are never
# scheduled, like zeros
_SATURATING_RATES = st.one_of(st.sampled_from([0.0, 5.5e7, 7.4e7, 7.4e7, 7.4e7]),
                              st.floats(-1.0, 7.4e7, allow_nan=False, allow_subnormal=False))


def pf_run_reference(instantaneous_rates, n_intervals: int, resources):
    """Bit-for-bit oracle for pf_run: the batched loop that recounts the
    grants, rewrites the ineligible metrics and slices the sorted block in
    every interval, averaging with pf_run's factor 0.01."""
    beta = 0.01
    rates = np.asarray(instantaneous_rates, dtype=float)
    single = rates.ndim == 1
    n_rows, width = np.atleast_2d(rates).shape
    k = np.maximum(np.broadcast_to(np.asarray(resources, dtype=int), (n_rows,)), 0)
    k_max = min(int(k.max(initial=0)), width)
    slots = np.arange(k_max)
    row_start = np.arange(n_rows)[:, None] * width
    # flat (row-major) state; -rate/average equals -(rate/average) exactly
    flat_rates = rates.reshape(-1)
    neg_rates = -flat_rates
    ineligible = ~(flat_rates > 0.0)
    avg = np.zeros(n_rows * width)
    counts = np.zeros(n_rows * width, dtype=int)
    neg_metric = np.empty(n_rows * width)
    mux_total = np.zeros(n_rows, dtype=int)
    for _ in range(n_intervals):
        # never-served UEs (average 0) get -inf, zero-rate UEs +inf
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(neg_rates, avg, out=neg_metric)
        neg_metric[ineligible] = np.inf
        by_metric = neg_metric.reshape(n_rows, width)
        # the stable sort sends ties to the lower index and puts every UE
        # with a positive metric first, so a row grants its first
        # min(resources, positive-metric UEs) entries
        top = np.argsort(by_metric, axis=1, kind="stable")[:, :k_max]
        n_granted = np.minimum(k, np.count_nonzero(by_metric < 0.0, axis=1))
        granted = (top + row_start)[slots < n_granted[:, None]]
        avg *= 1.0 - beta
        avg[granted] += beta * flat_rates[granted]
        counts[granted] += 1
        mux_total += n_granted
    counts = counts.reshape(n_rows, width)
    mux = mux_total / n_intervals if n_intervals > 0 else np.zeros(n_rows)
    if single:
        return counts[0], float(mux[0])
    return counts, mux


def assert_same_schedule(got, want):
    """Same counts and mux, values and dtypes."""
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
        assert np.asarray(g).dtype == np.asarray(w).dtype


class TestPfRunOracle:
    @pytest.mark.parametrize("environment", [
        TestEnvironment.RURAL_EMBB, TestEnvironment.INDOOR_HOTSPOT_EMBB,
        TestEnvironment.DENSE_URBAN_EMBB, TestEnvironment.URBAN_MACRO_MMTC])
    @pytest.mark.parametrize("seed", [1, 7, 20200101])
    def test_engine_batches_match_reference(self, monkeypatch, environment, seed):
        """The rows run_drop schedules in one drop: DL and UL rows with
        rates saturated at se_max for eMBB, UL rows with 12 grants for mMTC."""
        batches = []

        def capture(rates, n_intervals, resources):
            batches.append((rates.copy(), n_intervals, np.array(resources)))
            return pf_run(rates, n_intervals, resources)

        monkeypatch.setattr(engine, "pf_run", capture)
        config = replace(preset(environment, "A"), master_seed=seed, drops=1)
        engine.run_drop(config, build_layout(config), 0)
        (rates, n_intervals, resources), = batches
        if environment is TestEnvironment.URBAN_MACRO_MMTC:
            assert set(resources.tolist()) == {12}
        else:
            assert len(set(resources.tolist())) == 2  # DL and UL layer counts
        assert n_intervals == 100 == round(config.duration_t / SCHEDULING_INTERVAL_S)
        assert (resources < (rates > 0).sum(axis=1)).any()
        assert_same_schedule(pf_run(rates, n_intervals, resources),
                             pf_run_reference(rates, n_intervals, resources))

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.lists(_SATURATING_RATES, max_size=24), min_size=1, max_size=6),
           data=st.data(),
           n_intervals=st.integers(0, 120))
    def test_matches_reference_bit_for_bit(self, rows, data, n_intervals):
        width = max(len(rates) for rates in rows)
        padded = np.zeros((len(rows), width))
        for r, rates in enumerate(rows):
            padded[r, :len(rates)] = rates
        resources = data.draw(st.lists(st.integers(0, width + 2), min_size=len(rows),
                                       max_size=len(rows)))
        assert_same_schedule(pf_run(padded, n_intervals, resources),
                             pf_run_reference(padded, n_intervals, resources))
        single = pf_run(padded[0], n_intervals, resources[0])
        assert_same_schedule(single, pf_run_reference(padded[0], n_intervals, resources[0]))
        assert type(single[1]) is float

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rate_names_its_entry(self, bad):
        rates = np.ones((3, 4))
        rates[1, 2] = rates[2, 0] = bad
        with pytest.raises(InternalError, match=r"row 1, column 2"):
            pf_run(rates, 10, 2)
        with pytest.raises(InternalError, match=r"row 0, column 3"):
            pf_run([1.0, 0.0, -1.0, bad], 10, 2)

    def test_negative_and_zero_rates_are_never_scheduled(self):
        counts, mux = pf_run([[2.0, -1.0, 0.0, -0.0, 1.0]], 20, 4)
        assert counts.tolist() == [[20, 0, 0, 0, 20]] and mux.tolist() == [2.0]


class TestDelays:
    def test_immediate_service_delay_is_service_time(self):
        delays = track_delays([1.0], [1.0], [1.25])
        assert delays.shape == (1,)
        assert delays[0] == pytest.approx(0.25)

    def test_two_back_to_back_jobs_single_server(self):
        # M/D/1 hand case: two arrivals at t=0, 0.1; service 0.5 each
        arrival, codes = np.array([0.0, 0.1]), np.array([1, 1], np.uint8)
        start = np.empty(2)
        d1, d2 = serve_fifo(arrival, codes, [np.inf, 0.5], n_servers=1, starts=start)
        assert start.tolist() == [0.0, 0.5]
        assert d1 == pytest.approx(0.5)
        # second job waits for the first: delay = (first completion - own
        # arrival) + own service = 0.4 + 0.5
        assert d2 == pytest.approx(d1 + 0.5 - 0.1)

    def test_empty_arrivals_empty_records(self):
        delays = serve_fifo([], np.zeros(0, np.uint8), [np.inf], n_servers=1)
        assert delays.shape == (0,) and delays.dtype == float
        assert track_delays([], delays, delays).shape == (0,)

    def test_inconsistent_log_rejected(self):
        with pytest.raises(InternalError, match="message 0"):
            track_delays([1.0], [0.5], [2.0])  # starts before arrival
        with pytest.raises(InternalError, match="message 1"):
            track_delays([0.0, 1.0], [0.0, 1.5], [0.5, 1.2])  # ends before start
        with pytest.raises(InternalError):
            track_delays([0.0, 1.0], [0.0], [0.5])  # lengths differ

    @pytest.mark.parametrize("arrival, start, done", [
        ([0.0, 0.0], [0.0, np.nan], [1.0, 1.0]),
        ([0.0, 0.0], [0.0, 0.0], [1.0, np.nan]),
        ([0.0, np.nan], [0.0, 0.0], [1.0, 1.0]),
    ])
    def test_nan_log_rejected(self, arrival, start, done):
        with pytest.raises(InternalError, match="message 1"):
            track_delays(arrival, start, done)


class TestNMux:
    def test_single_ue_always(self):
        assert n_mux([{1}] * 10) == 1.0

    def test_alternating_two_and_four(self):
        log = [{1, 2}, {1, 2, 3, 4}] * 25
        assert n_mux(log) == pytest.approx(3.0)

    def test_never_exceeds_resources(self):
        rng = np.random.default_rng(6)
        rates = rng.uniform(0.1, 2.0, 12)
        state = SchedulerState(n_ues=12)
        for _ in range(100):
            schedule_pf(set(range(12)), rates, state, resources=5)
        assert n_mux(state.allocation_log) <= 5.0

    def test_empty_log_rejected(self):
        with pytest.raises(InternalError):
            n_mux([])


def serve_fifo_reference(arrivals, service_times, n_servers):
    """Scalar oracle for serve_fifo: the tuple-based heap queue.

    ``arrivals`` is a time-sorted list of (time, ue_id); returns one
    (ue_id, arrival, start, completion, transmissions) row per message.
    """
    free_at = [0.0] * n_servers
    heapq.heapify(free_at)
    log = []
    for (t, ue), svc in zip(arrivals, service_times):
        server_free = heapq.heappop(free_at)
        start = max(t, server_free)
        done = start + svc
        heapq.heappush(free_at, done)
        log.append((ue, t, start, done, 1))
    return log


def encode(service):
    """(codes, table) for an array of service times: code 0 is the +inf
    pad, every finite (or NaN) time gets the code of its value in a table
    of the distinct ones."""
    service = np.asarray(service, dtype=float)
    values, inverse = np.unique(service, return_inverse=True)
    codes = np.where(service == np.inf, 0, inverse.reshape(service.shape) + 1)
    return codes.astype(np.uint16), np.concatenate([[np.inf], values])


def _queue_major(a):
    """``a`` as the density probe passes its tables: the transposed view of
    a (queues x slots) table one slot wider than ``a`` has rows."""
    table = np.zeros((a.shape[1], a.shape[0] + 1), a.dtype)
    table[:, :-1] = a.T
    return table[:, :-1].T


def _assert_lockstep_matches_reference(arrival, codes, table, n_servers,
                                      block=traffic._FIFO_BLOCK, in_place=False,
                                      transposed=False):
    """Checks serve_fifo on (messages x queues) arrays, each queue ending in
    pads of code 0, against one heap queue per column, bit for bit: every
    message's start, completion and delay, and a +inf delay for every pad.
    With ``in_place`` the delays are written over a copy of ``arrival``;
    with ``transposed`` the arrival times, codes and start times are
    strided views (``_queue_major``). Returns the start times."""
    busy = np.asarray(table)[codes]
    lengths = np.count_nonzero(codes, axis=0)
    valid = np.arange(len(arrival))[:, None] < lengths
    assert (codes[~valid] == 0).all()  # pads only at the end of a queue
    times, start = arrival.copy(), np.empty_like(arrival)
    served = codes
    if transposed:
        times, start, served = map(_queue_major, (times, start, codes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traffic, "_FIFO_BLOCK", block)
        delays = serve_fifo(times, served, table, n_servers, start, times if in_place else None)
    assert (delays is times) == in_place
    logs = [serve_fifo_reference(list(zip(arrival[:n, q].tolist(), range(n))),
                                 busy[:n, q].tolist(), n_servers)
            for q, n in enumerate(lengths)]
    assert delays[valid].tolist() == [logs[q][i][3] - logs[q][i][1]
                                      for i in range(len(arrival))
                                      for q in range(len(lengths)) if i < lengths[q]]
    assert (delays[~valid] == np.inf).all()
    for q, log in enumerate(logs):
        n = lengths[q]
        assert start[:n, q].tolist() == [row[2] for row in log]
        assert (start[:n, q] + busy[:n, q]).tolist() == [row[3] for row in log]
    return start


# a handful of values makes tied arrivals and equal service times frequent
_TIMES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                   st.floats(0.0, 100.0, allow_nan=False, allow_subnormal=False))
_SERVICE = st.one_of(st.sampled_from([0.0, 0.25, 1.0]),
                     st.floats(0.0, 10.0, allow_nan=False, allow_subnormal=False))


class TestServeFifo:
    def test_parallel_servers(self):
        arrival, codes = np.zeros(3), np.ones(3, np.uint8)
        delays = sorted(serve_fifo(arrival, codes, [np.inf, 1.0], n_servers=2))
        assert delays == [pytest.approx(1.0), pytest.approx(1.0), pytest.approx(2.0)]

    def test_conservation(self):
        rng = np.random.default_rng(7)
        arrival = np.sort(rng.uniform(0, 10, 200))
        codes, table = encode(rng.uniform(0.01, 0.2, 200))
        delays = serve_fifo(arrival, codes, table, n_servers=3)
        assert delays.shape == arrival.shape  # infinite queue: all complete

    def test_delays_written_over_the_arrival_times(self, monkeypatch):
        """``out`` may be the arrival-time array: each entry's delay replaces
        its arrival time, block by block, and a pad's delay is +inf."""
        rng = np.random.default_rng(23)
        lengths = [5, 0, 9, 3]
        arrival = np.sort(rng.uniform(0.0, 4.0, (9, 4)), axis=0)
        busy = rng.uniform(0.0, 2.0, (9, 4))
        valid = np.arange(9)[:, None] < lengths
        busy[~valid] = np.inf
        codes, table = encode(busy)
        want = serve_fifo(arrival, codes, table, 2)
        assert np.isfinite(want[valid]).all() and (want[~valid] == np.inf).all()
        monkeypatch.setattr(traffic, "_FIFO_BLOCK", 4)
        out = arrival.copy()
        assert serve_fifo(out, codes, table, 2, out=out) is out
        assert np.array_equal(out, want)
        # one queue: 1-D in, 1-D out
        one = arrival[:, 2].copy()
        assert serve_fifo(one, codes[:, 2], table, 2, out=one) is one
        assert np.array_equal(one, want[:, 2])

    def test_messages_sharing_a_code_share_its_service_time(self):
        """Decoding is a table lookup: the same queue served from codes into
        a table and from a table of one entry per message gives the same
        bytes."""
        rng = np.random.default_rng(29)
        arrival = np.sort(rng.uniform(0.0, 5.0, (300, 3)), axis=0)
        shared = rng.integers(1, 4, (300, 3)).astype(np.uint8)
        table = np.array([np.inf, 0.3, 0.7, 1.9])
        own = np.arange(1, 901, dtype=np.uint16).reshape(300, 3)
        own_table = np.concatenate([[np.inf], table[shared].reshape(-1)])
        start, own_start = np.empty((2, 300, 3))
        delays = serve_fifo(arrival, shared, table, 4, start)
        assert np.array_equal(delays, serve_fifo(arrival, own, own_table, 4, own_start))
        assert np.array_equal(start, own_start)

    @pytest.mark.parametrize("codes", [np.array([1, 2]), np.array([1.0, 2.0])],
                             ids=["signed", "float"])
    def test_codes_must_be_unsigned(self, codes):
        with pytest.raises(InternalError, match="unsigned"):
            serve_fifo([0.0, 1.0], codes, [np.inf, 1.0, 2.0], n_servers=1)

    def test_code_past_the_table_rejected(self):
        with pytest.raises(IndexError):
            serve_fifo([0.0, 1.0], np.array([1, 3], np.uint8), [np.inf, 1.0, 2.0], n_servers=1)

    def test_zero_servers_rejected(self):
        with pytest.raises(DomainError, match="n_servers") as err:
            serve_fifo([0.0], np.ones(1, np.uint8), [np.inf, 1.0], n_servers=0)
        assert err.value.field == "n_servers"

    def test_nan_service_rejected(self):
        with pytest.raises(InternalError, match="message 1"):
            serve_fifo([0.0, 1.0, 2.0], np.array([1, 2, 1], np.uint8), [np.inf, 1.0, np.nan],
                       n_servers=2)

    def test_nan_service_in_a_queue_table_rejected(self):
        codes = np.ones((3, 2), np.uint8)
        codes[2, 1] = 2
        with pytest.raises(InternalError, match="message 2 of queue 1"):
            serve_fifo(np.zeros((3, 2)), codes, [np.inf, 1.0, np.nan], n_servers=2)

    def test_nan_pad_arrival_rejected(self):
        """A pad needs a finite arrival time: a NaN one makes its start NaN."""
        arrival = np.array([[0.0, 0.0], [1.0, np.nan]])
        codes = np.array([[1, 1], [1, 0]], np.uint8)
        with pytest.raises(InternalError, match="message 1 of queue 1"):
            serve_fifo(arrival, codes, [np.inf, 1.0], n_servers=2)

    @pytest.mark.parametrize("shape, queue", [((300,), 0), ((300, 3), 2)],
                             ids=["one_queue", "queue_table"])
    def test_bad_message_named_by_its_row_in_the_queue(self, shape, queue):
        """Row 280 lies past the first block of rows: the error names its row
        in the queue, not its row in the block (24)."""
        assert traffic._FIFO_BLOCK < 280
        codes = np.ones(shape, np.uint8)
        codes[(280, queue)[:len(shape)]] = 2
        with pytest.raises(InternalError, match=f"message 280 of queue {queue}:"):
            serve_fifo(np.zeros(shape), codes, [np.inf, 1.0, np.nan], n_servers=2)

    def test_block_prefix_rejected_when_a_short_service_completes_first(self):
        # queue 0's three servers are busy until 10, 20 and 30; message 3
        # completes at 10.5, before the 20 its block gave message 4, so
        # message 4 starts at 10.5. Queue 1 never waits.
        arrival = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [1.0, 3.0], [2.0, 4.0],
                            [3.0, 5.0]])
        busy = np.array([[10.0, 0.5], [20.0, 0.5], [30.0, 0.5], [0.5, 0.5], [1.0, 0.5],
                         [1.0, 0.5]])
        start = _assert_lockstep_matches_reference(arrival, *encode(busy), 3)
        assert start[3:, 0].tolist() == [10.0, 10.5, 11.5]
        assert start[:, 1].tolist() == arrival[:, 1].tolist()

    def test_ragged_queues_end_mid_block(self):
        """Queues of 0 to 10 messages padded with arrival 0 and code 0, 4
        servers and blocks of 5 rows: steps and blocks end mid-queue and
        queues end mid-step. Then in the density probe's call: transposed
        views, the delays over the arrival times, and blocks of 4, the last
        one short."""
        lengths = [0, 3, 7, 10, 1, 6]
        rng = np.random.default_rng(19)
        arrival = np.zeros((10, len(lengths)))
        busy = np.full((10, len(lengths)), np.inf)
        for q, n in enumerate(lengths):
            arrival[:n, q] = np.sort(rng.uniform(0.0, 4.0, n))
            busy[:n, q] = rng.uniform(0.0, 3.0, n)
        _assert_lockstep_matches_reference(arrival, *encode(busy), 4, block=5)
        _assert_lockstep_matches_reference(arrival, *encode(busy), 4, block=4, in_place=True,
                                           transposed=True)

    @pytest.mark.parametrize("n_servers", [1, 16])
    def test_one_server_and_more_servers_than_messages(self, n_servers):
        rng = np.random.default_rng(n_servers)
        arrival = np.sort(rng.uniform(0.0, 3.0, (9, 3)), axis=0)
        busy = rng.uniform(0.0, 1.5, (9, 3))
        start = _assert_lockstep_matches_reference(arrival, *encode(busy), n_servers, block=4)
        if n_servers > len(arrival):
            assert start.tolist() == arrival.tolist()  # no message waits

    @settings(max_examples=200, deadline=None)
    @given(jobs=st.lists(st.tuples(_TIMES, _SERVICE), max_size=60),
           n_servers=st.integers(1, 16))
    def test_matches_tuple_heap_bit_for_bit(self, jobs, n_servers):
        arrival = np.sort(np.array([t for t, _ in jobs], dtype=float))
        busy = np.array([svc for _, svc in jobs], dtype=float)
        start = np.empty_like(arrival)
        delays = serve_fifo(arrival, *encode(busy), n_servers, starts=start)
        done = start + busy
        log = serve_fifo_reference(list(zip(arrival.tolist(), range(len(jobs)))),
                                   busy.tolist(), n_servers)
        assert [row[2] for row in log] == start.tolist()
        assert [row[3] for row in log] == done.tolist()
        assert [row[3] - row[1] for row in log] == delays.tolist()
        assert delays.tolist() == track_delays(arrival, start, done).tolist()

    @settings(max_examples=200, deadline=None)
    @given(table=st.lists(_SERVICE, min_size=1, max_size=4),
           queues=st.lists(st.lists(st.tuples(_TIMES, st.integers(1, 4)), max_size=40),
                           min_size=1, max_size=8),
           n_servers=st.integers(1, 16), block=st.integers(1, 9),
           pad=st.sampled_from([0.0, -1.0, 1e300]), in_place=st.booleans(),
           transposed=st.booleans())
    def test_lockstep_queues_match_tuple_heap_bit_for_bit(self, table, queues, n_servers,
                                                          block, pad, in_place, transposed):
        """Ragged queues served together, over several start-time blocks
        (the last one often short), give each queue the bytes of its own
        heap queue, in place or not, from contiguous arrays or from the
        transposed views the density probe passes. Their messages draw
        codes into a table of up to four service times, so many share one;
        pads of code 0 (+inf service), whatever their finite arrival time,
        change no result and get a +inf delay."""
        table = [np.inf] + table
        arrival = np.full((max(map(len, queues)), len(queues)), pad)
        codes = np.zeros(arrival.shape, np.uint8)
        for q, jobs in enumerate(queues):
            arrival[:len(jobs), q] = sorted(t for t, _ in jobs)
            codes[:len(jobs), q] = [min(code, len(table) - 1) for _, code in jobs]
        _assert_lockstep_matches_reference(arrival, codes, table, n_servers, block, in_place,
                                           transposed)
