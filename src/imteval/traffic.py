"""Traffic models, proportional-fair scheduling and the FIFO message queue.

Two traffic models exist: full buffer (every UE always backlogged, used for
SINR CDF derivation and spectral-efficiency runs) and Poisson messaging with a
fixed layer-2 PDU size (used for the non-full-buffer connection-density
route, whose arrivals `engine.evaluate_p99_delay` draws per cell).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigInvalid, InternalError


class TrafficKind(Enum):
    FULL_BUFFER = "FullBuffer"
    POISSON_MESSAGING = "PoissonMessaging"


@dataclass(frozen=True)
class TrafficModelSpec:
    """Traffic model parameters.

    ``rate_per_s`` is messages per second per device (1/86400 for one
    message per day, 1/7200 for one message per two hours). ``w_user_hz``
    is the bandwidth one device occupies while transmitting,
    ``eval_bandwidth_hz`` the narrowband carrier the multiplexing formula
    normalizes against, and ``overhead_s`` a fixed per-message signalling
    overhead added to every service time (0 models an idealized grant-free
    transfer).
    """

    kind: TrafficKind = TrafficKind.FULL_BUFFER
    pdu_size_bytes: int = 32
    rate_per_s: float = 1.0 / 7200.0
    w_user_hz: float = 15e3
    eval_bandwidth_hz: float = 180e3
    overhead_s: float = 0.2

    def validate(self):
        if self.kind is TrafficKind.POISSON_MESSAGING:
            if self.pdu_size_bytes <= 0:
                raise ConfigInvalid("traffic.pdu_size_bytes", "must be > 0")
            if self.rate_per_s <= 0:
                raise ConfigInvalid("traffic.rate_per_s", "must be > 0")
        if self.w_user_hz <= 0:
            raise ConfigInvalid("traffic.w_user_hz", "must be > 0")
        if self.eval_bandwidth_hz < self.w_user_hz:
            raise ConfigInvalid("traffic.eval_bandwidth_hz", "must be >= w_user_hz")
        if self.overhead_s < 0:
            raise ConfigInvalid("traffic.overhead_s", "must be >= 0")


def track_delays(arrival, start, done):
    """Per-message delays ``done - arrival`` of a served FIFO queue.

    Takes three equal-length 1-D float arrays (arrival, service start and
    completion time of each message) and returns the delay array. Raises
    InternalError naming the first message that starts before it arrives or
    completes before it starts (1e-12 s slack), or whose start or completion
    is NaN.
    """
    arrival, start, done = (np.asarray(a, dtype=float) for a in (arrival, start, done))
    if not arrival.shape == start.shape == done.shape:
        raise InternalError(f"service log shapes differ: arrival {arrival.shape}, "
                            f"start {start.shape}, done {done.shape}")
    # negated, so that a NaN fails the test
    bad = ~((start >= arrival - 1e-12) & (done >= start - 1e-12))
    if bad.any():
        i = int(np.argmax(bad))
        raise InternalError(f"inconsistent service log for message {i}: "
                            f"arrival={arrival[i]} start={start[i]} done={done[i]}")
    return done - arrival


def pf_run(instantaneous_rates, n_intervals: int, resources, beta: float = 0.01):
    """Proportional-fair runs over fixed rates, many schedulers at once.

    ``instantaneous_rates`` is a padded (rows x max_members) matrix, one
    independent scheduler per row; ``resources`` is one grant count per row
    (or a single count for every row). Pad short rows with zero rates at the
    end: zero-rate entries are never scheduled. A 1-D rate vector is one row,
    and then the result is 1-D too.

    Every UE of a row is always backlogged. Per interval, a row grants one
    resource unit each to up to its resource count of UEs with positive
    rate, in descending rate/average order: never-served UEs (average 0)
    first, ties to the lower index. Each average then moves by ``beta``
    towards the rate the UE was served in that interval (0 if not granted).
    Returns (scheduled counts per UE, average scheduled UEs per interval per
    row).

    Every rate must be finite and ``beta`` must lie in [0, 1]; otherwise
    InternalError is raised, naming the first non-finite (row, column).
    """
    rates = np.asarray(instantaneous_rates, dtype=float)
    single = rates.ndim == 1
    n_rows, width = np.atleast_2d(rates).shape
    flat_rates = rates.reshape(-1)
    bad = ~np.isfinite(flat_rates)
    if bad.any():
        i = int(np.argmax(bad))
        row, col = divmod(i, width)
        raise InternalError(f"PF rate at (row {row}, column {col}) is {flat_rates[i]}, "
                            "not finite")
    if not 0.0 <= beta <= 1.0:
        raise InternalError(f"PF averaging factor beta={beta} outside [0, 1]")
    eligible = flat_rates > 0.0
    k = np.maximum(np.broadcast_to(np.asarray(resources, dtype=int), (n_rows,)), 0)
    # Loop invariants. An eligible UE's metric -rate/average is -inf until
    # its first grant and about -1 or below after it (a finite rate, and an
    # average of 0s and that rate never exceeds it), so it stays ahead of
    # the ineligible and pad entries, which hold +inf: their average stays
    # 0 and inf/0 is inf. Each row therefore grants the same number of UEs,
    # min(resources, eligible UEs), in every interval: its first that many
    # entries in stable-sorted metric order.
    n_granted = np.minimum(k, np.count_nonzero(eligible.reshape(n_rows, width), axis=1))
    pick = np.flatnonzero(np.arange(width) < n_granted[:, None])
    pick_row_start = pick - pick % width
    # flat (row-major) state; -rate/average equals -(rate/average) exactly
    neg_rates = np.where(eligible, -flat_rates, np.inf)
    beta_rates, decay = beta * flat_rates, 1.0 - beta
    avg = np.zeros(n_rows * width)
    counts = np.zeros(n_rows * width, dtype=int)
    neg_metric = np.empty(n_rows * width)
    granted = np.empty(len(pick), dtype=np.intp)
    sort_rows = neg_metric.reshape(n_rows, width).argsort  # hot loop: local names
    divide, add = np.divide, np.add
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(n_intervals):
            divide(neg_rates, avg, out=neg_metric)
            # the stable sort sends ties to the lower index
            add(sort_rows(axis=1, kind="stable").take(pick), pick_row_start, out=granted)
            avg *= decay
            avg[granted] += beta_rates[granted]
            counts[granted] += 1
    counts = counts.reshape(n_rows, width)
    mux = n_granted.astype(float) if n_intervals > 0 else np.zeros(n_rows)
    if single:
        return counts[0], float(mux[0])
    return counts, mux


# message positions served between two delay checks; bounds the start-time
# buffer to this many rows of the padded queue arrays
_FIFO_BLOCK = 256


def serve_fifo(arrival_times, service_times, n_servers: int, lengths=None, starts=None):
    """Independent multi-server FIFO queues with infinite buffers, all
    served in lockstep.

    ``arrival_times`` and ``service_times`` are padded (messages x queues)
    arrays: column q holds queue q's first ``lengths[q]`` messages (every
    row when ``lengths`` is None) in arrival order, each with its busy time
    (retransmissions folded in); entries past a queue's length change no
    result, but should hold finite arrival times: NaN pads give the same
    results, yet make every later step serve one position. 1-D arrays are
    one queue. Each message takes the server of its queue that frees up
    first. Returns the delay (completion - arrival) of every message as a
    1-D array, ordered by position and then by queue.
    When ``starts`` is given, an array shaped like ``arrival_times``, every
    service start time is written into it; a message completes at start +
    service time.

    Each queue keeps its servers' free times as an ascending row x. A step
    serves up to ``n_servers`` message positions j = 0, 1, ... of every
    queue at once, giving position j the j-th smallest free time:
    start_j = max(arrival_j, x_j), done_j = start_j + service_j. That is
    what a heap of free times pops whenever min(done_0 .. done_{j-1}) >= x_j
    in every queue where position j is a message: by induction the heap
    then holds {x_j .. x_last} and done_0 .. done_{j-1}, whose least value is
    x_j (a tie pops an equal value, so the contents are the same), whatever
    the signs of the service times. The step keeps the positions up to the
    first one that fails this test (position 0 always passes), writes their
    completions over the smallest free times and re-sorts the rows. So every
    start and completion is the same IEEE operation on the same operands as
    in the heap queue (tests keep that loop as the oracle). Entries past a
    queue's length get an infinite service time, so that their completions
    do not cut a step short. With one server every step is one position.
    """
    if n_servers < 1:
        raise ConfigInvalid("n_servers", "must be >= 1")
    arrival = np.asarray(arrival_times, dtype=float)
    service = np.asarray(service_times, dtype=float)
    if arrival.ndim == 1:
        arrival, service = arrival[:, None], service[:, None]
        if starts is not None:
            starts = starts[:, None]
    n_rows, n_queues = arrival.shape
    lengths = np.full(n_queues, n_rows) if lengths is None else np.asarray(lengths)
    if service.shape != arrival.shape or lengths.shape != (n_queues,) \
            or (lengths > n_rows).any():
        raise InternalError(f"queue shapes differ: arrival {arrival.shape}, service "
                            f"{service.shape}, lengths {lengths.shape} (longest "
                            f"{lengths.max(initial=0)})")
    free = np.zeros((n_queues, n_servers))  # per queue, ascending free times
    # hot loop: local names
    maximum, add, greater_equal = np.maximum, np.add, np.greater_equal
    least, running_least = np.minimum.reduce, np.minimum.accumulate
    delays = np.empty(int(lengths.sum()))
    buffer = np.empty((min(_FIFO_BLOCK, n_rows), n_queues))
    done_buffer = np.empty((n_servers, n_queues))
    filled = 0
    for b0 in range(0, n_rows, _FIFO_BLOCK):
        b1 = min(b0 + _FIFO_BLOCK, n_rows)
        block = buffer[:b1 - b0] if starts is None else starts[b0:b1]
        valid = np.arange(b0, b1)[:, None] < lengths
        arrival_b = arrival[b0:b1]
        service_b = np.where(valid, service[b0:b1], np.inf)  # pads never hold a step back
        i = 0
        while i < b1 - b0:
            k = min(n_servers, b1 - b0 - i)
            x = free[:, :k].T  # (position, queue): the k smallest free times
            start = maximum(arrival_b[i:i + k], x, out=block[i:i + k])
            done = add(start, service_b[i:i + k], out=done_buffer[:k])
            # position j is exact if min(done[:j]) >= x[j] in every queue; as x
            # ascends, passing at the last position means passing at every one
            if k == 1 or greater_equal(least(done[:-1], axis=0), x[-1]).all():
                n = k
            else:
                exact = greater_equal(running_least(done[:-1], axis=0), x[1:]).all(axis=1)
                n = 1 + int(exact.argmin())
            free[:, :n] = done[:n].T
            free.sort(axis=1)
            i += n
        a, s = arrival_b[valid], block[valid]
        checked = track_delays(a, s, s + service_b[valid])
        delays[filled:filled + len(checked)] = checked
        filled += len(checked)
    return delays
