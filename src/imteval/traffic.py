"""Traffic models, proportional-fair scheduling and the FIFO message queue.

The test environment fixes the traffic model; the config's ``kind`` records
it. eMBB and URLLC run full buffer (every UE always backlogged), UrbanMacro_mMTC
Poisson messaging with a fixed layer-2 PDU size on its density route:
`engine.MessageService` maps a search's drops to message service once, each
probe, `engine.evaluate_p99_delay(service, density)`, draws the arrivals per
cell, and `serve_fifo` here serves them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, InternalError


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

    @property
    def channels(self) -> int:
        """Messaging channels of ``w_user_hz`` in the evaluated carrier."""
        return int(self.eval_bandwidth_hz // self.w_user_hz)


def track_delays(arrival, start, done, *, first_row: int = 0):
    """Per-message delays ``done - arrival`` of a served FIFO queue.

    Takes three float arrays of one shape (arrival, service start and
    completion time of each message; a 2-D block holds one queue per
    column) and returns the delay array. Raises InternalError naming the
    first message that starts before it arrives or completes before it
    starts (1e-12 s slack), or whose start or completion is NaN; the arrays
    hold the messages from row ``first_row`` of their queues on.
    """
    arrival, start, done = (np.asarray(a, dtype=float) for a in (arrival, start, done))
    if not arrival.shape == start.shape == done.shape:
        raise InternalError(f"service log shapes differ: arrival {arrival.shape}, "
                            f"start {start.shape}, done {done.shape}")
    # negated, so that a NaN fails the test
    bad = ~((start >= arrival - 1e-12) & (done >= start - 1e-12))
    if bad.any():
        first = int(np.argmax(bad))
        i = np.unravel_index(first, bad.shape)
        name = (f"message {first_row + i[0]} of queue {i[1]}" if bad.ndim == 2
                else f"message {first_row + first}")
        raise InternalError(f"inconsistent service log for {name}: "
                            f"arrival={arrival[i]} start={start[i]} done={done[i]}")
    return done - arrival


# pf_run's averaging factor: the share by which an average moves per interval
_PF_BETA = 0.01


def pf_run(instantaneous_rates, n_intervals: int, resources):
    """Proportional-fair runs over fixed rates, many schedulers at once.

    ``instantaneous_rates`` is a padded (rows x max_members) matrix, one
    independent scheduler per row; ``resources`` is one grant count per row
    (or a single count for every row). Pad short rows with zero rates at the
    end: zero-rate entries are never scheduled. A 1-D rate vector is one row,
    and then the result is 1-D too.

    Every UE of a row is always backlogged. Per interval, a row grants one
    resource unit each to up to its resource count of UEs with positive
    rate, in descending rate/average order: never-served UEs (average 0)
    first, ties to the lower index. Each average then moves 1% of the way
    towards the rate the UE was served in that interval (0 if not granted).
    Returns (scheduled counts per UE, average scheduled UEs per interval per
    row).

    Every rate must be finite; otherwise InternalError is raised, naming the
    first non-finite (row, column).
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
    beta_rates, decay = _PF_BETA * flat_rates, 1.0 - _PF_BETA
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


def serve_fifo(arrival_times, service_codes, service_table, n_servers: int, starts=None,
               out=None):
    """Independent multi-server FIFO queues with infinite buffers, all
    served in lockstep.

    ``arrival_times`` and ``service_codes`` are (messages x queues) arrays:
    column q holds queue q's messages in arrival order. A message's busy
    time (retransmissions folded in) is ``service_table[code]``: the codes
    are unsigned integers below ``len(service_table)``, so messages that
    share a service time share one table entry. A queue shorter than the
    table ends in pad rows with a finite arrival time and code 0, whose
    entry must be +inf: a pad never holds a step back, and its delay comes
    out +inf. 1-D arrays are one queue. Each message takes the server of
    its queue that frees up first. Returns ``out``, an array shaped like
    ``arrival_times`` (a new one when None is passed) that receives the
    delay (completion - arrival) of every entry. Each block of positions is
    copied into a contiguous block of arrival times (the density probe
    passes transposed views, whose rows are a queue's length apart) and
    decoded into a block of service times, served, then checked and written
    whole, after its last read, so ``out`` may be the arrival-time array
    itself. When ``starts`` is given, an array shaped like
    ``arrival_times``, every service start time is written into it; a
    message completes at start + ``service_table[code]``.

    The servers' free times are kept position-major: an (n_servers x
    queues) array whose column q holds queue q's free times in ascending
    order, so its first k rows x are the k smallest free times of every
    queue. A step serves up to ``n_servers`` message positions j = 0, 1, ...
    of every queue at once, giving position j the j-th smallest free time:
    start_j = max(arrival_j, x_j), done_j = start_j + service_j. That is
    what a heap of free times pops whenever min(done_0 .. done_{j-1}) >= x_j
    in every queue: by induction the heap then holds {x_j .. x_last} and
    done_0 .. done_{j-1}, whose least value is x_j (a tie pops an equal
    value, so the contents are the same), whatever the signs of the service
    times. The step keeps the positions up to the first one that fails this
    test (position 0 always passes), writes their completions over the
    smallest free times and re-sorts the columns (the completions go into a
    second array shaped like the free times, and a step that keeps all
    ``n_servers`` positions swaps the two arrays instead of copying). So
    every start and completion is the same IEEE operation on the same
    operands as in the heap queue (tests keep that loop as the oracle). A
    pad's +inf completion passes the test against any free time, so pads
    cut no step short. With one server every step is one position. Raises
    DomainError naming ``n_servers`` when it is not an integer >= 1.
    """
    DomainError.require_counts(1, n_servers=n_servers)
    arrival = np.asarray(arrival_times, dtype=float)
    codes = np.asarray(service_codes)
    table = np.asarray(service_table, dtype=float)
    if codes.dtype.kind != "u":
        raise InternalError(f"service codes must be unsigned integers, not {codes.dtype}")
    if out is None:
        out = np.empty(arrival.shape)
    result = out
    if arrival.ndim == 1:
        arrival, codes, out = arrival[:, None], codes[:, None], out[:, None]
        if starts is not None:
            starts = starts[:, None]
    n_rows, n_queues = arrival.shape
    if codes.shape != arrival.shape or out.shape != arrival.shape:
        raise InternalError(f"queue shapes differ: arrival {arrival.shape}, codes "
                            f"{codes.shape}, out {out.shape}")
    free = np.zeros((n_servers, n_queues))  # per queue (column), ascending free times
    done_buffer = np.empty_like(free)
    # hot loop: local names
    maximum, add, greater_equal = np.maximum, np.add, np.greater_equal
    every, running_least = np.logical_and.reduce, np.minimum.accumulate
    buffer, arrivals, service = (np.empty((min(_FIFO_BLOCK, n_rows), n_queues))
                                 for _ in range(3))
    for b0 in range(0, n_rows, _FIFO_BLOCK):
        b1 = min(b0 + _FIFO_BLOCK, n_rows)
        block = buffer[:b1 - b0] if starts is None else starts[b0:b1]
        arrival_b = arrivals[:b1 - b0]
        arrival_b[...] = arrival[b0:b1]
        service_b = np.take(table, codes[b0:b1], out=service[:b1 - b0])
        i = 0
        while i < b1 - b0:
            k = min(n_servers, b1 - b0 - i)
            x = free[:k]  # (position, queue): the k smallest free times
            start = maximum(arrival_b[i:i + k], x, out=block[i:i + k])
            done = add(start, service_b[i:i + k], out=done_buffer[:k])
            # position j is exact if min(done[:j]) >= x[j] in every queue; as x
            # ascends, passing at the last position means passing at every one,
            # and min(done[:-1]) >= x[-1] is every done[:-1] >= x[-1] (NaN fails both)
            if k == 1 or every(greater_equal(done[:-1], x[-1]), axis=None):
                n = k
            else:
                exact = greater_equal(running_least(done[:-1], axis=0), x[1:]).all(axis=1)
                n = 1 + int(exact.argmin())
            if n == n_servers:  # every free time is replaced
                free, done_buffer = done_buffer, free
            else:
                free[:n] = done[:n]
            free.sort(axis=0, kind="stable")  # on short columns, quicker than quicksort
            i += n
        # the completions go over the block's decoded service times, now spent
        out[b0:b1] = track_delays(arrival_b, block, add(block, service_b, out=service_b),
                                  first_row=b0)
    return result
