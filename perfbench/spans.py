"""Span tracing of imteval's public functions, from outside the package.

Each traced function is replaced, for the duration of a ``with`` block, by a
wrapper that records one span (name, start, end, parent, count). The
package binds many names with ``from .x import y``, so a function is wrapped
on every imteval module that holds it, not only on its home module. Spans
stay in memory; the caller writes them out once, after the run.

``layer_metrics`` turns the spans of one traced run into the per-layer
figures listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time

import numpy as np

from imteval import antenna, engine, geometry, link, metrics, report, traffic
from imteval.channel import model as channel_model


def _n_intervals(args, kwargs, result):
    return args[1]  # pf_run(rates, n_intervals, resources)


def _n_rows(args, kwargs, result):
    return len(result)


def _n_samples(args, kwargs, result):
    return int(np.size(args[1]))  # CdfEstimator.add(self, samples)


def _bytes_written(args, kwargs, result):
    return sum(os.path.getsize(path) for path in result)


# (owner, attribute, span name, count hook or None); the hook sees the
# call's arguments and result and returns the work the call did
TARGETS = (
    (geometry, "build_layout", "geometry.build_layout", None),
    (geometry, "drop_ues", "geometry.drop_ues", None),
    (geometry, "wrap_displacements", "geometry.wrap_displacements", None),
    (antenna, "element_gain", "antenna.element_gain", None),
    (channel_model, "los_probability", "channel.los_probability", None),
    (channel_model, "pathloss_curves", "channel.pathloss_curves", None),
    (link, "sinr_to_se", "link.sinr_to_se", None),
    (link, "bler", "link.bler", None),
    (traffic, "pf_run", "traffic.pf_run", _n_intervals),
    (traffic, "serve_fifo", "traffic.serve_fifo", _n_rows),
    (traffic, "track_delays", "traffic.track_delays", None),
    (metrics.CdfEstimator, "add", "metrics.CdfEstimator.add", _n_samples),
    (metrics, "connection_density_search", "metrics.connection_density_search", None),
    (engine, "compute_coupling", "engine.compute_coupling", None),
    (engine, "run_drop", "engine.run_drop", None),
    (engine, "calibrate_ul_power", "engine.calibrate_ul_power", None),
    (engine, "evaluate_p99_delay", "engine.evaluate_p99_delay", None),
    (engine, "run", "engine.run", None),
    (engine, "density_search", "engine.density_search", None),
    (report, "check_compliance", "report.check_compliance", None),
    (report, "emit", "report.emit", _bytes_written),
)

NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    """Records spans from wrappers installed by ``installed()``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, count]
        self._stack = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of each target inside imteval; restore on exit."""
        saved = []
        try:
            for owner, attr, name, count in TARGETS:
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original, count)
                for holder in _bindings(owner, attr, original):
                    saved.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "spans": self.spans}, fh)


def _bindings(owner, attr, original):
    """The owner plus every loaded imteval module that binds ``original``."""
    holders = [owner]
    for mod_name, module in list(sys.modules.items()):
        if module is owner or not mod_name.startswith("imteval"):
            continue
        if vars(module).get(attr) is original:
            holders.append(module)
    return holders


# ---------------------------------------------------------------------------
# per-layer metrics


TAIL_CANDIDATES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int):
    """Highest candidate percentile with at least ten samples beyond it,
    or None when fewer than 20 samples exist."""
    for pct in TAIL_CANDIDATES:
        if n * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return None


class SpanIndex:
    """Spans of one traced run with each span's enclosing drop resolved."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        self.drop_of = [-1] * len(spans)  # enclosing measured drop span
        in_calibration = [False] * len(spans)
        for i, span in enumerate(spans):
            parent = span[PARENT]  # parents always precede their children
            if parent >= 0:
                self.children[parent].append(i)
                in_calibration[i] = in_calibration[parent]
                self.drop_of[i] = self.drop_of[parent]
            if span[NAME] == "engine.calibrate_ul_power":
                in_calibration[i] = True
            elif span[NAME] == "engine.run_drop" and not in_calibration[i]:
                self.drop_of[i] = i
        # measured drops: run_drop spans outside UL power calibration
        self.drops = [i for i, s in enumerate(spans)
                      if s[NAME] == "engine.run_drop" and self.drop_of[i] == i]
        self.calibration_drops = sum(1 for i, s in enumerate(spans)
                                     if s[NAME] == "engine.run_drop" and in_calibration[i])

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s[NAME] == name]

    def duration(self, i) -> float:
        return self.spans[i][END] - self.spans[i][START]

    def self_time(self, i) -> float:
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def total_s(self, name) -> float:
        return sum(self.duration(i) for i in self.named(name))

    def count(self, name) -> int:
        return sum(self.spans[i][COUNT] for i in self.named(name))

    def in_drops(self, name):
        return [i for i in self.named(name) if self.drop_of[i] >= 0]

    def ms_per_drop(self, name, self_only: bool = False) -> float:
        if not self.drops:
            return 0.0
        time_of = self.self_time if self_only else self.duration
        return 1000.0 * sum(time_of(i) for i in self.in_drops(name)) / len(self.drops)

    def calls_per_drop(self, name) -> float:
        return len(self.in_drops(name)) / len(self.drops) if self.drops else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


RUN_SPANS = ("engine.run", "engine.density_search")


def _add_growth(index: SpanIndex) -> float:
    """Mean CdfEstimator.add time over the last tenth of a run's drops divided
    by the mean over its first tenth, averaged over runs. A drop's adds are
    the ones that follow its run_drop span."""
    runs = []
    for i, span in enumerate(index.spans):
        if span[NAME] in RUN_SPANS:
            runs.append([])
        elif index.drop_of[i] == i and runs:
            runs[-1].append(0.0)
        elif span[NAME] == "metrics.CdfEstimator.add" and runs and runs[-1]:
            runs[-1][-1] += index.duration(i)
    ratios = []
    for per_drop in runs:
        tenth = len(per_drop) // 10
        if tenth:
            ratios.append(_ratio(statistics.fmean(per_drop[-tenth:]),
                                 statistics.fmean(per_drop[:tenth])))
    return statistics.fmean(ratios) if ratios else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer figures of traced runs as {name: (value, unit)}.

    Totals are per run (one engine.run or engine.density_search call), times
    and counts marked per drop are per drop outside UL power calibration. A
    figure whose layer the workload never enters reads 0.
    """
    ix = SpanIndex(spans)
    runs = sum(len(ix.named(name)) for name in RUN_SPANS)

    def per_run(total):
        return _ratio(total, runs)

    drop_ms = sorted(1000.0 * ix.duration(i) for i in ix.drops)
    tail = tail_percentile(len(drop_ms))
    probes = len(ix.named("engine.evaluate_p99_delay"))
    return {
        "geometry.build_layout.s": (per_run(ix.total_s("geometry.build_layout")), "s"),
        "geometry.drop_ues.ms_per_drop": (ix.ms_per_drop("geometry.drop_ues"), "ms"),
        "geometry.wrap_displacements.ms_per_drop":
            (ix.ms_per_drop("geometry.wrap_displacements"), "ms"),
        "geometry.wrap_displacements.calls_per_drop":
            (ix.calls_per_drop("geometry.wrap_displacements"), "count"),
        "channel.los_probability.ms_per_drop": (ix.ms_per_drop("channel.los_probability"), "ms"),
        "channel.pathloss_curves.ms_per_drop": (ix.ms_per_drop("channel.pathloss_curves"), "ms"),
        "antenna.element_gain.ms_per_drop": (ix.ms_per_drop("antenna.element_gain"), "ms"),
        "engine.compute_coupling.self_ms_per_drop":
            (ix.ms_per_drop("engine.compute_coupling", self_only=True), "ms"),
        "engine.run_drop.ms_p50": (float(np.percentile(drop_ms, 50)) if drop_ms else 0.0, "ms"),
        "engine.run_drop.ms_tail":
            (float(np.percentile(drop_ms, tail)) if tail is not None else 0.0, "ms"),
        "engine.run_drop.tail_pct": (tail if tail is not None else 0.0, "pct"),
        "engine.run_drop.n": (len(drop_ms), "count"),
        "engine.run_drop.self_ms_per_drop":
            (ix.ms_per_drop("engine.run_drop", self_only=True), "ms"),
        "engine.calibrate_ul_power.s": (per_run(ix.total_s("engine.calibrate_ul_power")), "s"),
        "engine.calibrate_ul_power.probe_drops": (per_run(ix.calibration_drops), "count"),
        "engine.evaluate_p99_delay.s_per_probe":
            (_ratio(ix.total_s("engine.evaluate_p99_delay"), probes), "s"),
        "metrics.connection_density_search.probes": (per_run(probes), "count"),
        "traffic.serve_fifo.s": (per_run(ix.total_s("traffic.serve_fifo")), "s"),
        "traffic.track_delays.s": (per_run(ix.total_s("traffic.track_delays")), "s"),
        "traffic.serve_fifo.messages": (per_run(ix.count("traffic.serve_fifo")), "count"),
        "link.bler.ms": (per_run(1000.0 * ix.total_s("link.bler")), "ms"),
        "traffic.pf_run.ms_per_drop": (ix.ms_per_drop("traffic.pf_run"), "ms"),
        "traffic.pf_run.calls_per_drop": (ix.calls_per_drop("traffic.pf_run"), "count"),
        "traffic.pf_run.intervals_per_s":
            (_ratio(ix.count("traffic.pf_run"), ix.total_s("traffic.pf_run")), "1/s"),
        "link.sinr_to_se.ms_per_drop": (ix.ms_per_drop("link.sinr_to_se"), "ms"),
        "link.sinr_to_se.calls_per_drop": (ix.calls_per_drop("link.sinr_to_se"), "count"),
        "metrics.CdfEstimator.add.ms_per_drop":
            (_ratio(1000.0 * ix.total_s("metrics.CdfEstimator.add"), len(ix.drops)), "ms"),
        "metrics.CdfEstimator.add.growth": (_add_growth(ix), "ratio"),
        "metrics.CdfEstimator.samples": (per_run(ix.count("metrics.CdfEstimator.add")), "count"),
        "report.check_compliance.ms":
            (per_run(1000.0 * ix.total_s("report.check_compliance")), "ms"),
        "report.emit.s": (per_run(ix.total_s("report.emit")), "s"),
        "report.emit.bytes": (per_run(ix.count("report.emit")), "bytes"),
    }
