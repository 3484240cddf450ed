"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import re

import pytest

import run
import spans
from imteval import engine, geometry, metrics
from imteval.metrics import DensitySearchResult

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _names(section):
    return [m["name"] for m in BENCHMARK[section]]


def test_metric_and_workload_names_are_well_formed():
    names = _names("end_to_end") + _names("per_layer") + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


def test_layer_metric_names_match_benchmark_json():
    produced = set(spans.layer_metrics([])) | {
        "engine.pool.scaling_eff", "engine.pool.identical", "trace.overhead_frac",
        "messages_per_s"}
    assert produced == set(_names("per_layer"))


def test_end_to_end_output_matches_benchmark_json(capsys):
    assert run.main(["--workload", "rma_full_buffer", "--seed", "3", "--seconds", "0",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == run.MIN_RUNS
    assert set(result["metrics"]) == set(_names("end_to_end"))
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]) and metric["value"] > 0


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9), (100_000, 99.99),
])
def test_tail_percentile_examples(n, expected):
    assert spans.tail_percentile(n) == expected


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in range(1, 3000):
        pct = spans.tail_percentile(n)
        if pct is None:
            assert n < 20
            continue
        assert n * (100.0 - pct) / 100.0 >= 10.0 - 1e-9
        higher = [p for p in spans.TAIL_CANDIDATES if p > pct]
        assert all(n * (100.0 - p) / 100.0 < 10.0 - 1e-9 for p in higher)


def _outcome(digest="d0", values=(1.0, 2.0)):
    return run.Outcome(wall_s=1.0, engine_s=1.0, drops=1, digest=digest, values=values)


def test_failed_frac_counts_nan_probe_digest_mismatch_and_raise():
    ledger = run.Ledger()
    assert ledger.check("good", lambda: _outcome(), reference="d0") is not None
    assert ledger.check("nan probe", lambda: _outcome(values=(0.2, math.nan))) is None
    assert ledger.check("inf kpi", lambda: _outcome(values=(math.inf,))) is None
    assert ledger.check("digest", lambda: _outcome(digest="d1"), reference="d0") is None
    assert ledger.check("golden", lambda: _outcome(digest="d1"), golden="d0") is None

    def boom():
        raise ValueError("engine failure")

    assert ledger.check("raises", boom) is None
    assert (ledger.failed, ledger.attempted) == (5, 6)


def test_nan_density_probe_is_a_failure_not_filtered(monkeypatch, tmp_path):
    evaluations = ((2e5, 0.24), (4e7, math.nan))
    fake = DensitySearchResult(2e5, 0.24, False, evaluations, True, (2e5, math.inf))
    monkeypatch.setattr(engine, "density_search", lambda config, **kw: (fake, config))
    workload = run.WORKLOADS["mmtc_density_search"]
    ledger = run.Ledger()
    outcome = ledger.check("search", lambda: run.evaluate(workload, workload.config(1), tmp_path))
    assert outcome is None and ledger.failed == 1


def _bindings_snapshot():
    return {(id(holder), attr): vars(holder)[attr]
            for owner, attr, _, _ in spans.TARGETS
            for holder in spans._bindings(owner, attr, vars(owner)[attr])}


def test_wrappers_are_installed_on_from_imports_and_restored():
    before = _bindings_snapshot()
    assert engine.build_layout is geometry.build_layout
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert engine.build_layout is geometry.build_layout
            assert engine.build_layout is not before[(id(geometry), "build_layout")]
            assert metrics.CdfEstimator.add.__wrapped__ is before[(id(metrics.CdfEstimator), "add")]
            est = metrics.CdfEstimator()
            est.add([1.0, 2.0, 3.0])
            raise RuntimeError("leave the block early")
    assert _bindings_snapshot() == before
    assert [(s[spans.NAME], s[spans.COUNT]) for s in tracer.spans] == \
        [("metrics.CdfEstimator.add", 3)]


def test_self_time_subtracts_child_spans():
    spans_ = [
        ["engine.run", 0.0, 10.0, -1, 0],
        ["engine.run_drop", 1.0, 5.0, 0, 0],
        ["geometry.drop_ues", 1.5, 2.5, 1, 0],
        ["engine.compute_coupling", 2.5, 4.5, 1, 0],
        ["metrics.CdfEstimator.add", 5.0, 5.5, 0, 4],
    ]
    index = spans.SpanIndex(spans_)
    assert index.drops == [1]
    assert index.self_time(1) == pytest.approx(1.0)
    assert index.self_time(0) == pytest.approx(5.5)
    figures = spans.layer_metrics(spans_)
    assert figures["engine.run_drop.self_ms_per_drop"][0] == pytest.approx(1000.0)
    assert figures["geometry.drop_ues.ms_per_drop"][0] == pytest.approx(1000.0)
    assert figures["metrics.CdfEstimator.samples"][0] == 4
