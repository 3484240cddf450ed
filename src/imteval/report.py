"""Compliance checking and result emission.

This module alone decides pass or fail. ``meets`` holds the rule, which is
boundary-inclusive: measured >= requirement passes. ``judge`` applies it to
one simulated KPI, and check_compliance compares either a simulation
RunResult or an ingested external result table against a RequirementSet.
Digitized vendor tables ship as fixture CSVs under data/fixtures; known
defects in the source material (stray cells, out-of-scale percentages,
values printed below their requirement) carry a ``suspect`` flag instead
of silently corrected numbers.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .errors import InternalError, SchemaError, UnknownRequirement
from .scenario import (DOWNLINK, UPLINK, Requirement, RequirementSet, TestEnvironment,
                       builtin_requirements, config_hash, _fmt)
from .engine import STREAM_ALGORITHM, KpiValue, RunResult

FIXTURE_FILES = (
    "connection_density.csv",
    "reliability.csv",
    "spectral_efficiency.csv",
    "mobility.csv",
    "data_rate.csv",
)

_KNOWN_METRICS = {
    "avg_se", "pct5_se", "reliability", "connection_density",
    "mobility_rate", "snr_margin", "ued_rate",
}


@dataclass(frozen=True)
class ExternalRow:
    table: str
    environment: str
    direction: str
    metric: str
    channel_condition: str
    speed_kmh: float | None
    rit: str
    antenna_config: str
    tx_scheme: str
    numerology: str
    evaluator: str
    requirement: float | None
    value_raw: str
    value: float | None
    unit: str
    bandwidth_khz: float | None
    qualifier: str
    suspect: bool
    note: str


@dataclass
class ExternalResultTable:
    rows: list


_EXPECTED_HEADER = [f.name for f in fields(ExternalRow)]


def _records(text: str, header: list):
    """Yield (line number, {column: cell}) for each non-blank row of a CSV
    whose first row must be ``header``."""
    reader = csv.reader(io.StringIO(text))
    first = next(reader, None)
    if first is None:
        raise SchemaError("empty file: missing header")
    if first != header:
        raise SchemaError(f"unexpected header {first}; expected {header}")
    end = reader.line_num
    for cells in reader:
        # a quoted cell may span lines: name the physical line the record starts on
        lineno, end = end + 1, reader.line_num
        if not cells or all(c == "" for c in cells):
            continue
        if len(cells) != len(header):
            raise SchemaError(f"line {lineno}: expected {len(header)} cells, got {len(cells)}")
        yield lineno, dict(zip(header, cells))


def _check_direction(text: str, line: int) -> None:
    if text not in ("", DOWNLINK, UPLINK):
        raise SchemaError(f"line {line}: column 'direction' is not blank, '{DOWNLINK}' or "
                          f"'{UPLINK}': '{text}'")


def _opt_float(text: str, line: int, column: str):
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError as exc:
        raise SchemaError(f"line {line}: column '{column}' is not numeric: '{text}'") from exc
    if not math.isfinite(value):
        raise SchemaError(f"line {line}: column '{column}' is not finite: '{text}'")
    return value


def ingest_table(path=None, text: str | None = None) -> ExternalResultTable:
    """Load an external result table CSV under the documented schema."""
    if text is None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    rows = []
    for lineno, rec in _records(text, _EXPECTED_HEADER):
        if rec["metric"] not in _KNOWN_METRICS:
            raise SchemaError(f"line {lineno}: unknown metric '{rec['metric']}'")
        _check_direction(rec["direction"], lineno)
        for column in ("value", "speed_kmh", "requirement", "bandwidth_khz"):
            rec[column] = _opt_float(rec[column], lineno, column)
        if rec["value"] is not None and rec["value"] < 0:
            raise SchemaError(f"line {lineno}: negative value {rec['value']}")
        if rec["suspect"] not in ("0", "1"):
            raise SchemaError(f"line {lineno}: column 'suspect' must be 0 or 1: '{rec['suspect']}'")
        rec["suspect"] = rec["suspect"] == "1"
        rows.append(ExternalRow(**rec))
    return ExternalResultTable(rows=rows)


def load_fixture(name: str) -> ExternalResultTable:
    """One of the digitized vendor-result fixtures shipped with the package."""
    if name not in FIXTURE_FILES:
        raise SchemaError(f"unknown fixture '{name}'; available: {FIXTURE_FILES}")
    text = resources.files("imteval").joinpath("data", "fixtures", name).read_text()
    return ingest_table(text=text)


def load_all_fixtures() -> ExternalResultTable:
    rows = []
    for name in FIXTURE_FILES:
        rows.extend(load_fixture(name).rows)
    return ExternalResultTable(rows=rows)


# ---------------------------------------------------------------------------
# requirement CSV round-trip


_REQ_HEADER = [f.name for f in fields(Requirement)]


def save_requirements_csv(reqs: RequirementSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REQ_HEADER)
        for r in reqs.rows:
            writer.writerow(["" if getattr(r, name) is None else _fmt(getattr(r, name))
                             for name in _REQ_HEADER])


def load_requirements_csv(path) -> RequirementSet:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    known_metrics = _KNOWN_METRICS | {r.metric for r in builtin_requirements().rows}
    rows = []
    for lineno, rec in _records(text, _REQ_HEADER):
        if rec["metric"] not in known_metrics:
            raise SchemaError(f"line {lineno}: unknown metric '{rec['metric']}'")
        _check_direction(rec["direction"], lineno)
        rec["value"] = _opt_float(rec["value"], lineno, "value")
        if rec["value"] is None:
            raise SchemaError(f"line {lineno}: column 'value' is blank")
        rec["speed_kmh"] = _opt_float(rec["speed_kmh"], lineno, "speed_kmh")
        rec["environment"] = TestEnvironment.parse(rec["environment"])
        rec["direction"] = rec["direction"] or None
        rows.append(Requirement(**rec))
    return RequirementSet(tuple(rows))


# ---------------------------------------------------------------------------
# compliance


@dataclass(frozen=True)
class ComplianceRow:
    environment: str
    variant: str
    direction: str
    metric: str
    speed_kmh: float | None
    requirement: float | None
    measured: float | None
    passed: bool | None  # None = informational / not evaluated
    source_table: str
    footnotes: str
    evaluator: str = ""


@dataclass
class ComplianceReport:
    rows: list

    @property
    def all_pass(self) -> bool:
        decided = [r for r in self.rows if r.passed is not None]
        return all(r.passed for r in decided)

    def failures(self):
        return [r for r in self.rows if r.passed is False]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["environment", "variant", "direction", "metric", "speed_kmh",
                         "requirement", "measured", "pass", "source_table", "evaluator",
                         "footnotes"])
        for r in self.rows:
            writer.writerow([
                r.environment, r.variant, r.direction, r.metric,
                "" if r.speed_kmh is None else r.speed_kmh,
                "" if r.requirement is None else repr(float(r.requirement)),
                "" if r.measured is None else repr(float(r.measured)),
                "" if r.passed is None else ("pass" if r.passed else "fail"),
                r.source_table, r.evaluator, r.footnotes,
            ])
        return buf.getvalue()


_UNIT_SCALE_TO_BASE = {("ued_rate", "Mbit/s"): 1e6}


def meets(value: float, requirement: float) -> bool:
    """The one pass rule, simulated or ingested: a value equal to its requirement passes."""
    return bool(value >= requirement)


def judge(kpi: KpiValue, environment: TestEnvironment,
          reqs: RequirementSet) -> tuple[Requirement, bool]:
    """The requirement row for a measured KPI, and whether the KPI meets it.
    Raises InternalError for a non-finite value, which would otherwise pass
    or fail by accident, and UnknownRequirement when the table has no row
    for the KPI."""
    if not math.isfinite(kpi.value):
        raise InternalError(f"KPI {kpi.metric} ({kpi.direction or 'both'}) is not finite: "
                            f"{kpi.value}")
    req = reqs.lookup(environment, kpi.direction, kpi.metric, kpi.speed_kmh)
    return req, meets(kpi.value, req.value)


def _join_notes(*parts) -> str:
    """One footnote: the non-empty parts, joined by "; "."""
    return "; ".join(part for part in parts if part)


def _check_run_result(result: RunResult, reqs: RequirementSet) -> ComplianceReport:
    rows = []
    env = result.config.environment
    variant = result.config.config_variant
    covered = set()
    for kpi in result.kpis:
        notes = [kpi.note]
        try:
            req, passed = judge(kpi, env, reqs)
            covered.add(id(req))
        except UnknownRequirement as exc:  # kept, as in _check_external
            req = passed = None
            notes.append(str(exc))
        if kpi.metric == "connection_density":
            notes.append("link abstraction and multiplexing model are configuration, "
                         "not measured hardware")
        rows.append(ComplianceRow(
            environment=env.value, variant=variant, direction=kpi.direction or "",
            metric=kpi.metric, speed_kmh=kpi.speed_kmh,
            requirement=None if req is None else req.value, measured=kpi.value,
            passed=passed, source_table="" if req is None else req.source_table,
            footnotes=_join_notes(*notes),
        ))
    # requirement rows for this environment that the run did not evaluate
    for req in reqs.rows:
        if req.environment != env or id(req) in covered:
            continue
        note = req.note or "not evaluated"
        rows.append(ComplianceRow(
            environment=env.value, variant=variant, direction=req.direction or "",
            metric=req.metric, speed_kmh=req.speed_kmh, requirement=req.value,
            measured=None, passed=None, source_table=req.source_table,
            footnotes=note,
        ))
    return ComplianceReport(rows)


def _check_external(table: ExternalResultTable, reqs: RequirementSet) -> ComplianceReport:
    rows = []
    for r in table.rows:
        if r.metric not in _KNOWN_METRICS:
            raise SchemaError(f"row for evaluator {r.evaluator}: unmappable metric '{r.metric}'")
        requirement = r.requirement
        source = r.table
        unmatched = ""
        if requirement is None and r.metric != "snr_margin":
            try:
                env = TestEnvironment.parse(r.environment)
                scale = _UNIT_SCALE_TO_BASE.get((r.metric, r.unit), 1.0)
                builtin = reqs.lookup(env, r.direction or None, r.metric, r.speed_kmh)
                requirement = builtin.value / scale
                source = builtin.source_table
            except UnknownRequirement as exc:
                unmatched = str(exc)
        if r.metric == "snr_margin" and requirement is None:
            requirement = 0.0  # a margin is met when it is non-negative
        if r.value is None:
            rows.append(ComplianceRow(
                environment=r.environment, variant="", direction=r.direction,
                metric=r.metric, speed_kmh=r.speed_kmh, requirement=requirement,
                measured=None, passed=None, source_table=source,
                footnotes=(r.note or "not evaluated"), evaluator=r.evaluator,
            ))
            continue
        passed = None if requirement is None else meets(r.value, requirement)
        foot = _join_notes(r.note, unmatched, r.suspect and "suspect source entry",
                           r.qualifier and f"reported as '{r.qualifier}{r.value_raw}'")
        rows.append(ComplianceRow(
            environment=r.environment, variant="", direction=r.direction,
            metric=r.metric, speed_kmh=r.speed_kmh, requirement=requirement,
            measured=r.value, passed=passed, source_table=source,
            footnotes=foot, evaluator=r.evaluator,
        ))
    return ComplianceReport(rows)


def check_compliance(results, reqs: RequirementSet | None = None) -> ComplianceReport:
    """Boundary-inclusive comparison of measured values against requirements."""
    reqs = reqs or builtin_requirements()
    if isinstance(results, RunResult):
        return _check_run_result(results, reqs)
    if isinstance(results, ExternalResultTable):
        return _check_external(results, reqs)
    raise SchemaError(f"cannot check compliance of {type(results).__name__}")


# ---------------------------------------------------------------------------
# file emission


def _kpi_key(result: RunResult, kpi) -> str:
    key = f"{result.config.environment.value}/{result.config.config_variant}/" \
          f"{kpi.direction or 'both'}/{kpi.metric}"
    if kpi.speed_kmh is not None:
        key += f"@{kpi.speed_kmh:g}kmh"
    return key


def emit(result: RunResult, report: ComplianceReport, out_dir) -> list:
    """Write manifest.json, kpi.json, compliance.csv and one CDF CSV per
    recorded metric. Deterministic: identical inputs give identical bytes."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    from . import __version__
    manifest = {
        "config_hash": config_hash(result.config),
        "master_seed": result.config.master_seed,
        "software_version": __version__,
        "environment": result.config.environment.value,
        "variant": result.config.config_variant,
        "drops_executed": result.drops_executed,
        "convergence_status": result.convergence_status,
        "stream_algorithm": STREAM_ALGORITHM,
        "mean_iot_db": _round(result.mean_iot_db),
        "calibrated_p0_dbm": _round(result.config.link.ul_p0_dbm),
        "kpis": {_kpi_key(result, k): {"value": _round(k.value), "unit": k.unit}
                 for k in result.kpis},
        "warnings": list(result.warnings),
    }
    path = os.path.join(out_dir, "manifest.json")
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(path)

    kpi_doc = {_kpi_key(result, k): {"value": _round(k.value), "unit": k.unit,
                                     "note": k.note} for k in result.kpis}
    path = os.path.join(out_dir, "kpi.json")
    _write_text(path, json.dumps(kpi_doc, indent=2, sort_keys=True) + "\n")
    written.append(path)

    path = os.path.join(out_dir, "compliance.csv")
    _write_text(path, report.to_csv_text())
    written.append(path)

    # one row per 0.1 percentile, 0.0 to 100.0
    pcts = np.arange(0.0, 100.05, 0.1)
    labels = [f"{pct:.1f}" for pct in pcts.tolist()]
    for name in sorted(result.cdfs):
        est = result.cdfs[name]
        if est.count == 0:
            continue
        path = os.path.join(out_dir, f"cdf_{name}.csv")
        values = est.quantiles(pcts / 100.0).tolist()
        _write_text(path, "metric,percentile,value\n" + "".join(
            [f"{name},{label},{value!r}\n" for label, value in zip(labels, values)]))
        written.append(path)
    return written


def _round(x):
    if x is None:
        return None
    x = float(x)
    if math.isnan(x):
        return None
    return float(f"{x:.12g}")


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
