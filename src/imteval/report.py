"""Compliance checking and result emission.

check_compliance compares either a simulation RunResult or an ingested
external result table against a RequirementSet, boundary-inclusive.
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
from dataclasses import dataclass
from importlib import resources

from .errors import SchemaError, UnknownRequirement
from .scenario import Requirement, RequirementSet, TestEnvironment, builtin_requirements
from .engine import RunResult

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


def parse_percent(text: str) -> float:
    """'99.9999%' -> 0.999999, rounded at 10 decimals."""
    cleaned = text.strip().lstrip(">").strip().rstrip("%")
    return round(float(cleaned) / 100.0, 10)


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
    source: str
    rows: list

    def evaluators(self):
        return sorted({r.evaluator for r in self.rows})

    def select(self, evaluator: str | None = None, suspect: bool | None = None):
        out = self.rows
        if evaluator is not None:
            out = [r for r in out if r.evaluator == evaluator]
        if suspect is not None:
            out = [r for r in out if r.suspect == suspect]
        return out


_EXPECTED_HEADER = [
    "table", "environment", "direction", "metric", "channel_condition",
    "speed_kmh", "rit", "antenna_config", "tx_scheme", "numerology",
    "evaluator", "requirement", "value_raw", "value", "unit",
    "bandwidth_khz", "qualifier", "suspect", "note",
]


def _opt_float(text: str, line: int, column: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError as exc:
        raise SchemaError(f"line {line}: column '{column}' is not numeric: '{text}'") from exc


def ingest_table(path=None, text: str | None = None, source: str = "") -> ExternalResultTable:
    """Load an external result table CSV under the documented schema."""
    if text is None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        source = source or os.path.basename(str(path))
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file: missing header")
    if header != _EXPECTED_HEADER:
        raise SchemaError(f"unexpected header {header}; expected {_EXPECTED_HEADER}")
    rows = []
    for lineno, cells in enumerate(reader, start=2):
        if not cells or all(c == "" for c in cells):
            continue
        if len(cells) != len(_EXPECTED_HEADER):
            raise SchemaError(f"line {lineno}: expected {len(_EXPECTED_HEADER)} cells, got {len(cells)}")
        rec = dict(zip(_EXPECTED_HEADER, cells))
        if rec["metric"] not in _KNOWN_METRICS:
            raise SchemaError(f"line {lineno}: unknown metric '{rec['metric']}'")
        value = _opt_float(rec["value"], lineno, "value")
        if value is not None and value < 0:
            raise SchemaError(f"line {lineno}: negative value {value}")
        rows.append(ExternalRow(
            table=rec["table"],
            environment=rec["environment"],
            direction=rec["direction"],
            metric=rec["metric"],
            channel_condition=rec["channel_condition"],
            speed_kmh=_opt_float(rec["speed_kmh"], lineno, "speed_kmh"),
            rit=rec["rit"],
            antenna_config=rec["antenna_config"],
            tx_scheme=rec["tx_scheme"],
            numerology=rec["numerology"],
            evaluator=rec["evaluator"],
            requirement=_opt_float(rec["requirement"], lineno, "requirement"),
            value_raw=rec["value_raw"],
            value=value,
            unit=rec["unit"],
            bandwidth_khz=_opt_float(rec["bandwidth_khz"], lineno, "bandwidth_khz"),
            qualifier=rec["qualifier"],
            suspect=rec["suspect"] == "1",
            note=rec["note"],
        ))
    return ExternalResultTable(source=source, rows=rows)


def load_fixture(name: str) -> ExternalResultTable:
    """One of the digitized vendor-result fixtures shipped with the package."""
    if name not in FIXTURE_FILES:
        raise SchemaError(f"unknown fixture '{name}'; available: {FIXTURE_FILES}")
    text = resources.files("imteval").joinpath("data", "fixtures", name).read_text()
    return ingest_table(text=text, source=name)


def load_all_fixtures() -> ExternalResultTable:
    rows = []
    for name in FIXTURE_FILES:
        rows.extend(load_fixture(name).rows)
    return ExternalResultTable(source="builtin fixtures", rows=rows)


# ---------------------------------------------------------------------------
# requirement CSV round-trip


_REQ_HEADER = ["environment", "direction", "metric", "value", "unit",
               "source_table", "speed_kmh", "note"]


def save_requirements_csv(reqs: RequirementSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REQ_HEADER)
        for r in reqs.rows:
            writer.writerow([
                r.environment.value, r.direction or "", r.metric, repr(r.value),
                r.unit, r.source_table,
                "" if r.speed_kmh is None else repr(r.speed_kmh), r.note,
            ])


def load_requirements_csv(path=None, text: str | None = None) -> RequirementSet:
    if text is None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != _REQ_HEADER:
        raise SchemaError(f"unexpected requirements header {header}")
    rows = []
    for lineno, cells in enumerate(reader, start=2):
        if not cells or all(c == "" for c in cells):
            continue
        rec = dict(zip(_REQ_HEADER, cells))
        rows.append(Requirement(
            environment=TestEnvironment.parse(rec["environment"]),
            direction=rec["direction"] or None,
            metric=rec["metric"],
            value=float(rec["value"]),
            unit=rec["unit"],
            source_table=rec["source_table"],
            speed_kmh=float(rec["speed_kmh"]) if rec["speed_kmh"] else None,
            note=rec["note"],
        ))
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


def _check_run_result(result: RunResult, reqs: RequirementSet) -> ComplianceReport:
    rows = []
    env = result.config.environment
    variant = result.config.config_variant
    covered = set()
    for kpi in result.kpis:
        try:
            req = reqs.lookup(env, kpi.direction, kpi.metric, kpi.speed_kmh)
        except UnknownRequirement:
            continue  # informational KPI without a requirement row
        covered.add(id(req))
        footnotes = kpi.note
        if kpi.metric == "connection_density":
            footnotes = (footnotes + "; " if footnotes else "") + \
                "link abstraction and multiplexing model are configuration, not measured hardware"
        rows.append(ComplianceRow(
            environment=env.value, variant=variant, direction=kpi.direction or "",
            metric=kpi.metric, speed_kmh=kpi.speed_kmh,
            requirement=req.value, measured=kpi.value,
            passed=bool(kpi.value >= req.value),
            source_table=req.source_table, footnotes=footnotes,
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
        if requirement is None and r.metric != "snr_margin":
            try:
                env = TestEnvironment.parse(r.environment)
                scale = _UNIT_SCALE_TO_BASE.get((r.metric, r.unit), 1.0)
                builtin = reqs.lookup(env, r.direction or None, r.metric, r.speed_kmh)
                requirement = builtin.value / scale
                source = builtin.source_table
            except UnknownRequirement:
                requirement = None
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
        passed = None if requirement is None else bool(r.value >= requirement)
        foot = r.note
        if r.suspect:
            foot = (foot + "; " if foot else "") + "suspect source entry"
        if r.qualifier:
            foot = (foot + "; " if foot else "") + f"reported as '{r.qualifier}{r.value_raw}'"
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
        "config_hash": result.config_digest,
        "master_seed": result.master_seed,
        "software_version": __version__,
        "environment": result.config.environment.value,
        "variant": result.config.config_variant,
        "drops_executed": result.drops_executed,
        "convergence_status": result.convergence_status,
        "stream_algorithm": result.stream_algorithm,
        "mean_iot_db": _round(result.mean_iot_db),
        "calibrated_p0_dbm": _round(result.calibrated_p0_dbm),
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

    for name in sorted(result.cdfs):
        est = result.cdfs[name]
        if est.count == 0:
            continue
        path = os.path.join(out_dir, f"cdf_{name}.csv")
        buf = io.StringIO()
        buf.write("metric,percentile,value\n")
        for pct, value in est.percentile_rows(0.1):
            buf.write(f"{name},{pct:.1f},{value!r}\n")
        _write_text(path, buf.getvalue())
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
