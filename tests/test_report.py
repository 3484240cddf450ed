"""Fixture ingestion, compliance checking and deterministic file emission."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from imteval.engine import STREAM_ALGORITHM, KpiValue, run
from imteval.errors import InternalError, SchemaError, UnknownRequirement
from imteval.report import (
    ComplianceReport,
    check_compliance,
    emit,
    ingest_table,
    judge,
    load_all_fixtures,
    load_fixture,
    load_requirements_csv,
    save_requirements_csv,
)
from imteval.scenario import (DOWNLINK, UPLINK, RequirementSet, TestEnvironment,
                              builtin_requirements, config_hash, preset)

HEADER = ("table,environment,direction,metric,channel_condition,speed_kmh,rit,"
          "antenna_config,tx_scheme,numerology,evaluator,requirement,value_raw,"
          "value,unit,bandwidth_khz,qualifier,suspect,note")


class _FailingLookup(RequirementSet):
    """Builtin rows whose lookup breaks with an error other than UnknownRequirement."""

    def lookup(self, *args, **kwargs):
        raise ValueError("corrupt requirement row")


def _failing_requirements():
    return _FailingLookup(rows=builtin_requirements().rows)


class TestIngest:
    def test_fixture_counts(self):
        assert len(load_fixture("connection_density.csv").rows) == 35
        assert len(load_fixture("reliability.csv").rows) == 46
        assert len(load_fixture("spectral_efficiency.csv").rows) == 70
        assert len(load_fixture("mobility.csv").rows) == 31
        assert len(load_fixture("data_rate.csv").rows) == 6

    def test_toronto_nbiot_row_value(self):
        table = load_fixture("connection_density.csv")
        rows = [r for r in table.rows
                if r.table == "X" and r.rit == "NB-IoT" and r.evaluator == "Univ of Toronto"]
        assert len(rows) == 1
        assert rows[0].value == 2_314_259.0
        assert rows[0].bandwidth_khz == 180.0

    def test_empty_csv_with_header(self):
        table = ingest_table(text=HEADER + "\n")
        assert table.rows == []

    def test_bad_header_rejected(self):
        with pytest.raises(SchemaError):
            ingest_table(text="a,b,c\n1,2,3\n")

    def test_malformed_row_names_line(self):
        bad = HEADER + "\nX,UrbanMacro_mMTC,uplink,connection_density,,,NR,,,,Acme,1000000,1e6,not-a-number,/km^2,,,0,\n"
        with pytest.raises(SchemaError) as err:
            ingest_table(text=bad)
        assert "line 2" in str(err.value)

    def test_errors_name_the_physical_line_after_a_multiline_cell(self):
        good = ('X,UrbanMacro_mMTC,uplink,connection_density,,,NR,,,,Acme,1000000,1e6,1e6,'
                '/km^2,,,0,"two\nlines"')
        bad = ("X,UrbanMacro_mMTC,uplink,connection_density,,,NR,,,,Acme,1000000,1e6,"
               "not-a-number,/km^2,,,0,")
        with pytest.raises(SchemaError, match="line 4: column 'value'"):
            ingest_table(text=HEADER + "\n" + good + "\n" + bad + "\n")
        # a record spanning lines is named by the line it starts on
        with pytest.raises(SchemaError, match="line 2: column 'value'"):
            ingest_table(text=HEADER + "\n" + bad + '"two\nlines"\n')

    @pytest.mark.parametrize("column,row", [
        ("value", "X,UrbanMacro_mMTC,uplink,connection_density,,,NR,,,,Acme,1000000,inf,inf,/km^2,,,0,"),
        ("value", "II,Rural_eMBB,downlink,avg_se,,,NR,,,,Acme,,nan,nan,bit/s/Hz/TRxP,,,0,"),
        ("requirement", "II,Rural_eMBB,downlink,avg_se,,,NR,,,,Acme,-inf,4,4,bit/s/Hz/TRxP,,,0,"),
        ("speed_kmh", "VI,Rural_eMBB,uplink,mobility_rate,,Infinity,NR,,,,Acme,,1,1,bit/s/Hz,,,0,"),
    ], ids=["inf_value", "nan_value", "minus_inf_requirement", "infinity_speed"])
    def test_non_finite_number_rejected(self, column, row):
        with pytest.raises(SchemaError, match=f"line 2: column '{column}' is not finite"):
            ingest_table(text=HEADER + "\n" + row + "\n")

    # any cell but "1" used to read as "not suspect", dropping the footnote
    @pytest.mark.parametrize("flag", ["yes", "true", "TRUE", ""])
    def test_suspect_flag_other_than_0_or_1_rejected(self, flag):
        row = f"X,UrbanMacro_mMTC,uplink,connection_density,,,NR,,,,Acme,1000000,1e6,1e6,/km^2,,,{flag},"
        with pytest.raises(SchemaError, match="line 2: column 'suspect'"):
            ingest_table(text=HEADER + "\n" + row + "\n")

    # a misspelled direction used to match no requirement row, leaving the row undecided
    @pytest.mark.parametrize("direction", ["DL", "Uplink", "up", " downlink"])
    def test_direction_other_than_blank_downlink_or_uplink_rejected(self, direction):
        row = f"II,Rural_eMBB,{direction},avg_se,,,NR,,,,Acme,,2.0,2.0,bit/s/Hz/TRxP,,,0,"
        with pytest.raises(SchemaError, match="line 2: column 'direction'"):
            ingest_table(text=HEADER + "\n" + row + "\n")

    def test_unknown_metric_rejected(self):
        bad = HEADER + "\nX,UrbanMacro_mMTC,uplink,frobnication,,,NR,,,,Acme,1,1,1.0,,,,0,\n"
        with pytest.raises(SchemaError):
            ingest_table(text=bad)

    def test_requirements_round_trip_matches_builtin(self, tmp_path):
        reqs = builtin_requirements()
        path = tmp_path / "requirements.csv"
        save_requirements_csv(reqs, path)
        reloaded = load_requirements_csv(path)
        assert reloaded == reqs


class TestComplianceExternal:
    def test_indoor_hotspot_rows_pass(self):
        table = load_fixture("spectral_efficiency.csv")
        report = check_compliance(table)
        toronto = [r for r in report.rows
                   if r.evaluator == "Univ of Toronto" and r.source_table == "XII"]
        avg = [r for r in toronto if r.metric == "avg_se"]
        p5 = [r for r in toronto if r.metric == "pct5_se"]
        assert {r.measured for r in avg} == {9.812, 11.122, 10.109}
        assert all(r.passed for r in avg)  # 9.812 >= 9 and friends
        assert 0.359 in {r.measured for r in p5}
        assert all(r.passed for r in p5)  # 0.359 >= 0.3 and friends

    def test_connection_density_rows_pass(self):
        report = check_compliance(load_fixture("connection_density.csv"))
        decided = [r for r in report.rows if r.passed is not None]
        assert decided and all(r.passed for r in decided)  # incl. 2,314,259 >= 1e6

    def test_below_threshold_flips_to_fail(self):
        table = load_fixture("spectral_efficiency.csv")
        row = next(r for r in table.rows
                   if r.evaluator == "Univ of Toronto" and r.value == 9.812)
        edited = dataclasses.replace(row, value=8.999)
        report = check_compliance(type(table)(rows=[edited]))
        assert report.rows[0].passed is False

    def test_measured_just_below_requirement_fails(self):
        text = HEADER + "\nI,IndoorHotspot_eMBB,downlink,pct5_se,,,NR,,,,Acme,0.3,0.29,0.29,bit/s/Hz,,,0,\n"
        report = check_compliance(ingest_table(text=text))
        assert report.rows[0].passed is False

    def test_all_nonsuspect_toronto_rows_pass(self):
        # the source's own conclusion: every University of Toronto value
        # meets its requirement; the one counterexample is printed suspect
        table = load_all_fixtures()
        report = check_compliance(table)
        toronto = [r for r in report.rows if r.evaluator == "Univ of Toronto"]
        assert len(toronto) >= 40
        clean = [r for r in toronto if "suspect" not in r.footnotes and r.passed is not None]
        assert clean and all(r.passed for r in clean)
        flagged = [r for r in toronto if "suspect" in r.footnotes]
        assert len(flagged) == 1  # the below-requirement mobility entry
        assert flagged[0].passed is False

    def test_known_suspect_entries_flagged(self):
        report = check_compliance(load_fixture("reliability.csv"))
        bad = [r for r in report.rows if r.passed is False]
        assert len(bad) == 1
        assert bad[0].evaluator == "Nokia"
        assert "suspect" in bad[0].footnotes
        stray = [r for r in report.rows if r.measured is None and "stray" in r.footnotes]
        assert len(stray) == 6

    def test_lookup_errors_propagate(self):
        # only a missing requirement makes a row informational; this row
        # leaves its requirement blank, so the builtin one is looked up
        text = HEADER + "\nI,IndoorHotspot_eMBB,downlink,pct5_se,,,NR,,,,Acme,,0.29,0.29,bit/s/Hz,,,0,\n"
        table = ingest_table(text=text)
        assert check_compliance(table).rows[0].requirement == 0.3
        with pytest.raises(ValueError, match="corrupt requirement row"):
            check_compliance(table, _failing_requirements())

    def test_blank_direction_is_not_judged_against_the_downlink_row(self):
        # Rural eMBB avg_se needs 3.3 downlink and 1.6 uplink: 2.0 with no
        # direction matches both rows, so it stays undecided and says why
        text = HEADER + "\nII,Rural_eMBB,,avg_se,,,NR,,,,Acme,,2.0,2.0,bit/s/Hz/TRxP,,,0,\n"
        row = check_compliance(ingest_table(text=text)).rows[0]
        assert row.passed is None and row.requirement is None
        assert "2 requirement rows match (Rural_eMBB, None, avg_se" in row.footnotes

    def test_report_is_pure_function(self):
        table = load_fixture("mobility.csv")
        a = check_compliance(table).to_csv_text()
        b = check_compliance(table).to_csv_text()
        assert a == b


class TestLookup:
    def test_more_than_one_matching_row_is_unknown(self):
        reqs = builtin_requirements()
        with pytest.raises(UnknownRequirement, match="2 requirement rows match"):
            reqs.lookup(TestEnvironment.RURAL_EMBB, None, "avg_se")
        row = reqs.lookup(TestEnvironment.RURAL_EMBB, UPLINK, "avg_se")
        assert row.value == 1.6
        duplicated = RequirementSet(reqs.rows + (row,))
        with pytest.raises(UnknownRequirement, match="2 requirement rows match"):
            duplicated.lookup(TestEnvironment.RURAL_EMBB, UPLINK, "avg_se")


class TestJudge:
    # (environment, KPI at exactly its requirement row's value)
    BOUNDARY = [
        (TestEnvironment.URBAN_MACRO_URLLC, KpiValue("reliability", DOWNLINK, 0.99999, "probability")),
        (TestEnvironment.RURAL_EMBB,
         KpiValue("mobility_rate", UPLINK, 0.8, "bit/s/Hz", speed_kmh=120.0)),
        (TestEnvironment.RURAL_EMBB,
         KpiValue("mobility_rate", UPLINK, 0.45, "bit/s/Hz", speed_kmh=500.0)),
        (TestEnvironment.URBAN_MACRO_MMTC,
         KpiValue("connection_density", UPLINK, 1_000_000.0, "/km^2")),
    ]
    IDS = ["reliability", "mobility_120kmh", "mobility_500kmh", "connection_density"]

    @pytest.mark.parametrize("env,kpi", BOUNDARY, ids=IDS)
    def test_value_at_the_requirement_passes(self, env, kpi):
        req, passed = judge(kpi, env, builtin_requirements())
        assert (req.value, passed) == (kpi.value, True)

    @pytest.mark.parametrize("env,kpi", BOUNDARY, ids=IDS)
    def test_value_just_below_fails(self, env, kpi):
        below = dataclasses.replace(kpi, value=math.nextafter(kpi.value, 0.0))
        assert judge(below, env, builtin_requirements())[1] is False

    def test_two_attempt_reliability_fails(self):
        kpi = KpiValue("reliability", UPLINK, 0.9999, "probability")
        assert judge(kpi, TestEnvironment.URBAN_MACRO_URLLC, builtin_requirements())[1] is False

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_internal_error(self, bad):
        kpi = KpiValue("connection_density", UPLINK, bad, "/km^2")
        with pytest.raises(InternalError, match="connection_density"):
            judge(kpi, TestEnvironment.URBAN_MACRO_MMTC, builtin_requirements())

    def test_kpi_without_a_row_is_unknown(self):
        kpi = KpiValue("connection_density", UPLINK, 2e6, "/km^2")
        with pytest.raises(UnknownRequirement):
            judge(kpi, TestEnvironment.RURAL_EMBB, builtin_requirements())


@pytest.fixture(scope="module")
def mmtc_result():
    cfg = dataclasses.replace(preset(TestEnvironment.URBAN_MACRO_MMTC, "A"), drops=3)
    return run(cfg)


@pytest.fixture(scope="module")
def result_and_report(mmtc_result):
    return mmtc_result, check_compliance(mmtc_result)


class TestComplianceRunResult:
    def test_run_result_rows(self, mmtc_result):
        report = check_compliance(mmtc_result)
        cd = [r for r in report.rows if r.metric == "connection_density"]
        assert len(cd) == 1
        assert cd[0].requirement == 1_000_000.0
        assert cd[0].passed is (cd[0].measured >= 1_000_000.0)
        assert cd[0].source_table == "II.C.2"

    def test_lookup_errors_propagate(self, mmtc_result):
        with pytest.raises(ValueError, match="corrupt requirement row"):
            check_compliance(mmtc_result, _failing_requirements())

    def test_kpi_without_a_requirement_row_is_kept_unjudged(self, mmtc_result):
        """A KPI the table has no row for stays in the report with blank
        requirement and pass, and the lookup error as its footnote."""
        kpi, = (k for k in mmtc_result.kpis if k.metric == "connection_density")
        reqs = builtin_requirements()
        missing = reqs.lookup(TestEnvironment.URBAN_MACRO_MMTC, kpi.direction, kpi.metric)
        report = check_compliance(
            mmtc_result, RequirementSet(tuple(r for r in reqs.rows if r is not missing)))
        row, = (r for r in report.rows if r.metric == "connection_density")
        assert (row.requirement, row.passed, row.measured) == (None, None, kpi.value)
        assert row.source_table == ""
        assert ("no requirement row for (UrbanMacro_mMTC, uplink, connection_density, "
                "speed=None)") in row.footnotes
        csv_row = next(line for line in report.to_csv_text().splitlines()
                       if ",connection_density," in line).split(",")
        assert csv_row[5] == "" and csv_row[7] == ""  # requirement, pass

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_kpi_is_internal_error(self, mmtc_result, bad):
        kpis = [dataclasses.replace(k, value=bad) if k.metric == "connection_density" else k
                for k in mmtc_result.kpis]
        broken = dataclasses.replace(mmtc_result, kpis=kpis)
        with pytest.raises(InternalError, match="connection_density"):
            check_compliance(broken)

    def test_boundary_inclusive(self, mmtc_result):
        report = check_compliance(mmtc_result)
        for row in report.rows:
            if row.passed is not None and row.measured is not None:
                assert row.passed == (row.measured >= row.requirement)


class TestEmit:
    def test_file_set(self, result_and_report, tmp_path):
        result, report = result_and_report
        files = emit(result, report, tmp_path)
        names = sorted(os.path.basename(f) for f in files)
        assert "manifest.json" in names
        assert "kpi.json" in names
        assert "compliance.csv" in names
        assert any(n.startswith("cdf_") for n in names)

    def test_exact_file_set_for_sinr_only_run(self, tmp_path):
        cfg = dataclasses.replace(preset(TestEnvironment.URBAN_MACRO_URLLC, "B"), drops=2)
        result = run(cfg, sinr_only=True)
        files = emit(result, check_compliance(result), tmp_path / "s")
        names = {os.path.basename(f) for f in files}
        assert names == {"manifest.json", "kpi.json", "compliance.csv",
                         "cdf_dl_sinr_db.csv", "cdf_ul_sinr_db.csv"}

    def test_full_buffer_urllc_writes_no_downlink_throughput_cdfs(self, tmp_path):
        # URLLC full buffer schedules the uplink only
        cfg = dataclasses.replace(preset(TestEnvironment.URBAN_MACRO_URLLC, "B"), drops=2)
        result = run(cfg)
        files = emit(result, check_compliance(result), tmp_path / "u")
        names = {os.path.basename(f) for f in files}
        assert not any(n.startswith("cdf_dl_user_") for n in names)
        assert {"cdf_dl_sinr_db.csv", "cdf_ul_user_se.csv",
                "cdf_ul_user_tput_bps.csv"} <= names
        assert sorted(os.listdir(tmp_path / "u")) == sorted(names)

    def test_rerun_is_byte_identical(self, result_and_report, tmp_path):
        result, report = result_and_report
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        files_a = emit(result, report, out_a)
        files_b = emit(result, report, out_b)
        for fa, fb in zip(files_a, files_b):
            with open(fa, "rb") as ha, open(fb, "rb") as hb:
                assert ha.read() == hb.read()

    def test_manifest_contents(self, result_and_report, tmp_path):
        result, report = result_and_report
        emit(result, report, tmp_path / "m")
        with open(tmp_path / "m" / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["config_hash"] == config_hash(result.config)
        assert manifest["master_seed"] == result.config.master_seed
        assert manifest["calibrated_p0_dbm"] == pytest.approx(result.config.link.ul_p0_dbm, abs=1e-9)
        assert manifest["stream_algorithm"] == STREAM_ALGORITHM
        assert "software_version" in manifest
        assert manifest["kpis"]

    def test_cdf_rows_non_decreasing(self, result_and_report, tmp_path):
        result, report = result_and_report
        files = emit(result, report, tmp_path / "c")
        cdf_files = [f for f in files if os.path.basename(f).startswith("cdf_")]
        assert cdf_files
        for path in cdf_files:
            values = []
            with open(path) as fh:
                next(fh)
                for line in fh:
                    values.append(float(line.strip().split(",")[2]))
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
