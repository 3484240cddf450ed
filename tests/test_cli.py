"""Command-line surface: run, list-scenarios, check, dump-profile."""

import collections
import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest
from record_golden_bundles import cases

from imteval import cli, engine, geometry
from imteval.channel.profiles import builtin_profiles, load_profiles
from imteval.cli import main


class TestListScenarios:
    def test_lists_all_presets(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert out.count("variant A") == 5
        assert out.count("variant B") == 2  # mMTC and URLLC; eMBB has one variant
        assert "UrbanMacro_mMTC" in out


class TestRun:
    def test_mmtc_run_emits_bundle(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(["run", "--scenario", "UrbanMacro_mMTC", "--variant", "A",
                     "--drops", "3", "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert "connection_density" in captured.out
        assert code in (0, 1)  # pass/fail depends on the measured KPI
        names = set(os.listdir(out_dir))
        assert {"manifest.json", "kpi.json", "compliance.csv"} <= names
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["drops_executed"] == 3

    def test_seed_and_set_overrides(self, tmp_path):
        out_dir = tmp_path / "results"
        code = main(["run", "--scenario", "UrbanMacro_mMTC", "--drops", "2",
                     "--seed", "777", "--set", "run.duration_t=0.05",
                     "--out", str(out_dir)])
        assert code in (0, 1)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 777

    def test_thermal_noise_density_override_lowers_sinr(self, tmp_path):
        # -170 dBm/Hz lifts the noise floor by 4 dB in both directions and
        # leaves signal and interference alone
        def dump_sinr(name, *extra):
            out_dir = tmp_path / name
            main(["run", "--scenario", "IndoorHotspot_eMBB", "--drops", "1", "--sinr-only",
                  "--dump-sinr", "--out", str(out_dir), *extra])
            with open(out_dir / "sinr_drop0.csv") as fh:
                return list(csv.DictReader(fh))

        default = dump_sinr("default")
        raised = dump_sinr("raised", "--set", "scenario.thermal_noise_density=-170")
        assert len(raised) == len(default) > 0
        assert {row["direction"] for row in raised} == {"downlink", "uplink"}
        for old, new in zip(default, raised):
            assert (new["ue_id"], new["direction"]) == (old["ue_id"], old["direction"])
            signal, interference = float(new["signal_dbm"]), float(new["interference_dbm"])
            assert (signal, interference) == (float(old["signal_dbm"]),
                                              float(old["interference_dbm"]))
            noise = float(new["noise_dbm"])
            assert noise == pytest.approx(float(old["noise_dbm"]) + 4.0, abs=1e-9)
            expected = signal - 10.0 * math.log10(10.0 ** (interference / 10.0)
                                                  + 10.0 ** (noise / 10.0))
            assert float(new["sinr_db"]) == pytest.approx(expected, abs=1e-9)
            assert float(new["sinr_db"]) < float(old["sinr_db"])

    def test_dump_flags_write_csvs(self, tmp_path):
        out_dir = tmp_path / "results"
        main(["run", "--scenario", "UrbanMacro_mMTC", "--drops", "2", "--sinr-only",
              "--dump-geometry", "--dump-sinr", "--out", str(out_dir)])
        names = set(os.listdir(out_dir))
        assert "geometry_trxp.csv" in names
        assert "geometry_ues_drop0.csv" in names
        assert "sinr_drop0.csv" in names
        with open(out_dir / "sinr_drop0.csv") as fh:
            header = fh.readline().strip()
        assert header == "ue_id,direction,signal_dbm,interference_dbm,noise_dbm,sinr_db"

    def test_dump_sinr_is_drop0_of_the_calibrated_run(self, tmp_path):
        from dataclasses import replace
        from imteval import engine
        from imteval.geometry import build_layout
        from imteval.scenario import TestEnvironment, preset
        out_dir = tmp_path / "results"
        main(["run", "--scenario", "UrbanMacro_mMTC", "--drops", "1", "--dump-sinr",
              "--out", str(out_dir)])
        config = replace(preset(TestEnvironment.URBAN_MACRO_MMTC, "A"), drops=1)
        calibrated = engine.run(config, sinr_only=True).config
        assert calibrated.link.ul_p0_dbm != config.link.ul_p0_dbm
        drop = engine.run_drop(calibrated, build_layout(calibrated), 0, sinr_only=True)
        with open(out_dir / "sinr_drop0.csv") as fh:
            rows = [row for row in csv.DictReader(fh) if row["direction"] == "uplink"]
        for column, expected in (("signal_dbm", drop.ul_signal_dbm),
                                 ("interference_dbm", drop.ul_interf_dbm),
                                 ("sinr_db", drop.ul_sinr_db)):
            assert [float(row[column]) for row in rows] == expected.tolist()

    @pytest.mark.parametrize("argv, mapped", [
        (["run", "--scenario", "DenseUrban_eMBB", "--drops", "1", "--sinr-only",
          "--dump-geometry", "--dump-sinr"], {0: 1}),
        # the run's two drops, the search's three and the packet log's one
        (dict(cases())["UrbanMacro_mMTC/A/non_full_buffer/seed7"], {0: 3, 1: 2, 2: 1}),
    ])
    def test_dumps_write_the_runs_own_drop_0(self, tmp_path, monkeypatch, argv, mapped):
        """``--dump-geometry`` and ``--dump-sinr`` map no drop of their own:
        each drop is mapped once by each of the run, the density search's
        service and the packet log's service that holds it. Calibration
        probes are not counted."""
        link_stage = engine._link_stage
        counts = collections.Counter()

        def counting_link_stage(config, layout, drop_index, work):
            counts[drop_index] += 1
            return link_stage(config, layout, drop_index, work)

        monkeypatch.setattr(engine, "_link_stage", counting_link_stage)
        assert main(argv + ["--out", str(tmp_path / "results")]) in (0, 1)
        assert {d: n for d, n in counts.items() if d < engine._CALIBRATION_DROP_BASE} == mapped

    def test_non_full_buffer_packets_reuse_the_runs_layout_and_calibration(
            self, tmp_path, capsys, monkeypatch):
        calls = {"calibrate": 0, "layout_after_run": 0}
        run_returned = False
        real_run, real_calibrate = engine.run, engine.calibrate_ul_power
        real_build_layout = geometry.build_layout

        def counting_run(*args, **kwargs):
            nonlocal run_returned
            result = real_run(*args, **kwargs)
            run_returned = True
            return result

        def counting_calibrate(*args, **kwargs):
            calls["calibrate"] += 1
            return real_calibrate(*args, **kwargs)

        def counting_build_layout(*args, **kwargs):
            calls["layout_after_run"] += run_returned
            return real_build_layout(*args, **kwargs)

        monkeypatch.setattr(engine, "run", counting_run)
        monkeypatch.setattr(engine, "calibrate_ul_power", counting_calibrate)
        for module in (geometry, engine, cli):
            monkeypatch.setattr(module, "build_layout", counting_build_layout, raising=False)
        out_dir = tmp_path / "results"
        code = main(["run", "--scenario", "UrbanMacro_mMTC", "--drops", "2",
                     "--non-full-buffer", "--dump-packets", "--dump-geometry",
                     "--dump-sinr", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code in (0, 1)
        # the density search, the dumps and the packet log all reuse the run's
        assert calls == {"calibrate": 1, "layout_after_run": 0}
        density = next(line for line in out.splitlines()
                       if line.startswith("non-full-buffer connection density: "))
        assert "p99 delay" in density and "the 1,000,000 /km^2 requirement" in density
        assert (" meets " in density) != (" below " in density)
        with open(out_dir / "packets.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["drop", "cell", "arrival_s", "service_start_s", "completion_s",
                           "transmissions", "delivered"]
        assert f"wrote {out_dir}/packets.csv ({len(rows) - 1} messages" in out
        assert len(rows) > 1
        for drop, cell, arrival, start, completion, transmissions, delivered in rows[1:]:
            assert drop == "0" and int(cell) >= 0
            assert float(arrival) <= float(start) < float(completion)
            assert 1 <= int(transmissions) <= 8 and delivered in ("True", "False")

    @pytest.mark.parametrize("flags, named", [
        (["--scenario", "Rural_eMBB", "--non-full-buffer"], "--non-full-buffer"),
        (["--scenario", "Rural_eMBB", "--non-full-buffer", "--dump-packets"],
         "--non-full-buffer"),
        (["--scenario", "UrbanMacro_mMTC", "--dump-packets"], "--dump-packets"),
        (["--scenario", "Rural_eMBB", "--dump-packets"], "--dump-packets"),
        # the environment fixes the traffic model, so its key may not ask for messaging
        (["--scenario", "Rural_eMBB", "--set", "traffic.kind=PoissonMessaging",
          "--non-full-buffer"], "'traffic.kind'"),
    ])
    def test_ignored_flags_are_rejected_before_any_drop(self, tmp_path, capsys, monkeypatch,
                                                        flags, named):
        def no_drops(*args, **kwargs):
            raise AssertionError("a drop ran")

        monkeypatch.setattr(engine, "run_drop", no_drops)
        monkeypatch.setattr(engine, "_link_stage", no_drops)  # calibration probes too
        out_dir = tmp_path / "results"
        assert main(["run", *flags, "--drops", "1", "--sinr-only", "--out", str(out_dir)]) == 2
        assert named in capsys.readouterr().err
        assert not out_dir.exists()

    def test_requires_scenario_or_config(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        assert main(["run", "--drops", "2", "--out", str(out_dir)]) == 2
        assert "need --scenario or --config" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_config_file_route(self, tmp_path):
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text(
            "[scenario]\nenvironment = UrbanMacro_mMTC\nconfig_variant = A\n"
            "\n[run]\ndrops = 2\n")
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(cfg_file), "--out", str(out_dir)]) in (0, 1)

    def test_bare_override_file_on_named_scenario(self, tmp_path):
        # an overrides-only file (no environment key) rides on --scenario
        cfg_file = tmp_path / "overrides.cfg"
        cfg_file.write_text("[run]\ndrops = 2\n")
        out_dir = tmp_path / "results"
        code = main(["run", "--scenario", "UrbanMacro_mMTC", "--config", str(cfg_file),
                     "--out", str(out_dir)])
        assert code in (0, 1)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["drops_executed"] == 2


class TestLinkLayers:
    # a zero uplink count would divide the bandwidth by zero, and a negative
    # downlink count would schedule no one and fail the SE requirements
    @pytest.mark.parametrize("override", ["link.mu_layers_ul=0", "link.mu_layers_dl=-3"])
    def test_layer_count_below_one_is_a_usage_error(self, tmp_path, capsys, override):
        out_dir = tmp_path / "results"
        assert main(["run", "--scenario", "Rural_eMBB", "--drops", "2", "--set", override,
                     "--out", str(out_dir)]) == 2
        field = override.split("=")[0]
        assert f"'{field}'" in capsys.readouterr().err
        assert not out_dir.exists()


class TestRunFlagsValidated:
    # --drops and --seed used to bypass validation: a zero drop count ran
    # nothing and exited 0, a negative seed died in the seed sequence
    @pytest.mark.parametrize("flags, field", [
        (["--drops", "0"], "drops"),
        (["--drops", "-3"], "drops"),
        (["--drops", "1", "--seed", "-1"], "master_seed"),
        (["--drops", "1", "--set", "link.bler_floor=1.5"], "link.bler_floor"),
        (["--drops", "1", "--set", "antenna.bs.m=0"], "antenna.bs.m"),
    ])
    def test_out_of_range_is_a_usage_error(self, tmp_path, capsys, monkeypatch, flags, field):
        def no_drops(*args, **kwargs):
            raise AssertionError("a drop ran")

        monkeypatch.setattr(engine, "run_drop", no_drops)
        monkeypatch.setattr(engine, "_link_stage", no_drops)  # calibration probes too
        out_dir = tmp_path / "results"
        assert main(["run", "--scenario", "Rural_eMBB", *flags, "--out", str(out_dir)]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out_dir.exists()

    # a worker count below one used to run serially and exit 0
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_worker_count_below_one_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                     workers):
        def no_drops(*args, **kwargs):
            raise AssertionError("a drop ran")

        monkeypatch.setattr(engine, "run_drop", no_drops)
        monkeypatch.setattr(engine, "_link_stage", no_drops)  # calibration probes too
        out_dir = tmp_path / "results"
        assert main(["run", "--scenario", "Rural_eMBB", "--drops", "1", "--workers", workers,
                     "--out", str(out_dir)]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_flags_override_set(self, tmp_path):
        out_dir = tmp_path / "results"
        code = main(["run", "--scenario", "UrbanMacro_mMTC", "--set", "run.drops=5",
                     "--set", "run.master_seed=3", "--drops", "1", "--seed", "9",
                     "--sinr-only", "--out", str(out_dir)])
        assert code in (0, 1)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["drops_executed"] == 1
        assert manifest["master_seed"] == 9


class TestPinnedKeys:
    # a key that reaches no result on the environment may only repeat the
    # preset's value, whichever route sets it; so may a value out of range
    @pytest.mark.parametrize("env, override, field", [
        ("IndoorHotspot_eMBB", "scenario.isd=40", "isd"),
        ("Rural_eMBB", "scenario.ue_speed_outdoor=3", "ue_speed_outdoor"),
        ("UrbanMacro_mMTC", "link.mu_layers_dl=2", "link.mu_layers_dl"),
        ("Rural_eMBB", "antenna.bs.front_back=-30", "antenna.bs.front_back"),
        # the test environment fixes the traffic model, and with it the keys it reads
        ("UrbanMacro_mMTC", "traffic.kind=FullBuffer", "traffic.kind"),
        ("Rural_eMBB", "traffic.kind=PoissonMessaging", "traffic.kind"),
        ("Rural_eMBB", "traffic.overhead_s=5", "traffic.overhead_s"),
        ("Rural_eMBB", "link.bler_floor=0.5", "link.bler_floor"),
        ("UrbanMacro_URLLC", "link.se_max_dl=2", "link.se_max_dl"),
        ("UrbanMacro_mMTC", "link.mu_layers_ul=1", "link.mu_layers_ul"),
    ])
    @pytest.mark.parametrize("route", ["set", "config", "named_config"])
    def test_is_a_usage_error_on_every_route(self, tmp_path, capsys, monkeypatch, env,
                                             override, field, route):
        def no_drops(*args, **kwargs):
            raise AssertionError("a drop ran")

        monkeypatch.setattr(engine, "run_drop", no_drops)
        monkeypatch.setattr(engine, "_link_stage", no_drops)  # calibration probes too
        name, value = override.split("=")
        section, key = name.rsplit(".", 1)
        cfg = tmp_path / "pinned.cfg"
        head = f"[scenario]\nenvironment = {env}\n" if route == "named_config" else ""
        if section == "scenario" and head:
            cfg.write_text(f"{head}{key} = {value}\n")
        else:
            cfg.write_text(f"{head}[{section}]\n{key} = {value}\n")
        args = {"set": ["--scenario", env, "--set", override],
                "config": ["--scenario", env, "--config", str(cfg)],
                "named_config": ["--config", str(cfg)]}[route]
        out_dir = tmp_path / "results"
        assert main(["run", *args, "--drops", "1", "--out", str(out_dir)]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_preset_value_is_accepted(self, tmp_path):
        out_dir = tmp_path / "results"
        code = main(["run", "--scenario", "Rural_eMBB", "--set", "scenario.ue_speed_outdoor=120",
                     "--set", "antenna.bs.m=8", "--drops", "1", "--sinr-only",
                     "--out", str(out_dir)])
        assert code in (0, 1)
        assert (out_dir / "manifest.json").exists()


class TestVariantB:
    def test_set_may_not_relabel_the_preset(self, tmp_path, capsys):
        # mMTC B's 1732 m ISD would not follow the label
        assert main(["run", "--scenario", "UrbanMacro_mMTC", "--set", "config_variant=B",
                     "--drops", "1", "--out", str(tmp_path / "results")]) == 2
        assert "'config_variant'" in capsys.readouterr().err

    # the eMBB parameter tables define one variant; B would run A under B's label
    @pytest.mark.parametrize("env", ["IndoorHotspot_eMBB", "DenseUrban_eMBB", "Rural_eMBB"])
    @pytest.mark.parametrize("route", ["variant", "config", "set"])
    def test_embb_rejected_on_every_route(self, tmp_path, capsys, env, route):
        args = {
            "variant": ["--scenario", env, "--variant", "B"],
            "config": ["--config", str(tmp_path / "b.cfg")],
            "set": ["--scenario", env, "--set", "config_variant=B"],
        }[route]
        (tmp_path / "b.cfg").write_text(f"[scenario]\nenvironment = {env}\nconfig_variant = B\n")
        out_dir = tmp_path / "results"
        assert main(["run", *args, "--drops", "1", "--out", str(out_dir)]) == 2
        assert "'config_variant'" in capsys.readouterr().err
        assert not out_dir.exists()


class TestCheck:
    def test_builtin_fixtures_report_known_defects(self, capsys):
        code = main(["check", "--results", "builtin:fixtures"])
        out = capsys.readouterr().out
        # the two suspect source entries fail; everything else passes
        assert code == 1
        assert out.count("FAIL") == 2
        assert "suspect" in out

    def test_single_fixture_passes(self, tmp_path, capsys):
        from imteval.report import load_fixture
        # spectral efficiency fixture alone has no failing rows
        table_path = tmp_path / "se.csv"
        import importlib.resources as resources
        text = resources.files("imteval").joinpath(
            "data", "fixtures", "spectral_efficiency.csv").read_text()
        table_path.write_text(text)
        out_csv = tmp_path / "compliance.csv"
        code = main(["check", "--results", str(table_path), "--out", str(out_csv)])
        assert code == 0
        assert out_csv.exists()

    def test_requirements_file_round_trip(self, tmp_path):
        from imteval.report import save_requirements_csv
        from imteval.scenario import builtin_requirements
        req_path = tmp_path / "reqs.csv"
        save_requirements_csv(builtin_requirements(), req_path)
        code = main(["check", "--results", "builtin:fixtures",
                     "--requirements", str(req_path)])
        assert code == 1  # same verdicts as the builtin set

    @pytest.mark.parametrize("body", [
        "",  # empty file
        "Rural_eMBB,downlink,avg_se,3.3,bit/s/Hz/TRxP,II,\n",  # one cell short
        "Rural_eMBB,downlink,avg_se,high,bit/s/Hz/TRxP,II,,\n",  # non-numeric value
        "Rural_eMBB,downlink,avg_se,,bit/s/Hz/TRxP,II,,\n",  # blank value
        "Rural_eMBB,downlink,avg-se,1.0,bit/s/Hz/TRxP,II,,\n",  # misspelt metric
        "Rural_eMBB,down-link,avg_se,1.0,bit/s/Hz/TRxP,II,,\n",  # misspelt direction
    ], ids=["empty", "cell_count", "non_numeric", "blank_value", "metric_typo",
            "direction_typo"])
    def test_malformed_requirements_file_is_error(self, tmp_path, capsys, body):
        req_path = tmp_path / "reqs.csv"
        header = "environment,direction,metric,value,unit,source_table,speed_kmh,note\n"
        req_path.write_text(header + body if body else "")
        assert main(["check", "--results", "builtin:fixtures",
                     "--requirements", str(req_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_result_is_error(self, tmp_path):
        from imteval.report import _EXPECTED_HEADER
        table_path = tmp_path / "inf.csv"
        table_path.write_text(",".join(_EXPECTED_HEADER) + "\n"
                              "II,Rural_eMBB,downlink,avg_se,,,NR,,,,Acme,,inf,inf,"
                              "bit/s/Hz/TRxP,,,0,\n")
        assert main(["check", "--results", str(table_path)]) == 2

    def test_missing_file_is_error(self):
        assert main(["check", "--results", "/nonexistent/nope.csv"]) == 2


class TestDumpProfile:
    def test_known_profile(self, capsys):
        assert main(["dump-profile", "UMa_A"]) == 0
        out = capsys.readouterr().out
        assert "[UMa_A.los]" in out
        assert "n_clusters" in out

    def test_unknown_profile(self, capsys):
        assert main(["dump-profile", "Mars"]) == 2

    @pytest.mark.parametrize("name", sorted(builtin_profiles()))
    def test_output_loads_back_to_the_same_profile(self, tmp_path, capsys, name):
        assert main(["dump-profile", name]) == 0
        path = tmp_path / "profiles.ini"
        path.write_text(capsys.readouterr().out)
        loaded = load_profiles(path)
        assert list(loaded) == [name]
        got, want = loaded[name], builtin_profiles()[name]
        assert (got.name, got.plos_model, got.pen_low_db, got.pen_high_db) == \
            (want.name, want.plos_model, want.pen_low_db, want.pen_high_db)
        for cond in ("los", "nlos"):
            for f in dataclasses.fields(want.los):
                a, b = getattr(getattr(got, cond), f.name), getattr(getattr(want, cond), f.name)
                assert np.array_equal(a, b), (cond, f.name)
