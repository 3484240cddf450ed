"""Command-line entry points.

    simulate run --scenario <name> --variant A|B [--config file] [--drops N]
                 [--seed S] [--out dir] [--set key=value] ...
    simulate list-scenarios
    simulate check --results <csv|builtin:fixtures> [--requirements builtin|file]
    simulate dump-profile <name>

Exit codes: 0 all checks pass, 1 at least one fail, 2 usage or runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import engine, report
from .channel.profiles import get_profile, profile_to_text
from .errors import ImtEvalError
from .geometry import export_layout_csv
from .scenario import (
    UPLINK,
    TestEnvironment,
    builtin_requirements,
    list_presets,
    load_config,
    preset,
    validate,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simulate",
                                     description="Drop-based system-level evaluator for "
                                                 "candidate radio configurations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and emit results")
    p_run.add_argument("--scenario", help="test environment name")
    p_run.add_argument("--variant", default="A", choices=("A", "B"))
    p_run.add_argument("--config", help="config file with overrides")
    p_run.add_argument("--drops", type=int, help="override drop count")
    p_run.add_argument("--seed", type=int, help="override master seed")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="single-field override, repeatable")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--sinr-only", action="store_true",
                       help="skip scheduling; record SINR statistics only")
    p_run.add_argument("--early-stop", action="store_true",
                       help="stop when the running mean converges")
    p_run.add_argument("--non-full-buffer", action="store_true",
                       help="also run the message-based connection density search")
    p_run.add_argument("--dump-geometry", action="store_true")
    p_run.add_argument("--dump-sinr", action="store_true")
    p_run.add_argument("--dump-packets", action="store_true",
                       help="with --non-full-buffer: write the per-message log "
                            "at the requirement density")

    sub.add_parser("list-scenarios", help="list presets and their provenance")

    p_check = sub.add_parser("check", help="check results against the requirement set")
    p_check.add_argument("--results", required=True,
                         help="external result CSV, or 'builtin:fixtures'")
    p_check.add_argument("--requirements", default="builtin",
                         help="'builtin' or a requirements CSV path")
    p_check.add_argument("--out")

    p_dump = sub.add_parser("dump-profile", help="print a channel profile in profiles.ini form")
    p_dump.add_argument("name")
    return parser


def _overrides_to_text(pairs) -> str:
    sections: dict[str, list[str]] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ImtEvalError(f"--set needs SECTION.KEY=VALUE, got '{pair}'")
        key, value = pair.split("=", 1)
        section, _, key = key.rpartition(".")
        sections.setdefault(section or "scenario", []).append(f"{key} = {value}\n")
    return "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())


def _cmd_run(args) -> int:
    if args.dump_packets and not args.non_full_buffer:
        print("error: --dump-packets needs --non-full-buffer", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"error: --workers must be at least 1, got {args.workers}", file=sys.stderr)
        return 2
    if not (args.scenario or args.config):
        print("error: need --scenario or --config", file=sys.stderr)
        return 2
    config = preset(TestEnvironment.parse(args.scenario), args.variant) if args.scenario else None
    if args.config:
        config = load_config(args.config, base=config)
    if args.set:
        text = _overrides_to_text(args.set)
        config = load_config(text=text, base=config)
    # the flags override any --set run.* value and are range-checked alike
    flags = {"drops": args.drops, "master_seed": args.seed}
    config = validate(replace(config, **{k: v for k, v in flags.items() if v is not None}))
    if args.non_full_buffer and config.environment is not TestEnvironment.URBAN_MACRO_MMTC:
        print(f"error: --non-full-buffer needs {TestEnvironment.URBAN_MACRO_MMTC.value}, "
              f"not {config.environment.value}", file=sys.stderr)
        return 2

    reqs = builtin_requirements()
    result = engine.run(config, workers=args.workers, sinr_only=args.sinr_only,
                        early_stop=args.early_stop)
    compliance = report.check_compliance(result, reqs)
    files = report.emit(result, compliance, args.out)
    # result.config carries the calibrated uplink P0 the run used
    config, layout = result.config, result.layout

    dumps = args.dump_geometry or args.dump_sinr
    drop0 = engine.run_drop(config, layout, 0, sinr_only=True) if dumps else None
    if args.non_full_buffer:
        search, _ = engine.density_search(config, layout=layout)
        density = engine.KpiValue("connection_density", UPLINK, search.density_per_km2, "/km^2")
        req, met = report.judge(density, config.environment, reqs)
        print(f"non-full-buffer connection density: {search.density_per_km2:,.0f} /km^2 "
              f"(p99 delay {search.delay_p99_s:.3f} s, "
              f"{'meets' if met else 'below'} the {req.value:,.0f} /km^2 requirement; "
              f"P0 {config.link.ul_p0_dbm:.1f} dBm)")
        if not search.monotone:
            print(f"  delay vs density non-monotone; bracket {search.bracket}")
        if args.dump_packets:
            records = []
            engine.evaluate_p99_delay(engine.MessageService(config, layout, 1), req.value,
                                      record_sink=records)
            path = f"{args.out}/packets.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("drop,cell,arrival_s,service_start_s,completion_s,"
                         "transmissions,delivered\n")
                for row in records:
                    fh.write(",".join(str(x) for x in row) + "\n")
            print(f"wrote {path} ({len(records)} messages at {req.value:,.0f} /km^2)")

    if args.dump_geometry:
        export_layout_csv(layout, f"{args.out}/geometry_trxp.csv")
        _dump_ues(drop0, f"{args.out}/geometry_ues_drop0.csv")
    if args.dump_sinr:
        _dump_sinr(drop0, f"{args.out}/sinr_drop0.csv")

    for kpi in result.kpis:
        speed = f" @{kpi.speed_kmh:g} km/h" if kpi.speed_kmh is not None else ""
        direction = kpi.direction or "both"
        print(f"{kpi.metric}{speed} [{direction}]: {kpi.value:.6g} {kpi.unit}")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {len(files)} files to {args.out}")
    return 0 if compliance.all_pass else 1


def _dump_ues(drop, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("drop,ue_id,x_m,y_m,z_m,indoor,serving_trxp\n")
        for i, pos in enumerate(drop.ue_positions):
            fh.write(f"{drop.drop_index},{i},{pos[0]:.3f},{pos[1]:.3f},{pos[2]:.3f},"
                     f"{int(drop.ue_indoor[i])},{drop.serving[i]}\n")


def _dump_sinr(drop, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ue_id,direction,signal_dbm,interference_dbm,noise_dbm,sinr_db\n")
        for direction, signal, interference, noise, sinr in (
                ("downlink", drop.dl_signal_dbm, drop.dl_interf_dbm, drop.dl_noise_dbm,
                 drop.dl_sinr_db),
                ("uplink", drop.ul_signal_dbm, drop.ul_interf_dbm, drop.ul_noise_dbm,
                 drop.ul_sinr_db)):
            for i, (sig, itf, snr) in enumerate(zip(signal.tolist(), interference.tolist(),
                                                    sinr.tolist())):
                fh.write(f"{i},{direction},{sig!r},{itf!r},{float(noise)!r},{snr!r}\n")


def _cmd_list(_args) -> int:
    for env, variant, source in list_presets():
        print(f"{env.value:24s} variant {variant}: {source}")
    return 0


def _cmd_check(args) -> int:
    reqs = builtin_requirements() if args.requirements == "builtin" \
        else report.load_requirements_csv(args.requirements)
    if args.results == "builtin:fixtures":
        table = report.load_all_fixtures()
    else:
        table = report.ingest_table(args.results)
    compliance = report.check_compliance(table, reqs)
    decided = [r for r in compliance.rows if r.passed is not None]
    print(f"{len(compliance.rows)} rows, {len(decided)} decided, "
          f"{len(compliance.failures())} failed")
    for row in compliance.failures():
        print(f"FAIL {row.evaluator} {row.environment} {row.direction} {row.metric}: "
              f"{row.measured} < {row.requirement} ({row.footnotes})")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(compliance.to_csv_text())
        print(f"wrote {args.out}")
    return 0 if compliance.all_pass else 1


def _cmd_dump_profile(args) -> int:
    print(profile_to_text(get_profile(args.name)), end="")
    return 0


_COMMANDS = {"run": _cmd_run, "list-scenarios": _cmd_list, "check": _cmd_check,
             "dump-profile": _cmd_dump_profile}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ImtEvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
