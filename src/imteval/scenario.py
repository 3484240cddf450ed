"""Test-environment presets, requirement tables, and config-file handling.

Configs are immutable after validation and safe to share across drop
workers. The config file format is a sectioned key-value text
(``[scenario]``, ``[antenna.bs]``, ``[antenna.ue]``, ``[traffic]``,
``[run]``, ``[link]``) whose keys are the fields of EvaluationConfig and
its nested dataclasses, so presets can be diffed and overridden file-side.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
import numbers
import typing
from dataclasses import dataclass, replace
from enum import Enum

from .antenna import ArrayConfig, ElementPattern
from .errors import ConfigInvalid, ConfigSyntax, UnknownPreset, UnknownRequirement
from .link import DOWNLINK, UPLINK, LinkParams
from .traffic import TrafficKind, TrafficModelSpec


class TestEnvironment(Enum):
    __test__ = False  # not a pytest class, despite the domain name

    INDOOR_HOTSPOT_EMBB = "IndoorHotspot_eMBB"
    DENSE_URBAN_EMBB = "DenseUrban_eMBB"
    RURAL_EMBB = "Rural_eMBB"
    URBAN_MACRO_MMTC = "UrbanMacro_mMTC"
    URBAN_MACRO_URLLC = "UrbanMacro_URLLC"

    @classmethod
    def parse(cls, text: str) -> "TestEnvironment":
        for env in cls:
            if text == env.value or text == env.name or text.lower() == env.value.lower():
                return env
        raise UnknownPreset(f"unknown test environment '{text}'")


EMBB_ENVIRONMENTS = (
    TestEnvironment.INDOOR_HOTSPOT_EMBB,
    TestEnvironment.DENSE_URBAN_EMBB,
    TestEnvironment.RURAL_EMBB,
)

# variants each environment's parameter table defines: mMTC B is the
# 1732 m ISD, URLLC B the 700 MHz carrier; the eMBB tables have one
_VARIANTS = {env: ("A",) if env in EMBB_ENVIRONMENTS else ("A", "B") for env in TestEnvironment}


def total_tx_power_dbm(bandwidth_hz: float) -> float:
    """Total transmit power per TRxP: 49 dBm at 20 MHz, dB-linear in bandwidth."""
    return 49.0 + 10.0 * math.log10(bandwidth_hz / 20e6)


@dataclass(frozen=True)
class EvaluationConfig:
    environment: TestEnvironment
    config_variant: str  # one of _VARIANTS[environment]
    carrier_frequency: float  # Hz
    isd: float  # meters
    bs_height: float  # meters
    ue_height: float  # meters
    bs_tx_power: float  # dBm total per TRxP
    ue_tx_power: float  # dBm
    bs_noise_figure: float  # dB
    ue_noise_figure: float  # dB
    bs_element_gain: float  # dBi
    ue_element_gain: float  # dBi
    thermal_noise_density: float  # dBm/Hz
    bandwidth: float  # Hz
    indoor_fraction: float
    ue_speed_indoor: float  # km/h
    ue_speed_outdoor: float  # km/h
    ues_per_trxp: int
    high_loss_fraction: float
    traffic: TrafficModelSpec = TrafficModelSpec()
    drops: int = 10_000
    master_seed: int = 20200101
    duration_t: float = 0.1  # seconds simulated per drop
    antenna_bs: ArrayConfig = ArrayConfig()
    antenna_ue: ArrayConfig = ArrayConfig()
    link: LinkParams = LinkParams()
    # element pattern constants (config-overridable; UE defaults isotropic)
    bs_h_3db: float = 65.0
    bs_v_3db: float = 65.0
    bs_front_back: float = 30.0
    bs_sidelobe: float = 30.0
    ue_isotropic: bool = True

    def bs_pattern(self) -> ElementPattern:
        return ElementPattern(
            max_gain_dbi=self.bs_element_gain,
            h_3db_deg=self.bs_h_3db,
            v_3db_deg=self.bs_v_3db,
            front_back_db=self.bs_front_back,
            sidelobe_db=self.bs_sidelobe,
        )


# the values each numeric leaf type accepts, numpy scalars included (any other needs
# an instance of its type); a bool, an int to Python, passes only as a bool
_NUMERIC = {int: numbers.Integral, float: numbers.Real, bool: bool}

# documented validation ranges, inclusive, by key name (see _leaf_values)
_RANGES = {
    "carrier_frequency": (1e6, 120e9),
    "isd": (1.0, 1e5),
    "bs_height": (0.5, 200.0),
    "ue_height": (0.5, 30.0),
    "bs_tx_power": (-30.0, 80.0),
    "ue_tx_power": (-30.0, 33.0),
    "bs_noise_figure": (0.0, 20.0),
    "ue_noise_figure": (0.0, 20.0),
    "bs_element_gain": (-10.0, 30.0),
    "ue_element_gain": (-10.0, 30.0),
    "thermal_noise_density": (-200.0, -100.0),
    "bandwidth": (1e3, 2e9),
    "indoor_fraction": (0.0, 1.0),
    "ues_per_trxp": (1, 10_000),
    "high_loss_fraction": (0.0, 1.0),
    "drops": (1, 10_000_000),
    "master_seed": (0, 2**64 - 1),
    "duration_t": (1e-4, 1e4),
    # a beamwidth is > 0: math.ulp(0.0) is the least positive float
    "antenna.bs.h_3db": (math.ulp(0.0), 360.0), "antenna.bs.v_3db": (math.ulp(0.0), 360.0),
    "antenna.bs.front_back": (0.0, math.inf), "antenna.bs.sidelobe": (0.0, math.inf),
    "traffic.pdu_size_bytes": (1, math.inf), "traffic.rate_per_s": (math.ulp(0.0), math.inf),
    "traffic.w_user_hz": (math.ulp(0.0), math.inf), "traffic.overhead_s": (0.0, math.inf),
    # the link abstraction: math.nextafter(1.0, 0.0) is the greatest float < 1
    "link.alpha": (math.ulp(0.0), 1.0),
    "link.se_max_dl": (math.ulp(0.0), math.inf), "link.se_max_ul": (math.ulp(0.0), math.inf),
    "link.bler_slope_db": (math.ulp(0.0), math.inf),
    "link.bler_floor": (0.0, math.nextafter(1.0, 0.0)),
    "link.harq_max_transmissions": (1, math.inf), "link.harq_tx_time_s": (math.ulp(0.0), math.inf),
    # the PF scheduler's grant counts; the uplink count also divides the bandwidth
    "link.mu_layers_dl": (1, math.inf), "link.mu_layers_ul": (1, math.inf),
    # the panel array's counts (see antenna.ArrayConfig)
    **{f"antenna.{end}.{key}": (1, 2) if key == "p" else (1, math.inf)
       for end in ("bs", "ue") for key in ("p", "mg", "ng", "mp", "np")},
}


def _check_variant(environment: TestEnvironment, variant: str) -> None:
    variants = _VARIANTS[environment]
    if variant not in variants:
        raise ConfigInvalid("config_variant", f"must be {' or '.join(variants)} for "
                                              f"{environment.value}")


def validate(config: EvaluationConfig) -> EvaluationConfig:
    """Type-check every leaf, then apply every rule of the config; raises
    ConfigInvalid naming the file key of the first offender."""
    values = _leaf_values(config)
    for (name, value), (*_, kind) in zip(values.items(), _LEAVES):
        if (not isinstance(value, _NUMERIC.get(kind, kind))
                or isinstance(value, bool) != (kind is bool)):
            raise ConfigInvalid(name, f"expected {kind.__name__}, got {value!r}")
        # NaN passes any rule written as `if value <= bound: raise`, inf a one-sided one
        if kind is float and not math.isfinite(value):
            raise ConfigInvalid(name, f"{value} is not finite")
    _check_variant(config.environment, config.config_variant)
    # pins next: a changed pinned key is the fault, whatever rule it then breaks
    pinned = {**_PINNED[None], **_PINNED[config.environment]}
    own = _leaf_values(_PRESET_BUILDERS[config.environment](config.config_variant))
    for name, value in values.items():
        if name in pinned and value != own[name]:
            raise ConfigInvalid(name, f"'{_fmt(value)}' differs from the preset's "
                                      f"'{_fmt(own[name])}': {pinned[name]}")
    for name, (lo, hi) in _RANGES.items():
        if not (lo <= values[name] <= hi):
            raise ConfigInvalid(name, f"{values[name]} outside [{lo}, {hi}]")
    if config.traffic.eval_bandwidth_hz < config.traffic.w_user_hz:
        raise ConfigInvalid("traffic.eval_bandwidth_hz", "must be >= w_user_hz")
    for section in ("antenna.bs", "antenna.ue"):
        array = getattr(config, _NESTED[section])
        for ports, grid in (("mp", "m"), ("np", "n")):
            if getattr(array, grid) % getattr(array, ports):
                raise ConfigInvalid(f"{section}.{ports}",
                                    "port grid (mp, np) must divide element grid (m, n)")
    return config


_COMMON = dict(ue_height=1.5, ue_tx_power=23.0, bs_noise_figure=5.0, ue_noise_figure=7.0,
               ue_element_gain=0.0, thermal_noise_density=-174.0, ue_speed_indoor=3.0,
               ues_per_trxp=10)


def _mmtc_preset(variant: str) -> EvaluationConfig:
    bandwidth = 10e6 if variant == "A" else 50e6
    return EvaluationConfig(
        **_COMMON,
        environment=TestEnvironment.URBAN_MACRO_MMTC,
        config_variant=variant,
        carrier_frequency=700e6,
        isd=500.0 if variant == "A" else 1732.0,
        bs_height=25.0,
        bs_tx_power=total_tx_power_dbm(bandwidth),
        bs_element_gain=8.0,
        bandwidth=bandwidth,
        indoor_fraction=0.8,
        ue_speed_outdoor=3.0,
        high_loss_fraction=0.2,
        traffic=TrafficModelSpec(kind=TrafficKind.POISSON_MESSAGING, pdu_size_bytes=32,
                                 rate_per_s=1.0 / 7200.0),
        antenna_bs=ArrayConfig(m=1, n=2, mp=1, np=2, downtilt_deg=10.0),
    )


def _urllc_preset(variant: str) -> EvaluationConfig:
    bandwidth = 100e6 if variant == "A" else 40e6
    return EvaluationConfig(
        **_COMMON,
        environment=TestEnvironment.URBAN_MACRO_URLLC,
        config_variant=variant,
        carrier_frequency=4e9 if variant == "A" else 700e6,
        isd=500.0,
        bs_height=25.0,
        bs_tx_power=total_tx_power_dbm(bandwidth),
        bs_element_gain=8.0,
        bandwidth=bandwidth,
        indoor_fraction=0.2,  # 80% outdoor
        ue_speed_outdoor=30.0,
        high_loss_fraction=0.0,  # 100% low loss
        antenna_bs=ArrayConfig(m=16, n=16, mp=4, np=4, downtilt_deg=10.0) if variant == "A"
        else ArrayConfig(m=8, n=8, mp=2, np=4, downtilt_deg=10.0),
        antenna_ue=ArrayConfig(m=1, n=2, mp=1, np=2),
    )


def _indoor_preset(variant: str) -> EvaluationConfig:
    return EvaluationConfig(
        **_COMMON,
        environment=TestEnvironment.INDOOR_HOTSPOT_EMBB,
        config_variant=variant,
        carrier_frequency=4e9,
        isd=20.0,
        bs_height=3.0,
        bs_tx_power=24.0,  # indoor access points, not the macro power rule
        bs_element_gain=5.0,
        bandwidth=20e6,
        indoor_fraction=1.0,
        ue_speed_outdoor=3.0,
        high_loss_fraction=0.0,
        antenna_bs=ArrayConfig(m=4, n=4, p=2, mp=4, np=4),
        antenna_ue=ArrayConfig(m=1, n=2, mp=1, np=2),
    )


def _dense_urban_preset(variant: str) -> EvaluationConfig:
    return EvaluationConfig(
        **_COMMON,
        environment=TestEnvironment.DENSE_URBAN_EMBB,
        config_variant=variant,
        carrier_frequency=4e9,
        isd=200.0,
        bs_height=25.0,
        bs_tx_power=total_tx_power_dbm(20e6),
        bs_element_gain=8.0,
        bandwidth=20e6,
        indoor_fraction=0.8,
        ue_speed_outdoor=30.0,
        high_loss_fraction=0.2,
        antenna_bs=ArrayConfig(m=8, n=8, p=2, mp=2, np=8, downtilt_deg=10.0),
        antenna_ue=ArrayConfig(m=1, n=2, mp=1, np=2),
    )


def _rural_preset(variant: str) -> EvaluationConfig:
    return EvaluationConfig(
        **_COMMON,
        environment=TestEnvironment.RURAL_EMBB,
        config_variant=variant,
        carrier_frequency=700e6,
        isd=1732.0,
        bs_height=35.0,
        bs_tx_power=total_tx_power_dbm(20e6),
        bs_element_gain=8.0,
        bandwidth=20e6,
        indoor_fraction=0.5,
        ue_speed_outdoor=120.0,
        high_loss_fraction=0.2,
        antenna_bs=ArrayConfig(m=8, n=4, p=2, mp=1, np=4, downtilt_deg=6.0),
        antenna_ue=ArrayConfig(m=1, n=2, mp=1, np=2),
    )


_PRESET_BUILDERS = {
    TestEnvironment.URBAN_MACRO_MMTC: _mmtc_preset,
    TestEnvironment.URBAN_MACRO_URLLC: _urllc_preset,
    TestEnvironment.INDOOR_HOTSPOT_EMBB: _indoor_preset,
    TestEnvironment.DENSE_URBAN_EMBB: _dense_urban_preset,
    TestEnvironment.RURAL_EMBB: _rural_preset,
}


def preset(environment: TestEnvironment, variant: str) -> EvaluationConfig:
    """Fully populated config for the given environment and variant A/B.

    Variant semantics are environment-specific: mMTC A/B select ISD
    500/1732 m and URLLC A/B select 4 GHz/700 MHz. The eMBB environments
    have variant A only; B raises ConfigInvalid before any builder runs.
    """
    _check_variant(environment, variant)
    return validate(_PRESET_BUILDERS[environment](variant))


def list_presets():
    """All (environment, variant) pairs with their parameter provenance."""
    sources = {TestEnvironment.URBAN_MACRO_MMTC: "connection-density parameter table",
               TestEnvironment.URBAN_MACRO_URLLC: "reliability parameter table"}
    return [(env, variant, sources.get(env, "standard eMBB evaluation configuration"))
            for env, variants in _VARIANTS.items() for variant in variants]


# ---------------------------------------------------------------------------
# config file round-trip
#
# The file's keys are the dataclass fields: [scenario] holds the scalar
# EvaluationConfig fields, [run] the run-length ones, and each nested
# dataclass has a section of its own. The element-pattern constants are
# EvaluationConfig fields that the file keeps under their antenna section.

_NESTED = {"antenna.bs": "antenna_bs", "antenna.ue": "antenna_ue", "traffic": "traffic",
           "link": "link"}
_RUN_KEYS = ("drops", "master_seed", "duration_t")
_PATTERN_KEYS = {
    "antenna.bs": {"h_3db": "bs_h_3db", "v_3db": "bs_v_3db", "front_back": "bs_front_back",
                   "sidelobe": "bs_sidelobe"},
    "antenna.ue": {"isotropic": "ue_isotropic"},
}
_SECTIONS = ("scenario", "antenna.bs", "antenna.ue", "traffic", "run", "link")


def _leaf_table():
    """(section, key, owner attribute or None, attribute, type) per key, in file order."""
    hints = typing.get_type_hints(EvaluationConfig)
    named = {*_NESTED.values(), *_RUN_KEYS,
             *(attr for keys in _PATTERN_KEYS.values() for attr in keys.values())}
    leaves = [("scenario", f.name, None, f.name, hints[f.name])
              for f in dataclasses.fields(EvaluationConfig) if f.name not in named]
    for section in _SECTIONS[1:]:
        if section == "run":
            leaves += [(section, name, None, name, hints[name]) for name in _RUN_KEYS]
            continue
        owner = _NESTED[section]
        owner_hints = typing.get_type_hints(hints[owner])
        leaves += [(section, f.name, owner, f.name, owner_hints[f.name])
                   for f in dataclasses.fields(hints[owner])]
        leaves += [(section, key, None, attr, hints[attr])
                   for key, attr in _PATTERN_KEYS.get(section, {}).items()]
    return tuple(leaves)


_LEAVES = _leaf_table()
_KEYS = {(section, key): rest for section, key, *rest in _LEAVES}


def _name(section: str, key: str) -> str:
    """A key's name in errors and checks: bare in [scenario] and [run]."""
    return key if section in ("scenario", "run") else f"{section}.{key}"


def _leaf_values(config: EvaluationConfig) -> dict:
    """{name: value} per file key in file order."""
    return {_name(section, key): getattr(getattr(config, owner) if owner else config, attr)
            for section, key, owner, attr, _ in _LEAVES}


def _fmt(value) -> str:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_text(config: EvaluationConfig) -> str:
    """Serialize a config to the sectioned key-value format (deterministic)."""
    text, current = "", None
    for (section, key, *_), value in zip(_LEAVES, _leaf_values(config).values()):
        if section != current:
            text += ("\n" if current else "") + f"[{section}]\n"
            current = section
        text += f"{key} = {_fmt(value)}\n"
    return text


def config_hash(config: EvaluationConfig) -> str:
    return hashlib.sha256(config_to_text(config).encode("utf-8")).hexdigest()


def _convert(name: str, raw: str, kind):
    """Parse one value by its field's declared type; errors name the file key."""
    if kind is TestEnvironment:
        return TestEnvironment.parse(raw)
    if kind is TrafficKind:
        for traffic_kind in TrafficKind:
            if raw == traffic_kind.value or raw == traffic_kind.name:
                return traffic_kind
        raise ConfigInvalid(name, f"unknown traffic kind '{raw}'")
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigInvalid(name, f"expected boolean, got '{raw}'")
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError as exc:
        expected = "integer" if kind is int else "number"
        raise ConfigInvalid(name, f"expected {expected}, got '{raw}'") from exc


def _pins(names: str, reason: str) -> dict:
    return dict.fromkeys(names.split(), reason)


# Keys no value of any other key lets reach an environment's results, with the
# reason; the None entry holds on every environment. validate holds each to the
# preset its config's labels name.
_HARQ = _pins("link.harq_max_transmissions link.harq_tx_time_s link.harq_combining_gain_db",
              "only the UrbanMacro_URLLC reliability KPI reads HARQ")
_NO_DOWNLINK = _pins("link.mu_layers_dl link.se_max_dl", "no downlink row is scheduled")
_FULL_BUFFER = _pins("traffic.pdu_size_bytes traffic.rate_per_s traffic.w_user_hz "
                     "traffic.eval_bandwidth_hz traffic.overhead_s",
                     "only the UrbanMacro_mMTC messaging traffic reads it")
_EMBB = {**_HARQ, **_FULL_BUFFER, **_pins("link.bler_sinr_50_db link.bler_slope_db "
                                          "link.bler_floor", "no eMBB KPI reads BLER")}
_PINNED = {
    None: {**_pins("ue_speed_indoor ue_speed_outdoor antenna.bs.m antenna.bs.n antenna.ue.m "
                   "antenna.ue.n antenna.bs.element_spacing_h antenna.bs.element_spacing_v "
                   "antenna.ue.element_spacing_h antenna.ue.element_spacing_v",
                   "only the small-scale generator reads it, and no drop runs that"),
           **_pins("antenna.bs.bearing_deg antenna.ue.bearing_deg antenna.ue.downtilt_deg "
                   "antenna.ue.isotropic", "nothing reads it"),
           **_pins("antenna.ue.mp", "only 1 divides the pinned UE m = 1"),
           **_pins("traffic.kind", "the test environment fixes the traffic model")},
    TestEnvironment.INDOOR_HOTSPOT_EMBB: {
        **_pins("isd", "the 12-point floor is fixed"),
        **_pins("indoor_fraction high_loss_fraction", "InH penetration loss is 0 dB"),
        **_pins("antenna.bs.downtilt_deg antenna.bs.h_3db antenna.bs.v_3db "
                "antenna.bs.front_back antenna.bs.sidelobe", "all 12 ceiling points are omni"),
        **_EMBB},
    TestEnvironment.DENSE_URBAN_EMBB: _EMBB, TestEnvironment.RURAL_EMBB: _EMBB,
    TestEnvironment.URBAN_MACRO_MMTC: {
        **_HARQ, **_NO_DOWNLINK,
        **_pins("link.mu_layers_ul", "a messaging channel, not an MU layer, carries the uplink")},
    TestEnvironment.URBAN_MACRO_URLLC: {**_NO_DOWNLINK, **_FULL_BUFFER},
}


def load_config(path=None, base: EvaluationConfig | None = None, text: str | None = None) -> EvaluationConfig:
    """Load a config file, merging its overrides onto a preset.

    The base preset is either passed explicitly or identified by the
    ``environment`` / ``config_variant`` keys in the file's [scenario]
    section. The file may not relabel its base, as a new label would not
    bring its parameters; unknown sections or keys are rejected.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        if text is None:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        parser.read_string(text)
    except OSError as exc:
        raise ConfigSyntax(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigSyntax(f"config parse error: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigSyntax(f"unknown section [{section}]")

    scen = dict(parser.items("scenario")) if parser.has_section("scenario") else {}
    if base is None:
        if "environment" not in scen:
            raise ConfigSyntax("config file must name an environment (or pass a base preset)")
        env = TestEnvironment.parse(scen["environment"])
        variant = scen.get("config_variant", "A")
        base = preset(env, variant)

    updates = {}
    for section in _SECTIONS:
        if not parser.has_section(section):
            continue
        nested = {}
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                raise ConfigInvalid(key, f"unknown key in [{section}]")
            owner, attr, kind = _KEYS[section, key]
            (nested if owner else updates)[attr] = _convert(_name(section, key), raw, kind)
        if nested:
            owner = _NESTED[section]
            updates[owner] = replace(getattr(base, owner), **nested)
    config = replace(base, **updates)
    for name in ("environment", "config_variant"):
        label, was = getattr(config, name), getattr(base, name)
        if label != was:
            raise ConfigInvalid(name, f"'{_fmt(label)}' differs from the base preset's "
                                      f"'{_fmt(was)}': a new label would not bring its parameters")
    return validate(config)


# ---------------------------------------------------------------------------
# requirement tables


@dataclass(frozen=True)
class Requirement:
    environment: TestEnvironment
    direction: str | None  # downlink / uplink / None when both apply
    metric: str
    value: float
    unit: str
    source_table: str
    speed_kmh: float | None = None
    note: str = ""


def builtin_requirements() -> "RequirementSet":
    env = TestEnvironment
    rows = [
        # 5th percentile user spectral efficiency
        Requirement(env.INDOOR_HOTSPOT_EMBB, DOWNLINK, "pct5_se", 0.3, "bit/s/Hz", "I"),
        Requirement(env.INDOOR_HOTSPOT_EMBB, UPLINK, "pct5_se", 0.21, "bit/s/Hz", "I"),
        Requirement(env.DENSE_URBAN_EMBB, DOWNLINK, "pct5_se", 0.225, "bit/s/Hz", "I"),
        Requirement(env.DENSE_URBAN_EMBB, UPLINK, "pct5_se", 0.15, "bit/s/Hz", "I"),
        Requirement(env.RURAL_EMBB, DOWNLINK, "pct5_se", 0.12, "bit/s/Hz", "I"),
        Requirement(env.RURAL_EMBB, UPLINK, "pct5_se", 0.045, "bit/s/Hz", "I"),
        # average spectral efficiency
        Requirement(env.INDOOR_HOTSPOT_EMBB, DOWNLINK, "avg_se", 9.0, "bit/s/Hz/TRxP", "II"),
        Requirement(env.INDOOR_HOTSPOT_EMBB, UPLINK, "avg_se", 6.75, "bit/s/Hz/TRxP", "II"),
        Requirement(env.DENSE_URBAN_EMBB, DOWNLINK, "avg_se", 7.8, "bit/s/Hz/TRxP", "II"),
        Requirement(env.DENSE_URBAN_EMBB, UPLINK, "avg_se", 5.4, "bit/s/Hz/TRxP", "II"),
        Requirement(env.RURAL_EMBB, DOWNLINK, "avg_se", 3.3, "bit/s/Hz/TRxP", "II"),
        Requirement(env.RURAL_EMBB, UPLINK, "avg_se", 1.6, "bit/s/Hz/TRxP", "II"),
        # URLLC performance metrics
        Requirement(env.URBAN_MACRO_URLLC, None, "user_plane_latency", 1.0, "ms", "III",
                    note="analytical -- reported, not simulated"),
        Requirement(env.URBAN_MACRO_URLLC, None, "control_plane_latency", 10.0, "ms", "III",
                    note="encouraged value; analytical -- reported, not simulated"),
        Requirement(env.URBAN_MACRO_URLLC, None, "reliability", 0.99999, "probability", "III"),
        Requirement(env.URBAN_MACRO_URLLC, None, "mobility_interruption", 0.0, "ms", "III",
                    note="analytical -- reported, not simulated"),
        # normalized traffic channel link data rate vs mobility
        Requirement(env.INDOOR_HOTSPOT_EMBB, UPLINK, "mobility_rate", 1.5, "bit/s/Hz", "VI", speed_kmh=10.0),
        Requirement(env.DENSE_URBAN_EMBB, UPLINK, "mobility_rate", 1.12, "bit/s/Hz", "VI", speed_kmh=30.0),
        Requirement(env.RURAL_EMBB, UPLINK, "mobility_rate", 0.8, "bit/s/Hz", "VI", speed_kmh=120.0),
        Requirement(env.RURAL_EMBB, UPLINK, "mobility_rate", 0.45, "bit/s/Hz", "VI", speed_kmh=500.0),
        # requirements stated in the prose rather than a numbered table
        Requirement(env.URBAN_MACRO_MMTC, UPLINK, "connection_density", 1_000_000.0, "/km^2", "II.C.2"),
        Requirement(env.DENSE_URBAN_EMBB, DOWNLINK, "ued_rate", 100e6, "bit/s", "II.C.5"),
        Requirement(env.DENSE_URBAN_EMBB, UPLINK, "ued_rate", 50e6, "bit/s", "II.C.5"),
    ]
    return RequirementSet(tuple(rows))


@dataclass(frozen=True)
class RequirementSet:
    rows: tuple

    def lookup(self, environment: TestEnvironment, direction: str | None, metric: str,
               speed_kmh: float | None = None) -> Requirement:
        """The one row for this KPI; a None direction or speed matches any.
        Raises UnknownRequirement when no row or more than one matches."""
        matches = [
            r for r in self.rows
            if r.environment == environment
            and r.metric == metric
            and (r.direction is None or direction is None or r.direction == direction)
            and (speed_kmh is None or r.speed_kmh is None or abs(r.speed_kmh - speed_kmh) < 1e-9)
        ]
        if speed_kmh is not None:
            exact = [r for r in matches if r.speed_kmh is not None]
            if exact:
                matches = exact
        key = f"({environment.value}, {direction}, {metric}, speed={speed_kmh})"
        if not matches:
            raise UnknownRequirement(f"no requirement row for {key}")
        if len(matches) > 1:
            raise UnknownRequirement(
                f"{len(matches)} requirement rows match {key}: "
                + ", ".join(f"({r.direction}, speed={r.speed_kmh})" for r in matches))
        return matches[0]
