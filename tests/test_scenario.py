"""Preset tables, requirement lookups and config-file round-trips."""

import configparser
import dataclasses
import functools
import io
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imteval.errors import ConfigInvalid, ConfigSyntax, UnknownPreset, UnknownRequirement
from imteval.link import LinkParams
from imteval import engine, scenario
from imteval.traffic import TrafficKind
from imteval.scenario import (
    DOWNLINK,
    EMBB_ENVIRONMENTS,
    UPLINK,
    EvaluationConfig,
    TestEnvironment,
    builtin_requirements,
    config_hash,
    config_to_text,
    list_presets,
    load_config,
    preset,
    total_tx_power_dbm,
    validate,
)

ALL_PRESETS = [(env, v) for env, v, _ in list_presets()]


# ---------------------------------------------------------------------------
# reference config-file reader and writer: hand-kept key lists, one block per
# section. The package derives the same format from the dataclass fields and
# must match these byte for byte and error for error.

_SCENARIO_FIELDS = [
    "environment", "config_variant", "carrier_frequency", "isd", "bs_height",
    "ue_height", "bs_tx_power", "ue_tx_power", "bs_noise_figure",
    "ue_noise_figure", "bs_element_gain", "ue_element_gain",
    "thermal_noise_density", "bandwidth", "indoor_fraction",
    "ue_speed_indoor", "ue_speed_outdoor", "ues_per_trxp",
    "high_loss_fraction",
]
_ANTENNA_FIELDS = ["m", "n", "p", "mg", "ng", "mp", "np",
                   "element_spacing_h", "element_spacing_v", "bearing_deg", "downtilt_deg"]
_BS_PATTERN_FIELDS = {"h_3db": "bs_h_3db", "v_3db": "bs_v_3db",
                      "front_back": "bs_front_back", "sidelobe": "bs_sidelobe"}
_TRAFFIC_FIELDS = ["kind", "pdu_size_bytes", "rate_per_s", "w_user_hz",
                   "eval_bandwidth_hz", "overhead_s"]
_RUN_FIELDS = ["drops", "master_seed", "duration_t"]
_LINK_FIELDS = [f.name for f in dataclasses.fields(LinkParams)]

_INT_FIELDS = {"ues_per_trxp", "drops", "master_seed", "pdu_size_bytes",
               "harq_max_transmissions", "mu_layers_dl", "mu_layers_ul",
               "m", "n", "p", "mg", "ng", "mp", "np"}
_BOOL_FIELDS = {"ue_isotropic", "isotropic"}

# keys that may only repeat the preset's value, per environment
_REF_PINNED_EVERYWHERE = [
    "ue_speed_indoor", "ue_speed_outdoor",
    "antenna.bs.m", "antenna.bs.n", "antenna.bs.element_spacing_h",
    "antenna.bs.element_spacing_v", "antenna.bs.bearing_deg",
    "antenna.ue.m", "antenna.ue.n", "antenna.ue.mp", "antenna.ue.element_spacing_h",
    "antenna.ue.element_spacing_v", "antenna.ue.bearing_deg", "antenna.ue.downtilt_deg",
    "antenna.ue.isotropic", "traffic.kind",
]
_REF_HARQ = ["link.harq_max_transmissions", "link.harq_tx_time_s", "link.harq_combining_gain_db"]
_REF_NO_DOWNLINK = ["link.mu_layers_dl", "link.se_max_dl"]
_REF_MESSAGE = ["traffic.pdu_size_bytes", "traffic.rate_per_s", "traffic.w_user_hz",
                "traffic.eval_bandwidth_hz", "traffic.overhead_s"]
_REF_EMBB = _REF_PINNED_EVERYWHERE + _REF_HARQ + _REF_MESSAGE + [
    "link.bler_sinr_50_db", "link.bler_slope_db", "link.bler_floor"]
REFERENCE_PINNED = {
    TestEnvironment.INDOOR_HOTSPOT_EMBB: _REF_EMBB + [
        "isd", "indoor_fraction", "high_loss_fraction", "antenna.bs.downtilt_deg",
        "antenna.bs.h_3db", "antenna.bs.v_3db", "antenna.bs.front_back", "antenna.bs.sidelobe"],
    TestEnvironment.DENSE_URBAN_EMBB: _REF_EMBB,
    TestEnvironment.RURAL_EMBB: _REF_EMBB,
    TestEnvironment.URBAN_MACRO_MMTC: _REF_PINNED_EVERYWHERE + _REF_HARQ + _REF_NO_DOWNLINK
    + ["link.mu_layers_ul"],
    TestEnvironment.URBAN_MACRO_URLLC: _REF_PINNED_EVERYWHERE + _REF_NO_DOWNLINK + _REF_MESSAGE,
}

REFERENCE_KEYS = {
    "scenario": _SCENARIO_FIELDS,
    "antenna.bs": _ANTENNA_FIELDS + list(_BS_PATTERN_FIELDS),
    "antenna.ue": _ANTENNA_FIELDS + ["isotropic"],
    "traffic": _TRAFFIC_FIELDS,
    "run": _RUN_FIELDS,
    "link": _LINK_FIELDS,
}


def _ref_name(section: str, key: str) -> str:
    return key if section in ("scenario", "run") else f"{section}.{key}"


def _ref_fmt(value) -> str:
    if isinstance(value, TestEnvironment):
        return value.value
    if isinstance(value, TrafficKind):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_config_to_text(config: EvaluationConfig) -> str:
    buf = io.StringIO()
    buf.write("[scenario]\n")
    for name in _SCENARIO_FIELDS:
        buf.write(f"{name} = {_ref_fmt(getattr(config, name))}\n")
    for section, array in (("antenna.bs", config.antenna_bs), ("antenna.ue", config.antenna_ue)):
        buf.write(f"\n[{section}]\n")
        for name in _ANTENNA_FIELDS:
            buf.write(f"{name} = {_ref_fmt(getattr(array, name))}\n")
        if section == "antenna.bs":
            for key, attr in _BS_PATTERN_FIELDS.items():
                buf.write(f"{key} = {_ref_fmt(getattr(config, attr))}\n")
        else:
            buf.write(f"isotropic = {_ref_fmt(config.ue_isotropic)}\n")
    buf.write("\n[traffic]\n")
    for name in _TRAFFIC_FIELDS:
        buf.write(f"{name} = {_ref_fmt(getattr(config.traffic, name))}\n")
    buf.write("\n[run]\n")
    for name in _RUN_FIELDS:
        buf.write(f"{name} = {_ref_fmt(getattr(config, name))}\n")
    buf.write("\n[link]\n")
    for name in _LINK_FIELDS:
        buf.write(f"{name} = {_ref_fmt(getattr(config.link, name))}\n")
    return buf.getvalue()


def _ref_convert(section: str, key: str, raw: str):
    name = _ref_name(section, key)
    if key == "environment":
        return TestEnvironment.parse(raw)
    if key == "kind":
        for kind in TrafficKind:
            if raw == kind.value or raw == kind.name:
                return kind
        raise ConfigInvalid(name, f"unknown traffic kind '{raw}'")
    if key in _BOOL_FIELDS:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigInvalid(name, f"expected boolean, got '{raw}'")
    if key in _INT_FIELDS:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigInvalid(name, f"expected integer, got '{raw}'") from exc
    if key == "config_variant":
        return raw
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigInvalid(name, f"expected number, got '{raw}'") from exc


def reference_load_config(path=None, base: EvaluationConfig | None = None, text: str | None = None) -> EvaluationConfig:
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

    known_sections = {"scenario", "antenna.bs", "antenna.ue", "traffic", "run", "link"}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigSyntax(f"unknown section [{section}]")

    scen = dict(parser.items("scenario")) if parser.has_section("scenario") else {}
    if base is None:
        if "environment" not in scen:
            raise ConfigSyntax("config file must name an environment (or pass a base preset)")
        env = TestEnvironment.parse(scen["environment"])
        variant = scen.get("config_variant", "A")
        base = preset(env, variant)

    updates = {}
    for key, raw in scen.items():
        if key not in _SCENARIO_FIELDS:
            raise ConfigInvalid(key, "unknown key in [scenario]")
        updates[key] = _ref_convert("scenario", key, raw)

    for section, attr in (("antenna.bs", "antenna_bs"), ("antenna.ue", "antenna_ue")):
        if not parser.has_section(section):
            continue
        array_updates = {}
        for key, raw in parser.items(section):
            if key in _ANTENNA_FIELDS:
                array_updates[key] = _ref_convert(section, key, raw)
            elif section == "antenna.bs" and key in _BS_PATTERN_FIELDS:
                updates[_BS_PATTERN_FIELDS[key]] = _ref_convert(section, key, raw)
            elif section == "antenna.ue" and key == "isotropic":
                updates["ue_isotropic"] = _ref_convert(section, "isotropic", raw)
            else:
                raise ConfigInvalid(key, f"unknown key in [{section}]")
        if array_updates:
            updates[attr] = replace(getattr(base, attr), **array_updates)

    if parser.has_section("traffic"):
        traffic_updates = {}
        for key, raw in parser.items("traffic"):
            if key not in _TRAFFIC_FIELDS:
                raise ConfigInvalid(key, "unknown key in [traffic]")
            traffic_updates[key] = _ref_convert("traffic", key, raw)
        if traffic_updates:
            updates["traffic"] = replace(base.traffic, **traffic_updates)

    if parser.has_section("run"):
        for key, raw in parser.items("run"):
            if key not in _RUN_FIELDS:
                raise ConfigInvalid(key, "unknown key in [run]")
            updates[key] = _ref_convert("run", key, raw)

    if parser.has_section("link"):
        link_updates = {}
        for key, raw in parser.items("link"):
            if key not in _LINK_FIELDS:
                raise ConfigInvalid(key, "unknown key in [link]")
            link_updates[key] = _ref_convert("link", key, raw)
        if link_updates:
            updates["link"] = replace(base.link, **link_updates)

    # a file may not relabel its base, and a changed pinned key is reported
    # before any rule it breaks
    config = replace(base, **updates)
    for name in ("environment", "config_variant"):
        if getattr(config, name) != getattr(base, name):
            raise ConfigInvalid(name, "a new label would not bring its parameters")
    for section, keys in REFERENCE_KEYS.items():
        for key in keys:
            name = _ref_name(section, key)
            if name in REFERENCE_PINNED[base.environment] and \
                    _current(config, section, key) != _current(base, section, key):
                raise ConfigInvalid(name, "differs from the base preset's")
    return validate(config)


def _raw_value(key: str, current):
    """Strategy for the text of one config value: mostly a plausible edit of
    the preset's value, one time in twenty out of range, mistyped or unknown."""
    if key == "environment":
        plausible = st.sampled_from([e.value for e in TestEnvironment] + [e.name for e in TestEnvironment])
        bad = st.just("Suburban_eMBB")
    elif key == "config_variant":
        plausible, bad = st.sampled_from(["A", "B"]), st.just("C")
    elif key == "kind":
        plausible = st.sampled_from([k.value for k in TrafficKind] + [k.name for k in TrafficKind])
        bad = st.just("Bursty")
    elif key in _BOOL_FIELDS:
        plausible, bad = st.sampled_from(["true", "false", "yes", "no", "1", "0"]), st.just("maybe")
    elif key in _INT_FIELDS:
        plausible = st.integers(0, 1).map(lambda step: str(current + step))
        bad = st.one_of(st.integers(-1, 2**64).map(str), st.just("2.5"))
    else:
        plausible = st.floats(0.9, 1.1).map(lambda k: repr(float(current) * k))
        bad = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.just("many"))
    return st.integers(0, 19).flatmap(lambda pick: bad if pick == 0 else plausible)


def _current(config: EvaluationConfig, section: str, key: str):
    holder = {"antenna.bs": config.antenna_bs, "antenna.ue": config.antenna_ue,
              "traffic": config.traffic, "link": config.link}.get(section, config)
    if section.startswith("antenna") and key not in _ANTENNA_FIELDS:
        holder = config
        key = _BS_PATTERN_FIELDS.get(key, "ue_isotropic")
    return getattr(holder, key)


def with_leaf(config: EvaluationConfig, name: str, value) -> EvaluationConfig:
    """``config`` with the leaf of file key ``name`` set to ``value`` by
    ``replace``, unchecked."""
    (owner, attr), = [(owner, attr) for section, key, owner, attr, _ in scenario._LEAVES
                      if _ref_name(section, key) == name]
    if owner is None:
        return replace(config, **{attr: value})
    return replace(config, **{owner: replace(getattr(config, owner), **{attr: value})})


def _link_base(key: str) -> EvaluationConfig:
    """URLLC A, whose HARQ and BLER keys are live, or Rural A for ``se_max_dl``,
    which only a scheduled downlink row reads."""
    env = TestEnvironment.RURAL_EMBB if key == "se_max_dl" else TestEnvironment.URBAN_MACRO_URLLC
    return preset(env, "A")


def _outcome(load):
    try:
        return load(), None
    except Exception as exc:  # compared by type and field below
        return None, (type(exc), getattr(exc, "field", None))


class TestPresets:
    def test_mmtc_a_matches_parameter_table(self):
        c = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
        assert c.isd == 500.0
        assert c.carrier_frequency == 700e6
        assert c.indoor_fraction == 0.8
        assert c.bs_height == 25.0
        assert c.ue_height == 1.5
        assert c.ue_tx_power == 23.0
        assert (c.bs_noise_figure, c.ue_noise_figure) == (5.0, 7.0)
        assert (c.bs_element_gain, c.ue_element_gain) == (8.0, 0.0)
        assert c.thermal_noise_density == -174.0
        assert c.high_loss_fraction == 0.2
        assert c.ue_speed_indoor == 3.0 and c.ue_speed_outdoor == 3.0

    def test_mmtc_b_differs_only_where_documented(self):
        a = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
        b = preset(TestEnvironment.URBAN_MACRO_MMTC, "B")
        assert b.isd == 1732.0
        assert b.carrier_frequency == a.carrier_frequency == 700e6
        assert b.indoor_fraction == a.indoor_fraction

    def test_urllc_presets(self):
        a = preset(TestEnvironment.URBAN_MACRO_URLLC, "A")
        b = preset(TestEnvironment.URBAN_MACRO_URLLC, "B")
        assert a.carrier_frequency == 4e9 and a.bandwidth <= 100e6
        assert b.carrier_frequency == 700e6 and b.bandwidth <= 40e6
        assert a.isd == b.isd == 500.0
        assert a.indoor_fraction == 0.2  # 80 percent outdoor
        assert a.high_loss_fraction == 0.0

    def test_tx_power_rule_anchors(self):
        assert total_tx_power_dbm(20e6) == pytest.approx(49.0, abs=1e-12)
        assert total_tx_power_dbm(10e6) == pytest.approx(46.0, abs=0.05)
        c = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")  # 10 MHz preset
        assert c.bs_tx_power == pytest.approx(46.0, abs=0.05)

    @pytest.mark.parametrize("env,variant", ALL_PRESETS)
    def test_every_preset_validates(self, env, variant):
        c = preset(env, variant)
        assert validate(c) is c
        assert c.thermal_noise_density == -174.0

    @pytest.mark.parametrize("env", sorted(EMBB_ENVIRONMENTS, key=lambda e: e.value))
    def test_embb_has_no_variant_b_preset(self, env, monkeypatch):
        monkeypatch.setitem(scenario._PRESET_BUILDERS, env, None)  # must not be called
        with pytest.raises(ConfigInvalid) as exc:
            preset(env, "B")
        assert exc.value.field == "config_variant"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigInvalid) as exc:
            preset(TestEnvironment.RURAL_EMBB, "C")
        assert exc.value.field == "config_variant"

    def test_unknown_environment_string_rejected(self):
        with pytest.raises(UnknownPreset):
            TestEnvironment.parse("Suburban_eMBB")


class TestValidation:
    @pytest.mark.parametrize("field,bad", [
        ("isd", -5.0),
        ("carrier_frequency", 0.0),
        ("indoor_fraction", 1.5),
        ("high_loss_fraction", -0.1),
        ("ue_tx_power", 99.0),
        ("bandwidth", 0.0),
        ("ues_per_trxp", 0),
        ("drops", 0),
        ("duration_t", 0.0),
        ("thermal_noise_density", 5.0),
        ("ue_height", 0.0),
        # a value of the wrong type: a bool is not a count, nor a count a bool
        ("drops", 2.5),
        ("drops", True),
        ("ues_per_trxp", 1.5),
        ("master_seed", 7.0),
        ("antenna.ue.isotropic", 1),
        ("isd", "500"),
        ("isd", True),
        # an array leaf is checked by validate, not when the dataclass is made
        ("antenna.bs.m", 2.5),
        ("antenna.bs.m", "2"),
        ("antenna.ue.np", True),
    ])
    def test_out_of_range_field_is_named(self, field, bad):
        c = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
        mutated = with_leaf(c, field, bad)
        with pytest.raises(ConfigInvalid) as err:
            validate(mutated)
        assert err.value.field == field

    def test_bad_variant(self):
        c = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
        with pytest.raises(ConfigInvalid):
            validate(dataclasses.replace(c, config_variant="Z"))

    # the scheduler grants this many UEs per interval, and the uplink splits
    # the bandwidth by its count
    @pytest.mark.parametrize("field", ["mu_layers_dl", "mu_layers_ul"])
    @pytest.mark.parametrize("bad", [0, -3])
    def test_mu_layers_below_one_rejected(self, field, bad):
        c = preset(TestEnvironment.RURAL_EMBB, "A")
        mutated = dataclasses.replace(c, link=dataclasses.replace(c.link, **{field: bad}))
        with pytest.raises(ConfigInvalid) as err:
            validate(mutated)
        assert err.value.field == f"link.{field}"
        with pytest.raises(ConfigInvalid) as err:
            load_config(text=f"[link]\n{field} = {bad}\n", base=c)
        assert err.value.field == f"link.{field}"
        assert validate(dataclasses.replace(c, link=dataclasses.replace(c.link, **{field: 1})))

    # a NaN passes every comparison-based check, so the finiteness check runs
    # before the rules. validate rejects each value for the reason given, and
    # a config file names its key (with the pin's reason where it is pinned)
    @pytest.mark.parametrize("section, key, raw, reason", [
        ("link", "csi_backoff_db", "nan", "not finite"),
        ("link", "ul_p0_dbm", "inf", "not finite"),
        ("traffic", "overhead_s", "nan", "not finite"),
        ("antenna.bs", "h_3db", "nan", "not finite"),
        ("antenna.ue", "element_spacing_h", "inf", "not finite"),
        ("link", "alpha", "0", "outside [5e-324, 1.0]"),
        ("link", "alpha", "1.5", "outside [5e-324, 1.0]"),
        ("link", "se_max_ul", "-1", "outside [5e-324, inf]"),
        ("link", "se_max_dl", "0", "outside [5e-324, inf]"),
        ("link", "bler_slope_db", "0", "outside [5e-324, inf]"),
        ("link", "bler_floor", "1.5", "outside [0.0, 0.9999999999999999]"),
        ("link", "bler_floor", "1", "outside [0.0, 0.9999999999999999]"),
        ("link", "bler_floor", "-1e-9", "outside [0.0, 0.9999999999999999]"),
        ("link", "harq_max_transmissions", "0", "outside [1, inf]"),
        ("link", "harq_tx_time_s", "0", "outside [5e-324, inf]"),
        ("antenna.bs", "mg", "0", "outside [1, inf]"),
        ("antenna.bs", "p", "3", "outside [1, 2]"),
        ("antenna.bs", "mp", "9", "port grid"),
        ("antenna.ue", "np", "3", "port grid"),
        ("antenna.bs", "mp", "3", "port grid"),
        ("antenna.bs", "np", "3", "port grid"),
        ("antenna.ue", "element_spacing_h", "-inf", "not finite"),
        ("antenna.bs", "element_spacing_v", "0", "only the small-scale generator reads it"),
    ])
    def test_bad_leaf_rejected_naming_its_key(self, section, key, raw, reason):
        c = _link_base(key)
        name = f"{section}.{key}"
        with pytest.raises(ConfigInvalid) as err:
            validate(with_leaf(c, name, _ref_convert(section, key, raw)))
        assert err.value.field == name
        assert reason in str(err.value)
        with pytest.raises(ConfigInvalid) as err:
            load_config(text=f"[{section}]\n{key} = {raw}\n", base=c)
        assert err.value.field == name

    # each end the link abstraction's ranges close
    @pytest.mark.parametrize("key, raw", [
        ("alpha", "1.0"), ("alpha", "5e-324"), ("se_max_dl", "5e-324"), ("bler_slope_db", "5e-324"),
        ("bler_floor", "0.0"), ("bler_floor", repr(math.nextafter(1.0, 0.0))),
        ("harq_max_transmissions", "1"), ("harq_tx_time_s", "5e-324"),
    ])
    def test_link_range_ends_are_accepted(self, key, raw):
        c = _link_base(key)
        got = load_config(text=f"[link]\n{key} = {raw}\n", base=c)
        assert getattr(got.link, key) == _ref_convert("link", key, raw)

    # the element grid is pinned, so a grid the ports do not divide is
    # refused by its pin; the port-grid rule refuses the live port count
    @pytest.mark.parametrize("grid, value, ports", [("m", 5, "mp"), ("n", 6, "np")])
    def test_element_grid_the_ports_do_not_divide_is_rejected(self, grid, value, ports):
        c = preset(TestEnvironment.URBAN_MACRO_URLLC, "B")  # 8 x 8 elements, 2 x 4 ports
        with pytest.raises(ConfigInvalid) as err:
            validate(with_leaf(c, f"antenna.bs.{grid}", value))
        assert err.value.field == f"antenna.bs.{grid}"
        assert "only the small-scale generator reads it" in str(err.value)
        with pytest.raises(ConfigInvalid) as err:
            validate(with_leaf(c, f"antenna.bs.{ports}", value))
        assert err.value.field == f"antenna.bs.{ports}"
        assert "port grid" in str(err.value)

    def test_a_changed_pinned_key_is_named_before_the_rules_it_breaks(self):
        # m = 2 also breaks InH's port-grid rule (mp = 4), but the change is to m
        c = preset(TestEnvironment.INDOOR_HOTSPOT_EMBB, "A")
        for load in (lambda: load_config(text="[antenna.bs]\nm = 2\n", base=c),
                     lambda: validate(with_leaf(c, "antenna.bs.m", 2))):
            with pytest.raises(ConfigInvalid) as err:
                load()
            assert err.value.field == "antenna.bs.m"
            assert "only the small-scale generator reads it" in str(err.value)

    # a config built by replace is held to its preset's pins too: this one
    # would run the fixed 12-point floor and file its results under isd = 40
    def test_indoor_hotspot_isd_is_pinned_through_replace(self):
        c = preset(TestEnvironment.INDOOR_HOTSPOT_EMBB, "A")
        with pytest.raises(ConfigInvalid) as err:
            validate(replace(c, isd=40.0))
        assert err.value.field == "isd"
        assert "the 12-point floor is fixed" in str(err.value)

    # these had no range: a negative front-to-back ratio ran to a verdict,
    # and a negative beamwidth gave the bundle of the positive one
    @pytest.mark.parametrize("key, raw", [("h_3db", "-65"), ("h_3db", "0"), ("v_3db", "361"),
                                          ("front_back", "-30"), ("sidelobe", "-1")])
    def test_bs_pattern_constant_out_of_range_is_named(self, key, raw):
        c = preset(TestEnvironment.RURAL_EMBB, "A")
        with pytest.raises(ConfigInvalid) as err:
            load_config(text=f"[antenna.bs]\n{key} = {raw}\n", base=c)
        assert err.value.field == f"antenna.bs.{key}"
        assert "outside" in str(err.value)

    def test_bs_pattern_range_bounds_are_accepted(self):
        c = preset(TestEnvironment.RURAL_EMBB, "A")
        text = "[antenna.bs]\nh_3db = 360\nv_3db = 1e-3\nfront_back = 0\nsidelobe = 0\n"
        got = load_config(text=text, base=c)
        assert (got.bs_h_3db, got.bs_v_3db, got.bs_front_back, got.bs_sidelobe) == \
            (360.0, 1e-3, 0.0, 0.0)

    @pytest.mark.parametrize("field", ["isd", "duration_t"])
    def test_non_finite_top_level_field_is_named(self, field):
        c = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
        with pytest.raises(ConfigInvalid) as err:
            validate(dataclasses.replace(c, **{field: float("nan")}))
        assert err.value.field == field


class TestConfigFile:
    @pytest.mark.parametrize("env,variant", ALL_PRESETS)
    def test_round_trip_is_field_identical(self, env, variant):
        c = preset(env, variant)
        text = config_to_text(c)
        assert text == reference_config_to_text(c)
        reloaded = load_config(text=text)
        assert reloaded == c
        assert config_hash(reloaded) == config_hash(c)

    def test_single_field_override(self):
        base = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
        text = "[run]\ndrops = 100\n"
        c = load_config(text=text, base=base)
        assert c.drops == 100
        assert dataclasses.replace(c, drops=base.drops) == base

    def test_negative_isd_rejected_with_field_name(self):
        base = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
        with pytest.raises(ConfigInvalid) as err:
            load_config(text="[scenario]\nisd = -5\n", base=base)
        assert err.value.field == "isd"

    def test_empty_file_keeps_preset(self):
        base = preset(TestEnvironment.URBAN_MACRO_URLLC, "B")
        assert load_config(text="", base=base) == base

    def test_unknown_key_rejected(self):
        base = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
        with pytest.raises(ConfigInvalid):
            load_config(text="[scenario]\nfrobnicate = 1\n", base=base)

    def test_unknown_section_rejected(self):
        base = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
        with pytest.raises(ConfigSyntax):
            load_config(text="[mystery]\nx = 1\n", base=base)

    def test_parse_error_is_config_syntax(self):
        with pytest.raises(ConfigSyntax):
            load_config(text="not an ini file [ at all")

    def test_file_without_environment_needs_base(self):
        with pytest.raises(ConfigSyntax):
            load_config(text="[run]\ndrops = 5\n")

    @pytest.mark.parametrize("line,field", [("config_variant = B", "config_variant"),
                                            ("environment = UrbanMacro_URLLC", "environment")])
    def test_file_may_not_relabel_its_base(self, line, field):
        # B's parameters would not follow the label: the ISD would stay 500 m
        base = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
        with pytest.raises(ConfigInvalid) as err:
            load_config(text=f"[scenario]\n{line}\n", base=base)
        assert err.value.field == field
        assert load_config(text="[scenario]\nconfig_variant = A\n", base=base) == base

    def test_file_names_its_own_preset(self):
        text = "[scenario]\nenvironment = UrbanMacro_mMTC\nconfig_variant = B\n"
        c = load_config(text=text)
        assert c.environment is TestEnvironment.URBAN_MACRO_MMTC
        assert c.isd == 1732.0

    def test_antenna_and_link_sections_override(self, tmp_path):
        base = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
        text = "[antenna.bs]\np = 2\ndowntilt_deg = 12.0\n\n[link]\nalpha = 0.5\n"
        c = load_config(text=text, base=base)
        assert (c.antenna_bs.p, c.antenna_bs.downtilt_deg) == (2, 12.0)
        assert c.link.alpha == 0.5
        path = tmp_path / "override.cfg"
        path.write_text(text)
        assert load_config(path, base=base) == c


    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_overrides_match_reference(self, data):
        env, variant = data.draw(st.sampled_from(ALL_PRESETS))
        base = preset(env, variant)
        named = data.draw(st.booleans())  # the file names its preset instead of a base
        text = ""
        for section in data.draw(st.permutations(list(REFERENCE_KEYS))):
            keys = data.draw(st.lists(st.sampled_from(REFERENCE_KEYS[section]),
                                      unique=True, max_size=3))
            lines = [f"{key} = {data.draw(_raw_value(key, _current(base, section, key)))}"
                     for key in keys]
            if named and section == "scenario":
                lines = [f"environment = {env.value}", f"config_variant = {variant}"] + \
                    [line for line in lines if not line.startswith(("environment ", "config_variant "))]
            if lines:
                text += f"[{section}]\n" + "\n".join(lines) + "\n"
        load_base = None if named else base

        got, err = _outcome(lambda: load_config(text=text, base=load_base))
        want, want_err = _outcome(lambda: reference_load_config(text=text, base=load_base))
        assert err == want_err, text
        if err is None:
            assert got == want
            assert config_to_text(got) == reference_config_to_text(got)
            assert load_config(text=config_to_text(got)) == got


# ---------------------------------------------------------------------------
# the key walk: every config key reaches some preset's results, or is pinned
# to the preset on each environment where no value of the other keys lets it

def _walk_preset(env, variant):
    return replace(preset(env, variant), drops=1, master_seed=11)


def _results(config) -> str:
    """Every figure of one calibrated run: the calibrated P0, mean IoT and
    warnings, each KPI, each CDF's samples and, on UrbanMacro_mMTC, the
    99th-percentile delay of one drop at 1e6 devices/km^2."""
    run = engine.run(config)
    found = [run.config.link.ul_p0_dbm, run.mean_iot_db, run.warnings,
             [(k.metric, k.direction, k.speed_kmh, k.value) for k in run.kpis],
             [(name, cdf.samples.tobytes()) for name, cdf in sorted(run.cdfs.items())]]
    if config.environment is TestEnvironment.URBAN_MACRO_MMTC:
        found.append(engine.evaluate_p99_delay(
            engine.MessageService(run.config, run.layout, 1), 1e6))
    return repr(found)


@functools.cache
def _preset_results(env, variant) -> str:
    return _results(_walk_preset(env, variant))


def _pinned(env) -> dict:
    return {**scenario._PINNED[None], **scenario._PINNED[env]}


def _put(config, section, key, value):
    owner, attr, _ = scenario._KEYS[section, key]
    if owner:
        return replace(config, **{owner: replace(getattr(config, owner), **{attr: value})})
    return replace(config, **{attr: value})


_RURAL = (TestEnvironment.RURAL_EMBB, "A")
_URLLC = (TestEnvironment.URBAN_MACRO_URLLC, "A")
_MMTC = (TestEnvironment.URBAN_MACRO_MMTC, "A")

# a value of each live key that changes the results of the preset named. A 10%
# change of some (se_max_dl, bler_floor, ul_iot_target_db) changes nothing; the
# URLLC link values reach only the reliability KPI, the traffic ones only the
# messaging route
LIVE = {
    "carrier_frequency": (_RURAL, "900e6"), "isd": (_RURAL, "1000"),
    "bs_height": (_RURAL, "25"), "ue_height": (_RURAL, "3"), "bs_tx_power": (_RURAL, "40"),
    "ue_tx_power": (_RURAL, "10"), "bs_noise_figure": (_RURAL, "9"),
    "ue_noise_figure": (_RURAL, "12"), "bs_element_gain": (_RURAL, "5"),
    "ue_element_gain": (_RURAL, "3"), "thermal_noise_density": (_RURAL, "-170"),
    "bandwidth": (_RURAL, "10e6"), "indoor_fraction": (_RURAL, "0.2"),
    "ues_per_trxp": (_RURAL, "5"), "high_loss_fraction": (_RURAL, "0.6"),
    "antenna.bs.p": (_RURAL, "1"), "antenna.bs.mg": (_RURAL, "2"),
    "antenna.bs.ng": (_RURAL, "2"), "antenna.bs.mp": (_RURAL, "2"),
    "antenna.bs.np": (_RURAL, "2"), "antenna.bs.downtilt_deg": (_RURAL, "12"),
    "antenna.bs.h_3db": (_RURAL, "30"), "antenna.bs.v_3db": (_RURAL, "20"),
    "antenna.bs.front_back": (_RURAL, "10"), "antenna.bs.sidelobe": (_RURAL, "1"),
    "antenna.ue.p": (_RURAL, "2"), "antenna.ue.mg": (_RURAL, "2"),
    "antenna.ue.ng": (_RURAL, "2"), "antenna.ue.np": (_RURAL, "1"),
    "traffic.pdu_size_bytes": (_MMTC, "200"),
    "traffic.rate_per_s": (_MMTC, "0.01"), "traffic.w_user_hz": (_MMTC, "30000"),
    "traffic.eval_bandwidth_hz": (_MMTC, "360000"), "traffic.overhead_s": (_MMTC, "1"),
    "drops": (_RURAL, "2"), "master_seed": (_RURAL, "12"), "duration_t": (_RURAL, "0.05"),
    "link.alpha": (_RURAL, "0.5"), "link.se_max_dl": (_RURAL, "2"),
    "link.se_max_ul": (_RURAL, "1"), "link.sinr_min_db": (_RURAL, "-5"),
    "link.csi_backoff_db": (_RURAL, "3"), "link.bler_sinr_50_db": (_URLLC, "0"),
    "link.bler_slope_db": (_URLLC, "4"), "link.bler_floor": (_URLLC, "0.9"),
    "link.harq_max_transmissions": (_URLLC, "2"), "link.harq_tx_time_s": (_URLLC, "1e-3"),
    "link.harq_combining_gain_db": (_URLLC, "3"), "link.ul_p0_dbm": (_RURAL, "-80"),
    "link.ul_alpha": (_RURAL, "0.8"), "link.ul_iot_target_db": (_RURAL, "0"),
    "link.mu_layers_dl": (_RURAL, "1"), "link.mu_layers_ul": (_RURAL, "1"),
}

# a value of each pinned key other than every preset's, valid on all of them
PINNED_VALUES = {
    "ue_speed_indoor": 60.0, "ue_speed_outdoor": 250.0, "isd": 40.0,
    "indoor_fraction": 0.3, "high_loss_fraction": 0.7,
    "antenna.bs.m": 32, "antenna.bs.n": 32, "antenna.bs.element_spacing_h": 0.7,
    "antenna.bs.element_spacing_v": 1.1, "antenna.bs.bearing_deg": 30.0,
    "antenna.bs.downtilt_deg": 12.0, "antenna.bs.h_3db": 30.0, "antenna.bs.v_3db": 20.0,
    "antenna.bs.front_back": 10.0, "antenna.bs.sidelobe": 10.0,
    "antenna.ue.m": 2, "antenna.ue.n": 4, "antenna.ue.element_spacing_h": 0.7,
    "antenna.ue.element_spacing_v": 1.1, "antenna.ue.bearing_deg": 30.0,
    "antenna.ue.downtilt_deg": 12.0, "antenna.ue.isotropic": False,
    "link.harq_max_transmissions": 1, "link.harq_tx_time_s": 1e-3,
    "link.harq_combining_gain_db": 3.0, "link.mu_layers_dl": 1,
    "traffic.pdu_size_bytes": 200, "traffic.rate_per_s": 0.01, "traffic.w_user_hz": 30000.0,
    "traffic.eval_bandwidth_hz": 360000.0, "traffic.overhead_s": 1.0,
    "link.bler_sinr_50_db": 0.0, "link.bler_slope_db": 4.0, "link.bler_floor": 0.9,
    "link.se_max_dl": 2.0, "link.mu_layers_ul": 1,
}


def _other(name: str, base: EvaluationConfig):
    """A value of a pinned key other than the base preset's."""
    if name == "environment":  # one with the base's variant, so only the label differs
        return next(env for env in TestEnvironment if env is not base.environment
                    and base.config_variant in scenario._VARIANTS[env])
    if name == "config_variant":
        return "B" if base.config_variant == "A" else "A"
    if name == "antenna.ue.mp":
        return 2  # no port count but 1 divides the pinned m = 1
    if name == "traffic.kind":
        return next(kind for kind in TrafficKind if kind is not base.traffic.kind)
    return PINNED_VALUES[name]


class TestKeyWalk:
    @pytest.mark.parametrize("section, key", [leaf[:2] for leaf in scenario._LEAVES],
                             ids=[_ref_name(*leaf[:2]) for leaf in scenario._LEAVES])
    def test_every_key_is_pinned_or_live(self, section, key):
        name = _ref_name(section, key)
        label = name in ("environment", "config_variant")  # no file may change one
        pinned_on = [(env, v) for env, v in ALL_PRESETS if label or name in _pinned(env)]
        assert pinned_on or name in LIVE, f"{name} is neither pinned nor live"
        for env, variant in pinned_on:
            base = preset(env, variant)
            other = _other(name, base)
            loads = [lambda: load_config(text=f"[{section}]\n{key} = {_ref_fmt(other)}\n",
                                         base=base)]
            if not label:  # a pin holds however the config was built
                loads.append(lambda: validate(_put(base, section, key, other)))
            for load in loads:
                with pytest.raises(ConfigInvalid) as err:
                    load()
                assert err.value.field == name
            own = _ref_fmt(_current(base, section, key))
            assert load_config(text=f"[{section}]\n{key} = {own}\n", base=base) == base
        if name in LIVE:
            (env, variant), raw = LIVE[name]
            assert name not in _pinned(env)
            changed = load_config(text=f"[{section}]\n{key} = {raw}\n",
                                  base=_walk_preset(env, variant))
            assert _results(changed) != _preset_results(env, variant), \
                f"{name} = {raw} changes nothing on {env.value} {variant}"

    # every pinned key at once, as a dense-urban run takes about a second;
    # the UE mp = 2 would need m = 2
    @pytest.mark.parametrize("env, variant", ALL_PRESETS)
    def test_pinned_keys_change_no_result(self, env, variant):
        base = _walk_preset(env, variant)
        names = set(_pinned(env)) - {"antenna.ue.mp"}
        values = {(section, key): _other(_ref_name(section, key), base)
                  for section, key, *_ in scenario._LEAVES if _ref_name(section, key) in names}
        changed = base
        for (section, key), value in values.items():
            changed = _put(changed, section, key, value)
        want = _preset_results(env, variant)
        if _results(changed) != want:
            culprits = [_ref_name(*leaf) for leaf, value in values.items()
                        if _results(_put(base, *leaf, value)) != want]
            pytest.fail(f"pinned keys change {env.value} {variant}: {culprits or 'only together'}")


class TestRequirements:
    def test_lookup_examples(self):
        reqs = builtin_requirements()
        assert reqs.lookup(TestEnvironment.RURAL_EMBB, DOWNLINK, "avg_se").value == 3.3
        assert reqs.lookup(TestEnvironment.DENSE_URBAN_EMBB, UPLINK, "pct5_se").value == 0.15
        assert reqs.lookup(TestEnvironment.URBAN_MACRO_MMTC, UPLINK,
                           "connection_density").value == 1_000_000.0
        assert reqs.lookup(TestEnvironment.URBAN_MACRO_URLLC, DOWNLINK,
                           "reliability").value == 0.99999
        assert reqs.lookup(TestEnvironment.RURAL_EMBB, UPLINK, "mobility_rate",
                           speed_kmh=120.0).value == 0.8
        assert reqs.lookup(TestEnvironment.RURAL_EMBB, UPLINK, "mobility_rate",
                           speed_kmh=500.0).value == 0.45
        assert reqs.lookup(TestEnvironment.INDOOR_HOTSPOT_EMBB, UPLINK,
                           "mobility_rate", speed_kmh=10.0).value == 1.5

    def test_numbered_table_rows_are_enumerable(self):
        reqs = builtin_requirements()
        by_table = {}
        numbered = [r for r in reqs.rows if r.source_table in ("I", "II", "III", "VI")]
        for row in numbered:
            by_table.setdefault(row.source_table, []).append(row)
        assert len(by_table["I"]) == 6
        assert len(by_table["II"]) == 6
        assert len(by_table["III"]) == 4
        assert len(by_table["VI"]) == 4
        assert len(numbered) == 20

    def test_five_pct_se_table_values(self):
        reqs = builtin_requirements()
        expected = {
            (TestEnvironment.INDOOR_HOTSPOT_EMBB, DOWNLINK): 0.3,
            (TestEnvironment.INDOOR_HOTSPOT_EMBB, UPLINK): 0.21,
            (TestEnvironment.DENSE_URBAN_EMBB, DOWNLINK): 0.225,
            (TestEnvironment.DENSE_URBAN_EMBB, UPLINK): 0.15,
            (TestEnvironment.RURAL_EMBB, DOWNLINK): 0.12,
            (TestEnvironment.RURAL_EMBB, UPLINK): 0.045,
        }
        for (env, direction), value in expected.items():
            assert reqs.lookup(env, direction, "pct5_se").value == value

    def test_avg_se_table_values(self):
        reqs = builtin_requirements()
        expected = {
            (TestEnvironment.INDOOR_HOTSPOT_EMBB, DOWNLINK): 9.0,
            (TestEnvironment.INDOOR_HOTSPOT_EMBB, UPLINK): 6.75,
            (TestEnvironment.DENSE_URBAN_EMBB, DOWNLINK): 7.8,
            (TestEnvironment.DENSE_URBAN_EMBB, UPLINK): 5.4,
            (TestEnvironment.RURAL_EMBB, DOWNLINK): 3.3,
            (TestEnvironment.RURAL_EMBB, UPLINK): 1.6,
        }
        for (env, direction), value in expected.items():
            assert reqs.lookup(env, direction, "avg_se").value == value

    def test_missing_row_raises(self):
        reqs = builtin_requirements()
        with pytest.raises(UnknownRequirement):
            reqs.lookup(TestEnvironment.RURAL_EMBB, DOWNLINK, "connection_density")
        with pytest.raises(UnknownRequirement):
            reqs.lookup(TestEnvironment.URBAN_MACRO_MMTC, UPLINK, "nonexistent")

    def test_mobility_lookup_needs_speed_when_ambiguous(self):
        reqs = builtin_requirements()
        with pytest.raises(UnknownRequirement):
            reqs.lookup(TestEnvironment.RURAL_EMBB, UPLINK, "mobility_rate")
