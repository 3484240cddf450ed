"""The input boundary: a bad number passed to any entry point that takes
numbers is named before any work is done.

Each example corrupts one argument of one entry point, or one config leaf
(through ``replace`` or through config-file text), with a bool, NaN, +-inf,
0, -1, 2.5 or a string, and expects ``DomainError`` naming the argument or
``ConfigInvalid`` naming the file key. The engine's work (layout, drops, link
stage, message draws) and the search's probe raise ``Reached`` meanwhile, so
a check that comes after any of it fails the property. A numpy scalar of the
right kind must pass: it reaches the work, or the call returns."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_scenario import _ref_name, with_leaf

from imteval import engine, metrics, scenario
from imteval.errors import ConfigInvalid, DomainError, UnknownPreset
from imteval.scenario import TestEnvironment, list_presets, load_config, preset, validate
from imteval.traffic import serve_fifo


class Reached(Exception):
    """Work began: every argument passed the boundary."""


def _work(*args, **kwargs):
    raise Reached


MMTC_A = preset(TestEnvironment.URBAN_MACRO_MMTC, "A")
# stand-ins for a layout and a service: the boundary reads neither, and
# MessageService reads the TRxP count only once its argument has passed
LAYOUT = types.SimpleNamespace(sector_area_m2=1.0, n_trxps=57)
SERVICE = types.SimpleNamespace(config=MMTC_A, sector_area_m2=1.0)

# entry point -> (call with keyword arguments, {numeric argument: the least
# integer it takes, or None for a real in (0, inf)})
ENTRY_POINTS = {
    "run": (lambda **kw: engine.run(MMTC_A, **kw),
            {"workers": 1, "convergence_window": 1, "convergence_tol": None}),
    "calibrate_ul_power": (lambda **kw: engine.calibrate_ul_power(MMTC_A, LAYOUT, **kw),
                           {"probes": 1, "max_iterations": 1}),
    "MessageService": (lambda n_drops: engine.MessageService(MMTC_A, LAYOUT, n_drops),
                       {"n_drops": 1}),
    "evaluate_p99_delay": (lambda density_per_km2=1e6, horizon_s=20.0: engine.evaluate_p99_delay(
        SERVICE, density_per_km2, horizon_s), {"density_per_km2": None, "horizon_s": None}),
    "density_search": (lambda **kw: engine.density_search(MMTC_A, **kw),
                       {"lo_per_km2": None, "hi_per_km2": None, "steps": 0, "n_drops": 1}),
    "connection_density_search": (
        lambda lo_per_km2=1e5, hi_per_km2=1e7, steps=3: metrics.connection_density_search(
            _work, lo_per_km2, hi_per_km2, steps), {"lo_per_km2": None, "hi_per_km2": None,
                                                   "steps": 0}),
    "serve_fifo": (lambda n_servers: serve_fifo([0.0], np.ones(1, np.uint8), [np.inf, 1.0],
                                                n_servers),
                   {"n_servers": 1}),
}
ARGUMENTS = [(entry, name) for entry, (_, kinds) in ENTRY_POINTS.items() for name in kinds]

PRESETS = [preset(env, variant) for env, variant, _ in list_presets()]
LEAVES = [(section, key, kind) for section, key, _, _, kind in scenario._LEAVES]

CORRUPTIONS = [True, math.nan, math.inf, -math.inf, 0, -1, 2.5, "many"]


def _in_domain(value, minimum) -> bool:
    """Whether ``value`` is a number the argument takes: the rule under test,
    restated for the corruptions, which are all Python scalars."""
    if isinstance(value, bool) or isinstance(value, str):
        return False
    if minimum is None:
        return 0 < value < math.inf
    return isinstance(value, int) and value >= minimum


def _leaf_ok(value, kind) -> bool:
    """Whether a leaf value that validate let through is of its type and finite."""
    if kind is bool:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    return isinstance(value, scenario._NUMERIC.get(kind, kind)) and (
        kind is not float or math.isfinite(value))


def _text(value) -> str:
    return value if isinstance(value, str) else str(value)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_bad_number_is_named_before_any_work(data):
    with pytest.MonkeyPatch.context() as patch:
        for name in ("build_layout", "run_drop", "_link_stage", "_draw_messages"):
            patch.setattr(engine, name, _work)
        if data.draw(st.booleans(), label="an entry point's argument"):
            entry, name = data.draw(st.sampled_from(ARGUMENTS))
            call, kinds = ENTRY_POINTS[entry]
            value = data.draw(st.sampled_from(
                [v for v in CORRUPTIONS if not _in_domain(v, kinds[name])]
                + [np.int64(3) if kinds[name] is not None else np.float64(2.5e6)]))
            if isinstance(value, np.generic):  # the right kind: it passes
                try:
                    call(**{name: value})
                except Reached:
                    pass
                return
            with pytest.raises(DomainError) as err:
                call(**{name: value})
            assert err.value.field == name
            return

        base = data.draw(st.sampled_from(PRESETS))
        section, key, kind = data.draw(st.sampled_from(LEAVES))
        name = _ref_name(section, key)
        current = scenario._leaf_values(base)[name]
        value = data.draw(st.sampled_from(CORRUPTIONS + (
            [np.float64(current)] if kind is float else
            [np.int64(current)] if kind is int else [])))
        if isinstance(value, np.generic):
            validate(with_leaf(base, name, value))
            return
        if data.draw(st.booleans(), label="through config text"):
            if name == "environment":  # the text names a preset
                with pytest.raises(UnknownPreset):
                    load_config(text=f"[{section}]\n{key} = {_text(value)}\n", base=base)
                return
            load = lambda: load_config(text=f"[{section}]\n{key} = {_text(value)}\n", base=base)
        else:
            load = lambda: validate(with_leaf(base, name, value))
        try:
            config = load()
        except ConfigInvalid as err:
            assert err.field == name
        else:  # only a value of the leaf's type, finite, gets through
            assert _leaf_ok(scenario._leaf_values(config)[name], kind)
