"""Channel profile data: per-environment large-scale tables, cluster
structure constants and pathloss exponents, loaded from profiles.ini.

Profiles are plain data so the generator stays auditable. Runs always read
the shipped file: ``load_profiles(path)`` parses another, but nothing feeds it
to a run. ``profile_to_text`` writes a profile back in the same format.
"""

from __future__ import annotations

import configparser
import typing
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ..errors import ConfigInvalid, ConfigSyntax
from ..scenario import TestEnvironment

# order of large-scale parameters in the correlation matrix
LSP_ORDER = ("sf", "k", "ds", "asd", "asa", "zsd", "zsa")

# valid cluster counts are those with ray-mapping constants for both cuts
C_PHI = {4: 0.779, 5: 0.860, 8: 1.018, 10: 1.090, 11: 1.123, 12: 1.146,
         14: 1.190, 15: 1.211, 16: 1.226, 19: 1.273, 20: 1.289, 25: 1.358}
C_THETA = {8: 0.889, 10: 0.957, 11: 1.031, 12: 1.104, 15: 1.1088,
           19: 1.184, 20: 1.178, 25: 1.282}

# fixed offsets of the 20 rays within a cluster (unit spread)
RAY_OFFSETS = np.array([
    0.0447, -0.0447, 0.1413, -0.1413, 0.2492, -0.2492, 0.3715, -0.3715,
    0.5129, -0.5129, 0.6797, -0.6797, 0.8844, -0.8844, 1.1481, -1.1481,
    1.5195, -1.5195, 2.1551, -2.1551,
])
N_RAYS = len(RAY_OFFSETS)


@dataclass(frozen=True)
class ConditionParams:
    """Parameters of one (profile, LOS/NLOS) condition."""

    n_clusters: int
    r_tau: float
    per_cluster_shadow_db: float
    c_asd: float
    c_asa: float
    c_zsa: float
    xpr_mu_db: float
    xpr_sigma_db: float
    lg_ds_mu: float
    lg_ds_sigma: float
    lg_asd_mu: float
    lg_asd_sigma: float
    lg_asa_mu: float
    lg_asa_sigma: float
    lg_zsd_mu: float
    lg_zsd_sigma: float
    lg_zsa_mu: float
    lg_zsa_sigma: float
    sf_sigma_db: float
    k_mu_db: float = 0.0
    k_sigma_db: float = 0.0
    pl_exp1: float = 2.0
    pl_exp2: float = 4.0
    nlos_exp: float = 0.0
    nlos_offset_db: float = 0.0
    corr: np.ndarray = field(default_factory=lambda: np.eye(7))
    # lower Cholesky factor of corr, computed once when the params are built
    chol: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        eig = np.linalg.eigvalsh(self.corr)
        if eig.min() < -1e-9:
            raise ConfigInvalid("corr", f"correlation matrix not PSD (min eig {eig.min():.2e})")
        # tiny jitter keeps Cholesky defined at the PSD boundary
        chol = np.linalg.cholesky(self.corr + 1e-10 * np.eye(7))
        chol.flags.writeable = False
        object.__setattr__(self, "chol", chol)


@dataclass(frozen=True)
class ChannelProfile:
    name: str
    plos_model: str
    pen_low_db: float
    pen_high_db: float
    los: ConditionParams
    nlos: ConditionParams

    def condition_params(self, los: bool) -> ConditionParams:
        return self.los if los else self.nlos


# a condition section's keys: the scalar ConditionParams fields, parsed by
# their declared type, plus one corr_<lsp>_<lsp> key per non-zero correlation
_SCALAR_KEYS = {name: kind for name, kind in typing.get_type_hints(ConditionParams).items()
                if kind in (int, float)}


def _parse_condition(items: dict, section: str) -> ConditionParams:
    kwargs = {}
    corr = np.eye(7)
    for key, raw in items.items():
        if key in _SCALAR_KEYS:
            kwargs[key] = _SCALAR_KEYS[key](raw)
        elif key.startswith("corr_"):
            parts = key.split("_")
            if len(parts) != 3 or parts[1] not in LSP_ORDER or parts[2] not in LSP_ORDER:
                raise ConfigSyntax(f"bad correlation key '{key}' in [{section}]")
            i, j = LSP_ORDER.index(parts[1]), LSP_ORDER.index(parts[2])
            corr[i, j] = corr[j, i] = float(raw)
        else:
            raise ConfigSyntax(f"unknown key '{key}' in [{section}]")
    kwargs["corr"] = corr
    params = ConditionParams(**kwargs)
    if params.n_clusters not in C_PHI or params.n_clusters not in C_THETA:
        raise ConfigInvalid("n_clusters", f"{params.n_clusters} has no ray-mapping constant")
    return params


def load_profiles(path=None) -> dict:
    """Parse a profile file into {name: ChannelProfile}."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    if path is None:
        text = resources.files("imteval.channel").joinpath("profiles.ini").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigSyntax(f"profile parse error: {exc}") from exc

    bases = [s for s in parser.sections() if "." not in s]
    profiles = {}
    for base in bases:
        head = dict(parser.items(base))
        for sub in (f"{base}.los", f"{base}.nlos"):
            if not parser.has_section(sub):
                raise ConfigSyntax(f"profile {base} is missing section [{sub}]")
        profiles[base] = ChannelProfile(
            name=base,
            plos_model=head.get("plos_model", "always"),
            pen_low_db=float(head.get("pen_low_db", 0.0)),
            pen_high_db=float(head.get("pen_high_db", 0.0)),
            los=_parse_condition(dict(parser.items(f"{base}.los")), f"{base}.los"),
            nlos=_parse_condition(dict(parser.items(f"{base}.nlos")), f"{base}.nlos"),
        )
    return profiles


def profile_to_text(profile: ChannelProfile) -> str:
    """One profile as the profiles.ini sections that ``load_profiles`` reads
    back to an equal profile."""
    lines = [f"[{profile.name}]", f"plos_model = {profile.plos_model}",
             f"pen_low_db = {profile.pen_low_db!r}", f"pen_high_db = {profile.pen_high_db!r}"]
    for label, cond in (("los", profile.los), ("nlos", profile.nlos)):
        lines += ["", f"[{profile.name}.{label}]"]
        lines += [f"{key} = {getattr(cond, key)!r}" for key in _SCALAR_KEYS]
        lines += [f"corr_{LSP_ORDER[i]}_{LSP_ORDER[j]} = {float(cond.corr[i, j])!r}"
                  for i in range(7) for j in range(i + 1, 7) if cond.corr[i, j] != 0.0]
    return "\n".join(lines) + "\n"


_cache: dict | None = None


def builtin_profiles() -> dict:
    global _cache
    if _cache is None:
        _cache = load_profiles()
    return _cache


def get_profile(name: str) -> ChannelProfile:
    profiles = builtin_profiles()
    if name not in profiles:
        raise ConfigInvalid("profile", f"unknown channel profile '{name}'; "
                                       f"available: {sorted(profiles)}")
    return profiles[name]


def profile_for(environment: TestEnvironment, variant: str, micro: bool = False) -> ChannelProfile:
    """Profile used for a link in the given environment/model variant.

    The micro layer of the dense-urban environment uses the street-level
    profile; everything else maps to its macro profile family. Only the
    urban-macro family has distinct A/B tables.
    """
    if micro:
        return get_profile("UMi")
    if environment in (TestEnvironment.URBAN_MACRO_MMTC, TestEnvironment.URBAN_MACRO_URLLC,
                       TestEnvironment.DENSE_URBAN_EMBB):
        return get_profile("UMa_B" if variant == "B" else "UMa_A")
    if environment is TestEnvironment.RURAL_EMBB:
        return get_profile("RMa")
    return get_profile("InH")
