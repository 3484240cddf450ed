"""Geometry-based stochastic channel: profiles plus the per-link generator.

The drop loop (``engine.compute_coupling``) uses the LOS probability,
pathloss and shadow-fading parts of this package, plus the antenna element
gain, and nothing else. The small-scale generator (``realize_link``,
``gen_clusters``, ``channel_coeff``) is checked by acceptance criterion 3
but the engine never calls it, so the UE speeds (``ue_speed_indoor``,
``ue_speed_outdoor``) and the UE direction it would take for Doppler change
no KPI today.
"""

from .model import (
    ChannelRealization,
    ClusterSet,
    LargeScaleParams,
    PropagationCondition,
    apply_pl_sf,
    assign_los,
    channel_coeff,
    free_space_1m_db,
    gen_clusters,
    gen_lsp,
    geometry_angles,
    los_probability,
    pathloss,
    pathloss_curves,
    realize_link,
)
from .profiles import (
    C_PHI,
    C_THETA,
    N_RAYS,
    RAY_OFFSETS,
    ChannelProfile,
    ConditionParams,
    builtin_profiles,
    get_profile,
    load_profiles,
    profile_for,
)

__all__ = [
    "ChannelRealization", "ClusterSet", "LargeScaleParams", "PropagationCondition",
    "apply_pl_sf", "assign_los", "channel_coeff", "free_space_1m_db", "gen_clusters",
    "gen_lsp", "geometry_angles", "los_probability", "pathloss", "pathloss_curves",
    "realize_link", "C_PHI", "C_THETA", "N_RAYS", "RAY_OFFSETS", "ChannelProfile",
    "ConditionParams", "builtin_profiles", "get_profile", "load_profiles", "profile_for",
]
