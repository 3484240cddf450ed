"""Hypothesis profiles, and the link shared by the tests. ``--hypothesis-profile=ci``
derandomizes every property and prints the reproduction blob of a failing
example, so a CI failure replays locally; without the option the default
profile applies."""

import math

from hypothesis import settings

from imteval.link import LinkParams

settings.register_profile("ci", derandomize=True, print_blob=True)

# a link that never loses a block, at any SINR
ZERO_BLER = LinkParams(bler_sinr_50_db=-math.inf, bler_slope_db=1.0, bler_floor=0.0)
