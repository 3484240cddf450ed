"""Hypothesis profiles. ``--hypothesis-profile=ci`` derandomizes every
property and prints the reproduction blob of a failing example, so a CI
failure replays locally; without the option the default profile applies."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
