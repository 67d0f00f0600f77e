"""Shared test settings: hypothesis draws the same examples on every run."""

from hypothesis import settings

# Derandomised draws: CI and a local run see the same examples, so a
# failure in one reproduces in the other.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
