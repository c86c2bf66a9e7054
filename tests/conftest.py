"""Shared test settings.

Hypothesis draws its examples from a seed derived from each test, so every
run of the suite, on any checkout, tries the same inputs.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")
