"""Shared test settings.

Every ``hypothesis`` test runs under one profile: no per-example deadline,
since timings on a loaded machine vary, and derandomized, so a run draws
the same examples every time.
"""

from hypothesis import settings

settings.register_profile("trackfuse", deadline=None, derandomize=True)
settings.load_profile("trackfuse")
