"""Shared test configuration.

Property tests draw their examples from a fixed seed (derandomize) with no
per-example deadline and a bounded example count, so the suite is
deterministic and its run time stays predictable.
"""

from hypothesis import settings

settings.register_profile("monarch", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("monarch")
