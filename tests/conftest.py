"""Shared test configuration.

Property tests run under a derandomized hypothesis profile without a
deadline, so every run draws the same examples and a slow host does not
turn a correct test into a flaky one.
"""

from hypothesis import settings

settings.register_profile("heisenmod", derandomize=True, deadline=None)
settings.load_profile("heisenmod")
