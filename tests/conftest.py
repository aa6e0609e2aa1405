"""Hypothesis profiles: tier-1 runs draw the same examples every time.

"tier1" (the default) derandomizes every hypothesis test, so each run of
the suite checks the same examples and a failure repeats.  "explore" draws
fresh random examples; choose it with pytest's own option:

    python -m pytest --hypothesis-profile explore
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)


def pytest_configure(config):
    settings.load_profile(config.getoption("--hypothesis-profile") or "tier1")
