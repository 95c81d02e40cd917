"""Settings shared by the whole test suite."""

from hypothesis import settings

# every run draws the same examples, whatever a local example database holds
settings.register_profile("repeatable", derandomize=True, deadline=None, database=None)
settings.load_profile("repeatable")
