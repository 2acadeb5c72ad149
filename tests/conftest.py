"""One hypothesis profile for the whole suite: every generated test draws
the same examples on every run, keeps no example database and has no
deadline.  A test's own @settings still sets its max_examples."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")
