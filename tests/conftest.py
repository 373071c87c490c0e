"""One hypothesis profile for the suite: every property test draws the
same examples on every run, keeps no example database and has no
per-example deadline (timings vary between hosts)."""

from hypothesis import settings

settings.register_profile("orlicz-lab", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("orlicz-lab")
