"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a failure repeats
# and a pass means the same thing each time.  No stored examples are replayed.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
