"""Suite-wide settings.

Hypothesis runs under a derandomized profile without deadlines, so every run
of the suite draws the same examples; pass ``--hypothesis-profile=default``
to pytest to explore fresh ones.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
