"""Hypothesis profiles.

``bounded`` is the default: it caps the example count and the deadline of
every property that does not set its own (at hypothesis's own defaults),
so that the whole suite stays well under 30 s.  ``thorough`` runs many
more examples with no deadline; select it for a run on request with
``HYPOTHESIS_PROFILE=thorough``.
"""

import os

from hypothesis import settings

settings.register_profile("bounded", max_examples=100, deadline=200)
settings.register_profile("thorough", max_examples=2_000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "bounded"))
