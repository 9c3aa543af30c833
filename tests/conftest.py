"""Hypothesis profiles for the test suite.

``pytest --hypothesis-profile=ci`` selects the ``ci`` profile, under which
only the artifact writer's byte oracles in ``test_artifacts.py`` run ten times
their tier-1 example count. Every other test keeps its own settings.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
