"""Hypothesis profiles of the property tests: ``tier1``, loaded by default,
runs 60 examples per property, and ``deep`` 600, selected with
``python -m pytest tests/test_properties.py --hypothesis-profile=deep``."""

from hypothesis import settings

settings.register_profile("tier1", max_examples=60, deadline=None, database=None)
settings.register_profile("deep", settings.get_profile("tier1"), max_examples=600)
settings.load_profile("tier1")
