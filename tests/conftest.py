"""Hypothesis profiles of the property tests: ``tier1``, loaded by default,
runs 60 examples per property, and ``deep`` 600, selected with
``python -m pytest tests/test_properties.py --hypothesis-profile=deep``.

Hypothesis's pytest plugin imports ``hypothesis.extra._patching`` to
report a failing property; through libcst that touches
``mypy_extensions.TypedDict``, whose ``DeprecationWarning`` the
``filterwarnings = ["error"]`` setting would raise there, so pytest would
print an INTERNALERROR in place of the falsifying example.  It is
imported once here, ignoring that one warning (and skipped where libcst
is not installed: the plugin then reports without it).
"""

import warnings
from contextlib import suppress

from hypothesis import settings

pytest_plugins = ["pytester"]

with warnings.catch_warnings(), suppress(ImportError):
    warnings.filterwarnings("ignore", message=r"mypy_extensions\.TypedDict is deprecated",
                            category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("tier1", max_examples=60, deadline=None, database=None)
settings.register_profile("deep", settings.get_profile("tier1"), max_examples=600)
settings.load_profile("tier1")
