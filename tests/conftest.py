"""Test-wide settings.

Property tests draw a fixed sequence of examples and carry no deadline, so
the suite gives the same verdict on every run and on a slow or busy host.
"""

from hypothesis import settings

settings.register_profile("polarlab", derandomize=True, deadline=None, max_examples=100, database=None)
settings.load_profile("polarlab")
