"""Shared test settings.

Hypothesis runs derandomised, so every run of the suite draws the same
examples, with no example database written and no per-example deadline.
"""

from hypothesis import settings

settings.register_profile("divknn", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.load_profile("divknn")
