"""Shared strategies and fixtures."""

import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import reflexive_lab
from reflexive_lab import iter_reflexive_qvectors, make_qvector

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def qvectors(max_n=5, max_entry=10):
    """Arbitrary valid q-vectors (weakly increasing after canonicalization)."""
    return st.lists(
        st.integers(min_value=1, max_value=max_entry), min_size=1, max_size=max_n
    ).map(make_qvector)


_REFLEXIVE_POOL = list(iter_reflexive_qvectors(4, 24))


def reflexive_qvectors():
    """Reflexive q-vectors with n <= 4 and sum(q) <= 24."""
    return st.sampled_from(_REFLEXIVE_POOL)


@pytest.fixture
def python():
    """Runs a child interpreter, which imports this same package, with the
    given arguments and returns its completed process."""
    src = os.path.dirname(os.path.dirname(reflexive_lab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)

    return run
