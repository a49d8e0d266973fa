"""Shared test configuration.

Hypothesis is derandomized so the released suite is fully reproducible:
every run explores the same example set.  (During development, run with
``HYPOTHESIS_PROFILE=explore`` to search fresh examples.)
"""

import os
import threading

import pytest
from hypothesis import HealthCheck, settings

from repro.resilience import FaultInjector

settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "explore",
    derandomize=False,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


class _StallFirstApply(FaultInjector):
    """Stalls the apply of commit 1 for ``seconds``; ``started`` is set
    just before the shard blocks."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.started = threading.Event()

    def on_apply(self, shard, when, seq):
        if when == "pre" and seq == 1:
            self.started.set()
            return ("stall", self.seconds)
        return None


@pytest.fixture
def stall_first_apply():
    """Factory: ``stall_first_apply(seconds)`` is an injector that stalls
    the first commit's apply (set it as ``executor.injector``)."""
    return _StallFirstApply


# Malformed vertex ids, each a function of the vertex count ``n``: every
# entry point (wire submit, ``submit_update``, spec boot with and without a
# manager, replica tenants) refuses each one.
_MALFORMED_IDS = {
    "float": lambda n: 1.5,
    "bool": lambda n: True,
    "str": lambda n: "3",
    "none": lambda n: None,
    "negative": lambda n: -1,
    "n": lambda n: n,
    "u32_end": lambda n: 2**32,
}


@pytest.fixture(params=list(_MALFORMED_IDS))
def malformed_id(request):
    """``malformed_id(n)`` is one malformed id of the table for a graph of
    ``n`` vertices."""
    return _MALFORMED_IDS[request.param]
