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
