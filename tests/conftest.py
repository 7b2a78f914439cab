"""Shared pytest configuration: hypothesis profile, common fixtures,
and a fallback implementation of the ``timeout`` marker.

The server/concurrency suites mark themselves ``@pytest.mark.timeout``
so a hung event loop or deadlocked scheduler fails fast instead of
wedging the whole run.  When the ``pytest-timeout`` plugin is
installed (CI) it owns the marker; in bare environments the
SIGALRM-based fallback below enforces it for main-thread tests on
POSIX, and the marker degrades to a no-op elsewhere.
"""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it exceeds the wall-clock "
        "budget (pytest-timeout when installed, SIGALRM fallback "
        "otherwise)")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("timeout")
    usable = (
        marker is not None
        and marker.args
        and not item.config.pluginmanager.hasplugin("timeout")
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return
    seconds = float(marker.args[0])

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds:g}s timeout marker")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(params=["plain", "replayed"])
def service_cls(request):
    """The service class a scenario runs on: the production service,
    and a subclass that pins every operation it executes against the
    engine replay (:class:`tests.support.differential.
    ReplayCheckedService`)."""
    from repro.service import BitwiseService
    from tests.support.differential import ReplayCheckedService

    return {"plain": BitwiseService,
            "replayed": ReplayCheckedService}[request.param]
