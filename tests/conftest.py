"""A wall-clock bound on every test, so a loop that never ends fails the
run instead of hanging it, and a counter of the posets a test builds."""

import signal
import threading

import pytest

from esakiakit import Poset

TEST_TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test once it has run TEST_TIME_LIMIT_S seconds. SIGALRM
    exists only on POSIX and is delivered only to the main thread; without
    it the test runs unbounded."""
    if not hasattr(signal, "SIGALRM") or \
            threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past its {TEST_TIME_LIMIT_S} s bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def built_posets(monkeypatch):
    """The size of every poset built while the test runs, in order: every
    constructor goes through `Poset._from_above`."""
    built = []
    core = Poset._from_above.__func__

    def counting(cls, n, above, labels):
        built.append(n)
        return core(cls, n, above, labels)

    monkeypatch.setattr(Poset, "_from_above", classmethod(counting))
    return built
