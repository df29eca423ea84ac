import signal

import pytest
from hypothesis import settings, HealthCheck

# derandomized: every run checks the same examples, in the same time
settings.register_profile(
    "default", max_examples=50, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")

# seconds one test may run; the slowest takes under 2 s
TIME_LIMIT = 60


class TimeLimitExceeded(BaseException):
    """Raised inside a test that runs past ``TIME_LIMIT``.  Not an
    ``Exception``: hypothesis would shrink and replay one, and library code
    that catches ``Exception`` would swallow it."""


@pytest.hookimpl(hookwrapper=True)
def _time_limited(item):
    """Fail a test whose setup, call or teardown runs past ``TIME_LIMIT``
    seconds, with a traceback from where it was, instead of letting a loop
    hang the suite.  Only where SIGALRM exists, as on Linux and macOS."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past {TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


pytest_runtest_setup = pytest_runtest_call = pytest_runtest_teardown = \
    _time_limited


@pytest.fixture(scope="session")
def corpus_entries():
    from gintools.corpus import builtin_entries
    return {entry.name: entry for entry in builtin_entries()}


@pytest.fixture(scope="session")
def corpus_gins(corpus_entries):
    """gin at seed 0 with 5 votes, shared across the suite."""
    from gintools.gin import gin
    return {name: gin(entry.ideal(), seed=0, votes=5)
            for name, entry in corpus_entries.items()}
