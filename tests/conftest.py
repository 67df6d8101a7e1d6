"""A time limit on every test, so a kernel whose entries blow up fails its
test instead of stalling the whole run.

The limit is a real-time interval timer (``signal.setitimer``) whose SIGALRM
raises ``TestTimeLimit`` in the test; it needs POSIX, and elsewhere tests
run without a limit.
"""

import signal

import pytest

TIME_LIMIT_S = 120


class TestTimeLimit(Exception):
    """A test ran past TIME_LIMIT_S seconds."""

    __test__ = False  # not a test class, whatever its name


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TestTimeLimit(f"{item.nodeid} ran past the {TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
