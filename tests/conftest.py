"""Settings every test module shares: a time limit per test.

A fault in a loop of the package (the searcher's, say) would otherwise
run until the CI job's own timeout.  The limit is a SIGALRM around each
test's call, so it needs no plugin; where the platform has no SIGALRM,
tests run without it.
"""

import signal

import pytest

# The slowest test, c10 (the closed form for the square roots of one up to
# 10^5), takes about 20 s on a 2-CPU machine, and its own budget is 30 s.
# Four times that budget leaves room for a slow runner while a test stuck
# in a loop still fails in two minutes.
TEST_TIME_LIMIT_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past its {TEST_TIME_LIMIT_S} s limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
