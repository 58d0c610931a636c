"""Settings every test module shares: a time limit per test and a memory
limit for the whole run.

A fault in a loop of the package (the searcher's, say) would otherwise
run until the CI job's own timeout.  The limit is a SIGALRM around each
test's call, so it needs no plugin; where the platform has no SIGALRM,
tests run without it.

A loop that allocates as it turns fills memory long before the time
limit fires, so at session start the address space of the test process,
and of every process it starts, is capped at TEST_MEMORY_LIMIT
(``resource.RLIMIT_AS``).  The cap is only ever lowered, never raised;
where the platform has no ``resource`` module or no RLIMIT_AS, or
refuses the setting, tests run without it.
"""

import signal

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

# The slowest test, c10 (the closed form for the square roots of one up to
# 10^5), takes about 20 s on a 2-CPU machine, and its own budget is 30 s.
# Four times that budget leaves room for a slow runner while a test stuck
# in a loop still fails in two minutes.
TEST_TIME_LIMIT_S = 120

# The whole suite passes under a 2 GiB address-space cap at about 120 MB
# peak RSS (Python 3.11).  A loop that grows a list at 250 MB/s reaches
# the cap in seconds and fails with a MemoryError, where without it the
# machine's memory would run out first.
TEST_MEMORY_LIMIT = 2 << 30


def pytest_sessionstart(session):
    if resource is None or not hasattr(resource, "RLIMIT_AS"):
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY and soft <= TEST_MEMORY_LIMIT:
        return
    try:
        resource.setrlimit(resource.RLIMIT_AS, (TEST_MEMORY_LIMIT, hard))
    except (ValueError, OSError):  # refused: run without the cap
        pass


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
