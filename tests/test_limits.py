"""The memory limit that conftest.py sets for the whole run.

RLIMIT_AS caps a process's address space on Linux; elsewhere it may be
missing or not enforced, and an allocation past it could really be made,
so these tests run on Linux only.
"""

import subprocess
import sys
import time

import pytest

from conftest import TEST_MEMORY_LIMIT

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")


def test_the_run_is_capped_at_the_memory_limit():
    import resource

    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    assert soft != resource.RLIM_INFINITY and soft <= TEST_MEMORY_LIMIT


def test_an_allocation_past_the_limit_fails_at_once():
    # the child inherits the cap, so a bytearray as large as the cap is
    # refused before a byte of it is touched
    import resource

    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    assert soft != resource.RLIM_INFINITY and soft <= TEST_MEMORY_LIMIT, "no cap: the child would allocate"
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", f"bytearray({TEST_MEMORY_LIMIT})"], capture_output=True, text=True, timeout=60
    )
    assert time.monotonic() - start < 10
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == "MemoryError"
