"""Shared fixtures of the test suite.

Every test runs under a time limit of ``LIMIT_S`` seconds where the
platform has ``SIGALRM``, so a fault that makes some step cost far more
than it should fails its test instead of hanging the whole suite.  No
test is near the limit: the suite takes about 10 s in all.
"""

import signal

import pytest

LIMIT_S = 60


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"ran past the per-test limit of {LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
