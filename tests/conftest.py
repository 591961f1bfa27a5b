"""Suite-wide settings.

Hypothesis runs a fixed example sequence, with no example database on
disk and no per-example deadline, so the property tests give the same
result on every run and on a loaded machine.

Every test also has a wall-clock limit, so a defect that makes the
arithmetic slow fails the test that meets it instead of hanging the
suite.  The limit is armed with SIGALRM and is absent on platforms
without it.
"""

import signal

import pytest
from hypothesis import settings

settings.register_profile("glq", derandomize=True, database=None,
                          deadline=None, max_examples=50)
settings.load_profile("glq")

TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that outlives TIME_LIMIT_S.  It is not an
    Exception, so neither glq's own handlers nor hypothesis (which would
    shrink and rerun the slow example) catch it on its way out."""


def _expire(signum, frame):
    raise TimeLimitExceeded("test ran longer than %d s" % TIME_LIMIT_S)


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
