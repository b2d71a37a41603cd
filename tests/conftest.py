import signal

import pytest

from kum3check.config import default_config
from kum3check.engine import Engine

# Wall-clock seconds a test may run; the slowest takes under 5.
TEST_TIME_LIMIT = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past ``TEST_TIME_LIMIT``.

    Not an ``Exception``, so hypothesis does not catch it to shrink the
    example: the test fails at its limit, and the next test runs.
    """


@pytest.fixture(autouse=True)
def time_limit(request):
    """Arm a real-time timer around each test where ``setitimer`` exists."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def doc():
    return default_config()


@pytest.fixture(scope="session")
def engine(doc):
    return Engine(doc)


@pytest.fixture(scope="session")
def failure_corpus_runs(tmp_path_factory):
    """Each failure-corpus document's exit code, stdout and stderr, run once."""
    from test_failure_golden import run_corpus

    return run_corpus(tmp_path_factory.mktemp("failure-corpus"))
