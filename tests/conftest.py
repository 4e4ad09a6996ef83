import multiprocessing
import threading

import pytest


@pytest.fixture(autouse=True)
def no_worker_left():
    """Fail any test after which a ``parterm-worker-*`` thread or a child
    process is still alive: a run joins its workers before it returns or
    raises."""
    yield
    left = [th.name for th in threading.enumerate() if th.name.startswith("parterm-worker-")]
    assert not left, f"worker threads still alive after the test: {left}"
    children = multiprocessing.active_children()
    assert not children, f"child processes still alive after the test: {children}"
