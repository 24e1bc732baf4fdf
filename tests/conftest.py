import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_worker_left_running():
    """Fail a test that leaves a worker process running; stop the stray ones
    so the tests after it start clean."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    if left:
        pytest.fail(f"{len(left)} worker process(es) left running: {left}")
