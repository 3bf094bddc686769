"""Suite-wide checks shared by every test module."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_its_test():
    """Fail a test that leaves a child process running, e.g. an augmentation worker."""
    yield
    left = multiprocessing.active_children()  # also reaps the finished ones
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail(f"test left live child processes: {[child.pid for child in left]}")
