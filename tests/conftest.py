"""Fixtures every test runs under."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread alive: predict_mask's pipeline, the
    training forward pass's head worker and backward's worker are joined
    before their calls return or raise."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running: {left}")
