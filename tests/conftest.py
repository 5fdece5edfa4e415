"""Fixtures shared by the tests; the first runs under every test."""

import threading

import pytest

from lesionseg.autodiff import Tensor


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread alive: predict_mask's pipeline, a
    recording model_forward's worker and backward's worker are joined
    before their calls return or raise."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running: {left}")


@pytest.fixture
def accumulated_dtypes(monkeypatch):
    """The dtypes of the gradients the rules return, recorded as the walk
    accumulates them and before any cast to the input's dtype."""
    seen = []
    accum = Tensor._accum

    def recorded(self, g):
        seen.append(g.dtype)
        accum(self, g)
    monkeypatch.setattr(Tensor, "_accum", recorded)
    return seen
