"""Smoke test of the benchmark's traced training step.

perfbench/traced.py replays a training step from the program's public
functions and reads its configuration fields, so a change that renames or
removes one of them fails here rather than only in a benchmark run.
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import pipeline  # noqa: E402
import traced  # noqa: E402
from lesionseg.data import gen_synthetic  # noqa: E402


@pytest.fixture(scope="module")
def samples():
    return gen_synthetic(replace(pipeline.synth_config(1), count=6))


@pytest.mark.wallclock
@pytest.mark.parametrize("full", [True, False], ids=["train_full", "train_baseline"])
def test_traced_steps_match_the_program(samples, full):
    cfg = replace(pipeline.train_config(1, full), max_iter=2)
    checks = pipeline.Checks()
    start = time.perf_counter()
    metrics = traced.trace_steps(samples, cfg, seconds=0.0, checks=checks)
    elapsed = time.perf_counter() - start
    assert checks.failed == 0, checks.notes
    # two steps each matched to the program, then the two-step train() check
    assert checks.attempted == 3
    assert metrics["trace.steps"] == 2
    assert elapsed < 10.0
