"""Benchmark-suite configuration.

Each benchmark runs its experiment once (rounds=1) — these are simulation
replays, not microbenchmarks — and prints the table the corresponding
figure/claim in the paper predicts. Run with::

    pytest benchmarks/ --benchmark-only -s
"""

import gc
import time

import pytest

from repro.sim import Simulator


@pytest.fixture
def once(benchmark):
    """Run a harness exactly once under the benchmark timer and return its
    result rows."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


def _metered(fn, *args, repeats=1, **kwargs):
    """Run ``fn`` ``repeats`` times and return (result, total events fired
    across every simulator one run built, best wall seconds).

    Earlier legs leave large cyclic object graphs behind (testbeds
    reference their machines and closures back), so each run starts with
    a ``gc.collect()`` and their GC cost is not billed to the section being
    metered. The event count is deterministic across repeats; the wall
    clock is not, so regression-gated entries may take best-of-N."""
    best = None
    for _ in range(repeats):
        sims = []
        orig_init = Simulator.__init__

        def _tracking_init(self):
            orig_init(self)
            sims.append(self)

        gc.collect()
        Simulator.__init__ = _tracking_init
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            Simulator.__init__ = orig_init
        seconds = time.perf_counter() - t0
        events = sum(s.events_fired for s in sims)
        if best is None or seconds < best[2]:
            best = (result, events, seconds)
    return best


@pytest.fixture
def metered():
    """The shared bench metering helper (see :func:`_metered`)."""
    return _metered
