"""Discrete-event engine behaviour."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.after(30, order.append, "c")
        sim.after(10, order.append, "a")
        sim.after(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.after(100, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.after(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.after(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.after(5, order.append, "nested")

        sim.after(10, first)
        sim.after(100, order.append, "last")
        sim.run()
        assert order == ["first", "nested", "last"]
        assert sim.now == 100


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.after(10, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.after(10, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        h = sim.after(10, lambda: None)
        sim.after(20, lambda: None)
        h.cancel()
        assert sim.peek() == 20


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.after(10, fired.append, "early")
        sim.after(100, fired.append, "late")
        sim.run(until=50)
        assert fired == ["early"]
        assert sim.now == 50
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=1_000)
        assert sim.now == 1_000

    def test_max_events_bound(self):
        sim = Simulator()
        for _ in range(10):
            sim.after(1, lambda: None)
        sim.run(max_events=3)
        assert sim.events_fired == 3

    def test_run_until_idle_detects_livelock(self):
        sim = Simulator()

        def rescheduler():
            sim.after(1, rescheduler)

        sim.after(1, rescheduler)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)


class TestHeapCompaction:
    def test_compaction_triggers_when_cancelled_dominate(self):
        sim = Simulator()
        keep = [sim.after(1_000 + i, lambda: None) for i in range(40)]
        victims = [sim.after(10_000 + i, lambda: None) for i in range(80)]
        assert sim.pending == 120
        for h in victims:
            h.cancel()
        # Cancelled entries crossed 50% of the heap, so the simulator
        # rebuilt it; afterwards the residue is below the threshold again.
        assert sim.heap_compactions >= 1
        assert sim.pending < 120
        assert sim.cancelled_pending * 2 <= sim.pending
        fired = 0
        while sim.step():
            fired += 1
        assert fired == len(keep)

    def test_no_compaction_below_min_heap_size(self):
        sim = Simulator()
        victims = [sim.after(10 + i, lambda: None) for i in range(20)]
        for h in victims:
            h.cancel()
        assert sim.heap_compactions == 0

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        survivors = []
        victims = []
        # Interleave survivors and victims across the timeline so the
        # rebuild has to re-establish heap order over a shuffled residue.
        for i in range(128):
            t = 1_000 + i * 7
            if i % 3 == 0:
                survivors.append(t)
                sim.after(t, fired.append, t)
            else:
                victims.append(sim.after(t, fired.append, -t))
        for h in victims:
            h.cancel()
        assert sim.heap_compactions >= 1
        sim.run()
        assert fired == sorted(survivors)

    def test_compaction_mid_run_keeps_run_loop_alive(self):
        sim = Simulator()
        fired = []
        victims = [sim.after(50_000 + i, lambda: None) for i in range(100)]

        def cancel_all():
            for h in victims:
                h.cancel()

        sim.after(10, cancel_all)
        sim.after(20, fired.append, "after-compaction")
        sim.run()
        # run() holds a local alias to the heap; in-place compaction must
        # not orphan it.
        assert sim.heap_compactions >= 1
        assert fired == ["after-compaction"]
        assert sim.pending == 0


class TestCalendarQueue:
    """The bucketed scheduler's near/far split: times inside the bucket
    window land in O(1) buckets, times beyond it overflow to a heap and
    migrate in on rebase. None of this may be visible in firing order."""

    def test_far_future_events_overflow_and_fire_in_order(self):
        from repro.sim.engine import WINDOW_NS

        sim = Simulator()
        fired = []
        times = [10, WINDOW_NS - 1, WINDOW_NS + 5, 3 * WINDOW_NS + 17]
        for t in times:
            sim.after(t, fired.append, t)
        assert sim.far_pending == 2
        sim.run()
        assert fired == sorted(times)
        assert sim.calendar_rebases >= 1
        assert sim.far_pending == 0

    def test_rebase_pulls_only_window_worth_of_far_events(self):
        from repro.sim.engine import WINDOW_NS

        sim = Simulator()
        fired = []
        # Far events spread over many windows: each rebase may migrate at
        # most one window's worth, so ordering survives repeated rebases.
        times = [WINDOW_NS * k + 7 * k for k in range(1, 9)]
        for t in times:
            sim.after(t, fired.append, t)
        sim.after(5, fired.append, 5)
        sim.run()
        assert fired == sorted(times + [5])

    def test_cancel_heavy_schedule_straddling_the_boundary(self):
        from repro.sim.engine import WINDOW_NS

        sim = Simulator()
        fired = []
        survivors = []
        victims = []
        # Interleave near-bucket and far-heap entries; cancel two thirds.
        # Compaction must collect live entries from both sides and the
        # rebuilt structure must fire the survivors in time order.
        for i in range(180):
            t = 1_000 + i * (WINDOW_NS // 60)  # spans ~3 windows
            if i % 3 == 0:
                survivors.append(t)
                sim.after(t, fired.append, t)
            else:
                victims.append(sim.after(t, fired.append, -t))
        assert sim.far_pending > 0
        for h in victims:
            h.cancel()
        assert sim.heap_compactions >= 1
        sim.run()
        assert fired == sorted(survivors)
        assert sim.pending == 0

    def test_same_bucket_different_times_fire_in_order(self):
        sim = Simulator()
        fired = []
        # Bucket granularity is coarser than 1 ns: distinct times mapping
        # to one bucket must still fire in (time, seq) order.
        for t in (1_027, 1_025, 1_026, 1_024):
            sim.after(t, fired.append, t)
        sim.run()
        assert fired == [1_024, 1_025, 1_026, 1_027]

    def test_cancelled_far_head_does_not_block_rebase(self):
        from repro.sim.engine import WINDOW_NS

        sim = Simulator()
        fired = []
        head = sim.after(2 * WINDOW_NS, fired.append, "cancelled")
        sim.after(2 * WINDOW_NS + 10, fired.append, "live")
        head.cancel()
        sim.run()
        assert fired == ["live"]
        assert sim.pending == 0


class TestCancelAfterFire:
    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        handles = [sim.after(i, lambda: None) for i in range(100)]
        sim.run()
        for h in handles:
            h.cancel()
            assert not h.cancelled
            assert 0 <= sim.cancelled_pending <= sim.pending
        assert sim.pending == 0 and sim.cancelled_pending == 0
        # Later cancels of live events count exactly once each and trigger
        # no compaction below the queue-size floor.
        live = [sim.after(10, lambda: None) for _ in range(3)]
        live[0].cancel()
        live[0].cancel()
        assert sim.cancelled_pending == 1 and sim.pending == 3
        assert sim.heap_compactions == 0

    def test_cancel_from_inside_own_callback(self):
        sim = Simulator()
        box = []
        box.append(sim.after(5, lambda: box[0].cancel()))
        sim.run()
        assert not box[0].cancelled
        assert sim.cancelled_pending == 0 and sim.events_fired == 1

    def test_handle_is_its_own_queue_entry(self):
        sim = Simulator()
        h = sim.after(7, print, "x")
        assert h.time == 7 and not h.cancelled
        h.cancel()
        assert h.cancelled and h.time == 7
        assert sim.peek() is None
