"""The discrete-event engine.

A :class:`Simulator` owns a calendar queue of pending events. Each event
is a plain callback scheduled at an absolute integer-nanosecond
timestamp. Ties are broken by insertion order, so a run is fully
deterministic.

The calendar queue buckets the near future (a fixed window of
``N_BUCKETS`` buckets of ``2**BUCKET_SHIFT`` ns each) so the hot
schedule/pop path is O(1): most simulated work schedules a few hundred
to a few thousand ns ahead, which lands in a small per-bucket heap
instead of one binary heap shared by every pending event. Events beyond
the window go to an overflow heap and migrate into buckets (at most
once each) when the window advances past them — so epoch and horizon
timers at million-flow scale stop paying O(log n) against each other.
Firing order is identical to a single global heap: the queue partitions
the (time, seq) key space by time range, and the scan always drains the
lowest occupied bucket first.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import SimulationError

#: log2 of the bucket width: 1024 ns per bucket.
BUCKET_SHIFT = 10
#: Buckets in the near window: 2048 * 1024 ns ~= 2.1 ms of simulated time.
N_BUCKETS = 2048
#: Absolute span of the near window in ns.
WINDOW_NS = N_BUCKETS << BUCKET_SHIFT


class EventHandle(list):
    """A scheduled callback, which is also its own queue entry:
    ``[time, seq, fn, args]``.

    One heap object per pending event: the list orders by ``(time, seq)``
    in the calendar's heaps (``seq`` is unique, so ``fn`` is never
    compared) and carries the callback. Cancellation is lazy: the entry
    stays in place with its callback swapped for :func:`_cancelled_fn`
    and is skipped when it surfaces, which keeps scheduling O(1). The
    owning simulator tracks how many cancelled entries its queue carries
    and compacts when they dominate (see :meth:`Simulator._compact`).
    ``_sim`` is cleared when the event fires or is cancelled, so a later
    :meth:`cancel` is a no-op.
    """

    __slots__ = ("_sim",)

    @property
    def time(self) -> int:
        return self[0]

    def cancel(self) -> None:
        """Prevent the callback from running. Safe to call more than once,
        and a no-op once the event has fired."""
        sim = self._sim
        if sim is None:
            return
        self._sim = None
        self[2] = _cancelled_fn
        self[3] = ()
        sim._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self[2] is _cancelled_fn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self.cancelled
                 else "pending" if self._sim is not None else "fired")
        return f"<EventHandle t={self[0]} {state}>"


def _cancelled_fn() -> None:
    """Body of a cancelled event."""


def _fire_burst(fn: Callable[..., Any], items: Tuple[Any, ...]) -> None:
    """Body of a coalesced burst event: apply ``fn`` to each item in order."""
    for item in items:
        fn(item)


class Simulator:
    """Deterministic discrete-event simulator with integer-ns time."""

    #: Below this queue size, compaction is not worth the rebuild.
    COMPACT_MIN_HEAP = 64

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._events_fired = 0
        self._cancelled_pending = 0
        self._compactions = 0
        # Calendar: near-window buckets (each a heap of EventHandles),
        # an occupancy bitmap over them, and an overflow heap for events
        # past the window. ``_base`` is bucket 0's start time; ``_cur`` is
        # a scan hint — no occupied bucket lies below it.
        self._base = 0
        self._cur = 0
        self._buckets: List[List[EventHandle]] = [
            [] for _ in range(N_BUCKETS)
        ]
        self._occupied = 0
        self._near_count = 0
        self._far: List[EventHandle] = []
        self._rebases = 0

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total callbacks executed so far (observability / tests)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of queue entries (including lazily-cancelled ones)."""
        return self._near_count + len(self._far)

    @property
    def cancelled_pending(self) -> int:
        """Lazily-cancelled entries still occupying queue slots."""
        return self._cancelled_pending

    @property
    def heap_compactions(self) -> int:
        """How many times the queue has been compacted (observability)."""
        return self._compactions

    @property
    def far_pending(self) -> int:
        """Entries waiting in the overflow heap beyond the near window."""
        return len(self._far)

    @property
    def calendar_rebases(self) -> int:
        """How many times the near window has advanced over the overflow
        heap (observability)."""
        return self._rebases

    # --- calendar internals -------------------------------------------------

    def _push(self, entry: EventHandle) -> None:
        idx = (entry[0] - self._base) >> BUCKET_SHIFT
        if idx >= N_BUCKETS:
            heappush(self._far, entry)
            return
        if idx < 0:
            # Entry predates the window base (a rebase moved base past
            # ``now``). Clamping to bucket 0 is order-safe: such entries
            # are globally smallest, and bucket 0 is scanned first.
            idx = 0
        heappush(self._buckets[idx], entry)
        self._occupied |= 1 << idx
        if idx < self._cur:
            self._cur = idx
        self._near_count += 1

    def _rebase(self) -> None:
        """Advance the window to the earliest overflow entry and pull every
        overflow entry now inside it into buckets. Only called with all
        buckets empty, so each overflow entry migrates at most once."""
        far = self._far
        while far and far[0][2] is _cancelled_fn:
            heappop(far)
            self._cancelled_pending -= 1
        if not far:
            return
        base = far[0][0]
        self._base = base
        self._cur = 0
        limit = base + WINDOW_NS
        buckets = self._buckets
        while far and far[0][0] < limit:
            entry = heappop(far)
            idx = (entry[0] - base) >> BUCKET_SHIFT
            heappush(buckets[idx], entry)
            self._occupied |= 1 << idx
            self._near_count += 1
        self._rebases += 1

    def _min_bucket(self) -> Optional[List[EventHandle]]:
        """The bucket holding the earliest live event, with cancelled heads
        drained, or None when the queue holds no live events. Leaves
        ``_cur`` at that bucket's index (so callers can clear its
        occupancy bit after popping it empty)."""
        while True:
            occ = self._occupied
            if occ:
                m = occ >> self._cur
                if not m:  # pragma: no cover - defensive; _cur is a hint
                    self._cur = 0
                    m = occ
                idx = self._cur + ((m & -m).bit_length() - 1)
                self._cur = idx
                bucket = self._buckets[idx]
                while bucket and bucket[0][2] is _cancelled_fn:
                    heappop(bucket)
                    self._near_count -= 1
                    self._cancelled_pending -= 1
                if bucket:
                    return bucket
                self._occupied &= ~(1 << idx)
                continue
            if not self._far:
                return None
            self._rebase()

    def _pop_from(self, bucket: List[EventHandle]) -> EventHandle:
        """Pop the head of a bucket returned by :meth:`_min_bucket` and
        mark it fired (a later ``cancel()`` is then a no-op)."""
        entry = heappop(bucket)
        entry._sim = None
        self._near_count -= 1
        if not bucket:
            self._occupied &= ~(1 << self._cur)
        return entry

    def _note_cancelled(self) -> None:
        """Queue hygiene: when cancelled entries exceed 50% of ``pending``,
        rebuild the calendar without them. Lazy cancellation otherwise
        leaks the slots for the lifetime of a run (timer-heavy workloads
        cancel far more events than they fire)."""
        self._cancelled_pending += 1
        pending = self._near_count + len(self._far)
        if pending >= self.COMPACT_MIN_HEAP and self._cancelled_pending * 2 > pending:
            self._compact()

    def _compact(self) -> None:
        # Rebuild the calendar from the live entries only. Re-pushing
        # preserves firing order because (time, seq) keys are unique and
        # totally ordered, and every live entry's time is >= ``now`` (the
        # clock only advances to fired-event times or idle ``until``
        # marks), so re-basing the window at ``now`` strands nothing.
        live = [e for b in self._buckets for e in b if e[2] is not _cancelled_fn]
        live.extend(e for e in self._far if e[2] is not _cancelled_fn)
        self._base = self._now
        self._cur = 0
        self._occupied = 0
        self._near_count = 0
        self._far = []
        for bucket in self._buckets:
            del bucket[:]
        for entry in live:
            self._push(entry)
        self._cancelled_pending = 0
        self._compactions += 1

    # --- scheduling ---------------------------------------------------------

    def at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at t={time_ns} ns; now is {self._now} ns"
            )
        self._seq += 1
        handle = EventHandle((time_ns, self._seq, fn, args))
        handle._sim = self
        self._push(handle)
        return handle

    def after(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        return self.at(self._now + delay_ns, fn, *args)

    def at_burst(
        self, time_ns: int, fn: Callable[..., Any], items: Sequence[Any]
    ) -> EventHandle:
        """Coalesced-event fast path: schedule ``fn(item)`` for every item
        of a burst under ONE queue entry (and one callback execution).

        This is what makes large-batch sweeps cheap in wall-clock terms:
        a burst of 64 packets costs one queue push/pop instead of 64.
        Cancelling the handle cancels the whole burst.
        """
        if not items:
            raise SimulationError("at_burst needs at least one item")
        return self.at(time_ns, _fire_burst, fn, tuple(items))

    def after_burst(
        self, delay_ns: int, fn: Callable[..., Any], items: Sequence[Any]
    ) -> EventHandle:
        """Burst counterpart of :meth:`after`; see :meth:`at_burst`."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        return self.at_burst(self._now + delay_ns, fn, items)

    # --- execution ----------------------------------------------------------

    def peek(self) -> Optional[int]:
        """Timestamp of the next non-cancelled event, or None if idle."""
        bucket = self._min_bucket()
        if bucket is None:
            return None
        return bucket[0][0]

    def step(self) -> bool:
        """Execute the next event. Returns False when no events remain."""
        bucket = self._min_bucket()
        if bucket is None:
            return False
        time_ns, _, fn, args = self._pop_from(bucket)
        self._now = time_ns
        self._events_fired += 1
        fn(*args)
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have executed.

        Returns the simulated time afterwards. When stopping at ``until``,
        the clock is advanced to ``until`` even if no event fires exactly
        there, so back-to-back ``run(until=...)`` calls behave like wall
        clock segments.
        """
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                return self._now
            # _min_bucket() leaves a non-cancelled entry at the head, so
            # pop it directly — one queue traversal per event.
            bucket = self._min_bucket()
            if bucket is None:
                if until is not None and until > self._now:
                    self._now = until
                return self._now
            nxt = bucket[0][0]
            if until is not None and nxt > until:
                self._now = until
                return self._now
            time_ns, _, fn, args = self._pop_from(bucket)
            self._now = time_ns
            self._events_fired += 1
            fn(*args)
            fired += 1

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Drain the event queue completely; guard against runaway loops.

        Delegates to :meth:`run`, which pops via :meth:`_min_bucket` — one
        queue traversal per event. Fires at most ``max_events`` callbacks;
        if non-cancelled work remains after that, raises.
        """
        self.run(max_events=max_events)
        if self.peek() is not None:
            raise SimulationError(
                f"run_until_idle exceeded {max_events} events; likely a livelock"
            )
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now}ns pending={self.pending}>"
