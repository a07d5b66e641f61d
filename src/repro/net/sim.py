"""Discrete-event simulation engine.

Every substrate in this reproduction (LTE signaling, SAP, TCP/MPTCP, the
drive-test emulation) runs on this engine: a single virtual clock and a
binary-heap event queue.  Using virtual time makes every experiment
deterministic and hardware-independent — protocol processing costs are
explicit, calibrated parameters rather than wall-clock artifacts.

Scale notes (the megaload workload drives this engine with 10^5-10^6
UEs, see ``repro.testbed.megaload``):

* Cancellation is *lazy* — ``Event.cancel`` flags the entry, and the run
  loop discards it when popped.  At population scale the dominant event
  pattern is cancel-and-reschedule (idle timers, broker flush windows),
  so the heap would otherwise fill with dead entries and every push/pop
  would pay ``O(log garbage)``.  The
  simulator therefore counts dead entries and compacts the heap when
  they outnumber the live ones.
* ``pending()`` is O(1): the queue length minus the cancelled entries
  still in it, which are counted at cancel and pop time.
* Heap entries are ``(time, seq, event)`` tuples, so the heap orders
  them with C tuple comparison instead of a Python ``__lt__`` per
  sift step.  ``seq`` is unique, so the event itself is never compared.
* :class:`Timer` re-arms lazily (Linux ``mod_timer`` style): a restart
  to a deadline no earlier than the current one rewrites the queued
  event's ``(time, seq)`` instead of cancelling it and pushing a fresh
  entry.  The stale heap entry no longer matches its event; when it
  reaches the head of the queue the run loop pushes it again under the
  event's current key, without running it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from typing import Any, Callable, Optional


class SimulationError(Exception):
    """Raised on misuse of the simulator (e.g. scheduling in the past)."""


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "sim")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple,
                 sim: "Simulator"):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: owning simulator while the entry is still queued; detached
        #: (None) once the event has run or been discarded, so a late
        #: ``cancel`` on a stale handle cannot skew the dead count.
        self.sim: Optional["Simulator"] = sim

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call repeatedly."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} {name}{flag}>"


#: below this queue size compaction is never worth the heapify.
_COMPACT_MIN_QUEUE = 512


class Simulator:
    """A deterministic event loop with a virtual clock (seconds)."""

    def __init__(self, compaction: bool = True):
        #: heap of ``(time, seq, event)``; an entry whose ``seq`` differs
        #: from ``event.seq`` is stale (its Timer was re-armed later).
        self._queue: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._running = False
        self._dead = 0          # cancelled events still in the heap
        #: lazy-compaction switch; benches flip it off to measure the
        #: pre-compaction event core.
        self.compaction = compaction
        # -- engine statistics (read by the megaload bench) --------------
        #: heap pushes: a lazy Timer restart adds none, a re-push one.
        self.events_scheduled = 0
        self.compactions = 0
        self.peak_queue = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})")
        seq = next(self._counter)
        event = Event(time, seq, callback, args, self)
        queue = self._queue
        heapq.heappush(queue, (time, seq, event))
        self.events_scheduled += 1
        if len(queue) > self.peak_queue:
            self.peak_queue = len(queue)
        return event

    def _note_cancelled(self) -> None:
        """A queued event was cancelled: keep the counters exact and
        compact the heap once dead entries dominate the live ones."""
        self._dead += 1
        queued = len(self._queue)
        if (self.compaction and 2 * self._dead > queued
                and queued >= _COMPACT_MIN_QUEUE):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify the survivors.

        Amortized O(1) per cancellation: a compaction costs O(n) but only
        runs after >= n/2 cancellations accumulated.
        """
        survivors = [entry for entry in self._queue
                     if not entry[2].cancelled]
        self._queue = survivors
        heapq.heapify(survivors)
        self._dead = 0
        self.compactions += 1

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` have run.  Returns the number of events processed.

        When ``until`` is given and no live event at or before it is left
        queued, the clock is advanced to exactly ``until`` even if the
        queue drained earlier, so back-to-back ``run`` calls compose
        naturally.  A run cut short by ``max_events`` leaves the clock at
        the last event it ran, so it never moves backwards.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        processed = 0
        cut_short = False
        horizon = math.inf if until is None else until
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                time, seq, event = queue[0]
                if event.cancelled:
                    pop(queue)
                    self._dead -= 1
                    continue
                if time > horizon:
                    break
                if seq != event.seq:
                    # A lazily re-armed Timer: requeue, do not run.
                    heapq.heapreplace(queue, (event.time, event.seq, event))
                    self.events_scheduled += 1
                    continue
                if max_events is not None and processed >= max_events:
                    cut_short = True
                    break
                pop(queue)
                event.sim = None
                self._now = time
                event.callback(*event.args)
                processed += 1
                if queue is not self._queue:
                    # A callback triggered compaction; rebind.
                    queue = self._queue
        finally:
            self._running = False
        if until is not None and not cut_short and self._now < until:
            self._now = until
        return processed

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return len(self._queue) - self._dead

    def clear(self) -> None:
        """Drop all queued events (used between experiment repetitions)."""
        for _, _, event in self._queue:
            event.cancelled = True
            event.sim = None
        self._queue.clear()
        self._dead = 0


class TickCalendar:
    """Quantized wakeup calendar: one heap event per *occupied* tick.

    Population-scale workloads (``repro.testbed.megaload``) step millions
    of lightweight actors whose wakeups all land on a fixed tick grid.
    Scheduling each wakeup as its own :class:`Event` costs a heap push, a
    heap pop, and a retained ``Event`` + args tuple per action; the
    calendar instead appends a ``(key, code)`` pair of **packed
    integers** to a per-tick bucket and schedules a single simulator
    event the first time a tick is occupied.  Firing a tick dispatches
    every pair in append order.

    The hot path is pure index arithmetic with no per-wake retained
    allocation: buckets are paired ``array('i')`` columns (8 bytes per
    pending wakeup, vs ~100 B for a tuple entry) recycled through a
    freelist, so steady-state stepping allocates no fresh containers.
    The split into two 31-bit words is deliberate: a single 64-bit word
    holding an actor id above the low bits forces every decode through
    CPython's multi-digit int path, while key (actor id) and code
    (action/token payload) each stay single-digit.  Callers invalidate
    superseded wakeups by token at dispatch time instead of heap
    cancellation, which keeps the heap free of dead entries.
    """

    #: calendars cannot cancel an individual wakeup — callers invalidate
    #: by token at dispatch time instead (the megaload engines key off
    #: this to decide whether ``wake`` returns a cancellable handle).
    cancellable = False

    __slots__ = ("sim", "tick", "dispatch", "_buckets", "_freelist")

    def __init__(self, sim: "Simulator", tick: float,
                 dispatch: Callable[[int, int], Any]):
        if tick <= 0:
            raise SimulationError(f"tick must be positive, got {tick}")
        self.sim = sim
        self.tick = tick
        #: ``dispatch(key, code)`` is called once per queued pair, in
        #: the order the pairs were appended within each tick.
        self.dispatch = dispatch
        self._buckets: dict[int, tuple[array, array]] = {}
        self._freelist: list[tuple[array, array]] = []

    def wake(self, idx: int, key: int, code: int = 0) -> None:
        """Queue ``(key, code)`` for dispatch at tick ``idx``
        (virtual time ``idx * tick``); both must fit a signed 32-bit
        array slot."""
        bucket = self._buckets.get(idx)
        if bucket is None:
            bucket = self._freelist.pop() if self._freelist \
                else (array("i"), array("i"))
            self._buckets[idx] = bucket
            self.sim.schedule_at(idx * self.tick, self._fire, idx)
        bucket[0].append(key)
        bucket[1].append(code)

    def pending(self) -> int:
        """Queued wakeups across all occupied ticks (diagnostics only)."""
        return sum(len(keys) for keys, _ in self._buckets.values())

    def _fire(self, idx: int) -> None:
        keys, codes = self._buckets.pop(idx)
        dispatch = self.dispatch
        # tolist() boxes each column in one C call; iterating the arrays
        # would re-box per element through the iterator protocol.  The
        # unpacking loop lets zip recycle its result tuple.
        for key, code in zip(keys.tolist(), codes.tolist()):
            dispatch(key, code)
        del keys[:]
        del codes[:]
        if len(self._freelist) < 64:
            self._freelist.append((keys, codes))


class Timer:
    """A restartable one-shot timer (e.g. a TCP retransmission timer).

    TCP restarts its retransmission timer on every ACK, almost always to a
    later deadline.  Such a restart only rewrites the queued event's
    ``(time, seq)``, taking ``seq`` from the simulator's counter exactly
    as a fresh ``schedule`` would; the run loop re-pushes the stale heap
    entry under that key when it surfaces.  Every event therefore runs
    under the key that cancel-and-reschedule would have given it, in the
    same order.  A restart to an earlier deadline, or
    of a disarmed timer, cancels and schedules afresh.
    """

    __slots__ = ("_sim", "_callback", "_event")

    def __init__(self, sim: Simulator, callback: Callable[[], Any]):
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer to fire after ``delay`` seconds."""
        event = self._event
        if event is not None and not event.cancelled:
            sim = self._sim
            deadline = sim._now + delay
            if deadline >= event.time:
                event.time = deadline
                event.seq = next(sim._counter)
                return
            event.cancel()
        self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
