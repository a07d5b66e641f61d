"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.sim import SimulationError, Simulator, Timer


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_fifo_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, 1)
        sim.schedule(1.0, order.append, 2)
        sim.schedule(1.0, order.append, 3)
        sim.run()
        assert order == [1, 2, 3]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.schedule(1.0, inner)

        def inner():
            times.append(sim.now)

        sim.schedule(1.0, outer)
        sim.run()
        assert times == [1.0, 2.0]


class TestRunControl:
    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        ran = []
        sim.schedule(1.0, ran.append, 1)
        sim.schedule(5.0, ran.append, 5)
        sim.run(until=2.0)
        assert ran == [1]
        assert sim.now == 2.0
        sim.run(until=10.0)
        assert ran == [1, 5]

    def test_run_until_advances_clock_with_empty_queue(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events(self):
        sim = Simulator()
        ran = []
        for i in range(10):
            sim.schedule(float(i + 1), ran.append, i)
        processed = sim.run(max_events=3)
        assert processed == 3
        assert ran == [0, 1, 2]

    def test_max_events_never_moves_the_clock_backwards(self):
        sim = Simulator()
        ran = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: ran.append(sim.now))
        assert sim.run(until=10.0, max_events=1) == 1
        # Live events before ``until`` are still queued: the clock stays
        # at the last event run instead of jumping to 10.
        assert sim.now == 1.0
        sim.run(until=10.0)
        assert ran == [1.0, 2.0, 3.0]
        assert sim.now == 10.0

    def test_max_events_advances_when_nothing_is_left_before_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        assert sim.run(until=10.0, max_events=1) == 1
        assert sim.now == 10.0

    def test_cancelled_events_do_not_run(self):
        sim = Simulator()
        ran = []
        event = sim.schedule(1.0, ran.append, "x")
        event.cancel()
        sim.run()
        assert ran == []

    def test_pending_counts_only_live_events(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        event.cancel()
        assert sim.pending() == 1

    def test_clear_drops_everything(self):
        sim = Simulator()
        ran = []
        sim.schedule(1.0, ran.append, 1)
        sim.clear()
        sim.run()
        assert ran == []

    def test_run_returns_processed_count(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.run() == 2


class TestHeapCompaction:
    """Lazy-cancellation bookkeeping at scale (the megaload hot path)."""

    def test_cancel_then_fire_never_runs_at_compaction_scale(self):
        # Enough churn to force multiple compactions; no cancelled
        # callback may ever run, and every live one must run exactly once.
        sim = Simulator()
        ran = []
        events = [sim.schedule(float(i + 1) * 1e-3, ran.append, i)
                  for i in range(2000)]
        for i in range(2000):
            if i % 3 != 2:
                events[i].cancel()
        for i in range(0, 2000, 6):   # double-cancel must stay idempotent
            events[i].cancel()
        sim.run()
        assert sim.compactions >= 1
        assert ran == [i for i in range(2000) if i % 3 == 2]

    def test_pending_stays_exact_through_compaction(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None)
                  for i in range(1024)]
        assert sim.pending() == 1024
        for event in events[:700]:
            event.cancel()
        assert sim.pending() == 324
        assert sim.compactions >= 1
        # The physical queue shrank: dead entries were actually dropped.
        assert len(sim._queue) < 1024
        processed = sim.run()
        assert processed == 324
        assert sim.pending() == 0

    def test_no_compaction_below_min_queue(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None)
                  for i in range(100)]
        for event in events[:90]:
            event.cancel()
        assert sim.compactions == 0
        assert sim.pending() == 10

    def test_compaction_can_be_disabled(self):
        sim = Simulator(compaction=False)
        events = [sim.schedule(float(i + 1), lambda: None)
                  for i in range(1024)]
        for event in events[:1000]:
            event.cancel()
        assert sim.compactions == 0
        assert len(sim._queue) == 1024      # dead entries linger
        assert sim.pending() == 24          # but the count stays exact
        assert sim.run() == 24

    def test_cancel_after_run_does_not_skew_counters(self):
        # A stale handle (event already fired or cleared) must be inert.
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        event.cancel()
        event.cancel()
        assert sim.pending() == 1
        assert sim.run() == 1

    def test_cancel_during_callback_compaction_keeps_order(self):
        # A callback that mass-cancels (triggering compaction mid-run)
        # must not disturb the ordering of the survivors.
        sim = Simulator()
        ran = []
        victims = [sim.schedule(10.0 + i * 1e-3, ran.append, f"v{i}")
                   for i in range(600)]
        sim.schedule(1.0, lambda: [e.cancel() for e in victims])
        sim.schedule(2.0, ran.append, "mid")
        sim.schedule(20.0, ran.append, "end")
        sim.run()
        assert ran == ["mid", "end"]
        assert sim.compactions >= 1

    def test_schedule_stats(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.events_scheduled == 5
        assert sim.peak_queue == 5


class TestTimer:
    def test_timer_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.run()
        assert fired == [3.0]

    def test_restart_replaces_previous_deadline(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.schedule(1.0, timer.start, 5.0)
        sim.run()
        assert fired == [6.0]

    def test_stop_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.schedule(1.0, timer.stop)
        sim.run()
        assert fired == []

    def test_armed_reflects_state(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        timer.start(1.0)
        assert timer.armed
        sim.run()
        assert not timer.armed

    def test_later_restart_pushes_nothing_until_the_stale_entry_surfaces(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        for t in (0.2, 0.4, 0.6):
            sim.schedule(t, timer.start, 1.0)
        pushes = sim.events_scheduled
        sim.run(until=0.7)
        # Three restarts, each to a later deadline: no heap push.
        assert sim.events_scheduled == pushes
        assert sim.pending() == 1
        sim.run()
        # The entry queued for 1.0 surfaced once and was pushed again.
        assert sim.events_scheduled == pushes + 1
        assert fired == [1.6]

    def test_restart_to_an_earlier_deadline_fires_early(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5.0)
        sim.schedule(1.0, timer.start, 1.0)
        sim.run()
        assert fired == [2.0]

    def test_stop_after_lazy_restart_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.schedule(0.5, timer.start, 1.0)
        sim.schedule(1.2, timer.stop)
        sim.run()
        assert fired == []
        assert sim.pending() == 0

    def test_start_after_clear_rearms(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.clear()
        assert not timer.armed
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]


class _EagerTimer:
    """Reference timer: every ``start`` cancels and schedules afresh."""

    def __init__(self, sim, callback):
        self._sim = sim
        self._callback = callback
        self._event = None

    def start(self, delay):
        self.stop()
        self._event = self._sim.schedule(delay, self._fire)

    def stop(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self):
        self._event = None
        self._callback()


#: one scripted step: (time on a 0.5 s grid, timer index, op, delay).
_STEP = st.tuples(st.integers(0, 16), st.integers(0, 1),
                  st.sampled_from(["start", "start", "start", "stop",
                                   "tie"]),
                  st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]))


def _replay(timer_cls, steps, rearms, compact_at, split_at):
    """Run a timer script; the log of every callback with its clock."""
    sim = Simulator()
    log = []
    deadlines = [None, None]
    rearms = [list(rearms), list(rearms)]

    def start(i, delay):
        timers[i].start(delay)
        deadlines[i] = sim.now + delay

    def fire(i):
        log.append(("fire", i, sim.now))
        deadlines[i] = None
        if rearms[i]:
            delay = rearms[i].pop(0)
            if delay is not None:
                start(i, delay)   # restart from inside its own callback

    def step(k, i, op, delay):
        log.append((op, k, i, sim.now))
        if op == "start":
            start(i, delay)
        elif op == "stop":
            timers[i].stop()
            deadlines[i] = None
        elif deadlines[i] is not None:
            # Another event at exactly the timer's current deadline.
            sim.schedule_at(deadlines[i], log.append, ("tie", k, i))

    timers = [timer_cls(sim, lambda i=i: fire(i)) for i in range(2)]
    fillers = [sim.schedule(1000.0 + n, log.append, ("filler", n))
               for n in range(600)]
    sim.schedule_at(compact_at * 0.5,
                    lambda: [event.cancel() for event in fillers])
    for k, (at, i, op, delay) in enumerate(steps):
        sim.schedule_at(at * 0.5, step, k, i, op, delay)
    sim.run(until=split_at * 0.5)
    log.append(("split", sim.now, sim.pending()))
    sim.run()
    log.append(("end", sim.now, sim.pending()))
    return log, sim.compactions


class TestTimerDifferential:
    """The lazy re-arm must be indistinguishable from cancel-and-reschedule:
    same callbacks, in the same order, at the same clock values."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(steps=st.lists(_STEP, min_size=1, max_size=25),
           rearms=st.lists(st.one_of(st.none(),
                                     st.sampled_from([0.0, 0.5, 1.0, 2.5])),
                           max_size=4),
           compact_at=st.integers(0, 16), split_at=st.integers(0, 16))
    def test_lazy_timer_matches_eager_reference(self, steps, rearms,
                                                 compact_at, split_at):
        lazy, compactions = _replay(Timer, steps, rearms, compact_at,
                                    split_at)
        eager, _ = _replay(_EagerTimer, steps, rearms, compact_at, split_at)
        assert lazy == eager
        assert compactions >= 1


class TestTickCalendar:
    def _calendar(self, tick=0.1):
        from repro.net.sim import TickCalendar
        sim = Simulator()
        fired = []
        calendar = TickCalendar(sim, tick,
                                lambda key, code: fired.append((key, code)))
        return sim, calendar, fired

    def test_dispatches_key_code_pairs_at_tick_time(self):
        sim, calendar, fired = self._calendar(tick=0.5)
        calendar.wake(4, 17, 3)
        sim.run()
        assert fired == [(17, 3)]
        assert sim.now == 2.0   # 4 * 0.5

    def test_code_defaults_to_zero(self):
        sim, calendar, fired = self._calendar()
        calendar.wake(1, 99)
        sim.run()
        assert fired == [(99, 0)]

    def test_same_tick_preserves_append_order(self):
        sim, calendar, fired = self._calendar()
        calendar.wake(3, 2, 20)
        calendar.wake(3, 1, 10)
        calendar.wake(3, 3, 30)
        sim.run()
        assert fired == [(2, 20), (1, 10), (3, 30)]

    def test_one_heap_event_per_occupied_tick(self):
        sim, calendar, fired = self._calendar()
        for key in range(100):
            calendar.wake(5, key)
        for key in range(50):
            calendar.wake(9, key)
        assert sim.events_scheduled == 2    # not 150
        assert calendar.pending() == 150
        sim.run()
        assert len(fired) == 150
        assert calendar.pending() == 0

    def test_buckets_are_recycled_through_the_freelist(self):
        sim, calendar, fired = self._calendar()
        calendar.wake(1, 7, 70)
        sim.run()
        first_bucket = calendar._freelist[0]
        calendar.wake(20, 8, 80)
        assert calendar._buckets[20] is first_bucket
        sim.run()
        assert fired == [(7, 70), (8, 80)]

    def test_wakes_queued_during_dispatch_land_on_later_ticks(self):
        from repro.net.sim import TickCalendar
        sim = Simulator()
        fired = []
        calendar = None

        def dispatch(key, code):
            fired.append((key, code))
            if key == 1:
                calendar.wake(10, 2, 0)

        calendar = TickCalendar(sim, 0.1, dispatch)
        calendar.wake(1, 1, 0)
        sim.run()
        assert fired == [(1, 0), (2, 0)]

    def test_rejects_nonpositive_tick(self):
        from repro.net.sim import TickCalendar
        with pytest.raises(SimulationError):
            TickCalendar(Simulator(), 0.0, lambda key, code: None)

    def test_not_cancellable(self):
        from repro.net.sim import TickCalendar
        assert TickCalendar.cancellable is False
