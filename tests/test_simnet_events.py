"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.simnet.events import SimulationError, Simulator


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0.0

    def test_fires_callback_at_scheduled_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 1.5

    def test_passes_multiple_args(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, 2)
        sim.run()
        assert seen == [(1, 2)]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.schedule(2.0, order.append, "mid")
        sim.run()
        assert order == ["early", "mid", "late"]

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_non_finite_delay_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError):
                Simulator().schedule(bad, lambda: None)

    def test_non_finite_absolute_time_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError):
                Simulator().schedule_at(bad, lambda: None)

    def test_nan_delay_cannot_poison_event_order(self):
        # Regression: a NaN time used to pass both guards (nan < 0 is
        # False) and break heap ordering for every later event.
        sim = Simulator()
        order = []
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), order.append, "poison")
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.run()
        assert order == ["a", "b"]

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        times = []

        def first():
            times.append(sim.now)
            sim.schedule(2.0, second)

        def second():
            times.append(sim.now)

        sim.schedule(1.0, first)
        sim.run()
        assert times == [1.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_other_events_still_fire_after_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        handle.cancel()
        sim.run()
        assert fired == ["b"]


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_when_queue_empty(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_max_events_limits_firing(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_max_events_advances_clock_toward_until(self):
        # Regression: hitting the event budget used to return without
        # advancing the clock, breaking the docstring's `until` promise.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(8.0, fired.append, "c")
        sim.run(until=10.0, max_events=2)
        assert fired == ["a", "b"]
        # Clock advances as far as possible without passing the unfired
        # event at t=8.
        assert sim.now == 8.0
        sim.run(until=10.0)
        assert fired == ["a", "b", "c"]
        assert sim.now == 10.0

    def test_max_events_with_drained_queue_reaches_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=5.0, max_events=10)
        assert sim.now == 5.0

    def test_clock_stays_monotonic_after_budget_stop(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        sim.run(until=10.0, max_events=1)
        assert sim.now == 3.0
        # The remaining event still fires at its own time, never earlier
        # than the current clock.
        sim.run()
        assert sim.now == 3.0


class TestHeapCompaction:
    def test_cancelled_events_are_compacted(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(256)]
        for handle in handles[: 200]:
            handle.cancel()
        # More than half of the queue was cancelled tombstones; the heap
        # must have been compacted to near the 56 live events rather than
        # retaining all 256 entries.
        assert sim.pending < 128
        sim.run()
        assert sim.events_processed == 56

    def test_small_queues_are_not_compacted(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles[:8]:
            handle.cancel()
        assert sim.pending == 10  # tombstones retained below the threshold
        sim.run()
        assert sim.events_processed == 2

    def test_compaction_preserves_order_and_cancellation(self):
        sim = Simulator()
        order = []
        handles = {}
        for i in range(300):
            handles[i] = sim.schedule(float(i + 1), order.append, i)
        cancelled = [i for i in range(300) if i % 3 != 0]
        for i in cancelled:
            handles[i].cancel()
        sim.run()
        assert order == [i for i in range(300) if i % 3 == 0]
        for i in cancelled:
            assert handles[i].cancelled

    def test_schedule_and_cancel_loop_bounds_memory(self):
        # Chaos-soak pattern: schedule a retransmit timer, then cancel it.
        sim = Simulator()
        sim.schedule(1e6, lambda: None)  # keep the sim alive
        for i in range(10_000):
            handle = sim.schedule(float(i + 1), lambda: None)
            handle.cancel()
        assert sim.pending < 1_000


class TestFiredHandleIsInert:
    def test_cancel_after_fire_leaves_the_cancelled_count_alone(self):
        # Regression: cancelling a handle whose event had already fired
        # used to count as a pending cancellation, so a later genuine
        # cancel tripped a spurious compaction (and `pending` lied).
        sim = Simulator()
        fired = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        sim.run()
        for handle in fired:
            handle.cancel()
            assert not handle.cancelled  # it fired; it was never cancelled
        assert sim._cancelled_pending == 0
        live = [sim.schedule(float(i + 1), lambda: None) for i in range(70)]
        live[0].cancel()
        assert sim._cancelled_pending == 1
        assert sim.pending == 70  # no compaction: 1 of 70 is cancelled
        sim.run()
        assert sim.events_processed == 169

    def test_cancel_from_inside_its_own_callback_is_a_no_op(self):
        sim = Simulator()
        handles = []
        sim.schedule(2.0, lambda: None)
        handles.append(sim.schedule(1.0, lambda: handles[0].cancel()))
        sim.run()
        assert sim.events_processed == 2 and sim._cancelled_pending == 0

    def test_cancel_releases_the_arguments(self):
        sim = Simulator()
        payload = object()
        handle = sim.schedule(1.0, lambda _p: None, payload)
        handle.cancel()
        assert all(item is not payload for item in handle)
        assert handle.time == 1.0  # the ordering key is never touched


class TestHeapEntries:
    def test_no_python_level_comparison_on_push_or_pop(self):
        # The heap must order entries with the C list comparison: the
        # entry type defines no rich comparison of its own ...
        handle = Simulator().schedule(1.0, lambda: None)
        for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            assert getattr(type(handle), name) is getattr(list, name)
        # ... and no Python frame other than the callbacks themselves
        # runs while 300 tied and untied events are pushed and popped.
        import sys

        sim = Simulator()
        calls = []

        def callback():
            pass

        def profiler(frame, event, _arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profiler)
        try:
            for i in range(300):
                sim.schedule_at(float(i % 7), callback)
            sim.run()
        finally:
            sys.setprofile(None)
        assert set(calls) <= {"schedule_at", "run", "callback"}
        assert calls.count("callback") == 300


# -- the simulator against a sorted-list reference -------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402


class ReferenceSimulator:
    """What the event loop must do, with no heap: keep every scheduled
    event in a list, stably sorted by (time, seq)."""

    def __init__(self):
        self.now, self.seq, self.events_processed, self.queue = 0.0, 0, 0, []

    def schedule(self, delay, fn, *args):
        if delay != delay or delay in (float("inf"), float("-inf")) or delay < 0:
            raise SimulationError(delay)
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time, fn, *args):
        if time != time or time in (float("inf"), float("-inf")) or time < self.now:
            raise SimulationError(time)
        event = {"time": time, "seq": self.seq, "fn": fn, "args": args,
                 "state": "queued"}
        self.seq += 1
        self.queue.append(event)
        self.queue.sort(key=lambda e: (e["time"], e["seq"]))
        return event

    @staticmethod
    def cancel(event):
        if event["state"] == "queued":
            event["state"] = "cancelled"

    def _live(self):
        return [e for e in self.queue if e["state"] == "queued"]

    def run(self, until=None, max_events=None):
        fired = 0
        while self._live() and (max_events is None or fired < max_events):
            event = self._live()[0]
            if until is not None and event["time"] > until:
                break
            event["state"] = "fired"
            self.now = event["time"]
            self.events_processed += 1
            fired += 1
            event["fn"](*event["args"])
        if until is not None and until > self.now:
            live = self._live()
            self.now = min(until, live[0]["time"]) if live else until

    def step(self):
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed != before


_TIMES = st.one_of(
    st.integers(0, 12).map(lambda k: k / 4),  # a coarse grid: many ties
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.5]),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _TIMES, st.booleans()),
        st.tuples(st.just("schedule_at"), _TIMES, st.booleans()),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("step")),
        st.tuples(st.just("run"), st.none() | st.integers(0, 14).map(lambda k: k / 4),
                  st.none() | st.integers(0, 5)),
    ),
    max_size=40,
)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(_OPS)
    def test_same_order_clock_count_and_errors(self, ops):
        logs = []
        for sim, cancel in (
            (Simulator(), lambda h: h.cancel()),
            (ReferenceSimulator(), ReferenceSimulator.cancel),
        ):
            log, handles = [], []

            def fire(tag, nested, sim=sim, log=log, handles=handles):
                log.append(("fired", tag, sim.now))
                if nested:  # schedule (and cancel) from inside a callback
                    handles.append(sim.schedule(0.25, fire, f"{tag}+", False))
                    handles.append(sim.schedule(0.0, fire, f"{tag}=", False))
                    cancel(handles[len(handles) // 2])

            for index, op in enumerate(ops):
                try:
                    if op[0] == "schedule":
                        handles.append(sim.schedule(op[1], fire, index, op[2]))
                    elif op[0] == "schedule_at":
                        handles.append(sim.schedule_at(op[1], fire, index, op[2]))
                    elif op[0] == "cancel" and handles:
                        # hits queued, cancelled and already-fired handles
                        cancel(handles[op[1] % len(handles)])
                    elif op[0] == "step":
                        log.append(("step", sim.step()))
                    elif op[0] == "run":
                        sim.run(until=op[1], max_events=op[2])
                except SimulationError:
                    log.append(("error", index))
                log.append((sim.now, sim.events_processed))
            sim.run()
            log.append((sim.now, sim.events_processed))
            logs.append(log)
        assert logs[0] == logs[1]


class TestErrorMessages:
    @pytest.mark.parametrize("call, bad, message", [
        ("schedule", float("nan"), "non-finite delay: nan"),
        ("schedule", float("inf"), "non-finite delay: inf"),
        ("schedule", -0.5, "cannot schedule in the past (delay=-0.5)"),
        ("schedule_at", float("-inf"), "non-finite event time: -inf"),
        ("schedule_at", 1.0, "cannot schedule at t=1.0 before current time t=5.0"),
    ])
    def test_guards_say_what_they_always_said(self, call, bad, message):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(SimulationError) as raised:
            getattr(sim, call)(bad, lambda: None)
        assert str(raised.value) == message
