"""Unit tests for the discrete-event engine."""

import heapq

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


def test_initial_state():
    engine = Engine()
    assert engine.now == 0
    assert engine.pending() == 0
    assert engine.events_executed == 0


def test_schedule_and_run_order():
    engine = Engine()
    order = []
    engine.schedule(30, order.append, "c")
    engine.schedule(10, order.append, "a")
    engine.schedule(20, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 30


def test_fifo_tiebreak_at_same_time():
    engine = Engine()
    order = []
    for tag in "abcde":
        engine.schedule(5, order.append, tag)
    engine.run()
    assert order == list("abcde")


def test_zero_delay_runs_after_current():
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule(0, order.append, "nested")

    engine.schedule(1, first)
    engine.schedule(1, order.append, "second")
    engine.run()
    assert order == ["first", "second", "nested"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_run_until_stops_clock_at_until():
    engine = Engine()
    hits = []
    engine.schedule(100, hits.append, 1)
    engine.schedule(200, hits.append, 2)
    engine.run(until=150)
    assert hits == [1]
    assert engine.now == 150
    engine.run()
    assert hits == [1, 2]
    assert engine.now == 200


def test_run_until_before_any_event():
    engine = Engine()
    hits = []
    engine.schedule(100, hits.append, 1)
    engine.run(until=50)
    assert hits == []
    assert engine.now == 50


def test_drain_does_not_advance_to_until():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run(until=1000)
    assert engine.now == 10


def test_events_executed_counter():
    engine = Engine()
    seqnos = [engine.schedule(1, lambda: None) for _ in range(5)]
    assert seqnos == [0, 1, 2, 3, 4]      # dense from 0
    engine.run()
    assert engine.events_executed == 5


def test_reentrant_run_rejected():
    engine = Engine()

    def nested():
        with pytest.raises(SimulationError):
            engine.run()

    engine.schedule(1, nested)
    engine.run()


def test_chained_scheduling_from_callbacks():
    engine = Engine()
    times = []

    def tick(n):
        times.append(engine.now)
        if n > 0:
            engine.schedule(10, tick, n - 1)

    engine.schedule(10, tick, 4)
    engine.run()
    assert times == [10, 20, 30, 40, 50]


def test_pending_counts_live_events_only():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.schedule(20, lambda: None)
    engine.run(until=15)
    assert engine.pending() == 1


def test_pending_tracks_run_and_drain():
    engine = Engine()
    for i in range(4):
        engine.schedule(10 * (i + 1), lambda: None)
    assert engine.pending() == 4
    engine.run(until=25)              # runs the events at 10 and 20
    assert engine.pending() == 2
    engine.run()
    assert engine.pending() == 0


# ----------------------------------------------------------------------
# Held events: reserved keys, one stand-in entry, stepped in key order
# ----------------------------------------------------------------------
def _holder(engine, held, order):
    """A minimal holder: its stand-in steps held keys while each comes
    before the next queued event, then re-queues itself."""

    def step():
        while held and held[0] < engine.next_key():
            engine.step_to(*heapq.heappop(held))
            order.append(("held", engine.now, engine.current_seqno))
        if held:
            engine.stand_in(held[0], step)

    return step


def test_held_events_keep_their_keys_and_count_as_pending():
    engine = Engine()
    order, held = [], []
    engine.schedule(10, lambda: order.append(
        ("queued", engine.now, engine.current_seqno)))
    held.extend(engine.reserve(delay) for delay in (5, 10, 20))
    assert held == [(5, 1), (10, 2), (20, 3)]
    engine.stand_in(held[0], _holder(engine, held, order))
    # four events pending; the stand-in entry is not one
    assert engine.pending() == 4 and engine.events_scheduled == 4
    assert engine.events_executed == 0
    engine.run()
    # (10, 0) fires between the held (5, 1) and (10, 2): seqno order
    assert order == [("held", 5, 1), ("queued", 10, 0), ("held", 10, 2),
                     ("held", 20, 3)]
    assert engine.pending() == 0 and engine.events_executed == 4
    assert engine.now == 20


def test_held_events_never_step_past_until():
    engine = Engine()
    order, held = [], [engine.reserve(5), engine.reserve(15)]
    engine.stand_in(held[0], _holder(engine, held, order))
    assert engine.run(until=10) == 10
    assert order == [("held", 5, 0)]
    assert engine.pending() == 1 and engine.events_executed == 1
    engine.run()
    assert order == [("held", 5, 0), ("held", 15, 1)]
    assert engine.events_executed + engine.pending() \
        == engine.events_scheduled == 2


def test_step_to_refuses_a_key_past_until_or_in_the_past():
    engine = Engine()
    late = engine.reserve(50)

    def step_late():
        engine.step_to(*late)

    engine.schedule(5, step_late)
    with pytest.raises(SimulationError, match="past run"):
        engine.run(until=20)
    engine = Engine()
    early = engine.reserve(0)
    engine.schedule(5, lambda: engine.step_to(*early))
    with pytest.raises(SimulationError, match="backwards"):
        engine.run()


def test_next_key_bounds_held_steps_by_queue_and_until():
    engine = Engine()
    engine.schedule(7, lambda: None)
    assert engine.next_key() == (7, 0)
    seen = []
    engine.schedule(3, lambda: seen.append(engine.next_key()))
    engine.run(until=5)
    # the queued (7, 0) lies past until=5: held keys stop at time 5
    assert seen == [(6, -1)]
    engine.run()
    assert engine.next_key()[0] == float("inf")


def test_a_captured_engine_holds_nothing():
    engine = Engine()
    engine.set_capture(object())
    with pytest.raises(SimulationError, match="queued"):
        engine.reserve(1)
    assert engine.events_scheduled == 0
