"""Unit tests for the discrete-event engine."""

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
