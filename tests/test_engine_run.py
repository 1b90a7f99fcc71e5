"""Engine.run's clock contract and the end-of-run queue scan, beyond
the core scheduling tests in test_engine.py."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


def test_run_until_in_the_past_rejected():
    engine = Engine()
    hits = []
    engine.schedule(10, hits.append, "a")
    engine.run()
    engine.schedule(5, hits.append, "b")
    with pytest.raises(SimulationError):
        engine.run(until=5)           # now is 10: would rewind to 5
    assert engine.now == 10 and hits == ["a"]
    engine.run()
    assert engine.now == 15 and hits == ["a", "b"]


def test_run_until_negative_rejected_on_a_fresh_engine():
    engine = Engine()
    engine.schedule(4, lambda: None)
    with pytest.raises(SimulationError):
        engine.run(until=-1)
    assert engine.now == 0 and engine.pending() == 1
    # the rejected call left the engine usable
    engine.run()
    assert engine.now == 4 and engine.events_executed == 1


def test_run_until_now_is_legal():
    engine = Engine()
    hits = []
    engine.schedule(10, hits.append, "a")
    engine.schedule(10, hits.append, "b")
    engine.run(until=10)
    assert engine.now == 10 and hits == ["a", "b"]
    engine.schedule(0, hits.append, "c")
    assert engine.run(until=10) == 10
    assert hits == ["a", "b", "c"]


def test_queued_counts_live_entries_for_one_callback():
    engine = Engine()
    hits = []
    other = []
    first = engine.schedule(1, hits.append, 1)
    engine.schedule(2, hits.append, 2)
    cancelled = engine.schedule(3, hits.append, 3)
    engine.schedule(4, other.append, 4)
    Engine.cancel(cancelled)
    assert engine.queued(hits.append) == 2
    engine.run(max_events=1)
    Engine.cancel(first)               # already ran: no-op
    assert engine.queued(hits.append) == 1
    assert engine.queued(other.append) == 1
    engine.run()
    assert engine.queued(hits.append) == 0 and hits == [1, 2]
