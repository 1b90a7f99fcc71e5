"""Held idle polls are exact: a plain run equals its per-op twin.

An uncaptured machine holds idle gang schedulers' completions and
steps quiet polls in place (:meth:`repro.core.machine.Machine._step_held`);
a captured machine queues every event, because its capture needs one
row per event, so the captured twin of a run is its per-op reference.
These tests compare the two on everything a run leaves behind -- the
summary, the engine's event counts, ShredLib's log and each
sequencer's counters -- over the Figure 4 grid, a drawn set of
configurations, and drive loops sliced by ``run(until=)``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.figure4 import figure4_experiment
from repro.core.machine import Machine
from repro.experiments import summarize_run
from repro.obs.metrics import MetricsRegistry
from repro.params import DEFAULT_PARAMS
from repro.shredlib.runtime import QueuePolicy
from repro.systems import Session, get_system
from repro.workloads import FIGURE4_ORDER, REGISTRY


def _fingerprint(result, spec=None) -> dict:
    machine = result.machine
    engine = machine.engine
    return {
        "summary": summarize_run(result, spec).to_dict(),
        "events": (engine.events_scheduled, engine.events_executed,
                   engine.pending()),
        "ops_issued": machine.ops_issued(),
        "log": result.runtime.log.summary(),
        "sequencers": [(s.ops_executed, s.busy_cycles, s.tlb.hits)
                       for s in machine.sequencers],
    }


def _twins(session: Session, workload: str, scale: float, spec=None):
    """Fingerprints of a plain run and of its captured twin."""
    plain = session.run(workload, scale=scale)
    twin = session.capture().run(workload, scale=scale)
    return _fingerprint(plain, spec), _fingerprint(twin, spec)


@pytest.mark.smoke
def test_figure4_grid_equals_its_captured_twins():
    """Every Figure 4 run at scale 0.01: holding changes nothing."""
    steps = 0
    for spec in figure4_experiment(FIGURE4_ORDER, scale=0.01).runs:
        session = (Session(spec.system, spec.config).params(spec.params)
                   .policy(spec.policy).timing(spec.timing_model))
        plain, twin = _twins(session, spec.workload, spec.scale, spec)
        assert plain == twin, spec.describe()
        steps += plain["log"].get("queue_empty_poll", 0)
    assert steps > 10_000   # the grid does poll: the check has teeth


_SYSTEMS = [("misp", "1x8"), ("smp", "smp8"), ("hybrid", "1x4+1x2"),
            ("hybrid", "4x2")]


@settings(derandomize=True, deadline=None, max_examples=12)
# polls far cheaper than a lock RMW: many completions would come before
# the queued stand-in, and are queued like any op instead
@example(workload="kmeans", system=("smp", "smp8"), timer_quantum=2_000_000,
         device_interrupt_period=22_000_000, idle_poll_cost=50,
         signal_cost=5_000, mem_cost=960)
@given(workload=st.sampled_from(FIGURE4_ORDER),
       system=st.sampled_from(_SYSTEMS),
       timer_quantum=st.integers(50_000, 2_000_000),
       device_interrupt_period=st.sampled_from([0, 300_000, 22_000_000]),
       idle_poll_cost=st.integers(1_000, 60_000),
       signal_cost=st.integers(100, 8_000),
       mem_cost=st.integers(15, 960))
def test_drawn_configurations_equal_their_captured_twins(
        workload, system, timer_quantum, device_interrupt_period,
        idle_poll_cost, signal_cost, mem_cost):
    session = Session(*system).params(
        timer_quantum=timer_quantum,
        device_interrupt_period=device_interrupt_period,
        idle_poll_cost=idle_poll_cost, signal_cost=signal_cost,
        mem_cost=mem_cost)
    plain, twin = _twins(session, workload, 0.01)
    assert plain == twin


@pytest.mark.parametrize("system,config", [("misp", "1x8"),
                                           ("smp", "smp8")])
def test_observed_scoreboard_runs_equal_their_per_op_twins(
        system, config, monkeypatch):
    """Scoreboard timing refuses capture, so the per-op twin here is
    the same machine with every IdlePoll completion queued: the
    pipeline state each charge reads, and the stall account of an
    observed run, come out the same."""
    session = (Session(system, config).timing("scoreboard")
               .observe(registry=MetricsRegistry()))

    def fingerprints():
        results = [session.run(workload, scale=0.01)
                   for workload in ("kmeans", "RayTracer", "swim")]
        return [(_fingerprint(r), r.machine.stalls.items()) for r in results]

    held = fingerprints()
    assert sum(fp["log"].get("queue_empty_poll", 0) for fp, _ in held) > 1_000

    def queue(machine, cost, seq, stream, poll):
        machine.engine.schedule(cost, machine._complete, seq, stream, poll,
                                None)

    monkeypatch.setattr(Machine, "_hold", queue)
    assert fingerprints() == held


def _staged(system: str, config: str, capture: bool, background: int = 0):
    """A staged machine, run by the caller's own drive loop; with
    ``capture`` it queues every event (the per-op twin)."""
    backend = get_system(system)
    machine = backend.build_machine(config, DEFAULT_PARAMS)
    if capture:
        machine.enable_capture()
    return backend.stage(machine, REGISTRY.build("kmeans", 0.01),
                         config=config, policy=QueuePolicy.FIFO,
                         background=background)


def _counts(machine) -> tuple:
    engine = machine.engine
    return (engine.now, engine.events_scheduled, engine.events_executed,
            engine.pending(), machine.ops_issued(),
            [(s.ops_executed, s.busy_cycles) for s in machine.sequencers])


@pytest.mark.parametrize("system,config", [("misp", "1x8"),
                                           ("smp", "smp8")])
def test_sliced_drive_matches_the_twin_after_every_slice(system, config):
    """``run(until=)`` in small slices: each slice stops at ``until``
    with every event counted, no held event stepped past it, and the
    same progress as the twin sliced the same way."""
    plain = _staged(system, config, capture=False).machine
    twin = _staged(system, config, capture=True).machine
    until, held_slices = 0, 0
    while True:
        until += 7_919
        stop = plain.run(until=until)
        assert stop == twin.run(until=until)
        engine = plain.engine
        assert engine.events_executed + engine.pending() \
            == engine.events_scheduled
        # held events are all still due after `until`: none was
        # stepped past it, and none due by it was left behind
        assert all(time > until for time, *_ in plain._held)
        assert _counts(plain) == _counts(twin)
        if not engine.pending():
            break               # drained: the clock stays at the last event
        assert stop == until
        held_slices += bool(plain._held)
    assert plain.kernel.all_done and held_slices > 10


def test_multiprog_stop_matches_the_per_op_twin():
    """Multiprogramming's sliced drive stops with events still queued
    (and held): its end-of-run counts equal the per-op twin's."""
    backend = get_system("multiprog")
    plain = _staged("multiprog", "1x8", capture=False, background=2)
    twin = _staged("multiprog", "1x8", capture=True, background=2)
    assert backend.drive(plain, 10**12) == backend.drive(twin, 10**12)
    assert _counts(plain.machine) == _counts(twin.machine)
    assert plain.runtime.log.summary() == twin.runtime.log.summary()
