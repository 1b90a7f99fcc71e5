"""Quiet idle polls are exact: every run equals its per-op twin.

An idle gang scheduler's completions go to the machine's quiet
callbacks, :meth:`repro.core.machine.Machine._poll_done` and
:meth:`~repro.core.machine.Machine._lock_done`, which step its lock
RMW and backoff in place as ordinary engine events while its work
queue stays quiet.  A run's *per-op twin* is the same run with
``_poll_done`` patched to run the full completion, so every poll
resumes the scheduler's generator.  These tests compare the two,
plain and captured, on everything a run leaves behind -- the summary,
the engine's event counts, ShredLib's log, each sequencer's counters
and, for a capture, the whole trace -- over the Figure 4 grid, a drawn
set of configurations, observed scoreboard runs, drive loops sliced
by ``run(until=)`` and multiprogramming's early stop.
"""

from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.figure4 import figure4_experiment
from repro.core.machine import Machine
from repro.errors import SimulationError
from repro.exec.ops import Compute
from repro.experiments import summarize_run
from repro.obs.metrics import MetricsRegistry
from repro.params import DEFAULT_PARAMS
from repro.shredlib.log import ShredEvent
from repro.shredlib.runtime import QueuePolicy, ShredRuntime
from repro.systems import Session, get_system
from repro.workloads import FIGURE4_ORDER, REGISTRY


def _full_completion(machine, seq, stream, poll):
    machine._complete(seq, stream, poll, None)


@contextmanager
def _per_op():
    """The per-op twin's one patch: every IdlePoll completion runs the
    full completion, so no quiet event is ever scheduled."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Machine, "_poll_done", _full_completion)
        yield


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
        "trace": result.trace.to_dict() if result.trace else None,
    }


def _twins(session: Session, workload: str, scale: float, spec=None):
    """Fingerprints of a plain run and a captured one, and of their
    per-op twins."""

    def runs():
        return [_fingerprint(s.run(workload, scale=scale), spec)
                for s in (session, session.capture())]

    quiet = runs()
    with _per_op():
        twins = runs()
    return quiet, twins


@pytest.mark.smoke
def test_figure4_grid_equals_its_per_op_twins():
    """Every Figure 4 run at scale 0.01, plain and captured: stepping
    quiet polls in place changes nothing, the capture included."""
    polls = 0
    for spec in figure4_experiment(FIGURE4_ORDER, scale=0.01).runs:
        session = (Session(spec.system, spec.config).params(spec.params)
                   .policy(spec.policy).timing(spec.timing_model))
        quiet, twins = _twins(session, spec.workload, spec.scale, spec)
        assert quiet == twins, spec.describe()
        polls += quiet[0]["log"].get("queue_empty_poll", 0)
    assert polls > 10_000   # the grid does poll: the check has teeth


_SYSTEMS = [("misp", "1x8"), ("smp", "smp8"), ("hybrid", "1x4+1x2"),
            ("hybrid", "4x2")]


@settings(derandomize=True, deadline=None, max_examples=12)
# polls far cheaper than a lock RMW: the schedulers' quiet events
# interleave at a fine grain
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
def test_drawn_configurations_equal_their_per_op_twins(
        workload, system, timer_quantum, device_interrupt_period,
        idle_poll_cost, signal_cost, mem_cost):
    session = Session(*system).params(
        timer_quantum=timer_quantum,
        device_interrupt_period=device_interrupt_period,
        idle_poll_cost=idle_poll_cost, signal_cost=signal_cost,
        mem_cost=mem_cost)
    quiet, twins = _twins(session, workload, 0.01)
    assert quiet == twins


@pytest.mark.parametrize("system,config", [("misp", "1x8"),
                                           ("smp", "smp8")])
def test_observed_scoreboard_runs_equal_their_per_op_twins(system, config):
    """Scoreboard timing refuses capture, so these are plain observed
    runs: the pipeline state each charge reads, and the stall account,
    come out the same as the per-op twin's."""
    session = (Session(system, config).timing("scoreboard")
               .observe(registry=MetricsRegistry()))

    def fingerprints():
        results = [session.run(workload, scale=0.01)
                   for workload in ("kmeans", "RayTracer", "swim")]
        return [(_fingerprint(r), r.machine.stalls.items()) for r in results]

    quiet = fingerprints()
    assert sum(fp["log"].get("queue_empty_poll", 0) for fp, _ in quiet) \
        > 1_000
    with _per_op():
        assert fingerprints() == quiet


def test_plain_observed_and_captured_runs_step_quiet_polls(monkeypatch):
    """No option selects the quiet path: a plain, an observed and a
    captured run of one workload step the same quiet lock RMWs."""
    steps = []
    lock_done = Machine._lock_done

    def counted(machine, *args):
        steps[-1] += 1
        lock_done(machine, *args)

    monkeypatch.setattr(Machine, "_lock_done", counted)
    session = Session("misp", "1x8")
    for run in (session, session.observe(registry=MetricsRegistry()),
                session.capture()):
        steps.append(0)
        run.run("kmeans", scale=0.01)
    assert steps[0] > 100 and steps.count(steps[0]) == 3


def _staged(system: str, config: str, capture: bool = False,
            background: int = 0):
    """A staged machine, run by the caller's own drive loop."""
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


@pytest.mark.parametrize("capture", [False, True],
                         ids=["plain", "captured"])
@pytest.mark.parametrize("system,config", [("misp", "1x8"),
                                           ("smp", "smp8")])
def test_sliced_drive_matches_the_twin_after_every_slice(system, config,
                                                         capture):
    """``run(until=)`` in small slices: each slice stops at ``until``
    with every event counted, and with the same progress as the per-op
    twin sliced the same way, while idle schedulers' events are in
    flight."""
    quiet = _staged(system, config, capture).machine
    with _per_op():
        twin = _staged(system, config, capture).machine
    until, quiet_slices = 0, 0
    while True:
        until += 7_919
        stop = quiet.run(until=until)
        with _per_op():
            assert twin.run(until=until) == stop
            twin_counts = _counts(twin)
        engine = quiet.engine
        assert engine.events_executed + engine.pending() \
            == engine.events_scheduled
        assert _counts(quiet) == twin_counts
        if not engine.pending():
            break               # drained: the clock stays at the last event
        assert stop == until
        quiet_slices += bool(engine.queued(quiet._poll_done)
                             + engine.queued(quiet._lock_done))
    assert quiet.kernel.all_done and quiet_slices > 10


def test_multiprog_stop_matches_the_per_op_twin():
    """Multiprogramming's sliced drive stops with events still queued,
    quiet ones among them: its end-of-run counts equal the per-op
    twin's."""
    backend = get_system("multiprog")
    quiet = _staged("multiprog", "1x8", background=2)
    stop = backend.drive(quiet, 10**12)
    with _per_op():
        twin = _staged("multiprog", "1x8", background=2)
        assert backend.drive(twin, 10**12) == stop
        twin_counts = _counts(twin.machine)
    assert _counts(quiet.machine) == twin_counts
    assert quiet.runtime.log.summary() == twin.runtime.log.summary()


def test_a_loop_that_breaks_the_idle_poll_contract_is_named():
    """The quiet path resumes no generator while a scheduler stays
    quiet; at its first fallback it brings the generator to the lock
    RMW and checks that it got there.  A loop whose backoff is not
    followed by the lock RMW fails by name there, not with a wrong
    count."""
    machine = Machine([0])
    rt = ShredRuntime(DEFAULT_PARAMS)

    def broken():
        yield rt.idle_poll_op
        yield Compute(10)           # not rt.lock_op

    machine.spawn_thread(machine.spawn_process("p"), "broken", broken())
    # a shut-down queue is not quiet: the next lock RMW falls back
    machine.engine.schedule(200_000, setattr, rt, "shutdown", True)
    with pytest.raises(SimulationError,
                       match="'broken' broke the idle-poll contract"):
        machine.run()
    assert rt.log.count(ShredEvent.QUEUE_EMPTY_POLL) > 1
