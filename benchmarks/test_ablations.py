"""Ablations of three of the paper's design choices.

1. **Page probing** (Section 5.3): "If the OMS probes each page ...
   while executing in the serial region ... the number of proxy
   execution events for page faults can be significantly reduced."
2. **Gang-scheduler queue policy** (Section 4.2: ShredLib implements
   several scheduling algorithms).
3. **Signal-cost sweep with proxy-heavy load**: quantifies how much
   the suspend-on-ring-transition design costs as signaling gets
   cheaper (the ideal-hardware end approximates the speculative
   keep-running alternative sketched in Section 2.3).

Each ablation is a small RunSpec grid: workload-factory kwargs
(``probe_pages``), the queue policy, and machine params are all spec
fields, so variants are declared rather than hand-driven, and their
proxy statistics come back in the RunSummary.
"""

from repro.experiments import RunSpec
from repro.params import DEFAULT_PARAMS
from repro.shredlib.runtime import QueuePolicy

SCALE = 0.25


def test_ablation_page_probe(runner):
    specs = [
        RunSpec("RayTracer", "misp", "1x8", scale=SCALE),
        RunSpec("RayTracer", "misp", "1x8", scale=SCALE,
                args={"probe_pages": True}),
    ]
    plain, probed = runner.run_many(specs)
    plain_events = plain.serializing_events()
    probed_events = probed.serializing_events()
    print(f"\n  AMS proxy faults: plain={plain_events['ams_pf']} "
          f"probed={probed_events['ams_pf']}")
    print(f"  proxy requests:   plain={plain.proxy.requests} "
          f"probed={probed.proxy.requests}")
    # probing converts worker compulsory faults into serial OMS faults
    assert probed_events["ams_pf"] <= plain_events["ams_pf"] // 10
    assert probed_events["oms_pf"] > plain_events["oms_pf"]


def test_ablation_queue_policy(runner):
    specs = {policy: RunSpec("RayTracer", "misp", "1x8", scale=SCALE,
                             policy=policy)
             for policy in (QueuePolicy.FIFO, QueuePolicy.LIFO)}
    cycles = {policy: runner.run(spec).cycles
              for policy, spec in specs.items()}
    fifo, lifo = cycles[QueuePolicy.FIFO], cycles[QueuePolicy.LIFO]
    print(f"\n  FIFO={fifo:,} LIFO={lifo:,} "
          f"(LIFO/FIFO = {lifo / fifo:.3f})")
    # with independent tiles both policies drain the same work; they
    # must agree within a few percent (scheduling is not the bottleneck)
    assert abs(lifo - fifo) / fifo < 0.05


def test_ablation_serialization_cost(runner):
    """Dynamic cost of suspend-on-ring-transition on a proxy-heavy app."""
    signals = (0, 500, 1000, 5000)
    # sparse_mvm_sym: 669 shred-side faults
    sweep = [RunSpec("sparse_mvm_sym", "misp", "1x8", scale=SCALE,
                     params=DEFAULT_PARAMS.with_changes(signal_cost=signal))
             for signal in signals]
    cycles = dict(zip(signals, (s.cycles for s in runner.run_many(sweep))))
    ideal = cycles[0]
    print()
    for signal, value in cycles.items():
        print(f"  signal={signal:5d}: {value / ideal - 1:+.3%} vs ideal")
    # the paper's conclusion: even 5000-cycle signaling stays cheap
    assert cycles[5000] / ideal - 1 < 0.10
    assert cycles[500] <= cycles[5000]
