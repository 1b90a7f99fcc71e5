"""Quickstart: write a multi-shredded program and run it on MISP.

Builds a small data-parallel application against the public ShredLib
API, runs it on the 1P baseline and on a MISP uniprocessor
(1 OMS + 7 AMS), and prints the speedup plus the architectural events
(ring transitions, proxy executions) the run generated.

Run:  python examples/quickstart.py
"""

from repro.systems import Session
from repro.workloads.base import WorkloadSpec


def build(api, nworkers):
    """A tiny map-reduce: 32 tasks square numbers, main sums them."""
    ctx = api.ctx
    data = ctx.reserve("data", 64)          # demand-zero pages
    results = []
    lock = api.mutex("results")

    def task(i):
        yield from ctx.touch(data, i % 64)  # first touch page-faults
        yield from ctx.compute(2_000_000)   # the "work"
        yield from lock.acquire()
        results.append(i * i)
        yield from lock.release()

    def main():
        shreds = []
        for i in range(32):
            shred = yield from api.create(task(i), name=f"task-{i}")
            shreds.append(shred)
        yield from api.join_all(shreds)
        assert sorted(results) == [i * i for i in range(32)]
        yield from ctx.syscall("write")     # report the answer
    return main()


def main():
    workload = WorkloadSpec("quickstart", "micro", build)

    base = Session("1p").run(workload)
    misp = Session("misp", "1x8").run(workload)

    print(f"1P baseline : {base.cycles:>12,} cycles")
    print(f"MISP 1x8    : {misp.cycles:>12,} cycles")
    print(f"speedup     : {base.cycles / misp.cycles:.2f}x "
          f"on 8 sequencers")
    print()
    print("serializing events on MISP (the Table 1 view):")
    for key, value in misp.serializing_events().items():
        print(f"  {key:15s} {value}")
    print()
    stats = misp.machine.proxy_stats
    print(f"proxy executions: {stats.requests} "
          f"({stats.page_faults} page faults, {stats.syscalls} syscalls), "
          f"mean latency {stats.mean_latency:,.0f} cycles")


if __name__ == "__main__":
    main()
