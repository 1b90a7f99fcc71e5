"""Figure 6 — the MISP MP configurations.

The figure is an enumeration of how eight sequencers partition into
MISP processors.  The test builds every configuration as a live
machine, validates the topology (OS-visible CPUs, SIDs, AMS counts),
and prints the partition listing.
"""

from repro.analysis.report import figure6_text
from repro.core import (
    FIGURE6_CONFIGS, FIGURE7_CONFIGS, build_machine, config_name,
    parse_config, total_sequencers,
)


def test_figure6():
    machines = {name: build_machine(name)
                for name in set(FIGURE6_CONFIGS) | set(FIGURE7_CONFIGS)}
    print()
    print(figure6_text())
    for name, machine in machines.items():
        counts = parse_config(name)
        assert total_sequencers(counts) == 8
        assert machine.num_cpus == len(counts)
        assert len(machine.sequencers) == 8
        assert config_name(counts) == name
        # the OS sees only the OMSs; each MISP processor resolves its
        # own SIDs starting at 0 = the OMS
        for proc in machine.processors:
            assert proc.by_sid(0) is proc.oms
            assert len(proc.amss) == counts[proc.proc_id]
