"""Unit tests for the MISP core: sequencers, processors, overhead
equations, configurations."""

import pytest

from repro.core import (
    MISPProcessor, Sequencer, SequencerRole, build_machine, config_name,
    ideal_config_for_load, parse_config, proxy_egress_cost,
    proxy_ingress_cost, serialize_cost, total_sequencers,
)
from repro.core.overhead import SignalSensitivity
from repro.errors import ConfigurationError, ProtectionError


def _seq(seq_id=0, role=SequencerRole.OMS):
    return Sequencer(seq_id, role, tlb_entries=4)


# ----------------------------------------------------------------------
# Sequencer privilege and suspension semantics
# ----------------------------------------------------------------------
class TestSequencer:
    def test_oms_ring_transitions(self):
        oms = _seq()
        assert oms.ring == 3
        oms.enter_ring0()
        assert oms.ring == 0
        oms.exit_ring0()
        assert oms.ring == 3

    def test_ams_cannot_enter_ring0(self):
        ams = _seq(1, SequencerRole.AMS)
        with pytest.raises(ProtectionError):
            ams.enter_ring0()

    def test_nested_suspend_resume(self):
        seq = _seq()
        seq.suspend(now=10)
        seq.suspend(now=20)
        assert seq.resume(now=30) is False   # still one level down
        assert seq.resume(now=40) is True
        assert seq.suspended_cycles == 30    # 40 - 10

    def test_unbalanced_resume_rejected(self):
        seq = _seq()
        with pytest.raises(ProtectionError):
            seq.resume(now=0)

    def test_runnable_requires_everything(self):
        seq = _seq()
        assert not seq.runnable          # no stream
        from repro.exec.stream import DirectStream
        seq.stream = DirectStream(iter(()))
        assert seq.runnable
        seq.suspend(0)
        assert not seq.runnable
        seq.resume(1)
        seq.proxy_wait = True
        assert not seq.runnable


# ----------------------------------------------------------------------
# Processor topology and SIDs
# ----------------------------------------------------------------------
class TestProcessor:
    def make(self, n_ams=3):
        oms = _seq(0, SequencerRole.OMS)
        amss = [_seq(i + 1, SequencerRole.AMS) for i in range(n_ams)]
        return MISPProcessor(0, oms, amss)

    def test_sid_assignment(self):
        proc = self.make(3)
        assert proc.oms.sid == 0
        assert [a.sid for a in proc.amss] == [1, 2, 3]
        assert proc.by_sid(0) is proc.oms
        assert proc.by_sid(2) is proc.amss[1]

    def test_bad_sid(self):
        proc = self.make(2)
        with pytest.raises(ConfigurationError):
            proc.by_sid(3)
        with pytest.raises(ConfigurationError):
            proc.by_sid(-1)

    def test_roles_validated(self):
        with pytest.raises(ConfigurationError):
            MISPProcessor(0, _seq(0, SequencerRole.AMS), [])
        with pytest.raises(ConfigurationError):
            MISPProcessor(0, _seq(0), [_seq(1, SequencerRole.OMS)])

    def test_active_amss_tracks_streams(self):
        proc = self.make(2)
        assert proc.active_amss() == []
        from repro.exec.stream import DirectStream
        proc.amss[1].stream = DirectStream(iter(()))
        assert proc.active_amss() == [proc.amss[1]]
        assert proc.idle_ams() is proc.amss[0]

    def test_plain_cpu_has_no_ams(self):
        proc = self.make(0)
        assert not proc.has_ams
        assert proc.num_sequencers == 1


# ----------------------------------------------------------------------
# Overhead equations (Section 5.1)
# ----------------------------------------------------------------------
class TestOverheadEquations:
    def test_equation_1(self):
        assert serialize_cost(signal=5000, priv=3000) == 13_000

    def test_equation_2(self):
        assert proxy_egress_cost(signal=5000) == 15_000

    def test_equation_3(self):
        # proxy_ingress = signal + serialize
        assert proxy_ingress_cost(5000, 3000) == 5000 + 13_000

    def test_zero_signal_ideal_hardware(self):
        assert serialize_cost(0, 3000) == 3000
        assert proxy_egress_cost(0) == 0

    def test_sensitivity_added_cycles(self):
        model = SignalSensitivity(oms_events=10, ams_events=4,
                                  ideal_cycles=1_000_000)
        assert model.added_cycles(1000) == 2 * 1000 * 10 + 3 * 1000 * 4

    def test_sensitivity_fraction_linear_in_signal(self):
        model = SignalSensitivity(100, 50, ideal_cycles=10_000_000)
        f1 = model.overhead_fraction(500)
        f2 = model.overhead_fraction(1000)
        assert f2 == pytest.approx(2 * f1)

    def test_sensitivity_requires_positive_baseline(self):
        with pytest.raises(ValueError):
            SignalSensitivity(1, 1, 0).overhead_fraction(500)


# ----------------------------------------------------------------------
# Configuration parsing (Figure 6)
# ----------------------------------------------------------------------
class TestConfigurations:
    @pytest.mark.parametrize("name,expected", [
        ("4x2", (1, 1, 1, 1)),
        ("2x4", (3, 3)),
        ("1x8", (7,)),
        ("1x4+4", (3, 0, 0, 0, 0)),
        ("1x7+1", (6, 0)),
        ("smp8", (0,) * 8),
        ("smp1", (0,)),
    ])
    def test_parse(self, name, expected):
        assert parse_config(name) == expected

    @pytest.mark.parametrize("name", ["", "x2", "0x4", "4x0", "banana"])
    def test_parse_rejects(self, name):
        with pytest.raises(ConfigurationError):
            parse_config(name)

    def test_all_figure7_configs_have_8_sequencers(self):
        from repro.core import FIGURE7_CONFIGS
        for name in FIGURE7_CONFIGS:
            assert total_sequencers(parse_config(name)) == 8

    @pytest.mark.parametrize("name", ["4x2", "2x4", "1x8", "1x4+4", "smp8"])
    def test_name_roundtrip(self, name):
        assert config_name(parse_config(name)) == name

    def test_ideal_config(self):
        assert ideal_config_for_load(8, 0) == (7,)
        assert ideal_config_for_load(8, 3) == (4, 0, 0, 0)
        with pytest.raises(ConfigurationError):
            ideal_config_for_load(8, 8)

    def test_build_machine_topology(self):
        machine = build_machine("2x4")
        assert machine.num_cpus == 2
        assert len(machine.sequencers) == 8
        assert len(machine.ams_ids()) == 6
        assert machine.describe() == "2x4"

    def test_build_machine_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            build_machine([])
