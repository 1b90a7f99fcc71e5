"""MISP core architecture: sequencers, processors, proxy execution, MP."""

from repro.core.machine import Machine
from repro.core.mp import build_machine
from repro.core.notation import (
    FIGURE6_CONFIGS, FIGURE7_CONFIGS, config_name, ideal_config_for_load,
    parse_config, total_sequencers,
)
from repro.core.overhead import (
    SignalSensitivity, proxy_egress_cost, proxy_ingress_cost, serialize_cost,
)
from repro.core.processor import MISPProcessor
from repro.core.proxy import ProxyKind, ProxyRequest, ProxyStats
from repro.core.sequencer import Sequencer, SequencerRole
from repro.core.yieldcond import Scenario, ScenarioTable

__all__ = [
    "Machine", "FIGURE6_CONFIGS", "FIGURE7_CONFIGS", "build_machine",
    "config_name", "ideal_config_for_load", "parse_config",
    "total_sequencers", "SignalSensitivity", "proxy_egress_cost",
    "proxy_ingress_cost", "serialize_cost", "MISPProcessor", "ProxyKind",
    "ProxyRequest", "ProxyStats", "Sequencer", "SequencerRole",
    "Scenario", "ScenarioTable",
]
