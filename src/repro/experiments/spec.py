"""Declarative run specifications.

A :class:`RunSpec` names one simulation -- *which workload, on which
system, in which machine configuration, at what scale, under which
parameters* -- as plain, hashable data.  Two specs that describe the
same simulation normalize to the same canonical form and therefore the
same :meth:`RunSpec.spec_hash`, which is what lets the
:class:`~repro.experiments.runner.Runner` deduplicate shared runs
(one 1P baseline serves Figure 4, Figure 5, and Table 1) and memoize
completed runs on disk.

An :class:`ExperimentSpec` is an ordered grid of RunSpecs -- the
declarative form of "a figure": Figure 4 is ``workloads x {1p, misp,
smp}``, Figure 7 is ``configs x loads``, and adding a scenario is
declaring one more RunSpec.

Systems are resolved purely through
:data:`repro.systems.SYSTEM_REGISTRY`: each backend owns its
configuration-notation rules (``canonical_config``) and its default
cycle budget, so registering a backend is all it takes for specs to
validate, canonicalize, and hash against it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.params import DEFAULT_PARAMS, MachineParams
from repro.shredlib.runtime import QueuePolicy
from repro.systems import SYSTEM_REGISTRY
from repro.timing import TIMING_REGISTRY, canonical_timing_name
from repro.workloads.base import REGISTRY, check_scale
from repro.workloads.runner import DEFAULT_LIMIT

__all__ = ["SPEC_VERSION", "ExperimentSpec", "RunSpec"]

#: bump to invalidate previously hashed specs after semantic changes
#: (2: timing-model identity + scoreboard sb_* params joined the hash)
SPEC_VERSION = 2


def _canonical_args(args: Any) -> tuple[tuple[str, Any], ...]:
    """Normalize factory kwargs to a sorted, hashable pair tuple."""
    if isinstance(args, Mapping):
        items = args.items()
    else:
        items = tuple(args)
    out = []
    for key, value in sorted(items):
        if not isinstance(key, str):
            raise ConfigurationError(f"workload arg name {key!r} not a string")
        if not isinstance(value, (str, int, float, bool, type(None))):
            raise ConfigurationError(
                f"workload arg {key}={value!r} is not a JSON scalar")
        out.append((key, value))
    return tuple(out)


@dataclass(frozen=True)
class RunSpec:
    """One simulation, as content-hashable plain data.

    Fields are validated and normalized on construction so that equal
    simulations compare (and hash) equal:

    * ``workload`` must name a registered workload (names match
      exactly); ``system`` and ``timing_model`` are resolved through
      their registries, and ``policy`` is lowercased and validated;
    * ``config`` is canonicalized by the backend's Figure 6 notation
      rules (``"1X8"`` -> ``"1x8"``, ``"smp1"`` on a plain CPU
      collapses ``smp`` to ``1p``, multiprogramming's ``"ideal"``
      resolves to the explicit per-load partition);
    * ``args`` (extra workload-factory kwargs, e.g. RayTracer's
      ``probe_pages``) become a sorted tuple of pairs.
    """

    workload: str
    system: str = "misp"
    config: str = ""
    scale: Optional[float] = None
    #: background single-threaded processes (multiprogramming systems)
    background: int = 0
    #: gang-scheduler queue policy ("fifo" | "lifo")
    policy: Union[str, QueuePolicy] = "fifo"
    params: MachineParams = DEFAULT_PARAMS
    limit: int = DEFAULT_LIMIT
    #: extra workload-factory kwargs, as a mapping or pair tuple
    args: Any = ()
    #: timing model pricing the run (a TIMING_REGISTRY name); part of
    #: the content hash, so a scoreboard run never aliases a fixed one
    timing_model: str = "fixed"

    def __post_init__(self) -> None:
        s = lambda field, value: object.__setattr__(self, field, value)
        # every name must resolve in its registry
        REGISTRY.get(self.workload)
        backend = SYSTEM_REGISTRY.get(self.system)
        TIMING_REGISTRY.get(self.timing_model)
        s("timing_model", canonical_timing_name(self.timing_model))
        policy = (self.policy.value if isinstance(self.policy, QueuePolicy)
                  else str(self.policy).strip().lower())
        QueuePolicy(policy)  # validate
        s("policy", policy)
        check_scale(self.scale)
        if self.background < 0:
            raise ConfigurationError("background must be >= 0")
        if self.background and not backend.supports_background:
            raise ConfigurationError(
                f"background processes are not supported by system "
                f"'{backend.name}'; use a multiprogramming system")
        if self.limit <= 0:
            raise ConfigurationError(f"limit must be positive: {self.limit}")
        if self.limit == DEFAULT_LIMIT and backend.default_limit != DEFAULT_LIMIT:
            # the untouched generic default means "the backend's own
            # horizon", so both drivers time out alike
            s("limit", backend.default_limit)
        s("args", _canonical_args(self.args))
        config = (self.config or backend.default_config).strip().lower()
        system, config = backend.canonical_config(config, self.background)
        s("system", system)
        s("config", config)

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe canonical form (used for hashing and the cache)."""
        return {
            "workload": self.workload,
            "system": self.system,
            "config": self.config,
            "scale": self.scale,
            "background": self.background,
            "policy": self.policy,
            "limit": self.limit,
            "args": [list(pair) for pair in self.args],
            "params": dataclasses.asdict(self.params),
            "timing_model": self.timing_model,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        data = dict(data)
        params = MachineParams(**data.pop("params"))
        args = tuple((k, v) for k, v in data.pop("args", []))
        return cls(params=params, args=args, **data)

    def spec_hash(self) -> str:
        """Stable content hash of the canonical spec.

        Computed once per instance (frozen, so the digest cannot go
        stale) -- callers hash freely in dedup loops and lookups.
        """
        cached = self.__dict__.get("_spec_hash")
        if cached is None:
            payload = json.dumps({"version": SPEC_VERSION, **self.to_dict()},
                                 sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(payload.encode()).hexdigest()
            object.__setattr__(self, "_spec_hash", cached)
        return cached

    def describe(self) -> str:
        extra = f"+{self.background}bg" if self.background else ""
        if self.timing_model != "fixed":
            extra += f"~{self.timing_model}"
        scale = f"@{self.scale:g}" if self.scale is not None else ""
        return f"{self.workload}{scale}/{self.system}:{self.config}{extra}"


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, ordered grid of :class:`RunSpec` members.

    Duplicate members are legal (grids are easier to declare that
    way); the Runner executes each *unique* simulation exactly once.
    """

    name: str
    runs: tuple[RunSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "runs", tuple(self.runs))

    def unique_runs(self) -> tuple[RunSpec, ...]:
        """Members deduplicated by content hash, first occurrence wins."""
        seen: dict[str, RunSpec] = {}
        for spec in self.runs:
            seen.setdefault(spec.spec_hash(), spec)
        return tuple(seen.values())

    def __len__(self) -> int:
        return len(self.runs)

    def __add__(self, other: "ExperimentSpec") -> "ExperimentSpec":
        return ExperimentSpec(f"{self.name}+{other.name}",
                              self.runs + other.runs)

    @classmethod
    def grid(cls, name: str, workloads: Sequence[str],
             systems: Iterable[Union[str, tuple[str, str]]] = ("1p", "misp", "smp"),
             *, scale: Optional[float] = None,
             params: MachineParams = DEFAULT_PARAMS,
             policy: Union[str, QueuePolicy] = "fifo",
             timing_model: str = "fixed") -> "ExperimentSpec":
        """Cross product ``workloads x systems``.

        Each ``systems`` entry is a system name (run in its default
        configuration) or an explicit ``(system, config)`` pair.
        """
        runs = []
        for workload in workloads:
            for entry in systems:
                system, config = (
                    entry if isinstance(entry, tuple)
                    else (entry, SYSTEM_REGISTRY.get(entry).default_config))
                runs.append(RunSpec(workload, system, config, scale=scale,
                                    params=params, policy=policy,
                                    timing_model=timing_model))
        return cls(name, tuple(runs))
