"""Figure 7: MISP MP throughput under multiprogramming (Section 5.4).

Regenerates the figure's nine series -- ideal, smp, 4x2, 2x4, 1x8,
1x7+1, 1x6+2, 1x5+3, 1x4+4 -- each a speedup-vs-unloaded curve for
RayTracer as 0..4 single-threaded processes are added.

Expected shape (Section 5.4): the 1x8 configuration degrades "nearly
linearly" because every background process time-shares the single OMS
and idles the AMSs; adding MISP processors (2x4, 4x2) flattens the
curve; the per-load ideal partition (background processes on AMS-less
OMSs) stays at 1.0.

The 45-point sweep is declared as a ``configs x loads`` grid of
``multiprog`` :class:`~repro.experiments.RunSpec` points, and
:func:`run_figure7` is the one Figure 7 driver.  Declaring the sweep
(instead of running one multiprogramming session per point) buys two
things: grid members run in parallel worker processes, and the "ideal"
series resolves each load to its explicit partition (``1x(8-N)+N``),
so its points are deduplicated against the identically configured
members of the fixed-partition series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.notation import (
    FIGURE7_SEQUENCERS, config_name, ideal_config_for_load,
)
from repro.experiments import ExperimentSpec, Runner, RunSpec, default_runner
from repro.params import DEFAULT_PARAMS, MachineParams
from repro.workloads.multiprog import DEFAULT_RT_SCALE

#: series plotted in Figure 7, in legend order
FIGURE7_SERIES = ["ideal", "smp", "4x2", "2x4", "1x8",
                  "1x7+1", "1x6+2", "1x5+3", "1x4+4"]

#: the workload whose throughput the figure measures
FIGURE7_WORKLOAD = "RayTracer"


@dataclass(frozen=True)
class Figure7Result:
    loads: tuple[int, ...]
    #: config name -> speedup-vs-unloaded per load
    curves: dict[str, list[float]]

    def curve(self, config: str) -> list[float]:
        return self.curves[config]


def _mp_spec(config: str, load: int, rt_scale: float,
             params: MachineParams) -> RunSpec:
    return RunSpec(FIGURE7_WORKLOAD, "multiprog", config, scale=rt_scale,
                   background=load, params=params)


def _ideal_partition(load: int) -> str:
    return config_name(ideal_config_for_load(FIGURE7_SEQUENCERS, load))


def figure7_experiment(series: Sequence[str] = FIGURE7_SERIES,
                       loads: Sequence[int] = range(5),
                       rt_scale: float = DEFAULT_RT_SCALE,
                       params: MachineParams = DEFAULT_PARAMS
                       ) -> ExperimentSpec:
    """Declare the Figure 7 grid: every (config, load) point, plus the
    per-load unloaded baselines the "ideal" series normalizes to."""
    runs: list[RunSpec] = []
    for config in series:
        for load in loads:
            runs.append(_mp_spec(config, load, rt_scale, params))
            if config == "ideal":
                # the ideal series re-baselines per point: the same
                # partition, unloaded
                runs.append(_mp_spec(_ideal_partition(load), 0,
                                     rt_scale, params))
    return ExperimentSpec("figure7", tuple(runs))


def run_figure7(series: Sequence[str] = FIGURE7_SERIES,
                loads: Sequence[int] = range(5),
                rt_scale: float = DEFAULT_RT_SCALE,
                params: MachineParams = DEFAULT_PARAMS,
                runner: Optional[Runner] = None) -> Figure7Result:
    loads = tuple(loads)
    runner = runner or default_runner()
    result = runner.run_experiment(
        figure7_experiment(series, loads, rt_scale, params))

    curves: dict[str, list[float]] = {}
    for config in series:
        if config == "ideal":
            # normalized per point to the same partition running
            # unloaded: background processes on their own AMS-less
            # OMSs leave RayTracer at 1.0
            curve = []
            for load in loads:
                loaded = result[_mp_spec(config, load, rt_scale, params)]
                unloaded = result[_mp_spec(_ideal_partition(load), 0,
                                           rt_scale, params)]
                curve.append(unloaded.cycles / loaded.cycles)
        else:
            # every fixed curve is normalized to its own first point
            base = result[_mp_spec(config, loads[0], rt_scale,
                                   params)].cycles
            curve = [base / result[_mp_spec(config, load, rt_scale,
                                            params)].cycles
                     for load in loads]
        curves[config] = curve
    return Figure7Result(loads, curves)


def format_figure7(result: Figure7Result) -> str:
    header = (f"{'config':8s} "
              + " ".join(f"load={n:<2d}" for n in result.loads))
    lines = [header, "-" * len(header)]
    for config, curve in result.curves.items():
        values = " ".join(f"{v:7.3f}" for v in curve)
        lines.append(f"{config:8s} {values}")
    return "\n".join(lines)
