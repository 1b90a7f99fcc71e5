"""Evaluation workloads: RMS kernels, SPEComp proxies, and drivers.

Importing this package populates :data:`repro.workloads.base.REGISTRY`
with the 16 applications of the paper's Section 5 evaluation.
"""

from repro.workloads import legacy, rms, speccomp  # noqa: F401 -- registers the suites
from repro.workloads.base import REGISTRY, WorkloadSpec
from repro.workloads.runner import DEFAULT_LIMIT, RunResult

#: the 11 RMS + 5 SPEComp applications of Figure 4 / Table 1, in the
#: paper's presentation order
FIGURE4_ORDER = [
    "ADAt", "dense_mmm", "dense_mvm", "dense_mvm_sym", "gauss", "kmeans",
    "sparse_mvm", "sparse_mvm_sym", "sparse_mvm_trans", "svm_c",
    "RayTracer", "swim", "applu", "galgel", "equake", "art",
]

__all__ = [
    "REGISTRY", "WorkloadSpec", "DEFAULT_LIMIT", "RunResult",
    "FIGURE4_ORDER",
]
