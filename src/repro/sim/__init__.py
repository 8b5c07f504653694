"""Discrete-event transaction-processing simulator and workloads.

Public names resolve lazily (:mod:`repro._lazy`): the CLI reads the
workload presets for its option choices, and that must not load the
simulator engine, the runner or the baseline strategies into a lock
server.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".engine": ("Engine",),
        ".metrics": ("Metrics",),
        ".realtime": ("RealtimeMetrics", "run_realtime"),
        ".runner": (
            "RunResult",
            "aggregate",
            "compare_strategies",
            "run_once",
            "sweep_period",
        ),
        ".system": ("SimulatedSystem", "Terminal"),
        ".workload": (
            "Access",
            "PRESETS",
            "Program",
            "WorkloadGenerator",
            "WorkloadSpec",
            "conversion_heavy",
            "five_mode",
            "high_contention",
            "low_contention",
        ),
    },
)

__all__ = [
    "Access",
    "PRESETS",
    "Engine",
    "Metrics",
    "Program",
    "RealtimeMetrics",
    "RunResult",
    "SimulatedSystem",
    "Terminal",
    "WorkloadGenerator",
    "WorkloadSpec",
    "aggregate",
    "conversion_heavy",
    "five_mode",
    "high_contention",
    "low_contention",
    "compare_strategies",
    "run_once",
    "run_realtime",
    "sweep_period",
]
