"""Trace analysis and real-vs-synthetic fidelity reporting.

The measurement toolkit behind the paper's fidelity argument: per-flow
and per-trace statistical summaries (:mod:`repro.analysis.summaries`) and
bounded-distance comparison reports between traces and between competing
generators (:mod:`repro.analysis.compare`).
"""

from repro.analysis.compare import (
    DistributionDistance,
    FidelityReport,
    compare_generators,
    compare_traces,
)
from repro.analysis.summaries import FlowSummary, TraceSummary

__all__ = [
    "FlowSummary",
    "TraceSummary",
    "FidelityReport",
    "DistributionDistance",
    "compare_traces",
    "compare_generators",
]
