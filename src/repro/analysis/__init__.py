"""Analysis toolkit: response-time studies, decision-time overhead,
solver work profiles.

The paper deliberately reports only *execution times* ("an in depth study
for the effect of different parameters on the response time of the
queries can be found in [12]").  This package supplies that companion
analysis for the reproduction:

* :mod:`repro.analysis.response` — response-time distributions per
  (scheme, load, query type), replication-vs-single-copy gains, and
  scheme comparisons.
* :mod:`repro.analysis.decision` — the paper's *motivation* quantified:
  scheduling decision time as a fraction of the response time it gates.
* :mod:`repro.analysis.work` — operation-count profiles (probes,
  increments, pushes, relabels) per solver, machine-noise-free evidence
  for the flow-conservation claims.
"""

from repro.analysis.decision import DecisionOverhead, decision_overhead_study
from repro.analysis.response import (
    ResponseStats,
    replication_gain_study,
    response_time_study,
    scheme_comparison,
)
from repro.analysis.structure import (
    StructurePoint,
    StructureStudy,
    structure_correlation_study,
)
from repro.analysis.work import WorkProfile, work_profile_study

__all__ = [
    "StructurePoint",
    "StructureStudy",
    "structure_correlation_study",
    "DecisionOverhead",
    "decision_overhead_study",
    "ResponseStats",
    "replication_gain_study",
    "response_time_study",
    "scheme_comparison",
    "WorkProfile",
    "work_profile_study",
]
