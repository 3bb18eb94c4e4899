"""Retrieval core — the paper's contribution.

Given a query (a set of buckets, each replicated on several disks) and a
:class:`~repro.storage.StorageSystem`, find the replica assignment that
minimizes the query's response time.  The solvers:

======================  =============================================
registry name           paper reference
======================  =============================================
``ff-basic``            Algorithm 1 (basic problem, [18])
``ff-incremental``      Algorithms 2 + 3 (generalized, integrated FF)
``ff-binary``           integrated FF + binary scaling (ours)
``pr-incremental``      Algorithm 5 (integrated push–relabel)
``pr-binary``           Algorithm 6 (integrated PR + binary scaling)
``pr-csr``              Algorithm 6 on the CSR flat-array kernel
``blackbox-binary``     [12]'s black-box binary scaling baseline
``parallel-binary``     Algorithm 6 with multithreaded push/relabel
``brute-force``         exhaustive oracle (tiny instances; tests)
``greedy-finish-time``  heuristic baseline (NOT optimal)
``round-robin``         parameter-blind strawman (NOT optimal)
======================  =============================================

All optimal solvers provably return the same response time; the paper's
§VI.F does the same cross-check ("the results are matching as expected").
Extensions: degraded mode, min-work tie-breaking,
certification (:mod:`repro.core.certify`) and min-cut explanations
(:mod:`repro.core.explain`).
"""

from repro.core.api import SOLVERS, get_solver, solve
from repro.core.basic_ff import FordFulkersonBasicSolver
from repro.core.degraded import (
    FailureImpact,
    degrade_problem,
    failure_impact,
    solve_degraded,
)
from repro.core.explain import ScheduleExplanation, explain_schedule
from repro.core.tiebreak import WorkOptimalResult, solve_min_work, total_work_ms
from repro.core.binary_csr import CsrBinarySolver
from repro.core.binary_ff import FordFulkersonBinarySolver
from repro.core.binary_pr import PushRelabelBinarySolver
from repro.core.blackbox import BlackBoxBinarySolver
from repro.core.brute_force import BruteForceSolver, brute_force_response_time
from repro.core.certify import CertificateResult, certify_optimal, verify_schedule
from repro.core.greedy import GreedyFinishTimeSolver, RoundRobinSolver
from repro.core.increment import MinCostIncrementer
from repro.core.incremental_ff import FordFulkersonIncrementalSolver
from repro.core.incremental_pr import PushRelabelIncrementalSolver
from repro.core.network import RetrievalNetwork
from repro.core.parallel import ParallelBinarySolver
from repro.core.problem import RetrievalProblem
from repro.core.schedule import RetrievalSchedule, SolverStats

__all__ = [
    "SOLVERS",
    "get_solver",
    "solve",
    "FordFulkersonBasicSolver",
    "FordFulkersonBinarySolver",
    "FordFulkersonIncrementalSolver",
    "PushRelabelIncrementalSolver",
    "PushRelabelBinarySolver",
    "CsrBinarySolver",
    "BlackBoxBinarySolver",
    "ParallelBinarySolver",
    "BruteForceSolver",
    "brute_force_response_time",
    "GreedyFinishTimeSolver",
    "RoundRobinSolver",
    "CertificateResult",
    "certify_optimal",
    "verify_schedule",
    "FailureImpact",
    "degrade_problem",
    "failure_impact",
    "solve_degraded",
    "WorkOptimalResult",
    "solve_min_work",
    "total_work_ms",
    "ScheduleExplanation",
    "explain_schedule",
    "MinCostIncrementer",
    "RetrievalNetwork",
    "RetrievalProblem",
    "RetrievalSchedule",
    "SolverStats",
]
