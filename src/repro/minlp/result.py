"""MINLP solve results."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class MINLPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"


@dataclass
class MINLPResult:
    """Outcome of a branch-and-bound solve.

    ``solution`` maps variable names to values (integers exactly rounded)
    for OPTIMAL, and for limit statuses when an incumbent exists.
    ``nodes`` / ``cuts_added`` / ``nlp_solves`` / ``lp_iterations`` feed the
    solver-performance benchmarks (paper Sec. III-E: < 60 s at 40,960 nodes,
    SOS vs binary branching).  ``nlp_solves`` counts every relaxation and
    fixed-integer subproblem solved, whether the barrier or the simplex ran
    it; ``lp_iterations`` counts the pivots of the master LPs only.
    ``kernel_counters`` snapshots the solve's
    :class:`repro.kernels.KernelCache` counters (compiles, hits/misses,
    gradient/Hessian evaluations).
    """

    status: MINLPStatus
    solution: dict | None = None
    objective: float = float("inf")
    best_bound: float = float("-inf")
    nodes: int = 0
    cuts_added: int = 0
    nlp_solves: int = 0
    lp_iterations: int = 0
    wall_time: float = 0.0
    message: str = ""
    phase_seconds: dict = field(default_factory=dict)
    kernel_counters: dict = field(default_factory=dict)
    reuse_counters: dict = field(default_factory=dict)

    @property
    def is_optimal(self) -> bool:
        return self.status is MINLPStatus.OPTIMAL

    @property
    def gap(self) -> float:
        """Relative optimality gap (0 for a proven optimum)."""
        if self.solution is None:
            return float("inf")
        denom = max(1.0, abs(self.objective))
        return max(0.0, (self.objective - self.best_bound) / denom)
