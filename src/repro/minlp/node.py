"""Branch-and-bound nodes and the open-node container."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.minlp.options import NodeSelection


@dataclass
class Node:
    """One subproblem: the base model plus bound overrides.

    ``bounds`` maps variable names to ``(lb, ub)`` overrides accumulated
    along the path from the root.  ``bound`` is the best known lower bound
    for the subtree (parent relaxation value), used for pruning and
    best-bound node selection.  ``cut_rounds`` counts how many times this
    node was re-solved after adding outer-approximation cuts.
    """

    bounds: dict = field(default_factory=dict)
    bound: float = float("-inf")
    depth: int = 0
    cut_rounds: int = 0
    # Parent relaxation artifact used to warm-start node solves: the
    # NLP-based B&B stores the parent env dict, the LP/NLP solver stores
    # the parent LP basis (a WarmStart).
    warm: object | None = None
    # Pseudo-cost bookkeeping: (var_name, "down"|"up", fractional_distance,
    # parent_objective), consumed at this node's first LP solve.
    pc_info: tuple | None = None


class NodeQueue:
    """Open-node pool with best-bound or depth-first ordering."""

    def __init__(self, selection: NodeSelection):
        self.selection = selection
        self._heap: list = []
        self._tick = itertools.count()

    def push(self, node: Node) -> None:
        if self.selection is NodeSelection.BEST_BOUND:
            key = (node.bound, next(self._tick))
        else:  # depth-first: deepest first, then most recent
            key = (-node.depth, -next(self._tick))
        heapq.heappush(self._heap, (key, node))

    def pop(self) -> Node:
        return heapq.heappop(self._heap)[1]

    def __len__(self) -> int:
        return len(self._heap)

    def best_open_bound(self) -> float:
        """Smallest subtree bound among open nodes (inf when empty)."""
        if not self._heap:
            return float("inf")
        return min(node.bound for _, node in self._heap)
