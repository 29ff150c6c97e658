"""Selection phases of SLO-customized speculative decoding (Algorithm 2).

Given each request's candidate token tree (from the speculation phase) and
its per-iteration acceptance requirement A(r), selection decides which
candidate tokens the target model will verify, under the global token
budget B:

1. **SLO-customized selection** — requests are processed in descending
   order of A(r) (slowest first).  For each request, candidate nodes are
   taken greedily by approximated path probability until the cumulative
   sum reaches A_cap(r) = min(A(r), d+1), the per-request cap ``n_max``
   is hit, or the budget runs out.
2. **Throughput-optimized selection** — remaining budget is spent greedily
   on the globally highest approximated-path-probability candidates across
   all requests.

Both phases pick nodes from a *frontier heap* per tree: a node becomes a
candidate only once its parent is selected.  Because conditional draft
probabilities are < 1, a node's path probability is strictly below its
parent's, so frontier-greedy equals unrestricted-greedy while guaranteeing
the selected set is connected (Appendix B) by construction.

Budget semantics follow Algorithm 2: each request's root consumes one
budget token up front (the verifier always processes the root position),
then every selected node consumes one.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.core.tree import TokenTree, TreeNode

#: Default cap on tokens added per request during the SLO phase (§4.3).
DEFAULT_N_MAX = 16


@dataclass
class RequestSelection:
    """Per-request outcome of the selection phases."""

    tree: TokenTree
    requirement: float  # A(r)
    capped_requirement: float  # A_cap(r)
    expected_accepted: float = 1.0  # n_acc: root's guaranteed token + sum of path probs
    slo_tokens: int = 0  # nodes added during the SLO phase
    throughput_tokens: int = 0  # nodes added during the throughput phase
    slo_satisfied: bool = False  # n_acc >= A_cap at the end of the SLO phase

    @property
    def num_selected(self) -> int:
        """Total selected (non-root) nodes."""
        return self.slo_tokens + self.throughput_tokens


@dataclass
class SelectionResult:
    """Batch-level outcome of the selection phases."""

    selections: list[RequestSelection]
    budget: int
    budget_used: int  # roots + selected nodes
    candidates_scanned: int = 0  # heap operations, for CPU-overhead modeling

    @property
    def budget_remaining(self) -> int:
        """Unspent verification budget."""
        return self.budget - self.budget_used


class _Frontier:
    """Max-heap of selectable nodes for one candidate tree.

    Nodes enter the frontier when their parent is selected; the heap is
    keyed on -path_prob with an insertion counter as tiebreak.
    """

    __slots__ = ("_heap", "_counter")

    def __init__(self, root: TreeNode, counter: "itertools.count") -> None:
        self._heap: list[tuple[float, int, TreeNode]] = []
        self._counter = counter
        for child in root.children:
            heapq.heappush(self._heap, (-child.path_prob, next(counter), child))

    def peek_prob(self) -> float:
        """Path probability of the best selectable node (-inf if empty)."""
        return -self._heap[0][0] if self._heap else float("-inf")

    def pop(self) -> TreeNode | None:
        """Select the best node, exposing its children."""
        if not self._heap:
            return None
        _, _, node = heapq.heappop(self._heap)
        node.selected = True
        for child in node.children:
            heapq.heappush(self._heap, (-child.path_prob, next(self._counter), child))
        return node

    def __len__(self) -> int:
        return len(self._heap)


def select_tokens(
    trees: list[TokenTree],
    requirements: list[float],
    budget: int,
    n_max: int = DEFAULT_N_MAX,
    depth: int | None = None,
) -> SelectionResult:
    """Run both selection phases over a batch (Algorithm 2, lines 9-23).

    Parameters
    ----------
    trees:
        Candidate token trees, one per request.  Selection flags are reset
        and then set in place; use ``extract_selected`` afterwards.
    requirements:
        A(r) per request (may be negative for requests ahead of schedule).
    budget:
        Total verification token budget B (includes one token per root).
    n_max:
        Per-request cap on nodes added during the SLO phase.
    depth:
        Beam depth d used to cap requirements; defaults to each tree's own
        depth.

    Returns the per-request selections; ``tree.extract_selected()`` yields
    the draft trees for verification.
    """
    n = len(trees)
    if len(requirements) != n:
        raise ValueError("requirements length must match trees")
    if budget < n:
        raise ValueError(f"budget {budget} cannot cover {n} roots")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")

    counter = itertools.count()
    scanned = 0
    for tree in trees:
        tree.clear_selection()
    frontiers = [_Frontier(t.root, counter) for t in trees]
    selections = [
        RequestSelection(
            tree=t,
            requirement=req,
            capped_requirement=min(req, float((depth if depth is not None else t.depth) + 1)),
        )
        for t, req in zip(trees, requirements)
    ]
    remaining = budget - n  # each root consumes one budget token

    # ---- Phase 1: SLO-customized selection (descending A(r)). ----
    order = sorted(range(n), key=lambda i: selections[i].requirement, reverse=True)
    for i in order:
        sel = selections[i]
        frontier = frontiers[i]
        while (
            sel.expected_accepted < sel.capped_requirement
            and sel.slo_tokens < n_max
            and remaining > 0
        ):
            node = frontier.pop()
            scanned += 1
            if node is None:
                break
            sel.expected_accepted += node.path_prob
            sel.slo_tokens += 1
            remaining -= 1
        sel.slo_satisfied = sel.expected_accepted >= sel.capped_requirement

    # ---- Phase 2: throughput-optimized selection (global greedy). ----
    # A heap over tree indices keyed by each frontier's best node.
    global_heap: list[tuple[float, int, int]] = [
        (-frontiers[i].peek_prob(), next(counter), i)
        for i in range(n)
        if len(frontiers[i]) > 0
    ]
    heapq.heapify(global_heap)
    while remaining > 0 and global_heap:
        neg_prob, _, i = heapq.heappop(global_heap)
        frontier = frontiers[i]
        # The stored key may be stale; re-check against the live frontier.
        live = frontier.peek_prob()
        if live == float("-inf"):
            continue
        if -neg_prob > live + 1e-18:
            heapq.heappush(global_heap, (-live, next(counter), i))
            continue
        node = frontier.pop()
        scanned += 1
        if node is None:
            continue
        sel = selections[i]
        sel.expected_accepted += node.path_prob
        sel.throughput_tokens += 1
        remaining -= 1
        if len(frontier) > 0:
            heapq.heappush(global_heap, (-frontier.peek_prob(), next(counter), i))

    return SelectionResult(
        selections=selections,
        budget=budget,
        budget_used=budget - remaining,
        candidates_scanned=scanned,
    )
