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
candidate only once its parent is selected.  Conditional draft
probabilities lie in [0, 1] (``TokenTree.add_child`` accepts 1.0), so a
node's path probability is *non-increasing* along every root path:
frontier-greedy equals unrestricted-greedy while guaranteeing the
selected set is connected (Appendix B) by construction.  Equal path
probabilities pop in exposure order: within a tree, the node whose parent
was selected first (siblings in creation order); across trees in phase 2,
the tree whose head entered the global heap first, so trees with equal
heads take turns.

Budget semantics follow Algorithm 2: each request's root consumes one
budget token up front (the verifier always processes the root position),
then every selected node consumes one.

:func:`select_tokens` takes either a list of trees — the heap
implementation above, the reference oracle — or the array speculation
path's :class:`~repro.core.tree.CandidateForest`.  On a forest the same
pops are computed from arrays: each tree's full pop order is a sort by
path probability (ties in exposure order), phase 1 is a running sum along
it and phase 2 a threshold over every tree's remaining tail.  Nodes are
then built only for the selected subtrees.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.core.tree import CandidateForest, TokenTree, TreeNode
from repro.model import batchgen

#: Default cap on tokens added per request during the SLO phase (§4.3).
DEFAULT_N_MAX = 16


@dataclass
class RequestSelection:
    """Per-request outcome of the selection phases."""

    tree: TokenTree  # candidate tree, selection flagged; from a forest: the selected subtree
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
    # Frontier pops, for CPU-overhead modeling.  A request whose tree runs
    # out during the SLO phase adds one empty pop, so this can exceed
    # the number of selected nodes.
    candidates_scanned: int = 0

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
    trees: list[TokenTree] | CandidateForest,
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
        and then set in place; use ``extract_selected`` afterwards.  A
        :class:`CandidateForest` is left unchanged: each selection's
        ``tree`` is then its selected subtree, all nodes flagged.
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
    forest = isinstance(trees, CandidateForest)
    n = trees.num_trees if forest else len(trees)
    if len(requirements) != n:
        raise ValueError("requirements length must match trees")
    if budget < n:
        raise ValueError(f"budget {budget} cannot cover {n} roots")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if forest:
        return _select_forest(trees, requirements, budget, n_max, depth)

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


def _pop_order(forest: CandidateForest):
    """Each tree's full frontier-heap pop order and the path probabilities along it.

    Returns ``(order, values)``: ``order[i]`` indexes row ``i``'s columns
    1..N and ``values[i]`` is non-increasing.

    Path probabilities are non-increasing along root paths, so popping a
    whole tree visits its nodes by descending path probability, ties in
    exposure order: key (-path_prob, pop rank of the parent, creation
    index).  A stable sort of -path_prob gives that order for every tree
    without ties.  A tree with ties is re-sorted with its parents' ranks
    from the previous pass; pass ``L`` fixes the order of nodes down to
    depth ``L + 1``, so ``depth - 1`` passes suffice.
    """
    np = batchgen._np
    neg = -forest.path_prob[:, 1:]
    order = np.argsort(neg, axis=1, kind="stable")
    ranked = neg[np.arange(neg.shape[0])[:, None], order]
    tied = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
    if tied.size and forest.depth > 1:
        neg, parent, sub = neg[tied], forest.parent[tied, 1:], order[tied]
        rank = np.full((tied.size, neg.shape[1] + 1), -1, dtype=np.intp)  # root: -1
        for _ in range(forest.depth - 1):
            np.put_along_axis(rank[:, 1:], sub, np.arange(neg.shape[1]), axis=1)
            sub = np.lexsort((np.take_along_axis(rank, parent, axis=1), neg), axis=1)
        order[tied] = sub  # tied values: the sorted values stay the same
    return order, -ranked


def _throughput_counts(values, start: list[int], take: int) -> list[int]:
    """Nodes each tree gives up to phase 2's global greedy.

    ``values`` holds each tree's path probabilities in pop order (rows
    non-increasing) and ``start[i]`` how many of them phase 1 took.  The
    first ``take`` elements of the merged tails are every tail element
    above the ``take``-th largest value ``cut`` plus some equal to it.
    When one tree holds every ``cut`` or all of them are taken, counts
    follow directly; otherwise the heap's round-robin among equal heads
    decides, so the merge is replayed.
    """
    np = batchgen._np
    n, size = values.shape
    tail = np.arange(size) >= np.array(start, dtype=np.intp)[:, None]
    flat = values[tail]
    if take >= flat.size:
        return [size - s for s in start]
    if take == 0:
        return [0] * n
    cut = np.partition(flat, flat.size - take)[flat.size - take]
    counts = ((values > cut) & tail).sum(axis=1)
    ties = ((values == cut) & tail).sum(axis=1)
    short = take - int(counts.sum())
    tied = np.flatnonzero(ties)
    if tied.size == 1:
        counts[tied] += short
    elif short == int(ties.sum()):
        counts += ties
    else:
        return _merge_counts(values.tolist(), start, take)
    return counts.tolist()


def _merge_counts(rows: list[list[float]], start: list[int], take: int) -> list[int]:
    """Replay phase 2's global heap over each row's tail ``rows[i][start[i]:]``."""
    counter = itertools.count()
    heap = [
        (-row[s], next(counter), i) for i, (row, s) in enumerate(zip(rows, start)) if s < len(row)
    ]
    heapq.heapify(heap)
    head = list(start)
    while take and heap:
        _, _, i = heapq.heappop(heap)
        head[i] += 1
        take -= 1
        if head[i] < len(rows[i]):
            heapq.heappush(heap, (-rows[i][head[i]], next(counter), i))
    return [h - s for h, s in zip(head, start)]


def _select_forest(
    forest: CandidateForest,
    requirements: list[float],
    budget: int,
    n_max: int,
    depth: int | None,
) -> SelectionResult:
    """:func:`select_tokens` on a forest: the oracle's pops, from arrays.

    Both phases pop from the front of each tree's fixed pop order, so a
    selection is a count per tree.  ``n_acc`` is the running sum along
    that order starting at 1.0 (``cumsum`` adds left to right, like the
    oracle's ``+=``), phase 1 is a count of prefix sums below A_cap(r)
    rationed by the shared budget, and phase 2 is
    :func:`_throughput_counts`.
    """
    np = batchgen._np
    n, size = forest.num_trees, forest.num_nodes
    depths = forest.depths if depth is None else [depth] * n
    caps = [min(req, float(d + 1)) for req, d in zip(requirements, depths)]
    order, values = _pop_order(forest)
    n_acc = np.cumsum(np.concatenate((np.ones((n, 1)), values), axis=1), axis=1)
    below = (n_acc < np.array(caps, dtype=np.float64)[:, None]).sum(axis=1).tolist()

    # ---- Phase 1: SLO-customized selection (descending A(r)). ----
    remaining = budget - n
    slo = [0] * n
    scanned = 0
    for i in sorted(range(n), key=requirements.__getitem__, reverse=True):
        k = min(below[i], n_max, size, remaining)
        slo[i] = k
        remaining -= k
        # An SLO loop still running after the tree is exhausted pops once more, empty.
        scanned += k + (below[i] > size and n_max > size and remaining > 0)
    rows = np.arange(n)
    at_slo = n_acc[rows, slo].tolist()

    # ---- Phase 2: throughput-optimized selection (global greedy). ----
    extra = _throughput_counts(values, slo, remaining)
    taken = [a + b for a, b in zip(slo, extra)]
    spent = sum(extra)
    scanned += spent
    remaining -= spent

    keep = np.zeros((n, size), dtype=bool)
    keep[rows[:, None], order] = np.arange(size) < np.array(taken)[:, None]
    subtrees = forest.build(keep, selected=True)
    selections = [
        RequestSelection(
            tree=tree,
            requirement=req,
            capped_requirement=cap,
            expected_accepted=acc,
            slo_tokens=k,
            throughput_tokens=t,
            slo_satisfied=reached >= cap,
        )
        for tree, req, cap, acc, k, t, reached in zip(
            subtrees,
            requirements,
            caps,
            n_acc[rows, taken].tolist(),
            slo,
            extra,
            at_slo,
        )
    ]
    return SelectionResult(
        selections=selections,
        budget=budget,
        budget_used=budget - remaining,
        candidates_scanned=scanned,
    )
