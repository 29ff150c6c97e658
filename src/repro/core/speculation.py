"""Speculation phase: beam-search construction of candidate token trees.

§4.3 step 1: starting from each request's root token, the draft model runs
``d`` decoding steps.  At each step every frontier node proposes its top
continuations; the ``w`` highest approximated-path-probability candidates
*across the whole frontier* survive and extend the candidate tree.  After
``d`` steps the tree has depth at most ``d`` with at most ``w`` nodes per
layer (the first layer is the root alone).

Theorem 4.1 guarantees that a beam of width B and depth D(T_opt) covers
the optimal tree, so the selection phases that follow never need tokens
the beam did not propose (given sufficient d and w).

Cost accounting: step 1 processes 1 token per request (the roots), steps
2..d process ``w`` tokens per request, all batched across requests.  The
returned :class:`SpeculationResult` carries these per-step token counts so
the scheduler can price the phase with the draft roofline + CUDA graphs.

Two implementations build the same trees node for node:

- the **array path** (:func:`speculate_batch` when numpy is available)
  advances every request's beam one level at a time as numpy arrays,
  reading draft rows from :func:`repro.model.batchgen.draft_rows`; it
  creates tree nodes only for survivors and never touches the
  distribution memos;
- the **oracle** (:func:`build_candidate_tree`) expands one request with
  memoized scalar ``DraftLM.distribution`` calls.  Without numpy,
  :func:`speculate_batch` loops over it; ``tests/test_speculation.py``
  compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.core.tree import TokenTree, TreeNode
from repro.model import batchgen
from repro.model.pair import ModelPair
from repro.model.stochastic_lm import PREFETCH_MIN_BATCH

#: Sort key over (path_prob, node, token, prob) candidates (hot loop).
_BY_PATH_PROB = itemgetter(0)


def draft_chains(
    pair: ModelPair,
    starts: list[tuple[int, float | None]],
    k: int,
) -> list[list[int]]:
    """Greedy ``k``-token draft chains from each ``(ctx, center)`` start.

    Used by the chain-speculation baselines (vLLM-Spec, SmartSpec).
    Each chain is an independent pure function of its start context, so
    drafting all chains step-lockstep yields identical tokens to
    per-request loops while letting every step's draft distributions be
    generated in one vectorized pass (``DraftLM.prefetch``).
    """
    draft = pair.draft
    extend = pair.extend
    top_w = draft.top_w
    ctxs = [ctx for ctx, _ in starts]
    chains: list[list[int]] = [[] for _ in starts]
    prefetchable = len(starts) >= PREFETCH_MIN_BATCH
    for _ in range(k):
        if prefetchable:
            draft.prefetch(
                [(ctx, center) for ctx, (_, center) in zip(ctxs, starts)]
            )
        for i, (_, center) in enumerate(starts):
            tok, _prob = top_w(ctxs[i], 1, center)[0]
            chains[i].append(tok)
            ctxs[i] = extend(ctxs[i], tok)
    return chains


@dataclass(frozen=True)
class SpeculationResult:
    """Candidate trees for a batch plus the cost-relevant step shape."""

    trees: list[TokenTree]
    depth: int
    width: int
    step_tokens: tuple[int, ...]  # tokens processed by the draft at each step

    @property
    def total_draft_tokens(self) -> int:
        """Total tokens the draft model processed."""
        return sum(self.step_tokens)


def build_candidate_tree(
    pair: ModelPair,
    root_token: int,
    root_ctx: int,
    depth: int,
    width: int,
    center: float | None = None,
) -> TokenTree:
    """Beam-search a candidate tree for a single request.

    The scalar reference: one memoized ``DraftLM.distribution`` per
    frontier node.  :func:`speculate_batch`'s array path must build
    node-for-node identical trees.

    Parameters
    ----------
    pair:
        The draft/target model pair (only the draft is consulted).
    root_token, root_ctx:
        The request's last committed token and its context hash.
    depth, width:
        Beam depth d and width w.
    center:
        Optional per-request predictability center forwarded to the model.
    """
    if depth < 0 or width < 1:
        raise ValueError(f"invalid beam shape: depth={depth}, width={width}")
    tree = TokenTree(root_token, root_ctx)
    frontier: list[TreeNode] = [tree.root]
    draft_distribution = pair.draft.distribution
    extend = pair.extend
    add_child = tree.add_child
    for _ in range(depth):
        candidates: list[tuple[float, TreeNode, int, float]] = []
        append = candidates.append
        for node in frontier:
            dist = draft_distribution(node.ctx_hash, center)
            path_prob = node.path_prob
            for token_id, prob in zip(dist.token_ids[:width], dist.probs[:width]):
                append((path_prob * prob, node, token_id, prob))
        candidates.sort(key=_BY_PATH_PROB, reverse=True)
        frontier = [
            add_child(parent, token_id, extend(parent.ctx_hash, token_id), prob)
            for _path_prob, parent, token_id, prob in candidates[:width]
        ]
    return tree


def _speculate_arrays(
    pair: ModelPair,
    roots: list[tuple[int, int]],
    depth: int,
    width: int,
    centers: list[float | None],
) -> list[TokenTree]:
    """Beam-search every request's tree level-synchronously in numpy.

    Every request's frontier has the same size ``f`` at a given level
    (1, then ``min(w, f * min(w, k))``), so the whole batch's frontier
    is an ``(n, f)`` array of contexts and path probabilities.  One
    level: draft rows for all ``n * f`` contexts (``batchgen.draft_rows``,
    no memo), the ``n x (f * m)`` candidate path probabilities in
    ``build_candidate_tree``'s (node, rank) order, then the top ``w``
    per request by a stable sort of the negated values — the tie order
    of ``list.sort(reverse=True)``.  Nodes are created only for the
    survivors.
    """
    np = batchgen._np
    trees = [TokenTree(tok, ctx) for tok, ctx in roots]
    n = len(roots)
    if depth == 0 or n == 0:
        return trees
    m = min(width, pair.target.branching)
    default = pair.target.predictability
    eff = np.array([default if c is None else c for c in centers], dtype=np.float64)
    ctx = np.array([c for _, c in roots], dtype=np.uint64)[:, None]
    path = np.ones((n, 1), dtype=np.float64)
    frontiers = [[t.root] for t in trees]
    for _ in range(depth):
        f = ctx.shape[1]
        ids, probs = batchgen.draft_rows(pair.draft, ctx.ravel(), np.repeat(eff, f))
        # Column j * m + r of request i: rank-r continuation of node j.
        cand = (path[:, :, None] * probs.reshape(n, f, -1)[:, :, :m]).reshape(n, f * m)
        keep = np.argsort(-cand, axis=1, kind="stable")[:, :width]
        parent_col = keep // m
        rank = keep - parent_col * m
        row = parent_col + np.arange(0, n * f, f)[:, None]  # parent's draft row
        draft_prob = probs[row, rank]
        in_range = (draft_prob >= 0.0) & (draft_prob <= 1.0)
        if not in_range.all():
            raise ValueError(f"draft_prob out of range: {draft_prob[~in_range][0]}")
        tokens = ids[row, rank]
        path = path.ravel()[row] * draft_prob
        ctx = batchgen.extend_rows(ctx.ravel()[row], tokens)
        frontiers = [
            tree.add_level([frontier[c] for c in cols], toks, hashes, dps, pps)
            for tree, frontier, cols, toks, hashes, dps, pps in zip(
                trees,
                frontiers,
                parent_col.tolist(),
                tokens.tolist(),
                ctx.tolist(),
                draft_prob.tolist(),
                path.tolist(),
            )
        ]
    return trees


def speculate_batch(
    pair: ModelPair,
    roots: list[tuple[int, int]],
    depth: int,
    width: int,
    centers: list[float | None] | None = None,
) -> SpeculationResult:
    """Run the speculation phase for a whole batch.

    Parameters
    ----------
    roots:
        One ``(root_token, root_ctx)`` per request.
    depth, width:
        Beam shape shared by the batch (chosen by the adaptive controller).
    centers:
        Optional per-request predictability centers.

    Returns
    -------
    SpeculationResult with one candidate tree per request and the per-step
    batched token counts: step 1 processes ``len(roots)`` root tokens;
    each subsequent step processes ``width`` tokens per request.
    """
    n = len(roots)
    if centers is None:
        centers = [None] * n
    elif len(centers) != n:
        raise ValueError("centers length must match roots")
    if depth < 0 or width < 1:
        raise ValueError(f"invalid beam shape: depth={depth}, width={width}")
    if batchgen.AVAILABLE:
        trees = _speculate_arrays(pair, roots, depth, width, centers)
    else:
        trees = [
            build_candidate_tree(pair, tok, ctx, depth, width, center)
            for (tok, ctx), center in zip(roots, centers)
        ]
    if depth == 0 or n == 0:
        step_tokens: tuple[int, ...] = ()
    else:
        step_tokens = (n, *(n * width for _ in range(depth - 1)))
    return SpeculationResult(trees=trees, depth=depth, width=width, step_tokens=step_tokens)
