"""Tests for beam-search candidate-tree construction (§4.3 step 1)."""

from __future__ import annotations

import pytest

from repro.core.optimal import construct_optimal_trees
from repro.core.speculation import build_candidate_tree, speculate_batch
from repro.model import batchgen
from repro.model.pair import ModelPair

needs_numpy = pytest.mark.skipif(
    not batchgen.AVAILABLE, reason="numpy unavailable; speculate_batch is the scalar loop"
)


def _node_table(tree):
    """(token, ctx_hash, draft_prob, path_prob, depth, parent index) per node."""
    index = {id(node): i for i, node in enumerate(tree.nodes())}
    return [
        (n.token_id, n.ctx_hash, n.draft_prob, n.path_prob, n.depth, index.get(id(n.parent)))
        for n in tree.nodes()
    ]


class TestBeamShape:
    def test_depth_zero_is_root_only(self, pair):
        tree = build_candidate_tree(pair, 0, pair.context_of([1]), depth=0, width=3)
        assert tree.size == 1

    def test_invalid_shape(self, pair):
        with pytest.raises(ValueError):
            build_candidate_tree(pair, 0, 1, depth=-1, width=2)
        with pytest.raises(ValueError):
            build_candidate_tree(pair, 0, 1, depth=2, width=0)

    def test_layer_sizes(self, pair):
        # Depth d, width w: every layer except the root has exactly w nodes.
        tree = build_candidate_tree(pair, 0, pair.context_of([2]), depth=4, width=3)
        by_depth: dict[int, int] = {}
        for n in tree.nodes():
            by_depth[n.depth] = by_depth.get(n.depth, 0) + 1
        assert by_depth[0] == 1
        for depth in range(1, 5):
            assert by_depth[depth] == 3
        assert tree.size == 1 + 4 * 3

    def test_width_one_is_greedy_chain(self, pair):
        ctx = pair.context_of([3])
        tree = build_candidate_tree(pair, 0, ctx, depth=4, width=1)
        assert tree.size == 5
        # Chain follows the draft's greedy continuations.
        node = tree.root
        c = ctx
        for _ in range(4):
            (child,) = node.children
            tok, _ = pair.draft_children(c, 1)[0]
            assert child.token_id == tok
            c = pair.extend(c, tok)
            node = child

    def test_beam_keeps_highest_path_probs(self, pair):
        # Every kept node at depth k has path_prob >= any dropped sibling
        # candidate: verify the kept frontier is the top-w of the expanded
        # candidates at each level for a small hand-checked case.
        ctx = pair.context_of([4])
        w = 2
        tree = build_candidate_tree(pair, 0, ctx, depth=2, width=w)
        level1 = [n for n in tree.nodes() if n.depth == 1]
        # The top-w children of the root by draft prob must be the level-1 set.
        top = pair.draft_children(ctx, w)
        assert {n.token_id for n in level1} == {t for t, _ in top}

    def test_ctx_hashes_consistent(self, pair):
        ctx = pair.context_of([5])
        tree = build_candidate_tree(pair, 0, ctx, depth=3, width=2)
        for node in tree.nodes(include_root=False):
            assert node.ctx_hash == pair.extend(node.parent.ctx_hash, node.token_id)

    def test_path_probs_decreasing(self, pair):
        tree = build_candidate_tree(pair, 0, pair.context_of([6]), depth=4, width=3)
        for node in tree.nodes(include_root=False):
            assert node.path_prob <= node.parent.path_prob


class TestBatch:
    def test_step_tokens_shape(self, pair):
        roots = [(0, pair.context_of([i])) for i in range(5)]
        res = speculate_batch(pair, roots, depth=3, width=2)
        assert res.step_tokens == (5, 10, 10)
        assert res.total_draft_tokens == 25
        assert len(res.trees) == 5

    def test_depth_zero_no_steps(self, pair):
        res = speculate_batch(pair, [(0, pair.context_of([1]))], depth=0, width=2)
        assert res.step_tokens == ()

    def test_centers_length_validation(self, pair):
        with pytest.raises(ValueError):
            speculate_batch(pair, [(0, 1)], depth=1, width=1, centers=[0.5, 0.5])

    def test_centers_affect_trees(self, pair):
        roots = [(0, pair.context_of([9]))]
        hi = speculate_batch(pair, roots, 2, 2, centers=[0.95]).trees[0]
        lo = speculate_batch(pair, roots, 2, 2, centers=[0.2]).trees[0]
        hi_top = max(n.path_prob for n in hi.nodes(include_root=False))
        lo_top = max(n.path_prob for n in lo.nodes(include_root=False))
        assert hi_top > lo_top


@needs_numpy
class TestArrayPathEquivalence:
    """The array ``speculate_batch`` builds ``build_candidate_tree``'s trees."""

    @staticmethod
    def _assert_matches_oracle(pair, roots, depth, width, centers):
        result = speculate_batch(pair, roots, depth, width, centers=centers)
        assert len(result.trees) == len(roots)
        for (tok, ctx), center, tree in zip(roots, centers, result.trees):
            oracle = build_candidate_tree(pair, tok, ctx, depth, width, center)
            assert _node_table(tree) == _node_table(oracle)

    def test_toy_preset_with_duplicate_repair(self):
        import numpy as np

        pair = ModelPair.from_preset("toy")
        roots = [(i, pair.context_of([17, i])) for i in range(24)]
        centers = [None] * len(roots)
        self._assert_matches_oracle(pair, roots, 5, 4, centers)
        # The vocabulary is small enough that some expanded node's first
        # draws collided, so the kernel's repair path actually ran.
        oracle_ctxs = [
            node.ctx_hash
            for tok, ctx in roots
            for node in build_candidate_tree(pair, tok, ctx, 4, 4).nodes()
        ]
        eff = np.full(len(oracle_ctxs), pair.target.predictability)
        _, _, dup = batchgen._generate_rows(
            pair.target, np.array(oracle_ctxs, dtype=np.uint64), eff
        )
        assert dup.any()

    def test_perfectly_aligned_draft(self, perfect_pair):
        roots = [(0, perfect_pair.context_of([3, i])) for i in range(10)]
        self._assert_matches_oracle(perfect_pair, roots, 4, 3, [None, 0.5] * 5)

    @pytest.mark.parametrize("width", [8, 11])
    def test_width_at_least_branching(self, pair, width):
        assert width >= pair.target.branching
        roots = [(0, pair.context_of([5, i])) for i in range(6)]
        self._assert_matches_oracle(pair, roots, 3, width, [None] * 6)

    def test_mixed_none_and_float_centers(self, pair):
        roots = [(0, pair.context_of([7, i])) for i in range(12)]
        centers = [None, 0.3, 0.62, 0.9] * 3
        self._assert_matches_oracle(pair, roots, 6, 5, centers)

    def test_single_request_and_depth_zero(self, pair):
        roots = [(2, pair.context_of([8]))]
        self._assert_matches_oracle(pair, roots, 5, 3, [0.8])
        self._assert_matches_oracle(pair, roots * 3, 0, 3, [None] * 3)

    def test_speculation_does_not_grow_memos(self):
        # Beam speculation reads draft rows straight from numpy; filling
        # the shared distribution memos with per-context objects is what
        # dominated the simulator's peak memory.
        pair = ModelPair.build(seed=11)
        draft_memo, target_memo = pair.draft._cache, pair.target._cache
        before = len(draft_memo), len(target_memo)
        roots = [(0, pair.context_of([13, i])) for i in range(32)]
        speculate_batch(pair, roots, 6, 4, centers=[None, 0.7] * 16)
        assert len(draft_memo) <= before[0]
        assert len(target_memo) <= before[1]


class TestTheorem41:
    def test_optimal_tree_covered_by_wide_beam(self, perfect_pair):
        """Theorem 4.1: T_opt (budget B) is a subtree of a depth-D(T_opt),
        width-B beam-search candidate tree.

        With a perfectly aligned draft, beam search scores nodes by the
        same f(v) Algorithm 1 uses, so the candidate tree must contain
        every optimal node.
        """
        pair = perfect_pair
        budget = 12
        ctx = pair.context_of([1, 2, 3])
        result = construct_optimal_trees(pair, [(0, ctx)], [0.0], budget)
        assert not isinstance(result, str)
        opt_tree = result.trees[0]
        d_opt = opt_tree.depth
        cand = build_candidate_tree(pair, 0, ctx, depth=max(d_opt, 1), width=budget)
        cand_paths = {tuple(n.path_tokens()) for n in cand.nodes(include_root=False)}
        for node in opt_tree.nodes(include_root=False):
            assert tuple(node.path_tokens()) in cand_paths

    def test_depth_bound(self, perfect_pair):
        # D_opt <= B - n (loose bound from the paper).
        pair = perfect_pair
        budget = 10
        ctx = pair.context_of([4, 5])
        result = construct_optimal_trees(pair, [(0, ctx)], [0.0], budget)
        assert result.trees[0].depth <= budget - 1
