"""Property-based tests (hypothesis) on core invariants.

Covers: hashing/uniform ranges, token-tree construction, selection
(budget/connectivity/greedy dominance), the array (forest) pipeline
against the scalar oracle, Algorithm 1 consistency, the roofline's
monotonicity, and the KV cache via a stateful machine.
"""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro._rng import hash_seed, mix, uniform, uniforms
from repro.core.pipeline import BatchItem, run_iteration
from repro.core.selection import RequestSelection, select_tokens
from repro.core.speculation import build_candidate_tree, speculate_batch
from repro.core.tree import CandidateForest, TokenTree
from repro.hardware.roofline import RooflineModel
from repro.hardware.spec import DEPLOYMENT_PRESETS
from repro.model import batchgen
from repro.model.pair import ModelPair
from repro.serving.kv_cache import KVCacheManager, OutOfKVCache

_PAIR = ModelPair.build(vocab_size=1000, seed=99, alignment=0.85, predictability=0.7)
#: A perfectly aligned draft at extreme centers clamps top-1 probabilities,
#: so different paths share path probabilities (ties within a tree).
_PAIRS = {
    (vocab, alignment): ModelPair.build(vocab_size=vocab, seed=99, alignment=alignment)
    for vocab in (50, 1000)
    for alignment in (0.85, 1.0)
}
_ROOFLINE = RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"])


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 2**32))
    def test_uniform_in_unit_interval(self, h, salt):
        assert 0.0 <= uniform(h, salt) < 1.0

    @given(st.integers(0, 2**64 - 1), st.integers(0, 1000), st.integers(1, 64))
    def test_uniforms_count_and_range(self, h, salt, n):
        out = uniforms(h, salt, n)
        assert len(out) == n
        assert all(0.0 <= u < 1.0 for u in out)

    @given(st.lists(st.integers(0, 2**32), min_size=1, max_size=8))
    def test_hash_seed_deterministic(self, parts):
        assert hash_seed(*parts) == hash_seed(*parts)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32), st.integers(0, 2**32))
    def test_mix_distinguishes_tokens(self, h, a, b):
        if a != b:
            assert mix(h, a) != mix(h, b)


class TestTreeProperties:
    @given(
        st.integers(0, 50),  # context token
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_beam_tree_shape_invariants(self, tok, depth, width):
        ctx = _PAIR.context_of([tok, tok + 1])
        tree = build_candidate_tree(_PAIR, 0, ctx, depth, width)
        assert tree.size <= 1 + depth * width
        assert tree.depth <= depth
        for node in tree.nodes(include_root=False):
            assert 0.0 <= node.path_prob <= node.parent.path_prob
            assert node.ctx_hash == _PAIR.extend(node.parent.ctx_hash, node.token_id)

    @given(st.lists(st.floats(0.01, 0.98), min_size=1, max_size=12))
    def test_chain_path_prob_is_product(self, probs):
        tree = TokenTree(0, 1)
        node = tree.root
        expected = 1.0
        for i, p in enumerate(probs):
            node = tree.add_child(node, i, i + 2, p)
            expected *= p
        assert abs(node.path_prob - expected) < 1e-9


class TestSelectionProperties:
    @given(
        st.integers(1, 5),  # number of requests
        st.integers(0, 4),  # depth
        st.integers(1, 3),  # width
        st.integers(0, 30),  # extra budget beyond roots
        st.lists(st.floats(-2.0, 8.0), min_size=5, max_size=5),
        st.integers(0, 6),  # n_max
    )
    @settings(max_examples=60, deadline=None)
    def test_selection_invariants(self, n, depth, width, extra, reqs, n_max):
        roots = [(0, _PAIR.context_of([i, 7])) for i in range(n)]
        trees = speculate_batch(_PAIR, roots, depth, width).trees
        budget = n + extra
        res = select_tokens(trees, reqs[:n], budget=budget, n_max=n_max, depth=depth)
        # Budget: roots + selected nodes never exceed B.
        total_selected = sum(t.num_selected() for t in trees)
        assert res.budget_used == n + total_selected <= budget
        # Connectivity and extractability.
        for t in trees:
            assert t.is_selection_connected()
            t.extract_selected()
        # n_max only bounds the SLO phase.
        for s in res.selections:
            assert s.slo_tokens <= n_max
        # Expected accepted consistent with marked trees.
        for s, t in zip(res.selections, trees):
            assert abs(s.expected_accepted - 1.0 - t.selected_path_prob_sum()) < 1e-9

    @given(st.integers(1, 4), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_greedy_dominance(self, n, extra):
        # Every selected node's path_prob >= any unselected frontier node's.
        roots = [(0, _PAIR.context_of([i, 3])) for i in range(n)]
        trees = speculate_batch(_PAIR, roots, 3, 2).trees
        select_tokens(trees, [0.0] * n, budget=n + extra)
        selected = [
            x for t in trees for x in t.nodes(include_root=False) if x.selected
        ]
        frontier = [
            x
            for t in trees
            for x in t.nodes(include_root=False)
            if not x.selected and (x.parent.is_root or x.parent.selected)
        ]
        if selected and frontier:
            assert min(x.path_prob for x in selected) >= max(
                x.path_prob for x in frontier
            ) - 1e-12


def _tree_rows(tree: TokenTree) -> list[tuple]:
    """Nodes as (token, ctx, draft_prob, path_prob, depth, parent index) rows."""
    index = {id(node): j for j, node in enumerate(tree.nodes())}
    return [
        (x.token_id, x.ctx_hash, x.draft_prob, x.path_prob, x.depth, index.get(id(x.parent), -1))
        for x in tree.nodes()
    ]


_REQUIREMENTS = st.one_of(st.sampled_from([-math.inf, math.inf, -1.5, 0.0]), st.floats(-2.0, 8.0))


def _assert_same_selection(a, b) -> None:
    """Forest selection ``a`` equals oracle selection ``b`` field for field."""
    assert (a.budget, a.budget_used, a.candidates_scanned) == (
        b.budget,
        b.budget_used,
        b.candidates_scanned,
    )
    for x, y in zip(a.selections, b.selections, strict=True):
        for field in dataclasses.fields(RequestSelection):
            if field.name != "tree":
                assert getattr(x, field.name) == getattr(y, field.name), field.name
        assert _tree_rows(x.tree) == _tree_rows(y.tree.extract_selected())
        assert all(n.selected for n in x.tree.nodes(include_root=False))


@pytest.mark.skipif(not batchgen.AVAILABLE, reason="numpy unavailable; no forest path")
class TestForestEqualsOracle:
    """The array pipeline (forest selection) reproduces the scalar oracle."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_selection_matches_oracle_on_tied_trees(self, data):
        # Random shapes in random creation order with draft probabilities
        # from {0, 1/4, 1/2, 1}: path probabilities tie within and across
        # trees, so both exposure-order rules decide the selection.
        n = data.draw(st.integers(1, 4))
        size = data.draw(st.integers(0, 7))
        trees = []
        for _ in range(n):
            tree = TokenTree(0, 1)
            nodes = [tree.root]
            for j in range(size):
                parent = nodes[data.draw(st.integers(0, j))]
                prob = data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
                nodes.append(tree.add_child(parent, j + 1, 100 + j, prob))
            trees.append(tree)
        reqs = data.draw(st.lists(_REQUIREMENTS, min_size=n, max_size=n))
        budget = n + data.draw(st.integers(0, n * size + 2))
        n_max = data.draw(st.integers(0, 6))
        depth = data.draw(st.one_of(st.none(), st.integers(0, 4)))
        fast = select_tokens(CandidateForest.from_trees(trees), reqs, budget, n_max, depth)
        _assert_same_selection(fast, select_tokens(trees, reqs, budget, n_max, depth))

    @given(
        st.sampled_from(sorted(_PAIRS)),
        st.lists(
            st.tuples(
                st.integers(0, 2),  # root token: duplicates likely
                st.sampled_from([None, 0.02, 0.5, 0.99]),  # center
                _REQUIREMENTS,
                st.one_of(st.none(), st.integers(1, 4)),  # max_tokens
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 4),  # depth
        st.integers(1, 4),  # width
        st.integers(0, 40),  # extra budget beyond roots (0: budget == n)
        st.integers(0, 6),  # n_max
    )
    @settings(max_examples=200, deadline=None)
    def test_run_iteration_matches_oracle(self, key, requests, depth, width, extra, n_max):
        # Root tokens come from a pool of three, so duplicate roots give
        # equal trees and cross-tree ties in phase 2; the aligned pairs at
        # extreme centers give ties within a tree.
        pair = _PAIRS[key]
        items = [
            BatchItem(0, pair.context_of([tok, 7]), req, center, max_tokens)
            for tok, center, req, max_tokens in requests
        ]
        budget = len(items) + extra
        fast = run_iteration(pair, items, depth, width, budget, n_max=n_max)
        with mock.patch.object(batchgen, "AVAILABLE", False):
            oracle = run_iteration(pair, items, depth, width, budget, n_max=n_max)
        assert isinstance(fast.speculation.candidates, CandidateForest)
        assert isinstance(oracle.speculation.candidates, list)

        assert fast.outcomes == oracle.outcomes
        assert fast.verify_tokens == oracle.verify_tokens
        _assert_same_selection(fast.selection, oracle.selection)


class TestRooflineProperties:
    @given(st.integers(0, 4096), st.integers(0, 4096))
    @settings(max_examples=60, deadline=None)
    def test_latency_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert _ROOFLINE.forward_latency(lo) <= _ROOFLINE.forward_latency(hi) + 1e-15

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_context_only_adds(self, ctx):
        assert _ROOFLINE.forward_latency(8, ctx) >= _ROOFLINE.forward_latency(8, 0)


class KVCacheMachine(RuleBasedStateMachine):
    """Stateful test: the KV manager never over-allocates or loses blocks."""

    def __init__(self):
        super().__init__()
        self.kv = KVCacheManager(capacity_tokens=64 * 16, block_size=16)
        self.tokens: dict[int, int] = {}

    @rule(rid=st.integers(0, 9), tokens=st.integers(0, 400))
    def ensure(self, rid, tokens):
        try:
            self.kv.ensure(rid, tokens)
            self.tokens[rid] = max(self.tokens.get(rid, 0), tokens)
        except OutOfKVCache:
            pass  # state must be unchanged; checked by invariants

    @precondition(lambda self: bool(self.tokens))
    @rule(data=st.data())
    def free(self, data):
        rid = data.draw(st.sampled_from(sorted(self.tokens)))
        freed = self.kv.free(rid)
        assert freed == self.kv.blocks_for(self.tokens.pop(rid))

    @invariant()
    def used_matches_model(self):
        expected = sum(self.kv.blocks_for(t) for t in self.tokens.values())
        assert self.kv.used_blocks == expected

    @invariant()
    def never_exceeds_capacity(self):
        assert 0 <= self.kv.used_blocks <= self.kv.total_blocks


TestKVCacheStateful = KVCacheMachine.TestCase
