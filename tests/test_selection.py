"""Tests for the SLO-customized and throughput-optimized selection phases."""

from __future__ import annotations

import pytest

from repro.core.selection import select_tokens
from repro.core.speculation import speculate_batch
from repro.core.tree import CandidateForest, TokenTree
from repro.model import batchgen

needs_numpy = pytest.mark.skipif(not batchgen.AVAILABLE, reason="numpy unavailable; no forest path")


def build_manual_tree(spec: dict) -> TokenTree:
    """Tree from {token: (prob, {children})} nested dicts."""
    tree = TokenTree(0, 1000)

    def add(parent, sub: dict, ctx: int):
        for tok, (prob, children) in sub.items():
            node = tree.add_child(parent, tok, ctx * 31 + tok, prob)
            add(node, children, ctx * 31 + tok)

    add(tree.root, spec, 1000)
    return tree


@pytest.fixture
def trees(pair):
    roots = [(0, pair.context_of([i, i])) for i in range(4)]
    return speculate_batch(pair, roots, depth=4, width=3).trees


class TestBudget:
    def test_budget_never_exceeded(self, trees):
        res = select_tokens(trees, [2.0, 2.0, 2.0, 2.0], budget=10)
        assert res.budget_used <= 10
        total_selected = sum(t.num_selected() for t in trees)
        assert res.budget_used == len(trees) + total_selected

    def test_roots_must_fit(self, trees):
        with pytest.raises(ValueError):
            select_tokens(trees, [0.0] * 4, budget=3)

    def test_budget_fully_spent_when_candidates_remain(self, trees):
        res = select_tokens(trees, [0.0] * 4, budget=12)
        assert res.budget_remaining == 0

    def test_budget_underspent_when_candidates_exhausted(self, trees):
        # Candidate trees have 4*12=48 non-root nodes total; budget 100
        # cannot be filled.
        res = select_tokens(trees, [0.0] * 4, budget=100)
        assert res.budget_used == 4 + 48
        assert res.budget_remaining == 100 - 52

    def test_requirements_length_checked(self, trees):
        with pytest.raises(ValueError):
            select_tokens(trees, [1.0], budget=10)


class TestSLOPhase:
    def test_satisfied_requests_marked(self, trees):
        res = select_tokens(trees, [1.2] * 4, budget=30)
        assert all(s.slo_satisfied for s in res.selections)
        for s in res.selections:
            assert s.expected_accepted >= min(s.requirement, 1.0)

    def test_zero_requirement_needs_no_slo_tokens(self, trees):
        res = select_tokens(trees, [0.0] * 4, budget=20)
        assert all(s.slo_tokens == 0 for s in res.selections)
        assert all(s.slo_satisfied for s in res.selections)

    def test_n_max_cap(self, trees):
        res = select_tokens(trees, [100.0] * 4, budget=40, n_max=2)
        assert all(s.slo_tokens <= 2 for s in res.selections)

    def test_descending_requirement_priority(self, pair):
        # With a budget only large enough for one request's needs, the
        # request with the larger A(r) gets the SLO tokens.
        roots = [(0, pair.context_of([7])), (0, pair.context_of([8]))]
        trees = speculate_batch(pair, roots, depth=3, width=2).trees
        res = select_tokens(trees, [1.2, 3.0], budget=2 + 3, n_max=8)
        hungry = res.selections[1]
        modest = res.selections[0]
        assert hungry.slo_tokens >= modest.slo_tokens

    def test_requirement_capped_at_depth_plus_one(self, trees):
        res = select_tokens(trees, [100.0] * 4, budget=60, depth=4)
        assert all(s.capped_requirement == 5.0 for s in res.selections)


class TestThroughputPhase:
    def test_greedy_invariant_across_trees(self, pair):
        # Global-greedy invariant: every selected node's path probability
        # is >= every *selectable-but-unselected* node's (a node is
        # selectable when its parent is selected or the root).
        roots = [(0, pair.context_of([1])), (0, pair.context_of([2]))]
        trees = speculate_batch(
            pair, roots, depth=3, width=3, centers=[0.95, 0.15]
        ).trees
        select_tokens(trees, [0.0, 0.0], budget=2 + 6)
        selected = [
            n for t in trees for n in t.nodes(include_root=False) if n.selected
        ]
        frontier_unselected = [
            n
            for t in trees
            for n in t.nodes(include_root=False)
            if not n.selected and (n.parent.is_root or n.parent.selected)
        ]
        assert len(selected) == 6
        assert min(n.path_prob for n in selected) >= max(
            n.path_prob for n in frontier_unselected
        )

    def test_global_greedy_selects_max_prob_order(self):
        # Manual trees with known probabilities: the selected set must be
        # the top-k path probabilities among *selectable* (frontier) nodes.
        t1 = build_manual_tree({1: (0.9, {2: (0.8, {})}), 3: (0.2, {})})
        t2 = build_manual_tree({1: (0.6, {2: (0.5, {})}), 3: (0.3, {})})
        res = select_tokens([t1, t2], [0.0, 0.0], budget=2 + 3)
        sel1 = {n.token_id for n in t1.nodes(include_root=False) if n.selected}
        sel2 = {n.token_id for n in t2.nodes(include_root=False) if n.selected}
        # Top-3 path probs: 0.9, 0.72 (=0.9*0.8), 0.6.
        assert sel1 == {1, 2}
        assert sel2 == {1}


class TestValidity:
    def test_selection_connected(self, trees):
        select_tokens(trees, [2.0] * 4, budget=20)
        assert all(t.is_selection_connected() for t in trees)

    def test_extractable(self, trees):
        select_tokens(trees, [1.5] * 4, budget=16)
        for t in trees:
            extracted = t.extract_selected()
            assert extracted.num_speculated == t.num_selected()

    def test_reselection_resets(self, trees):
        select_tokens(trees, [3.0] * 4, budget=30)
        first = [t.num_selected() for t in trees]
        res = select_tokens(trees, [0.0] * 4, budget=4)
        assert all(t.num_selected() == 0 for t in trees)
        assert res.budget_used == 4

    def test_expected_accepted_consistent(self, trees):
        res = select_tokens(trees, [2.0] * 4, budget=24)
        for sel, tree in zip(res.selections, trees):
            assert sel.expected_accepted == pytest.approx(
                1.0 + tree.selected_path_prob_sum()
            )

    def test_candidates_scanned_counted(self, trees):
        res = select_tokens(trees, [2.0] * 4, budget=24)
        assert res.candidates_scanned == sum(t.num_selected() for t in trees)

    def test_candidates_scanned_counts_empty_pop_on_exhaustion(self):
        # A tree that runs out while its SLO loop still wants tokens costs
        # one extra, empty frontier pop.
        tree = build_manual_tree({1: (0.5, {})})
        res = select_tokens([tree], [100.0], budget=10)
        assert res.selections[0].slo_tokens == 1
        assert res.candidates_scanned == 2


def qpxyz_tree() -> TokenTree:
    """Root children Q=1.0, P=0.25; X=Q*0.5, Y=P*1.0; Z=X*0.5 — in that order.

    Y and Z tie with P at 0.25.  The heap pops P (exposed at the start)
    before Z (exposed when X pops) before Y (exposed when P pops), but
    creation order would put Y before Z.
    """
    tree = TokenTree(0, 1000)
    q = tree.add_child(tree.root, 1, 11, 1.0)
    p = tree.add_child(tree.root, 2, 12, 0.25)
    x = tree.add_child(q, 3, 13, 0.5)
    tree.add_child(p, 4, 14, 1.0)
    tree.add_child(x, 5, 15, 0.5)
    return tree


class TestExposureOrderTies:
    """Equal path probabilities pop in exposure order, not creation order."""

    def test_oracle_selects_q_x_p_z(self):
        tree = qpxyz_tree()
        select_tokens([tree], [0.0], budget=1 + 4)
        assert {n.token_id for n in tree.nodes(include_root=False) if n.selected} == {1, 3, 2, 5}

    @needs_numpy
    def test_forest_selects_q_x_p_z(self):
        forest = CandidateForest.from_trees([qpxyz_tree()])
        res = select_tokens(forest, [0.0], budget=1 + 4)
        draft = res.selections[0].tree
        assert [n.token_id for n in draft.nodes(include_root=False)] == [1, 2, 3, 5]
        assert all(n.selected for n in draft.nodes(include_root=False))

    @needs_numpy
    def test_equal_trees_take_turns_in_phase_two(self):
        # Three equal heads per tree and three budget tokens: the global
        # heap alternates trees (2 + 1); a sort by tree would give 3 + 0.
        def flat():
            return build_manual_tree({1: (0.3, {}), 2: (0.3, {}), 3: (0.3, {})})

        oracle = select_tokens([flat(), flat()], [0.0, 0.0], budget=2 + 3)
        forest = select_tokens(CandidateForest.from_trees([flat(), flat()]), [0.0, 0.0], budget=2 + 3)
        for res in (oracle, forest):
            assert [s.throughput_tokens for s in res.selections] == [2, 1]
            assert res.candidates_scanned == 3

    @needs_numpy
    def test_forest_counts_empty_pop_on_exhaustion(self):
        forest = CandidateForest.from_trees([build_manual_tree({1: (0.5, {})})])
        res = select_tokens(forest, [100.0], budget=10)
        assert res.selections[0].slo_tokens == 1
        assert res.candidates_scanned == 2
