"""Draft token trees.

The central data structure of the paper: a rooted tree whose root is the
last committed token of a request and whose nodes are speculated
continuations.  Each node carries

- ``token_id``: the speculated token;
- ``ctx_hash``: the model-context hash of the sequence *including* this
  node's token (so verification can query the next-token distribution);
- ``draft_prob``: the draft model's conditional probability of this token
  given its parent's path (the surrogate for conditional acceptance);
- ``path_prob``: the product of ``draft_prob`` along the root path — the
  approximation of f(v) from Equation 7.

Trees are built by speculation (:mod:`repro.core.speculation`), pruned by
selection (:mod:`repro.core.selection`) and walked by verification
(:func:`repro.model.acceptance.verify_tree`).  ``extract_selected``
materializes the selected subtree as a standalone tree for verification.
"""

from __future__ import annotations

from typing import Callable, Iterator


class TreeNode:
    """One node of a draft token tree."""

    __slots__ = (
        "token_id",
        "ctx_hash",
        "draft_prob",
        "path_prob",
        "depth",
        "parent",
        "children",
        "selected",
    )

    def __init__(
        self,
        token_id: int,
        ctx_hash: int,
        draft_prob: float,
        path_prob: float,
        depth: int,
        parent: "TreeNode | None",
    ) -> None:
        self.token_id = token_id
        self.ctx_hash = ctx_hash
        self.draft_prob = draft_prob
        self.path_prob = path_prob
        self.depth = depth
        self.parent = parent
        self.children: list[TreeNode] = []
        self.selected = False

    @property
    def is_root(self) -> bool:
        """Whether this node is the tree root (the last committed token)."""
        return self.parent is None

    def path_tokens(self) -> list[int]:
        """Tokens from (excluding) the root down to this node."""
        toks: list[int] = []
        node: TreeNode | None = self
        while node is not None and not node.is_root:
            toks.append(node.token_id)
            node = node.parent
        toks.reverse()
        return toks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TreeNode(token={self.token_id}, depth={self.depth}, "
            f"path_prob={self.path_prob:.4f}, sel={self.selected})"
        )


class TokenTree:
    """A draft token tree rooted at the last committed token.

    Parameters
    ----------
    root_token:
        Token id of the root (purely informational; verification starts
        *after* the root).
    root_ctx:
        Context hash of the sequence up to and including the root token.
    """

    def __init__(self, root_token: int, root_ctx: int) -> None:
        self.root = TreeNode(root_token, root_ctx, 1.0, 1.0, 0, None)
        self._nodes: list[TreeNode] = [self.root]

    # -- construction ----------------------------------------------------
    def add_child(self, parent: TreeNode, token_id: int, ctx_hash: int, draft_prob: float) -> TreeNode:
        """Append a speculated token under ``parent``."""
        if not 0.0 <= draft_prob <= 1.0:
            raise ValueError(f"draft_prob out of range: {draft_prob}")
        node = TreeNode(
            token_id,
            ctx_hash,
            draft_prob,
            parent.path_prob * draft_prob,
            parent.depth + 1,
            parent,
        )
        parent.children.append(node)
        self._nodes.append(node)
        return node

    def add_level(
        self,
        parents: list[TreeNode],
        token_ids: list[int],
        ctx_hashes: list[int],
        draft_probs: list[float],
        path_probs: list[float],
    ) -> list[TreeNode]:
        """Append one beam level in bulk: child ``j`` goes under ``parents[j]``.

        The array speculation path's :meth:`add_child`: the caller has
        already checked every ``draft_probs`` entry is in [0, 1] and
        computed ``path_probs[j] = parents[j].path_prob * draft_probs[j]``
        for the whole batch at once.
        """
        level: list[TreeNode] = []
        for parent, token_id, ctx_hash, draft_prob, path_prob in zip(
            parents, token_ids, ctx_hashes, draft_probs, path_probs
        ):
            node = TreeNode(token_id, ctx_hash, draft_prob, path_prob, parent.depth + 1, parent)
            parent.children.append(node)
            level.append(node)
        self._nodes.extend(level)
        return level

    # -- inspection -------------------------------------------------------
    def nodes(self, include_root: bool = True) -> Iterator[TreeNode]:
        """All nodes in insertion order."""
        if include_root:
            return iter(self._nodes)
        return iter(self._nodes[1:])

    @property
    def size(self) -> int:
        """Number of nodes including the root."""
        return len(self._nodes)

    @property
    def num_speculated(self) -> int:
        """Number of speculated (non-root) tokens."""
        return len(self._nodes) - 1

    @property
    def depth(self) -> int:
        """Maximum node depth (root = 0)."""
        return max(n.depth for n in self._nodes)

    def num_selected(self, include_root: bool = False) -> int:
        """Number of nodes currently marked selected."""
        count = sum(1 for n in self._nodes[1:] if n.selected)
        return count + 1 if include_root else count

    def selected_path_prob_sum(self) -> float:
        """Sum of approximated path probabilities over selected nodes.

        This is the left-hand side of the relaxed TPOT constraint
        (Equation 5), excluding the root's guaranteed 1.
        """
        return sum(n.path_prob for n in self._nodes[1:] if n.selected)

    def clear_selection(self) -> None:
        """Unselect every node."""
        for n in self._nodes[1:]:
            n.selected = False

    def is_selection_connected(self) -> bool:
        """Whether every selected node's parent is selected (or the root).

        A valid draft tree for verification must be connected (Appendix B).
        """
        for n in self._nodes[1:]:
            if n.selected and n.parent is not None and not n.parent.is_root and not n.parent.selected:
                return False
        return True

    # -- extraction --------------------------------------------------------
    def extract_selected(self) -> "TokenTree":
        """Copy the selected subtree (plus root) into a standalone tree.

        Raises ``ValueError`` if the selection is not connected.
        """
        if not self.is_selection_connected():
            raise ValueError("selection is not connected; cannot extract a valid tree")
        out = TokenTree(self.root.token_id, self.root.ctx_hash)
        mapping: dict[int, TreeNode] = {id(self.root): out.root}
        # insertion order guarantees parents precede children
        for node in self._nodes[1:]:
            if not node.selected:
                continue
            parent_copy = mapping[id(node.parent)]
            mapping[id(node)] = out.add_child(
                parent_copy, node.token_id, node.ctx_hash, node.draft_prob
            )
        return out

    def map_nodes(self, fn: Callable[[TreeNode], None]) -> None:
        """Apply ``fn`` to every node (root included)."""
        for n in self._nodes:
            fn(n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenTree(size={self.size}, depth={self.depth}, selected={self.num_selected()})"
