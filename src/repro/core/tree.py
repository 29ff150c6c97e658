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

:class:`CandidateForest` is the same data for a whole batch as arrays,
one row per request.  The array speculation path returns one, selection
runs on its arrays, and node objects are then built only for the
selected subtree of each row (:meth:`CandidateForest.build`); unselected
candidates never become :class:`TreeNode` objects.
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


class CandidateForest:
    """The candidate trees of a whole batch as ``(n, N + 1)`` arrays.

    Row ``i`` is request ``i``'s tree.  Column 0 holds every root and
    columns 1..N the speculated nodes in creation order, so a node's
    parent column is always smaller than its own (the root's is -1).
    Fields: ``parent`` (column index), ``token`` and ``ctx`` (uint64),
    ``draft_prob`` and ``path_prob`` (float64); ``depths`` holds each
    tree's :attr:`TokenTree.depth`.
    """

    __slots__ = ("parent", "token", "ctx", "draft_prob", "path_prob", "depths")

    def __init__(self, parent, token, ctx, draft_prob, path_prob, depths: list[int]) -> None:
        self.parent = parent
        self.token = token
        self.ctx = ctx
        self.draft_prob = draft_prob
        self.path_prob = path_prob
        self.depths = depths

    @classmethod
    def from_trees(cls, trees: list[TokenTree]) -> "CandidateForest":
        """Pack equally sized trees into a forest (needs numpy)."""
        import numpy as np

        if len({t.size for t in trees}) > 1:
            raise ValueError("trees of a forest must have the same number of nodes")
        parents = []
        for tree in trees:
            col = {id(node): j for j, node in enumerate(tree.nodes())}
            parents.append([col.get(id(node.parent), -1) for node in tree.nodes()])

        def field(name: str, dtype):
            return np.array(
                [[getattr(node, name) for node in t.nodes()] for t in trees], dtype=dtype
            ).reshape(len(trees), -1)

        return cls(
            np.array(parents, dtype=np.intp).reshape(len(trees), -1),
            field("token_id", np.uint64),
            field("ctx_hash", np.uint64),
            field("draft_prob", np.float64),
            field("path_prob", np.float64),
            [t.depth for t in trees],
        )

    @property
    def num_trees(self) -> int:
        """Number of requests (rows)."""
        return self.parent.shape[0]

    @property
    def depth(self) -> int:
        """Deepest node's depth over the whole forest."""
        return max(self.depths, default=0)

    @property
    def num_nodes(self) -> int:
        """Speculated (non-root) nodes per tree, N."""
        return self.parent.shape[1] - 1

    def build(self, keep=None, selected: bool = False) -> list[TokenTree]:
        """One :class:`TokenTree` per row, holding its root and the kept nodes.

        ``keep`` is an ``(n, N)`` boolean mask over columns 1..N (all of
        them when omitted); a kept node's parent must be kept or be the
        root.  Nodes are created in creation order, so parents come
        first, and carry ``selected``.
        """
        import numpy as np

        n, width = self.parent.shape
        if keep is None:
            keep = np.ones((n, width - 1), dtype=bool)
        # Every node's slot in ``made``: the roots, then kept nodes row-major.
        slot = np.empty((n, width), dtype=np.intp)
        slot[:, 0] = np.arange(n)
        slot[:, 1:] = keep.cumsum().reshape(n, width - 1) + (n - 1)
        rows, cols = keep.nonzero()
        cols += 1
        trees = [
            TokenTree(tok, ctx)
            for tok, ctx in zip(self.token[:, 0].tolist(), self.ctx[:, 0].tolist())
        ]
        made = [tree.root for tree in trees]
        append = made.append
        for p, token_id, ctx_hash, draft_prob, path_prob in zip(
            slot[rows, self.parent[rows, cols]].tolist(),
            self.token[rows, cols].tolist(),
            self.ctx[rows, cols].tolist(),
            self.draft_prob[rows, cols].tolist(),
            self.path_prob[rows, cols].tolist(),
        ):
            parent = made[p]
            node = TreeNode(token_id, ctx_hash, draft_prob, path_prob, parent.depth + 1, parent)
            parent.children.append(node)
            append(node)
        if selected:
            for node in made[n:]:
                node.selected = True
        end = n
        for tree, count in zip(trees, keep.sum(axis=1).tolist()):
            tree._nodes.extend(made[end : end + count])
            end += count
        return trees
