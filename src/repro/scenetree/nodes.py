"""Scene-tree node and tree containers.

A scene node ``SN_m^c`` (paper notation) carries the shot it is derived
from (subscript ``m``) and its level in the tree (superscript ``c``).
Level-0 nodes correspond one-to-one with shots; internal nodes start
out *empty* and receive their name and representative frame during the
naming pass (Sec. 3.1 step 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import SceneTreeError

__all__ = ["SceneNode", "SceneTree"]


@dataclass(eq=False, slots=True)
class SceneNode:
    """One node of a scene tree.

    Attributes:
        node_id: unique id within the tree (creation order).
        shot_index: 0-based index of the shot the node is derived from
            (the ``m`` of ``SN_m^c``); None while the node is still an
            unnamed empty node.
        level: the node's level ``c`` (0 for shot nodes); -1 while the
            node is an unnamed empty node.
        children: child nodes, in temporal order.
        parent: parent node, None for the current root.
        representative_frame: clip frame index of the node's
            representative frame; None until assigned.
    """

    node_id: int
    shot_index: int | None = None
    level: int = -1
    children: list["SceneNode"] = field(default_factory=list)
    parent: "SceneNode | None" = None
    representative_frame: int | None = None

    # ------------------------------------------------------------------
    # structure predicates and navigation
    # ------------------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_named(self) -> bool:
        """True once the node carries its ``SN_m^c`` identity."""
        return self.shot_index is not None and self.level >= 0

    @property
    def label(self) -> str:
        """Paper-style name, e.g. ``"SN_7^1"``; ``"EN<id>"`` while empty."""
        if not self.is_named:
            return f"EN{self.node_id}"
        return f"SN_{self.shot_index + 1}^{self.level}"

    def ancestors(self) -> Iterator["SceneNode"]:
        """Yield proper ancestors from parent to root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def oldest_ancestor(self) -> "SceneNode":
        """Return the root of the subtree this node currently belongs to.

        The paper's "current oldest ancestor"; the node itself when it
        has no parent.
        """
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def attach_to(self, parent: "SceneNode") -> None:
        """Make ``parent`` this node's parent (appending as last child)."""
        if self.parent is not None:
            raise SceneTreeError(
                f"{self.label} already has parent {self.parent.label}"
            )
        if parent is self:
            raise SceneTreeError(f"cannot attach {self.label} to itself")
        self.parent = parent
        parent.children.append(self)

    def iter_subtree(self) -> Iterator["SceneNode"]:
        """Yield this node and all descendants, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def leaf_descendants(self) -> list["SceneNode"]:
        """Return the leaf nodes under this node, in temporal order."""
        return [n for n in self.iter_subtree() if n.is_leaf]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SceneNode {self.label} children={len(self.children)}>"


class SceneTree:
    """A completed scene tree over one clip's shots.

    Attributes:
        root: the tree's root node.
        leaves: level-0 nodes, indexed by shot (temporal) order.
        clip_name: the clip the tree was built from.
    """

    def __init__(self, root: SceneNode, leaves: list[SceneNode], clip_name: str) -> None:
        if root.parent is not None:
            raise SceneTreeError("root must not have a parent")
        self.root = root
        self.leaves = leaves
        self.clip_name = clip_name
        #: Representative frame -> largest node carrying it, built on
        #: first use.  Trees are finished before anything routes on
        #: them, so the map is never invalidated.
        self._largest: dict[int | None, SceneNode] | None = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def nodes(self) -> list[SceneNode]:
        """All nodes, depth-first pre-order from the root."""
        # An explicit stack: the recursive iter_subtree generator costs
        # O(depth) per node, and every tree a database packs is walked.
        order, stack = [], [self.root]
        while stack:
            order.append(stack.pop())
            stack.extend(reversed(order[-1].children))
        return order

    @property
    def n_shots(self) -> int:
        return len(self.leaves)

    @property
    def height(self) -> int:
        """The root's level (0 for a single-leaf degenerate tree)."""
        return self.root.level

    def level_nodes(self, level: int) -> list[SceneNode]:
        """Nodes whose named level equals ``level``, in temporal order."""
        return [n for n in self.nodes() if n.level == level]

    def node_for_shot(self, shot_index: int) -> SceneNode:
        """Return the leaf node of a 0-based shot index."""
        if not 0 <= shot_index < len(self.leaves):
            raise SceneTreeError(
                f"shot index {shot_index} out of range ({len(self.leaves)} shots)"
            )
        return self.leaves[shot_index]

    def find(self, label: str) -> SceneNode:
        """Look up a node by its paper-style label (e.g. ``"SN_1^2"``)."""
        for node in self.nodes():
            if node.label == label:
                return node
        raise SceneTreeError(f"no node labeled {label!r}")

    def largest_scene_with_representative(self, frame_index: int) -> SceneNode | None:
        """The highest-level node whose representative frame is ``frame_index``.

        Sec. 4.2: "the system can return the largest scenes that share
        the same representative frame with one of the matching shots".
        Ties on level go to the first node in :meth:`nodes` order.  The
        first call walks the tree once to build the frame -> node map
        that every call looks up: queries route each match.
        """
        largest = self._largest
        if largest is None:
            largest = {}
            for node in self.nodes():
                best = largest.get(node.representative_frame)
                if best is None or node.level > best.level:
                    largest[node.representative_frame] = node
            # Bound once complete: a concurrent first call builds an
            # equal map and never sees a partial one.
            self._largest = largest
        return largest.get(frame_index)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`SceneTreeError`.

        Invariants: parent/child links are mutual, every non-root node
        has a parent, every node is named, leaf shot indices are exactly
        ``0..n-1`` in order, and levels strictly increase from child to
        parent.
        """
        seen_ids: set[int] = set()
        for node in self.nodes():
            if node.node_id in seen_ids:
                raise SceneTreeError(f"duplicate node id {node.node_id}")
            seen_ids.add(node.node_id)
            if not node.is_named:
                raise SceneTreeError(f"unnamed node {node.label} in finished tree")
            for child in node.children:
                if child.parent is not node:
                    raise SceneTreeError(
                        f"broken parent link: {child.label} under {node.label}"
                    )
                if child.level >= node.level:
                    raise SceneTreeError(
                        f"level inversion: {child.label} under {node.label}"
                    )
        for expected, leaf in enumerate(self.leaves):
            if leaf.shot_index != expected or not leaf.is_leaf:
                raise SceneTreeError(f"leaf list broken at position {expected}")
            if leaf.node_id not in seen_ids:
                raise SceneTreeError(f"leaf {leaf.label} not reachable from root")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SceneTree {self.clip_name!r} shots={self.n_shots} "
            f"height={self.height}>"
        )
