"""Scene trees packed into int32 columns: the one tree codec.

A tree's *document* (the JSON-compatible dict each record file stores)
lists the nodes in pre-order with parent references by position.  A
:class:`PackedTree` holds the same fields in an int32 array, beside the
leaf positions and each shot's Sec. 4.2 route target, computed once when
the tree is packed.  A database keeps its trees packed and builds
:class:`SceneNode` objects only when :meth:`PackedTree.unpack` is asked.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Any

import numpy as np

from ..errors import SceneTreeError
from .nodes import SceneNode, SceneTree

__all__ = ["PackedTree", "scene_tree_from_dict", "scene_tree_to_dict"]

_FORMAT_VERSION = 1
_fields = itemgetter("node_id", "shot_index", "level", "representative_frame", "parent")
_INT32 = np.iinfo(np.int32)
#: A document's None while its fields are checked (then -1).
_NULL = _INT32.min
#: Serializes first unpacks, so concurrent readers share one tree.
_UNPACK_LOCK = threading.Lock()


def _refuse_if(bad: Any, message: str) -> None:
    if bad:
        raise SceneTreeError(message)


class PackedTree:
    """One scene tree as int32 columns (see the module docstring).

    Attributes:
        clip_name: the clip the tree was built from.
        columns: ``(n, 5)`` node fields in pre-order (``node_id``,
            ``shot_index``, ``level``, ``representative_frame``,
            ``parent`` position), -1 for None.
        leaves: node position of each shot's leaf, in shot order.
        targets: node position of each shot's route target, the
            highest-level node carrying the leaf's representative frame
            (ties to the first in pre-order); -1 when the leaf has none.
    """

    __slots__ = ("clip_name", "columns", "leaves", "targets", "_unpacked")

    def __init__(
        self,
        clip_name: str,
        columns: np.ndarray,
        leaves: np.ndarray,
        unpacked: tuple[SceneTree, list[SceneNode]] | None = None,
    ) -> None:
        self.clip_name = clip_name
        self.columns = columns
        self.leaves = leaves
        level, frame = columns[:, 2], columns[:, 3]
        # Per frame, the first node at its highest level (lexsort is stable).
        order = np.lexsort((-level.astype(np.int64), frame))
        first = np.ones(len(order), dtype=bool)
        first[1:] = frame[order[1:]] != frame[order[:-1]]
        best = order[first]
        leaf_frames = frame[leaves]
        found = best[np.searchsorted(frame[best], leaf_frames)]
        self.targets = np.where(leaf_frames >= 0, found, -1).astype(np.int32)
        self._unpacked = unpacked

    @classmethod
    def from_tree(cls, tree: SceneTree) -> "PackedTree":
        """Pack a built tree; ``tree`` stays its unpacked form."""
        order = tree.nodes()
        position = {id(node): k for k, node in enumerate(order)}
        rows = [
            (
                node.node_id,
                -1 if node.shot_index is None else node.shot_index,
                node.level,
                -1 if node.representative_frame is None else node.representative_frame,
                -1 if node.parent is None else position[id(node.parent)],
            )
            for node in order
        ]
        leaves = [position[id(leaf)] for leaf in tree.leaves]
        return cls(
            tree.clip_name,
            np.array(rows, dtype=np.int32),
            np.array(leaves, dtype=np.int32),
            (tree, order),
        )

    @classmethod
    def from_document(cls, payload: dict[str, Any]) -> "PackedTree":
        """Pack a tree document without building a node.

        Refuses, with :class:`SceneTreeError`, what
        :meth:`SceneTree.validate` refuses, checked over the columns: a
        bad parent position, other than one root, an unnamed node, a
        duplicate node id, a level inversion, a broken leaf list.  The
        fields must be int32 integers, a frame or shot index not
        negative, and the nodes in pre-order (the only order written).
        """
        version = payload.get("version")
        _refuse_if(
            version != _FORMAT_VERSION,
            f"unsupported scene-tree format version {version!r}",
        )
        flat = [
            _NULL if value is None else value
            for node in payload["nodes"]
            for value in _fields(node)
        ]
        fields, leaves = np.array(flat), np.array(payload["leaves"])
        _refuse_if(not flat, "expected exactly one root, found 0")
        not_int = fields.dtype.kind != "i" or (leaves.size and leaves.dtype.kind != "i")
        _refuse_if(not_int, "scene-tree fields must be integers or null")
        out_of_range = (fields < _NULL).any() or (fields > _INT32.max).any()
        _refuse_if(out_of_range, "scene-tree field out of int32 range")
        fields, leaves = fields.astype(np.int32).reshape(-1, 5), leaves.astype(np.int64)
        node_id, shot, level, frame, parent = fields.T
        n = len(fields)
        root = parent == _NULL
        child = np.flatnonzero(~root)
        up = parent[child]
        _refuse_if(((up < 0) | (up >= n) | (up == child)).any(), "bad parent position")
        _refuse_if(root.sum() != 1, f"expected exactly one root, found {root.sum()}")
        unnamed = (node_id == _NULL).any() or (shot < 0).any() or (level < 0).any()
        _refuse_if(unnamed, "unnamed node in finished tree")
        _refuse_if(((frame < 0) & (frame != _NULL)).any(), "negative frame")
        _refuse_if(len(set(node_id.tolist())) != n, "duplicate node id")
        _refuse_if((level[child] >= level[up]).any(), "level inversion")
        _refuse_if(((leaves < 0) | (leaves >= n)).any(), "leaf position out of range")
        inner = np.zeros(n, dtype=bool)
        inner[up] = True
        broken = (shot[leaves] != np.arange(len(leaves))).any() or inner[leaves].any()
        _refuse_if(broken, "leaf list broken")
        fields[fields == _NULL] = -1
        _refuse_if(not _in_preorder(parent.tolist()), "nodes not in pre-order")
        return cls(payload["clip_name"], fields, leaves.astype(np.int32))

    @property
    def n_shots(self) -> int:
        return len(self.leaves)

    @property
    def height(self) -> int:
        """The root's level."""
        return self.columns.item(0, 2)

    def document(self) -> dict[str, Any]:
        """The tree document, exactly :func:`scene_tree_to_dict`'s."""
        nodes = [
            {
                "node_id": node_id,
                "shot_index": shot,
                "level": level,
                "representative_frame": None if frame < 0 else frame,
                "parent": None if parent < 0 else parent,
            }
            for node_id, shot, level, frame, parent in self.columns.tolist()
        ]
        return {
            "version": _FORMAT_VERSION,
            "clip_name": self.clip_name,
            "nodes": nodes,
            "leaves": self.leaves.tolist(),
        }

    def target(self, shot_index: int) -> int:
        """A 0-based shot's target position, -1 for none or no such shot."""
        if 0 <= shot_index < len(self.targets):
            return self.targets.item(shot_index)
        return -1

    def route(self, position: int) -> tuple[str, int | None]:
        """Node ``position``'s ``SN_{m+1}^c`` label and representative frame."""
        _, shot, level, frame, _ = self.columns[position].tolist()
        return f"SN_{shot + 1}^{level}", None if frame < 0 else frame

    def node(self, position: int) -> SceneNode:
        """The unpacked node at ``position`` (see :meth:`unpack`)."""
        self.unpack()
        return self._unpacked[1][position]

    def unpack(self) -> SceneTree:
        """The tree as :class:`SceneNode` objects, built on the first
        call and kept, so every later call returns the same nodes."""
        if self._unpacked is None:
            with _UNPACK_LOCK:
                if self._unpacked is None:
                    rows = self.columns.tolist()
                    nodes = [
                        SceneNode(node_id, shot, level, representative_frame=frame)
                        for node_id, shot, level, frame, _ in rows
                    ]
                    for node, row in zip(nodes, rows):
                        if row[3] < 0:
                            node.representative_frame = None
                        if row[4] >= 0:
                            node.attach_to(nodes[row[4]])
                    leaves = [nodes[k] for k in self.leaves.tolist()]
                    tree = SceneTree(nodes[0], leaves, self.clip_name)
                    self._unpacked = (tree, nodes)
        return self._unpacked[0]


def _in_preorder(parent: list[int]) -> bool:
    """Whether the nodes come in pre-order from a root at position 0:
    each node's parent is on the path from the root to the node before."""
    path = [0]
    for k in range(1, len(parent)):
        while path and path[-1] != parent[k]:
            path.pop()
        if not path:
            return False
        path.append(k)
    return parent[0] == -1


def scene_tree_to_dict(tree: SceneTree) -> dict[str, Any]:
    """Serialize ``tree`` to its JSON-compatible document."""
    return PackedTree.from_tree(tree).document()


def scene_tree_from_dict(payload: dict[str, Any]) -> SceneTree:
    """Rebuild a :class:`SceneTree` from its document (see
    :meth:`PackedTree.from_document` for what is refused)."""
    return PackedTree.from_document(payload).unpack()
