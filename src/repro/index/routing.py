"""Routing query matches to scene-tree browsing entry points.

Sec. 4.2 (and the concluding remarks) explain that the similarity
model is "not used to directly retrieve the video scenes/shots.
Rather, it is used to determine the relevant scene nodes" — the
largest scenes sharing a representative frame with a matching shot.
The user then browses downward from those nodes.

That node is fixed per shot, so a packed tree
(:class:`~repro.scenetree.serialize.PackedTree`) computes each shot's
target once, and a query's answer only looks it up
(:meth:`PackedTree.target`) in the tree its database read with the
match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..scenetree.nodes import SceneNode, SceneTree
from .table import IndexEntry

__all__ = ["SceneRoute", "route_to_scene_nodes", "suggestion"]


def suggestion(shot_id: str, label: str | None) -> str:
    """The hand-off text, e.g. ``"#12@Wag the Dog -> SN_1^2"``."""
    return f"{shot_id} -> {label if label is not None else '<no scene tree>'}"


@dataclass(frozen=True, slots=True)
class SceneRoute:
    """A suggested browsing entry point for one matching shot.

    Attributes:
        entry: the matching index entry.
        node: the largest scene node sharing the shot's representative
            frame (None when the clip has no scene tree registered or
            the shot's leaf carries no representative).
    """

    entry: IndexEntry
    node: SceneNode | None

    @property
    def suggestion(self) -> str:
        """Human-readable hand-off, e.g. ``"#12@Wag the Dog -> SN_1^2"``."""
        return suggestion(
            self.entry.shot_id, self.node.label if self.node is not None else None
        )


def route_to_scene_nodes(
    matches: list[IndexEntry], trees: Mapping[str, SceneTree]
) -> list[SceneRoute]:
    """Map query matches to the largest scene nodes to start browsing.

    Args:
        matches: index entries returned by a similarity search.
        trees: scene trees keyed by ``video_id``.

    For each match, the shot's leaf node provides the representative
    frame; the returned node is the *highest-level* node in that clip's
    tree carrying the same representative frame (Sec. 4.2: "the largest
    scenes that share the same representative frame with one of the
    matching shots").
    """
    routes: list[SceneRoute] = []
    for entry in matches:
        tree = trees.get(entry.video_id)
        node: SceneNode | None = None
        if tree is not None and 0 <= entry.shot_number - 1 < tree.n_shots:
            leaf = tree.node_for_shot(entry.shot_number - 1)
            if leaf.representative_frame is not None:
                node = tree.largest_scene_with_representative(
                    leaf.representative_frame
                )
        routes.append(SceneRoute(entry=entry, node=node))
    return routes

