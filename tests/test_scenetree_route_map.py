"""The scene tree's route map returns what the reference walk returns.

``SceneTree.largest_scene_with_representative`` (the Sec. 4.2 route)
looks the frame up in a map built on first use;
:func:`repro.testing.reference.largest_scene_walk` walks every node.
Both must give the same node object — including the tie-break, the
first node in ``nodes()`` order at the highest level — for every frame
a tree carries and for frames it does not.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scenetree.builder import SceneTreeBuilder
from repro.scenetree.nodes import SceneNode, SceneTree
from repro.testing.reference import largest_scene_walk

#: Random trees draw frames from 0..3 (or None), so this one is absent.
ABSENT = 99

_frames = st.one_of(st.none(), st.integers(0, 3))
# A leaf is its representative frame; an inner node is (frame, children).
# Few distinct frames, so they repeat across branches and levels tie.
_shapes = st.recursive(
    _frames,
    lambda children: st.tuples(_frames, st.lists(children, min_size=1, max_size=4)),
    max_leaves=24,
)


def _tree(shape) -> SceneTree:
    leaves: list[SceneNode] = []
    ids = itertools.count()

    def node(shape) -> SceneNode:
        if not isinstance(shape, tuple):
            leaf = SceneNode(
                node_id=next(ids),
                shot_index=len(leaves),
                level=0,
                representative_frame=shape,
            )
            leaves.append(leaf)
            return leaf
        frame, children = shape
        inner = SceneNode(node_id=next(ids), representative_frame=frame)
        for child in map(node, children):
            child.attach_to(inner)
        inner.level = 1 + max(child.level for child in inner.children)
        inner.shot_index = inner.children[0].shot_index
        return inner

    return SceneTree(node(shape), leaves, clip_name="random")


def _assert_map_is_the_walk(tree: SceneTree) -> None:
    frames = {node.representative_frame for node in tree.nodes()}
    for frame in [ABSENT, None, *frames]:
        assert tree.largest_scene_with_representative(frame) is largest_scene_walk(
            tree, frame
        ), frame


@given(_shapes)
def test_random_trees(shape):
    _assert_map_is_the_walk(_tree(shape))


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_builder_trees(seed, n_shots):
    """Trees the builder makes from sign streams carry shot-local
    representative frames, so one frame number recurs across branches."""
    rng = np.random.default_rng(seed)
    shot_signs = [
        rng.integers(-1, 2, size=(int(rng.integers(3, 7)), 3)).astype(np.int8)
        for _ in range(n_shots)
    ]
    _assert_map_is_the_walk(SceneTreeBuilder().build(shot_signs, "signs"))


@pytest.mark.parametrize("detection", ["figure5_detection", "friends_detection"])
def test_trees_from_detection(detection, request):
    result = request.getfixturevalue(detection)
    _assert_map_is_the_walk(SceneTreeBuilder().build_from_detection(result))
