"""The packed scene tree is the tree document, and its targets are the
Sec. 4.2 walk.

A database holds each scene tree as int32 columns
(:class:`~repro.scenetree.serialize.PackedTree`), packed from a built
tree on ingest and from the record's tree document on open.  Checked
here, over hypothesis trees (the route-map suite's strategy, whose few
distinct frames make levels tie and leave some frames ``None``) and
over the golden corpus's trees:

* packing a tree gives the document the node-walking serializer wrote,
  and packing that document gives it back; a document in another node
  order is refused;
* unpacking builds a tree that validates and serializes to the same
  document, once per packed tree;
* every shot's target is :func:`~repro.testing.reference.largest_scene_walk`;
* damaged documents are refused by packing, by ``scene_tree_from_dict``
  and by the node-building decoder packing replaced;
* threads unpacking one packed tree at once share the tree it keeps.
"""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SceneTreeError
from repro.sbd.detector import CameraTrackingDetector
from repro.scenetree.builder import SceneTreeBuilder
from repro.scenetree.nodes import SceneNode, SceneTree
from repro.scenetree.serialize import PackedTree, scene_tree_from_dict
from repro.testing.golden import GOLDEN_SPECS, build_clip
from repro.testing.reference import largest_scene_walk

from .test_scenetree_route_map import _shapes, _tree


# ----------------------------------------------------------------------
# the node-object codec packing replaced, as the oracle
# ----------------------------------------------------------------------


def _walked_document(tree: SceneTree) -> dict:
    """The document by walking the nodes in pre-order."""
    order = tree.nodes()
    position = {id(node): k for k, node in enumerate(order)}
    return {
        "version": 1,
        "clip_name": tree.clip_name,
        "nodes": [
            {
                "node_id": node.node_id,
                "shot_index": node.shot_index,
                "level": node.level,
                "representative_frame": node.representative_frame,
                "parent": None if node.parent is None else position[id(node.parent)],
            }
            for node in order
        ],
        "leaves": [position[id(leaf)] for leaf in tree.leaves],
    }


def _linked_tree(payload: dict) -> SceneTree:
    """The document as linked nodes, record by record, then validated."""
    if payload.get("version") != 1:
        raise SceneTreeError("unsupported version")
    records = payload["nodes"]
    nodes = [
        SceneNode(
            node_id=r["node_id"],
            shot_index=r["shot_index"],
            level=r["level"],
            representative_frame=r["representative_frame"],
        )
        for r in records
    ]
    for record, node in zip(records, nodes):
        if record["parent"] is not None:
            if not 0 <= record["parent"] < len(nodes):
                raise SceneTreeError("bad parent position")
            node.attach_to(nodes[record["parent"]])
    roots = [node for node in nodes if node.parent is None]
    if len(roots) != 1:
        raise SceneTreeError("expected exactly one root")
    leaves = [nodes[k] for k in payload["leaves"]]
    tree = SceneTree(roots[0], leaves, payload["clip_name"])
    tree.validate()
    return tree


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------


def _assert_packs_exactly(tree: SceneTree) -> None:
    document = _walked_document(tree)
    packed = PackedTree.from_tree(tree)
    assert packed.document() == document
    assert packed.unpack() is tree
    reread = PackedTree.from_document(json.loads(json.dumps(document)))
    assert reread.document() == document
    assert np.array_equal(reread.targets, packed.targets)
    assert (reread.height, reread.n_shots) == (tree.height, tree.n_shots)
    assert reread.columns.dtype == np.int32


def _assert_unpacks_exactly(tree: SceneTree) -> None:
    document = _walked_document(tree)
    packed = PackedTree.from_document(document)
    unpacked = packed.unpack()
    unpacked.validate()
    assert _walked_document(unpacked) == document
    assert packed.unpack() is unpacked
    assert [packed.node(k) for k in range(len(document["nodes"]))] == unpacked.nodes()


def _assert_targets_are_the_walk(tree: SceneTree) -> None:
    document = _walked_document(tree)
    for packed in (PackedTree.from_tree(tree), PackedTree.from_document(document)):
        walked = packed.unpack()
        for shot, leaf in enumerate(walked.leaves):
            frame = leaf.representative_frame
            expected = None if frame is None else largest_scene_walk(walked, frame)
            position = packed.target(shot)
            assert (position >= 0) == (expected is not None), shot
            if expected is not None:
                assert packed.node(position) is expected, shot
                assert packed.route(position) == (expected.label, frame)
        assert packed.target(-1) == packed.target(tree.n_shots) == -1


@given(_shapes)
def test_random_trees_pack_and_unpack_exactly(shape):
    tree = _tree(shape)
    _assert_packs_exactly(tree)
    _assert_unpacks_exactly(tree)


@given(_shapes)
def test_random_tree_targets_are_the_walk(shape):
    _assert_targets_are_the_walk(_tree(shape))


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_builder_trees(seed, n_shots):
    """Builder trees carry shot-local representative frames, so one
    frame number recurs across branches."""
    rng = np.random.default_rng(seed)
    shot_signs = [
        rng.integers(-1, 2, size=(int(rng.integers(3, 7)), 3)).astype(np.int8)
        for _ in range(n_shots)
    ]
    tree = SceneTreeBuilder().build(shot_signs, "signs")
    _assert_packs_exactly(tree)
    _assert_unpacks_exactly(tree)
    _assert_targets_are_the_walk(tree)


@settings(max_examples=50)
@given(_shapes, st.randoms(use_true_random=False))
def test_only_preorder_documents_pack(shape, random):
    """A document packs only when its nodes come in the pre-order the
    linked decoder re-serializes it to; shuffled otherwise, it is refused."""
    document = _walked_document(_tree(shape))
    n = len(document["nodes"])
    order = list(range(n))
    random.shuffle(order)
    new_position = {old: new for new, old in enumerate(order)}
    nodes = []
    for old in order:
        node = dict(document["nodes"][old])
        if node["parent"] is not None:
            node["parent"] = new_position[node["parent"]]
        nodes.append(node)
    leaves = [new_position[k] for k in document["leaves"]]
    shuffled = dict(document, nodes=nodes, leaves=leaves)
    expected = _walked_document(_linked_tree(shuffled))
    if shuffled == expected:
        assert PackedTree.from_document(shuffled).document() == expected
    else:
        with pytest.raises(SceneTreeError, match="pre-order"):
            PackedTree.from_document(shuffled)


@pytest.fixture(scope="module")
def golden_trees() -> list[SceneTree]:
    """The scene trees of the golden corpus's clips."""
    detector = CameraTrackingDetector()
    return [
        SceneTreeBuilder().build_from_detection(detector.detect(build_clip(spec)))
        for spec in GOLDEN_SPECS
    ]


def test_golden_trees(golden_trees):
    for tree in golden_trees:
        _assert_packs_exactly(tree)
        _assert_unpacks_exactly(tree)
        _assert_targets_are_the_walk(tree)


def _damage(kind: str, document: dict) -> dict:
    damaged = json.loads(json.dumps(document))
    nodes = damaged["nodes"]
    if kind == "bad-parent":
        nodes[1]["parent"] = len(nodes) + 7
    elif kind == "two-roots":
        nodes[1]["parent"] = None
    elif kind == "unnamed":
        nodes[1]["shot_index"] = None
    elif kind == "level-inversion":
        nodes[1]["level"] = nodes[0]["level"]
    elif kind == "non-integer":
        nodes[1]["level"] = str(nodes[1]["level"])
    elif kind == "version":
        damaged["version"] = 2
    return damaged


@pytest.mark.parametrize(
    "kind",
    ["bad-parent", "two-roots", "unnamed", "level-inversion", "non-integer", "version"],
)
def test_damaged_documents_are_refused_alike(kind, golden_trees):
    for tree in golden_trees:
        document = _walked_document(tree)
        damaged = _damage(kind, document)
        with pytest.raises(SceneTreeError):
            PackedTree.from_document(damaged)
        with pytest.raises(SceneTreeError):
            scene_tree_from_dict(damaged)
        with pytest.raises((SceneTreeError, TypeError)):
            _linked_tree(damaged)
        # The undamaged document passes all three.
        PackedTree.from_document(document)
        scene_tree_from_dict(document)
        _linked_tree(document)


def test_concurrent_first_unpacks_share_one_tree():
    """Threads that unpack a packed tree at once all get the one tree
    it keeps (thread switches forced to be frequent, so an unguarded
    first unpack would build several)."""
    rng = np.random.default_rng(0)
    signs = [
        rng.integers(-1, 2, size=(int(rng.integers(3, 7)), 3)).astype(np.int8)
        for _ in range(200)
    ]
    document = _walked_document(SceneTreeBuilder().build(signs, "signs"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            packed = PackedTree.from_document(document)
            barrier = threading.Barrier(4)
            got: list[SceneTree] = []

            def read() -> None:
                barrier.wait()
                got.append(packed.unpack())

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len({id(tree) for tree in got}) == 1
    finally:
        sys.setswitchinterval(interval)
