"""Independently-derived references the fast paths are tested against.

Neither runs in production; the equivalence suites, the golden corpus
and the perf benches compare each with its fast path:

* :func:`reference_extract` — the multi-pass extraction pipeline (crop
  → unfold → resample → repeated Gaussian REDUCE), which the fused
  operators of :mod:`repro.signature.extract` match byte for byte;
* :func:`longest_match_run_dp` — the row-by-row dynamic program, which
  :func:`repro.sbd.stages.longest_match_run` matches exactly;
* :func:`largest_scene_walk` — the Sec. 4.2 route as a walk over every
  node, which :meth:`repro.scenetree.nodes.SceneTree.largest_scene_with_representative`
  matches node for node;
* :func:`answer_payload` — a served answer built from
  :class:`~repro.index.table.IndexEntry` objects and scene-tree routes,
  which ``ServiceEngine._answer_payload`` writes from the index columns
  byte for byte.

The index's ground truth is the table scan
:func:`repro.index.query.search`, which ships with the index.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import DimensionError
from ..pyramid.reduce import reduce_line
from ..sbd.stages import _validate_signature_pair
from ..scenetree.nodes import SceneNode, SceneTree
from ..signature.extract import ClipFeatures, SignatureExtractor, _quantize

__all__ = [
    "answer_payload",
    "largest_scene_walk",
    "longest_match_run_dp",
    "reduce_to_one",
    "reference_extract",
    "resampled_foa",
    "resampled_tba",
]


def resampled_tba(extractor: SignatureExtractor, frames: np.ndarray) -> np.ndarray:
    """Unfold and resample the FBA of a frame stack → ``(n, w, L, 3)``."""
    raw = np.concatenate(extractor._batch_fba_strips(frames), axis=2)
    return raw[:, extractor._tba_row_idx[:, None], extractor._tba_col_idx[None, :], :]


def resampled_foa(extractor: SignatureExtractor, frames: np.ndarray) -> np.ndarray:
    """Crop and resample the FOA of a frame stack → ``(n, h, b, 3)``."""
    raw = extractor._batch_foa_raw(frames)
    return raw[:, extractor._foa_row_idx[:, None], extractor._foa_col_idx[None, :], :]


def reduce_to_one(extractor: SignatureExtractor, stack: np.ndarray) -> np.ndarray:
    """REDUCE axis 1 until its extent is 1, then drop it (float64):
    ``(n, rows, cols, 3)`` → ``(n, cols, 3)``, ``(n, L, 3)`` → ``(n, 3)``."""
    data = np.asarray(stack, dtype=np.float64)
    while data.shape[1] > 1:
        data = reduce_line(data, a=extractor._kernel_a, axis=1)
    return data[:, 0]


def reference_extract(
    extractor: SignatureExtractor, frames: np.ndarray
) -> ClipFeatures:
    """The multi-pass pipeline over a frame stack ``(n, rows, cols, 3)``,
    quantized like the fused path (the two are byte-identical)."""
    signatures = reduce_to_one(extractor, resampled_tba(extractor, frames))
    signs_ba = reduce_to_one(extractor, signatures)
    foa_lines = reduce_to_one(extractor, resampled_foa(extractor, frames))
    signs_oa = reduce_to_one(extractor, foa_lines)
    return ClipFeatures(
        signatures_ba=_quantize(signatures),
        signs_ba=_quantize(signs_ba),
        signs_oa=_quantize(signs_oa),
        geometry=extractor.geometry,
    )


def longest_match_run_dp(
    signature_a: np.ndarray,
    signature_b: np.ndarray,
    pixel_tolerance: float,
    max_shift: int | None = None,
) -> int:
    """Reference row-by-row dynamic program for the stage-3 matcher.

    ``run[i, j] = (run[i-1, j-1] + 1) * match[i, j]`` over the full
    match matrix — executable documentation of the recurrence that
    :func:`repro.sbd.stages.longest_match_run` evaluates diagonal-wise.
    """
    a, b = _validate_signature_pair(signature_a, signature_b)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    la, lb = a.shape[0], b.shape[0]
    # match[i, j] == True when pixel i of a matches pixel j of b.
    diff = np.abs(a[:, None, :] - b[None, :, :]).max(axis=-1)
    match = diff < pixel_tolerance * 256.0
    if max_shift is not None:
        if max_shift < 0:
            raise DimensionError(f"max_shift must be >= 0, got {max_shift}")
        i_idx = np.arange(la)[:, None]
        j_idx = np.arange(lb)[None, :]
        match &= np.abs(i_idx - j_idx) <= max_shift
    best = 0
    prev = np.zeros(lb, dtype=np.int64)
    for i in range(la):
        current = np.zeros(lb, dtype=np.int64)
        current[0] = match[i, 0]
        current[1:] = (prev[:-1] + 1) * match[i, 1:]
        row_best = int(current.max())
        if row_best > best:
            best = row_best
        prev = current
    return best


def largest_scene_walk(tree: SceneTree, frame_index: int | None) -> SceneNode | None:
    """The highest-level node whose representative frame is
    ``frame_index``, by a walk over every node; ties on level go to the
    first node in ``tree.nodes()`` order."""
    best: SceneNode | None = None
    for node in tree.nodes():
        if node.representative_frame == frame_index:
            if best is None or node.level > best.level:
                best = node
    return best


def answer_payload(answer: Any) -> dict[str, Any]:
    """The served JSON document of one cluster answer, built from its
    in-process view: ``answer.matches`` entries and ``answer.routes``
    nodes."""
    matches = [
        {
            "video_id": entry.video_id,
            "shot_number": entry.shot_number,
            "shot_id": entry.shot_id,
            "start_frame": entry.start_frame,
            "end_frame": entry.end_frame,
            "var_ba": entry.features.var_ba,
            "var_oa": entry.features.var_oa,
            "sqrt_var_ba": entry.sqrt_var_ba,
            "d_v": entry.d_v,
            "archetype": entry.archetype,
        }
        for entry in answer.matches
    ]
    routes = []
    for route in answer.routes:
        node = route.node
        routes.append(
            {
                "shot_id": route.entry.shot_id,
                "scene_node": None if node is None else node.label,
                "representative_frame": None if node is None else node.representative_frame,
                "suggestion": route.suggestion,
            }
        )
    return {
        "count": len(matches),
        "matches": matches,
        "routes": routes,
        "shards_queried": answer.shards_queried,
        "shards_failed": answer.shards_failed,
        "shards_recovered": answer.shards_recovered,
        "partial": answer.partial,
    }
