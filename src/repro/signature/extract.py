"""Batched extraction of signatures and signs from frames and clips.

:class:`SignatureExtractor` binds the region geometry of one frame size
(Sec. 2.2) and converts frames into their features by applying the
precompiled linear operators of :mod:`repro.pyramid.fused` — one GEMM
per region over the whole frame batch, reading the uint8 region views
directly.  The original multi-pass pipeline (crop → unfold → resample
→ repeated Gaussian REDUCE) is
:func:`repro.testing.reference.reference_extract`, the
independently-derived ground truth this path matches byte for byte.

Long clips can be processed in bounded-memory chunks, optionally across
a thread pool (:class:`~repro.config.ExtractionConfig`); extractors
themselves are memoized per ``(rows, cols, RegionConfig, kernel_a)`` so
concurrent service ingest workers share geometry and operators.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..caching import KeyedLRU
from ..config import ExtractionConfig, RegionConfig
from ..errors import EmptyClipError, FrameError
from ..geometry.regions import FrameGeometry, compute_frame_geometry
from ..pyramid.fused import FusedOperators, operators_for
from ..pyramid.kernel import DEFAULT_A
from ..video.clip import VideoClip
from ..video.frame import validate_frame, validate_frames

__all__ = ["FrameFeatures", "ClipFeatures", "SignatureExtractor"]

#: Tie-break nudge for half-up rounding, far below any real feature
#: difference (pixel scale is 1.0) but far above the ~1e-13 float noise
#: separating the fused and multi-pass summation orders.
_HALF_UP_EPS = 2.0**-30


def _quantize(values: np.ndarray) -> np.ndarray:
    """Round float features to the uint8 grid the paper's tables use.

    Rounds half *up* with a tiny nudge rather than half-to-even: the
    symmetric REDUCE taps make features land exactly on ``x.5``
    surprisingly often (e.g. a center pixel equal to the mean of its
    outer neighbours cancels the kernel's ``a`` term), and there the
    rounded byte would otherwise depend on which float summation order
    produced the value.  The nudge maps the whole noise cloud around
    every such tie to the same integer, which is what makes the fused
    and reference pipelines byte-identical.
    """
    values = np.asarray(values, dtype=np.float64)
    return np.clip(np.floor(values + (0.5 + _HALF_UP_EPS)), 0, 255).astype(np.uint8)


@dataclass(frozen=True, slots=True)
class FrameFeatures:
    """Features of a single frame.

    Attributes:
        signature_ba: background signature, uint8 array ``(L, 3)``.
        sign_ba: background sign, uint8 array ``(3,)``.
        sign_oa: object-area sign, uint8 array ``(3,)``.
    """

    signature_ba: np.ndarray
    sign_ba: np.ndarray
    sign_oa: np.ndarray


@dataclass(frozen=True, slots=True)
class ClipFeatures:
    """Features of every frame in a clip, stacked.

    Attributes:
        signatures_ba: uint8 array ``(n, L, 3)``.
        signs_ba: uint8 array ``(n, 3)``.
        signs_oa: uint8 array ``(n, 3)``.
        geometry: the :class:`FrameGeometry` used for extraction.
    """

    signatures_ba: np.ndarray
    signs_ba: np.ndarray
    signs_oa: np.ndarray
    geometry: FrameGeometry

    def __len__(self) -> int:
        return len(self.signs_ba)

    def frame(self, index: int) -> FrameFeatures:
        """Return the features of one frame as a :class:`FrameFeatures`."""
        return FrameFeatures(
            signature_ba=self.signatures_ba[index],
            sign_ba=self.signs_ba[index],
            sign_oa=self.signs_oa[index],
        )


class SignatureExtractor:
    """Computes signatures and signs for frames of one fixed size.

    Args:
        rows, cols: the frame dimensions this extractor is bound to.
        config: region geometry configuration (10 % strip by default).
        kernel_a: central weight of the pyramid generating kernel.
    """

    _CACHE = KeyedLRU(capacity=64, name="signature_extractors")

    def __init__(
        self,
        rows: int,
        cols: int,
        config: RegionConfig | None = None,
        kernel_a: float = DEFAULT_A,
    ) -> None:
        self._config = config or RegionConfig()
        self._kernel_a = kernel_a
        self.geometry: FrameGeometry = compute_frame_geometry(rows, cols, self._config)
        self._tba_row_idx, self._tba_col_idx = self._resample_indices(
            (self.geometry.w_est, self.geometry.l_est), self.geometry.tba_shape
        )
        self._foa_row_idx, self._foa_col_idx = self._resample_indices(
            (self.geometry.h_est, self.geometry.b_est), self.geometry.foa_shape
        )
        # Built on first extraction: geometries produced with
        # snap_to_size_set=False cannot be collapsed, and they should
        # fail at extraction time (as the reference pipeline does), not
        # at construction time.
        self._fused_ops: FusedOperators | None = None

    @classmethod
    def cached(
        cls,
        rows: int,
        cols: int,
        config: RegionConfig | None = None,
        kernel_a: float = DEFAULT_A,
    ) -> "SignatureExtractor":
        """Memoized constructor.

        Extractors are immutable after construction, so all callers of
        one ``(rows, cols, RegionConfig, kernel_a)`` combination share
        a single instance — service ingest workers stop recomputing
        geometry and resample indices per clip.
        """
        key = (cls, rows, cols, config or RegionConfig(), kernel_a)
        return cls._CACHE.get_or_create(
            key, lambda: cls(rows, cols, config=config, kernel_a=kernel_a)
        )

    @classmethod
    def for_clip(
        cls,
        clip: VideoClip,
        config: RegionConfig | None = None,
        kernel_a: float = DEFAULT_A,
    ) -> "SignatureExtractor":
        """Build (or fetch the memoized) extractor for ``clip``'s frame size."""
        return cls.cached(clip.rows, clip.cols, config=config, kernel_a=kernel_a)

    @classmethod
    def cache_stats(cls) -> dict:
        """Statistics of the extractor memo cache (for ``/metrics``)."""
        return cls._CACHE.stats()

    @classmethod
    def clear_cache(cls) -> None:
        """Drop all memoized extractors (test isolation hook)."""
        cls._CACHE.clear()

    @staticmethod
    def _resample_indices(
        in_shape: tuple[int, int], out_shape: tuple[int, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Precompute uniform-sampling index vectors for one region."""
        in_rows, in_cols = in_shape
        out_rows, out_cols = out_shape
        row_idx = np.minimum(np.arange(out_rows) * in_rows // out_rows, in_rows - 1)
        col_idx = np.minimum(np.arange(out_cols) * in_cols // out_cols, in_cols - 1)
        return row_idx, col_idx

    # ------------------------------------------------------------------
    # batched region extraction
    # ------------------------------------------------------------------

    def _batch_fba_strips(
        self, frames: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three FBA strips in TBA orientation, as views where possible.

        Rotations mirror :func:`repro.geometry.transform.unfold_fba`,
        with the frame axis carried in front (axes 1, 2 are the image
        plane).  Concatenated on axis 2 as ``[left, top, right]`` they
        form the raw ``(n, w', L', 3)`` TBA.
        """
        g = self.geometry
        w = g.w_est
        top = frames[:, :w, :, :]
        left_strip = np.rot90(frames[:, w:, :w, :], k=-1, axes=(1, 2))
        right_strip = np.rot90(frames[:, w:, g.cols - w :, :], k=1, axes=(1, 2))
        return left_strip, top, right_strip

    def _batch_foa_raw(self, frames: np.ndarray) -> np.ndarray:
        """Crop the raw FOA of a frame stack → ``(n, h', b', 3)`` view."""
        g = self.geometry
        w = g.w_est
        return frames[:, w:, w : g.cols - w, :]

    # ------------------------------------------------------------------
    # fused extraction (one chunk)
    # ------------------------------------------------------------------

    def _operators(self) -> FusedOperators:
        """The fused operators of this geometry (process-wide cache)."""
        if self._fused_ops is None:
            self._fused_ops = operators_for(
                self.geometry,
                self._kernel_a,
                tba_row_idx=self._tba_row_idx,
                tba_col_idx=self._tba_col_idx,
                foa_row_idx=self._foa_row_idx,
                foa_col_idx=self._foa_col_idx,
            )
        return self._fused_ops

    def _extract_block(
        self, frames: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One GEMM per region over a frame block (see pyramid.fused).

        The einsums read the strided uint8 region views directly —
        no float copy of the frame data is ever materialized, only the
        already-collapsed ``(n, L', 3)`` / ``(n, b', 3)`` lines.
        """
        ops = self._operators()
        left, top, right = self._batch_fba_strips(frames)
        row_w = ops.tba_row_weights
        line = np.concatenate(
            [np.einsum("nwlc,w->nlc", strip, row_w) for strip in (left, top, right)],
            axis=1,
        )
        signatures = line[:, ops.tba_col_idx, :]
        signs_ba = np.einsum("nlc,l->nc", signatures, ops.signature_collapse)
        foa = self._batch_foa_raw(frames)
        foa_lines = np.einsum("nrbc,r->nbc", foa, ops.foa_row_weights)
        signs_oa = np.einsum("nbc,b->nc", foa_lines, ops.foa_col_weights)
        return _quantize(signatures), _quantize(signs_ba), _quantize(signs_oa)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def extract_frames(
        self, frames: np.ndarray, extraction: ExtractionConfig | None = None
    ) -> ClipFeatures:
        """Extract features for a stack of frames ``(n, rows, cols, 3)``.

        ``extraction`` selects the execution strategy (chunk size,
        worker threads) without changing the result; the default is
        256-frame chunks on one thread.
        """
        options = extraction or ExtractionConfig()
        validate_frames(frames)
        if len(frames) == 0:
            raise EmptyClipError("cannot extract features from zero frames")
        if frames.shape[1] != self.geometry.rows or frames.shape[2] != self.geometry.cols:
            raise FrameError(
                f"frame stack {frames.shape[1:3]} does not match extractor "
                f"geometry ({self.geometry.rows}, {self.geometry.cols})"
            )
        chunk = options.chunk_frames
        if chunk is None or chunk >= len(frames):
            parts = [self._extract_block(frames)]
        else:
            blocks = [frames[k : k + chunk] for k in range(0, len(frames), chunk)]
            if options.workers > 1:
                with ThreadPoolExecutor(
                    max_workers=min(options.workers, len(blocks))
                ) as pool:
                    parts = list(pool.map(self._extract_block, blocks))
            else:
                parts = [self._extract_block(block) for block in blocks]
        if len(parts) == 1:
            signatures, signs_ba, signs_oa = parts[0]
        else:
            signatures = np.concatenate([p[0] for p in parts], axis=0)
            signs_ba = np.concatenate([p[1] for p in parts], axis=0)
            signs_oa = np.concatenate([p[2] for p in parts], axis=0)
        return ClipFeatures(
            signatures_ba=signatures,
            signs_ba=signs_ba,
            signs_oa=signs_oa,
            geometry=self.geometry,
        )

    def extract_clip(
        self, clip: VideoClip, extraction: ExtractionConfig | None = None
    ) -> ClipFeatures:
        """Extract features for every frame of ``clip``."""
        return self.extract_frames(clip.frames, extraction=extraction)

    def extract_frame(self, frame: np.ndarray) -> FrameFeatures:
        """Extract the features of a single frame."""
        validate_frame(frame)
        features = self.extract_frames(frame[None, ...])
        return features.frame(0)
