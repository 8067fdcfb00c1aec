"""The three stage tests of the detection procedure (Fig. 4).

All three tests answer the same question — do two frames belong to the
same shot? — at increasing cost:

* stage 1 compares two single pixels,
* stage 2 compares two length-``L`` lines positionally,
* stage 3 slides the two lines past each other and finds the longest
  run of matching pixels over every alignment (the camera-tracking
  step proper).

Stage 3 walks the diagonals of the pairwise match matrix: every
diagonal corresponds to one shift, and the longest run of consecutive
matches along any diagonal *is* the running maximum over all shifts
that the paper describes.  :func:`longest_match_run` lays the kept
diagonals out as columns of a band and finds every column's longest
``True`` run in one vectorized prefix-maximum pass — no Python loop
over rows — after pruning diagonals that ``max_shift`` excludes or
that are too short to ever reach ``min_run``.  The original row-by-row
dynamic program (``run[i, j] = (run[i-1, j-1] + 1) * match[i, j]``) is
:func:`repro.testing.reference.longest_match_run_dp`, the
independently-derived reference the fast matcher is tested against.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError

__all__ = [
    "stage1_sign_test",
    "stage2_signature_test",
    "longest_match_run",
    "stage3_shift_match",
    "classify_pair",
]


def stage1_sign_test(
    sign_a: np.ndarray, sign_b: np.ndarray, tolerance: float
) -> bool:
    """Stage 1: same shot when the signs agree within ``tolerance``.

    ``tolerance`` is a fraction of the 256-value channel range.
    """
    diff = np.abs(
        np.asarray(sign_a, dtype=np.float64) - np.asarray(sign_b, dtype=np.float64)
    ).max()
    return bool(diff < tolerance * 256.0)


def stage2_signature_test(
    signature_a: np.ndarray, signature_b: np.ndarray, tolerance: float
) -> bool:
    """Stage 2: same shot when the signatures agree positionally.

    The mean (over positions) of the maximum per-channel difference
    must fall below ``tolerance * 256``.  This passes under tiny camera
    jitter or object motion that leaves the background strip mostly
    unchanged, without paying for shift matching.
    """
    a = np.asarray(signature_a, dtype=np.float64)
    b = np.asarray(signature_b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(
            f"signature shapes differ: {a.shape} vs {b.shape}"
        )
    mean_diff = np.abs(a - b).max(axis=-1).mean()
    return bool(mean_diff < tolerance * 256.0)


def _validate_signature_pair(
    signature_a: np.ndarray, signature_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(signature_a)
    b = np.asarray(signature_b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"signatures must be (L, channels) with equal channels, "
            f"got {a.shape} and {b.shape}"
        )
    return a, b


def longest_match_run(
    signature_a: np.ndarray,
    signature_b: np.ndarray,
    pixel_tolerance: float,
    max_shift: int | None = None,
    min_run: float | None = None,
) -> int:
    """Longest run of matching pixels over all relative shifts.

    Two pixels *match* when every channel differs by less than
    ``pixel_tolerance * 256``.  ``max_shift`` optionally restricts the
    alignment search to ``|shift| <= max_shift`` (diagonals near the
    main one), modelling a bound on inter-frame camera motion; None
    searches every alignment, as in the paper.

    ``min_run`` is a pruning hint: diagonals too short to ever reach it
    are skipped before any pixel is compared.  The result is then
    *decision-exact* — it is ``>= min_run`` iff the true maximum is —
    and value-exact whenever it is ``>= min_run``; below the threshold
    it may undershoot the true maximum (only runs that were already too
    short are dropped).  With ``min_run=None`` the result is always the
    exact maximum and agrees with
    :func:`repro.testing.reference.longest_match_run_dp`.

    uint8 signatures are compared in int16 (exact, and much cheaper
    than the float64 path).  Returns the run length (0 when nothing
    matches or every diagonal is pruned).
    """
    a, b = _validate_signature_pair(signature_a, signature_b)
    if max_shift is not None and max_shift < 0:
        raise DimensionError(f"max_shift must be >= 0, got {max_shift}")
    la, lb = a.shape[0], b.shape[0]
    threshold = pixel_tolerance * 256.0
    # The kept shifts always form one contiguous interval [lo, hi]:
    # pixel i of a aligns with pixel i + s of b.
    lo, hi = -(la - 1), lb - 1
    if max_shift is not None:
        lo, hi = max(lo, -max_shift), min(hi, max_shift)
    if min_run is not None and min_run > 1:
        # A diagonal at shift s has min(la, lb - s) - max(0, -s) pixels;
        # it can only host a run >= min_run when that length allows it.
        need = int(np.ceil(min_run))
        if need > min(la, lb):
            return 0
        lo, hi = max(lo, need - la), min(hi, lb - need)
    if lo > hi or la == 0 or lb == 0:
        return 0
    if a.dtype == np.uint8 and b.dtype == np.uint8:
        a_cmp, b_cmp = a.astype(np.int16), b.astype(np.int16)
    else:
        a_cmp = np.asarray(a, dtype=np.float64)
        b_cmp = np.asarray(b, dtype=np.float64)
    n_shifts = hi - lo + 1
    # band[i, k] == match[i, i + lo + k]: column k is the diagonal at
    # shift lo + k, padded with False where it leaves the matrix.
    if n_shifts < lb:
        # Narrow band (max_shift and/or min_run pruned most diagonals):
        # gather just the needed pixels of b per (row, shift).
        j = np.arange(la)[:, None] + np.arange(lo, hi + 1)[None, :]
        valid = (j >= 0) & (j < lb)
        gathered = b_cmp[np.clip(j, 0, lb - 1)]
        diff = np.abs(a_cmp[:, None, :] - gathered).max(axis=-1)
        band = (diff < threshold) & valid
    else:
        # Wide band: one full match matrix is cheaper than gathering
        # (almost) every entry three channels at a time.  lo <= 0 here:
        # the min_run prune guarantees lo <= need - la <= 0 and
        # max_shift only ever raises lo toward 0.
        diff = np.abs(a_cmp[:, None, :] - b_cmp[None, :, :]).max(axis=-1)
        padded = np.zeros((la, n_shifts + la - 1), dtype=bool)
        padded[:, -lo : -lo + lb] = diff < threshold
        stride_i, stride_k = padded.strides
        band = np.lib.stride_tricks.as_strided(
            padded, shape=(la, n_shifts), strides=(stride_i + stride_k, stride_k)
        )
    # Longest True-run per column in one prefix-maximum sweep: each
    # False row marks itself, the running maximum carries the most
    # recent False downward, and row minus last-False is the length of
    # the run ending at that row.
    idx = np.arange(la, dtype=np.int32)[:, None]
    last_false = np.maximum.accumulate(np.where(band, np.int32(-1), idx), axis=0)
    return int((idx - last_false).max(initial=0))


def stage3_shift_match(
    signature_a: np.ndarray,
    signature_b: np.ndarray,
    pixel_tolerance: float,
    min_run_fraction: float,
    max_shift: int | None = None,
) -> bool:
    """Stage 3: same shot when the longest matching run is long enough.

    The threshold is ``min_run_fraction`` of the shorter signature
    length, so the test is symmetric in its arguments.
    """
    length = min(np.asarray(signature_a).shape[0], np.asarray(signature_b).shape[0])
    min_run = min_run_fraction * length
    run = longest_match_run(
        signature_a, signature_b, pixel_tolerance, max_shift=max_shift, min_run=min_run
    )
    return run >= min_run


def classify_pair(
    sign_a: np.ndarray,
    signature_a: np.ndarray,
    sign_b: np.ndarray,
    signature_b: np.ndarray,
    config,
    counts=None,
    max_shift: int | None = None,
) -> bool:
    """Run the full three-stage cascade on one frame pair.

    Returns True when the frames belong to the same shot.  ``config``
    is an :class:`~repro.config.SBDConfig`; when ``counts`` (a
    :class:`~repro.sbd.detector.StageCounts`) is given, the resolving
    stage's counter is incremented.  This is the single source of truth
    the batch, streaming, and skipping detectors all agree on.
    """
    diff = np.abs(
        np.asarray(sign_a, dtype=np.float64) - np.asarray(sign_b, dtype=np.float64)
    ).max()
    if diff < config.sign_threshold_255:
        if counts is not None:
            counts.stage1_same += 1
        return True
    mean_diff = (
        np.abs(
            np.asarray(signature_a, dtype=np.float64)
            - np.asarray(signature_b, dtype=np.float64)
        )
        .max(axis=-1)
        .mean()
    )
    if mean_diff < config.signature_tolerance * 256.0:
        if counts is not None:
            counts.stage2_same += 1
        return True
    min_run = config.min_match_run_fraction * np.asarray(signature_a).shape[0]
    run = longest_match_run(
        signature_a,
        signature_b,
        config.pixel_match_tolerance,
        max_shift=max_shift,
        min_run=min_run,
    )
    if run >= min_run:
        if counts is not None:
            counts.stage3_same += 1
        return True
    if counts is not None:
        counts.stage3_boundary += 1
    return False
