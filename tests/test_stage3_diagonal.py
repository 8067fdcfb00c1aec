"""Tests for the banded-diagonal stage-3 matcher vs. the reference DP.

``longest_match_run`` (vectorized diagonal walk) and
``repro.testing.reference.longest_match_run_dp`` (row-by-row dynamic
program) are independent
implementations of the same definition; with ``min_run=None`` they
must agree exactly on every input.
"""

import numpy as np
import pytest

from repro.errors import DimensionError
from repro.sbd.stages import classify_pair, longest_match_run, stage3_shift_match
from repro.config import SBDConfig
from repro.testing.reference import longest_match_run_dp


def random_signatures(rng, la, lb, spread):
    """Two uint8 signatures whose per-pixel diffs straddle the tolerance."""
    base = rng.integers(0, 256, size=(max(la, lb), 3))
    a = np.clip(base[:la] + rng.integers(-spread, spread + 1, (la, 3)), 0, 255)
    b = np.clip(base[:lb] + rng.integers(-spread, spread + 1, (lb, 3)), 0, 255)
    return a.astype(np.uint8), b.astype(np.uint8)


class TestEquivalenceWithDP:
    def test_random_equivalence(self):
        rng = np.random.default_rng(0)
        for trial in range(150):
            la = int(rng.integers(1, 40))
            lb = int(rng.integers(1, 40))
            spread = int(rng.choice([5, 15, 30]))
            a, b = random_signatures(rng, la, lb, spread)
            tol = float(rng.choice([0.05, 0.1, 0.2]))
            max_shift = [None, 0, 2, 5, 100][int(rng.integers(0, 5))]
            fast = longest_match_run(a, b, tol, max_shift=max_shift)
            slow = longest_match_run_dp(a, b, tol, max_shift=max_shift)
            assert fast == slow, (trial, la, lb, tol, max_shift)

    def test_random_equivalence_float_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            a = rng.uniform(0, 255, size=(int(rng.integers(2, 30)), 3))
            b = rng.uniform(0, 255, size=(int(rng.integers(2, 30)), 3))
            assert longest_match_run(a, b, 0.1) == longest_match_run_dp(a, b, 0.1)

    def test_uint8_and_float_paths_agree(self):
        rng = np.random.default_rng(2)
        a, b = random_signatures(rng, 29, 29, 20)
        assert longest_match_run(a, b, 0.1) == longest_match_run(
            a.astype(np.float64), b.astype(np.float64), 0.1
        )


class TestAdversarialCases:
    def test_identical_signatures(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, size=(61, 3)).astype(np.uint8)
        assert longest_match_run(a, a, 0.1) == 61

    def test_nothing_matches(self):
        a = np.zeros((13, 3), dtype=np.uint8)
        b = np.full((13, 3), 200, dtype=np.uint8)
        assert longest_match_run(a, b, 0.1) == 0

    def test_everything_matches(self):
        a = np.full((13, 3), 100, dtype=np.uint8)
        b = np.full((17, 3), 101, dtype=np.uint8)
        assert longest_match_run(a, b, 0.1) == 13

    def test_single_run_at_known_shift(self):
        # b equals a shifted by 4 positions; elsewhere everything differs.
        rng = np.random.default_rng(4)
        a = rng.integers(100, 110, size=(20, 3)).astype(np.uint8)
        b = np.zeros((24, 3), dtype=np.uint8)
        b[4:24] = a
        run = longest_match_run(a, b, 0.05)
        assert run == 20
        assert longest_match_run(a, b, 0.05, max_shift=3) < 20

    def test_run_broken_by_single_mismatch(self):
        a = np.full((21, 3), 50, dtype=np.uint8)
        b = a.copy()
        b[10] = 255  # splits the main diagonal into runs of 10 and 10
        assert longest_match_run(a, b, 0.1) == 10
        assert longest_match_run_dp(a, b, 0.1) == 10

    def test_single_pixel_signatures(self):
        a = np.array([[10, 10, 10]], dtype=np.uint8)
        b = np.array([[12, 10, 10]], dtype=np.uint8)
        assert longest_match_run(a, b, 0.1) == 1
        assert longest_match_run(a, b, 0.001) == 0

    def test_asymmetric_lengths(self):
        rng = np.random.default_rng(5)
        a, b = random_signatures(rng, 5, 61, 10)
        assert longest_match_run(a, b, 0.1) == longest_match_run_dp(a, b, 0.1)
        assert longest_match_run(b, a, 0.1) == longest_match_run_dp(b, a, 0.1)


class TestMaxShiftEdges:
    def test_max_shift_zero_is_main_diagonal_only(self):
        rng = np.random.default_rng(6)
        a, b = random_signatures(rng, 29, 29, 20)
        fast = longest_match_run(a, b, 0.1, max_shift=0)
        slow = longest_match_run_dp(a, b, 0.1, max_shift=0)
        assert fast == slow
        # Equivalent to the longest aligned positional run.
        match = (np.abs(a.astype(int) - b.astype(int)).max(-1) < 25.6).astype(int)
        best = run = 0
        for m in match:
            run = run + 1 if m else 0
            best = max(best, run)
        assert fast == best

    def test_max_shift_at_least_length_equals_unbounded(self):
        rng = np.random.default_rng(7)
        for la, lb in [(13, 13), (13, 29), (29, 13)]:
            a, b = random_signatures(rng, la, lb, 20)
            unbounded = longest_match_run(a, b, 0.1, max_shift=None)
            for shift in (max(la, lb), max(la, lb) + 7):
                assert longest_match_run(a, b, 0.1, max_shift=shift) == unbounded

    def test_negative_max_shift_rejected(self):
        a = np.zeros((5, 3), dtype=np.uint8)
        with pytest.raises(DimensionError):
            longest_match_run(a, a, 0.1, max_shift=-1)
        with pytest.raises(DimensionError):
            longest_match_run_dp(a, a, 0.1, max_shift=-1)

    def test_shape_validation(self):
        a = np.zeros((5, 3), dtype=np.uint8)
        bad = np.zeros((5, 4), dtype=np.uint8)
        with pytest.raises(DimensionError):
            longest_match_run(a, bad, 0.1)
        with pytest.raises(DimensionError):
            longest_match_run(a.ravel(), a.ravel(), 0.1)


class TestMinRunPruning:
    def test_decision_consistency(self):
        """run >= min_run must agree with the exact DP decision."""
        rng = np.random.default_rng(8)
        for trial in range(120):
            la = int(rng.integers(2, 40))
            lb = int(rng.integers(2, 40))
            a, b = random_signatures(rng, la, lb, 20)
            min_run = float(rng.uniform(0.5, min(la, lb) + 2))
            max_shift = [None, 3][trial % 2]
            exact = longest_match_run_dp(a, b, 0.1, max_shift=max_shift)
            pruned = longest_match_run(
                a, b, 0.1, max_shift=max_shift, min_run=min_run
            )
            assert (pruned >= min_run) == (exact >= min_run), (
                trial, la, lb, min_run, exact, pruned,
            )
            # Value-exact whenever the threshold is reached.
            if pruned >= min_run:
                assert pruned == exact

    def test_min_run_larger_than_any_diagonal(self):
        a = np.full((13, 3), 7, dtype=np.uint8)
        assert longest_match_run(a, a, 0.1, min_run=14) == 0

    def test_min_run_never_overreports(self):
        rng = np.random.default_rng(9)
        a, b = random_signatures(rng, 29, 29, 25)
        exact = longest_match_run_dp(a, b, 0.1)
        assert longest_match_run(a, b, 0.1, min_run=5) <= exact


class TestStageWrappers:
    def test_stage3_matches_dp_decision(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            a, b = random_signatures(rng, 29, 29, 20)
            run = longest_match_run_dp(a, b, 0.1)
            expected = run >= 0.3 * 29
            assert stage3_shift_match(a, b, 0.1, 0.3) == expected

    def test_classify_pair_unchanged_decision(self):
        rng = np.random.default_rng(11)
        config = SBDConfig()
        for _ in range(40):
            a, b = random_signatures(rng, 29, 29, 25)
            sign_a = a.mean(axis=0).astype(np.uint8)
            sign_b = b.mean(axis=0).astype(np.uint8)
            got = classify_pair(sign_a, a, sign_b, b, config)
            # Recompute the cascade with the reference matcher.
            if np.abs(sign_a.astype(float) - sign_b.astype(float)).max() < config.sign_threshold_255:
                expected = True
            elif np.abs(a.astype(float) - b.astype(float)).max(-1).mean() < config.signature_tolerance * 256.0:
                expected = True
            else:
                run = longest_match_run_dp(a, b, config.pixel_match_tolerance)
                expected = run >= config.min_match_run_fraction * a.shape[0]
            assert got == expected
