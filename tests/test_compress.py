import functools
import hashlib
import json
import multiprocessing
import os
import pickle
import re
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, strategies as st

from rackit import compress as compress_module
from rackit import numkernel
from rackit.calibration import CalibrationConfig, CalibrationSet, LayerStats, collect
from rackit.cli import main as cli_main
from rackit.compress import (
    _STACK_ENTRIES,
    SparsityPattern,
    _greedy_block_mask,
    _upper_inverse_factor,
    compress_model,
    prune_magnitude,
    prune_obs,
    prune_wanda,
    quantize_obs,
    refit_fixed_mask,
    row_keep_target,
    trace_form_loss,
)
from rackit.errors import CholeskyError, NumericalError, ValidationError
from rackit.model import (
    PrunableLayerRef,
    all_refs,
    generate_model,
    get_weight,
    model_content_hash,
)
from rackit.numkernel import dampen, single_blas_thread

from .helpers import CLI_PROBE, fresh_python, random_gram, small_config, thread_counts
from .oracle import (
    direct_loss,
    greedy_block_mask_per_row,
    refit_fixed_mask_direct,
    rtn_quantize,
)

HALF = SparsityPattern.unstructured(0.5)


def obs_inverse_factor(rng, dim):
    """The upper factor ``prune_obs`` walks with, for a random Gram."""
    gram, _ = random_gram(rng, dim)
    return _upper_inverse_factor(dampen(gram, 0.01))


def assert_greedy_matches_oracle(W, ub, quotas):
    for quota in quotas:
        got = _greedy_block_mask(W, ub, quota)
        want = greedy_block_mask_per_row(W, ub, quota)
        assert np.array_equal(got, want), f"quota {quota}"
        assert (got.sum(axis=1) == W.shape[1] - quota).all()


def identity_gram(dim):
    return np.eye(dim)


def exhaustive_refit_loss(w_row, gram, keep):
    """True optimum over every support of the given size."""
    d = w_row.size
    best = np.inf
    for support in combinations(range(d), keep):
        mask = np.zeros((1, d), dtype=bool)
        mask[0, list(support)] = True
        refit = refit_fixed_mask(w_row[None, :], gram, mask)
        best = min(best, trace_form_loss(w_row[None, :], refit, gram))
    return best


class TestRowKeepTarget:
    @pytest.mark.parametrize("d_in,s,keep", [
        (4, 0.5, 2),
        (5, 0.5, 3),   # 2.5 keeps round up
        (3, 1 / 3, 2),
        (6, 0.75, 2),  # 1.5 keeps round up
        (3, 0.9, 0),
        (4, 0.0, 4),
        (4, 1.0, 0),
    ])
    def test_half_up_rounding(self, d_in, s, keep):
        assert row_keep_target(d_in, s) == keep


class TestMagnitude:
    def test_hand_example(self):
        mask, W = prune_magnitude(np.array([[3.0, -1.0, 0.5, 2.0]]), HALF)
        assert mask.tolist() == [[True, False, False, True]]
        assert W.tolist() == [[3.0, 0.0, 0.0, 2.0]]

    def test_tie_prefers_lower_column(self):
        mask, _ = prune_magnitude(np.array([[1.0, 1.0]]), HALF)
        assert mask.tolist() == [[True, False]]

    def test_two_of_four_hand_example(self):
        mask, W = prune_magnitude(np.array([[1.0, -4.0, 2.0, -3.0]]),
                                  SparsityPattern.semi_structured(2, 4))
        assert mask.tolist() == [[False, True, False, True]]
        assert W.tolist() == [[0.0, -4.0, 0.0, -3.0]]

    def test_pattern_validation(self):
        with pytest.raises(ValidationError):
            SparsityPattern.unstructured(1.5)
        with pytest.raises(ValidationError):
            SparsityPattern.semi_structured(4, 4)
        with pytest.raises(ValidationError):
            SparsityPattern(kind="mystery")
        with pytest.raises(ValidationError, match="group_size must be >= 1 or None"):
            SparsityPattern.quantize(4, group_size=0)
        for kind, unused in [
            ("unstructured", dict(group_size=4, bits=3, n=1, m=9)),
            ("unstructured", dict(group_size=3)),
            ("semi_structured", dict(sparsity=0.5)),
            ("quantize", dict(n=1)),
        ]:
            used = {"unstructured": dict(sparsity=0.5), "semi_structured": dict(n=2, m=4),
                    "quantize": dict(bits=4)}[kind]
            with pytest.raises(ValidationError, match="takes no"):
                SparsityPattern(kind, **used, **unused)

    @given(seed=st.integers(0, 10_000),
           d_out=st.integers(1, 6),
           d_in=st.integers(4, 40),
           s=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    def test_unstructured_counts_exact(self, seed, d_out, d_in, s):
        rng = np.random.default_rng(seed)
        mask, _ = prune_magnitude(rng.standard_normal((d_out, d_in)),
                                  SparsityPattern.unstructured(s))
        assert (mask.sum(axis=1) == row_keep_target(d_in, s)).all()

    @given(seed=st.integers(0, 10_000),
           d_out=st.integers(1, 6),
           groups=st.integers(1, 8),
           nm=st.sampled_from([(2, 4), (1, 4), (3, 8)]))
    def test_semi_structured_counts_exact(self, seed, d_out, groups, nm):
        n, m = nm
        rng = np.random.default_rng(seed)
        mask, _ = prune_magnitude(rng.standard_normal((d_out, groups * m)),
                                  SparsityPattern.semi_structured(n, m))
        per_group = mask.reshape(d_out, groups, m).sum(axis=2)
        assert (per_group == n).all()


class TestWanda:
    def test_activation_norm_outweighs_magnitude(self):
        gram = np.diag([9.0, 1.0])
        mask, W = prune_wanda(np.array([[1.0, 2.0]]), gram, HALF)
        # scores are |1|*3 = 3 vs |2|*1 = 2
        assert mask.tolist() == [[True, False]]
        assert W.tolist() == [[1.0, 0.0]]

    def test_identity_gram_reduces_to_magnitude(self, rng):
        W = rng.standard_normal((5, 8))
        m_mask, m_W = prune_magnitude(W, HALF)
        w_mask, w_W = prune_wanda(W, identity_gram(8), HALF)
        assert np.array_equal(m_mask, w_mask)
        assert np.array_equal(m_W, w_W)

    def test_rejects_negative_diagonal(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(ValidationError):
            prune_wanda(np.ones((1, 2)), bad, HALF)


class TestObs:
    def test_identity_gram_reduces_to_magnitude(self, rng):
        W = rng.standard_normal((4, 8))
        m_mask, m_W = prune_magnitude(W, HALF)
        o_mask, o_W = prune_obs(W, identity_gram(8), HALF)
        assert np.array_equal(m_mask, o_mask)
        assert np.array_equal(m_W, o_W)

    def test_zero_sparsity_is_a_no_op_bitwise(self, rng):
        W = rng.standard_normal((3, 8))
        gram, _ = random_gram(rng, 8)
        mask, out = prune_obs(W, gram, SparsityPattern.unstructured(0.0))
        assert mask.all()
        assert np.array_equal(out, W)

    def test_full_sparsity_zeroes_everything(self, rng):
        W = rng.standard_normal((3, 8))
        gram, _ = random_gram(rng, 8)
        mask, out = prune_obs(W, gram, SparsityPattern.unstructured(1.0))
        assert not mask.any()
        assert np.array_equal(out, np.zeros_like(W))

    def test_single_weight_closed_form(self):
        # Removing exactly one weight has a rank-one closed form: subtract
        # (w_q / [H^-1]_qq) times column q of the inverse Gram.
        rng = np.random.default_rng(42)
        d = 8
        gram, _ = random_gram(rng, d, 32)
        w = rng.standard_normal(d)
        hinv = np.linalg.inv(gram)
        mask, out = prune_obs(w[None, :], gram,
                              SparsityPattern.unstructured(1.0 / d),
                              damp_fraction=0.0)
        assert int((~mask[0]).sum()) == 1
        q = int(np.flatnonzero(~mask[0])[0])
        want = w - (w[q] / hinv[q, q]) * hinv[:, q]
        want[q] = 0.0
        np.testing.assert_allclose(out[0], want, atol=1e-8)

    def test_compensation_beats_plain_masking(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((1, 6))
        gram, _ = random_gram(rng, 6, 32)
        _, obs_W = prune_obs(W, gram, HALF, damp_fraction=0.0)
        _, mag_W = prune_magnitude(W, HALF)
        obs_loss = trace_form_loss(W, obs_W, gram)
        mag_loss = trace_form_loss(W, mag_W, gram)
        best = exhaustive_refit_loss(W[0], gram, keep=3)
        assert best <= obs_loss + 1e-9
        assert obs_loss <= mag_loss + 1e-9

    def test_semi_structured_groups_exact_after_compensation(self, rng):
        W = rng.standard_normal((4, 16))
        gram, _ = random_gram(rng, 16)
        mask, out = prune_obs(W, gram, SparsityPattern.semi_structured(2, 4),
                              block_size=8)
        per_group = mask.reshape(4, 4, 4).sum(axis=2)
        assert (per_group == 2).all()
        assert (out[~mask] == 0.0).all()

    def test_pruned_entries_are_exactly_zero(self, rng):
        W = rng.standard_normal((4, 12))
        gram, _ = random_gram(rng, 12)
        mask, out = prune_obs(W, gram, HALF)
        assert (out[~mask] == 0.0).all()

    def test_singular_gram_without_damping_raises(self):
        gram = np.zeros((4, 4))
        with pytest.raises(CholeskyError):
            prune_obs(np.ones((2, 4)), gram, HALF, damp_fraction=0.0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rows, cols, quotas", [
        (256, 32, (1, 2, 16, 31, 32)),
        (64, 32, (8, 16)),
        (9, 12, range(1, 13)),
        # One row: each step's column rebuild reduces a (k + 1, 1, cols) buffer.
        (1, 24, (1, 9, 23, 24)),
        # Every column eliminated: the history fills to quota - 1 columns.
        (40, 16, (16,)),
        # A full row slice with the history near the slice bound.
        (_STACK_ENTRIES // 64**2, 64, (60,)),
    ])
    def test_greedy_mask_equals_per_row_oracle(self, seed, rows, cols, quotas):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((rows, cols))
        assert_greedy_matches_oracle(W, obs_inverse_factor(rng, cols), quotas)

    def test_greedy_mask_ties_match_per_row_oracle(self):
        # An identity inverse keeps saliencies at w^2, so small integer
        # weights and two equal columns tie exactly at every step.
        rng = np.random.default_rng(11)
        W = rng.integers(-2, 3, size=(40, 8)).astype(np.float64)
        W[:, 5] = W[:, 2]
        assert_greedy_matches_oracle(W, np.eye(8), range(1, 9))
        assert_greedy_matches_oracle(W, 2.0 * np.eye(8), (3, 4))
        W = rng.standard_normal((40, 8))
        W[:, 6] = W[:, 1]
        assert_greedy_matches_oracle(W, np.eye(8), range(1, 9))

    def test_greedy_mask_edge_shapes_match_per_row_oracle(self):
        rng = np.random.default_rng(12)
        ub = obs_inverse_factor(rng, 16)
        assert_greedy_matches_oracle(rng.standard_normal((1, 16)), ub, (1, 8, 16))
        assert _greedy_block_mask(np.zeros((0, 16)), ub, 4).shape == (0, 16)
        W = rng.standard_normal((6, 16))
        W[3] = 0.0
        assert_greedy_matches_oracle(W, ub, (1, 8, 16))

    def test_greedy_mask_spans_row_slices(self):
        rng = np.random.default_rng(13)
        cols = 128
        per_slice = _STACK_ENTRIES // cols**2
        W = rng.standard_normal((2 * per_slice + 3, cols))
        assert_greedy_matches_oracle(W, obs_inverse_factor(rng, cols), (5,))

    @given(seed=st.integers(0, 5_000),
           d_in=st.sampled_from([8, 12, 16]),
           s=st.sampled_from([0.25, 0.5, 0.75]),
           block=st.sampled_from([4, 8, 32]))
    def test_unstructured_counts_exact_across_blocks(self, seed, d_in, s, block):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((3, d_in))
        gram, _ = random_gram(rng, d_in)
        mask, _ = prune_obs(W, gram, SparsityPattern.unstructured(s),
                            block_size=block)
        assert (mask.sum(axis=1) == row_keep_target(d_in, s)).all()


class TestQuantize:
    BITS8 = SparsityPattern.quantize(8)

    def test_identity_gram_equals_round_to_nearest(self, rng):
        W = rng.standard_normal((5, 16))
        got = quantize_obs(W, identity_gram(16), self.BITS8, damp_fraction=0.0)
        assert np.array_equal(got, rtn_quantize(W, 8))

    def test_identity_gram_grouped_equals_grouped_rtn(self, rng):
        W = rng.standard_normal((5, 16))
        pat = SparsityPattern.quantize(4, group_size=4)
        got = quantize_obs(W, identity_gram(16), pat, damp_fraction=0.0)
        assert np.array_equal(got, rtn_quantize(W, 4, group_size=4))

    def test_on_grid_weights_are_a_fixed_point(self, rng):
        # exact power-of-two scale so every grid product is representable
        levels = rng.integers(-127, 128, size=(4, 8)).astype(np.float64)
        levels[:, 0] = 127.0
        W = levels * 0.125
        gram, _ = random_gram(rng, 8)
        got = quantize_obs(W, gram, self.BITS8)
        assert np.array_equal(got, W)

    def test_zero_rows_stay_zero(self, rng):
        W = np.zeros((2, 4))
        got = quantize_obs(W, identity_gram(4), self.BITS8)
        assert np.array_equal(got, W)

    def test_bits_are_restricted(self):
        with pytest.raises(ValidationError):
            SparsityPattern.quantize(5)

    def test_compensation_reduces_loss_on_correlated_inputs(self):
        rng = np.random.default_rng(8)
        W = rng.standard_normal((6, 16))
        gram, _ = random_gram(rng, 16, 64)
        pat = SparsityPattern.quantize(2)
        compensated = quantize_obs(W, gram, pat, damp_fraction=0.0)
        plain = rtn_quantize(W, 2)
        assert (trace_form_loss(W, compensated, gram)
                < trace_form_loss(W, plain, gram))

    # sha256 of the float64 output of ungrouped quantize_obs on a seeded
    # 12x48 weight and Gram, computed when the ungrouped grid still took its
    # scale before the walk instead of as one group spanning the row. Block
    # sizes 1 and 32 round the compensation differently but land every
    # weight on the same grid level here, so they share a pin.
    _UNGROUPED_PINS = {
        2: "fd0554d02aa98634b757aa41ad501a183ac00856334b9334849f948e2ae336b3",
        4: "c7c835102afbe2ffda84046be363a2e7fff53c7e7c4bb43e8b8c3d3f641003dd",
        8: "123b564c984702187b40153de5dbc20b0e106706309b037132fc0d9ebf9714c8",
    }

    @pytest.mark.parametrize("block", [1, 32])
    @pytest.mark.parametrize("bits", sorted(_UNGROUPED_PINS))
    def test_ungrouped_output_is_pinned(self, bits, block):
        rng = np.random.default_rng(15)
        W = rng.standard_normal((12, 48))
        gram, _ = random_gram(rng, 48)
        with single_blas_thread():
            got = quantize_obs(W, gram, SparsityPattern.quantize(bits), block_size=block)
        digest = hashlib.sha256(np.ascontiguousarray(got, "<f8").tobytes()).hexdigest()
        assert digest == self._UNGROUPED_PINS[bits]


class TestRefit:
    def test_solves_the_normal_equations(self, rng):
        W = rng.standard_normal((4, 10))
        gram, _ = random_gram(rng, 10)
        mask, _ = prune_magnitude(W, HALF)
        out = refit_fixed_mask(W, gram, mask)
        for i in range(4):
            s = mask[i]
            resid = gram[np.ix_(s, s)] @ out[i, s] - gram[s] @ W[i]
            np.testing.assert_allclose(resid, 0.0, atol=1e-8)
        assert (out[~mask] == 0.0).all()

    def test_local_perturbations_never_improve(self, rng):
        W = rng.standard_normal((1, 8))
        gram, _ = random_gram(rng, 8)
        mask, _ = prune_magnitude(W, HALF)
        out = refit_fixed_mask(W, gram, mask)
        base = trace_form_loss(W, out, gram)
        for j in np.flatnonzero(mask[0]):
            for delta in (1e-3, -1e-3):
                probe = out.copy()
                probe[0, j] += delta
                assert base <= trace_form_loss(W, probe, gram) + 1e-12

    def test_empty_support_rows_come_back_zero(self, rng):
        W = rng.standard_normal((2, 4))
        gram, _ = random_gram(rng, 4)
        mask = np.zeros((2, 4), dtype=bool)
        mask[1, :2] = True
        out = refit_fixed_mask(W, gram, mask)
        assert np.array_equal(out[0], np.zeros(4))

    def test_singular_support_raises(self):
        gram = np.ones((2, 2))
        with pytest.raises(NumericalError, match="singular"):
            refit_fixed_mask(np.ones((1, 2)), gram, np.ones((1, 2), dtype=bool))

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_direct_solve_oracle(self, seed):
        """The residual-form refit from zero weights is the direct solve bit
        for bit, including rows with an empty support and all-zero rows."""
        rng = np.random.default_rng(seed)
        for _ in range(100):
            rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 25))
            gram, _ = random_gram(rng, cols)
            W = rng.standard_normal((rows, cols))
            mask = rng.random((rows, cols)) < rng.choice([0.0, 0.3, 0.7, 1.0])
            W[rng.random(rows) < 0.25] = 0.0
            mask[rng.random(rows) < 0.25] = False
            got = refit_fixed_mask(W, gram, mask)
            want = refit_fixed_mask_direct(W, gram, mask)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _bad_inputs():
    """(entry point, call, message) for every input an entry point rejects."""
    g6, g8 = identity_gram(6), identity_gram(8)
    W = np.ones((2, 8))
    nm24, q4 = SparsityPattern.semi_structured(2, 4), SparsityPattern.quantize(4)
    flat = "weights must be 2-D"
    kind = "pruning requires an unstructured or semi_structured pattern"
    width = "input width 6 is not a multiple of m=4"
    gram = "gram dimension 6 does not match input width 8"
    block = "block_size must be >= 1"
    block_m = "block_size 6 must be a multiple of m=4"
    nan, finite = np.where(np.eye(2, 8) == 1, np.nan, 1.0), "weights must be finite"
    narrow, g0 = np.ones((3, 0)), np.zeros((0, 0))
    empty = "weights must have at least one input column"
    gram_calls = {
        "prune_wanda": lambda g: prune_wanda(W, g, HALF),
        "prune_obs": lambda g: prune_obs(W, g, HALF),
        "quantize_obs": lambda g: quantize_obs(W, g, q4),
        "refit_fixed_mask": lambda g: refit_fixed_mask(W, g, np.ones((2, 8), bool)),
        "trace_form_loss": lambda g: trace_form_loss(W, W, g),
    }
    bad_grams = [
        (np.ones((8, 6)), "expected a square matrix, got shape (8, 6)"),
        (np.triu(np.ones((8, 8))), "matrix is not exactly symmetric"),
        (np.where(np.eye(8) == 1, np.nan, 1.0), "matrix entries must be finite"),
    ]
    return [
        ("prune_magnitude", lambda: prune_magnitude(np.ones(8), HALF), flat),
        ("prune_magnitude", lambda: prune_magnitude(W, q4), kind),
        ("prune_magnitude", lambda: prune_magnitude(np.ones((2, 6)), nm24), width),
        ("prune_wanda", lambda: prune_wanda(np.ones(8), g8, HALF), flat),
        ("prune_wanda", lambda: prune_wanda(W, g8, q4), kind),
        ("prune_wanda", lambda: prune_wanda(np.ones((2, 6)), g6, nm24), width),
        ("prune_wanda", lambda: prune_wanda(W, g6, HALF), gram),
        ("prune_obs", lambda: prune_obs(np.ones(8), g8, HALF), flat),
        ("prune_obs", lambda: prune_obs(W, g8, q4), kind),
        ("prune_obs", lambda: prune_obs(np.ones((2, 6)), g6, nm24), width),
        ("prune_obs", lambda: prune_obs(W, g6, HALF), gram),
        ("prune_obs", lambda: prune_obs(W, g8, HALF, block_size=0), block),
        ("prune_obs", lambda: prune_obs(W, g8, nm24, block_size=6), block_m),
        ("quantize_obs", lambda: quantize_obs(np.ones(8), g8, q4), flat),
        ("quantize_obs", lambda: quantize_obs(W, g8, HALF),
         "quantize_obs requires a quantize pattern"),
        ("quantize_obs", lambda: quantize_obs(W, g8, SparsityPattern.quantize(4, 3)),
         "group_size 3 does not divide input width 8"),
        ("quantize_obs", lambda: quantize_obs(W, g6, q4), gram),
        ("quantize_obs", lambda: quantize_obs(W, g8, q4, block_size=0), block),
        ("refit_fixed_mask", lambda: refit_fixed_mask(W, g8, np.ones((3, 8), bool)),
         "mask shape"),
        ("refit_fixed_mask", lambda: refit_fixed_mask(W, g6, np.ones((2, 8), bool)), gram),
        ("prune_magnitude", lambda: prune_magnitude(nan, HALF), finite),
        ("prune_wanda", lambda: prune_wanda(nan, g8, HALF), finite),
        ("prune_obs", lambda: prune_obs(nan, g8, HALF), finite),
        ("quantize_obs", lambda: quantize_obs(nan, g8, q4), finite),
        ("refit_fixed_mask", lambda: refit_fixed_mask(nan, g8, np.ones((2, 8), bool)),
         finite),
        ("trace_form_loss", lambda: trace_form_loss(W, W[0], g8),
         "compressed shape (1, 8) does not match original shape (2, 8)"),
        ("trace_form_loss", lambda: trace_form_loss(W, np.ones((3, 8)), g8),
         "compressed shape (3, 8) does not match original shape (2, 8)"),
    ] + [
        (entry, functools.partial(call, bad), message)
        for entry, call in gram_calls.items()
        for bad, message in bad_grams
    ] + [
        ("prune_magnitude", lambda: prune_magnitude(narrow, HALF), empty),
        ("prune_wanda", lambda: prune_wanda(narrow, g0, HALF), empty),
        ("prune_obs", lambda: prune_obs(narrow, g0, HALF), empty),
        ("quantize_obs", lambda: quantize_obs(narrow, g0, q4), empty),
        ("refit_fixed_mask", lambda: refit_fixed_mask(narrow, g0, narrow > 0), empty),
        ("trace_form_loss", lambda: trace_form_loss(narrow, narrow, g0), empty),
    ]


@pytest.mark.parametrize("call, message", [
    pytest.param(call, message, id=f"{entry}-{i}")
    for i, (entry, call, message) in enumerate(_bad_inputs())
])
def test_entry_points_reject_bad_inputs(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


class TestTraceFormLoss:
    def test_matches_materialized_objective(self, rng):
        W = rng.standard_normal((5, 12))
        What = W + 0.1 * rng.standard_normal((5, 12))
        gram, X = random_gram(rng, 12, 30)
        assert trace_form_loss(W, What, gram) == pytest.approx(
            direct_loss(W, What, X), rel=1e-9)

    def test_zero_for_identical_weights(self, rng):
        W = rng.standard_normal((3, 6))
        gram, _ = random_gram(rng, 6)
        assert trace_form_loss(W, W, gram) == 0.0

    def test_accepts_single_rows(self, rng):
        w = rng.standard_normal(6)
        gram, X = random_gram(rng, 6)
        assert trace_form_loss(w, np.zeros(6), gram) == pytest.approx(
            direct_loss(w[None, :], np.zeros((1, 6)), X), rel=1e-9)


class TestNestedMonotonicity:
    def test_magnitude_masks_with_refit_climb_with_sparsity(self):
        rng = np.random.default_rng(31)
        w = rng.standard_normal((1, 12))
        gram, _ = random_gram(rng, 12)
        losses = []
        for s in (0.25, 0.5, 0.75):
            mask, _ = prune_magnitude(w, SparsityPattern.unstructured(s))
            refit = refit_fixed_mask(w, gram, mask)
            losses.append(trace_form_loss(w, refit, gram))
        assert losses[0] <= losses[1] + 1e-9
        assert losses[1] <= losses[2] + 1e-9


@pytest.fixture(scope="module")
def rac_setup():
    model = generate_model(small_config(), seed=13)
    refs = all_refs(model.config)
    cfg = CalibrationConfig(mode="rac",
                            prompts=((3, 1, 4, 1, 5), (9, 2, 6, 5, 3, 5)),
                            t_max=10)
    return model, collect(model, cfg, refs), refs


class TestCompressModel:
    def test_zero_sparsity_round_trips_the_model(self, rac_setup):
        model, calib, refs = rac_setup
        out, report = compress_model(model, calib, "rac", "obs",
                                     SparsityPattern.unstructured(0.0))
        assert model_content_hash(out) == model_content_hash(model)
        assert all(r.loss == 0.0 for r in report.refs)
        assert report.input_model_hash == report.output_model_hash

    def test_modes_consume_different_statistics(self, rac_setup):
        model, calib, _ = rac_setup
        a, _ = compress_model(model, calib, "rac", "obs", HALF)
        b, _ = compress_model(model, calib, "prompt_only", "obs", HALF)
        assert model_content_hash(a) != model_content_hash(b)

    def test_obs_output_is_pinned(self, rac_setup):
        model, calib, _ = rac_setup
        pinned = {
            "rac": "4eb2ca1c805786386a676010255391879276ac3a8a3decae8f8b078dfcf37862",
            "prompt_only": "75e682b6ee92106521cc00823e41174a6d3e4152dfdc6d571cfad896235feab1",
        }
        for mode, digest in pinned.items():
            out, _ = compress_model(model, calib, mode, "obs", HALF)
            assert model_content_hash(out) == digest, mode

    def test_ref_subset_only_touches_selected_layers(self, rac_setup):
        model, calib, refs = rac_setup
        subset = refs[:2]
        out, report = compress_model(model, calib, "rac", "obs", HALF,
                                     refs=subset)
        for r in refs:
            same = np.array_equal(get_weight(out, r), get_weight(model, r))
            assert same == (r not in subset)
        assert len(report.refs) == 2

    def test_report_shape_and_audit(self, rac_setup):
        model, calib, refs = rac_setup
        _, report = compress_model(model, calib, "rac", "obs",
                                   SparsityPattern.semi_structured(2, 4),
                                   block_size=8)
        body = report.as_dict()
        json.dumps(body)  # must be serializable as-is
        assert body["method"] == "obs"
        assert body["pattern"] == {"kind": "semi_structured", "n": 2, "m": 4}
        assert set(body["refs"]) == {str(r) for r in refs}
        for entry in body["refs"].values():
            assert entry["loss"] >= 0.0
            audit = entry["achieved"]
            assert audit["groups_with_exact_zeros"] == audit["groups"]
        timings = report.timings()
        assert set(timings) == set(body["refs"])
        assert all(t >= 0.0 for t in timings.values())
        assert "seconds" not in json.dumps(body)

    def test_quantize_method_pairs_with_quantize_pattern(self, rac_setup):
        model, calib, _ = rac_setup
        with pytest.raises(ValidationError, match="requires a quantize pattern"):
            compress_model(model, calib, "rac", "obs_quant", HALF)
        for method in ("magnitude", "wanda", "obs"):
            with pytest.raises(ValidationError, match="pruning requires"):
                compress_model(model, calib, "rac", method,
                               SparsityPattern.quantize(4))

    def test_unknown_mode_and_method_rejected(self, rac_setup):
        model, calib, _ = rac_setup
        with pytest.raises(ValidationError):
            compress_model(model, calib, "decode_only", "obs", HALF)
        with pytest.raises(ValidationError):
            compress_model(model, calib, "rac", "soft_prune", HALF)
        # The library takes underscore names only; the CLI turns dashes.
        with pytest.raises(ValidationError, match="unknown compression mode"):
            compress_model(model, calib, "prompt-only", "obs", HALF)
        # A corpus calibration is solved on its prompt Gram, as prompt_only.
        with pytest.raises(ValidationError, match="unknown compression mode 'corpus'"):
            compress_model(model, calib, "corpus", "obs", HALF)
        with pytest.raises(ValidationError, match="unknown method"):
            compress_model(model, calib, "rac", "obs-quant",
                           SparsityPattern.quantize(4))

    def test_rac_mode_requires_decode_columns(self, rac_setup):
        model, _, refs = rac_setup
        prompt_only = collect(
            model,
            CalibrationConfig(mode="prompt_only", prompts=((3, 1, 4),)),
            refs,
        )
        with pytest.raises(ValidationError):
            compress_model(model, prompt_only, "rac", "obs", HALF)

    def test_refs_must_exist_in_calibration(self, rac_setup):
        model, _, refs = rac_setup
        partial = collect(
            model,
            CalibrationConfig(mode="rac", prompts=((3, 1, 4),), t_max=6),
            refs[:2],
        )
        with pytest.raises(ValidationError):
            compress_model(model, partial, "rac", "obs", HALF, refs=refs[:4])

    def test_wanda_and_magnitude_paths_run(self, rac_setup):
        model, calib, refs = rac_setup
        for method in ("magnitude", "wanda"):
            out, report = compress_model(model, calib, "rac", method, HALF,
                                         refs=refs[:2])
            assert len(report.refs) == 2
            assert report.method == method
            for r in report.refs:
                assert r.achieved["rows_off_target"] == 0

    def test_obs_quant_reports_grid_stats(self, rac_setup):
        model, calib, refs = rac_setup
        _, report = compress_model(model, calib, "rac", "obs_quant",
                                   SparsityPattern.quantize(8, group_size=8),
                                   refs=refs[:1])
        achieved = report.refs[0].achieved
        assert achieved["bits"] == 8
        assert achieved["groups_per_row"] == 2
        assert achieved["scale_max"] >= achieved["scale_mean"] > 0.0


def _no_prompt_columns(model):
    """A calibration set for the first ref with decode columns only."""
    calib = CalibrationSet.empty(model.config, all_refs(model.config)[:1])
    calib.stats[calib.refs[0]].n_decode = 1
    return calib


def _last_ref_grams(calib, prompt, decode):
    """``calib`` with its last ref's Grams replaced by ``prompt(gram_prompt)``
    and ``decode(gram_decode)``."""
    ref = calib.refs[-1]
    st = calib.stats[ref]
    stats = {**calib.stats, ref: LayerStats(prompt(st.gram_prompt), decode(st.gram_decode),
                                            st.n_prompt, st.n_decode)}
    return CalibrationSet(stats, calib.provenance)


def _huge(gram):
    """Finite and symmetric, but a sum of two overflows."""
    return np.full_like(gram, 1e308)


# (model, calibration) -> a compress_model call that the request check rejects.
_REJECTED_REQUESTS = {
    "obs-quantize-pattern": (
        lambda model, calib: compress_model(model, calib, "rac", "obs",
                                            SparsityPattern.quantize(4)),
        "pruning requires an unstructured or semi_structured pattern"),
    "group-size-width": (
        lambda model, calib: compress_model(model, calib, "rac", "obs_quant",
                                            SparsityPattern.quantize(4, group_size=32),
                                            refs=[PrunableLayerRef(0, "mlp_down"),
                                                  PrunableLayerRef(1, "attn_q")]),
        "group_size 32 does not divide input width 16"),
    "block-size-not-multiple-of-m": (
        lambda model, calib: compress_model(model, calib, "rac", "obs",
                                            SparsityPattern.semi_structured(2, 4),
                                            block_size=6),
        "block_size 6 must be a multiple of m=4"),
    "foreign-calibration": (
        lambda model, calib: compress_model(generate_model(small_config(), seed=14),
                                            calib, "rac", "obs", HALF),
        "calibration set was collected on a different model (calibration "),
    "non-string-model-hash": (
        lambda model, calib: compress_model(model, CalibrationSet(calib.stats,
                                                                  {"model_hash": 5}),
                                            "rac", "obs", HALF),
        "calibration set was collected on a different model (calibration 5.., model "),
    "no-refs": (
        lambda model, calib: compress_model(model, calib, "rac", "obs", HALF, refs=()),
        "no refs selected for compression"),
    "prompt-only-without-prompt-columns": (
        lambda model, calib: compress_model(model, _no_prompt_columns(model),
                                            "prompt_only", "obs", HALF),
        "mode 'prompt_only' requires prompt columns, but 0.attn_q has none"),
    "rac-nan-decode-gram": (
        lambda model, calib: compress_model(
            model, _last_ref_grams(calib, np.copy, lambda g: np.full_like(g, np.nan)),
            "rac", "obs", HALF),
        "calibration ref 1.mlp_down: matrix entries must be finite"),
    "rac-overflowing-gram-sum": (
        lambda model, calib: compress_model(model, _last_ref_grams(calib, _huge, _huge),
                                            "rac", "obs", HALF),
        "calibration ref 1.mlp_down: matrix entries must be finite"),
}


@pytest.mark.parametrize("case", sorted(_REJECTED_REQUESTS))
def test_request_is_rejected_before_any_solve(rac_setup, monkeypatch, case):
    """compress_model checks every ref, and the calibration's model, in the
    calling process: no solve starts, in a worker or here."""
    model, calib, _ = rac_setup
    call, message = _REJECTED_REQUESTS[case]
    solves, real = [], compress_module._solve_all

    def spy(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(compress_module, "_solve_all", spy)
    with pytest.raises(ValidationError, match=re.escape(message)):
        call(model, calib)
    assert solves == []


def _record_calls(monkeypatch, name: str, log: Path, probe):
    """What ``probe()`` returns at every call of ``compress.<name>``.

    Each call appends one JSON line to ``log``, so calls made in forked
    workers are recorded too; the returned function reads them back.
    """
    real = getattr(compress_module, name)

    def spy(*args, **kwargs):
        with open(log, "a") as f:
            f.write(json.dumps(probe()) + "\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(compress_module, name, spy)
    return lambda: ([json.loads(line) for line in log.read_text().splitlines()]
                    if log.exists() else [])


@pytest.mark.parametrize("method, pattern", [
    ("obs", HALF),
    ("obs_quant", SparsityPattern.quantize(4)),
    ("wanda", HALF),
    ("magnitude", HALF),
])
def test_each_gram_is_checked_twice(rac_setup, monkeypatch, tmp_path, method, pattern):
    """A Gram is checked up front and once more where the statistic the
    solve reads is built: by the Gram solvers, or for magnitude, whose mask
    reads no Gram, by the loss. The loss of a Gram solver checks nothing."""
    model, calib, refs = rac_setup
    real = compress_module._check_inputs
    log = tmp_path / "grams"

    def spy(weights, pattern, gram=None, *args, **kwargs):
        # Appended to a file, so checks made in forked workers count too.
        if gram is not None:
            with open(log, "a") as f:
                f.write("gram\n")
        return real(weights, pattern, gram, *args, **kwargs)

    monkeypatch.setattr(compress_module, "_check_inputs", spy)
    compress_model(model, calib, "rac", method, pattern)
    assert len(log.read_text().splitlines()) == 2 * len(refs)


def test_magnitude_loss_rejects_an_overflowing_rac_gram(rac_setup):
    """prompt + decode can overflow though each Gram is finite; the up-front
    check in compress_model sees the overflowing sum first, before any solve
    or loss."""
    model, calib, refs = rac_setup
    st = calib.stats[refs[0]]
    huge = np.full_like(st.gram_prompt, 1e308)
    big = CalibrationSet({refs[0]: LayerStats(huge, huge.copy(), st.n_prompt, st.n_decode)},
                         calib.provenance)
    with np.errstate(over="ignore"), \
            pytest.raises(ValidationError, match="matrix entries must be finite"):
        compress_model(model, big, "rac", "magnitude", HALF)


def _singular_calibration(model, pivots):
    """A calibration set for the first ``len(pivots)`` refs whose prompt Grams
    are the identity with a zero at each given index, so undamped OBS fails
    there."""
    refs = all_refs(model.config)[:len(pivots)]
    calib = CalibrationSet.empty(model.config, refs)
    for ref, pivot in zip(refs, pivots):
        stats = calib.stats[ref]
        stats.n_prompt = 1
        stats.gram_prompt[...] = np.eye(stats.gram_prompt.shape[0])
        stats.gram_prompt[pivot, pivot] = 0.0
    return calib


def _obs_hash_with_two_cpus(model, calib):
    """Runs in a pool worker, so the patch stays in that process."""
    compress_module.usable_cpus = lambda: 2
    return model_content_hash(compress_model(model, calib, "rac", "obs", HALF)[0])


class TestWorkers:
    """``compress_model`` solves refs in forked workers, one per usable CPU."""

    @pytest.mark.parametrize("method, pattern", [
        ("obs", HALF),
        ("obs", SparsityPattern.semi_structured(2, 4)),
        ("obs_quant", SparsityPattern.quantize(4, group_size=8)),
    ], ids=["obs", "obs-2:4", "obs-quant"])
    def test_pool_and_in_process_agree(self, rac_setup, monkeypatch, method, pattern):
        model, calib, refs = rac_setup
        runs = []
        for cpus in (2, 1):
            monkeypatch.setattr(compress_module, "usable_cpus", lambda: cpus)
            runs.append(compress_model(model, calib, "rac", method, pattern, block_size=8))
        (pooled, pooled_report), (local, local_report) = runs
        assert model_content_hash(pooled) == model_content_hash(local)
        assert pooled_report.as_dict() == local_report.as_dict()
        for ref in refs:
            assert np.array_equal(get_weight(pooled, ref), get_weight(local, ref))

    def test_solves_run_in_workers_and_none_is_left(self, rac_setup, monkeypatch,
                                                    tmp_path):
        model, calib, _ = rac_setup
        monkeypatch.setattr(compress_module, "usable_cpus", lambda: 2)
        pids = _record_calls(monkeypatch, "prune_obs", tmp_path / "pids.jsonl",
                             os.getpid)
        compress_model(model, calib, "rac", "obs", HALF)
        assert pids() and os.getpid() not in pids()
        assert multiprocessing.active_children() == []

        with pytest.raises(CholeskyError):
            compress_model(model, _singular_calibration(model, [0, 0, 0]),
                           "prompt_only", "obs", HALF, damp_fraction=0.0)
        assert multiprocessing.active_children() == []

    def test_results_are_applied_while_the_pool_runs(self, rac_setup, monkeypatch):
        """Each ref's weights go into the bundle as they arrive, so the
        calling process never holds every result at once."""
        model, calib, refs = rac_setup
        monkeypatch.setattr(compress_module, "usable_cpus", lambda: 2)
        real, alive = compress_module.apply_compressed, []

        def spy(*args, **kwargs):
            alive.append(len(multiprocessing.active_children()))
            return real(*args, **kwargs)

        monkeypatch.setattr(compress_module, "apply_compressed", spy)
        compress_model(model, calib, "rac", "obs", HALF)
        assert alive == [2] * len(refs)
        assert multiprocessing.active_children() == []

    def test_non_finite_result_names_its_ref_and_leaves_no_worker(self, rac_setup,
                                                                   monkeypatch):
        model, calib, refs = rac_setup
        monkeypatch.setattr(compress_module, "usable_cpus", lambda: 2)
        bad, real = refs[1], compress_module.prune_obs

        def nan_for_bad(weights, gram, *args, **kwargs):
            mask, W_new = real(weights, gram, *args, **kwargs)
            if np.array_equal(weights, get_weight(model, bad)):
                W_new = np.full_like(W_new, np.nan)
            return mask, W_new

        monkeypatch.setattr(compress_module, "prune_obs", nan_for_bad)
        with pytest.raises(ValidationError,
                           match=re.escape(f"weights for {bad} contain non-finite entries")):
            compress_model(model, calib, "rac", "obs", HALF)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("method", ["magnitude", "wanda"])
    def test_cheap_methods_solve_in_process(self, rac_setup, monkeypatch, tmp_path,
                                            method):
        """Their solves take less time than starting the workers would."""
        model, calib, _ = rac_setup
        monkeypatch.setattr(compress_module, "usable_cpus", lambda: 2)
        pids = _record_calls(monkeypatch, f"prune_{method}", tmp_path / "pids.jsonl",
                             os.getpid)
        compress_model(model, calib, "rac", method, HALF)
        assert set(pids()) == {os.getpid()}
        assert multiprocessing.active_children() == []

    def test_a_threaded_caller_solves_in_process(self, rac_setup, monkeypatch,
                                                 tmp_path):
        """Forking beside a second thread could copy a lock that thread holds."""
        model, calib, _ = rac_setup
        monkeypatch.setattr(compress_module, "usable_cpus", lambda: 2)
        pids = _record_calls(monkeypatch, "prune_obs", tmp_path / "pids.jsonl",
                             os.getpid)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            compress_model(model, calib, "rac", "obs", HALF)
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert set(pids()) == {os.getpid()}

    def test_a_daemonic_caller_solves_in_process(self, rac_setup):
        """A daemonic process, such as a pool worker, may not start children."""
        model, calib, _ = rac_setup
        here, _ = compress_model(model, calib, "rac", "obs", HALF)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            there = pool.apply(_obs_hash_with_two_cpus, (model, calib))
        assert there == model_content_hash(here)

    def test_a_dying_worker_raises_instead_of_hanging(self, rac_setup, monkeypatch):
        model, calib, _ = rac_setup
        monkeypatch.setattr(compress_module, "usable_cpus", lambda: 2)
        parent, real = os.getpid(), compress_module.prune_obs

        def die_in_worker(weights, gram, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return real(weights, gram, *args, **kwargs)

        monkeypatch.setattr(compress_module, "prune_obs", die_in_worker)
        with pytest.raises(BrokenProcessPool):
            compress_model(model, calib, "rac", "obs", HALF)
        assert multiprocessing.active_children() == []

    def test_first_failure_in_ref_order_is_raised(self, monkeypatch):
        """The first ref fails later in time than the second; its error wins."""
        model = generate_model(small_config(), seed=13)
        calib = _singular_calibration(model, [3, 0])
        monkeypatch.setattr(compress_module, "usable_cpus", lambda: 2)
        real = compress_module.prune_obs

        def slow_first(weights, gram, *args, **kwargs):
            if gram[0, 0] == 1.0:
                time.sleep(0.3)
            return real(weights, gram, *args, **kwargs)

        monkeypatch.setattr(compress_module, "prune_obs", slow_first)
        with pytest.raises(CholeskyError) as failure:
            compress_model(model, calib, "prompt_only", "obs", HALF, damp_fraction=0.0)
        assert failure.value.index == 3
        assert str(failure.value) == str(CholeskyError(3))

    def test_cholesky_error_survives_pickling(self):
        error = pickle.loads(pickle.dumps(CholeskyError(7)))
        assert type(error) is CholeskyError
        assert error.index == 7
        assert str(error) == str(CholeskyError(7))

    def test_importing_the_cli_loads_no_multiprocessing(self):
        loaded = fresh_python("""
            import json, sys
            import rackit.cli
            print(json.dumps(sorted(m for m in sys.modules
                                    if m.split(".")[0] == "multiprocessing")))
        """)
        assert loaded == []


# Reads and sets the wheels' OpenBLAS thread counts without rackit, then
# imports rackit.compress and reports what the import changed.
_IMPORT_PROBE = """
    import ctypes, json, os
    from pathlib import Path
    import numpy, scipy, scipy.linalg

    libs = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / (pkg.__name__ + ".libs")
        for path in sorted(libdir.glob("libscipy_openblas*.so")):
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            end = "64_" if hasattr(lib, "scipy_openblas_get_num_threads64_") else ""
            libs.append((getattr(lib, "scipy_openblas_set_num_threads" + end),
                         getattr(lib, "scipy_openblas_get_num_threads" + end)))
    for count, (setter, _) in enumerate(libs, start=3):
        setter(count)
    before, environ = [getter() for _, getter in libs], dict(os.environ)
    import rackit.compress
    print(json.dumps({
        "before": before,
        "after": [getter() for _, getter in libs],
        "environ_kept": dict(os.environ) == environ,
        "lookups": rackit.numkernel._openblas_thread_controls.cache_info().currsize,
    }))
"""


def _bundled_openblas() -> list:
    """The OpenBLAS builds that the numpy and scipy wheels bundle."""
    return [path for pkg in (np, scipy)
            for path in (Path(pkg.__file__).parent.parent
                         / f"{pkg.__name__}.libs").glob("libscipy_openblas*.so")]


class TestSingleBlasThread:
    def test_lookup_finds_every_wheel_openblas(self):
        bundled = _bundled_openblas()
        if not bundled:
            pytest.skip("numpy and scipy bundle no OpenBLAS on this host")
        assert len(numkernel._openblas_thread_controls()) == len(bundled)

    def test_fresh_gen_model_and_prune_import_no_scipy_module(self, tmp_path,
                                                              monkeypatch):
        """gen-model loads no scipy module, and prune only scipy's LAPACK
        extension. Without scipy imported, the thread lookup must still find
        scipy's OpenBLAS: LAPACK is loaded before the pin, so the outputs keep
        the bits of a process where scipy is loaded."""
        bundled = _bundled_openblas()
        if not bundled:
            pytest.skip("numpy and scipy bundle no OpenBLAS on this host")
        gen = ["gen-model", "--d-model", "32", "--layers", "1", "--heads", "2",
               "--max-positions", "64", "--seed", "3", "--out", "m.tmc"]
        prune = ["prune", "--model", "m.tmc", "--calib", "c.racc", "--method", "obs",
                 "--nm", "2:4", "--out", "p.tmc"]
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        (here / "prompts.txt").write_text("Hello there\nGeneral case\n")
        monkeypatch.chdir(here)
        assert cli_main(gen) == 0
        assert cli_main(["calibrate", "--model", "m.tmc", "--mode", "rac",
                         "--prompts", "prompts.txt", "--t-max", "8",
                         "--out", "c.racc"]) == 0
        assert cli_main(prune) == 0
        (fresh / "c.racc").write_bytes((here / "c.racc").read_bytes())

        probe = fresh_python(CLI_PROBE, *gen, cwd=fresh)
        assert probe["codes"] == [0] and probe["scipy_modules"] == []
        probe = fresh_python(CLI_PROBE, *prune, cwd=fresh)
        assert probe == {"codes": [0], "scipy_modules": ["scipy.linalg._flapack"],
                         "openblas": len(bundled)}
        for name in ("m.tmc", "p.tmc", "p.tmc.report.json"):
            assert (fresh / name).read_bytes() == (here / name).read_bytes(), name

    def test_counts_restored_after_compress_model(self, rac_setup, blas_controls,
                                                  monkeypatch, tmp_path):
        model, calib, _ = rac_setup
        monkeypatch.setattr(compress_module, "usable_cpus", lambda: 2)
        before = thread_counts(blas_controls)
        record = _record_calls(monkeypatch, "prune_obs", tmp_path / "counts.jsonl",
                               lambda: thread_counts(blas_controls))
        compress_model(model, calib, "rac", "obs", HALF)
        seen = record()
        assert seen and all(counts == [1] * len(before) for counts in seen)
        assert thread_counts(blas_controls) == before

    def test_counts_restored_when_compress_model_raises(self, blas_controls,
                                                        monkeypatch, tmp_path):
        model = generate_model(small_config(), seed=13)
        ref = all_refs(model.config)[0]
        calib = CalibrationSet.empty(model.config, [ref])
        calib.stats[ref].n_prompt = 1  # a zero Gram, which damping 0 leaves singular
        before = thread_counts(blas_controls)
        record = _record_calls(monkeypatch, "prune_obs", tmp_path / "counts.jsonl",
                               lambda: thread_counts(blas_controls))
        with pytest.raises(CholeskyError):
            compress_model(model, calib, "prompt_only", "obs", HALF, damp_fraction=0.0)
        seen = record()
        assert seen == [[1] * len(before)]
        assert thread_counts(blas_controls) == before

    def test_output_does_not_depend_on_the_callers_thread_count(self, rac_setup,
                                                                blas_controls):
        """OpenBLAS's dpotri rounds differently at other thread counts; the pin
        makes losses and weights the same whatever the caller had set."""
        model, calib, _ = rac_setup
        first = compress_model(model, calib, "rac", "obs", HALF)
        for setter, _ in blas_controls:
            setter(1)
        second = compress_model(model, calib, "rac", "obs", HALF)
        assert first[1].as_dict() == second[1].as_dict()
        for ref in calib.refs:
            assert np.array_equal(get_weight(first[0], ref), get_weight(second[0], ref))

    def test_import_changes_no_thread_count_or_environment(self):
        probe = fresh_python(_IMPORT_PROBE)
        if not probe["before"]:
            pytest.skip("numpy and scipy bundle no OpenBLAS on this host")
        assert probe["after"] == probe["before"]
        assert probe["environ_kept"]
        assert probe["lookups"] == 0

    def test_no_library_found_keeps_the_pinned_hashes(self, rac_setup, monkeypatch):
        lookups = []
        monkeypatch.setattr(numkernel, "_openblas_thread_controls",
                            lambda: lookups.append(1) or ())
        TestCompressModel().test_obs_output_is_pinned(rac_setup)
        assert len(lookups) == 2
