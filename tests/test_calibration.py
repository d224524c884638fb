import hashlib
import logging
import math
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import rackit.calibration
from rackit import compress as compress_module
from rackit.calibration import (
    MODES,
    CalibrationConfig,
    CalibrationSet,
    LayerStats,
    collect,
    load_prompt_file,
    merged_gram,
)
from rackit.compress import SparsityPattern, compress_model
from rackit.errors import ContainerError, ValidationError
from rackit.model import (
    GREEDY,
    PrunableLayerRef,
    Sampler,
    all_refs,
    decode,
    forward_teacher_forced,
    generate_model,
)

from .helpers import nan_in_first_capture, small_config
from .oracle import accumulate_gram_per_column
from .test_compress import _record_calls

PROMPTS = ((10, 20, 30), (40, 50, 60, 70))


def _materialized_gram(model, sequences, ref, start_at=0):
    """Oracle: teacher-force, slice rows, take X @ X.T directly."""
    total = None
    for seq in sequences:
        _, caps = forward_teacher_forced(model, seq, [ref])
        rows = caps[ref][start_at:]
        g = rows.T @ rows
        total = g if total is None else total + g
    return total


def _corpus(model, data, refs, token_budget):
    return collect(model, CalibrationConfig(mode="corpus", corpus=data,
                                            token_budget=token_budget), refs)


def _prompt_only(model, prompts, refs, token_budget=None):
    return collect(model, CalibrationConfig(mode="prompt_only", prompts=prompts,
                                            token_budget=token_budget), refs)


class TestPromptPhase:
    def test_counts_every_prompt_position(self, tiny_model):
        calib = _prompt_only(tiny_model, PROMPTS, all_refs(tiny_model.config))
        for st in calib.stats.values():
            assert st.n_prompt == 7
            assert st.n_decode == 0

    def test_gram_matches_materialized_product(self, tiny_model):
        refs = all_refs(tiny_model.config)
        calib = _prompt_only(tiny_model, PROMPTS, refs)
        for ref in refs:
            want = _materialized_gram(tiny_model, PROMPTS, ref)
            np.testing.assert_allclose(
                calib.stats[ref].gram_prompt, want, atol=1e-10,
                err_msg=str(ref))

    def test_column_cap_stops_mid_prompt(self, tiny_model):
        calib = _prompt_only(tiny_model, PROMPTS, all_refs(tiny_model.config),
                             token_budget=5)
        st = calib.stats[calib.refs[0]]
        assert st.n_prompt == 5

    def test_rejects_empty_prompt_list(self, tiny_model):
        with pytest.raises(ValidationError):
            _prompt_only(tiny_model, [], all_refs(tiny_model.config))

    def test_rejects_empty_prompt(self, tiny_model):
        with pytest.raises(ValidationError):
            _prompt_only(tiny_model, [[1, 2], []], all_refs(tiny_model.config))


class TestDecodePhase:
    def test_matches_manual_rollout_then_teacher_forcing(self, tiny_model):
        refs = all_refs(tiny_model.config)
        t_max = 8
        calib = collect(tiny_model,
                        CalibrationConfig(mode="rac", prompts=PROMPTS, t_max=t_max),
                        refs)

        gram_want = {r: np.zeros_like(g.gram_decode)
                     for r, g in calib.stats.items()}
        n_want = 0
        for prompt in PROMPTS:
            full = decode(tiny_model, prompt, t_max, GREEDY)
            n_want += len(full) - len(prompt)
            _, caps = forward_teacher_forced(tiny_model, full, refs)
            for r in refs:
                rows = caps[r][len(prompt):]
                gram_want[r] += rows.T @ rows
        assert n_want > 0
        for r in refs:
            st = calib.stats[r]
            assert st.n_decode == n_want
            assert st.n_prompt == 7
            np.testing.assert_allclose(st.gram_decode, gram_want[r],
                                       atol=1e-10, err_msg=str(r))

    def test_prompt_plus_budget_must_fit_positions(self, tiny_model):
        cap = tiny_model.config.max_positions
        with pytest.raises(ValidationError):
            collect(tiny_model,
                    CalibrationConfig(mode="rac", prompts=[[1] * 10], t_max=cap - 9),
                    all_refs(tiny_model.config))

    @pytest.mark.parametrize("mode", ["rac", "off_policy"])
    def test_prompt_after_the_decode_budget_is_only_teacher_forced(self, tiny_model, mode):
        # 60 + t_max does not fit 64 positions, but the budget's 3 decode
        # columns are spent on the first prompt, so the third is only
        # teacher-forced; a lockstep batch must not admit it.
        prompts = PROMPTS + ((5,) * 60,)
        refs = all_refs(tiny_model.config)
        trace = tiny_model if mode == "off_policy" else None
        calib = collect(tiny_model,
                        CalibrationConfig(mode=mode, prompts=prompts, t_max=16,
                                          trace_model=trace, token_budget=70),
                        refs)
        prompt_only = _prompt_only(tiny_model, prompts, refs)
        for r in refs:
            st = calib.stats[r]
            assert (st.n_prompt, st.n_decode) == (67, 3)
            assert np.array_equal(st.gram_prompt, prompt_only.stats[r].gram_prompt)
        with pytest.raises(ValidationError, match="prompt 2 \\+ t_max exceeds target"):
            collect(tiny_model, CalibrationConfig(mode=mode, prompts=prompts, t_max=16,
                                                  trace_model=trace),
                    refs)

    def test_foreign_trace_model_writes_tokens_only(self, tiny_model):
        # activations must come from the target even when the rollout does not
        other = generate_model(small_config(), seed=99)
        refs = all_refs(tiny_model.config)[:2]
        calib = collect(tiny_model,
                        CalibrationConfig(mode="off_policy", prompts=PROMPTS,
                                          t_max=8, trace_model=other),
                        refs)
        ref = refs[0]
        want = np.zeros((calib.stats[ref].gram_decode.shape[0],) * 2)
        for prompt in PROMPTS:
            full = decode(other, prompt, 8, GREEDY)
            _, caps = forward_teacher_forced(tiny_model, full, [ref])
            rows = caps[ref][len(prompt):]
            want += rows.T @ rows
        np.testing.assert_allclose(calib.stats[ref].gram_decode, want,
                                   atol=1e-10)


class TestCollect:
    def _config(self, **over):
        base = dict(mode="rac", prompts=PROMPTS, t_max=8)
        base.update(over)
        return CalibrationConfig(**base)

    def test_prompt_only_leaves_decode_empty(self, tiny_model):
        calib = collect(tiny_model, self._config(mode="prompt_only", t_max=0),
                        all_refs(tiny_model.config))
        for st in calib.stats.values():
            assert st.n_prompt == 7
            assert st.n_decode == 0
            assert np.array_equal(st.gram_decode,
                                  np.zeros_like(st.gram_decode))

    def test_rac_prompt_gram_identical_to_prompt_only(self, tiny_model):
        refs = all_refs(tiny_model.config)
        a = collect(tiny_model, self._config(mode="prompt_only", t_max=0), refs)
        b = collect(tiny_model, self._config(), refs)
        for r in refs:
            assert np.array_equal(a.stats[r].gram_prompt,
                                  b.stats[r].gram_prompt)
        assert b.stats[refs[0]].n_decode > 0

    def test_off_policy_with_self_trace_is_bit_identical_to_rac(self, tiny_model):
        refs = all_refs(tiny_model.config)
        on = collect(tiny_model, self._config(), refs)
        off = collect(tiny_model,
                      self._config(mode="off_policy", trace_model=tiny_model),
                      refs)
        assert on.content_digest() == off.content_digest()
        for r in refs:
            assert np.array_equal(on.stats[r].gram_decode,
                                  off.stats[r].gram_decode)
            assert on.stats[r].n_decode == off.stats[r].n_decode

    def test_token_budget_caps_prompt_then_decode(self, tiny_model):
        refs = all_refs(tiny_model.config)
        only_prompt = collect(tiny_model, self._config(token_budget=5), refs)
        st = only_prompt.stats[refs[0]]
        assert (st.n_prompt, st.n_decode) == (5, 0)

        spill = collect(tiny_model, self._config(token_budget=10), refs)
        st = spill.stats[refs[0]]
        assert st.n_prompt == 7
        assert st.n_decode == 3

    # Budget 5 stops inside the second prompt, 10 inside the first rollout.
    @pytest.mark.parametrize("budget", [None, 5, 10])
    def test_shared_input_grams_are_bit_identical(self, tiny_model, budget):
        calib = collect(tiny_model, self._config(t_max=16, token_budget=budget),
                        all_refs(tiny_model.config))
        for layer in range(tiny_model.config.n_layers):
            q, k, v = (calib.stats[PrunableLayerRef(layer, slot)]
                       for slot in ("attn_q", "attn_k", "attn_v"))
            assert q.gram_prompt.any()
            for st in (k, v):
                assert (st.n_prompt, st.n_decode) == (q.n_prompt, q.n_decode)
                assert np.array_equal(st.gram_prompt, q.gram_prompt)
                assert np.array_equal(st.gram_decode, q.gram_decode)

    @pytest.mark.parametrize("mode", ["rac", "off_policy"])
    def test_one_gram_update_per_activation_phase_and_prompt(self, tiny_model, mode,
                                                             monkeypatch):
        # attn_q, attn_k and attn_v read one capture array, so their Gram is
        # computed once per phase and copied to the other two; each other
        # slot reads an activation of its own.
        calls = []
        real = rackit.calibration.accumulate_gram
        monkeypatch.setattr(rackit.calibration, "accumulate_gram",
                            lambda gram, cols: calls.append(1) or real(gram, cols))
        trace = {"trace_model": tiny_model} if mode == "off_policy" else {}
        collect(tiny_model, self._config(mode=mode, **trace), all_refs(tiny_model.config))
        assert len(calls) == tiny_model.config.n_layers * 4 * 2 * len(PROMPTS)

    @pytest.mark.parametrize("budget", [None, 5, 10])
    @pytest.mark.parametrize("slots", [("attn_k",), ("attn_v", "attn_out")])
    def test_ref_subset_gives_the_grams_of_every_ref(self, tiny_model, slots, budget):
        config = self._config(t_max=16, token_budget=budget)
        every = collect(tiny_model, config, all_refs(tiny_model.config))
        refs = [PrunableLayerRef(layer, slot)
                for layer in range(tiny_model.config.n_layers) for slot in slots]
        part = collect(tiny_model, config, refs)
        assert part.refs == tuple(refs)
        for r in refs:
            a, b = part.stats[r], every.stats[r]
            assert (a.n_prompt, a.n_decode) == (b.n_prompt, b.n_decode)
            assert a.gram_prompt.tobytes() == b.gram_prompt.tobytes()
            assert a.gram_decode.tobytes() == b.gram_decode.tobytes()

    def test_decode_distribution_differs_from_prompt_distribution(self, tiny_model):
        refs = all_refs(tiny_model.config)
        calib = collect(tiny_model, self._config(t_max=16), refs)
        shifted = 0
        for r in refs:
            a = calib.stats[r].gram_prompt / calib.stats[r].n_prompt
            b = calib.stats[r].gram_decode / calib.stats[r].n_decode
            cos = np.vdot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
            if cos < 0.999:
                shifted += 1
        assert shifted >= len(refs) // 2

    def test_temperature_sampling_reruns_identically(self, tiny_model):
        refs = all_refs(tiny_model.config)[:3]
        cfg = self._config(sampler=Sampler("temperature", 1.3, seed=17))
        a = collect(tiny_model, cfg, refs)
        b = collect(tiny_model, cfg, refs)
        assert a.content_digest() == b.content_digest()

    def test_provenance_records_run_shape(self, tiny_model):
        calib = collect(tiny_model, self._config(), all_refs(tiny_model.config))
        p = calib.provenance
        assert p["mode"] == "rac"
        assert p["t_max"] == 8
        assert p["sampler"]["kind"] == "greedy"
        assert len(p["prompt_hashes"]) == 2
        assert p["trace_model_hash"] is None

    def test_config_validation(self, tiny_model):
        with pytest.raises(ValidationError):
            CalibrationConfig(mode="banana", prompts=PROMPTS)
        with pytest.raises(ValidationError):
            CalibrationConfig(mode="rac", prompts=PROMPTS, t_max=0)
        with pytest.raises(ValidationError):
            CalibrationConfig(mode="off_policy", prompts=PROMPTS, t_max=4)
        with pytest.raises(ValidationError):
            CalibrationConfig(mode="prompt_only", prompts=PROMPTS, token_budget=0)
        with pytest.raises(ValidationError, match="t_max must be >= 0, got -1"):
            CalibrationConfig(mode="prompt_only", prompts=PROMPTS, t_max=-1)
        for budget in (2.5, True, float("nan")):
            with pytest.raises(ValidationError, match="token_budget must be an integer"):
                CalibrationConfig(mode="prompt_only", prompts=PROMPTS, token_budget=budget)
        config = CalibrationConfig(mode="rac", prompts=PROMPTS, t_max=np.int64(4),
                                   token_budget=np.int64(5))
        assert type(config.t_max) is int and type(config.token_budget) is int
        with pytest.raises(ValidationError, match="takes no trace model"):
            CalibrationConfig(mode="rac", prompts=PROMPTS, t_max=4, trace_model=tiny_model)
        for mode in ("prompt_only", "corpus"):
            with pytest.raises(ValidationError, match="does not decode"):
                CalibrationConfig(mode=mode, prompts=PROMPTS, t_max=4)
            with pytest.raises(ValidationError, match="does not decode"):
                CalibrationConfig(mode=mode, prompts=PROMPTS,
                                  sampler=Sampler("temperature", 0.8))
        with pytest.raises(ValidationError, match="takes no prompts"):
            CalibrationConfig(mode="corpus", prompts=((1, 2),), token_budget=8)
        for mode, t_max in (("rac", 4), ("prompt_only", 0)):
            with pytest.raises(ValidationError, match="takes no corpus"):
                CalibrationConfig(mode=mode, prompts=PROMPTS, t_max=t_max,
                                  corpus=b"some bytes")

    @pytest.mark.parametrize("mode", MODES)
    def test_bad_ref_is_rejected_before_any_forward(self, tiny_model, mode, monkeypatch):
        """Every mode checks the refs against the target before its first
        forward; off_policy before the trace model's rollouts too."""
        for name in ("forward_teacher_forced", "rollouts"):
            monkeypatch.setattr(rackit.calibration, name,
                                lambda *args, **kwargs: pytest.fail("forward ran"))
        inputs = {"corpus": dict(corpus=b"some bytes", token_budget=8),
                  "prompt_only": dict(prompts=PROMPTS),
                  "rac": dict(prompts=PROMPTS, t_max=4),
                  "off_policy": dict(prompts=PROMPTS, t_max=4, trace_model=tiny_model)}
        ref = PrunableLayerRef(tiny_model.config.n_layers, "mlp_up")
        with pytest.raises(ValidationError, match="ref 2.mlp_up out of range for a 2-layer"):
            collect(tiny_model, CalibrationConfig(mode=mode, **inputs[mode]), [ref])

    @pytest.mark.parametrize("prompt, message", [
        ((1, 256), "token 256 outside byte vocabulary"),
        ((1, -1), "token -1 outside byte vocabulary"),
        ((1.5, 2), "token 1.5 is not an integer"),
    ])
    @pytest.mark.parametrize("mode", ["prompt_only", "rac"])
    def test_prompt_tokens_are_checked_before_hashing(self, tiny_model, prompt,
                                                      message, mode):
        config = CalibrationConfig(mode=mode, prompts=(prompt,),
                                   t_max=4 if mode == "rac" else 0)
        with pytest.raises(ValidationError, match=message):
            collect(tiny_model, config, all_refs(tiny_model.config))


class TestPool:
    """``collect`` folds Grams on a thread pool, one thread per usable CPU."""

    # Budgets that cut a sequence inside a phase: 5 inside the second
    # prompt, 10 inside the first rollout, 70 inside the second corpus chunk.
    @pytest.mark.parametrize("mode, budget", [
        ("corpus", None), ("corpus", 70), ("prompt_only", None), ("prompt_only", 5),
        ("rac", None), ("rac", 10), ("off_policy", None), ("off_policy", 10),
    ])
    def test_digest_does_not_depend_on_the_thread_count(self, tiny_model, monkeypatch,
                                                        mode, budget):
        inputs = {"corpus": dict(corpus=bytes(range(1, 101))),
                  "prompt_only": dict(prompts=PROMPTS),
                  "rac": dict(prompts=PROMPTS, t_max=16),
                  "off_policy": dict(prompts=PROMPTS, t_max=16,
                                     trace_model=generate_model(small_config(), seed=99))}
        config = CalibrationConfig(mode=mode, token_budget=budget, **inputs[mode])
        digests = set()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(rackit.calibration, "usable_cpus", lambda: cpus)
            digests.add(collect(tiny_model, config, all_refs(tiny_model.config))
                        .content_digest())
        assert len(digests) == 1

    def test_no_thread_is_left_after_a_return_or_a_raise(self, tiny_model, monkeypatch):
        config = CalibrationConfig(mode="rac", prompts=PROMPTS, t_max=8)
        monkeypatch.setattr(rackit.calibration, "usable_cpus", lambda: 3)
        before = threading.active_count()
        collect(tiny_model, config, all_refs(tiny_model.config))
        assert threading.active_count() == before
        nan_in_first_capture(monkeypatch)
        with pytest.raises(ValidationError):
            collect(tiny_model, replace(config, mode="prompt_only", t_max=0),
                    all_refs(tiny_model.config))
        assert threading.active_count() == before

    def test_a_non_finite_capture_raises_from_a_pool_thread(self, tiny_model,
                                                            monkeypatch):
        folded_in = set()
        real = rackit.calibration.accumulate_gram
        monkeypatch.setattr(rackit.calibration, "accumulate_gram",
                            lambda gram, cols: folded_in.add(threading.get_ident())
                            or real(gram, cols))
        nan_in_first_capture(monkeypatch)
        with pytest.raises(ValidationError, match="^column entries must be finite$"):
            _prompt_only(tiny_model, PROMPTS, all_refs(tiny_model.config))
        assert folded_in and threading.get_ident() not in folded_in

    def test_compress_model_still_forks_after_collect(self, tiny_model, monkeypatch,
                                                      tmp_path):
        """The pool's threads are joined, so ``compress_model`` does not fall
        back to solving in-process beside a second thread."""
        calib = collect(tiny_model, CalibrationConfig(mode="rac", prompts=PROMPTS, t_max=8),
                        all_refs(tiny_model.config))
        monkeypatch.setattr(compress_module, "usable_cpus", lambda: 2)
        pids = _record_calls(monkeypatch, "prune_obs", tmp_path / "pids.jsonl", os.getpid)
        compress_model(tiny_model, calib, "rac", "obs", SparsityPattern.unstructured(0.5))
        assert pids() and os.getpid() not in pids()


def _two_pass_oracle(target, config, refs):
    """Today's contract spelled out the slow way: per prompt, ``decode`` and
    then ``forward_teacher_forced`` of the whole sequence; columns go one by
    one through the per-column Gram update in order, all prompt columns
    first, then decode columns, until the token budget runs out."""
    source = config.trace_model or target
    sequences = []
    for m, prompt in enumerate(config.prompts):
        sampler = config.sampler
        if sampler.kind == "temperature":
            child = np.random.SeedSequence(sampler.seed, spawn_key=(m,))
            sampler = replace(sampler, seed=int(child.generate_state(1, np.uint64)[0]))
        full = decode(source, prompt, config.t_max, sampler)
        _, caps = forward_teacher_forced(target, full, refs)
        sequences.append((len(prompt), len(full), caps))
    left = config.token_budget or math.inf
    dest = CalibrationSet.empty(target.config, refs)
    for phase in ("prompt", "decode"):
        for boundary, length, caps in sequences:
            span = range(boundary) if phase == "prompt" else range(boundary, length)
            for t in span:
                if left == 0:
                    break
                left -= 1
                for r in refs:
                    st = dest.stats[r]
                    if phase == "prompt":
                        accumulate_gram_per_column(st.gram_prompt, caps[r][t])
                        st.n_prompt += 1
                    else:
                        accumulate_gram_per_column(st.gram_decode, caps[r][t])
                        st.n_decode += 1
    return dest


# content_digest of collect at t_max 16 over PROMPTS, computed before
# calibration moved to one pass per prompt.
_PINNED_DIGESTS = {
    ("rac", "greedy", None): "d0d187f11f018911db824e57326893aebfa595fa2f25b8176e5f8d2ba7ed34da",
    ("rac", "greedy", 5): "42b36c8555fd5f06f6d70925fc3c951306dcd7cc69c8fe609e3b463b3d9d1346",
    ("rac", "greedy", 10): "5c6ca8a84d4e11fd42c75bdaa3524b3d8d97f17f5823315beb6ad7c774dca31f",
    ("rac", "greedy", 30): "7ac7c63a45862c0797a2c0cde9cf3df7b775cccfb13354cc0d2d998e2366e810",
    ("rac", "temperature", None): "347528f8328c5eddfb307d51f647cbb215c5e8d331cdf08cfefc68266e2b4f61",
    ("rac", "temperature", 5): "42b36c8555fd5f06f6d70925fc3c951306dcd7cc69c8fe609e3b463b3d9d1346",
    ("rac", "temperature", 10): "d454dfd6bcaf44256956169dd4dbf66068e7995e895e498e98380271de4a6f9d",
    ("rac", "temperature", 30): "53fbf057e196f0254ac934d122257c98e6ad16737df1c939d654f67803f6f53e",
    ("off_policy", "greedy", None): "07dc971f6c8774e569523c81e4bfa30c23c6b76c539a51293d23546ad29164b5",
    ("off_policy", "greedy", 5): "42b36c8555fd5f06f6d70925fc3c951306dcd7cc69c8fe609e3b463b3d9d1346",
    ("off_policy", "greedy", 10): "68f22aa3c3720d008ad6fa04e935b45987af42317b5ed1236ee8a4e2fcde9f7d",
    ("off_policy", "greedy", 30): "e8cf22786de5e70551312ebb5b3a235d944cc454021580c808034244aff5d1da",
    ("off_policy", "temperature", None): "ab9621c5be4c3c49ef1461a0a9ee093c8346fb53dc7f1dc514416c85c3bc8298",
    ("off_policy", "temperature", 5): "42b36c8555fd5f06f6d70925fc3c951306dcd7cc69c8fe609e3b463b3d9d1346",
    ("off_policy", "temperature", 10): "14fe0da89bd9a29694d54d81af5865ece95072a1776f9ec1410221242d8e7c3c",
    ("off_policy", "temperature", 30): "af0d59d2ca06f452a6552c06e408952a79cba188dc8ed5848ed7d63774a456c0",
}

_SAMPLERS = {"greedy": GREEDY, "temperature": Sampler("temperature", 1.3, seed=17)}


class TestSinglePass:
    @pytest.mark.parametrize("budget", [None, 5, 10, 30])
    @pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
    @pytest.mark.parametrize("mode", ["rac", "off_policy"])
    def test_matches_two_pass_oracle_bit_for_bit(self, tiny_model, mode, sampler, budget):
        trace = generate_model(small_config(), seed=99) if mode == "off_policy" else None
        config = CalibrationConfig(mode=mode, prompts=PROMPTS, t_max=16,
                                   sampler=_SAMPLERS[sampler], trace_model=trace,
                                   token_budget=budget)
        refs = all_refs(tiny_model.config)
        got = collect(tiny_model, config, refs)
        want = _two_pass_oracle(tiny_model, config, refs)
        for r in refs:
            a, b = got.stats[r], want.stats[r]
            assert (a.n_prompt, a.n_decode) == (b.n_prompt, b.n_decode)
            assert np.array_equal(a.gram_prompt, b.gram_prompt), str(r)
            assert np.array_equal(a.gram_decode, b.gram_decode), str(r)
        assert got.content_digest() == _PINNED_DIGESTS[(mode, sampler, budget)]

    def test_width_one_past_a_strip_is_pinned(self):
        # Every slot width is 1 more than a multiple of the Gram kernel's
        # 8-row strip (9 and 33), the case that must not leave a 1x1 tile.
        model = generate_model(small_config(d_model=9, n_heads=3, d_mlp=33), seed=7)
        config = CalibrationConfig(mode="rac", prompts=PROMPTS, t_max=16)
        refs = all_refs(model.config)
        got = collect(model, config, refs)
        want = _two_pass_oracle(model, config, refs)
        for r in refs:
            assert np.array_equal(got.stats[r].gram_prompt,
                                  want.stats[r].gram_prompt), str(r)
            assert np.array_equal(got.stats[r].gram_decode,
                                  want.stats[r].gram_decode), str(r)
        # computed with one rank-1 update per column, before block updates
        assert got.content_digest() == (
            "91bec5e6b630e5dde085201ff50910c2bbad5abc8db9017adc8e339b2dd5add7")


# sha256 of the saved .racc of collect(corpus) over all refs of the tiny
# model, keyed by (stream length, token budget); the stream is
# default_rng(length).integers(0, 256, length). Computed with the separate
# corpus collector that corpus mode used to run.
_PINNED_CORPUS = {
    (500, 200): "0efeefb2394b7b5da69f27350efe776b5c463676c31e883e711d0f6c227a49c3",
    (130, 1000): "2540c46d25928d3ece059e95766509c7cc74baeaaa20dd6a2737a29fa9a56878",
    (64, None): "1b6ae64f6b5e00e7a95eb7c0e15206243796b18c1bd96b77b96e22eee1249a4e",
    (65, None): "fc507a50c4aa61885ccb2a69b4d001752dc842cf567909ff937bb30c18c5b85e",
    (300, 65): "716766df0c94d088b3b69101c6aaffef1c207329bb7ccab447e4ae3e1db1cf93",
    (1, None): "2d405560823b988c2de3ea00b7d89b187947a0eb962ea23c7add5bc7eebc3e9f",
    (128, 128): "cb273135ec40d83c075a58d6f228e9eb532fbcbbaf311d0bfb0426a7246ab93a",
}


class TestCorpus:
    @pytest.mark.parametrize("length, budget", sorted(_PINNED_CORPUS, key=str))
    def test_saved_bytes_are_pinned(self, tiny_model, tmp_path, length, budget):
        data = bytes(np.random.default_rng(length).integers(0, 256, size=length).tolist())
        calib = _corpus(tiny_model, data, all_refs(tiny_model.config), budget)
        calib.save(tmp_path / "c.racc")
        digest = hashlib.sha256((tmp_path / "c.racc").read_bytes()).hexdigest()
        assert digest == _PINNED_CORPUS[(length, budget)]
        assert calib.provenance["prompt_hashes"] == []

    def test_budget_arithmetic_is_exact(self, tiny_model, rng):
        data = bytes(rng.integers(1, 256, size=500).tolist())
        refs = all_refs(tiny_model.config)[:2]
        calib = _corpus(tiny_model, data, refs, token_budget=200)
        st = calib.stats[refs[0]]
        assert st.n_prompt == 200
        assert st.n_decode == 0

        # chunk boundaries: positions table is 64 wide
        chunks = [list(data[0:64]), list(data[64:128]),
                  list(data[128:192]), list(data[192:200])]
        want = _materialized_gram(tiny_model, chunks, refs[0])
        np.testing.assert_allclose(st.gram_prompt, want, atol=1e-10)

    def test_short_stream_warns_and_keeps_what_it_has(self, tiny_model, rng, caplog):
        data = bytes(rng.integers(1, 256, size=130).tolist())
        refs = all_refs(tiny_model.config)[:1]
        with caplog.at_level(logging.WARNING):
            calib = _corpus(tiny_model, data, refs, token_budget=1000)
        assert calib.stats[refs[0]].n_prompt == 130
        assert calib.provenance["warnings"] == [
            "corpus exhausted after 130 of 1000 requested columns"]
        assert any("130" in r.message for r in caplog.records)

    def test_empty_stream_rejected(self, tiny_model):
        with pytest.raises(ValidationError):
            _corpus(tiny_model, b"", all_refs(tiny_model.config), 10)
        with pytest.raises(ValidationError):
            _corpus(tiny_model, None, all_refs(tiny_model.config), 10)

    def test_collect_mode_corpus_round_trip(self, tiny_model, rng):
        data = bytes(rng.integers(1, 256, size=100).tolist())
        cfg = CalibrationConfig(mode="corpus", corpus=data, token_budget=80)
        calib = collect(tiny_model, cfg, all_refs(tiny_model.config)[:1])
        assert calib.provenance["mode"] == "corpus"
        assert calib.stats[calib.refs[0]].n_prompt == 80


class TestMergedGram:
    def test_ref_the_set_lacks_rejected(self, tiny_model):
        refs = all_refs(tiny_model.config)
        calib = CalibrationSet.empty(tiny_model.config, refs[:1])
        with pytest.raises(ValidationError, match=f"ref {refs[1]} not present"):
            merged_gram(calib, refs[1])
        with pytest.raises(ValidationError, match="calibration needs at least one ref"):
            CalibrationSet.empty(tiny_model.config, [])

    def test_is_elementwise_sum_of_phases(self, tiny_model):
        refs = all_refs(tiny_model.config)
        calib = collect(tiny_model,
                        CalibrationConfig(mode="rac", prompts=PROMPTS, t_max=8),
                        refs)
        for r in refs:
            st = calib.stats[r]
            assert np.array_equal(merged_gram(calib, r),
                                  st.gram_prompt + st.gram_decode)

    def test_prompt_only_merge_equals_prompt_gram(self, tiny_model):
        refs = all_refs(tiny_model.config)[:1]
        calib = collect(tiny_model,
                        CalibrationConfig(mode="prompt_only", prompts=PROMPTS),
                        refs)
        assert np.array_equal(merged_gram(calib, refs[0]),
                              calib.stats[refs[0]].gram_prompt)


class TestBatchAdditivity:
    def test_split_collection_sums_to_joint(self, tiny_model):
        refs = all_refs(tiny_model.config)
        joint = _prompt_only(tiny_model, PROMPTS, refs)
        first = _prompt_only(tiny_model, [PROMPTS[0]], refs)
        second = _prompt_only(tiny_model, [PROMPTS[1]], refs)
        for r in refs:
            assert first.stats[r].n_prompt + second.stats[r].n_prompt == \
                joint.stats[r].n_prompt
            np.testing.assert_allclose(
                first.stats[r].gram_prompt + second.stats[r].gram_prompt,
                joint.stats[r].gram_prompt, rtol=1e-12, atol=1e-12)


class TestContainerRoundTrip:
    def test_save_load_preserves_everything(self, tiny_model, tmp_path):
        refs = all_refs(tiny_model.config)
        calib = collect(tiny_model,
                        CalibrationConfig(mode="rac", prompts=PROMPTS, t_max=8),
                        refs)
        path = tmp_path / "c.racc"
        calib.save(path)
        loaded = CalibrationSet.load(path)
        assert loaded.content_digest() == calib.content_digest()
        assert loaded.provenance == calib.provenance
        assert loaded.refs == calib.refs
        for r in refs:
            assert np.array_equal(loaded.stats[r].gram_prompt,
                                  calib.stats[r].gram_prompt)
            assert np.array_equal(loaded.stats[r].gram_decode,
                                  calib.stats[r].gram_decode)
            assert loaded.stats[r].n_prompt == calib.stats[r].n_prompt
            assert loaded.stats[r].n_decode == calib.stats[r].n_decode

    def test_resave_is_byte_identical(self, tiny_model, tmp_path):
        calib = _prompt_only(tiny_model, PROMPTS, all_refs(tiny_model.config)[:2])
        p1, p2 = tmp_path / "a.racc", tmp_path / "b.racc"
        calib.save(p1)
        CalibrationSet.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tiny_model, tmp_path):
        calib = _prompt_only(tiny_model, PROMPTS, all_refs(tiny_model.config)[:1])
        path = tmp_path / "c.racc"
        calib.save(path)
        blob = bytearray(path.read_bytes())
        blob[1] ^= 0x55
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError):
            CalibrationSet.load(path)

    def test_digest_ignores_provenance(self, tiny_model):
        calib = _prompt_only(tiny_model, PROMPTS, all_refs(tiny_model.config)[:1])
        before = calib.content_digest()
        calib.provenance["mode"] = "relabeled"
        assert calib.content_digest() == before


def _wide_set(dim=256, count=4) -> CalibrationSet:
    """A set of ``count`` refs with ``dim``-wide random Grams, 4 MiB in all at
    the defaults."""
    rng = np.random.default_rng(3)
    stats = {}
    for layer in range(count):
        grams = []
        for _ in range(2):
            X = rng.standard_normal((dim, dim))
            grams.append(X @ X.T)
        stats[PrunableLayerRef(layer, "attn_q")] = LayerStats(*grams, dim, dim)
    return CalibrationSet(stats, {"mode": "rac"})


def _peak_allocation(call) -> int:
    """Bytes allocated at the peak of ``call()`` beyond what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestContainerMemory:
    """The writer streams each Gram into the file and the reader reads the
    blob once, into one aligned buffer: neither holds the payload twice."""

    def test_save_allocates_a_fraction_of_the_grams(self, tmp_path):
        calib = _wide_set()
        gram_bytes = sum(g.nbytes for st in calib.stats.values()
                         for g in (st.gram_prompt, st.gram_decode))
        peak = _peak_allocation(lambda: calib.save(tmp_path / "c.racc"))
        assert peak < 0.25 * gram_bytes

    def test_load_allocates_little_more_than_the_file(self, tmp_path):
        path = tmp_path / "c.racc"
        _wide_set().save(path)
        peak = _peak_allocation(lambda: CalibrationSet.load(path))
        assert peak < 1.25 * path.stat().st_size

    def test_loaded_grams_are_aligned_writable_and_separate(self, tmp_path):
        path = tmp_path / "c.racc"
        calib = _wide_set(dim=24, count=3)
        calib.save(path)
        loaded = CalibrationSet.load(path)
        grams = [g for st in loaded.stats.values() for g in (st.gram_prompt, st.gram_decode)]
        for gram in grams:
            assert gram.flags.aligned and gram.flags.c_contiguous and gram.flags.writeable
        grams[2][...] = -1.0
        assert (grams[2] == -1.0).all()
        originals = [g for st in calib.stats.values() for g in (st.gram_prompt, st.gram_decode)]
        for i, (gram, original) in enumerate(zip(grams, originals)):
            if i != 2:
                assert np.array_equal(gram, original), i

    def test_short_read_is_a_container_error(self, tmp_path, monkeypatch):
        """The reader parses no part of a blob that came up short: here the
        file looks 8 bytes longer than it is."""
        path = tmp_path / "c.racc"
        _wide_set(dim=8, count=1).save(path)
        real = os.fstat

        def fstat(fd):
            stat = real(fd)
            return os.stat_result((*stat[:6], stat.st_size + 8, *stat[7:]))

        monkeypatch.setattr(os, "fstat", fstat)
        with pytest.raises(ContainerError, match="data blob is .* bytes, expected"):
            CalibrationSet.load(path)


class TestPromptFile:
    def test_lines_become_byte_prompts(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("Hi\n\nabc\n", encoding="utf-8")
        assert load_prompt_file(f) == [[72, 105], [97, 98, 99]]

    def test_non_ascii_uses_utf8_bytes(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("é\n", encoding="utf-8")
        assert load_prompt_file(f) == [[195, 169]]

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_prompt_file(f)
