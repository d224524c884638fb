import dataclasses
import hashlib
import os
import sys
import tracemalloc
import types

import numpy as np
import pytest
import scipy.special

from rackit.cli import main as cli_main
from rackit.errors import ContainerError, NumericalError, ValidationError
from rackit.model import (
    GREEDY,
    ModelConfig,
    PrunableLayerRef,
    Sampler,
    all_refs,
    apply_compressed,
    decode,
    forward_teacher_forced,
    generate_model,
    get_weight,
    last_layer_states,
    load_model,
    model_content_hash,
    named_tensors,
    parse_ref,
    rollout,
    rollouts,
    save_model,
    sort_refs,
)
from rackit.model import runtime

from .helpers import CLI_PROBE, fresh_python, random_prompts, small_config
from .oracle import reference_forward, stepwise_run, uncached_greedy_decode


class TestConfig:
    def test_head_split_must_divide(self):
        with pytest.raises(ValidationError):
            small_config(d_model=8, n_heads=3)

    def test_vocab_is_fixed_to_bytes(self):
        with pytest.raises(ValidationError):
            ModelConfig(d_model=8, n_layers=1, n_heads=1, d_mlp=16,
                        max_positions=8, vocab_size=255)

    def test_dims_positive(self):
        with pytest.raises(ValidationError):
            small_config(d_mlp=0)
        with pytest.raises(ValidationError):
            small_config(n_layers=0)

    @pytest.mark.parametrize("eps", [0.0, -1e-5, float("nan"), float("inf")])
    def test_layernorm_epsilon_finite_and_positive(self, eps):
        with pytest.raises(ValidationError):
            small_config(layernorm_epsilon=eps)


class TestGenerate:
    def test_same_seed_same_weights(self):
        cfg = small_config()
        a = generate_model(cfg, seed=5)
        b = generate_model(cfg, seed=5)
        for (name_a, ta), (name_b, tb) in zip(named_tensors(a), named_tensors(b)):
            assert name_a == name_b
            assert np.array_equal(ta, tb), name_a

    def test_different_seeds_give_different_weights(self):
        cfg = small_config(d_model=32, max_positions=128)
        a = generate_model(cfg, seed=1)
        b = generate_model(cfg, seed=2)
        flat_a = np.concatenate([t.ravel() for _, t in named_tensors(a)])
        flat_b = np.concatenate([t.ravel() for _, t in named_tensors(b)])
        # norm gains/biases are fixed constants; everything random must move
        differing = np.mean(flat_a != flat_b)
        assert differing > 0.97

    def test_weights_survive_f32_round_trip(self):
        m = generate_model(small_config(), seed=9)
        for name, t in named_tensors(m):
            assert np.array_equal(t, t.astype(np.float32).astype(np.float64)), name

    def test_provenance_records_seed(self):
        m = generate_model(small_config(), seed=40)
        assert m.provenance == {"kind": "random", "seed": 40}

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            generate_model(small_config(), seed=-1)


class TestRefs:
    def test_parse_round_trip(self):
        for ref in all_refs(small_config()):
            assert parse_ref(str(ref)) == ref

    def test_parse_rejects_garbage(self):
        for bad in ("", "1", "x.attn_q", "0.nonsense", "0.attn_q.extra"):
            with pytest.raises(ValidationError):
                parse_ref(bad)
        with pytest.raises(ValidationError, match="layer_index must be >= 0, got -1"):
            parse_ref("-1.attn_q")

    def test_sort_refs_canonical_order(self):
        shuffled = [
            PrunableLayerRef(1, "mlp_down"),
            PrunableLayerRef(0, "attn_v"),
            PrunableLayerRef(1, "attn_q"),
            PrunableLayerRef(0, "attn_q"),
        ]
        ordered = sort_refs(shuffled)
        assert [str(r) for r in ordered] == [
            "0.attn_q", "0.attn_v", "1.attn_q", "1.mlp_down",
        ]


class TestForward:
    def test_matches_vectorized_reference(self, tiny_model, rng):
        tokens = [int(t) for t in rng.integers(1, 256, size=12)]
        refs = all_refs(tiny_model.config)
        logits, caps = forward_teacher_forced(tiny_model, tokens, capture=refs)
        ref_logits, ref_hidden, ref_caps = reference_forward(
            tiny_model, tokens, refs)
        np.testing.assert_allclose(logits, ref_logits, atol=1e-9)
        np.testing.assert_allclose(
            last_layer_states(tiny_model, tokens), ref_hidden, atol=1e-9)
        assert set(caps) == set(ref_caps)
        for r in refs:
            assert caps[r].shape == ref_caps[r].shape
            np.testing.assert_allclose(caps[r], ref_caps[r], atol=1e-9, err_msg=str(r))

    def test_capture_feeds_the_right_matrix(self, tiny_model, rng):
        # the mlp_down capture must equal gelu(W_up @ mlp_up capture)
        tokens = [int(t) for t in rng.integers(1, 256, size=6)]
        refs = [PrunableLayerRef(0, "mlp_up"), PrunableLayerRef(0, "mlp_down")]
        _, caps = forward_teacher_forced(tiny_model, tokens, capture=refs)
        up_in = caps[PrunableLayerRef(0, "mlp_up")]
        from scipy.special import erf
        pre = up_in @ tiny_model.layers[0].mlp_up.T
        expected = 0.5 * pre * (1.0 + erf(pre / np.sqrt(2.0)))
        np.testing.assert_allclose(
            caps[PrunableLayerRef(0, "mlp_down")], expected, atol=1e-12)

    def test_causality_is_bit_exact(self, tiny_model, rng):
        base = [int(t) for t in rng.integers(1, 256, size=10)]
        changed = list(base)
        changed[-1] = (changed[-1] + 7) % 256
        la, _ = forward_teacher_forced(tiny_model, base)
        lb, _ = forward_teacher_forced(tiny_model, changed)
        assert np.array_equal(la[:-1], lb[:-1])
        assert not np.array_equal(la[-1], lb[-1])

    def test_rejects_bad_tokens_and_lengths(self, tiny_model):
        with pytest.raises(ValidationError):
            forward_teacher_forced(tiny_model, [])
        outside, fractional = "outside byte vocabulary", "is not an integer"
        for bad, message in (([256], outside), ([1, -1, 3], outside),
                             ([1, 2, 256], outside), ([1.5, 2], fractional),
                             ([1, np.nan], fractional), (["1"], fractional),
                             (7, "tokens must be iterable")):
            with pytest.raises(ValidationError, match=message):
                forward_teacher_forced(tiny_model, bad)
            with pytest.raises(ValidationError, match=message):
                last_layer_states(tiny_model, bad)
            with pytest.raises(ValidationError, match=message):
                decode(tiny_model, bad, 2)
        too_long = [1] * (tiny_model.config.max_positions + 1)
        with pytest.raises(ValidationError):
            forward_teacher_forced(tiny_model, too_long)
        for bad in (2.5, "3", True):
            with pytest.raises(ValidationError, match="max_new must be an integer"):
                decode(tiny_model, [1, 2], bad)
            with pytest.raises(ValidationError, match="max_new must be an integer"):
                rollouts(tiny_model, [[1, 2]], bad)


class TestErf:
    """GELU's erf is scipy's ufunc, loaded without importing scipy.special."""

    @pytest.mark.parametrize("first", ["rackit", "scipy.special"])
    def test_is_scipy_special_erf_in_either_import_order(self, first):
        probe = fresh_python(f"""
            import importlib, json, sys
            importlib.import_module({first!r})
            from rackit.model import runtime
            erf = runtime._erf()
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            import scipy.special
            print(json.dumps({{"same": erf is scipy.special.erf, "loaded": loaded}}))
        """)
        assert probe["same"]
        if first == "rackit":
            assert probe["loaded"] == ["scipy.special._special_ufuncs"]

    @pytest.mark.parametrize("module", [None, types.ModuleType("no_erf")],
                             ids=["extension-missing", "extension-without-erf"])
    def test_falls_back_to_scipy_special(self, monkeypatch, module):
        lookups = []
        monkeypatch.setattr(runtime, "_scipy_module",
                            lambda *parts: lookups.append(parts) or module)
        runtime._erf.cache_clear()
        try:
            assert runtime._erf() is scipy.special.erf
        finally:
            runtime._erf.cache_clear()
        assert lookups == [("special", "_special_ufuncs")]

    def test_forward_commands_load_only_the_erf_extension(self, tmp_path, monkeypatch):
        """calibrate and diagnose in a fresh interpreter load one scipy module,
        eval also scipy's LAPACK extension for its OpenBLAS thread pin, and
        all write the bytes of a process where scipy.special is loaded."""
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        (here / "prompts.txt").write_text("Hello there\nGeneral case\n")
        (here / "text.bin").write_bytes(bytes(1 + i % 255 for i in range(300)))
        monkeypatch.chdir(here)
        assert cli_main(["gen-model", "--d-model", "16", "--layers", "1", "--heads", "2",
                         "--max-positions", "64", "--seed", "5", "--out", "m.tmc"]) == 0
        calibrate = ["calibrate", "--model", "m.tmc", "--mode", "rac", "--prompts",
                     "prompts.txt", "--t-max", "8", "--out", "c.racc"]
        assert cli_main(calibrate) == 0
        assert cli_main(["prune", "--model", "m.tmc", "--calib", "c.racc", "--method",
                         "obs", "--sparsity", "0.5", "--out", "p.tmc"]) == 0
        for name in ("m.tmc", "p.tmc", "prompts.txt", "text.bin"):
            (fresh / name).write_bytes((here / name).read_bytes())
        diagnose = ["diagnose", "--dense", "m.tmc", "--compressed", "p.tmc",
                    "--prompts", "prompts.txt", "--t-max", "8", "--out-dir", "diag"]
        evaluate = ["eval", "--model", "p.tmc", "--text", "text.bin", "--budget", "200",
                    "--out", "eval.json"]
        assert cli_main(diagnose) == 0
        assert cli_main(evaluate) == 0
        assert "scipy.special" in sys.modules

        probe = fresh_python(CLI_PROBE, *calibrate, "--", *diagnose, cwd=fresh)
        assert probe["codes"] == [0, 0]
        assert probe["scipy_modules"] == ["scipy.special._special_ufuncs"]
        probe = fresh_python(CLI_PROBE, *evaluate, cwd=fresh)
        assert probe["codes"] == [0]
        assert probe["scipy_modules"] == ["scipy.linalg._flapack",
                                          "scipy.special._special_ufuncs"]
        for name in ("c.racc", "diag/errors.csv", "diag/summary.json", "eval.json"):
            assert (fresh / name).read_bytes() == (here / name).read_bytes(), name


def _c06_shaped_model():
    cfg = ModelConfig(d_model=64, n_layers=4, n_heads=4, d_mlp=256,
                      max_positions=192)
    return generate_model(cfg, seed=6000)


@pytest.fixture(scope="module", params=["tiny", "c06"])
def oracle_model(request, tiny_model):
    return tiny_model if request.param == "tiny" else _c06_shaped_model()


class TestStepwiseOracle:
    """The runtime against the one-token driver it replaced (tests/oracle.py).

    Captures, prompt prefills and rollouts go through prefix-stable chunks
    and must keep the oracle's bits at every chunk length. Whole sequences
    that are only scored go through one plain chunk and may round
    differently, within 1e-12 of the largest magnitude.
    """

    @pytest.mark.parametrize("length", [1, 2, 17, "max"])
    def test_whole_sequence_within_tolerance(self, oracle_model, length, rng):
        cfg = oracle_model.config
        n = cfg.max_positions if length == "max" else length
        tokens = [int(t) for t in rng.integers(0, 256, size=n)]
        _, want_logits, want_hidden, _ = stepwise_run(oracle_model, tokens)
        logits, _ = forward_teacher_forced(oracle_model, tokens)
        hidden = last_layer_states(oracle_model, tokens)
        for got, want in ((logits, want_logits), (hidden, want_hidden)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_captured_forward_is_bit_exact(self, oracle_model, rng):
        refs = all_refs(oracle_model.config)
        tokens = [int(t) for t in rng.integers(0, 256, size=40)]
        _, want_logits, _, want_caps = stepwise_run(oracle_model, tokens, refs)
        logits, caps = forward_teacher_forced(oracle_model, tokens, refs)
        assert np.array_equal(logits, want_logits)
        for r in refs:
            assert np.array_equal(caps[r], want_caps[r]), str(r)

    @pytest.mark.parametrize("length", [1, 2, 17, "max"])
    def test_captured_chunk_is_bit_exact(self, oracle_model, length, rng):
        refs = all_refs(oracle_model.config)
        n = oracle_model.config.max_positions if length == "max" else length
        tokens = [int(t) for t in rng.integers(0, 256, size=n)]
        _, want_logits, _, want_caps = stepwise_run(oracle_model, tokens, refs)
        logits, caps = forward_teacher_forced(oracle_model, tokens, refs)
        assert np.array_equal(logits, want_logits)
        for r in refs:
            assert np.array_equal(caps[r], want_caps[r]), str(r)

    def test_captured_chunk_is_prefix_stable(self, oracle_model, rng):
        refs = all_refs(oracle_model.config)
        n = min(160, oracle_model.config.max_positions)
        tokens = [int(t) for t in rng.integers(0, 256, size=n)]
        long_logits, long_caps = forward_teacher_forced(oracle_model, tokens, refs)
        logits, caps = forward_teacher_forced(oracle_model, tokens[:40], refs)
        assert np.array_equal(logits, long_logits[:40])
        for r in refs:
            assert np.array_equal(caps[r], long_caps[r][:40]), str(r)

    @pytest.mark.parametrize("sampler", [GREEDY, Sampler("temperature", 1.5, seed=5)])
    def test_long_prompt_decode_and_rollout_are_bit_exact(self, oracle_model, sampler, rng):
        refs = all_refs(oracle_model.config)
        max_new = 16
        n = oracle_model.config.max_positions - max_new
        prompt = [int(t) for t in rng.integers(1, 256, size=n)]
        want_tokens = stepwise_run(oracle_model, prompt, (), max_new, sampler)[0]
        assert decode(oracle_model, prompt, max_new, sampler) == want_tokens
        want_tokens, _, _, want_caps = stepwise_run(
            oracle_model, prompt, refs, max_new, sampler)
        tokens, caps = rollout(oracle_model, prompt, max_new, sampler, refs)
        assert tokens == want_tokens
        for r in refs:
            assert np.array_equal(caps[r], want_caps[r]), str(r)

    @pytest.mark.parametrize("sampler", [GREEDY, Sampler("temperature", 1.5, seed=5)])
    def test_decode_and_rollout_are_bit_exact(self, oracle_model, sampler, rng):
        refs = all_refs(oracle_model.config)
        prompt = [int(t) for t in rng.integers(1, 256, size=9)]
        want_tokens = stepwise_run(oracle_model, prompt, (), 50, sampler)[0]
        assert decode(oracle_model, prompt, 50, sampler) == want_tokens
        want_tokens, _, _, want_caps = stepwise_run(
            oracle_model, prompt, refs, 50, sampler)
        tokens, caps = rollout(oracle_model, prompt, 50, sampler, refs)
        assert tokens == want_tokens
        for r in refs:
            assert np.array_equal(caps[r], want_caps[r]), str(r)


def _assert_runs_equal(got, want):
    tokens, captures = got
    assert tokens == want[0]
    assert captures.keys() == want[1].keys()
    for r in captures:
        assert np.array_equal(captures[r], want[1][r]), str(r)


def _one_batch(model, prompts, refs=(), max_new=0, samplers=None):
    """The prompts as one lockstep batch, after the runtime's input checks."""
    return runtime._lockstep(model, *runtime._check_run(model, prompts, refs, max_new, samplers))


# Model seed 1 at the small shape: greedy rollouts of these prompts stop on the
# stop byte after 13, 20 and 5 new tokens, and the second runs to 40.
_STOPPING_SEED = 1
_STOPPING_LENGTHS = (3, 7, 12, 5)


class TestLockstep:
    """A lockstep batch against one rollout per prompt, bit for bit."""

    def _check(self, model, prompts, max_new, samplers, refs):
        got = _one_batch(model, prompts, refs, max_new, samplers)
        assert len(got) == len(prompts)
        for j, prompt in enumerate(prompts):
            want = rollout(model, prompt, max_new, samplers[j], refs)
            _assert_runs_equal(got[j], want)
        return got

    @pytest.mark.parametrize("capture", [False, True])
    def test_mixed_prompt_lengths(self, oracle_model, capture, rng):
        lengths = (1, 9, 4, 17)
        prompts = [[int(t) for t in rng.integers(1, 256, size=n)] for n in lengths]
        refs = all_refs(oracle_model.config) if capture else ()
        self._check(oracle_model, prompts, 24, [GREEDY] * 4, refs)

    @pytest.mark.parametrize("capture", [False, True])
    def test_stop_byte_in_mid_batch(self, capture):
        model = generate_model(small_config(), seed=_STOPPING_SEED)
        rng = np.random.default_rng(1)
        prompts = [[int(t) for t in rng.integers(1, 256, size=n)] for n in _STOPPING_LENGTHS]
        refs = all_refs(model.config) if capture else ()
        got = self._check(model, prompts, 40, [GREEDY] * 4, refs)
        generated = [len(tokens) - len(p) for (tokens, _), p in zip(got, prompts)]
        assert generated == [40, 13, 20, 5]
        assert [tokens[-1] for tokens, _ in got][1:] == [0, 0, 0]
        for tokens, captures in got:
            for rows in captures.values():
                assert len(rows) == len(tokens)

    def test_temperature_samplers_per_prompt(self, oracle_model, rng):
        prompts = random_prompts(rng, 5, min_len=2, max_len=11)
        samplers = [Sampler("temperature", 1.5, seed=s) for s in (5, 6, 7, 8, 9)]
        self._check(oracle_model, prompts, 20, samplers, all_refs(oracle_model.config))

    def test_only_scored_batch_is_stable(self, tiny_model, rng):
        # Several sequences never share plain matrix products, whose rows
        # could round by the batch they are in.
        refs = all_refs(tiny_model.config)
        prompts = random_prompts(rng, 3, min_len=5, max_len=30)
        got = _one_batch(tiny_model, prompts, refs)
        for (tokens, captures), prompt in zip(got, prompts):
            want_captures = stepwise_run(tiny_model, prompt, refs)[3]
            assert tokens == prompt
            for r in refs:
                assert np.array_equal(captures[r], want_captures[r]), str(r)

    @pytest.mark.parametrize("limit", [1, 2, None])
    def test_rollouts_equal_rollout_at_every_batch_size(self, tiny_model, limit,
                                                        monkeypatch, rng):
        refs = all_refs(tiny_model.config)
        prompts = random_prompts(rng, 5, min_len=2, max_len=9)
        samplers = [Sampler("temperature", 1.3, seed=s) for s in range(5)]
        if limit is not None:
            # room for exactly ``limit`` sequences per lockstep batch
            positions = max(map(len, prompts)) + 12
            size = runtime._LOCKSTEP_BYTES // runtime._lockstep_width(
                tiny_model.config, positions, refs)
            monkeypatch.setattr(runtime, "_LOCKSTEP_BYTES", limit * size)
            assert runtime._lockstep_width(tiny_model.config, positions, refs) == limit
        got = list(rollouts(tiny_model, prompts, 12, samplers, refs))
        assert len(got) == len(prompts)
        for (tokens, captures), prompt, sampler in zip(got, prompts, samplers):
            want_tokens, want_captures = rollout(tiny_model, prompt, 12, sampler, refs)
            assert tokens == want_tokens
            for r in refs:
                assert np.array_equal(captures[r], want_captures[r]), str(r)

    def test_rollouts_check_every_input_before_running(self, tiny_model):
        for prompts, max_new, samplers, message in (
                ([[1, 2], [3, 256]], 4, None, "outside byte vocabulary"),
                ([[1, 2], []], 4, None, "nonempty"),
                ([[1, 2], [1] * 60], 8, None, "exceeds max_positions"),
                ([[1, 2], [3]], 4, [GREEDY], "1 samplers for 2 prompts")):
            with pytest.raises(ValidationError, match=message):
                rollouts(tiny_model, prompts, max_new, samplers)

    def test_captured_batch_at_the_c06_shape_holds_four(self):
        # calibrate's peak RSS on the rac-c06 benchmark was measured at this size
        model = _c06_shaped_model()
        assert runtime._lockstep_width(model.config, 32 + 128, all_refs(model.config)) == 4


class TestSharedCaptures:
    """Refs that read one activation get the same array object, since
    calibration computes one Gram per capture object it sees."""

    @pytest.mark.parametrize("entry", ["forward_teacher_forced", "rollout", "rollouts"])
    def test_q_k_v_share_one_array_per_layer(self, tiny_model, entry):
        refs = all_refs(tiny_model.config)
        prompts = [[3, 1, 4], [1, 5, 9, 2, 6]]
        if entry == "forward_teacher_forced":
            runs = [forward_teacher_forced(tiny_model, p, refs)[1] for p in prompts]
        elif entry == "rollout":
            runs = [rollout(tiny_model, p, 6, GREEDY, refs)[1] for p in prompts]
        else:
            runs = [captures for _, captures in rollouts(tiny_model, prompts, 6, None, refs)]
        for captures in runs:
            for layer in range(tiny_model.config.n_layers):
                q, k, v, up = (captures[PrunableLayerRef(layer, slot)]
                               for slot in ("attn_q", "attn_k", "attn_v", "mlp_up"))
                assert q is k and k is v, layer
                assert up is not q, layer


class TestAttendLayout:
    """The stable attention path keeps a one-query step's bits because einsum
    lays the scores out with p outside h, so softmax sums over p in cache
    order and the masked future adds exact zeros at the end."""

    @pytest.mark.parametrize("batch", [1, 3])
    def test_einsum_puts_cache_positions_outside_heads(self, batch):
        cache = np.random.default_rng(2).standard_normal((batch, 64, 4, 16))
        q = np.random.default_rng(3).standard_normal((batch, 5, 4, 16))
        scores = np.einsum("bphd,bthd->bthp", cache[:, :30], q)
        assert scores.shape == (batch, 5, 4, 30)
        assert scores.strides[3] > scores.strides[2]

    def test_block_rows_equal_one_query_steps(self):
        rng = np.random.default_rng(4)
        b, t, p, heads, hd = 3, 6, 40, 4, 16
        cache_k = rng.standard_normal((b, 64, heads, hd))
        cache_v = rng.standard_normal((b, 64, heads, hd))
        q = rng.standard_normal((b, t, heads, hd))
        block = runtime._attend(q, cache_k[:, :p], cache_v[:, :p], 0.25, True)
        for i in range(t):
            end = p - t + i + 1
            for j in range(b):
                one = runtime._attend(q[j : j + 1, i : i + 1], cache_k[j : j + 1, :end],
                                      cache_v[j : j + 1, :end], 0.25, True)
                assert np.array_equal(block[j, i], one[0, 0]), (i, j)


class TestDecode:
    def test_cached_decode_matches_uncached_reference(self, rng):
        m = generate_model(small_config(), seed=21)
        prompt = [int(t) for t in rng.integers(1, 256, size=5)]
        got = decode(m, prompt, 20, GREEDY)
        want = uncached_greedy_decode(m, prompt, 20)
        assert got == want

    def test_stop_byte_ends_generation(self, tiny_model):
        forced = dataclasses.replace(
            tiny_model,
            output_projection=np.zeros_like(tiny_model.output_projection),
        )
        out = decode(forced, [5, 6], 10, GREEDY)
        # all-zero logits tie-break to token 0, which is the stop byte
        assert out == [5, 6, 0]

    def test_zero_budget_returns_prompt(self, tiny_model):
        assert decode(tiny_model, [9, 8, 7], 0, GREEDY) == [9, 8, 7]

    def test_budget_respected(self, tiny_model):
        out = decode(tiny_model, [3, 1], 4, GREEDY)
        assert len(out) <= 6
        assert out[:2] == [3, 1]

    def test_position_overflow_rejected(self, tiny_model):
        cap = tiny_model.config.max_positions
        with pytest.raises(ValidationError):
            decode(tiny_model, [1] * 10, cap - 9, GREEDY)

    def test_temperature_sampling_is_seed_deterministic(self, tiny_model):
        s = Sampler(kind="temperature", temperature=1.5, seed=123)
        a = decode(tiny_model, [4, 4], 12, s)
        b = decode(tiny_model, [4, 4], 12, s)
        assert a == b

    @pytest.mark.parametrize("sampler", [GREEDY, Sampler("temperature", 1.5, seed=5)])
    def test_rollout_captures_equal_teacher_forced_replay(self, tiny_model, sampler):
        refs = all_refs(tiny_model.config)
        tokens, caps = rollout(tiny_model, [4, 9, 2], 12, sampler, refs)
        assert tokens == decode(tiny_model, [4, 9, 2], 12, sampler)
        _, replay = forward_teacher_forced(tiny_model, tokens, refs)
        for r in refs:
            assert caps[r].shape[0] == len(tokens)
            assert np.array_equal(caps[r], replay[r]), str(r)

    def test_rollout_captures_the_stop_byte(self, tiny_model):
        forced = dataclasses.replace(
            tiny_model,
            output_projection=np.zeros_like(tiny_model.output_projection),
        )
        ref = PrunableLayerRef(0, "attn_q")
        tokens, caps = rollout(forced, [5, 6], 10, GREEDY, [ref])
        assert tokens == [5, 6, 0]
        assert np.array_equal(caps[ref], forward_teacher_forced(forced, tokens, [ref])[1][ref])

    def test_overflowing_temperature_is_a_numerical_error(self, tiny_model):
        """Logits over a tiny temperature overflow; numpy would sample from NaN."""
        sampler = Sampler("temperature", 1e-308)
        with pytest.raises(NumericalError, match="logits overflow at temperature 1e-308"):
            list(rollouts(tiny_model, [[1, 2, 3]], 4, [sampler]))

    def test_sampler_validation(self):
        with pytest.raises(ValidationError):
            Sampler(kind="nucleus")
        with pytest.raises(ValidationError):
            Sampler(kind="temperature", temperature=0.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="finite and positive"):
                Sampler(kind="temperature", temperature=bad)
        for kind in ("greedy", "temperature"):
            with pytest.raises(ValidationError, match="seed must be >= 0"):
                Sampler(kind=kind, seed=-5)


class TestApplyCompressed:
    def test_swaps_exactly_one_tensor(self, tiny_model):
        ref = PrunableLayerRef(1, "mlp_up")
        new = np.zeros_like(get_weight(tiny_model, ref))
        swapped = apply_compressed(tiny_model, ref, new)
        assert np.array_equal(get_weight(swapped, ref), new)
        for other in all_refs(tiny_model.config):
            if other != ref:
                assert np.array_equal(
                    get_weight(swapped, other), get_weight(tiny_model, other))
        # the source bundle is untouched
        assert not np.array_equal(get_weight(tiny_model, ref), new)

    def test_rejects_wrong_shape(self, tiny_model):
        ref = PrunableLayerRef(0, "attn_q")
        with pytest.raises(ValidationError):
            apply_compressed(tiny_model, ref, np.zeros((3, 3)))

    def test_rejects_non_finite(self, tiny_model):
        ref = PrunableLayerRef(0, "attn_q")
        bad = get_weight(tiny_model, ref).copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            apply_compressed(tiny_model, ref, bad)


class TestContainer:
    def test_round_trip_preserves_everything(self, tiny_model, tmp_path):
        path = tmp_path / "m.tmc"
        save_model(tiny_model, path)
        loaded = load_model(path)
        assert loaded.config == tiny_model.config
        assert loaded.provenance == tiny_model.provenance
        for (na, ta), (nb, tb) in zip(named_tensors(tiny_model),
                                      named_tensors(loaded)):
            assert na == nb
            assert np.array_equal(ta, tb), na

    def test_resave_is_byte_identical(self, tiny_model, tmp_path):
        p1, p2 = tmp_path / "a.tmc", tmp_path / "b.tmc"
        save_model(tiny_model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_saved_bytes_are_pinned(self, tiny_model, tmp_path):
        """sha256 of the saved tiny model, computed with the loop-based writer
        that predates the shared packing rule."""
        save_model(tiny_model, tmp_path / "m.tmc")
        digest = hashlib.sha256((tmp_path / "m.tmc").read_bytes()).hexdigest()
        assert digest == "24c05631053907216333953a5cc6b86d7ebec1b79acb7a21a01545af2bfb1b1c"

    def test_failed_save_leaves_no_temp_file(self, tiny_model, tmp_path, monkeypatch):
        """A save that fails at the rename removes its temp file, and the
        file it would have replaced keeps its bytes."""
        path = tmp_path / "m.tmc"
        path.write_bytes(b"earlier")

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            save_model(tiny_model, path)
        assert sorted(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"earlier"

    def test_save_converts_one_tensor_at_a_time(self, tmp_path):
        """A bundle of 3.5 MB in float32 (the offpolicy-wide target shape)
        is saved with well under one megabyte of new allocations: each tensor
        is converted only as it is written, the largest being 256 kB."""
        config = ModelConfig(d_model=128, n_layers=4, n_heads=4, d_mlp=512,
                             max_positions=192)
        model = generate_model(config, seed=7002)
        save_model(model, tmp_path / "warm.tmc")
        tracemalloc.start()
        try:
            save_model(model, tmp_path / "m.tmc")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "m.tmc").stat().st_size > 3_500_000
        assert peak < 1_000_000

    def test_bad_magic_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "m.tmc"
        save_model(tiny_model, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError):
            load_model(path)

    def test_truncated_file_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "m.tmc"
        save_model(tiny_model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ContainerError):
            load_model(path)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "nope.tmc")

    def test_hash_ignores_provenance(self, tiny_model):
        relabeled = dataclasses.replace(tiny_model, provenance={"kind": "other"})
        assert model_content_hash(relabeled) == model_content_hash(tiny_model)

    def test_hash_sees_weight_changes(self, tiny_model):
        ref = PrunableLayerRef(0, "attn_q")
        w = get_weight(tiny_model, ref).copy()
        w[0, 0] += 1.0
        changed = apply_compressed(tiny_model, ref, w)
        assert model_content_hash(changed) != model_content_hash(tiny_model)
