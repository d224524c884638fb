import csv
import dataclasses
import json
import logging
import threading

import numpy as np
import pytest

import rackit.diagnostics
from rackit.diagnostics import (
    DiagnosticTrace,
    error_trace,
    eval_nll,
    ratio_map,
    summarize_phase_errors,
    write_errors_csv,
    write_json,
    write_ratios_csv,
)
from rackit.errors import ValidationError
from rackit.model import (
    GREEDY,
    decode,
    forward_teacher_forced,
    generate_model,
    last_layer_states,
)

from .helpers import small_config, thread_counts
from .oracle import reference_forward


def _other_model(seed=77):
    return generate_model(small_config(), seed=seed)


class TestErrorTrace:
    def test_identical_models_have_zero_error(self, tiny_model, rng):
        seq = [int(t) for t in rng.integers(1, 256, size=10)]
        errs = error_trace(tiny_model, tiny_model, seq)
        assert np.array_equal(errs, np.zeros(10))

    def test_matches_naive_per_prefix_recomputation(self, tiny_model, rng):
        other = _other_model()
        seq = [int(t) for t in rng.integers(1, 256, size=12)]
        errs = error_trace(tiny_model, other, seq)
        assert errs.shape == (12,)
        assert (errs >= 0.0).all()
        for t in range(len(seq)):
            _, h_dense, _ = reference_forward(tiny_model, seq[: t + 1])
            _, h_other, _ = reference_forward(other, seq[: t + 1])
            naive = np.linalg.norm(h_dense[-1] - h_other[-1])
            assert errs[t] == pytest.approx(naive, abs=1e-6)

    def test_prompt_phase_ignores_suffix_changes(self, tiny_model, rng):
        other = _other_model()
        prompt = [int(t) for t in rng.integers(1, 256, size=6)]
        a = error_trace(tiny_model, other, prompt + [10, 11])
        b = error_trace(tiny_model, other, prompt + [200, 201])
        assert np.array_equal(a[:6], b[:6])

    def test_shape_mismatch_rejected(self, tiny_model):
        wide = generate_model(small_config(d_model=24, d_mlp=48), seed=1)
        with pytest.raises(ValidationError):
            error_trace(tiny_model, wide, [1, 2, 3])

    def test_non_integer_tokens_rejected(self, tiny_model):
        """A token of 1.5 is rejected, as the forward rejects it, not read as 1."""
        with pytest.raises(ValidationError, match="not an integer"):
            error_trace(tiny_model, tiny_model, [1.5, 2.7, 3])
        with pytest.raises(ValidationError, match="not an integer"):
            last_layer_states(tiny_model, [1.5, 2.7, 3])


class TestRatioMap:
    def test_identical_traces_give_unit_ratio(self):
        errs = [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])]
        for row in ratio_map(errs, errs):
            assert np.array_equal(row, np.ones_like(row))

    def test_hand_arithmetic(self):
        (row,) = ratio_map([np.array([2.0, 9.0])], [np.array([1.0, 3.0])])
        assert row.tolist() == [2.0, 3.0]

    def test_tiny_denominator_marked_undefined(self):
        (row,) = ratio_map([np.array([1.0, 1.0])], [np.array([0.0, 1.0])])
        assert np.isnan(row[0])
        assert row[1] == 1.0

    def test_swapped_arguments_give_reciprocals(self, rng):
        a = [rng.uniform(0.5, 2.0, size=7)]
        b = [rng.uniform(0.5, 2.0, size=7)]
        fwd = ratio_map(a, b)[0]
        rev = ratio_map(b, a)[0]
        np.testing.assert_allclose(fwd * rev, np.ones(7), rtol=1e-12)

    def test_count_and_length_checked(self):
        with pytest.raises(ValidationError):
            ratio_map([np.ones(3)], [np.ones(3), np.ones(3)])
        with pytest.raises(ValidationError):
            ratio_map([np.ones(3)], [np.ones(4)])


class TestSummarize:
    def _trace(self, errs, boundary, pid="p0", method="obs"):
        errs = np.asarray(errs, dtype=np.float64)
        return DiagnosticTrace(problem_id=pid, boundary=boundary,
                               errors={method: errs})

    def test_hand_example(self):
        summary = summarize_phase_errors([self._trace([1.0, 2.0, 4.0], 1)])
        assert summary == {
            "obs": {"mean_prompt_error": 1.0, "mean_decode_error": 3.0}
        }

    def test_no_decode_tokens_reported_as_missing(self):
        summary = summarize_phase_errors([self._trace([1.0, 2.0], 2)])
        assert summary["obs"]["mean_decode_error"] is None

    def test_pools_across_problems(self):
        traces = [
            self._trace([2.0, 4.0], 1, pid="p0"),
            self._trace([6.0, 8.0, 10.0], 1, pid="p1"),
        ]
        summary = summarize_phase_errors(traces)
        assert summary["obs"]["mean_prompt_error"] == pytest.approx(4.0)
        assert summary["obs"]["mean_decode_error"] == pytest.approx((4 + 8 + 10) / 3)

    def test_constant_trace_means_are_the_constant(self):
        summary = summarize_phase_errors([self._trace([5.0, 5.0, 5.0, 5.0], 2)])
        assert summary["obs"] == {
            "mean_prompt_error": 5.0, "mean_decode_error": 5.0,
        }


class TestEvalNll:
    def test_uniform_logits_score_log_vocab(self, tiny_model, rng):
        uniform = dataclasses.replace(
            tiny_model,
            output_projection=np.zeros_like(tiny_model.output_projection),
        )
        data = bytes(rng.integers(0, 256, size=200).tolist())
        result = eval_nll(uniform, data, budget=100)
        assert result.tokens == 100
        assert result.mean_nll == pytest.approx(np.log(256.0), rel=1e-12)

    def test_budget_is_scored_token_count(self, tiny_model, rng):
        data = bytes(rng.integers(0, 256, size=500).tolist())
        # 500 bytes across 64-wide chunks is plenty for a budget of 150
        result = eval_nll(tiny_model, data, budget=150)
        assert result.tokens == 150
        assert np.isfinite(result.mean_nll)

    def test_short_stream_warns_and_reports_what_it_scored(self, tiny_model, rng,
                                                           caplog):
        data = bytes(rng.integers(0, 256, size=50).tolist())
        with caplog.at_level(logging.WARNING):
            result = eval_nll(tiny_model, data, budget=100)
        assert result.tokens == 49
        assert any("49" in rec.getMessage() for rec in caplog.records)

    def test_validation(self, tiny_model):
        with pytest.raises(ValidationError):
            eval_nll(tiny_model, b"abcd", budget=0)
        with pytest.raises(ValidationError):
            eval_nll(tiny_model, b"a", budget=4)
        for budget in (1.5, float("nan"), True, "4", None):
            with pytest.raises(ValidationError, match="budget must be an integer"):
                eval_nll(tiny_model, b"hello world", budget)
        with pytest.raises(ValidationError, match="budget must be >= 1"):
            eval_nll(tiny_model, b"hello world", -3)
        with pytest.raises(ValidationError, match="text must be bytes or byte tokens"):
            eval_nll(tiny_model, "hello world", 4)
        for text in (5, None):
            with pytest.raises(ValidationError, match="tokens must be iterable"):
                eval_nll(tiny_model, text, 4)
        with pytest.raises(ValidationError, match="token 300 outside byte vocabulary"):
            eval_nll(tiny_model, [104, 300, 108], 2)
        with pytest.raises(ValidationError, match="not an integer"):
            eval_nll(tiny_model, [104.5, 101, 108], 2)
        one_position = generate_model(small_config(max_positions=1), seed=7)
        with pytest.raises(ValidationError, match="max_positions=1"):
            eval_nll(one_position, b"hello world", 4)

    def test_bytes_like_and_token_texts_score_alike(self, tiny_model, rng):
        data = bytes(rng.integers(0, 256, size=150).tolist())
        want = eval_nll(tiny_model, data, 120)
        for text in (bytearray(data), memoryview(data), list(data),
                     np.frombuffer(data, dtype=np.uint8)):
            assert eval_nll(tiny_model, text, np.int64(120)) == want


def _serial_nll(model, data: bytes, budget: int) -> tuple[float, int]:
    """``eval_nll`` as a serial loop: each chunk's forward in turn, its sum
    added to the total as soon as it is computed."""
    size = model.config.max_positions
    offset = scored = 0
    total = 0.0
    while scored < budget and offset < len(data):
        chunk = data[offset : offset + min(size, budget - scored + 1)]
        offset += len(chunk)
        if len(chunk) < 2:
            break
        logits, _ = forward_teacher_forced(model, list(chunk))
        peak = logits.max(axis=1)
        lse = peak + np.log(np.exp(logits - peak[:, None]).sum(axis=1))
        targets = np.frombuffer(chunk, dtype=np.uint8)[1:]
        total += float((lse[:-1] - logits[np.arange(len(chunk) - 1), targets]).sum())
        scored += len(chunk) - 1
    return total / scored, scored


def _failing_forward(monkeypatch, error: Exception, probe=lambda: None):
    """Make ``eval_nll``'s forwards record ``probe()`` and the calling
    thread, then raise ``error`` on the third chunk; returns the records."""
    real = rackit.diagnostics.forward_teacher_forced
    calls = []

    def forward(model, tokens, capture=()):
        calls.append((threading.get_ident(), probe()))
        if len(calls) == 3:
            raise error
        return real(model, tokens, capture)

    monkeypatch.setattr(rackit.diagnostics, "forward_teacher_forced", forward)
    return calls


class TestEvalPool:
    """``eval_nll`` scores its chunks on a thread pool, one thread per usable
    CPU, with OpenBLAS on one thread."""

    # 64-byte chunks: 300 bytes hold 4 full chunks and a 44-byte one, 257
    # bytes 4 full chunks and a lone byte that scores nothing. Budget 1
    # scores one pair, 100 ends inside the second chunk, 252 at the end of
    # the fourth, and 1000 exhausts either stream.
    @pytest.mark.parametrize("length", [300, 257])
    @pytest.mark.parametrize("budget", [1, 100, 252, 1000])
    def test_bits_do_not_depend_on_the_thread_count(self, tiny_model, rng, monkeypatch,
                                                     length, budget):
        data = bytes(rng.integers(0, 256, size=length).tolist())
        want = _serial_nll(tiny_model, data, budget)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(rackit.diagnostics, "usable_cpus", lambda: cpus)
            result = eval_nll(tiny_model, data, budget)
            assert (result.mean_nll, result.tokens) == want, cpus

    def test_no_thread_is_left_after_a_return_or_a_raise(self, tiny_model, rng,
                                                         monkeypatch):
        data = bytes(rng.integers(0, 256, size=500).tolist())
        monkeypatch.setattr(rackit.diagnostics, "usable_cpus", lambda: 3)
        before = threading.active_count()
        eval_nll(tiny_model, data, 400)
        assert threading.active_count() == before
        _failing_forward(monkeypatch, ValidationError("third chunk"))
        with pytest.raises(ValidationError, match="^third chunk$"):
            eval_nll(tiny_model, data, 400)
        assert threading.active_count() == before

    def test_a_chunk_error_reaches_the_caller_unchanged(self, tiny_model, rng,
                                                        monkeypatch):
        data = bytes(rng.integers(0, 256, size=500).tolist())
        monkeypatch.setattr(rackit.diagnostics, "usable_cpus", lambda: 2)
        error = ValueError("third chunk")
        calls = _failing_forward(monkeypatch, error)
        with pytest.raises(ValueError) as raised:
            eval_nll(tiny_model, data, 400)
        assert raised.value is error
        assert threading.get_ident() not in {ident for ident, _ in calls}

    def test_openblas_runs_on_one_thread_and_gets_its_counts_back(
            self, tiny_model, rng, monkeypatch, blas_controls):
        data = bytes(rng.integers(0, 256, size=500).tolist())
        before = thread_counts(blas_controls)
        calls = _failing_forward(monkeypatch, ValidationError("third chunk"),
                                 lambda: thread_counts(blas_controls))
        with pytest.raises(ValidationError):
            eval_nll(tiny_model, data, 400)
        assert thread_counts(blas_controls) == before
        assert eval_nll(tiny_model, data, 100).tokens == 100
        assert len(calls) >= 3 + 2  # the failing call, and the two chunks of budget 100
        assert all(counts == [1] * len(before) for _, counts in calls)
        assert thread_counts(blas_controls) == before


class TestWriters:
    def _traces(self):
        return [
            DiagnosticTrace("p0", 1, {
                "prompt_only": np.array([1.0, 2.0, 3.0]),
                "rac": np.array([1.0, 1.5, 2.0]),
            }),
            DiagnosticTrace("p1", 2, {
                "prompt_only": np.array([0.5, 0.25]),
                "rac": np.array([0.5, 0.125]),
            }),
        ]

    def test_errors_csv_round_trips(self, tmp_path):
        path = tmp_path / "errors.csv"
        write_errors_csv(path, self._traces())
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3 + 2 * 2
        first = rows[0]
        assert first == {"problem": "p0", "t": "0", "phase": "prompt",
                         "method": "prompt_only", "e_t": "1.0"}
        phases = {(r["problem"], r["t"]): r["phase"] for r in rows}
        assert phases[("p0", "0")] == "prompt"
        assert phases[("p0", "1")] == "decode"
        assert phases[("p1", "1")] == "prompt"
        assert float(rows[1]["e_t"]) == 2.0

    def test_ratios_csv_blanks_undefined_cells(self, tmp_path):
        path = tmp_path / "ratios.csv"
        ratios = ratio_map([np.array([2.0, 1.0])], [np.array([1.0, 0.0])])
        write_ratios_csv(path, ["p0"], ratios)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["r_t"] == "2.0"
        assert rows[1]["r_t"] == ""

    def test_ratios_csv_checks_lengths(self, tmp_path):
        with pytest.raises(ValidationError):
            write_ratios_csv(tmp_path / "r.csv", ["p0", "p1"], [np.ones(2)])

    def test_summary_json_structure(self, tmp_path):
        path = tmp_path / "summary.json"
        summary = summarize_phase_errors(self._traces())
        write_json(path, {"phase_means": summary, "t_max": 8})
        body = json.loads(path.read_text())
        assert body["t_max"] == 8
        assert set(body["phase_means"]) == {"prompt_only", "rac"}
        assert body["phase_means"]["rac"]["mean_prompt_error"] is not None

    def test_summary_matches_hand_recomputation_from_csv(self, tmp_path):
        traces = self._traces()
        path = tmp_path / "errors.csv"
        write_errors_csv(path, traces)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        pooled = {}
        for row in rows:
            pooled.setdefault((row["method"], row["phase"]), []).append(
                float(row["e_t"]))
        summary = summarize_phase_errors(traces)
        for method, entry in summary.items():
            for phase in ("prompt", "decode"):
                want = np.mean(pooled[(method, phase)])
                assert entry[f"mean_{phase}_error"] == pytest.approx(want)


class TestEndToEndTrace:
    def test_dense_rollout_traced_against_compressed(self, tiny_model):
        other = _other_model()
        prompt = [7, 3, 9, 2]
        rollout = decode(tiny_model, prompt, 8, GREEDY)
        errs = error_trace(tiny_model, other, rollout)
        assert errs.shape == (len(rollout),)
        assert (errs > 0.0).any()
