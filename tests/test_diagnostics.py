import csv
import dataclasses
import json
import logging

import numpy as np
import pytest

from rackit.diagnostics import (
    DiagnosticTrace,
    error_trace,
    eval_nll,
    ratio_map,
    summarize_phase_errors,
    write_errors_csv,
    write_ratios_csv,
    write_summary_json,
)
from rackit.errors import ValidationError
from rackit.model import GREEDY, decode, generate_model

from .helpers import small_config
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
        write_summary_json(path, summary, {"t_max": 8})
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
