"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (visible under ``pytest -s``)
and asserts the same condition, so the suite doubles as a checklist:

 1. pruning quality sandwich: exhaustive optimum <= error-compensated <= magnitude
 2. single-weight compensation matches its rank-one closed form
 3. identity-Gram degeneracies (masking, rounding, activation scoring)
 4. streamed two-phase Grams equal the materialized concatenation
 5. cached decoding identical to uncached re-forwarding
 6. rollout calibration beats prompt-only calibration during decode
 7. mask feasibility accounting is exact
 8. nested magnitude masks give monotone refit loss
 9. CLI artifacts are byte-identical across reruns
10. off-policy collection with the target as its own trace is bit-identical
    to on-policy collection
"""

import hashlib
import time
from itertools import combinations

import numpy as np

from rackit.calibration import CalibrationConfig, collect, merged_gram
from rackit.cli import main as cli_main
from rackit.compress import (
    SparsityPattern,
    compress_model,
    prune_magnitude,
    prune_obs,
    prune_wanda,
    quantize_obs,
    refit_fixed_mask,
    row_keep_target,
    trace_form_loss,
)
from rackit.diagnostics import error_traces, ratio_map
from rackit.model import (
    GREEDY,
    ModelConfig,
    all_refs,
    decode,
    forward_teacher_forced,
    generate_model,
    rollouts,
)

from .helpers import random_gram
from .oracle import rtn_quantize, uncached_greedy_decode

HALF = SparsityPattern.unstructured(0.5)


def _report(ok: bool, label: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {label}"
    print(f"\n{line}")
    assert ok, line


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_c01_pruning_quality_sandwich():
    """Exhaustive refit optimum <= compensated pruning <= plain magnitude."""
    t0 = time.perf_counter()
    d_in, n_cols, keep = 6, 32, 3
    bad = []
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        gram, _ = random_gram(rng, d_in, n_cols)
        w = rng.standard_normal((1, d_in))

        _, obs_w = prune_obs(w, gram, HALF, damp_fraction=0.0)
        obs_loss = trace_form_loss(w, obs_w, gram)
        _, mag_w = prune_magnitude(w, HALF)
        mag_loss = trace_form_loss(w, mag_w, gram)

        best = np.inf
        for support in combinations(range(d_in), keep):
            mask = np.zeros((1, d_in), dtype=bool)
            mask[0, list(support)] = True
            refit = refit_fixed_mask(w, gram, mask)
            best = min(best, trace_form_loss(w, refit, gram))

        if not (best <= obs_loss + 1e-9 and obs_loss <= mag_loss + 1e-9):
            bad.append(i)
    elapsed = time.perf_counter() - t0
    _report(not bad and elapsed < 10.0,
            f"loss sandwich holds on 100/100 single-row instances "
            f"(violations={bad}, {elapsed:.2f}s)")


def test_c02_single_weight_closed_form():
    """Removing one weight applies the rank-one inverse-Gram compensation."""
    d_in = 8
    worst = 0.0
    ok = True
    for i in range(50):
        rng = np.random.default_rng(2000 + i)
        gram, _ = random_gram(rng, d_in, 32)
        w = rng.standard_normal(d_in)

        mask, out = prune_obs(w[None, :], gram,
                              SparsityPattern.unstructured(1.0 / d_in),
                              damp_fraction=0.0)
        if int((~mask[0]).sum()) != 1:
            ok = False
            break
        q = int(np.flatnonzero(~mask[0])[0])
        hinv = np.linalg.inv(gram)
        want = w - (w[q] / hinv[q, q]) * hinv[:, q]
        want[q] = 0.0
        worst = max(worst, float(np.max(np.abs(out[0] - want))))
    _report(ok and worst <= 1e-8,
            f"single-weight update matches closed form on 50/50 instances "
            f"(max deviation {worst:.2e})")


def test_c03_identity_gram_degeneracies():
    """With an identity Gram: compensated pruning == magnitude,
    compensated rounding == round-to-nearest, activation scoring == magnitude."""
    ok = True
    for i in range(20):
        rng = np.random.default_rng(3000 + i)
        W = rng.standard_normal((5, 12))
        eye = np.eye(12)

        m_mask, m_w = prune_magnitude(W, HALF)
        o_mask, o_w = prune_obs(W, eye, HALF)
        w_mask, w_w = prune_wanda(W, eye, HALF)
        ok &= np.array_equal(m_mask, o_mask) and np.array_equal(m_w, o_w)
        ok &= np.array_equal(m_mask, w_mask) and np.array_equal(m_w, w_w)

        for bits in (4, 8):
            got = quantize_obs(W, eye, SparsityPattern.quantize(bits))
            ok &= np.array_equal(got, rtn_quantize(W, bits))
        if not ok:
            break
    _report(ok, "identity-Gram degeneracies exact on 20/20 seeded matrices")


def test_c04_streamed_grams_equal_materialized_concatenation():
    """Prompt + decode Grams streamed column-by-column match the product of
    the materialized side-by-side activation matrix."""
    cfg = ModelConfig(d_model=16, n_layers=2, n_heads=2, d_mlp=32,
                      max_positions=64)
    model = generate_model(cfg, seed=4000)
    rng = np.random.default_rng(4001)
    prompts = tuple(tuple(int(t) for t in rng.integers(1, 256, size=6))
                    for _ in range(4))
    refs = all_refs(cfg)
    calib = collect(model,
                    CalibrationConfig(mode="rac", prompts=prompts, t_max=16),
                    refs)

    worst = 0.0
    for ref in refs:
        dim = calib.stats[ref].gram_prompt.shape[0]
        concat = np.zeros((dim, dim))
        for prompt in prompts:
            full = decode(model, prompt, 16, GREEDY)
            _, caps = forward_teacher_forced(model, full, [ref])
            rows = caps[ref]  # prompt rows then decode rows, in order
            concat += rows.T @ rows
        diff = np.max(np.abs(merged_gram(calib, ref) - concat))
        worst = max(worst, float(diff))
    _report(worst <= 1e-6,
            f"two-phase Gram equals materialized concatenation "
            f"(max |diff| {worst:.2e} over {len(refs)} layers)")


def test_c05_cached_decode_matches_uncached():
    """KV-cached greedy decoding returns the same tokens as re-running the
    full prefix through an independent vectorized forward at every step."""
    mismatches = []
    for i in range(10):
        cfg = ModelConfig(d_model=16, n_layers=2, n_heads=2, d_mlp=32,
                          max_positions=96)
        model = generate_model(cfg, seed=5000 + i)
        rng = np.random.default_rng(5100 + i)
        prompt = [int(t) for t in rng.integers(1, 256, size=8)]
        cached = decode(model, prompt, 64, GREEDY)
        uncached = uncached_greedy_decode(model, prompt, 64)
        if cached != uncached:
            mismatches.append(i)
    _report(not mismatches,
            f"cached and uncached greedy decode token-identical on 10/10 "
            f"model/prompt pairs (64 new tokens each)")


def test_c06_rollout_calibration_wins_the_decode_phase():
    """Across seeded configurations, pruning against prompt+rollout Grams
    yields lower decode-phase reconstruction error than prompt-only Grams."""
    t0 = time.perf_counter()
    n_configs = 20
    wins = 0
    pooled_ratios = []
    for i in range(n_configs):
        cfg = ModelConfig(d_model=64, n_layers=4, n_heads=4, d_mlp=256,
                          max_positions=192)
        model = generate_model(cfg, seed=6000 + i)
        rng = np.random.default_rng(6500 + i)
        calib_prompts = tuple(
            tuple(int(t) for t in rng.integers(1, 256, size=32))
            for _ in range(8))
        heldout_prompts = [
            [int(t) for t in rng.integers(1, 256, size=32)] for _ in range(4)]

        refs = all_refs(cfg)
        rac_calib = collect(
            model,
            CalibrationConfig(mode="rac", prompts=calib_prompts, t_max=128),
            refs)
        rac_model, _ = compress_model(model, rac_calib, "rac", "obs", HALF)
        po_model, _ = compress_model(model, rac_calib, "prompt_only", "obs",
                                     HALF)

        po_errs, rac_errs = [], []
        for prompt, (rollout, _) in zip(heldout_prompts,
                                        rollouts(model, heldout_prompts, 128)):
            b = len(prompt)
            po_e, rac_e = error_traces(model, [po_model, rac_model], rollout)
            po_errs.append(po_e[b:])
            rac_errs.append(rac_e[b:])
        po_mean = float(np.concatenate(po_errs).mean())
        rac_mean = float(np.concatenate(rac_errs).mean())
        if rac_mean < po_mean:
            wins += 1
        for row in ratio_map(po_errs, rac_errs):
            pooled_ratios.append(row[np.isfinite(row)])

    pooled = np.concatenate(pooled_ratios)
    frac_above_one = float((pooled > 1.0).mean())
    elapsed = time.perf_counter() - t0
    _report(wins >= int(0.8 * n_configs) and frac_above_one > 0.5
            and elapsed < 600.0,
            f"rollout calibration lowers decode error in {wins}/{n_configs} "
            f"configs; fraction of decode tokens with ratio > 1 is "
            f"{frac_above_one:.3f} ({elapsed:.1f}s)")


def test_c07_mask_feasibility_accounting():
    """Per-row survivor counts and per-group zero counts are exact."""
    ok = True
    eye_cache = {}
    for i in range(10):
        rng = np.random.default_rng(7000 + i)
        d_out = int(rng.integers(2, 7))
        d_in = int(rng.integers(2, 9)) * 4
        W = rng.standard_normal((d_out, d_in))
        gram, _ = random_gram(rng, d_in, 2 * d_in)

        runs = []
        for s in (0.25, 0.5, 0.75):
            pat = SparsityPattern.unstructured(s)
            runs.append((pat, prune_magnitude(W, pat)[0]))
            runs.append((pat, prune_wanda(W, gram, pat)[0]))
            runs.append((pat, prune_obs(W, gram, pat, block_size=8)[0]))
        nm = SparsityPattern.semi_structured(2, 4)
        runs.append((nm, prune_magnitude(W, nm)[0]))
        runs.append((nm, prune_wanda(W, gram, nm)[0]))
        runs.append((nm, prune_obs(W, gram, nm, block_size=8)[0]))

        for pat, mask in runs:
            if pat.kind == "unstructured":
                target = row_keep_target(d_in, pat.sparsity)
                counts = mask.sum(axis=1)
                ok &= bool((counts == target).all())
                ok &= bool((np.abs(counts - (1 - pat.sparsity) * d_in) <= 1).all())
            else:
                zeros = 4 - mask.reshape(d_out, d_in // 4, 4).sum(axis=2)
                ok &= bool((zeros == 2).all())
        if not ok:
            break
    _report(ok, "mask accounting exact for 2:4 and unstructured across "
                "magnitude/activation/compensated pruning")


def test_c08_nested_mask_monotone_refit_loss():
    """Magnitude keep-sets shrink as sparsity grows, so refit loss climbs."""
    d_in = 12
    ok = True
    for i in range(50):
        rng = np.random.default_rng(8000 + i)
        gram, _ = random_gram(rng, d_in, 24)
        w = rng.standard_normal((1, d_in))
        losses = []
        for s in (0.25, 0.5, 0.75):
            mask, _ = prune_magnitude(w, SparsityPattern.unstructured(s))
            refit = refit_fixed_mask(w, gram, mask)
            losses.append(trace_form_loss(w, refit, gram))
        if not (losses[0] <= losses[1] + 1e-9 and losses[1] <= losses[2] + 1e-9):
            ok = False
            break
    _report(ok, "refit loss non-decreasing in sparsity on 50/50 seeded rows")


def test_c09_cli_artifacts_are_deterministic(tmp_path):
    """gen-model, calibrate, and prune reruns produce byte-identical files."""
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("determinism check\nsecond prompt line\n")

    def gen(path):
        assert cli_main(["gen-model", "--d-model", "16", "--layers", "2",
                         "--heads", "2", "--max-positions", "64",
                         "--seed", "17", "--out", str(path)]) == 0

    def cal(model, path):
        assert cli_main(["calibrate", "--model", str(model), "--mode", "rac",
                         "--prompts", str(prompts), "--t-max", "8",
                         "--seed", "17", "--out", str(path)]) == 0

    def prn(model, calib, path):
        assert cli_main(["prune", "--model", str(model), "--calib", str(calib),
                         "--method", "obs", "--sparsity", "0.5",
                         "--seed", "17", "--out", str(path)]) == 0

    gen(tmp_path / "m1.tmc")
    gen(tmp_path / "m2.tmc")
    cal(tmp_path / "m1.tmc", tmp_path / "c1.racc")
    cal(tmp_path / "m1.tmc", tmp_path / "c2.racc")
    prn(tmp_path / "m1.tmc", tmp_path / "c1.racc", tmp_path / "p1.tmc")
    prn(tmp_path / "m1.tmc", tmp_path / "c1.racc", tmp_path / "p2.tmc")

    same = (
        _sha256(tmp_path / "m1.tmc") == _sha256(tmp_path / "m2.tmc")
        and _sha256(tmp_path / "c1.racc") == _sha256(tmp_path / "c2.racc")
        and _sha256(tmp_path / "p1.tmc") == _sha256(tmp_path / "p2.tmc")
        and _sha256(tmp_path / "p1.tmc.report.json")
        == _sha256(tmp_path / "p2.tmc.report.json")
    )
    _report(same, "gen-model/calibrate/prune reruns byte-identical "
                  "(model, calibration, pruned model, report)")


def test_c10_off_policy_self_trace_degenerates_to_on_policy():
    """A foreign-trace collection whose trace model IS the target, under
    greedy sampling, produces bit-identical statistics to on-policy."""
    cfg = ModelConfig(d_model=16, n_layers=2, n_heads=2, d_mlp=32,
                      max_positions=64)
    model = generate_model(cfg, seed=10_000)
    rng = np.random.default_rng(10_001)
    prompts = tuple(tuple(int(t) for t in rng.integers(1, 256, size=5))
                    for _ in range(3))
    refs = all_refs(cfg)

    on = collect(model,
                 CalibrationConfig(mode="rac", prompts=prompts, t_max=12),
                 refs)
    off = collect(model,
                  CalibrationConfig(mode="off_policy", prompts=prompts,
                                    t_max=12, trace_model=model),
                  refs)

    same = on.content_digest() == off.content_digest()
    for r in refs:
        same &= np.array_equal(on.stats[r].gram_prompt,
                               off.stats[r].gram_prompt)
        same &= np.array_equal(on.stats[r].gram_decode,
                               off.stats[r].gram_decode)
        same &= (on.stats[r].n_prompt, on.stats[r].n_decode) == \
            (off.stats[r].n_prompt, off.stats[r].n_decode)
    _report(same, "off-policy collection with self trace bit-identical to "
                  "on-policy (digest, Grams, counts)")
