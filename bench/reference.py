"""Checks of the pipeline's artifacts against computations made apart from it.

Nothing here imports rackit. The `.tmc` and `.racc` files are parsed from
their documented byte layout, and the model is re-run by a whole-sequence
forward with an explicit causal mask, which shares no code with the
package's stepwise KV-cached runtime. Candidate rollout tokens come from the
package (the CLI does not store them); each is verified here to be the argmax
of the reference logits, and the Grams and e_t the CLI wrote must then match
reference values computed on exactly those sequences.

Every check appends a message to ``Checks.failures`` instead of raising, so
one run reports all that is wrong.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np
from scipy.special import erf

SLOTS = ("attn_q", "attn_k", "attn_v", "attn_out", "mlp_up", "mlp_down")
STOP_BYTE = 0

# Unit roundoff of float32: weights are saved as float32, so a stored value
# differs from the float64 value the solver produced by at most this share.
F32_UNIT = 2.0 ** -24
# Reference and runtime sum the same float64 products in different orders;
# over the at most a few thousand terms here the gap stays far below this.
F64_SLACK = 1e-9
# The CLI's default --damp: prune adds this share of mean(diag H) to diag H.
DAMP = 0.01


def _read_container(path, magic: bytes):
    data = Path(path).read_bytes()
    if data[:4] != magic:
        raise ValueError(f"{path}: magic {data[:4]!r}, expected {magic!r}")
    (mlen,) = struct.unpack_from("<Q", data, 4)
    manifest = json.loads(data[12 : 12 + mlen])
    return manifest, data[12 + mlen :]


class Model:
    """A `.tmc` file: raw float32 bytes per tensor and float64 arrays."""

    def __init__(self, path):
        manifest, blob = _read_container(path, b"TMC1")
        self.config = manifest["config"]
        self.raw = {}
        self.w = {}
        for name, entry in manifest["tensors"].items():
            raw = blob[entry["offset"] : entry["offset"] + entry["length"]]
            self.raw[name] = raw
            self.w[name] = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(
                entry["shape"])

    def slot(self, layer: int, slot: str) -> np.ndarray:
        return self.w[f"layers.{layer}.{slot}"]

    def forward(self, tokens):
        """(logits, hidden before the final norm, slot inputs) for all positions."""
        cfg, w = self.config, self.w
        toks = np.asarray(tokens, dtype=np.int64)
        T, d, heads = toks.size, cfg["d_model"], cfg["n_heads"]
        hd = d // heads
        eps = cfg["layernorm_epsilon"]
        future = np.triu(np.ones((T, T), dtype=bool), k=1)
        x = w["token_embedding"][toks] + w["position_embedding"][:T]
        inputs = {}
        for i in range(cfg["n_layers"]):
            p = f"layers.{i}."
            u = _norm(x, w[p + "ln1.gain"], w[p + "ln1.bias"], eps)
            q, k, v = (
                (u @ w[p + s].T).reshape(T, heads, hd).transpose(1, 0, 2)
                for s in ("attn_q", "attn_k", "attn_v"))
            scores = q @ k.transpose(0, 2, 1) / np.sqrt(hd)
            scores[:, future] = -np.inf
            scores = np.exp(scores - scores.max(axis=2, keepdims=True))
            scores /= scores.sum(axis=2, keepdims=True)
            ctx = (scores @ v).transpose(1, 0, 2).reshape(T, d)
            x = x + ctx @ w[p + "attn_out"].T
            u2 = _norm(x, w[p + "ln2.gain"], w[p + "ln2.bias"], eps)
            act = w[p + "mlp_up"] @ u2.T
            act = (0.5 * act * (1.0 + erf(act / np.sqrt(2.0)))).T
            x = x + act @ w[p + "mlp_down"].T
            for slot, rows in (("attn_q", u), ("attn_k", u), ("attn_v", u),
                               ("attn_out", ctx), ("mlp_up", u2), ("mlp_down", act)):
                inputs[(i, slot)] = rows
        final = _norm(x, w["final_norm.gain"], w["final_norm.bias"], eps)
        return final @ w["output_projection"].T, x, inputs


def _norm(x, gain, bias, eps):
    centered = x - x.mean(axis=1, keepdims=True)
    var = (centered ** 2).mean(axis=1, keepdims=True)
    return centered / np.sqrt(var + eps) * gain + bias


def read_calibration(path):
    """{(layer, slot): (prompt Gram, decode Gram, n_prompt, n_decode)}."""
    manifest, blob = _read_container(path, b"RACC")
    out = {}
    for meta in manifest["refs"]:
        dim = meta["dim"]

        def gram(offset):
            return np.frombuffer(blob, dtype="<f8", count=dim * dim,
                                 offset=offset).reshape(dim, dim)

        out[(meta["layer"], meta["slot"])] = (
            gram(meta["offset_prompt"]), gram(meta["offset_decode"]),
            meta["n_prompt"], meta["n_decode"])
    return out


def read_prompts(path) -> list[list[int]]:
    return [list(line) for line in Path(path).read_bytes().split(b"\n") if line]


def compress_gram(calib, key, mode: str) -> np.ndarray:
    """The undamped Gram `prune` compresses against for a calibration mode."""
    gp, gd, _, _ = calib[key]
    return gp + gd if mode == "rac" else gp


def relative_loss(report: dict, dense: Model, calib) -> float:
    """Σ layer loss / Σ tr(W H Wᵀ), from a prune report and the `.racc` Grams."""
    mode = report["calibration_mode"]
    loss = energy = 0.0
    for ref, body in report["refs"].items():
        layer, slot = ref.split(".", 1)
        key = (int(layer), slot)
        W = dense.slot(*key)
        loss += body["loss"]
        energy += float(np.einsum("ij,ij->", W @ compress_gram(calib, key, mode), W))
    return loss / energy


class Checks:
    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok, message: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(message)

    # -- rollouts -----------------------------------------------------------

    def rollout(self, tag: str, logits, sequence, boundary: int, t_max: int) -> None:
        """Each generated token is the argmax (ties within 1e-9) of the
        reference logits one position earlier; the stop byte ends a rollout
        and appears nowhere else in it."""
        generated = sequence[boundary:]
        self.expect(1 <= len(generated) <= t_max,
                    f"{tag}: {len(generated)} generated tokens, t_max {t_max}")
        self.expect(STOP_BYTE not in generated[:-1],
                    f"{tag}: stop byte before the end of the rollout")
        self.expect(len(generated) == t_max or generated[-1] == STOP_BYTE,
                    f"{tag}: rollout ends early without the stop byte")
        rows = logits[boundary - 1 : len(sequence) - 1]
        picked = rows[np.arange(len(generated)), generated]
        peak = rows.max(axis=1)
        bad = np.flatnonzero(picked < peak - 1e-9 * np.maximum(1.0, np.abs(peak)))
        self.expect(bad.size == 0,
                    f"{tag}: {bad.size} rollout tokens are not the reference argmax")

    # -- calibration --------------------------------------------------------

    def calibration(self, calib, grams, counts) -> None:
        """Grams and column counts equal XᵀX of the reference activations.

        ``grams`` maps (layer, slot) to [prompt XᵀX, decode XᵀX, prompt
        |X|ᵀ|X|, decode |X|ᵀ|X|]; the last two scale the rounding tolerance.
        """
        self.expect(set(calib) == set(grams),
                    f"calibration refs {sorted(calib)} != {sorted(grams)}")
        for key, (gp, gd, n_p, n_d) in calib.items():
            if key not in grams:
                continue
            ref_p, ref_d, abs_p, abs_d = grams[key]
            self.expect((n_p, n_d) == counts,
                        f"calib {key}: counts {(n_p, n_d)} != reference {counts}")
            for phase, got, want, scale in (("prompt", gp, ref_p, abs_p),
                                            ("decode", gd, ref_d, abs_d)):
                err = np.abs(got - want) - F64_SLACK * scale
                self.expect(err.max() <= 0.0,
                            f"calib {key} {phase} Gram off the reference by "
                            f"{np.abs(got - want).max():.3e}")

    # -- compressed models --------------------------------------------------

    def untouched(self, tag: str, dense: Model, comp: Model) -> None:
        """Tensors outside the compressed slots are bit-identical."""
        for name, raw in dense.raw.items():
            if name.rsplit(".", 1)[-1] in SLOTS:
                continue
            self.expect(comp.raw.get(name) == raw, f"{tag}: {name} differs from dense")

    def unstructured(self, tag: str, key, W, sparsity: float) -> None:
        d_in = W.shape[1]
        zeros = d_in - int(np.floor((1.0 - sparsity) * d_in + 0.5))
        counts = (W == 0.0).sum(axis=1)
        self.expect((counts == zeros).all(),
                    f"{tag} {key}: per-row zeros {sorted(set(counts))} != {zeros}")

    def n_of_m(self, tag: str, key, W, n: int, m: int) -> None:
        zeros = (W.reshape(W.shape[0], -1, m) == 0.0).sum(axis=2)
        self.expect((zeros == m - n).all(),
                    f"{tag} {key}: {int((zeros != m - n).sum())} groups of {m} "
                    f"without exactly {m - n} zeros")

    def quantized(self, tag: str, key, W, bits: int, group: int) -> None:
        levels = 2 ** bits - 1
        rows = np.sort(W.reshape(W.shape[0], -1, group), axis=2)
        worst = int(1 + (np.diff(rows, axis=2) != 0).sum(axis=2).max())
        self.expect(worst <= levels,
                    f"{tag} {key}: a row-group holds {worst} values, at most {levels}")

    def normal_equations(self, tag: str, key, W, W_new, gram) -> None:
        """Survivors solve H_SS w'_S = H_S: w for the damped Gram H.

        The solver's float64 result w* meets the equations to float64
        accuracy; the file holds w' = fl32(w*), |w' - w*| <= 2^-24 |w'| per
        entry (up to a factor 1 + 2^-24), so each residual entry is bounded
        by 2^-24 (|H| |w'|) plus float64 slack.
        """
        damped = gram + DAMP * np.trace(gram) / gram.shape[0] * np.eye(gram.shape[0])
        resid = (W_new - W) @ damped
        bound = (1.01 * F32_UNIT * (np.abs(W_new) @ np.abs(damped))
                 + F64_SLACK * (np.abs(W) @ np.abs(damped)))
        over = (np.abs(resid) > bound) & (W_new != 0.0)
        self.expect(not over.any(),
                    f"{tag} {key}: {int(over.sum())} survivors break the normal "
                    f"equations (worst residual {np.abs(resid[W_new != 0]).max():.3e})")

    def loss(self, tag: str, key, reported: float, W, W_new, gram) -> None:
        """Report loss equals (W - W')ᵀH(W - W') within float32 storage.

        The report used w*, the file holds w' = w* + δ with |δ| <= 2^-24 |w'|;
        the loss moves by 2δᵀH(w - w') + δᵀHδ at most.
        """
        D = W - W_new
        recomputed = float(np.einsum("ij,ij->", D @ gram, D))
        absH = np.abs(gram)
        bound = (2.02 * F32_UNIT * float(np.einsum("ij,ij->", np.abs(W_new) @ absH, np.abs(D)))
                 + F32_UNIT ** 2 * float(np.einsum("ij,ij->", np.abs(W_new) @ absH, np.abs(W_new)))
                 + F64_SLACK * abs(recomputed))
        self.expect(abs(reported - recomputed) <= bound,
                    f"{tag} {key}: report loss {reported!r} vs recomputed "
                    f"{recomputed!r} (bound {bound:.3e})")

    # -- diagnose and eval --------------------------------------------------

    def error_trace(self, tag: str, got: list[float], h_dense, h_comp) -> None:
        want = np.linalg.norm(h_dense - h_comp, axis=1)
        scale = np.linalg.norm(h_dense, axis=1) + np.linalg.norm(h_comp, axis=1)
        self.expect(len(got) == len(want),
                    f"{tag}: {len(got)} e_t rows, reference has {len(want)}")
        if len(got) == len(want):
            bad = np.abs(np.asarray(got) - want) > F64_SLACK * scale
            self.expect(not bad.any(), f"{tag}: {int(bad.sum())} e_t values off the reference")

    def eval_nll(self, result: dict, model: Model, text: bytes, budget: int) -> None:
        """Teacher-forced NLL over non-overlapping max_positions chunks."""
        size = model.config["max_positions"]
        offset = scored = 0
        total = 0.0
        while scored < budget and offset < len(text):
            chunk = text[offset : offset + min(size, budget - scored + 1)]
            offset += len(chunk)
            if len(chunk) < 2:
                break
            logits, _, _ = model.forward(list(chunk))
            peak = logits.max(axis=1, keepdims=True)
            lse = (peak + np.log(np.exp(logits - peak).sum(axis=1, keepdims=True)))[:, 0]
            targets = np.frombuffer(chunk, dtype=np.uint8)[1:]
            total += float((lse[:-1] - logits[np.arange(len(chunk) - 1), targets]).sum())
            scored += len(chunk) - 1
        self.expect(result["tokens"] == budget,
                    f"eval scored {result['tokens']} tokens, budget {budget}")
        want = total / scored
        self.expect(abs(result["mean_nll"] - want) <= F64_SLACK * abs(want),
                    f"eval NLL {result['mean_nll']!r} vs reference {want!r}")



def read_errors_csv(path) -> dict[tuple[str, str], list[float]]:
    """{(problem, method): e_t in position order} from diagnose's errors.csv."""
    out: dict[tuple[str, str], list[float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault((row["problem"], row["method"]), []).append(float(row["e_t"]))
    return out
