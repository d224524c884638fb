import hashlib
import json
import math
import os
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from rackit.calibration import CalibrationConfig, CalibrationSet, collect
from rackit.cli import _COMMANDS, _REQUIRED, _command_flags, _merge_config, build_parser, main
from rackit.errors import CholeskyError
from rackit.model import SLOTS, all_refs, load_model, model_content_hash
from rackit.numkernel import usable_cpus

from .helpers import fresh_python, nan_in_first_capture


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def out_json(capsys):
    text = capsys.readouterr().out.strip().splitlines()
    return json.loads(text[-1])


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a small model, prompts, and a RAC calibration set."""
    root = tmp_path_factory.mktemp("cli")
    model = root / "m.tmc"
    prompts = root / "prompts.txt"
    calib = root / "rac.racc"
    prompts.write_text("Hello there\nGeneral case\nthird one\n")
    assert main(["gen-model", "--d-model", "16", "--layers", "1", "--heads", "2",
                 "--max-positions", "64", "--seed", "11",
                 "--out", str(model)]) == 0
    assert main(["calibrate", "--model", str(model), "--mode", "rac",
                 "--prompts", str(prompts), "--t-max", "8",
                 "--out", str(calib)]) == 0
    return {"root": root, "model": model, "prompts": prompts, "calib": calib}


@pytest.fixture(scope="module")
def calibrations(ws):
    """One calibration of ``ws["model"]`` per calibration mode, by CLI name."""
    root = ws["root"]
    trace, corpus = root / "trace.tmc", root / "corpus.bin"
    corpus.write_bytes(bytes(range(1, 200)))
    assert main(["gen-model", "--d-model", "16", "--layers", "1", "--heads", "2",
                 "--max-positions", "64", "--seed", "12", "--out", str(trace)]) == 0
    prompts = ["--prompts", str(ws["prompts"])]
    inputs = {
        "prompt-only": prompts,
        "off-policy": prompts + ["--t-max", "8", "--trace-model", str(trace)],
        "corpus": ["--corpus", str(corpus), "--token-budget", "64"],
    }
    paths = {"rac": ws["calib"]}
    for mode, flags in inputs.items():
        paths[mode] = root / f"{mode}.racc"
        assert main(["calibrate", "--model", str(ws["model"]), "--mode", mode, *flags,
                     "--out", str(paths[mode])]) == 0
    return paths


class TestGenModel:
    def test_writes_model_report_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "m.tmc"
        assert run(["gen-model", "--d-model", "16", "--layers", "1",
                    "--heads", "2", "--out", str(out)]) == 0
        body = out_json(capsys)
        loaded = load_model(out)
        assert body["hash"] == model_content_hash(loaded)
        assert body["config"]["d_mlp"] == 64  # defaults to 4x width
        assert loaded.config.max_positions == 256
        assert (tmp_path / "m.tmc.log").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.tmc", tmp_path / "b.tmc"
        flags = ["gen-model", "--d-model", "16", "--layers", "1", "--heads", "2",
                 "--max-positions", "32", "--seed", "5"]
        assert run(flags + ["--out", str(a)]) == 0
        assert run(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_required_flag_prints_usage(self, tmp_path, capsys):
        assert run(["gen-model", "--d-model", "16", "--layers", "1",
                    "--heads", "2"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_invalid_geometry_is_validation_error(self, tmp_path):
        assert run(["gen-model", "--d-model", "10", "--layers", "1",
                    "--heads", "4", "--out", str(tmp_path / "x.tmc")]) == 1

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_ln_eps_must_be_finite_and_positive(self, tmp_path, eps):
        assert run(["gen-model", "--d-model", "16", "--layers", "1", "--heads", "2",
                    "--ln-eps", eps, "--out", str(tmp_path / "x.tmc")]) == 1

    def test_unknown_subcommand(self):
        assert run(["transmogrify"]) == 1

    def test_unwritable_out_fails_before_generating(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        made = []
        monkeypatch.setattr("rackit.cli.generate_model", lambda *a: made.append(1))
        capsys.readouterr()
        assert run(["gen-model", "--d-model", "16", "--layers", "1", "--heads", "2",
                    "--out", "nodir/m.tmc"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("i/o failure: output ")
        assert made == []
        assert list(tmp_path.rglob("*")) == []

    def test_failed_rename_exits_3_and_keeps_the_old_file(self, tmp_path, capsys,
                                                          monkeypatch):
        out = tmp_path / "m.tmc"
        out.write_bytes(b"earlier")

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        capsys.readouterr()
        assert run(["gen-model", "--d-model", "16", "--layers", "1", "--heads", "2",
                    "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == ["i/o failure: rename refused"]
        assert sorted(tmp_path.iterdir()) == [out]
        assert out.read_bytes() == b"earlier"


class TestConfigFile:
    BASE = {"d_model": 16, "layers": 1, "heads": 2, "max_positions": 32}

    def test_config_fills_flags_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.BASE, "seed": 3}))
        from_cfg = tmp_path / "a.tmc"
        overridden = tmp_path / "b.tmc"
        direct = tmp_path / "c.tmc"
        assert run(["gen-model", "--config", str(cfg), "--out", str(from_cfg)]) == 0
        assert run(["gen-model", "--config", str(cfg), "--seed", "4",
                    "--out", str(overridden)]) == 0
        assert run(["gen-model", "--d-model", "16", "--layers", "1", "--heads",
                    "2", "--max-positions", "32", "--seed", "4",
                    "--out", str(direct)]) == 0
        assert from_cfg.read_bytes() != overridden.read_bytes()
        assert model_content_hash(load_model(overridden)) == \
            model_content_hash(load_model(direct))

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.BASE, "wat": 1}))
        assert run(["gen-model", "--config", str(cfg),
                    "--out", str(tmp_path / "x.tmc")]) == 1

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["gen-model", "--config", str(cfg),
                    "--out", str(tmp_path / "x.tmc")]) == 1

    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([self.BASE]))
        assert run(["gen-model", "--config", str(cfg),
                    "--out", str(tmp_path / "x.tmc")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: --config {cfg}: expected a JSON object"]

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert run(["gen-model", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "x.tmc")]) == 3

    @pytest.mark.parametrize("command, cfg", [
        ("calibrate", {"t_max": "abc"}),
        ("calibrate", {"t_max": 3.5}),
        ("eval", {"budget": 10.5}),
        ("eval", {"seed": "x"}),
        ("calibrate", {"t_max": [4]}),
        ("calibrate", {"mode": "beam"}),
    ])
    def test_wrong_typed_value_rejected(self, ws, tmp_path, capsys, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        text = tmp_path / "text.bin"
        text.write_bytes(bytes(1 + i % 255 for i in range(5000)))
        flags = {
            "calibrate": ["--model", str(ws["model"]), "--mode", "rac",
                          "--prompts", str(ws["prompts"]),
                          "--out", str(tmp_path / "x.racc")],
            "eval": ["--model", str(ws["model"]), "--text", str(text)],
        }[command]
        assert run([command, *flags, "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(path) in err[0] and next(iter(cfg)) in err[0]

    @pytest.mark.parametrize("command, key", [("gen-model", "out"), ("calibrate", "prompts")])
    def test_nul_in_a_config_value_rejected(self, ws, tmp_path, capsys, command, key):
        """A path with a NUL byte is one line and exit 1, not a traceback from
        the first path call."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "a\u0000b"}))
        flags = {
            "gen-model": ["--d-model", "16", "--layers", "1", "--heads", "2"],
            "calibrate": ["--model", str(ws["model"]), "--mode", "prompt-only",
                          "--out", str(tmp_path / "x.racc")],
        }[command]
        capsys.readouterr()
        assert run([command, *flags, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --config {cfg}: {key} holds a NUL character"]
        assert list(tmp_path.iterdir()) == [cfg]

    def test_config_file_that_is_not_utf8_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert run(["gen-model", "--config", str(cfg),
                    "--out", str(tmp_path / "x.tmc")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(cfg) in err[0]

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in _COMMANDS for flag in _command_flags(command)
    ], ids=lambda item: getattr(item, "name", item))
    def test_every_flag_can_come_from_config(self, tmp_path, command, flag):
        """--config {key: value}, with the value as JSON or as its text,
        parses to the namespace that --flag value gives."""
        others = [arg for other in _command_flags(command)
                  if other.default is _REQUIRED and other != flag
                  for arg in _flag_argv(other, _sample_value(other))]
        value = _sample_value(flag)

        def parsed(argv):
            args = build_parser().parse_args([command, *others, *argv])
            _merge_config(args)
            del args.command_parser, args.config
            return vars(args)

        def from_config(value):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag.dest: value}))
            return parsed(["--config", str(cfg)])

        direct = parsed(_flag_argv(flag, value))
        assert direct[flag.dest] not in (None, flag.default)
        assert from_config(value) == direct
        assert from_config(value if flag.repeat else str(value)) == direct

    def test_one_value_of_a_repeat_flag_from_config(self, tmp_path):
        """--config {"compressed": "a=x.tmc"} parses as --compressed a=x.tmc."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"compressed": "a=x.tmc"}))
        common = ["diagnose", "--dense", "d.tmc", "--prompts", "p.txt", "--out-dir", "o"]

        def parsed(argv):
            args = build_parser().parse_args(common + argv)
            _merge_config(args)
            del args.command_parser, args.config
            return vars(args)

        direct = parsed(["--compressed", "a=x.tmc"])
        assert direct["compressed"] == ["a=x.tmc"]
        assert parsed(["--config", str(cfg)]) == direct


def _sample_value(flag):
    """A valid JSON value for the flag that differs from its default."""
    if flag.repeat:
        return ["a=x.tmc", "b=y.tmc"]
    if flag.choices is not None:
        return flag.choices[-1]
    return {int: 3, float: 0.25, None: "text"}[flag.type]


def _flag_argv(flag, value):
    return [arg for item in (value if flag.repeat else [value])
            for arg in (flag.name, str(item))]


class TestCalibrate:
    def test_reports_counts_and_digest(self, ws, capsys):
        out = ws["root"] / "again.racc"
        assert run(["calibrate", "--model", str(ws["model"]), "--mode", "rac",
                    "--prompts", str(ws["prompts"]), "--t-max", "8",
                    "--out", str(out)]) == 0
        body = out_json(capsys)
        assert body["mode"] == "rac"
        assert body["n_prompt"] > 0 and body["n_decode"] > 0
        loaded = CalibrationSet.load(out)
        assert loaded.content_digest() == body["digest"]
        assert loaded.provenance["seed"] == 0

    def test_rerun_is_byte_identical(self, ws):
        a = ws["root"] / "r1.racc"
        b = ws["root"] / "r2.racc"
        flags = ["calibrate", "--model", str(ws["model"]), "--mode", "rac",
                 "--prompts", str(ws["prompts"]), "--t-max", "6",
                 "--temperature", "0.8", "--seed", "2"]
        assert run(flags + ["--out", str(a)]) == 0
        assert run(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out_fails_before_collect(self, ws, tmp_path, capsys, monkeypatch):
        """--out is checked before the model is read: exit 3, one stderr line
        naming the output, no collect and nothing written."""
        monkeypatch.chdir(tmp_path)
        collects = []
        monkeypatch.setattr("rackit.cli.collect", lambda *a, **k: collects.append(1))
        capsys.readouterr()
        assert run(["calibrate", "--model", str(ws["model"]), "--mode", "rac",
                    "--prompts", str(ws["prompts"]), "--t-max", "4",
                    "--out", "nodir/c.racc"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("i/o failure: output ")
        assert collects == []
        assert list(tmp_path.rglob("*")) == []

    def test_a_non_finite_capture_exits_1_with_one_line(self, ws, tmp_path, capsys,
                                                         monkeypatch):
        """The Gram update that rejects it runs on a pool thread; its
        ValidationError still ends in one stderr line and no traceback."""
        nan_in_first_capture(monkeypatch)
        out = tmp_path / "c.racc"
        capsys.readouterr()
        assert run(["calibrate", "--model", str(ws["model"]), "--mode", "prompt-only",
                    "--prompts", str(ws["prompts"]), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: column entries must be finite"]
        assert not out.exists()

    def test_corpus_mode_without_budget_reads_the_whole_stream(self, ws, tmp_path,
                                                                capsys):
        data = bytes(range(1, 200))
        corpus = tmp_path / "c.bin"
        corpus.write_bytes(data)
        capsys.readouterr()
        assert run(["calibrate", "--model", str(ws["model"]), "--mode", "corpus",
                    "--corpus", str(corpus), "--out", str(tmp_path / "c.racc")]) == 0
        model = load_model(ws["model"])
        whole = collect(model, CalibrationConfig(mode="corpus", corpus=data),
                        all_refs(model.config))
        assert out_json(capsys)["digest"] == whole.content_digest()

    def test_prompt_modes_need_prompt_file(self, ws, tmp_path):
        assert run(["calibrate", "--model", str(ws["model"]),
                    "--mode", "prompt-only",
                    "--out", str(tmp_path / "x.racc")]) == 1

    def test_prompt_file_that_is_not_utf8_rejected(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe bad\n")
        assert run(["calibrate", "--model", str(ws["model"]), "--mode", "rac",
                    "--prompts", str(bad), "--t-max", "4",
                    "--out", str(tmp_path / "x.racc")]) == 1
        assert run(["diagnose", "--dense", str(ws["model"]),
                    "--compressed", f"same={ws['model']}", "--prompts", str(bad),
                    "--out-dir", str(tmp_path / "diag")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all(str(bad) in line for line in err)

    def test_corrupt_model_container_is_io_error(self, tmp_path, ws):
        junk = tmp_path / "junk.tmc"
        junk.write_bytes(b"JUNKJUNKJUNKJUNK")
        assert run(["calibrate", "--model", str(junk), "--mode", "prompt-only",
                    "--prompts", str(ws["prompts"]),
                    "--out", str(tmp_path / "x.racc")]) == 3

    def test_model_manifest_that_is_not_json_is_io_error(self, tmp_path, ws, capsys):
        data = ws["model"].read_bytes()
        (mlen,) = struct.unpack_from("<Q", data, 4)
        bad = tmp_path / "bad.tmc"
        bad.write_bytes(data[:4] + struct.pack("<Q", 9) + b"{not json" + data[12 + mlen:])
        capsys.readouterr()
        assert run(["calibrate", "--model", str(bad), "--mode", "prompt-only",
                    "--prompts", str(ws["prompts"]),
                    "--out", str(tmp_path / "x.racc")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"i/o failure: {bad}: bad manifest")

    def test_trace_model_needs_off_policy_mode(self, ws, tmp_path, capsys):
        base = ["calibrate", "--model", str(ws["model"]), "--prompts", str(ws["prompts"]),
                "--t-max", "4", "--trace-model", str(ws["model"])]
        out = tmp_path / "x.racc"
        assert run(base + ["--mode", "rac", "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "takes no trace model" in err[0]
        assert not out.exists()
        assert run(base + ["--mode", "off-policy", "--out", str(out)]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_temperature_rejected(self, ws, tmp_path, capsys, value):
        out = tmp_path / "x.racc"
        assert run(["calibrate", "--model", str(ws["model"]), "--mode", "rac",
                    "--prompts", str(ws["prompts"]), "--t-max", "4",
                    "--temperature", value,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: temperature must be finite and positive"]
        assert not out.exists()

    def test_overflowing_temperature_exits_2_with_one_line(self, ws, tmp_path, capsys):
        """The logits over 1e-308 overflow: a numerical failure, not numpy's
        NaN probabilities, and no overflow warning either."""
        out = tmp_path / "x.racc"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["calibrate", "--model", str(ws["model"]), "--mode", "rac",
                        "--prompts", str(ws["prompts"]), "--t-max", "4",
                        "--temperature", "1e-308",
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["numerical failure: logits overflow at temperature 1e-308"]
        assert not out.exists()

    def test_greedy_run_records_the_default_temperature(self, ws):
        """--temperature defaults to unset, which selects the greedy sampler;
        the provenance of a greedy run still records 1.0 and seed + 1."""
        sampler = CalibrationSet.load(ws["calib"]).provenance["sampler"]
        assert sampler == {"kind": "greedy", "temperature": 1.0, "seed": 1}

    def test_temperature_alone_selects_temperature_sampling(self, ws, tmp_path):
        """The bytes that ``--sampler temperature --temperature 0.8`` wrote
        before ``--temperature`` alone chose the sampler."""
        out = tmp_path / "t.racc"
        assert run(["calibrate", "--model", str(ws["model"]), "--mode", "rac",
                    "--prompts", str(ws["prompts"]), "--t-max", "6",
                    "--temperature", "0.8", "--seed", "2", "--out", str(out)]) == 0
        assert CalibrationSet.load(out).provenance["sampler"] == {
            "kind": "temperature", "temperature": 0.8, "seed": 3}
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "5a621daafa7f9c1602780cbd25826f809e5ec15111e6e5b589970caebf81f182")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_sampler_is_no_option(self, ws, tmp_path, capsys, source):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampler": "temperature"}))
        out = tmp_path / "x.racc"
        chosen = (["--sampler", "temperature"] if source == "flag"
                  else ["--config", str(cfg)])
        capsys.readouterr()
        assert run(["calibrate", "--model", str(ws["model"]), "--mode", "rac",
                    "--prompts", str(ws["prompts"]), "--t-max", "4", *chosen,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith({
            "flag": "rackit calibrate: error: unrecognized arguments: --sampler temperature",
            "config": f"error: --config {cfg}: unknown keys ['sampler']",
        }[source])
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--mode", "rac", "--t-max", "4", "--prompts", "PROMPTS", "--corpus", "CORPUS"],
         "mode 'rac' takes no corpus; only corpus does"),
        (["--mode", "prompt-only", "--prompts", "PROMPTS", "--corpus", "CORPUS"],
         "mode 'prompt_only' takes no corpus; only corpus does"),
        (["--mode", "corpus", "--corpus", "CORPUS", "--prompts", "PROMPTS"],
         "mode 'corpus' reads a non-empty corpus stream and takes no prompts"),
        (["--mode", "corpus"],
         "mode 'corpus' reads a non-empty corpus stream and takes no prompts"),
        (["--mode", "rac", "--t-max", "4"], "mode 'rac' reads a non-empty prompt list"),
        (["--mode", "off-policy", "--t-max", "4", "--prompts", "PROMPTS"],
         "off_policy mode requires a trace model"),
        (["--mode", "rac", "--t-max", "4", "--prompts", "PROMPTS", "--trace-model", "MODEL"],
         "mode 'rac' takes no trace model; only off_policy does"),
    ], ids=["rac-corpus", "prompt-only-corpus", "corpus-prompts", "corpus-without-stream",
            "rac-without-prompts", "off-policy-without-trace-model", "rac-trace-model"])
    def test_bad_input_pairing_exits_1_with_the_config_message(
            self, ws, tmp_path, capsys, flags, message):
        """Every input given is read, then CalibrationConfig rejects the
        pairing: one line, and neither --out nor its sidecar written."""
        corpus = tmp_path / "c.bin"
        corpus.write_bytes(bytes(range(1, 200)))
        paths = {"PROMPTS": str(ws["prompts"]), "CORPUS": str(corpus),
                 "MODEL": str(ws["model"])}
        out = tmp_path / "x.racc"
        capsys.readouterr()
        assert run(["calibrate", "--model", str(ws["model"]),
                    *(paths.get(f, f) for f in flags), "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists() and not Path(f"{out}.log").exists()

    @pytest.mark.parametrize("mode", ["prompt-only", "corpus"])
    @pytest.mark.parametrize("flags", [["--t-max", "16"], ["--temperature", "1.0"]],
                             ids=["t-max", "temperature-sampler"])
    def test_decode_flags_rejected_without_decoding(self, ws, tmp_path, capsys,
                                                    mode, flags):
        corpus = tmp_path / "c.bin"
        corpus.write_bytes(bytes(range(1, 200)))
        inputs = (["--corpus", str(corpus), "--token-budget", "100"] if mode == "corpus"
                  else ["--prompts", str(ws["prompts"])])
        out = tmp_path / "x.racc"
        assert run(["calibrate", "--model", str(ws["model"]), "--mode", mode, *inputs,
                    *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: mode {mode.replace('-', '_')!r} does not decode; it takes "
                       "no t_max above 0 and no temperature sampler"]
        assert not out.exists()

    def test_layer_slot_selection(self, ws, tmp_path, capsys):
        out = tmp_path / "sub.racc"
        assert run(["calibrate", "--model", str(ws["model"]), "--mode",
                    "prompt-only", "--prompts", str(ws["prompts"]),
                    "--slots", "mlp_up,mlp_down", "--out", str(out)]) == 0
        assert out_json(capsys)["refs"] == 2
        assert run(["calibrate", "--model", str(ws["model"]), "--mode",
                    "prompt-only", "--prompts", str(ws["prompts"]),
                    "--layers", "5", "--out", str(tmp_path / "y.racc")]) == 1


class TestPrune:
    def test_end_to_end_with_report(self, ws, capsys):
        out = ws["root"] / "pruned.tmc"
        assert run(["prune", "--model", str(ws["model"]), "--calib",
                    str(ws["calib"]), "--method", "obs", "--sparsity", "0.5",
                    "--out", str(out)]) == 0
        body = out_json(capsys)
        assert body["mode"] == "rac"  # taken from calibration provenance
        report = json.loads((ws["root"] / "pruned.tmc.report.json").read_text())
        assert report["method"] == "obs"
        assert report["calibration_mode"] == "rac"
        assert len(report["refs"]) == 6
        assert all(entry["achieved"]["rows_off_target"] == 0
                   for entry in report["refs"].values())
        assert "seconds" not in json.dumps(report)
        log = json.loads((ws["root"] / "pruned.tmc.log").read_text())
        assert set(log["per_ref_seconds"]) == set(report["refs"])
        saved = load_model(out)
        assert saved.provenance["compressed"]["method"] == "obs"
        assert model_content_hash(saved) == report["output_model_hash"]

    def test_rerun_is_byte_identical(self, ws):
        a = ws["root"] / "p1.tmc"
        b = ws["root"] / "p2.tmc"
        flags = ["prune", "--model", str(ws["model"]), "--calib",
                 str(ws["calib"]), "--method", "obs", "--sparsity", "0.5"]
        assert run(flags + ["--out", str(a)]) == 0
        assert run(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (ws["root"] / "p1.tmc.report.json").read_bytes() == \
            (ws["root"] / "p2.tmc.report.json").read_bytes()

    def test_zero_sparsity_output_hash_equals_input(self, ws, capsys):
        out = ws["root"] / "noop.tmc"
        assert run(["prune", "--model", str(ws["model"]), "--calib",
                    str(ws["calib"]), "--method", "obs", "--sparsity", "0.0",
                    "--out", str(out)]) == 0
        body = out_json(capsys)
        assert body["input_model_hash"] == body["output_model_hash"]
        assert body["total_loss"] == 0.0

    def test_overflowing_rac_gram_sum_exits_1_with_one_line(self, ws, tmp_path, capsys):
        """Two finite Grams of a ref whose sum overflows are rejected up front,
        naming the ref, with no overflow warning."""
        calib = CalibrationSet.load(ws["calib"])
        ref = calib.refs[-1]
        huge = np.full_like(calib.stats[ref].gram_prompt, 1e308)
        calib.stats[ref].gram_prompt, calib.stats[ref].gram_decode = huge, huge.copy()
        calib.save(tmp_path / "huge.racc")
        out = tmp_path / "x.tmc"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["prune", "--model", str(ws["model"]), "--calib",
                        str(tmp_path / "huge.racc"), "--method", "obs",
                        "--sparsity", "0.5", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: calibration ref {ref}: matrix entries must be finite"]
        assert not out.exists()

    @pytest.mark.parametrize("calibration, solved", [
        ("rac", "rac"), ("off-policy", "rac"),
        ("prompt-only", "prompt_only"), ("corpus", "prompt_only"),
    ])
    def test_default_mode_names_the_gram_the_calibration_has(
            self, ws, calibrations, tmp_path, calibration, solved):
        """Without --calib-mode, a calibration with decode columns is solved
        on the merged Gram and any other on the prompt Gram; the run equals
        an explicit --calib-mode run byte for byte."""
        flags = ["prune", "--model", str(ws["model"]), "--calib",
                 str(calibrations[calibration]), "--method", "obs", "--sparsity", "0.5"]
        default, explicit = tmp_path / "default.tmc", tmp_path / "explicit.tmc"
        assert run(flags + ["--out", str(default)]) == 0
        assert run(flags + ["--calib-mode", solved.replace("_", "-"),
                            "--out", str(explicit)]) == 0
        reports = [json.loads(Path(f"{out}.report.json").read_text())
                   for out in (default, explicit)]
        assert [r["calibration_mode"] for r in reports] == [solved, solved]
        assert reports[0]["output_model_hash"] == reports[1]["output_model_hash"]
        assert load_model(default).provenance["compressed"]["calibration_mode"] == solved
        assert default.read_bytes() == explicit.read_bytes()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_corpus_is_no_compression_mode(self, ws, tmp_path, capsys, source):
        """--calib-mode takes prompt-only or rac: a corpus calibration is
        solved on its prompt Gram, under that name."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"calib_mode": "corpus"}))
        out = tmp_path / "x.tmc"
        chosen = (["--calib-mode", "corpus"] if source == "flag"
                  else ["--config", str(cfg)])
        capsys.readouterr()
        assert run(["prune", "--model", str(ws["model"]), "--calib", str(ws["calib"]),
                    "--method", "obs", "--sparsity", "0.5", *chosen,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith({
            "flag": "rackit prune: error: argument --calib-mode: invalid choice: 'corpus'",
            "config": f"error: --config {cfg}: calib_mode: invalid choice 'corpus' "
                      "(choose from prompt-only, rac)",
        }[source])
        assert not out.exists()
        calib_mode, = (f for f in _COMMANDS["prune"].flags if f.name == "--calib-mode")
        assert calib_mode.choices == ("prompt-only", "rac")

    def test_exactly_one_pattern_flag(self, ws, tmp_path):
        base = ["prune", "--model", str(ws["model"]), "--calib",
                str(ws["calib"]), "--method", "obs",
                "--out", str(tmp_path / "x.tmc")]
        assert run(base) == 1
        assert run(base + ["--sparsity", "0.5", "--bits", "4"]) == 1

    def test_nm_flag_audit(self, ws, tmp_path, capsys):
        out = tmp_path / "nm.tmc"
        assert run(["prune", "--model", str(ws["model"]), "--calib",
                    str(ws["calib"]), "--method", "obs", "--nm", "2:4",
                    "--out", str(out)]) == 0
        report = json.loads((tmp_path / "nm.tmc.report.json").read_text())
        for entry in report["refs"].values():
            audit = entry["achieved"]
            assert audit["groups_with_exact_zeros"] == audit["groups"]

    def test_nm_flag_must_parse(self, ws, tmp_path):
        assert run(["prune", "--model", str(ws["model"]), "--calib",
                    str(ws["calib"]), "--method", "obs", "--nm", "24",
                    "--out", str(tmp_path / "x.tmc")]) == 1

    @pytest.mark.parametrize("nm, message", [
        ("4:2", "need 0 < n < m, got n=4 m=2"),
        ("0:4", "need 0 < n < m, got n=0 m=4"),
        ("a:b", "--nm expects integers 'n:m', got 'a:b'"),
    ], ids=["n-above-m", "n-zero", "not-integers"])
    def test_nm_flag_names_the_fault(self, ws, tmp_path, capsys, nm, message):
        out = tmp_path / "x.tmc"
        capsys.readouterr()
        assert run(["prune", "--model", str(ws["model"]), "--calib", str(ws["calib"]),
                    "--method", "obs", "--nm", nm, "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_quantize_pipeline(self, ws, tmp_path, capsys):
        out = tmp_path / "q.tmc"
        assert run(["prune", "--model", str(ws["model"]), "--calib",
                    str(ws["calib"]), "--method", "obs-quant", "--bits", "4",
                    "--group-size", "8", "--out", str(out)]) == 0
        body = out_json(capsys)
        assert body["method"] == "obs_quant"

    def test_group_size_needs_bits(self, ws, tmp_path, capsys):
        """SparsityPattern rejects a group size its kind does not read."""
        out = tmp_path / "x.tmc"
        for pattern, kind in ((["--sparsity", "0.5"], "unstructured"),
                              (["--nm", "2:4"], "semi_structured")):
            capsys.readouterr()
            assert run(["prune", "--model", str(ws["model"]), "--calib", str(ws["calib"]),
                        "--method", "obs", *pattern, "--group-size", "4",
                        "--out", str(out)]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"error: pattern kind {kind!r} takes no group_size"]
            assert not out.exists()

    def test_model_calibration_mismatch_detected(self, ws, tmp_path):
        other = tmp_path / "other.tmc"
        assert run(["gen-model", "--d-model", "16", "--layers", "1", "--heads",
                    "2", "--max-positions", "64", "--seed", "999",
                    "--out", str(other)]) == 0
        assert run(["prune", "--model", str(other), "--calib", str(ws["calib"]),
                    "--method", "obs", "--sparsity", "0.5",
                    "--out", str(tmp_path / "x.tmc")]) == 1

    def test_calibration_ref_width_checked_against_model(self, ws, tmp_path, capsys):
        """A .racc without a model hash, from a narrower model, fails before
        compressing, with the ref named."""
        wide = tmp_path / "wide.tmc"
        assert run(["gen-model", "--d-model", "32", "--layers", "1", "--heads", "2",
                    "--max-positions", "64", "--out", str(wide)]) == 0
        calib = CalibrationSet.load(ws["calib"])
        del calib.provenance["model_hash"]
        calib.save(tmp_path / "anon.racc")
        capsys.readouterr()
        assert run(["prune", "--model", str(wide), "--calib", str(tmp_path / "anon.racc"),
                    "--method", "magnitude", "--sparsity", "0.5",
                    "--out", str(tmp_path / "x.tmc")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "0.attn_q" in err[0]

    def test_singular_gram_without_damping_is_numerical_error(self, ws, tmp_path):
        assert run(["prune", "--model", str(ws["model"]), "--calib",
                    str(ws["calib"]), "--method", "obs", "--sparsity", "0.5",
                    "--damp", "0", "--slots", "mlp_down",
                    "--out", str(tmp_path / "x.tmc")]) == 2

    def test_several_singular_grams_fail_with_one_line(self, ws, tmp_path, capsys):
        """Refs solved in worker processes fail as one ref solved here does:
        exit 2 and the first failing ref's message, with no traceback."""
        model = load_model(ws["model"])
        refs = all_refs(model.config)[:3]
        calib = CalibrationSet.empty(model.config, refs)
        for ref in refs:
            calib.stats[ref].n_prompt = 1  # zero Grams
        calib.save(tmp_path / "zero.racc")
        out = tmp_path / "x.tmc"
        capsys.readouterr()
        assert run(["prune", "--model", str(ws["model"]), "--calib",
                    str(tmp_path / "zero.racc"), "--method", "obs", "--sparsity", "0.5",
                    "--damp", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"numerical failure: {CholeskyError(0)}"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("method", ["magnitude", "wanda", "obs"])
    def test_non_finite_damp_rejected(self, ws, tmp_path, capsys, method, value):
        """Every method checks --damp, also those that never damp."""
        out = tmp_path / "x.tmc"
        assert run(["prune", "--model", str(ws["model"]), "--calib", str(ws["calib"]),
                    "--method", method, "--sparsity", "0.5", "--damp", value,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: dampening fraction must be finite and >= 0, got {value}"]
        assert not out.exists()

    @pytest.mark.parametrize("method", ["magnitude", "wanda", "obs"])
    def test_zero_block_size_rejected(self, ws, tmp_path, capsys, method):
        out = tmp_path / "x.tmc"
        assert run(["prune", "--model", str(ws["model"]), "--calib", str(ws["calib"]),
                    "--method", method, "--sparsity", "0.5", "--block-size", "0",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: block_size must be >= 1"]
        assert not out.exists()

    @pytest.mark.parametrize("method", ["magnitude", "wanda", "obs"])
    def test_block_size_must_align_with_nm_groups(self, ws, tmp_path, capsys, method):
        out = tmp_path / "x.tmc"
        assert run(["prune", "--model", str(ws["model"]), "--calib", str(ws["calib"]),
                    "--method", method, "--nm", "2:4", "--block-size", "3",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: block_size 3 must be a multiple of m=4"]
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--method", "obs", "--bits", "4"],
         "pruning requires an unstructured or semi_structured pattern"),
        (["--method", "obs-quant", "--sparsity", "0.5"],
         "quantize_obs requires a quantize pattern"),
        (["--method", "magnitude", "--bits", "4"],
         "pruning requires an unstructured or semi_structured pattern"),
    ], ids=["obs-bits", "obs-quant-sparsity", "magnitude-bits"])
    def test_method_must_pair_with_pattern(self, ws, tmp_path, capsys, flags, message):
        out = tmp_path / "x.tmc"
        assert run(["prune", "--model", str(ws["model"]), "--calib", str(ws["calib"]),
                    *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("out, report", [
        ("x.tmc", "nodir/r.json"), ("nodir/x.tmc", None), ("x.tmc", "."),
    ], ids=["report-dir-missing", "out-dir-missing", "report-is-a-directory"])
    def test_unwritable_output_fails_before_the_solve(self, ws, tmp_path, capsys,
                                                      monkeypatch, out, report):
        """Output paths are checked before compress_model runs: exit 3, one
        stderr line, and no .tmc, report or sidecar left behind."""
        monkeypatch.chdir(tmp_path)
        solves = []
        monkeypatch.setattr("rackit.cli.compress_model",
                            lambda *a, **k: solves.append(1))
        argv = ["prune", "--model", str(ws["model"]), "--calib", str(ws["calib"]),
                "--method", "obs", "--sparsity", "0.5", "--out", out]
        capsys.readouterr()
        assert run(argv + (["--report", report] if report else [])) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("i/o failure: output ")
        assert solves == []
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("which, mutate", [
        ("model", lambda m, blob: m["tensors"]["layers.0.attn_q"].update(offset=-4)),
        ("model", lambda m, blob: m["tensors"]["layers.0.attn_q"].pop("shape")),
        ("model", lambda m, blob: m.update(tensors=list(m["tensors"].values()))),
        ("model", lambda m, blob: m["config"].update(d_model=7)),
        ("model", lambda m, blob: m["config"].update(d_model=16.0)),
        ("model", lambda m, blob: m["config"].update(layernorm_epsilon=float("nan"))),
        ("model", lambda m, blob: m["tensors"]["layers.0.attn_q"].update(offset=0)),
        ("model", lambda m, blob: blob.__setitem__(slice(-4, None),
                                                   struct.pack("<f", float("inf")))),
        ("calib", lambda m, blob: m["refs"][0].pop("layer")),
        ("calib", lambda m, blob: m["refs"].__setitem__(1, dict(m["refs"][0]))),
        ("calib", lambda m, blob: blob.__setitem__(
            slice(m["refs"][0]["offset_prompt"], m["refs"][0]["offset_prompt"] + 8),
            struct.pack("<d", float("nan")))),
        ("calib", lambda m, blob: m["refs"][0].update(
            offset_decode=m["refs"][0]["offset_prompt"])),
        ("calib", lambda m, blob: m["provenance"].update(model_hash=5)),
        ("calib", lambda m, blob: m["provenance"].update(mode=["rac"])),
        ("calib", lambda m, blob: [ref.update(n_decode=0) for ref in m["refs"]]),
        ("calib", lambda m, blob: blob.__setitem__(
            slice(m["refs"][0]["offset_prompt"], m["refs"][0]["offset_prompt"] + 8),
            struct.pack("<d", -struct.unpack_from("<d", blob,
                                                  m["refs"][0]["offset_prompt"])[0]))),
    ], ids=["tmc-negative-offset", "tmc-missing-shape", "tmc-tensors-list",
            "tmc-heads-do-not-divide", "tmc-float-d-model", "tmc-nan-ln-eps",
            "tmc-offset-off-layout", "tmc-inf-weight", "racc-ref-without-layer",
            "racc-duplicate-ref", "racc-nan-gram", "racc-offset-off-layout",
            "racc-int-model-hash", "racc-list-mode", "racc-zero-count-nonzero-gram",
            "racc-negative-diagonal"])
    def test_malformed_manifest_exits_3(self, ws, tmp_path, capsys, which, mutate):
        """Each mutation of a good container exits 3 with a one-line message
        that names the damaged file.

        The framing (4-byte magic, u64 LE manifest length, JSON, blob) is
        unpacked here by hand, not through rackit's reader.
        """
        inputs = {"model": ws["model"], "calib": ws["calib"]}
        src = inputs[which]
        data = src.read_bytes()
        (mlen,) = struct.unpack_from("<Q", data, 4)
        manifest = json.loads(data[12 : 12 + mlen])
        blob = bytearray(data[12 + mlen :])
        mutate(manifest, blob)
        mbytes = json.dumps(manifest).encode()
        inputs[which] = tmp_path / src.name
        inputs[which].write_bytes(
            data[:4] + struct.pack("<Q", len(mbytes)) + mbytes + bytes(blob)
        )
        capsys.readouterr()
        assert run(["prune", "--model", str(inputs["model"]),
                    "--calib", str(inputs["calib"]), "--method", "magnitude",
                    "--sparsity", "0.5", "--out", str(tmp_path / "x.tmc")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"i/o failure: {inputs[which]}: ")


@pytest.mark.parametrize("command", ["calibrate", "prune"])
@pytest.mark.parametrize("flags, message", [
    (["--layers", "5"], "ref 5.attn_q out of range for a 1-layer model"),
    (["--slots", "foo"], f"unknown slot 'foo', expected one of {SLOTS}"),
    (["--layers", "x"], "bad --layers value 'x'"),
    (["--layers", ","], "--layers selected nothing"),
], ids=["layer-out-of-range", "unknown-slot", "layer-not-an-integer", "layers-empty"])
def test_bad_ref_flags_exit_1_with_the_library_message(ws, tmp_path, capsys, command,
                                                       flags, message):
    """--layers and --slots are checked where refs are: an unknown slot by
    PrunableLayerRef, a layer the model lacks by check_ref."""
    out = tmp_path / "out"
    inputs = {"calibrate": ["--mode", "prompt-only", "--prompts", str(ws["prompts"])],
              "prune": ["--calib", str(ws["calib"]), "--method", "obs",
                        "--sparsity", "0.5"]}[command]
    capsys.readouterr()
    assert run([command, "--model", str(ws["model"]), *inputs, *flags,
                "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("calibrate", "--model"), ("calibrate", "--prompts"), ("calibrate", "--corpus"),
    ("calibrate", "--trace-model"), ("prune", "--model"), ("prune", "--calib"),
    ("diagnose", "--dense"), ("diagnose", "--compressed"), ("diagnose", "--prompts"),
    ("eval", "--model"), ("eval", "--text"),
])
def test_missing_input_exits_3_naming_the_path(ws, tmp_path, capsys, command, flag):
    """Each input flag pointed at a missing file: exit 3, one stderr line
    that names the path, and no output written."""
    corpus = tmp_path / "c.bin"
    corpus.write_bytes(bytes(range(1, 200)))
    text = tmp_path / "text.bin"
    text.write_bytes(bytes(1 + i % 255 for i in range(400)))
    out = tmp_path / "out"
    model, prompts, calib = str(ws["model"]), str(ws["prompts"]), str(ws["calib"])
    argv = {
        ("calibrate", "--corpus"): ["--model", model, "--mode", "corpus",
                                    "--corpus", str(corpus), "--token-budget", "64",
                                    "--out", str(out)],
        ("calibrate", "--trace-model"): ["--model", model, "--mode", "off-policy",
                                         "--prompts", prompts, "--t-max", "4",
                                         "--trace-model", model, "--out", str(out)],
    }.get((command, flag), {
        "calibrate": ["--model", model, "--mode", "rac", "--prompts", prompts,
                      "--t-max", "4", "--out", str(out)],
        "prune": ["--model", model, "--calib", calib, "--method", "obs",
                  "--sparsity", "0.5", "--out", str(out)],
        "diagnose": ["--dense", model, "--compressed", model, "--prompts", prompts,
                     "--t-max", "4", "--out-dir", str(out)],
        "eval": ["--model", model, "--text", str(text), "--out", str(out)],
    }[command])
    ghost = tmp_path / "ghost.bin"
    argv[argv.index(flag) + 1] = f"c={ghost}" if flag == "--compressed" else str(ghost)
    capsys.readouterr()
    assert run([command, *argv]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(ghost) in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("gen-model", ["--d-model", "16", "--layers", "1", "--heads", "2"]),
    ("calibrate", ["--model", "GHOST", "--mode", "rac", "--prompts", "GHOST",
                   "--t-max", "4"]),
    ("prune", ["--model", "GHOST", "--calib", "GHOST", "--method", "obs",
               "--sparsity", "0.5"]),
    ("diagnose", ["--dense", "GHOST", "--compressed", "GHOST", "--prompts", "GHOST"]),
    ("eval", ["--model", "GHOST", "--text", "GHOST"]),
])
def test_negative_seed_rejected_before_any_file_is_read(tmp_path, capsys, command, flags):
    """Every input path is missing: the seed check comes first."""
    ghost = str(tmp_path / "ghost")
    out = tmp_path / "out"
    out_flag = "--out-dir" if command == "diagnose" else "--out"
    argv = [command, *(ghost if f == "GHOST" else f for f in flags),
            "--seed", "-1", out_flag, str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: --seed must be >= 0"]
    assert not out.exists()


@pytest.mark.parametrize("command, flags, extra", [
    ("calibrate", ["--mode", "rac", "--bogus", "1"], "--bogus 1"),
    ("eval", ["stray", "--text", "GHOST"], "stray"),
], ids=["flag", "positional"])
def test_unknown_argument_is_reported_by_its_subcommand(tmp_path, capsys, command, flags,
                                                        extra):
    """The subcommand's usage and name, as for an invalid choice; no file is read."""
    ghost = str(tmp_path / "ghost")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, "--model", ghost, *(ghost if f == "GHOST" else f for f in flags),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].startswith(f"usage: rackit {command} ")
    assert err[-1] == f"rackit {command}: error: unrecognized arguments: {extra}"
    assert not out.exists()


@pytest.fixture(scope="module")
def compressed_pair(ws):
    rac = ws["root"] / "diag_rac.tmc"
    mag = ws["root"] / "diag_mag.tmc"
    assert main(["prune", "--model", str(ws["model"]), "--calib",
                 str(ws["calib"]), "--method", "obs", "--sparsity", "0.5",
                 "--out", str(rac)]) == 0
    assert main(["prune", "--model", str(ws["model"]), "--calib",
                 str(ws["calib"]), "--method", "magnitude", "--sparsity",
                 "0.5", "--out", str(mag)]) == 0
    return rac, mag


class TestDiagnose:
    def test_two_model_comparison_produces_all_artifacts(self, ws,
                                                         compressed_pair,
                                                         tmp_path, capsys):
        rac, mag = compressed_pair
        out_dir = tmp_path / "diag"
        assert run(["diagnose", "--dense", str(ws["model"]),
                    "--compressed", f"obs={rac}",
                    "--compressed", f"mag={mag}",
                    "--prompts", str(ws["prompts"]), "--t-max", "8",
                    "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "errors.csv").exists()
        assert (out_dir / "ratios.csv").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary["phase_means"]) == {"obs", "mag"}
        assert summary["ratio"] == {"numerator": "obs", "denominator": "mag"}
        assert summary["problems"] == 3
        body = out_json(capsys)
        assert body["problems"] == 3

    def test_single_model_skips_ratios(self, ws, compressed_pair, tmp_path):
        rac, _ = compressed_pair
        out_dir = tmp_path / "solo"
        assert run(["diagnose", "--dense", str(ws["model"]),
                    "--compressed", f"obs={rac}",
                    "--prompts", str(ws["prompts"]), "--t-max", "6",
                    "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "errors.csv").exists()
        assert not (out_dir / "ratios.csv").exists()

    def test_self_comparison_is_all_zero_error(self, ws, tmp_path):
        out_dir = tmp_path / "self"
        assert run(["diagnose", "--dense", str(ws["model"]),
                    "--compressed", f"same={ws['model']}",
                    "--prompts", str(ws["prompts"]), "--t-max", "6",
                    "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["phase_means"]["same"]["mean_prompt_error"] == 0.0
        assert summary["phase_means"]["same"]["mean_decode_error"] == 0.0

    @pytest.mark.parametrize("models, blocker", [
        (1, "summary.json"), (2, "ratios.csv"), (1, None),
    ], ids=["summary-is-a-directory", "ratios-is-a-directory", "out-dir-is-a-file"])
    def test_blocked_output_fails_before_rollouts(self, ws, compressed_pair, tmp_path,
                                                  capsys, monkeypatch, models, blocker):
        """Every output is checked before any input is read: exit 3, one
        stderr line, no rollouts and no errors.csv."""
        out_dir = tmp_path / "diag"
        if blocker is None:
            out_dir.write_text("")
        else:
            (out_dir / blocker).mkdir(parents=True)
        runs = []
        monkeypatch.setattr("rackit.cli.rollouts", lambda *a, **k: runs.append(1))
        pairs = [f"m{i}={path}" for i, path in enumerate(compressed_pair[:models])]
        capsys.readouterr()
        assert run(["diagnose", "--dense", str(ws["model"]),
                    *(arg for pair in pairs for arg in ("--compressed", pair)),
                    "--prompts", str(ws["prompts"]), "--t-max", "4",
                    "--out-dir", str(out_dir)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("i/o failure: output ")
        assert runs == []
        assert not (out_dir / "errors.csv").exists()

    def test_duplicate_labels_rejected(self, ws, compressed_pair, tmp_path):
        rac, mag = compressed_pair
        assert run(["diagnose", "--dense", str(ws["model"]),
                    "--compressed", f"x={rac}", "--compressed", f"x={mag}",
                    "--prompts", str(ws["prompts"]),
                    "--out-dir", str(tmp_path / "dup")]) == 1

    def test_empty_label_rejected(self, ws, compressed_pair, tmp_path, capsys):
        rac, _ = compressed_pair
        capsys.readouterr()
        assert run(["diagnose", "--dense", str(ws["model"]),
                    "--compressed", f"={rac}", "--prompts", str(ws["prompts"]),
                    "--out-dir", str(tmp_path / "empty")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: empty label in --compressed '={rac}'"]

    def test_more_than_two_models_rejected(self, ws, compressed_pair, tmp_path):
        rac, mag = compressed_pair
        assert run(["diagnose", "--dense", str(ws["model"]),
                    "--compressed", f"a={rac}", "--compressed", f"b={mag}",
                    "--compressed", f"c={rac}",
                    "--prompts", str(ws["prompts"]),
                    "--out-dir", str(tmp_path / "many")]) == 1


class TestEval:
    def test_token_count_matches_budget(self, ws, tmp_path, capsys):
        text = tmp_path / "text.bin"
        text.write_bytes(bytes([1 + (i % 255) for i in range(400)]))
        out = tmp_path / "eval.json"
        assert run(["eval", "--model", str(ws["model"]), "--text", str(text),
                    "--budget", "50", "--out", str(out)]) == 0
        body = out_json(capsys)
        assert body["tokens"] == 50
        assert json.loads(out.read_text())["tokens"] == 50
        assert np.isfinite(body["mean_nll"])

    @pytest.mark.parametrize("out", [".", "nodir/eval.json"], ids=["directory", "dir-missing"])
    def test_unwritable_out_prints_nothing(self, ws, tmp_path, capsys, monkeypatch, out):
        """A failed --out write exits 3 with one stderr line and no result on
        stdout: the file is checked before the forward and written before
        the result is printed."""
        text = tmp_path / "text.bin"
        text.write_bytes(bytes([1 + (i % 255) for i in range(400)]))
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert run(["eval", "--model", str(ws["model"]), "--text", str(text),
                    "--budget", "50", "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("i/o failure: output ")
        assert sorted(tmp_path.iterdir()) == [text]

    def test_out_is_written_before_the_result_is_printed(self, ws, tmp_path, capsys,
                                                         monkeypatch):
        """Past the path check, a write that fails still prints nothing."""
        text = tmp_path / "text.bin"
        text.write_bytes(bytes([1 + (i % 255) for i in range(400)]))
        out = tmp_path / "eval.json"
        monkeypatch.setattr("rackit.cli._check_output_paths", lambda *paths: None)
        out.mkdir()
        capsys.readouterr()
        assert run(["eval", "--model", str(ws["model"]), "--text", str(text),
                    "--budget", "50", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1


class TestOutputCollisions:
    """No output may overwrite another output of its command, the sidecar
    included, or one of its inputs: exit 1 with one line naming both flags,
    before any input is read."""

    @pytest.mark.parametrize("command, argv, message", [
        ("prune", ["--report", "o.tmc", "--out", "o.tmc"],
         "--out and --report are the same file o.tmc"),
        ("prune", ["--report", "o.tmc.log", "--out", "o.tmc"],
         "--report and --out's sidecar are the same file o.tmc.log"),
        ("prune", ["--out", "c.racc"], "--out and --calib are the same file c.racc"),
        ("eval", ["--out", "m.tmc"], "--out and --model are the same file m.tmc"),
        ("eval", ["--out", "./sub/../m.tmc"],
         "--out and --model are the same file m.tmc"),
        ("calibrate", ["--out", "p.txt"], "--out and --prompts are the same file p.txt"),
        ("calibrate", ["--out", "c.racc", "--config", "c.racc.log"],
         "--out's sidecar and --config are the same file c.racc.log"),
        ("gen-model", ["--out", "cfg.json", "--config", "cfg.json"],
         "--out and --config are the same file cfg.json"),
        ("diagnose", ["--out-dir", ".", "--prompts", "summary.json"],
         "--out-dir's summary.json and --prompts are the same file summary.json"),
    ], ids=["prune-report-is-out", "prune-report-is-sidecar", "prune-out-is-calib",
            "eval-out-is-model", "eval-out-is-model-by-another-path",
            "calibrate-out-is-prompts", "calibrate-sidecar-is-config",
            "gen-model-out-is-config", "diagnose-summary-is-prompts"])
    def test_collision_exits_1_before_any_input_is_read(
            self, ws, tmp_path, capsys, monkeypatch, command, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        inputs = {"m.tmc": ws["model"].read_bytes(), "c.racc": ws["calib"].read_bytes(),
                  "p.txt": ws["prompts"].read_bytes(), "t.bin": bytes(range(1, 101)),
                  "summary.json": ws["prompts"].read_bytes(), "cfg.json": b"{}",
                  "c.racc.log": b"{}"}
        for name, data in inputs.items():
            (tmp_path / name).write_bytes(data)
        loads = []
        monkeypatch.setattr("rackit.cli.load_model", lambda *a: loads.append(a))
        flags = {
            "gen-model": ["--d-model", "16", "--layers", "1", "--heads", "2"],
            "calibrate": ["--model", "m.tmc", "--mode", "prompt-only", "--prompts", "p.txt"],
            "prune": ["--model", "m.tmc", "--calib", "c.racc", "--method", "obs",
                      "--sparsity", "0.5"],
            "diagnose": ["--dense", "m.tmc", "--compressed", "m.tmc"],
            "eval": ["--model", "m.tmc", "--text", "t.bin"],
        }[command]
        capsys.readouterr()
        assert run([command, *flags, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert loads == []
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()
                if path.is_file()} == inputs


_COST_FIELDS = ("cpu_s", "peak_rss_mb", "children_peak_rss_mb")


class TestSidecarCost:
    """Every sidecar records the command's CPU seconds and peak memory."""

    def test_every_command_records_its_cost(self, ws, compressed_pair, tmp_path):
        pytest.importorskip("resource")
        text = tmp_path / "text.bin"
        text.write_bytes(bytes(range(1, 101)))
        model, calib, pruned = tmp_path / "m.tmc", tmp_path / "c.racc", tmp_path / "p.tmc"
        runs = [
            (["gen-model", "--d-model", "16", "--layers", "1", "--heads", "2",
              "--out", str(model)], model),
            (["calibrate", "--model", str(ws["model"]), "--mode", "prompt-only",
              "--prompts", str(ws["prompts"]), "--out", str(calib)], calib),
            (["prune", "--model", str(ws["model"]), "--calib", str(ws["calib"]),
              "--method", "magnitude", "--sparsity", "0.5", "--out", str(pruned)], pruned),
            (["diagnose", "--dense", str(ws["model"]),
              "--compressed", f"obs={compressed_pair[0]}", "--prompts", str(ws["prompts"]),
              "--t-max", "4", "--out-dir", str(tmp_path / "diag")], tmp_path / "diag" / "run"),
            (["eval", "--model", str(ws["model"]), "--text", str(text), "--budget", "20",
              "--out", str(tmp_path / "eval.json")], tmp_path / "eval.json"),
        ]
        for argv, target in runs:
            assert run(argv) == 0, argv[0]
            log = json.loads(Path(f"{target}.log").read_text())
            for field in _COST_FIELDS:
                assert math.isfinite(log[field]) and log[field] >= 0, (argv[0], field)
            assert log["peak_rss_mb"] > 0

    def test_obs_prune_records_its_largest_worker(self, ws, tmp_path):
        """In a fresh process the only children are the prune's workers."""
        pytest.importorskip("resource")
        if usable_cpus() < 2:
            pytest.skip("obs solves run in workers only with two usable CPUs")
        out = tmp_path / "p.tmc"
        fresh_python("""
            import sys
            from rackit.cli import main
            sys.exit(main(sys.argv[1:]))
        """, "prune", "--model", str(ws["model"]), "--calib", str(ws["calib"]),
                     "--method", "obs", "--sparsity", "0.5", "--out", str(out))
        log = json.loads(Path(f"{out}.log").read_text())
        assert log["children_peak_rss_mb"] > 0
        assert log["cpu_s"] > 0
