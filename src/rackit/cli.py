"""Command-line pipeline.

Subcommands: ``gen-model``, ``calibrate``, ``prune``, ``diagnose``, ``eval``.
Exit codes: 0 success, 1 validation problem, 2 numerical failure, 3 I/O or
container problem.

Every command takes a single ``--seed``; internal streams derive from it with
fixed offsets (the model generator uses the seed itself, decode sampling uses
seed + 1). Given identical flags and seeds a command overwrites its outputs
with byte-identical artifacts; wall-clock data goes to a ``<output>.log``
sidecar, never into artifact bodies. An optional ``--config <json>`` supplies
defaults for any flag, with explicit flags taking precedence; its keys are
the flag names without the leading dashes, other dashes turned into
underscores (``--t-max`` is ``"t_max"``).

Each sidecar also records what its command cost: ``cpu_s``, the user and
system seconds of the process and of the children it reaped during the
command; ``peak_rss_mb``, the process's peak resident set in MiB; and
``children_peak_rss_mb``, that of its largest reaped child (0 for none), which
is not the sum of ``prune``'s workers and, since a child's peak cannot be
reset, is exact only in a fresh process. They need the Unix ``resource``
module.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

try:
    import resource
except ImportError:  # Unix only
    resource = None

from .calibration import (
    DECODE_MODES,
    MODES,
    CalibrationConfig,
    CalibrationSet,
    collect,
    load_prompt_file,
)
from .compress import (
    COMPRESSION_MODES,
    DEFAULT_BLOCK_SIZE,
    DEFAULT_DAMP_FRACTION,
    METHODS,
    SparsityPattern,
    compress_model,
)
# ``decode`` and ``error_trace`` are no longer called here. They stay in this
# module's namespace because bench/tracer.py wraps them by that name.
from .diagnostics import (
    DiagnosticTrace,
    error_trace,
    error_traces,
    eval_nll,
    ratio_map,
    summarize_phase_errors,
    write_errors_csv,
    write_json,
    write_ratios_csv,
)
from .errors import ContainerError, NumericalError, ValidationError
from .model import (
    ModelConfig,
    PrunableLayerRef,
    Sampler,
    SLOTS,
    config_as_dict,
    decode,
    generate_model,
    load_model,
    model_content_hash,
    rollouts,
    save_model,
    sort_refs,
)
from .model.bundle import check_count

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# Fixed per-phase offsets applied to --seed.
_MODEL_SEED_OFFSET = 0
_DECODE_SEED_OFFSET = 1

_REQUIRED = object()


class _Flag(NamedTuple):
    """One command-line flag; ``dest`` is its attribute and ``--config`` key."""

    name: str
    default: object = None
    type: Callable | None = None
    choices: tuple | None = None
    repeat: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


class _Command(NamedTuple):
    handler: Callable
    help: str
    flags: tuple[_Flag, ...]


# Every command takes --seed and --config as well as its own flags.
_SEED = _Flag("--seed", 0, int)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; remap to the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_VALIDATION)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


# ru_maxrss is in bytes on macOS and in KiB elsewhere.
_MAXRSS_MIB = 1 / 2**20 if sys.platform == "darwin" else 1 / 2**10


def _cpu_seconds() -> float:
    """User plus system seconds of this process and its reaped children so far."""
    if resource is None:
        return 0.0
    return sum(usage.ru_utime + usage.ru_stime for usage in map(
        resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def _cost_fields(cpu_start: float) -> dict:
    """The sidecar's CPU and memory fields, CPU counted from ``cpu_start``."""
    if resource is None:
        return {}
    return {
        "cpu_s": _cpu_seconds() - cpu_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _MAXRSS_MIB,
        "children_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * _MAXRSS_MIB,
    }


def _sidecar(target) -> Path:
    """The ``.log`` file that records a command's timing and cost."""
    return Path(f"{target}.log")


def _check_output_paths(args, outputs: dict, inputs: dict) -> None:
    """Check a command's outputs before it reads any input but ``--config``.

    ``outputs`` and ``inputs`` map a flag, or a file named after one, to its
    path (None where unset). The sidecar of ``--out`` is one more output and
    ``--config`` one more input. Raise :class:`ValidationError` naming the two
    when an output resolves to the same file as another output or an input,
    and :class:`OSError` for an output whose directory is missing or that is
    itself a directory.
    """
    if outputs.get("--out") is not None:
        outputs = {**outputs, "--out's sidecar": _sidecar(outputs["--out"])}
    owners = {}
    for name, path in [*outputs.items(), *inputs.items(), ("--config", args.config)]:
        if path is None:
            continue
        key = Path(path).resolve()
        if key in owners:
            raise ValidationError(f"{owners[key]} and {name} are the same file {path}")
        if name in outputs:
            owners[key] = name
    for path in (Path(path) for path in outputs.values() if path is not None):
        if not path.parent.is_dir():
            raise FileNotFoundError(f"output directory {path.parent} does not exist")
        if path.is_dir():
            raise IsADirectoryError(f"output path {path} is a directory")


def _command_flags(command: str) -> tuple[_Flag, ...]:
    return _COMMANDS[command].flags + (_SEED,)


def _config_value(path, key: str, value, flag: _Flag):
    """One ``--config`` value, parsed as argparse parses the flag's text; a
    repeat flag's value is a list, as if the flag were given once per item."""
    if flag.repeat:
        return [_config_value(path, key, item, flag._replace(repeat=False))
                for item in (value if isinstance(value, list) else [value])]
    if isinstance(value, (dict, list)):
        raise ValidationError(f"--config {path}: {key} must be a single value, got {value!r}")
    if isinstance(value, str) and "\0" in value:
        raise ValidationError(f"--config {path}: {key} holds a NUL character")
    try:
        parsed = flag.type(str(value)) if flag.type is not None else str(value)
    except ValueError:
        raise ValidationError(
            f"--config {path}: {key}: invalid {flag.type.__name__} value {value!r}"
        ) from None
    if flag.choices is not None and parsed not in flag.choices:
        raise ValidationError(
            f"--config {path}: {key}: invalid choice {value!r} "
            f"(choose from {', '.join(map(str, flag.choices))})"
        )
    return parsed


def _merge_config(args) -> None:
    """Fill unset flags from --config, then from the command table's defaults.

    A JSON null in the file counts as not given.
    """
    flags = {flag.dest: flag for flag in _command_flags(args.command)}
    cfg = {}
    if args.config is not None:
        try:
            raw = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"--config {args.config}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
        try:
            cfg = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"--config {args.config}: bad JSON ({exc})") from exc
        if not isinstance(cfg, dict):
            raise ValidationError(f"--config {args.config}: expected a JSON object")
        unknown = sorted(set(cfg) - set(flags))
        if unknown:
            raise ValidationError(
                f"--config {args.config}: unknown keys {unknown}; "
                f"allowed: {sorted(flags)}"
            )
        cfg = {key: _config_value(args.config, key, value, flags[key])
               for key, value in cfg.items() if value is not None}
    for key, flag in flags.items():
        if getattr(args, key) is None:
            value = cfg.get(key, flag.default)
            if value is _REQUIRED:
                args.command_parser.error(f"the following argument is required: {flag.name}")
            setattr(args, key, value)
    check_count("--seed", args.seed, 0)


def _parse_list(flag: str, spec, everything, parse=str) -> list:
    """A comma-separated flag value; unset or ``all`` selects ``everything``."""
    if spec is None or spec == "all":
        return list(everything)
    try:
        items = [parse(part) for part in str(spec).split(",") if part != ""]
    except ValueError:
        raise ValidationError(f"bad {flag} value {spec!r}") from None
    if not items:
        raise ValidationError(f"{flag} selected nothing")
    return items


def _refs_from_flags(layers_spec, slots_spec, n_layers: int):
    """The refs that --layers and --slots select. ``PrunableLayerRef`` checks
    each slot name; the library checks each layer against the model."""
    layers = _parse_list("--layers", layers_spec, range(n_layers), int)
    slots = _parse_list("--slots", slots_spec, SLOTS)
    return sort_refs(PrunableLayerRef(i, s) for i in layers for s in slots)


# ---------------------------------------------------------------------------
# gen-model

def _cmd_gen_model(args) -> tuple[object, dict]:
    _check_output_paths(args, {"--out": args.out}, {})
    d_mlp = args.d_mlp if args.d_mlp is not None else 4 * args.d_model
    config = ModelConfig(
        d_model=args.d_model,
        n_layers=args.layers,
        n_heads=args.heads,
        d_mlp=d_mlp,
        max_positions=args.max_positions,
        layernorm_epsilon=args.ln_eps,
    )
    bundle = generate_model(config, args.seed + _MODEL_SEED_OFFSET)
    save_model(bundle, args.out)
    digest = model_content_hash(bundle)
    print(json.dumps({"model": str(args.out), "hash": digest,
                      "config": config_as_dict(config), "seed": args.seed}))
    return args.out, {"model_hash": digest}


# ---------------------------------------------------------------------------
# calibrate

def _cmd_calibrate(args) -> tuple[object, dict]:
    _check_output_paths(args, {"--out": args.out}, {
        "--model": args.model, "--prompts": args.prompts, "--corpus": args.corpus,
        "--trace-model": args.trace_model})
    mode = str(args.mode).replace("-", "_")
    model = load_model(args.model)
    refs = _refs_from_flags(args.layers, args.slots, model.config.n_layers)
    trace_model = load_model(args.trace_model) if args.trace_model else None
    corpus = Path(args.corpus).read_bytes() if args.corpus is not None else None
    prompts = load_prompt_file(args.prompts) if args.prompts is not None else ()
    # CalibrationConfig rejects an input the mode does not read or a missing one.
    config = CalibrationConfig(
        mode=mode,
        prompts=prompts,
        corpus=corpus,
        t_max=args.t_max,
        sampler=Sampler(args.temperature, seed=args.seed + _DECODE_SEED_OFFSET),
        trace_model=trace_model,
        token_budget=args.token_budget,
    )
    calib = collect(model, config, refs)
    calib.provenance["seed"] = args.seed
    calib.save(args.out)
    first = calib.stats[calib.refs[0]]
    digest = calib.content_digest()
    print(json.dumps({"calibration": str(args.out), "mode": mode,
                      "refs": len(calib.refs),
                      "n_prompt": first.n_prompt, "n_decode": first.n_decode,
                      "digest": digest}))
    return args.out, {"digest": digest}


# ---------------------------------------------------------------------------
# prune

def _pattern_from_flags(args) -> SparsityPattern:
    chosen = [name for name, value in
              (("--sparsity", args.sparsity), ("--nm", args.nm), ("--bits", args.bits))
              if value is not None]
    if len(chosen) != 1:
        raise ValidationError(
            f"exactly one of --sparsity, --nm, --bits must be given (got {chosen or 'none'})"
        )
    if args.sparsity is not None:
        given = {"kind": "unstructured", "sparsity": args.sparsity}
    elif args.nm is not None:
        n, sep, m = str(args.nm).partition(":")
        if not sep:
            raise ValidationError(f"--nm expects 'n:m', got {args.nm!r}")
        try:
            given = {"kind": "semi_structured", "n": int(n), "m": int(m)}
        except ValueError:
            raise ValidationError(f"--nm expects integers 'n:m', got {args.nm!r}") from None
    else:
        given = {"kind": "quantize", "bits": args.bits}
    # The pattern rejects a --group-size its kind does not read.
    return SparsityPattern(**given, group_size=args.group_size)


def _cmd_prune(args) -> tuple[object, dict]:
    pattern = _pattern_from_flags(args)
    report_path = args.report if args.report is not None else f"{args.out}.report.json"
    _check_output_paths(args, {"--out": args.out, "--report": report_path},
                        {"--model": args.model, "--calib": args.calib})
    model = load_model(args.model)
    calib = CalibrationSet.load(args.calib)
    if args.calib_mode is not None:
        mode = args.calib_mode.replace("-", "_")
    else:
        mode = "rac" if calib.provenance.get("mode") in DECODE_MODES else "prompt_only"
    refs = (None if args.layers is None and args.slots is None
            else _refs_from_flags(args.layers, args.slots, model.config.n_layers))

    bundle, report = compress_model(
        model, calib, mode, args.method.replace("-", "_"), pattern, refs=refs,
        block_size=args.block_size, damp_fraction=args.damp,
    )
    bundle = replace(bundle, provenance={
        **model.provenance,
        "compressed": {
            "method": report.method,
            "pattern": report.pattern,
            "calibration_mode": mode,
            "calibration_digest": calib.content_digest(),
            "seed": args.seed,
        },
    })
    save_model(bundle, args.out)

    body = report.as_dict()
    body["seed"] = args.seed
    write_json(report_path, body)

    total_loss = sum(r.loss for r in report.refs)
    print(json.dumps({"model": str(args.out), "report": str(report_path),
                      "method": report.method, "mode": mode,
                      "refs": len(report.refs), "total_loss": total_loss,
                      "input_model_hash": report.input_model_hash,
                      "output_model_hash": report.output_model_hash}))
    return args.out, {"per_ref_seconds": report.timings()}


# ---------------------------------------------------------------------------
# diagnose

def _parse_labeled_models(specs) -> list[tuple[str, str]]:
    pairs = []
    for spec in specs:
        label, sep, path = str(spec).partition("=")
        if not sep:
            label, path = Path(spec).stem, spec
        if not label:
            raise ValidationError(f"empty label in --compressed {spec!r}")
        pairs.append((label, path))
    labels = [label for label, _ in pairs]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"duplicate labels in --compressed: {labels}")
    return pairs


def _cmd_diagnose(args) -> tuple[object, dict]:
    pairs = _parse_labeled_models(args.compressed)
    if not 1 <= len(pairs) <= 2:
        raise ValidationError(
            f"--compressed takes one or two models, got {len(pairs)}"
        )
    out_dir = Path(args.out_dir)
    if out_dir.exists() and not out_dir.is_dir():
        raise NotADirectoryError(f"output directory {out_dir} is not a directory")
    names = ["errors.csv", "summary.json"] + (["ratios.csv"] if len(pairs) == 2 else [])
    if out_dir.is_dir():  # otherwise it is made below, and holds no input yet
        _check_output_paths(
            args, {**{f"--out-dir's {name}": out_dir / name for name in names},
                   "--out-dir's run.log": _sidecar(out_dir / "run")},
            {"--dense": args.dense, "--prompts": args.prompts,
             **{f"--compressed {label}": path for label, path in pairs}})
    dense = load_model(args.dense)
    compressed = [(label, load_model(path)) for label, path in pairs]
    prompts = load_prompt_file(args.prompts)
    out_dir.mkdir(parents=True, exist_ok=True)

    labels = [label for label, _ in compressed]
    models = [bundle for _, bundle in compressed]
    sequences = rollouts(dense, prompts, args.t_max)
    traces = []
    for idx, (prompt, (rollout, _)) in enumerate(zip(prompts, sequences)):
        traces.append(DiagnosticTrace(
            problem_id=f"p{idx}",
            boundary=len(prompt),
            errors=dict(zip(labels, error_traces(dense, models, rollout))),
        ))

    write_errors_csv(out_dir / "errors.csv", traces)
    summary = summarize_phase_errors(traces)
    extra = {
        "dense_model_hash": model_content_hash(dense),
        "compressed_models": {label: model_content_hash(bundle)
                              for label, bundle in compressed},
        "t_max": args.t_max,
        "problems": len(traces),
        "seed": args.seed,
    }
    if len(compressed) == 2:
        first, second = compressed[0][0], compressed[1][0]
        ratios = ratio_map([t.errors[first] for t in traces],
                           [t.errors[second] for t in traces])
        write_ratios_csv(out_dir / "ratios.csv",
                         [t.problem_id for t in traces], ratios)
        extra["ratio"] = {"numerator": first, "denominator": second}
    write_json(out_dir / "summary.json", {"phase_means": summary, **extra})

    print(json.dumps({"out_dir": str(out_dir), "problems": len(traces),
                      "phase_means": summary}))
    return out_dir / "run", {}


# ---------------------------------------------------------------------------
# eval

def _cmd_eval(args) -> tuple[object, dict]:
    _check_output_paths(args, {"--out": args.out},
                        {"--model": args.model, "--text": args.text})
    model = load_model(args.model)
    result = eval_nll(model, Path(args.text).read_bytes(), args.budget)
    body = {"mean_nll": result.mean_nll, "tokens": result.tokens,
            "budget": args.budget, "model_hash": model_content_hash(model),
            "seed": args.seed}
    if args.out is not None:
        write_json(args.out, body)
    print(json.dumps(body))
    return args.out, {}


# ---------------------------------------------------------------------------

def _dashed(names) -> tuple[str, ...]:
    """The CLI's spelling of the library's names; handlers turn it back."""
    return tuple(name.replace("_", "-") for name in names)


# The one declaration of each command: its handler, its help line and its
# flags in --help order, each with its default (or _REQUIRED) and its type.
_COMMANDS = {
    "gen-model": _Command(_cmd_gen_model, "generate a seeded random model", (
        _Flag("--d-model", _REQUIRED, int),
        _Flag("--layers", _REQUIRED, int),
        _Flag("--heads", _REQUIRED, int),
        _Flag("--d-mlp", None, int),
        _Flag("--max-positions", 256, int),
        _Flag("--ln-eps", 1e-5, float),
        _Flag("--out", _REQUIRED),
    )),
    "calibrate": _Command(_cmd_calibrate, "collect per-layer Gram statistics", (
        _Flag("--model", _REQUIRED),
        _Flag("--mode", _REQUIRED, choices=_dashed(MODES)),
        _Flag("--prompts"),
        _Flag("--corpus"),
        _Flag("--t-max", 0, int),
        _Flag("--temperature", None, float),
        _Flag("--trace-model"),
        _Flag("--token-budget", None, int),
        _Flag("--layers"),
        _Flag("--slots"),
        _Flag("--out", _REQUIRED),
    )),
    "prune": _Command(_cmd_prune, "compress a model against calibration data", (
        _Flag("--model", _REQUIRED),
        _Flag("--calib", _REQUIRED),
        _Flag("--method", _REQUIRED, choices=_dashed(METHODS)),
        _Flag("--sparsity", None, float),
        _Flag("--nm"),
        _Flag("--bits", None, int),
        _Flag("--group-size", None, int),
        _Flag("--block-size", DEFAULT_BLOCK_SIZE, int),
        _Flag("--damp", DEFAULT_DAMP_FRACTION, float),
        _Flag("--calib-mode", choices=_dashed(COMPRESSION_MODES)),
        _Flag("--layers"),
        _Flag("--slots"),
        _Flag("--out", _REQUIRED),
        _Flag("--report"),
    )),
    "diagnose": _Command(_cmd_diagnose, "tokenwise error traces on held-out rollouts", (
        _Flag("--dense", _REQUIRED),
        _Flag("--compressed", _REQUIRED, repeat=True,
              help="label=path; repeat for a second model"),
        _Flag("--prompts", _REQUIRED),
        _Flag("--t-max", 128, int),
        _Flag("--out-dir", _REQUIRED),
    )),
    "eval": _Command(_cmd_eval, "teacher-forced NLL over a byte stream", (
        _Flag("--model", _REQUIRED),
        _Flag("--text", _REQUIRED),
        _Flag("--budget", 4096, int),
        _Flag("--out"),
    )),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="rackit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    # dest also names the command argument in argparse's usage errors.
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for flag in _command_flags(name):
            cmd.add_argument(flag.name, type=flag.type, choices=flag.choices,
                             action="append" if flag.repeat else "store", help=flag.help)
        cmd.add_argument("--config")
        cmd.set_defaults(command_parser=cmd)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    Unset flags are filled from ``--config`` and the command table first.
    Each handler returns (sidecar target or None, extra sidecar fields); the
    timing and cost fields every sidecar carries are recorded here.
    """
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # reported with the subcommand's usage, not the top level's
        args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    started = _utc_now()
    t0 = time.perf_counter()
    cpu0 = _cpu_seconds()
    try:
        _merge_config(args)
        target, extra = _COMMANDS[args.command].handler(args)
        if target is not None:
            write_json(_sidecar(target), {
                "command": args.command,
                "started_utc": started,
                "finished_utc": _utc_now(),
                "duration_s": time.perf_counter() - t0,
                **_cost_fields(cpu0),
                **extra,
            })
        return EXIT_OK
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except (ContainerError, OSError) as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
