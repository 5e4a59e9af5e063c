"""Command line front end.

Subcommands: train, eval (``--sweep`` runs one axis), ablate, gen-scenes,
inspect-message, show-config.

Everything a run emits is a deterministic function of (config, seed) except
the sidecar log, which is the only place timestamps are written. Exit codes
are part of the contract so scripts can branch on the failure class:

    0  success
    2  invalid config or command line (the message names the field), a
       scene the generator cannot build (names the seed and the reason),
       an unreadable message (names the path, or the byte offset where it
       fails to decode) or checkpoint, or a path that cannot be read or
       written (names the path)
    3  training hit a non-finite loss
    4  checkpoint fingerprint does not match the config, or a checkpoint
       to resume or to fill an ablation row was trained with other flags
    5  ablate needs a checkpoint that does not exist (pass --train-missing)
"""

import argparse
import csv
import io
import json
import os
import re
import struct
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import comms
from .config import (ConfigError, ExperimentConfig, config_to_dict,
                     fingerprint, load_config, save_config)
from .eval import (EvalReport, LADDER, PIPELINES, ablation_ladder,
                   evaluate_scenes, sweep)
from .model import (FLAGS_FULL, CheckpointError, FingerprintError,
                    PipelineFlags, PipelineModel, TrainingError, init_model,
                    load_checkpoint, train)
# the benchmark's characterisation reads the batch stream tag from here
from .model import TAG_BATCH  # noqa: F401
from .scene import GenerationError, generate_scene, scene_to_dict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONFINITE = 3
EXIT_FINGERPRINT = 4
EXIT_MISSING_CHECKPOINT = 5


def _sidecar_logger(path: Path):
    """Appends timestamped lines; the one output stream allowed wall time."""
    def log(msg: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{time.strftime('%Y-%m-%d %H:%M:%S')} {msg}\n")
    return log


def _checked(section, option: str, name: str, value):
    """``section`` with field ``name`` set to ``value``, held to the
    section's own rules; a rejection names the command-line ``option``."""
    out = replace(section, **{name: value})
    try:
        out.validate()
    except ValueError as e:
        raise ConfigError(f"{option} {value}: {e}") from None
    return out


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "steps", None) is not None:
        cfg = replace(cfg, train=_checked(cfg.train, "--steps", "steps",
                                          args.steps))
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, train=_checked(cfg.train, "--seed", "seed",
                                          args.seed))
    if getattr(args, "c_thre", None) is not None:
        cfg = replace(cfg, model=_checked(cfg.model, "--c-thre", "c_thre",
                                          args.c_thre))
    if getattr(args, "noise", None) is not None:
        cfg = replace(cfg, eval=_checked(cfg.eval, "--noise", "noise_sigma",
                                         args.noise))
    cfg.validate()
    return cfg


def _parse_values(spec: str, axis: str, integer: bool = False) -> list:
    """Sweep grids: "a:b:n" is n evenly spaced points, else a comma list.

    An ``integer`` axis takes whole numbers and rounds a range's points.
    """
    m = re.fullmatch(r"([^:,]+):([^:,]+):(\d+)", spec.strip())
    try:
        vals = ([float(m.group(1)), float(m.group(2))] if m
                else [float(s) for s in spec.split(",") if s.strip()])
    except ValueError:
        vals = []
    if not vals or not np.isfinite(vals).all():
        raise ConfigError(f'sweep axis "{axis}": "{spec}" is not a list or '
                          f'range of finite numbers')
    if integer and not all(v.is_integer() for v in vals):
        raise ConfigError(f'sweep axis "{axis}": "{spec}" needs whole numbers')
    if m:
        if int(m.group(3)) < 1:
            raise ConfigError(f'sweep spec "{spec}" needs at least 1 point')
        vals = [float(v) for v in np.linspace(*vals, int(m.group(3)))]
    return [int(round(v)) for v in vals] if integer else vals


def _scenes(cfg: ExperimentConfig, section, log=None) -> list:
    """The scene range of the train or eval section; ``log`` gets one line
    with the time it took."""
    t0 = time.perf_counter()
    seed0, n = section.scene_seed0, section.n_scenes
    scenes = [generate_scene(cfg.scene, seed0 + i) for i in range(n)]
    if log is not None:
        log(f"generated {n} scenes (seeds {seed0}..{seed0 + n - 1}) in "
            f"{time.perf_counter() - t0:.2f} s")
    return scenes


def _train(cfg: ExperimentConfig, scenes: list, flags: PipelineFlags,
           out: Path, suffix: str, log) -> PipelineModel:
    """Train (or resume) into checkpoint{suffix}.npz and loss{suffix}.csv."""
    return train(cfg.model, cfg.train, scenes, flags,
                 out / f"checkpoint{suffix}.npz", out / f"loss{suffix}.csv",
                 fingerprint=fingerprint(cfg), log=log)


def _load_model(cfg: ExperimentConfig, path: Path,
                flags: PipelineFlags | None = None) -> PipelineModel:
    """Load ``path``; with ``flags``, only a model trained under them."""
    if not path.exists():
        raise FileNotFoundError(f"checkpoint {path} does not exist")
    model = init_model(cfg.model, cfg.train.seed)
    load_checkpoint(path, model, expect_fingerprint=fingerprint(cfg),
                    expect_flags=flags)
    return model


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.+-]", "_", label)


def format_table(reports: list[EvalReport]) -> str:
    hdr = (f"{'label':<32}{'AP@0.30':>9}{'AP@0.50':>9}{'AP@0.70':>9}"
           f"{'comm_log2':>11}{'bytes':>12}")
    lines = [hdr]
    for r in reports:
        comm = f"{r.comm_log2:11.2f}" if r.comm_log2 is not None else f"{'-':>11}"
        lines.append(f"{r.label:<32}"
                     f"{r.ap[0.30]:9.4f}{r.ap[0.50]:9.4f}{r.ap[0.70]:9.4f}"
                     f"{comm}{r.total_bytes:>12d}")
    return "\n".join(lines)


def _report_csv_rows(reports: list[EvalReport]) -> list[list]:
    rows = [["label", "ap30", "ap50", "ap70", "comm_log2", "total_bytes"]]
    for r in reports:
        comm = "" if r.comm_log2 is None else f"{r.comm_log2:.6f}"
        rows.append([r.label, f"{r.ap[0.30]:.6f}", f"{r.ap[0.50]:.6f}",
                     f"{r.ap[0.70]:.6f}", comm, r.total_bytes])
    return rows


def _write_csv(path: Path, rows: list[list]) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def _save_reports(reports: list[EvalReport], out: Path) -> None:
    for r in reports:
        r.save(out / f"report_{_safe_name(r.label)}.jsonl")


# ---- subcommands ----


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log = _sidecar_logger(out / "run.log")
    _train(cfg, _scenes(cfg, cfg.train, log), FLAGS_FULL, out, "", log)
    save_config(cfg, out / "config.json")
    print(f"trained {cfg.train.steps} steps "
          f"(fingerprint {fingerprint(cfg)}, seed {cfg.train.seed})")
    print(f"checkpoint: {out / 'checkpoint.npz'}")
    return EXIT_OK


def _eval_kwargs(cfg: ExperimentConfig, c_thre=None) -> dict:
    e = cfg.eval
    return dict(noise_sigma=e.noise_sigma, c_thre=c_thre,
                eval_seed=e.eval_seed, fingerprint=fingerprint(cfg))


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    if args.eval_c_thre is not None:
        # held to model.c_thre's rule, but not written there: the
        # checkpoint's fingerprint covers the model section
        _checked(cfg.model, "--c-thre", "c_thre", args.eval_c_thre)
    # a bad sweep is refused before the checkpoint and scenes are loaded
    points = _sweep_points(cfg, *args.sweep) if args.sweep else None
    out = Path(cfg.out_dir)
    ckpt = Path(args.checkpoint) if args.checkpoint else out / "checkpoint.npz"
    model = _load_model(cfg, ckpt)
    flags = PIPELINES[args.pipeline]
    scenes = _scenes(cfg, cfg.eval)
    kw = _eval_kwargs(cfg, c_thre=args.eval_c_thre)
    out.mkdir(parents=True, exist_ok=True)
    if points:
        return _run_sweep(*points, model, scenes, args.pipeline, out, kw)
    reports = [evaluate_scenes(model, scenes, flags, label=args.pipeline,
                               **kw)]
    _save_reports(reports, out)
    print(format_table(reports))
    return EXIT_OK


# CLI axis name -> (config section, field): the sweep axis and its rule
CLI_SWEEP_AXES = {"noise": ("eval", "noise_sigma"),
                  "c_thre": ("model", "c_thre"),
                  "agents": ("scene", "n_agents")}


def _sweep_points(cfg: ExperimentConfig, axis_name: str,
                  value_spec: str) -> tuple[str, list]:
    """(axis, values) of ``--sweep AXIS VALUES``, each value checked."""
    if axis_name not in CLI_SWEEP_AXES:
        raise ConfigError(
            f'unknown sweep axis "{axis_name}"; '
            f'pick from {",".join(sorted(CLI_SWEEP_AXES))}')
    section, axis = CLI_SWEEP_AXES[axis_name]
    values = _parse_values(value_spec, axis_name, integer=axis == "n_agents")
    for v in values:
        _checked(getattr(cfg, section), f'sweep axis "{axis_name}"', axis, v)
    n_agents = cfg.scene.n_agents
    if axis == "n_agents" and not all(1 <= v <= n_agents for v in values):
        raise ConfigError(
            f'sweep axis "{axis_name}": values {values} must lie in '
            f'1..{n_agents}, the agent count of the eval scenes')
    return axis, values


def _run_sweep(axis: str, values: list, model, scenes, pipeline: str,
               out: Path, kw: dict) -> int:
    kw = dict(kw)
    kw.pop(axis, None)   # the sweep sets it per point
    reports = sweep(axis, values, model, scenes, pipeline, **kw)
    _save_reports(reports, out)
    rows = _report_csv_rows(reports)
    for row, v in zip(rows[1:], values):
        row.insert(0, v)
    rows[0].insert(0, axis)
    _write_csv(out / f"sweep_{_safe_name(pipeline)}_{axis}.csv", rows)
    print(format_table(reports))
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log = _sidecar_logger(out / "run.log")
    models = {}
    train_scenes = None     # generated once, and only if some row trains
    for name in LADDER:
        flags = PIPELINES[name]
        # late_fuse only changes evaluation, so the late row trains solo
        suffix = f"_{_safe_name(name)}"
        path = out / f"checkpoint{suffix}.npz"
        if path.exists():
            models[name] = _load_model(cfg, path, flags)
        elif args.train_missing:
            if train_scenes is None:
                train_scenes = _scenes(cfg, cfg.train, log)
            models[name] = _train(cfg, train_scenes, flags, out, suffix, log)
        else:
            print(f"missing checkpoint for ladder row '{name}': {path}\n"
                  f"rerun with --train-missing to train it", file=sys.stderr)
            return EXIT_MISSING_CHECKPOINT
    scenes = _scenes(cfg, cfg.eval, log)
    reports = ablation_ladder(models, scenes, **_eval_kwargs(cfg))
    _write_csv(out / "ablation.csv", _report_csv_rows(reports))
    print(format_table(reports))
    return EXIT_OK


def cmd_gen_scenes(args) -> int:
    cfg = _resolve_config(args)
    n = (cfg.eval.n_scenes if args.n is None
         else _checked(cfg.eval, "--n", "n_scenes", args.n).n_scenes)
    seed0 = (cfg.eval.scene_seed0 if args.seed0 is None
             else _checked(cfg.eval, "--seed0", "scene_seed0",
                           args.seed0).scene_seed0)
    path = Path(args.out_file)
    path.parent.mkdir(parents=True, exist_ok=True)
    # written beside the target and moved over it only when whole, so a
    # failure leaves no partial file and an existing corpus as it was
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for i in range(n):
                scene = generate_scene(cfg.scene, seed0 + i)
                fh.write(json.dumps(scene_to_dict(scene), sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    print(f"wrote {n} scenes (seeds {seed0}..{seed0 + n - 1}) to {path}")
    return EXIT_OK


def _hexdump_rows(buf: bytes, fields, tail=()) -> str:
    """One row per wire field of ``comms``' layout, then the ``tail`` rows."""
    rows = []
    for off, size, name, code in comms.field_spans(fields):
        v, = struct.unpack_from("<" + code, buf, off)
        shown = (v.decode("ascii") if isinstance(v, bytes)
                 else f"{v:g}" if isinstance(v, float) else str(v))
        rows.append((off, size, name, shown))
    lines = [f"{'offset':<8}{'size':<6}{'field':<14}{'raw':<24}value"]
    for off, size, name, value in [*rows, *tail]:
        raw = buf[off:off + size]
        shown = raw[:8].hex(" ") + (" .." if size > 8 else "")
        lines.append(f"0x{off:04x}  {size:<6}{name:<14}{shown:<24}{value}")
    return "\n".join(lines)


def cmd_inspect_message(args) -> int:
    try:
        buf = Path(args.path).read_bytes()
    except OSError as e:
        print(f"cannot read {args.path}: {e.strerror or e}", file=sys.stderr)
        return EXIT_CONFIG
    if len(buf) < 4:
        print(f"{args.path}: too short to hold a magic number", file=sys.stderr)
        return EXIT_CONFIG
    magic = buf[:4]
    if magic == comms.INSTANCE_MAGIC:
        pay = comms.decode_message(buf).payload
        shown = f"{pay.size} f32"
        if pay.size:
            shown += f" in [{pay.min():g}, {pay.max():g}]"
        payload = (comms.INSTANCE_HEADER_BYTES, 4 * pay.size, "payload", shown)
        print(f"instance message, {len(buf)} bytes")
        print(_hexdump_rows(buf, comms.INSTANCE_FIELDS, [payload]))
        return EXIT_OK
    if magic == comms.DETECTION_MAGIC:
        comms.decode_detection(buf)     # validates before the dump
        print(f"detection message, {len(buf)} bytes")
        print(_hexdump_rows(buf, comms.DETECTION_FIELDS))
        return EXIT_OK
    print(f"{args.path}: unknown magic {magic!r} "
          f"(expected {comms.INSTANCE_MAGIC!r} or {comms.DETECTION_MAGIC!r})",
          file=sys.stderr)
    return EXIT_CONFIG


def cmd_show_config(args) -> int:
    cfg = _resolve_config(args)
    print(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True))
    print(f"# fingerprint: {fingerprint(cfg)}", file=sys.stderr)
    return EXIT_OK


# ---- parser ----


def _add_config_args(p, overrides=True, train=True):
    """--config, plus the overrides a subcommand's outputs depend on.

    ``train`` adds the overrides that shape a trained model; eval reads a
    checkpoint, so it takes the share threshold as an evaluation knob.
    """
    p.add_argument("--config", help="experiment config JSON; defaults apply if omitted")
    if not overrides:
        return
    p.add_argument("--out", help="override out_dir")
    if train:
        p.add_argument("--c-thre", dest="c_thre", type=float,
                       help="override model.c_thre, the share threshold")
        p.add_argument("--steps", type=int, help="override train.steps")
    else:
        p.add_argument("--c-thre", dest="eval_c_thre", type=float,
                       help="share threshold for this evaluation "
                            "(default model.c_thre)")
    p.add_argument("--seed", type=int, help="override train.seed")


def _add_eval_args(p):
    p.add_argument("--checkpoint", help="checkpoint path; default {out_dir}/checkpoint.npz")
    p.add_argument("--pipeline", choices=tuple(PIPELINES), default="fused",
                   help="named pipeline to run; the name is the report label")
    p.add_argument("--noise", type=float, default=None,
                   help="collaborator pose noise std, m (overrides eval.noise_sigma)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="viewfuse",
        description="desk-scale multi-agent camera BEV perception")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config")
    _add_config_args(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_config_args(p, train=False)
    _add_eval_args(p)
    p.add_argument("--sweep", nargs=2, metavar=("AXIS", "VALUES"),
                   help="sweep an axis, e.g. --sweep noise 0:0.6:7")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run the component ladder")
    _add_config_args(p)
    p.add_argument("--train-missing", action="store_true",
                   help="train any ladder checkpoint that is missing")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gen-scenes", help="write a scene corpus as JSONL")
    _add_config_args(p, overrides=False)
    p.add_argument("out_file", help="output JSONL path")
    p.add_argument("--n", type=int, help="scene count; default eval.n_scenes")
    p.add_argument("--seed0", type=int,
                   help="first scene seed; default eval.scene_seed0")
    p.set_defaults(fn=cmd_gen_scenes)

    p = sub.add_parser("inspect-message",
                       help="annotated hex dump of one wire message")
    p.add_argument("path", help="file holding one encoded message")
    p.set_defaults(fn=cmd_inspect_message)

    p = sub.add_parser("show-config",
                       help="print the resolved config and its fingerprint")
    _add_config_args(p)
    p.set_defaults(fn=cmd_show_config)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FingerprintError as e:
        print(f"fingerprint error: {e}", file=sys.stderr)
        return EXIT_FINGERPRINT
    except TrainingError as e:
        print(f"training error: {e}", file=sys.stderr)
        return EXIT_NONFINITE
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except comms.DecodeError as e:
        print(f"decode error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except GenerationError as e:
        print(f"scene generation error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
