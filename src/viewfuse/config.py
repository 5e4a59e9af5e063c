"""Versioned experiment configuration.

One JSON file describes a full run: scene distribution, model architecture,
training schedule, and evaluation protocol. Every field has a default, so an
empty object ``{}`` is a valid config (the seeded desk-scale benchmark).
Unknown keys are rejected with the offending dotted path, and the fingerprint
is a stable hash of the canonicalized content, so key order in the file never
matters.

The fingerprint intentionally covers only what shapes the trained artifact:
scene, model, and training sections (minus the step count, so a run can be
extended in place). Evaluation knobs and the output directory can change
without orphaning a checkpoint.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .model import ModelConfig
from .scene import SceneConfig

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Invalid config content; the message names the dotted field path."""


@dataclass
class TrainConfig:
    steps: int = 600
    lr: float = 2.5e-3
    batch: int = 2
    seed: int = 0
    noise_sigma: float = 0.2     # collaborator pose noise augmentation, m std
    n_scenes: int = 200
    scene_seed0: int = 1000
    checkpoint_every: int = 50

    def validate(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.batch < 1 or self.n_scenes < 1:
            raise ValueError("batch and n_scenes must be >= 1")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        for name in ("seed", "scene_seed0"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class EvalConfig:
    n_scenes: int = 50
    scene_seed0: int = 900000
    eval_seed: int = 0
    noise_sigma: float = 0.0

    def validate(self) -> None:
        if self.n_scenes < 1:
            raise ValueError("n_scenes must be >= 1")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        for name in ("scene_seed0", "eval_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class ExperimentConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    out_dir: str = "runs/default"

    def validate(self) -> None:
        for name in ("scene", "model", "train", "eval"):
            try:
                getattr(self, name).validate()
            except ValueError as e:
                raise ConfigError(f"{name}: {e}") from None
        if self.model.feat_c != self.scene.feat_c:
            raise ConfigError(
                f"model.feat_c ({self.model.feat_c}) must match "
                f"scene.feat_c ({self.scene.feat_c})")
        lo_t, hi_t = self.train.scene_seed0, self.train.scene_seed0 + self.train.n_scenes
        lo_e, hi_e = self.eval.scene_seed0, self.eval.scene_seed0 + self.eval.n_scenes
        if lo_t < hi_e and lo_e < hi_t:
            raise ConfigError(
                "train.scene_seed0/eval.scene_seed0: train and eval scene "
                "seed ranges overlap, the test set would leak into training")


def _coerce(value, ftype: str, path: str):
    if ftype == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f'"{path}" must be an integer, got {value!r}')
        return value
    if ftype == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f'"{path}" must be a number, got {value!r}')
        if not math.isfinite(value):
            raise ConfigError(f'"{path}" must be finite, got {value!r}')
        return float(value)
    if ftype == "str":
        if not isinstance(value, str):
            raise ConfigError(f'"{path}" must be a string, got {value!r}')
        return value
    raise ConfigError(f'"{path}" has unsupported field type {ftype!r}')


def _from_dict(cls, d, path: str):
    """``cls`` from the JSON object ``d``, whose dotted path is ``path``.

    A field whose default factory is a dataclass is a section and recurses.
    """
    if not isinstance(d, dict):
        raise ConfigError(f'"{path}" must be an object, got {d!r}')
    known = {f.name: f for f in fields(cls)}
    out = {}
    for k, v in d.items():
        where = f"{path}.{k}" if path else k
        if k not in known:
            close = difflib.get_close_matches(k, known, n=1)
            hint = f' (did you mean "{close[0]}"?)' if close else ""
            raise ConfigError(f'unknown config key "{where}"{hint}')
        section = known[k].default_factory
        # every section's module has postponed annotations: types are text
        out[k] = (_from_dict(section, v, where)
                  if dataclasses.is_dataclass(section)
                  else _coerce(v, known[k].type, where))
    return cls(**out)


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"config root must be an object, got {type(d).__name__}")
    version = d.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"config version {version!r} unsupported "
            f"(this build reads version {CONFIG_VERSION})")
    cfg = _from_dict(ExperimentConfig,
                     {k: v for k, v in d.items() if k != "version"}, "")
    cfg.validate()
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {"version": CONFIG_VERSION, **dataclasses.asdict(cfg)}


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from None
    return config_from_dict(d)


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def fingerprint(cfg: ExperimentConfig) -> str:
    """Stable 64-bit hex digest of the artifact-defining fields."""
    d = config_to_dict(cfg)
    del d["eval"], d["out_dir"]
    del d["train"]["steps"]         # a longer schedule may resume in place
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
