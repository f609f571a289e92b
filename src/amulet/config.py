"""Experiment configuration: one JSON file drives every pipeline stage.

Three top-level seeds cover the stochastic stages (corpus + attacks, expert
training, fusion subset + fusion training); everything else derives from them
with stable hashing, so a config fully pins the experiment.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .attacks import PRESET_NAMES
from .corpus import SynthConfig, SynthConfigError, stable_seed
from .experts import (
    EncoderConfig,
    ExpertError,
    SCALE_ALPHA_LITERAL,
    SCALE_ALPHA_OVER_R,
    TrainHyper,
)

SEED_NAMES = ("data", "training", "fusion")

# Conditions whose training-split attack differs from the evaluation attack
# (evaluation adds unseen noise colors / an unseen cutoff).
TRAIN_PRESET_OVERRIDES = {"T4": "T4_train", "T5": "T5_train"}


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ExperimentConfig:
    """The resolved experiment; its field defaults are the default config."""

    out_dir: str = "runs/default"
    seeds: dict = field(default_factory=lambda: {"data": 8101, "training": 8202, "fusion": 8303})
    synth: SynthConfig = field(default_factory=SynthConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    # expert id -> training condition
    roster: dict = field(default_factory=lambda: {
        "E1": "T1", "E2": "T2", "E3": "T3", "E4": "T4", "E5": "T5",
    })
    # eval-only single-attack conditions
    eval_extra: list = field(default_factory=lambda: ["T6"])
    # eval-only mixed-attack conditions
    mixed: list = field(default_factory=lambda: [
        "noise_first", "filter_first", "rawboost4", "rawboost5", "rawboost6", "rawboost7",
        "rawboost8",
    ])
    lora: dict = field(default_factory=lambda: {
        "rank": 4, "alpha": 16.0, "dropout": 0.1, "scale_mode": SCALE_ALPHA_OVER_R,
    })
    expert_train: TrainHyper = field(default_factory=TrainHyper)
    fusion_train: TrainHyper = field(default_factory=TrainHyper)
    k_values: list = field(default_factory=lambda: [3, 4, 5])
    subset_fraction: float = 0.25
    renormalize: bool = False

    @property
    def train_conditions(self) -> list:
        return [self.roster[name] for name in self.expert_ids]

    @property
    def expert_ids(self) -> list:
        return sorted(self.roster)

    @property
    def single_conditions(self) -> list:
        return ["T0"] + self.train_conditions + list(self.eval_extra)

    def train_preset_name(self, condition: str) -> str:
        return TRAIN_PRESET_OVERRIDES.get(condition, condition)

    def attack_seed(self, condition: str) -> int:
        return stable_seed(self.seeds["data"], "attack", condition)

    def fingerprint(self) -> str:
        text = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def resolve_config(raw: dict) -> tuple:
    """Fill defaults, check every cross-reference; returns (config, errors)."""
    errors = []
    defaults = asdict(ExperimentConfig())
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        errors.append(f"unknown config keys: {', '.join(unknown)}")
    merged = {**defaults, **{k: v for k, v in raw.items() if k in defaults}}

    seeds = dict(defaults["seeds"])
    seeds.update(merged["seeds"] if isinstance(merged["seeds"], dict) else {})
    for name in SEED_NAMES:
        if name not in seeds or not isinstance(seeds[name], int):
            errors.append(f"seeds.{name} must be an integer (every stochastic stage needs a seed)")

    try:
        synth = SynthConfig(**{**defaults["synth"], **merged["synth"]}).validate()
    except (SynthConfigError, TypeError) as exc:
        errors.append(f"synth: {exc}")
        synth = SynthConfig()

    try:
        encoder = EncoderConfig(**{**defaults["encoder"], **merged["encoder"]})
    except (ExpertError, TypeError) as exc:
        errors.append(f"encoder: {exc}")
        encoder = EncoderConfig()

    roster = dict(merged["roster"])
    if not roster:
        errors.append("roster must name at least one expert")
    for expert, condition in roster.items():
        train_name = TRAIN_PRESET_OVERRIDES.get(condition, condition)
        if train_name not in PRESET_NAMES:
            errors.append(
                f"roster.{expert}: condition {condition!r} has no attack preset; "
                f"valid conditions: {', '.join(sorted(set(PRESET_NAMES) - set(TRAIN_PRESET_OVERRIDES.values())))}"
            )

    for group in ("eval_extra", "mixed"):
        for name in merged[group]:
            if name not in PRESET_NAMES:
                errors.append(f"{group}: unknown attack preset {name!r}")

    lora = {**defaults["lora"], **merged["lora"]}
    if not isinstance(lora.get("rank"), int) or lora["rank"] < 1:
        errors.append("lora.rank must be an integer >= 1")
    if not 0.0 <= float(lora["dropout"]) < 1.0:
        errors.append("lora.dropout must be in [0, 1)")
    if lora.get("scale_mode") not in (SCALE_ALPHA_OVER_R, SCALE_ALPHA_LITERAL):
        errors.append(f"lora.scale_mode must be {SCALE_ALPHA_OVER_R!r} or {SCALE_ALPHA_LITERAL!r}")

    def hyper(key):
        try:
            return TrainHyper(**{**defaults[key], **merged[key]})
        except TypeError as exc:
            errors.append(f"{key}: {exc}")
            return TrainHyper()

    expert_train = hyper("expert_train")
    fusion_train = hyper("fusion_train")
    for key, h in (("expert_train", expert_train), ("fusion_train", fusion_train)):
        if h.lr <= 0 or h.batch_size < 1 or h.max_epochs < 1:
            errors.append(f"{key}: lr, batch_size, and max_epochs must be positive")

    k_values = list(merged["k_values"])
    n_experts = len(roster)
    for k in k_values:
        if not isinstance(k, int) or k < 1:
            errors.append(f"k_values: {k!r} is not a positive integer")
        elif k > n_experts:
            errors.append(f"k={k} exceeds expert count ({n_experts})")

    fraction = merged["subset_fraction"]
    if not isinstance(fraction, (int, float)) or not 0.0 < float(fraction) <= 1.0:
        errors.append("subset_fraction must be in (0, 1]")

    config = ExperimentConfig(
        out_dir=str(merged["out_dir"]),
        seeds={name: seeds.get(name) for name in SEED_NAMES},
        synth=synth,
        encoder=encoder,
        roster=roster,
        eval_extra=list(merged["eval_extra"]),
        mixed=list(merged["mixed"]),
        lora=lora,
        expert_train=expert_train,
        fusion_train=fusion_train,
        k_values=k_values,
        subset_fraction=(float(fraction) if isinstance(fraction, (int, float))
                         else defaults["subset_fraction"]),
        renormalize=bool(merged["renormalize"]),
    )
    return config, errors


def validate_config(source) -> ExperimentConfig:
    """Load and validate a config file (or dict); raises with every violation."""
    if isinstance(source, dict):
        raw = source
    elif source == "default":
        raw = {}
    else:
        path = Path(source)
        if not path.exists():
            raise ConfigError([f"config file {path} does not exist"])
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config file {path} is not valid JSON: {exc}"]) from exc
    config, errors = resolve_config(raw)
    if errors:
        raise ConfigError(errors)
    return config
