"""Experiment configuration: one JSON file drives every pipeline stage.

Three top-level seeds cover the stochastic stages (corpus + attacks, expert
training, fusion subset + fusion training); everything else derives from them
with stable hashing, so a config fully pins the experiment.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
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

# The JSON type each config group must have, by the type of its default;
# `subset_fraction` takes any number and is range-checked on its own.
JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}

# Conditions whose training-split attack differs from the evaluation attack
# (evaluation adds unseen noise colors / an unseen cutoff).
TRAIN_PRESET_OVERRIDES = {"T4": "T4_train", "T5": "T5_train"}


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))

    def __reduce__(self):  # pickle the list, not the joined message
        return type(self), (self.errors,)


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


def _is_int(value) -> bool:
    """A JSON integer: Python's bool is an int, JSON's true/false is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def resolve_config(raw: dict) -> tuple:
    """Fill defaults, check every cross-reference; returns (config, errors)."""
    errors = []
    defaults = asdict(ExperimentConfig())
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        errors.append(f"unknown config keys: {', '.join(unknown)}")
    merged = {**defaults, **{k: v for k, v in raw.items() if k in defaults}}
    for key, default in defaults.items():
        kind = type(default)
        if kind in JSON_TYPES and not isinstance(merged[key], kind):
            errors.append(f"{key} must be {JSON_TYPES[kind]}, got {merged[key]!r}")
            merged[key] = default

    seeds = dict(defaults["seeds"])
    seeds.update(merged["seeds"])
    for name in SEED_NAMES:
        if name not in seeds or not _is_int(seeds[name]):
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

    # each condition is built, trained and scored once, into paths named after it
    named = Counter(name for name in [*roster.values(), *merged["eval_extra"], *merged["mixed"]]
                    if isinstance(name, str))
    for name, count in named.items():
        if count > 1:
            errors.append(f"condition {name!r} is named {count} times across roster, "
                          f"eval_extra and mixed; name each condition once")

    lora = {**defaults["lora"], **merged["lora"]}
    if not _is_int(lora.get("rank")) or lora["rank"] < 1:
        errors.append("lora.rank must be an integer >= 1")
    if not _is_number(lora.get("dropout")) or not 0.0 <= lora["dropout"] < 1.0:
        errors.append("lora.dropout must be a number in [0, 1)")
    if not _is_number(lora.get("alpha")):
        errors.append("lora.alpha must be a number")
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
        if not all(_is_number(v) for v in asdict(h).values()):
            errors.append(f"{key}: every field must be a number")
        elif h.lr <= 0 or h.batch_size < 1 or h.max_epochs < 1:
            errors.append(f"{key}: lr, batch_size, and max_epochs must be positive")

    k_values = list(merged["k_values"])
    n_experts = len(roster)
    for k in k_values:
        if not _is_int(k) or k < 1:
            errors.append(f"k_values: {k!r} is not a positive integer")
        elif k > n_experts:
            errors.append(f"k={k} exceeds expert count ({n_experts})")
    # every system writes its scores, report rows and checkpoint under its own name
    for k, count in Counter(k for k in k_values if _is_int(k)).items():
        if count > 1:
            errors.append(f"k_values: k={k} is named {count} times; name each k once")
    reserved = {"E0", "ensemble", *(f"fused_top{k}" for k in k_values)}
    for expert in roster:
        if expert in reserved:
            errors.append(f"roster: expert id {expert!r} is the name of another system; "
                          f"E0, ensemble and fused_top<k> are reserved")

    fraction = merged["subset_fraction"]
    if not _is_number(fraction) or not 0.0 < float(fraction) <= 1.0:
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
        subset_fraction=(float(fraction) if _is_number(fraction)
                         else defaults["subset_fraction"]),
        renormalize=merged["renormalize"],
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
        if not isinstance(raw, dict):
            raise ConfigError([f"config file {path} must hold a JSON object"])
    config, errors = resolve_config(raw)
    if errors:
        raise ConfigError(errors)
    return config
