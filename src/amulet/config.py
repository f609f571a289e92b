"""Experiment configuration: one JSON file drives every pipeline stage.

Three top-level seeds cover the stochastic stages (corpus + attacks, expert
training, fusion subset + fusion training); everything else derives from them
with stable hashing, so a config fully pins the experiment.

Every config group is a dataclass whose field defaults are the defaults:
`seeds` (`Seeds`), `synth` (`corpus.SynthConfig`), `encoder`
(`experts.EncoderConfig`), `lora` (`experts.LoraConfig`: the rank, alpha,
dropout and scale mode of the attack-specific experts' adapters) and the two
trainers (`experts.TrainHyper`). `resolve_config` builds each group by one
rule: the group is a JSON object, each key names a field, and each value has
the JSON type of the field's default, so an int field takes only a JSON
integer and a float field any JSON number. The dataclass then checks ranges.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .attacks import PRESET_NAMES
from .corpus import SynthConfig, stable_seed
from .experts import EncoderConfig, LoraConfig, TrainHyper


def _is_int(value) -> bool:
    """A JSON integer: Python's bool is an int, JSON's true/false is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


# (description, test) of the JSON values a field takes, by the type of its
# default; the one tuple default, `encoder.hidden_dims`, holds integers.
JSON_TYPES = {
    bool: ("true or false", lambda value: isinstance(value, bool)),
    int: ("an integer", _is_int),
    float: ("a number", _is_number),
    str: ("a string", lambda value: isinstance(value, str)),
    list: ("a list", lambda value: isinstance(value, list)),
    tuple: ("a list of integers",
            lambda value: isinstance(value, list) and all(map(_is_int, value))),
    dict: ("an object", lambda value: isinstance(value, dict)),
}

# Conditions whose training-split attack differs from the evaluation attack
# (evaluation adds unseen noise colors / an unseen cutoff).
TRAIN_PRESET_OVERRIDES = {"T4": "T4_train", "T5": "T5_train"}

# The presets a config may name as a condition: every one but the train-only
# overrides, which are reached through the condition they override.
CONDITIONS = tuple(name for name in PRESET_NAMES
                   if name not in TRAIN_PRESET_OVERRIDES.values())


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))

    def __reduce__(self):  # pickle the list, not the joined message
        return type(self), (self.errors,)


@dataclass
class Seeds:
    data: int = 8101
    training: int = 8202
    fusion: int = 8303


@dataclass
class ExperimentConfig:
    """The resolved experiment; its field defaults are the default config."""

    out_dir: str = "runs/default"
    seeds: Seeds = field(default_factory=Seeds)
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
    lora: LoraConfig = field(default_factory=LoraConfig)
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
        return stable_seed(self.seeds.data, "attack", condition)

    def fingerprint(self) -> str:
        text = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _typed(where: str, value, default, errors: list) -> bool:
    """Whether JSON `value` has the type of `default`, a group's dataclass
    being an object; records why not."""
    kind, test = JSON_TYPES[dict if is_dataclass(default) else type(default)]
    if not test(value):
        errors.append(f"{where} must be {kind}, got {value!r}")
        return False
    return True


def _unknown(where: str, names) -> str:
    return f"{where}: unknown key; valid keys: {', '.join(names)}"


def _group(name: str, cls, value, errors: list):
    """Config group `name`, dataclass `cls`, from the JSON object `value`
    over the field defaults; on any error, the defaults."""
    default = cls()
    if not _typed(name, value, default, errors):
        return default
    names = [f.name for f in fields(cls)]
    count = len(errors)
    for key, item in value.items():
        if key not in names:
            errors.append(_unknown(f"{name}.{key}", names))
        else:
            _typed(f"{name}.{key}", item, getattr(default, key), errors)
    if len(errors) > count:
        return default
    try:
        return cls(**value)
    except ValueError as exc:  # a range check of the dataclass
        errors.append(f"{name}: {exc}")
        return default


def resolve_config(raw: dict) -> tuple:
    """Fill defaults, check every cross-reference; returns (config, errors)."""
    errors = []
    defaults = ExperimentConfig()
    names = [f.name for f in fields(ExperimentConfig)]
    errors += [_unknown(key, names) for key in raw if key not in names]
    merged = {}
    for name in names:
        default = getattr(defaults, name)
        value = raw.get(name, default)
        if is_dataclass(default):
            value = _group(name, type(default), raw.get(name, {}), errors)
        # subset_fraction takes any number and is range-checked below
        elif name != "subset_fraction" and not _typed(name, value, default, errors):
            value = default
        merged[name] = value

    roster = merged["roster"]
    if not roster:
        errors.append("roster must name at least one expert")
    valid = f"valid conditions: {', '.join(CONDITIONS)}"
    for expert, condition in roster.items():
        if condition not in CONDITIONS:
            errors.append(f"roster.{expert}: unknown condition {condition!r}; {valid}")
    for group in ("eval_extra", "mixed"):
        for name in merged[group]:
            if name not in CONDITIONS:
                errors.append(f"{group}: unknown condition {name!r}; {valid}")

    # each condition is built, trained and scored once, into paths named after it
    named = Counter(name for name in [*roster.values(), *merged["eval_extra"], *merged["mixed"]]
                    if isinstance(name, str))
    for name, count in named.items():
        if count > 1:
            errors.append(f"condition {name!r} is named {count} times across roster, "
                          f"eval_extra and mixed; name each condition once")

    k_values = merged["k_values"]
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
    if _is_number(fraction) and 0.0 < fraction <= 1.0:
        merged["subset_fraction"] = float(fraction)
    else:
        errors.append("subset_fraction must be in (0, 1]")
        merged["subset_fraction"] = defaults.subset_fraction
    return ExperimentConfig(**merged), errors


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
