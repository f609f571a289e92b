"""Synthetic bona-fide/spoof corpus, manifests, and attacked variants.

The synthetic task: bona-fide clips are a few random harmonics under a smooth
random amplitude envelope plus a quiet mic-noise floor; spoof clips share the
same construction but pass through a vocoder-artifact surrogate (per-frame
envelope quantization to 4 levels and a carrier phase reset every 25 ms).
The artifact is an easy waveform cue on clean audio and is progressively
masked by additive noise, which is what gives attack-specific experts room
to beat the clean-trained shared expert.

Manifests are JSON Lines, one entry per line, with paths stored relative to
the corpus root so rebuilt trees are byte-identical regardless of location.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import AudioClip, read_wav, write_wav
from .attacks import apply_attack

SPLITS = ("train", "dev", "eval")
CLASS_LABELS = ("bonafide", "spoof")
ARTIFACT_FRAME_SEC = 0.025
ARTIFACT_LEVELS = 4


class ManifestError(ValueError):
    pass


class SynthConfigError(ValueError):
    pass


@dataclass
class SynthConfig:
    """Per-class split sizes and class-separation knobs for the synthetic task."""

    n_train: int = 200
    n_dev: int = 40
    n_eval: int = 100
    clip_seconds: float = 2.0
    sample_rate: int = 16000
    artifact_strength: float = 1.0
    harmonics_min: int = 3
    harmonics_max: int = 8
    noise_floor_db: float = -40.0
    peak: float = 0.85

    def validate(self):
        errors = []
        for name in ("n_train", "n_dev", "n_eval"):
            if getattr(self, name) <= 0:
                errors.append(f"{name} must be positive")
        if not 1.0 <= self.clip_seconds <= 6.0:
            errors.append("clip_seconds must be in [1, 6]")
        if self.sample_rate <= 0:
            errors.append("sample_rate must be positive")
        if not 0.0 <= self.artifact_strength <= 1.0:
            errors.append("artifact_strength must be in [0, 1]")
        if not 1 <= self.harmonics_min <= self.harmonics_max:
            errors.append("harmonic count range must satisfy 1 <= min <= max")
        if not 0.0 < self.peak <= 1.0:
            errors.append("peak must be in (0, 1]")
        if errors:
            raise SynthConfigError("; ".join(errors))
        return self


@dataclass
class ManifestEntry:
    clip_id: str
    label: str
    split: str
    condition: str
    seed: int
    path: str | None = None
    synth: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "clip_id": self.clip_id,
            "label": self.label,
            "split": self.split,
            "condition": self.condition,
            "seed": self.seed,
        }
        if self.path is not None:
            out["path"] = self.path
        if self.synth is not None:
            out["synth"] = self.synth
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ManifestEntry":
        return cls(
            clip_id=data["clip_id"],
            label=data["label"],
            split=data["split"],
            condition=data["condition"],
            seed=data["seed"],
            path=data.get("path"),
            synth=data.get("synth"),
        )


@dataclass
class Manifest:
    entries: list = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for entry in self.entries:
            if entry.clip_id in seen:
                raise ManifestError(f"duplicate clip_id {entry.clip_id!r}")
            seen.add(entry.clip_id)
            if entry.label not in CLASS_LABELS:
                raise ManifestError(f"{entry.clip_id}: label must be bonafide or spoof")
            if entry.split not in SPLITS:
                raise ManifestError(f"{entry.clip_id}: unknown split {entry.split!r}")

    def __len__(self):
        return len(self.entries)

    def split(self, name: str) -> list:
        return [e for e in self.entries if e.split == name]

    def condition(self) -> str:
        tags = {e.condition for e in self.entries}
        if len(tags) != 1:
            raise ManifestError(f"manifest spans multiple conditions: {sorted(tags)}")
        return next(iter(tags))


def save_manifest(manifest: Manifest, path) -> None:
    lines = [
        json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":"))
        for e in manifest.entries
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_manifest(path) -> Manifest:
    entries = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            entries.append(ManifestEntry.from_dict(json.loads(line)))
    return Manifest(entries)


def stable_seed(*parts) -> int:
    digest = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def synth_clip(label: str, seed: int, cfg: SynthConfig) -> AudioClip:
    """One deterministic synthetic clip of the requested class."""
    if label not in CLASS_LABELS:
        raise ManifestError(f"unknown class {label!r}")
    cfg.validate()
    rng = np.random.Generator(np.random.Philox(seed))
    sr = cfg.sample_rate
    n = int(round(cfg.clip_seconds * sr))
    t = np.arange(n) / sr

    n_harm = int(rng.integers(cfg.harmonics_min, cfg.harmonics_max + 1))
    f0 = rng.uniform(100.0, 280.0)
    amps = rng.uniform(0.25, 1.0, size=n_harm) * (np.arange(1, n_harm + 1) ** -0.7)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_harm)

    env_freqs = rng.uniform(0.6, 2.2, size=3)
    env_phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    env_weights = rng.uniform(0.4, 1.0, size=3)
    env_raw = sum(
        w * np.sin(2.0 * np.pi * f * t + p)
        for w, f, p in zip(env_weights, env_freqs, env_phases)
    )
    env = 0.55 + 0.40 * env_raw / np.max(np.abs(env_raw))

    if label == "bonafide":
        carrier = sum(
            a * np.sin(2.0 * np.pi * (k + 1) * f0 * t + p)
            for k, (a, p) in enumerate(zip(amps, phases))
        )
        signal = env * carrier
    else:
        frame = int(round(ARTIFACT_FRAME_SEC * sr))
        # stepwise envelope: per-frame value quantized to ARTIFACT_LEVELS levels
        # on a slightly expansive grid, overshooting the source dynamics the way
        # coarse synthesis-envelope coding does
        frame_idx = np.arange(n) // frame
        starts = np.arange(0, n, frame)
        env_mid = env[np.minimum(starts + frame // 2, n - 1)]
        lo, hi = 0.15, 0.95
        q = np.round((env_mid - lo) / (hi - lo) * (ARTIFACT_LEVELS - 1))
        lo_q, hi_q = 0.02, 1.10
        env_steps = lo_q + q / (ARTIFACT_LEVELS - 1) * (hi_q - lo_q)
        env_q = env_steps[frame_idx]
        env_used = (1.0 - cfg.artifact_strength) * env + cfg.artifact_strength * env_q
        # phase reset: carrier time restarts at every frame boundary, with a
        # fixed per-frame phase step so the break never degenerates to
        # continuity when f0 divides the frame rate
        t_local = (np.arange(n) % frame) / sr
        reset_step = 2.4 * frame_idx
        carrier = sum(
            a * np.sin(2.0 * np.pi * (k + 1) * f0 * t_local + p + reset_step)
            for k, (a, p) in enumerate(zip(amps, phases))
        )
        signal = env_used * carrier

    peak = float(np.max(np.abs(signal)))
    if peak > 0.0:
        signal = signal * (cfg.peak / peak)
    floor_gain = math.sqrt(float(np.mean(signal**2)) * 10.0 ** (cfg.noise_floor_db / 10.0))
    signal = signal + floor_gain * rng.standard_normal(n)
    return AudioClip(signal, sample_rate=sr, clip_id=f"{label}-{seed}", label=label)


def _audio_rel_path(condition: str, clip_id: str) -> str:
    return f"audio/{condition}/{clip_id}.wav"


def resolve_clip(entry: ManifestEntry, root) -> AudioClip:
    """Load an entry's audio from disk, or synthesize it from its recipe."""
    if entry.path is not None:
        clip = read_wav(Path(root) / entry.path, clip_id=entry.clip_id, label=entry.label)
        return clip
    if entry.synth is not None:
        cfg = SynthConfig(**entry.synth).validate()
        clip = synth_clip(entry.label, entry.seed, cfg)
        return AudioClip(clip.samples, clip.sample_rate, entry.clip_id, entry.label)
    raise ManifestError(f"{entry.clip_id}: entry has neither a path nor a synth recipe")


def build_corpus(cfg: SynthConfig, out_dir, seed: int, condition: str = "T0") -> Manifest:
    """Write a balanced train/dev/eval corpus of WAVs plus its manifest."""
    cfg.validate()
    root = Path(out_dir)
    audio_dir = root / "audio" / condition
    audio_dir.mkdir(parents=True, exist_ok=True)
    counts = {"train": cfg.n_train, "dev": cfg.n_dev, "eval": cfg.n_eval}
    entries = []
    for split in SPLITS:
        for label in CLASS_LABELS:
            for i in range(counts[split]):
                clip_seed = stable_seed(seed, split, label, i)
                clip_id = f"{split}_{label}_{i:04d}"
                clip = synth_clip(label, clip_seed, cfg)
                rel = _audio_rel_path(condition, clip_id)
                write_wav(root / rel, clip)
                entries.append(
                    ManifestEntry(clip_id, label, split, condition, clip_seed, path=rel)
                )
    manifest = Manifest(entries)
    manifest_dir = root / "manifests"
    manifest_dir.mkdir(parents=True, exist_ok=True)
    save_manifest(manifest, manifest_dir / f"{condition}.jsonl")
    return manifest


def build_variant(entries, attack, tag: str, root) -> list:
    """Write `attack` (from `attacks.preset`) of every entry's clip under
    `root`/audio/`tag`; returns the new entries, tagged `tag`, in order."""
    root = Path(root)
    (root / "audio" / tag).mkdir(parents=True, exist_ok=True)
    out = []
    for entry in entries:
        rel = _audio_rel_path(tag, entry.clip_id)
        write_wav(root / rel, apply_attack(resolve_clip(entry, root), attack))
        out.append(ManifestEntry(entry.clip_id, entry.label, entry.split, tag, entry.seed,
                                 path=rel))
    return out


def sample_fusion_subset(manifests, fraction: float, seed: int) -> Manifest:
    """Per source manifest, sample floor(fraction * n_train) training entries."""
    if not 0.0 < fraction <= 1.0:
        raise ManifestError(f"fraction must be in (0, 1], got {fraction}")
    entries = []
    for manifest in manifests:
        if not manifest.entries:
            raise ManifestError("cannot sample from an empty manifest")
        condition = manifest.condition()
        train = manifest.split("train")
        if not train:
            raise ManifestError(f"{condition}: manifest has no training entries")
        count = int(math.floor(fraction * len(train)))
        rng = np.random.Generator(np.random.Philox(stable_seed(seed, condition)))
        chosen = sorted(rng.choice(len(train), size=count, replace=False).tolist())
        for idx in chosen:
            src = train[idx]
            entries.append(
                ManifestEntry(
                    f"{condition}/{src.clip_id}",
                    src.label,
                    src.split,
                    condition,
                    src.seed,
                    path=src.path,
                    synth=src.synth,
                )
            )
    return Manifest(entries)
