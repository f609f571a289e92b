"""Audio clip container and 16-bit PCM WAV I/O.

Clips hold float64 samples nominally in [-1, 1]. Storage is mono RIFF
little-endian PCM 16-bit; reads and writes are deterministic so rebuilt
corpora are byte-identical.
"""
from __future__ import annotations

import wave
from dataclasses import dataclass, replace

import numpy as np

LABELS = ("bonafide", "spoof", "unlabeled")


class AudioError(ValueError):
    pass


class UnsupportedEncodingError(AudioError):
    pass


@dataclass
class AudioClip:
    samples: np.ndarray
    sample_rate: int = 16000
    clip_id: str = ""
    label: str = "unlabeled"

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise AudioError(f"clip {self.clip_id!r}: samples must be a non-empty 1-D array")
        if self.sample_rate <= 0:
            raise AudioError(f"clip {self.clip_id!r}: sample_rate must be positive")
        if self.label not in LABELS:
            raise AudioError(f"clip {self.clip_id!r}: unknown label {self.label!r}")
        if not np.isfinite(self.samples).all():
            raise AudioError(f"clip {self.clip_id!r}: non-finite samples")

    def __len__(self):
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def with_samples(self, samples) -> "AudioClip":
        return replace(self, samples=np.asarray(samples, dtype=np.float64))


def float_to_pcm16(samples: np.ndarray) -> np.ndarray:
    clipped = np.clip(samples, -1.0, 1.0)
    return np.round(clipped * 32767.0).astype("<i2")


def pcm16_to_float(data: np.ndarray) -> np.ndarray:
    return np.asarray(data, dtype=np.float64) / 32767.0


def write_wav(path, clip: AudioClip) -> None:
    pcm = float_to_pcm16(clip.samples)
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(clip.sample_rate)
        wav.writeframes(pcm.tobytes())


def read_wav(path, clip_id: str = "", label: str = "unlabeled") -> AudioClip:
    try:
        with wave.open(str(path), "rb") as wav:
            channels = wav.getnchannels()
            width = wav.getsampwidth()
            rate = wav.getframerate()
            frames = wav.readframes(wav.getnframes())
    except wave.Error as exc:
        raise AudioError(f"{path}: malformed WAV ({exc})") from exc
    if width != 2:
        raise UnsupportedEncodingError(f"{path}: only PCM 16-bit supported, got {8 * width}-bit")
    if channels != 1:
        raise UnsupportedEncodingError(f"{path}: only mono supported, got {channels} channels")
    pcm = np.frombuffer(frames, dtype="<i2")
    return AudioClip(pcm16_to_float(pcm), sample_rate=rate, clip_id=clip_id, label=label)
