"""Seeded post-processing attack simulation on waveforms.

An attack is a function `(clip, seed) -> clip`; the seed and the clip id fully
determine its randomness, so outputs are bitwise reproducible across runs and
thread counts. `_leaf` draws one generator per (seed, clip id), and `_series`
and `_parallel` seed child i with `derive_seed(seed, i, clip_id)`.

`PRESETS` holds the fifteen named attacks: the RawBoost families T1-T3
(convolutive, impulsive signal-dependent, stationary signal-independent),
additive noise T4, a FIR filter bank T5, a codec round trip T6, the
combinations rawboost4-8 of T1-T3, and noise_first / filter_first. T4_train
and T5_train leave out the noise colors and the cutoff unseen in training.
"""
from __future__ import annotations

import functools
import hashlib

import numpy as np

from .audio import AudioClip


class AttackError(ValueError):
    pass


class DegenerateSignalError(AttackError):
    """Signal violates a power precondition (e.g. silent clip)."""


def derive_seed(parent_seed: int, index: int, clip_id: str) -> int:
    """Stable 64-bit child seed from (parent seed, child index, clip id)."""
    digest = hashlib.blake2b(
        f"{parent_seed}|{index}|{clip_id}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def add_noise_at_snr(clip: AudioClip, noise: np.ndarray, target_snr_db: float) -> AudioClip:
    """Add `noise` scaled by the analytic gain that hits the target SNR exactly."""
    if not -10.0 <= target_snr_db <= 60.0:
        raise AttackError(f"target SNR {target_snr_db} dB outside [-10, 60]")
    noise = np.asarray(noise, dtype=np.float64)
    if noise.size != clip.samples.size:
        raise AttackError("noise length must match clip length")
    p_sig = float(np.mean(clip.samples**2))
    p_noise = float(np.mean(noise**2))
    if p_sig <= 0.0:
        raise DegenerateSignalError("cannot target an SNR against a silent clip")
    if p_noise <= 0.0:
        raise DegenerateSignalError("noise component has zero power")
    gain = np.sqrt(p_sig / (p_noise * 10.0 ** (target_snr_db / 10.0)))
    return clip.with_samples(clip.samples + gain * noise)


def gen_noise(kind: str, length: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-power noise: white i.i.d. normal, pink/brown spectrally shaped."""
    if length <= 0:
        raise AttackError("noise length must be positive")
    white = rng.standard_normal(length)
    if kind == "white":
        shaped = white
    elif kind in ("pink", "brown"):
        spectrum = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(length)
        weights = np.zeros_like(freqs)
        exponent = 0.5 if kind == "pink" else 1.0  # amplitude ~ 1/f^e
        weights[1:] = freqs[1:] ** (-exponent)
        shaped = np.fft.irfft(spectrum * weights, n=length)
    else:
        raise AttackError(f"unknown noise kind {kind!r}")
    power = float(np.mean(shaped**2))
    if power <= 0.0:
        raise DegenerateSignalError("generated noise has zero power")
    return shaped / np.sqrt(power)


def _hamming(n: int) -> np.ndarray:
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))


def design_fir(kind: str, cutoffs_hz, taps: int, sample_rate: int) -> np.ndarray:
    """Windowed-sinc (Hamming) linear-phase FIR taps."""
    if taps < 31 or taps % 2 == 0:
        raise AttackError(f"taps must be odd and >= 31, got {taps}")
    nyquist = sample_rate / 2.0
    cutoffs = tuple(float(c) for c in np.atleast_1d(cutoffs_hz))
    for c in cutoffs:
        if not 0.0 < c < nyquist:
            raise AttackError(f"cutoff {c} Hz outside (0, {nyquist})")
    mid = (taps - 1) // 2
    n = np.arange(taps) - mid

    def lowpass(fc):
        h = np.sinc(2.0 * fc / sample_rate * n) * (2.0 * fc / sample_rate) * _hamming(taps)
        return h / h.sum()  # unit DC gain

    if kind == "lowpass":
        (fc,) = cutoffs
        return lowpass(fc)
    if kind == "highpass":
        (fc,) = cutoffs
        h = -lowpass(fc)
        h[mid] += 1.0  # spectral inversion of the lowpass
        return h
    if kind == "bandpass":
        lo, hi = cutoffs
        if not lo < hi:
            raise AttackError(f"bandpass cutoffs must be increasing, got {cutoffs}")
        return lowpass(hi) - lowpass(lo)
    raise AttackError(f"unknown filter kind {kind!r}")


def _convolve_same_length(samples: np.ndarray, taps: np.ndarray) -> np.ndarray:
    mid = (taps.size - 1) // 2
    full = np.convolve(samples, taps)
    return full[mid : mid + samples.size]


def fir_filter(clip: AudioClip, kind: str, cutoffs_hz, taps: int = 101) -> AudioClip:
    """Linear-phase FIR via direct convolution, trimmed to the input length."""
    h = design_fir(kind, cutoffs_hz, taps, clip.sample_rate)
    return clip.with_samples(_convolve_same_length(clip.samples, h))


def convolutive_distortion(
    clip: AudioClip,
    n_notches: int,
    gain_db_range,
    clip_drive: float,
    rng: np.random.Generator,
    taps: int = 101,
    notch_width_hz=(150.0, 600.0),
) -> AudioClip:
    """Random multi-notch FIR followed by a memoryless tanh nonlinearity."""
    if not 1 <= n_notches <= 8:
        raise AttackError(f"n_notches must be in [1, 8], got {n_notches}")
    lo_db, hi_db = (float(gain_db_range[0]), float(gain_db_range[1]))
    nyquist = clip.sample_rate / 2.0
    # Desired log-magnitude response on the rfft grid of the FIR length.
    n_bins = taps // 2 + 1
    freqs = np.arange(n_bins) * clip.sample_rate / taps
    response_db = np.zeros(n_bins)
    for _ in range(n_notches):
        center = rng.uniform(0.05 * nyquist, 0.95 * nyquist)
        depth = rng.uniform(lo_db, hi_db)
        width = rng.uniform(float(notch_width_hz[0]), float(notch_width_hz[1]))
        response_db += depth * np.exp(-0.5 * ((freqs - center) / width) ** 2)
    magnitude = 10.0 ** (response_db / 20.0)
    mid = (taps - 1) // 2
    phase = np.exp(-2j * np.pi * np.arange(n_bins) * mid / taps)
    h = np.fft.irfft(magnitude * phase, n=taps) * _hamming(taps)
    out = _convolve_same_length(clip.samples, h)
    if clip_drive > 0.0:
        out = np.tanh(clip_drive * out) / np.tanh(clip_drive)
    return clip.with_samples(out)


def impulsive_noise(
    clip: AudioClip,
    event_rate: float,
    amp_scale: float,
    rng: np.random.Generator,
    window_ms: float = 20.0,
) -> AudioClip:
    """Sparse impulses at Poisson positions, scaled by the local signal RMS."""
    if event_rate <= 0.0:
        raise AttackError("event_rate must be positive")
    n = clip.samples.size
    count = int(rng.poisson(event_rate * clip.duration))
    out = clip.samples.copy()
    if count == 0 or amp_scale == 0.0:
        return clip.with_samples(out)
    positions = rng.integers(0, n, size=count)
    magnitudes = rng.uniform(0.4, 1.0, size=count)
    signs = rng.choice((-1.0, 1.0), size=count)
    half = max(1, int(window_ms / 1000.0 * clip.sample_rate) // 2)
    for pos, mag, sign in zip(positions, magnitudes, signs):
        lo = max(0, pos - half)
        hi = min(n, pos + half)
        local_rms = float(np.sqrt(np.mean(clip.samples[lo:hi] ** 2)))
        out[pos] += sign * amp_scale * mag * local_rms
    return clip.with_samples(out)


def _mu_law_compress(x: np.ndarray, mu: float) -> np.ndarray:
    return np.sign(x) * np.log1p(mu * np.abs(x)) / np.log1p(mu)


def _mu_law_expand(y: np.ndarray, mu: float) -> np.ndarray:
    return np.sign(y) * ((1.0 + mu) ** np.abs(y) - 1.0) / mu


def _linear_resample(x: np.ndarray, n_out: int) -> np.ndarray:
    if n_out == x.size:
        return x.copy()
    src = np.arange(x.size, dtype=np.float64)
    dst = np.linspace(0.0, x.size - 1.0, n_out)
    return np.interp(dst, src, x)


def codec_sim(clip: AudioClip, bits: int, resample_hz: int, mu: float = 255.0) -> AudioClip:
    """Mu-law companding, uniform quantization, and a resample round trip."""
    if not 6 <= bits <= 12:
        raise AttackError(f"bits must be in [6, 12], got {bits}")
    if resample_hz > clip.sample_rate or resample_hz <= 0:
        raise AttackError(f"resample rate {resample_hz} must be in (0, {clip.sample_rate}]")
    x = np.clip(clip.samples, -1.0, 1.0)
    y = _mu_law_compress(x, mu)
    levels = 2**bits - 1
    quantized = np.round((y + 1.0) / 2.0 * levels) / levels * 2.0 - 1.0
    expanded = _mu_law_expand(quantized, mu)
    n = clip.samples.size
    n_low = max(2, int(round(n * resample_hz / clip.sample_rate)))
    down = _linear_resample(expanded, n_low)
    return clip.with_samples(_linear_resample(down, n))


def _leaf(fn):
    """The attack `fn(clip, rng)` with one generator per (seed, clip id); an
    output peaking above 1 is scaled to a peak of 0.999."""

    def attack(clip: AudioClip, seed: int) -> AudioClip:
        out = fn(clip, np.random.Generator(np.random.Philox(derive_seed(seed, 0, clip.clip_id))))
        peak = float(np.max(np.abs(out.samples)))
        return out.with_samples(out.samples * (0.999 / peak)) if peak > 1.0 else out
    return attack


def _series(*children):
    def attack(clip: AudioClip, seed: int) -> AudioClip:
        for i, child in enumerate(children):
            clip = child(clip, derive_seed(seed, i, clip.clip_id))
        return clip
    return attack


def _parallel(*children):
    def attack(clip: AudioClip, seed: int) -> AudioClip:
        acc = np.zeros_like(clip.samples)
        for i, child in enumerate(children):
            acc = acc + child(clip, derive_seed(seed, i, clip.clip_id)).samples
        return clip.with_samples(acc / len(children))
    return attack


def _noise(snr_db_by_color: dict, weights=None):
    """Additive noise: a color among the keys (uniform, or by `weights`), then
    the noise, then an SNR uniform over that color's (lo, hi) dB range."""
    colors = tuple(snr_db_by_color)

    def draw(clip, rng):
        if len(colors) == 1:
            color = colors[0]
        elif weights is None:
            color = colors[int(rng.integers(0, len(colors)))]
        else:
            color = colors[int(rng.choice(len(colors), p=weights))]
        noise = gen_noise(color, clip.samples.size, rng)
        return add_noise_at_snr(clip, noise, float(rng.uniform(*snr_db_by_color[color])))
    return _leaf(draw)


def _filter_bank(filters):
    """A (kind, cutoffs) FIR drawn uniformly from the bank."""
    return _leaf(lambda clip, rng: fir_filter(clip, *filters[int(rng.integers(0, len(filters)))]))


_TRAIN_FILTERS = (("lowpass", 2000.0), ("lowpass", 4000.0), ("highpass", 300.0),
                  ("highpass", 1000.0), ("bandpass", (300.0, 3400.0)))
# SSI noise range: low enough to mask the naive energy-delta cue
_SSI_SNR_RANGE = (-8.0, 2.0)
# additive-noise expert condition: white is the seen color; the unseen pink and
# brown colors concentrate power in the low bands, so they get milder ranges
# of roughly equal destructive effect
_WHITE_SNR_RANGE = (5.0, 15.0)
_COLORED_SNR_RANGE = (8.0, 18.0)

_T1 = _leaf(lambda clip, rng: convolutive_distortion(clip, 6, (-35.0, -10.0), 4.0, rng))
_T2 = _leaf(lambda clip, rng: impulsive_noise(clip, 50.0, 4.5, rng))
_T3 = _noise(dict.fromkeys(("white", "pink", "brown"), _SSI_SNR_RANGE))
_T4_TRAIN = _noise({"white": _WHITE_SNR_RANGE})
_T5_TRAIN = _filter_bank(_TRAIN_FILTERS)

PRESETS = {
    "T1": _T1,
    "T2": _T2,
    "T3": _T3,
    "T4": _noise({"white": _WHITE_SNR_RANGE, "pink": _COLORED_SNR_RANGE,
                  "brown": _COLORED_SNR_RANGE}, weights=(0.6, 0.2, 0.2)),
    "T4_train": _T4_TRAIN,
    "T5": _filter_bank(_TRAIN_FILTERS + (("lowpass", 1200.0),)),
    "T5_train": _T5_TRAIN,
    "T6": _leaf(lambda clip, rng: codec_sim(clip, bits=8, resample_hz=8000)),
    "rawboost4": _series(_T1, _T2, _T3),
    "rawboost5": _series(_T1, _T2),
    "rawboost6": _series(_T1, _T3),
    "rawboost7": _series(_T2, _T3),
    "rawboost8": _parallel(_T1, _T2),
    "noise_first": _series(_T4_TRAIN, _T5_TRAIN),
    "filter_first": _series(_T5_TRAIN, _T4_TRAIN),
}
PRESET_NAMES = tuple(sorted(PRESETS))


def preset(name: str, seed: int):
    """The named attack with its seed bound: a function of the clip alone."""
    if name not in PRESETS:
        raise AttackError(f"unknown attack preset {name!r}; "
                          f"valid presets: {', '.join(PRESET_NAMES)}")
    return functools.partial(PRESETS[name], seed=seed)


def apply_attack(clip: AudioClip, attack) -> AudioClip:
    """Apply a seeded attack from `preset` to one clip."""
    return attack(clip)
