import json
import re

import numpy as np
import pytest

from amulet import attacks as atk
from amulet import corpus as cp
from amulet.audio import UnsupportedEncodingError, float_to_pcm16, read_pcm, read_wav, write_wav

SMALL = cp.SynthConfig(n_train=100, n_dev=20, n_eval=50)
TINY = cp.SynthConfig(n_train=6, n_dev=3, n_eval=4)


def frame_energy_delta_features(samples, sr=16000, frame_sec=0.025):
    """Naive per-frame energy-delta statistics; the probe's only input."""
    frame = int(frame_sec * sr)
    t = samples.size // frame
    energies = np.mean(samples[: t * frame].reshape(t, frame) ** 2, axis=1)
    energies = energies / np.mean(energies)
    d = np.abs(np.diff(energies))
    return np.array([d.mean(), d.max(), d.std(), float(np.mean(d < 0.05))])


def linear_probe_accuracy(features, labels):
    """Least-squares linear classifier, trained and scored on the same data."""
    x = np.column_stack([features, np.ones(len(features))])
    y = np.asarray(labels, dtype=np.float64)
    w, *_ = np.linalg.lstsq(x, y, rcond=None)
    predictions = (x @ w) >= 0.5
    return float(np.mean(predictions == y))


def synth_pair_sets(cfg, n=200, seed=0):
    clips, labels = [], []
    for i in range(n):
        for label, flag in (("bonafide", 0.0), ("spoof", 1.0)):
            clips.append(cp.synth_clip(label, cp.stable_seed(seed, label, i), cfg))
            labels.append(flag)
    return clips, labels


class TestSynthClip:
    def test_deterministic(self):
        a = cp.synth_clip("spoof", 42, SMALL)
        b = cp.synth_clip("spoof", 42, SMALL)
        assert np.array_equal(a.samples, b.samples)

    def test_classes_differ_and_spoof_has_higher_flux(self):
        def boundary_spectral_flux(samples, sr=16000, frame_sec=0.025, win=128, f_lo=4000.0):
            # high-band flux of a tapered window straddling each synthesis frame
            # boundary, referenced against an interior window of the same frame
            frame = int(frame_sec * sr)
            boundaries = np.arange(frame, samples.size - 2 * win, frame)
            band = np.fft.rfftfreq(win, 1.0 / sr) >= f_lo
            taper = np.hanning(win)
            diffs = []
            for b in boundaries:
                straddle = np.abs(np.fft.rfft(taper * samples[b - win // 2 : b + win // 2]))
                inside = np.abs(np.fft.rfft(taper * samples[b + win : b + 2 * win]))
                diffs.append(np.linalg.norm(straddle[band]) - np.linalg.norm(inside[band]))
            return float(np.mean(diffs))

        for i in range(10):
            bona = cp.synth_clip("bonafide", cp.stable_seed(1, i), SMALL)
            spoof = cp.synth_clip("spoof", cp.stable_seed(1, i), SMALL)
            assert not np.array_equal(bona.samples, spoof.samples)
            assert boundary_spectral_flux(spoof.samples) > boundary_spectral_flux(bona.samples)

    def test_probe_separates_clean_task(self):
        clips, labels = synth_pair_sets(SMALL, n=200, seed=3)
        feats = [frame_energy_delta_features(c.samples) for c in clips]
        assert linear_probe_accuracy(feats, labels) > 0.9

    def test_probe_degrades_under_stationary_noise(self):
        clips, labels = synth_pair_sets(SMALL, n=200, seed=3)
        spec = atk.preset("T3", seed=99)
        feats = [
            frame_energy_delta_features(atk.apply_attack(c, spec).samples) for c in clips
        ]
        assert linear_probe_accuracy(feats, labels) < 0.75

    def test_clip_seconds_bounds(self):
        with pytest.raises(cp.SynthConfigError):
            cp.SynthConfig(clip_seconds=0.5).validate()
        with pytest.raises(cp.SynthConfigError):
            cp.SynthConfig(n_train=0).validate()


class TestBuildCorpus:
    def test_counts_and_balance(self, tmp_path):
        manifest = cp.build_corpus(SMALL, tmp_path, seed=7)
        assert len(manifest) == 340
        assert len(manifest.split("train")) == 200
        assert len(manifest.split("dev")) == 40
        assert len(manifest.split("eval")) == 100
        for split in cp.SPLITS:
            entries = manifest.split(split)
            bona = sum(1 for e in entries if e.label == "bonafide")
            assert bona * 2 == len(entries)

    def test_rebuild_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        cp.build_corpus(TINY, first, seed=11)
        cp.build_corpus(TINY, second, seed=11)
        wavs = sorted((first / "audio" / "T0").glob("*.wav"))
        assert wavs
        for wav in wavs:
            other = second / "audio" / "T0" / wav.name
            assert wav.read_bytes() == other.read_bytes()
        assert (first / "manifests" / "T0.jsonl").read_bytes() == (
            second / "manifests" / "T0.jsonl"
        ).read_bytes()

    def test_manifest_round_trip_bit_exact(self, tmp_path):
        manifest = cp.build_corpus(TINY, tmp_path, seed=13)
        path = tmp_path / "manifests" / "T0.jsonl"
        original = path.read_bytes()
        reloaded = cp.load_manifest(path)
        cp.save_manifest(reloaded, path)
        assert path.read_bytes() == original


class TestBuildVariant:
    def test_identity_spec_is_near_exact(self, tmp_path):
        manifest = cp.build_corpus(TINY, tmp_path, seed=17)
        identity = atk._leaf(
            lambda clip, rng: atk.convolutive_distortion(clip, 1, (0.0, 0.0), 0.0, rng)
        )
        variant = cp.build_variant(manifest.entries, lambda clip: identity(clip, 1), "ID",
                                   tmp_path)
        for src, dst in zip(manifest.entries, variant):
            a = cp.resolve_clip(src, tmp_path)
            b = cp.resolve_clip(dst, tmp_path)
            # one extra PCM16 quantization on top of the 1e-9 filter error
            assert np.max(np.abs(a.samples - b.samples)) < 1.0 / 32767.0

    def test_structure_preserved(self, tmp_path):
        manifest = cp.build_corpus(TINY, tmp_path, seed=19)
        evals = manifest.split("eval")
        variant = cp.build_variant(evals, atk.preset("T4", seed=5), "T4", tmp_path)
        assert len(variant) == len(evals)
        for src, dst in zip(evals, variant):
            assert dst.clip_id == src.clip_id
            assert dst.label == src.label
            assert dst.split == src.split
            assert dst.condition == "T4"
            assert dst.path == f"audio/T4/{src.clip_id}.wav"
            assert (tmp_path / dst.path).is_file()

    def test_variant_of_variant_matches_composed_spec(self, tmp_path):
        manifest = cp.build_corpus(TINY, tmp_path, seed=23)
        # noise_first is T4_train then T5_train, child i seeded derive_seed(41, i, clip_id)
        def child(name, i):
            return lambda clip: atk.PRESETS[name](clip, atk.derive_seed(41, i, clip.clip_id))

        noise, bank = child("T4_train", 0), child("T5_train", 1)
        composed = atk.preset("noise_first", seed=41)

        # in memory the chain is exact
        clip = cp.resolve_clip(manifest.entries[0], tmp_path)
        chained = atk.apply_attack(atk.apply_attack(clip, noise), bank)
        direct = atk.apply_attack(clip, composed)
        assert np.array_equal(chained.samples, direct.samples)

        # on disk the intermediate PCM16 write adds one quantization step
        va = cp.build_variant(manifest.entries, noise, "A", tmp_path)
        vab = cp.build_variant(va, bank, "AB", tmp_path)
        vz = cp.build_variant(manifest.entries, composed, "Z", tmp_path)
        for left, right in zip(vab, vz):
            a = cp.resolve_clip(left, tmp_path)
            b = cp.resolve_clip(right, tmp_path)
            assert np.max(np.abs(a.samples - b.samples)) < 4.0 / 32767.0


class TestFusionSubset:
    def _manifests(self, tmp_path):
        base = cp.build_corpus(SMALL, tmp_path, seed=29)
        other_entries = [
            cp.ManifestEntry(e.clip_id, e.label, e.split, "T1", e.seed, path=e.path)
            for e in base.entries
        ]
        return base, cp.Manifest(other_entries)

    def test_fraction_arithmetic(self, tmp_path):
        base, other = self._manifests(tmp_path)
        subset = cp.sample_fusion_subset([base, other], 0.25, seed=1)
        per_source = len(base.split("train")) // 4
        assert len(subset) == 2 * per_source
        t0 = [e for e in subset.entries if e.condition == "T0"]
        assert len(t0) == per_source

    def test_fraction_one_is_identity(self, tmp_path):
        base, _ = self._manifests(tmp_path)
        subset = cp.sample_fusion_subset([base], 1.0, seed=1)
        assert len(subset) == len(base.split("train"))

    def test_seed_stability_and_overlap(self, tmp_path):
        base, _ = self._manifests(tmp_path)
        first = cp.sample_fusion_subset([base], 0.25, seed=5)
        again = cp.sample_fusion_subset([base], 0.25, seed=5)
        assert [e.clip_id for e in first.entries] == [e.clip_id for e in again.entries]
        different = cp.sample_fusion_subset([base], 0.25, seed=6)
        ids_a = {e.clip_id for e in first.entries}
        ids_b = {e.clip_id for e in different.entries}
        assert ids_a != ids_b
        overlap = len(ids_a & ids_b) / len(ids_a)
        assert 0.05 < overlap < 0.6  # expected overlap ~ fraction

    def test_invalid_fraction(self, tmp_path):
        base, _ = self._manifests(tmp_path)
        with pytest.raises(cp.ManifestError):
            cp.sample_fusion_subset([base], 0.0, seed=1)

    def test_empty_manifest_rejected(self):
        with pytest.raises(cp.ManifestError):
            cp.sample_fusion_subset([cp.Manifest([])], 0.5, seed=1)


class TestReadWav:
    def test_read_wav_scales_the_pcm_read(self, tmp_path):
        clip = cp.synth_clip("spoof", 3, TINY)
        write_wav(tmp_path / "c.wav", clip)
        rate, pcm = read_pcm(tmp_path / "c.wav")
        assert rate == TINY.sample_rate and pcm.dtype == np.dtype("<i2")
        assert np.array_equal(pcm, float_to_pcm16(clip.samples))
        assert read_wav(tmp_path / "c.wav").samples.tobytes() == (pcm / 32767.0).tobytes()

    def test_eight_bit_wav_rejected(self, tmp_path):
        import wave

        with wave.open(str(tmp_path / "bad.wav"), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(1)
            w.setframerate(16000)
            w.writeframes(bytes(1600))
        with pytest.raises(UnsupportedEncodingError):
            read_wav(tmp_path / "bad.wav")


class TestManifestInvariants:
    def test_duplicate_ids_rejected(self):
        entry = cp.ManifestEntry("x", "bonafide", "train", "T0", 1, path="p.wav")
        with pytest.raises(cp.ManifestError):
            cp.Manifest([entry, entry])

    @pytest.mark.parametrize("key", ["clip_id", "seed", "path"])
    def test_entry_missing_a_key_rejected(self, tmp_path, key):
        # a hand-edited line is outside input: one ManifestError, not a KeyError
        entry = cp.ManifestEntry("x", "bonafide", "train", "T0", 1, path="p.wav").to_dict()
        del entry[key]
        (tmp_path / "m.jsonl").write_text(json.dumps(entry) + "\n")
        with pytest.raises(cp.ManifestError, match=f"has no '{key}'"):
            cp.load_manifest(tmp_path / "m.jsonl")

    @pytest.mark.parametrize("line, reason", [
        ("garbage", "not JSON"), ("[1, 2]", "an entry must be a JSON object")])
    def test_line_that_is_not_an_object_rejected(self, tmp_path, line, reason):
        entry = cp.ManifestEntry("x", "bonafide", "train", "T0", 1, path="p.wav").to_dict()
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(entry) + "\n\n" + line + "\n")
        with pytest.raises(cp.ManifestError, match=f"^{re.escape(str(path))}, line 3: {reason}"):
            cp.load_manifest(path)

    def test_unlabeled_rejected(self):
        with pytest.raises(cp.ManifestError):
            cp.Manifest([cp.ManifestEntry("x", "unlabeled", "train", "T0", 1, path="p.wav")])
