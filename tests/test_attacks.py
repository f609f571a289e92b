import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amulet import attacks as atk
from amulet import corpus as cp
from amulet.audio import AudioClip
from oracles import measure_snr

SR = 16000


def sine(freq=440.0, seconds=2.0, amp=0.5, sr=SR, clip_id="sine"):
    t = np.arange(int(seconds * sr)) / sr
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), sr, clip_id, "bonafide")


def noisy_clip(seed=0, seconds=2.0, clip_id="noisy"):
    rng = np.random.default_rng(seed)
    return AudioClip(0.3 * rng.standard_normal(int(seconds * SR)), SR, clip_id, "bonafide")


def rms(x):
    return float(np.sqrt(np.mean(np.asarray(x) ** 2)))


class TestMeasureSnr:
    def test_equal_power_is_zero_db(self):
        clip = sine()
        assert abs(measure_snr(clip, clip.samples.copy())) < 1e-12

    def test_power_ratio_100_is_20_db(self):
        clip = sine()
        assert abs(measure_snr(clip, clip.samples * 0.1) - 20.0) < 1e-9

    def test_matches_direct_power_ratio(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            clip = noisy_clip(seed=int(rng.integers(1 << 30)))
            noise = rng.standard_normal(len(clip)) * rng.uniform(0.01, 2.0)
            expected = 10.0 * np.log10(np.mean(clip.samples**2) / np.mean(noise**2))
            assert abs(measure_snr(clip, noise) - expected) < 1e-9

    def test_zero_noise_power_errors(self):
        clip = sine()
        with pytest.raises(atk.DegenerateSignalError):
            measure_snr(clip, np.zeros(len(clip)))


class TestAddNoiseAtSnr:
    @given(target=st.floats(-10.0, 60.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_hits_target_exactly(self, target):
        clip = sine()
        rng = np.random.default_rng(99)
        noise = rng.standard_normal(len(clip))
        out = atk.add_noise_at_snr(clip, noise, target)
        measured = measure_snr(clip, out.samples - clip.samples)
        assert abs(measured - target) < 1e-6

    def test_60_db_is_a_vanishing_perturbation(self):
        clip = sine()
        noise = np.random.default_rng(1).standard_normal(len(clip))
        out = atk.add_noise_at_snr(clip, noise, 60.0)
        assert np.max(np.abs(out.samples - clip.samples)) < 0.01

    def test_zero_db_doubles_power_on_unit_sine(self):
        clip = sine(amp=1.0)
        noise = np.random.default_rng(2).standard_normal(len(clip))
        out = atk.add_noise_at_snr(clip, noise, 0.0)
        ratio = np.mean(out.samples**2) / np.mean(clip.samples**2)
        assert abs(ratio - 2.0) < 0.1  # cross-term bound

    def test_silent_clip_errors(self):
        silent = AudioClip(np.zeros(1000), SR, "silent", "bonafide")
        with pytest.raises(atk.DegenerateSignalError):
            atk.add_noise_at_snr(silent, np.ones(1000), 10.0)

    def test_out_of_range_snr(self):
        clip = sine()
        with pytest.raises(atk.AttackError):
            atk.add_noise_at_snr(clip, np.ones(len(clip)), 80.0)


def spectrum_slope_db_per_decade(x, sr, f_lo=100.0, f_hi=4000.0):
    """Least-squares fit of periodogram power (dB) against log10 frequency."""
    spectrum = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, 1.0 / sr)
    mask = (freqs >= f_lo) & (freqs <= f_hi)
    logf = np.log10(freqs[mask])
    power_db = 10.0 * np.log10(spectrum[mask])
    coeffs = np.polyfit(logf, power_db, 1)
    return coeffs[0]


class TestGenNoise:
    def test_white_deterministic(self):
        a = atk.gen_noise("white", 4096, np.random.Generator(np.random.Philox(7)))
        b = atk.gen_noise("white", 4096, np.random.Generator(np.random.Philox(7)))
        assert np.array_equal(a, b)

    def test_unit_power(self):
        for kind in ("white", "pink", "brown"):
            x = atk.gen_noise(kind, 1 << 15, np.random.Generator(np.random.Philox(3)))
            assert abs(np.mean(x**2) - 1.0) < 1e-9

    def test_pink_slope(self):
        slopes = [
            spectrum_slope_db_per_decade(
                atk.gen_noise("pink", 1 << 16, np.random.Generator(np.random.Philox(s))), SR
            )
            for s in range(4)
        ]
        assert abs(np.mean(slopes) - (-10.0)) < 2.0

    def test_brown_slope(self):
        slopes = [
            spectrum_slope_db_per_decade(
                atk.gen_noise("brown", 1 << 16, np.random.Generator(np.random.Philox(s))), SR
            )
            for s in range(4)
        ]
        assert abs(np.mean(slopes) - (-20.0)) < 3.0

    def test_unknown_kind(self):
        with pytest.raises(atk.AttackError):
            atk.gen_noise("violet", 100, np.random.default_rng(0))


class TestFirFilter:
    def test_lowpass_passes_dc(self):
        clip = AudioClip(np.full(8000, 0.5), SR, "dc", "bonafide")
        out = atk.fir_filter(clip, "lowpass", 4000.0, taps=101)
        core = out.samples[200:-200]
        assert np.all(np.abs(core - 0.5) < 0.005)

    def test_highpass_stopband_attenuation(self):
        clip = sine(freq=100.0, amp=0.5)
        out = atk.fir_filter(clip, "highpass", 4000.0, taps=101)
        attenuation_db = 20.0 * np.log10(rms(clip.samples[500:-500]) / rms(out.samples[500:-500]))
        assert attenuation_db >= 30.0

    def test_bandpass_passband_gain(self):
        clip = sine(freq=1000.0, amp=0.5)
        out = atk.fir_filter(clip, "bandpass", (300.0, 3400.0), taps=101)
        gain = rms(out.samples[500:-500]) / rms(clip.samples[500:-500])
        assert abs(gain - 1.0) < 0.05

    def test_length_preserved(self):
        clip = sine()
        out = atk.fir_filter(clip, "lowpass", 2000.0, taps=101)
        assert len(out) == len(clip)

    def test_bad_cutoff_order(self):
        with pytest.raises(atk.AttackError):
            atk.fir_filter(sine(), "bandpass", (3400.0, 300.0), taps=101)

    def test_even_taps_rejected(self):
        with pytest.raises(atk.AttackError):
            atk.fir_filter(sine(), "lowpass", 2000.0, taps=100)


class TestConvolutive:
    def test_identity_configuration(self):
        clip = noisy_clip(seed=4)
        out = atk.convolutive_distortion(
            clip, n_notches=2, gain_db_range=(0.0, 0.0), clip_drive=0.0,
            rng=np.random.default_rng(0),
        )
        assert np.max(np.abs(out.samples - clip.samples)) < 1e-9

    def test_tanh_drive_creates_odd_harmonics(self):
        clip = sine(freq=500.0, amp=0.9)
        out = atk.convolutive_distortion(
            clip, n_notches=1, gain_db_range=(0.0, 0.0), clip_drive=3.0,
            rng=np.random.default_rng(0),
        )
        spectrum = np.abs(np.fft.rfft(out.samples))
        freqs = np.fft.rfftfreq(len(out), 1.0 / SR)

        def peak_near(f):
            mask = np.abs(freqs - f) < 20.0
            return spectrum[mask].max()

        third_db = 20.0 * np.log10(peak_near(1500.0) / peak_near(500.0))
        assert third_db >= -40.0

    def test_seeded_determinism(self):
        clip = noisy_clip(seed=6)
        kwargs = dict(n_notches=4, gain_db_range=(-24.0, -6.0), clip_drive=2.5)
        a = atk.convolutive_distortion(clip, rng=np.random.Generator(np.random.Philox(9)), **kwargs)
        b = atk.convolutive_distortion(clip, rng=np.random.Generator(np.random.Philox(9)), **kwargs)
        assert np.array_equal(a.samples, b.samples)


class TestImpulsive:
    def test_zero_scale_is_identity(self):
        clip = noisy_clip(seed=8)
        out = atk.impulsive_noise(clip, 10.0, 0.0, np.random.default_rng(0))
        assert np.array_equal(out.samples, clip.samples)

    def test_silent_input_stays_silent(self):
        silent = AudioClip(np.zeros(2 * SR), SR, "silent", "bonafide")
        out = atk.impulsive_noise(silent, 10.0, 2.0, np.random.default_rng(0))
        assert np.array_equal(out.samples, np.zeros(2 * SR))

    def test_event_count_matches_seeded_regeneration(self):
        clip = AudioClip(0.3 * np.ones(4 * SR), SR, "flat", "bonafide")
        seed = 1234
        out = atk.impulsive_noise(clip, 10.0, 3.0, np.random.Generator(np.random.Philox(seed)))
        changed = int(np.sum(out.samples != clip.samples))
        # regenerate the position list from the same seed
        rng = np.random.Generator(np.random.Philox(seed))
        count = int(rng.poisson(10.0 * 4.0))
        positions = rng.integers(0, len(clip), size=count)
        assert changed == np.unique(positions).size
        # Poisson(40) 99% interval
        assert 25 <= count <= 58


class TestCodec:
    def test_high_bits_high_snr(self):
        clip = sine(freq=330.0, amp=0.6)
        out = atk.codec_sim(clip, bits=12, resample_hz=SR)
        snr = measure_snr(clip, out.samples - clip.samples)
        assert snr >= 45.0

    def test_low_bits_snr_band(self):
        clip = sine(freq=330.0, amp=0.6)
        out = atk.codec_sim(clip, bits=6, resample_hz=SR)
        snr = measure_snr(clip, out.samples - clip.samples)
        assert 15.0 <= snr <= 35.0

    def test_length_round_trip(self):
        clip = noisy_clip(seed=10)
        out = atk.codec_sim(clip, bits=8, resample_hz=8000)
        assert len(out) == len(clip)

    def test_bits_range(self):
        with pytest.raises(atk.AttackError):
            atk.codec_sim(sine(), bits=4, resample_hz=SR)


def identity_leaf():
    return atk._leaf(
        lambda clip, rng: atk.convolutive_distortion(clip, 1, (0.0, 0.0), 0.0, rng)
    )


class TestCompose:
    def test_noise_first_vs_filter_first_differ(self):
        clip = noisy_clip(seed=11, clip_id="order")
        nf = atk.preset("noise_first", seed=77)
        ff = atk.preset("filter_first", seed=77)
        a = atk.apply_attack(clip, nf)
        b = atk.apply_attack(clip, ff)
        assert np.linalg.norm(a.samples - b.samples) > 1e-6

    def test_series_of_identity_children(self):
        clip = noisy_clip(seed=12, clip_id="ident")
        identity = identity_leaf()
        out = atk._series(identity, identity)(clip, 5)
        single = identity(clip, 5)
        assert np.max(np.abs(out.samples - single.samples)) < 1e-9

    def test_parallel_of_one_child_is_the_child(self):
        clip = noisy_clip(seed=13, clip_id="par")
        child = atk.PRESETS["T4_train"]
        out = atk._parallel(child)(clip, 1)
        single = child(clip, atk.derive_seed(1, 0, clip.clip_id))
        assert np.array_equal(out.samples, single.samples)


class TestApplyAttack:
    def test_bitwise_determinism(self):
        clip = noisy_clip(seed=14, clip_id="det")
        spec = atk.preset("rawboost4", seed=314)
        a = atk.apply_attack(clip, spec)
        b = atk.apply_attack(clip, spec)
        assert np.array_equal(a.samples, b.samples)

    def test_determinism_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        clips = [noisy_clip(seed=s, clip_id=f"thread-{s}") for s in range(8)]
        spec = atk.preset("rawboost7", seed=271)
        sequential = [atk.apply_attack(c, spec).samples for c in clips]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda c: atk.apply_attack(c, spec).samples, clips))
        for a, b in zip(sequential, threaded):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "name,leaves",
        [
            ("rawboost4", ["T1", "T2", "T3"]),
            ("rawboost5", ["T1", "T2"]),
            ("rawboost6", ["T1", "T3"]),
            ("rawboost7", ["T2", "T3"]),
        ],
    )
    def test_series_presets_equal_manual_chaining(self, name, leaves):
        clip = noisy_clip(seed=15, clip_id="chain")
        root_seed = 999
        spec = atk.preset(name, seed=root_seed)
        out = atk.apply_attack(clip, spec)
        # manual chain with the derived child seeds
        current = clip
        for i, leaf in enumerate(leaves):
            child_seed = atk.derive_seed(root_seed, i, clip.clip_id)
            leaf_spec = atk.preset(leaf, seed=child_seed)
            current = atk.apply_attack(current, leaf_spec)
        assert np.array_equal(out.samples, current.samples)

    def test_parallel_preset_equals_manual_average(self):
        clip = noisy_clip(seed=16, clip_id="par8")
        root_seed = 555
        spec = atk.preset("rawboost8", seed=root_seed)
        out = atk.apply_attack(clip, spec)
        branches = []
        for i, leaf in enumerate(["T1", "T2"]):
            child_seed = atk.derive_seed(root_seed, i, clip.clip_id)
            branches.append(atk.apply_attack(clip, atk.preset(leaf, seed=child_seed)).samples)
        manual = (branches[0] + branches[1]) / 2.0
        assert np.array_equal(out.samples, manual)

    def test_peak_normalization_guard(self):
        loud = AudioClip(0.98 * np.sin(2 * np.pi * 300 * np.arange(SR) / SR), SR, "loud", "bonafide")
        leaf = atk._leaf(lambda clip, rng: atk.impulsive_noise(clip, 200.0, 8.0, rng))
        rng = np.random.Generator(np.random.Philox(atk.derive_seed(3, 0, loud.clip_id)))
        raw = atk.impulsive_noise(loud, 200.0, 8.0, rng)
        assert np.max(np.abs(raw.samples)) > 1.0  # the guard has work to do
        out = leaf(loud, 3)
        assert np.max(np.abs(out.samples)) <= 0.999 + 1e-12
        assert np.array_equal(out.samples, raw.samples * (0.999 / np.max(np.abs(raw.samples))))

    def test_length_preserved_for_all_presets(self):
        clip = noisy_clip(seed=17, clip_id="len")
        for name in atk.PRESET_NAMES:
            out = atk.apply_attack(clip, atk.preset(name, seed=1))
            assert len(out) == len(clip), name

    def test_unknown_preset_lists_valid_names(self):
        with pytest.raises(atk.AttackError, match="rawboost4"):
            atk.preset("T9", seed=0)


# sha256 of `samples.tobytes()` for every preset on one synthetic clip of each
# class at two seeds: a refactor of the attack code must keep these bitwise.
PRESET_DIGESTS = {
    ("T1", "bonafide", 1): "74f8a9098077c71fe73775238f5e19b52a73a517c6ec9ff7e3e747d4c83c5ff7",
    ("T1", "bonafide", 2): "79af7b35b6c4d428187b65b3830a0b0c855dd00c68c245cbf5163c9b398f65f4",
    ("T1", "spoof", 1): "8c7e0e5c43d569a558d1056b0d1c50cb46d2e234df58a395e763fcffcb7cdb47",
    ("T1", "spoof", 2): "b9d4eb8241e382507ce5568e2f116b09efba1d617c23aadefd307bbb71c1de7e",
    ("T2", "bonafide", 1): "ae3b268d6fc06e2cf91f7afa83351cd46d1c279c1f4cf7eefa3fce013fefba5a",
    ("T2", "bonafide", 2): "5e8903319a82403177509f075aa29b3cd2ed9a5e6c2144e0836fb11e4d4b3b04",
    ("T2", "spoof", 1): "8452571abcae600a8c9a288649cbabf28d77c8365aa658c840b020a95f77e0ab",
    ("T2", "spoof", 2): "df1234c5fcbbcab53149a8b0223e9827958aa06e1f93fe6014936eb9fd6e0931",
    ("T3", "bonafide", 1): "ed565ec0f6e83afb92701d4dedb67a8ef7d8a9a1f3029b9e05d905d31df96eea",
    ("T3", "bonafide", 2): "9fcb94c4de0fca20127c6a52d48c968a0d8751035b31d96fce18387836701133",
    ("T3", "spoof", 1): "af6962148e6082f3da5a9321baaff1d6dbf2aab073173aef1aafec42183d1048",
    ("T3", "spoof", 2): "e4760a98715f199983dc3305728db60ca026e77d7097d8d5696a80e255ac259e",
    ("T4", "bonafide", 1): "a3a0fb4d626bde7a309a7e5111ab6659aa73eb77fe4e135a1d604d6d0576f316",
    ("T4", "bonafide", 2): "6706b2a74dfb0903339120fbdb5565034b604fbe0b3e3b2bc236b1bb8b0dfd0d",
    ("T4", "spoof", 1): "47c7af700e3f69855b96fcb50815771e7dbc6a57b948b13b64f470b582c46133",
    ("T4", "spoof", 2): "6ebb048188e7181d27a0b4aa563693658a3723ae67e1a318b496f1628100b6bf",
    ("T4_train", "bonafide", 1): "20b0da2aa08d1531403609ac3558b3fed0b6605a0b843fb70a08835850f73dbe",
    ("T4_train", "bonafide", 2): "13a96dc4cf46080ab357fead892f1301bc8370bb0ffca0c766050937ccab1910",
    ("T4_train", "spoof", 1): "88da6a0ef5d9733109738c0548d62245cfde76dec5ce87cef0e3eb640f91377a",
    ("T4_train", "spoof", 2): "d3b9c0090e5c66c1f635ce640161f8d2385ea8b026125752fd3d457532f8b049",
    ("T5", "bonafide", 1): "298879db4004b5bc9e330752d23e2be5d2bdd1e5f95c91bd4308bc9e6654b05e",
    ("T5", "bonafide", 2): "41d7405bbe0efa150b0f1175537c9e39b923eb87aee9536183db0184cff4b0a1",
    ("T5", "spoof", 1): "9f69b5474652b1d3c487c559e9b093eca881c3cd0f4d12c025cac7166c4f65a8",
    ("T5", "spoof", 2): "901ac3aa0f8fc5826b544e66aaaad3b7501d3be9bb59d7c23c693b3c2002f812",
    ("T5_train", "bonafide", 1): "298879db4004b5bc9e330752d23e2be5d2bdd1e5f95c91bd4308bc9e6654b05e",
    ("T5_train", "bonafide", 2): "ad41aaebb6952d7c55e7c11146785be4dead7b88277a6324f9a32bfa5bceaf56",
    ("T5_train", "spoof", 1): "901ac3aa0f8fc5826b544e66aaaad3b7501d3be9bb59d7c23c693b3c2002f812",
    ("T5_train", "spoof", 2): "901ac3aa0f8fc5826b544e66aaaad3b7501d3be9bb59d7c23c693b3c2002f812",
    ("T6", "bonafide", 1): "59b09b5f98982250889b2ec1299360001009caea9d0a4f5eb7b18abc06ed00c2",
    ("T6", "bonafide", 2): "59b09b5f98982250889b2ec1299360001009caea9d0a4f5eb7b18abc06ed00c2",
    ("T6", "spoof", 1): "07f7f3a2019417c55fe97aa2bb4865cad752726ed3f7b26bed45fc9331579d2c",
    ("T6", "spoof", 2): "07f7f3a2019417c55fe97aa2bb4865cad752726ed3f7b26bed45fc9331579d2c",
    ("filter_first", "bonafide", 1): "6a764f8d6234cd009ea0dcb4dd7349b5eb57bbc684021d9fd3781fd1db6d03cf",
    ("filter_first", "bonafide", 2): "232450e02d576be21a24aa62f05e9392c7b990a83a67c28ff612d1afe7ad3a26",
    ("filter_first", "spoof", 1): "485ad94b07070313cd617cd0256cedc458df4722f6b4c08f463d8cc8434f7fee",
    ("filter_first", "spoof", 2): "c8072fc7e4a43ea462720651fb9714ae7afd42be18b38b12e53a765e903d9f77",
    ("noise_first", "bonafide", 1): "00da151678bda1e1724ac85451e4e8d0e41935ed9eba8f576c55e9c437ba5d38",
    ("noise_first", "bonafide", 2): "8d2f833386dc18f9109703c423abea59d6091b12c78769f4dfff619809c70962",
    ("noise_first", "spoof", 1): "7b59532f2b16b662bba2b805ef6ae893120f3eb81a07904e9a7e5a85e698498a",
    ("noise_first", "spoof", 2): "363323ab89d76292207c688e3f70d69b7a1296d8df2c518ca1bf30823b1fb855",
    ("rawboost4", "bonafide", 1): "3262adaa8e19faf6df6a8a6ade79bd5246e72ad638dea68bb658735b17b6d4d0",
    ("rawboost4", "bonafide", 2): "3e5a216fc20cb60e584ffa155cbf4c8d1c312ad9938bc8c20bf5640195d86c5a",
    ("rawboost4", "spoof", 1): "6bf45cfada82f99145d6bae52de98345c447e697e6ea7d1e5a0779ca13fb4e93",
    ("rawboost4", "spoof", 2): "c83385eaabecb1f7c026d37768d14bb06201625c77c1ec227fb55bff309e00e3",
    ("rawboost5", "bonafide", 1): "ab8c152360d4bd5b5ffff9f7c69d62323bba9976c7825d7214b34d090c225475",
    ("rawboost5", "bonafide", 2): "9947098944063b5ff03094c4e82eff75b51375d528749ea1e3dbe28ed587c39d",
    ("rawboost5", "spoof", 1): "c5ad062c6049e4567cf13bad25c959607d5b05cbd36e4714ed1f9812aee5e97c",
    ("rawboost5", "spoof", 2): "6d7ba222d94a120e5e3bdbb09418a4bbc2030a4ceaa07529245330458256e80c",
    ("rawboost6", "bonafide", 1): "f2ce3354e060f7234fd6917b85ca8c6b74687e709c1c3bd96005d1d43aa8ac61",
    ("rawboost6", "bonafide", 2): "5900961f493aacc23d7d0bffae73ad7e7da30f9155827597695b72e9ee0a9fee",
    ("rawboost6", "spoof", 1): "da657173d0066be2c9ba1115db2c3a61c9c3111dfef75afb8296488530708b64",
    ("rawboost6", "spoof", 2): "be3465685fca36a5997348124a8621a4319ed55864dfe5c8fedff43a91318be0",
    ("rawboost7", "bonafide", 1): "865320445691b783904544e84fa8c47f3511d06dcc24419b4799cc005ad03a6d",
    ("rawboost7", "bonafide", 2): "98e116de6ce91bddf273bc76137226b9d9e18eafb668146d5d0c782c39a3b343",
    ("rawboost7", "spoof", 1): "fe9eabb3ef63b6f202d51494fa6c07e48dec997981b41b590e5f5d80e71c3515",
    ("rawboost7", "spoof", 2): "92902de810eb9bbea09bc034f1f657bb0fb5ffef2e8934da42e9e0386ec4f946",
    ("rawboost8", "bonafide", 1): "7bb520eb0705480b2bec71f13918f24a7685688cc6a1eef2ef1fc5fd8bba48f4",
    ("rawboost8", "bonafide", 2): "031f4b0acc800378ee4ccc1111fbd6f255eab236d393285e59f203a7cae7796b",
    ("rawboost8", "spoof", 1): "b4a9673189f56ff9ed8e608e1e8d74e846c7a15f3b265d97492252d3ed37742e",
    ("rawboost8", "spoof", 2): "25fc5c3480a3ab284fbf2c37b8d0329e5511318b5652257eed8d0b9fead79755",
}


class TestPresetDigests:
    @pytest.mark.parametrize("name", atk.PRESET_NAMES)
    def test_output_is_pinned(self, name):
        cfg = cp.SynthConfig(clip_seconds=1.0)
        for clip in (cp.synth_clip("bonafide", 7, cfg), cp.synth_clip("spoof", 8, cfg)):
            for seed in (1, 2):
                out = atk.apply_attack(clip, atk.preset(name, seed))
                digest = hashlib.sha256(out.samples.tobytes()).hexdigest()
                assert digest == PRESET_DIGESTS[(name, clip.label, seed)], (clip.label, seed)
