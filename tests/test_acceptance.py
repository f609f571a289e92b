"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria C1-C6 run on small inputs, in seconds; run with `-s` to watch the
per-criterion lines. Reproducibility of a whole run, with one and with two
workers, is checked by the micro end-to-end test in `test_cli.py`.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from amulet import attacks as atk
from amulet import cli
from amulet import corpus as cp
from amulet import experts as ex
from amulet import fusion as fu
from amulet import metrics as mx
from amulet import tensor as tc
from amulet.audio import AudioClip

from oracles import (
    count_trainable,
    eer_segment_sweep,
    finite_difference_grads,
    fold_adapters,
    matmul_triple_loop,
    measure_snr,
    random_graph,
    relative_error,
)

ENC = ex.EncoderConfig()


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def random_clip(rng: np.random.Generator) -> AudioClip:
    samples = 0.4 * rng.standard_normal(32000)
    return AudioClip(samples, 16000, f"acc-{rng.integers(1 << 30)}", "bonafide")


class TestCriterion1LoraIdentity:
    def test_injected_expert_is_bit_identical(self):
        start = time.perf_counter()
        base = ex.new_expert(ENC, seed=1001)
        injected = ex.lora_inject(base, ex.LoraConfig(4, 32.0, 0.1), seed=1002)
        rng = np.random.default_rng(1003)

        def infer(model, feats):
            leaves = ex.constant_leaves(model)
            frames = tc.row_segments([feats.shape[0]])
            z = ex.encoder_forward(model, leaves, tc.constant(feats), frames)
            return z.value, ex.expert_logits(leaves, z, frames).value

        for _ in range(100):
            feats = ex.frame_features(random_clip(rng), ENC)
            for got, want in zip(infer(injected, feats), infer(base, feats)):
                assert np.array_equal(got, want)
        elapsed = time.perf_counter() - start
        report(
            "C1 adapter-injection identity",
            elapsed < 10.0,
            f"100 clips bit-identical in {elapsed:.1f}s (< 10s)",
        )


class TestCriterion2LoraAlgebra:
    def test_two_path_merged_and_counts(self):
        rng = np.random.default_rng(2001)
        worst = 0.0
        for _ in range(100):
            # an adapted encoder with random nonzero adapters against a copy
            # without adapters whose weights fold them in
            dims = tuple(int(d) for d in rng.integers(3, 16, size=int(rng.integers(2, 5))))
            dims = (*dims[:-1], dims[-1] + dims[-1] % 2)  # the head pairs the last width
            cfg = ex.EncoderConfig(frame_len=dims[0], hop=dims[0], hidden_dims=dims[1:])
            lora = ex.LoraConfig(int(rng.integers(1, 9)), float(rng.uniform(1, 64)), 0.0)
            model = ex.lora_inject(ex.new_expert(cfg, int(rng.integers(1 << 30))), lora, seed=1)
            for i in range(model.n_layers):
                for name in (f"lora.a{i}", f"lora.b{i}"):
                    model.tensors[name] = rng.normal(0.0, 0.2, model.tensors[name].shape)
            x = tc.constant(rng.standard_normal((int(rng.integers(1, 16)), dims[0])))
            frames = tc.row_segments([x.shape[0]])
            two_path, merged = (
                ex.encoder_forward(m, ex.constant_leaves(m), x, frames).value
                for m in (model, fold_adapters(model)))
            worst = max(worst, float(np.max(np.abs(merged - two_path))))
        assert worst < 1e-10

        for _ in range(20):
            dims = tuple(int(d) for d in rng.integers(2, 48, size=int(rng.integers(1, 4))))
            dims = (*dims[:-1], dims[-1] + dims[-1] % 2)  # the head pairs the last width
            frame_len = int(rng.integers(8, 256))
            rank = int(rng.integers(1, 9))
            cfg = ex.EncoderConfig(frame_len=frame_len, hop=frame_len, hidden_dims=dims)
            injected = ex.lora_inject(ex.new_expert(cfg, 0), ex.LoraConfig(rank, 16.0, 0.0), seed=1)
            chain = (frame_len, *dims)
            formula = sum(rank * (a + b) for a, b in zip(chain[:-1], chain[1:]))
            brute = sum(
                injected.tensors[name].size
                for name in injected.tensors
                if not name.startswith("head.") and name not in injected.frozen
            )
            assert count_trainable(injected)["trainable"] == formula == brute

        desk = ex.lora_inject(ex.new_expert(ENC, 0), ex.LoraConfig(4, 16.0, 0.1), seed=2)
        counts = count_trainable(desk)
        assert (counts["trainable"], counts["total"]) == (1920, 18624)
        assert round(counts["percent"], 2) == 10.31
        paper_scale = 100.0 * 3.59e6 / 318e6
        assert round(paper_scale, 2) == 1.13
        report(
            "C2 adapter algebra and counts",
            True,
            f"two-path vs folded forward max dev {worst:.1e} (<1e-10); "
            "1920/18624=10.31%; 3.59M/318M=1.13%",
        )


class TestCriterion3Gradients:
    def test_primitives_and_composites_match_finite_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(3001)
        worst = 0.0
        for _ in range(50):
            loss_only, loss_and_grads, params = random_graph(rng)
            _, grads = loss_and_grads(params)
            fd = finite_difference_grads(loss_only, params)
            for name in params:
                worst = max(worst, relative_error(grads[name], fd[name]))

        # composite expert forward (adapters + quadrature pooling head)
        cfg = ex.EncoderConfig(frame_len=10, hop=10, hidden_dims=(6, 6))
        model = ex.lora_inject(ex.new_expert(cfg, 30), ex.LoraConfig(2, 8.0, 0.0), seed=31)
        for i in range(model.n_layers):
            model.tensors[f"lora.b{i}"] = rng.normal(0, 0.2, model.tensors[f"lora.b{i}"].shape)
        feats = rng.standard_normal((6, 10)) * 0.4

        def loss_value(tensors):
            probe = ex.ExpertModel(cfg, tensors, model.frozen, model.lora)
            leaves = ex.make_leaves(probe)
            return float(ex.loss_nodes(probe, leaves, [feats], ["spoof"]).value[0, 0])

        leaves = ex.make_leaves(model)
        loss = ex.loss_nodes(model, leaves, [feats], ["spoof"])
        tc.backward(loss)
        trainable = {n: model.tensors[n] for n in model.tensors if n not in model.frozen}
        fd = finite_difference_grads(lambda v: loss_value({**model.tensors, **v}), trainable)
        for name in trainable:
            worst = max(worst, relative_error(leaves[name].grad, fd[name]))

        elapsed = time.perf_counter() - start
        report(
            "C3 gradient correctness",
            worst < 1e-4 and elapsed < 60.0,
            f"max rel err {worst:.2e} (<1e-4) over 50 graphs + expert composite, {elapsed:.1f}s (<60s)",
        )


class TestCriterion4EerOracle:
    def test_oracle_equivalence_and_hand_cases(self):
        rng = np.random.default_rng(4001)
        worst = 0.0
        for _ in range(200):
            n_bona = int(rng.integers(1, 501))
            n_spoof = int(rng.integers(1, 501))
            bona = rng.normal(rng.uniform(0, 2), 1.0, n_bona)
            spoof = rng.normal(0.0, 1.0, n_spoof)
            if rng.integers(0, 2):
                bona = np.round(bona, 1)
                spoof = np.round(spoof, 1)
            ours = mx.compute_eer(mx.ScoreSet(bona.tolist(), spoof.tolist())).eer
            worst = max(worst, abs(ours - eer_segment_sweep(bona, spoof)))
        assert worst < 1e-9

        assert mx.compute_eer(mx.ScoreSet([2, 3, 4], [-1, 0, 1])).eer == 0.0
        identical = [0.4, 0.1, 0.9, 0.6]
        assert abs(mx.compute_eer(mx.ScoreSet(identical, list(identical))).eer - 0.5) < 1e-9
        worked = mx.compute_eer(mx.ScoreSet([0.9, 0.8, 0.2], [0.7, 0.15, 0.1])).eer
        assert worked == 1.0 / 3.0
        report(
            "C4 EER oracle equivalence",
            True,
            f"200 random sets max dev {worst:.1e} (<1e-9); separated=0, identical=0.5, worked=1/3",
        )


class TestCriterion5AttackSuite:
    def test_attack_properties(self):
        rng = np.random.default_rng(5001)
        clip = AudioClip(0.3 * rng.standard_normal(32000), 16000, "acc5", "bonafide")

        # SNR targeting within 1e-6 dB
        worst_snr = 0.0
        for target in (-10.0, -3.0, 0.0, 12.5, 35.0, 60.0):
            noise = rng.standard_normal(len(clip))
            out = atk.add_noise_at_snr(clip, noise, target)
            measured = measure_snr(clip, out.samples - clip.samples)
            worst_snr = max(worst_snr, abs(measured - target))
        assert worst_snr < 1e-6

        # noise color slopes
        def slope(kind, seed):
            x = atk.gen_noise(kind, 1 << 16, np.random.Generator(np.random.Philox(seed)))
            spectrum = np.abs(np.fft.rfft(x)) ** 2
            freqs = np.fft.rfftfreq(x.size, 1 / 16000)
            mask = (freqs >= 100) & (freqs <= 4000)
            return np.polyfit(np.log10(freqs[mask]), 10 * np.log10(spectrum[mask]), 1)[0]

        pink = float(np.mean([slope("pink", s) for s in range(3)]))
        brown = float(np.mean([slope("brown", s) for s in range(3)]))
        assert abs(pink + 10.0) < 2.0
        assert abs(brown + 20.0) < 3.0

        # highpass stopband
        t = np.arange(32000) / 16000
        tone = AudioClip(0.5 * np.sin(2 * np.pi * 100 * t), 16000, "tone", "bonafide")
        filtered = atk.fir_filter(tone, "highpass", 4000.0, taps=101)
        atten = 20 * np.log10(
            np.sqrt(np.mean(tone.samples[500:-500] ** 2))
            / np.sqrt(np.mean(filtered.samples[500:-500] ** 2))
        )
        assert atten >= 30.0

        # order sensitivity of mixed chains
        nf = atk.apply_attack(clip, atk.preset("noise_first", 55))
        ff = atk.apply_attack(clip, atk.preset("filter_first", 55))
        l2 = float(np.linalg.norm(nf.samples - ff.samples))
        assert l2 > 1e-6

        # bitwise determinism for every preset
        for name in atk.PRESET_NAMES:
            spec = atk.preset(name, seed=77)
            a = atk.apply_attack(clip, spec)
            b = atk.apply_attack(clip, spec)
            assert np.array_equal(a.samples, b.samples), name

        # mixed-attack grammar closure: series presets equal manual chaining
        for name, leaves in (
            ("rawboost4", ["T1", "T2", "T3"]),
            ("rawboost5", ["T1", "T2"]),
            ("rawboost6", ["T1", "T3"]),
            ("rawboost7", ["T2", "T3"]),
        ):
            spec = atk.preset(name, seed=88)
            out = atk.apply_attack(clip, spec)
            current = clip
            for i, leaf in enumerate(leaves):
                child_seed = atk.derive_seed(88, i, clip.clip_id)
                current = atk.apply_attack(current, atk.preset(leaf, seed=child_seed))
            assert np.array_equal(out.samples, current.samples), name
        par = atk.apply_attack(clip, atk.preset("rawboost8", seed=88))
        branches = [
            atk.apply_attack(clip, atk.preset(leaf, seed=atk.derive_seed(88, i, clip.clip_id))).samples
            for i, leaf in enumerate(["T1", "T2"])
        ]
        assert np.array_equal(par.samples, (branches[0] + branches[1]) / 2.0)

        report(
            "C5 attack suite",
            True,
            f"SNR dev {worst_snr:.1e} dB; slopes {pink:.1f}/{brown:.1f} dB/decade; "
            f"stopband {atten:.0f} dB; order L2 {l2:.2f}; presets bitwise deterministic; "
            "rawboost4-8 equal manual chaining",
        )


class TestCriterion6FrozenContract:
    def test_frozen_tensors_survive_training(self, tmp_path):
        synth = cp.SynthConfig(n_train=16, n_dev=8, n_eval=4, clip_seconds=1.0)
        manifest = cp.build_corpus(synth, tmp_path, seed=61)
        hyper = ex.TrainHyper(max_epochs=3)
        base, _ = ex.train_shared(
            ENC, manifest.split("train"), manifest.split("dev"), tmp_path, hyper, seed=62
        )
        base_checksum = ex.encoder_checksum(base)
        ase, _ = ex.train_ase(
            base, "T0", manifest.split("train"), manifest.split("dev"), tmp_path,
            ex.LoraConfig(2, 16.0, 0.1), hyper=hyper, seed=63,
        )
        assert ex.encoder_checksum(ase) == base_checksum
        injected = ex.lora_inject(base, ex.LoraConfig(2, 16.0, 0.1), seed=999)
        assert ase.frozen == injected.frozen  # the same encoder tensors stay frozen
        assert ex.frozen_checksum(ase) == ex.frozen_checksum(injected)

        bank = [base, ase]
        system = fu.FusionSystem(bank, k=1, seed=64)
        before = [ex.full_checksum(e) for e in bank]
        leaves = [ex.constant_leaves(e) for e in bank]

        def features(entries):
            zs, frames = fu.expert_features(bank, leaves,
                                            [cp.resolve_clip(e, tmp_path) for e in entries])
            return [[z.value[seg] for z in zs] for seg in frames], [e.label for e in entries]

        train_set, dev_set = features(manifest.split("train")), features(manifest.split("dev"))
        fu.train_fusion(system, train_set, dev_set, ex.TrainHyper(max_epochs=2), seed=65)
        after = [ex.full_checksum(e) for e in bank]
        assert after == before
        report(
            "C6 frozen contract",
            True,
            "expert tensors checksum-identical through adapter and fusion training",
        )
