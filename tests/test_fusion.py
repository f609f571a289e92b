import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from amulet import corpus as cp
from amulet import experts as ex
from amulet import fusion as fu
from amulet import tensor as tc

from oracles import (
    finite_difference_grads,
    fusion_clip_loss,
    mean_of_clip_losses,
    relative_error,
)

ENC = ex.EncoderConfig(frame_len=160, hop=160, hidden_dims=(8, 8))
SYNTH = cp.SynthConfig(n_train=8, n_dev=4, n_eval=4, clip_seconds=1.0)


def make_bank(n_specialists=5, seed=0):
    base = ex.new_expert(ENC, seed)
    bank = [base]
    for i in range(n_specialists):
        ase = ex.lora_inject(base, rank=2, alpha=8.0, dropout_p=0.0, seed=seed + 10 + i)
        rng = np.random.default_rng(seed + 100 + i)
        for layer in range(ase.n_layers):
            ase.tensors[f"lora.b{layer}"] = rng.normal(0, 0.2, ase.tensors[f"lora.b{layer}"].shape)
        bank.append(ase)
    return bank


def synth_entries(n=8, condition="T0"):
    entries = []
    for i in range(n):
        for label in ("bonafide", "spoof"):
            entries.append(
                cp.ManifestEntry(
                    f"{condition}_{label}_{i}", label, "train", condition,
                    cp.stable_seed(condition, label, i), synth=asdict(SYNTH),
                )
            )
    return entries


def feature_set(system, entries):
    """(features, labels) of synthesized entries, as `train_fusion` takes them."""
    return ([fu.expert_features(system.experts, cp.resolve_clip(e, ".")) for e in entries],
            [e.label for e in entries])


def score(system, clip) -> float:
    _, logits = fu.fused_logits(system, fu.expert_features(system.experts, clip))
    return float(logits[0, 0] - logits[0, 1])


class TestGateScores:
    def test_uniform_scores_tie_break_lowest(self):
        z0 = np.random.default_rng(0).standard_normal((6, 8))
        decision = fu.gate_scores(z0, np.zeros((8, 5)), np.zeros((1, 5)), k=3)
        assert np.allclose(decision.scores, 0.2)
        assert decision.selected == (0, 1, 2)

    def test_topk_by_definition(self):
        scores = np.array([0.10, 0.50, 0.20, 0.15, 0.05])
        logits = np.log(scores)
        z0 = np.zeros((2, 3))
        gate_w = np.zeros((3, 5))
        decision = fu.gate_scores(z0, gate_w, logits.reshape(1, -1), k=3)
        assert np.allclose(decision.scores, scores, atol=1e-12)
        assert decision.selected == (1, 2, 3)

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z0 = rng.standard_normal((4, 8))
            decision = fu.gate_scores(z0, rng.standard_normal((8, 5)), rng.standard_normal((1, 5)), 2)
            assert abs(decision.scores.sum() - 1.0) < 1e-9

    def test_k_exceeding_specialists_rejected(self):
        with pytest.raises(fu.FusionError, match="exceeds"):
            fu.gate_scores(np.zeros((2, 8)), np.zeros((8, 3)), np.zeros((1, 3)), k=4)

    def test_selection_invariant_to_preactivation_shift(self):
        rng = np.random.default_rng(2)
        z0 = rng.standard_normal((5, 8))
        gate_w = rng.standard_normal((8, 5))
        bias = rng.standard_normal((1, 5))
        base = fu.gate_scores(z0, gate_w, bias, k=3)
        shifted = fu.gate_scores(z0, gate_w, bias + 123.0, k=3)
        assert shifted.selected == base.selected
        assert np.max(np.abs(shifted.scores - base.scores)) < 1e-12

    def test_topk_nesting(self):
        rng = np.random.default_rng(3)
        z0 = rng.standard_normal((5, 8))
        gate_w = rng.standard_normal((8, 5))
        bias = rng.standard_normal((1, 5))
        previous = set()
        for k in range(1, 6):
            selected = set(fu.gate_scores(z0, gate_w, bias, k).selected)
            assert previous <= selected
            previous = selected


class TestFuse:
    def test_zero_weights_reduce_to_shared(self):
        rng = np.random.default_rng(4)
        z0 = rng.standard_normal((6, 8))
        z_list = [rng.standard_normal((6, 8)) for _ in range(3)]
        decision = fu.GateDecision(np.zeros(3), (0, 1))
        gain, bias = np.ones((1, 8)), np.zeros((1, 8))
        out = fu.fuse(z_list, z0, decision, gain, bias)
        expected, _, _ = tc.layer_norm_values(z0, gain, bias, fu.LN_EPS)
        assert np.array_equal(out, expected)

    def test_degenerate_single_expert(self):
        rng = np.random.default_rng(5)
        z0 = rng.standard_normal((4, 8))
        z1 = rng.standard_normal((4, 8))
        decision = fu.GateDecision(np.array([1.0]), (0,))
        gain, bias = np.ones((1, 8)), np.zeros((1, 8))
        out = fu.fuse([z1], z0, decision, gain, bias)
        expected, _, _ = tc.layer_norm_values(z1 + z0, gain, bias, fu.LN_EPS)
        assert np.array_equal(out, expected)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            t, d, n = 5, 8, 4
            z0 = rng.standard_normal((t, d))
            z_list = [rng.standard_normal((t, d)) for _ in range(n)]
            scores = rng.dirichlet(np.ones(n))
            selected = tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))
            gain = rng.uniform(0.5, 1.5, (1, d))
            bias = rng.standard_normal((1, d)) * 0.1
            out = fu.fuse(z_list, z0, fu.GateDecision(scores, selected), gain, bias)

            # naive per-element recomputation
            acc = np.zeros((t, d))
            for i in selected:
                for r in range(t):
                    for c in range(d):
                        acc[r, c] += scores[i] * z_list[i][r, c]
            acc += z0
            expected = np.empty_like(acc)
            for r in range(t):
                row = acc[r]
                mu = row.mean()
                var = ((row - mu) ** 2).mean()
                expected[r] = (row - mu) / np.sqrt(var + fu.LN_EPS) * gain[0] + bias[0]
            assert np.max(np.abs(out - expected)) < 1e-12

    def test_full_selection_uniform_gate_equals_plain_sum(self):
        rng = np.random.default_rng(7)
        n = 4
        z0 = rng.standard_normal((5, 8))
        z_list = [rng.standard_normal((5, 8)) for _ in range(n)]
        uniform = fu.GateDecision(np.full(n, 1.0 / n), tuple(range(n)))
        gain, bias = np.ones((1, 8)), np.zeros((1, 8))
        out = fu.fuse(z_list, z0, uniform, gain, bias)
        total = np.zeros((5, 8))
        for z in z_list:
            total = total + z / n
        expected, _, _ = tc.layer_norm_values(total + z0, gain, bias, fu.LN_EPS)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(tc.ShapeError):
            fu.fuse(
                [np.zeros((3, 8))], np.zeros((4, 8)),
                fu.GateDecision(np.ones(1), (0,)), np.ones((1, 8)), np.zeros((1, 8)),
            )


class TestHeadForward:
    def _params(self, d=8, seed=8):
        return fu.init_fusion_params(d, 4, seed)

    def test_single_step_pooling_is_identity(self):
        params = self._params()
        rng = np.random.default_rng(9)
        z = rng.standard_normal((1, 8))
        params["pool.a"] = rng.standard_normal((8, 1))
        logits = fu.head_forward(z, params)
        pooled = z  # T = 1: softmax over one step is 1
        proj = pooled @ params["pool.proj"]
        hidden = np.tanh(proj @ params["cls.w1"] + params["cls.b1"])
        expected = hidden @ params["cls.w2"] + params["cls.b2"]
        assert np.allclose(logits, expected, atol=1e-12)

    def test_attention_weights_sum_to_one(self):
        params = self._params()
        rng = np.random.default_rng(10)
        params["pool.a"] = rng.standard_normal((8, 1))
        z = rng.standard_normal((7, 8))
        att = tc.softmax_values((z @ params["pool.a"]).T)
        assert abs(att.sum() - 1.0) < 1e-12

    def test_zero_input_zero_biases_gives_zero_logits(self):
        params = self._params()
        logits = fu.head_forward(np.zeros((5, 8)), params)
        assert np.array_equal(logits, np.zeros((1, 2)))


class TestEnsemble:
    def test_identical_logits(self):
        row = np.array([1.5, -0.5])
        assert np.array_equal(fu.ensemble_logits([row, row, row]), row)

    def test_symmetry(self):
        out = fu.ensemble_logits([np.array([2.0, 0.0]), np.array([0.0, 2.0])])
        assert np.array_equal(out, np.array([1.0, 1.0]))

    def test_matches_naive_accumulation(self):
        rng = np.random.default_rng(11)
        rows = [rng.standard_normal(2) for _ in range(6)]
        out = fu.ensemble_logits(rows)
        acc = np.zeros(2)
        for row in rows:
            acc = acc + row
        assert np.array_equal(out, acc / 6)

    def test_empty_rejected(self):
        with pytest.raises(fu.FusionError):
            fu.ensemble_logits([])


class TestPredict:
    def _system(self, k=3):
        return fu.FusionSystem(make_bank(), k=k, seed=13)

    def _clip(self, seed=0):
        return cp.synth_clip("bonafide", seed, SYNTH)

    def test_deterministic(self):
        system = self._system()
        clip = self._clip(3)
        assert score(system, clip) == score(system, clip)

    def test_batch_parallel_equals_sequential(self):
        from concurrent.futures import ThreadPoolExecutor

        system = self._system()
        clips = [self._clip(s) for s in range(8)]
        sequential = [score(system, c) for c in clips]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda c: score(system, c), clips))
        assert sequential == threaded


class TestTrainFusion:
    def test_frozen_bank_and_learning(self):
        system = fu.FusionSystem(make_bank(), k=3, seed=17)
        before = [ex.full_checksum(e) for e in system.experts]
        subset = feature_set(system, synth_entries(6, "T0"))
        dev = feature_set(system, synth_entries(4, "dev0"))
        hyper = ex.TrainHyper(max_epochs=3)
        history = fu.train_fusion(system, subset, dev, hyper, seed=18)
        assert len(history) >= 1
        assert [ex.full_checksum(e) for e in system.experts] == before
        assert history[1]["loss"] < history[0]["loss"]

    def test_fusion_loss_gradients_match_finite_differences(self):
        system = fu.FusionSystem(make_bank(n_specialists=3), k=2, seed=19)
        rng = np.random.default_rng(20)
        system.params["gate.w"] = rng.normal(0, 0.2, system.params["gate.w"].shape)
        system.params["pool.a"] = rng.normal(0, 0.4, system.params["pool.a"].shape)
        z_all = [rng.standard_normal((4, 8)) for _ in range(4)]

        def loss_value(params):
            probe = fu.FusionSystem(system.experts, system.k, dict(params), system.renormalize)
            leaves = {name: tc.Node(v, requires_grad=True) for name, v in params.items()}
            return float(fu._fusion_loss_nodes(probe, leaves, [z_all], [1]).value[0, 0])

        leaves = {name: tc.Node(v, requires_grad=True) for name, v in system.params.items()}
        loss = fu._fusion_loss_nodes(system, leaves, [z_all], [1])
        tc.backward(loss)
        fd = finite_difference_grads(loss_value, {k: v.copy() for k, v in system.params.items()})
        for name in system.params:
            assert relative_error(leaves[name].grad, fd[name]) < 1e-4, name

    def test_renormalized_variant_gradients(self):
        system = fu.FusionSystem(make_bank(n_specialists=3), k=2, renormalize=True, seed=21)
        rng = np.random.default_rng(22)
        system.params["gate.w"] = rng.normal(0, 0.2, system.params["gate.w"].shape)
        z_all = [rng.standard_normal((3, 8)) for _ in range(4)]
        leaves = {name: tc.Node(v, requires_grad=True) for name, v in system.params.items()}
        loss = fu._fusion_loss_nodes(system, leaves, [z_all], [0])
        tc.backward(loss)

        def loss_value(params):
            probe = fu.FusionSystem(system.experts, system.k, dict(params), True)
            l2 = {name: tc.Node(v, requires_grad=True) for name, v in params.items()}
            return float(fu._fusion_loss_nodes(probe, l2, [z_all], [0]).value[0, 0])

        fd = finite_difference_grads(loss_value, {k: v.copy() for k, v in system.params.items()})
        for name in ("gate.w", "ln.g", "pool.a", "cls.w1"):
            assert relative_error(leaves[name].grad, fd[name]) < 1e-4, name

    @pytest.mark.parametrize("renormalize", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_batched_loss_equals_per_clip_graphs(self, k, renormalize):
        system = fu.FusionSystem(make_bank(), k=k, renormalize=renormalize, seed=28)
        rng = np.random.default_rng(29 + k)
        for name in ("gate.w", "gate.b", "pool.a", "cls.w2"):
            system.params[name] = rng.normal(0, 0.5, system.params[name].shape)
        # clips of different lengths; the third clip's gate scores tie
        z_alls = [[rng.standard_normal((t, 8)) for _ in range(6)] for t in (7, 12, 3, 9)]
        z_alls[2][0] = np.zeros((3, 8))
        labels = [0, 1, 1, 0]

        def leaves():
            return {name: tc.Node(v, requires_grad=True) for name, v in system.params.items()}

        batched = leaves()
        loss = fu._fusion_loss_nodes(system, batched, z_alls, labels)
        tc.backward(loss)
        per_clip = leaves()
        ref = mean_of_clip_losses([fusion_clip_loss(system, per_clip, z_all, label)
                                   for z_all, label in zip(z_alls, labels)])
        tc.backward(ref)
        assert np.array_equal(loss.value, ref.value)
        for name, node in per_clip.items():
            # one renormalized weight is 1 whatever the scores: no gate gradient
            assert np.any(node.grad != 0) or (k == 1 and renormalize and "gate" in name), name
            assert np.array_equal(batched[name].grad, node.grad), name

    def test_expert_order_permutation_with_full_selection(self):
        bank = make_bank(n_specialists=3, seed=23)
        hyper = ex.TrainHyper(max_epochs=2)

        results = []
        for order in ([0, 1, 2], [2, 0, 1]):
            experts = [bank[0]] + [bank[1 + i] for i in order]
            system = fu.FusionSystem(experts, k=3, seed=24)
            subset = feature_set(system, synth_entries(5, "T0"))
            dev = feature_set(system, synth_entries(3, "dev1"))
            history = fu.train_fusion(system, subset, dev, hyper, seed=25)
            results.append(history[-1]["dev_eer"])
        assert abs(results[0] - results[1]) < 1e-9

    def test_bank_mutation_is_hard_failure(self):
        system = fu.FusionSystem(make_bank(n_specialists=2), k=1, seed=26)
        system.experts[1].tensors["lora.b0"][0, 0] += 1.0
        subset = feature_set(system, synth_entries(3, "T0"))
        dev = feature_set(system, synth_entries(2, "dev2"))
        with pytest.raises(ex.FrozenContractError):
            fu.train_fusion(system, subset, dev, ex.TrainHyper(max_epochs=1), seed=27)


class TestFusionCheckpoint:
    def test_round_trip_with_bindings(self, tmp_path, monkeypatch):
        base = ex.new_expert(ENC, 30)
        ase = ex.lora_inject(base, 2, 8.0, 0.0, seed=31)
        rng = np.random.default_rng(32)
        for layer in range(ase.n_layers):
            ase.tensors[f"lora.b{layer}"] = rng.normal(0, 0.1, ase.tensors[f"lora.b{layer}"].shape)
        base_ref = ex.save_expert_checkpoint(base, tmp_path / "e0.json")
        ase_ref = ex.save_adapter_checkpoint(ase, tmp_path / "ase.json")
        system = fu.FusionSystem([base, ase], k=1, seed=33)
        fu.save_fusion_checkpoint(
            system, tmp_path / "fusion.json",
            [("e0.json", base_ref), ("ase.json", ase_ref)],
        )
        read = []
        original = Path.read_text

        def counting(path, *args, **kwargs):
            read.append(path.name)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        loaded = fu.load_fusion_checkpoint(tmp_path / "fusion.json", tmp_path)
        monkeypatch.undo()
        assert sorted(read) == ["ase.json", "e0.json", "fusion.json"]  # each file once
        clip = cp.synth_clip("spoof", 9, SYNTH)
        assert score(loaded, clip) == score(system, clip)

    def test_every_format_is_canonical_json(self, tmp_path):
        base = ex.new_expert(ENC, 37)
        ase = ex.lora_inject(base, 2, 8.0, 0.1, seed=38)
        written = {
            "e0.json": ex.save_expert_checkpoint(base, tmp_path / "e0.json"),
            "ase.json": ex.save_adapter_checkpoint(ase, tmp_path / "ase.json"),
        }
        written["fusion.json"] = fu.save_fusion_checkpoint(
            fu.FusionSystem([base, ase], k=1, renormalize=True, seed=39),
            tmp_path / "fusion.json", list(written.items()),
        )
        for name, checksum in written.items():
            data = (tmp_path / name).read_bytes()
            payload = json.loads(data)
            canonical = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
            assert data == canonical.encode(), name
            body = {key: value for key, value in payload.items() if key != "checksum"}
            text = json.dumps(body, sort_keys=True, separators=(",", ":"))
            assert payload["checksum"] == checksum == hashlib.sha256(text.encode()).hexdigest()

    def test_binding_mismatch_detected(self, tmp_path):
        base = ex.new_expert(ENC, 34)
        ase = ex.lora_inject(base, 2, 8.0, 0.0, seed=35)
        base_ref = ex.save_expert_checkpoint(base, tmp_path / "e0.json")
        ase_ref = ex.save_adapter_checkpoint(ase, tmp_path / "ase.json")
        system = fu.FusionSystem([base, ase], k=1, seed=36)
        fu.save_fusion_checkpoint(
            system, tmp_path / "fusion.json",
            [("e0.json", base_ref), ("ase.json", ase_ref)],
        )
        ex.save_expert_checkpoint(ex.new_expert(ENC, 999), tmp_path / "e0.json")
        with pytest.raises(ex.CheckpointError):
            fu.load_fusion_checkpoint(tmp_path / "fusion.json", tmp_path)
