import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from amulet import corpus as cp
from amulet import experts as ex
from amulet import fusion as fu
from amulet import tensor as tc
from amulet.audio import float_to_pcm16, write_wav

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
        ase = ex.lora_inject(base, ex.LoraConfig(2, 8.0, 0.0), seed=seed + 10 + i)
        rng = np.random.default_rng(seed + 100 + i)
        for layer in range(ase.n_layers):
            ase.tensors[f"lora.b{layer}"] = rng.normal(0, 0.2, ase.tensors[f"lora.b{layer}"].shape)
        bank.append(ase)
    return bank


def synth_entries(root, n=8, condition="T0"):
    """Entries of `n` synthesized clips per class, their WAVs written in `root`."""
    entries = []
    for i in range(n):
        for label in ("bonafide", "spoof"):
            clip_id = f"{condition}_{label}_{i}"
            seed = cp.stable_seed(condition, label, i)
            write_wav(root / f"{clip_id}.wav", cp.synth_clip(label, seed, SYNTH))
            entries.append(cp.ManifestEntry(clip_id, label, "train", condition, seed,
                                            path=f"{clip_id}.wav"))
    return entries


def bank_leaves(system):
    return [ex.constant_leaves(e) for e in system.experts]


def feature_set(system, entries, root):
    """(features, labels) of the entries' clips under `root`, as
    `train_fusion` takes them."""
    z_alls = []
    for entry in entries:
        zs, _ = fu.expert_features(system.experts, bank_leaves(system),
                                   [cp.resolve_pcm(entry, root)])
        z_alls.append([z.value for z in zs])
    return z_alls, [e.label for e in entries]


def score(system, clip) -> float:
    zs, frames = fu.expert_features(system.experts, bank_leaves(system),
                                    [float_to_pcm16(clip.samples)])
    logits = fu.fused_logits(system, ex.constant_leaves(system), zs, frames).value
    return float(logits[0, 0] - logits[0, 1])


def fusion_loss(system, leaves, z_alls, labels):
    """The mean cross-entropy that `train_fusion` minimizes."""
    return tc.cross_entropy(fu.fused_logits(system, leaves, *fu.stack_features(z_alls)), labels)


def probe(system, z_alls, monkeypatch, scores=None, fused=None):
    """Run `fused_logits` on constant leaves over clips with features
    `z_alls` and return each step's output: the gate's softmax "scores", the
    top-k "mixed" features, the layer-normed "fused" features, the
    attention-"pooled" rows and the "logits". Given `scores` or `fused`
    stand in for that step's output."""
    seen = {}

    def step(name, key, replacement):
        real = getattr(tc, name)

        def run(*args, **kwargs):
            seen[key] = real(*args, **kwargs) if replacement is None else tc.constant(replacement)
            return seen[key]

        monkeypatch.setattr(tc, name, run)

    step("softmax_rows", "scores", scores)
    step("topk_mix", "mixed", None)
    step("layer_norm", "fused", fused)
    step("attention_pool", "pooled", None)
    seen["logits"] = fu.fused_logits(system, ex.constant_leaves(system),
                                     *fu.stack_features(z_alls))
    monkeypatch.undo()
    return {key: node.value for key, node in seen.items()}


def route(system, z0s, monkeypatch):
    """The gate's scores and, per clip, its selected specialists, for clips
    whose shared features are `z0s`: specialist i's features are ones in
    column i, so a clip's mixed rows are nonzero where it selected."""
    tracks = [np.eye(1, system.dim, i) for i in range(system.n_specialists)]
    z_alls = [[z0] + [np.repeat(t, z0.shape[0], axis=0) for t in tracks] for z0 in z0s]
    out = probe(system, z_alls, monkeypatch)
    starts = np.cumsum([0] + [z0.shape[0] for z0 in z0s[:-1]])
    selected = [tuple(int(i) for i in np.flatnonzero(out["mixed"][r, : system.n_specialists]))
                for r in starts]
    return out["scores"], selected


def gated(gate_w=None, gate_b=None, k=3, n=5, renormalize=False):
    system = fu.FusionSystem(make_bank(n_specialists=n), k=k, renormalize=renormalize, seed=12)
    if gate_w is not None:
        system.params["gate.w"] = gate_w
    if gate_b is not None:
        system.params["gate.b"] = gate_b
    return system


class TestGateScores:
    def test_uniform_scores_tie_break_lowest(self, monkeypatch):
        z0s = [np.random.default_rng(0).standard_normal((6, 8))]
        scores, selected = route(gated(), z0s, monkeypatch)  # zero gate: every score ties
        assert np.allclose(scores, 0.2)
        assert selected == [(0, 1, 2)]

    def test_topk_by_definition(self, monkeypatch):
        want = np.array([0.10, 0.50, 0.20, 0.15, 0.05])
        system = gated(np.zeros((8, 5)), np.log(want).reshape(1, -1))
        scores, selected = route(system, [np.zeros((2, 8))], monkeypatch)
        assert np.allclose(scores, want, atol=1e-12)
        assert selected == [(1, 2, 3)]

    def test_scores_sum_to_one(self, monkeypatch):
        rng = np.random.default_rng(1)
        for _ in range(5):
            system = gated(rng.standard_normal((8, 5)), rng.standard_normal((1, 5)), k=2)
            z0s = [rng.standard_normal((t, 8)) for t in (4, 1, 7, 3)]
            scores, selected = route(system, z0s, monkeypatch)
            assert scores.shape == (4, 5)
            assert np.all(np.abs(scores.sum(axis=1) - 1.0) < 1e-9)
            assert all(len(chosen) == 2 for chosen in selected)

    def test_k_exceeding_specialists_rejected(self):
        with pytest.raises(fu.FusionError, match="outside"):
            fu.FusionSystem(make_bank(n_specialists=3), k=4)
        with pytest.raises(tc.ShapeError):
            tc.topk_mix(tc.constant(np.full((1, 3), 1 / 3)), [np.zeros((2, 8))] * 3, 4, False)

    def test_selection_invariant_to_preactivation_shift(self, monkeypatch):
        rng = np.random.default_rng(2)
        z0s = [rng.standard_normal((5, 8)), rng.standard_normal((3, 8))]
        gate_w = rng.standard_normal((8, 5))
        bias = rng.standard_normal((1, 5))
        base = route(gated(gate_w, bias), z0s, monkeypatch)
        shifted = route(gated(gate_w, bias + 123.0), z0s, monkeypatch)
        assert shifted[1] == base[1]
        assert np.max(np.abs(shifted[0] - base[0])) < 1e-12

    def test_topk_nesting(self, monkeypatch):
        rng = np.random.default_rng(3)
        z0s = [rng.standard_normal((5, 8)), rng.standard_normal((2, 8))]
        gate_w = rng.standard_normal((8, 5))
        bias = rng.standard_normal((1, 5))
        previous = [set(), set()]
        for k in range(1, 6):
            _, selected = route(gated(gate_w, bias, k=k), z0s, monkeypatch)
            for clip, chosen in enumerate(selected):
                assert len(chosen) == k and previous[clip] <= set(chosen)
                previous[clip] = set(chosen)


def layer_norm(x, gain, bias):
    out, _, _ = tc.layer_norm_values(x, gain, bias, fu.LN_EPS)
    return out


class TestFuse:
    """The gate-weighted mix plus shared features, layer-normed, inside
    `fused_logits`, with given gate scores."""

    def test_zero_weights_reduce_to_shared(self, monkeypatch):
        rng = np.random.default_rng(4)
        z_all = [rng.standard_normal((6, 8)) for _ in range(4)]
        out = probe(gated(k=2, n=3), [z_all], monkeypatch, scores=np.zeros((1, 3)))
        assert np.array_equal(out["fused"], layer_norm(z_all[0], np.ones((1, 8)), np.zeros((1, 8))))

    def test_degenerate_single_expert(self, monkeypatch):
        rng = np.random.default_rng(5)
        z0, z1 = rng.standard_normal((4, 8)), rng.standard_normal((4, 8))
        out = probe(gated(k=1, n=1), [[z0, z1]], monkeypatch, scores=np.ones((1, 1)))
        assert np.array_equal(out["fused"], layer_norm(z1 + z0, np.ones((1, 8)), np.zeros((1, 8))))

    def test_matches_naive_loop_oracle(self, monkeypatch):
        rng = np.random.default_rng(6)
        for renormalize in [False, True] * 5:
            t, d, n = 5, 8, 4
            system = gated(k=2, n=n, renormalize=renormalize)
            system.params["ln.g"] = rng.uniform(0.5, 1.5, (1, d))
            system.params["ln.b"] = rng.standard_normal((1, d)) * 0.1
            gain, bias = system.params["ln.g"], system.params["ln.b"]
            z_all = [rng.standard_normal((t, d)) for _ in range(n + 1)]
            scores = rng.dirichlet(np.ones(n))
            out = probe(system, [z_all], monkeypatch, scores=scores.reshape(1, -1))

            # naive per-element recomputation over the two largest scores
            selected = sorted(np.argsort(-scores)[:2])
            weights = scores / sum(scores[i] for i in selected) if renormalize else scores
            acc = np.zeros((t, d))
            for i in selected:
                for r in range(t):
                    for c in range(d):
                        acc[r, c] += weights[i] * z_all[1 + i][r, c]
            acc += z_all[0]
            expected = np.empty_like(acc)
            for r in range(t):
                row = acc[r]
                mu = row.mean()
                var = ((row - mu) ** 2).mean()
                expected[r] = (row - mu) / np.sqrt(var + fu.LN_EPS) * gain[0] + bias[0]
            assert np.max(np.abs(out["fused"] - expected)) < 1e-12

    def test_full_selection_uniform_gate_equals_plain_sum(self, monkeypatch):
        rng = np.random.default_rng(7)
        n = 4
        z_all = [rng.standard_normal((5, 8)) for _ in range(n + 1)]
        # the zero-initialized gate scores every specialist 1/n
        out = probe(gated(k=n, n=n), [z_all], monkeypatch)
        total = np.zeros((5, 8))
        for z in z_all[1:]:
            total = total + z / n
        expected = layer_norm(total + z_all[0], np.ones((1, 8)), np.zeros((1, 8)))
        assert np.max(np.abs(out["fused"] - expected)) < 1e-12

    def test_shape_mismatch_rejected(self, monkeypatch):
        with pytest.raises(tc.ShapeError):
            probe(gated(k=1, n=1), [[np.zeros((4, 8)), np.zeros((3, 8))]], monkeypatch)


class TestHeadForward:
    """Attention pooling, projection and classifier inside `fused_logits`,
    on given fused features."""

    def _system(self, seed=8):
        system = gated(n=4, k=2)
        system.params = fu.init_fusion_params(8, 4, seed)
        return system

    def test_single_step_pooling_is_identity(self, monkeypatch):
        system = self._system()
        params = system.params
        rng = np.random.default_rng(9)
        z = rng.standard_normal((1, 8))
        params["pool.a"] = rng.standard_normal((8, 1))
        z_all = [np.zeros((1, 8))] * 5
        logits = probe(system, [z_all], monkeypatch, fused=z)["logits"]
        pooled = z  # T = 1: softmax over one step is 1
        proj = pooled @ params["pool.proj"]
        hidden = np.tanh(proj @ params["cls.w1"] + params["cls.b1"])
        expected = hidden @ params["cls.w2"] + params["cls.b2"]
        assert np.allclose(logits, expected, atol=1e-12)

    def test_attention_weights_sum_to_one(self, monkeypatch):
        system = self._system()
        rng = np.random.default_rng(10)
        system.params["pool.a"] = rng.standard_normal((8, 1))
        # each clip's frames are one row repeated: the pooled row is that
        # row times the sum of the clip's attention weights
        rows = rng.standard_normal((3, 8))
        lengths = (7, 1, 4)
        fused = np.concatenate([np.repeat(rows[c : c + 1], t, axis=0)
                                for c, t in enumerate(lengths)])
        z_alls = [[np.zeros((t, 8))] * 5 for t in lengths]
        pooled = probe(system, z_alls, monkeypatch, fused=fused)["pooled"]
        assert np.max(np.abs(pooled - rows)) < 1e-12

    def test_zero_input_zero_biases_gives_zero_logits(self, monkeypatch):
        system = self._system()
        z_alls = [[np.ones((5, 8))] * 5, [np.ones((2, 8))] * 5]
        logits = probe(system, z_alls, monkeypatch, fused=np.zeros((7, 8)))["logits"]
        assert np.array_equal(logits, np.zeros((2, 2)))


class TestEnsemble:
    def test_identical_logits(self):
        logits = np.array([[1.5, -0.5], [0.25, 2.0]])
        assert np.array_equal(fu.ensemble_logits([logits, logits, logits]), logits)

    def test_symmetry(self):
        out = fu.ensemble_logits([np.array([[2.0, 0.0]]), np.array([[0.0, 2.0]])])
        assert np.array_equal(out, np.array([[1.0, 1.0]]))

    def test_matches_naive_accumulation(self):
        rng = np.random.default_rng(11)
        experts = [rng.standard_normal((3, 2)) for _ in range(6)]
        out = fu.ensemble_logits(experts)
        for r in range(3):  # each clip's row, added expert by expert in bank order
            acc = np.zeros(2)
            for logits in experts:
                acc = acc + logits[r]
            assert np.array_equal(out[r], acc / 6)

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
    def test_frozen_bank_and_learning(self, tmp_path):
        system = fu.FusionSystem(make_bank(), k=3, seed=17)
        before = [ex.full_checksum(e) for e in system.experts]
        subset = feature_set(system, synth_entries(tmp_path, 6, "T0"), tmp_path)
        dev = feature_set(system, synth_entries(tmp_path, 4, "dev0"), tmp_path)
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
            other = fu.FusionSystem(system.experts, system.k, dict(params), system.renormalize)
            leaves = {name: tc.Node(v, requires_grad=True) for name, v in params.items()}
            return float(fusion_loss(other, leaves, [z_all], [1]).value[0, 0])

        leaves = {name: tc.Node(v, requires_grad=True) for name, v in system.params.items()}
        loss = fusion_loss(system, leaves, [z_all], [1])
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
        loss = fusion_loss(system, leaves, [z_all], [0])
        tc.backward(loss)

        def loss_value(params):
            other = fu.FusionSystem(system.experts, system.k, dict(params), True)
            l2 = {name: tc.Node(v, requires_grad=True) for name, v in params.items()}
            return float(fusion_loss(other, l2, [z_all], [0]).value[0, 0])

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
        system.params["gate.b"] = np.zeros((1, 5))
        z_alls = [[rng.standard_normal((t, 8)) for _ in range(6)] for t in (7, 12, 3, 9)]
        z_alls[2][0] = np.zeros((3, 8))
        labels = [0, 1, 1, 0]

        def leaves():
            return {name: tc.Node(v, requires_grad=True) for name, v in system.params.items()}

        batched = leaves()
        loss = fusion_loss(system, batched, z_alls, labels)
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

    def test_expert_order_permutation_with_full_selection(self, tmp_path):
        bank = make_bank(n_specialists=3, seed=23)
        hyper = ex.TrainHyper(max_epochs=2)

        results = []
        for order in ([0, 1, 2], [2, 0, 1]):
            experts = [bank[0]] + [bank[1 + i] for i in order]
            system = fu.FusionSystem(experts, k=3, seed=24)
            subset = feature_set(system, synth_entries(tmp_path, 5, "T0"), tmp_path)
            dev = feature_set(system, synth_entries(tmp_path, 3, "dev1"), tmp_path)
            history = fu.train_fusion(system, subset, dev, hyper, seed=25)
            results.append(history[-1]["dev_eer"])
        assert abs(results[0] - results[1]) < 1e-9

    def test_bank_mutation_is_hard_failure(self, tmp_path):
        system = fu.FusionSystem(make_bank(n_specialists=2), k=1, seed=26)
        system.experts[1].tensors["lora.b0"][0, 0] += 1.0
        subset = feature_set(system, synth_entries(tmp_path, 3, "T0"), tmp_path)
        dev = feature_set(system, synth_entries(tmp_path, 2, "dev2"), tmp_path)
        with pytest.raises(ex.FrozenContractError):
            fu.train_fusion(system, subset, dev, ex.TrainHyper(max_epochs=1), seed=27)


class TestFusionCheckpoint:
    def test_round_trip_with_bindings(self, tmp_path, monkeypatch):
        base = ex.new_expert(ENC, 30)
        ase = ex.lora_inject(base, ex.LoraConfig(2, 8.0, 0.0), seed=31)
        rng = np.random.default_rng(32)
        for layer in range(ase.n_layers):
            ase.tensors[f"lora.b{layer}"] = rng.normal(0, 0.1, ase.tensors[f"lora.b{layer}"].shape)
        refs = [("e0.json", ex.save_expert_checkpoint(base, tmp_path / "e0.json")),
                ("ase.json", ex.save_adapter_checkpoint(ase, tmp_path / "ase.json"))]
        system = fu.FusionSystem([base, ase], k=1, seed=33)
        fu.save_fusion_checkpoint(system, tmp_path / "fusion.json", refs)
        loaded_base, base_ref = ex.load_expert_checkpoint(tmp_path / "e0.json")
        loaded_ase, ase_ref = ex.load_adapter_checkpoint(tmp_path / "ase.json", loaded_base)
        bank = [loaded_base, loaded_ase]
        assert [base_ref, ase_ref] == [checksum for _, checksum in refs]
        read = []
        original = Path.read_text

        def counting(path, *args, **kwargs):
            read.append(path.name)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        loaded = fu.load_fusion_checkpoint(tmp_path / "fusion.json", bank, refs)
        monkeypatch.undo()
        assert read == ["fusion.json"]  # the bank is the caller's, loaded once
        assert loaded.experts == bank
        clip = cp.synth_clip("spoof", 9, SYNTH)
        assert score(loaded, clip) == score(system, clip)

    def test_every_format_is_canonical_json(self, tmp_path):
        base = ex.new_expert(ENC, 37)
        ase = ex.lora_inject(base, ex.LoraConfig(2, 8.0, 0.1), seed=38)
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
        bank = [base] + [ex.lora_inject(base, ex.LoraConfig(2, 8.0, 0.0), seed=35 + i)
                         for i in range(2)]
        refs = [("e0.json", ex.save_expert_checkpoint(base, tmp_path / "e0.json"))]
        for i, ase in enumerate(bank[1:], 1):
            refs.append((f"a{i}.json", ex.save_adapter_checkpoint(ase, tmp_path / f"a{i}.json")))
        system = fu.FusionSystem(bank, k=1, seed=36)
        fu.save_fusion_checkpoint(system, tmp_path / "fusion.json", refs)
        other = ("a3.json", "0" * 64)
        # (refs of the loaded bank, the first expert the head was trained over that differs)
        for loaded_refs, stale in (
            ([refs[0], ("a1.json", "0" * 64), refs[2]], "a1.json"),  # retrained in place
            ([refs[0], refs[1], other], "a2.json"),  # a roster entry names another condition
            ([refs[0], refs[2], refs[1]], "a1.json"),
            (refs[:2], "a2.json"),
            (refs + [other], "no expert"),
        ):
            with pytest.raises(ex.CheckpointError) as raised:
                fu.load_fusion_checkpoint(tmp_path / "fusion.json", bank, loaded_refs)
            message = str(raised.value)
            assert message.startswith(f"{tmp_path / 'fusion.json'}: ")
            assert "fusion binding" in message and "run `amulet train-fusion`" in message
            assert f"trained over {stale}" in message
