import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from amulet import corpus as cp
from amulet import experts as ex
from amulet import fusion as fu
from amulet import tensor as tc
from amulet.audio import float_to_pcm16, pcm16_to_float

from oracles import (
    clip_frames,
    count_trainable,
    expert_clip_loss,
    finite_difference_grads,
    fit_per_clip,
    fold_adapters,
    mean_of_clip_losses,
    relative_error,
    sum_all,
)

TINY = cp.SynthConfig(n_train=24, n_dev=8, n_eval=6)
ENC = ex.EncoderConfig()


def random_pcm(seed, seconds=2.0, sr=16000):
    rng = np.random.default_rng(seed)
    return float_to_pcm16(0.4 * rng.standard_normal(int(seconds * sr)))


def frames_of(pcm, cfg=ENC):
    """One clip's frame matrix."""
    return ex.frame_features([pcm], cfg)[0]


def stack(feats):
    """(stacked matrix, row segments) of per-clip frame matrices `feats`."""
    return np.concatenate(feats), tc.row_segments(f.shape[0] for f in feats)


def infer(model, feats):
    """(encoder output, logits) of the clips with frame matrices `feats`, as
    one inference graph on the model's constant leaves."""
    leaves = ex.constant_leaves(model)
    x, frames = stack(feats)
    z = ex.encoder_forward(model, leaves, tc.constant(x), frames)
    return z.value, ex.expert_logits(leaves, z, frames).value


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = cp.build_corpus(TINY, root, seed=51)
    return manifest, root


# clips of 16 to 106 samples, each sample drawn from the extremes, zero
# and a few others half the time
pcm_clips = st.lists(
    st.integers(0, 90).flatmap(lambda extra: st.lists(
        st.sampled_from([-32768, -32767, -1, 0, 1, 12345, 32767]) | st.integers(-32768, 32767),
        min_size=16 + extra, max_size=16 + extra)),
    min_size=1, max_size=4)


class TestFrameFeatures:
    def test_frame_count_default(self):
        feats = frames_of(random_pcm(0))
        assert feats.shape == (200, 160)

    def test_frame_count_formula(self):
        cfg = ex.EncoderConfig(frame_len=160, hop=100, hidden_dims=(8, 8))
        feats = frames_of(np.ones(1000, "<i2"), cfg)
        assert feats.shape[0] == (1000 - 160) // 100 + 1

    def test_constant_clip_zero_features(self):
        feats = frames_of(np.full(32000, 8192, "<i2"))
        assert np.allclose(feats, 0.0)

    def test_short_clip_rejected(self):
        with pytest.raises(ex.ExpertError, match="clip 's' shorter than one frame"):
            ex.frame_features([random_pcm(1, 0.05), np.ones(100, "<i2")], ENC, ["ok", "s"])

    def test_stacks_clips_by_rows(self):
        pcms = [random_pcm(2, 0.3), random_pcm(3, 0.02), random_pcm(4, 0.5)]
        x, frames = ex.frame_features(pcms, ENC)
        assert x.shape == (82, 160) and x.flags.c_contiguous
        assert [(seg.start, seg.stop) for seg in frames] == [(0, 30), (30, 32), (32, 82)]
        want = np.concatenate([clip_frames(pcm16_to_float(pcm), ENC) for pcm in pcms])
        assert x.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(clips=pcm_clips, frame_len=st.integers(2, 16), hop=st.integers(1, 24))
    @example(clips=[[-32768, 0, 32767] * 6, [32767] * 16], frame_len=4, hop=4)
    @example(clips=[[-32768, 0, 32767] * 6, [-32768] * 17], frame_len=5, hop=3)
    @example(clips=[[-32768, 0, 32767] * 6, [0] * 40], frame_len=6, hop=9)
    def test_bitwise_the_per_clip_frames(self, clips, frame_len, hop):
        """The stacked frames are, byte for byte, the per-clip frames of the
        float samples `read_wav` makes, gathered by index and joined, for
        hops below, at and above the frame length."""
        cfg = ex.EncoderConfig(frame_len=frame_len, hop=hop, hidden_dims=(4,))
        pcms = [np.array(clip, "<i2") for clip in clips]
        x, frames = ex.frame_features(pcms, cfg)
        want = np.concatenate([clip_frames(pcm16_to_float(pcm), cfg) for pcm in pcms])
        assert x.dtype == want.dtype and x.shape == want.shape
        assert x.tobytes() == want.tobytes()
        assert [seg.stop - seg.start for seg in frames] == [
            (pcm.size - frame_len) // hop + 1 for pcm in pcms]


def encode(model, feats):
    """Encoder output of one clip's frame matrix, on constant leaves."""
    frames = tc.row_segments([feats.shape[0]])
    return ex.encoder_forward(model, ex.constant_leaves(model), tc.constant(feats), frames).value


def random_adapted(rng, dims, rank, alpha, scale_mode=ex.SCALE_ALPHA_OVER_R):
    """An adapted expert on `dims` = (frame_len, *hidden_dims) with random
    nonzero adapters."""
    cfg = ex.EncoderConfig(frame_len=dims[0], hop=dims[0], hidden_dims=dims[1:])
    lora = ex.LoraConfig(rank, alpha, 0.0, scale_mode)
    model = ex.lora_inject(ex.new_expert(cfg, int(rng.integers(1 << 30))), lora, seed=1)
    for i in range(model.n_layers):
        for name in (f"lora.a{i}", f"lora.b{i}"):
            model.tensors[name] = rng.standard_normal(model.tensors[name].shape) * 0.2
    return model


class TestLoraAlgebra:
    def test_hand_case(self):
        cfg = ex.EncoderConfig(frame_len=2, hop=2, hidden_dims=(2,))
        tensors = {"enc.w0": np.zeros((2, 2)), "enc.b0": np.zeros((1, 2)),
                   "lora.a0": np.array([[1.0], [0.0]]), "lora.b0": np.array([[1.0, 2.0]])}
        model = ex.ExpertModel(cfg, tensors, lora=ex.LoraConfig(1, 4.0, 0.0))
        # x @ (W0 + 4 * A @ B) = [1, 0] @ [[4, 8], [0, 0]]
        assert np.array_equal(encode(model, np.array([[1.0, 0.0]])), np.tanh([[4.0, 8.0]]))

    def test_literal_scale_mode(self):
        # literal mode ignores the rank divisor
        assert ex.LoraConfig(4, 4.0, 0.0, ex.SCALE_ALPHA_LITERAL).scale == 4.0
        assert ex.LoraConfig(4, 4.0, 0.0).scale == 1.0
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((5, 6))
        literal = random_adapted(rng, (6, 4, 4), 4, 4.0, ex.SCALE_ALPHA_LITERAL)
        folded = encode(fold_adapters(literal), feats)
        assert np.max(np.abs(encode(literal, feats) - folded)) < 1e-10
        literal.lora = ex.LoraConfig(4, 4.0, 0.0)
        assert np.max(np.abs(encode(literal, feats) - folded)) > 1e-3

    def test_shape_mismatch(self, tmp_path):
        # a loaded adapter's tensors must have the shapes its rank gives
        base = ex.new_expert(ENC, 0)
        model = ex.lora_inject(base, ex.LoraConfig(2, 8.0, 0.0), seed=1)
        model.lora = ex.LoraConfig(3, 8.0, 0.0)
        ex.save_adapter_checkpoint(model, tmp_path / "adapter.json")
        with pytest.raises(ex.CheckpointError, match="disagree with rank 3"):
            ex.load_adapter_checkpoint(tmp_path / "adapter.json", base)

    def test_two_path_equals_merged_forward(self):
        """The two-path forward x@W0 + scale * (x@A)@B equals the forward of
        a copy without adapters whose weights fold the adapters in."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            dims = tuple(int(d) for d in rng.integers(3, 12, size=int(rng.integers(2, 5))))
            dims = (*dims[:-1], dims[-1] + dims[-1] % 2)  # the head pairs the last width
            model = random_adapted(rng, dims, int(rng.integers(1, 6)), float(rng.uniform(1, 32)))
            feats = rng.standard_normal((int(rng.integers(1, 8)), dims[0]))
            merged = encode(fold_adapters(model), feats)
            assert np.max(np.abs(encode(model, feats) - merged)) < 1e-10


class TestLoraInject:
    def test_identity_at_init_bitwise(self):
        base = ex.new_expert(ENC, seed=3)
        injected = ex.lora_inject(base, ex.LoraConfig(4, 16.0, 0.1), seed=4)
        for seed in range(5):
            feats = frames_of(random_pcm(seed))
            for got, want in zip(infer(injected, [feats]), infer(base, [feats])):
                assert np.array_equal(got, want)

    def test_trainable_count_formula_and_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dims = tuple(int(d) for d in rng.integers(2, 40, size=int(rng.integers(1, 4))))
            dims = (*dims[:-1], dims[-1] + dims[-1] % 2)  # the head pairs the last width
            frame_len = int(rng.integers(8, 200))
            rank = int(rng.integers(1, 8))
            cfg = ex.EncoderConfig(frame_len=frame_len, hop=frame_len, hidden_dims=dims)
            injected = ex.lora_inject(ex.new_expert(cfg, 0), ex.LoraConfig(rank, 8.0, 0.0), seed=1)
            counts = count_trainable(injected)
            chain = (frame_len, *dims)
            formula = sum(rank * (m + n) for m, n in zip(chain[:-1], chain[1:]))
            brute = sum(
                injected.tensors[name].size
                for name in injected.tensors
                if not name.startswith("head.") and name not in injected.frozen
            )
            assert counts["trainable"] == formula == brute

    def test_default_architecture_counts(self):
        injected = ex.lora_inject(ex.new_expert(ENC, 0), ex.LoraConfig(4, 16.0, 0.1), seed=1)
        counts = count_trainable(injected)
        assert counts["trainable"] == 1920
        assert counts["total"] == 18624
        assert round(counts["percent"], 2) == 10.31

    def test_double_injection_rejected(self):
        injected = ex.lora_inject(ex.new_expert(ENC, 0), ex.LoraConfig(4, 16.0, 0.1), seed=1)
        with pytest.raises(ex.ExpertError):
            ex.lora_inject(injected, ex.LoraConfig(4, 16.0, 0.1), seed=2)

    def test_frozen_everything_counts_zero(self):
        model = ex.new_expert(ENC, 0)
        model.frozen = set(model.tensors)
        assert count_trainable(model)["trainable"] == 0

    def test_fully_trainable_is_100_percent(self):
        assert count_trainable(ex.new_expert(ENC, 0))["percent"] == 100.0


class TestForwardGradients:
    def test_graph_forward_matches_plain_bitwise(self):
        """Inference on constant leaves keeps no graph and gives bitwise the
        values of the graph whose leaves train."""
        injected = ex.lora_inject(ex.new_expert(ENC, 5), ex.LoraConfig(4, 16.0, 0.1), seed=6)
        model = with_live_head(injected, 0)
        x, frames = ex.frame_features([random_pcm(9 + i, s) for i, s in enumerate((1.0, 0.3))], ENC)
        plain = ex.constant_leaves(model)
        plain_z = ex.encoder_forward(model, plain, tc.constant(x), frames)
        plain_logits = ex.expert_logits(plain, plain_z, frames)
        leaves = ex.make_leaves(model)
        graph_z = ex.encoder_forward(model, leaves, tc.constant(x), frames)
        graph_logits = ex.expert_logits(leaves, graph_z, frames)
        assert plain_logits.value.shape == (2, 2)
        for node in (plain_z, plain_logits):
            assert node.parents == () and node._push is None and not node.needs_grad
        assert graph_logits.parents and graph_logits.needs_grad
        assert np.array_equal(plain_z.value, graph_z.value)
        assert np.array_equal(plain_logits.value, graph_logits.value)

    def test_expert_loss_matches_finite_differences(self):
        cfg = ex.EncoderConfig(frame_len=12, hop=12, hidden_dims=(6, 6))
        model = ex.lora_inject(ex.new_expert(cfg, 1), ex.LoraConfig(2, 4.0, 0.0), seed=2)
        rng = np.random.default_rng(3)
        for i in range(model.n_layers):
            model.tensors[f"lora.b{i}"] = rng.normal(0, 0.2, model.tensors[f"lora.b{i}"].shape)
        feats = rng.standard_normal((5, 12)) * 0.4

        def loss_value(tensors):
            probe = ex.ExpertModel(cfg, tensors, model.frozen, model.lora)
            leaves = ex.make_leaves(probe)
            return float(ex.loss_nodes(probe, leaves, *stack([feats]), ["spoof"]).value[0, 0])

        leaves = ex.make_leaves(model)
        loss = ex.loss_nodes(model, leaves, *stack([feats]), ["spoof"])
        tc.backward(loss)
        trainable = {n: model.tensors[n] for n in model.tensors if n not in model.frozen}
        fd = finite_difference_grads(lambda vals: loss_value({**model.tensors, **vals}), trainable)
        for name in trainable:
            assert relative_error(leaves[name].grad, fd[name]) < 1e-4, name

    def test_cached_layer0_graph_is_bitwise_the_product_graph(self):
        model = ex.lora_inject(ex.new_expert(ENC, 3), ex.LoraConfig(4, 16.0, 0.1), seed=4)
        rng = np.random.default_rng(5)
        for name in ("lora.b0", "lora.b1", "lora.b2", "head.w"):
            model.tensors[name] = rng.normal(0, 0.1, model.tensors[name].shape)
        feats = frames_of(random_pcm(6, seconds=1.0))
        # x@W0 stands in while enc.w0 is frozen; x@A0 never does, since
        # lora.a0 trains (and the dropout mask, when drawn, changes its input)
        layer0 = (tc.constant(tc.matmul_values(feats, model.tensors["enc.w0"])),
                  tc.constant(tc.matmul_values(feats, model.tensors["lora.a0"])))

        def loss_and_leaves(cached, leaked, dropout):
            leaves = ex.make_leaves(model)
            if leaked:
                leaves["enc.w0"] = tc.Node(model.tensors["enc.w0"], requires_grad=True)
            rngs = [np.random.Generator(np.random.Philox(7))] if dropout else None
            loss = ex.loss_nodes(model, leaves, *stack([feats]), ["spoof"], rngs,
                                 layer0 if cached else None)
            tc.backward(loss)
            return loss, leaves

        for leaked, dropout in ((False, True), (True, True), (False, False)):
            graph_loss, graph = loss_and_leaves(False, leaked, dropout)
            cached_loss, cached = loss_and_leaves(True, leaked, dropout)
            assert np.array_equal(cached_loss.value, graph_loss.value)
            for name, node in graph.items():
                if node.requires_grad:
                    assert np.array_equal(cached[name].grad, node.grad), (leaked, name)
            assert np.any(cached["lora.a0"].grad != 0)
            # a leaked gradient on enc.w0 still reaches the graph
            assert np.any(cached["enc.w0"].grad != 0) == leaked

    def test_zero_features_zero_bias_gives_zero_output(self):
        model = ex.new_expert(ENC, 2)
        for i in range(model.n_layers):
            model.tensors[f"enc.b{i}"] = np.zeros_like(model.tensors[f"enc.b{i}"])
        out, _ = infer(model, [np.zeros((4, 160))])
        assert np.array_equal(out, np.zeros((4, 64)))


def with_live_head(model, seed):
    """`model` with a random head and adapter B, so that every trainable
    tensor gets a nonzero gradient."""
    rng = np.random.default_rng(seed)
    model.tensors["head.w"] = rng.normal(0.0, 0.1, model.tensors["head.w"].shape)
    if model.has_adapters:
        for i in range(model.n_layers):
            model.tensors[f"lora.b{i}"] = rng.normal(0.0, 0.1, model.tensors[f"lora.b{i}"].shape)
    return model


class TestBatchedLoss:
    """`loss_nodes` over a batch against the mean of per-clip graphs."""

    LABELS = ["bonafide", "spoof", "spoof", "bonafide"]

    @staticmethod
    def assert_matches_per_clip(model, feats, labels, dropout=False, cached=False):
        def rngs():
            if not dropout:
                return None
            return [np.random.Generator(np.random.Philox(300 + c)) for c in range(len(feats))]

        layer0 = [tc.matmul_values(f, model.tensors["enc.w0"]) for f in feats] if cached else None
        leaves = ex.make_leaves(model)
        loss = ex.loss_nodes(model, leaves, *stack(feats), labels, rngs(),
                             None if layer0 is None else (tc.constant(np.concatenate(layer0)), None))
        tc.backward(loss)

        ref_leaves = ex.make_leaves(model)
        ref_rngs = rngs()
        ref = mean_of_clip_losses([
            expert_clip_loss(model, ref_leaves, f, label,
                             None if ref_rngs is None else ref_rngs[c],
                             None if layer0 is None else layer0[c])
            for c, (f, label) in enumerate(zip(feats, labels))
        ])
        tc.backward(ref)
        assert np.array_equal(loss.value, ref.value)
        for name in [n for n in sorted(model.tensors) if n not in model.frozen]:
            assert np.any(ref_leaves[name].grad != 0), name
            assert np.array_equal(leaves[name].grad, ref_leaves[name].grad), name

    @staticmethod
    def clips(seconds):
        return [frames_of(random_pcm(200 + i, s)) for i, s in enumerate(seconds)]

    def test_shared_expert(self):
        model = with_live_head(ex.new_expert(ENC, 20), 21)
        self.assert_matches_per_clip(model, self.clips([0.5] * 4), self.LABELS)

    def test_ase_with_dropout_and_cached_layer0(self):
        base = with_live_head(ex.new_expert(ENC, 22), 23)
        model = with_live_head(ex.lora_inject(base, ex.LoraConfig(4, 16.0, 0.1), seed=24), 25)
        self.assert_matches_per_clip(model, self.clips([0.5] * 4), self.LABELS,
                                     dropout=True, cached=True)

    def test_batch_of_one(self):
        base = with_live_head(ex.new_expert(ENC, 26), 27)
        model = with_live_head(ex.lora_inject(base, ex.LoraConfig(4, 16.0, 0.1), seed=28), 29)
        self.assert_matches_per_clip(model, self.clips([0.5]), ["spoof"], dropout=True, cached=True)
        self.assert_matches_per_clip(base, self.clips([0.5]), ["bonafide"])

    def test_clips_of_different_lengths(self):
        seconds = [0.3, 0.75, 0.02, 0.5]  # 30, 75, 2 and 50 frames
        e0 = with_live_head(ex.new_expert(ENC, 30), 31)
        self.assert_matches_per_clip(e0, self.clips(seconds), self.LABELS)
        ase = with_live_head(ex.lora_inject(e0, ex.LoraConfig(4, 16.0, 0.2), seed=32), 33)
        self.assert_matches_per_clip(ase, self.clips(seconds), self.LABELS,
                                     dropout=True, cached=True)


class TestGraphSize:
    """A layer's graph keeps no array that backward never reads: no `x@W`
    product, and in E0 no pre-activation `x@W + b`."""

    # distinct widths, so a node's shape names its layer; the rank and the
    # pair-magnitude width (4) differ from them too
    CFG = ex.EncoderConfig(frame_len=12, hop=12, hidden_dims=(6, 10, 8))
    RANK = 2

    @classmethod
    def per_layer(cls, model):
        """Per encoder layer, the nodes of a 4-clip batch's loss graph whose
        value is (rows x that layer's width)."""
        rng = np.random.default_rng(40)
        feats = [rng.standard_normal((t, cls.CFG.frame_len)) for t in (5, 3, 7, 4)]
        rows = sum(f.shape[0] for f in feats)
        loss = ex.loss_nodes(model, ex.make_leaves(model), *stack(feats), TestBatchedLoss.LABELS)
        shapes = [node.value.shape for node in tc.topo_order(loss)]
        return [shapes.count((rows, n)) for _, n in cls.CFG.layer_dims]

    def test_layer_holds_its_activation(self):
        assert len(set(self.CFG.hidden_dims) | {self.CFG.frame_len, self.RANK, 4}) == 6
        e0 = ex.new_expert(self.CFG, 41)
        # tanh(x@W + b) alone: no node for the product x@W or the sum
        assert self.per_layer(e0) == [1] * e0.n_layers
        ase = ex.lora_inject(e0, ex.LoraConfig(self.RANK, 4.0, 0.0), seed=42)
        # x@W + b, (x@A)@B, its scaled copy, the sum of the two and tanh; a
        # product node would be a sixth wherever the layer's input needs a
        # gradient (layer 0's input is a constant and its W and b frozen, so
        # its x@W + b needs none and keeps no parents)
        assert self.per_layer(ase) == [5] * ase.n_layers


class TestFitAgainstPerClipTrainer:
    """Several epochs of `fit`, three minibatches each (the last one short),
    against the trainer that built one graph per clip."""

    CFG = ex.EncoderConfig(frame_len=32, hop=32, hidden_dims=(8, 8))

    def _run(self, model, trainer, loss_fn, tmp_path, name):
        feats = [frames_of(random_pcm(400 + i, 0.02 + 0.004 * i), self.CFG) for i in range(10)]
        clips = [(f, tc.matmul_values(f, model.tensors["enc.w0"])) for f in feats]
        labels = ["bonafide", "spoof"] * 5
        dev = [frames_of(random_pcm(500 + i, 0.03), self.CFG) for i in range(4)]
        dev_labels = ["bonafide", "spoof", "bonafide", "spoof"]
        work = model.copy()
        snapshots = []

        def epoch_eer():
            snapshots.append({n: v.copy() for n, v in work.tensors.items()})
            return ex.dev_eer(lambda chunk: infer(work, chunk)[1], dev, dev_labels)

        hyper = ex.TrainHyper(lr=0.05, batch_size=4, max_epochs=4, plateau_epochs=1)
        best, history = trainer(work, clips, labels, loss_fn(work), epoch_eer, hyper, 41)
        trained = ex.ExpertModel(work.cfg, best, work.frozen, work.lora)
        path = tmp_path / name
        if trained.has_adapters:
            ex.save_adapter_checkpoint(trained, path)
        else:
            ex.save_expert_checkpoint(trained, path)
        return path.read_bytes(), history, snapshots

    @pytest.mark.parametrize("adapted", [False, True])
    def test_checkpoints_equal_per_clip_trainer(self, adapted, tmp_path):
        model = with_live_head(ex.new_expert(self.CFG, 42), 43)
        if adapted:
            model = with_live_head(ex.lora_inject(model, ex.LoraConfig(2, 8.0, 0.2), seed=44), 45)

        def batched(work):
            def batch_loss(leaves, clips, labels, rngs):
                return ex.loss_nodes(work, leaves, *stack([c[0] for c in clips]), labels, rngs,
                                     (tc.constant(np.concatenate([c[1] for c in clips])), None))
            return batch_loss

        def per_clip(work):
            return lambda leaves, clip, label, rng: expert_clip_loss(
                work, leaves, clip[0], label, rng, clip[1])

        got = self._run(model, ex.fit, batched, tmp_path, "batched.json")
        want = self._run(model, fit_per_clip, per_clip, tmp_path, "per_clip.json")
        assert got[1] == want[1]  # losses, dev EERs and learning rates per epoch
        assert len(got[2]) == 4
        for mine, theirs in zip(got[2], want[2]):
            for name in mine:
                assert np.array_equal(mine[name], theirs[name]), name
        assert not np.array_equal(got[2][0]["head.w"], model.tensors["head.w"])
        assert got[0] == want[0]


def adapted_bank(base, ranks, seed):
    """`base` plus one adapter expert per rank, each with a nonzero B."""
    rng = np.random.default_rng(seed)
    bank = [base]
    for i, rank in enumerate(ranks):
        ase = ex.lora_inject(base, ex.LoraConfig(rank, 16.0, 0.1), seed=seed + 1 + i)
        for layer in range(ase.n_layers):
            shape = ase.tensors[f"lora.b{layer}"].shape
            ase.tensors[f"lora.b{layer}"] = rng.normal(0.0, 0.1, shape)
        bank.append(ase)
    return bank


class TestBankForward:
    """`fusion.expert_features`: the bank's features of a chunk of clips."""

    SECONDS = (0.3, 0.75, 0.02, 0.5)  # 30, 75, 2 and 50 frames

    @staticmethod
    def features_counting_layer0(bank, clips, monkeypatch):
        """expert_features' outputs and the products it takes of raw frames."""
        calls = []
        original = tc.matmul_values

        def counting(a, b):
            if a.shape[1] == ENC.frame_len:
                calls.append(b.shape)
            return original(a, b)

        monkeypatch.setattr(tc, "matmul_values", counting)
        out = fu.expert_features(bank, [ex.constant_leaves(m) for m in bank], clips)
        monkeypatch.setattr(tc, "matmul_values", original)
        return out, calls

    @staticmethod
    def assert_per_expert_per_clip(bank, clips, zs, frames):
        """Each expert's rows of each clip are bitwise its own forward of
        that clip alone."""
        assert len(zs) == len(bank)
        for model, z in zip(bank, zs):
            assert z.parents == ()
            for clip, seg in zip(clips, frames):
                alone, _ = infer(model, [frames_of(clip)])
                assert np.array_equal(z.value[seg], alone)

    def test_bitwise_equal_to_per_expert_forward(self, monkeypatch):
        # rank 1 takes the looped single-column path in a separate x@A product
        bank = adapted_bank(ex.new_expert(ENC, 40), ranks=(4, 1, 2, 4, 4), seed=41)
        clips = [random_pcm(42 + i, s) for i, s in enumerate(self.SECONDS)]
        (zs, frames), calls = self.features_counting_layer0(bank, clips, monkeypatch)
        assert calls == [(160, 64 + 4 + 1 + 2 + 4 + 4)]  # one layer-0 product for the chunk
        assert [seg.stop - seg.start for seg in frames] == [30, 75, 2, 50]
        self.assert_per_expert_per_clip(bank, clips, zs, frames)

    def test_experts_with_their_own_layer0(self, monkeypatch):
        rng = np.random.default_rng(43)
        bank = adapted_bank(ex.new_expert(ENC, 44), ranks=(4, 1, 2), seed=45)
        other_base = ex.new_expert(ENC, 46)
        other_base.tensors["enc.w0"] = other_base.tensors["enc.w0"] + rng.normal(0.0, 0.01, (160, 64))
        bank += adapted_bank(other_base, ranks=(1,), seed=47)  # a base and an adapter on it
        bank[2].tensors["enc.b0"] = rng.normal(0.0, 0.1, (1, 64))  # own bias, shared weight
        clips = [random_pcm(48 + i, s) for i, s in enumerate(self.SECONDS)]
        (zs, frames), calls = self.features_counting_layer0(bank, clips, monkeypatch)
        assert calls == [(160, 64 + 4 + 1 + 2), (160, 64), (160, 64), (160, 1)]
        self.assert_per_expert_per_clip(bank, clips, zs, frames)


class TestFit:
    """`fit`'s schedule against a scripted dev-EER sequence."""

    def _fit(self, eers, **hyper):
        store = SimpleNamespace(
            tensors={"w": np.array([[1.0], [-2.0]]), "frozen": np.array([[3.0]])},
            frozen={"frozen"},
        )
        frozen_before = store.tensors["frozen"]
        feats = [np.array([[0.5, 1.0]]), np.array([[-1.0, 0.25]]), np.array([[2.0, -0.5]])]
        snapshots = []

        def batch_loss(leaves, xs, labels, rngs):
            assert len(xs) == len(labels) == len(rngs)
            total = sum_all(tc.matmul(tc.constant(np.concatenate(xs)), leaves["w"]))
            return tc.scale(total, 1.0 / len(xs))

        def epoch_eer():
            snapshots.append(store.tensors["w"].copy())
            return eers[len(snapshots) - 1]

        best, history = ex.fit(store, feats, ["bonafide", "spoof", "spoof"], batch_loss,
                               epoch_eer, ex.TrainHyper(**hyper), seed=5)
        assert store.tensors["frozen"] is frozen_before
        assert [h["dev_eer"] for h in history] == eers[: len(history)]
        return best, history, snapshots

    def test_lr_halves_after_plateau_and_stops_at_floor(self):
        eers = [0.5, 0.5, 0.5, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4]
        _, history, _ = self._fit(eers, lr=1.0, batch_size=2, max_epochs=len(eers),
                                  plateau_epochs=2, lr_factor=0.5, lr_floor=0.2, patience=100)
        assert [h["lr"] for h in history] == [
            1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.25, 0.25, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2,
        ]

    def test_stops_after_patience(self):
        eers = [0.5, 0.3, 0.4, 0.3, 0.35, 0.2, 0.1]
        _, history, _ = self._fit(eers, lr=0.1, max_epochs=len(eers), patience=3)
        assert len(history) == 5  # the minimum at epoch 1, then 3 epochs without a new one

    def test_returns_params_of_first_minimum(self):
        eers = [0.5, 0.2, 0.2, 0.3]
        best, history, snapshots = self._fit(eers, lr=0.1, max_epochs=len(eers))
        assert len(history) == 4
        assert np.array_equal(best["w"], snapshots[1])
        assert not np.array_equal(best["w"], snapshots[2])
        assert np.array_equal(best["frozen"], [[3.0]])


class TestTraining:
    def test_loss_decreases_and_reload_reproduces_dev_eer(self, tiny_corpus, tmp_path):
        manifest, root = tiny_corpus
        hyper = ex.TrainHyper(max_epochs=3)
        model, history = ex.train_shared(
            ENC, manifest.split("train"), manifest.split("dev"), root, hyper, seed=77
        )
        assert history[1]["loss"] < history[0]["loss"]

        feats = [frames_of(cp.resolve_pcm(e, root)) for e in manifest.split("dev")]
        labels = [e.label for e in manifest.split("dev")]
        before = ex.dev_eer(lambda chunk: infer(model, chunk)[1], feats, labels)
        path = tmp_path / "e0.json"
        saved_checksum = ex.save_expert_checkpoint(model, path)
        reloaded, checksum = ex.load_expert_checkpoint(path)
        assert checksum == saved_checksum
        assert ex.dev_eer(lambda chunk: infer(reloaded, chunk)[1], feats, labels) == before
        for name in model.tensors:
            assert np.array_equal(model.tensors[name], reloaded.tensors[name])

    def test_training_is_deterministic(self, tiny_corpus, tmp_path):
        manifest, root = tiny_corpus
        hyper = ex.TrainHyper(max_epochs=2)
        paths = []
        for run in range(2):
            model, _ = ex.train_shared(
                ENC, manifest.split("train"), manifest.split("dev"), root, hyper, seed=88
            )
            path = tmp_path / f"run{run}.json"
            ex.save_expert_checkpoint(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_ase_training_respects_frozen_contract(self, tiny_corpus):
        manifest, root = tiny_corpus
        hyper = ex.TrainHyper(max_epochs=2)
        base, _ = ex.train_shared(
            ENC, manifest.split("train"), manifest.split("dev"), root, hyper, seed=99
        )
        base_enc = ex.encoder_checksum(base)
        ase, _ = ex.train_ase(
            base, "T0", manifest.split("train"), manifest.split("dev"), root,
            ex.LoraConfig(2, 8.0, 0.1), hyper=hyper, seed=100,
        )
        assert ex.encoder_checksum(ase) == base_enc
        assert any(np.any(ase.tensors[f"lora.b{i}"] != 0.0) for i in range(ase.n_layers))

    def test_frozen_drift_is_hard_failure(self, tiny_corpus, monkeypatch):
        manifest, root = tiny_corpus
        base = ex.new_expert(ENC, 7)
        injected = ex.lora_inject(base, ex.LoraConfig(2, 8.0, 0.0), seed=8)

        real_make_leaves = ex.make_leaves

        def leaky_make_leaves(model):
            leaves = real_make_leaves(model)
            leaves["enc.w0"] = tc.Node(model.tensors["enc.w0"], requires_grad=True)
            return leaves

        monkeypatch.setattr(ex, "make_leaves", leaky_make_leaves)
        dev = manifest.split("dev")
        balanced_dev = dev[:2] + dev[-2:]
        # a zero head blocks encoder gradients on the very first step, so give
        # the leak a couple of epochs to actually move the frozen tensor
        with pytest.raises(ex.FrozenContractError):
            ex.train_expert(
                injected, manifest.split("train")[:8], balanced_dev,
                root, ex.TrainHyper(max_epochs=3), seed=101,
            )

    def test_non_finite_loss_aborts(self, tiny_corpus):
        manifest, root = tiny_corpus
        model = ex.new_expert(ENC, 9)
        model.tensors["head.w"] = np.full_like(model.tensors["head.w"], 1e308)
        dev = manifest.split("dev")
        with pytest.raises((tc.NonFiniteError, OverflowError)):
            ex.train_expert(
                model, manifest.split("train")[:4], dev[:2] + dev[-2:],
                root, ex.TrainHyper(max_epochs=1), seed=102,
            )


class TestCheckpoints:
    def test_adapter_checkpoint_small_and_binding(self, tmp_path):
        base = ex.new_expert(ENC, 12)
        injected = ex.lora_inject(base, ex.LoraConfig(4, 16.0, 0.1), seed=13)
        full_path = tmp_path / "full.json"
        adapter_path = tmp_path / "adapter.json"
        ex.save_expert_checkpoint(injected, full_path)
        saved_checksum = ex.save_adapter_checkpoint(injected, adapter_path)
        ratio = adapter_path.stat().st_size / full_path.stat().st_size
        assert ratio < 0.15

        restored, checksum = ex.load_adapter_checkpoint(adapter_path, base)
        assert checksum == saved_checksum
        feats = frames_of(random_pcm(3))
        assert np.array_equal(infer(restored, [feats])[1], infer(injected, [feats])[1])

    def test_adapter_binding_mismatch_fails(self, tmp_path):
        base = ex.new_expert(ENC, 14)
        injected = ex.lora_inject(base, ex.LoraConfig(4, 16.0, 0.1), seed=15)
        path = tmp_path / "adapter.json"
        ex.save_adapter_checkpoint(injected, path)
        other = ex.new_expert(ENC, 999)
        with pytest.raises(ex.CheckpointError, match="different base"):
            ex.load_adapter_checkpoint(path, other)

    def test_corrupted_checkpoint_detected(self, tmp_path):
        model = ex.new_expert(ENC, 16)
        path = tmp_path / "ckpt.json"
        ex.save_expert_checkpoint(model, path)
        text = path.read_text().replace('"version":1', '"version":2')
        path.write_text(text)
        with pytest.raises(ex.CheckpointError, match="checksum"):
            ex.load_expert_checkpoint(path)

    def test_only_the_written_bytes_load(self, tmp_path):
        """A checkpoint is verified from its own text, so every byte counts:
        a changed value, a reformatted copy that keeps the stored checksum and
        a missing final newline are all rejected."""
        base = ex.new_expert(ENC, 18)
        injected = ex.lora_inject(base, ex.LoraConfig(2, 8.0, 0.0), seed=19)
        for save, load in (
            (ex.save_expert_checkpoint, ex.load_expert_checkpoint),
            (ex.save_adapter_checkpoint, lambda path: ex.load_adapter_checkpoint(path, base)),
        ):
            path = tmp_path / "ckpt.json"
            checksum = save(injected, path)
            text = path.read_text()
            assert load(path)[1] == checksum
            payload = json.loads(text)
            payload["tensors"]["head.b"]["data"][0] += 1.0
            changed = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
            pretty = json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"
            for bad in (changed, pretty, text[:-1], text + "\n"):
                path.write_text(bad)
                with pytest.raises(ex.CheckpointError, match="checksum"):
                    load(path)

    def test_lora_member_keeps_its_keys_and_number_types(self, tmp_path):
        base = ex.new_expert(ENC, 20)
        injected = ex.lora_inject(base, ex.LoraConfig(2, 8, 0), seed=21)
        member = '"lora":{"alpha":8.0,"dropout_p":0.0,"rank":2,"scale_mode":"alpha_over_r"}'
        for save in (ex.save_expert_checkpoint, ex.save_adapter_checkpoint):
            save(injected, tmp_path / "ckpt.json")
            assert member in (tmp_path / "ckpt.json").read_text()
        restored, _ = ex.load_adapter_checkpoint(tmp_path / "ckpt.json", base)
        assert restored.lora == ex.LoraConfig(2, 8.0, 0.0)
        ex.save_expert_checkpoint(base, tmp_path / "e0.json")
        assert '"lora":null' in (tmp_path / "e0.json").read_text()

    def test_adapter_requires_adapters(self, tmp_path):
        with pytest.raises(ex.CheckpointError):
            ex.save_adapter_checkpoint(ex.new_expert(ENC, 17), tmp_path / "x.json")
