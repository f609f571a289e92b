"""Adaptive gated fusion over a frozen expert bank, plus the mean-logit
ensemble baseline.

The gate is a single linear layer on the time-mean of the shared expert's
features; its softmax scores pick the top-k specialists (ties break to the
lowest index). Selected features are weight-summed, the shared features are
added unweighted, and the result is layer-normalized, attention-pooled,
projected, and classified, all in the one graph `fused_logits` that training
and inference share. Only gate/LN/pool/classifier parameters train; the
expert bank is checksum-frozen.

A fused head is meaningful only over the bank it was trained on. Its
checkpoint lists that bank's expert checkpoints by relative path and content
checksum, and `load_fusion_checkpoint` binds it to a bank the caller has
already loaded, refusing any bank that differs in a path, its order or a
checksum.

Gate scores are softmaxed over all specialists and not renormalized after
selection (the shared features anchor the scale); `renormalize=True` is
available for ablation.
"""
from __future__ import annotations

from itertools import zip_longest

import numpy as np

from . import tensor as tc
from .experts import (
    LABEL_INDEX,
    CheckpointError,
    FrozenContractError,
    TrainHyper,
    _read_payload,
    _tensor_payload,
    _tensors_from_payload,
    _write_payload,
    constant_leaves,
    dev_eer,
    encoder_forward,
    fit,
    frame_features,
    full_checksum,
)

LN_EPS = 1e-5


class FusionError(ValueError):
    pass


def fusion_shapes(dim: int, n_experts: int) -> dict:
    """{name: shape} of every trainable tensor of a fused head."""
    return {
        "gate.w": (dim, n_experts),
        "gate.b": (1, n_experts),
        "ln.g": (1, dim),
        "ln.b": (1, dim),
        "pool.a": (dim, 1),
        "pool.proj": (dim, dim),
        "cls.w1": (dim, dim),
        "cls.b1": (1, dim),
        "cls.w2": (dim, 2),
        "cls.b2": (1, 2),
    }


def init_fusion_params(dim: int, n_experts: int, seed: int) -> dict:
    """Zeros, except unit LN gains, an identity pooling projection and a
    normal `cls.w1`, the one random draw."""
    rng = np.random.Generator(np.random.Philox(seed))
    init = {
        "ln.g": np.ones,
        "pool.proj": lambda shape: np.eye(shape[0]),
        "cls.w1": lambda shape: rng.normal(0.0, 1.0 / np.sqrt(dim), size=shape),
    }
    return {name: init.get(name, np.zeros)(shape)
            for name, shape in fusion_shapes(dim, n_experts).items()}


class FusionSystem:
    """Frozen expert bank [shared, specialists...] plus trainable fusion params."""

    def __init__(self, experts, k: int, params: dict | None = None,
                 renormalize: bool = False, seed: int = 0):
        if len(experts) < 2:
            raise FusionError("fusion needs the shared expert plus at least one specialist")
        dims = {e.cfg.output_dim for e in experts}
        if len(dims) != 1:
            raise FusionError(f"experts disagree on output dim: {sorted(dims)}")
        self.experts = list(experts)
        self.n_specialists = len(experts) - 1
        if not 1 <= k <= self.n_specialists:
            raise FusionError(f"k={k} outside [1, {self.n_specialists}]")
        self.k = k
        self.renormalize = renormalize
        self.dim = experts[0].cfg.output_dim
        self.params = params if params is not None else init_fusion_params(
            self.dim, self.n_specialists, seed)
        self.expert_checksums = [full_checksum(e) for e in self.experts]

    # `fit` trains a named-tensor store: every fusion parameter trains, and
    # the bank is outside the graph
    frozen = frozenset()

    @property
    def tensors(self) -> dict:
        return self.params

    def verify_bank(self) -> None:
        current = [full_checksum(e) for e in self.experts]
        if current != self.expert_checksums:
            raise FrozenContractError("expert bank changed under the fusion system")


def expert_features(experts, leaves, signals, clip_ids=None) -> tuple:
    """(feature node per expert of the bank [E0, E1..En] of the clips whose
    16-bit PCM `signals` holds, stacked by rows; the clips' row segments),
    with `leaves` each expert's constants and `clip_ids` as for
    `frame_features`.

    Experts sharing the first one's `enc.w0` share one product
    x @ [W0 | A0_1 | ... | A0_n], whose column blocks are bitwise the
    separate products, as their cached layer-0 products in `encoder_forward`;
    an expert with its own `enc.w0` takes its own."""
    x, frames = frame_features(signals, experts[0].cfg, clip_ids)
    x = tc.constant(x)
    w0 = experts[0].tensors["enc.w0"]
    shares = [np.array_equal(e.tensors["enc.w0"], w0) for e in experts]
    blocks = [w0] + [
        e.tensors["lora.a0"] for e, shared in zip(experts, shares) if shared and e.has_adapters
    ]
    product = tc.matmul_values(x.value, np.concatenate(blocks, axis=1))
    ends = np.cumsum([block.shape[1] for block in blocks])
    base = tc.constant(product[:, : ends[0]])
    adapter_blocks = iter(tc.constant(product[:, lo:hi]) for lo, hi in zip(ends[:-1], ends[1:]))
    zs = []
    for model, model_leaves, shared in zip(experts, leaves, shares):
        layer0 = None
        if shared:
            layer0 = (base, next(adapter_blocks) if model.has_adapters else None)
        zs.append(encoder_forward(model, model_leaves, x, frames, layer0=layer0))
    return zs, frames


def fused_logits(system: FusionSystem, leaves, zs, frames) -> tc.Node:
    """Gate, top-k fusion and head as one graph: a 1x2 logit row per clip of
    the bank features `zs` and row segments `frames` that `expert_features`
    returns. Gradients reach the selected gate scores only."""
    rows = tc.row_segments([1] * len(frames))
    glogits = tc.linear(tc.mean_rows(zs[0], frames), leaves["gate.w"], leaves["gate.b"], rows)
    mixed = tc.topk_mix(tc.softmax_rows(glogits), [z.value for z in zs[1:]], system.k,
                        system.renormalize, frames)
    fused = tc.layer_norm(tc.add(mixed, zs[0]), leaves["ln.g"], leaves["ln.b"], LN_EPS, frames)
    att = tc.matmul(fused, leaves["pool.a"], frames)
    pooled = tc.attention_pool(att, fused, frames)
    proj = tc.matmul(pooled, leaves["pool.proj"], rows)
    hidden = tc.dense(proj, leaves["cls.w1"], leaves["cls.b1"], rows)
    return tc.linear(hidden, leaves["cls.w2"], leaves["cls.b2"], rows)


def stack_features(z_alls) -> tuple:
    """Per-clip feature lists [z0, z1, ...] stacked as `expert_features`
    stacks a chunk's."""
    frames = tc.row_segments(z_all[0].shape[0] for z_all in z_alls)
    return [tc.constant(np.concatenate(track)) for track in zip(*z_alls)], frames


def ensemble_logits(per_expert_logits) -> np.ndarray:
    """Elementwise mean of the bank's logit matrices, added in bank order."""
    if not per_expert_logits:
        raise FusionError("ensemble needs at least one expert's logits")
    acc = np.zeros_like(per_expert_logits[0])
    for logits in per_expert_logits:
        if logits.shape != acc.shape:
            raise FusionError("ensemble logits disagree in shape")
        acc = acc + logits
    return acc / len(per_expert_logits)


# --- fusion training ---------------------------------------------------------


def train_fusion(system: FusionSystem, train_set, dev_set, hyper: TrainHyper, seed: int,
                 log=None) -> list:
    """`fit` of gate/LN/pool/classifier; returns the per-epoch history.

    `train_set` and `dev_set` are (features, labels) with one list of the
    clip's rows of the bank features [z0, z1, ...] per clip. Expert tensors
    are barred from the graph entirely and checksum-verified before and
    after; selection indices are constants within a step, so gradients reach
    the selected scores only.
    """
    system.verify_bank()

    def batch_loss(leaves, z_alls, labels, _rngs):
        logits = fused_logits(system, leaves, *stack_features(z_alls))
        return tc.cross_entropy(logits, [LABEL_INDEX[label] for label in labels])

    def epoch_eer():
        leaves = constant_leaves(system)
        return dev_eer(lambda z_alls: fused_logits(system, leaves, *stack_features(z_alls)).value,
                       *dev_set)

    params, history = fit(system, *train_set, batch_loss, epoch_eer, hyper, seed, log)
    system.params = params
    system.verify_bank()
    return history


# --- fusion checkpoint -------------------------------------------------------


def save_fusion_checkpoint(system: FusionSystem, path, expert_refs) -> str:
    """`expert_refs` are (relative path, content checksum) pairs, shared first."""
    payload = {
        "format": "fusion-checkpoint",
        "version": 1,
        "k": system.k,
        "renormalize": system.renormalize,
        "tensors": _tensor_payload(system.params, system.params),
        "experts": [{"path": str(p), "checksum": c} for p, c in expert_refs],
    }
    return _write_payload(payload, path)


def load_fusion_checkpoint(path, bank, refs) -> FusionSystem:
    """The fused head of `path` over `bank`, the loaded expert bank [E0,
    E1..En] whose checkpoints `refs` lists as (path relative to the output
    root, content checksum). A head means something only over the bank it
    was trained on, so the experts it lists must be `refs` exactly: the same
    paths, in the same order, with the same checksums."""
    payload = _read_payload(path, "fusion-checkpoint")
    bound = [(ref["path"], ref["checksum"]) for ref in payload["experts"]]
    for i, (trained, loaded) in enumerate(zip_longest(bound, refs)):
        if trained != loaded:
            raise CheckpointError(
                f"{path}: expert {i} breaks the fusion binding: the head was trained "
                f"over {_describe_ref(trained)}, the loaded bank has "
                f"{_describe_ref(loaded)}; run `amulet train-fusion`"
            )
    params = _tensors_from_payload(payload["tensors"])
    return FusionSystem(bank, payload["k"], params, payload["renormalize"])


def _describe_ref(ref) -> str:
    return "no expert" if ref is None else f"{ref[0]} (checksum {ref[1][:12]})"
