"""Adaptive gated fusion over a frozen expert bank, plus the mean-logit
ensemble baseline.

The gate is a single linear layer on the time-mean of the shared expert's
features; its softmax scores pick the top-k specialists (ties break to the
lowest index). Selected features are weight-summed, the shared features are
added unweighted, and the result is layer-normalized, attention-pooled,
projected, and classified. Only gate/LN/pool/classifier parameters train;
the expert bank is checksum-frozen.

Gate scores are softmaxed over all specialists and not renormalized after
selection (the shared features anchor the scale); `renormalize=True` is
available for ablation.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as tc
from .audio import AudioClip
from .experts import (
    LABEL_INDEX,
    CheckpointError,
    FrozenContractError,
    TrainHyper,
    _read_payload,
    _tensor_payload,
    _tensors_from_payload,
    _write_payload,
    bank_forward,
    dev_eer,
    encoder_forward,  # noqa: F401  perfbench's tracer test checks this binding
    fit,
    frame_features,
    full_checksum,
    load_adapter_checkpoint,
    load_expert_checkpoint,
)

LN_EPS = 1e-5


class FusionError(ValueError):
    pass


@dataclass
class GateDecision:
    scores: np.ndarray  # softmax weights over the N specialists
    selected: tuple     # indices of the k largest scores, ascending

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        self.selected = tuple(int(i) for i in self.selected)


def init_fusion_params(dim: int, n_experts: int, seed: int) -> dict:
    rng = np.random.Generator(np.random.Philox(seed))
    return {
        "gate.w": np.zeros((dim, n_experts)),
        "gate.b": np.zeros((1, n_experts)),
        "ln.g": np.ones((1, dim)),
        "ln.b": np.zeros((1, dim)),
        "pool.a": np.zeros((dim, 1)),
        "pool.proj": np.eye(dim),
        "cls.w1": rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, dim)),
        "cls.b1": np.zeros((1, dim)),
        "cls.w2": np.zeros((dim, 2)),
        "cls.b2": np.zeros((1, 2)),
    }


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


def gate_scores(z0: np.ndarray, gate_w: np.ndarray, gate_b: np.ndarray, k: int) -> GateDecision:
    """Softmax contribution weights from the shared features' time mean."""
    n = gate_w.shape[1]
    if not 1 <= k <= n:
        raise FusionError(f"k={k} exceeds the {n} available specialists")
    zbar = z0.mean(axis=0, keepdims=True)
    logits = tc.matmul_values(zbar, gate_w) + gate_b
    scores = tc.softmax_values(logits)[0]
    order = np.argsort(-scores, kind="stable")  # ties resolve to the lowest index
    return GateDecision(scores, tuple(sorted(int(i) for i in order[:k])))


def fuse(z_list, z0, decision: GateDecision, ln_gain, ln_bias,
         renormalize: bool = False) -> np.ndarray:
    """Weighted sum of the selected specialists plus unweighted shared features,
    then row-wise layer norm."""
    for z in z_list:
        if z.shape != z0.shape:
            raise tc.ShapeError(f"expert feature shapes disagree: {z.shape} vs {z0.shape}")
    weights = decision.scores
    if renormalize:
        total = 0.0
        for i in decision.selected:
            total = total + float(weights[i])
        if total > 0.0:
            weights = weights * (1.0 / total)
    acc = np.zeros_like(z0)
    for i in decision.selected:
        acc = acc + weights[i] * z_list[i]
    out, _, _ = tc.layer_norm_values(acc + z0, ln_gain, ln_bias, LN_EPS)
    return out


def head_forward(z_moe: np.ndarray, params: dict) -> np.ndarray:
    """Attention pooling over time, projection, two-layer tanh classifier."""
    att = tc.matmul_values(z_moe, params["pool.a"])  # T x 1
    weights = tc.softmax_values(att.T)               # 1 x T
    pooled = tc.matmul_values(weights, z_moe)        # 1 x D
    proj = tc.matmul_values(pooled, params["pool.proj"])
    hidden = np.tanh(tc.matmul_values(proj, params["cls.w1"]) + params["cls.b1"])
    return tc.matmul_values(hidden, params["cls.w2"]) + params["cls.b2"]


def expert_features(experts, clip: AudioClip) -> list:
    """Each expert's features of one clip; `experts` is the bank [E0, E1..En]."""
    return bank_forward(experts, frame_features(clip, experts[0].cfg))


def fused_logits(system: FusionSystem, z_all):
    """Gate + fuse + head on precomputed per-expert features [z0, z1, ...]."""
    decision = gate_scores(z_all[0], system.params["gate.w"], system.params["gate.b"], system.k)
    fused = fuse(z_all[1:], z_all[0], decision, system.params["ln.g"],
                 system.params["ln.b"], system.renormalize)
    return decision, head_forward(fused, system.params)


def ensemble_logits(per_expert_logits) -> np.ndarray:
    """Elementwise mean of per-expert logit rows (shared expert included)."""
    rows = [np.asarray(row, dtype=np.float64).reshape(-1) for row in per_expert_logits]
    if not rows:
        raise FusionError("ensemble needs at least one expert's logits")
    acc = np.zeros_like(rows[0])
    for row in rows:
        if row.shape != acc.shape:
            raise FusionError("ensemble logits disagree in shape")
        acc = acc + row
    return acc / len(rows)


# --- fusion training ---------------------------------------------------------


def _fusion_loss_nodes(system, leaves, z_alls, label_idx) -> tc.Node:
    """Mean cross-entropy of a batch of clips as one graph: `z_alls` holds
    each clip's `expert_features`, `label_idx` each clip's class index. The
    gate, top-k selection and attention pooling act on each clip's own
    frames; the loss and gradients are bitwise those of the mean of one graph
    per clip."""
    frames = tc.row_segments(z_all[0].shape[0] for z_all in z_alls)
    rows = tc.row_segments([1] * len(z_alls))
    z0 = np.concatenate([z_all[0] for z_all in z_alls])
    zbar = tc.constant(np.concatenate([z_all[0].mean(axis=0, keepdims=True) for z_all in z_alls]))
    glogits = tc.add(tc.matmul(zbar, leaves["gate.w"], rows), leaves["gate.b"], rows)
    scores = tc.softmax_rows(glogits)
    tracks = [np.concatenate([z_all[1 + i] for z_all in z_alls])
              for i in range(system.n_specialists)]
    mixed = tc.topk_mix(scores, tracks, system.k, system.renormalize, frames)
    fused = tc.layer_norm(tc.add(mixed, tc.constant(z0)), leaves["ln.g"], leaves["ln.b"],
                          LN_EPS, frames)

    att = tc.matmul(fused, leaves["pool.a"], frames)
    pooled = tc.attention_pool(att, fused, frames)
    proj = tc.matmul(pooled, leaves["pool.proj"], rows)
    hidden = tc.tanh(tc.add(tc.matmul(proj, leaves["cls.w1"], rows), leaves["cls.b1"], rows))
    logits = tc.add(tc.matmul(hidden, leaves["cls.w2"], rows), leaves["cls.b2"], rows)
    return tc.cross_entropy(logits, label_idx)


def train_fusion(system: FusionSystem, train_set, dev_set, hyper: TrainHyper, seed: int,
                 log=None) -> list:
    """`fit` of gate/LN/pool/classifier; returns the per-epoch history.

    `train_set` and `dev_set` are (features, labels) with one
    `expert_features` list per clip. Expert tensors are barred from the graph
    entirely and checksum-verified before and after; selection indices are
    constants within a step, so gradients reach the selected scores only.
    """
    system.verify_bank()
    params, history = fit(
        system, *train_set,
        lambda leaves, z_alls, labels, _rngs: _fusion_loss_nodes(
            system, leaves, z_alls, [LABEL_INDEX[label] for label in labels]),
        lambda: dev_eer(lambda z_all: fused_logits(system, z_all)[1], *dev_set),
        hyper, seed, log,
    )
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


def load_fusion_checkpoint(path, root, bank=None) -> FusionSystem:
    """Rebuild a fusion system on the expert checkpoints it was trained over.

    `bank` maps checkpoint paths relative to `root`, as the fusion checkpoint
    lists them, to (model, verified content checksum) for experts already
    loaded; every other listed expert is parsed here, once. A listed checksum
    that differs from the loaded one breaks the binding.
    """
    payload = _read_payload(path, "fusion-checkpoint")
    refs = payload["experts"]
    if not refs:
        raise CheckpointError(f"{path}: fusion checkpoint lists no experts")
    loaded = dict(bank or {})
    experts = []
    for ref in refs:
        if ref["path"] not in loaded:
            ckpt_path = Path(root) / ref["path"]
            loaded[ref["path"]] = (
                load_adapter_checkpoint(ckpt_path, experts[0]) if experts
                else load_expert_checkpoint(ckpt_path)
            )
        model, checksum = loaded[ref["path"]]
        if checksum != ref["checksum"]:
            raise CheckpointError(
                f"{Path(root) / ref['path']}: checksum does not match the fusion binding"
            )
        experts.append(model)
    params = _tensors_from_payload(payload["tensors"])
    return FusionSystem(experts, payload["k"], params, payload["renormalize"])
