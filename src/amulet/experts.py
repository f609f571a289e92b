"""Expert models: a small frame encoder with a linear head, full fine-tuning
for the shared expert, and low-rank adapter training for attack-specific
experts.

A model is a named-tensor store. Encoder layers are tanh linears over raw
sample frames; each expert carries its own pooled linear head, which is a
training scaffold: fusion consumes encoder features only. Adapters follow the
two-path form x@W0 + s*((x@A)@B) with s = alpha/rank by default (the literal
s = alpha reading is available behind `scale_mode`), A ~ N(0, 0.02), B = 0,
so a freshly injected expert is functionally identical to its base.

One `LoraConfig` (rank, alpha, dropout, scale_mode), checked when it is
made, sets an expert's adapters everywhere: it is the config's `lora` group,
what `lora_inject` and `train_ase` take, the model's `lora`, and the `lora`
member of its checkpoints (there under the key `dropout_p` for the dropout).

One definition serves training and inference: the graph functions
`encoder_forward` and `expert_logits` over clips stacked by rows. Inference
runs them on `constant_leaves`, `INFERENCE_CHUNK` clips at a time; stacked
products are bitwise the per-clip ones, so chunking changes no score.

Checkpoints are canonical JSON with a content checksum; adapter checkpoints
store only the adapter and head tensors plus the checksum of the base
encoder they bind to.
"""
from __future__ import annotations

import json
import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import tensor as tc
from .audio import AudioClip
from .corpus import stable_seed, resolve_clip
from .metrics import ScoreSet, compute_eer

LABEL_INDEX = {"bonafide": 0, "spoof": 1}
SCALE_ALPHA_OVER_R = "alpha_over_r"
SCALE_ALPHA_LITERAL = "alpha_literal"
LORA_INIT_STD = 0.02


class ExpertError(ValueError):
    pass


class FrozenContractError(RuntimeError):
    """A tensor flagged frozen changed during training."""


class CheckpointError(ValueError):
    pass


@dataclass
class EncoderConfig:
    frame_len: int = 160
    hop: int = 160
    hidden_dims: tuple = (64, 64, 64)

    def __post_init__(self):
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        if self.frame_len < 2 or self.hop < 1 or any(d < 2 for d in self.hidden_dims):
            raise ExpertError("encoder dims must be >= 2 and hop >= 1")
        if not self.hidden_dims:
            raise ExpertError("hidden_dims must name at least one layer")
        if self.output_dim % 2:
            raise ExpertError(f"the last of hidden_dims must be even, got {self.output_dim}: "
                              f"the expert head pairs quadrature columns")

    @property
    def output_dim(self) -> int:
        return self.hidden_dims[-1]

    @property
    def layer_dims(self):
        dims = (self.frame_len, *self.hidden_dims)
        return list(zip(dims[:-1], dims[1:]))


@dataclass(frozen=True)
class LoraConfig:
    """The adapters of an attack-specific expert: on every encoder layer,
    delta = scale * ((x@A)@B) with A (m x rank) and B (rank x n), and input
    dropout `dropout` on the adapter path while training."""

    rank: int = 4
    alpha: float = 16.0
    dropout: float = 0.1
    scale_mode: str = SCALE_ALPHA_OVER_R

    def __post_init__(self):
        if self.rank < 1:
            raise ExpertError("rank must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ExpertError("dropout must be in [0, 1)")
        if self.scale_mode not in (SCALE_ALPHA_OVER_R, SCALE_ALPHA_LITERAL):
            raise ExpertError(f"scale_mode must be {SCALE_ALPHA_OVER_R!r} or "
                              f"{SCALE_ALPHA_LITERAL!r}")

    @property
    def scale(self) -> float:
        return self.alpha / self.rank if self.scale_mode == SCALE_ALPHA_OVER_R else self.alpha


class ExpertModel:
    """Named-tensor store: encoder layers, head, frozen flags, and the
    `LoraConfig` of its adapters, if any."""

    def __init__(self, cfg: EncoderConfig, tensors: dict, frozen=(),
                 lora: LoraConfig | None = None):
        self.cfg = cfg
        self.tensors = {name: np.asarray(v, dtype=np.float64) for name, v in tensors.items()}
        self.frozen = set(frozen)
        self.lora = lora

    @property
    def n_layers(self) -> int:
        return len(self.cfg.hidden_dims)

    @property
    def has_adapters(self) -> bool:
        return self.lora is not None

    def copy(self) -> "ExpertModel":
        return ExpertModel(self.cfg, {k: v.copy() for k, v in self.tensors.items()},
                           self.frozen, self.lora)


def _filterbank_init(m: int, n: int, sample_rate: int = 16000) -> np.ndarray:
    """Windowed cosine/sine pairs on a log frequency grid with a gentle
    high-frequency tilt; keeps band amplitudes inside tanh's useful range."""
    freqs = np.geomspace(100.0, 0.95 * sample_rate / 2.0, n // 2)
    window = np.hanning(m)
    t = np.arange(m) / sample_rate
    w = np.empty((m, n))
    for j, f in enumerate(freqs):
        gain = 0.4 * (f / freqs[0]) ** 0.6
        cos_col = window * np.cos(2.0 * np.pi * f * t)
        sin_col = window * np.sin(2.0 * np.pi * f * t)
        w[:, 2 * j] = gain * cos_col / np.linalg.norm(cos_col)
        w[:, 2 * j + 1] = gain * sin_col / np.linalg.norm(sin_col)
    if n % 2:
        w[:, -1] = window / np.linalg.norm(window)
    return w


def _mixed_pair_init(m: int, n: int, kappa: float = 1.2, beta: float = 0.5):
    """Second-layer structure serving both feature consumers.

    Even bands pass their (cos, sin) quadrature channels straight through, so
    downstream magnitude pooling sees true phase-invariant band amplitudes.
    Odd bands become antisymmetric unit pairs +-kappa*(cos+sin) with a shared
    bias: tanh is odd, so plain time means of raw channels vanish, but a
    rectifier pair's sum is an even, energy-tracking function, which is what
    the gate's time-mean input and the fusion head's attention pooling need.
    """
    w = np.zeros((m, n))
    b = np.zeros((1, n))
    half = min(n, m) // 2
    for j in range(half):
        c_row, s_row = 2 * j, 2 * j + 1
        if j % 2 == 0:
            w[c_row, 2 * j] = 1.0
            w[s_row, 2 * j + 1] = 1.0
        else:
            gain = kappa / np.sqrt(2.0)
            w[c_row, 2 * j] = gain
            w[s_row, 2 * j] = gain
            w[c_row, 2 * j + 1] = -gain
            w[s_row, 2 * j + 1] = -gain
            b[0, 2 * j] = beta
            b[0, 2 * j + 1] = beta
    for col in range(2 * half, n):
        w[col % m, col] = 1.0
    return w, b


def new_expert(cfg: EncoderConfig, seed: int) -> ExpertModel:
    """Fresh model: filterbank first layer, rectifying pair second layer,
    near-identity deeper layers, zero head. Deterministic given the seed."""
    rng = np.random.Generator(np.random.Philox(seed))
    tensors = {}
    for i, (m, n) in enumerate(cfg.layer_dims):
        if i == 0:
            tensors[f"enc.w{i}"] = _filterbank_init(m, n)
            tensors[f"enc.b{i}"] = np.zeros((1, n))
        elif i == 1:
            w, b = _mixed_pair_init(m, n)
            # tiny mixing only: heavier noise leaks loud low-band content into
            # the faint high-band channels and buries their contrast
            tensors[f"enc.w{i}"] = w + rng.normal(0.0, 0.002, size=(m, n))
            tensors[f"enc.b{i}"] = b
        else:
            eye = np.eye(m, n)
            tensors[f"enc.w{i}"] = eye + rng.normal(0.0, 0.002, size=(m, n))
            tensors[f"enc.b{i}"] = rng.normal(0.0, 0.1, size=(1, n))
    tensors["head.w"] = np.zeros((cfg.output_dim, 2))
    tensors["head.b"] = np.zeros((1, 2))
    return ExpertModel(cfg, tensors)


def checksum_tensors(tensors: dict, names=None) -> str:
    digest = hashlib.sha256()
    for name in sorted(names if names is not None else tensors):
        arr = tensors[name]
        digest.update(name.encode())
        digest.update(str(arr.shape).encode())
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()


def encoder_checksum(model: ExpertModel) -> str:
    names = [n for n in model.tensors if n.startswith("enc.")]
    return checksum_tensors(model.tensors, names)


def frozen_checksum(model: ExpertModel) -> str:
    names = [n for n in model.frozen if n in model.tensors]
    return checksum_tensors(model.tensors, names)


def full_checksum(model: ExpertModel) -> str:
    return checksum_tensors(model.tensors)


def frame_count(n_samples: int, cfg: EncoderConfig, clip_id: str = "") -> int:
    """T, the frames (and encoder output rows) of a clip of `n_samples`."""
    if n_samples < cfg.frame_len:
        raise ExpertError(
            f"clip {clip_id!r} shorter than one frame ({n_samples} < {cfg.frame_len})")
    return (n_samples - cfg.frame_len) // cfg.hop + 1


def frame_features(clip: AudioClip, cfg: EncoderConfig) -> np.ndarray:
    """(T x frame_len) raw-sample frames, each with its mean removed."""
    t_count = frame_count(clip.samples.size, cfg, clip.clip_id)
    idx = np.arange(t_count)[:, None] * cfg.hop + np.arange(cfg.frame_len)[None, :]
    frames = clip.samples[idx]
    return frames - frames.mean(axis=1, keepdims=True)


def _dropout_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    return (rng.random(shape) >= p) / (1.0 - p)


POOL_LOG_EPS = 1e-4
POOL_LOG_GAIN = 6.0
PAIR_EPS = 1e-12

# Clips per inference graph (dev EER, fusion features, `evaluate`); chosen
# by CPU time and peak RSS against 1, 2, 8 and 16 (see CHANGES.md).
INFERENCE_CHUNK = 4


def chunks(items) -> list:
    """`items` in consecutive slices of up to `INFERENCE_CHUNK`."""
    return [items[i : i + INFERENCE_CHUNK] for i in range(0, len(items), INFERENCE_CHUNK)]


def make_leaves(model) -> dict:
    """Graph leaves of a named-tensor store (an `ExpertModel` or a
    `FusionSystem`): one per tensor, needing a gradient unless frozen."""
    return {
        name: tc.Node(value, requires_grad=name not in model.frozen)
        for name, value in model.tensors.items()
    }


def constant_leaves(model) -> dict:
    """Leaves needing no gradient, on which the graph functions infer."""
    return {name: tc.constant(value) for name, value in model.tensors.items()}


def encoder_forward(model, leaves, x: tc.Node, frames, dropout_rngs=None, layer0=None) -> tc.Node:
    """Encoder output of clips whose frames `x` stacks by rows, clip c in
    rows `frames[c]`. `dropout_rngs` holds one generator per clip for its
    adapter-input masks, drawn layer by layer. `layer0` optionally holds the
    stacked (x@W0, x@A0) as constants, x@A0 possibly None; a cached product
    stands in only while its leaf needs no gradient (x@A0 also only without
    dropout)."""
    h = x
    xw0, xa0 = layer0 if layer0 is not None else (None, None)
    for i in range(model.n_layers):
        w, b = leaves[f"enc.w{i}"], leaves[f"enc.b{i}"]
        if i == 0 and xw0 is not None and not w.needs_grad:
            pre = tc.add(xw0, b, frames)
        else:
            pre = tc.linear(h, w, b, frames)
        if model.has_adapters:
            lora = model.lora
            a = leaves[f"lora.a{i}"]
            x_in = h
            if dropout_rngs is not None and lora.dropout > 0.0:
                mask = np.concatenate([
                    _dropout_mask((seg.stop - seg.start, h.shape[1]), lora.dropout, rng)
                    for seg, rng in zip(frames, dropout_rngs)
                ])
                x_in = tc.mul(h, tc.constant(mask))
            if i == 0 and xa0 is not None and x_in is h and not a.needs_grad:
                xa = xa0
            else:
                xa = tc.matmul(x_in, a, frames)
            delta = tc.matmul(xa, leaves[f"lora.b{i}"], frames)
            pre = tc.add(pre, tc.scale(delta, lora.scale))
        h = tc.tanh(pre)
    return h


def expert_logits(leaves, z: tc.Node, frames) -> tc.Node:
    """Expert head: one 1x2 logit row per clip of encoder output `z`.

    Adjacent feature columns are quadrature pairs (the filterbank init lays
    them out so), whose magnitudes are phase-invariant band amplitudes. Each
    band gives the log std and log mean absolute delta of its amplitude over
    the clip's frames; the log evens out band loudness, and the gain lets
    plain SGD at the stock rate move within the plateau window."""
    rows = tc.row_segments([1] * len(frames))
    steps = tc.row_segments(seg.stop - seg.start - 1 for seg in frames)
    mag = tc.pair_magnitude(z, PAIR_EPS)
    contrast = tc.log_shift(tc.std_rows(mag, segments=frames), POOL_LOG_EPS)
    motion = tc.log_shift(tc.mean_rows(tc.absval(tc.diff_rows(mag, frames)), steps), POOL_LOG_EPS)
    pooled = tc.scale(tc.hconcat(contrast, motion), POOL_LOG_GAIN)
    return tc.linear(pooled, leaves["head.w"], leaves["head.b"], rows)


def loss_nodes(model, leaves, feats, labels, dropout_rngs=None, layer0=None) -> tc.Node:
    """Mean cross-entropy of the clips with frame matrices `feats` as one
    graph (other arguments as for `encoder_forward`). Shared tensors'
    gradients are summed clip by clip, so the loss and gradients are bitwise
    those of the mean of one graph per clip."""
    frames = tc.row_segments(f.shape[0] for f in feats)
    z = encoder_forward(model, leaves, tc.constant(np.concatenate(feats)), frames, dropout_rngs,
                        layer0)
    logits = expert_logits(leaves, z, frames)
    return tc.cross_entropy(logits, [LABEL_INDEX[label] for label in labels])


def lora_inject(model: ExpertModel, lora: LoraConfig, seed: int) -> ExpertModel:
    """Freeze the base encoder (weights and biases) and attach fresh adapters.

    The head is copied and stays trainable; with B = 0 the injected model is
    functionally identical to the base.
    """
    if model.has_adapters:
        raise ExpertError("model already has adapters injected")
    out = model.copy()
    rng = np.random.Generator(np.random.Philox(seed))
    for i, (m, n) in enumerate(model.cfg.layer_dims):
        out.tensors[f"lora.a{i}"] = rng.normal(0.0, LORA_INIT_STD, size=(m, lora.rank))
        out.tensors[f"lora.b{i}"] = np.zeros((lora.rank, n))
        out.frozen.add(f"enc.w{i}")
        out.frozen.add(f"enc.b{i}")
    out.lora = lora
    return out


@dataclass
class TrainHyper:
    lr: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 100
    plateau_epochs: int = 3
    lr_factor: float = 0.5
    lr_floor: float = 1e-7
    patience: int = 10

    def __post_init__(self):
        if self.lr <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise ExpertError("lr, batch_size, and max_epochs must be positive")


def dev_eer(chunk_logits, dev_clips, dev_labels) -> float:
    """EER of the bona-fide-positive scores logit(bonafide) - logit(spoof),
    with `chunk_logits` giving a logit row per clip of each `chunks` slice."""
    bona, spoof = [], []
    for clips, labels in zip(chunks(dev_clips), chunks(dev_labels)):
        for row, label in zip(chunk_logits(clips), labels):
            (bona if label == "bonafide" else spoof).append(float(row[0] - row[1]))
    return compute_eer(ScoreSet(bona, spoof)).eer


def fit(model, train_feats, train_labels, batch_loss, epoch_eer, hyper: TrainHyper,
        seed: int, log=None) -> tuple:
    """Minibatch gradient descent with dev-EER plateau halving and early stop.

    `model` is a named-tensor store: its `tensors` not in `frozen` train, and
    are updated in place. `batch_loss(leaves, feats, labels, dropout_rngs)`
    builds one graph of a minibatch's mean loss from its clips' features and
    labels in batch order, with one generator per clip, seeded per epoch and
    clip, for any dropout; `epoch_eer()` scores the current tensors on the
    dev set after every epoch. Returns (copy of the tensors at the first
    lowest dev EER, per-epoch history).
    """
    lr = hyper.lr
    best = {name: value.copy() for name, value in model.tensors.items()}
    best_eer = float("inf")
    plateau = 0
    stall = 0
    history = []

    for epoch in range(hyper.max_epochs):
        shuffle_rng = np.random.Generator(np.random.Philox(stable_seed(seed, "shuffle", epoch)))
        order = shuffle_rng.permutation(len(train_feats))
        epoch_loss = 0.0
        for start in range(0, len(order), hyper.batch_size):
            batch = [int(idx) for idx in order[start : start + hyper.batch_size]]
            leaves = make_leaves(model)
            drop_rngs = [
                np.random.Generator(np.random.Philox(stable_seed(seed, "dropout", epoch, idx)))
                for idx in batch
            ]
            try:
                loss = batch_loss(leaves, [train_feats[idx] for idx in batch],
                                  [train_labels[idx] for idx in batch], drop_rngs)
                tc.backward(loss)
            except tc.NonFiniteError as exc:
                raise tc.NonFiniteError(
                    f"non-finite loss at epoch {epoch} batch {start // hyper.batch_size}: {exc}"
                ) from exc
            for name, node in leaves.items():
                if node.requires_grad:
                    model.tensors[name] = model.tensors[name] - lr * node.grad
            epoch_loss += float(loss.value[0, 0]) * len(batch)
        epoch_loss /= len(train_feats)
        eer = epoch_eer()
        history.append({"epoch": epoch, "loss": epoch_loss, "dev_eer": eer, "lr": lr})
        if log is not None:
            log(f"epoch={epoch} loss={epoch_loss:.6f} dev_eer={eer:.4f} lr={lr:.2e}")
        if eer < best_eer:
            best_eer = eer
            best = {name: value.copy() for name, value in model.tensors.items()}
            plateau = 0
            stall = 0
        else:
            plateau += 1
            stall += 1
            if plateau >= hyper.plateau_epochs:
                lr = max(lr * hyper.lr_factor, hyper.lr_floor)
                plateau = 0
            if stall >= hyper.patience:
                break
    return best, history


def train_expert(
    model: ExpertModel,
    train_entries,
    dev_entries,
    root,
    hyper: TrainHyper,
    seed: int,
    log=None,
) -> tuple:
    """`fit` on the clips of two manifest splits. Returns (best model by dev
    EER, per-epoch history). Frozen tensors are checksum-verified; any drift
    is a hard failure.

    With `enc.w0` frozen, each clip's x@W0 is taken once per call and reused
    by every epoch's loss graphs and dev forwards."""
    work = model.copy()
    contract = frozen_checksum(work)
    w0 = work.tensors["enc.w0"] if "enc.w0" in work.frozen else None

    def load_clips(entries):
        clips = []
        for entry in entries:
            feats = frame_features(resolve_clip(entry, root), work.cfg)
            clips.append((feats, None if w0 is None else tc.matmul_values(feats, w0)))
        return clips, [e.label for e in entries]

    def stacked_layer0(clips):
        return None if w0 is None else (tc.constant(np.concatenate([c[1] for c in clips])), None)

    def batch_loss(leaves, clips, labels, rngs):
        return loss_nodes(work, leaves, [clip[0] for clip in clips], labels, rngs,
                          stacked_layer0(clips))

    def epoch_eer():
        leaves = constant_leaves(work)

        def chunk_logits(clips):
            frames = tc.row_segments(clip[0].shape[0] for clip in clips)
            x = tc.constant(np.concatenate([clip[0] for clip in clips]))
            z = encoder_forward(work, leaves, x, frames, layer0=stacked_layer0(clips))
            return expert_logits(leaves, z, frames).value

        return dev_eer(chunk_logits, *dev_set)

    train_set, dev_set = load_clips(train_entries), load_clips(dev_entries)
    tensors, history = fit(work, *train_set, batch_loss, epoch_eer, hyper, seed, log)
    best = ExpertModel(work.cfg, tensors, work.frozen, work.lora)
    if frozen_checksum(work) != contract or frozen_checksum(best) != contract:
        raise FrozenContractError("frozen tensors changed during training")
    return best, history


def train_shared(cfg: EncoderConfig, train_entries, dev_entries, root,
                 hyper: TrainHyper, seed: int, log=None) -> tuple:
    """Full fine-tuning of a fresh model on the clean condition."""
    model = new_expert(cfg, stable_seed(seed, "init"))
    return train_expert(model, train_entries, dev_entries, root, hyper,
                        stable_seed(seed, "shared"), log=log)


def train_ase(base: ExpertModel, condition: str, train_entries, dev_entries, root,
              lora: LoraConfig, hyper: TrainHyper, seed: int, log=None) -> tuple:
    """Adapter + head training on one attacked condition; base stays frozen."""
    injected = lora_inject(base, lora, stable_seed(seed, "inject", condition))
    return train_expert(injected, train_entries, dev_entries, root, hyper,
                        stable_seed(seed, "ase", condition), log=log)


# --- checkpoint I/O ----------------------------------------------------------

CHECKPOINT_VERSION = 1


def _tensor_payload(tensors: dict, names) -> dict:
    return {
        name: {"shape": list(tensors[name].shape), "data": tensors[name].ravel().tolist()}
        for name in sorted(names)
    }


def _canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _write_payload(payload: dict, path) -> str:
    """Write `payload` plus its content checksum as canonical JSON; returns
    the checksum. Each top-level value is serialized once: the canonical text
    of an object is its sorted `"key":value` members joined by commas, so the
    checksummed text and the file text share the members' texts."""
    members = {key: f"{json.dumps(key)}:{_canonical_json(value)}"
               for key, value in payload.items() if key != "checksum"}
    text = "{" + ",".join(members[key] for key in sorted(members)) + "}"
    checksum = hashlib.sha256(text.encode()).hexdigest()
    members["checksum"] = f'"checksum":{json.dumps(checksum)}'
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("{" + ",".join(members[key] for key in sorted(members)) + "}\n")
    return checksum


def _read_payload(path, expected_format: str) -> dict:
    """Parse a checkpoint and verify it from its own bytes: the file must be
    exactly what `_write_payload` writes. The top-level checksum member sits
    at its sorted key position, after the members whose keys sort before
    "checksum" (short ones); the text without that member, its comma and the
    final newline must hash to the stored checksum."""
    data = Path(path).read_text().encode()
    payload = json.loads(data)
    if payload.get("format") != expected_format:
        raise CheckpointError(f"{path}: expected {expected_format}, got {payload.get('format')!r}")
    stored = payload.get("checksum")
    before = [f"{json.dumps(key)}:{_canonical_json(payload[key])}"
              for key in sorted(payload) if key < "checksum"]
    prefix = ("{" + ",".join(before)).encode()
    signed = prefix + (b"," if before else b"") + f'"checksum":{json.dumps(stored)}'.encode()
    end = len(signed)
    if not before and data[end:end + 1] == b",":
        end += 1  # the member came first: drop the comma after it
    digest = hashlib.sha256(prefix)
    digest.update(memoryview(data)[end:-1])
    if (not data.startswith(signed) or not data.endswith(b"}\n")
            or digest.hexdigest() != stored):
        raise CheckpointError(f"{path}: content checksum mismatch")
    return payload


def _tensors_from_payload(data: dict) -> dict:
    return {
        name: np.asarray(spec["data"], dtype=np.float64).reshape(spec["shape"])
        for name, spec in data.items()
    }


def _lora_payload(lora: LoraConfig | None):
    """A checkpoint's `lora` member. Its `dropout_p` key and int/float casts
    are part of the checkpoint format, so a config that writes `16` for
    alpha saves the bytes of `16.0`."""
    if lora is None:
        return None
    return {"rank": int(lora.rank), "alpha": float(lora.alpha),
            "dropout_p": float(lora.dropout), "scale_mode": lora.scale_mode}


def _lora_from_payload(data) -> LoraConfig | None:
    if data is None:
        return None
    return LoraConfig(data["rank"], data["alpha"], data["dropout_p"], data["scale_mode"])


def save_expert_checkpoint(model: ExpertModel, path) -> str:
    payload = {
        "format": "expert-checkpoint",
        "version": CHECKPOINT_VERSION,
        "encoder": asdict(model.cfg),
        "tensors": _tensor_payload(model.tensors, model.tensors),
        "frozen": sorted(model.frozen),
        "lora": _lora_payload(model.lora),
    }
    return _write_payload(payload, path)


def load_expert_checkpoint(path) -> tuple:
    """(model, verified content checksum of the file)."""
    payload = _read_payload(path, "expert-checkpoint")
    cfg = EncoderConfig(**payload["encoder"])
    model = ExpertModel(cfg, _tensors_from_payload(payload["tensors"]),
                        payload["frozen"], _lora_from_payload(payload.get("lora")))
    return model, payload["checksum"]


def save_adapter_checkpoint(model: ExpertModel, path) -> str:
    """Adapters + head only, bound to the base encoder by checksum."""
    if not model.has_adapters:
        raise CheckpointError("model has no adapters to checkpoint")
    names = [n for n in model.tensors if n.startswith("lora.") or n.startswith("head.")]
    payload = {
        "format": "adapter-checkpoint",
        "version": CHECKPOINT_VERSION,
        "encoder": asdict(model.cfg),
        "tensors": _tensor_payload(model.tensors, names),
        "lora": _lora_payload(model.lora),
        "base_checksum": encoder_checksum(model),
    }
    return _write_payload(payload, path)


def load_adapter_checkpoint(path, base: ExpertModel) -> tuple:
    """(base with the adapter attached, verified content checksum of the file)."""
    payload = _read_payload(path, "adapter-checkpoint")
    if payload["base_checksum"] != encoder_checksum(base):
        raise CheckpointError(f"{path}: adapter is bound to a different base encoder")
    if base.has_adapters:
        raise CheckpointError("cannot load an adapter onto an already adapted model")
    out = base.copy()
    out.tensors.update(_tensors_from_payload(payload["tensors"]))
    out.lora = _lora_from_payload(payload["lora"])
    rank = out.lora.rank
    for i, (m, n) in enumerate(out.cfg.layer_dims):
        out.frozen.add(f"enc.w{i}")
        out.frozen.add(f"enc.b{i}")
        want = {f"lora.a{i}": (m, rank), f"lora.b{i}": (rank, n)}
        got = {name: out.tensors[name].shape for name in want if name in out.tensors}
        if got != want:
            raise CheckpointError(f"{path}: adapter tensors {got} disagree with rank {rank} "
                                  f"on layer {i}, which needs {want}")
    return out, payload["checksum"]
