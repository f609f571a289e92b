"""Independent reference implementations used to check the real code paths.

Everything here is deliberately naive (triple loops, per-element finite
differences, per-segment threshold sweeps) and never calls the implementation
it is checking. The per-clip training graphs are built from `tensor` ops one
clip at a time, so none of the batched graphs' per-clip segment logic runs.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from amulet import experts as ex
from amulet import tensor as tc
from amulet.attacks import AttackError, DegenerateSignalError
from amulet.corpus import stable_seed


def matmul_triple_loop(a, b):
    """Row-major triple loop accumulating over the inner index in increasing order."""
    a = [[float(v) for v in row] for row in np.asarray(a)]
    b = [[float(v) for v in row] for row in np.asarray(b)]
    p, q, s = len(a), len(b), len(b[0])
    out = [[0.0] * s for _ in range(p)]
    for i in range(p):
        for j in range(s):
            acc = 0.0
            for k in range(q):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc
    return np.array(out)


def fold_adapters(model):
    """A copy of adapted `model` without adapters, each layer's adapter
    folded into its host weight: enc.w{i} = W0 + scale * (A @ B)."""
    tensors = {name: v for name, v in model.tensors.items() if not name.startswith("lora.")}
    for i in range(model.n_layers):
        delta = model.tensors[f"lora.a{i}"] @ model.tensors[f"lora.b{i}"]
        tensors[f"enc.w{i}"] = model.tensors[f"enc.w{i}"] + model.lora.scale * delta
    return ex.ExpertModel(model.cfg, tensors)


def expand_watched(root, paths) -> dict:
    """{path relative to `root`: path} of every existing file among `paths`,
    directories expanded by `Path.rglob` (which follows file symlinks but does
    not descend into directory symlinks). A path outside `root` raises
    ValueError, from `Path.relative_to`."""
    files = {}
    for path in map(Path, paths):
        rel = path.relative_to(root)
        if path.is_dir():
            for sub in path.rglob("*"):
                if sub.is_file():
                    files[str(rel / sub.relative_to(path))] = str(sub)
        elif path.exists():
            files[str(rel)] = str(path)
    return files


def measure_snr(signal, noise) -> float:
    """Signal-to-noise ratio in dB between a clip and a noise component."""
    noise = np.asarray(noise, dtype=np.float64)
    if noise.size != signal.samples.size:
        raise AttackError("signal and noise must have equal length")
    p_sig = float(np.mean(signal.samples**2))
    p_noise = float(np.mean(noise**2))
    if p_sig <= 0.0:
        raise DegenerateSignalError("signal power is zero")
    if p_noise <= 0.0:
        raise DegenerateSignalError("noise power is zero (SNR is infinite)")
    return 10.0 * np.log10(p_sig / p_noise)


def relative_error(a, b, floor: float = 1.0) -> float:
    """Max elementwise |a - b| / max(floor, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def finite_difference_grads(f, params: dict, h: float = 1e-5) -> dict:
    """Central-difference gradients of a scalar function of named matrices."""
    grads = {}
    for name, value in params.items():
        grad = np.zeros_like(value)
        for idx in np.ndindex(value.shape):
            bumped = {k: v.copy() for k, v in params.items()}
            bumped[name][idx] += h
            up = f(bumped)
            bumped[name][idx] -= 2 * h
            down = f(bumped)
            grad[idx] = (up - down) / (2 * h)
        grads[name] = grad
    return grads


def random_graph(rng: np.random.Generator, max_dim: int = 8):
    """A random composite of the tracked primitives, reduced to a scalar.

    Returns (scalar_fn, params): `scalar_fn(params) -> (loss_value, grads_by_name)`
    when called with track=True, or just the loss float with track=False, so the
    same construction serves both the reverse-mode path and finite differences.
    """
    t = int(rng.integers(2, max_dim + 1))
    d_in = int(rng.integers(2, max_dim + 1))
    d_mid = int(rng.integers(2, max_dim + 1))
    label = int(rng.integers(0, 2))
    params = {
        "x": rng.standard_normal((t, d_in)),
        "w1": rng.standard_normal((d_in, d_mid)) / np.sqrt(d_in),
        "b1": rng.standard_normal((1, d_mid)) * 0.3,
        "gain": rng.uniform(0.5, 1.5, size=(1, d_mid)),
        "bias": rng.standard_normal((1, d_mid)) * 0.2,
        "w2": rng.standard_normal((d_mid, 2)) / np.sqrt(d_mid),
        "b2": rng.standard_normal((1, 2)) * 0.1,
    }
    use_softmax = bool(rng.integers(0, 2))

    def run(values: dict):
        leaves = {name: tc.Node(v, requires_grad=True) for name, v in values.items()}
        h1 = tc.tanh(tc.add(tc.matmul(leaves["x"], leaves["w1"]), leaves["b1"]))
        normed = tc.layer_norm(h1, leaves["gain"], leaves["bias"], eps=1e-5)
        if use_softmax:
            normed = tc.softmax_rows(normed)
        pooled = tc.mean_rows(normed)
        logits = tc.add(tc.matmul(pooled, leaves["w2"]), leaves["b2"])
        loss = tc.cross_entropy(logits, label)
        return loss, leaves

    def loss_only(values: dict) -> float:
        loss, _ = run(values)
        return float(loss.value[0, 0])

    def loss_and_grads(values: dict):
        loss, leaves = run(values)
        tc.backward(loss)
        return float(loss.value[0, 0]), {name: node.grad for name, node in leaves.items()}

    return loss_only, loss_and_grads, params


def eer_segment_sweep(bona, spoof):
    """Brute-force EER: FRR/FAR evaluated once per constant segment, walked in
    threshold order, crossing interpolated linearly between adjacent segments.

    Segment j holds the thresholds strictly between the sorted distinct
    scores d[j-1] and d[j] (open-ended at both ends). There a bona fide score
    is rejected iff it is <= d[j-1] and a spoof accepted iff it is >= d[j],
    so both rates are exact rank counts; no threshold value is ever formed,
    since a float midpoint of two scores one ulp apart rounds onto one.
    """
    bona = np.asarray(bona, dtype=np.float64)
    spoof = np.asarray(spoof, dtype=np.float64)
    distinct = np.unique(np.concatenate([bona, spoof]))
    prev = None
    for j in range(distinct.size + 1):
        frr = float(np.mean(bona <= distinct[j - 1])) if j > 0 else 0.0
        far = float(np.mean(spoof >= distinct[j])) if j < distinct.size else 0.0
        if frr == far:
            return frr
        if frr > far:
            lo_frr, lo_far = prev
            denom = (frr - lo_frr) - (far - lo_far)
            lam = (lo_far - lo_frr) / denom
            return lo_frr + lam * (frr - lo_frr)
        prev = (frr, far)
    return 1.0


# --- per-clip training graphs --------------------------------------------------
#
# The graphs the trainers built before they took whole minibatches: one graph
# per clip, summed over the batch and scaled by one over its size. The batched
# graphs must give bitwise the same loss and gradients. The per-clip fusion
# graph picks, renormalizes and mixes the gate scores with these scalar ops.


def pick(a, j: int):
    """Element (0, j) of a 1xN node as a 1x1 node."""
    value = a.value[:, j : j + 1].copy()

    def push(g):
        full = np.zeros_like(a.value)
        full[0, j] = g[0, 0]
        tc._acc(a, full)

    return tc.Node(value, (a,), "pick", push=push)


def srecip(s):
    """Reciprocal of a 1x1 node."""
    value = 1.0 / s.value

    def push(g):
        tc._acc(s, -g * value * value)

    return tc.Node(value, (s,), "srecip", push=push)


def smul(a, s):
    """A matrix node times a 1x1 node."""
    sv = s.value[0, 0]

    def push(g):
        if a.needs_grad:
            tc._acc(a, g * sv)
        if s.needs_grad:
            tc._acc(s, np.array([[float((g * a.value).sum())]]))

    return tc.Node(a.value * sv, (a, s), "smul", push=push)


def transpose(a):
    def push(g):
        tc._acc(a, g.T)

    return tc.Node(a.value.T.copy(), (a,), "transpose", push=push)


def sum_all(a):
    """The sum of every element of a node, as a 1x1 node."""
    value = np.array([[float(a.value.sum())]])

    def push(g):
        tc._acc(a, np.full_like(a.value, g[0, 0]))

    return tc.Node(value, (a,), "sum_all", push=push)


def expert_clip_loss(model, leaves, feats, label, dropout_rng=None, layer0=None):
    """One clip's expert loss graph; `layer0` is the clip's x@W0 or None."""
    h = tc.constant(feats)
    for i in range(model.n_layers):
        w = leaves[f"enc.w{i}"]
        if i == 0 and layer0 is not None and not w.needs_grad:
            base = tc.constant(layer0)
        else:
            base = tc.matmul(h, w)
        pre = tc.add(base, leaves[f"enc.b{i}"])
        if model.has_adapters:
            lora = model.lora
            x_in = h
            if dropout_rng is not None and lora.dropout > 0.0:
                keep = dropout_rng.random(h.shape) >= lora.dropout
                x_in = tc.mul(h, tc.constant(keep / (1.0 - lora.dropout)))
            delta = tc.matmul(tc.matmul(x_in, leaves[f"lora.a{i}"]), leaves[f"lora.b{i}"])
            pre = tc.add(pre, tc.scale(delta, lora.scale))
        h = tc.tanh(pre)
    mag = tc.pair_magnitude(h, ex.PAIR_EPS)
    contrast = tc.log_shift(tc.std_rows(mag), ex.POOL_LOG_EPS)
    motion = tc.log_shift(tc.mean_rows(tc.absval(tc.diff_rows(mag))), ex.POOL_LOG_EPS)
    pooled = tc.scale(tc.hconcat(contrast, motion), ex.POOL_LOG_GAIN)
    logits = tc.add(tc.matmul(pooled, leaves["head.w"]), leaves["head.b"])
    return tc.cross_entropy(logits, ex.LABEL_INDEX[label])


def fusion_clip_loss(system, leaves, z_all, label_idx: int):
    """One clip's fusion loss graph over its expert features [z0, z1, ...]."""
    z0 = z_all[0]
    zbar = tc.constant(z0.mean(axis=0, keepdims=True))
    glogits = tc.add(tc.matmul(zbar, leaves["gate.w"]), leaves["gate.b"])
    scores = tc.softmax_rows(glogits)
    order = np.argsort(-scores.value[0], kind="stable")
    selected = sorted(int(i) for i in order[: system.k])

    picked = {i: pick(scores, i) for i in selected}
    if system.renormalize:
        total = None
        for i in selected:
            total = picked[i] if total is None else tc.add(total, picked[i])
        inv = srecip(total)
        picked = {i: smul(picked[i], inv) for i in selected}

    acc = None
    for i in selected:
        term = smul(tc.constant(z_all[1 + i]), picked[i])
        acc = term if acc is None else tc.add(acc, term)
    fused = tc.layer_norm(tc.add(acc, tc.constant(z0)), leaves["ln.g"], leaves["ln.b"], 1e-5)

    att = tc.matmul(fused, leaves["pool.a"])
    weights = tc.softmax_rows(transpose(att))
    pooled = tc.matmul(weights, fused)
    proj = tc.matmul(pooled, leaves["pool.proj"])
    hidden = tc.tanh(tc.add(tc.matmul(proj, leaves["cls.w1"]), leaves["cls.b1"]))
    logits = tc.add(tc.matmul(hidden, leaves["cls.w2"]), leaves["cls.b2"])
    return tc.cross_entropy(logits, label_idx)


def mean_of_clip_losses(losses):
    """A batch loss as the per-clip trainer formed it: the clip losses added in
    batch order, then scaled by one over the batch size."""
    total = None
    for loss in losses:
        total = loss if total is None else tc.add(total, loss)
    return tc.scale(total, 1.0 / len(losses))


def fit_per_clip(model, train_feats, train_labels, clip_loss, epoch_eer, hyper, seed):
    """The minibatch trainer as it was with one loss graph per clip:
    `clip_loss(leaves, feats, label, dropout_rng)`. Same shuffle and dropout
    seeds, update, plateau halving, early stop and first-minimum copy as
    `experts.fit`; returns (best tensors, history)."""
    lr = hyper.lr
    best = {name: value.copy() for name, value in model.tensors.items()}
    best_eer = float("inf")
    plateau = stall = 0
    history = []
    for epoch in range(hyper.max_epochs):
        shuffle_rng = np.random.Generator(np.random.Philox(stable_seed(seed, "shuffle", epoch)))
        order = shuffle_rng.permutation(len(train_feats))
        epoch_loss = 0.0
        for start in range(0, len(order), hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            leaves = ex.make_leaves(model)
            losses = []
            for idx in batch:
                drop_rng = np.random.Generator(
                    np.random.Philox(stable_seed(seed, "dropout", epoch, int(idx))))
                losses.append(clip_loss(leaves, train_feats[idx], train_labels[idx], drop_rng))
            loss = mean_of_clip_losses(losses)
            tc.backward(loss)
            for name, node in leaves.items():
                if node.requires_grad:
                    model.tensors[name] = model.tensors[name] - lr * node.grad
            epoch_loss += float(loss.value[0, 0]) * len(batch)
        epoch_loss /= len(train_feats)
        eer = epoch_eer()
        history.append({"epoch": epoch, "loss": epoch_loss, "dev_eer": eer, "lr": lr})
        if eer < best_eer:
            best_eer = eer
            best = {name: value.copy() for name, value in model.tensors.items()}
            plateau = stall = 0
        else:
            plateau += 1
            stall += 1
            if plateau >= hyper.plateau_epochs:
                lr = max(lr * hyper.lr_factor, hyper.lr_floor)
                plateau = 0
            if stall >= hyper.patience:
                break
    return best, history
