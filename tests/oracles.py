"""Independent reference implementations used to check the real code paths.

Everything here is deliberately naive (triple loops, per-element finite
differences, per-segment threshold sweeps) and never calls the implementation
it is checking.
"""
from __future__ import annotations

import numpy as np

from amulet import tensor as tc


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
