"""Dense 2-D float64 math with reverse-mode gradients.

A small define-by-run graph: every operation returns a `Node` holding its
value (an immutable 2-D float64 array) plus a closure that routes the
incoming gradient to the node's parents. The operation set is exactly what
the encoder / gate / head stack needs (`matmul`, `linear`, `add`, `mul`,
`scale`, `tanh`, `mean_rows`, `std_rows`, `pair_magnitude`, `diff_rows`,
`absval`, `hconcat`, `log_shift`, `softmax_rows`, `layer_norm`,
`cross_entropy`, `attention_pool`, `topk_mix`); there is no broadcasting
beyond row-wise vector ops and no dtype other than float64.

Matrix products accumulate over the inner index in increasing order, so the
result is bitwise identical to a naive triple loop. `np.einsum` happens to
honour that order for outputs with two or more columns and contiguous
operands (verified exhaustively in the test suite), so every product runs on
contiguous copies of operands that arrive as views, such as the transposed
weight `g @ W.T` of a backward pass: on a view einsum orders its loops by
the strides and reorders the sum. A product with two or more rows and fewer
than `NARROW_COLUMNS` columns (a single column, the rank-4 `x@A` products and
their A-gradients) is taken as `(b.T @ a.T).T` on contiguous copies of the
transposes: that product has two or more columns, so each element still
sums the inner index in increasing order, and a product and its transpose
hold the same element sums; einsum reorders a single-column sum and is slow
on narrow outputs. Only a 1xK @ Kx1 product, a pure reduction, falls back to
an explicit loop.

A node allocates its gradient buffer when the first gradient reaches it, so
constants, frozen leaves and every node off the gradient's path hold none;
their `.grad` reads zeros. `backward` releases an interior node's buffer once
its push has passed the gradient on, so afterwards only leaves hold one.

A layer's `x@W + b` is one `linear` node, bitwise `add(matmul(x, W), b)` in
value and gradients: no push reads the product `x@W`, so the graph keeps
only the sum. Its finiteness check is on the sum, which catches whatever a
check on the product caught, since every caller's bias is a leaf and leaves
are checked: a finite bias turns no non-finite product finite.

A node needs a gradient when it is a leaf that requires one or has a parent
that needs one. An op result that needs none keeps its value only (no
parents, no push, no 2-D or finiteness check), so graph functions run on
leaves without gradients are plain inference. Leaves, constants and every
node on a gradient's path are checked, so training stops at the first
non-finite value that reaches a gradient's path.

A training graph covers a whole minibatch: each clip's rows are stacked
after the previous clip's, and `row_segments` gives each clip's row slice.
Row-wise work (products with a weight, bias adds, elementwise ops, layer
norm, row softmax) runs once over the stack; it is bitwise the per-clip
work, since no row reads another. Ops that take `segments` keep per clip
what a per-clip graph did per clip: reductions over one clip's rows
(`std_rows`, `mean_rows`, `diff_rows`, `attention_pool`, `topk_mix`), and
the gradient of a tensor that every clip shares (the weight of `matmul` and
`linear`, the row of a broadcast `add` and the bias of `linear`, the gain
and bias of `layer_norm`), which takes one product or row sum per clip and
adds them from the last clip to the first: the order in which a sum of
per-clip graphs delivers them.
`cross_entropy` folds the per-clip losses in batch order and scales by one
over the batch size, as that sum did.
"""
from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible or non-2-D shapes."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


class GraphError(RuntimeError):
    """The backward graph is malformed (e.g. contains a cycle)."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but outside the operation's domain."""


def as_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def row_segments(counts) -> tuple:
    """Row slices of consecutive blocks holding `counts` rows each."""
    out = []
    start = 0
    for n in counts:
        out.append(slice(start, start + n))
        start += n
    return tuple(out)


def _segments(segments, value: np.ndarray) -> tuple:
    """`segments`, or one segment over every row of `value`."""
    return segments if segments is not None else (slice(0, value.shape[0]),)


# Outputs narrower than this many columns run as the transposed product.
NARROW_COLUMNS = 8


def matmul_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with per-element accumulation in increasing inner index."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    if b.shape[1] < NARROW_COLUMNS and a.shape[0] > 1:
        # einsum reorders the reduction when the output has a single column
        # and is slow on narrow outputs; the transposed product has one row
        # per output column and a.shape[0] >= 2 columns
        bt = np.ascontiguousarray(b.T)
        at = np.ascontiguousarray(a.T)
        return np.einsum("ik,kj->ij", bt, at).T
    if b.shape[1] == 1:
        out = np.zeros((a.shape[0], 1))
        scratch = np.empty_like(out)
        for k in range(a.shape[1]):
            np.multiply(a[:, k : k + 1], b[k, 0], out=scratch)
            np.add(out, scratch, out=out)
        return out
    # einsum orders its loops by operand strides: on a transposed view it
    # reorders the sum, so both operands run as contiguous copies
    return np.einsum("ik,kj->ij", np.ascontiguousarray(a), np.ascontiguousarray(b))


def softmax_values(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def layer_norm_values(x, gain, bias, eps=1e-5):
    """Row-wise layer norm; returns (out, xhat, inv_std) for reuse in backward."""
    if eps <= 0:
        raise DegenerateInputError("layer_norm eps must be positive")
    if x.shape[1] < 2:
        raise DegenerateInputError("layer_norm needs at least 2 features per row")
    mean = x.mean(axis=1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return xhat * gain + bias, xhat, inv_std


def cross_entropy_values(logits: np.ndarray, label: int) -> float:
    m = logits.max()
    lse = m + np.log(np.exp(logits - m).sum())
    return float(lse - logits[0, label])


class Node:
    """One vertex of the define-by-run graph. Values are immutable once set."""

    __slots__ = ("value", "_grad", "parents", "op", "requires_grad", "needs_grad", "_push")

    def __init__(self, value, parents=(), op="leaf", requires_grad=False, push=None):
        needs_grad = requires_grad or any(p.needs_grad for p in parents)
        if needs_grad or not parents:
            value = np.asarray(value, dtype=np.float64)
            if value.ndim != 2:
                raise ShapeError(f"nodes hold 2-D matrices, got shape {value.shape}")
            if not np.isfinite(value).all():
                raise NonFiniteError(f"non-finite values produced by op '{op}'")
            parents = tuple(parents)
        else:
            parents, push = (), None
        self.value = value
        self._grad = None
        self.parents = parents
        self.op = op
        self.requires_grad = requires_grad
        self.needs_grad = needs_grad
        self._push = push

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; zeros where none has arrived."""
        return self._grad if self._grad is not None else np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape}, requires_grad={self.requires_grad})"


def leaf(value, requires_grad=False) -> Node:
    return Node(as_matrix(value), requires_grad=requires_grad)


def constant(value) -> Node:
    return Node(as_matrix(value))


def _acc(node: Node, g: np.ndarray) -> None:
    """Add `g` to the node's gradient. The first arrival allocates the buffer,
    laid out as `zeros_like(value)`, and fills it with `g + 0.0`: bitwise
    `zeros + g`, sign of zero included, and never an alias of `g`.

    A push runs only for a node that needs a gradient, so a one-parent push
    calls this unguarded; a push with several parents computes a parent's
    term only when that parent needs a gradient."""
    if node._grad is None:
        node._grad = np.add(g, 0.0, out=np.empty_like(node.value))
    else:
        node._grad += g


def matmul(a: Node, b: Node, segments=None) -> Node:
    """a @ b. With `segments`, a stacks clips by rows and b is shared: b's
    gradient is one a_c.T @ g_c product per clip, last clip first."""
    value = matmul_values(a.value, b.value)

    def push(g):
        _push_product(a, b, g, segments)

    return Node(value, (a, b), "matmul", push=push)


def _push_product(a: Node, b: Node, g: np.ndarray, segments) -> None:
    """Route the gradient `g` of a @ b: g @ b.T to a, then one a_c.T @ g_c
    per segment to b, last segment first."""
    if a.needs_grad:
        _acc(a, matmul_values(g, b.value.T))
    if b.needs_grad:
        for seg in reversed(_segments(segments, a.value)):
            _acc(b, matmul_values(a.value[seg].T, g[seg]))


def _broadcasts(a_shape, b_shape, op: str) -> bool:
    """Whether `add` broadcasts a 1xN row b over a's rows; raises on shapes
    it cannot add."""
    broadcast = b_shape[0] == 1 and a_shape[0] != 1
    if not broadcast and a_shape != b_shape:
        raise ShapeError(f"{op} shapes disagree: {a_shape} vs {b_shape}")
    if broadcast and a_shape[1] != b_shape[1]:
        raise ShapeError(f"row-broadcast {op} needs matching columns: {a_shape} vs {b_shape}")
    return broadcast


def _push_addend(b: Node, g: np.ndarray, broadcast: bool, segments, value) -> None:
    """Route an add's gradient `g` to its addend b: `g` itself, or for a
    broadcast row one row sum per segment of `value`, last segment first."""
    if not broadcast:
        _acc(b, g)
        return
    for seg in reversed(_segments(segments, value)):
        _acc(b, g[seg].sum(axis=0, keepdims=True))


def add(a: Node, b: Node, segments=None) -> Node:
    """Elementwise add; b may be a 1xN row vector broadcast over a's rows,
    whose gradient is then one row sum per segment, last segment first."""
    broadcast = _broadcasts(a.value.shape, b.value.shape, "add")
    value = a.value + b.value

    def push(g):
        if a.needs_grad:
            _acc(a, g)
        if b.needs_grad:
            _push_addend(b, g, broadcast, segments, a.value)

    return Node(value, (a, b), "add", push=push)


def linear(a: Node, w: Node, bias: Node, segments=None) -> Node:
    """a @ w + bias as one node: bitwise `add(matmul(a, w, segments), bias,
    segments)` in value and every gradient, without keeping the product,
    which no gradient reads. The push passes `g` itself to both products:
    the same bits as the `g + 0.0` copy a product node of its own would
    receive, since `_acc` never leaves a -0.0 in a buffer."""
    value = matmul_values(a.value, w.value)
    broadcast = _broadcasts(value.shape, bias.value.shape, "linear")
    value += bias.value

    def push(g):
        if bias.needs_grad:
            _push_addend(bias, g, broadcast, segments, value)
        _push_product(a, w, g, segments)

    return Node(value, (a, w, bias), "linear", push=push)


def mul(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul shapes disagree: {a.value.shape} vs {b.value.shape}")
    value = a.value * b.value

    def push(g):
        if a.needs_grad:
            _acc(a, g * b.value)
        if b.needs_grad:
            _acc(b, g * a.value)

    return Node(value, (a, b), "mul", push=push)


def scale(a: Node, c: float) -> Node:
    c = float(c)
    value = a.value * c

    def push(g):
        _acc(a, g * c)

    return Node(value, (a,), "scale", push=push)


def tanh(a: Node) -> Node:
    value = np.tanh(a.value)

    def push(g):
        _acc(a, (1.0 - value * value) * g)

    return Node(value, (a,), "tanh", push=push)


def mean_rows(a: Node, segments=None) -> Node:
    """(T x D) -> (1 x D) mean over rows; one row per segment."""
    segments = _segments(segments, a.value)
    value = np.concatenate([a.value[seg].mean(axis=0, keepdims=True) for seg in segments])

    def push(g):
        full = np.empty_like(a.value)
        for c, seg in enumerate(segments):
            t = seg.stop - seg.start
            full[seg] = np.repeat(g[c : c + 1] / t, t, axis=0)
        _acc(a, full)

    return Node(value, (a,), "mean_rows", push=push)


def std_rows(a: Node, eps: float = 1e-12, segments=None) -> Node:
    """(T x D) -> (1 x D) standard deviation over rows (temporal contrast);
    one row per segment."""
    segments = _segments(segments, a.value)
    stats = []
    for seg in segments:
        centered = a.value[seg] - a.value[seg].mean(axis=0, keepdims=True)
        var = np.mean(centered * centered, axis=0, keepdims=True)
        stats.append((np.sqrt(var + eps), centered))
    value = np.concatenate([std for std, _ in stats])

    def push(g):
        full = np.empty_like(a.value)
        for c, seg in enumerate(segments):
            std, centered = stats[c]
            full[seg] = centered * (g[c : c + 1] / ((seg.stop - seg.start) * std))
        _acc(a, full)

    return Node(value, (a,), "std_rows", push=push)


def pair_magnitude(a: Node, eps: float = 1e-12) -> Node:
    """(T x 2K) -> (T x K): magnitude of adjacent column pairs (quadrature)."""
    if a.value.shape[1] % 2:
        raise ShapeError(f"pair_magnitude needs an even column count, got {a.value.shape}")
    even = a.value[:, 0::2]
    odd = a.value[:, 1::2]
    value = np.sqrt(even * even + odd * odd + eps)

    def push(g):
        full = np.empty_like(a.value)
        full[:, 0::2] = g * even / value
        full[:, 1::2] = g * odd / value
        _acc(a, full)

    return Node(value, (a,), "pair_magnitude", push=push)


def diff_rows(a: Node, segments=None) -> Node:
    """(T x D) -> (T-1 x D) first difference along rows, within each segment;
    the output stacks T_c - 1 rows per segment."""
    segments = _segments(segments, a.value)
    if any(seg.stop - seg.start < 2 for seg in segments):
        raise ShapeError("diff_rows needs at least 2 rows per segment")
    steps = row_segments(seg.stop - seg.start - 1 for seg in segments)
    value = np.concatenate([a.value[seg][1:] - a.value[seg][:-1] for seg in segments])

    def push(g):
        full = np.zeros_like(a.value)
        for seg, step in zip(segments, steps):
            full[seg][1:] += g[step]
            full[seg][:-1] -= g[step]
        _acc(a, full)

    return Node(value, (a,), "diff_rows", push=push)


def absval(a: Node) -> Node:
    """Elementwise absolute value (subgradient 0 at the kink)."""
    value = np.abs(a.value)

    def push(g):
        _acc(a, g * np.sign(a.value))

    return Node(value, (a,), "absval", push=push)


def hconcat(a: Node, b: Node) -> Node:
    """Concatenate two nodes along columns."""
    if a.value.shape[0] != b.value.shape[0]:
        raise ShapeError(f"hconcat row counts disagree: {a.value.shape} vs {b.value.shape}")
    value = np.concatenate([a.value, b.value], axis=1)
    split = a.value.shape[1]

    def push(g):
        if a.needs_grad:
            _acc(a, g[:, :split])
        if b.needs_grad:
            _acc(b, g[:, split:])

    return Node(value, (a, b), "hconcat", push=push)


def log_shift(a: Node, eps: float) -> Node:
    """Elementwise log(a + eps); inputs must satisfy a + eps > 0."""
    if eps <= 0:
        raise DegenerateInputError("log_shift eps must be positive")
    shifted = a.value + eps
    if np.any(shifted <= 0):
        raise DegenerateInputError("log_shift input must exceed -eps")
    value = np.log(shifted)

    def push(g):
        _acc(a, g / shifted)

    return Node(value, (a,), "log_shift", push=push)


def softmax_rows(a: Node) -> Node:
    value = softmax_values(a.value)

    def push(g):
        dot = (g * value).sum(axis=1, keepdims=True)
        _acc(a, value * (g - dot))

    return Node(value, (a,), "softmax", push=push)


def layer_norm(x: Node, gain: Node, bias: Node, eps: float = 1e-5, segments=None) -> Node:
    """Row-wise layer norm; gain and bias take one row sum per segment."""
    if gain.value.shape != (1, x.value.shape[1]) or bias.value.shape != (1, x.value.shape[1]):
        raise ShapeError("layer_norm gain/bias must be 1xD rows matching x")
    value, xhat, inv_std = layer_norm_values(x.value, gain.value, bias.value, eps)
    segments = _segments(segments, x.value)

    def push(g):
        if gain.needs_grad:
            gx = g * xhat
            for seg in reversed(segments):
                _acc(gain, gx[seg].sum(axis=0, keepdims=True))
        if bias.needs_grad:
            for seg in reversed(segments):
                _acc(bias, g[seg].sum(axis=0, keepdims=True))
        if x.needs_grad:
            dxhat = g * gain.value
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            _acc(x, inv_std * (dxhat - m1 - xhat * m2))

    return Node(value, (x, gain, bias), "layer_norm", push=push)


def cross_entropy(logits: Node, labels) -> Node:
    """Mean negative log softmax probability of each row's label, for B x K
    logits and B labels (one label for a single row). The per-row losses are
    summed in row order, then scaled by 1/B."""
    if isinstance(labels, (int, np.integer)):
        labels = [labels]
    labels = list(labels)
    if logits.value.shape[0] != len(labels):
        raise ShapeError(f"cross_entropy got {len(labels)} labels for {logits.value.shape} logits")
    for label in labels:
        if not isinstance(label, (int, np.integer)) or not 0 <= int(label) < logits.value.shape[1]:
            raise ValueError(f"label {label!r} invalid for {logits.value.shape[1]} classes")
    labels = [int(label) for label in labels]
    probs = softmax_values(logits.value)
    total = None
    for r, label in enumerate(labels):
        loss = cross_entropy_values(logits.value[r : r + 1], label)
        total = loss if total is None else total + loss
    scale = 1.0 / len(labels)
    value = np.array([[total * scale]])

    def push(g):
        delta = probs.copy()
        delta[np.arange(len(labels)), labels] -= 1.0
        _acc(logits, delta * (g[0, 0] * scale))

    return Node(value, (logits,), "cross_entropy", push=push)


def attention_pool(att: Node, x: Node, segments=None) -> Node:
    """Per segment: softmax over its rows of the one-column scores `att`,
    then the weighted sum of its rows of x. (T x 1), (T x D) -> (1 x D) per
    segment, computed as softmax(att_c.T) @ x_c."""
    if att.value.shape != (x.value.shape[0], 1):
        raise ShapeError(f"attention_pool scores {att.value.shape} do not match {x.value.shape}")
    segments = _segments(segments, x.value)
    weights = [softmax_values(att.value[seg].T.copy()) for seg in segments]
    value = np.concatenate([matmul_values(w, x.value[seg]) for w, seg in zip(weights, segments)])

    def push(g):
        g_att = np.empty_like(att.value)
        g_x = np.empty_like(x.value)
        for c, seg in enumerate(segments):
            gc = g[c : c + 1]
            if att.needs_grad:
                gw = matmul_values(gc, x.value[seg].T)
                dot = (gw * weights[c]).sum(axis=1, keepdims=True)
                g_att[seg] = (weights[c] * (gw - dot)).T
            if x.needs_grad:
                g_x[seg] = matmul_values(weights[c].T, gc)
        if att.needs_grad:
            _acc(att, g_att)
        if x.needs_grad:
            _acc(x, g_x)

    return Node(value, (att, x), "attention_pool", push=push)


def topk_mix(scores: Node, tracks, k: int, renormalize: bool, segments=None) -> Node:
    """Top-k weighted sum of constant feature tracks, per segment.

    Row c of `scores` (B x N) weighs the N tracks' rows `segments[c]`: the k
    largest scores, ties to the lowest index, each optionally divided by
    their sum, multiply their tracks, which are summed in increasing index
    order. The selection is constant; gradients reach the selected scores.
    """
    n = scores.value.shape[1]
    if not 1 <= k <= n:
        raise ShapeError(f"k={k} outside [1, {n}]")
    segments = _segments(segments, tracks[0])
    sv = scores.value
    selections, inverses = [], []
    value = np.empty_like(tracks[0])
    for c, seg in enumerate(segments):
        order = np.argsort(-sv[c], kind="stable")
        selected = sorted(int(i) for i in order[:k])
        weights = {i: sv[c, i] for i in selected}
        inv = None
        if renormalize:
            total = None
            for i in selected:
                total = weights[i] if total is None else total + weights[i]
            inv = 1.0 / total
            weights = {i: weights[i] * inv for i in selected}
        acc = None
        for i in selected:
            term = tracks[i][seg] * weights[i]
            acc = term if acc is None else acc + term
        value[seg] = acc
        selections.append(selected)
        inverses.append(inv)

    def push(g):
        # the arithmetic of a per-clip graph of pick, add, srecip and smul
        # nodes, in the order its backward ran: the weights' terms reach
        # 1/sum from the last selected index to the first
        full = np.zeros_like(sv)
        for c, seg in enumerate(segments):
            selected, inv = selections[c], inverses[c]
            g_w = {i: float((g[seg] * tracks[i][seg]).sum()) for i in selected}
            if not renormalize:
                for i in selected:
                    full[c, i] = g_w[i]
                continue
            g_inv = None
            for i in reversed(selected):
                term = g_w[i] * sv[c, i]
                g_inv = term if g_inv is None else g_inv + term
            g_total = -g_inv * inv * inv
            for i in selected:
                full[c, i] = g_w[i] * inv + g_total
        _acc(scores, full)

    return Node(value, (scores,), "topk_mix", push=push)


def topo_order(root: Node) -> list[Node]:
    """Parents-first order; raises GraphError on a cycle."""
    order: list[Node] = []
    state: dict[int, int] = {}  # 1 = on stack, 2 = done
    stack: list[tuple[Node, int]] = [(root, 0)]
    while stack:
        node, idx = stack.pop()
        if idx == 0:
            mark = state.get(id(node))
            if mark == 2:
                continue
            if mark == 1:
                raise GraphError("cycle detected in computation graph")
            state[id(node)] = 1
        if idx < len(node.parents):
            stack.append((node, idx + 1))
            parent = node.parents[idx]
            mark = state.get(id(parent))
            if mark == 1:
                raise GraphError("cycle detected in computation graph")
            if mark != 2:
                stack.append((parent, 0))
        else:
            state[id(node)] = 2
            order.append(node)
    return order


def backward(root: Node) -> None:
    """Accumulate d(root)/d(leaf) into every tracked leaf's .grad. Interior
    nodes drop their gradient after their push, which nothing reads again."""
    if root.value.shape != (1, 1):
        raise ShapeError(f"backward root must be a 1x1 scalar, got {root.value.shape}")
    order = topo_order(root)
    _acc(root, np.ones((1, 1)))
    for node in reversed(order):
        if node._push is not None and node.needs_grad:
            node._push(node.grad)
            node._grad = None
