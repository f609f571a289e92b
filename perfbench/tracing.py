"""Outside-in layer tracing for the amulet package.

The tracer wraps public functions of the package's modules (and a few
`cli.Pipeline` methods) from the outside: nothing under `src/` is edited.
Each wrapped call records one span (id, parent id, name, start, end, extra)
on a per-thread parent stack, so spans from worker threads keep their own
parents. Spans stay in memory; `Tracer.dump` writes them out at the end.

A wrapper must replace every binding of a function, not only the module
attribute: `fusion` binds `encoder_forward` with `from ... import`, so the
installer replaces each module-level name that refers to the original object.
"""
from __future__ import annotations

import functools
import json
import threading
import time

# (module, attribute, span name). Spans sharing a name are one metric.
TARGETS = (
    ("cli", "Pipeline.synth", "cli.synth"),
    ("cli", "Pipeline.attack", "cli.attack"),
    ("cli", "Pipeline.train_shared", "cli.train_shared"),
    ("cli", "Pipeline.train_ase", "cli.train_ase"),
    ("cli", "Pipeline.train_fusion", "cli.train_fusion"),
    ("cli", "Pipeline.evaluate", "cli.evaluate"),
    ("cli", "Pipeline.report", "cli.report"),
    ("cli", "Pipeline.stage_cached", "cli.cache_check"),
    ("cli", "Pipeline.record_stage", "cli.cache_check"),
    ("corpus", "synth_clip", "corpus.synth_clip"),
    ("corpus", "resolve_clip", "corpus.resolve_clip"),
    ("audio", "read_wav", "audio.read_wav"),
    ("audio", "write_wav", "audio.write_wav"),
    ("attacks", "apply_attack", "attacks.apply_attack"),
    ("experts", "frame_features", "experts.frame_features"),
    ("experts", "encoder_forward", "experts.encoder_forward"),
    ("experts", "loss_nodes", "experts.loss_nodes"),
    ("experts", "save_expert_checkpoint", "experts.checkpoint_io"),
    ("experts", "load_expert_checkpoint", "experts.checkpoint_io"),
    ("experts", "save_adapter_checkpoint", "experts.checkpoint_io"),
    ("experts", "load_adapter_checkpoint", "experts.checkpoint_io"),
    ("fusion", "expert_features", "fusion.expert_features"),
    ("fusion", "fused_logits", "fusion.fused_logits"),
    ("fusion", "save_fusion_checkpoint", "fusion.checkpoint_io"),
    ("fusion", "load_fusion_checkpoint", "fusion.checkpoint_io"),
    ("tensor", "matmul_values", "tensor.matmul_values"),
    ("tensor", "backward", "tensor.backward"),
    ("metrics", "compute_eer", "metrics.compute_eer"),
)

MODULES = ("cli", "config", "corpus", "audio", "attacks", "experts", "fusion", "tensor", "metrics")

# cli stage spans are reported inclusive; every other `_s` metric is self time.
STAGE_SPANS = (
    "cli.synth", "cli.attack", "cli.train_shared", "cli.train_ase",
    "cli.train_fusion", "cli.evaluate", "cli.report",
)

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    *(f"{name}_s" for name in STAGE_SPANS),
    "cli.cache_check_s", "cli.stage_runs", "cli.stage_skips",
    "corpus.synth_clip_calls", "corpus.synth_clip_s", "corpus.resolve_clip_calls",
    "audio.read_wav_calls", "audio.read_wav_s", "audio.write_wav_calls", "audio.write_wav_s",
    "attacks.apply_attack_calls", "attacks.apply_attack_s",
    "experts.frame_features_s", "experts.encoder_forward_calls", "experts.encoder_forward_s",
    "experts.loss_nodes_calls", "experts.loss_nodes_s", "experts.checkpoint_io_s",
    "fusion.expert_features_calls", "fusion.expert_features_s",
    "fusion.fused_logits_calls", "fusion.fused_logits_s", "fusion.checkpoint_io_s",
    "tensor.matmul_values_calls", "tensor.matmul_values_s", "tensor.forward_gflop",
    "tensor.backward_calls", "tensor.backward_s", "tensor.backward_gflop", "tensor.nodes",
    "metrics.compute_eer_calls", "metrics.compute_eer_s",
    "trace.overhead_s",
)

# Metrics that are counts: they must repeat exactly between runs of one seed.
COUNT_SUFFIXES = ("_calls", "_gflop", "_runs", "_skips", ".nodes")


def is_count(metric: str) -> bool:
    return metric.endswith(COUNT_SUFFIXES)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def matmul_flops(a, b) -> int:
    """2*m*k*n for an (m x k) @ (k x n) product."""
    m, k = a.shape
    return 2 * m * k * b.shape[1]


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.backward_depth = 0


class Tracer:
    """Collects spans and counters while installed; see `install`."""

    def __init__(self):
        self.spans = []
        self.nodes = 0
        self._ids = 0
        self._lock = threading.Lock()
        self._state = _ThreadState()
        self._undo = []

    def reset(self) -> None:
        self.spans = []
        self.nodes = 0

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def _wrap(self, fn, name):
        tracer = self
        is_matmul = name == "tensor.matmul_values"
        is_backward = name == "tensor.backward"
        is_cache_check = fn.__name__ == "stage_cached"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state
            stack = state.stack
            sid = tracer._next_id()
            parent = stack[-1] if stack else 0
            extra = None
            if is_matmul:
                extra = ("b" if state.backward_depth else "f", matmul_flops(args[0], args[1]))
            stack.append(sid)
            if is_backward:
                state.backward_depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_backward:
                    state.backward_depth -= 1
            if is_cache_check:
                extra = bool(result)
            tracer.spans.append((sid, parent, name, start, end, extra))
            return result

        return wrapper

    def install(self, package_modules: dict) -> None:
        """Wrap every target in `package_modules` (short name -> module)."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, span_name in TARGETS:
            module = package_modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._set(owner, meth, self._wrap(vars(owner)[meth], span_name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span_name)
            for mod in package_modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        node_cls = package_modules["tensor"].Node
        original_init = node_cls.__init__
        tracer = self

        def counting_init(node, *args, **kwargs):
            tracer.nodes += 1
            original_init(node, *args, **kwargs)

        self._set(node_cls, "__init__", counting_init)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    def dump(self, path, phase: str) -> None:
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps([phase, *span]) + "\n")


def self_times(spans) -> dict:
    """Span id -> self time: duration minus the time of the nearest descendant
    spans that belong to another layer. Same-layer children are looked
    through, so their other-layer descendants are subtracted from the parent.
    `spans` must be in the order the spans ended (children before parents)."""
    by_id = {span[0]: span for span in spans}
    other = {}
    out = {}
    for sid, parent, name, start, end, _ in spans:
        duration = end - start
        out[sid] = duration - other.get(sid, 0.0)
        parent_span = by_id.get(parent)
        if parent_span is None:
            continue
        if layer_of(parent_span[2]) != layer_of(name):
            other[parent] = other.get(parent, 0.0) + duration
        else:
            other[parent] = other.get(parent, 0.0) + other.get(sid, 0.0)
    return out


def summarize(spans, nodes: int) -> dict:
    """Per-layer metrics of one phase: `_s` self times (cli stages inclusive),
    `_calls` counts, GFLOP of matmul_values inside and outside backward,
    cache hits and stage runs, and the number of graph nodes built."""
    selfs = self_times(spans)
    out = {"tensor.nodes": nodes, "tensor.forward_gflop": 0, "tensor.backward_gflop": 0,
           "cli.stage_runs": 0, "cli.stage_skips": 0}
    flops = {"f": 0, "b": 0}
    for sid, _, name, start, end, extra in spans:
        out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
        seconds = end - start if name in STAGE_SPANS else selfs[sid]
        out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + seconds
        if name == "tensor.matmul_values":
            flops[extra[0]] += extra[1]
        elif extra is True:
            out["cli.stage_skips"] += 1
        elif extra is False:
            out["cli.stage_runs"] += 1
    out["tensor.forward_gflop"] = flops["f"] / 1e9
    out["tensor.backward_gflop"] = flops["b"] / 1e9
    return out
