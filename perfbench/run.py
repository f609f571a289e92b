"""Benchmark of the amulet pipeline.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Runs one workload (`reproduce`, `train` or `score`, see README.md) from the
root of a checkout, against the package under `src/`. The workload seed only
sets the three seeds of the generated config. The timed phase repeats whole
rounds of the workload until `--seconds` have passed; every round's outputs
are checked (checks.py) and each check failure is charged to an operation.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics (tracing.py) with `--trace 1`.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = REPO / ".perfbench-out"

# Per-class clip counts (train, dev, eval) and the epoch cap of every trainer.
# `reproduce` is a whole small experiment; `train` has enough epochs that the
# reverse-mode graph outweighs fusion feature caching; `score` has a larger
# eval split over a bank trained for one epoch.
WORKLOADS = {
    "reproduce": {"sizes": (6, 2, 4), "epochs": 1, "setups": 5},
    "train": {"sizes": (12, 2, 1), "epochs": 3, "setups": 3},
    "score": {"sizes": (6, 1, 8), "epochs": 1, "setups": 3},
}
RERUNS = 5               # cache-hit reruns after each cold round
FORWARD_SAMPLES = 4      # clips per condition checked by the numpy E0 forward
JOBS = min(2, os.cpu_count() or 1)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "rerun_s": "s",
                    "peak_rss_mb": "MB", "disk_mb": "MB"}


def derive_seed(seed: int, name: str) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}:{name}".encode()).digest()[:4], "little")


def make_config(workload: str, seed: int) -> dict:
    """The full config of one workload: default roster, T6, the seven mixed
    conditions and k = 3/4/5, with reduced sizes and capped epochs."""
    spec = WORKLOADS[workload]
    n_train, n_dev, n_eval = spec["sizes"]
    hyper = {"lr": 1e-4, "batch_size": 16, "max_epochs": spec["epochs"], "plateau_epochs": 3,
             "lr_factor": 0.5, "lr_floor": 1e-7, "patience": 10}
    return {
        "out_dir": "unused",
        "seeds": {name: derive_seed(seed, name) for name in ("data", "training", "fusion")},
        "synth": {"n_train": n_train, "n_dev": n_dev, "n_eval": n_eval, "clip_seconds": 1.0,
                  "sample_rate": 16000, "artifact_strength": 1.0, "harmonics_min": 3,
                  "harmonics_max": 8, "noise_floor_db": -40.0, "peak": 0.85},
        "encoder": {"frame_len": 160, "hop": 160, "hidden_dims": [64, 64, 64]},
        "roster": {"E1": "T1", "E2": "T2", "E3": "T3", "E4": "T4", "E5": "T5"},
        "eval_extra": ["T6"],
        "mixed": ["noise_first", "filter_first", "rawboost4", "rawboost5", "rawboost6",
                  "rawboost7", "rawboost8"],
        "lora": {"rank": 4, "alpha": 16.0, "dropout": 0.1, "scale_mode": "alpha_over_r"},
        "expert_train": dict(hyper),
        "fusion_train": dict(hyper),
        "k_values": [3, 4, 5],
        "subset_fraction": 0.25,
        "renormalize": False,
    }


def quiet(_message) -> None:
    pass


# --- set-up ---------------------------------------------------------------------------


def build_inputs(workload: str, raw: dict, root: Path) -> None:
    """Everything a workload's timed phase reads, built with the program's own
    stages. `reproduce` needs only the resolved config."""
    from amulet.cli import Pipeline
    from amulet.config import validate_config

    config = validate_config(raw)
    if workload == "reproduce":
        return
    root.mkdir(parents=True, exist_ok=True)
    pipe = Pipeline(config, root, jobs=JOBS, log=quiet)
    pipe.synth()
    if workload == "train":
        for condition in config.train_conditions:
            pipe.attack(condition)
        return
    pipe.attack()
    pipe.train_shared()
    pipe.train_ase()
    pipe.train_fusion()


def timed_setups(args, root: Path) -> float:
    """Median wall time of fresh processes that import the package, resolve
    the config and build the workload's inputs; the last build stays."""
    times = []
    for _ in range(WORKLOADS[args.workload]["setups"]):
        shutil.rmtree(root, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--build-inputs", str(root)],
            check=True, stdout=subprocess.DEVNULL, timeout=170,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# --- rounds ---------------------------------------------------------------------------


class Round:
    """One round of a workload: its timings and the failures charged to its
    operations."""

    def __init__(self, ops):
        self.ops = list(ops)
        self.failures = {}
        self.wall = 0.0
        self.reruns = []
        self.disk = 0
        self.digest = None
        self.info = {}

    def fail_all(self, reason: str) -> None:
        self.add({op: [reason] for op in self.ops})

    def add(self, failures: dict) -> None:
        for op, reasons in failures.items():
            self.failures.setdefault(op, []).extend(reasons)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op in self.failures)


def _remove(*paths) -> None:
    for path in paths:
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


class Runner:
    def __init__(self, workload: str, raw: dict, root: Path):
        from amulet import cli
        from amulet.config import validate_config

        self.workload = workload
        self.raw = raw
        self.root = root
        self.config = validate_config(raw)
        self.cli = cli
        self.logs = []

    def pipeline(self):
        self.logs.clear()
        return self.cli.Pipeline(self.config, self.root, jobs=JOBS, log=self.logs.append)

    def _stages_ran(self) -> list:
        return [line for line in self.logs if line.endswith("] running")]

    def _rerun(self, rnd: Round, stages) -> None:
        """Run the stages again on the finished root: every one must skip and
        the checksum manifest must not change."""
        for _ in range(RERUNS):
            pipe = self.pipeline()
            start = time.perf_counter()
            for stage in stages:
                getattr(pipe, stage)()
            rnd.reruns.append(time.perf_counter() - start)
            ran = self._stages_ran()
            if ran:
                rnd.fail_all(f"rerun did not skip: {ran[0]}")
            if rnd.digest is not None and self._digest() != rnd.digest:
                rnd.fail_all("reports/checksums.json changed on rerun")

    def _digest(self) -> str:
        return checks.sha256_file(self.root / "reports" / "checksums.json")

    def run_round(self, index: int) -> Round:
        if self.workload == "train":
            rnd = Round(checks.train_ops(self.raw))
        else:
            rnd = Round(checks.score_ops(self.raw))
        try:
            getattr(self, f"_round_{self.workload}")(rnd, index)
        except Exception:  # a crashing stage fails the round, the run reports it
            traceback.print_exc()
            rnd.fail_all("stage raised")
            rnd.info["crashed"] = True
        return rnd

    def _round_reproduce(self, rnd: Round, index: int) -> None:
        _remove(self.root)
        self.root.mkdir(parents=True)
        pipe = self.pipeline()
        start = time.perf_counter()
        pipe.reproduce()
        rnd.wall = time.perf_counter() - start
        self._finish_scored(rnd, index, ["reproduce"])

    def _round_score(self, rnd: Round, index: int) -> None:
        state = self.root / "state"
        _remove(self.root / "scores", self.root / "reports",
                state / "evaluate.json", state / "report.json")
        pipe = self.pipeline()
        start = time.perf_counter()
        pipe.evaluate()
        pipe.report()
        rnd.wall = time.perf_counter() - start
        self._finish_scored(rnd, index, ["evaluate", "report"])

    def _finish_scored(self, rnd: Round, index: int, stages) -> None:
        rnd.disk = checks.tree_bytes(self.root)
        rnd.digest = self._digest()
        self._rerun(rnd, stages)
        rnd.add(checks.check_scored_root(self.root, self.raw, FORWARD_SAMPLES, index))

    def _round_train(self, rnd: Round, index: int) -> None:
        state = self.root / "state"
        _remove(self.root / "checkpoints", *state.glob("train-*.json"))
        pipe = self.pipeline()
        e0 = self.root / "checkpoints" / "e0.json"
        digests = {}
        for stage, key in (("train_shared", "shared"), ("train_ase", "ase"),
                           ("train_fusion", "fusion")):
            start = time.perf_counter()
            getattr(pipe, stage)()
            rnd.wall += time.perf_counter() - start
            digests[key] = checks.sha256_file(e0)
        rnd.disk = checks.tree_bytes(self.root)
        self._rerun(rnd, ["train_shared", "train_ase", "train_fusion"])
        rnd.add(checks.check_trained_root(self.root, self.raw, digests))
        if index == 0:
            rnd.info["e0_train_ce"] = checks.e0_fit(self.root, self.raw)


# --- reporting ------------------------------------------------------------------------


def print_rounds(rounds) -> bool:
    """Print digests and failures; returns False when rounds of one seed
    disagree or a round crashed."""
    ok = True
    seen = set()
    digests = {r.digest for r in rounds if r.digest is not None}
    for i, rnd in enumerate(rounds):
        print(f"round={i} wall_s={rnd.wall:.4f} rerun_s={' '.join(f'{t:.4f}' for t in rnd.reruns)}")
        if rnd.digest is not None:
            print(f"checksums_sha256 round={i} {rnd.digest}")
        for key, value in rnd.info.items():
            print(f"{key} round={i} {value}")
            ok = ok and key != "crashed"
        for op, reasons in rnd.failures.items():
            for reason in reasons:
                if (op, reason) not in seen:
                    seen.add((op, reason))
                    print(f"FAILED {op}: {reason}")
    if len(digests) > 1:
        print(f"rounds of one seed disagree on reports/checksums.json: {sorted(digests)}")
        ok = False
    return ok


def emit(correct: bool, rounds, metrics: dict) -> None:
    result = {
        "correct": correct,
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


def per_layer_unit(metric: str) -> str:
    if metric.endswith("_gflop"):
        return "GFLOP"
    if metric.endswith("_s"):
        return "s"
    return "count"


def run_untraced(args, work: Path) -> int:
    root = work / "root"
    setup_s = timed_setups(args, root)
    runner = Runner(args.workload, make_config(args.workload, args.seed), root)
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(runner.run_round(len(rounds)))
        if rounds[-1].info.get("crashed"):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    correct = print_rounds(rounds)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall for r in rounds),
        "rerun_s": statistics.median(t for r in rounds for t in r.reruns) if rounds[0].reruns else 0.0,
        "peak_rss_mb": peak_mb,
        "disk_mb": statistics.median(r.disk for r in rounds) / 1e6,
    }
    emit(correct, rounds, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()})
    return 0


def run_traced(args, work: Path) -> int:
    """Set up in-process under the tracer, then alternate untraced and traced
    rounds. Per-layer figures are one set-up plus one timed round: counts
    from the first traced round, times averaged over the traced rounds."""
    modules = {name: importlib.import_module(f"amulet.{name}") for name in tracing.MODULES}
    tracer = tracing.Tracer()
    spans_path = work / "spans.jsonl"
    _remove(spans_path)
    root = work / "root"
    _remove(root)
    raw = make_config(args.workload, args.seed)

    tracer.install(modules)
    try:
        build_inputs(args.workload, raw, root)
    finally:
        tracer.uninstall()
    setup = tracing.summarize(tracer.spans, tracer.nodes)
    tracer.dump(spans_path, "setup")

    runner = Runner(args.workload, raw, root)
    rounds, plain, traced = [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(traced) < 1 or time.perf_counter() < deadline:
        trace_this = len(rounds) % 2 == 1
        tracer.reset()
        if trace_this:
            tracer.install(modules)
        try:
            rnd = runner.run_round(len(rounds))
        finally:
            if trace_this:
                tracer.uninstall()
        rounds.append(rnd)
        if rnd.info.get("crashed"):
            break
        if trace_this:
            traced.append((rnd.wall, tracing.summarize(tracer.spans, tracer.nodes)))
            tracer.dump(spans_path, f"round{len(rounds) - 1}")
        else:
            plain.append(rnd.wall)
    correct = print_rounds(rounds)
    if not traced:
        emit(False, rounds, {})
        return 0

    summaries = [s for _, s in traced]
    metrics = {}
    for name in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(w for w, _ in traced) - statistics.median(plain)
        elif tracing.is_count(name):
            counts = [s.get(name, 0) for s in summaries]
            if len(set(counts)) > 1:
                print(f"{name} differs between traced rounds: {counts}")
                correct = False
            value = setup.get(name, 0) + counts[0]
        else:
            value = setup.get(name, 0.0) + statistics.fmean(s.get(name, 0.0) for s in summaries)
        metrics[name] = {"value": value, "unit": per_layer_unit(name)}
    emit(correct, rounds, metrics)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-inputs", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "amulet" / "cli.py").is_file():
        print(f"error: no amulet package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.build_inputs is not None:
        build_inputs(args.workload, make_config(args.workload, args.seed), args.build_inputs)
        return 0

    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            return run_traced(args, work)
        return run_untraced(args, work)
    finally:
        _remove(work / "root")


if __name__ == "__main__":
    sys.exit(main())
