"""Batch pipeline driver: one executable, one JSON config, cached stages.

Every stage is (name, inputs, outputs, fn): the artifacts it reads, those it
writes, and the work. Stages are idempotent: each records a fingerprint of
the resolved config plus content hashes of its inputs and outputs, and is
skipped when nothing changed. The eval audio that `evaluate` reads is the
one unwatched read. A stale stage's inputs must exist; a missing one is
reported with the command that writes it. A cache check reads the stage's
state file, takes one `stat` per watched path (walking the directories among
them) and hashes the files; it parses no artifact, since stages load their
manifests and checkpoints only when they run. Watched paths are strings
under the output root. Within one `Pipeline` (one command), each watched
file is hashed and each watched directory walked once per batch of stages
that runs, and once in all when every stage skips: its sha256 or its
listing is kept in memory until stages run, and stands in for the path's
`stat`. Stages run in batches (`Pipeline.run_stages`). No stage of a
batch may write what another stage of it watches, so only the digests and
listings under the running stages' outputs are dropped before a batch runs
and before each of its stages is recorded, and inputs the stages share are
hashed once per batch; all of them are dropped after the batch, since a
stage may rewrite files outside its outputs. Nothing of it is stored, so
every command hashes every file it watches again.

Independent work runs on `--jobs` forked worker processes
(`Pipeline._map`): the attacked conditions, the attack-specific experts, the
fusion features, the fusion heads and the per-condition scoring. Workers
inherit what the parent loaded, buffer their log lines and hand them back
with their results; the parent replays them, records stages and writes
scores in submission order, so outputs and logs are those of `--jobs 1`.
The fusion features are the exception to handing results back: workers
write them into one shared memory mapping made before they fork, which the
fusion-head workers then inherit.

`reproduce` chains synth, attacks, expert and fusion training, scoring, and
reporting, ending with a checksum manifest over the outputs of every stage
the config names.

Exit codes: 0 success, 1 user/config error, 2 internal invariant violation.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import mmap
import os
import stat
import sys
import traceback
from contextlib import closing
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import attacks, corpus, fusion, metrics
from . import experts as ex
from .audio import AudioError
from .config import ConfigError, ExperimentConfig, Seeds, validate_config
from .experts import CheckpointError, FrozenContractError
from .tensor import GraphError, NonFiniteError


class MissingArtifactError(RuntimeError):
    pass


# Bytes per read when hashing a watched file; every WAV and all but the
# largest checkpoints fit in one read.
_HASH_READ = 1 << 18


def _hash_file(path) -> str:
    """sha256 of a file's bytes, read with plain system calls: a buffered
    file object adds a few microseconds per file, and most watched files
    are small."""
    digest = hashlib.sha256()
    fd = os.open(path, os.O_RDONLY)
    try:
        while chunk := os.read(fd, _HASH_READ):
            digest.update(chunk)
    finally:
        os.close(fd)
    return digest.hexdigest()


def _walk(top: str, rel: str, files: dict) -> None:
    """Add every file under directory `top` to `files` as {rel/...: path},
    following file symlinks but not directory symlinks, as `Path.rglob`."""
    with os.scandir(top) as entries:
        for entry in entries:
            sub = rel + os.sep + entry.name
            if entry.is_dir(follow_symlinks=False):
                _walk(entry.path, sub, files)
            elif entry.is_file():
                files[sub] = entry.path


# The command that writes each stage input, by the start of its path
# relative to the root; the first match names it.
_WRITERS = (
    ("manifests/T0.jsonl", "synth"), ("audio/T0", "synth"),
    ("manifests/", "attack"), ("audio/", "attack"),
    ("checkpoints/e0.json", "train-shared"), ("checkpoints/ase_", "train-ase"),
    ("checkpoints/fusion_top", "train-fusion"), ("scores/", "evaluate"),
)

# (pipeline, thunks) of the batch a worker pool runs. `_map` sets it before
# the pool forks and clears it after: closures do not pickle, so workers
# inherit the thunks and receive only an index.
_batch = None


def _run_forked(index: int) -> tuple:
    """Run thunk `index` of the inherited batch with the pipeline's log
    lines buffered. Returns (lines, result, None), or (lines, None,
    (exception, formatted traceback)) when the thunk raised."""
    pipeline, thunks = _batch
    lines = []
    sink, pipeline._log = pipeline._log, lines.append
    try:
        return lines, thunks[index](), None
    except Exception as exc:  # re-raised in the parent, after the lines
        return lines, None, (exc, traceback.format_exc())
    finally:
        pipeline._log = sink


class Pipeline:
    def __init__(self, config: ExperimentConfig, out_root, jobs: int = 1, log=None):
        self.cfg = config
        self.root = Path(out_root)
        root = str(self.root)
        # every artifact path is this prefix plus its path relative to the root
        self._prefix = "" if root == "." else os.path.join(root, "")
        self.jobs = max(1, jobs)
        self._log = log if log is not None else (lambda msg: print(msg, flush=True))
        self._fingerprint = config.fingerprint()
        self._digests = {}  # file path -> sha256; emptied after each batch of stages
        self._listings = {}  # directory path -> `_expand` of it; emptied with the digests

    def log(self, stage: str, message: str) -> None:
        self._log(f"[{stage}] {message}")

    # --- stage caching -------------------------------------------------------

    def _path(self, *parts: str) -> str:
        return self._prefix + os.sep.join(parts)

    def _rel(self, path: str) -> str:
        """`path`, a normalized path under the root, relative to the root."""
        if not path.startswith(self._prefix) or (not self._prefix and os.path.isabs(path)):
            raise ValueError(f"{path!r} is not under the output root {str(self.root)!r}")
        return path[len(self._prefix):]

    def _state_path(self, stage: str) -> str:
        return self._path("state", f"{stage}.json")

    def _expand(self, paths) -> dict:
        """{path relative to the root: path} of every existing file among
        `paths`, directories expanded recursively. A path takes one `stat`
        unless its digest or listing is kept (a kept digest is a file that
        exists), and a directory is walked once until stages run."""
        files = {}
        for path in paths:
            path = os.fspath(path)
            rel = self._rel(path)
            if path in self._digests:
                files[rel] = path
                continue
            listing = self._listings.get(path)
            if listing is None:
                try:
                    mode = os.stat(path).st_mode
                except OSError:  # missing, as `os.path.exists` sees it
                    continue
                if not stat.S_ISDIR(mode):
                    files[rel] = path
                    continue
                listing = self._listings[path] = {}
                _walk(path, rel, listing)
            files.update(listing)
        return files

    def _tree_hashes(self, paths) -> dict:
        digests = self._digests
        out = {}
        for rel, path in self._expand(paths).items():
            digest = digests.get(path)
            if digest is None:
                digest = digests[path] = _hash_file(path)
            out[rel] = digest
        return out

    def stage_cached(self, stage: str, watched) -> bool:
        try:
            with open(self._state_path(stage)) as f:
                state = json.load(f)
        except (FileNotFoundError, ValueError):  # missing, or does not parse: stale
            return False
        if state.get("config") != self._fingerprint:
            return False
        recorded = state.get("files", {})
        if not recorded:
            return False
        current = self._tree_hashes(watched)
        return current == recorded

    def record_stage(self, stage: str, watched) -> None:
        state = {"config": self._fingerprint, "files": self._tree_hashes(watched)}
        path = self._state_path(stage)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"  # replaced whole, so no crash leaves it torn
        with open(tmp, "w") as f:
            f.write(json.dumps(state, sort_keys=True, separators=(",", ":")) + "\n")
        os.replace(tmp, path)

    def run_stage(self, stage: str, inputs, outputs, fn) -> bool:
        """Returns True when the stage ran, False when its cache was fresh."""
        return self.run_stages([(stage, inputs, outputs, fn)])[0]

    def run_stages(self, stages, prepare=None) -> list:
        """Run the stale ones of `stages`, (name, inputs, outputs, fn), on up
        to `jobs` workers. Returns, per stage, True when it ran.

        A stage's cache watches its inputs plus its outputs. Every cache is
        checked first; then every input of a stale stage must exist, and
        `prepare` is called once, in this process, so that its work is
        shared by the stages (and inherited by the workers). Each stage is
        logged and recorded here, in order, as its result arrives. The
        stages of one batch must be independent: no stage may write a file
        that another stage of the batch watches, since they run
        concurrently. So the digests and listings kept from the cache
        checks stay valid while the batch runs, except those under the
        running stages' outputs, which are dropped before the batch and
        before each record. A stage may still rewrite a file outside its
        outputs that a later batch watches, so all of them are dropped
        after the batch."""
        stale = [not self.stage_cached(name, inputs + outputs)
                 for name, inputs, outputs, _ in stages]
        if not any(stale):
            for name, *_ in stages:
                self.log(name, "skipped (outputs up to date)")
            return stale
        missing = [path for (_, inputs, _, _), run in zip(stages, stale) if run
                   for path in inputs if not os.path.exists(path)]
        if missing:
            path = os.fspath(missing[0])
            rel = self._rel(path).replace(os.sep, "/")
            writer = next(writer for prefix, writer in _WRITERS if rel.startswith(prefix))
            raise MissingArtifactError(f"{path} not found; run `amulet {writer}` first")
        if prepare is not None:
            prepare()
        thunks = [self._stage_thunk(name, fn)
                  for (name, *_, fn), run in zip(stages, stale) if run]
        written = [os.fspath(path) for (_, _, outputs, _), run in zip(stages, stale) if run
                   for path in outputs]
        self._forget(written)
        try:
            with closing(self._map(thunks)) as results:
                for (name, inputs, outputs, _), run in zip(stages, stale):
                    if not run:
                        self.log(name, "skipped (outputs up to date)")
                        continue
                    next(results)
                    self._forget(written)
                    self.record_stage(name, inputs + outputs)
                    self.log(name, "done")
        finally:
            self._forget()
        return stale

    def _forget(self, paths=None) -> None:
        """Drop the kept digests and listings of `paths` and of everything
        under them, or all of them when `paths` is None."""
        if paths is None:
            self._digests.clear()
            self._listings.clear()
            return
        exact = set(paths)
        under = tuple(path + os.sep for path in exact)
        for kept in (self._digests, self._listings):
            for path in [p for p in kept if p in exact or p.startswith(under)]:
                del kept[path]

    def _stage_thunk(self, name: str, fn):
        def run():
            self.log(name, "running")
            fn()
        return run

    def _map(self, thunks):
        """Yield each thunk's result, in order. With one job or one thunk they
        run here, one after another. Otherwise `min(jobs, len(thunks))`
        forked workers run them; each thunk's log lines are replayed here
        before its result is yielded, and its exception is re-raised here
        with its type. Workers are never nested, and none outlives the
        generator: pending thunks are cancelled and running ones awaited."""
        global _batch
        if self.jobs == 1 or len(thunks) <= 1:
            for thunk in thunks:
                yield thunk()
            return
        if _batch is not None:
            raise RuntimeError("a worker pool cannot start inside another one's batch")
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        sys.stdout.flush()  # a forked worker would write buffered output again
        sys.stderr.flush()
        pool = ProcessPoolExecutor(min(self.jobs, len(thunks)),
                                   mp_context=multiprocessing.get_context("fork"))
        try:
            _batch = (self, thunks)  # before the first submit forks the workers
            futures = [pool.submit(_run_forked, i) for i in range(len(thunks))]
            for future in futures:
                lines, result, failure = future.result()
                for line in lines:
                    self._log(line)
                if failure is not None:
                    exc, remote = failure
                    raise exc from RuntimeError(f"in a worker process:\n{remote}")
                yield result
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
            _batch = None

    # --- artifact paths ------------------------------------------------------

    def manifest_path(self, condition: str) -> str:
        return self._path("manifests", f"{condition}.jsonl")

    def audio_dir(self, condition: str) -> str:
        return self._path("audio", condition)

    def ckpt_path(self, name: str) -> str:
        return self._path("checkpoints", f"{name}.json")

    def fusion_path(self, k: int) -> str:
        return self.ckpt_path(f"fusion_top{k}")

    def score_path(self, system: str, condition: str) -> str:
        return self._path("scores", f"{system}__{condition}.json")

    def corpus_paths(self, conditions) -> list:
        """The manifest and audio directory of each of `conditions`."""
        return [path for condition in conditions
                for path in (self.manifest_path(condition), self.audio_dir(condition))]

    def bank_paths(self) -> list:
        """The expert checkpoints [E0, E1..En], in roster order."""
        return [self.ckpt_path("e0")] + [self.ckpt_path(f"ase_{condition}")
                                         for condition in self.cfg.train_conditions]

    def score_paths(self, conditions) -> list:
        return [self.score_path(system, condition)
                for system in self.system_names() for condition in conditions]

    def report_paths(self) -> list:
        return [self._path("reports", f"{stem}.{ext}")
                for stem in ("single_attack_eer", "mixed_attack_eer", "param_efficiency")
                for ext in ("csv", "txt")]

    # --- stages ----------------------------------------------------------------

    def synth(self) -> bool:
        def fn():
            corpus.build_corpus(self.cfg.synth, self.root, self.cfg.seeds.data)

        return self.run_stage("synth", [], self.corpus_paths(["T0"]), fn)

    def attack_conditions(self) -> list:
        return self.cfg.train_conditions + list(self.cfg.eval_extra) + list(self.cfg.mixed)

    @staticmethod
    def _pick(conditions: list, only: str | None) -> list:
        """`conditions`, or only `only`, which must be one of them."""
        if only is None:
            return conditions
        if only not in conditions:
            raise ConfigError(
                [f"unknown condition {only!r}; valid conditions: {', '.join(conditions)}"])
        return [only]

    def attack(self, only: str | None = None) -> None:
        base = self.corpus_paths(["T0"])
        loaded = {}

        def prepare():
            loaded["base"] = corpus.load_manifest(base[0])

        stages = [
            (f"attack-{condition}", base, self.corpus_paths([condition]),
             lambda c=condition: self._build_condition(loaded["base"], c))
            for condition in self._pick(self.attack_conditions(), only)
        ]
        self.run_stages(stages, prepare)

    def _build_condition(self, base: corpus.Manifest, condition: str) -> None:
        """Train/dev clips (training conditions only) under the train preset,
        then eval clips under the eval preset, into one manifest."""
        seed = self.cfg.attack_seed(condition)
        entries = []
        if condition in self.cfg.train_conditions:
            entries = corpus.build_variant(
                [e for e in base.entries if e.split != "eval"],
                attacks.preset(self.cfg.train_preset_name(condition), seed), condition, self.root)
        entries += corpus.build_variant(base.split("eval"), attacks.preset(condition, seed),
                                        condition, self.root)
        corpus.save_manifest(corpus.Manifest(entries), self.manifest_path(condition))

    def train_shared(self) -> None:
        inputs = self.corpus_paths(["T0"])

        def fn():
            manifest = corpus.load_manifest(inputs[0])
            model, _ = ex.train_shared(
                self.cfg.encoder,
                manifest.split("train"),
                manifest.split("dev"),
                self.root,
                self.cfg.expert_train,
                self.cfg.seeds.training,
                log=lambda msg: self.log("train-shared", msg),
            )
            ex.save_expert_checkpoint(model, self.ckpt_path("e0"))

        self.run_stage("train-shared", inputs, [self.ckpt_path("e0")], fn)

    def train_ase(self, only_condition: str | None = None) -> None:
        base_path = self.ckpt_path("e0")
        loaded = {}

        def prepare():
            loaded["base"], _ = ex.load_expert_checkpoint(base_path)

        stages = []
        for condition in self._pick(self.cfg.train_conditions, only_condition):
            stage = f"train-ase-{condition}"
            out_path = self.ckpt_path(f"ase_{condition}")

            def fn(condition=condition, out_path=out_path, stage=stage):
                manifest = corpus.load_manifest(self.manifest_path(condition))
                model, _ = ex.train_ase(
                    loaded["base"],
                    condition,
                    manifest.split("train"),
                    manifest.split("dev"),
                    self.root,
                    self.cfg.lora,
                    self.cfg.expert_train,
                    self.cfg.seeds.training,
                    log=lambda msg: self.log(stage, msg),
                )
                ex.save_adapter_checkpoint(model, out_path)

            stages.append((stage, [base_path, *self.corpus_paths([condition])], [out_path], fn))
        self.run_stages(stages, prepare)

    def _load_bank(self) -> tuple:
        """Parse and verify each expert checkpoint of `bank_paths` once.
        Returns the bank [E0, E1..En] and, parallel to it, each checkpoint's
        (path relative to the root, content checksum), which a fusion
        checkpoint must list exactly. Only the stages that run the bank,
        `train-fusion` and `evaluate`, load it."""
        paths = self.bank_paths()
        base, checksum = ex.load_expert_checkpoint(paths[0])
        bank, checksums = [base], [checksum]
        for path in paths[1:]:
            model, checksum = ex.load_adapter_checkpoint(path, base)
            bank.append(model)
            checksums.append(checksum)
        refs = [(self._rel(p), c) for p, c in zip(paths, checksums)]
        return bank, refs

    def _fusion_data(self, bank) -> tuple:
        """(features, labels) of the fusion subset and of every dev split,
        with one list of the clip's rows of `fusion.expert_features` per clip.

        The rows are computed on up to `jobs` workers, each taking a
        contiguous run of chunks, straight into one anonymous shared mapping
        of shape (experts, rows, dim) made before they fork; every clip's
        rows are views into it. Clip offsets come from the WAV headers, so
        no clip's samples stay here, and no array crosses a pipe."""
        manifests = [corpus.load_manifest(self.manifest_path(condition))
                     for condition in ["T0", *self.cfg.train_conditions]]
        subset = corpus.sample_fusion_subset(
            manifests, self.cfg.subset_fraction, self.cfg.seeds.fusion
        ).entries
        dev = [e for manifest in manifests for e in manifest.split("dev")]
        entries = subset + dev
        cfg = bank[0].cfg
        counts = [ex.frame_count(corpus.clip_length(e, self.root), cfg, e.clip_id)
                  for e in entries]
        starts = [0, *itertools.accumulate(counts)]
        shape = (len(bank), starts[-1], cfg.output_dim)
        size = shape[0] * shape[1] * shape[2]
        buffer = np.frombuffer(mmap.mmap(-1, 8 * size), np.float64).reshape(shape)
        leaves = [ex.constant_leaves(model) for model in bank]
        # subset and dev clips are chunked apart, as when each was stacked alone
        spans = ex.chunks(range(len(subset))) + ex.chunks(range(len(subset), len(entries)))

        def fill(group):
            for span in group:
                zs, frames = fusion.expert_features(
                    bank, leaves, [corpus.resolve_pcm(entries[i], self.root) for i in span],
                    [entries[i].clip_id for i in span])
                for i, rows in zip(span, frames):
                    if rows.stop - rows.start != counts[i]:
                        raise AudioError(
                            f"{self.root / entries[i].path}: {rows.stop - rows.start} frames, "
                            f"but its WAV header gives {counts[i]}")
                for z, out in zip(zs, buffer):
                    out[starts[span[0]]:starts[span[-1] + 1]] = z.value

        n = min(self.jobs, len(spans))
        groups = [spans[len(spans) * g // n:len(spans) * (g + 1) // n] for g in range(n)]
        list(self._map([lambda group=group: fill(group) for group in groups]))
        z_alls = [[z[lo:hi] for z in buffer] for lo, hi in zip(starts, starts[1:])]
        labels = [e.label for e in entries]
        return ((z_alls[:len(subset)], labels[:len(subset)]),
                (z_alls[len(subset):], labels[len(subset):]))

    def train_fusion(self, only_k: int | None = None) -> None:
        k_values = self.cfg.k_values if only_k is None else [only_k]
        for k in k_values:
            if k not in self.cfg.k_values:
                raise ConfigError(
                    [f"k={k} is not one of the configured presets {self.cfg.k_values}"]
                )
        # the bank and the manifests and audio of the fusion subset and dev clips
        inputs = self.bank_paths() + self.corpus_paths(["T0", *self.cfg.train_conditions])
        loaded = {}

        def prepare():
            loaded["bank"], loaded["refs"] = self._load_bank()
            loaded["data"] = self._fusion_data(loaded["bank"])

        stages = []
        for k in k_values:
            stage = f"train-fusion-top{k}"
            out_path = self.fusion_path(k)

            def fn(k=k, out_path=out_path, stage=stage):
                system = fusion.FusionSystem(
                    loaded["bank"], k, renormalize=self.cfg.renormalize,
                    seed=corpus.stable_seed(self.cfg.seeds.fusion, "init", k),
                )
                fusion.train_fusion(
                    system, *loaded["data"], self.cfg.fusion_train,
                    corpus.stable_seed(self.cfg.seeds.fusion, "train", k),
                    log=lambda msg: self.log(stage, msg),
                )
                fusion.save_fusion_checkpoint(system, out_path, loaded["refs"])

            stages.append((stage, inputs, [out_path], fn))
        self.run_stages(stages, prepare)

    # --- evaluation ------------------------------------------------------------

    def system_names(self) -> list:
        return (
            ["E0"] + self.cfg.expert_ids + ["ensemble"]
            + [f"fused_top{k}" for k in self.cfg.k_values]
        )

    def scored_conditions(self) -> list:
        return self.cfg.single_conditions + list(self.cfg.mixed)

    def evaluate(self) -> None:
        conditions = self.scored_conditions()
        # The eval audio is read but not watched: watching the audio of the
        # scored conditions took a cached `evaluate` plus `report` on
        # perfbench's `score` root from 3.2 to 15-18 ms (2-core VM).
        inputs = (self.bank_paths() + [self.fusion_path(k) for k in self.cfg.k_values]
                  + [self.manifest_path(c) for c in conditions])

        def fn():
            bank, refs = self._load_bank()
            fused = {f"fused_top{k}": fusion.load_fusion_checkpoint(self.fusion_path(k), bank, refs)
                     for k in self.cfg.k_values}
            thunks = [lambda c=c: self._score_condition(bank, fused, c) for c in conditions]
            results = list(self._map(thunks))
            os.makedirs(self._path("scores"), exist_ok=True)
            for condition, (n_clips, buckets) in zip(conditions, results):
                for name, (bona, spoof) in buckets.items():
                    scores = metrics.ScoreSet(bona, spoof, condition, name)
                    metrics.save_scores(scores, self.score_path(name, condition))
                self.log("evaluate", f"scored {condition} ({n_clips} clips)")

        self.run_stage("evaluate", inputs, self.score_paths(conditions), fn)

    def _score_condition(self, bank, fused, condition: str) -> tuple:
        """Score every eval clip of `condition` with every system. Returns
        the clip count and {system: (bona-fide scores, spoof scores)}.
        Inference graphs check no value, so a non-finite logit row raises
        `NonFiniteError` here, before it can reach a score file."""
        manifest = corpus.load_manifest(self.manifest_path(condition))
        entries = sorted(manifest.split("eval"), key=lambda e: e.clip_id)
        if not entries:
            raise MissingArtifactError(f"{condition}: no eval entries to score")
        expert_names = ["E0"] + self.cfg.expert_ids
        buckets = {name: ([], []) for name in self.system_names()}
        bank_leaves = [ex.constant_leaves(model) for model in bank]
        fused_leaves = {name: ex.constant_leaves(system) for name, system in fused.items()}
        for chunk in ex.chunks(entries):
            zs, frames = fusion.expert_features(
                bank, bank_leaves, [corpus.resolve_pcm(e, self.root) for e in chunk],
                [e.clip_id for e in chunk])
            logits = {name: ex.expert_logits(leaves, z, frames).value
                      for name, leaves, z in zip(expert_names, bank_leaves, zs)}
            logits["ensemble"] = fusion.ensemble_logits(list(logits.values()))
            for name, system in fused.items():
                logits[name] = fusion.fused_logits(system, fused_leaves[name], zs, frames).value
            for name, rows in logits.items():
                finite = np.isfinite(rows).all(axis=1)
                if not finite.all():
                    clip_id = chunk[int(np.argmin(finite))].clip_id
                    raise NonFiniteError(f"{name} gave non-finite logits for {condition} clip "
                                         f"{clip_id}")
            for r, entry in enumerate(chunk):
                slot = 0 if entry.label == "bonafide" else 1
                for name, rows in logits.items():
                    buckets[name][slot].append(float(rows[r, 0] - rows[r, 1]))
        return len(entries), buckets

    # --- reporting ---------------------------------------------------------------

    def _param_counts(self) -> tuple:
        """({system: trainable parameters}, encoder parameters of one expert).

        Every count follows from the shapes the config fixes, as
        `experts.new_expert`, `experts.lora_inject` and
        `fusion.fusion_shapes` give them; heads other than the fused ones
        are a training scaffold and not counted. No model is built: their
        random draws would load numpy.random, about 2 MB of peak RSS."""
        dims = self.cfg.encoder.layer_dims
        total = sum(m * n + n for m, n in dims)  # enc.w{i}, enc.b{i}
        adapters = sum(self.cfg.lora.rank * (m + n) for m, n in dims)  # lora.a{i}, lora.b{i}
        shapes = fusion.fusion_shapes(self.cfg.encoder.output_dim, len(self.cfg.roster))
        head = sum(math.prod(shape) for shape in shapes.values())
        counts = {"E0": total, **{expert_id: adapters for expert_id in self.cfg.expert_ids}}
        counts["ensemble"] = 0  # no additional training
        counts.update((f"fused_top{k}", head) for k in self.cfg.k_values)
        return counts, total

    def report(self) -> None:
        reports_dir = self.root / "reports"
        single, mixed = self.cfg.single_conditions, list(self.cfg.mixed)

        def fn():
            reports_dir.mkdir(parents=True, exist_ok=True)
            tp, total = self._param_counts()
            for title, conditions, stem in (
                ("single-attack EER (%)", single, "single_attack_eer"),
                ("mixed-attack EER (%)", mixed, "mixed_attack_eer"),
            ):
                sets = [metrics.load_scores(path) for path in self.score_paths(conditions)]
                report = metrics.build_report(sets, tp)
                (reports_dir / f"{stem}.csv").write_text(metrics.report_to_csv(report))
                (reports_dir / f"{stem}.txt").write_text(
                    metrics.render_report_text(report, title)
                )
            self._write_param_report(reports_dir, tp, total)
            self._write_checksums()

        self.run_stage("report", self.score_paths(single + mixed), self.report_paths(), fn)

    def _write_param_report(self, reports_dir: Path, counts: dict, total: int) -> None:
        """The rows of E0 and each expert of `counts`, from `_param_counts`."""
        rows = [(name, counts[name], 100.0 * counts[name] / total)
                for name in ["E0"] + self.cfg.expert_ids]
        lines = ["system,trainable_params,total_params,percent"]
        for name, trainable, percent in rows:
            lines.append(f"{name},{trainable},{total},{percent!r}")
        csv_text = "\n".join(lines) + "\n"
        (reports_dir / "param_efficiency.csv").write_text(csv_text)

        shared, adapted = rows[0][1], rows[1][1]
        desk_pct = 100.0 * adapted / shared
        big_pct = 100.0 * 3.59e6 / 318e6
        text = [
            "trainable parameters per expert",
            "===============================",
            f"{'system':<10}{'trainable':>12}{'total':>12}{'percent':>10}",
        ]
        for name, trainable, percent in rows:
            text.append(f"{name:<10}{trainable:>12}{total:>12}{percent:>10.2f}")
        text.append("")
        text.append(
            f"note: adapter training touches {adapted} of "
            f"{shared} encoder parameters ({desk_pct:.2f}%) at this scale."
        )
        text.append(
            f"note: at production scale the same recipe trains 3.59M of 318M "
            f"encoder parameters, i.e. {big_pct:.2f}%."
        )
        (reports_dir / "param_efficiency.txt").write_text("\n".join(text) + "\n")

    def _write_checksums(self) -> None:
        """Hash the outputs of every stage the config names."""
        outputs = (self.corpus_paths(["T0", *self.attack_conditions()]) + self.bank_paths()
                   + [self.fusion_path(k) for k in self.cfg.k_values]
                   + self.score_paths(self.scored_conditions()) + self.report_paths())
        out = self.root / "reports" / "checksums.json"
        out.write_text(json.dumps(self._tree_hashes(outputs), sort_keys=True, indent=1) + "\n")

    def reproduce(self) -> None:
        self.synth()
        self.attack()
        self.train_shared()
        self.train_ase()
        self.train_fusion()
        self.evaluate()
        self.report()


# --- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amulet",
        description=(
            "Attack-specific expert training and gated fusion on a synthetic "
            "spoofing-detection corpus. Scores are bona-fide-positive: higher "
            "means more likely genuine."
        ),
    )
    parser.add_argument("--config", default="default",
                        help="path to a JSON config, or 'default' for the built-in defaults "
                             "(print them with validate-config)")
    parser.add_argument("--out", default=None, help="output root (overrides config and AMULET_OUT)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the attacked conditions, the "
                             "attack-specific experts, the fusion features (computed into "
                             "one shared buffer) and heads, and the eval conditions, with "
                             "outputs and logs identical to --jobs 1")
    parser.add_argument("--seed-override", type=int, default=None,
                        help="replace all three stage seeds with values derived from this one")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate-config", help="resolve and print the config, checking every field")
    sub.add_parser("synth", help="build the clean synthetic corpus (condition T0)")
    p_attack = sub.add_parser("attack", help="build attacked variants of the corpus")
    p_attack.add_argument("--condition", default=None)
    sub.add_parser("train-shared", help="fully fine-tune the shared expert on T0")
    p_ase = sub.add_parser("train-ase", help="train adapter experts on attacked conditions")
    p_ase.add_argument("--condition", default=None)
    p_fus = sub.add_parser("train-fusion", help="train the gated fusion head over frozen experts")
    p_fus.add_argument("--k", type=int, default=None)
    sub.add_parser("evaluate", help="score every system on every eval condition")
    sub.add_parser("report", help="render EER matrices and parameter accounting")
    sub.add_parser("reproduce", help="run the full pipeline end to end")
    return parser


def _resolve_out_root(args, config: ExperimentConfig) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("AMULET_OUT")
    if env:
        return Path(env)
    return Path(config.out_dir)


def run_command(args) -> int:
    config = validate_config(args.config)
    if args.seed_override is not None:
        config.seeds = Seeds(*(corpus.stable_seed(args.seed_override, f.name)
                               for f in fields(Seeds)))
    out_root = _resolve_out_root(args, config)
    print(f"[config] resolved: {json.dumps(asdict(config), sort_keys=True)}", flush=True)
    if args.command == "validate-config":
        return 0
    pipeline = Pipeline(config, out_root, jobs=args.jobs)
    out_root.mkdir(parents=True, exist_ok=True)
    if args.command == "synth":
        pipeline.synth()
    elif args.command == "attack":
        pipeline.synth()
        pipeline.attack(args.condition)
    elif args.command == "train-shared":
        pipeline.train_shared()
    elif args.command == "train-ase":
        pipeline.train_ase(args.condition)
    elif args.command == "train-fusion":
        pipeline.train_fusion(args.k)
    elif args.command == "evaluate":
        pipeline.evaluate()
    elif args.command == "report":
        pipeline.report()
    elif args.command == "reproduce":
        pipeline.reproduce()
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run_command(args)
    except ConfigError as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return 1
    except (MissingArtifactError, corpus.ManifestError, attacks.AttackError,
            metrics.ScoreSetError, metrics.ReportError, AudioError, ex.ExpertError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FrozenContractError, NonFiniteError, GraphError, CheckpointError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
