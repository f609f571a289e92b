"""Batch pipeline driver: one executable, one JSON config, cached stages.

Stages are idempotent: each records a fingerprint of the resolved config plus
content hashes of everything it read and wrote, and is skipped when nothing
changed. A cache check reads the stage's state file, takes one `stat` per
watched path (walking the directories among them) and hashes the files; it
parses no artifact, since stages load their manifests and checkpoints only
when they run. Watched paths are strings under the output root. Within one
`Pipeline` (one command), each watched file is hashed at most once: its
sha256 is kept in memory until stages run. Stages run in batches
(`Pipeline.run_stages`); all kept digests are dropped before a batch runs,
before each of its stages is recorded and after the batch, since a stage
that runs may rewrite any file. Nothing of it is stored, so every command
hashes every file it watches again.

Independent work runs on `--jobs` forked worker processes
(`Pipeline._map`): the attacked conditions, the attack-specific experts, the
fusion heads and the per-condition scoring. Workers inherit what the parent
loaded, buffer their log lines and hand them back with their results; the
parent replays them, records stages and writes scores in submission order,
so outputs and logs are those of `--jobs 1`.

`reproduce` chains synth, attacks, expert and fusion training, scoring, and
reporting, ending with a checksum manifest over every artifact.

Exit codes: 0 success, 1 user/config error, 2 internal invariant violation.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import stat
import sys
import traceback
from contextlib import closing
from dataclasses import asdict
from pathlib import Path

from . import attacks, corpus, fusion, metrics
from . import experts as ex
from .audio import AudioError
from .config import ConfigError, ExperimentConfig, validate_config
from .experts import CheckpointError, FrozenContractError
from .tensor import GraphError, NonFiniteError


class MissingArtifactError(RuntimeError):
    pass


def _hash_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


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
        self._digests = {}  # file path -> sha256; emptied whenever a stage runs

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
        `paths`, directories expanded recursively, with one `stat` per path."""
        files = {}
        for path in paths:
            path = os.fspath(path)
            rel = self._rel(path)
            try:
                mode = os.stat(path).st_mode
            except OSError:  # missing, as `os.path.exists` sees it
                continue
            if stat.S_ISDIR(mode):
                _walk(path, rel, files)
            else:
                files[rel] = path
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

    def run_stage(self, stage: str, watched, fn) -> bool:
        """Returns True when the stage ran, False when its cache was fresh."""
        return self.run_stages([(stage, watched, fn)])[0]

    def run_stages(self, stages, prepare=None) -> list:
        """Run the stale ones of `stages`, (name, watched, fn) triples, on up
        to `jobs` workers. Returns, per stage, True when it ran.

        Every cache is checked first; `prepare` is called once, in this
        process, when some stage is stale, so that its work is shared by the
        stages (and inherited by the workers). Each stage is logged and
        recorded here, in order, as its result arrives. The stages of one
        batch must be independent: no stage may write a file that another
        stage of the batch watches, since they run concurrently. Any of
        them may rewrite other files, so the digests kept so far are dropped
        before the batch, before each record and after the batch."""
        stale = [not self.stage_cached(name, watched) for name, watched, _ in stages]
        if not any(stale):
            for name, _, _ in stages:
                self.log(name, "skipped (outputs up to date)")
            return stale
        if prepare is not None:
            prepare()
        thunks = [self._stage_thunk(name, fn)
                  for (name, _, fn), run in zip(stages, stale) if run]
        self._digests.clear()
        try:
            with closing(self._map(thunks)) as results:
                for (name, watched, _), run in zip(stages, stale):
                    if not run:
                        self.log(name, "skipped (outputs up to date)")
                        continue
                    next(results)
                    self._digests.clear()
                    self.record_stage(name, watched)
                    self.log(name, "done")
        finally:
            self._digests.clear()
        return stale

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

    def score_path(self, system: str, condition: str) -> str:
        return self._path("scores", f"{system}__{condition}.json")

    def existing_manifest(self, condition: str) -> str:
        """The manifest path of `condition`, which must exist; not parsed."""
        path = self.manifest_path(condition)
        if not os.path.exists(path):
            raise MissingArtifactError(
                f"manifest for {condition!r} not found at {path}; run `amulet attack` "
                f"(or `amulet synth` for T0) first"
            )
        return path

    def load_manifest(self, condition: str) -> corpus.Manifest:
        return corpus.load_manifest(self.existing_manifest(condition))

    def load_expert(self, name: str) -> str:
        """The checkpoint path of expert `name`, which must exist; not parsed."""
        path = self.ckpt_path(name)
        if not os.path.exists(path):
            stage = "train-shared" if name == "e0" else "train-ase"
            raise MissingArtifactError(f"checkpoint {path} not found; run `amulet {stage}` first")
        return path

    # --- stages ----------------------------------------------------------------

    def synth(self) -> bool:
        watched = [self.manifest_path("T0"), self.audio_dir("T0")]

        def fn():
            corpus.build_corpus(self.cfg.synth, self.root, self.cfg.seeds["data"])

        return self.run_stage("synth", watched, fn)

    def attack_conditions(self, only: str | None = None) -> list:
        conditions = self.cfg.train_conditions + list(self.cfg.eval_extra) + list(self.cfg.mixed)
        if only is not None:
            if only not in conditions:
                raise ConfigError(
                    [f"unknown condition {only!r}; valid conditions: {', '.join(conditions)}"]
                )
            conditions = [only]
        return conditions

    def attack(self, only: str | None = None) -> None:
        base_path = self.existing_manifest("T0")
        loaded = {}

        def prepare():
            loaded["base"] = corpus.load_manifest(base_path)

        stages = [
            (f"attack-{condition}",
             [base_path, self.manifest_path(condition), self.audio_dir(condition)],
             lambda c=condition: self._build_condition(loaded["base"], c))
            for condition in self.attack_conditions(only)
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
        manifest_path = self.existing_manifest("T0")
        watched = [manifest_path, self.audio_dir("T0"), self.ckpt_path("e0")]

        def fn():
            manifest = corpus.load_manifest(manifest_path)
            model, _ = ex.train_shared(
                self.cfg.encoder,
                manifest.split("train"),
                manifest.split("dev"),
                self.root,
                self.cfg.expert_train,
                self.cfg.seeds["training"],
                log=lambda msg: self.log("train-shared", msg),
            )
            ex.save_expert_checkpoint(model, self.ckpt_path("e0"))

        self.run_stage("train-shared", watched, fn)

    def _roster_items(self, only_condition: str | None = None) -> list:
        items = [(name, self.cfg.roster[name]) for name in self.cfg.expert_ids]
        if only_condition is not None:
            items = [(n, c) for n, c in items if c == only_condition]
            if not items:
                raise ConfigError(
                    [
                        f"unknown condition {only_condition!r}; valid conditions: "
                        + ", ".join(self.cfg.train_conditions)
                    ]
                )
        return items

    def train_ase(self, only_condition: str | None = None) -> None:
        roster = self._roster_items(only_condition)
        base_path = self.load_expert("e0")
        loaded = {}

        def prepare():
            loaded["base"], _ = ex.load_expert_checkpoint(base_path)

        stages = []
        for expert_id, condition in roster:
            manifest_path = self.existing_manifest(condition)
            stage = f"train-ase-{condition}"
            watched = [
                base_path,
                manifest_path,
                self.audio_dir(condition),
                self.ckpt_path(f"ase_{condition}"),
            ]

            def fn(condition=condition, manifest_path=manifest_path, stage=stage):
                manifest = corpus.load_manifest(manifest_path)
                model, _ = ex.train_ase(
                    loaded["base"],
                    condition,
                    manifest.split("train"),
                    manifest.split("dev"),
                    self.root,
                    rank=self.cfg.lora["rank"],
                    alpha=self.cfg.lora["alpha"],
                    dropout_p=self.cfg.lora["dropout"],
                    hyper=self.cfg.expert_train,
                    seed=self.cfg.seeds["training"],
                    scale_mode=self.cfg.lora["scale_mode"],
                    log=lambda msg: self.log(stage, msg),
                )
                ex.save_adapter_checkpoint(model, self.ckpt_path(f"ase_{condition}"))

            stages.append((stage, watched, fn))
        self.run_stages(stages, prepare)

    def _load_bank(self) -> tuple:
        """Parse and verify each expert checkpoint once. Returns the bank
        [E0, E1..En] in roster order and, parallel to it, each checkpoint's
        (path relative to the root, content checksum)."""
        paths = [self.load_expert("e0")]
        for expert_id in self.cfg.expert_ids:
            path = self.ckpt_path(f"ase_{self.cfg.roster[expert_id]}")
            if not os.path.exists(path):
                raise MissingArtifactError(f"{path} not found; run `amulet train-ase` first")
            paths.append(path)
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
        with one list of the clip's rows of `fusion.expert_features` per clip."""
        manifests = [self.load_manifest("T0")]
        for condition in self.cfg.train_conditions:
            manifests.append(self.load_manifest(condition))
        subset = corpus.sample_fusion_subset(
            manifests, self.cfg.subset_fraction, self.cfg.seeds["fusion"]
        )
        dev_entries = [e for manifest in manifests for e in manifest.split("dev")]

        leaves = [ex.constant_leaves(model) for model in bank]

        def features(entries):
            z_alls = []
            for chunk in ex.chunks(entries):
                zs, frames = fusion.expert_features(
                    bank, leaves, [corpus.resolve_clip(e, self.root) for e in chunk])
                z_alls += [[z.value[seg] for z in zs] for seg in frames]
            return z_alls, [e.label for e in entries]

        return features(subset.entries), features(dev_entries)

    def train_fusion(self, only_k: int | None = None) -> None:
        k_values = self.cfg.k_values if only_k is None else [only_k]
        for k in k_values:
            if k not in self.cfg.k_values:
                raise ConfigError(
                    [f"k={k} is not one of the configured presets {self.cfg.k_values}"]
                )
        expert_paths = [self.load_expert("e0")] + [
            self.ckpt_path(f"ase_{c}") for c in self.cfg.train_conditions
        ]
        manifest_paths = [self.manifest_path("T0")] + [
            self.manifest_path(c) for c in self.cfg.train_conditions
        ]
        loaded = {}

        def prepare():
            loaded["bank"], loaded["refs"] = self._load_bank()
            loaded["data"] = self._fusion_data(loaded["bank"])

        stages = []
        for k in k_values:
            stage = f"train-fusion-top{k}"
            out_path = self.ckpt_path(f"fusion_top{k}")
            watched = expert_paths + manifest_paths + [out_path]

            def fn(k=k, out_path=out_path, stage=stage):
                system = fusion.FusionSystem(
                    loaded["bank"], k, renormalize=self.cfg.renormalize,
                    seed=corpus.stable_seed(self.cfg.seeds["fusion"], "init", k),
                )
                fusion.train_fusion(
                    system, *loaded["data"], self.cfg.fusion_train,
                    corpus.stable_seed(self.cfg.seeds["fusion"], "train", k),
                    log=lambda msg: self.log(stage, msg),
                )
                fusion.save_fusion_checkpoint(system, out_path, loaded["refs"])

            stages.append((stage, watched, fn))
        self.run_stages(stages, prepare)

    # --- evaluation ------------------------------------------------------------

    def _systems(self):
        """The expert bank and the fused systems bound to it, with every
        checkpoint parsed once."""
        bank, refs = self._load_bank()
        loaded = {path: (model, checksum) for (path, checksum), model in zip(refs, bank)}
        fused = {}
        for k in self.cfg.k_values:
            path = self.ckpt_path(f"fusion_top{k}")
            if not os.path.exists(path):
                raise MissingArtifactError(f"{path} not found; run `amulet train-fusion` first")
            fused[f"fused_top{k}"] = fusion.load_fusion_checkpoint(path, self.root, loaded)
        return bank, fused

    def system_names(self) -> list:
        return (
            ["E0"] + self.cfg.expert_ids + ["ensemble"]
            + [f"fused_top{k}" for k in self.cfg.k_values]
        )

    def evaluate(self) -> None:
        conditions = self.cfg.single_conditions + list(self.cfg.mixed)
        score_paths = [
            self.score_path(system, condition)
            for system in self.system_names()
            for condition in conditions
        ]
        watched = (score_paths + [self._path("checkpoints")]
                   + [self.manifest_path(c) for c in conditions])

        def fn():
            bank, fused = self._systems()
            thunks = [lambda c=c: self._score_condition(bank, fused, c) for c in conditions]
            results = list(self._map(thunks))
            os.makedirs(self._path("scores"), exist_ok=True)
            for condition, (n_clips, buckets) in zip(conditions, results):
                for name, (bona, spoof) in buckets.items():
                    scores = metrics.ScoreSet(bona, spoof, condition, name)
                    metrics.save_scores(scores, self.score_path(name, condition))
                self.log("evaluate", f"scored {condition} ({n_clips} clips)")

        self.run_stage("evaluate", watched, fn)

    def _score_condition(self, bank, fused, condition: str) -> tuple:
        """Score every eval clip of `condition` with every system. Returns
        the clip count and {system: (bona-fide scores, spoof scores)}."""
        manifest = self.load_manifest(condition)
        entries = sorted(manifest.split("eval"), key=lambda e: e.clip_id)
        if not entries:
            raise MissingArtifactError(f"{condition}: no eval entries to score")
        expert_names = ["E0"] + self.cfg.expert_ids
        buckets = {name: ([], []) for name in self.system_names()}
        bank_leaves = [ex.constant_leaves(model) for model in bank]
        fused_leaves = {name: ex.constant_leaves(system) for name, system in fused.items()}
        for chunk in ex.chunks(entries):
            zs, frames = fusion.expert_features(
                bank, bank_leaves, [corpus.resolve_clip(e, self.root) for e in chunk])
            logits = {name: ex.expert_logits(leaves, z, frames).value
                      for name, leaves, z in zip(expert_names, bank_leaves, zs)}
            logits["ensemble"] = fusion.ensemble_logits(list(logits.values()))
            for name, system in fused.items():
                logits[name] = fusion.fused_logits(system, fused_leaves[name], zs, frames).value
            for r, entry in enumerate(chunk):
                slot = 0 if entry.label == "bonafide" else 1
                for name, rows in logits.items():
                    buckets[name][slot].append(float(rows[r, 0] - rows[r, 1]))
        return len(entries), buckets

    # --- reporting ---------------------------------------------------------------

    def _trainable_params(self, bank, fused) -> dict:
        params = {"E0": ex.count_trainable(bank[0])["trainable"]}
        for expert_id, model in zip(self.cfg.expert_ids, bank[1:]):
            params[expert_id] = ex.count_trainable(model)["trainable"]
        params["ensemble"] = 0  # no additional training
        for name, system in fused.items():
            params[name] = sum(v.size for v in system.params.values())
        return params

    def report(self) -> None:
        reports_dir = self.root / "reports"
        outputs = [
            self._path("reports", f"{stem}.{ext}")
            for stem in ("single_attack_eer", "mixed_attack_eer", "param_efficiency")
            for ext in ("csv", "txt")
        ]
        watched = outputs + [self._path("scores")]

        def fn():
            reports_dir.mkdir(parents=True, exist_ok=True)
            bank, fused = self._systems()
            tp = self._trainable_params(bank, fused)
            for title, conditions, stem in (
                ("single-attack EER (%)", self.cfg.single_conditions, "single_attack_eer"),
                ("mixed-attack EER (%)", list(self.cfg.mixed), "mixed_attack_eer"),
            ):
                sets = []
                for system in self.system_names():
                    for condition in conditions:
                        path = self.score_path(system, condition)
                        if not os.path.exists(path):
                            raise MissingArtifactError(
                                f"{path} not found; run `amulet evaluate` first"
                            )
                        sets.append(metrics.load_scores(path))
                report = metrics.build_report(sets, tp)
                (reports_dir / f"{stem}.csv").write_text(metrics.report_to_csv(report))
                (reports_dir / f"{stem}.txt").write_text(
                    metrics.render_report_text(report, title)
                )
            self._write_param_report(reports_dir, bank)
            self._write_checksums()

        self.run_stage("report", watched, fn)

    def _write_param_report(self, reports_dir: Path, bank) -> None:
        shared = ex.count_trainable(bank[0])
        lines = ["system,trainable_params,total_params,percent"]
        rows = [("E0", shared)]
        for expert_id, model in zip(self.cfg.expert_ids, bank[1:]):
            rows.append((expert_id, ex.count_trainable(model)))
        for name, counts in rows:
            lines.append(
                f"{name},{counts['trainable']},{counts['total']},{counts['percent']!r}"
            )
        csv_text = "\n".join(lines) + "\n"
        (reports_dir / "param_efficiency.csv").write_text(csv_text)

        ase_counts = rows[1][1] if len(rows) > 1 else shared
        desk_pct = 100.0 * ase_counts["trainable"] / shared["trainable"]
        big_pct = 100.0 * 3.59e6 / 318e6
        text = [
            "trainable parameters per expert",
            "===============================",
            f"{'system':<10}{'trainable':>12}{'total':>12}{'percent':>10}",
        ]
        for name, counts in rows:
            text.append(
                f"{name:<10}{counts['trainable']:>12}{counts['total']:>12}"
                f"{counts['percent']:>10.2f}"
            )
        text.append("")
        text.append(
            f"note: adapter training touches {ase_counts['trainable']} of "
            f"{shared['trainable']} encoder parameters ({desk_pct:.2f}%) at this scale."
        )
        text.append(
            f"note: at production scale the same recipe trains 3.59M of 318M "
            f"encoder parameters, i.e. {big_pct:.2f}%."
        )
        (reports_dir / "param_efficiency.txt").write_text("\n".join(text) + "\n")

    def _write_checksums(self) -> None:
        artifact_dirs = ["audio", "manifests", "checkpoints", "scores", "reports"]
        files = self._expand([self._path(name) for name in artifact_dirs])
        checks = {rel: _hash_file(path) for rel, path in files.items()
                  if os.path.basename(rel) != "checksums.json"}
        out = self.root / "reports" / "checksums.json"
        out.write_text(json.dumps(checks, sort_keys=True, indent=1) + "\n")

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
                             "attack-specific experts, the fusion heads and the eval "
                             "conditions, with outputs and logs identical to --jobs 1")
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
        config.seeds = {
            name: corpus.stable_seed(args.seed_override, name) for name in config.seeds
        }
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
            metrics.ScoreSetError, metrics.ReportError, AudioError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FrozenContractError, NonFiniteError, GraphError, CheckpointError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
