import concurrent.futures
import hashlib
import importlib.util
import json
import mmap
import multiprocessing
import pickle
import shutil
from collections import Counter
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from amulet import audio, cli
from amulet import corpus
from amulet import experts as ex
from amulet import fusion as fu
from amulet import metrics
from amulet.audio import AudioClip, write_wav
from amulet.config import ConfigError, ExperimentConfig, resolve_config, validate_config
from oracles import count_trainable, expand_watched


def micro_config(out_dir, **overrides):
    config = {
        "out_dir": str(out_dir),
        "seeds": {"data": 111, "training": 222, "fusion": 333},
        "synth": {"n_train": 12, "n_dev": 6, "n_eval": 6, "clip_seconds": 1.0},
        "roster": {"E1": "T3", "E2": "T5"},
        "eval_extra": [],
        "mixed": ["noise_first"],
        "k_values": [1, 2],
        "expert_train": {"max_epochs": 4, "patience": 3},
        "fusion_train": {"max_epochs": 3, "patience": 2},
    }
    config.update(overrides)
    return config


def tiny_config(out_dir, **overrides):
    """`micro_config` at the smallest sizes, with one epoch per trainer and
    one fused head."""
    hyper = {"max_epochs": 1}
    return micro_config(out_dir, **{
        "synth": {"n_train": 4, "n_dev": 1, "n_eval": 1, "clip_seconds": 1.0},
        "k_values": [1], "expert_train": hyper, "fusion_train": hyper, **overrides})


def perfbench_run(monkeypatch):
    """perfbench's `run` module, which makes the benchmark's configs."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestValidateConfig:
    def test_minimal_config_fills_defaults(self, capsys, tmp_path):
        path = write_config(tmp_path, {"out_dir": str(tmp_path / "out")})
        assert cli.main(["--config", path, "validate-config"]) == 0
        printed = capsys.readouterr().out
        assert '"rank": 4' in printed
        assert '"k_values": [3, 4, 5]' in printed
        assert '"subset_fraction": 0.25' in printed

    def test_default_config_resolves(self):
        config = validate_config("default")
        assert config.k_values == [3, 4, 5]
        assert config.expert_ids == ["E1", "E2", "E3", "E4", "E5"]
        assert set(asdict(config.seeds)) == {"data", "training", "fusion"}

    def test_default_fingerprint_is_pinned(self, monkeypatch):
        # the fingerprint keys every stage cache: a moved default re-runs them all
        assert validate_config("default").fingerprint() == (
            "dae3321794c0415eb90514ff0234f60feec8d29cc6b34a56bf809da74c29ffe4"
        )
        run = perfbench_run(monkeypatch)
        assert {workload: validate_config(run.make_config(workload, seed=1)).fingerprint()
                for workload in run.WORKLOADS} == {
            "reproduce": "300a790472f761b5145a2caf57a3c1fbaf727d5181eb3cefaea978e28f163056",
            "train": "f1af2bc35ae035597801d68022a7cfb651b4de5ca478c23d8b4a5c143a6bd8cd",
            "score": "f6e6101d015efa4691380151f8ba184f46aa8ec0170e55c4e39d5c996e32128f",
        }

    def test_seed_override_is_pinned(self, capsys):
        assert cli.main(["--seed-override", "1", "validate-config"]) == 0
        line = capsys.readouterr().out.strip()
        assert json.loads(line.split("[config] resolved: ", 1)[1])["seeds"] == {
            "data": 10679894879504763407,
            "training": 10354763800735998830,
            "fusion": 10053459915855809456,
        }

    def test_benchmark_config_keys_resolve(self, monkeypatch):
        run = perfbench_run(monkeypatch)
        for workload in run.WORKLOADS:
            raw = run.make_config(workload, seed=1)
            for key, value in raw.items():
                config, errors = resolve_config({key: value})
                assert errors == [], (workload, key)
                assert json.loads(json.dumps(asdict(config)))[key] == value, (workload, key)
            validate_config(raw)

    def test_k_exceeding_expert_count(self, tmp_path, capsys):
        path = write_config(tmp_path, micro_config(tmp_path / "out", k_values=[3]))
        assert cli.main(["--config", path, "validate-config"]) == 1
        assert "exceeds expert count" in capsys.readouterr().err

    def test_roster_with_unknown_condition(self, tmp_path, capsys):
        path = write_config(tmp_path, micro_config(tmp_path / "out", roster={"E1": "T9"}))
        assert cli.main(["--config", path, "validate-config"]) == 1
        err = capsys.readouterr().err
        assert "T9" in err and "valid conditions" in err

    def test_train_only_preset_is_not_a_condition(self, tmp_path, capsys):
        # T4_train would train a second white-noise expert; T5_train would be scored
        config = micro_config(tmp_path / "out", roster={"E1": "T4_train", "E2": "T4"},
                              eval_extra=["T5_train"], mixed=["T9"])
        path = write_config(tmp_path, config)
        assert cli.main(["--config", path, "validate-config"]) == 1
        valid = ("valid conditions: T1, T2, T3, T4, T5, T6, filter_first, noise_first, "
                 "rawboost4, rawboost5, rawboost6, rawboost7, rawboost8")
        assert capsys.readouterr().err.splitlines() == [
            f"config error: roster.E1: unknown condition 'T4_train'; {valid}",
            f"config error: eval_extra: unknown condition 'T5_train'; {valid}",
            f"config error: mixed: unknown condition 'T9'; {valid}",
        ]
        _, errors = resolve_config({"roster": {"E1": "T4", "E2": "T5"}, "mixed": ["T5_train"],
                                    "k_values": [1, 2]})
        assert errors == [f"mixed: unknown condition 'T5_train'; {valid}"]

    def test_all_violations_reported(self, tmp_path, capsys):
        config = micro_config(tmp_path / "out", k_values=[9], subset_fraction=2.0)
        config["roster"] = {"E1": "T9"}
        path = write_config(tmp_path, config)
        assert cli.main(["--config", path, "validate-config"]) == 1
        err = capsys.readouterr().err
        assert "T9" in err
        assert "exceeds expert count" in err
        assert "subset_fraction" in err

    @pytest.mark.parametrize("raw, message", [
        ({"seeds": 5}, "seeds must be an object"),
        ({"lora": 5}, "lora must be an object"),
        ({"roster": 5}, "roster must be an object"),
        ({"k_values": 5}, "k_values must be a list"),
        ({"lora": {"dropout": "x"}}, "lora.dropout must be a number"),
        ({"renormalize": "no"}, "renormalize must be true or false"),
        ({"lora": {"rank": True}}, "lora.rank must be an integer"),
        ({"subset_fraction": True}, "subset_fraction must be in (0, 1]"),
        ({"lora": {"rnak": 8}},
         "lora.rnak: unknown key; valid keys: rank, alpha, dropout, scale_mode"),
        ({"seeds": {"dta": 1}}, "seeds.dta: unknown key; valid keys: data, training, fusion"),
        ({"synth": {"n_trian": 1}}, "synth.n_trian: unknown key; valid keys: n_train, "),
        ({"expert_train": {"max_epochs": 1.5}}, "expert_train.max_epochs must be an integer"),
        ({"fusion_train": {"batch_size": 1.5}}, "fusion_train.batch_size must be an integer"),
        ({"synth": {"n_train": 2.5}}, "synth.n_train must be an integer"),
        ({"encoder": {"frame_len": 160.5}}, "encoder.frame_len must be an integer"),
    ])
    def test_wrong_json_type_is_config_error(self, tmp_path, capsys, raw, message):
        path = write_config(tmp_path, raw)
        assert cli.main(["--config", path, "validate-config"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {message}")

    def test_every_group_field_takes_only_its_json_type(self):
        # a field added to a group later cannot skip the rule
        wrong = {int: 1.5, float: True, str: 5, tuple: [64.5]}
        defaults = ExperimentConfig()
        groups = [f.name for f in fields(defaults) if is_dataclass(getattr(defaults, f.name))]
        assert groups == ["seeds", "synth", "encoder", "lora", "expert_train", "fusion_train"]
        for group in groups:
            for name, default in asdict(getattr(defaults, group)).items():
                _, errors = resolve_config({group: {name: wrong[type(default)]}})
                assert len(errors) == 1, errors
                assert errors[0].startswith(f"{group}.{name} must be "), errors

    @pytest.mark.parametrize("raw, message", [
        ({"lora": {"rank": 0}}, "lora: rank must be >= 1"),
        ({"lora": {"dropout": 1.0}}, "lora: dropout must be in [0, 1)"),
        ({"lora": {"scale_mode": "alpha"}}, "lora: scale_mode must be 'alpha_over_r' or"),
        ({"fusion_train": {"lr": 0}}, "fusion_train: lr, batch_size, and max_epochs must be"),
        ({"synth": {"n_dev": 0}}, "synth: n_dev must be positive"),
        ({"encoder": {"hop": 0}}, "encoder: encoder dims must be >= 2 and hop >= 1"),
        ({"encoder": {"hidden_dims": []}}, "encoder: hidden_dims must name at least one layer"),
        ({"encoder": {"hidden_dims": [64, 64, 63]}},
         "encoder: the last of hidden_dims must be even"),
    ])
    def test_range_error_names_its_group(self, raw, message):
        _, errors = resolve_config(raw)
        assert len(errors) == 1 and errors[0].startswith(message), errors

    def test_condition_named_twice_is_config_error(self, tmp_path, capsys):
        # two stages of one batch would write the same audio/, manifest and checkpoint
        config = micro_config(tmp_path / "out", roster={"E1": "T1", "E2": "T1"},
                              eval_extra=["T1", "T6"], mixed=["rawboost4", "rawboost4"])
        path = write_config(tmp_path, config)
        assert cli.main(["--config", path, "validate-config"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: condition 'T1' is named 3 times across roster, eval_extra and "
            "mixed; name each condition once",
            "config error: condition 'rawboost4' is named 2 times across roster, eval_extra "
            "and mixed; name each condition once",
        ]

    @pytest.mark.parametrize("expert", ["E0", "ensemble", "fused_top2"])
    def test_expert_named_as_another_system(self, tmp_path, capsys, expert):
        # its scores would land in that system's files and cells
        config = micro_config(tmp_path / "out", roster={expert: "T3", "E2": "T5"})
        path = write_config(tmp_path, config)
        assert cli.main(["--config", path, "validate-config"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: roster: expert id {expert!r} is the name of another system; "
            "E0, ensemble and fused_top<k> are reserved",
        ]

    def test_fused_name_of_an_unconfigured_k_is_an_expert_id(self):
        config, errors = resolve_config({"roster": {"fused_top2": "T3", "E2": "T5"},
                                         "k_values": [1]})
        assert errors == []
        assert config.expert_ids == ["E2", "fused_top2"]

    def test_k_named_twice_is_config_error(self, tmp_path, capsys):
        # two fusion stages would write one checkpoint
        path = write_config(tmp_path, micro_config(tmp_path / "out", k_values=[2, 1, 2]))
        assert cli.main(["--config", path, "validate-config"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: k_values: k=2 is named 2 times; name each k once",
        ]

    def test_config_error_survives_pickling(self):
        # worker exceptions reach the parent pickled
        copy = pickle.loads(pickle.dumps(ConfigError(["a", "b"])))
        assert type(copy) is ConfigError
        assert copy.errors == ["a", "b"]
        assert str(copy) == "a; b"

    def test_missing_file(self, capsys):
        assert cli.main(["--config", "/nonexistent.json", "validate-config"]) == 1

    def test_missing_seed_rejected(self, tmp_path, capsys):
        config = micro_config(tmp_path / "out")
        config["seeds"] = {"data": 1, "training": 2, "fusion": None}
        path = write_config(tmp_path, config)
        assert cli.main(["--config", path, "validate-config"]) == 1
        assert "seeds.fusion" in capsys.readouterr().err


class TestStages:
    def test_synth_then_skip(self, tmp_path, capsys):
        path = write_config(tmp_path, micro_config(tmp_path / "out"))
        assert cli.main(["--config", path, "synth"]) == 0
        first = capsys.readouterr().out
        assert "[synth] running" in first
        assert (tmp_path / "out" / "manifests" / "T0.jsonl").exists()
        assert cli.main(["--config", path, "synth"]) == 0
        second = capsys.readouterr().out
        assert "[synth] skipped" in second

    def test_attack_unknown_condition(self, tmp_path, capsys):
        path = write_config(tmp_path, micro_config(tmp_path / "out"))
        assert cli.main(["--config", path, "synth"]) == 0
        capsys.readouterr()
        assert cli.main(["--config", path, "attack", "--condition", "T9"]) == 1
        err = capsys.readouterr().err
        assert "T9" in err and "T3" in err

    def test_train_ase_unknown_condition(self, tmp_path, capsys):
        path = write_config(tmp_path, micro_config(tmp_path / "out"))
        assert cli.main(["--config", path, "train-ase", "--condition", "T9"]) == 1
        err = capsys.readouterr().err
        assert "T9" in err and "valid conditions" in err and "T3" in err

    def test_missing_upstream_artifact_names_stage(self, tmp_path, capsys):
        path = write_config(tmp_path, micro_config(tmp_path / "out"))
        assert cli.main(["--config", path, "train-shared"]) == 1
        err = capsys.readouterr().err
        assert "synth" in err or "attack" in err

    def test_out_override_and_env(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, micro_config(tmp_path / "ignored"))
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv("AMULET_OUT", str(env_dir))
        assert cli.main(["--config", path, "synth"]) == 0
        assert (env_dir / "manifests" / "T0.jsonl").exists()
        flag_dir = tmp_path / "from-flag"
        assert cli.main(["--config", path, "--out", str(flag_dir), "synth"]) == 0
        assert (flag_dir / "manifests" / "T0.jsonl").exists()


@pytest.fixture(scope="module")
def trained_bank(tmp_path_factory):
    """A root trained up to the fusion heads with the default roster (E0,
    E1-E5, k = 3/4/5), at the smallest sizes, one epoch per trainer."""
    work = tmp_path_factory.mktemp("bank")
    hyper = {"max_epochs": 1}
    config = micro_config(
        work / "out", roster=validate_config("default").roster, k_values=[3, 4, 5],
        synth={"n_train": 4, "n_dev": 1, "n_eval": 1, "clip_seconds": 1.0},
        expert_train=hyper, fusion_train=hyper,
    )
    path = write_config(work, config)
    for stage in ("attack", "train-shared", "train-ase", "train-fusion"):
        assert cli.main(["--config", path, stage]) == 0, stage
    return path, work / "out"


def copy_root(trained_bank, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(trained_bank[1], out)
    return out


class TestBankLoading:
    def test_each_checkpoint_parsed_once_per_stage(self, trained_bank, tmp_path, monkeypatch):
        parsed = Counter()
        original = ex._read_payload

        def counting(path, expected_format):
            parsed[Path(path).name] += 1
            return original(path, expected_format)

        monkeypatch.setattr(ex, "_read_payload", counting)
        monkeypatch.setattr(fu, "_read_payload", counting)
        once = {f"{name}.json": 1 for name in (
            "e0", "ase_T1", "ase_T2", "ase_T3", "ase_T4", "ase_T5",
            "fusion_top3", "fusion_top4", "fusion_top5",
        )}
        out = copy_root(trained_bank, tmp_path)
        # report counts parameters from the config, which fixes every shape
        for stage, expected in (("evaluate", once), ("report", {})):
            parsed.clear()
            assert cli.main(["--config", trained_bank[0], "--out", str(out), stage]) == 0
            assert dict(parsed) == expected, stage

    @pytest.mark.parametrize("overrides", [
        {},
        {"encoder": {"frame_len": 40, "hop": 20, "hidden_dims": [6, 10]}, "lora": {"rank": 3}},
    ])
    def test_report_counts_follow_the_constructors(self, tmp_path, overrides):
        # report counts from the config what the constructors would build
        config = validate_config(micro_config(tmp_path / "out", **overrides))
        counts, total = cli.Pipeline(config, tmp_path / "out")._param_counts()
        shared = count_trainable(ex.new_expert(config.encoder, 0))
        adapted = count_trainable(ex.lora_inject(ex.new_expert(config.encoder, 0),
                                                    config.lora, 0))
        head = fu.init_fusion_params(config.encoder.output_dim, len(config.roster), 0)
        assert total == shared["total"] == adapted["total"]
        assert counts == {
            "E0": shared["trainable"],
            **{expert_id: adapted["trainable"] for expert_id in config.expert_ids},
            "ensemble": 0,
            **{f"fused_top{k}": sum(v.size for v in head.values()) for k in config.k_values},
        }

    def test_e0_parsed_once_per_train_ase_call(self, trained_bank, tmp_path, monkeypatch):
        parsed = Counter()
        original = ex._read_payload

        def counting(path, expected_format):
            parsed[Path(path).name] += 1
            return original(path, expected_format)

        monkeypatch.setattr(ex, "_read_payload", counting)
        out = copy_root(trained_bank, tmp_path)
        for condition in ("T1", "T2"):
            (out / "state" / f"train-ase-{condition}.json").unlink()
        args = ["--config", trained_bank[0], "--out", str(out), "train-ase"]
        assert cli.main(args) == 0  # two stages run
        assert parsed["e0.json"] == 1
        parsed.clear()
        assert cli.main(args) == 0  # every stage skips
        assert parsed["e0.json"] == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_malformed_eval_wav_is_user_error(self, trained_bank, tmp_path, capsys, jobs):
        out = copy_root(trained_bank, tmp_path)
        lines = (out / "manifests" / "T3.jsonl").read_text().splitlines()
        entry = next(e for e in map(json.loads, lines) if e["split"] == "eval")
        (out / entry["path"]).write_bytes(b"not a wav file")
        capsys.readouterr()
        args = ["--config", trained_bank[0], "--out", str(out), "--jobs", str(jobs), "evaluate"]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed WAV" in err and entry["path"] in err
        assert multiprocessing.active_children() == []

    def test_report_error_is_user_error(self, trained_bank, tmp_path, capsys):
        out = copy_root(trained_bank, tmp_path)
        args = ["--config", trained_bank[0], "--out", str(out)]
        assert cli.main(args + ["evaluate"]) == 0
        score = out / "scores" / "E1__T0.json"
        score.write_text(score.read_text().replace('"E1"', '"E0"'))
        capsys.readouterr()
        assert cli.main(args + ["report"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: duplicate cell for ('E0', 'T0')",
        ]

    @pytest.mark.parametrize("change", ["adapter", "roster"])
    def test_rewritten_adapter_breaks_fusion_binding(self, trained_bank, tmp_path, capsys,
                                                     change):
        out = copy_root(trained_bank, tmp_path)
        ckpts = out / "checkpoints"
        config = trained_bank[0]
        if change == "adapter":
            base, _ = ex.load_expert_checkpoint(ckpts / "e0.json")
            ase, _ = ex.load_adapter_checkpoint(ckpts / "ase_T1.json", base)
            ase.tensors["lora.b0"] = ase.tensors["lora.b0"] + 0.5
            ex.save_adapter_checkpoint(ase, ckpts / "ase_T1.json")
            # the rewritten file loads on its own: only the fusion binding can tell
            ex.load_adapter_checkpoint(ckpts / "ase_T1.json", base)
            stale = "ase_T1.json"
        else:
            # E2 moves from T2 to T6 and its expert is trained, but the heads
            # are not: they were trained over ase_T2.json, which is still there
            raw = json.loads(Path(config).read_text())
            raw["roster"]["E2"] = "T6"
            config = write_config(tmp_path, raw)
            for stage in ("attack", "train-ase"):
                args = ["--config", config, "--out", str(out), stage, "--condition", "T6"]
                assert cli.main(args) == 0, stage
            stale = "ase_T2.json"
        capsys.readouterr()
        assert cli.main(["--config", config, "--out", str(out), "evaluate"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "fusion binding" in err[0], err
        assert "fusion_top3.json" in err[0] and stale in err[0]
        assert not (out / "scores").exists()


def counting_hashes(monkeypatch) -> Counter:
    """Count every `cli._hash_file` call by the path it hashes."""
    hashed = Counter()
    original = cli._hash_file

    def counting(path):
        hashed[str(path)] += 1
        return original(path)

    monkeypatch.setattr(cli, "_hash_file", counting)
    return hashed


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestStageCache:
    def test_torn_state_file_is_a_stale_cache(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, micro_config(tmp_path / "out"))
        state = tmp_path / "out" / "state"
        assert cli.main(["--config", path, "synth"]) == 0
        recorded = (state / "synth.json").read_text()
        (state / "synth.json").write_text('{"config": "ab')  # what a torn write leaves
        capsys.readouterr()
        assert cli.main(["--config", path, "synth"]) == 0
        assert "[synth] running" in capsys.readouterr().out
        assert (state / "synth.json").read_text() == recorded
        assert [p.name for p in state.iterdir()] == ["synth.json"]

        # a crash before the rename leaves the previous state whole
        def crash(src, dst):
            raise KeyboardInterrupt

        (state / "synth.json").write_text("{}")
        monkeypatch.setattr(cli.os, "replace", crash)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["--config", path, "synth"])
        assert (state / "synth.json").read_text() == "{}"

    def test_rewrite_by_a_running_stage_is_seen(self, tmp_path, monkeypatch):
        root = tmp_path / "out"
        config = validate_config(micro_config(root))
        shared, folder = root / "shared.bin", root / "folder"
        folder.mkdir(parents=True)
        shared.write_bytes(b"old")
        first = cli.Pipeline(config, root, log=lambda msg: None)
        assert first.run_stage("reader-a", [shared, folder], [], lambda: None)
        assert first.run_stage("reader-c", [shared, folder], [], lambda: None)

        def write():
            shared.write_bytes(b"new")
            (folder / "added.bin").write_bytes(b"added")

        hashed = counting_hashes(monkeypatch)
        pipe = cli.Pipeline(config, root, log=lambda msg: None)
        assert pipe.stage_cached("reader-a", [shared, folder])
        assert hashed[str(shared)] == 1  # the digest of b"old" is kept
        assert pipe.run_stage("writer-b", [], [root / "b.out"], write)
        # reader-c recorded b"old" and an empty folder: neither the kept
        # digest nor the kept listing may stand in for the files
        assert pipe.run_stage("reader-c", [shared, folder], [], lambda: None)
        assert json.loads((root / "state" / "reader-c.json").read_text())["files"] == {
            "shared.bin": sha256_file(shared),
            str(Path("folder", "added.bin")): sha256_file(folder / "added.bin"),
        }

    def test_state_format_is_pinned(self, trained_bank):
        """`state/<stage>.json` is canonical JSON of the config fingerprint and
        the sha256 of every watched file, so roots cached by earlier versions
        keep skipping."""
        config_path, root = trained_bank
        config = validate_config(config_path)
        fingerprint = hashlib.sha256(json.dumps(
            asdict(config), sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        watched = [root / "manifests" / "T0.jsonl"] + [
            p for p in (root / "audio" / "T0").rglob("*") if p.is_file()
        ]
        files = {str(p.relative_to(root)): sha256_file(p) for p in watched}
        assert len(files) > 1
        expected = json.dumps({"config": fingerprint, "files": files},
                              sort_keys=True, separators=(",", ":")) + "\n"
        assert (root / "state" / "synth.json").read_text() == expected

    def test_rerun_hashes_each_watched_file_once(self, trained_bank, tmp_path, monkeypatch,
                                                 capsys):
        out = copy_root(trained_bank, tmp_path)
        args = ["--config", trained_bank[0], "--out", str(out), "reproduce"]
        assert cli.main(args) == 0  # evaluate and report run
        capsys.readouterr()
        hashed = counting_hashes(monkeypatch)
        assert cli.main(args) == 0
        assert "running" not in capsys.readouterr().out
        watched = set()
        for state in (out / "state").glob("*.json"):
            watched.update(str(out / rel) for rel in json.loads(state.read_text())["files"])
        assert set(hashed) == watched
        assert set(hashed.values()) == {1}

    def test_cached_rerun_parses_nothing(self, trained_bank, tmp_path, monkeypatch, capsys):
        out = copy_root(trained_bank, tmp_path)
        args = ["--config", trained_bank[0], "--out", str(out), "reproduce"]
        assert cli.main(args) == 0  # evaluate and report run

        def refuse(*args, **kwargs):
            raise AssertionError("a cache check parsed an artifact")

        for module, name in ((corpus, "load_manifest"), (ex, "load_expert_checkpoint"),
                             (ex, "load_adapter_checkpoint"), (fu, "load_fusion_checkpoint")):
            monkeypatch.setattr(module, name, refuse)
        capsys.readouterr()
        assert cli.main(args) == 0
        logged = [line for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("[config]")]
        assert len(logged) == len(list((out / "state").glob("*.json")))
        assert all(line.endswith("] skipped (outputs up to date)") for line in logged)

    @pytest.mark.parametrize("spelling", ["absolute", "relative", "dot"])
    def test_expand_matches_pathlib(self, tmp_path, monkeypatch, spelling):
        out = tmp_path / "out"
        audio = out / "audio" / "T1"
        (audio / "deep").mkdir(parents=True)
        (audio / "a.wav").write_bytes(b"a")
        (audio / "deep" / "b.wav").write_bytes(b"b")
        (out / "manifests").mkdir()
        (out / "manifests" / "T1.jsonl").write_text("{}\n")
        elsewhere = tmp_path / "elsewhere"
        (elsewhere / "sub").mkdir(parents=True)
        (elsewhere / "sub" / "c.wav").write_bytes(b"c")
        (elsewhere / "d.wav").write_bytes(b"d")
        (audio / "linked.wav").symlink_to(elsewhere / "d.wav")  # followed
        (audio / "linked_dir").symlink_to(elsewhere / "sub")  # not followed
        (out / "manifests" / "T2.jsonl").symlink_to(elsewhere / "d.wav")
        root = {"absolute": out, "relative": Path("out"), "dot": Path(".")}[spelling]
        monkeypatch.chdir(tmp_path if spelling == "relative" else out)
        pipe = cli.Pipeline(validate_config(micro_config(out)), root, log=lambda msg: None)
        watched = [root / "audio" / "T1", root / "manifests" / "T1.jsonl",
                   root / "manifests" / "T2.jsonl", root / "missing.json", root / "missing"]
        expected = expand_watched(root, watched)
        assert sorted(expected) == [
            str(Path("audio/T1/a.wav")), str(Path("audio/T1/deep/b.wav")),
            str(Path("audio/T1/linked.wav")), str(Path("manifests/T1.jsonl")),
            str(Path("manifests/T2.jsonl")),
        ]
        assert pipe._expand(watched) == expected
        assert pipe._expand([str(p) for p in watched]) == expected
        for outside in (elsewhere / "d.wav", tmp_path / "out2" / "x.json"):
            with pytest.raises(ValueError):
                expand_watched(root, [outside])
            with pytest.raises(ValueError):
                pipe._expand([outside])


@pytest.fixture(scope="module")
def tiny_root(tmp_path_factory):
    """A root that `reproduce` finished with `tiny_config`."""
    work = tmp_path_factory.mktemp("tiny")
    path = write_config(work, tiny_config(work / "out"))
    assert cli.main(["--config", path, "reproduce"]) == 0
    return path, work / "out"


class TestStageInputs:
    def test_every_read_lies_inside_the_watch(self, tmp_path, monkeypatch):
        """Each path a stage opens is among the files its state records; the
        eval WAVs that `evaluate` scores are the one unwatched read."""
        out = tmp_path / "out"
        config = validate_config(tiny_config(out))
        charged, reads = [], []  # stages the reads serve; (stages, reader, path)

        def recording(name, fn):
            def read(path, *args, **kwargs):
                reads.append((tuple(charged), name, Path(path)))
                return fn(path, *args, **kwargs)
            return read

        for module, name in ((audio, "read_wav"), (corpus, "read_wav"), (audio, "wav_length"),
                             (corpus, "wav_length"), (corpus, "load_manifest"),
                             (ex, "load_expert_checkpoint"), (ex, "load_adapter_checkpoint"),
                             (fu, "load_fusion_checkpoint"), (metrics, "load_scores")):
            monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
        run_stages = cli.Pipeline.run_stages

        def charging(self, stages, prepare=None):
            charged[:] = [name for name, *_ in stages]  # `prepare` serves the whole batch
            try:
                return run_stages(self, stages, prepare)
            finally:
                charged.clear()

        def log(line):
            if line.endswith("] running"):
                charged[:] = [line[1:line.index("]")]]

        monkeypatch.setattr(cli.Pipeline, "run_stages", charging)
        cli.Pipeline(config, out, jobs=1, log=log).reproduce()

        unwatched = set()
        for stages, name, path in reads:
            assert stages, (name, path)
            rel = str(path.relative_to(out))
            for stage in stages:
                files = json.loads((out / "state" / f"{stage}.json").read_text())["files"]
                if rel in files:
                    continue
                assert stage == "evaluate" and name == "read_wav", (stage, name, rel)
                assert path.parent.parent == out / "audio" and path.name.startswith("eval_")
                unwatched.add(rel)
        # a bona-fide and a spoof clip of each scored condition
        assert len(unwatched) == 2 * len(config.single_conditions + config.mixed)
        fusion_reads = {path.parent.name for stages, name, path in reads
                        if stages == ("train-fusion-top1",) and name == "read_wav"}
        assert fusion_reads == {"T0", "T3", "T5"}

    def test_swapped_training_audio_reruns_fusion(self, tiny_root, tmp_path, capsys):
        out = copy_root(tiny_root, tmp_path)
        bona, spoof = (out / "audio" / "T3" / f"train_{label}_0000.wav"
                       for label in ("bonafide", "spoof"))
        data = bona.read_bytes()
        bona.write_bytes(spoof.read_bytes())
        spoof.write_bytes(data)
        capsys.readouterr()
        assert cli.main(["--config", tiny_root[0], "--out", str(out), "train-fusion"]) == 0
        assert "[train-fusion-top1] running" in capsys.readouterr().out

    def test_checksums_name_only_the_configured_artifacts(self, tiny_root, tmp_path):
        # E2 moves from T5 to T1; T5's files stay in the root
        out = copy_root(tiny_root, tmp_path)
        moved = tiny_config(tmp_path / "fresh", roster={"E1": "T3", "E2": "T1"})
        path = write_config(tmp_path, moved)
        assert cli.main(["--config", path, "--out", str(out), "reproduce"]) == 0
        assert cli.main(["--config", path, "reproduce"]) == 0
        checksums = [json.loads((root / "reports" / "checksums.json").read_text())
                     for root in (out, tmp_path / "fresh")]
        assert (out / "checkpoints" / "ase_T5.json").exists()
        assert not any("T5" in rel for rel in checksums[0])
        assert checksums[0] == checksums[1]

    @pytest.mark.parametrize("rel, command, writer", [
        ("manifests/T0.jsonl", "train-shared", "synth"),
        ("audio/T0", "train-shared", "synth"),
        ("manifests/T3.jsonl", "train-ase", "attack"),
        ("audio/T3", "train-ase", "attack"),
        ("checkpoints/e0.json", "train-ase", "train-shared"),
        ("checkpoints/ase_T3.json", "train-fusion", "train-ase"),
        ("checkpoints/fusion_top1.json", "evaluate", "train-fusion"),
        ("scores/E0__T0.json", "report", "evaluate"),
    ])
    def test_missing_input_names_its_writer(self, tiny_root, tmp_path, capsys, rel, command,
                                            writer):
        out = copy_root(tiny_root, tmp_path)
        missing = out / rel
        if missing.is_dir():
            shutil.rmtree(missing)
        else:
            missing.unlink()
        capsys.readouterr()
        assert cli.main(["--config", tiny_root[0], "--out", str(out), command]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {missing} not found; run `amulet {writer}` first",
        ]


class TestChunkedScoring:
    def test_chunks_score_bitwise_as_single_clips(self, tmp_path, monkeypatch):
        """`evaluate` stacks `INFERENCE_CHUNK` clips per inference graph; every
        system's scores equal those of one clip at a time."""
        config = validate_config(micro_config(
            tmp_path / "out", roster=validate_config("default").roster, k_values=[1, 2, 3, 4, 5]))
        rng = np.random.default_rng(60)
        base = ex.new_expert(config.encoder, 61)
        base.tensors["head.w"] = rng.normal(0.0, 0.1, base.tensors["head.w"].shape)
        bank = [base]
        for i in range(5):
            ase = ex.lora_inject(base, ex.LoraConfig(4, 16.0, 0.1), seed=62 + i)
            for name, value in ase.tensors.items():
                if name.startswith("lora.b") or name == "head.w":
                    ase.tensors[name] = rng.normal(0.0, 0.1, value.shape)
            bank.append(ase)
        root = tmp_path / "out"
        (root / "audio").mkdir(parents=True)
        entries = []
        # a chunk of 30, 75, 2 and 50 frames, then a short one
        for i, frames in enumerate((30, 75, 2, 50, 41, 3)):
            label = ("bonafide", "spoof")[i % 2]
            rel = f"audio/c{i}.wav"
            write_wav(root / rel, AudioClip(0.4 * rng.standard_normal(160 * frames), 16000))
            entries.append(corpus.ManifestEntry(f"c{i}", label, "eval", "T0", i, path=rel))
        pipe = cli.Pipeline(config, root)
        monkeypatch.setattr(corpus, "load_manifest", lambda path: corpus.Manifest(entries))
        assert ex.INFERENCE_CHUNK == 4

        for renormalize in (False, True):
            fused = {}
            for k in range(1, 6):
                system = fu.FusionSystem(bank, k, renormalize=renormalize, seed=70 + k)
                for name in ("gate.w", "gate.b", "pool.a", "cls.w2"):
                    system.params[name] = rng.normal(0.0, 0.5, system.params[name].shape)
                # specialists 1 and 3 get equal gate scores on every clip
                system.params["gate.w"][:, 3] = system.params["gate.w"][:, 1]
                system.params["gate.b"][0, 3] = system.params["gate.b"][0, 1]
                fused[f"fused_top{k}"] = system
            chunked = pipe._score_condition(bank, fused, "T0")
            monkeypatch.setattr(ex, "INFERENCE_CHUNK", 1)
            single = pipe._score_condition(bank, fused, "T0")
            monkeypatch.setattr(ex, "INFERENCE_CHUNK", 4)
            assert chunked[0] == 6 and set(chunked[1]) == set(pipe.system_names())
            assert chunked == single


class InlinePool:
    """Stands in for `ProcessPoolExecutor`: records its size and start
    method, and runs each task in this process when it is submitted."""

    def __init__(self, created, max_workers, mp_context):
        created.append((max_workers, mp_context.get_start_method()))

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait, cancel_futures):
        pass


class TestRunStages:
    def fake_stages(self, root, ran):
        stages = []
        for i in range(5):
            out = root / f"s{i}.out"

            def fn(i=i, out=out):
                ran.append(i)
                out.write_text(f"stage {i}")

            stages.append((f"fake-{i}", [], [out], fn))
        return stages

    @pytest.mark.parametrize("jobs", [1, 64])
    def test_only_stale_stages_run(self, tmp_path, monkeypatch, jobs):
        root = tmp_path / "out"
        root.mkdir()
        config = validate_config(micro_config(root))
        created = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *args, **kw: InlinePool(created, *args, **kw))
        ran, prepared, lines = [], [], []
        stages = self.fake_stages(root, ran)
        warm = cli.Pipeline(config, root, log=lambda msg: None)
        assert warm.run_stages([stages[1], stages[3]]) == [True, True]
        ran.clear()

        pipe = cli.Pipeline(config, root, jobs=jobs, log=lines.append)
        assert pipe.run_stages(stages, lambda: prepared.append(1)) == [
            True, False, True, False, True]
        assert ran == [0, 2, 4] and prepared == [1]
        assert created == ([] if jobs == 1 else [(3, "fork")])  # min(jobs, stale stages)
        assert lines == [
            "[fake-0] running", "[fake-0] done", "[fake-1] skipped (outputs up to date)",
            "[fake-2] running", "[fake-2] done", "[fake-3] skipped (outputs up to date)",
            "[fake-4] running", "[fake-4] done",
        ]
        fresh = cli.Pipeline(config, root, log=lambda msg: None)
        assert all(fresh.stage_cached(name, inputs + outputs)
                   for name, inputs, outputs, _ in stages)

        ran.clear()
        assert pipe.run_stages(stages, lambda: prepared.append(1)) == [False] * 5
        assert ran == [] and prepared == [1]
        assert len(created) == (0 if jobs == 1 else 1)


class TestAttackOnWorkers:
    def test_jobs_2_writes_what_jobs_1_writes(self, tmp_path, capsys):
        path = write_config(tmp_path, micro_config(tmp_path / "out"))
        trees, logs = {}, {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert cli.main(["--config", path, "--out", str(out), "--jobs", str(jobs),
                             "attack"]) == 0
            assert multiprocessing.active_children() == []
            trees[jobs] = {str(p.relative_to(out)): p.read_bytes()
                           for name in ("manifests", "audio", "state")
                           for p in (out / name).rglob("*") if p.is_file()}
            logs[jobs] = [line for line in capsys.readouterr().out.splitlines()
                          if not line.startswith("[config]")]
        assert str(Path("state", "attack-noise_first.json")) in trees[1]
        assert trees[2] == trees[1]
        assert "[attack-T5] running" in logs[1]
        assert logs[2] == logs[1]

    def test_one_pool_for_the_stale_conditions(self, tmp_path, monkeypatch):
        root = tmp_path / "out"
        config = validate_config(micro_config(root))
        created = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *args, **kw: InlinePool(created, *args, **kw))
        pipe = cli.Pipeline(config, root, jobs=64, log=lambda msg: None)
        pipe.synth()
        pipe.attack("T3")  # one condition runs here
        assert created == []
        pipe.attack()
        assert created == [(2, "fork")]  # min(jobs, stale conditions)

        def refuse(*args, **kwargs):
            raise AssertionError("a cached attack parsed a manifest")

        monkeypatch.setattr(corpus, "load_manifest", refuse)
        lines = []
        cli.Pipeline(config, root, jobs=64, log=lines.append).attack()
        assert created == [(2, "fork")]
        assert lines == [f"[attack-{c}] skipped (outputs up to date)"
                         for c in ("T3", "T5", "noise_first")]

    def test_condition_failing_on_a_worker(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        path = write_config(tmp_path, micro_config(out))
        assert cli.main(["--config", path, "synth"]) == 0
        lines = (out / "manifests" / "T0.jsonl").read_text().splitlines()
        entry = next(e for e in map(json.loads, lines) if e["split"] == "eval")
        (out / entry["path"]).write_bytes(b"not a wav file")
        monkeypatch.setattr(cli.Pipeline, "synth", lambda self: False)  # keep the junk
        capsys.readouterr()
        outcomes = []
        for jobs in (1, 2):
            assert cli.main(["--config", path, "--jobs", str(jobs), "attack"]) == 1
            assert multiprocessing.active_children() == []
            assert list((out / "state").glob("attack-*.json")) == []
            outcomes.append(capsys.readouterr())
        for captured in outcomes:
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert "malformed WAV" in err[0] and entry["path"] in err[0]
        assert outcomes[1] == outcomes[0]


def fusion_subset(config, root) -> list:
    """The fusion-subset entries `Pipeline._fusion_data` samples."""
    manifests = [corpus.load_manifest(root / "manifests" / f"{c}.jsonl")
                 for c in ["T0", *config.train_conditions]]
    return corpus.sample_fusion_subset(manifests, config.subset_fraction,
                                       config.seeds.fusion).entries


def buffer_of(array):
    """The object whose memory an array views, at the end of its bases."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


class TestFusionFeaturesOnWorkers:
    def test_jobs_2_features_equal_jobs_1(self, trained_bank):
        config = validate_config(trained_bank[0])
        data = {}
        for jobs in (1, 2):
            pipe = cli.Pipeline(config, trained_bank[1], jobs=jobs, log=lambda msg: None)
            bank, _ = pipe._load_bank()
            data[jobs] = pipe._fusion_data(bank)
            assert multiprocessing.active_children() == []
            arrays = [z for z_alls, _ in data[jobs] for z_all in z_alls for z in z_all]
            assert len({id(buffer_of(z)) for z in arrays}) == 1
            assert isinstance(buffer_of(arrays[0]), mmap.mmap)
        (subset, subset_labels), (dev, dev_labels) = data[2]
        assert len(subset) == 12 and len(dev) == 12  # 2 + 2 clips of each of 6 manifests
        assert subset_labels == data[1][0][1] and dev_labels == data[1][1][1]
        for (z_alls, _), (ref_alls, _) in zip(data[2], data[1]):
            for z_all, ref_all in zip(z_alls, ref_alls):
                assert len(z_all) == len(bank)
                for z, ref in zip(z_all, ref_all):
                    assert z.dtype == ref.dtype and z.shape == ref.shape
                    assert z.tobytes() == ref.tobytes()
        # each clip's rows are the rows it gets when stacked alone
        leaves = [ex.constant_leaves(model) for model in bank]
        for entry, z_all in zip(fusion_subset(config, trained_bank[1]), subset):
            zs, _ = fu.expert_features(bank, leaves, [corpus.resolve_clip(entry, trained_bank[1])])
            assert [z.value.tobytes() for z in zs] == [z.tobytes() for z in z_all]

    def test_stale_heads_at_jobs_2_write_what_jobs_1_writes(self, trained_bank, tmp_path):
        heads = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            shutil.copytree(trained_bank[1], out)
            for state in (out / "state").glob("train-fusion-*.json"):
                state.unlink()
            for ckpt in (out / "checkpoints").glob("fusion_top*.json"):
                ckpt.unlink()
            args = ["--config", trained_bank[0], "--out", str(out), "--jobs", str(jobs)]
            assert cli.main(args + ["train-fusion"]) == 0
            assert multiprocessing.active_children() == []
            heads[jobs] = {p.name: p.read_bytes()
                           for p in (out / "checkpoints").glob("fusion_top*.json")}
        assert sorted(heads[1]) == [f"fusion_top{k}.json" for k in (3, 4, 5)]
        assert heads[2] == heads[1]

    def test_one_pool_for_the_features_and_one_for_the_heads(self, trained_bank, tmp_path,
                                                              monkeypatch):
        out = copy_root(trained_bank, tmp_path)
        for state in (out / "state").glob("train-fusion-top[34].json"):
            state.unlink()
        config = validate_config(trained_bank[0])
        created = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *args, **kw: InlinePool(created, *args, **kw))
        cli.Pipeline(config, out, jobs=64, log=lambda msg: None).train_fusion()
        # 12 subset clips and 12 dev clips, chunked apart: 3 + 3 chunks
        assert created == [(6, "fork"), (2, "fork")]  # min(jobs, chunks), min(jobs, stale heads)
        lines = []
        cli.Pipeline(config, out, jobs=64, log=lines.append).train_fusion()
        assert len(created) == 2
        assert lines == [f"[train-fusion-top{k}] skipped (outputs up to date)" for k in (3, 4, 5)]

    def test_clip_shorter_than_a_frame_is_user_error(self, trained_bank, tmp_path, capsys):
        out = copy_root(trained_bank, tmp_path)
        for state in (out / "state").glob("train-fusion-*.json"):
            state.unlink()
        lines = (out / "manifests" / "T3.jsonl").read_text().splitlines()
        entry = next(e for e in map(json.loads, lines) if e["split"] == "dev")
        write_wav(out / entry["path"], AudioClip(np.zeros(100), 16000))
        capsys.readouterr()
        assert cli.main(["--config", trained_bank[0], "--out", str(out), "train-fusion"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: clip {entry['clip_id']!r} shorter than one frame (100 < 160)",
        ]

    @pytest.mark.parametrize("damage, message", [
        (lambda data: b"not a wav file", "malformed WAV"),
        # the header still declares every sample, so only the reader sees the loss
        (lambda data: data[:-1000], "96 frames, but its WAV header gives 100"),
    ], ids=["junk", "truncated"])
    def test_damaged_subset_clip_is_user_error(self, trained_bank, tmp_path, capsys, damage,
                                               message):
        out = copy_root(trained_bank, tmp_path)
        for state in (out / "state").glob("train-fusion-*.json"):
            state.unlink()
        entry = fusion_subset(validate_config(trained_bank[0]), out)[5]
        wav = out / entry.path
        wav.write_bytes(damage(wav.read_bytes()))
        capsys.readouterr()
        outcomes = []
        for jobs in (1, 2):
            args = ["--config", trained_bank[0], "--out", str(out), "--jobs", str(jobs)]
            assert cli.main(args + ["train-fusion"]) == 1
            assert multiprocessing.active_children() == []
            assert list((out / "state").glob("train-fusion-*.json")) == []
            outcomes.append(capsys.readouterr())
        err = outcomes[0].err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0] and entry.path in err[0]
        assert outcomes[1] == outcomes[0]


@pytest.mark.slow
class TestReproduce:
    def test_micro_end_to_end_and_idempotence(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, micro_config(out))
        assert cli.main(["--config", path, "reproduce"]) == 0
        first_out = capsys.readouterr().out
        assert "[report] done" in first_out

        reports = out / "reports"
        for name in (
            "single_attack_eer.csv",
            "mixed_attack_eer.csv",
            "param_efficiency.csv",
            "single_attack_eer.txt",
            "checksums.json",
        ):
            assert (reports / name).exists(), name

        csv_text = (reports / "single_attack_eer.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header == "system,condition,eer_percent,n_bona,n_spoof,trainable_params"
        for system in ("E0", "E1", "E2", "ensemble", "fused_top1", "fused_top2"):
            assert f"\n{system}," in csv_text or csv_text.startswith(f"{system},")

        checks_before = (reports / "checksums.json").read_bytes()
        assert cli.main(["--config", path, "reproduce"]) == 0
        second_out = capsys.readouterr().out
        assert "skipped" in second_out
        assert "[train-shared] running" not in second_out
        assert (reports / "checksums.json").read_bytes() == checks_before

        # the same experiment in a fresh root with two workers: byte-identical
        # outputs, and the same log apart from the resolved config
        jobs2 = tmp_path / "jobs2"
        assert cli.main(["--config", path, "--out", str(jobs2), "--jobs", "2", "reproduce"]) == 0
        assert (jobs2 / "reports" / "checksums.json").read_bytes() == checks_before
        assert multiprocessing.active_children() == []

        def log_lines(text):
            return [line for line in text.splitlines() if not line.startswith("[config]")]

        jobs2_out = capsys.readouterr().out
        assert "[train-ase-T3] running" in jobs2_out
        assert log_lines(jobs2_out) == log_lines(first_out)

    def test_corrupted_checkpoint_is_invariant_violation(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, micro_config(out))
        assert cli.main(["--config", path, "reproduce"]) == 0
        capsys.readouterr()
        ckpt = out / "checkpoints" / "e0.json"
        ckpt.write_text(ckpt.read_text().replace('"version":1', '"version":7'))
        # force evaluate to rerun against the tampered checkpoint
        for state in (out / "state").glob("evaluate*.json"):
            state.unlink()
        assert cli.main(["--config", path, "evaluate"]) == 2
        assert "invariant" in capsys.readouterr().err
