"""Tests of the benchmark's own arithmetic and output checks.

    PYTHONPATH=src python -m pytest perfbench -q

Each output check must fail on a deliberately corrupted copy of a tiny run.
"""
from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def tiny_config() -> dict:
    raw = run.make_config("reproduce", seed=7)
    raw["synth"].update(n_train=4, n_dev=2, n_eval=3)
    raw["expert_train"]["max_epochs"] = 1
    raw["fusion_train"]["max_epochs"] = 1
    return raw


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    from amulet.cli import Pipeline
    from amulet.config import validate_config

    raw = tiny_config()
    root = tmp_path_factory.mktemp("tiny") / "root"
    root.mkdir()
    Pipeline(validate_config(raw), root, jobs=1, log=run.quiet).reproduce()
    return raw, root


@pytest.fixture
def copy_of(tiny_run, tmp_path):
    raw, root = tiny_run
    dest = tmp_path / "copy"
    shutil.copytree(root, dest)
    return raw, dest


def all_clips(raw, root):
    return checks.check_scored_root(root, raw, sample_per_condition=10**6, sample_seed=0)


def edit_json(path: Path, fn) -> None:
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


def reasons(failures, op) -> str:
    return " | ".join(failures.get(op, []))


# --- spans -----------------------------------------------------------------------------


def test_self_time_on_hand_built_tree():
    # cli.evaluate [0, 10] holds experts.encoder_forward [1, 6], which holds
    # tensor.matmul_values [2, 4] and a nested experts.frame_features [4.5, 5.5]
    # that holds tensor.matmul_values [5, 5.25]. A second matmul [7, 8] sits
    # directly under the stage. Spans are listed in the order they ended.
    spans = [
        (3, 2, "tensor.matmul_values", 2.0, 4.0, ("f", 0)),
        (5, 4, "tensor.matmul_values", 5.0, 5.25, ("f", 0)),
        (4, 2, "experts.frame_features", 4.5, 5.5, None),
        (2, 1, "experts.encoder_forward", 1.0, 6.0, None),
        (6, 1, "tensor.matmul_values", 7.0, 8.0, ("b", 0)),
        (1, 0, "cli.evaluate", 0.0, 10.0, None),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[3] == 2.0
    assert selfs[4] == 0.75
    # 5 s minus both matmuls below it, seen through the same-layer child
    assert selfs[2] == 5.0 - 2.0 - 0.25
    assert selfs[1] == 10.0 - 5.0 - 1.0
    summary = tracing.summarize(spans, nodes=0)
    assert summary["cli.evaluate_s"] == 10.0  # stages are inclusive
    assert summary["experts.encoder_forward_s"] == 2.75
    assert summary["tensor.matmul_values_s"] == 3.25
    assert summary["tensor.matmul_values_calls"] == 3


def test_gflop_for_known_shapes():
    import importlib

    modules = {name: importlib.import_module(f"amulet.{name}") for name in tracing.MODULES}
    tc = modules["tensor"]
    original = tc.matmul_values
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        tc.matmul_values(np.ones((3, 4)), np.ones((4, 5)))  # 2*3*4*5 = 120
        a = tc.Node(np.ones((1, 4)), requires_grad=True)
        b = tc.Node(np.ones((4, 2)), requires_grad=True)
        loss = tc.cross_entropy(tc.matmul(a, b), 0)  # forward 2*1*4*2 = 16
        tc.backward(loss)  # g @ b.T: 2*1*2*4 = 16, a.T @ g: 2*4*1*2 = 16
    finally:
        tracer.uninstall()
    assert tc.matmul_values is original
    summary = tracing.summarize(tracer.spans, tracer.nodes)
    assert summary["tensor.forward_gflop"] == 136 / 1e9
    assert summary["tensor.backward_gflop"] == 32 / 1e9
    assert summary["tensor.backward_calls"] == 1
    assert summary["tensor.nodes"] == 4  # a, b, the product, the loss
    assert tracing.matmul_flops(np.ones((200, 160)), np.ones((160, 64))) == 2 * 200 * 160 * 64


def test_every_binding_is_wrapped_and_restored():
    import importlib

    modules = {name: importlib.import_module(f"amulet.{name}") for name in tracing.MODULES}
    original = modules["experts"].encoder_forward
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        assert modules["fusion"].encoder_forward is modules["experts"].encoder_forward
        assert modules["fusion"].encoder_forward is not original
    finally:
        tracer.uninstall()
    assert modules["fusion"].encoder_forward is original


# --- EER ---------------------------------------------------------------------------------


def test_eer_sweep_hand_cases():
    assert checks.eer_sweep([2.0, 3.0], [0.0, 1.0]) == 0.0
    assert checks.eer_sweep([0.0, 1.0], [2.0, 3.0]) == 1.0
    assert checks.eer_sweep([0.0, 2.0], [1.0, 3.0]) == 0.5


def test_eer_sweep_matches_program_definition():
    from amulet.metrics import ScoreSet, compute_eer

    rng = np.random.default_rng(3)
    for _ in range(50):
        bona = rng.normal(1.0, 1.0, int(rng.integers(1, 12))).round(1).tolist()
        spoof = rng.normal(0.0, 1.0, int(rng.integers(1, 12))).round(1).tolist()
        want = compute_eer(ScoreSet(bona, spoof)).eer
        assert math.isclose(checks.eer_sweep(bona, spoof), want, rel_tol=1e-12, abs_tol=1e-15)


# --- output checks on a tiny run ------------------------------------------------------------


def test_clean_run_passes_every_scored_check(tiny_run):
    raw, root = tiny_run
    assert all_clips(raw, root) == {}


def test_flipped_ensemble_score_fails(copy_of):
    raw, root = copy_of
    edit_json(root / "scores" / "ensemble__T3.json", lambda d: d["bona"].__setitem__(0, -d["bona"][0] - 1.0))
    failures = all_clips(raw, root)
    assert "not the mean of the expert scores" in reasons(failures, ("ensemble", "T3"))


def test_flipped_e0_score_fails(copy_of):
    raw, root = copy_of
    edit_json(root / "scores" / "E0__T6.json", lambda d: d["spoof"].__setitem__(1, -d["spoof"][1] - 1.0))
    failures = all_clips(raw, root)
    assert "!= forward" in reasons(failures, ("E0", "T6"))


def test_edited_eer_cell_fails(copy_of):
    raw, root = copy_of
    path = root / "reports" / "mixed_attack_eer.csv"
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("E2,rawboost5,"))
    fields = lines[row].split(",")
    fields[2] = repr(float(fields[2]) + 0.5)
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    failures = all_clips(raw, root)
    assert "report EER" in reasons(failures, ("E2", "rawboost5"))
    assert ("E2", "T0") not in failures or "report EER" not in reasons(failures, ("E2", "T0"))


def test_wrong_split_size_fails(copy_of):
    raw, root = copy_of
    edit_json(root / "scores" / "E4__T1.json", lambda d: d["bona"].pop())
    failures = all_clips(raw, root)
    assert "!= eval split" in reasons(failures, ("E4", "T1"))


def test_stale_checksum_entry_fails(copy_of):
    raw, root = copy_of
    edit_json(root / "reports" / "checksums.json",
              lambda d: d.__setitem__("scores/E1__T2.json", "0" * 64))
    failures = all_clips(raw, root)
    assert "checksum entry for scores/E1__T2.json" in reasons(failures, ("E1", "T2"))
    assert ("E1", "T3") not in failures


def test_perturbed_e0_tensor_fails(copy_of):
    raw, root = copy_of

    def perturb(payload):
        payload["tensors"]["enc.w0"]["data"][0] += 1e-3

    edit_json(root / "checkpoints" / "e0.json", perturb)
    failures = all_clips(raw, root)
    assert all("!= forward" in reasons(failures, ("E0", c)) for c in checks.conditions(raw))


def test_param_efficiency_closed_form(tiny_run, copy_of):
    raw, root = tiny_run
    assert checks.check_param_efficiency(root, raw) == {}
    lines = (root / "reports" / "param_efficiency.csv").read_text()
    assert "E1,1920,18624," in lines
    raw, copy = copy_of
    path = copy / "reports" / "param_efficiency.csv"
    path.write_text(path.read_text().replace("E3,1920,", "E3,1921,"))
    failures = checks.check_param_efficiency(copy, raw)
    assert set(failures) == {("E3", c) for c in checks.conditions(raw)}


def test_training_checks(tiny_run, copy_of):
    raw, root = copy_of
    same = {"shared": "a", "ase": "a", "fusion": "a"}
    failures = checks.check_trained_root(root, raw, same)
    assert set(failures) <= {f"fused_top{k}" for k in raw["k_values"]}

    def add_base_tensor(payload):
        payload["tensors"]["enc.w0"] = {"shape": [1, 1], "data": [0.0]}

    edit_json(root / "checkpoints" / "ase_T2.json", add_base_tensor)
    failures = checks.check_trained_root(root, raw, {"shared": "a", "ase": "b", "fusion": "a"})
    assert "enc.w0" in reasons(failures, "E2")
    assert "changed during train-ase" in reasons(failures, "E4")
    assert "cannot run the fused forward" in reasons(failures, "fused_top4")
    shutil.copy(tiny_run[1] / "checkpoints" / "ase_T2.json", root / "checkpoints")

    def zero_head(payload):
        for name in ("cls.w2", "cls.b2"):
            payload["tensors"][name]["data"] = [0.0] * len(payload["tensors"][name]["data"])

    edit_json(root / "checkpoints" / "fusion_top3.json", zero_head)
    assert math.isclose(checks.head_fit(root, raw, 3), math.log(2.0), rel_tol=1e-12)
    failures = checks.check_trained_root(root, raw, same)
    assert "not below ln 2" in reasons(failures, "fused_top3")
