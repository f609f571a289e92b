"""Output checks, computed apart from the program.

Every check here re-derives what a stage should have written, from the
run's own files and the config the benchmark generated, with the
benchmark's own arithmetic: a brute-force EER sweep, a plain numpy forward
of the expert bank and the fusion head built from checkpoint tensors and
WAVs read with `wave`, closed-form parameter counts, and sha256 over the
artifact tree. Nothing is compared against a stored copy of earlier output.

Each check charges its failures to the operations it belongs to: a
(system, condition) score set for scored runs, a trainer run for training.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import wave
from pathlib import Path

import numpy as np

LN2 = math.log(2.0)
# A head that fits its training clips must beat the zero-initialised start
# (cross-entropy ln 2) by at least this many nats.
FIT_MARGIN = 0.01
# Plain numpy forwards use BLAS products, so they match the program's ordered
# sums to rounding only (4e-16 on E0 scores).
FORWARD_TOL = 1e-9
# The ensemble score is the difference of mean logits; the mean of expert
# scores sums in another order.
ENSEMBLE_TOL = 1e-9
EER_TOL = 1e-9  # percentage points

# Model constants the forward below re-derives (experts.head_pool, fusion).
PAIR_EPS = 1e-12
STD_EPS = 1e-12
POOL_LOG_EPS = 1e-4
POOL_LOG_GAIN = 6.0
LN_EPS = 1e-5

ARTIFACT_DIRS = ("audio", "manifests", "checkpoints", "scores", "reports")


# --- files ----------------------------------------------------------------------


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def read_manifest(root, condition: str) -> list:
    text = (Path(root) / "manifests" / f"{condition}.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def eval_entries(root, condition: str) -> dict:
    """Eval entries per label, in the order the score files list them."""
    entries = sorted((e for e in read_manifest(root, condition) if e["split"] == "eval"),
                     key=lambda e: e["clip_id"])
    return {
        "bona": [e for e in entries if e["label"] == "bonafide"],
        "spoof": [e for e in entries if e["label"] == "spoof"],
    }


def read_samples(path) -> np.ndarray:
    with wave.open(str(path), "rb") as wav:
        if wav.getsampwidth() != 2 or wav.getnchannels() != 1:
            raise ValueError(f"{path}: not mono PCM16")
        data = wav.readframes(wav.getnframes())
    return np.frombuffer(data, dtype="<i2").astype(np.float64) / 32767.0


def payload_tensors(payload: dict) -> dict:
    return {
        name: np.asarray(spec["data"], dtype=np.float64).reshape(spec["shape"])
        for name, spec in payload["tensors"].items()
    }


def read_tensors(path) -> dict:
    return payload_tensors(json.loads(Path(path).read_text()))


# --- model re-derivation --------------------------------------------------------


def layer_dims(cfg: dict) -> list:
    dims = [cfg["encoder"]["frame_len"], *cfg["encoder"]["hidden_dims"]]
    return list(zip(dims[:-1], dims[1:]))


def frames(samples: np.ndarray, cfg: dict) -> np.ndarray:
    frame_len, hop = cfg["encoder"]["frame_len"], cfg["encoder"]["hop"]
    count = (samples.size - frame_len) // hop + 1
    out = np.stack([samples[i * hop: i * hop + frame_len] for i in range(count)])
    return out - out.mean(axis=1, keepdims=True)


def load_bank(root, cfg: dict) -> dict:
    """System name -> (tensors, lora scale or None); E0 first, then E1..En."""
    ckpt = Path(root) / "checkpoints"
    base = read_tensors(ckpt / "e0.json")
    lora = cfg["lora"]
    scale = lora["alpha"] / lora["rank"] if lora["scale_mode"] == "alpha_over_r" else lora["alpha"]
    bank = {"E0": (base, None)}
    for expert_id in sorted(cfg["roster"]):
        tensors = dict(base)
        tensors.update(read_tensors(ckpt / f"ase_{cfg['roster'][expert_id]}.json"))
        bank[expert_id] = (tensors, scale)
    return bank


def encode(feats: np.ndarray, tensors: dict, scale) -> np.ndarray:
    """Encoder features; `scale` is the LoRA scale, or None for E0."""
    h = feats
    for i in range(sum(1 for name in tensors if name.startswith("enc.w"))):
        pre = h @ tensors[f"enc.w{i}"] + tensors[f"enc.b{i}"]
        if scale is not None:
            pre = pre + ((h @ tensors[f"lora.a{i}"]) @ tensors[f"lora.b{i}"]) * scale
        h = np.tanh(pre)
    return h


def expert_logits(z: np.ndarray, tensors: dict) -> np.ndarray:
    mag = np.sqrt(z[:, 0::2] ** 2 + z[:, 1::2] ** 2 + PAIR_EPS)
    contrast = np.sqrt(mag.var(axis=0) + STD_EPS)
    motion = np.abs(np.diff(mag, axis=0)).mean(axis=0)
    pooled = np.concatenate([np.log(contrast + POOL_LOG_EPS), np.log(motion + POOL_LOG_EPS)])
    return pooled * POOL_LOG_GAIN @ tensors["head.w"] + tensors["head.b"][0]


def e0_logits(wav_path, e0: dict, cfg: dict) -> np.ndarray:
    return expert_logits(encode(frames(read_samples(wav_path), cfg), e0, None), e0)


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def fused_logits(z_all: list, params: dict, k: int, renormalize: bool) -> np.ndarray:
    z0 = z_all[0]
    scores = softmax(z0.mean(axis=0) @ params["gate.w"] + params["gate.b"][0])
    selected = sorted(np.argsort(-scores, kind="stable")[:k].tolist())
    weights = scores / scores[selected].sum() if renormalize else scores
    x = z0 + sum(weights[i] * z_all[1 + i] for i in selected)
    centered = x - x.mean(axis=1, keepdims=True)
    xhat = centered / np.sqrt((centered ** 2).mean(axis=1, keepdims=True) + LN_EPS)
    fused = xhat * params["ln.g"] + params["ln.b"]
    att = softmax((fused @ params["pool.a"])[:, 0])
    proj = (att @ fused) @ params["pool.proj"]
    hidden = np.tanh(proj @ params["cls.w1"] + params["cls.b1"][0])
    return hidden @ params["cls.w2"] + params["cls.b2"][0]


def cross_entropy(logits: np.ndarray, label: str) -> float:
    idx = 0 if label == "bonafide" else 1
    return float(np.logaddexp(logits[0], logits[1]) - logits[idx])


def stable_seed(*parts) -> int:
    digest = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def fusion_subset(root, cfg: dict) -> list:
    """The fusion-training clips: per source condition, floor(fraction * n)
    training entries drawn without replacement from a Philox stream."""
    chosen = []
    for condition in ["T0"] + [cfg["roster"][e] for e in sorted(cfg["roster"])]:
        train = [e for e in read_manifest(root, condition) if e["split"] == "train"]
        count = int(math.floor(cfg["subset_fraction"] * len(train)))
        rng = np.random.Generator(np.random.Philox(stable_seed(cfg["seeds"]["fusion"], condition)))
        picks = sorted(rng.choice(len(train), size=count, replace=False).tolist())
        chosen.extend(train[i] for i in picks)
    return chosen


# --- EER --------------------------------------------------------------------------


def eer_sweep(bona, spoof) -> float:
    """EER by brute force over every distinct score plus one point past the
    largest: FRR(t) = share of bona-fide scores below t, FAR(t) = share of
    spoof scores at or above t, interpolated linearly where the two cross
    between thresholds. Returns a fraction."""
    thresholds = sorted(set(bona) | set(spoof))
    thresholds.append(thresholds[-1] + 1.0)
    frr = [sum(1 for s in bona if s < t) / len(bona) for t in thresholds]
    far = [sum(1 for s in spoof if s >= t) / len(spoof) for t in thresholds]
    diff = [f - a for f, a in zip(frr, far)]
    idx = next(i for i, d in enumerate(diff) if d > 0)
    if idx == 0:
        return frr[0]
    if diff[idx - 1] == 0.0:
        j = idx - 1
        while j > 0 and diff[j - 1] == 0.0:
            j -= 1
        return frr[j]
    f1, f2, a1, a2 = frr[idx - 1], frr[idx], far[idx - 1], far[idx]
    denom = (f2 - f1) - (a2 - a1)
    lam = (a1 - f1) / denom if denom != 0.0 else 0.0
    return f1 + lam * (f2 - f1)


# --- scored runs (reproduce, score) ------------------------------------------------


def systems(cfg: dict) -> list:
    return (["E0"] + sorted(cfg["roster"]) + ["ensemble"]
            + [f"fused_top{k}" for k in cfg["k_values"]])


def conditions(cfg: dict) -> list:
    single = ["T0"] + [cfg["roster"][e] for e in sorted(cfg["roster"])] + list(cfg["eval_extra"])
    return single + list(cfg["mixed"])


def score_ops(cfg: dict) -> list:
    return [(s, c) for s in systems(cfg) for c in conditions(cfg)]


def _read_report_cells(root) -> dict:
    cells = {}
    for stem in ("single_attack_eer", "mixed_attack_eer"):
        lines = (Path(root) / "reports" / f"{stem}.csv").read_text().splitlines()
        for line in lines[1:]:
            system, condition, eer, n_bona, n_spoof, _ = line.split(",")
            cells[(system, condition)] = (float(eer), int(n_bona), int(n_spoof))
    return cells


def _ops_for_file(rel: str, cfg: dict) -> list:
    """The operations whose result depends on an artifact file."""
    ops = score_ops(cfg)
    parts = rel.split("/")
    if parts[0] == "scores":
        system, _, condition = parts[1][: -len(".json")].partition("__")
        return [(system, condition)]
    if parts[0] in ("audio", "manifests"):
        condition = parts[1] if parts[0] == "audio" else parts[1][: -len(".jsonl")]
        return [op for op in ops if op[1] == condition] or ops
    if parts[0] == "checkpoints" and parts[1].startswith("fusion_top"):
        system = "fused_top" + parts[1][len("fusion_top"): -len(".json")]
        return [op for op in ops if op[0] == system]
    if parts[0] == "checkpoints" and parts[1].startswith("ase_"):
        condition = parts[1][len("ase_"): -len(".json")]
        owners = {e for e, c in cfg["roster"].items() if c == condition}
        return [op for op in ops if op[0] in owners or not op[0].startswith("E")]
    return ops


def check_checksums(root, cfg: dict) -> dict:
    """reports/checksums.json must list every artifact with its sha256."""
    root = Path(root)
    listed = json.loads((root / "reports" / "checksums.json").read_text())
    present = {}
    for name in ARTIFACT_DIRS:
        for path in sorted((root / name).rglob("*")):
            if path.is_file() and path.name != "checksums.json":
                present[str(path.relative_to(root))] = sha256_file(path)
    failures = {}
    for rel in sorted(set(listed) | set(present)):
        if listed.get(rel) != present.get(rel):
            for op in _ops_for_file(rel, cfg):
                failures.setdefault(op, []).append(f"checksum entry for {rel} is stale or missing")
    return failures


def check_param_efficiency(root, cfg: dict) -> dict:
    dims = layer_dims(cfg)
    total = sum(m * n + n for m, n in dims)
    adapter = cfg["lora"]["rank"] * sum(m + n for m, n in dims)
    expected = {"E0": total, **{e: adapter for e in cfg["roster"]}}
    lines = (Path(root) / "reports" / "param_efficiency.csv").read_text().splitlines()
    rows = {}
    for line in lines[1:]:
        system, trainable, tot, percent = line.split(",")
        rows[system] = (int(trainable), int(tot), float(percent))
    failures = {}
    for system, trainable in expected.items():
        want = (trainable, total, 100.0 * trainable / total)
        got = rows.get(system)
        if got is None or got[:2] != want[:2] or not math.isclose(got[2], want[2], rel_tol=1e-12):
            for c in conditions(cfg):
                failures.setdefault((system, c), []).append(
                    f"param_efficiency row {got} != closed form {want}")
    return failures


def check_scored_root(root, cfg: dict, sample_per_condition: int, sample_seed: int) -> dict:
    """Failures per (system, condition) of a scored run: report cells against
    a brute-force EER of each score file, split sizes, ensemble means, a
    numpy E0 forward on sampled clips, E0's clean EER, parameter accounting
    and the checksum manifest."""
    root = Path(root)
    failures = {}

    def fail(op, reason):
        failures.setdefault(op, []).append(reason)

    n_eval = cfg["synth"]["n_eval"]
    cells = _read_report_cells(root)
    scores = {}
    for system, condition in score_ops(cfg):
        path = root / "scores" / f"{system}__{condition}.json"
        if not path.exists():
            fail((system, condition), "score file missing")
            continue
        data = json.loads(path.read_text())
        scores[(system, condition)] = data
        cell = cells.get((system, condition))
        if cell is None:
            fail((system, condition), "report cell missing")
            continue
        eer = 100.0 * eer_sweep(data["bona"], data["spoof"])
        if not math.isclose(cell[0], eer, rel_tol=1e-12, abs_tol=EER_TOL):
            fail((system, condition), f"report EER {cell[0]!r} != recomputed {eer!r}")
        sizes = (len(data["bona"]), len(data["spoof"]))
        if cell[1:] != (n_eval, n_eval) or sizes != (n_eval, n_eval):
            fail((system, condition), f"counts {cell[1:]} / {sizes} != eval split {n_eval}")
        if (system, condition) == ("E0", "T0") and eer >= 50.0:
            fail((system, condition), f"E0 clean EER {eer:.2f}% is not below 50%")

    experts = ["E0"] + sorted(cfg["roster"])
    for condition in conditions(cfg):
        sets = [scores.get((s, condition)) for s in experts + ["ensemble"]]
        if any(s is None for s in sets):
            continue
        for slot in ("bona", "spoof"):
            if len({len(s[slot]) for s in sets}) != 1:
                fail(("ensemble", condition), f"{slot} score lists differ in length")
                continue
            mean = np.mean([s[slot] for s in sets[:-1]], axis=0)
            got = np.asarray(sets[-1][slot])
            if np.any(np.abs(got - mean) > ENSEMBLE_TOL * np.maximum(1.0, np.abs(mean))):
                fail(("ensemble", condition), f"{slot} scores are not the mean of the expert scores")

    e0 = read_tensors(root / "checkpoints" / "e0.json")
    rng = random.Random(sample_seed)
    for condition in conditions(cfg):
        saved = scores.get(("E0", condition))
        if saved is None:
            continue
        entries = eval_entries(root, condition)
        if any(len(saved[slot]) != len(entries[slot]) for slot in entries):
            fail(("E0", condition), "E0 score lists do not match the eval manifest")
            continue
        pool = [(slot, i) for slot in ("bona", "spoof") for i in range(len(entries[slot]))]
        for slot, i in rng.sample(pool, min(sample_per_condition, len(pool))):
            logits = e0_logits(root / entries[slot][i]["path"], e0, cfg)
            score = logits[0] - logits[1]
            if abs(score - saved[slot][i]) > FORWARD_TOL * max(1.0, abs(score)):
                fail(("E0", condition),
                     f"{entries[slot][i]['clip_id']}: saved {saved[slot][i]!r} != forward {score!r}")

    for more in (check_param_efficiency(root, cfg), check_checksums(root, cfg)):
        for op, reasons in more.items():
            failures.setdefault(op, []).extend(reasons)
    return failures


# --- training runs -------------------------------------------------------------------


def train_ops(cfg: dict) -> list:
    return ["E0"] + sorted(cfg["roster"]) + [f"fused_top{k}" for k in cfg["k_values"]]


def _check_tensor_set(path, expected: dict) -> list:
    payload = json.loads(Path(path).read_text())
    shapes = {name: tuple(spec["shape"]) for name, spec in payload["tensors"].items()}
    if shapes != expected:
        return [f"{Path(path).name}: tensors {sorted(shapes.items())} != {sorted(expected.items())}"]
    return []


def head_fit(root, cfg: dict, k: int) -> float:
    """Mean training cross-entropy of the fused top-k head on its own fusion subset."""
    bank = load_bank(root, cfg)
    payload = json.loads((Path(root) / "checkpoints" / f"fusion_top{k}.json").read_text())
    params = payload_tensors(payload)
    losses = []
    for entry in fusion_subset(root, cfg):
        feats = frames(read_samples(Path(root) / entry["path"]), cfg)
        z_all = [encode(feats, tensors, scale) for tensors, scale in bank.values()]
        losses.append(cross_entropy(fused_logits(z_all, params, k, payload["renormalize"]),
                                    entry["label"]))
    return float(np.mean(losses))


def e0_fit(root, cfg: dict) -> float:
    """Mean training cross-entropy of E0 on the clean training split."""
    e0 = read_tensors(Path(root) / "checkpoints" / "e0.json")
    losses = [
        cross_entropy(e0_logits(Path(root) / entry["path"], e0, cfg), entry["label"])
        for entry in read_manifest(root, "T0") if entry["split"] == "train"
    ]
    return float(np.mean(losses))


def check_trained_root(root, cfg: dict, e0_digests: dict) -> dict:
    """Failures per trainer run. `e0_digests` holds the sha256 of e0.json
    after train-shared, after train-ase and after train-fusion."""
    root = Path(root)
    ckpt = root / "checkpoints"
    dims = layer_dims(cfg)
    rank = cfg["lora"]["rank"]
    head = {"head.w": (dims[-1][1], 2), "head.b": (1, 2)}
    failures = {}

    def fail(op, reasons):
        if reasons:
            failures.setdefault(op, []).extend(reasons)

    base = {**head}
    for i, (m, n) in enumerate(dims):
        base[f"enc.w{i}"] = (m, n)
        base[f"enc.b{i}"] = (1, n)
    adapter = {**head}
    for i, (m, n) in enumerate(dims):
        adapter[f"lora.a{i}"] = (m, rank)
        adapter[f"lora.b{i}"] = (rank, n)

    fail("E0", _check_tensor_set(ckpt / "e0.json", base))
    if json.loads((ckpt / "e0.json").read_text())["frozen"]:
        fail("E0", ["e0.json lists frozen tensors after full fine-tuning"])
    for expert_id in sorted(cfg["roster"]):
        path = ckpt / f"ase_{cfg['roster'][expert_id]}.json"
        fail(expert_id, _check_tensor_set(path, adapter) if path.exists() else [f"{path.name} missing"])
        if e0_digests["ase"] != e0_digests["shared"]:
            fail(expert_id, ["e0.json changed during train-ase"])
    for k in cfg["k_values"]:
        op = f"fused_top{k}"
        if e0_digests["fusion"] != e0_digests["shared"]:
            fail(op, ["e0.json changed during train-fusion"])
        if not (ckpt / f"fusion_top{k}.json").exists():
            fail(op, [f"fusion_top{k}.json missing"])
            continue
        try:
            loss = head_fit(root, cfg, k)
        except (KeyError, ValueError) as exc:
            fail(op, [f"cannot run the fused forward: {exc!r}"])
            continue
        if not loss < LN2 - FIT_MARGIN:
            fail(op, [f"training cross-entropy {loss:.6f} is not below ln 2 - {FIT_MARGIN}"])
    return failures
