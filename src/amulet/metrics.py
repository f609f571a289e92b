"""Scoring, equal error rate, and condition-matrix reporting.

Score polarity is fixed globally: bona fide is the positive (high-score)
class. The EER sweep walks every distinct score as a threshold with
FRR(t) = fraction of bona-fide scores below t and FAR(t) = fraction of spoof
scores at or above t, linearly interpolating between adjacent thresholds when
the two rates do not meet exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class ScoreSetError(ValueError):
    pass


class ReportError(ValueError):
    pass


@dataclass
class ScoreSet:
    bona_scores: list
    spoof_scores: list
    condition: str = ""
    system: str = ""

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "condition": self.condition,
            "bona": [float(s) for s in self.bona_scores],
            "spoof": [float(s) for s in self.spoof_scores],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScoreSet":
        return cls(data["bona"], data["spoof"], data["condition"], data["system"])


@dataclass
class EerResult:
    eer: float
    threshold: float


def compute_eer(scores: ScoreSet) -> EerResult:
    bona = np.asarray(scores.bona_scores, dtype=np.float64)
    spoof = np.asarray(scores.spoof_scores, dtype=np.float64)
    if bona.size == 0 or spoof.size == 0:
        raise ScoreSetError("EER needs scores from both classes")
    if not (np.isfinite(bona).all() and np.isfinite(spoof).all()):
        raise ScoreSetError(f"non-finite score in {scores.system or 'a score set'} "
                            f"{scores.condition}".rstrip())
    bona_sorted = np.sort(bona)
    spoof_sorted = np.sort(spoof)
    all_scores = np.concatenate([bona, spoof])
    thresholds = np.unique(all_scores)
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)  # FRR=1, FAR=0 endpoint

    frr = np.searchsorted(bona_sorted, thresholds, side="left") / bona.size
    far = (spoof.size - np.searchsorted(spoof_sorted, thresholds, side="left")) / spoof.size
    diff = frr - far  # non-decreasing in the threshold

    idx = int(np.searchsorted(diff > 0, True))  # first index with diff > 0
    if idx > 0 and diff[idx - 1] == 0.0:
        j = idx - 1
        while j > 0 and diff[j - 1] == 0.0:
            j -= 1
        return EerResult(float(frr[j]), float(thresholds[j]))
    if idx == 0:
        return EerResult(float(frr[0]), float(thresholds[0]))
    f1, f2 = frr[idx - 1], frr[idx]
    a1, a2 = far[idx - 1], far[idx]
    denom = (f2 - f1) - (a2 - a1)
    lam = (a1 - f1) / denom if denom != 0.0 else 0.0
    eer = f1 + lam * (f2 - f1)
    threshold = thresholds[idx - 1] + lam * (thresholds[idx] - thresholds[idx - 1])
    return EerResult(float(eer), float(threshold))


def save_scores(scores: ScoreSet, path) -> None:
    Path(path).write_text(json.dumps(scores.to_dict(), sort_keys=True, separators=(",", ":")) + "\n")


def load_scores(path) -> ScoreSet:
    """The `ScoreSet` of a file that `save_scores` wrote; any other file is
    a `ScoreSetError` naming it."""
    try:
        scores = ScoreSet.from_dict(json.loads(Path(path).read_text()))
    except ValueError as exc:  # JSON that does not parse
        raise ScoreSetError(f"{path}: not a score file ({exc})") from None
    except KeyError as exc:
        raise ScoreSetError(f"{path}: not a score file (no {exc.args[0]!r})") from None
    except TypeError:  # JSON whose top level is not an object
        raise ScoreSetError(f"{path}: not a score file (not a JSON object)") from None
    for key, values in (("bona", scores.bona_scores), ("spoof", scores.spoof_scores)):
        if not isinstance(values, list) or not all(isinstance(v, (int, float)) for v in values):
            raise ScoreSetError(f"{path}: not a score file ({key!r} is not a list of numbers)")
    return scores


@dataclass
class EvalReport:
    """EER matrix over systems x conditions, with row averages and TP counts."""

    systems: list
    conditions: list
    cells: dict = field(default_factory=dict)  # (system, condition) -> dict
    trainable_params: dict = field(default_factory=dict)  # system -> int

    def eer_percent(self, system: str, condition: str) -> float:
        return self.cells[(system, condition)]["eer_percent"]

    def row_average(self, system: str) -> float:
        return float(np.mean([self.eer_percent(system, c) for c in self.conditions]))


def build_report(score_sets, trainable_params=None) -> EvalReport:
    """Assemble the matrix; every (system, condition) pair must be covered."""
    systems, conditions, cells = [], [], {}
    for ss in score_sets:
        if ss.system not in systems:
            systems.append(ss.system)
        if ss.condition not in conditions:
            conditions.append(ss.condition)
        key = (ss.system, ss.condition)
        if key in cells:
            raise ReportError(f"duplicate cell for {key}")
        result = compute_eer(ss)
        cells[key] = {
            "eer_percent": 100.0 * result.eer,
            "n_bona": len(ss.bona_scores),
            "n_spoof": len(ss.spoof_scores),
        }
    for system in systems:
        for condition in conditions:
            if (system, condition) not in cells:
                raise ReportError(f"missing cell ({system}, {condition})")
    return EvalReport(systems, conditions, cells, dict(trainable_params or {}))


def report_to_csv(report: EvalReport) -> str:
    """Machine-readable artifact of record; EER kept at full precision."""
    lines = ["system,condition,eer_percent,n_bona,n_spoof,trainable_params"]
    for system in report.systems:
        tp = report.trainable_params.get(system)
        tp_text = "" if tp is None else str(tp)
        for condition in report.conditions:
            cell = report.cells[(system, condition)]
            lines.append(
                f"{system},{condition},{cell['eer_percent']!r},"
                f"{cell['n_bona']},{cell['n_spoof']},{tp_text}"
            )
    return "\n".join(lines) + "\n"


def report_from_csv(text: str) -> EvalReport:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    if header != ["system", "condition", "eer_percent", "n_bona", "n_spoof", "trainable_params"]:
        raise ReportError(f"unexpected CSV header: {lines[0]!r}")
    systems, conditions, cells, tp = [], [], {}, {}
    for line in lines[1:]:
        system, condition, eer, n_bona, n_spoof, params = line.split(",")
        if system not in systems:
            systems.append(system)
        if condition not in conditions:
            conditions.append(condition)
        if params:
            tp[system] = int(params)
        cells[(system, condition)] = {
            "eer_percent": float(eer),
            "n_bona": int(n_bona),
            "n_spoof": int(n_spoof),
        }
    return EvalReport(systems, conditions, cells, tp)


def render_report_text(report: EvalReport, title: str) -> str:
    """Fixed-width table mirroring the matrix layout, 2-decimal EER cells."""
    name_width = max([len(s) for s in report.systems] + [len("system")]) + 2
    col_width = max([len(c) for c in report.conditions] + [6]) + 2
    header = "system".ljust(name_width)
    header += "".join(c.rjust(col_width) for c in report.conditions)
    header += "avg".rjust(col_width) + "tp".rjust(10)
    rows = [title, "=" * len(title), header, "-" * len(header)]
    for system in report.systems:
        row = system.ljust(name_width)
        for condition in report.conditions:
            row += f"{report.eer_percent(system, condition):.2f}".rjust(col_width)
        row += f"{report.row_average(system):.2f}".rjust(col_width)
        tp = report.trainable_params.get(system)
        row += ("" if tp is None else str(tp)).rjust(10)
        rows.append(row)
    return "\n".join(rows) + "\n"
