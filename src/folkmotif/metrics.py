"""Stratified splitting, confusion-matrix metrics, and report rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence, TypeVar

import numpy as np

from .seeds import stream

Labeled = TypeVar("Labeled")  # anything with a .label attribute


def split_dataset(
    items: Sequence[Labeled], ratio: float = 0.75, seed: int = 0
) -> tuple[list[Labeled], list[Labeled]]:
    """Seeded stratified split into (train, test), from the seed's split stream.

    Each class is shuffled and split independently; the test share is
    rounded half-up and the remainder goes to train, so a 75% split of the
    4923-song two-class corpus yields exactly 3692/1231. A class whose
    rounded test share takes every song is refused: no model could learn it.
    So is a class whose test share rounds to 0: its recall could not be
    measured, and would read as 0.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    if not items:
        raise ValueError("cannot split an empty dataset")
    by_label: dict[str, list[int]] = {}
    for i, item in enumerate(items):
        by_label.setdefault(item.label, []).append(i)
    rng = stream(seed, "split")
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_label):
        members = by_label[label]
        if len(members) < 2:
            raise ValueError(f"class {label!r} has fewer than 2 songs; cannot stratify")
        order = rng.permutation(len(members))
        n_test = int(np.floor(len(members) * (1.0 - ratio) + 0.5))
        if n_test == len(members):
            raise ValueError(f"class {label!r} gets no training song at ratio {ratio}")
        if n_test == 0:
            raise ValueError(f"class {label!r} gets no test song at ratio {ratio}")
        test_idx.extend(members[i] for i in order[:n_test])
        train_idx.extend(members[i] for i in order[n_test:])
    return [items[i] for i in train_idx], [items[i] for i in test_idx]


@dataclass
class MetricsReport:
    labels: list[str]
    confusion: np.ndarray  # [gold][predicted]
    accuracy: float = field(init=False)
    precision: dict[str, float] = field(init=False)
    recall: dict[str, float] = field(init=False)
    counts: dict[str, int] = field(init=False)
    undefined_precision: list[str] = field(init=False)
    macro_precision: float = field(init=False)

    def __post_init__(self):
        entries = np.asarray(self.confusion, dtype=object)  # keeps True and 1.5, not 1
        L = len(self.labels)
        if entries.shape != (L, L):
            raise ValueError(f"confusion matrix must be {L}x{L}")
        for n in entries.flat:
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
                raise ValueError(f"confusion entries must be non-negative integers, got {n!r}")
        self.confusion = entries.astype(np.int64)
        total = int(self.confusion.sum())
        if total == 0:
            raise ValueError("empty confusion matrix")
        self.accuracy = float(np.trace(self.confusion) / total)
        self.precision = {}
        self.recall = {}
        self.counts = {}
        self.undefined_precision = []
        for c, label in enumerate(self.labels):
            predicted = int(self.confusion[:, c].sum())
            gold = int(self.confusion[c, :].sum())
            tp = int(self.confusion[c, c])
            if predicted == 0:
                # never predicted: precision undefined, reported as 0 + flag
                self.precision[label] = 0.0
                self.undefined_precision.append(label)
            else:
                self.precision[label] = tp / predicted
            self.recall[label] = tp / gold if gold else 0.0
            self.counts[label] = gold
        self.macro_precision = float(np.mean([self.precision[l] for l in self.labels]))

    def to_dict(self) -> dict:
        return {
            "labels": self.labels,
            "confusion": self.confusion.tolist(),
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "counts": self.counts,
            "undefined_precision": self.undefined_precision,
            "macro_precision": self.macro_precision,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        obj = json.loads(text)
        return cls(labels=list(obj["labels"]), confusion=obj["confusion"])


def evaluate(predictions: Sequence[str], gold: Sequence[str], labels: Sequence[str]) -> MetricsReport:
    """Confusion matrix and derived rates over aligned label sequences."""
    if len(predictions) != len(gold):
        raise ValueError(f"{len(predictions)} predictions for {len(gold)} gold labels")
    index = {label: i for i, label in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for pred, truth in zip(predictions, gold):
        if truth not in index:
            raise ValueError(f"gold label {truth!r} not in {list(labels)}")
        if pred not in index:
            raise ValueError(f"predicted label {pred!r} not in {list(labels)}")
        confusion[index[truth], index[pred]] += 1
    return MetricsReport(labels=list(labels), confusion=confusion)


def render_report(report: MetricsReport, title: str = "") -> str:
    """Aligned text table: per-class precision/recall/support plus accuracy."""
    width = max(len(l) for l in report.labels + ["class"])
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'class':<{width}}  precision  recall  support")
    for label in report.labels:
        star = "*" if label in report.undefined_precision else " "
        lines.append(
            f"{label:<{width}}  {report.precision[label]:>9.4f}{star} "
            f"{report.recall[label]:>6.4f}  {report.counts[label]:>7d}"
        )
    lines.append(f"accuracy (micro precision): {report.accuracy:.4f}")
    lines.append(f"macro precision:            {report.macro_precision:.4f}")
    if report.undefined_precision:
        lines.append("* precision undefined (class never predicted); reported as 0")
    return "\n".join(lines) + "\n"
