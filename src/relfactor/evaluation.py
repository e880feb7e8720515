"""Split protocols and metrics: held-out prediction, cold-start prediction,
F1 / micro-averaged F1 / precision-recall curves.

Splits partition the target relation's observed tuples exactly; all other
relations pass to the training database intact, and the entity registry is
shared so withheld entities stay registered (they keep whatever embedding
training gives them, which for entities with no side relations is their
random initialization).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError
from .model import EmbeddingStore, resolve_cells, score_cells, sigmoid_array
from .rng import substream
from .schema import Database, LabeledCell


@dataclass
class SplitSpec:
    mode: str  # "held_out" | "cold_start"
    target_relation: str
    train_fraction: float = 0.70
    cold_fraction: float = 0.10
    cold_side: str = "col"  # "row" | "col"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("held_out", "cold_start"):
            raise DataError(f"unknown split mode {self.mode!r}")
        if not (0.0 < self.train_fraction < 1.0):
            raise DataError("train_fraction must be in (0, 1)")
        if not (0.0 < self.cold_fraction < 1.0):
            raise DataError("cold_fraction must be in (0, 1)")
        if self.cold_side not in ("row", "col"):
            raise DataError(f"cold_side must be 'row' or 'col', got {self.cold_side!r}")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _as_cells(db: Database, relation: str, columns: np.ndarray) -> list[LabeledCell]:
    return list(db.with_tuples({relation: columns}).iter_tuples(relation))


def split_held_out(db: Database, spec: SplitSpec) -> tuple[Database, list[LabeledCell], list[LabeledCell]]:
    """Partition the target relation: train_fraction to train, the remainder
    divided equally into validation and test (odd remainder to validation)."""
    if spec.mode != "held_out":
        raise DataError("split_held_out requires mode 'held_out'")
    columns = db.columns(spec.target_relation)
    n = columns.shape[1]
    if not n:
        raise DataError(f"target relation {spec.target_relation} is empty")
    order = substream(spec.seed, "split").permutation(n)
    n_train = _round_half_up(spec.train_fraction * n)
    n_val = (n - n_train + 1) // 2
    train_part, val_part, test_part = np.hsplit(columns[:, order], [n_train, n_train + n_val])
    train_db = db.with_tuples({spec.target_relation: train_part})
    return train_db, _as_cells(db, spec.target_relation, val_part), \
        _as_cells(db, spec.target_relation, test_part)


def split_cold_start(db: Database, spec: SplitSpec):
    """Withhold all target-relation tuples of a random cold_fraction of the
    cold-side entities into the test set; the remaining target tuples split
    90/10 into train and validation. Side relations pass through intact, so
    cold entities keep their side-relation tuples.

    Returns (train_db, validation, test, cold_entities).
    """
    if spec.mode != "cold_start":
        raise DataError("split_cold_start requires mode 'cold_start'")
    rel = db.relation(spec.target_relation)
    side_type = rel.row_type if spec.cold_side == "row" else rel.col_type
    population = db.entities.of_type(side_type)
    if not population:
        raise DataError(f"no entities of type {side_type!r} to draw cold entities from")
    if len(population) < 10:
        warnings.warn(
            f"cold-side population has only {len(population)} entities; "
            f"a {spec.cold_fraction:.0%} draw is degenerate", stacklevel=2)
    rng = substream(spec.seed, "split")
    order = rng.permutation(len(population))
    n_cold = math.ceil(spec.cold_fraction * len(population))
    cold = [population[t] for t in order[:n_cold]]
    if not cold:
        raise DataError("cold entity set is empty after draw")

    columns = db.columns(spec.target_relation)
    side = 0 if spec.cold_side == "row" else 1
    is_cold = np.isin(columns[side], [e.index for e in cold])
    test_part, warm = columns[:, is_cold], columns[:, ~is_cold]
    warm_order = rng.permutation(warm.shape[1])
    n_train = _round_half_up(0.9 * warm.shape[1])
    train_part, val_part = np.hsplit(warm[:, warm_order], [n_train])
    train_db = db.with_tuples({spec.target_relation: train_part})
    return train_db, _as_cells(db, spec.target_relation, val_part), \
        _as_cells(db, spec.target_relation, test_part), cold


def classify(score: float, threshold: float = 0.5) -> int:
    """1 iff score >= threshold (boundary inclusive)."""
    return 1 if score >= threshold else 0


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @classmethod
    def from_arrays(cls, predictions: Sequence[int], labels: Sequence[int]) -> "ConfusionCounts":
        """Counts of predictions against labels, each 1 (positive) or not."""
        pred = np.asarray(predictions) == 1
        pos = np.asarray(labels) == 1
        tp = int(np.count_nonzero(pred & pos))
        fp = int(np.count_nonzero(pred & ~pos))
        fn = int(np.count_nonzero(~pred & pos))
        return cls(tp, fp, len(pos) - tp - fp - fn, fn)

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.tn + other.tn, self.fn + other.fn)


@dataclass
class EvalReport:
    """Per-dataset confusion counts plus pooled (micro) metrics."""

    datasets: dict[str, ConfusionCounts] = field(default_factory=dict)
    threshold: float = 0.5
    pr_points: list[tuple[float, float, float]] = field(default_factory=list)

    @property
    def pooled(self) -> ConfusionCounts:
        total = ConfusionCounts()
        for counts in self.datasets.values():
            total = total + counts
        return total

    @property
    def micro_f1(self) -> float:
        return self.pooled.f1

    @property
    def macro_f1(self) -> float:
        if not self.datasets:
            return 0.0
        return sum(c.f1 for c in self.datasets.values()) / len(self.datasets)

    def to_tsv(self) -> str:
        lines = ["dataset\ttp\tfp\ttn\tfn\tprecision\trecall\tf1"]
        rows = list(self.datasets.items())
        rows.append(("pooled", self.pooled))
        for name, c in rows:
            lines.append(f"{name}\t{c.tp}\t{c.fp}\t{c.tn}\t{c.fn}"
                         f"\t{c.precision:.6f}\t{c.recall:.6f}\t{c.f1:.6f}")
        return "\n".join(lines) + "\n"


def f1_report(predictions: Sequence[int], labels: Sequence[int],
              name: str = "test", threshold: float = 0.5) -> EvalReport:
    """Exact confusion counts and P/R/F1 for one prediction/label set."""
    if len(predictions) != len(labels):
        raise DataError("predictions and labels must have equal length")
    if len(labels) == 0:
        raise DataError("empty prediction/label set")
    return EvalReport(datasets={name: ConfusionCounts.from_arrays(predictions, labels)},
                      threshold=threshold)


def micro_f1(reports: Sequence[EvalReport]) -> EvalReport:
    """Pool confusion counts across reports; P/R/F1 computed on the pooled
    counts, with the unweighted mean of per-dataset F1 available as macro_f1."""
    if not reports:
        raise DataError("micro_f1 requires at least one report")
    merged: dict[str, ConfusionCounts] = {}
    for report in reports:
        for name, counts in report.datasets.items():
            key = name
            serial = 2
            while key in merged:
                key = f"{name}#{serial}"
                serial += 1
            merged[key] = counts
    return EvalReport(datasets=merged, threshold=reports[0].threshold)


def pr_curve(scores: Sequence[float], labels: Sequence[int]) -> list[tuple[float, float, float]]:
    """(precision, recall, threshold) at each distinct score, descending
    threshold; requires at least one positive and one negative label."""
    if len(scores) != len(labels):
        raise DataError("scores and labels must have equal length")
    y = np.asarray(labels, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(y == 1))
    if n_pos == 0 or n_pos == len(y):
        raise DataError("pr_curve requires both a positive and a negative label")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    tp = np.cumsum(y_sorted == 1)
    fp = np.cumsum(y_sorted == 0)
    # one point per distinct threshold: the last position of each score run
    last = np.nonzero(np.append(np.diff(s_sorted) != 0, True))[0]
    points = []
    for idx in last:
        precision = tp[idx] / (tp[idx] + fp[idx])
        recall = tp[idx] / n_pos
        points.append((float(precision), float(recall), float(s_sorted[idx])))
    return points


def evaluate(store: EmbeddingStore, test_set: Sequence[LabeledCell],
             threshold: float = 0.5) -> EvalReport:
    """Score every test cell, classify at the threshold, and assemble the
    report with one dataset per relation plus pooled counts. The PR curve
    (over all cells) is included when both classes appear in the labels."""
    if not test_set:
        raise DataError("empty test set")
    rel_ids, rows, cols, labels = resolve_cells(store, test_set)
    scores = sigmoid_array(score_cells(store, rel_ids, rows, cols))
    preds = scores >= threshold  # classify(), elementwise
    names = list(store.relations)
    datasets = {names[rel_id]: ConfusionCounts.from_arrays(preds[rel_ids == rel_id],
                                                           labels[rel_ids == rel_id])
                for rel_id in dict.fromkeys(rel_ids.tolist())}
    report = EvalReport(datasets=datasets, threshold=threshold)
    if 0 < int(labels.sum()) < len(labels):
        report.pr_points = pr_curve(scores, labels)
    return report
