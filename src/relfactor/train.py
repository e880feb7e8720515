"""SGD training of the embedding store over shuffled database tuples plus
per-epoch negative samples.

Update rule per example (simultaneous, both sides read pre-step values):
    e = y - sigmoid(v1 . v2 [+ b1 + b2 + g])
    v1 += gamma * (e * v2 - lam * v1)
    v2 += gamma * (e * v1 - lam * v2)
    b1 += gamma * (e - lam * b1); b2 += gamma * (e - lam * b2); g += gamma * e

Negative samples for positives_only relations are drawn uniformly over the
relation's row/col entity populations, rejecting observed positives, at
neg_ratio parity with the observed positive count. Fully-observed relations
contribute sampled cells labeled by lookup (unobserved = 0) without rejection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, DivergenceError
from .evaluation import ConfusionCounts
from .model import (EmbeddingStore, init_embeddings, log_likelihood, resolve_cells,
                    score_cells, sigmoid)
from .rng import substream, substream_seed
from .schema import Database, LabeledCell

_DIVERGENCE_LIMIT = 1e6
_REJECTION_CAP = 100


@dataclass
class TrainConfig:
    k: int
    relations: Sequence[str]
    lam: float = 0.001
    gamma: float = 0.01
    epochs: int = 50
    seed: int = 0
    neg_ratio: float = 1.0
    enable_biases: bool = False
    init_scale: float = 0.01

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DataError("k must be >= 1")
        if not self.relations:
            raise DataError("relation subset must be nonempty")
        if self.lam < 0:
            raise DataError("lambda must be nonnegative")
        if self.gamma <= 0:
            raise DataError("learning rate gamma must be positive")
        if self.epochs < 1:
            raise DataError("epoch count must be >= 1")
        if self.neg_ratio <= 0:
            raise DataError("neg_ratio must be positive")


@dataclass
class EpochLogEntry:
    epoch: int
    objective: float
    val_f1: Optional[float]
    seconds: float
    epoch_seed: int
    negatives_sampled: dict[str, int] = field(default_factory=dict)
    degenerate_sampling: bool = False
    val_negative_collisions: int = 0


@dataclass
class TrainLog:
    entries: list[EpochLogEntry] = field(default_factory=list)

    def to_tsv(self) -> str:
        lines = ["epoch\tobjective\tval_f1\tseconds"]
        for e in self.entries:
            val = "NA" if e.val_f1 is None else format(e.val_f1, ".6f")
            lines.append(f"{e.epoch}\t{e.objective:.6f}\t{val}\t{e.seconds:.3f}")
        return "\n".join(lines) + "\n"


def _apply_update(vectors: np.ndarray, biases: Optional[np.ndarray],
                  offsets: Optional[dict[str, float]], rel_name: str,
                  i: int, j: int, y: float, gamma: float, lam: float) -> float:
    """One SGD step on cell (i, j); returns the residual e = y - p."""
    v1 = vectors[i]
    v2 = vectors[j]
    s = float(v1 @ v2)
    if biases is not None:
        s += float(biases[i]) + float(biases[j]) + offsets[rel_name]
    e = y - sigmoid(s)
    ge = gamma * e
    d1 = ge * v2 - (gamma * lam) * v1
    d2 = ge * v1 - (gamma * lam) * v2
    vectors[i] += d1
    vectors[j] += d2
    if biases is not None:
        bi, bj = float(biases[i]), float(biases[j])
        biases[i] = bi + gamma * (e - lam * bi)
        biases[j] = bj + gamma * (e - lam * bj)
        offsets[rel_name] += ge
    return e


def sgd_step(store: EmbeddingStore, relation: str, e1_id: str, e2_id: str,
             y: int, gamma: float, lam: float) -> None:
    """Apply one update on a labeled cell, mutating the store in place."""
    rel, ent1, ent2 = store.resolve(relation, e1_id, e2_id)
    _apply_update(store.vectors, store.biases, store.offsets, rel.name,
                  ent1.index, ent2.index, float(y), gamma, lam)
    touched = store.vectors[[ent1.index, ent2.index]]
    if not np.all(np.isfinite(touched)) or np.abs(touched).max() > _DIVERGENCE_LIMIT:
        raise DivergenceError(
            f"parameters diverged updating {relation}({e1_id},{e2_id})"
        )


def sample_negatives(db: Database, relation: str, count: int,
                     rng: np.random.Generator) -> tuple[list[tuple[int, int]], bool]:
    """Draw ``count`` negative cells for a positives_only relation.

    Cells are (row, col) global entity indices, uniform over the relation's
    row/col populations; observed positives and already-chosen cells are
    rejection-resampled up to a cap of 100 attempts per draw, after which the
    last candidate is accepted regardless (degenerate flag set). The returned
    count always equals ``count``.
    """
    rel = db.relation(relation)
    if not rel.positives_only:
        raise DataError(f"relation {relation} is not positives_only")
    rows = db.entities.of_type(rel.row_type)
    cols = db.entities.of_type(rel.col_type)
    if not rows or not cols:
        raise DataError(f"relation {relation}: empty row or column entity population")
    if count < 0:
        raise DataError("negative sample count must be >= 0")
    positives = db.cells(relation)
    row_index = np.array([e.index for e in rows], dtype=np.int64)
    col_index = np.array([e.index for e in cols], dtype=np.int64)
    # first attempt for every draw is batched; rejections retry individually
    first_r = row_index[rng.integers(0, len(row_index), size=count)]
    first_c = col_index[rng.integers(0, len(col_index), size=count)]
    chosen: list[tuple[int, int]] = []
    chosen_set: set[tuple[int, int]] = set()
    degenerate = False
    for d in range(count):
        cell = (int(first_r[d]), int(first_c[d]))
        accepted = cell not in positives and cell not in chosen_set
        attempts = 1
        while not accepted and attempts < _REJECTION_CAP:
            cell = (
                int(row_index[rng.integers(0, len(row_index))]),
                int(col_index[rng.integers(0, len(col_index))]),
            )
            accepted = cell not in positives and cell not in chosen_set
            attempts += 1
        if not accepted:
            degenerate = True
        chosen.append(cell)
        chosen_set.add(cell)
    return chosen, degenerate


def _sample_fully_observed(db: Database, relation: str, count: int,
                           rng: np.random.Generator) -> list[tuple[int, int, int]]:
    """Uniform cells of a fully_observed relation, labeled by lookup
    (stored label when observed, else 0); no rejection."""
    rel = db.relation(relation)
    rows = db.entities.of_type(rel.row_type)
    cols = db.entities.of_type(rel.col_type)
    if not rows or not cols:
        raise DataError(f"relation {relation}: empty row or column entity population")
    cells = db.cells(relation)
    ri = np.array([e.index for e in rows], dtype=np.int64)[rng.integers(0, len(rows), size=count)]
    ci = np.array([e.index for e in cols], dtype=np.int64)[rng.integers(0, len(cols), size=count)]
    return [(int(i), int(j), cells.get((int(i), int(j)), 0)) for i, j in zip(ri, ci)]


def train(db: Database, config: TrainConfig,
          validation: Optional[Sequence[LabeledCell]] = None) -> tuple[EmbeddingStore, TrainLog]:
    """Fit embeddings by SGD; returns the store and a per-epoch log.

    With a validation set attached, the parameters from the epoch with the
    highest validation F1 are retained (checkpoint-best). Training is
    bit-reproducible for a fixed (db, config).
    """
    for name in config.relations:
        db.relation(name)

    observed: list[tuple[str, int, int, int]] = []
    for name in config.relations:
        for (i, j), y in db.cells(name).items():
            observed.append((name, i, j, y))
    if not observed:
        raise DataError("empty training set")

    store = init_embeddings(db, config.k, config.seed, config.init_scale,
                            enable_biases=config.enable_biases)
    vectors, biases, offsets = store.vectors, store.biases, store.offsets

    val_positive_cells: set[tuple[int, int]] = set()
    if validation is not None:
        val_names, val_rows, val_cols, val_labels = resolve_cells(store, validation)
        val_positive_cells = {
            (int(r), int(c)) for r, c, y in zip(val_rows, val_cols, val_labels) if y == 1
        }

    pos_counts = {
        name: sum(1 for y in db.cells(name).values() if y == 1)
        for name in config.relations
    }

    log = TrainLog()
    best_f1 = -1.0
    best_params = None

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        examples = list(observed)
        neg_counts: dict[str, int] = {}
        degenerate = False
        val_collisions = 0
        epoch_negatives: list[tuple[str, int, int]] = []
        for pos, name in enumerate(config.relations):
            rel = db.relation(name)
            rng = substream(config.seed, "negatives", epoch, pos)
            if rel.positives_only:
                count = int(round(config.neg_ratio * pos_counts[name]))
                cells, degen = sample_negatives(db, name, count, rng)
                degenerate = degenerate or degen
                neg_counts[name] = len(cells)
                for (i, j) in cells:
                    examples.append((name, i, j, 0))
                    epoch_negatives.append((name, i, j))
                    if (i, j) in val_positive_cells:
                        val_collisions += 1
            elif rel.fully_observed:
                count = int(round(config.neg_ratio * pos_counts[name]))
                sampled = _sample_fully_observed(db, name, count, rng)
                neg_counts[name] = len(sampled)
                for (i, j, y) in sampled:
                    examples.append((name, i, j, y))
                    if y == 0:
                        epoch_negatives.append((name, i, j))

        shuffle_rng = substream(config.seed, "shuffle", epoch)
        order = shuffle_rng.permutation(len(examples))

        gamma, lam = config.gamma, config.lam
        for t in order:
            name, i, j, y = examples[t]
            e = _apply_update(vectors, biases, offsets, name, i, j,
                              float(y), gamma, lam)
            if e != e:  # NaN residual: parameters went non-finite
                raise DivergenceError(
                    f"non-finite parameters at epoch {epoch} on {name} cell ({i},{j})"
                )

        if not np.all(np.isfinite(vectors)) or np.abs(vectors).max() > _DIVERGENCE_LIMIT:
            raise DivergenceError(f"parameter magnitude exceeded {_DIVERGENCE_LIMIT:g} "
                                  f"at epoch {epoch}")

        objective = log_likelihood(store, db, config.relations, config.lam,
                                   sampled_negatives=epoch_negatives)
        val_f1 = None
        if validation is not None:
            preds = score_cells(store, val_names, val_rows, val_cols) >= 0.0  # sigmoid >= 0.5
            c = ConfusionCounts.from_arrays(preds, val_labels)
            # 2tp / (2tp + fp + fn) rounds once, so equal F1 values tie exactly
            # and checkpoint-best keeps the earliest epoch among them
            denom = 2 * c.tp + c.fp + c.fn
            val_f1 = 2 * c.tp / denom if denom else 0.0
            if val_f1 > best_f1:
                best_f1 = val_f1
                best_params = store.copy_parameters()

        log.entries.append(EpochLogEntry(
            epoch=epoch,
            objective=objective,
            val_f1=val_f1,
            seconds=time.perf_counter() - t0,
            epoch_seed=substream_seed(config.seed, "shuffle", epoch),
            negatives_sampled=neg_counts,
            degenerate_sampling=degenerate,
            val_negative_collisions=val_collisions,
        ))

    if best_params is not None:
        vec, b, off = best_params
        store = EmbeddingStore(store.entities, store.relations, vec,
                               enable_biases=config.enable_biases, biases=b, offsets=off)
    return store, log
