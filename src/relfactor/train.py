"""SGD training of the embedding store over shuffled database tuples plus
per-epoch sampled cells, held as int64 columns (rel_id, row, col, label).

Update rule per example (simultaneous, both sides read pre-step values):
    e = y - sigmoid(v1 . v2 [+ b1 + b2 + g])
    v1 += gamma * (e * v2 - lam * v1)
    v2 += gamma * (e * v1 - lam * v2)
    b1 += gamma * (e - lam * b1); b2 += gamma * (e - lam * b2); g += gamma * e

Each epoch, every positives_only and fully_observed relation adds
round(neg_ratio * positives) uniform cells (see ``_draw_cells``): distinct
negatives for positives_only, labels by lookup for fully_observed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, DivergenceError
from .evaluation import ConfusionCounts
from .model import (EmbeddingStore, init_embeddings, log_likelihood, resolve_cells,
                    score_cells, sigmoid)
from .rng import substream
from .schema import Database, LabeledCell

_DIVERGENCE_LIMIT = 1e6
_REJECTION_CAP = 100
_SENTINEL_KEY = np.iinfo(np.int64).max  # above every cell key; ends each sorted key array


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
        if len(set(self.relations)) != len(self.relations):
            raise DataError(f"relation subset repeats a name: {','.join(self.relations)}")
        # chained comparisons are false for NaN, so these also reject it
        if not 0 <= self.lam < math.inf:
            raise DataError("lambda must be finite and nonnegative")
        if not 0 < self.gamma < math.inf:
            raise DataError("learning rate gamma must be finite and positive")
        if self.epochs < 1:
            raise DataError("epoch count must be >= 1")
        if not 0 < self.neg_ratio < math.inf:
            raise DataError("neg_ratio must be finite and positive")
        if not 0 < self.init_scale < math.inf:
            raise DataError("init_scale must be finite and positive")


@dataclass
class EpochLogEntry:
    epoch: int
    objective: float
    val_f1: Optional[float]
    seconds: float
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


def _draw_cells(db: Database, relation: str, count: int, rng: np.random.Generator,
                reject: bool) -> tuple[np.ndarray, np.ndarray, bool]:
    """Draw ``count`` cells uniformly over a relation's row/col entity
    populations; returns (keys, labels, degenerate), with each cell keyed as
    ``row * len(db.entities) + col`` of global entity indices.

    With ``reject``, cells that are observed positives, accepted in an earlier
    round or repeats within their round are redrawn together, for up to 100
    rounds; any still rejected are kept and ``degenerate`` is set. Labels are
    then 0. Without ``reject``, cells are labeled by lookup (stored, else 0).
    """
    rel = db.relation(relation)
    rows = np.array([e.index for e in db.entities.of_type(rel.row_type)], dtype=np.int64)
    cols = np.array([e.index for e in db.entities.of_type(rel.col_type)], dtype=np.int64)
    if not len(rows) or not len(cols):
        raise DataError(f"relation {relation}: empty row or column entity population")
    if not 0 <= count <= len(rows) * len(cols):
        raise DataError(f"relation {relation}: cannot sample {count} of its "
                        f"{len(rows)} x {len(cols)} cells")
    n = len(db.entities)
    stored = db.cells(relation)
    stored_keys = np.fromiter((i * n + j for i, j in stored), dtype=np.int64, count=len(stored))
    by_key = np.argsort(stored_keys)
    taken = np.append(stored_keys[by_key], _SENTINEL_KEY)

    def draw(size: int) -> np.ndarray:
        # row indices are drawn before column indices; seeded runs rely on it
        return (rows[rng.integers(0, len(rows), size=size)] * n
                + cols[rng.integers(0, len(cols), size=size)])

    keys = draw(count)
    if not reject:
        at = np.searchsorted(taken, keys)
        labels = np.fromiter(stored.values(), dtype=np.int64, count=len(stored))[by_key]
        return keys, np.where(taken[at] == keys, np.append(labels, 0)[at], 0), False
    pending = np.arange(count)
    for attempt in range(1, _REJECTION_CAP + 1):
        candidates = keys[pending]
        accepted = np.zeros(len(pending), dtype=bool)
        accepted[np.unique(candidates, return_index=True)[1]] = True
        accepted &= taken[np.searchsorted(taken, candidates)] != candidates
        fresh = np.sort(candidates[accepted])
        taken = np.insert(taken, np.searchsorted(taken, fresh), fresh)
        pending = pending[~accepted]
        if not len(pending) or attempt == _REJECTION_CAP:
            break
        keys[pending] = draw(len(pending))
    return keys, np.zeros(count, dtype=np.int64), len(pending) > 0


def sample_negatives(db: Database, relation: str, count: int,
                     rng: np.random.Generator) -> tuple[list[tuple[int, int]], bool]:
    """``count`` negative (row, col) global-index cells of a positives_only
    relation, rejected as in ``_draw_cells``, and the degenerate flag."""
    if not db.relation(relation).positives_only:
        raise DataError(f"relation {relation} is not positives_only")
    keys, _, degenerate = _draw_cells(db, relation, count, rng, reject=True)
    rows, cols = np.divmod(keys, len(db.entities))
    return list(zip(rows.tolist(), cols.tolist())), degenerate


def train(db: Database, config: TrainConfig,
          validation: Optional[Sequence[LabeledCell]] = None) -> tuple[EmbeddingStore, TrainLog]:
    """Fit embeddings by SGD; returns the store and a per-epoch log.

    With a validation set attached, the parameters from the epoch with the
    highest validation F1 are retained (checkpoint-best). Training is
    bit-reproducible for a fixed (db, config).
    """
    names = list(config.relations)
    rels = [db.relation(name) for name in names]
    n = len(db.entities)

    observed = np.fromiter(((rel_id, i, j, y) for rel_id, name in enumerate(names)
                            for (i, j), y in db.cells(name).items()),
                           dtype=np.dtype((np.int64, 4))).T  # rows: rel_id, row, col, label
    if not observed.shape[1]:
        raise DataError("empty training set")
    pos_counts = np.bincount(observed[0][observed[3] == 1], minlength=len(names)).tolist()

    store = init_embeddings(db, config.k, config.seed, config.init_scale,
                            enable_biases=config.enable_biases)
    vectors, biases, offsets = store.vectors, store.biases, store.offsets

    val_positive_keys = np.empty(0, dtype=np.int64)
    if validation is not None:
        val_names, val_rows, val_cols, val_labels = resolve_cells(store, validation)
        positive = val_labels == 1
        val_positive_keys = val_rows[positive] * n + val_cols[positive]

    log = TrainLog()
    best_f1 = -1.0
    best_params = None

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        blocks = [observed]
        neg_counts: dict[str, int] = {}
        degenerate = False
        val_collisions = 0
        epoch_negatives: list[tuple[str, np.ndarray]] = []  # (name, keys)
        for rel_id, (name, rel) in enumerate(zip(names, rels)):
            if not (rel.positives_only or rel.fully_observed):
                continue
            count = int(round(config.neg_ratio * pos_counts[rel_id]))
            rng = substream(config.seed, "negatives", epoch, rel_id)
            keys, labels, degen = _draw_cells(db, name, count, rng, reject=rel.positives_only)
            degenerate = degenerate or degen
            neg_counts[name] = count
            blocks.append(np.stack([np.full(count, rel_id), *np.divmod(keys, n), labels]))
            if rel.positives_only:
                val_collisions += int(np.count_nonzero(np.isin(keys, val_positive_keys)))
            epoch_negatives.append((name, keys[labels == 0]))

        examples = np.concatenate(blocks, axis=1)
        order = substream(config.seed, "shuffle", epoch).permutation(examples.shape[1])
        rel_ids, rows, cols, labels = examples[:, order].tolist()
        del examples, order, blocks

        gamma, lam = config.gamma, config.lam
        for r, i, j, y in zip(rel_ids, rows, cols, labels):
            e = _apply_update(vectors, biases, offsets, names[r], i, j, float(y), gamma, lam)
            if e != e:  # NaN residual: parameters went non-finite
                raise DivergenceError(f"non-finite parameters at epoch {epoch} "
                                      f"on {names[r]} cell ({i},{j})")
        del rel_ids, rows, cols, labels  # free the epoch before the objective

        if not np.all(np.isfinite(vectors)) or np.abs(vectors).max() > _DIVERGENCE_LIMIT:
            raise DivergenceError(f"parameter magnitude exceeded {_DIVERGENCE_LIMIT:g} "
                                  f"at epoch {epoch}")

        objective = log_likelihood(
            store, db, names, config.lam,
            sampled_negatives=((name, *divmod(key, n)) for name, keys in epoch_negatives
                               for key in keys.tolist()))
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
            negatives_sampled=neg_counts,
            degenerate_sampling=degenerate,
            val_negative_collisions=val_collisions,
        ))

    if best_params is not None:
        vec, b, off = best_params
        store = EmbeddingStore(store.entities, store.relations, vec,
                               enable_biases=config.enable_biases, biases=b, offsets=off)
    return store, log
