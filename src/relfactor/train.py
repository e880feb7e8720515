"""SGD training of the embedding store over shuffled database tuples plus
per-epoch sampled cells, held as int64 columns (rel_id, row, col, label).

Update rule per example (simultaneous, both sides read pre-step values):
    e = y - sigmoid(v1 . v2 [+ b1 + b2 + g])
    v1 += gamma * (e * v2 - lam * v1)
    v2 += gamma * (e * v1 - lam * v2)
    b1 += gamma * (e - lam * b1); b2 += gamma * (e - lam * b2); g += gamma * e

Each epoch, every positives_only and fully_observed relation adds
round(neg_ratio * positives) uniform cells (see ``_CellPool.draw``): distinct
negatives for positives_only, labels by lookup for fully_observed.

The updates of one epoch run as one call into the compiled kernel of
``kernel.c`` (see ``kernel.py``). ``_python_epoch`` over ``_apply_update`` is
the reference it matches bit for bit, and the loop that runs when no
compiler or cache directory is available; ``TrainLog.kernel`` names the one
that ran. Both update ``store.offsets``, the float64 array indexed by the
store's relation ids, in place.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, DivergenceError
from .evaluation import ConfusionCounts
from .kernel import epoch_kernel
from .model import (EmbeddingStore, cell_columns, cells_log_likelihood, init_embeddings,
                    resolve_cells, score_cells, sigmoid)
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
    kernel: str = "python"  # the SGD loop that ran: "c" (compiled) or "python"

    def to_tsv(self) -> str:
        lines = ["epoch\tobjective\tval_f1\tseconds"]
        for e in self.entries:
            val = "NA" if e.val_f1 is None else format(e.val_f1, ".6f")
            lines.append(f"{e.epoch}\t{e.objective:.6f}\t{val}\t{e.seconds:.3f}")
        return "\n".join(lines) + "\n"


def _apply_update(vectors: np.ndarray, biases: Optional[np.ndarray],
                  offsets: Optional[np.ndarray], rel_id: int, i: int, j: int, y: float,
                  gamma: float, lam: float) -> float:
    """One SGD step on cell (i, j) of relation rel_id; returns the residual
    e = y - p."""
    v1 = vectors[i]
    v2 = vectors[j]
    s = 0.0
    for a, b in zip(v1.tolist(), v2.tolist()):  # index order, as kernel.c sums
        s += a * b
    if biases is not None:
        s += float(biases[i]) + float(biases[j]) + float(offsets[rel_id])
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
        offsets[rel_id] += ge
    return e


def _python_epoch(vectors: np.ndarray, biases: Optional[np.ndarray],
                  offsets: Optional[np.ndarray], rel: np.ndarray, rows: np.ndarray,
                  cols: np.ndarray, labels: np.ndarray, gamma: float, lam: float) -> int:
    """The updates of one epoch in column order; returns the index of the
    first example whose residual is NaN (after applying it), else -1."""
    for t, (r, i, j, y) in enumerate(zip(rel.tolist(), rows.tolist(), cols.tolist(),
                                         labels.tolist())):
        e = _apply_update(vectors, biases, offsets, r, i, j, float(y), gamma, lam)
        if e != e:
            return t
    return -1


def sgd_step(store: EmbeddingStore, relation: str, e1_id: str, e2_id: str,
             y: int, gamma: float, lam: float) -> None:
    """Apply one update on a labeled cell, mutating the store in place."""
    rel, ent1, ent2 = store.resolve(relation, e1_id, e2_id)
    _apply_update(store.vectors, store.biases, store.offsets, store.rel_ids[rel.name],
                  ent1.index, ent2.index, float(y), gamma, lam)
    touched = store.vectors[[ent1.index, ent2.index]]
    if not np.all(np.isfinite(touched)) or np.abs(touched).max() > _DIVERGENCE_LIMIT:
        raise DivergenceError(
            f"parameters diverged updating {relation}({e1_id},{e2_id})"
        )


class _CellPool:
    """A relation's row and column entity populations and its stored cells
    by key (see ``Database.cell_index``); resolved once per train() and
    drawn from every epoch."""

    def __init__(self, db: Database, relation: str):
        rel = db.relation(relation)
        self.name = relation
        self.rows = np.array([e.index for e in db.entities.of_type(rel.row_type)], dtype=np.int64)
        self.cols = np.array([e.index for e in db.entities.of_type(rel.col_type)], dtype=np.int64)
        if not len(self.rows) or not len(self.cols):
            raise DataError(f"relation {relation}: empty row or column entity population")
        self.n = len(db.entities)
        keys, labels = db.cell_index(relation)
        self.taken = np.append(keys, _SENTINEL_KEY)
        self.labels = np.append(labels, 0)

    def draw(self, count: int, rng: np.random.Generator,
             reject: bool) -> tuple[np.ndarray, np.ndarray, bool]:
        """Draw ``count`` cells uniformly; returns (keys, labels, degenerate).

        With ``reject``, cells that are stored, accepted in an earlier round
        or repeats within their round are redrawn together, for up to 100
        rounds. Slots still pending then are filled without replacement from
        the free cells left; only when there are fewer of those than slots
        is the remainder kept as drawn and ``degenerate`` set. Labels are
        then 0. Without ``reject``, cells are labeled by lookup (stored, else 0).
        """
        rows, cols, n = self.rows, self.cols, self.n
        if not 0 <= count <= len(rows) * len(cols):
            raise DataError(f"relation {self.name}: cannot sample {count} of its "
                            f"{len(rows)} x {len(cols)} cells")

        def draw(size: int) -> np.ndarray:
            # row indices are drawn before column indices; seeded runs rely on it
            return (rows[rng.integers(0, len(rows), size=size)] * n
                    + cols[rng.integers(0, len(cols), size=size)])

        keys = draw(count)
        taken = self.taken
        if not reject:
            at = np.searchsorted(taken, keys)
            return keys, np.where(taken[at] == keys, self.labels[at], 0), False
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
        if len(pending):
            free = np.setdiff1d((rows[:, None] * n + cols).ravel(), taken, assume_unique=True)
            fill = rng.choice(free, size=min(len(free), len(pending)), replace=False)
            keys[pending[:len(fill)]] = fill
            pending = pending[len(fill):]
        return keys, np.zeros(count, dtype=np.int64), len(pending) > 0


def sample_negatives(db: Database, relation: str, count: int,
                     rng: np.random.Generator) -> tuple[list[tuple[int, int]], bool]:
    """``count`` negative (row, col) global-index cells of a positives_only
    relation, rejected as in ``_CellPool.draw``, and the degenerate flag."""
    if not db.relation(relation).positives_only:
        raise DataError(f"relation {relation} is not positives_only")
    keys, _, degenerate = _CellPool(db, relation).draw(count, rng, reject=True)
    rows, cols = np.divmod(keys, len(db.entities))
    return list(zip(rows.tolist(), cols.tolist())), degenerate


def train(db: Database, config: TrainConfig,
          validation: Optional[Sequence[LabeledCell]] = None) -> tuple[EmbeddingStore, TrainLog]:
    """Fit embeddings by SGD; returns the store and a per-epoch log.

    With a validation set attached, the parameters from the epoch with the
    highest validation F1 are retained (checkpoint-best). Training is
    bit-reproducible for a fixed (db, config), and the same whichever kernel
    runs the updates.
    """
    names = list(config.relations)
    rels = [db.relation(name) for name in names]
    n = len(db.entities)

    store = init_embeddings(db, config.k, config.seed, config.init_scale,
                            enable_biases=config.enable_biases)
    vectors, biases = store.vectors, store.biases
    observed = cell_columns(db, names, store.rel_ids)  # rows: rel_id, row, col, label
    if not observed.shape[1]:
        raise DataError("empty training set")
    pos_counts = np.bincount(observed[0][observed[3] == 1], minlength=len(db.relations)).tolist()

    val_positive_keys = np.empty(0, dtype=np.int64)
    if validation is not None:
        val_ids, val_rows, val_cols, val_labels = resolve_cells(store, validation)
        positive = val_labels == 1
        val_positive_keys = val_rows[positive] * n + val_cols[positive]

    # keyed by position in config.relations, which seeds each relation's draws
    pools = {pos: (store.rel_ids[name], _CellPool(db, name))
             for pos, (name, rel) in enumerate(zip(names, rels))
             if rel.positives_only or rel.fully_observed}
    kernel = epoch_kernel()
    run_epoch = kernel or _python_epoch
    log = TrainLog(kernel="python" if kernel is None else "c")
    best_f1 = -1.0
    best_params = None

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        blocks = [observed]
        neg_counts: dict[str, int] = {}
        degenerate = False
        val_collisions = 0
        for pos, (rel_id, pool) in pools.items():
            positives_only = rels[pos].positives_only
            count = int(round(config.neg_ratio * pos_counts[rel_id]))
            rng = substream(config.seed, "negatives", epoch, pos)
            keys, labels, degen = pool.draw(count, rng, reject=positives_only)
            degenerate = degenerate or degen
            neg_counts[pool.name] = count
            blocks.append(np.stack([np.full(count, rel_id), *np.divmod(keys, n), labels]))
            if positives_only:
                val_collisions += int(np.count_nonzero(np.isin(keys, val_positive_keys)))

        examples = np.concatenate(blocks, axis=1)
        order = substream(config.seed, "shuffle", epoch).permutation(examples.shape[1])
        rel_ids, rows, cols, labels = examples.take(order, axis=1)
        bad = run_epoch(vectors, biases, store.offsets, rel_ids, rows, cols, labels,
                        config.gamma, config.lam)
        if bad >= 0:  # NaN residual: parameters went non-finite
            name = [*store.relations][rel_ids[bad]]
            raise DivergenceError(f"non-finite parameters at epoch {epoch} "
                                  f"on {name} cell ({rows[bad]},{cols[bad]})")
        del examples, order, rel_ids, rows, cols, labels  # free the epoch before the objective

        if not np.all(np.isfinite(vectors)) or np.abs(vectors).max() > _DIVERGENCE_LIMIT:
            raise DivergenceError(f"parameter magnitude exceeded {_DIVERGENCE_LIMIT:g} "
                                  f"at epoch {epoch}")

        # observed cells, then each relation's sampled label-0 cells in draw order
        objective = cells_log_likelihood(store, np.concatenate(
            [observed, *(block[:, block[3] == 0] for block in blocks[1:])], axis=1), config.lam)
        val_f1 = None
        if validation is not None:
            preds = score_cells(store, val_ids, val_rows, val_cols) >= 0.0  # sigmoid >= 0.5
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
