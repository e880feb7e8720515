"""Model parameters and scoring: one k-vector per entity, optional per-entity
biases and per-relation offsets, logistic link.

The probability that a relation holds between two entities is
sigmoid(dot(v1, v2) [+ b1 + b2 + g_rel when biases are enabled]).
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DataError
from .rng import substream
from .schema import (Database, EntityRegistry, LabeledCell, Manifest, Relation,
                     format_manifest, parse_manifest, read_text)

MODEL_MAGIC = "relfactor-model"
MODEL_VERSION = "v1"
_SCORE_BLOCK = 8192  # score_cells gathers the vectors of this many cells at a time


def sigmoid(s: float) -> float:
    """Numerically stable logistic function."""
    if s >= 0.0:
        return 1.0 / (1.0 + math.exp(-s))
    z = math.exp(s)
    return z / (1.0 + z)


def sigmoid_array(s: np.ndarray) -> np.ndarray:
    """Numerically stable elementwise logistic function."""
    z = np.exp(-np.abs(s))
    return np.where(s >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def log_sigmoid(s: np.ndarray) -> np.ndarray:
    """Stable elementwise log(sigmoid(s))."""
    return -np.logaddexp(0.0, -s)


class EmbeddingStore:
    """Entity embeddings plus the schema context needed to score cells.

    vectors is float64 of shape (n_entities, k), row-indexed by the global
    entity index of the shared registry. A relation's id is its position in
    relations, and rel_ids maps each name to it. biases (n_entities,) and
    offsets (n_relations,), indexed by rel_id, exist only when enable_biases
    is true.
    """

    def __init__(self, entities: EntityRegistry, relations: dict[str, Relation],
                 vectors: np.ndarray, enable_biases: bool = False,
                 biases: Optional[np.ndarray] = None,
                 offsets: Optional[np.ndarray] = None):
        if vectors.ndim != 2 or vectors.shape[0] != len(entities):
            raise DataError("vectors must be (n_entities, k)")
        self.entities = entities
        self.relations = dict(relations)
        self.rel_ids = {name: rel_id for rel_id, name in enumerate(self.relations)}
        self.vectors = vectors
        self.enable_biases = enable_biases
        if enable_biases:
            self.biases = biases if biases is not None else np.zeros(len(entities))
            self.offsets = offsets if offsets is not None else np.zeros(len(self.relations))
        else:
            self.biases = None
            self.offsets = None

    @property
    def k(self) -> int:
        return self.vectors.shape[1]

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise DataError(f"unknown relation {name!r}") from None

    def resolve(self, relation: str, e1_id: str, e2_id: str):
        rel = self.relation(relation)
        e1 = self.entities.get(rel.row_type, e1_id)
        e2 = self.entities.get(rel.col_type, e2_id)
        return rel, e1, e2

    def copy_parameters(self) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        return (
            self.vectors.copy(),
            None if self.biases is None else self.biases.copy(),
            None if self.offsets is None else self.offsets.copy(),
        )

    def squared_norm(self) -> float:
        """||Phi||^2 over all entity vectors (plus biases when enabled)."""
        total = float(np.sum(self.vectors * self.vectors))
        if self.enable_biases:
            total += float(np.sum(self.biases * self.biases))
        return total


def score_cells(store: EmbeddingStore, rel_ids: Sequence[int],
                rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """Logits v1 . v2 [+ b1 + b2 + g_rel] of many cells at once.

    rows and cols are global entity indices, and rel_ids the store's ids of
    the cells' relations (read only when biases are enabled).
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    s = np.empty(len(rows))
    for start in range(0, len(rows), _SCORE_BLOCK):
        block = slice(start, start + _SCORE_BLOCK)
        s[block] = np.einsum("ij,ij->i", store.vectors[rows[block]], store.vectors[cols[block]])
    if store.enable_biases:
        offsets = store.offsets[np.asarray(rel_ids, dtype=np.int64)]
        s = s + store.biases[rows] + store.biases[cols] + offsets
    return s


def resolve_cells(store: EmbeddingStore, cells: Sequence[LabeledCell]):
    """(rel_ids, rows, cols, labels) int64 arrays of labeled cells given by
    name; raises DataError on the first unknown relation or entity."""
    flat = []
    for rel_name, e1_id, e2_id, y in cells:
        rel, e1, e2 = store.resolve(rel_name, e1_id, e2_id)
        flat += store.rel_ids[rel.name], e1.index, e2.index, int(y)
    return tuple(np.array(flat, dtype=np.int64).reshape(-1, 4).T)


def score(store: EmbeddingStore, relation: str, e1_id: str, e2_id: str) -> float:
    """Probability that relation(e1, e2) = 1 under the current parameters.

    A single-cell convenience over score_cells, which scores many cells at
    once and is what the package itself calls.
    """
    rel, e1, e2 = store.resolve(relation, e1_id, e2_id)
    return sigmoid(float(score_cells(store, [store.rel_ids[rel.name]], [e1.index], [e2.index])[0]))


def init_embeddings(db: Database, k: int, seed: int, scale: float = 0.01,
                    enable_biases: bool = False) -> EmbeddingStore:
    """Fresh store with coordinates i.i.d. uniform on (-scale, scale).

    Biases and offsets (when enabled) start at zero. Deterministic in seed.
    """
    if k < 1:
        raise DataError("embedding dimension k must be >= 1")
    if scale <= 0:
        raise DataError("init scale must be positive")
    rng = substream(seed, "init")
    vectors = rng.uniform(-scale, scale, size=(len(db.entities), k))
    return EmbeddingStore(db.entities, db.relations, vectors, enable_biases=enable_biases)


def cell_columns(db: Database, names: Sequence[str], rel_ids: dict[str, int]) -> np.ndarray:
    """The stored cells of the named relations as int64 rows (rel_id, row,
    col, label), relation by relation in the order of names; rel_ids maps
    each name to its id."""
    blocks = [np.vstack([np.full(db.tuple_count(name), rel_ids[name]), db.columns(name)])
              for name in names]
    return np.concatenate([np.empty((4, 0), dtype=np.int64), *blocks], axis=1)


def log_likelihood(store: EmbeddingStore, db: Database,
                   relation_subset: Optional[Sequence[str]] = None,
                   lam: float = 0.0,
                   sampled_negatives: Optional[Iterable[tuple[str, int, int]]] = None) -> float:
    """Regularized Bernoulli log likelihood of the observed tuples.

    Sums y*ln(p) + (1-y)*ln(1-p) over the observed tuples of the selected
    relations (plus any supplied sampled-negative cells, scored as label 0),
    minus lam * ||Phi||^2. Negative cells are given as (relation, row_index,
    col_index) using global entity indices.
    """
    names = list(relation_subset) if relation_subset is not None else list(db.relations)
    negatives = np.array([(store.rel_ids[store.relation(name).name], i, j, 0)
                          for name, i, j in sampled_negatives or ()],
                         dtype=np.int64).reshape(-1, 4).T
    return cells_log_likelihood(store, np.concatenate(
        [cell_columns(db, names, store.rel_ids), negatives], axis=1), lam)


def cells_log_likelihood(store: EmbeddingStore, cells: np.ndarray, lam: float) -> float:
    """log_likelihood over labeled cells given as int64 rows (rel_id, row,
    col, label), in their order."""
    if lam < 0:
        raise DataError("lambda must be nonnegative")
    if not np.all(np.isfinite(store.vectors)):
        raise DataError("non-finite parameters")
    rel_ids, rows, cols, labels = cells
    s = score_cells(store, rel_ids, rows, cols)
    fit = float(np.sum(log_sigmoid(np.where(labels == 1, s, -s))))  # ln p if y = 1, else ln(1-p)
    return -lam * store.squared_norm() + fit


# --- persistence -------------------------------------------------------------

def save_model(store: EmbeddingStore, path: str | os.PathLike) -> None:
    """Write the versioned text format; loading it back is bit-exact.

    The header line is followed by the type/relation block in manifest
    format, one line per entity, then the relation offsets when biases are on.
    """
    header = f"{MODEL_MAGIC} {MODEL_VERSION} k={store.k} biases={int(store.enable_biases)}"
    manifest = Manifest(list(store.entities.types), store.relations)
    lines = [header, *format_manifest(manifest).splitlines()]
    # One %-format per entity line; "%.17g" writes what format(c, ".17g")
    # does, and ids go in as arguments, so a "%" in them stays literal.
    row = "%s:%s\tb=%.17g\t" + " ".join(["%.17g"] * store.k)
    vectors = store.vectors.tolist()
    biases = store.biases.tolist() if store.enable_biases else [0.0] * len(vectors)
    for ent, b, coords in zip(store.entities, biases, vectors):
        lines.append(row % (ent.type, ent.id, b, *coords))
    if store.enable_biases:
        for name, value in zip(store.relations, store.offsets.tolist()):
            lines.append(f"offset {name} {value:.17g}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_model(path: str | os.PathLike) -> EmbeddingStore:
    """Read a model written by save_model. Malformed content, duplicate
    entities and non-finite values raise DataError."""
    # split at "\n" only: entity ids may hold characters splitlines() breaks at
    lines = read_text(path).split("\n")
    header = lines[0].split()
    if len(header) < 4 or header[0] != MODEL_MAGIC:
        raise DataError(f"{path}: not a relfactor model file")
    if header[1] != MODEL_VERSION:
        raise DataError(f"{path}: unsupported model version {header[1]!r}")
    try:
        fields = dict(kv.split("=", 1) for kv in header[2:])
        k = int(fields["k"])
        enable_biases = bool(int(fields["biases"]))
    except (KeyError, ValueError):
        k = 0
    if k < 1:
        raise DataError(f"{path}: malformed model header")

    # The type/relation block ends at the first entity or offset line. The
    # header goes in as a comment so that parse_manifest numbers file lines.
    end = 1
    while end < len(lines) and "\t" not in lines[end] and not lines[end].startswith("offset "):
        end += 1
    try:
        manifest = parse_manifest("\n".join(["#" + lines[0], *lines[1:end]]))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None

    keys: list[tuple[str, str]] = []
    biases: list[float] = []
    rows: list[list[float]] = []
    row_lines: list[int] = []
    offsets: dict[str, float] = {}
    try:
        for lineno, line in enumerate(lines[end:], start=end + 1):
            if not line:
                continue
            if line.startswith("offset "):
                if not enable_biases:
                    raise DataError(f"{path}:{lineno}: offset line in a model without biases")
                parts = line.split()
                if len(parts) != 3:
                    raise DataError(f"{path}:{lineno}: malformed offset line")
                if parts[1] not in manifest.relations:
                    raise DataError(f"{path}:{lineno}: offset of undeclared relation {parts[1]!r}")
                if parts[1] in offsets:
                    raise DataError(f"{path}:{lineno}: duplicate offset of relation {parts[1]!r}")
                offsets[parts[1]] = float(parts[2])
                if not math.isfinite(offsets[parts[1]]):
                    raise DataError(f"{path}:{lineno}: non-finite offset")
                continue
            cells = line.split("\t")
            if len(cells) != 3 or not cells[1].startswith("b="):
                raise DataError(f"{path}:{lineno}: malformed entity line")
            etype, _, eid = cells[0].partition(":")
            if etype not in manifest.entity_types:
                raise DataError(f"{path}:{lineno}: entity of undeclared type {etype!r}")
            keys.append((etype, eid))
            biases.append(float(cells[1][2:]))
            if biases[-1] != 0.0 and not enable_biases:
                raise DataError(f"{path}:{lineno}: nonzero bias in a model without biases")
            rows.append(list(map(float, cells[2].split(" "))))
            if len(rows[-1]) != k:
                raise DataError(f"{path}:{lineno}: expected {k} coordinates, got {len(rows[-1])}")
            row_lines.append(lineno)
    except ValueError:
        raise DataError(f"{path}:{lineno}: malformed number") from None

    # Registering after parsing keeps the Entity objects close together in
    # memory; interleaved with the parsed floats, nearest_neighbors on an
    # 11k-entity model ran about 20% slower.
    registry = EntityRegistry(manifest.entity_types)
    for (etype, eid), lineno in zip(keys, row_lines):
        if registry.find(etype, eid) is not None:
            raise DataError(f"{path}:{lineno}: duplicate entity {etype}:{eid}")
        registry.register(etype, eid)
    vectors = np.array(rows, dtype=np.float64).reshape(len(rows), k)
    bias_array = np.array(biases, dtype=np.float64)
    finite = np.isfinite(vectors).all(axis=1) & np.isfinite(bias_array)
    if not finite.all():
        lineno = row_lines[int(np.argmin(finite))]
        raise DataError(f"{path}:{lineno}: non-finite bias or coordinate")
    offset_array = np.array([offsets.get(name, 0.0) for name in manifest.relations])
    return EmbeddingStore(registry, manifest.relations, vectors, enable_biases=enable_biases,
                          biases=bias_array, offsets=offset_array)
