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
from .kernel import library
from .rng import substream
from .schema import (Cells, Database, EntityRegistry, LabeledCell, Manifest, Relation,
                     atomic_path, format_manifest, parse_manifest, read_text)

MODEL_MAGIC = "relfactor-model"
MODEL_VERSION = "v1"
_SCORE_BLOCK = 8192  # score_cells gathers the vectors of this many cells at a time
_WRITE_VALUES = 1 << 16  # write_rows formats about this many numbers at a time


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

    row_norms() caches the norm of each row of vectors, and that array is
    read-only while they are cached: a write in place raises instead of
    leaving them stale. drop_norms() gives it back its writeable flag.
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
        self._norms = None
        self.vectors = vectors
        self.enable_biases = enable_biases
        if enable_biases:
            self.biases = biases if biases is not None else np.zeros(len(entities))
            self.offsets = offsets if offsets is not None else np.zeros(len(self.relations))
            if np.shape(self.biases) != (len(entities),) or \
                    np.shape(self.offsets) != (len(self.relations),):
                raise DataError("biases must be (n_entities,) and offsets (n_relations,)")
        else:
            self.biases = None
            self.offsets = None

    def row_norms(self) -> np.ndarray:
        """The norm of each row of vectors, computed on first use for each array."""
        vectors = self.vectors
        if self._norms is None or self._norms[0] is not vectors:
            self.drop_norms()
            self._norms = vectors, np.linalg.norm(vectors, axis=1), vectors.flags.writeable
            vectors.flags.writeable = False
        return self._norms[1]

    def drop_norms(self) -> None:
        """Forget the row norms; their array gets back its writeable flag."""
        if self._norms is not None:
            self._norms[0].flags.writeable = self._norms[2]
            self._norms = None

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
    """(rel_ids, rows, cols, labels) int64 arrays of labeled cells: the columns
    of Cells over the store's own registry, else resolved by name, raising
    DataError on the first unknown relation or entity."""
    if isinstance(cells, Cells) and cells.entities is store.entities:
        rel_id = store.rel_ids[store.relation(cells.relation).name]
        return (np.full(len(cells), rel_id, dtype=np.int64), *cells.columns)
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
    if not 0 < scale < math.inf:
        raise DataError("init scale must be finite and positive")
    rng = substream(seed, "init")
    try:
        vectors = rng.uniform(-scale, scale, size=(len(db.entities), k))
    except (ValueError, MemoryError):  # numpy cannot shape or allocate n x k
        raise DataError(f"cannot allocate {len(db.entities)} x {k} embeddings") from None
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
    The file is written under a temporary name and renamed onto path, so a
    save that fails leaves whatever path held before: the file records no
    entity count, and a partly written one would load as a smaller store.
    A non-finite parameter or an entity key holding a tab or line end, which
    load_model would refuse, raises DataError before anything is written.
    """
    keys = [f"{ent.type}:{ent.id}" for ent in store.entities]
    if any(map("".join(keys).__contains__, "\t\n\r")):  # one pass; find the key on failure
        key = next(k for k in keys if any(map(k.__contains__, "\t\n\r")))
        raise DataError(f"cannot save an entity key holding a tab or line end: {key!r}")
    bad = ~np.isfinite(store.vectors).all(axis=1)
    if store.enable_biases:
        bad |= ~np.isfinite(store.biases)
    if bad.any():
        raise DataError("cannot save a non-finite bias or coordinate of entity "
                        + store.entities.at(int(np.argmax(bad))).key)
    offsets = list(zip(store.relations, store.offsets.tolist())) if store.enable_biases else []
    bad_offset = next((name for name, value in offsets if not math.isfinite(value)), None)
    if bad_offset is not None:
        raise DataError(f"cannot save a non-finite offset of relation {bad_offset!r}")
    header = f"{MODEL_MAGIC} {MODEL_VERSION} k={store.k} biases={int(store.enable_biases)}"
    manifest = Manifest(list(store.entities.types), store.relations)
    head = "".join(line + "\n" for line in [header, *format_manifest(manifest).splitlines()])
    biases = store.biases if store.enable_biases else np.zeros(len(keys))
    with atomic_path(path) as tmp, open(tmp, "wb") as f:
        f.write(head.encode("utf-8"))
        write_rows(f, keys, store.vectors, biases)
        f.write("".join(f"offset {name} {value:.17g}\n" for name, value in offsets).encode())


def write_rows(file, keys: Sequence[str], vectors: np.ndarray,
               biases: Optional[np.ndarray] = None, sep: str = " ") -> None:
    """Write one line per row of vectors to the binary file,
    "<key>\tb=<bias>\t<c1><sep>...<sep><ck>\n", with no bias field when
    biases is None, every number as "%.17g" % x writes it.

    Blocks of about _WRITE_VALUES numbers are formatted into one buffer and
    written at once, by the compiled library when it is available
    (kernel.format_rows); the rows it declines, and every row without it,
    come from the "%" template, the reference. Both give the same bytes.
    """
    n, k = vectors.shape
    row = ("%s\tb=%.17g\t" if biases is not None else "%s\t") + sep.join(["%.17g"] * k) + "\n"

    def reference(start: int, stop: int) -> bytes:
        values = vectors[start:stop] if biases is None else np.column_stack(
            [biases[start:stop], vectors[start:stop]])
        return "".join([row % (key, *line) for key, line
                        in zip(keys[start:stop], values.tolist())]).encode("utf-8")

    lib = library()
    block = max(1, _WRITE_VALUES // (k + 1))
    buffer = np.empty(0, dtype=np.uint8)
    for start in range(0, n, block):
        stop = min(start + block, n)
        if lib is None:
            file.write(reference(start, stop))
            continue
        encoded = [key.encode("utf-8") for key in keys[start:stop]]
        data = b"".join(encoded)
        key_ends = np.zeros(len(encoded) + 1, dtype=np.int64)
        np.cumsum(list(map(len, encoded)), out=key_ends[1:])
        capacity = len(data) + len(encoded) * (4 + (k + 1) * 24)  # see NUMBER_MAX in kernel.c
        if len(buffer) < capacity:
            buffer = np.empty(capacity, dtype=np.uint8)
        at = start
        while at < stop:
            rows, length = lib.format_rows(data, key_ends[at - start:],
                                           None if biases is None else biases[at:stop],
                                           vectors[at:stop], sep.encode(), buffer)
            file.write(buffer[:length])
            at += rows
            if at < stop:  # a row with a number outside the compiled writer's range
                file.write(reference(at, at + 1))
                at += 1


def load_model(path: str | os.PathLike) -> EmbeddingStore:
    """Read a model written by save_model. Malformed content, duplicate
    entities and non-finite values raise DataError.

    The numbers of the entity lines are parsed by the compiled library when
    it is available (kernel.library) and it accepts every line. Then one
    walk over the entity and offset lines, _read_rows, checks the keys and
    offsets, reads the numbers with float() when the library has not, and
    reports each fault.
    """
    text = read_text(path)
    # split at "\n" only: entity ids may hold characters splitlines() breaks at
    lines = text.split("\n")
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

    # From here on, lines and the UTF-8 bytes for the compiled parser hold
    # the file: text is dropped, and the bytes once that parser has run.
    lib = library()
    data = None if lib is None else text.encode("utf-8")
    del text
    parsed = None if lib is None else lib.parse_rows(
        data, len("\n".join(lines[:end]).encode("utf-8")) + 1, k, len(lines) - end)
    del data
    registry, vectors, biases, offsets = _read_rows(path, lines, end, manifest, k,
                                                    enable_biases, parsed)
    offset_array = np.array([offsets.get(name, 0.0) for name in manifest.relations])
    return EmbeddingStore(registry, manifest.relations, vectors, enable_biases=enable_biases,
                          biases=biases, offsets=offset_array)


def _read_offset(line: str, manifest: Manifest, offsets: dict[str, float],
                 enable_biases: bool) -> Optional[str]:
    """Store the value of an offset line in offsets; returns what is wrong
    with the line, if anything. A malformed value raises ValueError."""
    if not enable_biases:
        return "offset line in a model without biases"
    parts = line.split()
    if len(parts) != 3:
        return "malformed offset line"
    if parts[1] not in manifest.relations:
        return f"offset of undeclared relation {parts[1]!r}"
    if parts[1] in offsets:
        return f"duplicate offset of relation {parts[1]!r}"
    offsets[parts[1]] = float(parts[2])
    if not math.isfinite(offsets[parts[1]]):
        return "non-finite offset"
    return None


def _float_row(numbers: str) -> tuple[float, list[float]]:
    """The bias and coordinates of an entity line's "b=<bias>\t<coords>",
    read with float(): the reference number reader, used when the compiled
    parser is not available or refuses a line. A malformed number raises
    ValueError."""
    bias, coords = numbers[2:].split("\t")
    return float(bias), list(map(float, coords.split(" ")))


def _read_rows(path: str | os.PathLike, lines: list[str], end: int, manifest: Manifest,
               k: int, enable_biases: bool, parsed: Optional[tuple[np.ndarray, np.ndarray]]
               ) -> tuple[EntityRegistry, np.ndarray, np.ndarray, dict[str, float]]:
    """The registry, vectors, biases and offsets by name that lines[end:],
    the entity and offset lines of a model file, give: one walk that checks
    every line and names the file and line of the first fault. parsed holds
    the biases and vectors of the entity lines as the compiled parser read
    them; when it is None, _float_row reads them here."""
    registry = EntityRegistry(manifest.entity_types)
    biases: list[float] = [] if parsed is None else parsed[0].tolist()
    rows: list[list[float]] = []  # read by _float_row
    types: list[str] = []  # of each entity line, with its id and line number
    ids: list[str] = []
    key_lines: list[int] = []
    offsets: dict[str, float] = {}
    try:
        for lineno, line in enumerate(lines[end:], start=end + 1):
            if not line:
                continue
            if line.startswith("offset "):
                fault = _read_offset(line, manifest, offsets, enable_biases)
                if fault is not None:
                    raise DataError(f"{path}:{lineno}: {fault}")
                continue
            key, _, numbers = line.partition("\t")
            if parsed is None and (numbers.count("\t") != 1 or not numbers.startswith("b=")):
                raise DataError(f"{path}:{lineno}: malformed entity line")
            etype, _, eid = key.partition(":")
            if etype not in registry.index_of:
                raise DataError(f"{path}:{lineno}: entity of undeclared type {etype!r}")
            types.append(etype)
            ids.append(eid)
            key_lines.append(lineno)
            if parsed is None:
                bias, coords = _float_row(numbers)
                if len(coords) != k:
                    raise DataError(f"{path}:{lineno}: expected {k} coordinates, got {len(coords)}")
                biases.append(bias)
                rows.append(coords)
            if not enable_biases and biases[len(ids) - 1] != 0.0:
                raise DataError(f"{path}:{lineno}: nonzero bias in a model without biases")
    except ValueError:
        raise DataError(f"{path}:{lineno}: malformed number") from None
    # An empty or duplicate id is reported once every line has been read, so
    # a malformed line is reported before such an id on an earlier line. Of
    # the keys before the first empty id, a duplicate's index is not its place.
    empty = ids.index("") if not all(ids) else len(ids)
    duplicate = registry.register_all(types[:empty], ids[:empty]) != np.arange(empty)
    at = int(np.argmax(np.append(duplicate, True)))  # the first duplicate, else empty
    if at < len(ids):
        fault = f"duplicate entity {types[at]}:{ids[at]}" if ids[at] else "empty entity id"
        raise DataError(f"{path}:{key_lines[at]}: {fault}")
    if parsed is not None:  # the compiled parser reads finite numbers only
        return registry, parsed[1], parsed[0], offsets

    try:
        vectors = np.array(rows, dtype=np.float64).reshape(len(ids), k)
    except ValueError:  # no entity lines, and a k that numpy cannot shape
        raise DataError(f"{path}: malformed model header") from None
    bias_array = np.array(biases, dtype=np.float64)
    finite = np.isfinite(vectors).all(axis=1) & np.isfinite(bias_array)
    if not finite.all():
        lineno = key_lines[int(np.argmin(finite))]
        raise DataError(f"{path}:{lineno}: non-finite bias or coordinate")
    return registry, vectors, bias_array, offsets
