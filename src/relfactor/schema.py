"""Relational data model: entity types, entities, relation schemas, tuples.

A Database is immutable once built and safe for concurrent reads. Entities
are auto-registered in first-seen order from tuple streams; an optional
census can pre-register entities that carry no tuples (needed so cold-start
splits keep withheld entities in the registry).
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DataError

# A stream record or labeled evaluation cell: (relation, e1_id, e2_id, label)
LabeledCell = tuple[str, str, str, int]


@dataclass(frozen=True)
class Relation:
    """Schema for one binary matrix.

    fully_observed: unrecorded cells are known false (lookup returns 0).
    positives_only: only true cells are recorded; negatives must be sampled.
    """

    name: str
    row_type: str
    col_type: str
    fully_observed: bool = False
    positives_only: bool = False

    def __post_init__(self) -> None:
        if self.fully_observed and self.positives_only:
            raise DataError(
                f"relation {self.name!r}: fully_observed and positives_only are mutually exclusive"
            )


class Entity(NamedTuple):
    """A registered entity. ordinal is dense within its type; index is global.

    Immutable and hashable. A NamedTuple because load_model and
    build_database make one per entity, and a frozen dataclass's __init__
    costs about three times as much."""

    type: str
    id: str
    ordinal: int
    index: int

    @property
    def key(self) -> str:
        return f"{self.type}:{self.id}"


@dataclass
class Manifest:
    """Parsed schema manifest: declared entity types and relations."""

    entity_types: list[str] = field(default_factory=list)
    relations: dict[str, Relation] = field(default_factory=dict)


def parse_manifest(text: str) -> Manifest:
    """Parse a schema manifest.

    One declaration per line: ``type <name>`` or
    ``relation <name> <row_type> <col_type> [fully_observed|positives_only]``.
    Lines starting with ``#`` and blank lines are ignored. Lines end only at
    ``\n``, as in every input file (read_text reads ``\r\n`` and ``\r`` as ``\n``).
    """
    manifest = Manifest()
    seen_types: set[str] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "type":
            if len(parts) != 2:
                raise DataError(f"manifest line {lineno}: expected 'type <name>'")
            name = parts[1]
            if ":" in name:
                raise DataError(f"manifest line {lineno}: type name may not contain ':'")
            if name in seen_types:
                raise DataError(f"manifest line {lineno}: duplicate type {name!r}")
            seen_types.add(name)
            manifest.entity_types.append(name)
        elif parts[0] == "relation":
            if len(parts) not in (4, 5):
                raise DataError(
                    f"manifest line {lineno}: expected 'relation <name> <row> <col> [flag]'"
                )
            name, row_type, col_type = parts[1], parts[2], parts[3]
            if name in manifest.relations:
                raise DataError(f"manifest line {lineno}: duplicate relation {name!r}")
            flags = {"fully_observed": False, "positives_only": False}
            if len(parts) == 5:
                if parts[4] not in flags:
                    raise DataError(f"manifest line {lineno}: unknown flag {parts[4]!r}")
                flags[parts[4]] = True
            for t in (row_type, col_type):
                if t not in seen_types:
                    raise DataError(f"manifest line {lineno}: undeclared entity type {t!r}")
            manifest.relations[name] = Relation(name, row_type, col_type, **flags)
        else:
            raise DataError(f"manifest line {lineno}: unknown declaration {parts[0]!r}")
    return manifest


def load_manifest(path: str | os.PathLike) -> Manifest:
    return parse_manifest(read_text(path))


class EntityRegistry:
    """Entities keyed by (type, id) with dense per-type ordinals.

    Append-only: an entity's ordinal and index never change once registered.
    ``index_of[etype]`` maps each id of etype to its global index, in
    registration order.
    """

    def __init__(self, entity_types: Iterable[str]):
        self.index_of: dict[str, dict[str, int]] = {t: {} for t in entity_types}
        self._all: list[Entity] = []
        self._indices: dict[str, np.ndarray] = {}

    def register(self, etype: str, eid: str) -> Entity:
        return self._all[int(self.register_all([etype], [eid])[0])]

    def register_all(self, types: Sequence[str], ids: Sequence[str]) -> np.ndarray:
        """Register each key (types[t], ids[t]) in order; returns every key's
        global index as an int64 array. New keys are numbered after every
        registered one, in the order of their first places. The first key of
        an unknown type or with an empty id raises DataError; then, as after
        any other failure, none is registered."""
        index_of = self.index_of
        if not (index_of.keys() >= set(types) and all(ids)):
            for etype, eid in zip(types, ids):
                if etype not in index_of:
                    raise DataError(f"unknown entity type {etype!r}")
                if not eid:
                    raise DataError("empty entity id")
        # one setdefault pass, then the new ids are numbered
        ordinals = {etype: itertools.count(len(ids_of)) for etype, ids_of in index_of.items()}
        try:
            indices = np.fromiter(map(dict.setdefault, map(index_of.__getitem__, types), ids,
                                      itertools.count(_NEW)), np.int64, len(ids))
        except BaseException:  # e.g. an unhashable id: take back this call's placeholders
            for ids_of in index_of.values():
                for eid in [eid for eid, index in ids_of.items() if index >= _NEW]:
                    del ids_of[eid]
            raise
        fresh = indices >= _NEW
        if fresh.any():
            places = indices[fresh] - _NEW
            first = np.zeros(len(ids), dtype=bool)
            first[places] = True
            indices[fresh] = len(self._all) + np.cumsum(first)[places] - 1
            for p in np.flatnonzero(first).tolist():
                etype, eid = types[p], ids[p]
                index_of[etype][eid] = len(self._all)
                self._all.append(Entity(etype, eid, next(ordinals[etype]), len(self._all)))
        return indices

    def get(self, etype: str, eid: str) -> Entity:
        try:
            return self._all[self.index_of[etype][eid]]
        except KeyError:
            raise DataError(f"unknown entity {etype}:{eid}") from None

    def find(self, etype: str, eid: str) -> Optional[Entity]:
        index = self.index_of.get(etype, {}).get(eid)
        return None if index is None else self._all[index]

    def of_type(self, etype: str) -> list[Entity]:
        """A new list of etype's entities in registration order."""
        return list(map(self._all.__getitem__, self.indices(etype).tolist()))

    def indices(self, etype: str) -> np.ndarray:
        """Global indices of etype's entities in registration order, as a
        read-only int64 array. Built on first use and rebuilt once the type
        has grown since."""
        if etype not in self.index_of:
            raise DataError(f"unknown entity type {etype!r}")
        ids_of = self.index_of[etype]
        array = self._indices.get(etype)
        if array is None or len(array) != len(ids_of):
            array = np.fromiter(ids_of.values(), np.int64, len(ids_of))
            array.flags.writeable = False
            self._indices[etype] = array
        return array

    def at(self, index: int) -> Entity:
        """The entity with global index ``index``."""
        return self._all[index]

    @property
    def types(self) -> list[str]:
        return list(self.index_of)

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self._all)


class Cells(Sequence):
    """One relation's labeled cells as read-only (3, n) int64 columns of row
    index, column index and label over an entity registry. Reading a cell
    builds its (relation, e1_id, e2_id, label) tuple."""

    def __init__(self, relation: str, entities: EntityRegistry, columns: np.ndarray):
        self.relation = relation
        self.entities = entities
        # reshape makes a view of its own, so the caller's array keeps its flags
        self.columns = np.asarray(columns, dtype=np.int64).reshape(3, -1)
        self.columns.flags.writeable = False

    def __len__(self) -> int:
        return self.columns.shape[1]

    def __getitem__(self, at):
        if isinstance(at, slice):
            return Cells(self.relation, self.entities, self.columns[:, at])
        i, j, label = self.columns[:, at].tolist()
        return (self.relation, self.entities.at(i).id, self.entities.at(j).id, label)

    def __iter__(self) -> Iterator[LabeledCell]:
        # a block of cells at a time, so no million tuples are held at once
        ids = np.array([e.id for e in self.entities], dtype=object)
        for start in range(0, len(self), _LINE_BLOCK):
            rows, cols, labels = self.columns[:, start:start + _LINE_BLOCK]
            yield from zip(itertools.repeat(self.relation), ids[rows].tolist(),
                           ids[cols].tolist(), labels.tolist())

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (Cells, list)) else NotImplemented


class Database:
    """Immutable store of observed tuples over a declared schema.

    A relation's cells are one read-only (3, n) int64 array of row index,
    column index and label (global entity indices) in insertion order, and
    are keyed as ``row << 32 | col``, which orders them by (row, col).
    with_tuples shares the arrays of the relations it keeps.
    """

    def __init__(self, manifest: Manifest, entities: EntityRegistry,
                 columns: dict[str, np.ndarray]):
        self.manifest = manifest
        self.entities = entities
        self._columns = columns
        for array in columns.values():
            array.flags.writeable = False
        self._index: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def relations(self) -> dict[str, Relation]:
        return self.manifest.relations

    def relation(self, name: str) -> Relation:
        try:
            return self.manifest.relations[name]
        except KeyError:
            raise DataError(f"unknown relation {name!r}") from None

    def columns(self, relation: str) -> np.ndarray:
        """The relation's cells as rows (row index, column index, label)."""
        self.relation(relation)
        return self._columns[relation]

    def cell_index(self, relation: str) -> tuple[np.ndarray, np.ndarray]:
        """The relation's cell keys in ascending order and their labels,
        built on first use."""
        index = self._index.get(relation)
        if index is None:
            rows, cols, labels = self.columns(relation)
            keys = rows << 32 | cols
            by_key = np.argsort(keys)
            index = keys[by_key], labels[by_key]
            for array in index:  # read-only before any other reader can see it
                array.flags.writeable = False
            self._index[relation] = index
        return index

    def tuple_count(self, relation: str) -> int:
        return self.columns(relation).shape[1]

    def total_tuples(self) -> int:
        return sum(array.shape[1] for array in self._columns.values())

    def iter_tuples(self, relation: str) -> Iterator[LabeledCell]:
        """Yield (relation, e1_id, e2_id, label) in insertion order."""
        return iter(Cells(relation, self.entities, self.columns(relation)))

    def with_tuples(self, kept: dict[str, np.ndarray]) -> "Database":
        """New Database sharing this registry, with relation tuple sets replaced.

        ``kept`` maps relation name -> (3, n) columns as ``columns`` holds
        them, ``[]`` for none; relations not in ``kept`` are shared. The
        shared registry is what keeps withheld entities registered after a split.
        A name in ``kept`` that the manifest does not declare is a DataError.
        """
        for name in kept:
            self.relation(name)
        columns = {name: np.array(kept[name], dtype=np.int64).reshape(3, -1) if name in kept
                   else self._columns[name] for name in self.relations}
        return Database(self.manifest, self.entities, columns)


# build_database takes its stream in chunks this long, which the cyclic
# collector walks quickly. register_all maps a key it has not numbered yet to
# _NEW + its place, above every index.
_CHUNK_TUPLES = 1 << 14
_NEW = 1 << 40
_LABELS = {0: 0, 1: 1}


def build_database(manifest: Manifest, tuple_stream: Iterable[LabeledCell],
                   census: Optional[Iterable[tuple[str, str]]] = None) -> Database:
    """Build a validated Database from a manifest and a tuple stream.

    Entities auto-register on first appearance, ordinals in first-seen order,
    a tuple's e1 before its e2. Exact duplicate tuples deduplicate silently; a
    conflicting label for an already-stored cell is an error. ``census``
    pre-registers (type, id) pairs before the stream is read. Of a faulty
    tuple, a conflicting one and a DataError the stream raises, the first in
    the stream is reported. The tuples are checked and keyed a chunk at a
    time; one stable sort at the end drops duplicates and finds conflicts.
    """
    entities = EntityRegistry(manifest.entity_types)
    census = list(census or ())
    entities.register_all([etype for etype, _ in census], [eid for _, eid in census])
    store = _CellStore(manifest, entities)
    stream = iter(tuple_stream)
    while True:
        chunk = []
        try:
            # list.extend keeps the tuples it took before the stream raised
            chunk.extend(itertools.islice(stream, _CHUNK_TUPLES))
        except DataError:
            store.add(chunk)
            store.columns()  # a conflict before the stream's error is reported first
            raise
        if not chunk:
            return Database(manifest, entities, store.columns())
        store.add(chunk)


class _CellStore:
    """build_database's tuples so far, in stream order, as int32 relation
    codes, int64 cell keys row << 32 | col and int8 labels."""

    def __init__(self, manifest: Manifest, entities: EntityRegistry):
        self.manifest = manifest
        self.relations = list(manifest.relations.values())
        self.entities = entities
        # a relation over an undeclared type gets no code: its tuples are faults
        self.code_of = {rel.name: code for code, rel in enumerate(self.relations)
                        if {rel.row_type, rel.col_type} <= set(entities.types)}
        self.positives_only = np.array([rel.positives_only for rel in self.relations] + [False])
        self.sides = np.array([(rel.row_type, rel.col_type) for rel in self.relations], object)
        self.codes: list[np.ndarray] = []
        self.keys: list[np.ndarray] = []
        self.labels: list[np.ndarray] = []

    def add(self, chunk: list) -> None:
        """Keep the chunk's tuples up to its first faulty one, and report
        that one's fault after any conflict before it."""
        n = len(chunk)
        rels, e1s, e2s, labels = (list(map(operator.itemgetter(c), chunk)) for c in range(4))
        codes = np.fromiter(map(self.code_of.get, rels, itertools.repeat(-1)), np.int32, n)
        try:
            labs = np.fromiter(map(_LABELS.get, labels, itertools.repeat(-1)), np.int8, n)
        except TypeError:  # an unhashable label, which is not 0 or 1 either
            labs = np.array([int(label) if label in (0, 1) else -1 for label in labels], np.int8)
        bad = (codes < 0) | (labs < 0) | (labs == 0) & self.positives_only[codes]
        stop = int(bad.argmax()) if bad.any() else n
        for ids in (e1s, e2s):
            if not all(ids[:stop]):
                stop = list(map(bool, ids[:stop])).index(False)
        self.codes.append(codes[:stop])
        self.labels.append(labs[:stop])
        # e1 of tuple t is key 2t, e2 key 2t + 1
        ids = [None] * (2 * stop)
        ids[0::2], ids[1::2] = e1s[:stop], e2s[:stop]
        cells = self.entities.register_all(self.sides[codes[:stop]].ravel().tolist(), ids)
        self.keys.append(cells[0::2] << 32 | cells[1::2])
        if stop == n:
            return
        self.columns()
        name, e1_id, e2_id, label = chunk[stop]
        rel = self.manifest.relations.get(name)
        if rel is None:
            raise DataError(f"tuple references undeclared relation {name!r}")
        if labs[stop] < 0:
            raise DataError(f"relation {name}: label must be 0 or 1, got {label!r}")
        if labs[stop] == 0 and rel.positives_only:
            raise DataError(f"relation {name} is positives_only but tuple ({e1_id},{e2_id}) "
                            "has label 0")
        self.entities.register_all([rel.row_type, rel.col_type], [e1_id, e2_id])

    def columns(self) -> dict[str, np.ndarray]:
        """Each relation's (3, n) columns, every cell at its first occurrence,
        in stream order. Raises DataError for the first tuple in the stream
        whose label differs from its cell's first."""
        codes, keys, labels = (np.concatenate([np.empty(0, dtype), *parts]) for dtype, parts in
                               ((np.int32, self.codes), (np.int64, self.keys), (np.int8, self.labels)))
        order = np.lexsort((keys, codes))  # stable: a cell's tuples stay in stream order
        same = (np.diff(codes[order]) == 0) & (np.diff(keys[order]) == 0)
        # so a cell's first label change is its first conflicting tuple
        changed = order[1:][same & (np.diff(labels[order]) != 0)]
        if changed.size:
            at = int(changed.min())
            e1, e2 = self.entities.at(keys[at] >> 32), self.entities.at(keys[at] & 0xFFFFFFFF)
            raise DataError(f"relation {self.relations[codes[at]].name}: conflicting labels "
                            f"for cell ({e1.id},{e2.id})")
        kept = np.sort(order[np.r_[True, ~same][:keys.size]])
        return {rel.name: np.vstack([keys[at] >> 32, keys[at] & 0xFFFFFFFF, labels[at]])
                for rel, at in ((rel, kept[codes[kept] == code])
                                for code, rel in enumerate(self.relations))}


def lookup(db: Database, relation: str, e1_id: str, e2_id: str) -> Optional[int]:
    """Stored label of a cell, 0 for absent cells of fully_observed relations,
    None for absent cells otherwise."""
    rel = db.relation(relation)
    e1 = db.entities.get(rel.row_type, e1_id)
    e2 = db.entities.get(rel.col_type, e2_id)
    keys, labels = db.cell_index(relation)
    key = e1.index << 32 | e2.index
    at = int(np.searchsorted(keys, key))
    if at < len(keys) and keys[at] == key:
        return int(labels[at])
    return 0 if rel.fully_observed else None


def degree_stats(db: Database, relation: str) -> tuple[dict[str, int], dict[str, int]]:
    """Observed tuple counts per row entity and per column entity.

    Every registered entity of the relation's row/col type appears, with 0
    when it has no observed tuples.
    """
    rel = db.relation(relation)
    rows, cols, _ = db.columns(relation)
    row_counts = np.bincount(rows, minlength=len(db.entities)).tolist()
    col_counts = np.bincount(cols, minlength=len(db.entities)).tolist()
    return ({e.id: row_counts[e.index] for e in db.entities.of_type(rel.row_type)},
            {e.id: col_counts[e.index] for e in db.entities.of_type(rel.col_type)})


# --- file formats -----------------------------------------------------------

# write_lines formats and writes this many lines at a time, and Cells looks
# up the ids of this many cells at a time
_LINE_BLOCK = 1 << 16


@contextlib.contextmanager
def atomic_path(path: str | os.PathLike) -> Iterator[Path]:
    """Yield a temp path; rename it onto ``path`` only on success."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
    try:
        yield tmp
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path: str | os.PathLike, template: str, rows: Iterable) -> None:
    """Write ``template % row`` for each row as UTF-8 text, _LINE_BLOCK rows
    formatted and written at a time to an atomic_path temporary file that is
    renamed onto path only after the last row: on any failure path is left
    as it was and no temporary file remains."""
    lines = map(template.__mod__, rows)
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
        for first in lines:  # then the rest of its block
            f.write(first)
            f.write("".join(itertools.islice(lines, _LINE_BLOCK - 1)))


def read_text(path: str | os.PathLike) -> str:
    """Whole contents of a UTF-8 text file, ``\\r\\n`` and ``\\r`` read as ``\\n``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


# A tuple file is read in blocks of about this many bytes of whole lines.
# Each is split into fields at once, and the allocator keeps some of the
# freed fields' pages: 256-KB blocks left relbench's peak RSS 1-2 MB higher.
_BLOCK_BYTES = 1 << 16
_LABEL_TEXT = {"0": 0, "1": 1}


def _blocks(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """Yield (number of its first line, text) of each block of whole lines of
    a UTF-8 file, ``\\r\\n`` and ``\\r`` read as ``\\n`` as in text mode,
    every text ending in ``\\n``. A line that is not UTF-8 raises DataError
    once the lines before it are yielded."""
    lineno = 1
    with open(path, "rb") as f:
        while block := f.read(_BLOCK_BYTES) + f.readline():
            try:
                text, bad = block.decode("utf-8"), None
            except UnicodeDecodeError as exc:
                bad = max(block.rfind(b"\n", 0, exc.start), block.rfind(b"\r", 0, exc.start)) + 1
                text = block[:bad].decode("utf-8")
            text = text.replace("\r\n", "\n").replace("\r", "\n")
            if text:
                yield lineno, text if text.endswith("\n") else text + "\n"
            if bad is not None:
                raise DataError(f"{path}: not UTF-8 text")
            lineno += text.count("\n")


def _canonical_fields(text: str, n_min: int, n_max: int) -> Optional[tuple[int, list[str]]]:
    """(width, fields of every line, row after row) of text, lines ending in
    ``\\n``, when every line has one width in n_min..n_max and none is blank
    or starts with "#"; None for any other text."""
    # the tab count and first byte of each line, from the byte offsets of the
    # tabs and line ends: a blank line, which has no tab either, starts with
    # "\n" (10) and a comment with "#" (35)
    buffer = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    ends = np.flatnonzero(buffer == 10)
    tabs = np.diff(np.searchsorted(np.flatnonzero(buffer == 9), ends), prepend=0)
    firsts = buffer[np.r_[0, ends[:-1] + 1]]
    width = int(tabs[0]) + 1
    if n_min <= width <= n_max and (tabs == tabs[0]).all() and not np.isin(firsts, (10, 35)).any():
        return width, text[:-1].replace("\n", "\t").split("\t")
    return None


def read_rows(path: str | os.PathLike, n_min: int,
              n_max: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, tab-separated fields) of each row of a UTF-8 file.

    Lines end only at ``\\n``, ``\\r\\n`` or ``\\r``, so ids may hold any other
    character that ``str.splitlines`` would break at. Blank lines and lines
    starting with ``#`` are skipped; a row with fewer than n_min or more than
    n_max fields raises DataError, as does, once the rows before it are
    yielded, a line that is not UTF-8.
    """
    return _rows(path, _blocks(path), n_min, n_max)


def _rows(path: str | os.PathLike, blocks: Iterable[tuple[int, str]], n_min: int,
          n_max: int) -> Iterator[tuple[int, list[str]]]:
    expected = f"{n_min}" if n_min == n_max else f"{n_min}-{n_max}"
    for first, text in blocks:
        for lineno, line in enumerate(text[:-1].split("\n"), start=first):
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if not (n_min <= len(parts) <= n_max):
                raise DataError(f"{path}:{lineno}: expected {expected} columns")
            yield lineno, parts


def read_columns(path: str | os.PathLike, n_min: int, n_max: int) -> list[list[Optional[str]]]:
    """The rows of read_rows(path, n_min, n_max) as n_max field columns, None
    past the end of a shorter row. A file of one width in range with no blank
    or "#" line is read with one decode and one split; any other is collected
    from read_rows, which skips those lines and raises the first fault."""
    try:
        text = read_text(path)
    except DataError:  # for read_rows to report
        text = ""
    if not text.endswith("\n"):
        text += "\n"
    canonical = _canonical_fields(text, n_min, n_max)
    if canonical is not None:
        width, fields = canonical
        return [fields[c::width] if c < width else [None] * (len(fields) // width)
                for c in range(n_max)]
    rows = [parts + [None] * (n_max - len(parts)) for _, parts in read_rows(path, n_min, n_max)]
    return [list(column) for column in zip(*rows)] or [[] for _ in range(n_max)]


def read_tuple_stream(path: str | os.PathLike, manifest: Manifest) -> Iterator[LabeledCell]:
    """Read a tuple-stream TSV: ``relation \\t e1 \\t e2 \\t label``.

    For positives_only relations a 3-column form (label implied 1) is accepted.
    The stream is lazy, so build_database reports a conflicting tuple before a
    later malformed line, and holds one block of the file at a time. A block
    of one width, with no blank or "#" line, every label "0" or "1" or, in
    the 3-column form, every relation positives_only, is split once and its
    tuples zipped from its columns. From the first block that is not, the
    rest of the file is read line by line, which names the line of a fault.
    """
    implied = {name for name, rel in manifest.relations.items() if rel.positives_only}
    blocks = _blocks(path)
    for first, text in blocks:
        width, fields = _canonical_fields(text, 3, 4) or (0, [])
        if width == 4 and _LABEL_TEXT.keys() >= set(fields[3::4]):
            yield from zip(fields[0::4], fields[1::4], fields[2::4],
                           map(_LABEL_TEXT.__getitem__, fields[3::4]))
        elif width == 3 and implied.issuperset(fields[0::3]):
            yield from zip(fields[0::3], fields[1::3], fields[2::3], itertools.repeat(1))
        else:
            blocks = itertools.chain([(first, text)], blocks)
            break
    for lineno, parts in _rows(path, blocks, 3, 4):
        if len(parts) == 4:
            rel_name, e1, e2, label_s = parts
            if label_s not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {label_s!r}")
            label = int(label_s)
        else:
            rel_name, e1, e2 = parts
            rel = manifest.relations.get(rel_name)
            if rel is None:
                raise DataError(f"{path}:{lineno}: undeclared relation {rel_name!r}")
            if not rel.positives_only:
                raise DataError(
                    f"{path}:{lineno}: 3-column form only allowed for positives_only relations"
                )
            label = 1
        yield (rel_name, e1, e2, label)


def format_manifest(manifest: Manifest) -> str:
    lines = [f"type {t}" for t in manifest.entity_types]
    for rel in manifest.relations.values():
        flag = ""
        if rel.fully_observed:
            flag = " fully_observed"
        elif rel.positives_only:
            flag = " positives_only"
        lines.append(f"relation {rel.name} {rel.row_type} {rel.col_type}{flag}")
    return "\n".join(lines) + "\n"


def tuple_line_template(rel: Relation, labeled: bool = False) -> str:
    """%-template of one tuple-stream line of rel, newline included, to be
    filled with a (relation, e1_id, e2_id, label) cell.

    A positives_only relation's label is implied, so unless ``labeled`` its
    field is "%.0s", which prints nothing.
    """
    return "%s\t%s\t%s" + ("%.0s" if rel.positives_only and not labeled else "\t%s") + "\n"
