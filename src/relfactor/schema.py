"""Relational data model: entity types, entities, relation schemas, tuples.

A Database is immutable once built and safe for concurrent reads. Entities
are auto-registered in first-seen order from tuple streams; an optional
census can pre-register entities that carry no tuples (needed so cold-start
splits keep withheld entities in the registry).
"""

from __future__ import annotations

import contextlib
import itertools
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
    """

    def __init__(self, entity_types: Iterable[str]):
        self._types = list(entity_types)
        self._by_key: dict[tuple[str, str], Entity] = {}
        self._by_type: dict[str, list[Entity]] = {t: [] for t in self._types}
        self._all: list[Entity] = []
        self._indices: dict[str, np.ndarray] = {}

    def register(self, etype: str, eid: str) -> Entity:
        key = (etype, eid)
        ent = self._by_key.get(key)
        if ent is not None:
            return ent
        if etype not in self._by_type:
            raise DataError(f"unknown entity type {etype!r}")
        if not eid:
            raise DataError("empty entity id")
        ent = Entity(etype, eid, len(self._by_type[etype]), len(self._all))
        self._by_key[key] = ent
        self._by_type[etype].append(ent)
        self._all.append(ent)
        return ent

    def get(self, etype: str, eid: str) -> Entity:
        try:
            return self._by_key[(etype, eid)]
        except KeyError:
            raise DataError(f"unknown entity {etype}:{eid}") from None

    def find(self, etype: str, eid: str) -> Optional[Entity]:
        return self._by_key.get((etype, eid))

    def of_type(self, etype: str) -> list[Entity]:
        if etype not in self._by_type:
            raise DataError(f"unknown entity type {etype!r}")
        return self._by_type[etype]

    def indices(self, etype: str) -> np.ndarray:
        """Global indices of etype's entities in registration order, as a
        read-only int64 array. Built on first use and rebuilt once the type
        has grown since."""
        ents = self.of_type(etype)
        array = self._indices.get(etype)
        if array is None or len(array) != len(ents):
            array = np.fromiter((e.index for e in ents), dtype=np.int64, count=len(ents))
            array.flags.writeable = False
            self._indices[etype] = array
        return array

    def at(self, index: int) -> Entity:
        """The entity with global index ``index``."""
        return self._all[index]

    @property
    def types(self) -> list[str]:
        return self._types

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
        picked = Cells(self.relation, self.entities, self.columns[:, at])
        return picked if isinstance(at, slice) else next(iter(picked))

    def __iter__(self) -> Iterator[LabeledCell]:
        all_ents = list(self.entities)
        for i, j, label in zip(*self.columns.tolist()):
            yield (self.relation, all_ents[i].id, all_ents[j].id, label)

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (Cells, list)) else NotImplemented


class Database:
    """Immutable store of observed tuples over a declared schema.

    A relation's cells are one read-only (3, n) int64 array of row index,
    column index and label (global entity indices) in insertion order, and
    are keyed as ``row * len(entities) + col``. with_tuples shares the
    arrays of the relations it keeps.
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
        """The relation's cell keys in ascending order and their labels."""
        if relation not in self._index:
            rows, cols, labels = self.columns(relation)
            keys = rows * len(self.entities) + cols
            by_key = np.argsort(keys)
            index = keys[by_key], labels[by_key]
            for array in index:  # read-only before any other reader can see it
                array.flags.writeable = False
            self._index[relation] = index
        return self._index[relation]

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


def build_database(manifest: Manifest, tuple_stream: Iterable[LabeledCell],
                   census: Optional[Iterable[tuple[str, str]]] = None) -> Database:
    """Build a validated Database from a manifest and a tuple stream.

    Entities auto-register on first appearance, ordinals in first-seen order.
    Exact duplicate tuples deduplicate silently; a conflicting label for an
    already-stored cell is an error. ``census`` pre-registers (type, id)
    pairs before the stream is read.
    """
    entities = EntityRegistry(manifest.entity_types)
    if census is not None:
        for etype, eid in census:
            entities.register(etype, eid)
    cells: dict[str, dict[tuple[int, int], int]] = {name: {} for name in manifest.relations}
    for rel_name, e1_id, e2_id, label in tuple_stream:
        rel = manifest.relations.get(rel_name)
        if rel is None:
            raise DataError(f"tuple references undeclared relation {rel_name!r}")
        if label not in (0, 1):
            raise DataError(f"relation {rel_name}: label must be 0 or 1, got {label!r}")
        if rel.positives_only and label != 1:
            raise DataError(
                f"relation {rel_name} is positives_only but tuple ({e1_id},{e2_id}) has label 0"
            )
        e1 = entities.register(rel.row_type, e1_id)
        e2 = entities.register(rel.col_type, e2_id)
        if cells[rel_name].setdefault((e1.index, e2.index), label) != label:
            raise DataError(f"relation {rel_name}: conflicting labels for cell ({e1_id},{e2_id})")

    def as_columns(store: dict[tuple[int, int], int]) -> np.ndarray:
        # one flat int stream: 5x faster than a stream of tuples
        keys = np.fromiter(itertools.chain.from_iterable(store), dtype=np.int64,
                           count=2 * len(store)).reshape(-1, 2).T
        return np.vstack([keys, np.fromiter(store.values(), dtype=np.int64, count=len(store))])

    return Database(manifest, entities, {name: as_columns(store) for name, store in cells.items()})


def lookup(db: Database, relation: str, e1_id: str, e2_id: str) -> Optional[int]:
    """Stored label of a cell, 0 for absent cells of fully_observed relations,
    None for absent cells otherwise."""
    rel = db.relation(relation)
    e1 = db.entities.get(rel.row_type, e1_id)
    e2 = db.entities.get(rel.col_type, e2_id)
    keys, labels = db.cell_index(relation)
    key = e1.index * len(db.entities) + e2.index
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


def read_text(path: str | os.PathLike) -> str:
    """Whole contents of a UTF-8 text file, ``\\r\\n`` and ``\\r`` read as ``\\n``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def read_rows(path: str | os.PathLike, n_min: int,
              n_max: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, tab-separated fields) of each row of a UTF-8 file.

    Lines end only at ``\\n``, ``\\r\\n`` or ``\\r``, so ids may hold any other
    character that ``str.splitlines`` would break at. Blank lines and lines
    starting with ``#`` are skipped; a row with fewer than n_min or more than
    n_max fields raises DataError.
    """
    expected = f"{n_min}" if n_min == n_max else f"{n_min}-{n_max}"
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, raw in enumerate(f, start=1):
                line = raw.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if not (n_min <= len(parts) <= n_max):
                    raise DataError(f"{path}:{lineno}: expected {expected} columns")
                yield lineno, parts
    except UnicodeDecodeError:
        # decoding runs ahead of the lines read, so no line number is exact
        raise DataError(f"{path}: not UTF-8 text") from None


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
    # the tab count and first byte of each line, from the byte offsets of the
    # tabs and line ends: a blank line, which has no tab either, starts with
    # "\n" (10) and a comment with "#" (35)
    buffer = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    ends = np.flatnonzero(buffer == 10)
    tabs = np.diff(np.searchsorted(np.flatnonzero(buffer == 9), ends), prepend=0)
    firsts = buffer[np.r_[0, ends[:-1] + 1]]
    width = int(tabs[0]) + 1
    if n_min <= width <= n_max and (tabs == tabs[0]).all() and not np.isin(firsts, (10, 35)).any():
        fields = text[:-1].replace("\n", "\t").split("\t")
        return [fields[c::width] if c < width else [None] * len(tabs) for c in range(n_max)]
    rows = [parts + [None] * (n_max - len(parts)) for _, parts in read_rows(path, n_min, n_max)]
    return [list(column) for column in zip(*rows)] or [[] for _ in range(n_max)]


def read_tuple_stream(path: str | os.PathLike, manifest: Manifest) -> Iterator[LabeledCell]:
    """Read a tuple-stream TSV: ``relation \\t e1 \\t e2 \\t label``.

    For positives_only relations a 3-column form (label implied 1) is accepted.
    Read line by line through read_rows rather than read_columns: the stream
    is lazy, so build_database reports a conflicting tuple before a later
    malformed line, and no whole tuple file's fields are held at once.
    """
    for lineno, parts in read_rows(path, 3, 4):
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
    filled with (e1_id, e2_id, label).

    A positives_only relation's label is implied, so unless ``labeled`` its
    field is "%.0s", which prints nothing. A "%" in the relation name is escaped.
    """
    label = "%.0s" if rel.positives_only and not labeled else "\t%s"
    return rel.name.replace("%", "%%") + "\t%s\t%s" + label + "\n"
