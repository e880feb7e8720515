import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relfactor import schema
from relfactor.embed_tools import nearest_neighbors
from relfactor.errors import DataError
from relfactor.model import EmbeddingStore
from relfactor.schema import (Entity, build_database, degree_stats, lookup, parse_manifest,
                              read_columns, read_rows, read_tuple_stream, tuple_line_template)

from conftest import RICH_MANIFEST, TWO_TYPE_MANIFEST


class TestManifest:
    def test_parses_types_and_relations(self):
        m = parse_manifest(RICH_MANIFEST)
        assert m.entity_types == ["user", "business", "category", "word"]
        assert set(m.relations) == {"R", "C", "BW", "UW"}
        assert m.relations["C"].fully_observed
        assert m.relations["BW"].positives_only
        assert not m.relations["R"].positives_only

    def test_comments_and_blanks_ignored(self):
        m = parse_manifest("# hi\n\ntype a\n  \ntype b\nrelation r a b\n")
        assert m.entity_types == ["a", "b"]

    def test_duplicate_type_rejected(self):
        with pytest.raises(DataError, match="duplicate type"):
            parse_manifest("type a\ntype a\n")

    def test_duplicate_relation_rejected(self):
        with pytest.raises(DataError, match="duplicate relation"):
            parse_manifest("type a\nrelation r a a\nrelation r a a\n")

    def test_undeclared_type_rejected(self):
        with pytest.raises(DataError, match="undeclared entity type"):
            parse_manifest("type a\nrelation r a b\n")

    def test_unknown_flag_rejected(self):
        with pytest.raises(DataError, match="unknown flag"):
            parse_manifest("type a\nrelation r a a sideways\n")

    def test_unknown_declaration_rejected(self):
        with pytest.raises(DataError, match="unknown declaration"):
            parse_manifest("entity a\n")


class TestBuildDatabase:
    def test_empty_streams(self, simple_manifest):
        db = build_database(simple_manifest, [])
        assert len(db.entities) == 0
        assert db.tuple_count("R") == 0

    def test_entities_autoregistered_with_counts(self, simple_manifest):
        db = build_database(simple_manifest, [("R", "u1", "b1", 1), ("R", "u1", "b2", 0)])
        assert len(db.entities) == 3
        assert db.tuple_count("R") == 2
        assert db.entities.get("user", "u1").ordinal == 0
        assert db.entities.get("business", "b2").ordinal == 1

    def test_columns_in_insertion_order_and_read_only(self, simple_db):
        columns = simple_db.columns("R")
        ents = list(simple_db.entities)
        assert [(ents[i].id, ents[j].id, y) for i, j, y in columns.T.tolist()] == [
            ("u1", "b1", 1), ("u1", "b2", 0), ("u2", "b1", 1)]
        keys, labels = simple_db.cell_index("R")
        for array in (columns, keys, labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7

    def test_with_tuples_leaves_source_columns_unchanged(self, rich_manifest):
        stream = [("R", "u1", "b1", 1), ("R", "u2", "b1", 0), ("C", "b1", "c1", 1)]
        db = build_database(rich_manifest, stream)
        before = {name: db.columns(name).copy() for name in db.relations}
        kept = db.with_tuples({"R": db.columns("R")[:, 1:]})
        assert kept.tuple_count("R") == 1 and lookup(kept, "R", "u1", "b1") is None
        assert kept.columns("C") is db.columns("C")
        for name, columns in before.items():
            assert np.array_equal(db.columns(name), columns)
        assert lookup(db, "R", "u1", "b1") == 1

    def test_with_tuples_rejects_undeclared_relation(self, simple_manifest):
        db = build_database(simple_manifest, [("R", "u1", "b1", 1)])
        with pytest.raises(DataError, match="unknown relation 'Rx'"):
            db.with_tuples({"Rx": []})

    def test_exact_duplicates_deduplicated(self, simple_manifest):
        db = build_database(simple_manifest, [("R", "u1", "b1", 1), ("R", "u1", "b1", 1)])
        assert db.tuple_count("R") == 1

    def test_conflicting_labels_rejected(self, simple_manifest):
        with pytest.raises(DataError, match="conflicting labels"):
            build_database(simple_manifest, [("R", "u1", "b1", 1), ("R", "u1", "b1", 0)])

    def test_undeclared_relation_rejected(self, simple_manifest):
        with pytest.raises(DataError, match="undeclared relation"):
            build_database(simple_manifest, [("Q", "u1", "b1", 1)])

    def test_positives_only_rejects_zero_label(self, rich_manifest):
        with pytest.raises(DataError, match="positives_only"):
            build_database(rich_manifest, [("BW", "b1", "w1", 0)])

    def test_census_preregisters_entities(self, simple_manifest):
        db = build_database(simple_manifest, [("R", "u1", "b1", 1)],
                            census=[("business", "b9"), ("user", "u1")])
        assert db.entities.get("business", "b9").ordinal == 0
        assert len(db.entities) == 3

    def test_same_id_under_two_types_is_two_entities(self, simple_manifest):
        db = build_database(simple_manifest, [("R", "x", "x", 1)])
        assert len(db.entities) == 2

    @given(st.permutations(list(range(5))))
    def test_permuted_stream_same_tuple_set(self, perm):
        stream = [("R", f"u{i}", f"b{i % 2}", i % 2) for i in range(5)]
        m1 = parse_manifest(TWO_TYPE_MANIFEST)
        base = build_database(m1, stream)
        m2 = parse_manifest(TWO_TYPE_MANIFEST)
        permuted = build_database(m2, [stream[i] for i in perm])
        assert set(base.iter_tuples("R")) == set(permuted.iter_tuples("R"))


class TestEntityIndices:
    def assert_matches_of_type(self, registry):
        for t in registry.types:
            assert registry.indices(t).dtype == np.int64
            assert registry.indices(t).tolist() == [e.index for e in registry.of_type(t)]

    def test_census_and_interleaved_stream(self, rich_manifest):
        stream = [("BW", "b1", "w1", 1), ("R", "u1", "b2", 1), ("UW", "u2", "w2", 1),
                  ("C", "b3", "c1", 1), ("R", "u3", "b1", 0), ("BW", "b4", "w1", 1)]
        db = build_database(rich_manifest, stream,
                            census=[("word", "w9"), ("user", "u1"), ("business", "b9")])
        self.assert_matches_of_type(db.entities)
        assert [db.entities.at(i) for i in db.entities.indices("business")] == \
            db.entities.of_type("business")

    def test_rebuilt_after_type_grows(self, rich_manifest):
        db = build_database(rich_manifest, [("R", "u1", "b1", 1), ("C", "b1", "c1", 1)])
        assert db.entities.indices("user").tolist() == [0]
        db.entities.register("word", "w1")
        db.entities.register("user", "u2")
        self.assert_matches_of_type(db.entities)
        assert db.entities.indices("user").tolist() == [0, 4]

    def test_type_without_entities(self, rich_manifest):
        db = build_database(rich_manifest, [("R", "u1", "b1", 1), ("R", "u2", "b1", 0)])
        assert db.entities.indices("word").tolist() == []
        store = EmbeddingStore(db.entities, db.relations, np.ones((len(db.entities), 2)))
        result = nearest_neighbors(store, "user", "u1", n=3, type_filter="word")
        assert result.neighbors == []

    def test_of_type_returns_a_new_list(self, simple_db):
        simple_db.entities.of_type("user").clear()
        assert [e.id for e in simple_db.entities.of_type("user")] == ["u1", "u2"]
        assert simple_db.entities.indices("user").tolist() == [0, 3]

    def test_returned_array_is_read_only(self, simple_db):
        with pytest.raises(ValueError, match="read-only"):
            simple_db.entities.indices("user")[0] = 7

    def test_unknown_type_rejected(self, simple_db):
        with pytest.raises(DataError, match="unknown entity type"):
            simple_db.entities.indices("shop")


class TestEntity:
    """The contract of a registered Entity, whatever class implements it."""

    def test_fields_key_and_repr(self, simple_db):
        ent = simple_db.entities.get("user", "u2")
        assert Entity._fields == ("type", "id", "ordinal", "index")
        assert (ent.type, ent.id, ent.ordinal, ent.index) == ("user", "u2", 1, 3)
        assert ent.key == "user:u2"
        assert repr(ent) == "Entity(type='user', id='u2', ordinal=1, index=3)"

    def test_same_registration_equal_and_hashes_alike(self, simple_manifest):
        stream = [("R", "u1", "b1", 1), ("R", "u2", "b1", 0)]
        a, b = (build_database(simple_manifest, stream).entities.get("user", "u2")
                for _ in range(2))
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("field", ["type", "id", "ordinal", "index", "key"])
    def test_immutable(self, simple_db, field):
        ent = simple_db.entities.get("user", "u1")
        with pytest.raises(AttributeError):
            setattr(ent, field, 7)
        assert simple_db.entities.get("user", "u1") == ent


class TestLookup:
    def test_observed_cell(self, simple_db):
        assert lookup(simple_db, "R", "u1", "b1") == 1
        assert lookup(simple_db, "R", "u1", "b2") == 0

    def test_cell_index_rebuilt_after_registry_grows(self, simple_manifest):
        db = build_database(simple_manifest, [("R", "u1", "b1", 1), ("R", "u2", "b1", 0)])
        assert lookup(db, "R", "u2", "b1") == 0
        db.entities.register("user", "u3")
        assert lookup(db, "R", "u2", "b1") == 0 and lookup(db, "R", "u1", "b1") == 1
        assert lookup(db, "R", "u3", "b1") is None

    def test_unobserved_cell_plain_relation(self, simple_db):
        assert lookup(simple_db, "R", "u2", "b2") is None

    def test_unobserved_positives_only_absent(self, rich_manifest):
        db = build_database(rich_manifest, [("BW", "b1", "w1", 1), ("BW", "b2", "w2", 1)])
        assert lookup(db, "BW", "b1", "w2") is None

    def test_unobserved_fully_observed_is_zero(self, rich_manifest):
        db = build_database(rich_manifest, [("C", "b1", "c1", 1), ("C", "b2", "c2", 1)])
        assert lookup(db, "C", "b1", "c2") == 0

    def test_unknown_entity_rejected(self, simple_db):
        with pytest.raises(DataError, match="unknown entity"):
            lookup(simple_db, "R", "nobody", "b1")

    def test_unknown_relation_rejected(self, simple_db):
        with pytest.raises(DataError, match="unknown relation"):
            lookup(simple_db, "Q", "u1", "b1")

    def test_repeated_calls_agree(self, simple_db):
        first = [lookup(simple_db, "R", "u1", "b1") for _ in range(3)]
        assert first == [1, 1, 1]


class TestDegreeStats:
    def test_empty_relation_all_zero(self, simple_manifest):
        db = build_database(simple_manifest, [("R", "u1", "b1", 1)])
        db2 = db.with_tuples({"R": []})
        rows, cols = degree_stats(db2, "R")
        assert set(rows.values()) == {0} and set(cols.values()) == {0}

    def test_hand_counts(self, simple_manifest):
        db = build_database(simple_manifest, [("R", "u1", "b1", 1), ("R", "u1", "b2", 0)])
        rows, cols = degree_stats(db, "R")
        assert rows == {"u1": 2}
        assert cols == {"b1": 1, "b2": 1}

    def test_counts_after_dedup(self, simple_manifest):
        db = build_database(simple_manifest, [("R", "u1", "b1", 1)] * 3)
        rows, cols = degree_stats(db, "R")
        assert rows["u1"] == 1 and cols["b1"] == 1

    def test_degree_sums_equal_tuple_count(self, simple_db):
        rows, cols = degree_stats(simple_db, "R")
        assert sum(rows.values()) == sum(cols.values()) == simple_db.tuple_count("R")


class TestTupleStreamFiles:
    def test_four_column_rows(self, tmp_path, simple_manifest):
        path = tmp_path / "R.tsv"
        path.write_text("R\tu1\tb1\t1\nR\tu2\tb1\t0\n")
        rows = list(read_tuple_stream(path, simple_manifest))
        assert rows == [("R", "u1", "b1", 1), ("R", "u2", "b1", 0)]

    def test_three_column_positives_only(self, tmp_path, rich_manifest):
        path = tmp_path / "BW.tsv"
        path.write_text("BW\tb1\tw1\n")
        assert list(read_tuple_stream(path, rich_manifest)) == [("BW", "b1", "w1", 1)]

    def test_three_column_rejected_for_plain_relation(self, tmp_path, simple_manifest):
        path = tmp_path / "R.tsv"
        path.write_text("R\tu1\tb1\n")
        with pytest.raises(DataError, match="3-column"):
            list(read_tuple_stream(path, simple_manifest))

    def test_bad_label_rejected(self, tmp_path, simple_manifest):
        path = tmp_path / "R.tsv"
        path.write_text("R\tu1\tb1\t2\n")
        with pytest.raises(DataError, match="label"):
            list(read_tuple_stream(path, simple_manifest))

    @pytest.mark.parametrize("flag,line", [("", "R%s\tu%d\tb{0}\t1\n"),
                                           (" positives_only", "R%s\tu%d\tb{0}\n")])
    def test_line_template_reads_back(self, tmp_path, flag, line):
        """A "%" in the relation name or the ids stays literal, and a
        positives_only relation writes the 3-column form unless labeled."""
        manifest = parse_manifest(f"type user\ntype business\nrelation R%s user business{flag}\n")
        template = tuple_line_template(manifest.relations["R%s"])
        assert template % ("R%s", "u%d", "b{0}", 1) == line
        labeled = tuple_line_template(manifest.relations["R%s"], labeled=True)
        assert labeled % ("R%s", "u%d", "b{0}", 1) == "R%s\tu%d\tb{0}\t1\n"
        path = tmp_path / "R.tsv"
        path.write_text(line)
        assert list(read_tuple_stream(path, manifest)) == [("R%s", "u%d", "b{0}", 1)]


@st.composite
def tab_files(draw):
    """A tab-separated file of rows 1 to 4 fields wide, with up to four edits
    that make it non-canonical or faulty, and the (n_min, n_max) to read it with."""
    width = draw(st.integers(1, 4))
    fields = st.sampled_from(["a", "b1", "ü", " x ", "", "#", "\x85", "\u2028"])
    lines = draw(st.lists(st.lists(fields, min_size=width, max_size=width),
                          min_size=1, max_size=8))
    ends = ["\n"] * len(lines)
    for how in draw(st.lists(st.sampled_from(["blank", "comment", "line end", "no last end",
                                              "add", "drop", "byte"]), max_size=4)):
        t = draw(st.integers(0, len(lines) - 1))
        if how in ("blank", "comment"):
            lines.insert(t, [] if how == "blank" else ["#c"] + lines[t][1:])
            ends.insert(t, "\n")
        elif how == "line end":
            ends[t] = draw(st.sampled_from(["\r\n", "\r"]))
        elif how == "no last end":
            ends[-1] = ""
        elif how == "add":
            lines[t] = lines[t] + ["z"]
        elif how == "drop" and lines[t]:
            lines[t] = lines[t][:-1]
        elif how == "byte" and lines[t]:
            lines[t] = lines[t][:-1] + [lines[t][-1] + "\udcff"]
    n_min = draw(st.integers(1, 4))
    n_max = draw(st.integers(n_min, 4))
    text = "".join("\t".join(fields) + end for fields, end in zip(lines, ends))
    return text.encode("utf-8", "surrogateescape"), n_min, n_max


def outcome(read):
    """read()'s result, or the text of the DataError it raises."""
    try:
        return read()
    except DataError as exc:
        return str(exc)


class TestReadColumns:
    def by_rows(self, path, n_min, n_max):
        rows = [parts for _, parts in read_rows(path, n_min, n_max)]
        return [[parts[c] if c < len(parts) else None for parts in rows] for c in range(n_max)]

    @given(case=tab_files())
    @example(case=(b"\na\nb\n", 1, 1))
    @example(case=(b"a\n\nb", 1, 2))
    @example(case=(b"a\tb\tc\nd\n", 2, 2))
    @example(case=(b"a\tb\r\n#c\tb\rd\te\xff\n", 2, 3))
    @settings(max_examples=300, deadline=None)
    def test_same_result_as_read_rows(self, case, tmp_path_factory):
        data, n_min, n_max = case
        path = tmp_path_factory.mktemp("columns") / "rows.tsv"
        path.write_bytes(data)
        assert outcome(lambda: read_columns(path, n_min, n_max)) \
            == outcome(lambda: self.by_rows(path, n_min, n_max))

    @pytest.mark.parametrize("data, n_min, n_max, columns", [
        (b"a\nb\n", 1, 1, [["a", "b"]]),
        (b"a\tb\r\nc\td", 2, 3, [["a", "c"], ["b", "d"], [None, None]]),
        (b"\t\n \t#\n", 1, 2, [["", " "], ["", "#"]]),
    ])
    def test_canonical_file_skips_read_rows(self, tmp_path, monkeypatch, data, n_min, n_max,
                                            columns):
        path = tmp_path / "rows.tsv"
        path.write_bytes(data)
        monkeypatch.setattr(schema, "read_rows", None)
        assert read_columns(path, n_min, n_max) == columns

    def test_empty_file_gives_empty_columns(self, tmp_path):
        path = tmp_path / "rows.tsv"
        for data in (b"", b"\n", b"# only\n"):
            path.write_bytes(data)
            assert read_columns(path, 2, 3) == [[], [], []]


def loop_build(manifest, stream, census=None):
    """build_database as one loop over the tuples, a dict of entities per
    type and of cell keys per relation: the reference. Returns the registry
    as (type, id, ordinal, index) and each relation's columns as lists."""
    entities = []
    of_type = {etype: {} for etype in manifest.entity_types}

    def register(etype, eid):
        if etype not in of_type:
            raise DataError(f"unknown entity type {etype!r}")
        if eid not in of_type[etype]:
            if not eid:
                raise DataError("empty entity id")
            entities.append(Entity(etype, eid, len(of_type[etype]), len(entities)))
            of_type[etype][eid] = entities[-1]
        return of_type[etype][eid]

    for etype, eid in census or ():
        register(etype, eid)
    cells = {name: {} for name in manifest.relations}
    for rel_name, e1_id, e2_id, label in stream:
        rel = manifest.relations.get(rel_name)
        if rel is None:
            raise DataError(f"tuple references undeclared relation {rel_name!r}")
        if label not in (0, 1):
            raise DataError(f"relation {rel_name}: label must be 0 or 1, got {label!r}")
        if rel.positives_only and label != 1:
            raise DataError(
                f"relation {rel_name} is positives_only but tuple ({e1_id},{e2_id}) has label 0")
        e1 = register(rel.row_type, e1_id)
        e2 = register(rel.col_type, e2_id)
        if cells[rel_name].setdefault((e1.index, e2.index), label) != label:
            raise DataError(f"relation {rel_name}: conflicting labels for cell ({e1_id},{e2_id})")
    return ([tuple(e) for e in entities],
            {name: [[i for i, _ in store], [j for _, j in store], list(store.values())]
             for name, store in cells.items()})


def chunked_build(manifest, stream, census=None):
    """build_database's result in loop_build's form, after checking that the
    registry's per-type lists and key lookups agree with its order."""
    db = build_database(manifest, stream, census)
    for etype in db.entities.types:
        assert db.entities.of_type(etype) == [e for e in db.entities if e.type == etype]
    assert all(db.entities.find(e.type, e.id) is e for e in db.entities)
    return ([tuple(e) for e in db.entities],
            {name: db.columns(name).tolist() for name in db.relations})


# F relates users to users, so one type fills both sides of a tuple
BUILD_MANIFEST = ("type user\ntype item\ntype tag\nrelation R user item\n"
                  "relation F user user\nrelation P item tag positives_only\n")


@st.composite
def tuple_streams(draw):
    """A stream over BUILD_MANIFEST whose few ids make repeated and
    conflicting cells likely, with up to two faulty tuples, an optional
    census and an optional DataError raised part-way."""
    ids = {"user": ["u0", "u1", "u2", "i0"], "item": ["i0", "i1", "i2"], "tag": ["t0", "t1"]}
    sides = {"R": ("user", "item"), "F": ("user", "user"), "P": ("item", "tag")}
    stream = []
    for _ in range(draw(st.integers(0, 40))):
        name = draw(st.sampled_from("RRFFP"))
        e1, e2 = (draw(st.sampled_from(ids[t])) for t in sides[name])
        stream.append((name, e1, e2, 1 if name == "P" else draw(st.sampled_from([0, 1]))))
    for fault in draw(st.lists(st.sampled_from(["relation", "label", "zero", "empty"]),
                               max_size=2)):
        at = draw(st.integers(0, len(stream)))
        if fault == "relation":
            stream.insert(at, ("X", "u0", "i0", 1))
        elif fault == "label":
            stream.insert(at, ("R", "u0", "i0", draw(st.sampled_from([2, -1, "1", None, [1]]))))
        elif fault == "zero":
            stream.insert(at, ("P", "i0", "t0", 0))
        else:
            stream.insert(at, draw(st.sampled_from([("R", "", "i0", 1), ("F", "u0", "", 0),
                                                    ("R", None, "i0", 0)])))
    census = draw(st.none() | st.lists(st.sampled_from(
        [("user", "u9"), ("item", "i1"), ("tag", "t1"), ("user", "u0")]), max_size=4))
    if census is not None and draw(st.integers(0, 9)) == 0:
        census.append(draw(st.sampled_from([("tag", ""), ("nosuch", "x")])))
    raise_at = draw(st.none() | st.none() | st.integers(0, len(stream)))
    return stream, census, raise_at


def raising(stream, raise_at):
    """stream, with a DataError raised in place of its tuple at raise_at."""
    for at, cell in enumerate(stream):
        if at == raise_at:
            raise DataError("the stream failed")
        yield cell
    if raise_at == len(stream):
        raise DataError("the stream failed")


class TestChunkedBuild:
    @given(case=tuple_streams(), chunk=st.integers(1, 5))
    @example(case=([("R", "u0", "i0", 1), ("F", "u1", "u0", 0), ("R", "u0", "i0", 1),
                    ("F", "u0", "u1", 1), ("R", "u0", "i0", 0), ("P", "i0", "t0", 0)], None, None),
             chunk=2)
    @example(case=([("R", "u0", "i0", 0), ("R", "u1", "i0", 1), ("R", "u0", "i0", 1)],
                   [("item", "i1")], 3), chunk=1)
    @example(case=([("R", "u0", "i0", 0), ("R", "u0", "i0", 1), ("R", "", "i0", 1)], None, None),
             chunk=5)
    @example(case=([("F", "u0", "u1", 1), ("F", "u2", "u0", 1), ("F", "u1", "u0", 1)], None, None),
             chunk=5)
    @example(case=([("F", "u0", "u1", 0), ("F", "u0", "u1", 1), ("R", "u0", "i0", 0),
                    ("R", "u0", "i0", 1)], None, None), chunk=5)
    @example(case=([("R", "u0", "i0", 1), ("P", "i1", "t0", 0)], None, None), chunk=2)
    @settings(max_examples=300, deadline=None)
    def test_same_result_as_tuple_loop(self, case, chunk):
        """Registry, columns and error as the loop gives them, whatever the
        chunk boundaries: a conflict that crosses chunks is found, and a fault
        or a stream error after a conflict reports the conflict."""
        stream, census, raise_at = case
        manifest = parse_manifest(BUILD_MANIFEST)
        expected = outcome(lambda: loop_build(manifest, raising(stream, raise_at), census))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schema, "_CHUNK_TUPLES", chunk)
            assert outcome(lambda: chunked_build(manifest, raising(stream, raise_at), census)) \
                == expected

    def test_conflict_reported_before_a_later_malformed_line(self, tmp_path, simple_manifest):
        path = tmp_path / "R.tsv"
        path.write_text("R\tu1\tb1\t1\nR\tu1\tb1\t0\nR\tu2\tb1\t1\nR\tu3\tb1\t0\nR\tu4\n")
        with pytest.raises(DataError, match=r"conflicting labels for cell \(u1,b1\)"):
            build_database(simple_manifest, read_tuple_stream(path, simple_manifest))

    def test_register_all_registers_new_keys_in_order(self, rich_manifest):
        registry = schema.EntityRegistry(rich_manifest.entity_types)
        registry.register("business", "b0")
        indices = registry.register_all(["user", "business", "business", "user", "user"],
                                        ["u0", "b0", "b1", "u0", "u1"])
        assert indices.dtype == np.int64 and indices.tolist() == [1, 0, 2, 1, 3]
        assert [tuple(e) for e in registry] == [("business", "b0", 0, 0), ("user", "u0", 0, 1),
                                                ("business", "b1", 1, 2), ("user", "u1", 1, 3)]
        assert registry.index_of["user"] == {"u0": 1, "u1": 3}
        for bad, eid, text in (("nosuch", "x", "unknown entity type"),
                               ("user", "", "empty entity id"), ("user", None, "empty entity id")):
            with pytest.raises(DataError, match=text):
                registry.register_all(["user", bad, "user"], ["u2", eid, ""])
        assert len(registry) == 4 and registry.find("user", "u2") is None

    def test_failed_register_all_leaves_the_registry_unchanged(self, rich_manifest):
        registry = schema.EntityRegistry(rich_manifest.entity_types)
        registry.register("business", "b0")
        before = {etype: dict(ids_of) for etype, ids_of in registry.index_of.items()}
        with pytest.raises(TypeError):  # an unhashable id, found after "a" and "b"
            registry.register_all(["user"] * 3, ["a", "b", ["x"]])
        assert registry.index_of == before
        assert len(registry) == 1 and registry.find("user", "a") is None
        assert tuple(registry.register("user", "c")) == ("user", "c", 0, 1)


def line_loop(path, manifest):
    """read_tuple_stream one line at a time from the file's bytes, a line that
    is not UTF-8 raising when it is reached: the reference."""
    lines = re.split(rb"\r\n|\r|\n", path.read_bytes())
    if not lines[-1]:
        lines.pop()
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise DataError(f"{path}:{lineno}: expected 3-4 columns")
        if len(parts) == 4:
            if parts[3] not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {parts[3]!r}")
            yield (*parts[:3], int(parts[3]))
            continue
        rel = manifest.relations.get(parts[0])
        if rel is None:
            raise DataError(f"{path}:{lineno}: undeclared relation {parts[0]!r}")
        if not rel.positives_only:
            raise DataError(
                f"{path}:{lineno}: 3-column form only allowed for positives_only relations")
        yield (*parts, 1)


def drained(stream):
    """The tuples a stream yields and the text of the DataError that ends it,
    or None."""
    cells = []
    try:
        for cell in stream:
            cells.append(cell)
    except DataError as exc:
        return cells, str(exc)
    return cells, None


@st.composite
def tuple_files(draw):
    """The bytes of a tuple file over BUILD_MANIFEST with up to four edits
    that make a block non-canonical or faulty, and a block size that puts a
    few lines in each block."""
    lines = draw(st.lists(st.sampled_from([
        b"R\tu0\ti0\t1", b"R\tu1\ti2\t0", b"P\ti0\tt1\t1", b"F\tu0\tu1\t0", b"P\ti1\tt0",
        b"P\ti\xc3\xbc\tt0"]), min_size=1, max_size=12))
    ends = [b"\n"] * len(lines)
    for how in draw(st.lists(st.sampled_from(["crlf", "cr", "comment", "blank", "label",
                                              "three", "width", "byte", "no end"]),
                             max_size=4)):
        at = draw(st.integers(0, len(lines) - 1))
        if how in ("crlf", "cr"):
            ends[at] = b"\r\n" if how == "crlf" else b"\r"
        elif how in ("comment", "blank"):
            lines.insert(at, b"# R\tu0\ti0\t1" if how == "comment" else b"")
            ends.insert(at, b"\n")
        elif how == "label":
            lines[at] = b"R\tu0\ti0\t2"
        elif how == "three":
            lines[at] = b"R\tu0\ti0"
        elif how == "width":
            lines[at] = b"R\tu0"
        elif how == "byte":
            lines[at] = lines[at] + b"\xff"
        else:
            ends[-1] = b""
    return b"".join(line + end for line, end in zip(lines, ends)), draw(st.integers(1, 48))


class TestTupleStreamBlocks:
    @given(case=tuple_files())
    @example(case=(b"R\tu0\ti0\t1\nR\tu1\ti0\t0\nR\tu2\ti0\t2\nR\tu3\ti0\t1\n", 24))
    @example(case=(b"R\tu0\ti0\t1\nR\tu1\ti0\t0\nR\tu2\ti0\t1\xff\nR\tu3\ti0\t1\n", 24))
    @example(case=(b"P\ti0\tt0\nR\tu1\ti0\n", 10))
    @example(case=(b"# c\r\nR\tu0\ti0\t1\r\n\r\nP\ti0\tt0", 8))
    @settings(max_examples=300, deadline=None)
    def test_same_tuples_as_line_loop(self, case, tmp_path_factory):
        """The same tuples, and before a fault the same tuples and then the
        same error, whichever blocks are read whole and which line by line."""
        data, block = case
        path = tmp_path_factory.mktemp("tuples") / "T.tsv"
        path.write_bytes(data)
        manifest = parse_manifest(BUILD_MANIFEST)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schema, "_BLOCK_BYTES", block)
            assert drained(read_tuple_stream(path, manifest)) == drained(line_loop(path, manifest))

    def test_canonical_blocks_skip_the_line_loop(self, tmp_path, monkeypatch):
        """Blocks of one width with every label 0 or 1 or implied are zipped
        from their columns; the first other block and every one after it go
        through the line loop. Blocks of one byte hold one line each."""
        path = tmp_path / "T.tsv"
        path.write_bytes(b"R\tu0\ti0\t1\r\nR\tu1\ti0\t0\nP\ti0\tt0\nP\ti1\tt0\n# c\nR\tu2\ti0\t1\n")
        manifest = parse_manifest(BUILD_MANIFEST)
        lines = []
        rows = schema._rows
        monkeypatch.setattr(schema, "_rows", lambda *args: (lines.append(row[0]) or row
                                                             for row in rows(*args)))
        monkeypatch.setattr(schema, "_BLOCK_BYTES", 1)
        assert list(read_tuple_stream(path, manifest)) == [
            ("R", "u0", "i0", 1), ("R", "u1", "i0", 0), ("P", "i0", "t0", 1),
            ("P", "i1", "t0", 1), ("R", "u2", "i0", 1)]
        assert lines == [6]
