import numpy as np
import pytest
from hypothesis import given, strategies as st

from relfactor.errors import DataError
from relfactor.schema import (build_database, degree_stats, lookup,
                              parse_manifest, read_tuple_stream, tuple_line_template)

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


class TestLookup:
    def test_observed_cell(self, simple_db):
        assert lookup(simple_db, "R", "u1", "b1") == 1
        assert lookup(simple_db, "R", "u1", "b2") == 0

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
        positives_only relation writes the 3-column form."""
        manifest = parse_manifest(f"type user\ntype business\nrelation R%s user business{flag}\n")
        template = tuple_line_template(manifest.relations["R%s"])
        assert template % ("u%d", "b{0}", 1) == line
        path = tmp_path / "R.tsv"
        path.write_text(line)
        assert list(read_tuple_stream(path, manifest)) == [("R%s", "u%d", "b{0}", 1)]
