import decimal
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relfactor import kernel, model, schema
from relfactor.errors import DataError
from relfactor.evaluation import classify, evaluate, f1_report
from relfactor.model import (EmbeddingStore, init_embeddings, load_model,
                             log_likelihood, save_model, score, score_cells,
                             sigmoid, sigmoid_array)
from relfactor.schema import build_database, parse_manifest

from conftest import (MALFORMED_MODELS, _set_bias, _set_last_token, without_library,
                      write_model)


def store_with(db, assignments, k, enable_biases=False):
    vectors = np.zeros((len(db.entities), k))
    for (etype, eid), vec in assignments.items():
        vectors[db.entities.get(etype, eid).index] = vec
    return EmbeddingStore(db.entities, db.relations, vectors, enable_biases=enable_biases)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_closed_form_two(self):
        assert sigmoid(2.0) == pytest.approx(0.8807970779778823, abs=1e-16)

    def test_antisymmetry(self):
        assert sigmoid(-3.7) == pytest.approx(1.0 - sigmoid(3.7), abs=1e-15)

    @pytest.mark.parametrize("s", [700.0, -700.0, 500.0, -500.0])
    def test_no_overflow_for_large_inputs(self, s):
        p = sigmoid(s)
        assert 0.0 <= p <= 1.0 and math.isfinite(p)

    @given(st.floats(min_value=-30, max_value=30))
    def test_complement_identity(self, s):
        assert abs(sigmoid(s) + sigmoid(-s) - 1.0) <= 1e-15


class TestScore:
    def test_zero_vectors_give_half(self, simple_db):
        store = store_with(simple_db, {}, k=2)
        assert score(store, "R", "u1", "b1") == 0.5

    def test_dot_product_of_two_entities(self, simple_db):
        store = store_with(simple_db, {("user", "u1"): [1, 0], ("business", "b1"): [2, 0]},
                           k=2)
        assert score(store, "R", "u1", "b1") == pytest.approx(0.8807970779778823)

    def test_symmetric_in_arguments(self, simple_db):
        store = store_with(simple_db, {("user", "u1"): [1, 2], ("business", "b1"): [3, -1]},
                           k=2)
        s1 = store.vectors[simple_db.entities.get("user", "u1").index]
        s2 = store.vectors[simple_db.entities.get("business", "b1").index]
        assert float(s1 @ s2) == float(s2 @ s1)

    def test_biases_and_offset_summed(self, simple_db):
        store = store_with(simple_db, {}, k=2, enable_biases=True)
        store.biases[simple_db.entities.get("user", "u1").index] = 1.0
        store.biases[simple_db.entities.get("business", "b1").index] = 0.5
        store.offsets[store.rel_ids["R"]] = -1.5
        assert score(store, "R", "u1", "b1") == 0.5

    def test_unknown_entity_rejected(self, simple_db):
        store = store_with(simple_db, {}, k=2)
        with pytest.raises(DataError):
            score(store, "R", "ghost", "b1")


@st.composite
def scored_stores(draw):
    """A random store over two relations, with or without biases, and
    every cell of both relations with a random label."""
    n_users, n_items, n_tags, k = (draw(st.integers(1, 4)) for _ in range(4))
    enable_biases = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    manifest = parse_manifest("type user\ntype item\ntype tag\n"
                              "relation R user item\nrelation T item tag positives_only\n")
    census = ([("user", f"u{i}") for i in range(n_users)]
              + [("item", f"i{i}") for i in range(n_items)]
              + [("tag", f"t{i}") for i in range(n_tags)])
    db = build_database(manifest, [], census=census)
    n = len(db.entities)
    store = EmbeddingStore(db.entities, db.relations, rng.normal(scale=2.0, size=(n, k)),
                           enable_biases=enable_biases, biases=rng.normal(size=n),
                           offsets=np.array([rng.normal(), rng.normal()]))
    cells = [("R", f"u{a}", f"i{b}", int(rng.integers(0, 2)))
             for a in range(n_users) for b in range(n_items)]
    cells += [("T", f"i{a}", f"t{b}", int(rng.integers(0, 2)))
              for a in range(n_items) for b in range(n_tags)]
    return store, cells


class TestScoreCells:
    @settings(max_examples=60, deadline=None)
    @given(scored_stores())
    def test_matches_score_cell_by_cell(self, case):
        store, cells = case
        resolved = [store.resolve(r, a, b) for r, a, b, _ in cells]
        probs = sigmoid_array(score_cells(store, [store.rel_ids[rel.name] for rel, _, _ in resolved],
                                          [e1.index for _, e1, _ in resolved],
                                          [e2.index for _, _, e2 in resolved]))
        for (rel, e1, e2), p in zip(resolved, probs):
            assert abs(p - score(store, rel.name, e1.id, e2.id)) <= 1e-12
            s = math.fsum(store.vectors[e1.index] * store.vectors[e2.index])
            if store.enable_biases:
                s += store.biases[e1.index] + store.biases[e2.index] + store.offsets[store.rel_ids[rel.name]]
            assert abs(p - sigmoid(s)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(scored_stores())
    def test_evaluate_counts_match_scalar_classification(self, case):
        store, cells = case
        report = evaluate(store, cells)
        for name in ("R", "T"):
            mine = [c for c in cells if c[0] == name]
            preds = [classify(score(store, r, a, b)) for r, a, b, _ in mine]
            expected = f1_report(preds, [y for *_, y in mine]).pooled
            assert report.datasets[name] == expected
            assert all(type(v) is int for v in vars(report.datasets[name]).values())


class TestScoreBlocks:
    def blocked_store(self, n_cells, k, seed=5):
        rng = np.random.default_rng(seed)
        manifest = parse_manifest("type user\ntype item\nrelation R user item\n")
        census = [("user", f"u{i}") for i in range(300)] + [("item", f"i{i}") for i in range(200)]
        db = build_database(manifest, [], census=census)
        n = len(db.entities)
        store = EmbeddingStore(db.entities, db.relations, rng.normal(size=(n, k)),
                               enable_biases=True, biases=rng.normal(size=n),
                               offsets=np.array([0.3]))
        rows = rng.integers(0, 300, size=n_cells)
        cols = rng.integers(300, n, size=n_cells)
        return store, np.zeros(n_cells, dtype=np.int64), rows, cols

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 30, 64])
    def test_blocks_match_one_gather_and_single_cells(self, k):
        n_cells = 3 * model._SCORE_BLOCK + 17
        store, rel_ids, rows, cols = self.blocked_store(n_cells, k)
        whole = (np.einsum("ij,ij->i", store.vectors[rows], store.vectors[cols])
                 + store.biases[rows] + store.biases[cols] + store.offsets[rel_ids])
        blocked = score_cells(store, rel_ids, rows, cols)
        assert np.array_equal(blocked, whole)
        ents = list(store.entities)
        for t in (0, model._SCORE_BLOCK - 1, model._SCORE_BLOCK, n_cells - 1):
            p = score(store, "R", ents[rows[t]].id, ents[cols[t]].id)
            assert abs(sigmoid(blocked[t]) - p) <= 1e-12

    def test_peak_memory_bounded_by_block(self):
        # the two whole (200k, 30) gathers alone take 96 MB
        store, rel_ids, rows, cols = self.blocked_store(200_000, 30)
        tracemalloc.start()
        try:
            score_cells(store, rel_ids, rows, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestLogLikelihood:
    def test_single_tuple_zero_vectors(self, simple_manifest):
        db = build_database(simple_manifest, [("R", "u1", "b1", 1)])
        store = store_with(db, {}, k=2)
        assert log_likelihood(store, db, ["R"], 0.0) == pytest.approx(math.log(0.5))

    def test_penalty_only(self, simple_manifest):
        db = build_database(simple_manifest, [("R", "u1", "b1", 1)])
        db_empty = db.with_tuples({"R": []})
        store = store_with(db_empty, {("user", "u1"): [1, 1]}, k=2)
        assert log_likelihood(store, db_empty, ["R"], 0.5) == pytest.approx(-1.0)

    def test_empty_no_penalty_is_zero(self, simple_manifest):
        db = build_database(simple_manifest, [("R", "u1", "b1", 1)])
        db_empty = db.with_tuples({"R": []})
        store = store_with(db_empty, {("user", "u1"): [1, 1]}, k=2)
        assert log_likelihood(store, db_empty, ["R"], 0.0) == 0.0

    def test_never_positive(self, simple_db):
        rng = np.random.default_rng(0)
        store = EmbeddingStore(simple_db.entities, simple_db.relations,
                               rng.normal(size=(len(simple_db.entities), 3)))
        assert log_likelihood(store, simple_db, ["R"], 0.0) <= 0.0

    def test_weakly_decreasing_in_lambda(self, simple_db):
        rng = np.random.default_rng(1)
        store = EmbeddingStore(simple_db.entities, simple_db.relations,
                               rng.normal(size=(len(simple_db.entities), 3)))
        values = [log_likelihood(store, simple_db, ["R"], lam)
                  for lam in (0.0, 0.01, 0.1, 1.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_sampled_negatives_added_as_zeros(self, simple_manifest):
        db = build_database(simple_manifest, [("R", "u1", "b1", 1)])
        for enable_biases in (False, True):
            store = store_with(db, {}, k=2, enable_biases=enable_biases)
            base = log_likelihood(store, db, ["R"], 0.0)
            extra = log_likelihood(store, db, ["R"], 0.0,
                                   sampled_negatives=[("R", 0, 1)])
            assert extra == pytest.approx(base + math.log(0.5))
            with pytest.raises(DataError, match="unknown relation 'Z'"):
                log_likelihood(store, db, ["R"], 0.0, sampled_negatives=[("Z", 0, 1)])

    def test_relations_matched_by_name_not_manifest_order(self):
        """A store scores a database whose manifest lists the relations in
        another order by relation name: each cell gets its relation's offset."""
        declarations = ["relation R user item", "relation T item tag positives_only"]
        census = [("user", "u0"), ("user", "u1"), ("item", "i0"), ("item", "i1"), ("tag", "t0")]
        stream = [("R", "u0", "i0", 1), ("R", "u1", "i0", 0), ("R", "u1", "i1", 1),
                  ("T", "i0", "t0", 1)]
        dbs = [build_database(parse_manifest("\n".join(["type user", "type item", "type tag",
                                                          *order])), stream, census=census)
               for order in (declarations, declarations[::-1])]
        rng = np.random.default_rng(4)
        n = len(census)
        store = EmbeddingStore(dbs[0].entities, dbs[0].relations, rng.normal(size=(n, 2)),
                               enable_biases=True, biases=rng.normal(size=n),
                               offsets=np.array([0.75, -2.0]))
        negatives = [("T", 3, 4), ("R", 0, 3)]  # global indices: (i1, t0), (u0, i1)
        types = {"R": ("user", "item"), "T": ("item", "tag")}
        offsets = {"R": 0.75, "T": -2.0}
        cells = [(r, dbs[0].entities.get(types[r][0], a).index,
                  dbs[0].entities.get(types[r][1], b).index, y) for r, a, b, y in stream]
        expected = -0.01 * store.squared_norm()
        for r, i, j, y in cells + [(r, i, j, 0) for r, i, j in negatives]:
            s = store.vectors[i] @ store.vectors[j] + store.biases[i] + store.biases[j] + offsets[r]
            expected += math.log(sigmoid(s if y else -s))
        values = [log_likelihood(store, db, ["R", "T"], 0.01, sampled_negatives=negatives)
                  for db in dbs]
        assert [e.key for e in dbs[1].entities] == [e.key for e in store.entities]
        assert values[0] == values[1] == pytest.approx(expected, abs=1e-12)

    def test_non_finite_parameters_rejected(self, simple_db):
        store = store_with(simple_db, {("user", "u1"): [np.inf, 0]}, k=2)
        with pytest.raises(DataError, match="non-finite"):
            log_likelihood(store, simple_db, ["R"], 0.0)


class TestInitEmbeddings:
    def test_same_seed_identical(self, simple_db):
        a = init_embeddings(simple_db, k=4, seed=9)
        b = init_embeddings(simple_db, k=4, seed=9)
        assert np.array_equal(a.vectors, b.vectors)

    def test_scale_bounds(self, simple_db):
        store = init_embeddings(simple_db, k=64, seed=1, scale=0.01)
        assert np.all(np.abs(store.vectors) < 0.01)

    def test_different_seeds_differ(self, simple_db):
        a = init_embeddings(simple_db, k=8, seed=1)
        b = init_embeddings(simple_db, k=8, seed=2)
        assert not np.array_equal(a.vectors, b.vectors)

    def test_k_zero_rejected(self, simple_db):
        with pytest.raises(DataError):
            init_embeddings(simple_db, k=0, seed=1)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
    def test_scale_not_finite_and_positive_rejected(self, simple_db, scale):
        with pytest.raises(DataError, match="init scale must be finite and positive"):
            init_embeddings(simple_db, k=2, seed=0, scale=scale)

    def test_biases_start_at_zero(self, simple_db):
        store = init_embeddings(simple_db, k=2, seed=1, enable_biases=True)
        assert np.all(store.biases == 0.0)
        assert all(v == 0.0 for v in store.offsets)

    @pytest.mark.parametrize("biases, offsets", [
        (np.zeros(3), None), (None, np.zeros(2)), (np.zeros((4, 1)), None), (None, np.zeros(0)),
    ])
    def test_biases_or_offsets_of_the_wrong_shape_rejected(self, simple_db, biases, offsets):
        assert (len(simple_db.entities), len(simple_db.relations)) == (4, 1)
        with pytest.raises(DataError, match=r"biases must be \(n_entities,\)"):
            EmbeddingStore(simple_db.entities, simple_db.relations, np.zeros((4, 2)),
                           enable_biases=True, biases=biases, offsets=offsets)


class TestPersistence:
    def test_roundtrip_bit_exact(self, simple_db, tmp_path):
        rng = np.random.default_rng(5)
        store = EmbeddingStore(simple_db.entities, simple_db.relations,
                               rng.normal(size=(len(simple_db.entities), 5)))
        path = tmp_path / "m.rfm"
        save_model(store, path)
        old_header = tmp_path / "old.rfm"  # written by versions with a compact mode
        old_header.write_text(path.read_text().replace(" biases=0", " biases=0 compact=1", 1))
        for loaded in (load_model(path), load_model(old_header)):
            assert np.array_equal(loaded.vectors, store.vectors)
            assert loaded.k == 5
            assert [e.key for e in loaded.entities] == [e.key for e in store.entities]
            assert set(loaded.relations) == set(store.relations)

    def test_failed_save_leaves_old_file_and_no_temporary(self, simple_db, tmp_path,
                                                          monkeypatch):
        """A save that raises part-way through its write over an existing
        model leaves the old bytes: a partly written file would load as a
        store with fewer entities."""
        rng = np.random.default_rng(6)
        n = len(simple_db.entities)
        path = tmp_path / "m.rfm"
        save_model(EmbeddingStore(simple_db.entities, simple_db.relations,
                                  rng.normal(size=(n, 3))), path)
        old = path.read_bytes()

        class FullDisk:
            def __init__(self, file):
                self.file = file

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, text):
                self.file.write(text[:len(text) // 2])
                self.file.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(schema, "open", lambda *a, **kw: FullDisk(open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            save_model(EmbeddingStore(simple_db.entities, simple_db.relations,
                                      rng.normal(size=(n, 3))), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.rfm"]

    @pytest.mark.parametrize("where, error", [
        ("vectors", "coordinate of entity business:b1"),
        ("biases", "bias or coordinate of entity user:u2"),
        ("offsets", "offset of relation 'R'")])
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_parameter_refused_before_writing(self, simple_db, tmp_path, where,
                                                         error, value):
        """A store load_model would refuse is not saved: DataError names the
        first offending entity or relation, and the old file stays."""
        rng = np.random.default_rng(6)
        n = len(simple_db.entities)
        store = EmbeddingStore(simple_db.entities, simple_db.relations, rng.normal(size=(n, 3)),
                               enable_biases=True, biases=rng.normal(size=n),
                               offsets=np.array([0.5]))
        path = tmp_path / "m.rfm"
        save_model(store, path)
        old = path.read_bytes()
        bad = simple_db.entities.get("business", "b1").index
        if where == "vectors":
            store.vectors[bad, 1] = value
            store.vectors[-1, 0] = value
        elif where == "biases":
            store.biases[-1] = value
        else:
            store.offsets[0] = value
        with pytest.raises(DataError, match=f"cannot save a non-finite .*{re.escape(error)}$"):
            save_model(store, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.rfm"]

    @pytest.mark.parametrize("brk", ["\t", "\n", "\r"], ids=ascii)
    def test_id_with_tab_or_line_end_refused_before_writing(self, simple_db, simple_manifest,
                                                            tmp_path, brk):
        """load_model would refuse an entity line broken by such an id, so
        save_model names the first such entity and leaves the old file."""
        path = tmp_path / "m.rfm"
        save_model(init_embeddings(simple_db, k=2, seed=1), path)
        old = path.read_bytes()
        db = build_database(simple_manifest, [("R", "u1", "b1", 1), ("R", f"u{brk}2", "b1", 0),
                                              ("R", "u3", f"b{brk}", 1)])
        with pytest.raises(DataError, match=re.escape(
                f"cannot save an entity key holding a tab or line end: {f'user:u{brk}2'!r}")):
            save_model(init_embeddings(db, k=2, seed=1), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.rfm"]

    def test_roundtrip_many_entities(self, simple_manifest, tmp_path):
        stream = [("R", f"u{i}", f"b{i}", 1) for i in range(50)]
        db = build_database(simple_manifest, stream)
        store = init_embeddings(db, k=5, seed=77, scale=0.5)
        path = tmp_path / "m.rfm"
        save_model(store, path)
        assert np.array_equal(load_model(path).vectors, store.vectors)

    def test_biases_and_offsets_preserved(self, simple_db, tmp_path):
        rng = np.random.default_rng(6)
        store = EmbeddingStore(simple_db.entities, simple_db.relations,
                               rng.normal(size=(len(simple_db.entities), 3)),
                               enable_biases=True,
                               biases=rng.normal(size=len(simple_db.entities)),
                               offsets=np.array([0.123456789123456789]))
        path = tmp_path / "m.rfm"
        save_model(store, path)
        loaded = load_model(path)
        assert loaded.enable_biases
        assert np.array_equal(loaded.biases, store.biases)
        assert np.array_equal(loaded.offsets, store.offsets)

    def test_offset_lines_read_by_name(self, tmp_path):
        """Offset lines in any order load by relation name, and save back in
        relation order."""
        manifest = parse_manifest("type user\ntype item\nrelation R user item\n"
                                  "relation S user item\n")
        db = build_database(manifest, [("R", "u", "i", 1)])
        store = EmbeddingStore(db.entities, db.relations, np.zeros((2, 1)), enable_biases=True,
                               offsets=np.array([0.5, -3.0]))
        path = tmp_path / "m.rfm"
        save_model(store, path)
        lines = path.read_text().splitlines()
        assert lines[-2:] == ["offset R 0.5", "offset S -3"]
        loaded = load_model(write_model(tmp_path / "swapped.rfm", lines[:-2] + lines[:-3:-1]))
        assert loaded.offsets[loaded.rel_ids["R"]] == 0.5
        assert loaded.offsets[loaded.rel_ids["S"]] == -3.0
        save_model(loaded, tmp_path / "resaved.rfm")
        assert (tmp_path / "resaved.rfm").read_bytes() == path.read_bytes()

    # signed zero, the smallest subnormal, the smallest normal, a huge value
    # and values whose shortest repr is shorter than 17 digits
    EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e300, 0.1, 1.0, -3.0]

    @pytest.mark.parametrize("enable_biases", [False, True])
    def test_lines_match_per_value_format(self, simple_manifest, tmp_path, enable_biases):
        # ids holding %-format and str.format fields must be written literally
        db = build_database(simple_manifest, [("R", "u%s{0}", "b%%d{}", 1), ("R", "u2", "b1", 0)])
        values = self.EDGE_VALUES
        k = len(values)
        vectors = np.array([np.roll(values, i) for i in range(len(db.entities))])
        biases = np.array(values[:len(db.entities)])
        store = EmbeddingStore(db.entities, db.relations, vectors, enable_biases=enable_biases,
                               biases=biases, offsets=np.array([5e-324]))
        path = tmp_path / "m.rfm"
        save_model(store, path)

        def fmt(c):
            return format(c, ".17g")

        expected = [f"relfactor-model v1 k={k} biases={int(enable_biases)}",
                    "type user", "type business", "relation R user business"]
        for ent in db.entities:
            b = fmt(biases[ent.index]) if enable_biases else "0"
            coords = " ".join(fmt(c) for c in vectors[ent.index])
            expected.append(f"{ent.type}:{ent.id}\tb={b}\t{coords}")
        if enable_biases:
            expected.append(f"offset R {fmt(5e-324)}")
        assert path.read_text().split("\n") == expected + [""]

        loaded = load_model(path)
        assert [e.key for e in loaded.entities] == [e.key for e in db.entities]
        assert loaded.vectors.tobytes() == vectors.tobytes()
        if enable_biases:
            assert loaded.biases.tobytes() == biases.tobytes()
            assert loaded.offsets.tobytes() == store.offsets.tobytes()

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "m.rfm"
        path.write_text("relfactor-model v9 k=2 biases=0\n")
        with pytest.raises(DataError, match="version"):
            load_model(path)

    def test_not_a_model_rejected(self, tmp_path):
        path = tmp_path / "m.rfm"
        path.write_text("something else entirely\n")
        with pytest.raises(DataError):
            load_model(path)

    def test_truncated_coordinates_rejected(self, simple_db, tmp_path):
        store = store_with(simple_db, {}, k=3)
        path = tmp_path / "m.rfm"
        save_model(store, path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(" ", 1)[0]  # drop one coordinate
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="coordinates"):
            load_model(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_malformed_model_rejected(self, case, model_lines, tmp_path):
        """The same error with and without the compiled row parser."""
        mutate, match = MALFORMED_MODELS[case]
        path = write_model(tmp_path / "m.rfm", mutate(model_lines))
        compiled, python = both_paths(path, tmp_path)
        assert isinstance(compiled, str) and re.search(match, compiled)
        assert compiled == python

    def test_non_utf8_model_rejected(self, tmp_path):
        path = tmp_path / "m.rfm"
        path.write_bytes(b"relfactor-model v1 k=2 biases=0\ntype \xff\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_model(path)


# --- the compiled row parser against the Python reference loop ----------------

def load_outcome(path):
    """What load_model makes of path: entity keys and parameter bytes, or
    the text of the DataError it raises."""
    try:
        store = load_model(path)
    except DataError as exc:
        return str(exc)
    return ([e.key for e in store.entities], store.vectors.tobytes(),
            None if store.biases is None else store.biases.tobytes(),
            None if store.offsets is None else store.offsets.tobytes())


def both_paths(path, directory):
    """load_outcome of path with the compiled library, then without it."""
    compiled = load_outcome(path)
    with without_library(directory / "empty-cache"):
        return compiled, load_outcome(path)


# tokens that float() and strtod read alike, that only float() reads, that
# neither reads, or that are not finite
TOKEN_MUTATIONS = ["-0.0", "5e-324", "1.7976931348623157e308", "+1.5", "1.", ".5", "1_0",
                   "0x1p3", "nan", "inf", "1e999", "1e", "-", ""]
MUTATIONS = TOKEN_MUTATIONS + ["space before", "space after"]


@st.composite
def random_stores(draw):
    """A store of k 1-30 with biases on or off, over entities with random
    ids, holding any finite floats."""
    k = draw(st.integers(1, 30))
    manifest = parse_manifest("type user\ntype item\nrelation R user item\n"
                              "relation S item item\n")
    ids = draw(st.lists(st.text(st.characters(blacklist_characters="\t\n\r",
                                              blacklist_categories=["Cs"]), min_size=1,
                                max_size=4), min_size=2, max_size=6, unique=True))
    db = build_database(manifest, [("R", ids[0], e, 1) for e in ids[1:]])
    n = len(db.entities)

    def floats(size):
        return np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                      min_size=size, max_size=size)))
    return EmbeddingStore(db.entities, db.relations, floats(n * k).reshape(n, k),
                          draw(st.booleans()), floats(n), floats(2))


def mutate_tokens(lines, draw, first):
    """Apply the mutation first, then up to two more, each to a drawn number
    of an entity or offset line: replace it by a token of TOKEN_MUTATIONS,
    put a space before it ("space before") or after its line ("space after")."""
    start = next(t for t, line in enumerate(lines) if "\t" in line)
    for how in [first, *draw(st.lists(st.sampled_from(MUTATIONS), max_size=2))]:
        t = draw(st.integers(start, len(lines) - 2))
        offset = lines[t].startswith("offset ")
        if offset:
            tokens = lines[t].rsplit(" ", 1)
        else:
            key, bias, coords = lines[t].split("\t")
            tokens = [key, bias[2:], *coords.split(" ")]
        i = draw(st.integers(1, len(tokens) - 1))
        if how == "space before":
            tokens[i] = " " + tokens[i]
        elif how == "space after":
            tokens[-1] += " "
        else:
            tokens[i] = how
        lines[t] = (" ".join(tokens) if offset else
                    f"{tokens[0]}\tb={tokens[1]}\t" + " ".join(tokens[2:]))
    return lines


class TestCompiledRowParser:
    @pytest.mark.parametrize("first", MUTATIONS)
    @settings(max_examples=25, deadline=None)
    @given(store=random_stores(), data=st.data())
    def test_same_result_as_python_loop(self, first, store, data, tmp_path_factory):
        directory = tmp_path_factory.mktemp("differential")
        path = directory / "m.rfm"
        save_model(store, path)
        lines = mutate_tokens(path.read_text(encoding="utf-8").split("\n"), data.draw, first)
        path.write_text("\n".join(lines), encoding="utf-8")
        compiled, python = both_paths(path, directory)
        assert compiled == python

    @pytest.mark.parametrize("biases", [False, True])
    def test_saved_model_loads_without_the_python_loop(self, simple_db, tmp_path, monkeypatch,
                                                       biases):
        if kernel.library() is None:
            pytest.skip("no compiled library")
        rng = np.random.default_rng(8)
        n = len(simple_db.entities)
        store = EmbeddingStore(simple_db.entities, simple_db.relations, rng.normal(size=(n, 4)),
                               enable_biases=biases, biases=rng.normal(size=n),
                               offsets=np.array([-0.5]))
        path = tmp_path / "m.rfm"
        save_model(store, path)
        monkeypatch.setattr(model, "_float_row", None)  # the numbers come from kernel.c
        loaded = load_model(path)
        assert loaded.vectors.tobytes() == store.vectors.tobytes()
        assert loaded.vectors.flags.c_contiguous
        if biases:
            assert loaded.biases.tobytes() == store.biases.tobytes()
            assert loaded.offsets.tobytes() == store.offsets.tobytes()

    @pytest.mark.parametrize("case", ["duplicate-entity", "empty-entity-id", "duplicate-offset",
                                      "offset-of-undeclared-relation", "offset-without-biases",
                                      "bias-without-biases", "undeclared-entity-type"])
    def test_key_and_offset_faults_found_without_float(self, case, model_lines, tmp_path,
                                                       monkeypatch):
        """A file whose numbers the compiled parser reads is checked over
        those numbers: its key or offset fault gives the error of the
        library-free path, with no entity line read by float()."""
        if kernel.library() is None:
            pytest.skip("no compiled library")
        mutate, match = MALFORMED_MODELS[case]
        path = write_model(tmp_path / "m.rfm", mutate(model_lines))
        with without_library(tmp_path / "empty-cache"):
            python = load_outcome(path)
        assert isinstance(python, str) and re.search(match, python)

        def refuse(numbers):
            raise AssertionError(f"entity line read by float(): {numbers!r}")
        monkeypatch.setattr(model, "_float_row", refuse)
        assert load_outcome(path) == python

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends_load_alike(self, model_lines, tmp_path, monkeypatch, newline):
        """A model file with \\n, \\r\\n or \\r line ends loads to the same
        store, with and without the library. With it, every number comes
        from the compiled parser, which starts at the byte offset of the
        first entity line in the text as read; the non-ASCII type name puts
        that offset past the one in characters."""
        text = "\n".join(line.replace("business", "geschäft") for line in model_lines) + "\n"
        (tmp_path / "lf.rfm").write_bytes(text.encode("utf-8"))
        path = tmp_path / "m.rfm"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        expected = load_outcome(tmp_path / "lf.rfm")
        assert isinstance(expected, tuple) and "geschäft:b1" in expected[0]
        assert both_paths(path, tmp_path) == (expected, expected)
        if kernel.library() is not None:
            monkeypatch.setattr(model, "_float_row", None)
            assert load_outcome(path) == expected

    # model_lines: header and manifest on lines 1-4, entities user:u1,
    # business:b1, business:b2 and user:u2 on lines 5-8, the offset on line 9
    @pytest.mark.parametrize("edits, error", [
        ({5: _set_last_token("0.5x"), 7: lambda l: [l.replace("\t", " ", 1)]},
         "m.rfm:5: malformed number"),
        ({5: lambda l: [l.replace("\t", " ", 1)], 7: _set_last_token("0.5x")},
         "m.rfm:5: malformed entity line"),
        ({6: lambda l: [l.replace("\tb=", "\tc=", 1)], 8: _set_last_token("1_0x")},
         "m.rfm:6: malformed entity line"),
        ({5: lambda l: [l.replace("user:u1", "user:", 1)], 7: _set_bias("1_0x")},
         "m.rfm:7: malformed number"),
        ({6: lambda l: [l.replace("business:b1", "user:u1", 1)], 8: _set_last_token("0x1p3")},
         "m.rfm:8: malformed number"),
        ({5: lambda l: [l.replace("user:u1", "user:", 1)], 6: lambda l: [l + " 1"]},
         "m.rfm:6: expected 2 coordinates, got 3"),
        ({5: _set_last_token("nan"), 9: _set_last_token("1e")}, "m.rfm:9: malformed number"),
        ({5: _set_last_token("inf"), 8: lambda l: [l.replace("user:u2", "user:", 1)]},
         "m.rfm:8: empty entity id"),
        ({6: lambda l: [l.replace("business:b1", "user:u1", 1)],
          8: lambda l: [l.replace("user:u2", "user:", 1)]}, "m.rfm:6: duplicate entity user:u1"),
        ({5: lambda l: [l.replace("user:u1", "user:", 1)],
          8: lambda l: [l.replace("user:u2", "business:b2", 1)]}, "m.rfm:5: empty entity id"),
    ])
    def test_first_fault_in_documented_order(self, model_lines, tmp_path, edits, error):
        lines = list(model_lines)
        for lineno, edit in edits.items():
            (lines[lineno - 1],) = edit(lines[lineno - 1])
        path = write_model(tmp_path / "m.rfm", lines)
        compiled, python = both_paths(path, tmp_path)
        assert compiled == python
        assert compiled.endswith(error)


# --- the compiled parser's integer fast path against float() -----------------

def load_tokens(tokens, directory):
    """load_model of a one-entity model file whose bias and coordinates are
    tokens, with the compiled library (which must then read every number
    itself) and without it; asserts both give float() of every token."""
    path = directory / "m.rfm"
    write_model(path, [f"relfactor-model v1 k={len(tokens) - 1} biases=1", "type user",
                       f"user:u\tb={tokens[0]}\t" + " ".join(tokens[1:])])
    with pytest.MonkeyPatch.context() as mp:
        if kernel.library() is not None:
            mp.setattr(model, "_float_row", None)  # every number from kernel.c
        compiled = load_outcome(path)
    with without_library(directory / "empty-cache"):
        python = load_outcome(path)
    expected = np.array([float(t) for t in tokens])
    assert compiled[1] == python[1] == expected[1:].tobytes()
    assert compiled[2] == python[2] == expected[:1].tobytes()


@st.composite
def decimal_tokens(draw):
    """A plain decimal with 15-20 significant digits and a decimal exponent
    in -29..29, in any of the written forms (sign, leading and trailing
    zeros, "1." and ".5", with and without an exponent part); or a 19-digit
    decimal within one unit of the midpoint between two adjacent doubles."""
    sign = draw(st.sampled_from(["", "-", "+"]))
    if draw(st.booleans()):
        x = draw(st.floats(1e-9, 1e40))
        with decimal.localcontext() as ctx:
            ctx.prec = 200
            mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
            mantissa, exponent = format(mid, ".18e").split("e")
        digits = int(mantissa.replace(".", "")) + draw(st.integers(-1, 1))
        return f"{sign}{digits}e{int(exponent) - 18}"
    n = draw(st.integers(15, 20))
    digits = str(draw(st.integers(10 ** (n - 1), 10 ** n - 1)))
    digits = "0" * draw(st.integers(0, 2)) + digits + "0" * draw(st.integers(0, 2))
    point = draw(st.one_of(st.none(), st.integers(0, len(digits))))
    written = digits if point is None else digits[:point] + "." + digits[point:]
    fraction = 0 if point is None else len(digits) - point
    exponent = draw(st.integers(-29, 29)) + fraction  # as written after the e
    if exponent or draw(st.booleans()):
        written += draw(st.sampled_from(["e", "E"])) + (
            f"{exponent:+d}" if draw(st.booleans()) else str(exponent))
    return sign + written


class TestFastPath:
    @settings(max_examples=150, deadline=None)
    @given(tokens=st.lists(decimal_tokens(), min_size=2, max_size=40))
    def test_same_bits_as_float(self, tokens, tmp_path_factory):
        load_tokens(tokens, tmp_path_factory.mktemp("fast"))

    def test_edge_tokens(self, tmp_path):
        """2^53 + 1, a tie that rounds to even; both ends of the exponent
        range and one past each; 19 and 20 digits; a signed zero; a decimal
        just above a midpoint whose quotient bits read as an exact tie, so
        only the remainder rounds it up."""
        load_tokens(["9007199254740993", "1e-27", "1e-28", "1e27", "1e28",
                     "1234567890123456789e-20", "12345678901234567891e-21", "-0",
                     "0.00000000000000000000000000001", "9833915031184117609e-27"], tmp_path)


# --- the compiled row writer against the "%" template -------------------------

def written_rows(keys, vectors, biases, sep, directory):
    """The bytes model.write_rows yields with the compiled library and
    without it, after asserting both equal the "%" template of every row."""
    row = ("%s\tb=%.17g\t" if biases is not None else "%s\t") + sep.join(
        ["%.17g"] * vectors.shape[1]) + "\n"
    expected = "".join(row % (key, *([] if biases is None else [biases[r]]), *vectors[r])
                       for r, key in enumerate(keys)).encode("utf-8")

    def write():
        return b"".join(model.write_rows(keys, vectors, biases, sep))
    compiled = write()
    with without_library(directory / "empty-cache"):
        python = write()
    assert compiled == expected
    assert python == expected
    return compiled


def compiled_rows(values):
    """How many leading values the compiled writer itself prints, each as a
    one-number row: the writer stops at the first it declines."""
    lib = kernel.library()
    vectors = np.array(values, dtype=np.float64).reshape(-1, 1)
    rows, _ = lib.format_rows(b"", np.zeros(len(values) + 1, dtype=np.int64), None, vectors,
                              b" ", np.empty(64 * len(values), dtype=np.uint8))
    return rows


# the smallest double at or above 1e-16 and the largest below 2^128 are the
# ends of the compiled writer's exact range; 1e-16 itself is just below 10^-16
LOWEST = math.nextafter(1e-16, 1.0)
HIGHEST = math.nextafter(2.0 ** 128, 0.0)

# the %g notation switches (1e-5 and 9.9999999999999991e-05 are
# scientific, 1e-4 and 1e16 fixed, 1e17 scientific; 99999999999999999.0 is
# 1e17), exact 17-digit ties that round half to even, the first of each pair
# down and the second up (10 + 2^-16 and 10 + 3 * 2^-16 have one digit more
# than their power of two suggests), 1e-14, whose 17 digits carry to 10^17,
# both zeros, a subnormal, both ends of the exact range and the doubles just
# past them
EDGE_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, LOWEST, 1e-16, HIGHEST, 2.0 ** 128,
               1e-5, 9.9999999999999991e-05, 1e-4, 1e16, 1e17, 99999999999999999.0,
               1.00000762939453125, 1.00002288818359375, 10.0000152587890625,
               10.0000457763671875, 1e-14, -1e-14, 0.1, 123.0, 1.7976931348623157e308]

in_range = st.floats(1e-16, 2.0 ** 128, exclude_max=True).map(lambda x: max(x, LOWEST))


class TestCompiledWriter:
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     in_range, in_range.map(lambda x: -x)),
                           min_size=1, max_size=60),
           k=st.integers(1, 6), biases=st.booleans())
    def test_same_bytes_as_template(self, values, k, biases, tmp_path_factory):
        n = -(-len(values) // (k + biases))
        flat = np.resize(np.array(values), n * (k + biases))
        written_rows([f"user:u{r}" for r in range(n)], flat[n * biases:].reshape(n, k),
                     flat[:n] if biases else None, " ", tmp_path_factory.mktemp("writer"))

    @pytest.mark.parametrize("sep", [" ", "\t"])
    def test_edge_values(self, sep, tmp_path):
        values = np.array(EDGE_VALUES)
        rows = [np.roll(values, r)[:5] for r in range(len(values))]
        written_rows([f"user:{r}" for r in range(len(rows))], np.array(rows), None, sep,
                     tmp_path)
        written_rows(["item:x"], values.reshape(1, -1), np.array([-0.0]), sep, tmp_path)

    def test_exact_range(self):
        """The compiled writer itself prints every value in 1e-16 <= |x| <
        2^128 and the zeros, and declines the doubles just outside."""
        if kernel.library() is None:
            pytest.skip("no compiled library")
        inside = [v for v in EDGE_VALUES if v == 0 or LOWEST <= abs(v) <= HIGHEST]
        assert compiled_rows(inside) == len(inside) == 18
        for value in (1e-16, 2.0 ** 128, math.nextafter(2.0 ** 129, 0.0), 5e-324,
                      -2.2250738585072014e-308, math.inf, math.nan):
            assert compiled_rows([1.0, value, 1.0]) == 1

    def test_keys_and_blocks(self, tmp_path, monkeypatch):
        """Keys with non-ASCII characters and "%" go in as bytes; rows span
        several blocks, and declined rows fall anywhere in a block."""
        monkeypatch.setattr(model, "_WRITE_VALUES", 40)
        rng = np.random.default_rng(4)
        keys = [f"w:{c}%s{r}" for r, c in zip(range(60), "aé%😀" * 15)]
        vectors = rng.normal(size=(60, 7))
        vectors[[0, 9, 10, 59], [2, 6, 0, 3]] = 5e-324
        lines = written_rows(keys, vectors, rng.normal(size=60), " ", tmp_path).split(b"\n")
        assert lines[3].startswith("w:😀%s3\tb=".encode("utf-8"))

    def test_store_with_biases_and_offsets(self, simple_db, tmp_path):
        """save_model writes the same file with the library and without it."""
        rng = np.random.default_rng(9)
        n = len(simple_db.entities)
        store = EmbeddingStore(simple_db.entities, simple_db.relations,
                               rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-20, 20, (n, 4)),
                               enable_biases=True, biases=rng.normal(size=n),
                               offsets=np.array([1e-14]))
        save_model(store, tmp_path / "compiled.rfm")
        with without_library(tmp_path / "empty-cache"):
            save_model(store, tmp_path / "python.rfm")
        data = (tmp_path / "compiled.rfm").read_bytes()
        assert data == (tmp_path / "python.rfm").read_bytes()
        assert data.endswith(b"\noffset R 1e-14\n")
        assert load_model(tmp_path / "compiled.rfm").vectors.tobytes() == store.vectors.tobytes()
