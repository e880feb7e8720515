import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relfactor import model
from relfactor.errors import DataError
from relfactor.evaluation import classify, evaluate, f1_report
from relfactor.model import (EmbeddingStore, init_embeddings, load_model,
                             log_likelihood, save_model, score, score_cells,
                             sigmoid, sigmoid_array)
from relfactor.schema import build_database, parse_manifest

from conftest import MALFORMED_MODELS, write_model


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

    def test_biases_start_at_zero(self, simple_db):
        store = init_embeddings(simple_db, k=2, seed=1, enable_biases=True)
        assert np.all(store.biases == 0.0)
        assert all(v == 0.0 for v in store.offsets)


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
        mutate, match = MALFORMED_MODELS[case]
        path = write_model(tmp_path / "m.rfm", mutate(model_lines))
        with pytest.raises(DataError, match=match):
            load_model(path)

    def test_non_utf8_model_rejected(self, tmp_path):
        path = tmp_path / "m.rfm"
        path.write_bytes(b"relfactor-model v1 k=2 biases=0\ntype \xff\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_model(path)
