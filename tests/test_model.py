import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        store.offsets["R"] = -1.5
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
                           offsets={"R": float(rng.normal()), "T": float(rng.normal())})
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
        probs = sigmoid_array(score_cells(store, [rel.name for rel, _, _ in resolved],
                                          [e1.index for _, e1, _ in resolved],
                                          [e2.index for _, _, e2 in resolved]))
        for (rel, e1, e2), p in zip(resolved, probs):
            assert abs(p - score(store, rel.name, e1.id, e2.id)) <= 1e-12
            s = math.fsum(store.vectors[e1.index] * store.vectors[e2.index])
            if store.enable_biases:
                s += store.biases[e1.index] + store.biases[e2.index] + store.offsets[rel.name]
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
        store = store_with(db, {}, k=2)
        base = log_likelihood(store, db, ["R"], 0.0)
        extra = log_likelihood(store, db, ["R"], 0.0,
                               sampled_negatives=[("R", 0, 1)])
        assert extra == pytest.approx(base + math.log(0.5))

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
        assert all(v == 0.0 for v in store.offsets.values())


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
                               offsets={"R": 0.123456789123456789})
        path = tmp_path / "m.rfm"
        save_model(store, path)
        loaded = load_model(path)
        assert loaded.enable_biases
        assert np.array_equal(loaded.biases, store.biases)
        assert loaded.offsets == store.offsets

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
