import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relfactor.errors import DataError, DivergenceError
from relfactor.evaluation import SplitSpec, split_held_out
from relfactor.model import EmbeddingStore, sigmoid
from relfactor.rng import substream
from relfactor.schema import build_database, parse_manifest
from relfactor.synth import SynthSpec, generate_planted
from relfactor.train import TrainConfig, _CellPool, sample_negatives, sgd_step, train

from conftest import RICH_MANIFEST


def stored(db, relation):
    """A relation's stored cells as {(row_index, col_index): label}."""
    rows, cols, labels = db.columns(relation).tolist()
    return dict(zip(zip(rows, cols), labels))


def one_cell_db():
    manifest = parse_manifest("type a\ntype b\nrelation R a b\n")
    return build_database(manifest, [("R", "x", "y", 1)])


def store_for(db, vec_x, vec_y, enable_biases=False):
    k = len(vec_x)
    vectors = np.zeros((len(db.entities), k))
    vectors[db.entities.get("a", "x").index] = vec_x
    vectors[db.entities.get("b", "y").index] = vec_y
    return EmbeddingStore(db.entities, db.relations, vectors, enable_biases=enable_biases)


class TestSgdStep:
    def test_zero_vectors_are_fixed_point(self):
        db = one_cell_db()
        store = store_for(db, [0.0], [0.0])
        sgd_step(store, "R", "x", "y", 1, gamma=0.1, lam=0.0)
        assert np.all(store.vectors == 0.0)

    def test_hand_evaluated_symmetric_case(self):
        db = one_cell_db()
        store = store_for(db, [1.0], [1.0])
        sgd_step(store, "R", "x", "y", 1, gamma=0.1, lam=0.0)
        # e = 1 - sigmoid(1) = 0.2689414213699951; both sides read pre-step values
        expected = 1.0 + 0.1 * 0.2689414213699951
        assert store.vectors[db.entities.get("a", "x").index][0] == pytest.approx(expected, abs=1e-15)
        assert store.vectors[db.entities.get("b", "y").index][0] == pytest.approx(expected, abs=1e-15)

    def test_hand_evaluated_regularized_case(self):
        db = one_cell_db()
        store = store_for(db, [1.0], [0.0])
        sgd_step(store, "R", "x", "y", 0, gamma=0.01, lam=0.001)
        # e = -0.5; v1 <- 1 + 0.01*(0 - 0.001*1); v2 <- 0 + 0.01*(-0.5*1 - 0)
        assert store.vectors[db.entities.get("a", "x").index][0] == pytest.approx(0.99999, abs=1e-12)
        assert store.vectors[db.entities.get("b", "y").index][0] == pytest.approx(-0.005, abs=1e-12)

    def test_simultaneous_update_preserves_equality(self):
        db = one_cell_db()
        store = store_for(db, [0.4, -0.2], [0.4, -0.2])
        for _ in range(10):
            sgd_step(store, "R", "x", "y", 1, gamma=0.05, lam=0.0)
            ix = db.entities.get("a", "x").index
            iy = db.entities.get("b", "y").index
            assert np.array_equal(store.vectors[ix], store.vectors[iy])

    def test_bias_updates(self):
        db = one_cell_db()
        store = store_for(db, [0.0], [0.0], enable_biases=True)
        sgd_step(store, "R", "x", "y", 1, gamma=0.1, lam=0.0)
        # e = 1 - sigmoid(0) = 0.5
        assert store.biases[db.entities.get("a", "x").index] == pytest.approx(0.05)
        assert store.biases[db.entities.get("b", "y").index] == pytest.approx(0.05)
        assert store.offsets[store.rel_ids["R"]] == pytest.approx(0.05)

    def test_divergent_parameters_rejected(self):
        db = one_cell_db()
        store = store_for(db, [1.0], [1.0])
        with pytest.raises(DivergenceError):
            sgd_step(store, "R", "x", "y", 1, gamma=1e9, lam=0.0)

    def test_single_step_increases_own_likelihood_term(self):
        rng = np.random.default_rng(42)
        db = one_cell_db()
        for trial in range(25):
            v1 = rng.normal(size=3)
            v2 = rng.normal(size=3)
            y = int(rng.integers(0, 2))
            store = store_for(db, v1, v2)
            before = y * math.log(sigmoid(float(v1 @ v2))) \
                + (1 - y) * math.log(sigmoid(-float(v1 @ v2)))
            sgd_step(store, "R", "x", "y", y, gamma=1e-3, lam=0.0)
            ix = db.entities.get("a", "x").index
            iy = db.entities.get("b", "y").index
            s = float(store.vectors[ix] @ store.vectors[iy])
            after = y * math.log(sigmoid(s)) + (1 - y) * math.log(sigmoid(-s))
            assert after > before

    def test_gradient_matches_finite_differences(self):
        # central differences of the per-example regularized loss
        rng = np.random.default_rng(7)
        db = one_cell_db()
        for trial in range(20):
            v1 = rng.normal(size=4)
            v2 = rng.normal(size=4)
            y = int(rng.integers(0, 2))
            lam = float(rng.uniform(0, 0.1))
            gamma = 1e-6

            def loss(a, b):
                s = float(np.dot(a, b))
                ll = y * math.log(sigmoid(s)) + (1 - y) * math.log(sigmoid(-s))
                return ll - 0.5 * lam * (np.dot(a, a) + np.dot(b, b))

            store = store_for(db, v1, v2)
            sgd_step(store, "R", "x", "y", y, gamma=gamma, lam=lam)
            ix = db.entities.get("a", "x").index
            iy = db.entities.get("b", "y").index
            update = np.concatenate([(store.vectors[ix] - v1), (store.vectors[iy] - v2)]) / gamma
            eps = 1e-6
            grad = np.empty(8)
            for d in range(4):
                da = np.zeros(4)
                da[d] = eps
                grad[d] = (loss(v1 + da, v2) - loss(v1 - da, v2)) / (2 * eps)
                grad[4 + d] = (loss(v1, v2 + da) - loss(v1, v2 - da)) / (2 * eps)
            assert np.linalg.norm(update - grad) <= 1e-4 * max(1.0, np.linalg.norm(grad))


class TestSampleNegatives:
    def positives_db(self):
        manifest = parse_manifest(RICH_MANIFEST)
        stream = [("BW", "b1", "w1", 1), ("BW", "b1", "w2", 1), ("BW", "b2", "w1", 1)]
        return build_database(manifest, stream,
                              census=[("business", f"b{i}") for i in range(1, 5)]
                              + [("word", f"w{i}") for i in range(1, 5)])

    def test_parity_and_exclusion(self):
        db = self.positives_db()
        cells, degenerate = sample_negatives(db, "BW", 3, substream(1, "negatives"))
        assert len(cells) == 3 and not degenerate
        taken = stored(db, "BW")
        assert all(cell not in taken for cell in cells)
        assert len(set(cells)) == 3

    def test_registry_grown_after_first_draw(self):
        # the stored cells are keyed over the grown registry, so all 13 free
        # cells are drawn and none of the 3 stored ones
        db = self.positives_db()
        sample_negatives(db, "BW", 5, substream(1, "negatives"))
        db.entities.register("user", "u1")
        cells, degenerate = sample_negatives(db, "BW", 13, substream(1, "negatives"))
        assert not degenerate and len(set(cells)) == 13
        taken = stored(db, "BW")
        assert not any(cell in taken for cell in cells)

    def test_count_zero(self):
        db = self.positives_db()
        cells, degenerate = sample_negatives(db, "BW", 0, substream(1, "negatives"))
        assert cells == [] and not degenerate

    def test_retry_cap_on_saturated_relation(self):
        manifest = parse_manifest(RICH_MANIFEST)
        stream = [("BW", b, w, 1) for b in ("b1", "b2") for w in ("w1", "w2")]
        db = build_database(manifest, stream)
        cells, degenerate = sample_negatives(db, "BW", 1, substream(3, "negatives"))
        assert len(cells) == 1 and degenerate

    def test_rejects_non_positives_only_relation(self, simple_db):
        with pytest.raises(DataError, match="positives_only"):
            sample_negatives(simple_db, "R", 1, substream(0, "negatives"))

    def test_deterministic_for_fixed_stream(self):
        db = self.positives_db()
        a, _ = sample_negatives(db, "BW", 5, substream(9, "negatives"))
        b, _ = sample_negatives(db, "BW", 5, substream(9, "negatives"))
        assert a == b

    def half_full_db(self):
        # 5 000 items x 6 values with 3 values per item: 15 000 free cells
        manifest = parse_manifest("type item\ntype value\nrelation A item value positives_only\n")
        stream = [("A", f"i{i}", f"v{(i + j) % 6}", 1) for i in range(5000) for j in range(3)]
        return build_database(manifest, stream)

    def test_half_full_relation_gives_distinct_negatives(self):
        db = self.half_full_db()
        cells, degenerate = sample_negatives(db, "A", 3750, substream(1, "negatives"))
        assert len(cells) == 3750 and len(set(cells)) == 3750 and not degenerate
        taken = stored(db, "A")
        assert not any(cell in taken for cell in cells)

    def test_every_free_cell_asked_for_is_served_exactly(self):
        # 15 000 of 15 000 free cells can be served exactly, so this is not degenerate
        db = self.half_full_db()
        cells, degenerate = sample_negatives(db, "A", 15000, substream(1, "negatives"))
        assert len(cells) == 15000 and len(set(cells)) == 15000 and not degenerate
        taken = stored(db, "A")
        assert not any(cell in taken for cell in cells)

    def test_nearly_every_free_cell_asked_for(self):
        db = self.half_full_db()
        cells, degenerate = sample_negatives(db, "A", 14000, substream(1, "negatives"))
        assert len(cells) == 14000 and len(set(cells)) == 14000 and not degenerate
        taken = stored(db, "A")
        assert not any(cell in taken for cell in cells)

    def test_count_above_free_cells_returns_each_free_cell_once(self):
        manifest = parse_manifest(RICH_MANIFEST)
        stream = [("BW", "b1", f"w{j}", 1) for j in range(1, 5)]
        stream += [("BW", "b2", "w1", 1), ("BW", "b2", "w2", 1)]
        db = build_database(manifest, stream)
        free = {(db.entities.get("business", "b2").index, db.entities.get("word", w).index)
                for w in ("w3", "w4")}
        cells, degenerate = sample_negatives(db, "BW", 6, substream(4, "negatives"))
        assert len(cells) == 6 and degenerate
        assert all(cells.count(cell) == 1 for cell in free)

    def test_count_above_cell_total_rejected(self):
        with pytest.raises(DataError, match="cannot sample 17 of its 4 x 4 cells"):
            sample_negatives(self.positives_db(), "BW", 17, substream(1, "negatives"))

    def test_fully_observed_cells_labeled_by_lookup(self):
        manifest = parse_manifest(RICH_MANIFEST)
        stream = [("C", "b1", "c1", 1), ("C", "b2", "c1", 0), ("C", "b2", "c2", 1)]
        census = [("business", "b1"), ("business", "b2")] + [("category", f"c{i}")
                                                             for i in range(1, 4)]
        db = build_database(manifest, stream, census=census)
        keys, labels, degenerate = _CellPool(db, "C").draw(6, substream(2, "negatives"),
                                                           reject=False)
        taken = stored(db, "C")
        assert labels.tolist() == [taken.get((key >> 32, key & 0xFFFFFFFF), 0)
                                   for key in keys.tolist()]
        assert 1 in labels.tolist() and not degenerate

    @staticmethod
    def interleaved_db(relation, order, stored_cells):
        """Entities of types a, b and c registered in ``order`` (a list of
        type names), and ``relation`` holding the cells at ``stored_cells``
        (row ordinal, column ordinal)."""
        manifest = parse_manifest("type a\ntype b\ntype c\n"
                                  "relation AB a b positives_only\n"
                                  "relation AA a a positives_only\n")
        census = [(t, f"{t}{order[:at].count(t)}") for at, t in enumerate(order)]
        rel = manifest.relations[relation]
        stream = [(relation, f"{rel.row_type}{i}", f"{rel.col_type}{j}", 1) for i, j in stored_cells]
        return build_database(manifest, stream, census=census)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_draw_by_rank_matches_free_cells(self, data):
        relation = data.draw(st.sampled_from(["AB", "AA"]))
        n_a = data.draw(st.integers(1, 5))
        n_b = data.draw(st.integers(1, 5)) if relation == "AB" else n_a
        order = data.draw(st.permutations(["a"] * n_a + ["b"] * n_b
                                          + ["c"] * data.draw(st.integers(0, 3))))
        grid = [(i, j) for i in range(n_a) for j in range(n_b)]
        stored_cells = data.draw(st.lists(st.sampled_from(grid), unique=True))
        db = self.interleaved_db(relation, order, stored_cells)
        taken = set(stored(db, relation))
        rel = db.relation(relation)
        free = {(r.index, c.index) for r in db.entities.of_type(rel.row_type)
                for c in db.entities.of_type(rel.col_type)} - taken
        count = data.draw(st.integers(0, len(grid)))
        cells, degenerate = sample_negatives(db, relation, count,
                                             substream(data.draw(st.integers(0, 99)), "negatives"))
        drawn_free = [cell for cell in cells if cell not in taken]
        assert len(cells) == count and degenerate == (count > len(free))
        assert len(drawn_free) == len(set(drawn_free)) == min(count, len(free))
        assert set(drawn_free) <= free
        if count >= len(free):
            assert set(drawn_free) == free

    def test_free_cells_drawn_uniformly(self):
        # 4 x 5 cells, 8 stored: each of the 12 free cells is expected
        # 3 times in 12 per draw, so 1 000 times in 4 000 draws of 3
        stored_cells = [(0, 0), (0, 4), (1, 1), (1, 2), (2, 0), (3, 1), (3, 3), (3, 4)]
        db = self.interleaved_db("AB", list("abcabbaccbab"), stored_cells)
        pool = _CellPool(db, "AB")
        rng = substream(7, "negatives")
        keys = np.concatenate([pool.draw(3, rng, reject=True)[0] for _ in range(4000)])
        counts = dict(zip(*np.unique(keys, return_counts=True)))
        free = {r.index << 32 | c.index for r in db.entities.of_type("a")
                for c in db.entities.of_type("b")} - {i << 32 | j for i, j in stored(db, "AB")}
        assert set(counts) == free
        expected = 4000 * 3 / len(free)
        chi2 = sum((seen - expected) ** 2 / expected for seen in counts.values())
        assert chi2 < 31.26  # chi-square, 11 degrees of freedom, p = 0.001


class TestTrain:
    def db(self, seed=0):
        return generate_planted(SynthSpec(12, 12, 3, k_true=2, noise=0.0,
                                          density=1.0, seed=seed))

    def test_deterministic_mode_bit_identical(self):
        db = self.db()
        cfg = TrainConfig(k=3, relations=["R", "C"], lam=0.001, gamma=0.05,
                          epochs=5, seed=11)
        s1, _ = train(db, cfg)
        s2, _ = train(db, cfg)
        assert np.array_equal(s1.vectors, s2.vectors)

    def test_empty_training_set_rejected(self):
        db = self.db().with_tuples({"R": [], "C": []})
        cfg = TrainConfig(k=2, relations=["R"], epochs=1, seed=0)
        with pytest.raises(DataError, match="empty training set"):
            train(db, cfg)

    def test_epochs_zero_rejected(self):
        with pytest.raises(DataError, match="epoch"):
            TrainConfig(k=2, relations=["R"], epochs=0)

    def test_unknown_relation_rejected(self):
        cfg = TrainConfig(k=2, relations=["Q"], epochs=1)
        with pytest.raises(DataError, match="unknown relation"):
            train(self.db(), cfg)

    def test_parameter_count_never_changes(self):
        db = self.db()
        store, _ = train(db, TrainConfig(k=4, relations=["R"], epochs=2, seed=1))
        assert store.vectors.shape == (len(db.entities), 4)
        store, _ = train(db, TrainConfig(k=4, relations=["R"], epochs=2, seed=1,
                                         enable_biases=True))
        assert store.vectors.shape == (len(db.entities), 4)
        assert store.biases.shape == (len(db.entities),)
        assert len(store.offsets) == len(db.relations)

    def test_negative_parity_recorded_per_epoch(self):
        db = self.db()
        positives = db.tuple_count("C")
        cfg = TrainConfig(k=2, relations=["R", "C"], epochs=3, seed=5, neg_ratio=1.0)
        _, log = train(db, cfg)
        for entry in log.entries:
            assert entry.negatives_sampled["C"] == positives

    def test_neg_ratio_scales_sample_count(self):
        db = self.db()
        positives = db.tuple_count("C")
        cfg = TrainConfig(k=2, relations=["C"], epochs=2, seed=5, neg_ratio=0.5)
        _, log = train(db, cfg)
        assert log.entries[0].negatives_sampled["C"] == int(round(0.5 * positives))

    def test_higher_lambda_shrinks_final_norm(self):
        db = self.db()
        norms = []
        for lam in (0.001, 1.0):
            store, _ = train(db, TrainConfig(k=2, relations=["R"], lam=lam,
                                             gamma=0.05, epochs=20, seed=3))
            norms.append(store.squared_norm())
        assert norms[1] < norms[0]

    def test_objective_improves_on_easy_instance(self):
        db = self.db()
        _, log = train(db, TrainConfig(k=2, relations=["R"], lam=0.0, gamma=0.05,
                                       epochs=30, seed=2))
        objs = [e.objective for e in log.entries]
        improved = sum(b > a for a, b in zip(objs, objs[1:]))
        assert improved >= 0.9 * (len(objs) - 1)

    def test_checkpoint_best_returns_best_epoch(self):
        db = self.db()
        val = [t for t in db.iter_tuples("R")][:20]
        cfg = TrainConfig(k=2, relations=["R"], gamma=0.05, epochs=10, seed=4)
        store, log = train(db, cfg, validation=val)
        best = max(e.val_f1 for e in log.entries)
        from relfactor.evaluation import evaluate
        assert evaluate(store, val).pooled.f1 == pytest.approx(best)

    def test_divergence_detected(self):
        db = self.db()
        cfg = TrainConfig(k=2, relations=["R"], lam=0.0, gamma=1e5, epochs=50,
                          seed=1, init_scale=1.0)
        with pytest.raises(DivergenceError):
            train(db, cfg)

    def test_one_log_entry_per_epoch(self):
        _, log = train(self.db(), TrainConfig(k=2, relations=["R"], epochs=7, seed=0))
        assert [e.epoch for e in log.entries] == list(range(1, 8))

    def test_log_tsv_shape(self):
        _, log = train(self.db(), TrainConfig(k=2, relations=["R"], epochs=2, seed=0))
        lines = log.to_tsv().strip().splitlines()
        assert lines[0] == "epoch\tobjective\tval_f1\tseconds"
        assert len(lines) == 3
        assert lines[1].split("\t")[2] == "NA"

    def test_empty_validation_set_is_data_error(self):
        # checkpoint-best would otherwise keep epoch 1 on an F1 of 0.0
        cfg = TrainConfig(k=2, relations=["R"], epochs=3, seed=0)
        with pytest.raises(DataError, match="empty validation set"):
            train(self.db(), cfg, validation=[])

    def test_one_tuple_held_out_split_gives_empty_validation(self):
        db = one_cell_db()
        train_db, val, test = split_held_out(db, SplitSpec("held_out", "R", seed=0))
        assert train_db.tuple_count("R") == 1 and len(val) == len(test) == 0
        with pytest.raises(DataError, match="empty validation set"):
            train(train_db, TrainConfig(k=2, relations=["R"], epochs=1), validation=val)

    def test_validation_collisions_counted(self):
        manifest = parse_manifest(RICH_MANIFEST)
        stream = [("BW", "b1", "w1", 1)]
        db = build_database(manifest, stream,
                            census=[("business", "b1"), ("word", "w1"), ("word", "w2")])
        # the only unobserved cell is (b1, w2): every sampled negative collides
        val = [("BW", "b1", "w2", 1)]
        cfg = TrainConfig(k=2, relations=["BW"], epochs=1, seed=0)
        _, log = train(db, cfg, validation=val)
        assert log.entries[0].val_negative_collisions == 1
