import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relfactor.errors import DataError
from relfactor.evaluation import (ConfusionCounts, SplitSpec, classify,
                                  evaluate, f1_report, micro_f1, pr_curve,
                                  split_cold_start, split_held_out)
from relfactor.model import EmbeddingStore, init_embeddings, load_model, save_model
from relfactor.schema import build_database, parse_manifest
from relfactor.synth import SynthSpec, generate_planted
from relfactor.train import TrainConfig, train


def held_out_db(n=10):
    manifest = parse_manifest("type user\ntype business\nrelation R user business\n")
    stream = [("R", f"u{i}", f"b{i % 3}", i % 2) for i in range(n)]
    return build_database(manifest, stream)


class TestSplitHeldOut:
    def test_fraction_08_sizes(self):
        db = held_out_db(10)
        train_db, val, test = split_held_out(db, SplitSpec("held_out", "R",
                                                           train_fraction=0.8, seed=1))
        assert train_db.tuple_count("R") == 8
        assert len(val) == 1 and len(test) == 1

    def test_fraction_07_odd_remainder_to_validation(self):
        db = held_out_db(10)
        train_db, val, test = split_held_out(db, SplitSpec("held_out", "R",
                                                           train_fraction=0.7, seed=1))
        assert train_db.tuple_count("R") == 7
        assert len(val) == 2 and len(test) == 1

    def test_seed_reproducible(self):
        db = held_out_db(20)
        spec = SplitSpec("held_out", "R", train_fraction=0.7, seed=42)
        a = split_held_out(db, spec)
        b = split_held_out(db, spec)
        assert list(a[0].iter_tuples("R")) == list(b[0].iter_tuples("R"))
        assert a[1] == b[1] and a[2] == b[2]

    def test_partition_exact(self):
        db = held_out_db(17)
        train_db, val, test = split_held_out(db, SplitSpec("held_out", "R",
                                                           train_fraction=0.7, seed=3))
        train = set(train_db.iter_tuples("R"))
        assert train | set(val) | set(test) == set(db.iter_tuples("R"))
        assert not (train & set(val)) and not (train & set(test))
        assert not (set(val) & set(test))

    def test_empty_target_rejected(self):
        db = held_out_db(4).with_tuples({"R": []})
        with pytest.raises(DataError, match="^target relation R is empty$"):
            split_held_out(db, SplitSpec("held_out", "R", seed=0))

    def test_registry_shared_with_source(self):
        db = held_out_db(10)
        train_db, _, _ = split_held_out(db, SplitSpec("held_out", "R", seed=0))
        assert train_db.entities is db.entities


class TestSplitColdStart:
    def db(self):
        return generate_planted(SynthSpec(20, 10, 4, k_true=2, noise=0.0,
                                          density=0.8, seed=5))

    def spec(self, **kw):
        base = dict(mode="cold_start", target_relation="R", cold_fraction=0.1,
                    cold_side="col", seed=7)
        base.update(kw)
        return SplitSpec(**base)

    def test_cold_entity_count_is_ceiling(self):
        train_db, val, test, cold = split_cold_start(self.db(), self.spec())
        assert len(cold) == 1  # ceil(0.1 * 10)

    def test_all_cold_tuples_in_test(self):
        db = self.db()
        train_db, val, test, cold = split_cold_start(db, self.spec())
        cold_ids = {e.id for e in cold}
        for _, _, item, _ in list(train_db.iter_tuples("R")) + list(val):
            assert item not in cold_ids
        assert all(item in cold_ids for _, _, item, _ in test)
        expected = sum(1 for _, _, item, _ in db.iter_tuples("R") if item in cold_ids)
        assert len(test) == expected

    def test_side_relations_pass_intact(self):
        db = self.db()
        train_db, _, _, cold = split_cold_start(db, self.spec())
        assert set(train_db.iter_tuples("C")) == set(db.iter_tuples("C"))
        # the point: cold items keep their category tuples
        cold_ids = {e.id for e in cold}
        kept = [t for t in train_db.iter_tuples("C") if t[1] in cold_ids]
        source = [t for t in db.iter_tuples("C") if t[1] in cold_ids]
        assert kept == source

    def test_warm_tuples_split_90_10(self):
        db = self.db()
        train_db, val, test, _ = split_cold_start(db, self.spec())
        warm = db.tuple_count("R") - len(test)
        assert train_db.tuple_count("R") == int(np.floor(0.9 * warm + 0.5))
        assert train_db.tuple_count("R") + len(val) == warm

    def test_row_side_cold(self):
        db = self.db()
        train_db, val, test, cold = split_cold_start(db, self.spec(cold_side="row"))
        assert len(cold) == 2  # ceil(0.1 * 20 users)
        cold_ids = {e.id for e in cold}
        assert all(user in cold_ids for _, user, _, _ in test)

    def test_small_population_warns(self):
        db = generate_planted(SynthSpec(20, 8, 4, k_true=2, noise=0.0,
                                        density=0.8, seed=5))
        with pytest.warns(UserWarning, match="degenerate"):
            split_cold_start(db, self.spec(cold_side="col", cold_fraction=0.2))

    def test_empty_target_rejected(self):
        db = self.db().with_tuples({"R": []})
        with pytest.raises(DataError, match="^target relation R is empty$"):
            split_cold_start(db, self.spec())

    def test_registry_preserved_for_cold_entities(self):
        db = self.db()
        train_db, _, _, cold = split_cold_start(db, self.spec())
        for e in cold:
            assert train_db.entities.find(e.type, e.id) is not None


class TestClassify:
    @pytest.mark.parametrize("score,threshold,label", [
        (0.7, 0.5, 1), (0.5, 0.5, 1), (0.49, 0.5, 0), (0.2, 0.1, 1),
    ])
    def test_boundary_inclusive(self, score, threshold, label):
        assert classify(score, threshold) == label


class TestF1Report:
    def test_all_correct(self):
        report = f1_report([1, 0, 1], [1, 0, 1])
        assert report.pooled.f1 == 1.0

    def test_formula_case(self):
        # TP=1, FP=1, FN=0 -> P=0.5, R=1.0, F1=2/3
        report = f1_report([1, 1], [1, 0])
        counts = report.pooled
        assert counts.precision == 0.5 and counts.recall == 1.0
        assert counts.f1 == pytest.approx(2 / 3)

    def test_degenerate_zero(self):
        report = f1_report([0, 0], [1, 0])
        assert report.pooled.precision == 0.0
        assert report.pooled.f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            f1_report([1], [1, 0])

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=50), st.randoms())
    @settings(max_examples=50)
    def test_permutation_invariant(self, pairs, rnd):
        preds = [p for p, _ in pairs]
        labels = [y for _, y in pairs]
        base = f1_report(preds, labels).pooled.f1
        shuffled = pairs[:]
        rnd.shuffle(shuffled)
        assert f1_report([p for p, _ in shuffled], [y for _, y in shuffled]).pooled.f1 == base


class TestMicroF1:
    def test_pooled_arithmetic(self):
        a = f1_report([1, 1], [1, 0], name="A")          # TP=1 FP=1
        b = f1_report([1, 0], [1, 1], name="B")          # TP=1 FN=1
        pooled = micro_f1([a, b]).pooled
        assert pooled.precision == pytest.approx(2 / 3)
        assert pooled.recall == pytest.approx(2 / 3)
        assert pooled.f1 == pytest.approx(2 / 3)

    def test_single_dataset_identity(self):
        a = f1_report([1, 0, 1], [1, 1, 0], name="A")
        assert micro_f1([a]).pooled.f1 == a.pooled.f1

    def test_copies_leave_f1_unchanged_exactly(self):
        a = f1_report([1, 0, 1, 1], [1, 1, 0, 1], name="A")
        copies = [f1_report([1, 0, 1, 1], [1, 1, 0, 1], name=f"c{i}") for i in range(5)]
        assert micro_f1(copies).pooled.f1 == a.pooled.f1

    def test_macro_mean_reported(self):
        a = f1_report([1], [1], name="A")        # F1 = 1
        b = f1_report([0], [1], name="B")        # F1 = 0
        assert micro_f1([a, b]).macro_f1 == pytest.approx(0.5)


class TestPrCurve:
    def test_perfect_ranking_reaches_one_one(self):
        points = pr_curve([0.9, 0.1], [1, 0])
        assert points[0] == (1.0, 1.0, 0.9)
        assert points[-1][1] == 1.0

    def test_anti_ordered_full_recall_precision_is_positive_rate(self):
        points = pr_curve([0.1, 0.9], [1, 0])
        assert points[-1] == (0.5, 1.0, 0.1)

    def test_duplicate_scores_collapse(self):
        points = pr_curve([0.5, 0.5, 0.2], [1, 0, 1])
        assert len(points) == 2

    def test_recall_nondecreasing(self):
        rng = np.random.default_rng(0)
        scores = rng.random(50)
        labels = rng.integers(0, 2, 50)
        points = pr_curve(scores, labels)
        recalls = [r for _, r, _ in points]
        assert recalls == sorted(recalls)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            pr_curve([0.1, 0.9], [1, 1])


class TestEvaluate:
    def test_empty_test_set_rejected(self, simple_db):
        store = init_embeddings(simple_db, k=2, seed=0)
        with pytest.raises(DataError, match="empty"):
            evaluate(store, [])

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf"), -0.1, 1.5])
    def test_threshold_out_of_range_rejected(self, simple_db, threshold):
        store = init_embeddings(simple_db, k=2, seed=0)
        with pytest.raises(DataError, match=r"threshold must be in \[0, 1\]"):
            evaluate(store, list(simple_db.iter_tuples("R")), threshold=threshold)

    def test_threshold_bounds_classify_everything(self, simple_db):
        store = init_embeddings(simple_db, k=2, seed=0)
        test = list(simple_db.iter_tuples("R"))
        assert evaluate(store, test, threshold=0.0).pooled.recall == 1.0
        assert evaluate(store, test, threshold=1.0).pooled.recall == 0.0

    def test_uninformative_model_matches_all_positive_formula(self, simple_db):
        store = EmbeddingStore(simple_db.entities, simple_db.relations,
                               np.zeros((len(simple_db.entities), 2)))
        test = list(simple_db.iter_tuples("R"))
        report = evaluate(store, test)
        p = sum(y for *_, y in test) / len(test)
        assert report.pooled.recall == 1.0
        assert report.pooled.f1 == pytest.approx(2 * p / (p + 1))

    def test_deterministic_rerun(self, simple_db):
        store = init_embeddings(simple_db, k=2, seed=1)
        test = list(simple_db.iter_tuples("R"))
        r1 = evaluate(store, test)
        r2 = evaluate(store, test)
        assert r1.pooled == r2.pooled and r1.pr_points == r2.pr_points

    def test_unknown_entity_rejected(self, simple_db):
        store = init_embeddings(simple_db, k=2, seed=0)
        with pytest.raises(DataError, match="unknown"):
            evaluate(store, [("R", "ghost", "b1", 1)])

    def test_report_tsv_layout(self, simple_db):
        store = init_embeddings(simple_db, k=2, seed=0)
        report = evaluate(store, list(simple_db.iter_tuples("R")))
        lines = report.to_tsv().strip().splitlines()
        assert lines[0].split("\t") == ["dataset", "tp", "fp", "tn", "fn",
                                        "precision", "recall", "f1"]
        assert lines[-1].startswith("pooled\t")

    def test_multi_relation_test_set_reported_per_relation(self):
        db = generate_planted(SynthSpec(6, 6, 3, k_true=2, noise=0.0,
                                        density=1.0, seed=2))
        store = init_embeddings(db, k=2, seed=0)
        cells = list(db.iter_tuples("R"))[:5] + list(db.iter_tuples("C"))[:2]
        report = evaluate(store, cells)
        assert set(report.datasets) == {"R", "C"}
        total = report.pooled
        assert total.tp + total.fp + total.tn + total.fn == len(cells)


class TestImputationProtocol:
    def test_cold_start_on_side_relation_imputes_it(self):
        # withholding all category cells of some items turns the cold-start
        # split into a category-imputation benchmark: R stays intact
        db = generate_planted(SynthSpec(15, 20, 6, k_true=2, noise=0.0,
                                        density=0.9, seed=12))
        spec = SplitSpec("cold_start", "C", cold_fraction=0.1, cold_side="row", seed=4)
        train_db, val, test, cold = split_cold_start(db, spec)
        cold_ids = {e.id for e in cold}
        assert all(e.type == "item" for e in cold)
        assert all(item in cold_ids for _, item, _, _ in test)
        assert not any(item in cold_ids for _, item, _, _ in
                       list(train_db.iter_tuples("C")) + list(val))
        assert set(train_db.iter_tuples("R")) == set(db.iter_tuples("R"))


class TestSplitCells:
    """Split output is Cells over the source registry: train() and evaluate
    read its columns when the store shares that registry, and resolve names
    otherwise."""

    def db(self):
        return generate_planted(SynthSpec(30, 30, 5, k_true=2, density=0.5, seed=3))

    def split(self, mode):
        if mode == "held_out":
            return split_held_out(self.db(), SplitSpec(mode, "R", seed=0))
        return split_cold_start(self.db(), SplitSpec(mode, "R", seed=0))[:3]

    @pytest.mark.parametrize("mode", ["held_out", "cold_start"])
    def test_split_cells_skip_the_name_loop(self, mode, monkeypatch):
        train_db, val, test = self.split(mode)
        config = TrainConfig(k=4, relations=["R", "C"], gamma=0.05, epochs=5, seed=0,
                             enable_biases=True)
        by_name, by_name_log = train(train_db, config, validation=list(val))
        by_name_report = evaluate(by_name, list(test)).to_tsv()

        def refuse(*args):
            raise AssertionError("a split cell was resolved by name")

        monkeypatch.setattr(EmbeddingStore, "resolve", refuse)
        store, log = train(train_db, config, validation=val)
        assert [e.val_f1 for e in log.entries] == [e.val_f1 for e in by_name_log.entries]
        for ours, theirs in zip(store.copy_parameters(), by_name.copy_parameters()):
            assert ours.tobytes() == theirs.tobytes()
        assert evaluate(store, test).to_tsv() == by_name_report
        with pytest.raises(AssertionError, match="resolved by name"):
            evaluate(store, list(test))  # the patch is live for cells given by name

    def test_loaded_store_resolves_split_cells_by_name(self, tmp_path, monkeypatch):
        train_db, val, test = self.split("held_out")
        store, _ = train(train_db, TrainConfig(k=4, relations=["R", "C"], epochs=3, seed=0),
                         validation=val)
        save_model(store, tmp_path / "m.rfm")
        loaded = load_model(tmp_path / "m.rfm")
        resolved = []
        resolve = EmbeddingStore.resolve
        monkeypatch.setattr(EmbeddingStore, "resolve",
                            lambda self, *cell: resolved.append(cell) or resolve(self, *cell))
        assert evaluate(loaded, test).to_tsv() == evaluate(store, test).to_tsv()
        assert resolved == [cell[:3] for cell in test]

    def test_cells_of_an_undeclared_relation_are_data_error(self):
        db = self.db()
        _, _, test = split_held_out(db, SplitSpec("held_out", "R", seed=0))
        store = EmbeddingStore(db.entities, {"C": db.relation("C")},
                               np.zeros((len(db.entities), 2)))
        with pytest.raises(DataError, match="unknown relation 'R'"):
            evaluate(store, test)

    def test_columns_are_read_only(self):
        _, val, test = self.split("cold_start")
        for cells in (val, test):
            assert not cells.columns.flags.writeable
            with pytest.raises(ValueError):
                cells.columns[2, 0] = 1 - cells.columns[2, 0]

    def test_sequence_behaviour(self):
        db = self.db()
        _, val, test = split_held_out(db, SplitSpec("held_out", "R", seed=0))
        cells = list(val)
        assert val.entities is db.entities and len(val) == len(cells)
        assert val == cells and cells == val and val != list(test)
        assert val[0] == cells[0] and val[-1] == cells[-1] and val[2:5] == cells[2:5]
        assert set(val) == set(cells) and cells[3] in val
        with pytest.raises(IndexError):
            val[len(val)]


class TestConfusionCounts:
    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100),
           st.integers(0, 100))
    def test_matches_bruteforce_oracle(self, tp, fp, tn, fn):
        counts = ConfusionCounts(tp, fp, tn, fn)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert counts.precision == precision
        assert counts.recall == recall
        assert counts.f1 == f1
