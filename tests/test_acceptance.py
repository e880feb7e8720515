"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete; the expensive collective/cold-start experiment is
shared by the two criteria that consume it.
"""

import math
import time

import numpy as np
import pytest

import relfactor as rf
from relfactor.model import sigmoid
from relfactor.porter import porter_stem
from relfactor.schema import build_database, parse_manifest

from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"


CRITERION_LINES: list[str] = []


def report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {num:2d}] {status} - {description}{suffix}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, f"criterion {num} failed: {description}{suffix}"


# --- 1. gradient correctness ---------------------------------------------------

def test_criterion_01_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    manifest = parse_manifest("type a\ntype b\nrelation R a b\n")
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        v1 = rng.normal(scale=1.0, size=k)
        v2 = rng.normal(scale=1.0, size=k)
        y = int(rng.integers(0, 2))
        lam = float(rng.choice([0.0, 0.001, 0.01, 0.1]))
        gamma = 1e-7

        def loss(a, b):
            s = float(np.dot(a, b))
            ll = y * math.log(sigmoid(s)) + (1 - y) * math.log(sigmoid(-s))
            return ll - 0.5 * lam * (float(np.dot(a, a)) + float(np.dot(b, b)))

        db = build_database(manifest, [("R", "x", "z", y)])
        vectors = np.vstack([v1, v2])
        store = rf.EmbeddingStore(db.entities, db.relations, vectors.copy())
        rf.sgd_step(store, "R", "x", "z", y, gamma=gamma, lam=lam)
        update = np.concatenate([store.vectors[0] - v1, store.vectors[1] - v2]) / gamma

        eps = 1e-6
        grad = np.empty(2 * k)
        for d in range(k):
            da = np.zeros(k)
            da[d] = eps
            grad[d] = (loss(v1 + da, v2) - loss(v1 - da, v2)) / (2 * eps)
            grad[k + d] = (loss(v1, v2 + da) - loss(v1, v2 - da)) / (2 * eps)
        rel_err = np.linalg.norm(update - grad) / max(np.linalg.norm(grad), 1e-12)
        worst = max(worst, rel_err)
    elapsed = time.perf_counter() - t0
    report(1, "update direction matches central finite differences",
           worst < 1e-4 and elapsed < 5.0,
           f"worst rel err {worst:.2e}, {elapsed:.2f}s")


# --- 2. oracle recovery --------------------------------------------------------

def test_criterion_02_planted_6x6_recovery():
    t0 = time.perf_counter()
    db = rf.generate_planted(rf.SynthSpec(6, 6, 2, k_true=2, noise=0.0,
                                          density=1.0, seed=4))
    store, log = rf.train(db, rf.TrainConfig(k=2, relations=["R"], lam=0.0,
                                             gamma=0.05, epochs=500, seed=4))
    cells = list(db.iter_tuples("R"))
    f1 = rf.evaluate(store, cells, threshold=0.5).pooled.f1
    nll = -rf.log_likelihood(store, db, ["R"], 0.0) / len(cells)
    objs = [e.objective for e in log.entries]
    improved = sum(b > a for a, b in zip(objs, objs[1:])) / (len(objs) - 1)
    elapsed = time.perf_counter() - t0
    report(2, "noise-free 6x6 planted matrix is reconstructed",
           f1 == 1.0 and nll < 0.25 and improved >= 0.9 and elapsed < 10.0,
           f"F1 {f1:.3f}, NLL {nll:.4f}, improving epochs {improved:.0%}, {elapsed:.1f}s")


# --- 3 & 4. collective gain and cold-start recovery ----------------------------

TRAIN_K = 8
TRAIN_EPOCHS = 60
TRAIN_GAMMA = 0.05
TRAIN_LAM = 0.001
N_SEEDS = 10


@pytest.fixture(scope="module")
def collective_runs():
    t0 = time.perf_counter()
    rows = []
    for seed in range(N_SEEDS):
        db = rf.generate_planted(rf.SynthSpec(200, 200, 20, k_true=4, noise=0.05,
                                              density=0.2, seed=1000 + seed))
        row = {}
        tdb, val, test = rf.split_held_out(
            db, rf.SplitSpec("held_out", "R", train_fraction=0.70, seed=seed))
        for name, rels in (("ho_R", ["R"]), ("ho_RC", ["R", "C"])):
            cfg = rf.TrainConfig(k=TRAIN_K, relations=rels, lam=TRAIN_LAM,
                                 gamma=TRAIN_GAMMA, epochs=TRAIN_EPOCHS, seed=seed)
            store, _ = rf.train(tdb, cfg, validation=val)
            row[name] = rf.evaluate(store, test).pooled.f1
        tdb, val, test, _ = rf.split_cold_start(
            db, rf.SplitSpec("cold_start", "R", cold_fraction=0.10,
                             cold_side="col", seed=seed))
        # analytic F1 of an uninformative predictor: prediction independent of
        # the label with hit rate q gives F1 = 2pq/(p+q); sign(dot) with
        # random-initialized cold vectors has q = 1/2
        p = sum(y for *_, y in test) / len(test)
        row["straw"] = 2 * p * 0.5 / (p + 0.5)
        for name, rels in (("cs_R", ["R"]), ("cs_RC", ["R", "C"])):
            cfg = rf.TrainConfig(k=TRAIN_K, relations=rels, lam=TRAIN_LAM,
                                 gamma=TRAIN_GAMMA, epochs=TRAIN_EPOCHS, seed=seed)
            store, _ = rf.train(tdb, cfg, validation=val)
            row[name] = rf.evaluate(store, test).pooled.f1
        rows.append(row)
    return rows, time.perf_counter() - t0


def test_criterion_03_collective_gain(collective_runs):
    rows, elapsed = collective_runs
    gain = float(np.mean([r["ho_RC"] - r["ho_R"] for r in rows]))
    report(3, "joint factorization beats ratings-only on held-out cells",
           gain >= 0.02 and elapsed < 300.0,
           f"mean gain {gain:+.4f} over {N_SEEDS} seeds, {elapsed:.0f}s")


def test_criterion_04_cold_start_recovery(collective_runs):
    rows, elapsed = collective_runs
    straw = float(np.mean([r["straw"] for r in rows]))
    r_only = float(np.mean([r["cs_R"] for r in rows]))
    r_c = float(np.mean([r["cs_RC"] for r in rows]))
    ok = abs(r_only - straw) <= 0.03 and (r_c - straw) >= 0.15 and elapsed < 300.0
    report(4, "cold items recover through the category relation",
           ok, f"straw {straw:.4f}, R-only {r_only:.4f}, R+C {r_c:.4f}")


# --- 5. negative-sampling parity ------------------------------------------------

def test_criterion_05_negative_sampling_parity():
    manifest = parse_manifest(
        "type user\ntype item\ntype word\n"
        "relation R user item\n"
        "relation IW item word positives_only\n"
        "relation UW user word positives_only\n")
    rng = np.random.default_rng(77)
    stream = [("R", f"u{i}", f"i{i % 7}", int(rng.integers(0, 2))) for i in range(40)]
    stream += [("IW", f"i{i % 7}", f"w{j}", 1) for i in range(7) for j in range(i + 1)]
    stream += [("UW", f"u{i}", f"w{i % 9}", 1) for i in range(23)]
    db = build_database(manifest, stream)
    ok = True
    details = []
    for neg_ratio in (1.0, 0.5, 2.0):
        cfg = rf.TrainConfig(k=3, relations=["R", "IW", "UW"], epochs=5, seed=3,
                             neg_ratio=neg_ratio)
        _, log = rf.train(db, cfg)
        for rel in ("IW", "UW"):
            positives = int(np.count_nonzero(db.columns(rel)[2] == 1))
            expected = int(round(neg_ratio * positives))
            counts = [e.negatives_sampled[rel] for e in log.entries]
            if counts != [expected] * 5:
                ok = False
            details.append(f"{rel}@{neg_ratio}:{counts[0]}")
    report(5, "per-epoch negative sample counts hold parity with positives",
           ok, " ".join(details))


# --- 6. metric correctness ------------------------------------------------------

def test_criterion_06_metric_correctness():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        preds = rng.integers(0, 2, size=n).tolist()
        labels = rng.integers(0, 2, size=n).tolist()
        counts = rf.f1_report(preds, labels).pooled
        tp = sum(1 for q, y in zip(preds, labels) if q == 1 and y == 1)
        fp = sum(1 for q, y in zip(preds, labels) if q == 1 and y == 0)
        tn = sum(1 for q, y in zip(preds, labels) if q == 0 and y == 0)
        fn = sum(1 for q, y in zip(preds, labels) if q == 0 and y == 1)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        if (counts.tp, counts.fp, counts.tn, counts.fn) != (tp, fp, tn, fn):
            ok = False
        if counts.precision != precision or counts.recall != recall or counts.f1 != f1:
            ok = False
    # micro-F1 of n copies equals the single-dataset F1 exactly
    preds = rng.integers(0, 2, size=37).tolist()
    labels = rng.integers(0, 2, size=37).tolist()
    single = rf.f1_report(preds, labels).pooled.f1
    for copies in (2, 3, 7):
        reports = [rf.f1_report(preds, labels, name=f"d{i}") for i in range(copies)]
        if rf.micro_f1(reports).pooled.f1 != single:
            ok = False
    report(6, "confusion counts and micro pooling match the brute-force oracle", ok)


# --- 7. determinism and persistence ---------------------------------------------

def test_criterion_07_determinism_and_persistence(tmp_path):
    ok = True
    details = []
    for k in (2, 30):
        db = rf.generate_planted(rf.SynthSpec(15, 15, 4, k_true=2, noise=0.05,
                                              density=0.7, seed=21))
        cfg = rf.TrainConfig(k=k, relations=["R", "C"], gamma=0.05, epochs=5, seed=13)
        s1, _ = rf.train(db, cfg)
        s2, _ = rf.train(db, cfg)
        bit_identical = np.array_equal(s1.vectors, s2.vectors)
        p1 = tmp_path / f"m{k}a.rfm"
        p2 = tmp_path / f"m{k}b.rfm"
        rf.save_model(s1, p1)
        rf.save_model(s2, p2)
        same_bytes = p1.read_bytes() == p2.read_bytes()
        loaded = rf.load_model(p1)
        roundtrip = np.array_equal(loaded.vectors, s1.vectors)
        ok = ok and bit_identical and same_bytes and roundtrip
        details.append(f"k={k}: train={bit_identical} file={same_bytes} load={roundtrip}")
    report(7, "seeded training and the model file are bit-exact", ok, "; ".join(details))


# --- 8. regularization monotonicity ----------------------------------------------

def test_criterion_08_regularization_monotonicity():
    db = rf.generate_planted(rf.SynthSpec(30, 30, 5, k_true=2, noise=0.05,
                                          density=0.5, seed=3))
    norms = []
    for lam in (0.001, 0.01, 0.1, 1.0):
        store, _ = rf.train(db, rf.TrainConfig(k=4, relations=["R", "C"], lam=lam,
                                               gamma=0.05, epochs=20, seed=7))
        norms.append(store.squared_norm())
    ok = all(a > b for a, b in zip(norms, norms[1:]))
    report(8, "final parameter norm strictly decreases with lambda",
           ok, " > ".join(f"{n:.4f}" for n in norms))


# --- 9. preprocessing conformance -------------------------------------------------

def test_criterion_09_preprocessing_conformance():
    binarize_ok = [rf.binarize_rating(s) for s in (1, 2, 3, 4, 5)] == [0, 0, 0, 1, 1]

    vocab = [line.split("\t") for line in
             (DATA_DIR / "porter_vocabulary.tsv").read_text().splitlines()]
    mismatches = [(w, porter_stem(w), want) for w, want in vocab if porter_stem(w) != want]
    porter_ok = not mismatches

    rng = np.random.default_rng(5)
    filters_ok = True
    for _ in range(20):
        reviews = [rf.RawReview(f"u{rng.integers(6)}", f"i{rng.integers(6)}",
                                " ".join(rng.choice(["taco", "soup", "good", "bad", "fine"],
                                                    size=rng.integers(1, 8))))
                   for _ in range(rng.integers(1, 25))]
        pairs_by_threshold = []
        for threshold in range(1, 6):
            cfg = rf.PreprocessConfig(min_word_reviews=threshold, min_category_entities=1)
            pairs_by_threshold.append(set(rf.build_word_relations(reviews, cfg)[0]))
        if not all(b <= a for a, b in zip(pairs_by_threshold, pairs_by_threshold[1:])):
            filters_ok = False
        cats = [(f"i{rng.integers(8)}", f"c{rng.integers(4)}")
                for _ in range(rng.integers(1, 30))]
        kept_by_threshold = []
        for threshold in range(1, 6):
            cfg = rf.PreprocessConfig(min_word_reviews=1, min_category_entities=threshold)
            kept_by_threshold.append(set(rf.filter_categories(cats, cfg)))
        if not all(b <= a for a, b in zip(kept_by_threshold, kept_by_threshold[1:])):
            filters_ok = False

    report(9, "rating binarization, stemming, and frequency filters conform",
           binarize_ok and porter_ok and filters_ok,
           f"{len(vocab)} vocabulary pairs, {len(mismatches)} mismatches")


# --- 10. PCA projection -----------------------------------------------------------

def test_criterion_10_pca_projection():
    manifest = parse_manifest("type w\ntype c\nrelation X c w positives_only\n")

    direction = np.array([0.3, -1.2, 0.8, 0.1])
    census = [("w", f"e{i}") for i in range(6)]
    db = build_database(manifest, [], census=census)
    vectors = np.vstack([i * direction for i in range(6)])
    store = rf.EmbeddingStore(db.entities, db.relations, vectors)
    coords = rf.project_2d(store, [("w", f"e{i}") for i in range(6)])
    rank1_ok = all(abs(y) <= 1e-10 for _, _, y in coords)

    rng = np.random.default_rng(8)
    db2 = build_database(manifest, [], census=census)
    pts = rng.normal(size=(6, 2))
    store2 = rf.EmbeddingStore(db2.entities, db2.relations, pts)
    coords2 = rf.project_2d(store2, [("w", f"e{i}") for i in range(6)])
    flat = np.array([[x, y] for _, x, y in coords2])
    distances_ok = True
    for i in range(6):
        for j in range(i + 1, 6):
            orig = np.linalg.norm(pts[i] - pts[j])
            proj = np.linalg.norm(flat[i] - flat[j])
            if abs(orig - proj) > 1e-10:
                distances_ok = False
    report(10, "principal-component projection is exact",
           rank1_ok and distances_ok)
