"""Correctness checks on the program's outputs, against the generator's
expected ingest output, against numpy computations made here from the
exported vectors, or against properties the method must have.

Every check raises CheckFailed with a message; nothing is compared against
a stored copy of an earlier run's output.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# test_f1 must beat the all-positive predictor's F1 by this much (absolute).
F1_MARGIN = 0.03
_REL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Vectors:
    """Entity vectors as exported by ``relfactor export-vectors``, in
    registration order, parsed here."""

    def __init__(self, path: Path):
        keys, rows = [], []
        with open(path, encoding="utf-8") as f:
            for line in f:
                parts = line.rstrip("\n").split("\t")
                keys.append(parts[0])
                rows.append([float(x) for x in parts[1:]])
        self.keys = keys
        self.index = {key: n for n, key in enumerate(keys)}
        self.matrix = np.asarray(rows, dtype=np.float64)
        self.types = np.asarray([key.partition(":")[0] for key in keys])

    def rows(self, keys) -> np.ndarray:
        return self.matrix[[self.index[k] for k in keys]]


def _sigmoid(s: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-s))


def _close(a: np.ndarray, b: np.ndarray, tol: float = _REL_TOL) -> bool:
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def read_tuples(path: Path) -> list[tuple[str, str, int]]:
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            out.append((parts[1], parts[2], int(parts[3]) if len(parts) == 4 else 1))
    return out


def ingest(out_dir: Path, inputs) -> None:
    """Tuples equal the expected relations: ratings resolved to the latest
    timestamp, rare categories dropped, stopwords and digit tokens gone."""
    for rel, expected in inputs.expected.items():
        got = read_tuples(out_dir / f"{rel}.tsv")
        require(len(got) == len(set(got)), f"ingest {rel}: duplicate tuples")
        got_set = set(got)
        require(got_set == expected,
                f"ingest {rel}: {len(got_set - expected)} unexpected and "
                f"{len(expected - got_set)} missing tuples")
    cats = {c for _, c, _ in read_tuples(out_dir / "C.tsv")}
    require(not cats & set(inputs.rare_categories), "ingest C: a rare category survived")
    words = {w for rel in ("BW", "UW") for _, w, _ in read_tuples(out_dir / f"{rel}.tsv")}
    require(not words & inputs.planted_stopwords, "ingest: a planted stopword survived")
    require(not any(ch.isdigit() for w in words for ch in w), "ingest: a digit token survived")


def database(db, inputs) -> None:
    for rel, expected in inputs.expected.items():
        require(db.tuple_count(rel) == len(expected),
                f"build_database {rel}: {db.tuple_count(rel)} tuples, expected {len(expected)}")


def split(db, train_db, val, test, cold, mode: str) -> None:
    """The target relation is partitioned exactly; cold items keep no
    training or validation tuple."""
    target = {(a, b, y) for _, a, b, y in db.iter_tuples("R")}
    kept = [(a, b, y) for _, a, b, y in train_db.iter_tuples("R")]
    held = [(a, b, int(y)) for _, a, b, y in list(val) + list(test)]
    require(len(kept) + len(held) == len(target) and set(kept) | set(held) == target,
            "split: train, validation and test do not partition R")
    for rel in ("C", "A", "BW", "UW"):
        require(train_db.tuple_count(rel) == db.tuple_count(rel), f"split: {rel} not intact")
    if mode == "cold_start":
        cold_ids = {e.id for e in cold}
        require(all(b in cold_ids for _, _, b, _ in test), "split: warm item in cold test set")
        require(not any(b in cold_ids for a, b, _ in kept), "split: cold item in training")
        require(not any(b in cold_ids for _, _, b, _ in val), "split: cold item in validation")
    else:
        n_train = math.floor(0.7 * len(target) + 0.5)
        require(len(kept) == n_train, "split: held-out training share is not 70%")


def train(log, epochs: int, updates: int) -> None:
    require(len(log.entries) == epochs, "train: wrong number of epochs logged")
    require(all(math.isfinite(e.objective) for e in log.entries), "train: non-finite objective")
    require(updates > 0, "train: no updates")


def _r_probabilities(pairs, vecs: Vectors) -> np.ndarray:
    """numpy sigmoid(v_user . v_item) for (user, item) id pairs."""
    return _sigmoid(np.einsum("ij,ij->i", vecs.rows([f"user:{u}" for u, _ in pairs]),
                              vecs.rows([f"item:{i}" for _, i in pairs])))


def evaluate(report, test, vecs: Vectors) -> float:
    """Confusion counts recounted from numpy probabilities; returns the
    all-positive predictor's F1 on the same labels."""
    p = _r_probabilities([(a, b) for _, a, b, _ in test], vecs)
    y = np.asarray([int(c[3]) for c in test])
    pred = p >= 0.5
    counts = report.datasets["R"]
    mine = (int(np.sum(pred & (y == 1))), int(np.sum(pred & (y == 0))),
            int(np.sum(~pred & (y == 0))), int(np.sum(~pred & (y == 1))))
    require((counts.tp, counts.fp, counts.tn, counts.fn) == mine,
            f"evaluate: confusion {counts} differs from recount {mine}")
    pos, neg = int(np.sum(y == 1)), int(np.sum(y == 0))
    if pos and neg:
        thresholds = np.asarray([t for _, _, t in report.pr_points])
        require(bool(np.all(np.diff(thresholds) < 0)), "evaluate: PR thresholds not descending")
        require(_close(thresholds[[0, -1]], np.asarray([p.max(), p.min()])),
                "evaluate: PR thresholds differ from numpy sigmoid(v1.v2)")
        last_p, last_r, _ = report.pr_points[-1]
        require(last_r == 1.0 and abs(last_p - pos / len(y)) < 1e-12,
                "evaluate: PR curve does not end at full recall")
    tp, fp, _, fn = mine
    f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    require(abs(report.pooled.f1 - f1) < 1e-12, "evaluate: pooled F1 differs from recount")
    all_positive = 2 * pos / (2 * pos + neg)
    require(f1 >= all_positive + F1_MARGIN,
            f"evaluate: F1 {f1:.4f} does not beat all-positive {all_positive:.4f} "
            f"by {F1_MARGIN}")
    return all_positive


def same_store(a, b) -> None:
    """Bit-exact equality of two embedding stores."""
    require([e.type + ":" + e.id for e in a.entities] == [e.type + ":" + e.id for e in b.entities],
            "model: entity registry differs after save/load")
    require(a.relations == b.relations, "model: relations differ after save/load")
    require(a.vectors.shape == b.vectors.shape and np.array_equal(a.vectors, b.vectors),
            "model: vectors are not bit-exact after save/load")


def predict(out_path: Path, pairs_path: Path, vecs: Vectors) -> int:
    pairs = [line.split("\t") for line in pairs_path.read_text("utf-8").splitlines()]
    got = [line.split("\t") for line in out_path.read_text("utf-8").splitlines()]
    require(len(got) == len(pairs), "predict: wrong number of output rows")
    require(all(g[:3] == q for g, q in zip(got, pairs)), "predict: rows out of order")
    prob = np.asarray([float(g[3]) for g in got])
    label = np.asarray([int(g[4]) for g in got])
    mine = _r_probabilities([(q[1], q[2]) for q in pairs], vecs)
    require(_close(prob, mine), "predict: probabilities differ from numpy sigmoid(v1.v2)")
    require(np.array_equal(label, (prob >= 0.5).astype(int)), "predict: labels not p >= 0.5")
    return len(got)


def nearest(result, query_key: str, type_filter, n: int, vecs: Vectors) -> int:
    """Ids and cosine scores match a numpy ranking; returns candidates ranked."""
    qi = vecs.index[query_key]
    mask = np.ones(len(vecs.keys), dtype=bool)
    mask[qi] = False
    if type_filter is not None:
        mask &= vecs.types == type_filter
    cand = np.flatnonzero(mask)
    mat = vecs.matrix[cand]
    q = vecs.matrix[qi]
    scores = (mat @ q) / (np.linalg.norm(mat, axis=1) * np.linalg.norm(q))
    order = np.lexsort((cand, -scores))[:n]
    full = np.full(len(vecs.keys), np.nan)
    full[cand] = scores
    got = [(f"{e.type}:{e.id}", s) for e, s in result.neighbors]
    require(len(got) == len(order) and len({k for k, _ in got}) == len(got),
            "nn: wrong number of neighbours")
    for (key, s), t in zip(got, order):
        ki = vecs.index.get(key, qi)
        require(bool(mask[ki]), f"nn: {key} is not a candidate")
        # a different id than numpy's is allowed only inside a rounding-level tie
        require(abs(s - full[ki]) <= 1e-9 and abs(full[ki] - scores[t]) <= 1e-12,
                f"nn: neighbour {key} {s} differs from numpy ranking")
    return len(cand)


def project(coords, subset, vecs: Vectors) -> None:
    """Centred, uncorrelated columns with variances equal to the top two
    covariance eigenvalues."""
    require([f"{e.type}:{e.id}" for e, _, _ in coords] == [f"{t}:{i}" for t, i in subset],
            "project: entities out of order")
    xy = np.asarray([(x, y) for _, x, y in coords])
    x = vecs.rows([f"{t}:{i}" for t, i in subset])
    eig = np.sort(np.linalg.eigvalsh(np.cov(x.T, bias=True)))[::-1][:2]
    cov = np.cov(xy.T, bias=True)
    scale = float(eig[0])
    require(bool(np.all(np.abs(xy.mean(axis=0)) <= 1e-9 * math.sqrt(scale))),
            "project: coordinates are not centred")
    require(abs(cov[0, 1]) <= 1e-8 * scale, "project: columns are correlated")
    require(bool(np.all(np.abs(np.diag(cov) - eig) <= 1e-8 * scale)),
            "project: variances differ from eigenvalues")
