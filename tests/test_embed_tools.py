import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relfactor.embed_tools import nearest_neighbors, project_2d
from relfactor.errors import DataError
from relfactor.model import EmbeddingStore
from relfactor.schema import build_database, parse_manifest
from relfactor.train import sgd_step


def make_store(vectors_by_entity, manifest_text=None):
    """vectors_by_entity: {(type, id): vector}; entities registered in order."""
    if manifest_text is None:
        manifest_text = "type word\ntype category\nrelation CW category word positives_only\n"
    manifest = parse_manifest(manifest_text)
    census = [(t, i) for (t, i) in vectors_by_entity]
    db = build_database(manifest, [], census=census)
    k = len(next(iter(vectors_by_entity.values())))
    vectors = np.zeros((len(db.entities), k))
    for (t, i), vec in vectors_by_entity.items():
        vectors[db.entities.get(t, i).index] = vec
    return EmbeddingStore(db.entities, db.relations, vectors)


class TestNearestNeighbors:
    def test_identical_vectors_cosine_one_query_excluded(self):
        store = make_store({("word", "a"): [1.0, 2.0], ("word", "b"): [1.0, 2.0]})
        result = nearest_neighbors(store, "word", "a", n=5, metric="cosine")
        assert [e.id for e, _ in result.neighbors] == ["b"]
        assert result.neighbors[0][1] == pytest.approx(1.0)

    def test_orthogonal_vectors_cosine_zero(self):
        store = make_store({("word", "a"): [1.0, 0.0], ("word", "b"): [0.0, 3.0]})
        result = nearest_neighbors(store, "word", "a", n=1, metric="cosine")
        assert result.neighbors[0][1] == pytest.approx(0.0)

    def test_dot_metric_ranking(self):
        store = make_store({("word", "q"): [1.0, 0.0],
                            ("word", "big"): [2.0, 0.0],
                            ("word", "orth"): [0.0, 1.0]})
        result = nearest_neighbors(store, "word", "q", n=2, metric="dot")
        assert [e.id for e, _ in result.neighbors] == ["big", "orth"]
        assert [s for _, s in result.neighbors] == [pytest.approx(2.0), pytest.approx(0.0)]

    def test_ties_broken_by_registration_order(self):
        store = make_store({("word", "q"): [1.0, 0.0],
                            ("word", "t1"): [1.0, 0.0],
                            ("word", "t2"): [1.0, 0.0]})
        result = nearest_neighbors(store, "word", "q", n=2, metric="dot")
        assert [e.id for e, _ in result.neighbors] == ["t1", "t2"]

    def test_type_filter_restricts_candidates(self):
        store = make_store({("word", "q"): [1.0, 0.0],
                            ("word", "w"): [0.5, 0.0],
                            ("category", "c"): [9.0, 0.0]})
        result = nearest_neighbors(store, "word", "q", n=5, metric="dot",
                                   type_filter="word")
        assert [e.id for e, _ in result.neighbors] == ["w"]

    def test_filter_invariant_to_other_type_entities(self):
        base = {("word", "q"): [1.0, 0.0], ("word", "w"): [0.5, 0.5]}
        small = nearest_neighbors(make_store(base), "word", "q", n=3,
                                  metric="cosine", type_filter="word")
        extended = dict(base)
        extended.update({("category", f"c{i}"): [float(i), 1.0] for i in range(4)})
        big = nearest_neighbors(make_store(extended), "word", "q", n=3,
                                metric="cosine", type_filter="word")
        assert [(e.id, pytest.approx(s)) for e, s in small.neighbors] == \
            [(e.id, s) for e, s in big.neighbors]

    def test_n_beyond_candidates_returns_all(self):
        store = make_store({("word", "q"): [1.0, 0.0], ("word", "w"): [0.5, 0.0]})
        result = nearest_neighbors(store, "word", "q", n=100, metric="dot")
        assert len(result.neighbors) == 1

    def test_zero_vector_query_cosine_rejected(self):
        store = make_store({("word", "q"): [0.0, 0.0], ("word", "w"): [1.0, 0.0]})
        with pytest.raises(DataError, match="zero-vector"):
            nearest_neighbors(store, "word", "q", n=1, metric="cosine")

    def test_zero_vector_candidate_scores_zero_under_cosine(self):
        store = make_store({("word", "q"): [1.0, 0.0], ("word", "z"): [0.0, 0.0]})
        result = nearest_neighbors(store, "word", "q", n=1, metric="cosine")
        assert result.neighbors[0][1] == 0.0

    def test_unknown_entity_rejected(self):
        store = make_store({("word", "q"): [1.0, 0.0]})
        with pytest.raises(DataError, match="unknown entity"):
            nearest_neighbors(store, "word", "ghost", n=1)

    def test_cosine_bounds(self):
        rng = np.random.default_rng(3)
        vectors = {("word", f"w{i}"): rng.normal(size=4) for i in range(20)}
        store = make_store(vectors)
        result = nearest_neighbors(store, "word", "w0", n=19, metric="cosine")
        assert all(-1.0 - 1e-12 <= s <= 1.0 + 1e-12 for _, s in result.neighbors)


def reference_neighbors(store, entity_type, entity_id, n, metric, type_filter):
    """Ranking by one full lexsort over every candidate, the algorithm that
    nearest_neighbors' partition top-n must reproduce exactly."""
    if n < 1:
        raise DataError("n must be >= 1")
    if metric not in ("dot", "cosine"):
        raise DataError(f"unknown metric {metric!r}")
    query = store.entities.get(entity_type, entity_id)
    q = store.vectors[query.index]
    with np.errstate(all="ignore"):
        if metric == "cosine":
            qn = float(np.linalg.norm(q))
            if qn == 0.0:
                raise DataError(f"zero-vector query {entity_type}:{entity_id} under cosine metric")
        candidates = (store.entities.of_type(type_filter) if type_filter is not None
                      else list(store.entities))
        candidates = [e for e in candidates if e.index != query.index]
        if not candidates:
            return []
        idx = np.array([e.index for e in candidates], dtype=np.int64)
        scores = (store.vectors @ q)[idx]
        if metric == "cosine":
            norms = np.linalg.norm(store.vectors, axis=1)[idx]
            scores = np.where(norms > 0.0, scores / (norms * qn), 0.0)
    top = np.lexsort((idx, -scores))[:n]
    return [(candidates[t], float(scores[t])) for t in top]


# few distinct values, so that vectors repeat and scores tie; near 1e200 a
# dot product overflows to inf, and inf - inf gives NaN
_COORDS = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e200, -1e200])
           | st.floats(-1e200, 1e200))


@st.composite
def neighbor_cases(draw):
    k = draw(st.sampled_from([1, 2, 3, 30]))
    # seeded normal draws round like trained vectors do, which the sampled
    # coordinates, mostly exact in binary, seldom exercise
    vector = (st.lists(_COORDS, min_size=k, max_size=k)
              | st.integers(0, 2**32 - 1).map(
                  lambda seed: np.random.default_rng(seed).normal(size=k).tolist()))
    pool = draw(st.lists(vector, min_size=1, max_size=4))
    types = draw(st.lists(st.sampled_from(["word", "category"]), min_size=1, max_size=12))
    vectors = {(t, f"e{i}"): draw(st.sampled_from(pool + [[0.0] * k]))
               for i, t in enumerate(types)}
    query = draw(st.sampled_from(sorted(vectors)))
    return (vectors, query, draw(st.integers(1, len(types) + 2)),
            draw(st.sampled_from(["dot", "cosine"])),
            draw(st.sampled_from([None, "word", "category", "tag"])))


def _bits(ranking):
    # float.hex is exact, tells -0.0 from 0.0 and spells every NaN "nan"
    return [(e, s.hex()) for e, s in ranking]


class TestNeighborRankingMatchesFullSort:
    @settings(max_examples=300, deadline=None)
    @given(neighbor_cases())
    def test_same_entities_order_and_score_bits(self, case):
        vectors, (qtype, qid), n, metric, type_filter = case
        store = make_store(vectors, "type word\ntype category\ntype tag\n"
                                    "relation CW category word positives_only\n")
        try:
            expected = _bits(reference_neighbors(store, qtype, qid, n, metric, type_filter))
        except DataError as exc:
            with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
                nearest_neighbors(store, qtype, qid, n, metric, type_filter)
            return
        result = nearest_neighbors(store, qtype, qid, n, metric, type_filter)
        assert _bits(result.neighbors) == expected


def trained_like_store(seed, n_entities=12, k=30):
    """Seeded normal vectors, which round like trained ones, over as many
    words as categories in a seeded order."""
    rng = np.random.default_rng(seed)
    types = rng.permutation(["word", "category"] * (n_entities // 2))
    return make_store({(str(t), f"e{i}"): rng.normal(size=k) for i, t in enumerate(types)})


class TestCachedNorms:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["dot", "cosine"]))
    def test_score_bits_do_not_depend_on_the_type_filter(self, seed, metric):
        store = trained_like_store(seed)
        query = store.entities.at(0)
        everyone = nearest_neighbors(store, query.type, query.id, len(store.entities), metric)
        unfiltered = {e: s.hex() for e, s in everyone.neighbors}
        for etype in ("word", "category"):
            result = nearest_neighbors(store, query.type, query.id, len(store.entities),
                                       metric, type_filter=etype)
            assert sorted(e.index for e, _ in result.neighbors) == \
                [e.index for e in store.entities.of_type(etype) if e != query]
            assert [s.hex() for _, s in result.neighbors] == \
                [unfiltered[e] for e, _ in result.neighbors]

    def test_query_after_sgd_step_ranks_as_a_fresh_store(self):
        store = trained_like_store(3)
        query = store.entities.at(0)
        nearest_neighbors(store, query.type, query.id, 5)  # caches the norms
        word, category = store.entities.of_type("word")[0], store.entities.of_type("category")[0]
        sgd_step(store, "CW", category.id, word.id, 1, gamma=5.0, lam=0.0)
        assert store.vectors.flags.writeable
        fresh = EmbeddingStore(store.entities, store.relations, store.vectors.copy())
        for e in (query, word, category):
            assert _bits(nearest_neighbors(store, e.type, e.id, 11).neighbors) == \
                _bits(nearest_neighbors(fresh, e.type, e.id, 11).neighbors)

    def test_write_in_place_after_a_cosine_query_raises(self):
        store = trained_like_store(4)
        query = store.entities.at(0)
        nearest_neighbors(store, query.type, query.id, 3, metric="cosine")
        with pytest.raises(ValueError, match="read-only"):
            store.vectors[1, 0] = 7.0
        # a new array gets norms of its own and is writable until its first
        # query, which gives the old one back its writeable flag
        old = store.vectors
        store.vectors = replaced = old * 2.0
        replaced[1] = -replaced[1]
        result = nearest_neighbors(store, query.type, query.id, 11, metric="cosine")
        fresh = EmbeddingStore(store.entities, store.relations, replaced.copy())
        assert _bits(result.neighbors) == \
            _bits(nearest_neighbors(fresh, query.type, query.id, 11, metric="cosine").neighbors)
        assert old.flags.writeable and not replaced.flags.writeable

    def test_dot_queries_never_build_the_norms(self):
        store = trained_like_store(5)
        for e in store.entities:
            nearest_neighbors(store, e.type, e.id, 3, metric="dot")
        assert store.vectors.flags.writeable
        store.vectors[0, 0] = 1.0


class TestProject2d:
    def test_full_rank_2d_is_rigid(self):
        rng = np.random.default_rng(1)
        vectors = {("word", f"w{i}"): rng.normal(size=2) for i in range(8)}
        store = make_store(vectors)
        subset = [("word", f"w{i}") for i in range(8)]
        coords = project_2d(store, subset)
        raw = np.array([vectors[key] for key in subset])
        flat = np.array([[x, y] for _, x, y in coords])
        for i in range(8):
            for j in range(i + 1, 8):
                orig = np.linalg.norm(raw[i] - raw[j])
                proj = np.linalg.norm(flat[i] - flat[j])
                assert abs(orig - proj) <= 1e-10

    def test_collinear_input_second_coordinate_zero(self):
        direction = np.array([1.0, 2.0, -0.5])
        vectors = {("word", f"w{i}"): (i * direction) for i in range(5)}
        store = make_store(vectors)
        coords = project_2d(store, [("word", f"w{i}") for i in range(5)])
        assert all(abs(y) <= 1e-10 for _, _, y in coords)

    def test_duplicated_points_share_coordinates(self):
        rng = np.random.default_rng(2)
        base = {f"w{i}": rng.normal(size=3) for i in range(4)}
        vectors = {("word", k): v for k, v in base.items()}
        vectors.update({("word", f"{k}dup"): v for k, v in base.items()})
        store = make_store(vectors)
        subset = [("word", k) for k in base] + [("word", f"{k}dup") for k in base]
        coords = {e.id: (x, y) for e, x, y in project_2d(store, subset)}
        for k in base:
            assert coords[k] == pytest.approx(coords[f"{k}dup"])

    def test_zero_variance_rejected(self):
        vectors = {("word", f"w{i}"): [1.0, 1.0] for i in range(4)}
        store = make_store(vectors)
        with pytest.raises(DataError, match="zero variance"):
            project_2d(store, [("word", f"w{i}") for i in range(4)])

    def test_too_few_entities_rejected(self):
        store = make_store({("word", "a"): [1.0, 0.0], ("word", "b"): [0.0, 1.0]})
        with pytest.raises(DataError, match="at least 3"):
            project_2d(store, [("word", "a"), ("word", "b")])

    def test_translation_invariant(self):
        rng = np.random.default_rng(4)
        pts = [rng.normal(size=3) for _ in range(6)]
        subset = [("word", f"w{i}") for i in range(6)]
        a = project_2d(make_store({("word", f"w{i}"): p for i, p in enumerate(pts)}), subset)
        shifted = [p + np.array([5.0, -3.0, 2.0]) for p in pts]
        b = project_2d(make_store({("word", f"w{i}"): p for i, p in enumerate(shifted)}), subset)
        for (_, xa, ya), (_, xb, yb) in zip(a, b):
            assert xa == pytest.approx(xb, abs=1e-9)
            assert ya == pytest.approx(yb, abs=1e-9)

    def test_orthogonal_transform_equivariant_up_to_sign(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(6, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        subset = [("word", f"w{i}") for i in range(6)]
        a = project_2d(make_store({("word", f"w{i}"): pts[i] for i in range(6)}), subset)
        b = project_2d(make_store({("word", f"w{i}"): pts[i] @ q.T for i in range(6)}), subset)
        ax = np.array([[x, y] for _, x, y in a])
        bx = np.array([[x, y] for _, x, y in b])
        for col in range(2):
            assert (np.allclose(ax[:, col], bx[:, col], atol=1e-9)
                    or np.allclose(ax[:, col], -bx[:, col], atol=1e-9))
