import math

import numpy as np
import pytest

from relfactor.errors import DataError
from relfactor.rng import substream
from relfactor.schema import build_database, lookup
from relfactor.synth import (SynthSpec, generate_planted, planted_manifest, _CATEGORY_MARGIN,
                             _DOT_STD, _labels)


def reference_planted(spec):
    """The Database generate_planted built when it visited every cell: the
    same draws, one (relation, id, id, label) tuple per observed cell in
    row-major order, and build_database with a census of every entity."""
    scale = math.sqrt(_DOT_STD / math.sqrt(spec.k_true))
    rng_f = substream(spec.seed, "factors")
    users = rng_f.normal(0.0, scale, size=(spec.n_users, spec.k_true))
    items = rng_f.normal(0.0, scale, size=(spec.n_items, spec.k_true))
    cats = rng_f.normal(0.0, scale, size=(spec.n_categories, spec.k_true))
    rng_flip = substream(spec.seed, "flip")
    r_labels = _labels(users @ items.T, 0.0, spec.noise, rng_flip)
    c_labels = _labels(items @ cats.T, _CATEGORY_MARGIN * _DOT_STD, spec.noise, rng_flip)
    rng_obs = substream(spec.seed, "observe")
    r_observed = rng_obs.random(r_labels.shape) < spec.density
    c_observed = rng_obs.random(c_labels.shape) < spec.c_density

    uw = len(str(spec.n_users - 1))
    iw = len(str(spec.n_items - 1))
    cw = len(str(spec.n_categories - 1))
    user_ids = [f"u{n:0{uw}d}" for n in range(spec.n_users)]
    item_ids = [f"i{n:0{iw}d}" for n in range(spec.n_items)]
    cat_ids = [f"c{n:0{cw}d}" for n in range(spec.n_categories)]
    stream = []
    for u in range(spec.n_users):
        for i in range(spec.n_items):
            if r_observed[u, i]:
                stream.append(("R", user_ids[u], item_ids[i], int(r_labels[u, i])))
    for i in range(spec.n_items):
        for c in range(spec.n_categories):
            if c_observed[i, c] and c_labels[i, c]:
                stream.append(("C", item_ids[i], cat_ids[c], 1))
    census = ([("user", uid) for uid in user_ids]
              + [("item", iid) for iid in item_ids]
              + [("category", cid) for cid in cat_ids])
    return build_database(planted_manifest(), stream, census=census)


class TestGeneratePlanted:
    def test_same_seed_identical(self):
        a = generate_planted(SynthSpec(15, 15, 4, k_true=2, density=0.5, seed=3))
        b = generate_planted(SynthSpec(15, 15, 4, k_true=2, density=0.5, seed=3))
        assert list(a.iter_tuples("R")) == list(b.iter_tuples("R"))
        assert list(a.iter_tuples("C")) == list(b.iter_tuples("C"))

    def test_noise_free_full_density_labels_reproducible(self):
        spec = SynthSpec(6, 6, 2, k_true=2, noise=0.0, density=1.0, seed=4)
        db = generate_planted(spec)
        assert db.tuple_count("R") == 36
        scale = np.sqrt(_DOT_STD / np.sqrt(spec.k_true))
        rng = substream(spec.seed, "factors")
        users = rng.normal(0.0, scale, size=(6, 2))
        items = rng.normal(0.0, scale, size=(6, 2))
        dots = users @ items.T
        for u in range(6):
            for i in range(6):
                expected = int(dots[u, i] >= 0)
                assert lookup(db, "R", f"u{u}", f"i{i}") == expected

    def test_observed_count_within_binomial_bound(self):
        db = generate_planted(SynthSpec(100, 100, 3, k_true=2, density=0.3, seed=9))
        n = 100 * 100
        mean = n * 0.3
        sigma = np.sqrt(n * 0.3 * 0.7)
        assert abs(db.tuple_count("R") - mean) <= 4 * sigma

    def test_c_relation_positives_only(self):
        db = generate_planted(SynthSpec(10, 10, 5, k_true=2, density=1.0, seed=2))
        assert db.relations["C"].positives_only
        assert all(y == 1 for *_, y in db.iter_tuples("C"))

    def test_all_entities_registered_regardless_of_tuples(self):
        db = generate_planted(SynthSpec(7, 5, 3, k_true=2, density=0.01, seed=1))
        assert len(db.entities.of_type("user")) == 7
        assert len(db.entities.of_type("item")) == 5
        assert len(db.entities.of_type("category")) == 3

    def test_marginals_move_toward_half_as_noise_grows(self):
        def positive_rate(noise):
            db = generate_planted(SynthSpec(60, 60, 3, k_true=3, noise=noise,
                                            density=1.0, seed=8))
            labels = [y for *_, y in db.iter_tuples("R")]
            return sum(labels) / len(labels)

        base = positive_rate(0.0)
        noisy = positive_rate(0.45)
        assert abs(noisy - 0.5) <= abs(base - 0.5) + 0.02

    def test_per_relation_density(self):
        db = generate_planted(SynthSpec(40, 40, 10, k_true=2, density=0.1,
                                        c_density=1.0, seed=6))
        r_rate = db.tuple_count("R") / (40 * 40)
        assert r_rate < 0.2
        # C fully observed: every true membership present
        assert db.tuple_count("C") > 0

    def test_generated_database_passes_validation(self):
        db = generate_planted(SynthSpec(12, 9, 4, k_true=3, noise=0.1,
                                        density=0.5, seed=11))
        for name in db.relations:
            for rel_name, e1, e2, y in db.iter_tuples(name):
                rel = db.relation(rel_name)
                assert db.entities.find(rel.row_type, e1) is not None
                assert db.entities.find(rel.col_type, e2) is not None
                assert y in (0, 1)

    @pytest.mark.parametrize("kwargs", [
        dict(n_users=0, n_items=5, n_categories=2),
        dict(n_users=5, n_items=5, n_categories=2, noise=0.5),
        dict(n_users=5, n_items=5, n_categories=2, density=0.0),
        dict(n_users=5, n_items=5, n_categories=2, k_true=0),
    ])
    def test_degenerate_specs_rejected(self, kwargs):
        with pytest.raises(DataError):
            SynthSpec(**kwargs)

    # Sizes numpy refuses at the first allocation, or before any: 291 TiB of
    # user factors, a dimension past int64, a k_true past the float range.
    @pytest.mark.parametrize("kwargs", [
        dict(n_users=10 ** 13, n_items=1, n_categories=1),
        dict(n_users=1, n_items=1, n_categories=1, k_true=10 ** 19),
        dict(n_users=1, n_items=1, n_categories=1, k_true=10 ** 400),
    ], ids=["users", "k_true", "k_true-past-float"])
    def test_unallocatable_sizes_are_data_errors(self, kwargs):
        with pytest.raises(DataError, match="cannot allocate a planted dataset"):
            generate_planted(SynthSpec(**kwargs))


@pytest.mark.parametrize("spec", [
    SynthSpec(1, 1, 1),
    SynthSpec(30, 30, 5, k_true=2, density=0.5, seed=3),
    SynthSpec(37, 23, 4, noise=0.2, density=0.05, c_density=0.3, seed=8),
    SynthSpec(6, 5, 3, density=1e-300, seed=2),
], ids=["1x1x1", "planted", "noisy-sparse", "empty-R"])
def test_same_database_as_the_cell_loop(spec):
    db, ref = generate_planted(spec), reference_planted(spec)
    assert db.manifest == ref.manifest
    # type, id, ordinal and global index of every entity, in registration order
    assert list(db.entities) == list(ref.entities)
    for name in ("R", "C"):
        assert db.columns(name).dtype == ref.columns(name).dtype == np.int64
        assert db.columns(name).shape == ref.columns(name).shape
        assert db.columns(name).tobytes() == ref.columns(name).tobytes()
    if spec.density == 1e-300:
        assert db.tuple_count("R") == 0
