"""Deterministic planted-factor dataset generators.

Users, items, and categories get true low-dimensional Gaussian factors; the
user-item preference relation R takes the sign of the factor dot product
(flipped with the noise probability), and the item-category relation C uses
a positive margin so each item belongs to a minority of categories. Every
cell is observed independently with the density probability; R stores both
labels, C keeps positives only. Cell labels are exactly reproducible from
the planted factors when noise is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rng import substream
from .schema import Database, EntityRegistry, Manifest, Relation

# Target standard deviation of planted dot products; keeps label margins
# crisp enough that recovery is well-posed at desk scale.
_DOT_STD = 2.5
# Margin (in dot-product standard deviations) for category membership, so
# each item belongs to a minority (~40%) of categories.
_CATEGORY_MARGIN = 0.2


@dataclass
class SynthSpec:
    """Observation density is per relation: ``density`` governs the
    preference relation R, ``c_density`` the category relation C. Category
    data defaults to fully observed, mirroring how taxonomy-style side
    relations are near-complete while ratings are sparse."""

    n_users: int
    n_items: int
    n_categories: int
    k_true: int = 4
    noise: float = 0.0
    density: float = 1.0
    c_density: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.n_users, self.n_items, self.n_categories) < 1:
            raise DataError("entity counts must be >= 1")
        if self.k_true < 1:
            raise DataError("k_true must be >= 1")
        if not (0.0 <= self.noise < 0.5):
            raise DataError("noise must be in [0, 0.5)")
        if not (0.0 < self.density <= 1.0) or not (0.0 < self.c_density <= 1.0):
            raise DataError("densities must be in (0, 1]")


def planted_manifest() -> Manifest:
    return Manifest(["user", "item", "category"], {
        "R": Relation("R", "user", "item"),
        "C": Relation("C", "item", "category", positives_only=True),
    })


def _labels(dots: np.ndarray, margin: float, noise: float,
            rng: np.random.Generator) -> np.ndarray:
    base = dots >= margin
    if noise > 0.0:
        return base ^ (rng.random(dots.shape) < noise)
    return base


def generate_planted(spec: SynthSpec) -> Database:
    """Database with relations R (user x item, both labels) and C
    (item x category, positives only) over planted shared factors.

    Users, items and categories are registered in that order, each in id
    order; the cells of both relations come in row-major order."""
    manifest = planted_manifest()
    try:
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

        # global indices: items follow the users, categories the items
        u, i = np.nonzero(r_observed)
        r_cells = np.array([u, spec.n_users + i, r_labels[u, i]], dtype=np.int64)
        i, c = np.nonzero(c_observed & c_labels)
        c_cells = np.array([spec.n_users + i, spec.n_users + spec.n_items + c, np.ones_like(c)],
                           dtype=np.int64)

        entities = EntityRegistry(manifest.entity_types)
        for etype, prefix, count in zip(manifest.entity_types, "uic",
                                        (spec.n_users, spec.n_items, spec.n_categories)):
            width = len(str(count - 1))
            entities.register_all([etype] * count, [f"{prefix}{n:0{width}d}" for n in range(count)])
    # k_true too large for a float, or factors, cells or entities that cannot be
    # shaped or allocated
    except (OverflowError, ValueError, MemoryError):
        raise DataError(f"cannot allocate a planted dataset of {spec.n_users} users, "
                        f"{spec.n_items} items and {spec.n_categories} categories "
                        f"at k_true={spec.k_true}") from None
    return Database(manifest, entities, {"R": r_cells, "C": c_cells})
