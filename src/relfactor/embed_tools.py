"""Similarity queries and 2-D projection over the shared embedding space.

All entity types live in one k-dimensional space, so neighbors can be ranked
across types (e.g. the words closest to a category). The 2-D export projects
onto the top two principal components with a deterministic sign convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError
from .model import EmbeddingStore
from .schema import Entity


@dataclass
class NeighborResult:
    query: Entity
    neighbors: list[tuple[Entity, float]]  # sorted descending by score
    metric: str


def nearest_neighbors(store: EmbeddingStore, entity_type: str, entity_id: str,
                      n: int, metric: str = "cosine",
                      type_filter: Optional[str] = None) -> NeighborResult:
    """Top-n entities by dot or cosine similarity to the query, query
    excluded, ties broken by registration order. A zero-norm candidate
    scores 0 under cosine."""
    if n < 1:
        raise DataError("n must be >= 1")
    if metric not in ("dot", "cosine"):
        raise DataError(f"unknown metric {metric!r}")
    query = store.entities.get(entity_type, entity_id)
    q = store.vectors[query.index]
    # coordinates near the float limit give inf or NaN scores, which rank
    # like any other (NaN last), so overflow is not warned about
    with np.errstate(all="ignore"):
        if metric == "cosine":
            qn = float(np.linalg.norm(q))
            if qn == 0.0:
                raise DataError(f"zero-vector query {entity_type}:{entity_id} under cosine metric")
        idx = (store.entities.indices(type_filter) if type_filter is not None
               else np.arange(len(store.entities)))
        idx = idx[idx != query.index]
        # every row's product, so a pair's score bits do not depend on the candidates
        scores = (store.vectors @ q)[idx]
        if metric == "cosine":
            norms = store.row_norms()[idx]
            scores = np.where(norms > 0.0, scores / (norms * qn), 0.0)
    # rank only the candidates that can reach the top n: everything not
    # strictly below the n-th best, which keeps boundary ties and NaN
    neg = -scores
    keep = np.arange(len(neg))
    if len(neg) > n:
        keep = np.flatnonzero(~(neg > np.partition(neg, n - 1)[n - 1]))
    top = keep[np.lexsort((idx[keep], neg[keep]))[:n]]
    return NeighborResult(query, [(store.entities.at(i), s) for i, s in
                                  zip(idx[top].tolist(), scores[top].tolist())], metric)


def project_2d(store: EmbeddingStore,
               entity_subset: list[tuple[str, str]]) -> list[tuple[Entity, float, float]]:
    """Mean-centered coordinates of the subset along its top two principal
    components. Sign convention: each component's largest-magnitude
    coordinate is positive."""
    if len(entity_subset) < 3:
        raise DataError("projection needs at least 3 entities")
    if store.k < 2:
        raise DataError("projection needs embedding dimension k >= 2")
    ents = [store.entities.get(t, i) for t, i in entity_subset]
    x = store.vectors[[e.index for e in ents]]
    centered = x - x.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if svals[0] <= 1e-12 * max(1.0, float(np.abs(x).max())):
        raise DataError("zero variance: all subset vectors are identical")
    components = vt[:2].copy()
    for c in range(2):
        peak = int(np.argmax(np.abs(components[c])))
        if components[c, peak] < 0:
            components[c] = -components[c]
    coords = centered @ components.T
    return [(e, float(coords[t, 0]), float(coords[t, 1])) for t, e in enumerate(ents)]
