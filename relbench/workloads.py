"""The benchmark's workloads. Each stresses different layers; the reasons
are in BENCHMARK.json and README.md."""

from __future__ import annotations

import dataclasses

from gen import Spec

ALL_RELATIONS = ("R", "C", "A", "BW", "UW")

WORKLOADS = {
    # Training at k=8 dominates; ingest and queries are small. Cold-start
    # split on items, with C declared fully_observed.
    "coldstart-k8": Spec(
        name="coldstart-k8", users=250, items=150, categories=16,
        ratings_per_user=40, reviews=300, review_tokens=20, vocabulary=300,
        k=8, epochs=8, split="cold_start", relations=ALL_RELATIONS,
        category_flag="fully_observed",
        load_samples=2, load_reps=12, pairs=15000, nn_batches=2, nn_queries=300,
        project_items=150),
    # Long reviews with Zipfian reuse: ingest and stemming dominate, then
    # the update loop at k=30 over the positives-only word relations and
    # their sampled negatives.
    "reviews-k30": Spec(
        name="reviews-k30", users=500, items=150, categories=16,
        ratings_per_user=48, reviews=900, review_tokens=45, vocabulary=800,
        k=30, epochs=2, split="held_out", relations=ALL_RELATIONS,
        category_flag="positives_only", k_true=1, gamma=0.3,
        load_samples=2, load_reps=4, pairs=6000, nn_queries=200, project_items=150),
    # About 11 300 entities, sparse relations, one epoch: model reads,
    # scoring and neighbour search dominate. Larger sizes left too few
    # rounds in a run for steady medians on a 2-core host, and fewer
    # ratings per user left test_f1 near the all-positive predictor's.
    "serve-large": Spec(
        name="serve-large", users=6000, items=5000, categories=200,
        ratings_per_user=8, reviews=400, review_tokens=15, vocabulary=300,
        k=30, epochs=1, split="held_out", relations=("R", "C", "A"),
        category_flag="positives_only", categories_per_item=1, attributes=2,
        k_true=1, gamma=0.5,
        load_samples=2, load_reps=1, predict_samples=2, pairs=10000, nn_batches=2,
        nn_queries=20, project_items=2000),
}


def toy(spec: Spec) -> Spec:
    """The same workload shrunk to run in about a second (self-test)."""
    return dataclasses.replace(
        spec, users=60, items=40, categories=6, ratings_per_user=15, reviews=60,
        review_tokens=12, vocabulary=60, epochs=6, min_word_reviews=2,
        min_category_entities=3, load_samples=1, load_reps=1, pairs=100,
        nn_queries=4, project_items=20)
