"""Raw ingest inputs made from planted factors, with their expected ingest
output computed here, independently of the program.

Uses numpy and the standard library only and imports nothing from the
program under test. Review words come from the Porter reference vocabulary
shipped with the tests (surface word -> stem), so every expected stem is
known without running a stemmer; the stopword list shipped with the package
is read as plain data so that planted stopwords can be checked to vanish.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VOCABULARY = Path("tests/data/porter_vocabulary.tsv")
STOPWORDS = Path("src/relfactor/data/stopwords_en.txt")

ATTRIBUTES = {
    "Parking": ["Street", "Garage", "Lot", "Valet", "None"],
    "Ambience": ["Casual", "Romantic", "Trendy", "Classy", "Divey", "Hipster", "Touristy"],
    "Price": ["Low", "Mid", "High", "Luxury"],
    "Wifi": ["Free", "Paid", "No"],
    "Noise": ["Quiet", "Average", "Loud"],
}
# Raw tokens holding digits; ingest must drop each of them whole.
_NUMBER_FORMS = ["{}", "{}th", "x{}", "{}pm"]
# Ambience is multi-valued: each item carries its two best-matching values.
MULTI_VALUED = {"Ambience": 2}

LOGIT_STD = 8.0  # spread of the planted rating logits
AFFINITY_NOISE = 0.3  # noise on item-category and item-attribute affinities
RARE_CATEGORIES = 3
CONFLICT_SHARE = 0.15  # share of rated cells that are re-rated
ZIPF = 1.1
STOPWORD_SHARE = 0.25
DIGIT_SHARE = 0.04


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload's raw inputs and of its training round."""

    name: str
    users: int
    items: int
    categories: int
    ratings_per_user: float
    reviews: int
    review_tokens: int
    vocabulary: int
    k: int
    epochs: int
    split: str  # "cold_start" | "held_out"
    relations: tuple[str, ...]
    category_flag: str  # manifest flag of C: "fully_observed" | "positives_only"
    gamma: float = 0.15
    k_true: int = 2
    categories_per_item: int = 2
    attributes: int = len(ATTRIBUTES)  # attribute names used, in ATTRIBUTES order
    min_word_reviews: int = 5
    min_category_entities: int = 5
    # serving side of a round
    load_samples: int = 2
    load_reps: int = 1
    predict_samples: int = 1
    pairs: int = 2000
    nn_batches: int = 1
    nn_queries: int = 20
    project_items: int = 500


@dataclass
class Inputs:
    """Paths of the raw TSVs plus the expected ingest output."""

    schema: Path
    ratings: Path
    reviews: Path
    categories: Path
    attributes: Path
    pairs: Path
    expected: dict[str, set[tuple]]  # relation -> {(e1, e2, label)}
    raw_tokens: int
    token_counts: dict[str, int]  # review text -> raw token count
    rare_categories: list[str]
    planted_stopwords: set[str]
    nn_queries: list[tuple[str, str, str | None]]  # (type, id, type filter)
    project_subset: list[tuple[str, str]]


def manifest_text(spec: Spec) -> str:
    return (
        "type user\ntype item\ntype category\ntype attribute\ntype word\n"
        "relation R user item\n"
        f"relation C item category {spec.category_flag}\n"
        "relation A item attribute positives_only\n"
        "relation BW item word positives_only\n"
        "relation UW user word positives_only\n"
    )


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _load_words(root: Path) -> tuple[list[str], dict[str, str], set[str]]:
    stop = {w for w in (root / STOPWORDS).read_text("utf-8").split() if w}
    stems: dict[str, str] = {}
    for line in (root / VOCABULARY).read_text("utf-8").splitlines():
        word, stem = line.split("\t")
        if word.isascii() and word.isalpha() and word.islower() and len(word) >= 3 \
                and word not in stop and stem not in stop:
            stems[word] = stem
    words = sorted(stems)
    all_stems = set(stems.values())
    # planted stopwords: pure lowercase ASCII that no kept word or stem spells
    planted = {w for w in stop
               if w.isascii() and w.isalpha() and w.islower()
               and w not in stems and w not in all_stems}
    return words, stems, planted


def generate(spec: Spec, seed: int, root: Path, out: Path) -> Inputs:
    """Write the workload's raw TSVs under ``out`` and return what ingest
    must produce from them."""
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    out.mkdir(parents=True, exist_ok=True)
    kt = spec.k_true
    users = [f"u{n:05d}" for n in range(spec.users)]
    items = [f"i{n:05d}" for n in range(spec.items)]
    cats = [f"c{n:03d}" for n in range(spec.categories)]
    U = rng.normal(0.0, 1.0, (spec.users, kt))
    V = rng.normal(0.0, 1.0, (spec.items, kt))
    Cf = rng.normal(0.0, 1.0, (spec.categories, kt))
    scale = LOGIT_STD / np.sqrt(kt)

    # --- ratings: planted label from sigmoid(u.v); re-ratings with timestamps
    rating_rows: list[tuple[str, str, int, int]] = []
    expected_r: set[tuple] = set()
    n_rated = np.maximum(1, rng.poisson(spec.ratings_per_user - 1, spec.users) + 1)
    ts = 1_000_000
    for u, m in enumerate(n_rated):
        for i in rng.choice(spec.items, size=min(int(m), spec.items), replace=False):
            p = 1.0 / (1.0 + np.exp(-scale * float(U[u] @ V[i])))
            label = int(rng.random() < p)
            n_versions = 1 + int(rng.random() < CONFLICT_SHARE) * int(rng.integers(1, 3))
            stamps = np.sort(rng.choice(10_000, size=n_versions, replace=False)) + ts
            ts += 10_000
            for v, stamp in enumerate(stamps):
                # the latest version carries the planted label, earlier ones
                # may disagree with it
                lab = label if v == n_versions - 1 or rng.random() < 0.3 else 1 - label
                stars = int(rng.integers(4, 6)) if lab else int(rng.integers(1, 4))
                rating_rows.append((users[u], items[i], stars, int(stamp)))
            expected_r.add((users[u], items[i], label))
    order = rng.permutation(len(rating_rows))  # file order is not time order
    with open(out / "ratings.tsv", "w", encoding="utf-8") as f:
        for t in order:
            u, i, stars, stamp = rating_rows[t]
            f.write(f"{u}\t{i}\t{stars}\t{stamp}\n")

    # --- categories: each item's best-matching categories, plus rare ones
    affinity = V @ Cf.T + rng.normal(0.0, AFFINITY_NOISE, (spec.items, spec.categories))
    top = np.argsort(-affinity, axis=1)[:, :spec.categories_per_item]
    assignments = [(items[i], cats[c]) for i in range(spec.items) for c in top[i]]
    rare = [f"rare{n:02d}" for n in range(RARE_CATEGORIES)]
    for name in rare:
        for i in rng.choice(spec.items, size=int(rng.integers(1, spec.min_category_entities)),
                            replace=False):
            assignments.append((items[i], name))
    assignments = [assignments[t] for t in rng.permutation(len(assignments))]
    per_cat: dict[str, set[str]] = {}
    for item, cat in assignments:
        per_cat.setdefault(cat, set()).add(item)
    expected_c = {(item, cat, 1) for item, cat in assignments
                  if len(per_cat[cat]) >= spec.min_category_entities}
    with open(out / "categories.tsv", "w", encoding="utf-8") as f:
        f.writelines(f"{item}\t{cat}\n" for item, cat in assignments)

    # --- attributes: best-matching value(s) per attribute name
    expected_a: set[tuple] = set()
    with open(out / "attributes.tsv", "w", encoding="utf-8") as f:
        for name, values in list(ATTRIBUTES.items())[:spec.attributes]:
            Af = rng.normal(0.0, 1.0, (len(values), kt))
            affinity = V @ Af.T + rng.normal(0.0, AFFINITY_NOISE, (spec.items, len(values)))
            best = np.argsort(-affinity, axis=1)[:, :MULTI_VALUED.get(name, 1)]
            for i in range(spec.items):
                for a in best[i]:
                    f.write(f"{items[i]}\t{name}\t{values[a]}\n")
                    expected_a.add((items[i], f"{name}({values[a]})", 1))

    # --- reviews of liked items: Zipfian word reuse, half of the words from
    # the topic of the item's best category; stopwords and digit tokens planted in between
    words_all, stems, planted_stop = _load_words(root)
    words = [words_all[t] for t in np.sort(rng.choice(len(words_all),
                                                      size=spec.vocabulary, replace=False))]
    words = [words[t] for t in rng.permutation(len(words))]  # Zipf rank order
    zipf = 1.0 / np.arange(1, len(words) + 1) ** ZIPF
    zipf /= zipf.sum()
    topic_of_word = rng.integers(0, spec.categories, len(words))
    topic_words = [np.flatnonzero(topic_of_word == c) for c in range(spec.categories)]
    stop_list = sorted(planted_stop)
    # users review what they liked, so their words follow their tastes
    rated = sorted({(u, i) for u, i, y in expected_r if y == 1})
    review_cells = [rated[t] for t in rng.choice(len(rated), size=spec.reviews,
                                                 replace=spec.reviews > len(rated))]
    stems_per_review: list[tuple[str, str, set[str]]] = []
    token_counts: dict[str, int] = {}
    raw_tokens = 0
    with open(out / "reviews.tsv", "w", encoding="utf-8") as f:
        for user, item in review_cells:
            n = max(3, int(rng.poisson(spec.review_tokens)))
            topic = topic_words[top[int(item[1:]), 0]]
            kind = rng.random(n)
            from_topic = (rng.random(n) < 0.5) & (len(topic) > 0)
            zipf_pick = rng.choice(len(words), size=n, p=zipf)
            topic_pick = np.minimum(rng.zipf(1.6, size=n) - 1, max(len(topic) - 1, 0))
            numbers = rng.integers(0, 2000, n)
            number_form = rng.integers(0, len(_NUMBER_FORMS), n)
            stop_pick = rng.integers(0, len(stop_list), n)
            toks: list[str] = []
            review_stems: set[str] = set()
            for t in range(n):
                if kind[t] < DIGIT_SHARE:
                    toks.append(_NUMBER_FORMS[number_form[t]].format(numbers[t]))
                elif kind[t] < DIGIT_SHARE + STOPWORD_SHARE:
                    toks.append(stop_list[stop_pick[t]])
                else:
                    w = words[topic[topic_pick[t]] if from_topic[t] else zipf_pick[t]]
                    toks.append(w)
                    review_stems.add(stems[w])
            text = _render(toks, rng.random(n))
            raw_tokens += n
            token_counts[text] = n
            stems_per_review.append((user, item, review_stems))
            f.write(f"{user}\t{item}\t{_escape(text)}\n")
    review_freq: dict[str, int] = {}
    for _, _, s in stems_per_review:
        for stem in s:
            review_freq[stem] = review_freq.get(stem, 0) + 1
    kept = {s for s, n in review_freq.items() if n >= spec.min_word_reviews}
    expected_bw = {(item, s, 1) for _, item, ss in stems_per_review for s in ss & kept}
    expected_uw = {(user, s, 1) for user, _, ss in stems_per_review for s in ss & kept}

    (out / "schema.txt").write_text(manifest_text(spec), encoding="utf-8")

    # --- serving inputs: pairs to score, nn queries, a projection subset
    rated_users = sorted({u for u, _, _ in expected_r})
    rated_items = sorted({i for _, i, _ in expected_r})
    with open(out / "pairs.tsv", "w", encoding="utf-8") as f:
        for _ in range(spec.pairs):
            u = rated_users[int(rng.integers(0, len(rated_users)))]
            i = rated_items[int(rng.integers(0, len(rated_items)))]
            f.write(f"R\t{u}\t{i}\n")
    queries = []
    for q in range(spec.nn_queries):
        etype, pool = (("item", rated_items) if q % 2 == 0 else ("user", rated_users))
        queries.append((etype, pool[int(rng.integers(0, len(pool)))],
                        "item" if q % 4 < 2 else None))
    subset_items = [rated_items[t] for t in
                    np.sort(rng.choice(len(rated_items),
                                       size=min(spec.project_items, len(rated_items)),
                                       replace=False))]
    return Inputs(
        schema=out / "schema.txt", ratings=out / "ratings.tsv",
        reviews=out / "reviews.tsv", categories=out / "categories.tsv",
        attributes=out / "attributes.tsv", pairs=out / "pairs.tsv",
        expected={"R": expected_r, "C": expected_c, "A": expected_a,
                  "BW": expected_bw, "UW": expected_uw},
        raw_tokens=raw_tokens, token_counts=token_counts,
        rare_categories=rare, planted_stopwords=set(stop_list),
        nn_queries=queries, project_subset=[("item", i) for i in subset_items],
    )


def _render(tokens: list[str], draws: np.ndarray) -> str:
    """Tokens as sentences: capitalised starts, commas, full stops, and the
    odd line break or tab that the raw format must escape."""
    parts = []
    start = True
    for tok, r in zip(tokens, draws):
        parts.append(tok.capitalize() if start else tok)
        start = r < 0.1
        parts.append(". " if start else ", " if r < 0.15 else "\n" if r < 0.16
                     else "\t" if r < 0.17 else " ")
    return "".join(parts).rstrip() + "!"
