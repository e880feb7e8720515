"""Transforms raw ratings, reviews, and categorical/multi-valued attributes
into binary relational tuple streams.

Pipeline for review text: lowercase, split into maximal alphanumeric runs,
drop tokens containing digits, drop stopwords (before stemming), stem. Each
distinct token is filtered and stemmed once per config, which remembers the
outcome for the rest of its run. A (entity, word) tuple is emitted when the
word stem occurs in at least one of the entity's reviews and clears the global
review-frequency threshold.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Sequence

from .errors import DataError
from .porter import porter_stem
from .schema import read_rows

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _has_number(token: str) -> bool:
    # isnumeric catches digits plus numeric characters like superscripts
    return any(ch.isnumeric() for ch in token)


def default_stopwords() -> frozenset[str]:
    """The stopword list shipped with the package (one word per line)."""
    text = resources.files("relfactor").joinpath("data/stopwords_en.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


@dataclass(frozen=True)
class RawRating:
    user_id: str
    item_id: str
    stars: int
    timestamp: Optional[int] = None


@dataclass(frozen=True)
class RawReview:
    user_id: str
    item_id: str
    text: str


@dataclass(frozen=True)
class PreprocessConfig:
    stopword_list: frozenset[str] = field(default_factory=default_stopwords)
    min_word_reviews: int = 10
    min_category_entities: int = 5
    stemmer: str = "porter"
    # lowercase token -> the stem it contributes, or "" when it is dropped;
    # frozen fields keep every entry valid for the config's lifetime
    _stems: dict[str, str] = field(default_factory=dict, init=False, repr=False,
                                   compare=False)

    def __post_init__(self) -> None:
        if self.min_word_reviews < 1 or self.min_category_entities < 1:
            raise DataError("frequency thresholds must be >= 1")
        if self.stemmer not in ("porter", "none"):
            raise DataError(f"unknown stemmer {self.stemmer!r}")

    def stem(self, word: str) -> str:
        return porter_stem(word) if self.stemmer == "porter" else word


def binarize_rating(stars: int) -> int:
    """High ratings (4 and 5) map to 1, low ratings (3 and below) to 0."""
    if stars not in (1, 2, 3, 4, 5):
        raise DataError(f"star rating out of range: {stars!r}")
    return 1 if stars >= 4 else 0


def unwrap_attribute(name: str, value: str) -> str:
    """Composite attribute-entity id for one (attribute, value) pair,
    e.g. ("Smoking", "Outdoor") -> "Smoking(Outdoor)"."""
    if not name or not value:
        raise DataError("attribute name and value must be non-empty")
    return f"{name}({value})"


def _token_stem(token: str, config: PreprocessConfig) -> str:
    if _has_number(token) or token in config.stopword_list:
        return ""
    return config.stem(token)


def tokenize_review(text: str, config: PreprocessConfig) -> list[str]:
    """Lowercased word stems of a review, in order, duplicates retained.

    Tokens containing digits are dropped entirely; stopwords are matched
    after lowercasing and before stemming.
    """
    stems = config._stems
    out = []
    for token in _TOKEN_RE.findall(text.lower()):
        stem = stems.get(token)
        if stem is None:
            stem = stems[token] = _token_stem(token, config)
        if stem:
            out.append(stem)
    return out


def build_word_relations(reviews: Sequence[RawReview], side: str,
                         config: PreprocessConfig) -> list[tuple[str, str]]:
    """Distinct (entity, stem) pairs for the item-word or user-word relation.

    A stem qualifies when it occurs in at least ``min_word_reviews`` distinct
    reviews over the whole corpus. Two passes: count, then emit; output order
    follows first occurrence in the review stream.
    """
    if side not in ("item", "user"):
        raise DataError(f"side must be 'item' or 'user', got {side!r}")
    review_freq: dict[str, int] = {}
    tokenized: list[tuple[str, list[str]]] = []
    for review in reviews:
        stems = tokenize_review(review.text, config)
        entity = review.item_id if side == "item" else review.user_id
        tokenized.append((entity, stems))
        for stem in set(stems):
            review_freq[stem] = review_freq.get(stem, 0) + 1
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for entity, stems in tokenized:
        for stem in stems:
            if review_freq[stem] < config.min_word_reviews:
                continue
            pair = (entity, stem)
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
    return pairs


def filter_categories(assignments: Sequence[tuple[str, str]],
                      config: PreprocessConfig) -> list[tuple[str, str]]:
    """Drop categories assigned to fewer than ``min_category_entities``
    distinct items; remaining pairs pass through unchanged."""
    items_per_category: dict[str, set[str]] = {}
    for item, category in assignments:
        items_per_category.setdefault(category, set()).add(item)
    return [
        (item, category)
        for item, category in assignments
        if len(items_per_category[category]) >= config.min_category_entities
    ]


def resolve_rating_conflicts(ratings: Sequence[RawRating]) -> list[tuple[str, str, int]]:
    """One (user, item, label) per rated cell.

    Agreeing duplicates collapse; conflicting binarized labels resolve to the
    rating with the latest timestamp, falling back to the last occurrence in
    stream order when any timestamp is missing.
    """
    per_cell: dict[tuple[str, str], list[tuple[int, Optional[int], int]]] = {}
    order: list[tuple[str, str]] = []
    for pos, r in enumerate(ratings):
        cell = (r.user_id, r.item_id)
        if cell not in per_cell:
            per_cell[cell] = []
            order.append(cell)
        per_cell[cell].append((pos, r.timestamp, binarize_rating(r.stars)))
    out = []
    for cell in order:
        entries = per_cell[cell]
        labels = {label for _, _, label in entries}
        if len(labels) == 1:
            winner = entries[0][2]
        elif all(ts is not None for _, ts, _ in entries):
            winner = max(entries, key=lambda e: (e[1], e[0]))[2]
        else:
            winner = entries[-1][2]
        out.append((cell[0], cell[1], winner))
    return out


# --- raw file formats ---------------------------------------------------------

_ESCAPE_RE = re.compile(r"\\([tnr\\])")
_UNESCAPED = {"t": "\t", "n": "\n", "r": "\r", "\\": "\\"}


def escape_text(text: str) -> str:
    return (text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")
            .replace("\r", "\\r"))


def unescape_text(text: str) -> str:
    """Undo ``escape_text``; any other backslash passes through unchanged."""
    return _ESCAPE_RE.sub(lambda m: _UNESCAPED[m.group(1)], text)


def read_ratings(path: str | os.PathLike) -> list[RawRating]:
    """TSV: user_id, item_id, stars[, timestamp]."""
    out = []
    for lineno, parts in read_rows(path, 3, 4):
        try:
            stars = int(parts[2])
            ts = int(parts[3]) if len(parts) == 4 else None
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed rating row") from None
        out.append(RawRating(parts[0], parts[1], stars, ts))
    return out


def read_reviews(path: str | os.PathLike) -> list[RawReview]:
    """TSV: user_id, item_id, text (tabs, newlines and carriage returns escaped)."""
    return [RawReview(p[0], p[1], unescape_text(p[2])) for _, p in read_rows(path, 3, 3)]


def read_categories(path: str | os.PathLike) -> list[tuple[str, str]]:
    """TSV: item_id, category_id."""
    return [(p[0], p[1]) for _, p in read_rows(path, 2, 2)]


def read_attributes(path: str | os.PathLike) -> list[tuple[str, str, str]]:
    """TSV: item_id, attr_name, attr_value."""
    return [(p[0], p[1], p[2]) for _, p in read_rows(path, 3, 3)]
