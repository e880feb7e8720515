"""Transforms raw ratings, reviews, and categorical/multi-valued attributes
into binary relational tuple streams.

Pipeline for review text: lowercase, split into maximal alphanumeric runs,
drop tokens containing digits, drop stopwords (before stemming), stem. Each
distinct token is filtered and stemmed once per config, which remembers the
outcome for the rest of its run. Each review is tokenized once, for both word
relations: an (item, word) and a (user, word) tuple are emitted when the word
stem occurs in at least one of that entity's reviews and clears the global
review-frequency threshold.
"""

from __future__ import annotations

import itertools
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DataError
from .porter import porter_stem
from .schema import read_columns, read_rows

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
class RatingColumns:
    """Ratings as columns: row r is users[r] rating items[r] with stars[r]
    at timestamps[r], which is None for a row without one."""

    users: Sequence[str]
    items: Sequence[str]
    stars: Sequence[int]
    timestamps: Sequence[Optional[int]]

    @classmethod
    def of(cls, ratings: Iterable[RawRating]) -> "RatingColumns":
        rows = list(ratings)
        return cls([r.user_id for r in rows], [r.item_id for r in rows],
                   [r.stars for r in rows], [r.timestamp for r in rows])

    def __len__(self) -> int:
        return len(self.users)


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


def build_word_relations(reviews: Sequence[RawReview], config: PreprocessConfig
                         ) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """Distinct (item, stem) and (user, stem) pairs: the item-word and
    user-word relations, from one tokenization of each review.

    A stem qualifies when it occurs in at least ``min_word_reviews`` distinct
    reviews over the whole corpus. Each list follows first occurrence in the
    review stream.
    """
    tokenized = [tokenize_review(review.text, config) for review in reviews]
    review_freq = Counter(itertools.chain.from_iterable(map(set, tokenized)))
    kept = [[stem for stem in stems if review_freq[stem] >= config.min_word_reviews]
            for stems in tokenized]
    items = dict.fromkeys((r.item_id, s) for r, stems in zip(reviews, kept) for s in stems)
    users = dict.fromkeys((r.user_id, s) for r, stems in zip(reviews, kept) for s in stems)
    return list(items), list(users)


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


def _labels(stars: Sequence[int]) -> np.ndarray:
    """binarize_rating of every star, as an int64 array; the first star out
    of range raises."""
    if isinstance(stars, np.ndarray):
        bad = ~np.isin(stars, (1, 2, 3, 4, 5))
        if bad.any():
            binarize_rating(stars[bad.argmax()].item())
        return (stars >= 4).astype(np.int64)
    return np.fromiter(map(binarize_rating, stars), dtype=np.int64, count=len(stars))


def resolve_rating_conflicts(
        ratings: RatingColumns | Sequence[RawRating]) -> list[tuple[str, str, int]]:
    """One (user, item, label) per rated cell, in first-seen order.

    Takes read_ratings' columns or any sequence of RawRating. A star out of
    range raises DataError, the first one in stream order. Agreeing
    duplicates collapse; conflicting binarized labels resolve to the rating
    with the latest timestamp (the later row on a tie), falling back to the
    last occurrence in stream order when any rating of the cell has no
    timestamp.

    Cells are grouped by np.unique over per-column codes, and disagreements
    found with one np.bincount; only the rows of conflicting cells go through
    the rule above one at a time, so timestamps of any size compare exactly.
    """
    if not isinstance(ratings, RatingColumns):
        ratings = RatingColumns.of(ratings)
    n = len(ratings)
    labels = _labels(ratings.stars)
    # a user's or item's code is its first row; cell[r] is the first row of
    # row r's cell, and those rows head the cells
    user, item = (np.fromiter(map({}.setdefault, ids, itertools.count()), dtype=np.int64, count=n)
                  for ids in (ratings.users, ratings.items))
    _, firsts, inverse = np.unique(user * n + item, return_index=True, return_inverse=True)
    cell, heads = firsts[inverse], np.sort(firsts)
    conflicting = np.bincount(cell[labels != labels[cell]], minlength=n) > 0
    rows = np.flatnonzero(conflicting[cell])
    latest: dict[int, tuple[Optional[int], int]] = {}  # cell -> (timestamp, row)
    for c, row in zip(cell[rows].tolist(), rows.tolist()):
        ts = ratings.timestamps[row]
        best = latest.get(c, (ts, row))
        if ts is None or best[0] is None:
            latest[c] = (None, row)
        elif ts >= best[0]:
            latest[c] = (ts, row)
    labels[list(latest)] = labels[[row for _, row in latest.values()]]
    head_rows = heads.tolist()
    return list(zip(map(ratings.users.__getitem__, head_rows),
                    map(ratings.items.__getitem__, head_rows), labels[heads].tolist()))


# --- raw file formats ---------------------------------------------------------

_ESCAPE_RE = re.compile(r"\\([tnr\\])")
_UNESCAPED = {"t": "\t", "n": "\n", "r": "\r", "\\": "\\"}


def escape_text(text: str) -> str:
    return (text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")
            .replace("\r", "\\r"))


def unescape_text(text: str) -> str:
    """Undo ``escape_text``; any other backslash passes through unchanged."""
    return _ESCAPE_RE.sub(lambda m: _UNESCAPED[m.group(1)], text)


def read_ratings(path: str | os.PathLike) -> RatingColumns:
    """TSV: user_id, item_id, stars[, timestamp], read as columns by
    schema.read_columns. A file with a fault, or with a star other than "1"
    to "5", goes through _row_ratings, which gives the same columns and
    reports the first fault. Stars are range-checked by
    resolve_rating_conflicts, once the whole file has been read.
    """
    try:
        users, items, stars, timestamps = read_columns(path, 3, 4)
        timestamps = [t if t is None else int(t) for t in timestamps]
    except (DataError, ValueError):  # for _row_ratings to report
        stars = None
    if stars is None or not frozenset("12345").issuperset(stars):
        return _row_ratings(path)
    digits = np.frombuffer("".join(stars).encode("ascii"), dtype=np.uint8)
    return RatingColumns(users, items, (digits - ord("0")).astype(np.int64), timestamps)


def _row_ratings(path: str | os.PathLike) -> RatingColumns:
    """read_ratings one row at a time through schema.read_rows: the
    reference, and the loop that names the file and line of the first fault."""
    users, items, stars, timestamps = [], [], [], []
    for lineno, parts in read_rows(path, 3, 4):
        try:
            stars.append(int(parts[2]))
            timestamps.append(int(parts[3]) if len(parts) == 4 else None)
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed rating row") from None
        users.append(parts[0])
        items.append(parts[1])
    return RatingColumns(users, items, stars, timestamps)


def read_reviews(path: str | os.PathLike) -> list[RawReview]:
    """TSV: user_id, item_id, text (tabs, newlines and carriage returns escaped)."""
    users, items, texts = read_columns(path, 3, 3)
    return list(map(RawReview, users, items, map(unescape_text, texts)))


def read_categories(path: str | os.PathLike) -> list[tuple[str, str]]:
    """TSV: item_id, category_id."""
    return list(zip(*read_columns(path, 2, 2)))


def read_attributes(path: str | os.PathLike) -> list[tuple[str, str, str]]:
    """TSV: item_id, attr_name, attr_value."""
    return list(zip(*read_columns(path, 3, 3)))
