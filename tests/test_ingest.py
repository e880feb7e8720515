import dataclasses
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from relfactor import ingest
from relfactor.cli import main
from relfactor.errors import DataError
from relfactor.ingest import (PreprocessConfig, RawRating, RawReview,
                              binarize_rating, build_word_relations,
                              default_stopwords, escape_text, filter_categories,
                              read_reviews, resolve_rating_conflicts,
                              tokenize_review, unescape_text, unwrap_attribute)
from relfactor.porter import porter_stem

from conftest import RAW_INPUTS


def config(**kwargs):
    defaults = dict(stopword_list=frozenset(), min_word_reviews=1,
                    min_category_entities=1, stemmer="porter")
    defaults.update(kwargs)
    return PreprocessConfig(**defaults)


class TestBinarizeRating:
    @pytest.mark.parametrize("stars,label", [(1, 0), (2, 0), (3, 0), (4, 1), (5, 1)])
    def test_rule(self, stars, label):
        assert binarize_rating(stars) == label

    @pytest.mark.parametrize("stars", [0, 6, -1])
    def test_out_of_range(self, stars):
        with pytest.raises(DataError):
            binarize_rating(stars)

    def test_monotone(self):
        labels = [binarize_rating(s) for s in range(1, 6)]
        assert labels == sorted(labels)


class TestUnwrapAttribute:
    def test_multivalued(self):
        assert unwrap_attribute("Smoking", "Outdoor") == "Smoking(Outdoor)"

    def test_boolean(self):
        assert unwrap_attribute("Delivers", "Yes") == "Delivers(Yes)"

    def test_hyphenated(self):
        assert unwrap_attribute("Wi-Fi", "Free") == "Wi-Fi(Free)"

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            unwrap_attribute("", "Yes")
        with pytest.raises(DataError):
            unwrap_attribute("Smoking", "")


class TestTokenizeReview:
    def test_spec_example(self):
        cfg = config(stopword_list=frozenset({"the"}))
        assert tokenize_review("The 2 BEST tacos!!", cfg) == ["best", "taco"]

    def test_empty_text(self):
        assert tokenize_review("", config()) == []

    def test_duplicates_and_order_retained(self):
        assert tokenize_review("Relational relational", config()) == ["relat", "relat"]

    def test_digit_containing_tokens_dropped_whole(self):
        assert tokenize_review("abc123def plain", config()) == ["plain"]

    def test_stopwords_matched_before_stemming(self):
        # "relations" stems to "relat"; the stopword list holds surface forms
        cfg = config(stopword_list=frozenset({"relations"}))
        assert tokenize_review("relations relation", cfg) == ["relat"]

    def test_stemmer_none(self):
        cfg = config(stemmer="none")
        assert tokenize_review("Tacos, tacos!", cfg) == ["tacos", "tacos"]

    def test_default_stopword_list_loads(self):
        words = default_stopwords()
        assert "the" in words and len(words) > 100

    @pytest.mark.parametrize("text,stems", [("HES", ["he"]), ("the the", [])])
    def test_default_stopwords_filter_tokens_not_stems(self, text, stems):
        # "hes" is no stopword, so its stem "he" is kept although "he" is one
        cfg = PreprocessConfig(min_word_reviews=1, min_category_entities=1)
        assert tokenize_review(text, cfg) == stems

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_output_clean(self, text):
        # stopwords are dropped before stemming: every output stem comes from a
        # token that is not a stopword, and every such token gives its stem
        cfg = PreprocessConfig(min_word_reviews=1, min_category_entities=1)
        tokens = tokenize_review(text, config(stemmer="none"))
        out = tokenize_review(text, cfg)
        kept = [t for t in tokens if t not in cfg.stopword_list]
        assert out == [stem for stem in map(cfg.stem, kept) if stem]
        for tok in out:
            assert tok
            assert not any(ch.isdigit() for ch in tok)


class TestPorterStem:
    @pytest.mark.parametrize("word,stem", [
        ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
        ("caress", "caress"), ("cats", "cat"), ("feed", "feed"),
        ("agreed", "agre"), ("plastered", "plaster"), ("motoring", "motor"),
        ("sing", "sing"), ("sky", "sky"), ("happy", "happi"),
        ("relational", "relat"), ("conditional", "condit"),
        ("rational", "ration"), ("conformabli", "conform"),
        ("replacement", "replac"), ("adoption", "adopt"),
        ("hopefulness", "hope"), ("controll", "control"), ("roll", "roll"),
        ("agreement", "agreement"), ("generalizations", "gener"),
    ])
    def test_canonical_vectors(self, word, stem):
        assert porter_stem(word) == stem

    def test_short_words_unchanged(self):
        assert porter_stem("as") == "as"
        assert porter_stem("a") == "a"

    def test_nonalpha_passthrough(self):
        assert porter_stem("café") == "café"

    def test_idempotent_on_canonical_examples(self):
        for stem in ("caress", "poni", "ti", "cat", "motor", "sky", "happi",
                     "relat", "condit", "ration", "conform", "replac", "adopt",
                     "hope", "control", "roll"):
            assert porter_stem(stem) == stem


class TestBuildWordRelations:
    def reviews(self):
        return [
            RawReview("u1", "b1", "great tacos"),
            RawReview("u2", "b1", "tacos again tacos"),
            RawReview("u1", "b2", "soup"),
        ]

    def test_global_threshold_filters(self):
        cfg = config(min_word_reviews=10)
        assert build_word_relations(self.reviews(), "item", cfg) == []

    def test_set_semantics_within_entity(self):
        reviews = [RawReview(f"u{i}", "b1", "taco taco") for i in range(3)]
        cfg = config(min_word_reviews=1)
        assert build_word_relations(reviews, "item", cfg) == [("b1", "taco")]

    def test_user_side_counts(self):
        reviews = [RawReview("u1", "b1", "taco"), RawReview("u2", "b2", "taco")]
        cfg = config(min_word_reviews=1)
        assert build_word_relations(reviews, "user", cfg) == [("u1", "taco"), ("u2", "taco")]

    def test_threshold_counts_distinct_reviews(self):
        # "tacos"/"taco" appears in 2 distinct reviews; "soup" and "great" in 1
        cfg = config(min_word_reviews=2)
        pairs = build_word_relations(self.reviews(), "item", cfg)
        assert pairs == [("b1", "taco")]

    def test_reorder_invariant_as_set(self):
        cfg = config(min_word_reviews=2)
        fwd = set(build_word_relations(self.reviews(), "item", cfg))
        rev = set(build_word_relations(list(reversed(self.reviews())), "item", cfg))
        assert fwd == rev

    @given(st.integers(min_value=1, max_value=6))
    def test_raising_threshold_never_adds_pairs(self, threshold):
        lower = set(build_word_relations(self.reviews(), "item",
                                         config(min_word_reviews=threshold)))
        higher = set(build_word_relations(self.reviews(), "item",
                                          config(min_word_reviews=threshold + 1)))
        assert higher <= lower


class TestFilterCategories:
    def assignments(self, n_items, category="c1"):
        return [(f"i{k}", category) for k in range(n_items)]

    def test_below_threshold_dropped(self):
        cfg = config(min_category_entities=5)
        assert filter_categories(self.assignments(4), cfg) == []

    def test_boundary_inclusive(self):
        cfg = config(min_category_entities=5)
        assert len(filter_categories(self.assignments(5), cfg)) == 5

    def test_threshold_one_is_identity(self):
        pairs = self.assignments(3) + [("i0", "c2")]
        assert filter_categories(pairs, config(min_category_entities=1)) == pairs

    def test_distinct_items_counted_not_rows(self):
        pairs = [("i0", "c1"), ("i0", "c1"), ("i1", "c1")]
        cfg = config(min_category_entities=3)
        assert filter_categories(pairs, cfg) == []

    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=50)
    def test_anti_monotone(self, threshold, data):
        pairs = data.draw(st.lists(
            st.tuples(st.sampled_from("abcdef"), st.sampled_from("xyz")),
            max_size=30))
        lower = set(filter_categories(pairs, config(min_category_entities=threshold)))
        higher = set(filter_categories(pairs, config(min_category_entities=threshold + 1)))
        assert higher <= lower


class TestResolveRatingConflicts:
    def test_agreeing_duplicates_collapse(self):
        ratings = [RawRating("u", "b", 5), RawRating("u", "b", 4)]
        assert resolve_rating_conflicts(ratings) == [("u", "b", 1)]

    def test_latest_timestamp_wins(self):
        ratings = [RawRating("u", "b", 5, timestamp=1), RawRating("u", "b", 2, timestamp=9)]
        assert resolve_rating_conflicts(ratings) == [("u", "b", 0)]

    def test_latest_timestamp_wins_regardless_of_order(self):
        ratings = [RawRating("u", "b", 2, timestamp=9), RawRating("u", "b", 5, timestamp=1)]
        assert resolve_rating_conflicts(ratings) == [("u", "b", 0)]

    def test_single_rating(self):
        assert resolve_rating_conflicts([RawRating("u", "b", 3)]) == [("u", "b", 0)]

    def test_stream_order_fallback_without_timestamps(self):
        ratings = [RawRating("u", "b", 5), RawRating("u", "b", 1)]
        assert resolve_rating_conflicts(ratings) == [("u", "b", 0)]

    def test_cells_keep_first_seen_order(self):
        ratings = [RawRating("u2", "b", 4), RawRating("u1", "b", 2)]
        assert resolve_rating_conflicts(ratings) == [("u2", "b", 1), ("u1", "b", 0)]

    @staticmethod
    def reference(ratings):
        """The rule kept one entry list and one label set per cell."""
        per_cell, order = {}, []
        for pos, r in enumerate(ratings):
            cell = (r.user_id, r.item_id)
            if cell not in per_cell:
                per_cell[cell] = []
                order.append(cell)
            per_cell[cell].append((pos, r.timestamp, binarize_rating(r.stars)))
        out = []
        for cell in order:
            entries = per_cell[cell]
            if len({label for _, _, label in entries}) == 1:
                winner = entries[0][2]
            elif all(ts is not None for _, ts, _ in entries):
                winner = max(entries, key=lambda e: (e[1], e[0]))[2]
            else:
                winner = entries[-1][2]
            out.append((cell[0], cell[1], winner))
        return out

    # few users, items and timestamps, so that cells repeat, labels agree and
    # conflict, and timestamps tie or are missing
    @given(st.lists(st.builds(RawRating, st.sampled_from(["u1", "u2", "u3"]),
                              st.sampled_from(["b1", "b2"]), st.integers(1, 5),
                              st.none() | st.integers(0, 3)),
                    max_size=40))
    @example([RawRating("u", "b", 5, 2), RawRating("u", "b", 1, 2), RawRating("u", "b", 4, 1)])
    @example([RawRating("u", "b", 1, 7), RawRating("u", "b", 5), RawRating("u", "b", 2, 9)])
    @settings(max_examples=300)
    def test_matches_per_cell_list_reference(self, ratings):
        assert resolve_rating_conflicts(ratings) == self.reference(ratings)


class TestRawFiles:
    def test_review_text_escaping_roundtrip(self, tmp_path):
        text = "line one\nline\ttwo \\ backslash"
        path = tmp_path / "reviews.tsv"
        path.write_text(f"u1\tb1\t{escape_text(text)}\n")
        reviews = read_reviews(path)
        assert reviews[0].text == text

    @given(st.text(max_size=80))
    def test_escape_unescape_roundtrip(self, text):
        assert unescape_text(escape_text(text)) == text
        assert "\t" not in escape_text(text)
        assert "\n" not in escape_text(text)
        assert "\r" not in escape_text(text)

    @given(st.lists(st.one_of(st.sampled_from(["\r", "\r\n", "\n", "\t", "\\", "r",
                                               "\x85", "\u2028", "\x1c"]),
                              st.characters(codec="utf-8")), max_size=40).map("".join))
    @example("a\rb")
    @example("a\r\nb\x85c\u2028d")
    @settings(max_examples=200)
    def test_review_file_roundtrip(self, tmp_path_factory, text):
        # carriage returns would end the line early in a universal-newline
        # reader, so escape_text must escape them like newlines
        path = tmp_path_factory.mktemp("reviews") / "reviews.tsv"
        path.write_bytes(f"u1\tb1\t{escape_text(text)}\n".encode("utf-8"))
        assert read_reviews(path) == [RawReview("u1", "b1", text)]

    @staticmethod
    def unescape_by_loop(text):
        # a per-character decoder, the reference for unescape_text's regex
        out = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\\" and i + 1 < len(text):
                nxt = text[i + 1]
                decoded = {"t": "\t", "n": "\n", "r": "\r", "\\": "\\"}.get(nxt)
                if decoded is not None:
                    out.append(decoded)
                    i += 2
                    continue
            out.append(ch)
            i += 1
        return "".join(out)

    @given(st.text(alphabet="\\tnqr\t\n x", max_size=60))
    @example("\\")
    @example("a\\q\\\\\\tb\\")
    @settings(max_examples=300)
    def test_unescape_matches_per_character_loop(self, text):
        assert unescape_text(text) == self.unescape_by_loop(text)


class TestTokenMemo:
    def test_config_is_frozen(self):
        cfg = config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.stemmer = "none"
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.stopword_list = frozenset({"run"})

    def test_configs_keep_their_own_results(self):
        plain, stopping, unstemmed = (config(), config(stopword_list=frozenset({"running"})),
                                      config(stemmer="none"))
        for _ in range(2):
            assert tokenize_review("Running running", plain) == ["run", "run"]
            assert tokenize_review("Running running", stopping) == []
            assert tokenize_review("Running running", unstemmed) == ["running", "running"]

    def test_stems_each_distinct_kept_token_once_per_run(self, tmp_path, monkeypatch):
        for name, text in RAW_INPUTS.items():
            (tmp_path / name).write_text(text)
        stop = default_stopwords()
        kept = {token for line in RAW_INPUTS["reviews.tsv"].splitlines()
                for token in re.findall(r"[^\W_]+", line.split("\t")[2].lower())
                if not any(ch.isnumeric() for ch in token) and token not in stop}
        assert kept
        calls = Counter()

        def counting_stem(word):
            calls[word] += 1
            return porter_stem(word)

        monkeypatch.setattr(ingest, "porter_stem", counting_stem)
        argv = ["ingest", "--schema", str(tmp_path / "schema.txt"),
                "--reviews", str(tmp_path / "reviews.tsv"), "--out", str(tmp_path / "out")]
        for _ in range(2):
            calls.clear()
            assert main(argv) == 0
            assert calls == Counter(kept)
