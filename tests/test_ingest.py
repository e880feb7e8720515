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
        assert build_word_relations(self.reviews(), cfg) == ([], [])

    def test_set_semantics_within_entity(self):
        reviews = [RawReview(f"u{i}", "b1", "taco taco") for i in range(3)]
        cfg = config(min_word_reviews=1)
        assert build_word_relations(reviews, cfg)[0] == [("b1", "taco")]

    def test_user_side_counts(self):
        reviews = [RawReview("u1", "b1", "taco"), RawReview("u2", "b2", "taco")]
        cfg = config(min_word_reviews=1)
        assert build_word_relations(reviews, cfg)[1] == [("u1", "taco"), ("u2", "taco")]

    def test_threshold_counts_distinct_reviews(self):
        # "tacos"/"taco" appears in 2 distinct reviews; "soup" and "great" in 1
        cfg = config(min_word_reviews=2)
        pairs = build_word_relations(self.reviews(), cfg)[0]
        assert pairs == [("b1", "taco")]

    def test_reorder_invariant_as_set(self):
        cfg = config(min_word_reviews=2)
        fwd = set(build_word_relations(self.reviews(), cfg)[0])
        rev = set(build_word_relations(list(reversed(self.reviews())), cfg)[0])
        assert fwd == rev

    @given(st.integers(min_value=1, max_value=6))
    def test_raising_threshold_never_adds_pairs(self, threshold):
        lower = set(build_word_relations(self.reviews(),
                                         config(min_word_reviews=threshold))[0])
        higher = set(build_word_relations(self.reviews(),
                                          config(min_word_reviews=threshold + 1))[0])
        assert higher <= lower

    @staticmethod
    def two_pass(reviews, side, cfg):
        """The per-side algorithm one pass replaced: tokenize every review,
        count each stem's distinct reviews, then emit each (entity, stem)
        pair of a kept stem the first time it is seen."""
        review_freq = {}
        tokenized = []
        for review in reviews:
            stems = tokenize_review(review.text, cfg)
            tokenized.append((review.item_id if side == "item" else review.user_id, stems))
            for stem in set(stems):
                review_freq[stem] = review_freq.get(stem, 0) + 1
        pairs, seen = [], set()
        for entity, stems in tokenized:
            for stem in stems:
                if review_freq[stem] >= cfg.min_word_reviews and (entity, stem) not in seen:
                    seen.add((entity, stem))
                    pairs.append((entity, stem))
        return pairs

    words = ["taco", "tacos", "Tacos!", "soup", "the", "running", "run", "b2b", "x1", ""]
    corpus = st.lists(st.builds(RawReview, st.sampled_from(["u1", "u2", "u3"]),
                                st.sampled_from(["b1", "b2", "b3"]),
                                st.lists(st.sampled_from(words), max_size=8).map(" ".join)),
                      max_size=12)

    @settings(max_examples=300, deadline=None)
    @given(corpus, st.integers(min_value=1, max_value=4), st.sampled_from(["porter", "none"]))
    @example([RawReview("u1", "b1", "taco taco tacos"), RawReview("u1", "b2", ""),
              RawReview("u2", "b1", "soup taco")], 2, "porter")
    def test_one_pass_matches_two_passes(self, reviews, threshold, stemmer):
        def cfg():
            return config(min_word_reviews=threshold, stemmer=stemmer,
                          stopword_list=frozenset({"the"}))

        items, users = build_word_relations(reviews, cfg())
        assert items == self.two_pass(reviews, "item", cfg())
        assert users == self.two_pass(reviews, "user", cfg())


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


def ingest_ratings(directory, data):
    """Run relfactor ingest on a ratings file holding data (bytes, or text
    written as UTF-8): (exit code, R.tsv's text or None)."""
    (directory / "schema.txt").write_text("type user\ntype item\nrelation R user item\n")
    ratings = directory / "ratings.tsv"
    ratings.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    out = directory / "out"
    rc = main(["ingest", "--schema", str(directory / "schema.txt"),
               "--ratings", str(ratings), "--out", str(out)])
    r_tsv = out / "R.tsv"
    return rc, r_tsv.read_text("utf-8") if r_tsv.exists() else None


def rating_outcome(resolve):
    """resolve()'s triples, or the text of the DataError it raises."""
    try:
        return resolve()
    except DataError as exc:
        return str(exc)


# tokens for a star or timestamp field: some int() reads, some it does not,
# some out of the star range, and an undecodable byte
RATING_TOKENS = ["4", " 4 ", "+4", "٤", "4_0", "05", "0", "6", "x", "", "4.0", "-5",
                 str(10**30), str(2**63), "\udcff"]


@st.composite
def ratings_files(draw):
    """A ratings file of few users and items, all rows of 3 or all of 4
    columns, with up to four edits that make it non-canonical or faulty."""
    width = draw(st.sampled_from([3, 4]))
    rows = draw(st.lists(st.tuples(st.sampled_from(["u1", "u2", "ü3"]),
                                   st.sampled_from(["i1", "i2"]), st.integers(1, 5),
                                   st.integers(-2, 2)), min_size=1, max_size=12))
    lines = [[u, i, str(stars), str(ts)][:width] for u, i, stars, ts in rows]
    ends = ["\n"] * len(lines)
    for how in draw(st.lists(st.sampled_from(["token", "drop", "add", "blank", "comment",
                                              "line end", "no last end"]), max_size=4)):
        t = draw(st.integers(0, len(lines) - 1))
        if how == "token" and len(lines[t]) > 2:
            lines[t][draw(st.integers(2, len(lines[t]) - 1))] = draw(st.sampled_from(RATING_TOKENS))
        elif how == "drop":
            lines[t] = lines[t][:-1]
        elif how == "add":
            lines[t] = lines[t] + [draw(st.sampled_from(["7", ""]))]
        elif how in ("blank", "comment"):
            lines.insert(t, [] if how == "blank" else ["#u1", "i1", "5", "1"][:width])
            ends.insert(t, "\n")
        elif how == "line end":
            ends[t] = draw(st.sampled_from(["\r\n", "\r"]))
        elif how == "no last end":
            ends[-1] = ""
    text = "".join("\t".join(fields) + end for fields, end in zip(lines, ends))
    return text.encode("utf-8", "surrogateescape")


class TestReadRatings:
    @pytest.mark.parametrize("lines, error", [
        (["u1\ti1\t5\t1", "u1\ti2\t4", "u2\ti1\tfive\t3"], "ratings.tsv:3: malformed rating row"),
        (["u1\ti1\t5", "u1\ti2\t4\tnoon"], "ratings.tsv:2: malformed rating row"),
        (["u1\ti1\t5", "u1\ti2\t4.0"], "ratings.tsv:2: malformed rating row"),
        (["u1\ti1\t5", "# note", "u1\ti2"], "ratings.tsv:3: expected 3-4 columns"),
        (["u1\ti1\t5\t1\t2"], "ratings.tsv:1: expected 3-4 columns"),
        (["u1\ti1\t5", "u1\ti2\t7"], "star rating out of range: 7"),
        (["u1\ti1\t5", "u1\ti2\t0\t4"], "star rating out of range: 0"),
        # reading ends before any star is binarized
        (["u1\ti1\t5", "u1\ti2\t9", "u2\ti1\t4", "", "u2\ti2\t3\t1\t1"],
         "ratings.tsv:5: expected 3-4 columns"),
        (["u1\ti1\t9", "u1\ti2\tx"], "ratings.tsv:2: malformed rating row"),
        # the tab total of these two lines is that of two 4-column rows
        (["u1\ti1\t5\t1\t2", "u1\ti2\t4"], "ratings.tsv:1: expected 3-4 columns"),
        (["u1\ti1\t5", "u1\ti2\t4\t1\t2", "u2\ti1"], "ratings.tsv:2: expected 3-4 columns"),
        (["u1\ti1\t4_0"], "star rating out of range: 40"),
    ])
    def test_error_text(self, tmp_path, capsys, lines, error):
        assert ingest_ratings(tmp_path, "\n".join(lines) + "\n") == (2, None)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("relfactor: error: ")
        assert err[0].endswith(error)

    @pytest.mark.parametrize("stars, label", [
        (" 4 ", 1), ("+4", 1), ("٤", 1), ("05", 1), ("3", 0), ("+1", 0)])
    def test_star_spellings_int_reads(self, tmp_path, stars, label):
        assert ingest_ratings(tmp_path, f"u1\ti1\t{stars}\t7\nu1\ti2\t2\t7\n") == (
            0, f"R\tu1\ti1\t{label}\nR\tu1\ti2\t0\n")

    @pytest.mark.parametrize("first, second, label", [
        # exact integers: as floats, these two timestamps would tie
        (10**30, 10**30 - 1, 1), (10**30 - 1, 10**30, 0), (-5, -6, 1), (-6, -5, 0),
        (2**63, 2**63 - 1, 1), (-(2**63) - 1, -(2**63), 0)])
    def test_timestamps_of_any_size(self, tmp_path, first, second, label):
        text = f"u1\ti1\t5\t{first}\nu1\ti1\t1\t{second}\n"
        assert ingest_ratings(tmp_path, text) == (0, f"R\tu1\ti1\t{label}\n")

    @pytest.mark.parametrize("lines, r_tsv", [
        # one row without a timestamp: stream order decides the cell
        (["u1\ti1\t5\t100", "u1\ti1\t1"], "R\tu1\ti1\t0\n"),
        (["u1\ti1\t1", "u1\ti1\t5\t100"], "R\tu1\ti1\t1\n"),
        (["u1\ti1\t1\t200", "u1\ti1\t5\t100", "u2\ti1\t4"], "R\tu1\ti1\t0\nR\tu2\ti1\t1\n"),
        (["u1\ti1\t2\t5", "u2\ti2\t4", "u1\ti1\t5\t1", "u1\ti1\t1", "u1\ti1\t5\t3"],
         "R\tu1\ti1\t1\nR\tu2\ti2\t1\n"),
    ])
    def test_three_and_four_columns_mixed(self, tmp_path, lines, r_tsv):
        assert ingest_ratings(tmp_path, "\n".join(lines) + "\n") == (0, r_tsv)

    @pytest.mark.parametrize("data", [
        b"u1\ti1\t5\t1\r\nu2\ti1\t2\t1\r\nu1\ti1\t1\t2\r\n",
        b"u1\ti1\t5\t1\ru2\ti1\t2\t1\ru1\ti1\t1\t2\r",
        b"u1\ti1\t5\t1\nu2\ti1\t2\t1\r\nu1\ti1\t1\t2",
        b"\n# comment\tx\nu1\ti1\t5\t1\n\nu2\ti1\t2\t1\n#\nu1\ti1\t1\t2\n\n",
        b"u1\ti1\t5\t1\r\n\r\n#c\ru2\ti1\t2\t1\n\ru1\ti1\t1\t2\n",
    ])
    def test_line_ends_blank_and_comment_lines(self, tmp_path, data):
        assert ingest_ratings(tmp_path, data) == (0, "R\tu1\ti1\t0\nR\tu2\ti1\t0\n")

    def test_ids_keep_every_character_but_tab_and_line_ends(self, tmp_path):
        text = "\ufeffu\x85\t i#1 \t4\t1\nu \t\\x\t5\t1\n\t\t5\t1\n"
        assert ingest_ratings(tmp_path, text) == (
            0, "R\t\ufeffu\x85\t i#1 \t1\nR\tu \t\\x\t1\nR\t\t\t1\n")

    def test_empty_and_comment_only_files(self, tmp_path):
        for data in (b"", b"\n\n", b"# header\n"):
            assert ingest_ratings(tmp_path, data) == (0, "")

    @pytest.mark.parametrize("text, expected", [
        ("u1\ti1\t5\t100\nu1\ti1\t2\t200\nu2\ti1\t4\t-1\nu2\ti2\t1\t0",
         [("u1", "i1", 0), ("u2", "i1", 1), ("u2", "i2", 0)]),
        ("u1\ti1\t5\r\nu1\ti1\t2\r\nu2\ti1\t4\r\n", [("u1", "i1", 0), ("u2", "i1", 1)]),
    ])
    def test_canonical_file_skips_the_row_loop(self, tmp_path, monkeypatch, text, expected):
        path = tmp_path / "ratings.tsv"
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(ingest, "_row_ratings", None)
        assert resolve_rating_conflicts(ingest.read_ratings(path)) == expected

    @given(data=ratings_files())
    @example(data=b"u1\ti1\t5\t1\t2\nu1\ti2\t4\n")
    @example(data=b"u1\ti1\t5\t3\nu1\ti1\t1\t+3\r\n#u1\ti1\t4\t9\n")
    @settings(max_examples=300, deadline=None)
    def test_same_result_as_row_loop(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("ratings") / "ratings.tsv"
        path.write_bytes(data)
        reference = rating_outcome(lambda: TestResolveRatingConflicts.reference(
            [RawRating(*row) for row in zip(*dataclasses.astuple(ingest._row_ratings(path)))]))
        assert rating_outcome(lambda: resolve_rating_conflicts(ingest.read_ratings(path))) \
            == reference
        try:
            rows = ingest._row_ratings(path)
        except DataError:
            return
        assert [list(column) for column in dataclasses.astuple(ingest.read_ratings(path))] \
            == [list(column) for column in dataclasses.astuple(rows)]


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
