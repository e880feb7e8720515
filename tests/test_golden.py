"""Golden digests that pin ingested and trained outputs across refactors.

The first small fixed run covers biases and relation offsets, sampled
negatives of a positives_only relation, the validation scorer and
checkpoint-best selection (the best validation F1 is at epoch 3 of 5). The
second trains R with a fully_observed side relation and no positives_only
relation, so no negative is ever rejected and redrawn. A third pins every
tuple file `relfactor ingest` writes from a small raw corpus, and a fourth
the outputs of both split protocols. The digests of
the trained runs depend on numpy's floating-point kernels and on the CPU, so
a new numpy or another machine may legitimately change them. A change that
is meant to move them must update the values and record the reason in
CHANGES.md.
"""

import hashlib

import relfactor as rf
from relfactor.cli import main

from conftest import HAS_COMPILER

MODEL_SHA256 = "6271903f39f90e8cf4222fafbad011ea5c3cc24ab00c0a68914c3b637d510db2"
REPORT_SHA256 = "f5690961f521827a8daacea81d470b8678d3a44607921d1548eec931ec6a686b"
FULLY_OBSERVED_MODEL_SHA256 = "3900cb45ef76fefb83c83456c673627ca79c16b7f12093831c873b582562db30"
FULLY_OBSERVED_REPORT_SHA256 = "7aef85710f2a276b4b95897f450993e3aceeee96550bf34f7c849b7a437e0304"
SPLIT_SHA256 = {
    "held_out": "d318bdbe0756a877b1815396d7c66b47bd7200eede0b99a7b4e8a210dae3c2e1",
    "cold_start col": "a18ff09c9c7fe9f59d854b4ee48fe2b0cd1da58819a5e738e0eb8e2c93b4dffa",
    "cold_start row": "d434f4006b916382dd512cfecb8eb31602c03930a2f28ca2b71e0b9ca30320b8",
}

FULLY_OBSERVED_MANIFEST = ("type user\ntype item\ntype category\n"
                           "relation R user item\n"
                           "relation C item category fully_observed\n")


def planted():
    return rf.generate_planted(rf.SynthSpec(30, 30, 5, k_true=2, density=0.5, seed=3))


def golden_run(tmp_path, db):
    train_db, val, test = rf.split_held_out(db, rf.SplitSpec("held_out", "R", seed=0))
    config = rf.TrainConfig(k=4, relations=["R", "C"], gamma=0.05, epochs=5, seed=0,
                            enable_biases=True)
    store, log = rf.train(train_db, config, validation=val)
    path = tmp_path / "golden.rfm"
    rf.save_model(store, path)
    return path.read_bytes(), rf.evaluate(store, test).to_tsv(), log


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def each_kernel(python_only):
    """Names "c" (when a compiler is found), then switches train() to the
    Python reference loop and names "python": the digests hold under both."""
    if HAS_COMPILER:
        yield "c"
    python_only()
    yield "python"


def test_golden_model_and_report_digests(tmp_path, python_only):
    for kernel_name in each_kernel(python_only):
        model_bytes, report, log = golden_run(tmp_path, planted())
        assert log.kernel == kernel_name
        f1s = [e.val_f1 for e in log.entries]
        assert f1s.index(max(f1s)) < len(f1s) - 1  # checkpoint-best keeps an earlier epoch
        assert sha256(model_bytes) == MODEL_SHA256
        assert sha256(report.encode("utf-8")) == REPORT_SHA256


def test_golden_split_digests():
    """The training database's R tuples in order, the validation and test
    lists and the cold entity keys of each split protocol on planted()."""
    def digest(train_db, val, test, cold=()):
        parts = [list(train_db.iter_tuples("R")), val, test, [e.key for e in cold]]
        return sha256(repr(parts).encode("utf-8"))

    db = planted()
    digests = {"held_out": digest(*rf.split_held_out(db, rf.SplitSpec("held_out", "R", seed=0)))}
    for side in ("col", "row"):
        spec = rf.SplitSpec("cold_start", "R", cold_side=side, seed=0)
        digests[f"cold_start {side}"] = digest(*rf.split_cold_start(db, spec))
    assert digests == SPLIT_SHA256


def test_golden_fully_observed_side_relation(tmp_path, python_only):
    source = planted()
    census = [(e.type, e.id) for e in source.entities]
    stream = [t for name in ("R", "C") for t in source.iter_tuples(name)]
    db = rf.build_database(rf.parse_manifest(FULLY_OBSERVED_MANIFEST), stream, census=census)
    for kernel_name in each_kernel(python_only):
        model_bytes, report, log = golden_run(tmp_path, db)
        assert log.kernel == kernel_name
        assert all(e.negatives_sampled["C"] == db.tuple_count("C") for e in log.entries)
        assert sha256(model_bytes) == FULLY_OBSERVED_MODEL_SHA256
        assert sha256(report.encode("utf-8")) == FULLY_OBSERVED_REPORT_SHA256


# A raw corpus for `relfactor ingest`, as the files hold it. The reviews mix
# capitals and repeated tokens, stopwords, "hes" (whose stem "he" is a
# stopword), tokens holding digits or other numerics ("x²", "一"), escaped
# tabs, newlines and backslashes, and an unknown escape and a trailing lone
# backslash that pass through as they are. The ratings re-rate cells with and
# without timestamps.
INGEST_RAW = {
    "schema.txt": ("type user\ntype item\ntype category\ntype attribute\ntype word\n"
                   "relation R user item\n"
                   "relation C item category positives_only\n"
                   "relation A item attribute positives_only\n"
                   "relation BW item word positives_only\n"
                   "relation UW user word positives_only\n"),
    "ratings.tsv": ("u1\ti1\t5\t100\nu1\ti1\t2\t200\nu2\ti1\t4\nu2\ti1\t1\n"
                    "u2\ti2\t3\nu3\ti2\t4\t7\nu3\ti2\t4\t9\nu3\ti3\t5\nu1\ti3\t1\t1\n"),
    "reviews.tsv": (
        "u1\ti1\tGreat TACOS, the tacos were Running\\tand running! He's hes.\n"
        "u2\ti1\tTacos again\\nand again: 2nd visit, x² stars, 一 time\\\\sad\n"
        "u2\ti2\tTerrible soup; the soups were cold\\\\\\tcold. Hes running\n"
        "u3\ti2\tsoup\\qtaco SOUP soup 42 a1b2 running connection connected\n"
        "u3\ti3\tThe tacos\\n\\nconnected generously \\\\n and tacos\\\n"
        "u1\ti3\tgenerous generously generalization hes he\\t\\ttaco \\qtaco\n"),
    "categories.tsv": "i1\tmexican\ni2\tmexican\ni2\tsoup\ni3\tmexican\ni3\tsoup\ni1\tbar\n",
    "attributes.tsv": "i1\tSmoking\tOutdoor\ni2\tWiFi\tfree\ni1\tSmoking\tOutdoor\n",
}

INGEST_SHA256 = {
    "A.tsv": "9130eb1e5d91155fbbbbe7fb202973853c2f5f802a58fe47824b40e0635e1835",
    "BW.tsv": "7f52d2147b501aeb03adc50519ad1de7d79b7791e2d4d8f4a5123ec57951d147",
    "C.tsv": "9d1e0471e10f005192f92386e9cec4c705f503181a44db1bf7d09e4477287873",
    "R.tsv": "721eb1f569590b909e7462ddb47dd9a0ee50edb88c74055cd712b66edfa8aceb",
    "UW.tsv": "9b13a1d6c6b049f40c05dfa6c7ad0ae5b3fed56b86c5bd6dfc4693e617a325e9",
}


def test_golden_ingest_digests(tmp_path):
    for name, text in INGEST_RAW.items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    out = tmp_path / "tuples"
    assert main(["ingest", "--schema", str(tmp_path / "schema.txt"),
                 "--ratings", str(tmp_path / "ratings.tsv"),
                 "--reviews", str(tmp_path / "reviews.tsv"),
                 "--categories", str(tmp_path / "categories.tsv"),
                 "--attributes", str(tmp_path / "attributes.tsv"),
                 "--min-word-reviews", "2", "--min-category-entities", "2",
                 "--out", str(out)]) == 0
    digests = {p.name: sha256(p.read_bytes()) for p in sorted(out.iterdir())}
    assert digests == INGEST_SHA256
