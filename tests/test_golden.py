"""Golden digests that pin ingested and trained outputs across refactors.

The first small fixed run covers biases and relation offsets, sampled
negatives of a positives_only relation, the validation scorer and
checkpoint-best selection (the best validation F1 is at epoch 3 of 5). The
second trains R with a fully_observed side relation and no positives_only
relation, so its cells are drawn by the lookup path only and never by rank
among a relation's free cells. A third pins every
tuple file `relfactor ingest` writes from a small raw corpus, and a fourth
the outputs of both split protocols, in memory and as every file `relfactor
split` writes. A fifth pins every file `relfactor synth` writes. The digests of
the trained runs depend on numpy's floating-point kernels and on the CPU, so
a new numpy or another machine may legitimately change them. A change that
is meant to move them must update the values and record the reason in
CHANGES.md.
"""

import hashlib

import relfactor as rf
from relfactor.cli import main

from conftest import HAS_COMPILER

MODEL_SHA256 = "2b8716cec931aead2b0789abe24c8e08f5f0101c62d27d3e0a71930cf9280edc"
REPORT_SHA256 = "e8d90926ae381906f8f1e3100e6397a7e4f1ca228a107e159e90b375fac68f09"
FULLY_OBSERVED_MODEL_SHA256 = "3900cb45ef76fefb83c83456c673627ca79c16b7f12093831c873b582562db30"
FULLY_OBSERVED_REPORT_SHA256 = "7aef85710f2a276b4b95897f450993e3aceeee96550bf34f7c849b7a437e0304"
SPLIT_SHA256 = {
    "held_out": "d318bdbe0756a877b1815396d7c66b47bd7200eede0b99a7b4e8a210dae3c2e1",
    "cold_start col": "a18ff09c9c7fe9f59d854b4ee48fe2b0cd1da58819a5e738e0eb8e2c93b4dffa",
    "cold_start row": "d434f4006b916382dd512cfecb8eb31602c03930a2f28ca2b71e0b9ca30320b8",
}
SPLIT_CLI_SHA256 = {
    "held-out-col validation.tsv": "4492bb17f4618ae4ef2349d78dd048ab67850ed4c9590319ea5f1f6375f029b8",
    "held-out-col test.tsv": "184d880c75a131aaaef263e606be5f4382793e8d373027a595032b7cde6f17b8",
    "held-out-col train/R.tsv": "89a71b7e4263d957bdf7c0a8378b20e72e24ed7ba52594d309dca2dd4e26587f",
    "cold-start-col validation.tsv": "945c2805fdddeea502067722e6afcbb12dcc43c8131a976fdeaf1d535c718338",
    "cold-start-col test.tsv": "26f2de3051b2bac4f184db387444b0bbd16a42cdff9e2eea8eed823d78bcf5b4",
    "cold-start-col train/R.tsv": "f451113ee2fc675687aa97fda04b46b92538cac80afd75e4ac790575e2758af8",
    "cold-start-col cold_entities.txt": "7be3c3538d84efab80e8f11e2ae857e327401acee98cfe42709c86e887fd6c63",
    "cold-start-row validation.tsv": "6fc5d838c3ca35326b0c57dda9d6c82a24afbd31f9ac7c073a22eaf18bfd0d0c",
    "cold-start-row test.tsv": "40f63748f716cc5111a5d1e283d0ecdfb3ad3098da6bef46be476fd7e9af1ac6",
    "cold-start-row train/R.tsv": "b1ab4611e93038de52ce3abface4f2f6f667303da8ae5798b52c987505b670a2",
    "cold-start-row cold_entities.txt": "4e4a72d2aab166eb2fa1eff8fc5cd1c93ee297874e6602d14a7673b33aa0e890",
}
SPLIT_CLI_EVERY_FILE_SHA256 = {
    "held-out-col train/manifest.txt": "b28a074cd98dbda5549942c57f67f7cdb1822f79005d300b8783fd64d348924e",
    "held-out-col train/entities.tsv": "c59ef16c32e046c96f532eb0cfb7ba7b0e1e834dae4361e9ef01c7c8610b8093",
    "held-out-col train/C.tsv": "3a3c221a31d8b85ae5479d2a55e650ab12cf619c6930538ef0825e951834b8f1",
    "cold-start-col train/manifest.txt": "b28a074cd98dbda5549942c57f67f7cdb1822f79005d300b8783fd64d348924e",
    "cold-start-col train/entities.tsv": "c59ef16c32e046c96f532eb0cfb7ba7b0e1e834dae4361e9ef01c7c8610b8093",
    "cold-start-col train/C.tsv": "3a3c221a31d8b85ae5479d2a55e650ab12cf619c6930538ef0825e951834b8f1",
    "cold-start-row train/manifest.txt": "b28a074cd98dbda5549942c57f67f7cdb1822f79005d300b8783fd64d348924e",
    "cold-start-row train/entities.tsv": "c59ef16c32e046c96f532eb0cfb7ba7b0e1e834dae4361e9ef01c7c8610b8093",
    "cold-start-row train/C.tsv": "3a3c221a31d8b85ae5479d2a55e650ab12cf619c6930538ef0825e951834b8f1",
    "held-out-C validation.tsv": "24ffa76a6d5ecc8d3ff8fab7d7d89e115a67365ae678628d6a595bdd7cee6cf4",
    "held-out-C test.tsv": "8cfd4b986bfc7494149f6da12abb32ff352ae742644bc95de0868e7a1e5e3895",
    "held-out-C train/manifest.txt": "b28a074cd98dbda5549942c57f67f7cdb1822f79005d300b8783fd64d348924e",
    "held-out-C train/entities.tsv": "c59ef16c32e046c96f532eb0cfb7ba7b0e1e834dae4361e9ef01c7c8610b8093",
    "held-out-C train/R.tsv": "3826932ea6ed21eb8b8837689923951d3c5e231c32481d65d66fc5e47cbb62ea",
    "held-out-C train/C.tsv": "946068255892c75c581e3df5ffff67c639e62f690e584837ca65f38ddaf914c3",
    "held-out-R%s validation.tsv": "07f8ffcbee35ed2fbec73f138f60d4403b91e7f2c6b25e8da977b7b9c15abff9",
    "held-out-R%s test.tsv": "2db5693eb48d3b72bd23153527640621282c0fd9afa28449e2a3255f54ecc73b",
    "held-out-R%s train/manifest.txt": "3432fcdef43f3b18ee759e81d6c982afd16c23a537db74284ed5b556b23da8ec",
    "held-out-R%s train/entities.tsv": "05bf3ad417b7f19efa0634221cc85814a911c9aa06f9b4a8d84f59c11272877e",
    "held-out-R%s train/R%s.tsv": "12891b731e45fe289ec3fad3313f9311e6f1bd41c86ac5c7ad4a5a916130b963",
    "held-out-R%s train/L%d.tsv": "1e31106b88b6e233a58f25a32ae310d8e7de76c79b7aec17026fbd84aaf59c61",
}
SYNTH_CLI_SHA256 = {
    "planted manifest.txt": "b28a074cd98dbda5549942c57f67f7cdb1822f79005d300b8783fd64d348924e",
    "planted entities.tsv": "c59ef16c32e046c96f532eb0cfb7ba7b0e1e834dae4361e9ef01c7c8610b8093",
    "planted R.tsv": "3826932ea6ed21eb8b8837689923951d3c5e231c32481d65d66fc5e47cbb62ea",
    "planted C.tsv": "3a3c221a31d8b85ae5479d2a55e650ab12cf619c6930538ef0825e951834b8f1",
    "noisy-sparse manifest.txt": "b28a074cd98dbda5549942c57f67f7cdb1822f79005d300b8783fd64d348924e",
    "noisy-sparse entities.tsv": "24d8b500c9533bada9ae47df4f86b2f8cc6a710c9706ef9a80871682fcd9e5fc",
    "noisy-sparse R.tsv": "bf3b5b570fcd8bbfec15b8c901c967c1d7181cff36b76436922c7ad92259a959",
    "noisy-sparse C.tsv": "0b684461dee41c9231a4e663212a9d5fe9874287c3d22270b9468fb7bbce9eed",
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
        parts = [list(train_db.iter_tuples("R")), list(val), list(test), [e.key for e in cold]]
        return sha256(repr(parts).encode("utf-8"))

    db = planted()
    digests = {"held_out": digest(*rf.split_held_out(db, rf.SplitSpec("held_out", "R", seed=0)))}
    for side in ("col", "row"):
        spec = rf.SplitSpec("cold_start", "R", cold_side=side, seed=0)
        digests[f"cold_start {side}"] = digest(*rf.split_cold_start(db, spec))
    assert digests == SPLIT_SHA256


def test_golden_split_cli_digests(tmp_path):
    """Every file `relfactor split` writes for the target relation, on the
    files `relfactor synth` writes for planted()'s spec."""
    data = tmp_path / "data"
    assert main(["synth", "--users", "30", "--items", "30", "--categories", "5",
                 "--k-true", "2", "--density", "0.5", "--seed", "3", "--out", str(data)]) == 0
    digests = {}
    for mode, side in (("held-out", "col"), ("cold-start", "col"), ("cold-start", "row")):
        out = tmp_path / f"{mode}-{side}"
        assert main(["split", "--schema", str(data / "manifest.txt"), "--data", str(data),
                     "--mode", mode, "--target", "R", "--cold-side", side,
                     "--out", str(out)]) == 0
        for name in ("validation.tsv", "test.tsv", "train/R.tsv", "cold_entities.txt"):
            if (out / name).exists():
                digests[f"{out.name} {name}"] = sha256((out / name).read_bytes())
    assert digests == SPLIT_CLI_SHA256


# A hand-written data directory for `relfactor split`: "%" in a relation
# name and in ids must reach the files as it is.
HAND_WRITTEN = {
    "manifest.txt": ("type user\ntype item\nrelation R%s user item\n"
                     "relation L%d item user positives_only\n"),
    "R%s.tsv": "".join(f"R%s\tu%{u}\ti{{{i}}}\t{(u + i) % 2}\n"
                       for u in range(6) for i in range(5)),
    "L%d.tsv": "".join(f"L%d\ti{{{i}}}\tu%{u}\n" for u in range(6) for i in range(5) if u > i),
}


def test_golden_split_cli_every_file(tmp_path):
    """The files `relfactor split` writes that SPLIT_CLI_SHA256 leaves out:
    the training manifest, entities and C of those three splits; every file
    of a held-out split of the positives_only C, whose validation and test
    files keep the label column; and every file of a held-out split of the
    hand-written R%s."""
    data = tmp_path / "data"
    assert main(["synth", "--users", "30", "--items", "30", "--categories", "5",
                 "--k-true", "2", "--density", "0.5", "--seed", "3", "--out", str(data)]) == 0
    hand = tmp_path / "hand"
    hand.mkdir()
    for name, text in HAND_WRITTEN.items():
        (hand / name).write_text(text, encoding="utf-8")
    splits = {"held-out-col": (data, ["--mode", "held-out", "--target", "R"]),
              "cold-start-col": (data, ["--mode", "cold-start", "--target", "R"]),
              "cold-start-row": (data, ["--mode", "cold-start", "--target", "R",
                                        "--cold-side", "row"]),
              "held-out-C": (data, ["--mode", "held-out", "--target", "C"]),
              "held-out-R%s": (hand, ["--mode", "held-out", "--target", "R%s"])}
    digests = {}
    for name, (source, options) in splits.items():
        out = tmp_path / name
        assert main(["split", "--schema", str(source / "manifest.txt"), "--data", str(source),
                     *options, "--out", str(out)]) == 0
        for path in sorted(out.rglob("*")):
            key = f"{name} {path.relative_to(out).as_posix()}"
            if path.is_file() and key not in SPLIT_CLI_SHA256:
                digests[key] = sha256(path.read_bytes())
    assert digests == SPLIT_CLI_EVERY_FILE_SHA256
    for name in ("validation.tsv", "test.tsv"):
        lines = (tmp_path / "held-out-C" / name).read_text().splitlines()
        assert lines and all(line.count("\t") == 3 and line.endswith("\t1") for line in lines)


def test_golden_synth_cli_digests(tmp_path):
    """Every file `relfactor synth` writes, for planted()'s spec and for a
    noisy spec with sparse R and C."""
    specs = {"planted": ["--users", "30", "--items", "30", "--categories", "5",
                         "--k-true", "2", "--density", "0.5", "--seed", "3"],
             "noisy-sparse": ["--users", "37", "--items", "23", "--categories", "4",
                              "--noise", "0.2", "--density", "0.05", "--c-density", "0.3",
                              "--seed", "8"]}
    digests = {}
    for name, options in specs.items():
        out = tmp_path / name
        assert main(["synth", *options, "--out", str(out)]) == 0
        for file in ("manifest.txt", "entities.tsv", "R.tsv", "C.tsv"):
            digests[f"{name} {file}"] = sha256((out / file).read_bytes())
    assert digests == SYNTH_CLI_SHA256


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
