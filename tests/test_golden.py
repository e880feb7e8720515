"""Golden digests that pin trained numbers across refactors.

The first small fixed run covers biases and relation offsets, sampled
negatives of a positives_only relation, the validation scorer and
checkpoint-best selection (the best validation F1 is at epoch 3 of 5). The
second trains R with a fully_observed side relation and no positives_only
relation, so no negative is ever rejected and redrawn. The digests depend
on numpy's floating-point kernels and on the CPU, so a new numpy or another
machine may legitimately change them. A change that is meant to move them
must update the values and record the reason in CHANGES.md.
"""

import hashlib

import relfactor as rf

MODEL_SHA256 = "6271903f39f90e8cf4222fafbad011ea5c3cc24ab00c0a68914c3b637d510db2"
REPORT_SHA256 = "f5690961f521827a8daacea81d470b8678d3a44607921d1548eec931ec6a686b"
FULLY_OBSERVED_MODEL_SHA256 = "3900cb45ef76fefb83c83456c673627ca79c16b7f12093831c873b582562db30"
FULLY_OBSERVED_REPORT_SHA256 = "7aef85710f2a276b4b95897f450993e3aceeee96550bf34f7c849b7a437e0304"

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


def test_golden_model_and_report_digests(tmp_path):
    model_bytes, report, log = golden_run(tmp_path, planted())
    f1s = [e.val_f1 for e in log.entries]
    assert f1s.index(max(f1s)) < len(f1s) - 1  # checkpoint-best keeps an earlier epoch
    assert sha256(model_bytes) == MODEL_SHA256
    assert sha256(report.encode("utf-8")) == REPORT_SHA256


def test_golden_fully_observed_side_relation(tmp_path):
    source = planted()
    census = [(e.type, e.id) for e in source.entities]
    stream = [t for name in ("R", "C") for t in source.iter_tuples(name)]
    db = rf.build_database(rf.parse_manifest(FULLY_OBSERVED_MANIFEST), stream, census=census)
    model_bytes, report, log = golden_run(tmp_path, db)
    assert all(e.negatives_sampled["C"] == db.tuple_count("C") for e in log.entries)
    assert sha256(model_bytes) == FULLY_OBSERVED_MODEL_SHA256
    assert sha256(report.encode("utf-8")) == FULLY_OBSERVED_REPORT_SHA256
