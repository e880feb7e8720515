"""Golden digests that pin trained numbers across refactors.

One small fixed run covers biases and relation offsets, the validation
scorer and checkpoint-best selection (the best validation F1 is at epoch 3
of 5). The digests depend on numpy's floating-point kernels and on the CPU,
so a new numpy or another machine may legitimately change them. A change
that is meant to move them must update both values and record the reason
in CHANGES.md.
"""

import hashlib

import relfactor as rf

MODEL_SHA256 = "5cf813daea7ac9c8851f23265807a9e0d9a18df79a7d71f2b5345b838f885184"
REPORT_SHA256 = "e8d90926ae381906f8f1e3100e6397a7e4f1ca228a107e159e90b375fac68f09"


def golden_run(tmp_path):
    db = rf.generate_planted(rf.SynthSpec(30, 30, 5, k_true=2, density=0.5, seed=3))
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
    model_bytes, report, log = golden_run(tmp_path)
    f1s = [e.val_f1 for e in log.entries]
    assert f1s.index(max(f1s)) < len(f1s) - 1  # checkpoint-best keeps an earlier epoch
    assert sha256(model_bytes) == MODEL_SHA256
    assert sha256(report.encode("utf-8")) == REPORT_SHA256
