import pytest

from relfactor.cli import main
from relfactor.model import load_model

from conftest import MALFORMED_MODELS, RAW_INPUTS, write_model

SUBCOMMANDS = ["synth", "ingest", "split", "train", "evaluate", "predict",
               "nn", "project", "export-vectors"]


def run(*argv):
    return main(list(argv))


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data"
    assert run("synth", "--users", "25", "--items", "25", "--categories", "5",
               "--k-true", "2", "--noise", "0.02", "--density", "0.6",
               "--seed", "11", "--out", str(out)) == 0
    return out


@pytest.fixture
def split_dir(dataset, tmp_path):
    out = tmp_path / "split"
    assert run("split", "--schema", str(dataset / "manifest.txt"),
               "--data", str(dataset), "--mode", "cold-start", "--target", "R",
               "--cold-side", "col", "--cold-fraction", "0.1", "--seed", "7",
               "--out", str(out)) == 0
    return out


@pytest.fixture
def model_path(split_dir, tmp_path):
    path = tmp_path / "model.rfm"
    assert run("train", "--data", str(split_dir / "train"),
               "--schema", str(split_dir / "train" / "manifest.txt"),
               "--relations", "R,C", "--k", "3", "--lambda", "0.001",
               "--gamma", "0.05", "--epochs", "8", "--seed", "42",
               "--validation", str(split_dir / "validation.tsv"),
               "--out", str(path), "--log", str(tmp_path / "train.tsv")) == 0
    return path


class TestHelpAndUsage:
    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_exits_zero(self, sub, capsys):
        assert run(sub, "--help") == 0
        assert "--" in capsys.readouterr().out

    def test_top_level_help(self):
        assert run("--help") == 0

    def test_missing_required_flag_is_usage_error(self):
        assert run("synth", "--users", "5") == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_bad_choice_is_usage_error(self, dataset, tmp_path):
        assert run("split", "--schema", str(dataset / "manifest.txt"),
                   "--data", str(dataset), "--mode", "sideways", "--target", "R",
                   "--out", str(tmp_path / "s")) == 1


class TestSynthAndSplit:
    def test_synth_writes_expected_files(self, dataset):
        names = {p.name for p in dataset.iterdir()}
        assert {"manifest.txt", "entities.tsv", "R.tsv", "C.tsv"} <= names

    def test_positives_only_stream_uses_three_columns(self, dataset):
        first = (dataset / "C.tsv").read_text().splitlines()[0]
        assert len(first.split("\t")) == 3

    def test_split_outputs(self, split_dir):
        assert (split_dir / "train" / "R.tsv").exists()
        assert (split_dir / "validation.tsv").exists()
        assert (split_dir / "test.tsv").exists()
        assert (split_dir / "cold_entities.txt").read_text().strip()

    def test_split_seed_reproducible(self, dataset, tmp_path):
        a, b = tmp_path / "sa", tmp_path / "sb"
        for out in (a, b):
            assert run("split", "--schema", str(dataset / "manifest.txt"),
                       "--data", str(dataset), "--mode", "held-out", "--target", "R",
                       "--train-fraction", "0.7", "--seed", "5", "--out", str(out)) == 0
        assert (a / "test.tsv").read_text() == (b / "test.tsv").read_text()
        assert (a / "train" / "R.tsv").read_text() == (b / "train" / "R.tsv").read_text()


class TestTrainCli:
    def test_seeded_training_bit_reproducible(self, split_dir, tmp_path):
        outs = []
        for name in ("m1.rfm", "m2.rfm"):
            path = tmp_path / name
            assert run("train", "--data", str(split_dir / "train"),
                       "--schema", str(split_dir / "train" / "manifest.txt"),
                       "--relations", "R,C", "--k", "3", "--epochs", "4",
                       "--seed", "9", "--out", str(path)) == 0
            outs.append(path.read_text())
        assert outs[0] == outs[1]

    def test_model_roundtrips_bit_exactly(self, model_path, tmp_path):
        store = load_model(model_path)
        copy = tmp_path / "copy.rfm"
        from relfactor.model import save_model
        save_model(store, copy)
        assert copy.read_text() == model_path.read_text()

    def test_log_written(self, model_path, tmp_path):
        lines = (tmp_path / "train.tsv").read_text().splitlines()
        assert lines[0] == "epoch\tobjective\tval_f1\tseconds"
        assert len(lines) == 9

    def test_biases_flag_persisted(self, split_dir, tmp_path):
        path = tmp_path / "biased.rfm"
        assert run("train", "--data", str(split_dir / "train"),
                   "--schema", str(split_dir / "train" / "manifest.txt"),
                   "--relations", "R,C", "--k", "2", "--epochs", "3",
                   "--seed", "1", "--biases", "--out", str(path)) == 0
        text = path.read_text()
        assert text.startswith("relfactor-model v1 k=2 biases=1")
        assert "\noffset R " in text and "\noffset C " in text
        store = load_model(path)
        assert store.enable_biases and store.biases is not None

    def test_unknown_relation_is_data_error(self, split_dir, tmp_path):
        assert run("train", "--data", str(split_dir / "train"),
                   "--schema", str(split_dir / "train" / "manifest.txt"),
                   "--relations", "NOPE", "--k", "2", "--epochs", "1",
                   "--out", str(tmp_path / "m.rfm")) == 2

    def test_divergence_exit_code(self, split_dir, tmp_path):
        assert run("train", "--data", str(split_dir / "train"),
                   "--schema", str(split_dir / "train" / "manifest.txt"),
                   "--relations", "R", "--k", "2", "--epochs", "40",
                   "--gamma", "100000", "--lambda", "0", "--init-scale", "1.0",
                   "--seed", "1", "--out", str(tmp_path / "m.rfm")) == 3

    def test_failed_train_leaves_no_model_file(self, split_dir, tmp_path):
        target = tmp_path / "m.rfm"
        run("train", "--data", str(split_dir / "train"),
            "--schema", str(split_dir / "train" / "manifest.txt"),
            "--relations", "NOPE", "--k", "2", "--epochs", "1",
            "--out", str(target))
        assert not target.exists()
        assert not list(tmp_path.glob(".m.rfm.tmp*"))


class TestEvaluateCli:
    def test_report_and_pr_files(self, model_path, split_dir, tmp_path):
        report = tmp_path / "report.tsv"
        pr = tmp_path / "pr.tsv"
        assert run("evaluate", "--model", str(model_path),
                   "--test", str(split_dir / "test.tsv"),
                   "--report", str(report), "--pr-out", str(pr)) == 0
        head = report.read_text().splitlines()
        assert head[0] == "dataset\ttp\tfp\ttn\tfn\tprecision\trecall\tf1"
        assert all(len(line.split("\t")) == 3 for line in pr.read_text().splitlines())

    def test_missing_model_is_data_error(self, split_dir, tmp_path):
        assert run("evaluate", "--model", str(tmp_path / "nope.rfm"),
                   "--test", str(split_dir / "test.tsv")) == 2

    def test_wrong_version_is_data_error(self, split_dir, tmp_path):
        bad = tmp_path / "bad.rfm"
        bad.write_text("relfactor-model v9 k=2 biases=0\n")
        assert run("evaluate", "--model", str(bad),
                   "--test", str(split_dir / "test.tsv")) == 2


class TestPredictCli:
    def test_scores_and_labels(self, model_path, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("R\tu00\ti00\nR\tu01\ti01\n")
        out = tmp_path / "preds.tsv"
        assert run("predict", "--model", str(model_path), "--pairs", str(pairs),
                   "--out", str(out)) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert len(rows) == 2
        for row in rows:
            assert len(row) == 5
            assert 0.0 < float(row[3]) < 1.0
            assert row[4] in ("0", "1")

    def test_unknown_entity_lenient(self, model_path, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("R\tu00\ti00\nR\tghost\ti00\n")
        out = tmp_path / "preds.tsv"
        assert run("predict", "--model", str(model_path), "--pairs", str(pairs),
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[1].endswith("ERR_UNKNOWN_ENTITY")

    def test_unknown_entity_strict(self, model_path, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("R\tghost\ti00\n")
        out = tmp_path / "preds.tsv"
        assert run("predict", "--model", str(model_path), "--pairs", str(pairs),
                   "--strict", "--out", str(out)) == 2
        assert not out.exists()

    def test_empty_pairs_file(self, model_path, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("")
        out = tmp_path / "preds.tsv"
        assert run("predict", "--model", str(model_path), "--pairs", str(pairs),
                   "--out", str(out)) == 0
        assert out.read_text() == ""


class TestMalformedModelCli:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_nn_and_predict_exit_2(self, case, model_lines, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("R\tu1\tb1\n")
        good = write_model(tmp_path / "good.rfm", model_lines)
        assert run("nn", "--model", str(good), "--entity", "user:u1") == 0
        mutate, _ = MALFORMED_MODELS[case]
        bad = write_model(tmp_path / "bad.rfm", mutate(model_lines))
        assert run("nn", "--model", str(bad), "--entity", "user:u1") == 2
        out = tmp_path / "preds.tsv"
        assert run("predict", "--model", str(bad), "--pairs", str(pairs),
                   "--out", str(out)) == 2
        assert not out.exists() and not list(tmp_path.glob(".preds.tsv.tmp*"))
        assert "Traceback" not in capsys.readouterr().err


class TestEmbedCli:
    def test_nn_output(self, model_path, capsys):
        assert run("nn", "--model", str(model_path), "--entity", "item:i00",
                   "--n", "3", "--metric", "cosine") == 0
        out = capsys.readouterr().out.splitlines()
        data_rows = [line for line in out if "\t" in line]
        assert len(data_rows) == 3
        assert all(":" in row.split("\t")[0] for row in data_rows)

    def test_nn_type_filter(self, model_path, capsys):
        assert run("nn", "--model", str(model_path), "--entity", "item:i00",
                   "--n", "5", "--type", "category") == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if "\t" in line]
        assert rows and all(row.startswith("category:") for row in rows)

    def test_project_and_export(self, model_path, tmp_path):
        subset = tmp_path / "subset.txt"
        subset.write_text("item:i00\nitem:i01\nitem:i02\nuser:u00\n")
        coords = tmp_path / "coords.tsv"
        assert run("project", "--model", str(model_path), "--entities", str(subset),
                   "--out", str(coords)) == 0
        assert len(coords.read_text().splitlines()) == 4
        vectors = tmp_path / "vectors.tsv"
        assert run("export-vectors", "--model", str(model_path),
                   "--out", str(vectors)) == 0
        store = load_model(model_path)
        lines = vectors.read_text().splitlines()
        assert len(lines) == len(store.entities)
        assert len(lines[0].split("\t")) == 1 + store.k


class TestIngestCli:
    def write_raw(self, tmp_path):
        for name, text in RAW_INPUTS.items():
            (tmp_path / name).write_text(text)

    def test_full_ingest(self, tmp_path):
        self.write_raw(tmp_path)
        out = tmp_path / "tuples"
        assert run("ingest", "--schema", str(tmp_path / "schema.txt"),
                   "--ratings", str(tmp_path / "ratings.tsv"),
                   "--reviews", str(tmp_path / "reviews.tsv"),
                   "--categories", str(tmp_path / "categories.tsv"),
                   "--attributes", str(tmp_path / "attributes.tsv"),
                   "--min-word-reviews", "2", "--min-category-entities", "2",
                   "--stemmer", "porter", "--out", str(out)) == 0
        # latest-timestamp conflict resolution: (u1, i1) -> 0
        assert "R\tu1\ti1\t0" in (out / "R.tsv").read_text()
        # word threshold 2: only "taco" appears in >= 2 reviews
        bw = (out / "BW.tsv").read_text().splitlines()
        assert bw == ["BW\ti1\ttaco"]
        uw = set((out / "UW.tsv").read_text().splitlines())
        assert uw == {"UW\tu1\ttaco", "UW\tu2\ttaco"}
        # category threshold 2: "soup" (1 item) dropped
        c_lines = (out / "C.tsv").read_text().splitlines()
        assert c_lines == ["C\ti1\tmexican", "C\ti2\tmexican"]
        assert (out / "A.tsv").read_text() == "A\ti1\tSmoking(Outdoor)\n"

    def test_ingested_streams_build_and_train(self, tmp_path):
        self.write_raw(tmp_path)
        out = tmp_path / "tuples"
        assert run("ingest", "--schema", str(tmp_path / "schema.txt"),
                   "--ratings", str(tmp_path / "ratings.tsv"),
                   "--reviews", str(tmp_path / "reviews.tsv"),
                   "--min-word-reviews", "1",
                   "--out", str(out)) == 0
        model = tmp_path / "m.rfm"
        assert run("train", "--data", str(out),
                   "--schema", str(tmp_path / "schema.txt"),
                   "--relations", "R,BW,UW", "--k", "2", "--epochs", "2",
                   "--seed", "0", "--out", str(model)) == 0
        assert model.exists()

    def test_no_inputs_is_data_error(self, tmp_path):
        self.write_raw(tmp_path)
        assert run("ingest", "--schema", str(tmp_path / "schema.txt"),
                   "--out", str(tmp_path / "tuples")) == 2
