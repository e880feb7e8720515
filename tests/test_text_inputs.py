"""Every text input the CLI reads follows one set of rules: UTF-8, lines end at
\\n, \\r\\n or \\r only, and a malformed file is a data error (exit 2) that
prints no traceback and leaves no output file behind."""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from relfactor.cli import main
from relfactor.model import load_model, save_model

from conftest import RAW_INPUTS

LINE_BREAKS_OF_SPLITLINES = ["\x0c", "\x1c", "\x85", "\u2028"]
RAW_NAMES = ["ratings", "reviews", "categories", "attributes"]


def files_under(root):
    return {p for p in Path(root).rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A split dataset, a model trained on it, a pairs file, an entity list
    and the raw ingest inputs, shared read-only by the tests below."""
    root = tmp_path_factory.mktemp("trained")
    assert main(["synth", "--users", "12", "--items", "12", "--categories", "4",
                 "--k-true", "2", "--density", "0.6", "--seed", "5",
                 "--out", str(root / "data")]) == 0
    assert main(["split", "--schema", str(root / "data" / "manifest.txt"),
                 "--data", str(root / "data"), "--mode", "held-out", "--target", "R",
                 "--seed", "1", "--out", str(root / "split")]) == 0
    assert main(["train", "--data", str(root / "split" / "train"),
                 "--schema", str(root / "split" / "train" / "manifest.txt"),
                 "--relations", "R,C", "--k", "2", "--epochs", "2", "--seed", "3",
                 "--out", str(root / "model.rfm")]) == 0
    (root / "pairs.tsv").write_text("R\tu00\ti00\nR\tu01\ti02\nR\tghost\ti00\n")
    (root / "entities.txt").write_text("item:i00\n item:i01 \nitem:i02\nuser:u00\n")
    for name, text in RAW_INPUTS.items():
        (root / name).write_text(text)
    return root


def train_argv(data, schema, out, *extra):
    return ["train", "--data", str(data), "--schema", str(schema), "--relations", "R,C",
            "--k", "2", "--epochs", "1", "--seed", "0", "--out", str(out), *extra]


def ingest_argv(root, raw, out):
    return ["ingest", "--schema", str(root / "schema.txt"),
            *(arg for name in RAW_NAMES for arg in (f"--{name}", str(raw[name]))),
            "--min-word-reviews", "1", "--min-category-entities", "1", "--out", str(out)]


def input_case(name, root, work):
    """(argv, the input file named by name, the output that a failed command
    must not leave) of one command, with its inputs copied into work."""
    train_dir = shutil.copytree(root / "split" / "train", work / "train")
    schema = train_dir / "manifest.txt"
    model = shutil.copy(root / "model.rfm", work / "model.rfm")
    out, trained_model = work / "out.tsv", work / "out.rfm"
    raw = {n: root / f"{n}.tsv" for n in RAW_NAMES}
    if name == "manifest":
        return train_argv(train_dir, schema, trained_model), schema, trained_model
    if name in ("R.tsv", "entities.tsv"):
        return train_argv(train_dir, schema, trained_model), train_dir / name, trained_model
    if name == "validation":
        bad = shutil.copy(root / "split" / "validation.tsv", work)
        return (train_argv(train_dir, schema, trained_model, "--validation", bad),
                bad, trained_model)
    if name == "test":
        bad = shutil.copy(root / "split" / "test.tsv", work)
        return ["evaluate", "--model", str(model), "--test", str(bad),
                "--report", str(out)], bad, out
    if name in ("pairs", "model"):
        pairs = shutil.copy(root / "pairs.tsv", work)
        return (["predict", "--model", str(model), "--pairs", str(pairs), "--out", str(out)],
                pairs if name == "pairs" else model, out)
    if name == "entities":
        bad = shutil.copy(root / "entities.txt", work)
        return ["project", "--model", str(model), "--entities", str(bad),
                "--out", str(out)], bad, out
    raw[name] = shutil.copy(raw[name], work)
    return ingest_argv(root, raw, work / "tuples"), raw[name], work / "tuples"


@pytest.mark.parametrize("name", ["manifest", "R.tsv", "entities.tsv", "validation", "test",
                                  "pairs", "entities", "ratings", "reviews", "categories",
                                  "attributes"])
def test_non_utf8_input_is_data_error(name, trained, tmp_path, capsys):
    argv, bad, output = input_case(name, trained, tmp_path)
    data = Path(bad).read_bytes()
    Path(bad).write_bytes(data[:-1] + b"\xff\n")  # in the last line
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("relfactor: error: ")
    assert str(bad) in err[0] and "UTF-8" in err[0]
    assert not Path(output).exists()
    assert not [p for p in files_under(tmp_path) if ".tmp." in p.name]


def test_ids_with_splitlines_breaks_survive_split_train_save_load(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.txt").write_text("type user\ntype item\nrelation R user item\n")
    users = [f"u{c}{n}" for n, c in enumerate(LINE_BREAKS_OF_SPLITLINES)]
    items = [f"i{n}{c}" for n, c in enumerate(LINE_BREAKS_OF_SPLITLINES)] + ["plain"]
    (data / "R.tsv").write_text("".join(f"R\t{u}\t{i}\t{(a + b) % 2}\n"
                                        for a, u in enumerate(users)
                                        for b, i in enumerate(items)))
    split = tmp_path / "split"
    assert main(["split", "--schema", str(data / "manifest.txt"), "--data", str(data),
                 "--mode", "held-out", "--target", "R", "--seed", "2",
                 "--out", str(split)]) == 0
    model = tmp_path / "m.rfm"
    assert main(["train", "--data", str(split / "train"),
                 "--schema", str(split / "train" / "manifest.txt"), "--relations", "R",
                 "--k", "2", "--epochs", "2", "--seed", "1", "--biases",
                 "--out", str(model)]) == 0, capsys.readouterr().err
    store = load_model(model)
    assert {e.id for e in store.entities} == set(users) | set(items)
    copy = tmp_path / "copy.rfm"
    save_model(store, copy)
    assert copy.read_bytes() == model.read_bytes()


# --- fuzzing ------------------------------------------------------------------

FUZZ_TARGETS = ["R.tsv", "entities.tsv", "pairs", "model", *RAW_NAMES]

mutations = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.sampled_from([b"\xff", b"\t", b"\r", b"\x1c"]),
              st.integers(0, 10**6)),
    st.tuples(st.just("drop-field"), st.integers(0, 10**6), st.integers(0, 3)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6))), min_size=1, max_size=3)


def mutate(data: bytes, mutation) -> bytes:
    kind, *args = mutation
    if kind == "insert":
        byte, at = args
        at %= len(data) + 1
        return data[:at] + byte + data[at:]
    if kind == "truncate":
        return data[:args[0] % (len(data) + 1)]
    lines = data.split(b"\n")
    t = args[0] % len(lines)
    fields = lines[t].split(b"\t")
    del fields[args[1] % len(fields)]
    lines[t] = b"\t".join(fields)
    return b"\n".join(lines)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(target=st.sampled_from(FUZZ_TARGETS), edits=mutations)
def test_mutated_inputs_exit_0_or_2_and_leave_no_output(trained, target, edits):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argv, path, _ = input_case(target, trained, work)
        data = Path(path).read_bytes()
        for edit in edits:
            data = mutate(data, edit)
        Path(path).write_bytes(data)
        before = files_under(work)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        stderr = err.getvalue()
        assert rc in (0, 2), stderr
        assert "Traceback" not in stderr
        after = files_under(work)
        assert not [p for p in after if ".tmp." in p.name]
        if rc == 2:
            assert after == before
