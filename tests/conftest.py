import numpy as np
import pytest

from relfactor import kernel
from relfactor.model import EmbeddingStore, save_model
from relfactor.schema import build_database, parse_manifest


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import CRITERION_LINES
    except ImportError:
        return
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


HAS_COMPILER = kernel.find_compiler() is not None


@pytest.fixture
def python_only(monkeypatch, tmp_path):
    """After this is called, train() finds no compiler and an empty cache."""
    def switch():
        monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path / "empty-cache")
        monkeypatch.setattr(kernel, "find_compiler", lambda: None)
        kernel.epoch_kernel.cache_clear()
    yield switch
    kernel.epoch_kernel.cache_clear()


TWO_TYPE_MANIFEST = """\
# users rate businesses
type user
type business
relation R user business
"""

RICH_MANIFEST = """\
type user
type business
type category
type word
relation R user business
relation C business category fully_observed
relation BW business word positives_only
relation UW user word positives_only
"""

# raw ingest inputs by file name, for relfactor ingest
RAW_INPUTS = {
    "schema.txt": ("type user\ntype item\ntype category\ntype attribute\ntype word\n"
                   "relation R user item\n"
                   "relation C item category positives_only\n"
                   "relation A item attribute positives_only\n"
                   "relation BW item word positives_only\n"
                   "relation UW user word positives_only\n"),
    "ratings.tsv": "u1\ti1\t5\t100\nu1\ti1\t2\t200\nu2\ti1\t4\nu2\ti2\t1\n",
    "reviews.tsv": ("u1\ti1\tGreat tacos, the best tacos!\n"
                    "u2\ti1\ttacos again\n"
                    "u2\ti2\tterrible soup\n"),
    "categories.tsv": "i1\tmexican\ni2\tmexican\ni2\tsoup\n",
    "attributes.tsv": "i1\tSmoking\tOutdoor\n",
}


@pytest.fixture
def simple_manifest():
    return parse_manifest(TWO_TYPE_MANIFEST)


@pytest.fixture
def rich_manifest():
    return parse_manifest(RICH_MANIFEST)


@pytest.fixture
def simple_db(simple_manifest):
    stream = [
        ("R", "u1", "b1", 1),
        ("R", "u1", "b2", 0),
        ("R", "u2", "b1", 1),
    ]
    return build_database(simple_manifest, stream)


@pytest.fixture
def model_lines(simple_db, tmp_path):
    """Lines of a valid saved model over simple_db, with biases and an offset."""
    rng = np.random.default_rng(3)
    n = len(simple_db.entities)
    store = EmbeddingStore(simple_db.entities, simple_db.relations, rng.normal(size=(n, 2)),
                           enable_biases=True, biases=rng.normal(size=n), offsets=np.array([0.25]))
    path = tmp_path / "valid.rfm"
    save_model(store, path)
    return path.read_text().splitlines()


def _edit_line(prefix, edit):
    """Model-file mutation: replace the first line starting with prefix by
    the lines edit(line) returns."""
    def mutate(lines):
        t = next(n for n, line in enumerate(lines) if line.startswith(prefix))
        return lines[:t] + edit(lines[t]) + lines[t + 1:]
    return mutate


def _set_last_token(value):
    return lambda line: [line.rsplit(" ", 1)[0] + " " + value]


def _set_bias(value):
    def edit(line):
        key, _, coords = line.split("\t")
        return [f"{key}\tb={value}\t{coords}"]
    return edit


def _biases_off(lines):
    """The header says biases=0 and every entity line has b=0; offset lines stay."""
    out = []
    for line in lines:
        if line.startswith("relfactor-model"):
            line = line.replace("biases=1", "biases=0")
        elif "\tb=" in line:
            line = _set_bias(0)(line)[0]
        out.append(line)
    return out


# name -> (mutation of model_lines, pattern of the DataError it must raise)
MALFORMED_MODELS = {
    "header-token-without-equals": (_edit_line("relfactor-model", lambda l: [l + " junk"]),
                                    "malformed model header"),
    "nonpositive-k": (_edit_line("relfactor-model", lambda l: [l.replace("k=2", "k=-2")]),
                      "malformed model header"),
    "unknown-relation-flag": (_edit_line("relation ", lambda l: [l + " sideways"]),
                              "unknown flag 'sideways'"),
    "relation-over-undeclared-type": (
        _edit_line("relation ", lambda l: [l.replace("business", "shop")]),
        "undeclared entity type 'shop'"),
    "duplicate-entity": (_edit_line("user:u1\t", lambda l: [l, l]),
                         r"m\.rfm:6: duplicate entity user:u1"),
    "nan-coordinate": (_edit_line("user:u1\t", _set_last_token("nan")),
                       r"m\.rfm:5: non-finite"),
    "inf-bias": (_edit_line("user:u1\t", _set_bias("inf")), r"m\.rfm:5: non-finite"),
    "nan-offset": (_edit_line("offset ", _set_last_token("nan")), r"m\.rfm:\d+: non-finite"),
    "offset-of-undeclared-relation": (_edit_line("offset ", lambda l: [l.replace(" R ", " Q ")]),
                                      "offset of undeclared relation 'Q'"),
    "duplicate-offset": (_edit_line("offset ", lambda l: [l, "offset R 5"]),
                         r"m\.rfm:10: duplicate offset of relation 'R'"),
    "malformed-number": (_edit_line("user:u1\t", _set_last_token("0.5x")),
                         r"m\.rfm:5: malformed number"),
    "bias-without-biases": (
        _edit_line("relfactor-model", lambda l: [l.replace("biases=1", "biases=0")]),
        r"m\.rfm:5: nonzero bias in a model without biases"),
    "offset-without-biases": (_biases_off,
                              r"m\.rfm:9: offset line in a model without biases"),
}


def write_model(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path
