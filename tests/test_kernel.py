"""The compiled SGD epoch kernel against the Python reference loop, and the
loader's cache: bit-identical training, divergence parity, the fallback, and
which cache files it will and will not load."""

import os
import shutil
import sysconfig
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import relfactor as rf
from relfactor import kernel
from relfactor.schema import build_database, lookup, parse_manifest

from conftest import HAS_COMPILER

needs_compiler = pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler found")

# F relates users to users, so the kernel sees diagonal cells (i == j): two
# are stored and sampled negatives can hit others
MANIFEST = ("type user\ntype item\ntype category\n"
            "relation R user item\n"
            "relation F user user positives_only\n"
            "relation C item category fully_observed\n")


def mixed_db():
    stream = [("R", f"u{u}", f"i{i}", (u * i) % 2) for u in range(20) for i in range(15)
              if (u + 2 * i) % 3 == 0]
    stream += [("F", f"u{u}", f"u{(u * 7) % 20}", 1) for u in range(20)]
    stream += [("C", f"i{i}", f"c{i % 4}", 1) for i in range(15)]
    db = build_database(parse_manifest(MANIFEST), stream)
    assert lookup(db, "F", "u0", "u0") == 1
    return db


def config(k, biases, **overrides):
    fields = dict(k=k, relations=["R", "F", "C"], lam=0.01, gamma=0.05, epochs=4,
                  seed=3, enable_biases=biases, init_scale=0.3)
    return rf.TrainConfig(**{**fields, **overrides})


@pytest.fixture
def cache(monkeypatch, tmp_path):
    """A private cache directory of this test's own."""
    directory = tmp_path / "cache"
    monkeypatch.setattr(kernel, "CACHE_DIR", directory)
    return directory


def assert_same_run(a, b):
    (store_a, log_a), (store_b, log_b) = a, b
    assert np.array_equal(store_a.vectors, store_b.vectors)
    if store_a.enable_biases:
        assert np.array_equal(store_a.biases, store_b.biases)
        assert np.array_equal(store_a.offsets, store_b.offsets)
        assert any(value != 0.0 for value in store_a.offsets)
    assert [e.objective for e in log_a.entries] == [e.objective for e in log_b.entries]


@needs_compiler
@pytest.mark.parametrize("biases", [False, True])
@pytest.mark.parametrize("k", [1, 4, 8, 30])
def test_c_and_python_kernels_bit_identical(k, biases, python_only):
    db = mixed_db()
    c_run = rf.train(db, config(k, biases))
    assert c_run[1].kernel == "c"
    python_only()
    python_run = rf.train(db, config(k, biases))
    assert python_run[1].kernel == "python"
    assert_same_run(c_run, python_run)


@needs_compiler
@pytest.mark.parametrize("gamma, lam, message", [
    (1e20, 0.1, "non-finite parameters at epoch 1 on R cell "),  # a NaN residual
    (1e5, 0.0, "parameter magnitude exceeded 1e+06 at epoch 1"),  # the end-of-epoch check
])
def test_divergence_reported_alike(python_only, gamma, lam, message):
    db = mixed_db()
    cfg = config(4, True, gamma=gamma, lam=lam, init_scale=1.0, epochs=3)
    with pytest.raises(rf.DivergenceError) as c_error:
        rf.train(db, cfg)
    python_only()
    with pytest.raises(rf.DivergenceError) as python_error:
        rf.train(db, cfg)
    assert str(c_error.value).startswith(message)
    assert str(c_error.value) == str(python_error.value)


def test_fallback_without_compiler_trains(python_only):
    db = mixed_db()
    reference = rf.train(db, config(8, True))
    python_only()
    fallback = rf.train(db, config(8, True))
    assert fallback[1].kernel == "python"
    assert reference[1].kernel == ("c" if HAS_COMPILER else "python")
    assert_same_run(reference, fallback)


@needs_compiler
def test_second_load_does_not_recompile(cache, monkeypatch):
    compiles = []
    compile_once = kernel._compile
    monkeypatch.setattr(kernel, "_compile", lambda *a: compiles.append(a) or compile_once(*a))
    assert kernel.load() is not None
    assert kernel.load() is not None
    assert len(compiles) == 1
    assert len(list(cache.glob("kernel-*.so"))) == 1


@needs_compiler
@pytest.mark.parametrize("compiler", [True, False])
def test_truncated_cache_file_is_rebuilt_or_skipped(cache, monkeypatch, tmp_path, compiler):
    assert kernel.load() is not None
    built = next(cache.glob("kernel-*.so"))
    # a truncated copy in another directory, so the file loaded above stays whole
    other = tmp_path / "other"
    other.mkdir(mode=0o700)
    (other / built.name).write_bytes(built.read_bytes()[:100])
    monkeypatch.setattr(kernel, "CACHE_DIR", other)
    if not compiler:
        monkeypatch.setattr(kernel, "find_compiler", lambda: None)
    assert (kernel.load() is not None) == compiler
    rebuilt = (other / built.name).stat().st_size == built.stat().st_size
    assert rebuilt == compiler


def planted_cache(cache, mode):
    """A cache directory holding a built kernel, then set to mode."""
    assert kernel.load() is not None
    cache.chmod(mode)


@needs_compiler
@pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
def test_shared_cache_directory_is_not_loaded_from(cache, mode):
    planted_cache(cache, mode)
    assert kernel.cache_dir() is None
    assert kernel.load() is None


@needs_compiler
def test_cache_directory_of_another_user_is_not_loaded_from(cache, monkeypatch):
    planted_cache(cache, 0o700)
    uid = os.getuid()
    monkeypatch.setattr(kernel.os, "getuid", lambda: uid + 1)
    assert kernel.cache_dir() is None
    assert kernel.load() is None


@needs_compiler
def test_symlinked_cache_directory_is_not_loaded_from(cache, monkeypatch, tmp_path):
    planted_cache(cache, 0o700)
    link = tmp_path / "link"
    link.symlink_to(cache)
    monkeypatch.setattr(kernel, "CACHE_DIR", link)
    assert kernel.cache_dir() is None


def test_kernel_source_is_a_package_resource():
    source = resources.files("relfactor").joinpath("kernel.c").read_text("utf-8")
    assert "run_epoch(" in source
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
    assert '"kernel.c"' in pyproject


def test_compiler_lookup_falls_through_to_path(monkeypatch):
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: "no-such-cc -O9")
    found = kernel.find_compiler()
    assert found is None or found[0] in (shutil.which("cc"), shutil.which("gcc"))


@needs_compiler
def test_kernel_rejects_bad_arrays():
    run_epoch = kernel.load().run_epoch
    vectors = np.zeros((3, 2))
    cells = [np.array([0]), np.array([0]), np.array([2]), np.array([1])]  # rel, row, col, label
    assert run_epoch(vectors, None, None, *cells, 0.1, 0.0) == -1
    with pytest.raises(ValueError, match="entity index"):
        run_epoch(vectors, None, None, cells[0], np.array([3]), *cells[2:], 0.1, 0.0)
    with pytest.raises(ValueError, match="relation id"):
        run_epoch(vectors, np.zeros(3), np.zeros(1), np.array([1]), *cells[1:], 0.1, 0.0)
    with pytest.raises(ValueError, match="C-contiguous float64"):
        run_epoch(np.zeros((2, 3)).T, None, None, *cells, 0.1, 0.0)
    with pytest.raises(ValueError, match="shapes"):
        run_epoch(vectors, None, None, *cells[:3], np.array([1, 0]), 0.1, 0.0)
    with pytest.raises(ValueError, match="together"):
        run_epoch(vectors, np.zeros(3), None, *cells, 0.1, 0.0)


def test_unusable_cache_or_missing_source_falls_back(cache, monkeypatch, tmp_path):
    (tmp_path / "a-file").write_text("")
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path / "a-file" / "cache")
    assert kernel.cache_dir() is None and kernel.load() is None
    monkeypatch.setattr(kernel, "CACHE_DIR", cache)
    monkeypatch.setattr(kernel.resources, "files", lambda package: tmp_path / "no-package")
    assert kernel.load() is None
