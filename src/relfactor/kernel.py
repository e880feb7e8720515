"""Loader of the compiled kernels, ``kernel.c``: the SGD epoch of train();
the number parser of load_model(), which reads a decimal of at most 19
significant digits and a decimal exponent in -27..27 exactly with integer
arithmetic and any other with strtod, so every number has float()'s bits;
and the row formatter of model.write_rows, whose blocks schema.write_files writes:
it prints every number in 1e-16 <= |x| < 2^128, and both zeros, as ``"%.17g" % x``.

The library is compiled on first use, with sysconfig's CC or else ``cc`` or
``gcc`` on PATH, and cached per user in ``$XDG_CACHE_HOME/relfactor`` (else
``~/.cache/relfactor``), or else in a private directory under the system
temp directory. The cached file is named by the sha256 of the source, the
flags and the machine, so it is built once per machine and rebuilt when the
source changes. A cache directory is used only when it is a directory owned
by the current user that no one else can write to.

``library()`` returns the one ``Library`` of a process, or None when there
is no compiler, the compile fails, no cache directory is usable or the
library does not load; train() then runs its Python reference loop,
load_model() reads the numbers with float() and write_rows formats them
with its "%" template, which give the same numbers, bytes and errors.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import stat
import tempfile
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
COMPILE_TIMEOUT_S = 120
CACHE_DIR: Optional[Path] = None  # when set, the only cache directory tried

EpochKernel = Callable[..., int]
RowParser = Callable[[bytes, int, int, int], Optional[tuple[np.ndarray, np.ndarray]]]
RowFormatter = Callable[..., tuple[int, int]]


class Library(NamedTuple):
    run_epoch: EpochKernel
    parse_rows: RowParser
    format_rows: RowFormatter


# The compile path imports shlex, subprocess and sysconfig itself: a process
# that loads the cached kernel then skips their ~7 ms of import time.

def find_compiler() -> Optional[list[str]]:
    """argv prefix of a C compiler: sysconfig's CC, else cc or gcc on PATH."""
    import shlex
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if cc and shutil.which(cc[0]):
        return cc
    for name in ("cc", "gcc"):
        path = shutil.which(name)
        if path:
            return [path]
    return None


def _private(directory: Path) -> bool:
    """Whether directory is a real directory of ours that only we can write."""
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = directory.lstat()
    except OSError:
        return False
    return (stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
            and os.access(directory, os.W_OK))


def cache_dir() -> Optional[Path]:
    if CACHE_DIR is not None:
        candidates = [Path(CACHE_DIR)]
    else:
        base = os.environ.get("XDG_CACHE_HOME", "")
        if not os.path.isabs(base):
            base = os.path.join(os.path.expanduser("~"), ".cache")
        candidates = [Path(base, "relfactor"),
                      Path(tempfile.gettempdir(), f"relfactor-{os.getuid()}")]
    return next((d for d in candidates if _private(d)), None)


def _compile(cc: list[str], source: bytes, target: Path) -> bool:
    """Build target from source; a unique temporary name is renamed into
    place, so processes compiling at once each leave a whole file."""
    import subprocess

    try:
        fd, tmp = tempfile.mkstemp(prefix=target.name + ".", dir=target.parent)
    except OSError:
        return False
    os.close(fd)
    try:
        proc = subprocess.run([*cc, *FLAGS, "-o", tmp, "-x", "c", "-", "-lm"], input=source,
                              capture_output=True, timeout=COMPILE_TIMEOUT_S)
        if proc.returncode == 0:
            os.replace(tmp, target)
        return proc.returncode == 0
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path) -> Optional[Library]:
    try:
        lib = ctypes.CDLL(str(path))
        return Library(_epoch(lib.run_epoch), _rows(lib.parse_rows), _format(lib.format_rows))
    except (OSError, AttributeError):
        return None


def _epoch(fn) -> EpochKernel:
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    fn.argtypes = [ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, f64, f64]
    fn.restype = i64

    def run_epoch(vectors: np.ndarray, biases: Optional[np.ndarray],
                  offsets: Optional[np.ndarray], rel: np.ndarray, rows: np.ndarray,
                  cols: np.ndarray, labels: np.ndarray, gamma: float, lam: float) -> int:
        """Same contract as train._python_epoch. The parameters are updated
        in place, so they must be float64 arrays with numpy's carray flag,
        C-contiguous, aligned and writeable (a read-only one raises before any
        update, as in the Python loop); every index is checked before the
        kernel dereferences it."""
        params = [a for a in (vectors, biases, offsets) if a is not None]
        if not all(a.dtype == np.float64 and a.flags.carray for a in params):
            raise ValueError("parameters must be writeable C-contiguous float64 arrays")
        rel, rows, cols, labels = (np.ascontiguousarray(a, dtype=np.int64)
                                   for a in (rel, rows, cols, labels))
        n = len(rows)
        if vectors.ndim != 2 or not len(rel) == len(cols) == len(labels) == n:
            raise ValueError("mismatched parameter or column shapes")
        if (biases is None) != (offsets is None) or (biases is not None
                                                      and biases.shape != vectors.shape[:1]):
            raise ValueError("biases and offsets must be given together, one bias per entity")
        if n and not (0 <= min(rows.min(), cols.min()) <= max(rows.max(), cols.max())
                      < len(vectors)):
            raise ValueError("entity index out of range")
        if n and offsets is not None and not 0 <= rel.min() <= rel.max() < len(offsets):
            raise ValueError("relation id out of range")
        return fn(vectors.ctypes.data, vectors.shape[1],
                  None if biases is None else biases.ctypes.data,
                  None if offsets is None else offsets.ctypes.data,
                  rel.ctypes.data, rows.ctypes.data, cols.ctypes.data, labels.ctypes.data,
                  n, gamma, lam)
    return run_epoch


def _rows(fn) -> RowParser:
    i64 = ctypes.c_int64
    fn.argtypes = [ctypes.c_char_p, i64, i64, i64, ctypes.c_void_p, ctypes.c_void_p, i64]
    fn.restype = i64

    def parse_rows(data: bytes, start: int, k: int,
                   max_rows: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Biases (n,) and vectors (n, k) of the n entity lines of the
        model-file text data from byte start on, n at most max_rows; None
        when a line is refused, or when the text is too short to hold a
        single row, which is checked before anything is allocated. Only the
        numbers are read: load_model checks the keys and offset lines. See
        parse_rows in kernel.c for the lines and numbers it accepts."""
        if not isinstance(data, bytes) or k < 1 or max_rows < 0 or start < 0:
            raise ValueError("data must be bytes, k positive, max_rows and start nonnegative")
        # each number takes at least a digit and a separator, so no more rows fit
        capacity = min(max_rows, (len(data) - start) // (2 * (k + 1)))
        if capacity < 1:
            return None
        biases, vectors = np.empty(capacity), np.empty((capacity, k))
        n = fn(data, start, len(data), k, biases.ctypes.data, vectors.ctypes.data, capacity)
        return None if n < 0 else (biases[:n], vectors[:n])
    return parse_rows


def _format(fn) -> RowFormatter:
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    fn.argtypes = [ctypes.c_char_p, ptr, ptr, ptr, i64, i64, ctypes.c_char, ptr, i64,
                   ctypes.POINTER(i64)]
    fn.restype = i64

    def format_rows(keys: bytes, offsets: np.ndarray, biases: Optional[np.ndarray],
                    vectors: np.ndarray, sep: bytes, out: np.ndarray) -> tuple[int, int]:
        """(rows, length): the first rows lines of the n rows of vectors,
        written to out[:length]. Row r's key is keys[offsets[r]:offsets[r+1]]
        (n + 1 int64 offsets), its bias biases[r], with no bias field when
        biases is None, and its coordinates are separated by the one byte
        sep. rows < n when row rows holds a number outside the exact range
        or might not fit in the rest of out. See format_rows in kernel.c."""
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        n = len(vectors)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if biases is not None:
            biases = np.ascontiguousarray(biases, dtype=np.float64)
        if vectors.ndim != 2 or offsets.shape != (n + 1,) or (biases is not None
                                                              and biases.shape != (n,)):
            raise ValueError("need (n, k) vectors, n + 1 offsets and n biases")
        if not (isinstance(keys, bytes) and len(sep) == 1 and out.dtype == np.uint8
                and out.ndim == 1 and out.flags.c_contiguous and out.flags.writeable):
            raise ValueError("keys must be bytes, sep one byte and out a writable byte array")
        if n and not (0 <= offsets[0] and (np.diff(offsets) >= 0).all()
                      and offsets[-1] <= len(keys)):
            raise ValueError("key offsets out of order or out of range")
        length = ctypes.c_int64()
        rows = fn(keys, offsets.ctypes.data, None if biases is None else biases.ctypes.data,
                  vectors.ctypes.data, n, vectors.shape[1], sep, out.ctypes.data, len(out),
                  ctypes.byref(length))
        return rows, length.value
    return format_rows


def load() -> Optional[Library]:
    """The compiled library from the cache, compiling it if needed; None
    when it cannot be had."""
    if os.name != "posix":
        return None
    directory = cache_dir()
    if directory is None:
        return None
    try:
        source = resources.files("relfactor").joinpath("kernel.c").read_bytes()
    except OSError:  # an install without the package data
        return None
    key = b"\0".join([source, " ".join(FLAGS).encode(), platform.machine().encode()])
    path = directory / f"kernel-{hashlib.sha256(key).hexdigest()[:24]}.so"
    if path.exists():
        library = _open(path)
        if library is not None:
            return library
    cc = find_compiler()
    if cc is None or not _compile(cc, source, path):
        return None
    return _open(path)


@functools.cache
def library() -> Optional[Library]:
    """load(), once per process: on the first train() or load_model(), never
    at import."""
    return load()

