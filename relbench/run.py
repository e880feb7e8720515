"""End-to-end benchmark of relfactor, from raw review files to served
embeddings.

    python3 relbench/run.py --workload coldstart-k8 --seed 1 --seconds 35 --trace 0
    python3 relbench/run.py --selftest

Run from the repository root. Inputs are generated from the seed; the
program is imported from ./src and driven through its public functions and
its CLI (in-process, through ``cli.main``). Each round runs the whole
pipeline and the serving calls on the same inputs and checks every output;
rounds repeat while the next one would end within ``--seconds`` (at least
two, so that two seeded rounds can be compared byte for byte). The last line of standard
output is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics from spans with ``--trace 1``.
"""

from __future__ import annotations

import os

# One BLAS thread: the workload's own process is single-threaded, and more
# threads on a shared 2-core host only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program():
    """Import relfactor from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import relfactor
    except ImportError as exc:
        sys.exit(f"relbench: cannot import relfactor from {SRC}: {exc}")
    if Path(relfactor.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"relbench: relfactor was imported from {relfactor.__file__}, not {SRC}")


_import_program()
from relfactor import cli, embed_tools, evaluation, ingest, model, rng, schema  # noqa: E402
# the package re-exports the function train(), which shadows the module
train_mod = importlib.import_module("relfactor.train")

import checks  # noqa: E402
import gauge  # noqa: E402
import gen  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, toy  # noqa: E402

SPLIT_SEED = 7
TRAIN_SEED = 42
LAM = 0.001
INIT_SCALE = 0.1
COLD_FRACTION = 0.3  # share of items held out cold by the cold-start split
NN_N = 10
SETUP_REPS = 5
# setup_s: a fresh interpreter imports relfactor and trains one epoch on a
# tiny fixed planted database.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import relfactor as rf
db = rf.generate_planted(rf.SynthSpec(30, 30, 5, k_true=2, density=0.3, seed=3))
rf.train(db, rf.TrainConfig(k=8, relations=["R", "C"], epochs=1, seed=1))
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import gauge
print(t1 - t0, gauge.read(8))
"""
PIPELINE_STEPS = ("cli.ingest", "schema.build", "evaluation.split", "train.total",
                  "evaluation.evaluate", "model.save")


class RoundAbort(Exception):
    pass


class Bench:
    """One workload run: inputs, the round loop, timing, checks, metrics."""

    def __init__(self, spec, seed: int, traced: bool, work: Path):
        self.spec = spec
        self.work = work
        self.tracer = Tracer() if traced else None
        self.attempted = 0
        self.failed = 0
        self.in_flight = 0  # operations in the last call, failed by a failed check
        self.samples: dict[str, list[float]] = {}
        self.layers: dict[str, list[float]] = {}
        self.model_digest = None
        self.vectors = None
        self.test_f1 = None
        # traced run: per-round token and stem counts
        self.tokens = 0
        self.stem_repeats = 0
        self.stem_seen: set[str] = set()
        self.inputs = gen.generate(spec, seed, ROOT, work / "raw")
        self.ops_per_round = (6 + spec.load_samples + spec.predict_samples
                              + spec.nn_batches * len(self.inputs.nn_queries) + 1)

    # --- timing and accounting ------------------------------------------------

    def op(self, name: str, fn, *args, ops: int = 1, **kwargs):
        """Run one call of the round that counts as ``ops`` operations; returns
        (result, reference seconds). Untraced, the call is bracketed by gauge
        readings; traced, it is a span."""
        self.attempted += ops
        self.in_flight = ops
        # Hide the benchmark's own heap from the cyclic collector, so that
        # collections the call triggers scan only what the call allocates.
        gc.freeze()
        try:
            if self.tracer is not None:
                return self.tracer.call(name, fn, *args, **kwargs), 0.0
            return gauge.timed(fn, *args, **kwargs)
        except Exception:
            self.failed += ops
            traceback.print_exc(file=sys.stderr)
            raise RoundAbort(name) from None
        finally:
            gc.unfreeze()

    def check(self, name: str, fn, *args):
        """Run a check of the last call; a failure fails all of its operations."""
        try:
            return fn(*args)
        except Exception as exc:
            self.failed += self.in_flight
            print(f"relbench: check failed after {name}: {exc!r}", file=sys.stderr)
            if not isinstance(exc, checks.CheckFailed):
                traceback.print_exc(file=sys.stderr)
            raise RoundAbort(name) from None

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    # --- one round ------------------------------------------------------------

    def round(self, r: int) -> None:
        gc.collect()  # the previous round's cyclic garbage
        spec, inp, work = self.spec, self.inputs, self.work
        tuples_dir = work / "tuples"
        model_path = work / "model.rfm"
        times: dict[str, float] = {}

        quiet = io.StringIO()

        def run_cli(argv):
            with contextlib.redirect_stdout(quiet):
                return cli.main(argv)

        argv = ["ingest", "--schema", str(inp.schema), "--ratings", str(inp.ratings),
                "--reviews", str(inp.reviews), "--categories", str(inp.categories),
                "--attributes", str(inp.attributes),
                "--min-word-reviews", str(spec.min_word_reviews),
                "--min-category-entities", str(spec.min_category_entities),
                "--out", str(tuples_dir)]
        rc, times["cli.ingest"] = self.op("cli.ingest", run_cli, argv)
        self.check("ingest", checks.require, rc == 0, f"ingest exited {rc}")
        self.check("ingest", checks.ingest, tuples_dir, inp)

        manifest = schema.load_manifest(inp.schema)
        paths = sorted(tuples_dir.glob("*.tsv"))

        def stream():
            for p in paths:
                yield from schema.read_tuple_stream(p, manifest)

        db, times["schema.build"] = self.op("schema.build", schema.build_database,
                                            manifest, stream())
        self.check("build_database", checks.database, db, inp)

        if spec.split == "cold_start":
            sspec = evaluation.SplitSpec("cold_start", "R", cold_fraction=COLD_FRACTION,
                                         cold_side="col", seed=SPLIT_SEED)
            (train_db, val, test, cold), times["evaluation.split"] = self.op(
                "evaluation.split", evaluation.split_cold_start, db, sspec)
        else:
            sspec = evaluation.SplitSpec("held_out", "R", seed=SPLIT_SEED)
            (train_db, val, test), times["evaluation.split"] = self.op(
                "evaluation.split", evaluation.split_held_out, db, sspec)
            cold = None
        self.check("split", checks.split, db, train_db, val, test, cold, spec.split)

        config = train_mod.TrainConfig(k=spec.k, relations=list(spec.relations),
                                       lam=LAM, gamma=spec.gamma,
                                       epochs=spec.epochs, init_scale=INIT_SCALE,
                                       seed=TRAIN_SEED)
        (store, log), times["train.total"] = self.op("train.total", train_mod.train,
                                                     train_db, config, validation=val)
        observed = sum(train_db.tuple_count(name) for name in spec.relations)
        negatives = sum(sum(e.negatives_sampled.values()) for e in log.entries)
        updates = observed * spec.epochs + negatives
        self.check("train", checks.train, log, spec.epochs, updates)

        report, times["evaluation.evaluate"] = self.op("evaluation.evaluate",
                                                       evaluation.evaluate, store, test)
        _, times["model.save"] = self.op("model.save", model.save_model, store, model_path)
        digest = hashlib.sha256(model_path.read_bytes()).hexdigest()
        if self.vectors is None:
            vec_path = work / "vectors.tsv"
            rc = self.check("save", run_cli, ["export-vectors", "--model", str(model_path),
                                              "--out", str(vec_path)])
            self.check("save", checks.require, rc == 0, f"export-vectors exited {rc}")
            self.vectors = checks.Vectors(vec_path)
            self.model_digest = digest
        self.check("save", checks.require, digest == self.model_digest,
                   "save: two seeded rounds wrote different model files")
        self.check("evaluate", checks.evaluate, report, test, self.vectors)
        f1 = report.pooled.f1
        self.check("evaluate", checks.require, self.test_f1 in (None, f1),
                   "evaluate: test F1 differs between seeded rounds")
        self.test_f1 = f1

        # --- serving: repeated model loads, CLI predict, nn queries, projection
        loaded = None
        for _ in range(spec.load_samples):
            stores, secs = self.op("serve.load", lambda: [model.load_model(model_path)
                                                          for _ in range(spec.load_reps)])
            for s in stores:
                self.check("load", checks.same_store, store, s)
            loaded = stores[-1]
            self.sample("model_load_s", secs / spec.load_reps)

        pred_out = work / "scored.tsv"
        for _ in range(spec.predict_samples):
            rc, secs = self.op("cli.predict", run_cli, ["predict", "--model", str(model_path),
                                                        "--pairs", str(inp.pairs),
                                                        "--out", str(pred_out)])
            self.check("predict", checks.require, rc == 0, f"predict exited {rc}")
            n = self.check("predict", checks.predict, pred_out, inp.pairs, self.vectors)
            self.sample("predict_pairs_per_s", n / secs if secs else 0.0)

        candidates = 0
        for _ in range(spec.nn_batches):
            queries = inp.nn_queries
            results, secs = self.op("embed_tools.nn", lambda: [
                embed_tools.nearest_neighbors(loaded, t, i, NN_N, metric="cosine",
                                              type_filter=f) for t, i, f in queries],
                ops=len(queries))
            for (t, i, f), res in zip(queries, results):
                candidates += self.check("nn", checks.nearest, res, f"{t}:{i}", f, NN_N,
                                         self.vectors)
            self.sample("nn_queries_per_s", len(queries) / secs if secs else 0.0)

        coords, _ = self.op("embed_tools.project", embed_tools.project_2d, loaded,
                            inp.project_subset)
        self.check("project", checks.project, coords, inp.project_subset, self.vectors)

        if self.tracer is None:
            self.sample("pipeline_s", sum(times[k] for k in PIPELINE_STEPS))
            self.sample("train_updates_per_s", updates / times["train.total"])
            self.sample("ingest_tokens_per_s", inp.raw_tokens / times["cli.ingest"])
        else:
            self._layer_probes(train_db, config, store, log, model_path)
            self._layer_counts(db, test, log, updates, negatives, model_path, candidates)

    # --- traced run -----------------------------------------------------------

    def _layer_probes(self, train_db, config, store, log, model_path) -> None:
        """Layer calls outside train(): one epoch's negative sampling and
        objective, and model.score over the pairs file."""
        negs = []
        with self.tracer.span("train.sample"):
            for pos, name in enumerate(config.relations):
                if train_db.relation(name).positives_only:
                    count = log.entries[0].negatives_sampled[name]
                    cells, _ = train_mod.sample_negatives(
                        train_db, name, count, rng.substream(config.seed, "negatives", 1, pos))
                    negs.extend((name, i, j) for i, j in cells)
        with self.tracer.span("train.objective"):
            model.log_likelihood(store, train_db, config.relations, config.lam,
                                 sampled_negatives=negs)
        pairs = [line.split("\t") for line in
                 self.inputs.pairs.read_text("utf-8").splitlines()]
        with self.tracer.span("model.score"):
            for rel, u, i in pairs:
                model.score(store, rel, u, i)

    def _layer_counts(self, db, test, log, updates, negatives, model_path, candidates):
        positives_only_negs = sum(n for e in log.entries
                                  for name, n in e.negatives_sampled.items()
                                  if db.relation(name).positives_only)
        counts = {
            "schema.tuples": db.total_tuples(),
            "evaluation.cells": len(test),
            "train.updates": updates,
            "train.negatives": negatives,
            "train.degenerate_epochs": sum(e.degenerate_sampling for e in log.entries),
            "train.val_collision_share":
                sum(e.val_negative_collisions for e in log.entries)
                / max(1, positives_only_negs),
            "model.file_mb": model_path.stat().st_size / 1e6,
            "embed_tools.candidates": candidates,
        }
        for name, value in counts.items():
            self.layers.setdefault(name, []).append(float(value))

    def install_wrappers(self) -> None:
        """Spans around the module calls the CLI makes, plus hot counters for
        the per-token stemmer; only the traced run installs them."""
        t = self.tracer
        for fn in ("read_ratings", "read_reviews", "read_categories", "read_attributes"):
            t.wrap(cli, fn, "ingest.read")
        t.wrap(cli, "resolve_rating_conflicts", "ingest.ratings")
        t.wrap(cli, "filter_categories", "ingest.categories")
        t.wrap(cli, "build_word_relations", "ingest.words")
        t.wrap(cli, "load_model", "model.load")
        t.wrap(model, "load_model", "model.load")
        seen = self.stem_seen

        def after_stem(args, _result):
            if args[0] in seen:
                self.stem_repeats += 1
            else:
                seen.add(args[0])

        t.wrap(ingest, "porter_stem", "porter.stem", hot=True, after=after_stem)
        counts = self.inputs.token_counts
        original = ingest.tokenize_review

        def counting_tokenize(text, config):
            n = counts.get(text)
            self.tokens += n if n is not None else len(ingest._TOKEN_RE.findall(text))
            return original(text, config)

        t.patch(ingest, "tokenize_review", counting_tokenize)

    def traced_round(self, r: int) -> None:
        t = self.tracer
        t.round = r
        self.stem_repeats, self.tokens = 0, 0
        self.stem_seen.clear()
        t.take_hot()
        g0 = gauge.read()
        self.round(r)
        scale = gauge.REFERENCE_S / ((g0 + gauge.read()) / 2.0)
        self_s = t.self_times(r)
        calls, stem_s = t.take_hot().get("porter.stem", (0, 0.0))
        loads = sum(1 for s in t.spans if s[5] == r and s[0] == "model.load")
        seconds = {
            "ingest.read_s": self_s.get("ingest.read", 0.0),
            "ingest.ratings_s": self_s.get("ingest.ratings", 0.0),
            "ingest.words_s": self_s.get("ingest.words", 0.0),
            "porter.stem_s": stem_s,
            "schema.build_s": self_s["schema.build"],
            "evaluation.split_s": self_s["evaluation.split"],
            "evaluation.evaluate_s": self_s["evaluation.evaluate"],
            "train.total_s": self_s["train.total"],
            "train.sample_s": self_s["train.sample"],
            "train.objective_s": self_s["train.objective"],
            "model.save_s": self_s["model.save"],
            "model.load_s": self_s.get("model.load", 0.0) / max(1, loads),
            "model.score_s": self_s["model.score"],
            "cli.predict_s": self_s["cli.predict"],
            "embed_tools.nn_s": self_s["embed_tools.nn"],
            "embed_tools.project_s": self_s["embed_tools.project"],
        }
        seconds["train.other_s"] = seconds["train.total_s"] - self.spec.epochs * (
            seconds["train.sample_s"] + seconds["train.objective_s"])
        for name, value in seconds.items():
            self.layers.setdefault(name, []).append(value * scale)
        self.layers.setdefault("ingest.tokens", []).append(float(self.tokens))
        self.layers.setdefault("porter.repeat_share", []).append(
            self.stem_repeats / calls if calls else 0.0)
        pipeline = sum(e - s for name, s, e, _p, _c, rnd in t.spans
                       if rnd == r and name in PIPELINE_STEPS)
        self.sample("pipeline_s", pipeline * scale)

    # --- the run --------------------------------------------------------------

    def measure(self, seconds: float) -> int:
        if self.tracer is not None:
            self.install_wrappers()
        start = time.perf_counter()
        rounds = 0
        try:
            # whole rounds only, and none that would end past ``seconds``
            while rounds < 2 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
                before = self.attempted
                try:
                    (self.traced_round if self.tracer else self.round)(rounds)
                except RoundAbort:
                    # the rest of the round counts as attempted and failed
                    missing = self.ops_per_round - (self.attempted - before)
                    self.attempted += max(0, missing)
                    self.failed += max(0, missing)
                rounds += 1
        finally:
            if self.tracer is not None:
                self.tracer.restore()
        return rounds


def measure_setup() -> list[float]:
    """Reference seconds of fresh interpreters that import relfactor and
    train one epoch on a tiny database. Each child times itself from its
    first statement and reads the gauge right after, on whatever core it ran."""
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("setup interpreter failed")
        wall, g = (float(x) for x in proc.stdout.split())
        out.append(wall * gauge.REFERENCE_S / g)
    return out


def metric_table() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run(workload: str, seed: int, seconds: float, traced: bool, small: bool) -> int:
    spec = WORKLOADS[workload]
    if small:
        spec = toy(spec)
    work = ROOT / ".relbench_work" / f"{workload}-{seed}-{os.getpid()}"
    table = metric_table()
    try:
        bench = Bench(spec, seed, traced, work)
        setup = [] if traced else measure_setup()
        rounds = bench.measure(seconds)
        if traced:
            bench.tracer.write(ROOT / ".relbench_out" / f"trace-{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    med = {k: statistics.median(v) for k, v in bench.samples.items()}
    if traced:
        wanted = table["per_layer"]
        values = {k: statistics.median(v) for k, v in bench.layers.items()}
        print(f"# traced pipeline_s {med.get('pipeline_s', float('nan')):.6g} s "
              f"over {rounds} rounds")
    else:
        wanted = table["end_to_end"]
        values = dict(med)
        values["setup_s"] = statistics.median(setup)
        values["test_f1"] = bench.test_f1
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        counts = " ".join(f"{k}={len(v)}" for k, v in bench.samples.items())
        print(f"# {rounds} rounds; samples per median: setup_s={len(setup)} {counts}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            print(f"relbench: metric {m['name']} was not measured", file=sys.stderr)
            continue
        print(f"{m['name']} {value:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = bench.failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def selftest() -> int:
    """Every workload at toy size, traced and untraced, in its own process;
    checks the printed metric names and units against BENCHMARK.json."""
    table = metric_table()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"],
                capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            wanted = {m["name"]: m["unit"]
                      for m in table["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()} if result else {}
            good = (proc.returncode == 0 and result is not None and result["correct"]
                    and result["failed"] == 0 and got == wanted)
            ok = ok and good
            print(f"{'ok  ' if good else 'FAIL'} {workload} trace={trace}")
            if not good:
                sys.stderr.write(proc.stderr[-4000:])
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="shrink the workload (self-test)")
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at toy size and check the output form")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)


if __name__ == "__main__":
    sys.exit(main())
