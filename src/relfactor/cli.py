"""Single entry point exposing the ingest / synth / split / train / evaluate /
predict / nn / project / export-vectors subcommands.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical divergence.
Output files are written to a temporary name and atomically renamed, so a
nonzero exit never leaves a partially written file behind.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import Iterator, Optional

from .errors import DataError, DivergenceError
from .evaluation import SplitSpec, classify, evaluate, split_cold_start, split_held_out
from .ingest import (PreprocessConfig, build_word_relations, filter_categories,
                     read_attributes, read_categories, read_ratings, read_reviews,
                     resolve_rating_conflicts, unwrap_attribute)
from .model import load_model, save_model, score_cells, sigmoid_array
from .schema import (Database, Manifest, build_database, format_manifest,
                     load_manifest, read_rows, read_tuple_stream, tuple_line_template)
from .synth import SynthSpec, generate_planted
from .train import TrainConfig, train
from .embed_tools import nearest_neighbors, project_2d


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@contextlib.contextmanager
def _atomic_path(path: str | os.PathLike) -> Iterator[Path]:
    """Yield a temp path; rename it onto ``path`` only on success."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
    try:
        yield tmp
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_atomic(path: str | os.PathLike, text: str) -> None:
    with _atomic_path(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def _load_database(schema_path: str, data_dir: str) -> Database:
    manifest = load_manifest(schema_path)
    data = Path(data_dir)
    if not data.is_dir():
        raise DataError(f"data directory not found: {data_dir}")
    census = None
    census_path = data / "entities.tsv"
    if census_path.exists():
        census = [(etype, eid) for _, (etype, eid) in read_rows(census_path, 2, 2)]

    def stream():
        for path in sorted(data.glob("*.tsv")):
            if path.name == "entities.tsv":
                continue
            yield from read_tuple_stream(path, manifest)

    return build_database(manifest, stream(), census=census)


def _write_database(db: Database, out_dir: str | os.PathLike) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_atomic(out / "manifest.txt", format_manifest(db.manifest))
    _write_atomic(out / "entities.tsv", "".join(f"{e.type}\t{e.id}\n" for e in db.entities))
    for name, rel in db.relations.items():
        template = tuple_line_template(rel)
        _write_atomic(out / f"{name}.tsv",
                      "".join([template % (e1, e2, y) for _, e1, e2, y in db.iter_tuples(name)]))


def _parse_entity_ref(ref: str) -> tuple[str, str]:
    etype, sep, eid = ref.partition(":")
    if not sep or not etype or not eid:
        raise DataError(f"entity reference must be <type>:<id>, got {ref!r}")
    return etype, eid


# --- subcommand handlers ------------------------------------------------------

def _cmd_synth(args) -> str:
    spec = SynthSpec(n_users=args.users, n_items=args.items,
                     n_categories=args.categories, k_true=args.k_true,
                     noise=args.noise, density=args.density,
                     c_density=args.c_density, seed=args.seed)
    db = generate_planted(spec)
    _write_database(db, args.out)
    counts = ", ".join(f"{name}={db.tuple_count(name)}" for name in db.relations)
    return f"synthesized {len(db.entities)} entities; tuples: {counts}"


def _cmd_ingest(args) -> str:
    manifest = load_manifest(args.schema)
    config = PreprocessConfig(min_word_reviews=args.min_word_reviews,
                              min_category_entities=args.min_category_entities,
                              stemmer=args.stemmer)
    out = Path(args.out)
    queued: list[tuple[Path, str]] = []  # written only after every input is read

    def relation_for(name: str, expected: set[str]):
        rel = manifest.relations.get(name)
        if rel is None:
            raise DataError(f"manifest does not declare relation {name!r}")
        if {rel.row_type, rel.col_type} != expected:
            raise DataError(f"relation {name} joins {{{rel.row_type}, {rel.col_type}}}, "
                            f"expected {{{', '.join(sorted(expected))}}}")
        return rel

    def emit(rel, triples, first_type: str):
        # triples arrive as (first_entity, second_entity, label); orient to row/col
        template = tuple_line_template(rel)
        if rel.row_type == first_type:
            lines = [template % t for t in triples]
        else:
            lines = [template % (second, first, y) for first, second, y in triples]
        queued.append((out / f"{rel.name}.tsv", "".join(lines)))

    if args.ratings:
        rel = relation_for(args.rating_relation, {args.user_type, args.item_type})
        emit(rel, resolve_rating_conflicts(read_ratings(args.ratings)), args.user_type)
    if args.categories:
        rel = relation_for(args.category_relation, {args.item_type, args.category_type})
        kept = filter_categories(read_categories(args.categories), config)
        emit(rel, [(i, c, 1) for i, c in kept], args.item_type)
    if args.attributes:
        rel = relation_for(args.attribute_relation, {args.item_type, args.attribute_type})
        pairs = [(item, unwrap_attribute(name, value), 1)
                 for item, name, value in read_attributes(args.attributes)]
        emit(rel, pairs, args.item_type)
    if args.reviews:
        reviews = read_reviews(args.reviews)
        rel = relation_for(args.item_word_relation, {args.item_type, args.word_type})
        emit(rel, [(i, w, 1) for i, w in build_word_relations(reviews, "item", config)],
             args.item_type)
        rel = relation_for(args.user_word_relation, {args.user_type, args.word_type})
        emit(rel, [(u, w, 1) for u, w in build_word_relations(reviews, "user", config)],
             args.user_type)
    if not queued:
        raise DataError("no input files given; nothing to ingest")
    out.mkdir(parents=True, exist_ok=True)
    for path, text in queued:
        _write_atomic(path, text)
    return f"wrote {len(queued)} tuple stream(s) to {out}"


def _cmd_split(args) -> str:
    db = _load_database(args.schema, args.data)
    mode = args.mode.replace("-", "_")
    spec = SplitSpec(mode=mode, target_relation=args.target,
                     train_fraction=args.train_fraction,
                     cold_fraction=args.cold_fraction,
                     cold_side=args.cold_side, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if mode == "held_out":
        train_db, val, test = split_held_out(db, spec)
        cold = None
    else:
        train_db, val, test, cold = split_cold_start(db, spec)
    _write_database(train_db, out / "train")

    def cells_text(cells):
        return "".join(f"{r}\t{a}\t{b}\t{y}\n" for r, a, b, y in cells)

    _write_atomic(out / "validation.tsv", cells_text(val))
    _write_atomic(out / "test.tsv", cells_text(test))
    if cold is not None:
        _write_atomic(out / "cold_entities.txt", "".join(f"{e.type}:{e.id}\n" for e in cold))
    summary = (f"{mode} split of {args.target}: "
               f"{train_db.tuple_count(args.target)} train, {len(val)} validation, "
               f"{len(test)} test tuples")
    if cold is not None:
        summary += f", {len(cold)} cold entities"
    return summary


def _cmd_train(args) -> str:
    db = _load_database(args.schema, args.data)
    config = TrainConfig(k=args.k, relations=args.relations.split(","),
                         lam=args.lam, gamma=args.gamma, epochs=args.epochs,
                         seed=args.seed, neg_ratio=args.neg_ratio,
                         enable_biases=args.biases, init_scale=args.init_scale)
    validation = None
    if args.validation:
        validation = list(read_tuple_stream(args.validation, db.manifest))
    store, log = train(db, config, validation=validation)
    with _atomic_path(args.out) as tmp:
        save_model(store, tmp)
    if args.log:
        _write_atomic(args.log, log.to_tsv())
    last = log.entries[-1]
    summary = f"trained {config.epochs} epochs; final objective {last.objective:.4f}"
    if validation is not None:
        best = max(e.val_f1 for e in log.entries)
        summary += f"; best validation F1 {best:.4f}"
    return summary


def _cmd_evaluate(args) -> str:
    store = load_model(args.model)
    manifest = Manifest(entity_types=list(store.entities.types),
                        relations=dict(store.relations))
    test = list(read_tuple_stream(args.test, manifest))
    report = evaluate(store, test, threshold=args.threshold)
    if args.report:
        _write_atomic(args.report, report.to_tsv())
    if args.pr_out:
        text = "".join(f"{p:.6f}\t{r:.6f}\t{t:.6g}\n" for p, r, t in report.pr_points)
        _write_atomic(args.pr_out, text)
    pooled = report.pooled
    return (f"{len(test)} cells @ threshold {args.threshold}: "
            f"precision {pooled.precision:.4f}, recall {pooled.recall:.4f}, "
            f"F1 {pooled.f1:.4f}")


def _cmd_predict(args) -> str:
    store = load_model(args.model)
    lines = []
    scored = []  # positions in lines of the pairs that resolved
    rel_ids, rows, cols = [], [], []
    for _, parts in read_rows(args.pairs, 3, 3):
        line = "\t".join(parts)
        try:
            rel, e1, e2 = store.resolve(*parts)
        except DataError:
            if args.strict:
                raise
            lines.append(f"{line}\tERR_UNKNOWN_ENTITY")
            continue
        scored.append(len(lines))
        lines.append(line)
        rel_ids.append(store.rel_ids[rel.name])
        rows.append(e1.index)
        cols.append(e2.index)
    probs = sigmoid_array(score_cells(store, rel_ids, rows, cols)).tolist()
    for t, p in zip(scored, probs):
        lines[t] += f"\t{p:.17g}\t{classify(p, args.threshold)}"
    _write_atomic(args.out, "".join(line + "\n" for line in lines))
    errors = len(lines) - len(scored)
    summary = f"scored {len(scored)} pairs"
    if errors:
        summary += f" ({errors} rows with unknown entities)"
    return summary


def _cmd_nn(args) -> str:
    store = load_model(args.model)
    etype, eid = _parse_entity_ref(args.entity)
    result = nearest_neighbors(store, etype, eid, args.n, metric=args.metric,
                               type_filter=args.type)
    body = "".join(f"{e.type}:{e.id}\t{s:.6f}\n" for e, s in result.neighbors)
    sys.stdout.write(body)
    return f"{len(result.neighbors)} neighbors of {args.entity} by {args.metric}"


def _cmd_project(args) -> str:
    store = load_model(args.model)
    subset = [_parse_entity_ref(ref.strip()) for _, (ref,) in read_rows(args.entities, 1, 1)]
    coords = project_2d(store, subset)
    text = "".join(f"{e.type}:{e.id}\t{x:.17g}\t{y:.17g}\n" for e, x, y in coords)
    _write_atomic(args.out, text)
    return f"projected {len(coords)} entities to 2-D"


def _cmd_export_vectors(args) -> str:
    store = load_model(args.model)
    rows = []
    for ent in store.entities:
        coords = "\t".join(format(c, ".17g") for c in store.vectors[ent.index])
        rows.append(f"{ent.type}:{ent.id}\t{coords}")
    _write_atomic(args.out, "".join(r + "\n" for r in rows))
    return f"exported {len(rows)} vectors of dimension {store.k}"


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relfactor",
                     description="Shared entity embeddings over multi-relational "
                                 "binary data via logistic collective factorization.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--categories", type=int, required=True)
    p.add_argument("--k-true", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--density", type=float, default=1.0,
                   help="observation probability for the preference relation R")
    p.add_argument("--c-density", type=float, default=1.0,
                   help="observation probability for the category relation C")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="convert raw domain files to tuple streams")
    p.add_argument("--schema", required=True)
    p.add_argument("--ratings")
    p.add_argument("--reviews")
    p.add_argument("--categories")
    p.add_argument("--attributes")
    p.add_argument("--min-word-reviews", type=int, default=10)
    p.add_argument("--min-category-entities", type=int, default=5)
    p.add_argument("--stemmer", choices=["porter", "none"], default="porter")
    p.add_argument("--out", required=True)
    p.add_argument("--user-type", default="user")
    p.add_argument("--item-type", default="item")
    p.add_argument("--category-type", default="category")
    p.add_argument("--attribute-type", default="attribute")
    p.add_argument("--word-type", default="word")
    p.add_argument("--rating-relation", default="R")
    p.add_argument("--category-relation", default="C")
    p.add_argument("--attribute-relation", default="A")
    p.add_argument("--item-word-relation", default="BW")
    p.add_argument("--user-word-relation", default="UW")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("split", help="hold out or cold-start split of one relation")
    p.add_argument("--schema", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=["held-out", "cold-start"], required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--train-fraction", type=float, default=0.70)
    p.add_argument("--cold-fraction", type=float, default=0.10)
    p.add_argument("--cold-side", choices=["row", "col"], default="col")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="fit embeddings by SGD")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--relations", required=True, help="comma-separated relation names")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.001)
    p.add_argument("--gamma", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--neg-ratio", type=float, default=1.0)
    p.add_argument("--biases", action="store_true")
    p.add_argument("--init-scale", type=float, default=0.01)
    p.add_argument("--validation", help="labeled cells for checkpoint-best retention")
    p.add_argument("--log", help="write per-epoch TSV log here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score labeled cells and report metrics")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--pr-out", help="write PR-curve points here")
    p.add_argument("--report", help="write the report TSV here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="score relation/entity pairs from a file")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("nn", help="nearest neighbors of an entity")
    p.add_argument("--model", required=True)
    p.add_argument("--entity", required=True, help="<type>:<id>")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--metric", choices=["dot", "cosine"], default="cosine")
    p.add_argument("--type", help="restrict candidates to one entity type")
    p.set_defaults(func=_cmd_nn)

    p = sub.add_parser("project", help="2-D principal-component projection")
    p.add_argument("--model", required=True)
    p.add_argument("--entities", required=True, help="file of <type>:<id> lines")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("export-vectors", help="dump raw embedding vectors as TSV")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_vectors)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        summary = args.func(args)
    except DivergenceError as exc:
        print(f"relfactor: divergence: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"relfactor: error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
