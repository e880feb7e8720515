"""Single entry point exposing the ingest / synth / split / train / evaluate /
predict / nn / project / export-vectors subcommands.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical divergence.
Each command hands all of its output files, as blocks of bytes, to one
schema.write_files call: every file is written to a temporary name and
renamed onto its target only once all of them are whole, so a failure
while writing leaves none of them and no temporary file (a failing rename
can still leave earlier targets renamed). A warning prints as one
"relfactor: warning:" line.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path
from typing import Optional

from .errors import DataError, DivergenceError
from .evaluation import (SplitSpec, check_threshold, classify, evaluate, split_cold_start,
                         split_held_out)
from .ingest import (PreprocessConfig, build_word_relations, filter_categories,
                     read_attributes, read_categories, read_ratings, read_reviews,
                     resolve_rating_conflicts, unwrap_attribute)
from .model import load_model, model_blocks, score_cells, sigmoid_array, write_rows
from .schema import (Database, Manifest, build_database, format_manifest, lines,
                     load_manifest, read_columns, read_tuple_stream, tuple_line_template,
                     write_files)
from .synth import SynthSpec, generate_planted
from .train import TrainConfig, train
from .embed_tools import nearest_neighbors, project_2d


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load_database(schema_path: str, data_dir: str) -> Database:
    manifest = load_manifest(schema_path)
    data = Path(data_dir)
    if not data.is_dir():
        raise DataError(f"data directory not found: {data_dir}")
    census = None
    census_path = data / "entities.tsv"
    if census_path.exists():
        census = list(zip(*read_columns(census_path, 2, 2)))

    def stream():
        for path in sorted(data.glob("*.tsv")):
            if path.name == "entities.tsv":
                continue
            yield from read_tuple_stream(path, manifest)

    return build_database(manifest, stream(), census=census)


def _database_files(db: Database, out: Path) -> list:
    out.mkdir(parents=True, exist_ok=True)
    files = [(out / "manifest.txt", [format_manifest(db.manifest).encode()]),
             (out / "entities.tsv", lines("%s\t%s\n", ((e.type, e.id) for e in db.entities)))]
    return files + [(out / f"{name}.tsv", lines(tuple_line_template(rel), db.iter_tuples(name)))
                    for name, rel in db.relations.items()]


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
    write_files(_database_files(db, Path(args.out)))
    counts = ", ".join(f"{name}={db.tuple_count(name)}" for name in db.relations)
    return f"synthesized {len(db.entities)} entities; tuples: {counts}"


def _cmd_ingest(args) -> str:
    manifest = load_manifest(args.schema)
    config = PreprocessConfig(min_word_reviews=args.min_word_reviews,
                              min_category_entities=args.min_category_entities,
                              stemmer=args.stemmer)
    out = Path(args.out)
    queued: dict[str, list[bytes]] = {}  # relation -> blocks, written once every input is read

    def relation_for(name: str, expected: set[str]):
        rel = manifest.relations.get(name)
        if rel is None:
            raise DataError(f"manifest does not declare relation {name!r}")
        if {rel.row_type, rel.col_type} != expected:
            raise DataError(f"relation {name} joins {{{rel.row_type}, {rel.col_type}}}, "
                            f"expected {{{', '.join(sorted(expected))}}}")
        return rel

    def emit(rel, triples, first_type: str):
        if rel.name in queued:
            raise DataError(f"two inputs map to relation {rel.name}; give each its own relation")
        # triples arrive as (first_entity, second_entity, label); orient to row/col
        if rel.row_type != first_type:
            triples = [(second, first, y) for first, second, y in triples]
        # a positives_only line has no label column, so label 0 would read back as 1
        zero = rel.positives_only and next((t for t in triples if not t[2]), None)
        if zero:
            raise DataError(f"relation {rel.name} is positives_only but tuple "
                            f"({zero[0]},{zero[1]}) has label 0")
        # the name baked in; formatted now, so the triples are freed before the next input
        template = tuple_line_template(rel).replace("%s", rel.name.replace("%", "%%"), 1)
        queued[rel.name] = list(lines(template, triples))

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
        item_pairs, user_pairs = build_word_relations(read_reviews(args.reviews), config)
        rel = relation_for(args.item_word_relation, {args.item_type, args.word_type})
        emit(rel, [(i, w, 1) for i, w in item_pairs], args.item_type)
        rel = relation_for(args.user_word_relation, {args.user_type, args.word_type})
        emit(rel, [(u, w, 1) for u, w in user_pairs], args.user_type)
    if not queued:
        raise DataError("no input files given; nothing to ingest")
    out.mkdir(parents=True, exist_ok=True)
    write_files((out / f"{name}.tsv", blocks) for name, blocks in queued.items())
    return f"wrote {len(queued)} tuple stream(s) to {out}"


def _cmd_split(args) -> str:
    db = _load_database(args.schema, args.data)
    mode = args.mode.replace("-", "_")
    spec = SplitSpec(mode=mode, target_relation=args.target,
                     train_fraction=args.train_fraction,
                     cold_fraction=args.cold_fraction,
                     cold_side=args.cold_side, seed=args.seed)
    out = Path(args.out)
    if mode == "held_out":
        train_db, val, test = split_held_out(db, spec)
        cold = None
    else:
        train_db, val, test, cold = split_cold_start(db, spec)
    files = _database_files(train_db, out / "train")
    template = tuple_line_template(db.relation(args.target), labeled=True)
    files += [(out / "validation.tsv", lines(template, val)),
              (out / "test.tsv", lines(template, test))]
    if cold is not None:
        files.append((out / "cold_entities.txt", lines("%s\n", ((e.key,) for e in cold))))
    write_files(files)
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
    write_files([(args.out, model_blocks(store)), (args.log, [log.to_tsv().encode()])])
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
    write_files([(args.report, [report.to_tsv().encode()]),
                 (args.pr_out, lines("%.6f\t%.6f\t%.6g\n", report.pr_points))])
    pooled = report.pooled
    return (f"{len(test)} cells @ threshold {args.threshold}: "
            f"precision {pooled.precision:.4f}, recall {pooled.recall:.4f}, "
            f"F1 {pooled.f1:.4f}")


def _cmd_predict(args) -> str:
    check_threshold(args.threshold)
    store = load_model(args.model)
    pairs = read_columns(args.pairs, 3, 3)
    scored = []  # positions of the pairs that resolved
    rel_ids, rows, cols = [], [], []
    for at, parts in enumerate(zip(*pairs)):
        try:
            rel, e1, e2 = store.resolve(*parts)
        except DataError:
            if args.strict:
                raise
            continue
        scored.append(at)
        rel_ids.append(store.rel_ids[rel.name])
        rows.append(e1.index)
        cols.append(e2.index)
    probs = sigmoid_array(score_cells(store, rel_ids, rows, cols)).tolist()
    results = ["ERR_UNKNOWN_ENTITY"] * len(pairs[0])
    for at, p in zip(scored, probs):
        results[at] = f"{p:.17g}\t{classify(p, args.threshold)}"
    write_files([(args.out, lines("%s\t%s\t%s\t%s\n", zip(*pairs, results)))])
    errors = len(results) - len(scored)
    summary = f"scored {len(scored)} pairs"
    if errors:
        summary += f" ({errors} rows with unknown entities)"
    return summary


def _cmd_nn(args) -> str:
    store = load_model(args.model)
    etype, eid = _parse_entity_ref(args.entity)
    result = nearest_neighbors(store, etype, eid, args.n, metric=args.metric,
                               type_filter=args.type)
    body = "".join(f"{e.key}\t{s:.6f}\n" for e, s in result.neighbors)
    sys.stdout.write(body)
    return f"{len(result.neighbors)} neighbors of {args.entity} by {args.metric}"


def _cmd_project(args) -> str:
    store = load_model(args.model)
    subset = [_parse_entity_ref(ref.strip()) for ref in read_columns(args.entities, 1, 1)[0]]
    coords = project_2d(store, subset)
    write_files([(args.out, lines("%s\t%.17g\t%.17g\n", ((e.key, x, y) for e, x, y in coords)))])
    return f"projected {len(coords)} entities to 2-D"


def _cmd_export_vectors(args) -> str:
    store = load_model(args.model)
    write_files([(args.out, write_rows([e.key for e in store.entities], store.vectors, sep="\t"))])
    return f"exported {len(store.entities)} vectors of dimension {store.k}"


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
    with warnings.catch_warnings():  # a warning the filters show prints as one line
        warnings.showwarning = lambda m, *_: print(f"relfactor: warning: {m}", file=sys.stderr)
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
