"""Command-line toolkit for the folk-song motif pipeline.

Subcommands cover each pipeline stage (ingest, tokenize, train-embeddings,
similar, train-classifier, baseline, evaluate) plus end-to-end experiment
presets and a synthetic-corpus generator.

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 training
divergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import typing
from pathlib import Path

import numpy as np

from .attention import ClassifierConfig, alpha_csv
from .baselines import SvmConfig
from .experiment import REPRESENTATIONS, ExperimentConfig, ExperimentError, classify, run_experiment
from .melody import CorpusError, load_corpus, read_jsonl, write_jsonl
from .metrics import evaluate, render_report
from .sgns import Embeddings, SkipgramConfig, TrainingDiverged, most_similar, read_embeddings
from .sgns import train_skipgram, write_embeddings
from .synth import SynthConfig, generate_corpus
from .tokens import read_token_file, tokenize_corpus, write_token_file
from .vocab import Vocabulary, build_vocab, read_vocab, write_vocab


# The config fields that each command sets from a flag of the same name.
EMBEDDING_FLAGS = ("dim", "window", "negatives", "epochs")  # train-embeddings
CLASSIFIER_FLAGS = tuple(f.name for f in dataclasses.fields(ClassifierConfig))
DOC2VEC_FLAGS = ("dim", "negatives", "epochs")  # baseline
SYNTH_FLAGS = ("songs_per_class", "min_length", "max_length", "noise_rate", "seed")


class UsageError(Exception):
    """Bad command-line input that argparse cannot catch itself."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this toolkit reserves 2 for
    # data errors, so usage problems are remapped to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_config_flags(parser, cls, names, **helps) -> None:
    """Add ``--field-name`` for each named field of the config class cls, parsed as the
    field's annotated type (a float field parses floats) and defaulting to the class's value."""
    types = typing.get_type_hints(cls)
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), type=types[name],
                            default=getattr(cls, name), help=helps.get(name))


def _config_from_flags(args, cls, names, **extra):
    return cls(**{name: getattr(args, name) for name in names}, **extra)


def _parse_sources(pairs: list[str], value: str = "PATH") -> list[tuple[str, str]]:
    """Split each LABEL=VALUE pair; value names the right-hand side in the message."""
    sources = []
    for pair in pairs:
        label, sep, rest = pair.partition("=")
        if not sep or not label or not rest:
            raise UsageError(f"expected LABEL={value}, got {pair!r}")
        sources.append((label, rest))
    return sources


def _expand_sources(sources: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Turn (label, dir-or-file) pairs into per-file (path, label) pairs."""
    pairs = []
    for label, path in sources:
        p = Path(path)
        if p.is_dir():
            files = sorted(q for q in p.iterdir() if q.is_file() and not q.name.startswith("."))
            if not files:
                raise CorpusError(f"no files in directory {path}")
            pairs.extend((str(q), label) for q in files)
        else:
            pairs.append((str(p), label))
    return pairs


def _load_labeled_corpus(pairs: list[str]):
    corpus = load_corpus(_expand_sources(_parse_sources(pairs)))
    for path, reason in corpus.diagnostics.skipped:
        print(f"skipped {path}: {reason}", file=sys.stderr)
    return corpus


def _read_embedding_set(embeddings_path: str, vocab_path: str | None) -> Embeddings:
    tokens, matrix = read_embeddings(Path(embeddings_path).read_text(encoding="utf-8"))
    if vocab_path is not None:
        vocab = read_vocab(Path(vocab_path).read_text(encoding="utf-8"))
        if vocab.tokens != tokens:
            raise ValueError(f"{embeddings_path} does not match vocabulary {vocab_path}")
    else:
        vocab = Vocabulary(tokens, np.ones(len(tokens), dtype=np.int64))
    return Embeddings(vocab, matrix, np.zeros_like(matrix))


def _report_out(report, title: str, out_json: str | None) -> None:
    print(render_report(report, title=title), end="")
    if out_json:
        Path(out_json).write_text(report.to_json(), encoding="utf-8")
        print(f"metrics written to {out_json}")


def _cmd_ingest(args) -> None:
    corpus = _load_labeled_corpus(args.sources)
    Path(args.out).write_bytes(write_jsonl(corpus))
    labels = ", ".join(corpus.labels())
    skipped = corpus.diagnostics.skip_count
    print(f"wrote {len(corpus)} melodies ({labels}) to {args.out}; {skipped} file(s) skipped")


def _cmd_tokenize(args) -> None:
    if args.phrase_mode and args.mw_size == 1:
        raise UsageError("--phrase-mode needs --mw-size 2 or 3: phrase merging makes multiwords")
    melodies = read_jsonl(Path(args.corpus).read_bytes())
    multiword = None if args.mw_size == 1 else args.mw_size
    songs = tokenize_corpus(
        melodies,
        args.mode,
        multiword=multiword,
        multiword_mode="phrase" if args.phrase_mode else "sliding",
    )
    Path(args.out).write_text(write_token_file(songs), encoding="utf-8")
    print(f"tokenized {len(songs)} of {len(melodies)} melodies to {args.out}")


def _cmd_train_embeddings(args) -> None:
    embedding = _config_from_flags(args, SkipgramConfig, EMBEDDING_FLAGS)
    config = ExperimentConfig(seed=args.seed, min_count=args.min_count, embedding=embedding)
    songs = read_token_file(Path(args.tokens).read_text(encoding="utf-8"))
    vocab = build_vocab([s.tokens for s in songs], config.min_count)
    emb = train_skipgram(songs, vocab, config.embedding, config.seed)
    for i, objective in enumerate(emb.epoch_objectives, start=1):
        print(f"epoch {i}/{config.embedding.epochs}: objective {objective:.4f}")
    Path(args.out_embeddings).write_text(
        write_embeddings(vocab.tokens, emb.input_vectors), encoding="utf-8"
    )
    Path(args.out_vocab).write_text(write_vocab(vocab), encoding="utf-8")
    print(f"wrote {len(vocab.tokens)} x {config.embedding.dim} embeddings to {args.out_embeddings}")


def _cmd_similar(args) -> None:
    emb = _read_embedding_set(args.embeddings, None)
    for token, score in most_similar(emb, args.token, args.k):
        print(f"{token}\t{score:.4f}")


def _cmd_train_classifier(args) -> None:
    songs = read_token_file(Path(args.tokens).read_text(encoding="utf-8"))
    emb = _read_embedding_set(args.embeddings, args.vocab)
    classifier = _config_from_flags(args, ClassifierConfig, CLASSIFIER_FLAGS)
    config = ExperimentConfig(model="attention", split_ratio=args.ratio, seed=args.seed,
                              classifier=classifier)
    train, test, _, files, weighted, report = classify(config, songs, emb.vocab, emb)
    Path(args.out).write_text(files["model.txt"], encoding="utf-8")
    print(f"model written to {args.out}")
    if args.alpha_dir:
        out = Path(args.alpha_dir)
        out.mkdir(parents=True, exist_ok=True)
        for song, pairs in zip(test, weighted):
            (out / f"{song.id}.csv").write_text(alpha_csv(pairs), encoding="utf-8")
    _report_out(report, f"attention ({len(train)} train / {len(test)} test)", args.out_json)


def _cmd_baseline(args) -> None:
    songs = read_token_file(Path(args.tokens).read_text(encoding="utf-8"))
    embedding = _config_from_flags(args, SkipgramConfig, DOC2VEC_FLAGS)
    if args.kind == "average":
        if not args.embeddings:
            raise UsageError("baseline average requires --embeddings")
        if embedding != SkipgramConfig():
            raise UsageError("baseline average takes no --dim, --negatives or --epochs: "
                             "they configure doc2vec, and the average model trains no vectors")
        emb = _read_embedding_set(args.embeddings, args.vocab)
        vocab = emb.vocab
    else:
        if not args.vocab:
            raise UsageError("baseline doc2vec requires --vocab")
        if args.embeddings:
            raise UsageError("baseline doc2vec takes no --embeddings: "
                             "doc2vec learns its own song vectors")
        emb, vocab = None, read_vocab(Path(args.vocab).read_text(encoding="utf-8"))
    svm = SvmConfig(lam=args.lam, epochs=args.svm_epochs)
    config = ExperimentConfig(model=args.kind, split_ratio=args.ratio, seed=args.seed,
                              embedding=embedding, svm=svm)
    train, test, _, files, _, report = classify(config, songs, vocab, emb)
    if args.out_svm:
        Path(args.out_svm).write_text(files["svm.txt"], encoding="utf-8")
    _report_out(report, f"{args.kind} ({len(train)} train / {len(test)} test)", args.out_json)


def _cmd_evaluate(args) -> None:
    with open(args.predictions, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if not {"gold", "predicted"} <= set(reader.fieldnames or ()):
            raise ValueError(f"{args.predictions} needs a CSV header with gold,predicted columns")
        rows = []
        for row in reader:
            # DictReader fills a short row's missing fields with None and files
            # a long row's extra fields under the key None.
            if row["gold"] is None or row["predicted"] is None:
                raise ValueError(f"{args.predictions} line {reader.line_num}: "
                                 "expected id,gold,predicted")
            if None in row:
                raise ValueError(f"{args.predictions} line {reader.line_num}: "
                                 "more fields than the header")
            rows.append(row)
    if not rows:
        raise ValueError(f"{args.predictions} has no prediction rows")
    gold = [r["gold"] for r in rows]
    predictions = [r["predicted"] for r in rows]
    labels = sorted(set(gold) | set(predictions))
    report = evaluate(predictions, gold, labels)
    _report_out(report, args.predictions, args.out_json)


def _cmd_experiment(args) -> None:
    sources = _parse_sources(args.sources)
    expected = {1: 2, 2: 3}[args.number]
    if len(sources) != expected:
        raise UsageError(f"experiment {args.number} takes exactly {expected} LABEL=PATH corpora")
    config = (
        ExperimentConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
        if args.config
        else ExperimentConfig()
    )
    corpus = _load_labeled_corpus(args.sources)
    out_dir = args.out_dir or f"experiment-{args.number}"
    report, artifacts = run_experiment(config, corpus, out_dir)
    print(render_report(report, title=f"experiment {args.number}: {config.model}"), end="")
    print(f"artifacts in {out_dir}: {', '.join(sorted(artifacts))}")


def _parse_sizes(text: str, given: str) -> tuple[int, ...]:
    """The comma-separated interval sizes in text; given names the flag in the message."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"{given}: sizes must be comma-separated integers") from None


def _cmd_synth_corpus(args) -> None:
    kwargs = {"noise_sizes": _parse_sizes(args.noise, f"--noise {args.noise}")}
    if args.inventory:
        inventories = {}
        for label, sizes in _parse_sources(args.inventory, "SIZE[,SIZE...]"):
            if label in inventories:
                raise UsageError(f"--inventory: class {label!r} is given twice")
            inventories[label] = _parse_sizes(sizes, f"--inventory {label}={sizes}")
        kwargs["inventories"] = inventories
    corpus = generate_corpus(_config_from_flags(args, SynthConfig, SYNTH_FLAGS, **kwargs))
    Path(args.out).write_bytes(write_jsonl(corpus))
    print(f"wrote {len(corpus)} synthetic melodies ({', '.join(corpus.labels())}) to {args.out}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="folkmotif", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse kern files/directories into a JSONL corpus")
    p.add_argument("sources", nargs="+", metavar="LABEL=PATH")
    p.add_argument("--out", default="corpus.jsonl")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("tokenize", help="turn a JSONL corpus into motif token strings")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=REPRESENTATIONS, default=ExperimentConfig.representation)
    p.add_argument("--mw-size", type=int, choices=(1, 2, 3),
                   default=ExperimentConfig.multiword_size,
                   help="multiword length; 1 keeps plain tokens")
    p.add_argument("--phrase-mode", action="store_true",
                   help="merge statistically attached bigrams instead of sliding n-grams")
    p.add_argument("--out", default="tokens.tsv")
    p.set_defaults(fn=_cmd_tokenize)

    p = sub.add_parser("train-embeddings", help="skip-gram embeddings from a token file")
    p.add_argument("--tokens", required=True)
    _add_config_flags(p, SkipgramConfig, EMBEDDING_FLAGS)
    _add_config_flags(p, ExperimentConfig, ("seed", "min_count"))
    p.add_argument("--out-embeddings", default="embeddings.txt")
    p.add_argument("--out-vocab", default="vocab.tsv")
    p.set_defaults(fn=_cmd_train_embeddings)

    p = sub.add_parser("similar", help="nearest motifs by cosine similarity")
    p.add_argument("token")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(fn=_cmd_similar)

    p = sub.add_parser("train-classifier", help="attention classifier over motif embeddings")
    p.add_argument("--tokens", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--ratio", type=float, default=ExperimentConfig.split_ratio,
                   help="train fraction of the split")
    _add_config_flags(p, ClassifierConfig, CLASSIFIER_FLAGS)
    _add_config_flags(p, ExperimentConfig, ("seed",))
    p.add_argument("--out", default="model.txt")
    p.add_argument("--out-json", default=None, help="also write metrics JSON here")
    p.add_argument("--alpha-dir", default=None,
                   help="write per-test-song attention weights as CSV files here")
    p.set_defaults(fn=_cmd_train_classifier)

    p = sub.add_parser("baseline", help="SVM over averaged embeddings or song vectors")
    p.add_argument("kind", choices=("average", "doc2vec"))
    p.add_argument("--tokens", required=True)
    p.add_argument("--embeddings", default=None, help="required for kind=average")
    p.add_argument("--vocab", default=None)
    p.add_argument("--ratio", type=float, default=ExperimentConfig.split_ratio)
    _add_config_flags(p, ExperimentConfig, ("seed",))
    _add_config_flags(p, SkipgramConfig, DOC2VEC_FLAGS,
                      dim="doc2vec vector size", epochs="doc2vec training epochs")
    _add_config_flags(p, SvmConfig, ("lam",), lam="SVM regularization strength")
    p.add_argument("--svm-epochs", type=int, default=SvmConfig.epochs,
                   help="most Newton steps the SVM may take")
    p.add_argument("--out-svm", default=None)
    p.add_argument("--out-json", default=None)
    p.set_defaults(fn=_cmd_baseline)

    p = sub.add_parser("evaluate", help="metrics from a predictions CSV (id,gold,predicted)")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out-json", default=None)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("experiment", help="end-to-end pipeline preset")
    p.add_argument("number", type=int, choices=(1, 2),
                   help="1: two-class run, 2: three-class run")
    p.add_argument("sources", nargs="+", metavar="LABEL=PATH")
    p.add_argument("--config", default=None, help="JSON file mirroring ExperimentConfig")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("synth-corpus", help="generate a separable synthetic corpus")
    p.add_argument("--inventory", action="append", metavar="LABEL=SIZE[,SIZE...]",
                   help="interval sizes owned by a class; repeatable")
    p.add_argument("--noise", default=",".join(map(str, SynthConfig.noise_sizes)),
                   help="comma-separated shared interval sizes")
    _add_config_flags(p, SynthConfig, SYNTH_FLAGS)
    p.add_argument("--out", default="synthetic.jsonl")
    p.set_defaults(fn=_cmd_synth_corpus)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help exits 0; _Parser.error exits 1
        return exc.code if isinstance(exc.code, int) else 1
    try:
        args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except (ExperimentError, OSError, ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
