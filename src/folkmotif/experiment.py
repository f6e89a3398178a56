"""End-to-end experiment runner: tokenize -> split -> embed -> train -> evaluate.

An experiment is fully described by an ExperimentConfig (JSON-serializable,
so config files mirror it field for field). Its one ``seed`` seeds the split
and every trainer that draws random numbers: skip-gram, PV-DBOW and the
classifier (the exact SVM draws none), each from its own independent stream
of the seed (``seeds.stream``), so no two share a random number.
Artifacts — token file, vocab, model, predictions, metrics JSON, text report
— are written to an output directory, and reruns with the same config and
corpus are byte-identical.
``classify`` drops the songs with no in-vocabulary motif, then runs the split, the
skip-gram training when the model needs it, the model and the scoring, for
``run_experiment`` and the staged CLI commands alike, so a staged command's error
names its stage too.
The attention and average models read skip-gram motif vectors, so only they
train skip-gram and write ``embeddings.txt``. Doc2vec is PV-DBOW, which
learns its song vectors straight from the tokens; for it the ``embedding``
block configures PV-DBOW, which does not use ``window``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from .attention import (
    ClassifierConfig,
    make_examples,
    predict_song,
    save_model,
    train_classifier,
    vocab_digest,
)
from .baselines import SvmConfig, average_embedding, predict_svm, train_linear_svm, write_svm
from .melody import CorpusError, LabeledCorpus, corpus_problem
from .metrics import MetricsReport, evaluate, render_report, split_dataset
from .sgns import TrainingDiverged, SkipgramConfig, train_pvdbow, train_skipgram, write_embeddings
from .tokens import TokenizedSong, tokenize_corpus, write_token_file
from .vocab import build_vocab, write_vocab

REPRESENTATIONS = ("intervallic", "rhythmic")
MODELS = ("attention", "doc2vec", "average")


class ExperimentError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage


@dataclass
class ExperimentConfig:
    representation: str = "intervallic"
    multiword_size: int = 2
    multiword_mode: str = "sliding"
    model: str = "attention"
    split_ratio: float = 0.75
    min_count: int = 1
    seed: int = 0
    embedding: SkipgramConfig = field(default_factory=SkipgramConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    svm: SvmConfig = field(default_factory=SvmConfig)

    def __post_init__(self):
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"representation must be one of {REPRESENTATIONS}")
        if self.multiword_size not in (2, 3):
            raise ValueError("multiword_size must be 2 or 3")
        if self.multiword_mode not in ("sliding", "phrase"):
            raise ValueError("multiword_mode must be sliding or phrase")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError("split_ratio must be in (0, 1)")
        if self.min_count < 1:
            raise ValueError("min_count must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ValueError("experiment config must be a JSON object")
        obj = dict(obj)
        kwargs = {}
        for name, sub_cls in get_type_hints(cls).items():  # the nested config blocks
            if dataclasses.is_dataclass(sub_cls):
                sub = obj.pop(name, {})
                _check_fields(sub_cls, sub, name)
                kwargs[name] = sub_cls(**sub)
        _check_fields(cls, obj, "experiment")
        return cls(**obj, **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


# The JSON values each annotated field type takes; a bool is never a number.
_FIELD_VALUES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _check_fields(cls, obj, where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} config must be a JSON object")
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {where} config fields: {sorted(unknown)}")
    types = get_type_hints(cls)
    for name, value in obj.items():
        kinds, wanted = _FIELD_VALUES[types[name]]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{where} config field {name} must be {wanted}, got {value!r}")


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ExperimentError, TrainingDiverged):
        raise
    except Exception as exc:
        raise ExperimentError(name, exc) from exc


def songs_with_motifs(songs, vocab):
    """The songs with an in-vocabulary motif, in order; no model can take the others."""
    kept = [s for s in songs if any(t in vocab for t in s.tokens)]
    if not kept:
        raise ValueError("no song has an in-vocabulary motif")
    return kept


def classify(config: ExperimentConfig, songs, vocab, embeddings=None):
    """Split the songs, train ``config.model`` on the train songs, predict and score the test.

    First drops, in stage ``vocabulary``, each song with no in-vocabulary motif. embeddings
    are the skip-gram motif vectors that attention and average read; given None, those models
    train them here and return them as ``embeddings.txt``. Returns the train and test songs,
    the predicted labels, the files by name, the attention model's (motif, weight) pairs per
    test song (None for the SVM models), and the report.
    """
    songs = _stage("vocabulary", songs_with_motifs, songs, vocab)
    train, test = _stage("split", split_dataset, songs, config.split_ratio, config.seed)
    classes = sorted({s.label for s in songs})
    # PV-DBOW (doc2vec) reads no motif vectors.
    trains_skipgram = embeddings is None and config.model != "doc2vec"
    if trains_skipgram:
        embeddings = _stage(
            "embeddings", train_skipgram, songs, vocab, config.embedding, config.seed
        )
    stage = "classifier" if config.model == "attention" else "baseline"
    predictions, files, weighted = _stage(
        stage, _fit_predict, config, songs, classes, train, test, vocab, embeddings
    )
    if trains_skipgram:  # written after the model, whose training is the memory peak
        vectors = write_embeddings(vocab.tokens, embeddings.input_vectors)
        files = {"embeddings.txt": vectors, **files}
    report = _stage("evaluate", evaluate, predictions, [s.label for s in test], classes)
    return train, test, predictions, files, weighted, report


def _fit_predict(config: ExperimentConfig, songs, classes, train, test, vocab, embeddings):
    """The model stage of ``classify``: (predicted labels, files, weighted pairs).
    doc2vec learns a vector for every one of the songs, the test songs too."""
    if config.model == "attention":
        max_len = config.classifier.max_len
        examples = make_examples(train, embeddings, classes, max_len)
        model = train_classifier(examples, classes, config.classifier, config.seed)
        predicted = [predict_song(model, s, embeddings, max_len) for s in test]
        files = {"model.txt": save_model(model, vocab_digest(vocab))}
        return [label for label, _, _ in predicted], files, [pairs for _, _, pairs in predicted]
    if config.model == "average":
        matrix = np.array([average_embedding(s, embeddings) for s in songs])
    else:
        matrix = train_pvdbow(songs, vocab, config.embedding, config.seed).vectors
    ids = [s.id for s in songs]
    vectors = dict(zip(ids, matrix))
    class_index = {c: i for i, c in enumerate(classes)}
    X = np.array([vectors[s.id] for s in train])
    y = [class_index[s.label] for s in train]
    svm = train_linear_svm(X, y, len(classes), config.svm)
    predictions = [classes[predict_svm(svm, vectors[s.id])] for s in test]
    files = {"svm.txt": write_svm(svm, classes), "song_vectors.txt": write_embeddings(ids, matrix)}
    return predictions, files, None


def run_experiment(
    config: ExperimentConfig, corpus: LabeledCorpus, out_dir: Optional[str] = None
) -> tuple[MetricsReport, dict[str, str]]:
    """Run the pipeline on an ingested corpus; returns (metrics, artifact paths).

    ``tokens.tsv`` holds every tokenized song, as ``folkmotif tokenize`` writes
    it. A corpus built in memory is checked as ``load_corpus`` checks one read
    from files: each ``Melody`` checked itself when it was built, and the
    ids and class names are checked here, before any stage runs.
    """
    found = corpus_problem(corpus.melodies)
    if found is not None:
        raise ExperimentError("corpus", CorpusError(found[1]))
    songs: list[TokenizedSong] = _stage(
        "tokenize",
        tokenize_corpus,
        corpus,
        config.representation,
        multiword=config.multiword_size,
        multiword_mode=config.multiword_mode,
    )
    if not songs:
        raise ExperimentError("tokenize", ValueError("no melody survived tokenization"))
    vocab = _stage("vocabulary", build_vocab, [s.tokens for s in songs], config.min_count)
    train, test, predictions, classify_files, _, report = classify(config, songs, vocab)

    artifacts: dict[str, str] = {}
    if out_dir is not None:
        title = (
            f"{config.representation} mw={config.multiword_size} {config.model} "
            f"({len(train)} train / {len(test)} test)"
        )
        prediction_rows = io.StringIO()
        writer = csv.writer(prediction_rows, lineterminator="\n")
        writer.writerow(["id", "gold", "predicted"])
        writer.writerows((s.id, s.label, p) for s, p in zip(test, predictions))
        files = {
            "experiment.json": json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n",
            "tokens.tsv": write_token_file(songs),
            "vocab.tsv": write_vocab(vocab),
            **classify_files,
            "predictions.csv": prediction_rows.getvalue(),
            "metrics.json": report.to_json(),
            "report.txt": render_report(report, title=title),
        }
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            path = out / name
            path.write_text(content, encoding="utf-8")
            artifacts[name] = str(path)
    return report, artifacts
