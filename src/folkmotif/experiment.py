"""End-to-end experiment runner: tokenize -> embed -> split -> train -> evaluate.

An experiment is fully described by an ExperimentConfig (JSON-serializable,
so config files mirror it field for field). Artifacts — token file, vocab,
model, predictions, metrics JSON, text report — are written to an output
directory, and reruns with the same config and corpus are byte-identical.
The attention and average models read skip-gram motif vectors, so only they
train skip-gram and write ``embeddings.txt``. Doc2vec is PV-DBOW, which
learns its song vectors straight from the tokens; for it the ``embedding``
block configures PV-DBOW, which does not use ``window``. The staged CLI
commands call the same ``songs_with_motifs``, ``song_vectors``,
``run_attention`` and ``run_svm``, so they make no model decision of their own.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

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
from .melody import LabeledCorpus
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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        obj = dict(obj)
        kwargs = {}
        for name, sub_cls in (
            ("embedding", SkipgramConfig),
            ("classifier", ClassifierConfig),
            ("svm", SvmConfig),
        ):
            sub = obj.pop(name, {})
            _check_fields(sub_cls, sub, name)
            kwargs[name] = sub_cls(**sub)
        _check_fields(cls, obj, "experiment")
        return cls(**obj, **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def _check_fields(cls, obj, where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} config must be a JSON object")
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {where} config fields: {sorted(unknown)}")


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ExperimentError, TrainingDiverged):
        raise
    except Exception as exc:
        raise ExperimentError(name, exc) from exc


def run_attention(train, test, embeddings, classes, config: ClassifierConfig):
    """Train the attention classifier on the train songs and predict the test songs.

    Returns the predicted labels, the checkpoint text, and each test song's
    (motif, attention weight) pairs.
    """
    examples = make_examples(train, embeddings, classes, config.max_len)
    model = train_classifier(examples, classes, config)
    predictions, weighted = [], []
    for song in test:
        label, _, pairs = predict_song(model, song, embeddings, config.max_len)
        predictions.append(label)
        weighted.append(pairs)
    return predictions, save_model(model, vocab_digest(embeddings.vocab)), weighted


def run_svm(train, test, vectors, classes, config: SvmConfig):
    """Train the linear SVM on the train songs and predict the test songs.

    vectors maps each song id to its vector (averaged motif embeddings or
    PV-DBOW). Returns the predicted labels and the SVM text.
    """
    class_index = {c: i for i, c in enumerate(classes)}
    X = np.array([vectors[s.id] for s in train])
    y = [class_index[s.label] for s in train]
    svm = train_linear_svm(X, y, n_classes=len(classes), config=config)
    predictions = [classes[predict_svm(svm, vectors[s.id])] for s in test]
    return predictions, write_svm(svm, classes)


def songs_with_motifs(songs, vocab):
    """The songs with an in-vocabulary motif, in order; no model can take the others."""
    kept = [s for s in songs if any(t in vocab for t in s.tokens)]
    if not kept:
        raise ValueError("no song has an in-vocabulary motif")
    return kept


def song_vectors(model, songs, vocab, embeddings, config: SkipgramConfig) -> np.ndarray:
    """One SVM input row per song, in songs order; each song needs an in-vocabulary
    motif. Average takes the mean motif embedding, doc2vec trains PV-DBOW under config."""
    if model == "average":
        return np.array([average_embedding(s.tokens, embeddings) for s in songs])
    return train_pvdbow(songs, vocab, config).vectors


def run_experiment(
    config: ExperimentConfig, corpus: LabeledCorpus, out_dir: Optional[str] = None
) -> tuple[MetricsReport, dict[str, str]]:
    """Run the pipeline on an ingested corpus; returns (metrics, artifact paths)."""
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
    songs = _stage("vocabulary", songs_with_motifs, songs, vocab)
    train, test = _stage("split", split_dataset, songs, config.split_ratio, config.seed)
    classes = sorted({s.label for s in songs})
    embeddings = None  # PV-DBOW (doc2vec) reads no motif vectors
    if config.model != "doc2vec":
        embeddings = _stage("embeddings", train_skipgram, songs, vocab, config.embedding)

    if config.model == "attention":
        predictions, checkpoint, _ = _stage(
            "classifier", run_attention, train, test, embeddings, classes, config.classifier
        )
        model_files = {"model.txt": checkpoint}
    else:
        ids = [s.id for s in songs]
        matrix = _stage(
            "baseline", song_vectors, config.model, songs, vocab, embeddings, config.embedding
        )
        predictions, svm_text = _stage(
            "baseline", run_svm, train, test, dict(zip(ids, matrix)), classes, config.svm
        )
        model_files = {"svm.txt": svm_text, "song_vectors.txt": write_embeddings(ids, matrix)}

    gold = [s.label for s in test]
    report = _stage("evaluate", evaluate, predictions, gold, classes)

    artifacts: dict[str, str] = {}
    if out_dir is not None:
        title = (
            f"{config.representation} mw={config.multiword_size} {config.model} "
            f"({len(train)} train / {len(test)} test)"
        )
        prediction_rows = "".join(f"{s.id},{s.label},{p}\n" for s, p in zip(test, predictions))
        files = {
            "experiment.json": json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n",
            "tokens.tsv": write_token_file(songs),
            "vocab.tsv": write_vocab(vocab),
            **(
                {"embeddings.txt": write_embeddings(vocab.tokens, embeddings.input_vectors)}
                if embeddings is not None
                else {}
            ),
            **model_files,
            "predictions.csv": "id,gold,predicted\n" + prediction_rows,
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
