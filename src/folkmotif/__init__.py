"""Motif embeddings and attention-based collection classification for folk songs."""

from .attention import (
    AttentionModel,
    ClassifierConfig,
    init_model,
    load_model,
    make_examples,
    predict,
    predict_song,
    save_model,
    train_classifier,
)
from .baselines import (
    LinearSvmModel,
    SvmConfig,
    average_embedding,
    predict_svm,
    train_linear_svm,
)
from .experiment import ExperimentConfig, ExperimentError, run_experiment
from .kern import ParseError, parse_kern
from .melody import (
    CorpusError,
    LabeledCorpus,
    Melody,
    NoteEvent,
    load_corpus,
    read_jsonl,
    write_jsonl,
)
from .metrics import MetricsReport, evaluate, render_report, split_dataset
from .sgns import (
    DocVectors,
    Embeddings,
    SkipgramConfig,
    TrainingDiverged,
    cosine,
    most_similar,
    read_embeddings,
    train_pvdbow,
    train_skipgram,
    write_embeddings,
)
from .synth import SynthConfig, generate_corpus
from .tokens import (
    TokenizedSong,
    tokenize_corpus,
    tokenize_melody,
)
from .vocab import Vocabulary, build_vocab, negative_sampling_dist

__version__ = "0.1.0"

__all__ = [
    "AttentionModel",
    "ClassifierConfig",
    "CorpusError",
    "DocVectors",
    "Embeddings",
    "ExperimentConfig",
    "ExperimentError",
    "LabeledCorpus",
    "LinearSvmModel",
    "Melody",
    "MetricsReport",
    "NoteEvent",
    "ParseError",
    "SkipgramConfig",
    "SvmConfig",
    "SynthConfig",
    "TokenizedSong",
    "TrainingDiverged",
    "Vocabulary",
    "average_embedding",
    "build_vocab",
    "cosine",
    "evaluate",
    "generate_corpus",
    "init_model",
    "load_corpus",
    "load_model",
    "make_examples",
    "most_similar",
    "negative_sampling_dist",
    "parse_kern",
    "predict",
    "predict_song",
    "predict_svm",
    "read_embeddings",
    "read_jsonl",
    "render_report",
    "run_experiment",
    "save_model",
    "split_dataset",
    "tokenize_corpus",
    "tokenize_melody",
    "train_classifier",
    "train_linear_svm",
    "train_pvdbow",
    "train_skipgram",
    "write_embeddings",
    "write_jsonl",
]
