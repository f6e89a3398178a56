"""Acceptance gate: one test per criterion, one pass/fail line each under -v.

Criteria 1-3 evaluate classification quality on the user-supplied kern
corpora located through FOLKMOTIF_GERMAN_KERN_DIR, FOLKMOTIF_CHINESE_KERN_DIR
and FOLKMOTIF_SWEDISH_KERN_DIR. When those are absent the criteria are
reported as NOT REPRODUCIBLE (skipped); criteria 4-6 are data-free and
always run.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assert_batch_gradient_matches_finite_differences,
    assert_gradients_close,
    at_float64,
    central_difference,
)

from folkmotif.attention import ClassifierConfig, SongExample, init_model, predict
from folkmotif.baselines import SvmConfig, svm_objective
from folkmotif.cli import _expand_sources
from folkmotif.experiment import ExperimentConfig, classify, run_experiment, songs_with_motifs
from folkmotif.melody import load_corpus, read_jsonl, write_jsonl
from folkmotif.metrics import split_dataset
from folkmotif.sgns import SkipgramConfig, most_similar, pair_objective, train_skipgram
from folkmotif.synth import SynthConfig, generate_corpus, motif_class
from folkmotif.tokens import tokenize_corpus, tokenize_melody
from folkmotif.vocab import Vocabulary, build_vocab, negative_sampling_dist

CORPUS_ENV = {
    "german": "FOLKMOTIF_GERMAN_KERN_DIR",
    "chinese": "FOLKMOTIF_CHINESE_KERN_DIR",
    "swedish": "FOLKMOTIF_SWEDISH_KERN_DIR",
}


def _user_corpus(labels):
    missing = [
        CORPUS_ENV[label]
        for label in labels
        if not os.environ.get(CORPUS_ENV[label])
        or not Path(os.environ[CORPUS_ENV[label]]).is_dir()
    ]
    if missing:
        pytest.skip(
            "NOT REPRODUCIBLE: requires user-supplied kern corpora; set "
            + ", ".join(missing)
        )
    sources = [(label, os.environ[CORPUS_ENV[label]]) for label in labels]
    return load_corpus(_expand_sources(sources))


def test_criterion_1_binary_classification_quality_and_model_ordering():
    corpus = _user_corpus(["german", "chinese"])
    t0 = time.monotonic()
    attention, _ = run_experiment(ExperimentConfig(model="attention"), corpus)
    attention_runtime = time.monotonic() - t0
    doc2vec, _ = run_experiment(ExperimentConfig(model="doc2vec"), corpus)
    average, _ = run_experiment(ExperimentConfig(model="average"), corpus)
    print(
        f"attention {attention.accuracy:.4f} ({attention_runtime:.0f}s), "
        f"doc2vec {doc2vec.accuracy:.4f}, average {average.accuracy:.4f}"
    )
    assert attention.accuracy >= 0.90
    assert attention.accuracy >= doc2vec.accuracy - 0.01
    assert doc2vec.accuracy >= average.accuracy - 0.01
    assert attention_runtime <= 7200


def test_criterion_2_three_class_quality_and_per_class_ordering():
    corpus = _user_corpus(["german", "chinese", "swedish"])
    report, _ = run_experiment(ExperimentConfig(model="attention"), corpus)
    print(f"accuracy {report.accuracy:.4f}, per-class precision {report.precision}")
    assert report.accuracy >= 0.87
    assert max(report.precision, key=report.precision.get) == "chinese"


def test_criterion_3_reference_neighbor_query():
    corpus = _user_corpus(["german", "chinese"])
    songs = tokenize_corpus(corpus, "intervallic", multiword=3)
    vocab = build_vocab([s.tokens for s in songs])
    embeddings = train_skipgram(songs, vocab, SkipgramConfig())
    neighbors = most_similar(embeddings, "21_20_20", k=10)
    match = {token: cosine for token, cosine in neighbors}
    print(f"top-10 for 21_20_20: {match}")
    assert "20_21_20" in match, f"20_21_20 not in top-10: {sorted(match)}"
    print(f"cosine(21_20_20, 20_21_20) = {match['20_21_20']:.4f}")


def test_criterion_4_gradient_suite_matches_finite_differences():
    t0 = time.monotonic()

    # Token-against-contexts objective, both as a free vector (skip-gram
    # target) and as a row of a document-vector matrix.
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=6)
        ctx = rng.normal(size=(4, 6))
        signs = np.array([-1.0, 1.0, 1.0, 1.0])
        _, coef = pair_objective(w, ctx, signs)
        assert_gradients_close(
            -coef @ ctx,
            central_difference(lambda _: pair_objective(w, ctx, signs)[0], w),
            what="sgns w",
        )
        assert_gradients_close(
            -np.outer(coef, w),
            central_difference(lambda _: pair_objective(w, ctx, signs)[0], ctx),
            what="sgns ctx",
        )
        docs = rng.normal(size=(3, 6))
        _, coef_doc = pair_objective(docs[1], ctx, signs)
        assert_gradients_close(
            -coef_doc @ ctx,
            central_difference(lambda _: pair_objective(docs[1], ctx, signs)[0], docs[1]),
            what="doc vector",
        )

    # Recurrent encoder through time, attention scorer, output layer:
    # every parameter array of the classifier.
    for seed in (10, 11, 12):
        rng = np.random.default_rng(seed)
        model = init_model(dim=3, labels=["a", "b"], hidden=4, attention_dim=3, seed=seed)
        x = rng.normal(size=(5, 3))
        label = int(seed % 2)
        params = at_float64(model.params)
        assert_batch_gradient_matches_finite_differences(params, [SongExample(x, label)])

    # Hinge objective away from the kink.
    for seed in (21, 22, 23):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(8, 5))
        y = rng.choice([-1.0, 1.0], size=8)
        w = 0.1 * rng.normal(size=5)
        b = np.array(0.3)
        margins = y * (X @ w + float(b))
        assert np.abs(margins - 1.0).min() > 1e-3, "seed lands on the hinge kink"
        _, grad_w, grad_b = svm_objective(w, float(b), X, y, lam=0.1)
        assert_gradients_close(
            grad_w,
            central_difference(lambda _: svm_objective(w, float(b), X, y, 0.1)[0], w),
            what="svm w",
        )
        assert_gradients_close(
            np.array(grad_b),
            central_difference(lambda arr: svm_objective(w, float(arr), X, y, 0.1)[0], b),
            what="svm b",
        )

    elapsed = time.monotonic() - t0
    print(f"gradient suite: {elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_5_synthetic_separable_corpus():
    t0 = time.monotonic()
    synth = SynthConfig(
        songs_per_class=200, min_length=20, max_length=40, noise_rate=0.1, seed=5
    )
    corpus = generate_corpus(synth)
    assert len(corpus) == 400
    songs = tokenize_corpus(corpus, "intervallic", multiword=2)
    vocab = build_vocab([s.tokens for s in songs])
    songs = songs_with_motifs(songs, vocab)
    embedding = SkipgramConfig(dim=32, window=2, negatives=5, epochs=8)
    embeddings = train_skipgram(songs, vocab, embedding)

    classifier = ClassifierConfig(
        hidden=32, attention_dim=16, epochs=20, batch=10, lr=0.05, max_len=60
    )
    assert classifier.epochs <= 50

    def run(model, shared_embeddings):
        config = ExperimentConfig(model=model, embedding=embedding, classifier=classifier,
                                  svm=SvmConfig(lam=0.001, epochs=200))
        return classify(config, songs, vocab, shared_embeddings)

    _, test, _, _, weighted, attention_report = run("attention", embeddings)
    *_, average_report = run("average", embeddings)
    *_, doc2vec_report = run("doc2vec", None)
    top_motifs = [max(pairs, key=lambda mw: mw[1])[0] for pairs in weighted]
    alpha_rate = sum(motif_class(m, synth) == s.label for m, s in zip(top_motifs, test)) / len(test)

    elapsed = time.monotonic() - t0
    print(
        f"attention {attention_report.accuracy:.3f}, average {average_report.accuracy:.3f}, "
        f"doc2vec {doc2vec_report.accuracy:.3f}, max-attention motif hit {alpha_rate:.3f}, {elapsed:.0f}s"
    )
    assert attention_report.accuracy >= 0.98
    assert average_report.accuracy >= 0.95
    assert doc2vec_report.accuracy >= 0.95
    assert alpha_rate >= 0.90
    assert elapsed < 300


def test_criterion_6_invariant_suite(tmp_path):
    # Transposition invariance of intervallic tokenization.
    corpus = generate_corpus(
        SynthConfig(songs_per_class=3, min_length=10, max_length=14, seed=9)
    )
    for melody in corpus:
        for delta in (-5, 4):
            assert tokenize_melody(melody, "intervallic") == tokenize_melody(
                melody.transposed(delta), "intervallic"
            )

    # JSONL round-trip identity.
    assert read_jsonl(write_jsonl(corpus)) == list(corpus)

    # Attention and output softmax normalization.
    model = init_model(dim=4, labels=["a", "b", "c"], hidden=5, attention_dim=3, seed=3)
    rng = np.random.default_rng(3)
    for T in (1, 7, 30):
        _, probs, alpha = predict(model, rng.normal(size=(T, 4)))
        assert abs(float(alpha.sum()) - 1.0) < 1e-9
        assert abs(float(probs.sum()) - 1.0) < 1e-9

    # Negative-sampling distribution: exact normalization and empirical
    # agreement within 3 sigma over a million draws.
    vocab = Vocabulary(["a", "b", "c", "d"], np.array([40, 20, 10, 5]))
    dist = negative_sampling_dist(vocab)
    assert abs(float(dist.probs.sum()) - 1.0) < 1e-9
    n = 1_000_000
    observed = np.bincount(dist.draw(np.random.default_rng(123), n), minlength=4)
    for i, p in enumerate(dist.probs):
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(observed[i] - n * p) <= 3 * sigma, f"token {i}: {observed[i]} vs {n * p:.0f}"

    # Split determinism and stratification.
    songs = tokenize_corpus(corpus, "intervallic", multiword=2)
    first = split_dataset(songs, 0.75, seed=3)
    second = split_dataset(songs, 0.75, seed=3)
    assert first == second
    train, test = first
    assert not {s.id for s in train} & {s.id for s in test}
    assert sorted(s.id for s in [*train, *test]) == sorted(s.id for s in songs)
    for label in ("alpha", "beta"):
        assert sum(s.label == label for s in test) == 1  # floor(3 * 0.25 + 0.5)

    # End-to-end byte-identical reruns under a fixed seed.
    config = ExperimentConfig(
        embedding=SkipgramConfig(dim=8, window=2, negatives=2, epochs=2),
        classifier=ClassifierConfig(hidden=5, attention_dim=3, epochs=2, max_len=30),
    )
    rerun_corpus = generate_corpus(
        SynthConfig(songs_per_class=8, min_length=10, max_length=14, seed=1)
    )
    _, first_run = run_experiment(config, rerun_corpus, tmp_path / "a")
    _, second_run = run_experiment(config, rerun_corpus, tmp_path / "b")
    assert set(first_run) == set(second_run)
    for name in first_run:
        assert Path(first_run[name]).read_bytes() == Path(second_run[name]).read_bytes(), name
