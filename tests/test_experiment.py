import dataclasses
import inspect
import json
import re
import typing
from pathlib import Path

import numpy as np
import pytest

from folkmotif.attention import ClassifierConfig, _param_arrays, init_model, load_model
from folkmotif.attention import make_examples, predict_song
from folkmotif.baselines import SvmConfig, average_embedding, read_svm
import folkmotif.experiment
from folkmotif.experiment import MODELS, ExperimentConfig, ExperimentError, classify
from folkmotif.experiment import run_experiment
from folkmotif.melody import LabeledCorpus
from folkmotif.metrics import split_dataset
from folkmotif.sgns import Embeddings, SkipgramConfig, TrainingDiverged, read_embeddings
from folkmotif.sgns import train_pvdbow, train_skipgram
from folkmotif.synth import SynthConfig, generate_corpus
from folkmotif.tokens import TokenizedSong, tokenize_corpus
from folkmotif.vocab import build_vocab


def small_corpus(seed=1, songs_per_class=10):
    return generate_corpus(
        SynthConfig(songs_per_class=songs_per_class, min_length=10, max_length=14, seed=seed)
    )


def fast_config(**overrides):
    base = dict(
        representation="intervallic",
        multiword_size=2,
        model="attention",
        split_ratio=0.75,
        seed=0,
        embedding=SkipgramConfig(dim=8, window=2, negatives=2, epochs=2),
        classifier=ClassifierConfig(hidden=6, attention_dim=4, epochs=3, max_len=50),
        svm=SvmConfig(epochs=50),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


EXPECTED_COMMON = {
    "experiment.json",
    "tokens.tsv",
    "vocab.tsv",
    "embeddings.txt",
    "predictions.csv",
    "metrics.json",
    "report.txt",
}


def test_attention_experiment_writes_artifacts(tmp_path):
    report, artifacts = run_experiment(fast_config(), small_corpus(), tmp_path)
    assert set(artifacts) == EXPECTED_COMMON | {"model.txt"}
    for path in artifacts.values():
        assert Path(path).is_file()
    metrics = json.loads(Path(artifacts["metrics.json"]).read_text())
    assert metrics["accuracy"] == pytest.approx(report.accuracy)
    lines = Path(artifacts["predictions.csv"]).read_text().splitlines()
    assert lines[0] == "id,gold,predicted"
    assert len(lines) - 1 == int(sum(sum(row) for row in metrics["confusion"]))


@pytest.mark.parametrize("model,extra", [("average", "svm.txt"), ("doc2vec", "svm.txt")])
def test_baseline_experiments_write_svm_artifacts(tmp_path, model, extra):
    report, artifacts = run_experiment(fast_config(model=model), small_corpus(), tmp_path)
    # PV-DBOW learns song vectors from the tokens alone: no motif embeddings.
    common = EXPECTED_COMMON - {"embeddings.txt"} if model == "doc2vec" else EXPECTED_COMMON
    assert set(artifacts) == common | {extra, "song_vectors.txt"}
    assert 0.0 <= report.accuracy <= 1.0


def test_doc2vec_experiment_trains_no_skipgram(monkeypatch):
    original, calls = folkmotif.experiment.train_skipgram, []

    def counted(*args):
        calls.append(model)
        return original(*args)

    monkeypatch.setattr(folkmotif.experiment, "train_skipgram", counted)
    for model in ("attention", "average", "doc2vec"):
        run_experiment(fast_config(model=model), small_corpus())
    assert calls == ["attention", "average"]


def test_the_experiment_seed_reaches_every_trainer(monkeypatch):
    """Every trainer that draws random numbers gets the seed; the SVM draws none."""
    assert "seed" not in inspect.signature(folkmotif.experiment.train_linear_svm).parameters
    seeds = {}
    for name in ("train_skipgram", "train_pvdbow", "train_classifier"):
        original = getattr(folkmotif.experiment, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            bound = inspect.signature(_original).bind(*args, **kwargs)
            bound.apply_defaults()
            seeds.setdefault(_name, []).append(bound.arguments.get("seed"))
            return _original(*args, **kwargs)

        monkeypatch.setattr(folkmotif.experiment, name, spy)
    for model in ("attention", "average", "doc2vec"):
        run_experiment(fast_config(model=model, seed=7), small_corpus())
    assert seeds == {
        "train_skipgram": [7, 7],  # attention, average
        "train_classifier": [7],
        "train_pvdbow": [7],
    }


def test_one_song_class_fails_at_split_before_skipgram(monkeypatch):
    def forbidden(*args):
        raise AssertionError("skip-gram trained before the split")

    monkeypatch.setattr(folkmotif.experiment, "train_skipgram", forbidden)
    corpus = small_corpus()
    corpus.melodies[0].label = "gamma"
    with pytest.raises(ExperimentError, match="stage 'split'.*'gamma'"):
        run_experiment(fast_config(), corpus)


@pytest.mark.parametrize("model", ["attention", "average", "doc2vec"])
@pytest.mark.parametrize("problem", ["space", "duplicate"])
def test_in_memory_corpus_is_checked_before_any_stage(tmp_path, monkeypatch, model, problem):
    """A name that breaks a row, or an id that would give two songs one vector."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(folkmotif.experiment, "tokenize_corpus", forbidden)
    corpus = small_corpus()
    if problem == "space":
        corpus.melodies[3].id = "song 3"
        message = "song id 'song 3' holds ' '"
    else:
        corpus.melodies[5].id = corpus.melodies[2].id
        message = f"duplicate melody id {corpus.melodies[2].id!r}"
    with pytest.raises(ExperimentError, match="^stage 'corpus': " + re.escape(message) + "$"):
        run_experiment(fast_config(model=model), corpus, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_doc2vec_divergence_is_reported_as_training_diverged():
    embedding = SkipgramConfig(dim=8, window=2, negatives=2, epochs=2, lr=1e8, lr_min=1e8)
    with pytest.raises(TrainingDiverged, match="learning rate"):
        run_experiment(fast_config(model="doc2vec", embedding=embedding), small_corpus())


@pytest.mark.parametrize("model", ["attention", "average", "doc2vec"])
def test_rerun_is_byte_identical(tmp_path, model):
    config = fast_config(model=model)
    _, first = run_experiment(config, small_corpus(), tmp_path / "a")
    _, second = run_experiment(config, small_corpus(), tmp_path / "b")
    assert set(first) == set(second)
    for name in first:
        assert Path(first[name]).read_bytes() == Path(second[name]).read_bytes(), name


# Sum and norm over all the arrays parsed back from each artifact, plus the
# test predictions, recorded with one skip-gram step per center, per-song
# skip-gram draws, one independent stream per consumer of the seed and the
# exact SVM (two classes, so the svm.txt rows cancel and its sum is 0.0).
# Values are compared with a tolerance, not as bytes, so BLAS differences
# between machines do not break the pin. The sums run in float64, so the
# float32 GRU arrays of model.txt add no rounding of their own.
EMBEDDINGS_DIGEST = [1.2195006303457603, 0.8256636699527302]
GOLDEN = {
    "attention": (
        {
            "embeddings.txt": EMBEDDINGS_DIGEST,
            "model.txt": [-2.370723345883998, 9.55477065343511],
        },
        ["alpha", "beta", "beta", "beta", "beta", "alpha"],
    ),
    "average": (
        {
            "embeddings.txt": EMBEDDINGS_DIGEST,
            "svm.txt": [0.0, 4.151329354328657],
            "song_vectors.txt": [0.7051604507032971, 0.1743124496560026],
        },
        ["alpha", "beta", "alpha", "beta", "beta", "alpha"],
    ),
    "doc2vec": (
        {
            "svm.txt": [0.0, 3.6088925034606674],
            "song_vectors.txt": [-0.2116838776685597, 0.47831352615729],
        },
        ["beta"] * 6,
    ),
}


@pytest.mark.parametrize("model", sorted(GOLDEN))
def test_artifacts_match_golden_digest(tmp_path, model):
    _, artifacts = run_experiment(fast_config(model=model), small_corpus(), tmp_path)
    text = {name: Path(path).read_text() for name, path in artifacts.items()}
    arrays = {}
    if "embeddings.txt" in text:
        arrays["embeddings.txt"] = [read_embeddings(text["embeddings.txt"])[1]]
    if model == "attention":
        params = load_model(text["model.txt"])[0].params
        arrays["model.txt"] = [a for _, a in _param_arrays(params)]
    else:
        svm, _ = read_svm(text["svm.txt"])
        arrays["svm.txt"] = [svm.weights, svm.biases]
        arrays["song_vectors.txt"] = [read_embeddings(text["song_vectors.txt"])[1]]
    digest = {
        name: [
            sum(a.sum(dtype=np.float64) for a in arrs),
            np.sqrt(sum(np.square(a, dtype=np.float64).sum() for a in arrs)),
        ]
        for name, arrs in arrays.items()
    }
    expected_digest, expected_predictions = GOLDEN[model]
    assert set(digest) == set(expected_digest)
    for name, values in expected_digest.items():
        np.testing.assert_allclose(digest[name], values, rtol=1e-9, err_msg=name)
    predicted = [row.split(",")[2] for row in text["predictions.csv"].splitlines()[1:]]
    assert predicted == expected_predictions


def test_doc2vec_song_vectors_refuse_a_song_with_no_in_vocabulary_motif():
    """PV-DBOW refuses song 'b', since skipping it would shift every later row
    onto the wrong id; ``classify`` drops it first, so each kept song has its row."""
    songs = [
        TokenizedSong(id="a", label="x", tokens=("p", "q")),
        TokenizedSong(id="b", label="x", tokens=("zzz",)),
        TokenizedSong(id="c", label="y", tokens=("q", "p")),
        TokenizedSong(id="d", label="y", tokens=("p", "q")),
        TokenizedSong(id="e", label="x", tokens=("q", "q")),
    ]
    vocab = build_vocab([songs[0].tokens])
    embedding = SkipgramConfig(dim=4, negatives=2, epochs=1)
    with pytest.raises(ValueError, match="^song 'b' has no in-vocabulary motif$"):
        train_pvdbow(songs, vocab, embedding)
    config = ExperimentConfig(model="doc2vec", embedding=embedding)
    files = classify(config, songs, vocab)[3]
    assert read_embeddings(files["song_vectors.txt"])[0] == ["a", "c", "d", "e"]


def _no_motif_readers():
    """Each model's way in for one song, over a vocabulary of p and q."""
    vocab = build_vocab([("p", "q")])
    emb = Embeddings(vocab=vocab, input_vectors=np.eye(2), output_vectors=np.zeros((2, 2)))
    model = init_model(2, ["x", "y"], hidden=3, attention_dim=2)
    pvdbow = SkipgramConfig(dim=2, negatives=1, epochs=1)
    return {
        "make_examples": lambda song: make_examples([song], emb, ["x", "y"]),
        "predict_song": lambda song: predict_song(model, song, emb),
        "average_embedding": lambda song: average_embedding(song, emb),
        "train_pvdbow": lambda song: train_pvdbow([song], vocab, pvdbow),
    }


@pytest.mark.parametrize("reader", sorted(_no_motif_readers()))
def test_every_model_refuses_a_song_with_no_motif_by_name(reader):
    read = _no_motif_readers()[reader]
    read(TokenizedSong(id="a", label="x", tokens=("zzz", "p")))
    with pytest.raises(ValueError, match="^song 'b' has no in-vocabulary motif$"):
        read(TokenizedSong(id="b", label="x", tokens=("zzz", "nope")))


@pytest.mark.parametrize("model", MODELS)
def test_classify_drops_a_song_with_no_motif_before_the_split(model):
    config = fast_config(model=model)
    songs, vocab = motif_songs(config, small_corpus())
    blank = TokenizedSong(id="blank", label=songs[0].label, tokens=("zzz",))
    train, test = classify(config, [*songs[:3], blank, *songs[3:]], vocab)[:2]
    assert (train, test) == split_dataset(songs, config.split_ratio, config.seed)


def motif_songs(config, corpus):
    """The songs and vocabulary that ``run_experiment`` hands to ``classify``."""
    songs = tokenize_corpus(corpus, config.representation, multiword=config.multiword_size,
                            multiword_mode=config.multiword_mode)
    return songs, build_vocab([s.tokens for s in songs], config.min_count)


def count_skipgram(monkeypatch):
    calls = []
    train = folkmotif.experiment.train_skipgram

    def counted(*args):
        calls.append(args)
        return train(*args)

    monkeypatch.setattr(folkmotif.experiment, "train_skipgram", counted)
    return calls


@pytest.mark.parametrize("model", ["attention", "average"])
def test_classify_given_motif_vectors_trains_no_skipgram(monkeypatch, model):
    config = fast_config(model=model)
    songs, vocab = motif_songs(config, small_corpus())
    embeddings = train_skipgram(songs, vocab, config.embedding, config.seed)
    calls = count_skipgram(monkeypatch)
    train, test, predictions, files, weighted, report = classify(config, songs, vocab, embeddings)
    assert calls == []
    assert "embeddings.txt" not in files
    assert len(train) + len(test) == len(songs)
    assert len(predictions) == len(test) == report.confusion.sum()
    assert (weighted is None) == (model == "average")


@pytest.mark.parametrize("model", sorted(GOLDEN))
def test_classify_trains_skipgram_only_when_the_model_reads_motif_vectors(
    tmp_path, monkeypatch, model
):
    """Without vectors, attention and average train skip-gram once, and every
    file equals the one-shot run's; doc2vec never trains skip-gram."""
    config = fast_config(model=model)
    _, artifacts = run_experiment(config, small_corpus(), tmp_path)
    calls = count_skipgram(monkeypatch)
    files = classify(config, *motif_songs(config, small_corpus()))[3]
    assert len(calls) == (model != "doc2vec")
    assert ("embeddings.txt" in files) == (model != "doc2vec")
    for name, text in files.items():
        assert text.encode("utf-8") == Path(artifacts[name]).read_bytes(), name


def test_report_returned_without_out_dir():
    report, artifacts = run_experiment(fast_config(model="average"), small_corpus())
    assert artifacts == {}
    assert report.labels == ["alpha", "beta"]


def test_average_baseline_separates_synthetic_classes():
    """Over five seeds of the split and the trainers: with 10 test songs one
    seed's accuracy moves in steps of 0.1, so a single seed pins one draw."""
    corpus = small_corpus(seed=3, songs_per_class=20)
    accuracies = []
    for seed in range(5):
        config = fast_config(
            model="average",
            seed=seed,
            embedding=SkipgramConfig(dim=8, window=2, negatives=3, epochs=8),
            svm=SvmConfig(epochs=200, lam=0.001),
        )
        accuracies.append(run_experiment(config, corpus)[0].accuracy)
    assert np.mean(accuracies) >= 0.9, accuracies


def test_stage_name_in_vocabulary_error():
    with pytest.raises(ExperimentError, match="stage 'vocabulary'"):
        run_experiment(fast_config(min_count=10_000), small_corpus())


def test_stage_name_in_split_error():
    with pytest.raises(ExperimentError, match="stage 'split': class 'alpha' gets no training song"):
        run_experiment(fast_config(split_ratio=0.01), small_corpus(songs_per_class=4))


def test_stage_name_in_tokenize_error():
    empty = LabeledCorpus(melodies=[])
    with pytest.raises(ExperimentError, match="stage 'tokenize'"):
        run_experiment(fast_config(), empty)


def test_config_json_round_trip():
    config = fast_config(model="doc2vec", min_count=2, seed=7)
    text = json.dumps(config.to_dict())
    assert ExperimentConfig.from_json(text) == config


def test_config_defaults_from_empty_object():
    config = ExperimentConfig.from_json("{}")
    assert config.model == "attention"
    assert config.embedding.dim == 150
    assert config.classifier.hidden == 200


def test_the_top_level_seed_is_the_only_seed():
    """A per-stage seed would let a config train its stages at different seeds."""
    seeds, nested = [], set()

    def walk(cls, prefix):
        for name, kind in typing.get_type_hints(cls).items():
            if name == "seed":
                seeds.append(prefix + name)
            if dataclasses.is_dataclass(kind):
                nested.add(kind)
                walk(kind, f"{prefix}{name}.")

    walk(ExperimentConfig, "")
    assert nested == {SkipgramConfig, ClassifierConfig, SvmConfig}
    assert seeds == ["seed"]


def test_unknown_top_level_field_rejected():
    with pytest.raises(ValueError, match="unknown experiment config fields"):
        ExperimentConfig.from_dict({"modle": "attention"})


def test_unknown_nested_field_rejected():
    with pytest.raises(ValueError, match="unknown embedding config fields"):
        ExperimentConfig.from_dict({"embedding": {"dims": 8}})


def test_mistyped_field_names_its_block_field_and_value():
    with pytest.raises(ValueError, match="^embedding config field dim must be an integer, got '8'$"):
        ExperimentConfig.from_dict({"embedding": {"dim": "8"}})
    message = "^experiment config field seed must be an integer, got True$"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict({"seed": True})


def test_float_field_keeps_an_integer_as_given():
    """So a config file's ``1`` is written back to experiment.json as ``1``."""
    config = ExperimentConfig.from_dict({"split_ratio": 0.5, "svm": {"lam": 1}})
    assert config.svm.lam == 1 and isinstance(config.svm.lam, int)
    assert config.split_ratio == 0.5


def test_invalid_choices_rejected():
    with pytest.raises(ValueError, match="representation"):
        ExperimentConfig(representation="melodic")
    with pytest.raises(ValueError, match="multiword_size"):
        ExperimentConfig(multiword_size=4)
    with pytest.raises(ValueError, match="split_ratio"):
        ExperimentConfig(split_ratio=1.0)
