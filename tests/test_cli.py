import argparse
import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from folkmotif.attention import alpha_csv, load_model, predict_song, vocab_digest
from folkmotif.baselines import SvmConfig, read_svm
import folkmotif.cli
from folkmotif.attention import ClassifierConfig
from folkmotif.cli import _build_parser, main
from folkmotif.experiment import ExperimentConfig, run_experiment
from folkmotif.melody import Melody, NoteEvent, read_jsonl, write_jsonl
from folkmotif.sgns import Embeddings, SkipgramConfig, read_embeddings
from folkmotif.synth import SynthConfig, generate_corpus
from folkmotif.tokens import read_token_file
from folkmotif.vocab import read_vocab

KERN_SONG = """**kern
*M4/4
4c
4d
4e
4f
=
4g
4a
4g
4f
*-
"""

KERN_SONG_LOW = """**kern
*M4/4
4C
4D
4E
4F
=
4G
4A
4G
4F
*-
"""


@pytest.fixture
def kern_dirs(tmp_path):
    german = tmp_path / "german"
    chinese = tmp_path / "chinese"
    german.mkdir()
    chinese.mkdir()
    for i in range(3):
        (german / f"g{i}.krn").write_text(KERN_SONG)
        (chinese / f"c{i}.krn").write_text(KERN_SONG_LOW)
    (german / "broken.krn").write_text("**kern\n4c\n")  # note before any meter
    return german, chinese


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("ingest", "tokenize", "train-embeddings", "similar", "train-classifier",
                 "baseline", "evaluate", "experiment", "synth-corpus"):
        assert name in out, name


def test_malformed_source_pair_is_usage_error(tmp_path, capsys):
    assert main(["ingest", "just-a-path", "--out", str(tmp_path / "c.jsonl")]) == 1
    assert "LABEL=PATH" in capsys.readouterr().err


def test_missing_file_is_data_error(tmp_path):
    assert main(["ingest", f"x={tmp_path}/nope.krn", "--out", str(tmp_path / "c.jsonl")]) == 2


def test_ingest_reports_counts_and_skips(kern_dirs, tmp_path, capsys):
    german, chinese = kern_dirs
    out = tmp_path / "corpus.jsonl"
    assert main(["ingest", f"german={german}", f"chinese={chinese}", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "wrote 6 melodies" in captured.out
    assert "1 file(s) skipped" in captured.out
    assert "broken.krn" in captured.err
    melodies = read_jsonl(out.read_bytes())
    assert sorted({m.label for m in melodies}) == ["chinese", "german"]


def test_ingest_refuses_a_class_name_with_a_space(kern_dirs, tmp_path, capsys):
    german, _ = kern_dirs
    assert main(["ingest", f"my class={german}", "--out", str(tmp_path / "c.jsonl")]) == 2
    message = f"{german / 'g0.krn'}: song 'g0': class name 'my class' holds ' '"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c.jsonl").exists()


def test_tokenize_refuses_a_song_id_with_a_tab(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(write_jsonl([melody("a\tb", "alpha", [60, 62, 64])]))
    assert main(["tokenize", "--corpus", str(corpus), "--out", str(tmp_path / "t.tsv")]) == 2
    assert "line 1: song id 'a\\tb' holds '\\t'" in capsys.readouterr().err


def test_tokenize_refuses_a_repeated_song_id(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(write_jsonl([melody("s", "alpha", [60, 62, 64]),
                                    melody("s", "beta", [60, 64, 67])]))
    tokens = tmp_path / "t.tsv"
    assert main(["tokenize", "--corpus", str(corpus), "--out", str(tokens)]) == 2
    assert "line 2: duplicate melody id 's'" in capsys.readouterr().err
    assert not tokens.exists()


def test_tokenize_refuses_phrase_mode_without_multiwords(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(write_jsonl([melody("s", "alpha", [60, 62, 64])]))
    tokens = tmp_path / "t.tsv"
    assert main(["tokenize", "--corpus", str(corpus), "--mw-size", "1", "--phrase-mode",
                 "--out", str(tokens)]) == 1
    assert "--phrase-mode needs --mw-size 2 or 3" in capsys.readouterr().err
    assert not tokens.exists()


def test_tokenize_writes_token_file(kern_dirs, tmp_path):
    german, chinese = kern_dirs
    corpus = tmp_path / "corpus.jsonl"
    tokens = tmp_path / "tokens.tsv"
    main(["ingest", f"german={german}", f"chinese={chinese}", "--out", str(corpus)])
    assert main(["tokenize", "--corpus", str(corpus), "--mode", "rhythmic",
                 "--mw-size", "1", "--out", str(tokens)]) == 0
    songs = read_token_file(tokens.read_text())
    assert len(songs) == 6
    assert all(t.count("-") == 2 for s in songs for t in s.tokens)


def synth_pipeline(tmp_path, *, songs_per_class=8):
    corpus = tmp_path / "synthetic.jsonl"
    tokens = tmp_path / "tokens.tsv"
    emb = tmp_path / "embeddings.txt"
    vocab = tmp_path / "vocab.tsv"
    assert main(["synth-corpus", "--songs-per-class", str(songs_per_class),
                 "--min-length", "10", "--max-length", "14", "--seed", "1",
                 "--out", str(corpus)]) == 0
    assert main(["tokenize", "--corpus", str(corpus), "--mw-size", "2",
                 "--out", str(tokens)]) == 0
    assert main(["train-embeddings", "--tokens", str(tokens), "--dim", "8",
                 "--window", "2", "--negatives", "2", "--epochs", "2",
                 "--out-embeddings", str(emb), "--out-vocab", str(vocab)]) == 0
    return corpus, tokens, emb, vocab


def test_train_embeddings_reports_objective(tmp_path, capsys):
    synth_pipeline(tmp_path)
    out = capsys.readouterr().out
    assert "epoch 1/2: objective" in out
    assert "x 8 embeddings" in out


def test_similar_lists_neighbors(tmp_path, capsys):
    _, _, emb, vocab = synth_pipeline(tmp_path)
    token = vocab.read_text().splitlines()[0].split("\t")[0]
    capsys.readouterr()
    assert main(["similar", token, "--embeddings", str(emb), "--k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(len(line.split("\t")) == 2 for line in lines)


def test_similar_unknown_token_is_data_error(tmp_path, capsys):
    _, _, emb, _ = synth_pipeline(tmp_path)
    assert main(["similar", "no-such-motif", "--embeddings", str(emb)]) == 2
    assert "error" in capsys.readouterr().err


def test_similar_unknown_token_prints_the_message_and_its_hint(tmp_path, capsys):
    emb = tmp_path / "embeddings.txt"
    emb.write_text("3 2\n11_10 0.1 0.2\n10_10 0.3 0.4\n21_20 0.5 0.6\n")
    assert main(["similar", "11_100", "--embeddings", str(emb)]) == 2
    err = "error: unknown token '11_100'; did you mean '11_10', '10_10'?\n"
    assert capsys.readouterr().err == err


def test_similar_lists_no_zero_vector_and_never_the_query(tmp_path, capsys):
    emb = tmp_path / "z.txt"
    emb.write_text("3 2\na 0.1 0.2\nb 0.0 0.0\nc 0.3 0.1\n")
    assert main(["similar", "a", "--embeddings", str(emb), "--k", "5"]) == 0
    assert capsys.readouterr().out == "c\t0.7071\n"


def test_similar_refuses_a_repeated_embedding_row(tmp_path, capsys):
    emb = tmp_path / "embeddings.txt"
    emb.write_text("2 1\na 1.0\na 2.0\n")
    assert main(["similar", "a", "--embeddings", str(emb)]) == 2
    assert "line 3: duplicate token 'a'" in capsys.readouterr().err


def test_train_classifier_writes_model_metrics_alphas(tmp_path, capsys):
    _, tokens, emb, vocab = synth_pipeline(tmp_path)
    model = tmp_path / "model.txt"
    metrics = tmp_path / "metrics.json"
    alphas = tmp_path / "alphas"
    assert main(["train-classifier", "--tokens", str(tokens), "--embeddings", str(emb),
                 "--vocab", str(vocab), "--hidden", "5", "--attention-dim", "3",
                 "--epochs", "2", "--max-len", "30", "--out", str(model),
                 "--out-json", str(metrics), "--alpha-dir", str(alphas)]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert model.is_file()
    assert 0.0 <= json.loads(metrics.read_text())["accuracy"] <= 1.0
    csvs = sorted(alphas.glob("*.csv"))
    assert len(csvs) == 4  # 25% of 16 songs
    assert csvs[0].read_text().splitlines()[0] == "motif,weight"

    # The written checkpoint reloads to the model that wrote the alpha CSVs.
    restored, meta = load_model(model.read_text())
    _, matrix = read_embeddings(emb.read_text())
    embeddings = Embeddings(read_vocab(vocab.read_text()), matrix, np.zeros_like(matrix))
    assert meta["vocab_sha256"] == vocab_digest(embeddings.vocab)
    songs = {s.id: s for s in read_token_file(tokens.read_text())}
    _, _, weighted = predict_song(restored, songs[csvs[0].stem], embeddings, max_len=30)
    assert alpha_csv(weighted) == csvs[0].read_text()


def test_train_classifier_refuses_song_ids_outside_the_alpha_dir(tmp_path, capsys):
    _, tokens, emb, vocab = synth_pipeline(tmp_path)
    rows = [line.split("\t", 1)[1] for line in tokens.read_text().splitlines()]
    tokens.write_text("".join(f"../esc{i}\t{row}\n" for i, row in enumerate(rows)))
    run = tmp_path / "run"
    assert main(["train-classifier", "--tokens", str(tokens), "--embeddings", str(emb),
                 "--vocab", str(vocab), "--hidden", "5", "--attention-dim", "3",
                 "--epochs", "1", "--out", str(tmp_path / "model.txt"),
                 "--alpha-dir", str(run / "alphas")]) == 2
    assert "line 1: song id '../esc0' holds '/'" in capsys.readouterr().err
    assert not list(tmp_path.rglob("esc*.csv"))


def test_train_classifier_split_error_names_its_stage(tmp_path, capsys):
    _, tokens, emb, vocab = synth_pipeline(tmp_path)
    assert main(["train-classifier", "--tokens", str(tokens), "--embeddings", str(emb),
                 "--vocab", str(vocab), "--ratio", "0.95",
                 "--out", str(tmp_path / "model.txt")]) == 2
    err = "error: stage 'split': class 'alpha' gets no test song at ratio 0.95\n"
    assert capsys.readouterr().err == err
    assert not (tmp_path / "model.txt").exists()


def test_train_classifier_refuses_a_val_fraction_that_holds_out_no_song(tmp_path, capsys):
    # 12 of the 16 songs train; 0.01 of 12 rounds to 0 held-out songs.
    _, tokens, emb, vocab = synth_pipeline(tmp_path)
    assert main(["train-classifier", "--tokens", str(tokens), "--embeddings", str(emb),
                 "--vocab", str(vocab), "--hidden", "5", "--attention-dim", "3",
                 "--epochs", "1", "--val-fraction", "0.01",
                 "--out", str(tmp_path / "model.txt")]) == 2
    err = "error: stage 'classifier': val_fraction 0.01 of 12 songs holds out no song\n"
    assert capsys.readouterr().err == err
    assert not (tmp_path / "model.txt").exists()


def test_classifier_divergence_exit_code(tmp_path, capsys):
    _, tokens, emb, vocab = synth_pipeline(tmp_path)
    assert main(["train-classifier", "--tokens", str(tokens), "--embeddings", str(emb),
                 "--vocab", str(vocab), "--hidden", "5", "--attention-dim", "3",
                 "--epochs", "3", "--lr", "1e9", "--out", str(tmp_path / "m.txt")]) == 3
    assert "diverged" in capsys.readouterr().err


def test_baseline_average(tmp_path, capsys):
    _, tokens, emb, vocab = synth_pipeline(tmp_path)
    svm = tmp_path / "svm.txt"
    assert main(["baseline", "average", "--tokens", str(tokens), "--embeddings", str(emb),
                 "--vocab", str(vocab), "--out-svm", str(svm)]) == 0
    assert "accuracy" in capsys.readouterr().out
    _, names = read_svm(svm.read_text())
    assert names == ["alpha", "beta"]


def test_baseline_average_requires_embeddings(tmp_path, capsys):
    _, tokens, _, _ = synth_pipeline(tmp_path)
    assert main(["baseline", "average", "--tokens", str(tokens)]) == 1
    assert "--embeddings" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--dim", "3"], ["--negatives", "2"], ["--epochs", "99"]])
def test_baseline_average_refuses_doc2vec_flags(tmp_path, capsys, flag):
    _, tokens, emb, vocab = synth_pipeline(tmp_path)
    assert main(["baseline", "average", "--tokens", str(tokens), "--embeddings", str(emb),
                 "--vocab", str(vocab), *flag]) == 1
    assert "the average model trains no vectors" in capsys.readouterr().err


def test_baseline_doc2vec(tmp_path, capsys):
    _, tokens, _, vocab = synth_pipeline(tmp_path)
    assert main(["baseline", "doc2vec", "--tokens", str(tokens), "--vocab", str(vocab),
                 "--dim", "8", "--epochs", "2"]) == 0
    assert "accuracy" in capsys.readouterr().out


def test_baseline_doc2vec_refuses_embeddings(tmp_path, capsys):
    _, tokens, emb, vocab = synth_pipeline(tmp_path)
    assert main(["baseline", "doc2vec", "--tokens", str(tokens), "--embeddings", str(emb),
                 "--vocab", str(vocab)]) == 1
    assert "doc2vec learns its own song vectors" in capsys.readouterr().err


def test_baseline_refuses_a_repeated_song_id(tmp_path, capsys):
    _, tokens, _, vocab = synth_pipeline(tmp_path)
    lines = tokens.read_text().splitlines(keepends=True)
    first_id = lines[0].split("\t")[0]
    second = lines[1].split("\t", 1)[1]
    tokens.write_text(lines[0] + f"{first_id}\t{second}" + "".join(lines[2:]))
    assert main(["baseline", "doc2vec", "--tokens", str(tokens), "--vocab", str(vocab),
                 "--dim", "8", "--epochs", "2"]) == 2
    assert f"line 2: duplicate melody id {first_id!r}" in capsys.readouterr().err


def test_evaluate_from_csv(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    preds.write_text("id,gold,predicted\ns1,a,a\ns2,a,b\ns3,b,b\n")
    out_json = tmp_path / "m.json"
    assert main(["evaluate", "--predictions", str(preds), "--out-json", str(out_json)]) == 0
    assert "0.6667" in capsys.readouterr().out
    assert json.loads(out_json.read_text())["accuracy"] == pytest.approx(2 / 3)


def test_evaluate_reads_experiment_predictions_with_quoted_ids(tmp_path):
    corpus = generate_corpus(SynthConfig(songs_per_class=10, min_length=10, max_length=14, seed=1))
    for i, melody in enumerate(corpus.melodies):
        melody.id = f'song{i},"take{i}"'
    config = ExperimentConfig(
        model="average",
        embedding=SkipgramConfig(dim=8, window=2, negatives=2, epochs=2),
        svm=SvmConfig(epochs=50),
    )
    _, artifacts = run_experiment(config, corpus, tmp_path / "run")
    out_json = tmp_path / "m.json"
    assert main(["evaluate", "--predictions", artifacts["predictions.csv"],
                 "--out-json", str(out_json)]) == 0
    assert out_json.read_bytes() == Path(artifacts["metrics.json"]).read_bytes()


def test_evaluate_rejects_headerless_csv(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    preds.write_text("s1,a,a\n")
    assert main(["evaluate", "--predictions", str(preds)]) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("id,gold,predicted\na,x\nb,x,x\n", "line 2: expected id,gold,predicted"),
        ("id,gold,predicted\na\n", "line 2: expected id,gold,predicted"),
        ("id,gold,predicted\n", "has no prediction rows"),
        ("id,gold,predicted\na,x,x,extra\nb,y,y\n", "line 2: more fields than the header"),
    ],
    ids=["no-predicted", "no-gold", "header-only", "extra-field"],
)
def test_evaluate_refuses_a_csv_without_complete_rows(tmp_path, capsys, text, message):
    preds = tmp_path / "preds.csv"
    preds.write_text(text)
    assert main(["evaluate", "--predictions", str(preds)]) == 2
    assert f"{preds} {message}" in capsys.readouterr().err


def melody(song_id, label, pitches):
    events = [NoteEvent(pitch=p, duration=Fraction(1), onset=Fraction(j % 4), measure=j // 4)
              for j, p in enumerate(pitches)]
    return Melody(id=song_id, label=label, meter=[(0, 4, 4)], events=events)


def write_single_label_corpora(tmp_path, extra=lambda label: []):
    """One JSONL file per synthetic class; extra(label) lists melodies to append."""
    source = tmp_path / "all.jsonl"
    main(["synth-corpus", "--songs-per-class", "8", "--min-length", "10",
          "--max-length", "14", "--seed", "2", "--out", str(source)])
    melodies = read_jsonl(source.read_bytes())
    paths = {}
    for label in ("alpha", "beta"):
        path = tmp_path / f"{label}.jsonl"
        path.write_bytes(write_jsonl([m for m in melodies if m.label == label] + extra(label)))
        paths[label] = path
    return paths


def two_note_song(label):
    """One interval, so no bigram motif: tokenize writes the song with no tokens."""
    return [melody(f"short-{label}", label, [60, 62])]


FAST_EXPERIMENT = {
    "embedding": {"dim": 8, "window": 2, "negatives": 2, "epochs": 2},
    "classifier": {"hidden": 5, "attention_dim": 3, "epochs": 2, "max_len": 30},
    "svm": {"epochs": 50},
}


def test_experiment_one_end_to_end(tmp_path, capsys):
    paths = write_single_label_corpora(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(FAST_EXPERIMENT))
    out_dir = tmp_path / "out"
    assert main(["experiment", "1", f"german={paths['alpha']}", f"chinese={paths['beta']}",
                 "--config", str(config), "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "experiment 1" in out
    assert (out_dir / "metrics.json").is_file()
    assert (out_dir / "model.txt").is_file()
    labels = json.loads((out_dir / "metrics.json").read_text())["labels"]
    assert labels == ["chinese", "german"]


# The staged commands' flags that match FAST_EXPERIMENT's non-default values.
FAST_STAGED = {
    "train-embeddings": ["--dim", "8", "--window", "2", "--negatives", "2", "--epochs", "2"],
    "train-classifier": ["--hidden", "5", "--attention-dim", "3", "--epochs", "2",
                         "--max-len", "30"],
    "baseline-doc2vec": ["--dim", "8", "--negatives", "2", "--epochs", "2", "--svm-epochs", "50"],
    "baseline-average": ["--svm-epochs", "50"],
}


@pytest.mark.parametrize("model", ["attention", "doc2vec", "average"])
def test_staged_commands_reproduce_experiment_one(tmp_path, model):
    paths = write_single_label_corpora(tmp_path, extra=two_note_song)
    sources = [f"alpha={paths['alpha']}", f"beta={paths['beta']}"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": model,
        "seed": 3,
        **FAST_EXPERIMENT,
    }))
    one_shot = tmp_path / "one-shot"
    assert main(["experiment", "1", *sources, "--config", str(config),
                 "--out-dir", str(one_shot)]) == 0

    staged = tmp_path / "staged"
    staged.mkdir()
    corpus, tokens = staged / "corpus.jsonl", staged / "tokens.tsv"
    emb, vocab = staged / "embeddings.txt", staged / "vocab.tsv"
    seed = ["--seed", "3"]
    assert main(["ingest", *sources, "--out", str(corpus)]) == 0
    assert main(["tokenize", "--corpus", str(corpus), "--out", str(tokens)]) == 0
    assert "short-alpha\talpha\t\n" in tokens.read_text()
    assert main(["train-embeddings", "--tokens", str(tokens), *FAST_STAGED["train-embeddings"],
                 *seed, "--out-embeddings", str(emb), "--out-vocab", str(vocab)]) == 0
    common = ["--tokens", str(tokens), "--vocab", str(vocab), *seed,
              "--out-json", str(staged / "metrics.json")]
    if model == "attention":
        assert main(["train-classifier", *common, "--embeddings", str(emb),
                     *FAST_STAGED["train-classifier"], "--out", str(staged / "model.txt")]) == 0
        compared = ["embeddings.txt", "model.txt"]
    else:
        with_emb = ["--embeddings", str(emb)] if model == "average" else []
        assert main(["baseline", model, *common, *with_emb, *FAST_STAGED[f"baseline-{model}"],
                     "--out-svm", str(staged / "svm.txt")]) == 0
        compared = ["svm.txt"] + (["embeddings.txt"] if model == "average" else [])
    for name in ["tokens.tsv", "vocab.tsv", "metrics.json", *compared]:
        assert (staged / name).read_bytes() == (one_shot / name).read_bytes(), name


def test_train_classifier_skips_song_with_only_rare_motifs(tmp_path, capsys):
    # Intervals of 37 and 41 occur nowhere else, so min_count 2 prunes the
    # song's one bigram.
    rare_song = melody("rare-beta", "beta", [20, 57, 98])
    paths = write_single_label_corpora(
        tmp_path, extra=lambda label: [rare_song] if label == "beta" else []
    )
    corpus, tokens = tmp_path / "corpus.jsonl", tmp_path / "tokens.tsv"
    emb, vocab = tmp_path / "embeddings.txt", tmp_path / "vocab.tsv"
    assert main(["ingest", f"alpha={paths['alpha']}", f"beta={paths['beta']}",
                 "--out", str(corpus)]) == 0
    assert main(["tokenize", "--corpus", str(corpus), "--out", str(tokens)]) == 0
    assert main(["train-embeddings", "--tokens", str(tokens), *FAST_STAGED["train-embeddings"],
                 "--min-count", "2", "--out-embeddings", str(emb),
                 "--out-vocab", str(vocab)]) == 0
    rare = next(s for s in read_token_file(tokens.read_text()) if s.id == "rare-beta")
    assert rare.tokens and not any(t in read_vocab(vocab.read_text()) for t in rare.tokens)
    assert main(["train-classifier", "--tokens", str(tokens), "--embeddings", str(emb),
                 "--vocab", str(vocab), *FAST_STAGED["train-classifier"],
                 "--out", str(tmp_path / "model.txt")]) == 0
    assert "(12 train / 4 test)" in capsys.readouterr().out


def test_experiment_source_count_enforced(tmp_path, capsys):
    paths = write_single_label_corpora(tmp_path)
    args = ["experiment", "2", f"a={paths['alpha']}", f"b={paths['beta']}"]
    assert main(args) == 1
    assert "exactly 3" in capsys.readouterr().err


def test_experiment_bad_config_is_data_error(tmp_path, capsys):
    paths = write_single_label_corpora(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"modle": "attention"}))
    assert main(["experiment", "1", f"a={paths['alpha']}", f"b={paths['beta']}",
                 "--config", str(config)]) == 2
    assert "unknown experiment config fields" in capsys.readouterr().err


def test_experiment_config_with_workers_is_data_error(tmp_path, capsys):
    paths = write_single_label_corpora(tmp_path)
    config = tmp_path / "config.json"
    sources = [f"a={paths['alpha']}", f"b={paths['beta']}"]
    config.write_text(json.dumps({"embedding": {"workers": 4}}))
    assert main(["experiment", "1", *sources, "--config", str(config)]) == 2
    assert "workers" in capsys.readouterr().err
    # The top-level seed is the experiment's only one.
    for block in ("embedding", "classifier", "svm"):
        config.write_text(json.dumps({block: {"seed": 1}}))
        assert main(["experiment", "1", *sources, "--config", str(config)]) == 2
        assert f"unknown {block} config fields: ['seed']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, field",
    [
        ({"embedding": {"lr_min": 1.0}}, "lr_min"),
        ({"classifier": {"clip_norm": 0}}, "clip_norm"),
        # A value of the wrong JSON type is refused before any stage runs.
        ({"embedding": {"dim": "8"}}, "dim"),
        ({"classifier": {"hidden": "4"}}, "hidden"),
        ({"svm": {"lam": "0.1"}}, "lam"),
        ({"min_count": "1"}, "min_count"),
        ({"split_ratio": "0.5"}, "split_ratio"),
        ({"multiword_size": 2.0}, "multiword_size"),
        ({"embedding": {"dim": 8.0}}, "dim"),
        ({"seed": 1.5}, "seed"),
        ({"embedding": {"epochs": True}}, "epochs"),
        ({"svm": {"lam": False}}, "lam"),
        ({"representation": 1}, "representation"),
        # A config that is not a JSON object is refused before it is read.
        (1, "experiment config"),
        (None, "experiment config"),
        ("ab", "experiment config"),
        ([], "experiment config"),
        ([["model", "doc2vec"]], "experiment config"),
        ({"seed": -1}, "seed"),
    ],
)
def test_experiment_config_with_bad_step_setting_is_data_error(tmp_path, capsys, bad, field):
    paths = write_single_label_corpora(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bad))
    assert main(["experiment", "1", f"a={paths['alpha']}", f"b={paths['beta']}",
                 "--config", str(config)]) == 2
    assert f"{field} must" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["synth-corpus", "--seed", "-1"], "seed must be non-negative"),
    (["train-embeddings", "--tokens", "tokens.tsv", "--seed", "-1"], "seed must be non-negative"),
    (["train-embeddings", "--tokens", "tokens.tsv", "--min-count", "0"],
     "min_count must be at least 1"),
], ids=["synth-corpus-seed", "train-embeddings-seed", "train-embeddings-min-count"])
def test_a_negative_seed_or_zero_min_count_names_its_field(tmp_path, monkeypatch, capsys, argv,
                                                           message):
    monkeypatch.chdir(tmp_path)
    staged_inputs(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt", "tokens.tsv", "vocab.tsv"]


def test_experiment_doc2vec_divergence_exit_code(tmp_path, capsys):
    paths = write_single_label_corpora(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        **FAST_EXPERIMENT,
        "model": "doc2vec",
        "embedding": {**FAST_EXPERIMENT["embedding"], "lr": 1e8, "lr_min": 1e8},
    }))
    assert main(["experiment", "1", f"a={paths['alpha']}", f"b={paths['beta']}",
                 "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 3
    assert "diverged" in capsys.readouterr().err


def test_synth_corpus_custom_inventories(tmp_path):
    out = tmp_path / "c.jsonl"
    assert main(["synth-corpus", "--inventory", "x=1", "--inventory", "y=4,6",
                 "--noise", "2", "--songs-per-class", "3", "--min-length", "10",
                 "--max-length", "12", "--out", str(out)]) == 0
    melodies = read_jsonl(out.read_bytes())
    assert sorted({m.label for m in melodies}) == ["x", "y"]
    assert len(melodies) == 6


@pytest.mark.parametrize("songs", ["0", "-2"])
def test_synth_corpus_refuses_fewer_than_one_song_per_class(tmp_path, capsys, songs):
    out = tmp_path / "c.jsonl"
    assert main(["synth-corpus", "--songs-per-class", songs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: songs_per_class must be at least 1, got {songs}\n"
    assert not out.exists()


def test_synth_corpus_overlapping_inventories_rejected(tmp_path, capsys):
    assert main(["synth-corpus", "--inventory", "x=1", "--inventory", "y=1",
                 "--out", str(tmp_path / "c.jsonl")]) == 2


@pytest.mark.parametrize("argv, message", [
    (["--inventory", "x=1", "--inventory", "x=2", "--inventory", "y=4"],
     "--inventory: class 'x' is given twice"),
    (["--inventory", "x=1,,2", "--inventory", "y=4"],
     "--inventory x=1,,2: sizes must be comma-separated integers"),
    (["--inventory", "x=1", "--inventory", "y=4.5"],
     "--inventory y=4.5: sizes must be comma-separated integers"),
    (["--noise", "3,x"], "--noise 3,x: sizes must be comma-separated integers"),
    (["--noise", ""], "--noise : sizes must be comma-separated integers"),
], ids=["repeated-label", "empty-size", "non-integer-size", "non-integer-noise", "empty-noise"])
def test_synth_corpus_refuses_bad_sizes_naming_the_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "c.jsonl"
    assert main(["synth-corpus", *argv, "--songs-per-class", "2", "--min-length", "5",
                 "--max-length", "6", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# Each subcommand's options as the parser holds them:
# (option strings, dest, default, type, choices, required, help).
CLI_SURFACE = {
    "ingest": [
        ((), "sources", None, None, None, True, None),
        (("--out",), "out", "corpus.jsonl", None, None, False, None),
    ],
    "tokenize": [
        (("--corpus",), "corpus", None, None, None, True, None),
        (("--mode",), "mode", "intervallic", None, ("intervallic", "rhythmic"), False, None),
        (("--mw-size",), "mw_size", 2, int, (1, 2, 3), False,
         "multiword length; 1 keeps plain tokens"),
        (("--phrase-mode",), "phrase_mode", False, None, None, False,
         "merge statistically attached bigrams instead of sliding n-grams"),
        (("--out",), "out", "tokens.tsv", None, None, False, None),
    ],
    "train-embeddings": [
        (("--tokens",), "tokens", None, None, None, True, None),
        (("--dim",), "dim", 150, int, None, False, None),
        (("--window",), "window", 4, int, None, False, None),
        (("--negatives",), "negatives", 5, int, None, False, None),
        (("--epochs",), "epochs", 5, int, None, False, None),
        (("--seed",), "seed", 0, int, None, False, None),
        (("--min-count",), "min_count", 1, int, None, False, None),
        (("--out-embeddings",), "out_embeddings", "embeddings.txt", None, None, False, None),
        (("--out-vocab",), "out_vocab", "vocab.tsv", None, None, False, None),
    ],
    "similar": [
        ((), "token", None, None, None, True, None),
        (("--embeddings",), "embeddings", None, None, None, True, None),
        (("--k",), "k", 10, int, None, False, None),
    ],
    "train-classifier": [
        (("--tokens",), "tokens", None, None, None, True, None),
        (("--embeddings",), "embeddings", None, None, None, True, None),
        (("--vocab",), "vocab", None, None, None, True, None),
        (("--ratio",), "ratio", 0.75, float, None, False, "train fraction of the split"),
        (("--hidden",), "hidden", 200, int, None, False, None),
        (("--attention-dim",), "attention_dim", 100, int, None, False, None),
        (("--batch",), "batch", 10, int, None, False, None),
        (("--lr",), "lr", 0.05, float, None, False, None),
        (("--epochs",), "epochs", 30, int, None, False, None),
        (("--clip-norm",), "clip_norm", 5.0, float, None, False, None),
        (("--max-len",), "max_len", 500, int, None, False, None),
        (("--val-fraction",), "val_fraction", 0.0, float, None, False, None),
        (("--seed",), "seed", 0, int, None, False, None),
        (("--out",), "out", "model.txt", None, None, False, None),
        (("--out-json",), "out_json", None, None, None, False, "also write metrics JSON here"),
        (("--alpha-dir",), "alpha_dir", None, None, None, False,
         "write per-test-song attention weights as CSV files here"),
    ],
    "baseline": [
        ((), "kind", None, None, ("average", "doc2vec"), True, None),
        (("--tokens",), "tokens", None, None, None, True, None),
        (("--embeddings",), "embeddings", None, None, None, False, "required for kind=average"),
        (("--vocab",), "vocab", None, None, None, False, None),
        (("--ratio",), "ratio", 0.75, float, None, False, None),
        (("--seed",), "seed", 0, int, None, False, None),
        (("--dim",), "dim", 150, int, None, False, "doc2vec vector size"),
        (("--negatives",), "negatives", 5, int, None, False, None),
        (("--epochs",), "epochs", 5, int, None, False, "doc2vec training epochs"),
        (("--lam",), "lam", 0.01, float, None, False, "SVM regularization strength"),
        (("--svm-epochs",), "svm_epochs", 200, int, None, False,
         "most Newton steps the SVM may take"),
        (("--out-svm",), "out_svm", None, None, None, False, None),
        (("--out-json",), "out_json", None, None, None, False, None),
    ],
    "evaluate": [
        (("--predictions",), "predictions", None, None, None, True, None),
        (("--out-json",), "out_json", None, None, None, False, None),
    ],
    "experiment": [
        ((), "number", None, int, (1, 2), True, "1: two-class run, 2: three-class run"),
        ((), "sources", None, None, None, True, None),
        (("--config",), "config", None, None, None, False, "JSON file mirroring ExperimentConfig"),
        (("--out-dir",), "out_dir", None, None, None, False, None),
    ],
    "synth-corpus": [
        (("--inventory",), "inventory", None, None, None, False,
         "interval sizes owned by a class; repeatable"),
        (("--noise",), "noise", "3", None, None, False, "comma-separated shared interval sizes"),
        (("--songs-per-class",), "songs_per_class", 200, int, None, False, None),
        (("--min-length",), "min_length", 20, int, None, False, None),
        (("--max-length",), "max_length", 40, int, None, False, None),
        (("--noise-rate",), "noise_rate", 0.2, float, None, False, None),
        (("--seed",), "seed", 0, int, None, False, None),
        (("--out",), "out", "synthetic.jsonl", None, None, False, None),
    ],

}


def test_cli_surface_is_pinned():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == list(CLI_SURFACE)
    for name, command in commands.choices.items():
        # repr tells a default of 5 from 5.0.
        options = [
            (tuple(a.option_strings), a.dest, repr(a.default), a.type, a.choices, a.required,
             a.help)
            for a in command._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        expected = [(*row[:2], repr(row[2]), *row[3:]) for row in CLI_SURFACE[name]]
        assert options == expected, name


class Stop(Exception):
    """Raised by a stub to end a command once its config has been seen."""


def typed(value):
    """A config as nested dicts of (value, type), so that 2 and 2.0 differ."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(typed(v) for v in value)
    return value, type(value)


def staged_inputs(tmp_path):
    tokens, emb, vocab = (tmp_path / name for name in ("tokens.tsv", "emb.txt", "vocab.tsv"))
    tokens.write_text("".join(f"s{i}\t{'xy'[i % 2]}\ta b\n" for i in range(8)))
    emb.write_text("2 2\na 0.1 0.2\nb 0.3 0.4\n")
    vocab.write_text("a\t8\t0\nb\t8\t1\n")
    return {"tokens": ["--tokens", str(tokens)], "embeddings": ["--embeddings", str(emb)],
            "vocab": ["--vocab", str(vocab)]}


# command and inputs, the stubbed callee and the position of its config
# argument (for train_skipgram, of its config and seed arguments), every
# config flag set off its default, the config those flags make, and the
# config with no flags.
CONFIG_CASES = {
    "train-classifier": (
        ["train-classifier"], ("tokens", "embeddings", "vocab"), "classify", 0,
        ["--ratio", "0.5", "--hidden", "7", "--attention-dim", "6", "--batch", "3",
         "--lr", "0.5", "--epochs", "4", "--clip-norm", "2", "--max-len", "9",
         "--val-fraction", "0.25", "--seed", "5"],
        ExperimentConfig(model="attention", split_ratio=0.5, seed=5, classifier=ClassifierConfig(
            hidden=7, attention_dim=6, batch=3, lr=0.5, epochs=4, clip_norm=2.0, max_len=9,
            val_fraction=0.25)),
        ExperimentConfig(model="attention"),
    ),
    "train-embeddings": (
        ["train-embeddings"], ("tokens",), "train_skipgram", slice(2, None),
        ["--dim", "7", "--window", "3", "--negatives", "3", "--epochs", "4", "--seed", "5"],
        (SkipgramConfig(dim=7, window=3, negatives=3, epochs=4), 5),
        (SkipgramConfig(), 0),
    ),
    **{
        f"baseline-{kind}": (
            ["baseline", kind], inputs, "classify", 0,
            ["--ratio", "0.5", "--seed", "5", *doc2vec_flags, "--lam", "1", "--svm-epochs", "9"],
            ExperimentConfig(model=kind, split_ratio=0.5, seed=5, embedding=embedding,
                             svm=SvmConfig(lam=1.0, epochs=9)),
            ExperimentConfig(model=kind),
        )
        for kind, inputs, doc2vec_flags, embedding in (
            ("average", ("tokens", "embeddings", "vocab"), [], SkipgramConfig()),
            ("doc2vec", ("tokens", "vocab"), ["--dim", "7", "--negatives", "3", "--epochs", "4"],
             SkipgramConfig(dim=7, negatives=3, epochs=4)),
        )
    },
    "synth-corpus": (
        ["synth-corpus"], (), "generate_corpus", 0,
        ["--inventory", "x=1", "--inventory", "y=2,4", "--noise", "5,6",
         "--songs-per-class", "3", "--min-length", "5", "--max-length", "6",
         "--noise-rate", "0", "--seed", "5"],
        SynthConfig(inventories={"x": (1,), "y": (2, 4)}, noise_sizes=(5, 6), songs_per_class=3,
                    min_length=5, max_length=6, noise_rate=0.0, seed=5),
        SynthConfig(),
    ),
}


@pytest.mark.parametrize("case", list(CONFIG_CASES))
@pytest.mark.parametrize("flagged", [True, False], ids=["flags", "defaults"])
def test_config_flags_reach_the_callee(tmp_path, monkeypatch, case, flagged):
    command, inputs, callee, position, flags, expected, default = CONFIG_CASES[case]
    seen = []

    def stub(*args):
        seen.append(args[position])
        raise Stop

    monkeypatch.setattr(folkmotif.cli, callee, stub)
    paths = staged_inputs(tmp_path)
    argv = [*command, *(arg for name in inputs for arg in paths[name]), *(flags if flagged else [])]
    with pytest.raises(Stop):
        main(argv)
    assert typed(seen[0]) == typed(expected if flagged else default)
