import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from folkmotif.attention import alpha_csv, load_model, predict_song, vocab_digest
from folkmotif.baselines import SvmConfig, read_svm
from folkmotif.cli import main
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


def test_baseline_doc2vec(tmp_path, capsys):
    _, tokens, _, vocab = synth_pipeline(tmp_path)
    assert main(["baseline", "doc2vec", "--tokens", str(tokens), "--vocab", str(vocab),
                 "--dim", "8", "--epochs", "2"]) == 0
    assert "accuracy" in capsys.readouterr().out


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
    "baseline": ["--dim", "8", "--negatives", "2", "--epochs", "2", "--svm-epochs", "50"],
}


@pytest.mark.parametrize("model", ["attention", "doc2vec", "average"])
def test_staged_commands_reproduce_experiment_one(tmp_path, model):
    paths = write_single_label_corpora(tmp_path, extra=two_note_song)
    sources = [f"alpha={paths['alpha']}", f"beta={paths['beta']}"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": model,
        "seed": 3,
        **{block: {**values, "seed": 3} for block, values in FAST_EXPERIMENT.items()},
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
        assert main(["baseline", model, *common, *with_emb, *FAST_STAGED["baseline"],
                     "--out-svm", str(staged / "svm.txt")]) == 0
        compared = ["svm.txt"] + (["embeddings.txt"] if model == "average" else [])
    for name in ["vocab.tsv", "metrics.json", *compared]:
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
    config.write_text(json.dumps({"embedding": {"workers": 4}}))
    assert main(["experiment", "1", f"a={paths['alpha']}", f"b={paths['beta']}",
                 "--config", str(config)]) == 2
    assert "workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, field",
    [({"embedding": {"lr_min": 1.0}}, "lr_min"), ({"classifier": {"clip_norm": 0}}, "clip_norm")],
)
def test_experiment_config_with_bad_step_setting_is_data_error(tmp_path, capsys, bad, field):
    paths = write_single_label_corpora(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bad))
    assert main(["experiment", "1", f"a={paths['alpha']}", f"b={paths['beta']}",
                 "--config", str(config)]) == 2
    assert f"{field} must" in capsys.readouterr().err


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


def test_synth_corpus_overlapping_inventories_rejected(tmp_path, capsys):
    assert main(["synth-corpus", "--inventory", "x=1", "--inventory", "y=1",
                 "--out", str(tmp_path / "c.jsonl")]) == 2
