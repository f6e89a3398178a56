import base64
import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_gradients_close, central_difference

from folkmotif.attention import (
    AttentionParams,
    ClassifierConfig,
    GruDirection,
    ModelParams,
    OutputParams,
    SongExample,
    TrainingDiverged,
    _energy_grad,
    _forward,
    _param_arrays,
    _sgd_step,
    _sigmoid,
    alpha_csv,
    backward,
    forward_loss,
    init_model,
    load_model,
    make_examples,
    predict,
    predict_song,
    save_model,
    train_classifier,
    vocab_digest,
    zero_gradients,
)
from folkmotif.sgns import Embeddings
from folkmotif.tokens import TokenizedSong
from folkmotif.vocab import Vocabulary


def zero_direction(h, d):
    return GruDirection(w=np.zeros((3 * h, d)), u=np.zeros((3 * h, h)), b=np.zeros(3 * h))


def randomized_model(seed, dim=3, hidden=4, attention_dim=3, labels=("a", "b")):
    """A generic parameter point: Xavier matrices plus noise on everything."""
    model = init_model(dim, list(labels), hidden=hidden, attention_dim=attention_dim, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for _, arr in _param_arrays(model.params):
        arr += rng.normal(scale=0.1, size=arr.shape)
    return model


def gate_blocks(p):
    """Split a fused direction into (w, u, b) per gate, in its [z; r; h] row order."""
    H = p.u.shape[1]
    gates = [slice(k * H, (k + 1) * H) for k in range(3)]
    return [(p.w[g], p.u[g], p.b[g]) for g in gates]


def gru_step(x, h_prev, p):
    """Reference GRU update from the definition: h = (1 - z) * h_prev + z * candidate."""
    (w_z, u_z, b_z), (w_r, u_r, b_r), (w_h, u_h, b_h) = gate_blocks(p)
    z = _sigmoid(w_z @ x + u_z @ h_prev + b_z)
    r = _sigmoid(w_r @ x + u_r @ h_prev + b_r)
    h_cand = np.tanh(w_h @ x + u_h @ (r * h_prev) + b_h)
    return (1.0 - z) * h_prev + z * h_cand


def reference_scan(xs, p):
    h = np.zeros(p.u.shape[1])
    states = []
    for x in xs:
        h = gru_step(x, h, p)
        states.append(h)
    return np.array(states)


def test_gru_step_zero_parameters_halve_the_state():
    p = zero_direction(2, 3)
    h = gru_step(np.ones(3), np.array([1.0, -1.0]), p)
    np.testing.assert_allclose(h, [0.5, -0.5])


def test_gru_step_zero_state_is_a_fixed_point():
    p = zero_direction(2, 3)
    np.testing.assert_allclose(gru_step(np.ones(3), np.zeros(2), p), np.zeros(2))


def test_bgru_annotations_match_definition():
    model = randomized_model(1)
    for T in (1, 2, 7):
        x = np.random.default_rng(2 + T).normal(size=(T, 3))
        fwd = reference_scan(x, model.params.gru_fwd)
        bwd = reference_scan(x[::-1], model.params.gru_bwd)[::-1]
        ann = _forward(x, model.params).annotations
        np.testing.assert_allclose(ann, np.concatenate([fwd, bwd], axis=1), rtol=1e-12)


def test_bgru_zero_parameters_give_zero_annotations():
    params = ModelParams(
        gru_fwd=zero_direction(4, 3),
        gru_bwd=zero_direction(4, 3),
        attn=AttentionParams(w=np.zeros((3, 8)), b=np.zeros(3), u=np.zeros(3)),
        out=OutputParams(w=np.zeros((2, 8)), b=np.zeros(2)),
    )
    ann = _forward(np.ones((6, 3)), params).annotations
    assert ann.shape == (6, 8)
    np.testing.assert_array_equal(ann, np.zeros((6, 8)))


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_annotation_count_and_width(T, seed):
    model = randomized_model(5)
    x = np.random.default_rng(seed).normal(size=(T, 3))
    assert _forward(x, model.params).annotations.shape == (T, 2 * 4)


def test_uniform_attention_when_query_is_zero():
    model = randomized_model(0)
    model.params.attn.u[...] = 0.0
    cache = _forward(np.random.default_rng(0).normal(size=(4, 3)), model.params)
    np.testing.assert_allclose(cache.alpha, [0.25] * 4)
    np.testing.assert_allclose(cache.context, cache.annotations.mean(axis=0))


def test_attention_weights_match_analytic_softmax():
    # The annotations do not depend on the attention parameters, so these
    # can be set to make the energies (ln 2, 0); the weights must be (2/3, 1/3).
    model = randomized_model(1, attention_dim=1)
    x = np.random.default_rng(3).normal(size=(2, 3))
    h = _forward(x, model.params).annotations[:, 0]
    scale = np.arctanh(np.log(2.0)) / (h[0] - h[1])
    model.params.attn = AttentionParams(
        w=np.eye(1, 8) * scale, b=np.array([-scale * h[1]]), u=np.array([1.0])
    )
    np.testing.assert_allclose(_forward(x, model.params).alpha, [2 / 3, 1 / 3])


def test_single_annotation_takes_all_attention():
    model = randomized_model(1)
    cache = _forward(np.random.default_rng(1).normal(size=(1, 3)), model.params)
    np.testing.assert_allclose(cache.alpha, [1.0])
    np.testing.assert_allclose(cache.context, cache.annotations[0])


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_attention_weights_are_a_distribution(T, seed):
    model = randomized_model(9)
    x = np.random.default_rng(seed).normal(size=(T, 3))
    _, probs, alpha = predict(model, x)
    assert (alpha >= 0).all()
    assert abs(alpha.sum() - 1.0) <= 1e-9
    assert abs(probs.sum() - 1.0) <= 1e-9


def test_loss_is_log2_at_even_odds():
    params = ModelParams(
        gru_fwd=zero_direction(4, 3),
        gru_bwd=zero_direction(4, 3),
        attn=AttentionParams(w=np.zeros((3, 8)), b=np.zeros(3), u=np.zeros(3)),
        out=OutputParams(w=np.zeros((2, 8)), b=np.zeros(2)),
    )
    probs, loss = forward_loss(np.ones((4, 3)), 0, params)
    np.testing.assert_allclose(probs, [0.5, 0.5])
    assert loss == pytest.approx(0.6931, abs=1e-4)


def test_loss_is_log3_for_uniform_three_classes():
    params = ModelParams(
        gru_fwd=zero_direction(4, 3),
        gru_bwd=zero_direction(4, 3),
        attn=AttentionParams(w=np.zeros((3, 8)), b=np.zeros(3), u=np.zeros(3)),
        out=OutputParams(w=np.zeros((3, 8)), b=np.zeros(3)),
    )
    _, loss = forward_loss(np.ones((2, 3)), 2, params)
    assert loss == pytest.approx(1.0986, abs=1e-4)


def test_certain_prediction_has_zero_loss_and_vanishing_output_gradient():
    model = randomized_model(3)
    model.params.out.b = np.array([1000.0, 0.0])
    model.params.out.w[...] = 0.0
    x = np.random.default_rng(4).normal(size=(5, 3))
    probs, loss = forward_loss(x, 0, model.params)
    assert probs[0] == pytest.approx(1.0)
    assert loss == pytest.approx(0.0, abs=1e-12)
    g = zero_gradients(model.params)
    backward(x, 0, model.params, g)
    assert np.linalg.norm(g.out.w) < 1e-6
    assert np.linalg.norm(g.out.b) < 1e-6


def test_backward_adds_into_the_given_gradients():
    model = randomized_model(5)
    x = np.random.default_rng(6).normal(size=(4, 3))
    once = zero_gradients(model.params)
    loss = backward(x, 1, model.params, once)
    start = zero_gradients(model.params)
    rng = np.random.default_rng(7)
    for _, arr in _param_arrays(start):
        arr[...] = rng.normal(size=arr.shape)
    grads = copy.deepcopy(start)
    assert backward(x, 1, model.params, grads) == loss
    assert backward(x, 1, model.params, grads) == loss
    for (name, total), (_, s0), (_, g) in zip(
        _param_arrays(grads), _param_arrays(start), _param_arrays(once)
    ):
        np.testing.assert_array_equal(total, s0 + g + g, err_msg=name)


# T=1 is the edge case for the weight gradients taken after the scan; the
# T=5 cases keep their original ids.
@pytest.mark.parametrize(
    "point,T",
    [(0, 5), (1, 5), (2, 5), (0, 1), (1, 1), (2, 1)],
    ids=["0", "1", "2", "0-T1", "1-T1", "2-T1"],
)
def test_every_parameter_gradient_matches_finite_differences(point, T):
    """Keystone check: full-model analytic gradients vs central differences."""
    model = randomized_model(point)
    rng = np.random.default_rng(100 + point)
    x = rng.normal(size=(T, 3))
    label = point % 2
    grads = zero_gradients(model.params)
    backward(x, label, model.params, grads)
    analytic = dict(_param_arrays(grads))
    for name, arr in _param_arrays(model.params):
        numeric = central_difference(lambda _: forward_loss(x, label, model.params)[1], arr)
        assert_gradients_close(analytic[name], numeric, what=name)


@pytest.mark.parametrize("clip_norm", [0.5, 1e6])
def test_sgd_step_clips_the_update_norm(clip_norm):
    params = randomized_model(20).params
    before = [arr.copy() for _, arr in _param_arrays(params)]
    grads = randomized_model(21).params
    g_norm = np.sqrt(sum((g * g).sum() for _, g in _param_arrays(grads)))
    assert 0.5 < g_norm < 1e6
    _sgd_step(params, grads, lr=0.1, clip_norm=clip_norm)
    step = np.sqrt(sum(((b - a) ** 2).sum() for b, (_, a) in zip(before, _param_arrays(params))))
    assert step == pytest.approx(0.1 * min(clip_norm, g_norm), rel=1e-9)


def test_energy_gradient_sums_to_zero():
    rng = np.random.default_rng(0)
    for _ in range(5):
        e = rng.normal(size=7)
        alpha = np.exp(e - e.max())
        alpha /= alpha.sum()
        d_alpha = rng.normal(size=7)
        assert abs(_energy_grad(alpha, d_alpha).sum()) < 1e-12


def test_relabeling_symmetry():
    """Permuting class identities with output rows leaves the loss unchanged."""
    model = randomized_model(6)
    x = np.random.default_rng(7).normal(size=(4, 3))
    _, base = forward_loss(x, 0, model.params)
    swapped = randomized_model(6).params
    swapped.out.w = model.params.out.w[[1, 0]]
    swapped.out.b = model.params.out.b[[1, 0]]
    _, permuted = forward_loss(x, 1, swapped)
    assert permuted == pytest.approx(base, rel=1e-12)


def _toy_embeddings():
    vocab = Vocabulary(tokens=["a1", "a2", "b1", "b2"], counts=np.array([4, 4, 4, 4]))
    rng = np.random.default_rng(0)
    vectors = rng.normal(scale=0.5, size=(4, 5))
    return Embeddings(vocab=vocab, input_vectors=vectors, output_vectors=np.zeros_like(vectors))


def _separable_songs(per_class=20, length=8):
    rng = np.random.default_rng(1)
    songs = []
    for i in range(per_class):
        songs.append(
            TokenizedSong(
                id=f"a{i}", label="alpha", tokens=tuple(rng.choice(["a1", "a2"], size=length))
            )
        )
        songs.append(
            TokenizedSong(
                id=f"b{i}", label="beta", tokens=tuple(rng.choice(["b1", "b2"], size=length))
            )
        )
    return songs


SMALL = ClassifierConfig(hidden=6, attention_dim=4, batch=10, epochs=12, seed=0)


def test_training_separates_disjoint_token_classes():
    emb = _toy_embeddings()
    songs = _separable_songs()
    examples = make_examples(songs, emb, ["alpha", "beta"])
    model = train_classifier(examples, ["alpha", "beta"], SMALL)
    correct = sum(predict(model, ex.x)[0] == ex.label for ex in examples)
    assert correct == len(examples)


def test_epoch_loss_strictly_decreases_early():
    emb = _toy_embeddings()
    examples = make_examples(_separable_songs(), emb, ["alpha", "beta"])
    model = train_classifier(examples, ["alpha", "beta"], SMALL)
    losses = model.epoch_losses[:3]
    assert losses[0] > losses[1] > losses[2]


def test_training_is_bit_reproducible():
    emb = _toy_embeddings()
    examples = make_examples(_separable_songs(per_class=6), emb, ["alpha", "beta"])
    config = ClassifierConfig(hidden=5, attention_dim=3, epochs=3, seed=0)
    a = train_classifier(examples, ["alpha", "beta"], config)
    b = train_classifier(examples, ["alpha", "beta"], config)
    assert save_model(a) == save_model(b)


def test_divergent_learning_rate_aborts():
    emb = _toy_embeddings()
    examples = make_examples(_separable_songs(per_class=4), emb, ["alpha", "beta"])
    config = ClassifierConfig(hidden=5, attention_dim=3, epochs=20, lr=1e9, seed=0)
    with pytest.raises(TrainingDiverged):
        train_classifier(examples, ["alpha", "beta"], config)


def test_validation_split_returns_best_epoch_parameters():
    emb = _toy_embeddings()
    examples = make_examples(_separable_songs(per_class=10), emb, ["alpha", "beta"])
    config = ClassifierConfig(
        hidden=5, attention_dim=3, epochs=6, seed=0, val_fraction=0.25, lr=0.3
    )
    model = train_classifier(examples, ["alpha", "beta"], config)
    assert len(model.val_losses) == config.epochs
    # replay the seeded split to recover the holdout set
    rng = np.random.default_rng(config.seed)
    n_val = int(round(config.val_fraction * len(examples)))
    order = rng.permutation(len(examples))
    val = [examples[i] for i in order[:n_val]]
    loss = float(np.mean([forward_loss(ex.x, ex.label, model.params)[1] for ex in val]))
    assert loss == pytest.approx(min(model.val_losses), rel=1e-12)


def test_predict_single_motif_song():
    model = randomized_model(8)
    x = np.random.default_rng(9).normal(size=(1, 3))
    _, _, alpha = predict(model, x)
    np.testing.assert_allclose(alpha, [1.0])


def test_predict_rejects_wrong_width():
    model = randomized_model(8)
    with pytest.raises(ValueError, match="expected"):
        predict(model, np.zeros((3, 7)))


def test_predict_song_exposes_motif_weights():
    emb = _toy_embeddings()
    model = train_classifier(
        make_examples(_separable_songs(per_class=4), emb, ["alpha", "beta"]),
        ["alpha", "beta"],
        ClassifierConfig(hidden=5, attention_dim=3, epochs=2, seed=0),
    )
    song = TokenizedSong(id="s", label="alpha", tokens=("a1", "oov", "a2"))
    label, probs, weighted = predict_song(model, song, emb)
    assert label in ("alpha", "beta")
    assert [m for m, _ in weighted] == ["a1", "a2"]
    assert sum(w for _, w in weighted) == pytest.approx(1.0)


def test_untokenizable_song_is_an_error():
    emb = _toy_embeddings()
    model = randomized_model(2, dim=5, hidden=4, attention_dim=3)
    song = TokenizedSong(id="s", label="alpha", tokens=("nope", "nada"))
    with pytest.raises(ValueError, match="untokenizable song"):
        predict_song(model, song, emb)


def test_make_examples_truncates_long_songs():
    emb = _toy_embeddings()
    song = TokenizedSong(id="s", label="alpha", tokens=("a1",) * 40)
    (ex,) = make_examples([song], emb, ["alpha", "beta"], max_len=7)
    assert ex.x.shape == (7, 5)
    model = randomized_model(3, dim=5, hidden=4, attention_dim=3)
    _, _, weighted = predict_song(model, song, emb, max_len=7)
    assert [m for m, _ in weighted] == ["a1"] * 7


def test_config_rejects_empty_max_len():
    with pytest.raises(ValueError, match="max_len"):
        ClassifierConfig(max_len=0)


@pytest.mark.parametrize(
    "overrides, field",
    [({"lr": 0.0}, "lr"), ({"lr": -0.05}, "lr"), ({"clip_norm": 0.0}, "clip_norm"),
     ({"clip_norm": -5.0}, "clip_norm")],
)
def test_config_rejects_nonpositive_step_settings(overrides, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        ClassifierConfig(**overrides)


def test_make_examples_rejects_unknown_class():
    emb = _toy_embeddings()
    song = TokenizedSong(id="s", label="gamma", tokens=("a1",))
    with pytest.raises(ValueError, match="unknown class"):
        make_examples([song], emb, ["alpha", "beta"])


def test_checkpoint_round_trip():
    vocab = Vocabulary(tokens=["t"], counts=np.array([1]))
    model = randomized_model(11)
    text = save_model(model, vocab_digest(vocab))
    restored, meta = load_model(text)
    assert restored.labels == model.labels
    assert meta["vocab_sha256"] == vocab_digest(vocab)
    for (_, a), (_, b) in zip(_param_arrays(model.params), _param_arrays(restored.params)):
        assert np.array_equal(a, b)
    x = np.random.default_rng(12).normal(size=(6, 3))
    np.testing.assert_array_equal(predict(model, x)[1], predict(restored, x)[1])


def test_checkpoint_is_ascii_and_resaves_byte_for_byte():
    text = save_model(randomized_model(16), "ab" * 32)
    assert text.isascii()
    restored, meta = load_model(text)
    assert save_model(restored, meta["vocab_sha256"]) == text


def test_checkpoint_missing_parameter_is_error():
    model = randomized_model(13)
    text = save_model(model)
    truncated = "\n".join(text.splitlines()[:-6]) + "\n"
    with pytest.raises(ValueError):
        load_model(truncated)


def _edit_line(text, name, edit):
    """The checkpoint with parameter name's line replaced by edit(line)."""
    lines = text.splitlines(keepends=True)
    at = [line.split(" ", 1)[0] for line in lines].index(name)
    lines[at] = edit(lines[at])
    return "".join(lines)


def _cut_inside(text, name):
    """The checkpoint up to the middle of parameter name's payload."""
    start = text.index(f"\n{name} ") + 1
    return text[: (start + text.index("\n", start)) // 2]


def _with_meta(text, **changes):
    meta, rest = text.split("\n", 1)
    return json.dumps({**json.loads(meta), **changes}) + "\n" + rest


def _drop_last_float(line):
    name, payload = line.split()
    return f"{name} {base64.b64encode(base64.b64decode(payload)[:-8]).decode()}\n"


def _swap_lines(text, a, b):
    lines = text.splitlines(keepends=True)
    names = [line.split(" ", 1)[0] for line in lines]
    i, j = names.index(a), names.index(b)
    lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda t: _cut_inside(t, "gru_bwd.u"), r"^parameter gru_bwd\.u is not base64"),
        (lambda t: _with_meta(t, dim=4), r"^parameter gru_fwd\.w has 288 bytes, expected 384$"),
        (lambda t: _edit_line(t, "attn.u", _drop_last_float), r"^parameter attn\.u has 16 bytes, expected 24$"),
        (lambda t: _edit_line(t, "attn.u", lambda line: line.replace(" ", " !", 1)), r"^parameter attn\.u is not base64"),
        (lambda t: _swap_lines(t, "attn.w", "out.w"), r"^expected parameter attn\.w, found 'out\.w'$"),
        (lambda t: _edit_line(t, "out.b", lambda line: ""), r"^checkpoint is missing parameter out\.b$"),
        (lambda t: t + "out.c AAAA\n", r"^line 13: unexpected content after the last parameter$"),
    ],
    ids=["cut", "width", "short-row", "not-base64", "swapped", "missing-last", "extra"],
)
def test_corrupt_checkpoint_error_names_the_parameter(corrupt, message):
    text = save_model(randomized_model(15))
    with pytest.raises(ValueError, match=message):
        load_model(corrupt(text))


@pytest.mark.parametrize("fmt", [1, 2, None])
def test_checkpoint_of_another_format_is_refused(fmt):
    meta, rest = save_model(randomized_model(14)).split("\n", 1)
    meta = json.loads(meta)
    del meta["format"]
    if fmt is not None:
        meta["format"] = fmt
    with pytest.raises(ValueError, match=f"checkpoint format {fmt or 1} .*retrain"):
        load_model(json.dumps(meta) + "\n" + rest)


@pytest.mark.parametrize(
    "meta_line,message",
    [
        ("[]", "meta line must be a JSON object"),
        ('{"format": 3}', "no 'dim' key"),
        ('{"format": 3, "dim": 1.5, "labels": ["a", "b"], "hidden": 2, "attention_dim": 2}',
         "checkpoint meta: 'float' object"),
        ('{"format": 3, "dim": 2, "labels": "ab", "hidden": 2, "attention_dim": 2}',
         "^checkpoint meta 'labels' must be 2 or more distinct strings: 'ab'$"),
        ('{"format": 3, "dim": 2, "labels": ["x", "x"], "hidden": 2, "attention_dim": 2}',
         r"^checkpoint meta 'labels' must be 2 or more distinct strings: \['x', 'x'\]$"),
        ('{"format": 3, "dim": 2, "labels": [1, 2], "hidden": 2, "attention_dim": 2}',
         r"^checkpoint meta 'labels' must be 2 or more distinct strings: \[1, 2\]$"),
    ],
    ids=["not-an-object", "missing-key", "float-dim", "labels-string", "labels-repeated",
         "labels-not-strings"],
)
def test_malformed_checkpoint_meta_is_a_value_error(meta_line, message):
    with pytest.raises(ValueError, match=message):
        load_model(meta_line + "\n")


def test_alpha_csv_format():
    csv_text = alpha_csv([("21_20", 0.75), ("00_21", 0.25)])
    lines = csv_text.splitlines()
    assert lines[0] == "motif,weight"
    assert lines[1].startswith("21_20,0.75")
    assert len(lines) == 3
