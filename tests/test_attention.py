import base64
import copy
import itertools
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_batch_gradient_matches_finite_differences,
    at_float64,
    encode_one,
    relative_error,
    song_loss,
)

from folkmotif import attention
from folkmotif.attention import (
    AttentionParams,
    CHECKPOINT_FORMAT,
    ClassifierConfig,
    GruDirection,
    ModelParams,
    OutputParams,
    SongExample,
    TrainingDiverged,
    _GRU_DTYPE,
    _checkpoint_dtype,
    _encode,
    _energy_grad,
    _gate_sigmoid,
    _mean_loss,
    _xavier,
    _pack,
    _param_arrays,
    _sgd_step,
    alpha_csv,
    backward,
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
from folkmotif.seeds import stream
from folkmotif.sgns import Embeddings
from folkmotif.tokens import TokenizedSong
from folkmotif.vocab import Vocabulary


def zero_direction(h, d):
    return GruDirection(w=np.zeros((d, 3 * h)), u=np.zeros((h, 3 * h)), b=np.zeros(3 * h))


def randomized_model(seed, dim=3, hidden=4, attention_dim=3, labels=("a", "b"), float64=True):
    """A generic parameter point: Xavier matrices plus noise on everything.

    Every array is float64 unless float64 is False, which keeps the dtypes
    that init_model gives (float32 GRU arrays).
    """
    model = init_model(dim, list(labels), hidden=hidden, attention_dim=attention_dim, seed=seed)
    if float64:
        at_float64(model.params)
    rng = np.random.default_rng(seed + 1000)
    for _, arr in _param_arrays(model.params):
        arr += rng.normal(scale=0.1, size=arr.shape)
    return model


def gate_blocks(p):
    """Split a fused direction into (w, u, b) per gate, in its [z | r | h] column order."""
    H = p.u.shape[0]
    gates = [slice(k * H, (k + 1) * H) for k in range(3)]
    return [(p.w[:, g], p.u[:, g], p.b[g]) for g in gates]


def logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_step(x, h_prev, p):
    """Reference GRU update from the definition: h = (1 - z) * h_prev + z * candidate."""
    (w_z, u_z, b_z), (w_r, u_r, b_r), (w_h, u_h, b_h) = gate_blocks(p)
    z = logistic(x @ w_z + h_prev @ u_z + b_z)
    r = logistic(x @ w_r + h_prev @ u_r + b_r)
    h_cand = np.tanh(x @ w_h + (r * h_prev) @ u_h + b_h)
    return (1.0 - z) * h_prev + z * h_cand


def reference_scan(xs, p):
    h = np.zeros(p.u.shape[0])
    states = []
    for x in xs:
        h = gru_step(x, h, p)
        states.append(h)
    return np.array(states)


def test_gate_sigmoid_matches_the_logistic_function():
    x = np.linspace(-40.0, 40.0, 8001)
    np.testing.assert_allclose(_gate_sigmoid(x), logistic(x), rtol=0.0, atol=1e-15)
    assert _gate_sigmoid(np.array(0.0)) == 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(_gate_sigmoid(np.array([-800.0, 800.0])), [0.0, 1.0])


def test_gru_step_zero_parameters_halve_the_state():
    p = zero_direction(2, 3)
    h = gru_step(np.ones(3), np.array([1.0, -1.0]), p)
    np.testing.assert_allclose(h, [0.5, -0.5])


def test_gru_step_zero_state_is_a_fixed_point():
    p = zero_direction(2, 3)
    np.testing.assert_allclose(gru_step(np.ones(3), np.zeros(2), p), np.zeros(2))


def reference_gru_direction(rng, dim, h):
    """A GRU direction's (w, u) built from its stacked float64 draws, the
    construction that init_model must reproduce bit for bit."""
    # per gate z, r, h: its input block, then its recurrent block
    blocks = [_xavier(rng, h, cols) for cols in (dim, h) * 3]
    w, u = (np.vstack(blocks[k::2]).T.astype(_GRU_DTYPE, order="C") for k in (0, 1))
    return w, u


def test_init_model_stores_the_transposes_of_the_xavier_draws():
    # The draws are those of gate blocks H x d and H x H, in init_model's
    # order on the classifier-init stream, so the random stream is the one of
    # the row-major layout. The GRU arrays equal the reference's in values,
    # dtype, shape and C order, and the next draw, attn.w, is unchanged.
    for (dim, h), seed in itertools.product([(3, 4), (150, 200)], [0, 1, 2, 5]):
        model = init_model(dim, ["a", "b"], hidden=h, attention_dim=2, seed=seed)
        rng = stream(seed, "classifier_init")
        for p in (model.params.gru_fwd, model.params.gru_bwd):
            for got, expected in zip((p.w, p.u), reference_gru_direction(rng, dim, h)):
                assert got.dtype == expected.dtype == np.float32
                assert got.shape == expected.shape
                assert got.flags.c_contiguous
                np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(model.params.attn.w, _xavier(rng, 2, 2 * h))


def _traced_peak(f, *args, **kwargs):
    """f's result and the peak of the memory tracemalloc sees during the call,
    numpy's buffers included, above what was allocated before it."""
    tracemalloc.start()
    try:
        result = f(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_init_model_peak_is_its_arrays_and_one_gate_block():
    # Each gate block is drawn in float64 and rounded into place, so at most
    # one float64 block is alive beside the arrays being built.
    dim, h = 150, 200
    init_model(3, ["a", "b"], hidden=4)  # numpy's first seeding imports modules; not counted
    model, peak = _traced_peak(init_model, dim, ["a", "b"], hidden=h, attention_dim=100)
    arrays = sum(arr.nbytes for _, arr in _param_arrays(model.params))
    assert peak <= arrays + 8 * h * max(dim, h), (peak, arrays)


def test_bgru_annotations_match_definition():
    model = randomized_model(1)
    for T in (1, 2, 7):
        x = np.random.default_rng(2 + T).normal(size=(T, 3))
        fwd = reference_scan(x, model.params.gru_fwd)
        bwd = reference_scan(x[::-1], model.params.gru_bwd)[::-1]
        ann = encode_one(x, model.params).annotations
        np.testing.assert_allclose(ann, np.concatenate([fwd, bwd], axis=1), rtol=1e-12)


def test_bgru_zero_parameters_give_zero_annotations():
    params = ModelParams(
        gru_fwd=zero_direction(4, 3),
        gru_bwd=zero_direction(4, 3),
        attn=AttentionParams(w=np.zeros((3, 8)), b=np.zeros(3), u=np.zeros(3)),
        out=OutputParams(w=np.zeros((2, 8)), b=np.zeros(2)),
    )
    ann = encode_one(np.ones((6, 3)), params).annotations
    assert ann.shape == (6, 8)
    np.testing.assert_array_equal(ann, np.zeros((6, 8)))


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_annotation_count_and_width(T, seed):
    model = randomized_model(5)
    x = np.random.default_rng(seed).normal(size=(T, 3))
    assert encode_one(x, model.params).annotations.shape == (T, 2 * 4)


def test_uniform_attention_when_query_is_zero():
    model = randomized_model(0)
    model.params.attn.u[...] = 0.0
    cache = encode_one(np.random.default_rng(0).normal(size=(4, 3)), model.params)
    np.testing.assert_allclose(cache.alpha, [0.25] * 4)
    np.testing.assert_allclose(cache.context, cache.annotations.mean(axis=0))


def test_attention_weights_match_analytic_softmax():
    # The annotations do not depend on the attention parameters, so these
    # can be set to make the energies (ln 2, 0); the weights must be (2/3, 1/3).
    model = randomized_model(1, attention_dim=1)
    x = np.random.default_rng(3).normal(size=(2, 3))
    h = encode_one(x, model.params).annotations[:, 0]
    scale = np.arctanh(np.log(2.0)) / (h[0] - h[1])
    model.params.attn = AttentionParams(
        w=np.eye(1, 8) * scale, b=np.array([-scale * h[1]]), u=np.array([1.0])
    )
    np.testing.assert_allclose(encode_one(x, model.params).alpha, [2 / 3, 1 / 3])


def test_single_annotation_takes_all_attention():
    model = randomized_model(1)
    cache = encode_one(np.random.default_rng(1).normal(size=(1, 3)), model.params)
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
    np.testing.assert_allclose(encode_one(np.ones((4, 3)), params).probs, [0.5, 0.5])
    assert song_loss(np.ones((4, 3)), 0, params) == pytest.approx(0.6931, abs=1e-4)


def test_loss_is_log3_for_uniform_three_classes():
    params = ModelParams(
        gru_fwd=zero_direction(4, 3),
        gru_bwd=zero_direction(4, 3),
        attn=AttentionParams(w=np.zeros((3, 8)), b=np.zeros(3), u=np.zeros(3)),
        out=OutputParams(w=np.zeros((3, 8)), b=np.zeros(3)),
    )
    assert song_loss(np.ones((2, 3)), 2, params) == pytest.approx(1.0986, abs=1e-4)


def test_certain_prediction_has_zero_loss_and_vanishing_output_gradient():
    model = randomized_model(3)
    model.params.out.b = np.array([1000.0, 0.0])
    model.params.out.w[...] = 0.0
    x = np.random.default_rng(4).normal(size=(5, 3))
    assert encode_one(x, model.params).probs[0] == pytest.approx(1.0)
    assert song_loss(x, 0, model.params) == pytest.approx(0.0, abs=1e-12)
    g = zero_gradients(model.params)
    backward([SongExample(x, 0)], model.params, g)
    assert np.linalg.norm(g.out.w) < 1e-6
    assert np.linalg.norm(g.out.b) < 1e-6


def test_backward_adds_into_the_given_gradients():
    model = randomized_model(5)
    x = np.random.default_rng(6).normal(size=(4, 3))
    batch = [SongExample(x, 1)]
    once = zero_gradients(model.params)
    loss = backward(batch, model.params, once)
    start = zero_gradients(model.params)
    rng = np.random.default_rng(7)
    for _, arr in _param_arrays(start):
        arr[...] = rng.normal(size=arr.shape)
    grads = copy.deepcopy(start)
    assert backward(batch, model.params, grads) == loss
    assert backward(batch, model.params, grads) == loss
    for (name, total), (_, s0), (_, g) in zip(
        _param_arrays(grads), _param_arrays(start), _param_arrays(once)
    ):
        np.testing.assert_array_equal(total, s0 + g + g, err_msg=name)


def test_pack_lays_songs_out_time_major_longest_first():
    sizes, rows = _pack([3, 1, 3, 2])
    # ranks: song 0, song 2 (a tie keeps batch order), song 3, song 1
    assert sizes == [4, 3, 2]
    assert [r.tolist() for r in rows] == [[0, 4, 7], [3], [1, 5, 8], [2, 6]]


BATCH_LENGTHS = [(5, 2, 7, 1, 3), (4, 4, 2, 4), (1, 6, 1), (1,), (6,)]
BATCH_IDS = ["mixed", "ties", "T1", "one-T1", "one"]


def batch_of(lengths, seed=30):
    rng = np.random.default_rng(seed)
    return [SongExample(rng.normal(size=(T, 3)), i % 3) for i, T in enumerate(lengths)]


@pytest.mark.parametrize("lengths", BATCH_LENGTHS, ids=BATCH_IDS)
def test_batch_gradient_is_the_sum_of_song_gradients(lengths):
    params = randomized_model(4, labels=("a", "b", "c")).params
    batch = batch_of(lengths)
    together = zero_gradients(params)
    loss = backward(batch, params, together)
    apart = zero_gradients(params)
    losses = [backward([ex], params, apart) for ex in batch]
    assert loss == pytest.approx(sum(losses), rel=1e-12)
    for (name, a), (_, b) in zip(_param_arrays(together), _param_arrays(apart)):
        assert relative_error(a, b) <= 1e-12, name


@pytest.mark.parametrize("lengths", BATCH_LENGTHS, ids=BATCH_IDS)
def test_song_is_encoded_alike_alone_and_in_a_batch(lengths):
    params = randomized_model(5, labels=("a", "b", "c")).params
    batch = batch_of(lengths)
    for ex, song in zip(batch, _encode([ex.x for ex in batch], params).songs):
        alone = encode_one(ex.x, params)
        np.testing.assert_allclose(song.probs, alone.probs, rtol=1e-12)
        np.testing.assert_allclose(song.alpha, alone.alpha, rtol=1e-12)


@pytest.mark.parametrize("float64", [True, False], ids=["float64", "float32"])
@pytest.mark.parametrize("batch", [1, 2, 3, 10])
def test_mean_loss_in_batches_is_the_mean_of_song_losses(batch, float64):
    """Whatever the chunk size, each song is scored against its own label;
    the float32 scans agree with one song at a time to float32 rounding."""
    params = randomized_model(6, labels=("a", "b", "c"), float64=float64).params
    songs = batch_of((5, 2, 7, 1, 3, 4, 6))
    losses = [song_loss(ex.x, ex.label, params) for ex in songs]
    rel = 1e-12 if float64 else 1e-6
    assert _mean_loss(songs, params, batch) == pytest.approx(np.mean(losses), rel=rel)


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
    assert_batch_gradient_matches_finite_differences(model.params, [SongExample(x, label)])


def test_mixed_length_batch_gradient_matches_finite_differences():
    model = randomized_model(3, labels=("a", "b", "c"))
    rng = np.random.default_rng(103)
    batch = [SongExample(rng.normal(size=(T, 3)), label) for T, label in ((2, 0), (5, 2), (1, 1))]
    assert_batch_gradient_matches_finite_differences(model.params, batch)


def test_float32_scans_agree_with_float64_scans():
    """The shipped model runs its GRU scans in float32. At one randomized
    point and its float64 copy, the gradients agree within 1e-4 relative, and
    the class probabilities and attention weights within 1e-5 (about 170
    float32 roundings). At this point they differ by 2.9e-7 and 3.1e-8."""
    model = randomized_model(4, dim=3, hidden=8, attention_dim=5, labels=("a", "b", "c"),
                             float64=False)
    params64 = at_float64(copy.deepcopy(model.params))
    batch = batch_of((5, 2, 7, 1, 3))
    grads32, grads64 = zero_gradients(model.params), zero_gradients(params64)
    loss32 = backward(batch, model.params, grads32)
    loss64 = backward(batch, params64, grads64)
    assert loss32 == pytest.approx(loss64, rel=1e-5)
    for (name, a), (_, b) in zip(_param_arrays(grads32), _param_arrays(grads64)):
        assert a.dtype == (np.float32 if name.startswith("gru_") else np.float64), name
        assert relative_error(a, b) <= 1e-4, name
    xs = [ex.x for ex in batch]
    for song32, song64 in zip(_encode(xs, model.params).songs, _encode(xs, params64).songs):
        assert song32.probs.dtype == song32.alpha.dtype == np.float64
        assert relative_error(song32.probs, song64.probs) <= 1e-5
        assert relative_error(song32.alpha, song64.alpha) <= 1e-5


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


def test_sgd_step_clips_a_float32_gradient_whose_square_overflows():
    # 1e20 is a finite float32, but its square is not: the norm is taken in float64.
    params = randomized_model(20, float64=False).params
    before = params.gru_fwd.w.copy()
    grads = zero_gradients(params)
    grads.gru_fwd.w[0, 0] = 1e20
    with np.errstate(all="raise"):
        norm = _sgd_step(params, grads, lr=0.1, clip_norm=5.0)
    assert norm == pytest.approx(1e20, rel=1e-6)
    step = before - params.gru_fwd.w
    assert step[0, 0] == pytest.approx(0.1 * 5.0, rel=1e-6)
    assert np.count_nonzero(step) == 1


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
    base = song_loss(x, 0, model.params)
    swapped = randomized_model(6).params
    swapped.out.w = model.params.out.w[[1, 0]]
    swapped.out.b = model.params.out.b[[1, 0]]
    permuted = song_loss(x, 1, swapped)
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


SMALL = ClassifierConfig(hidden=6, attention_dim=4, batch=10, epochs=12)


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
    config = ClassifierConfig(hidden=5, attention_dim=3, epochs=3)
    a = train_classifier(examples, ["alpha", "beta"], config)
    b = train_classifier(examples, ["alpha", "beta"], config)
    assert save_model(a) == save_model(b)


def test_divergent_learning_rate_aborts():
    """At seed 1 the first step saturates the model with a song on the wrong
    side, so that song's label gets probability 0 in the next step."""
    emb = _toy_embeddings()
    examples = make_examples(_separable_songs(per_class=4), emb, ["alpha", "beta"])
    config = ClassifierConfig(hidden=5, attention_dim=3, epochs=20, lr=1e9)
    with pytest.raises(TrainingDiverged, match="^epoch 2, step 1: the loss is inf; lower"):
        train_classifier(examples, ["alpha", "beta"], config, seed=1)


def test_divergence_names_the_epoch_step_and_gradient():
    emb = _toy_embeddings()
    examples = make_examples(_separable_songs(per_class=6), emb, ["alpha", "beta"])
    config = ClassifierConfig(hidden=5, attention_dim=3, batch=4, epochs=20, lr=1e200)
    message = r"^epoch 1, step 2: the gradient of gru_fwd\.w is not finite; lower the learning rate$"
    with pytest.raises(TrainingDiverged, match=message):
        train_classifier(examples, ["alpha", "beta"], config)


def test_validation_split_returns_best_epoch_parameters():
    emb = _toy_embeddings()
    examples = make_examples(_separable_songs(per_class=10), emb, ["alpha", "beta"])
    config = ClassifierConfig(hidden=5, attention_dim=3, epochs=6, val_fraction=0.25, lr=0.3)
    model = train_classifier(examples, ["alpha", "beta"], config, seed=0)
    assert len(model.val_losses) == config.epochs
    # replay the seeded split on the classifier-order stream to recover the holdout set
    rng = stream(0, "classifier_order")
    n_val = int(round(config.val_fraction * len(examples)))
    order = rng.permutation(len(examples))
    val = [examples[i] for i in order[:n_val]]
    loss = _mean_loss(val, model.params, config.batch)
    assert loss == pytest.approx(min(model.val_losses), rel=1e-12)
    # The held-out pass encodes in mini-batches; one song at a time differs
    # only by float32 rounding in the scans.
    per_song = float(np.mean([song_loss(ex.x, ex.label, model.params) for ex in val]))
    assert per_song == pytest.approx(loss, rel=1e-6)


@pytest.mark.parametrize("fraction,n", [(0.1, 4), (0.01, 40), (0.04, 12)])
def test_val_fraction_that_holds_out_no_song_is_refused(fraction, n):
    songs = _separable_songs(per_class=n // 2)
    examples = make_examples(songs, _toy_embeddings(), ["alpha", "beta"])
    config = ClassifierConfig(hidden=4, attention_dim=3, epochs=1, val_fraction=fraction)
    message = f"^val_fraction {fraction} of {n} songs holds out no song$"
    with pytest.raises(ValueError, match=message):
        train_classifier(examples, ["alpha", "beta"], config)
    # The rounding stays as it was: half a song's share or more holds one out.
    half = ClassifierConfig(hidden=4, attention_dim=3, epochs=1, val_fraction=0.6 / n)
    assert len(train_classifier(examples, ["alpha", "beta"], half).val_losses) == 1


def test_float32_training_agrees_with_float64_at_paper_dims(monkeypatch):
    """One epoch at d=150, H=200, A=100 on 20 fixed songs of 30-70 motifs,
    as shipped (float32 scans) and with the GRU dtype set to float64, which
    init_model and make_examples both follow. The epoch losses agree within
    1e-6 relative and the class probabilities within 1e-6 (at this point
    they differ by about 5e-9 and 2e-8), and every prediction is equal."""
    rng = np.random.default_rng(29)
    tokens = [f"m{i}" for i in range(40)]
    vocab = Vocabulary(tokens=tokens, counts=np.full(len(tokens), 10))
    vectors = rng.normal(scale=0.3, size=(len(tokens), 150))
    emb = Embeddings(vocab=vocab, input_vectors=vectors, output_vectors=np.zeros_like(vectors))
    classes = ["alpha", "beta"]
    songs = [
        TokenizedSong(
            id=f"s{i}",
            label=classes[i % 2],
            # each class draws mostly from its own half of the motifs
            tokens=tuple(rng.choice(tokens[:24] if i % 2 else tokens[16:], size=T)),
        )
        for i, T in enumerate(rng.integers(30, 71, size=20))
    ]
    config = ClassifierConfig(hidden=200, attention_dim=100, batch=10, epochs=1)

    def train_and_predict():
        model = train_classifier(make_examples(songs, emb, classes), classes, config, seed=3)
        return model, [predict_song(model, song, emb) for song in songs]

    model32, predicted32 = train_and_predict()
    monkeypatch.setattr(attention, "_GRU_DTYPE", np.float64)
    model64, predicted64 = train_and_predict()
    assert model32.params.gru_fwd.w.dtype == np.float32
    assert model64.params.gru_fwd.w.dtype == np.float64
    assert model32.epoch_losses == pytest.approx(model64.epoch_losses, rel=1e-6)
    assert [p[0] for p in predicted32] == [p[0] for p in predicted64]
    for (_, probs32, _), (_, probs64, _) in zip(predicted32, predicted64):
        assert relative_error(probs32, probs64) <= 1e-6


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
        ClassifierConfig(hidden=5, attention_dim=3, epochs=2),
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
    with pytest.raises(ValueError, match="^song 's' has no in-vocabulary motif$"):
        predict_song(model, song, emb)


def test_make_examples_truncates_long_songs():
    emb = _toy_embeddings()
    song = TokenizedSong(id="s", label="alpha", tokens=("a1",) * 40)
    (ex,) = make_examples([song], emb, ["alpha", "beta"], max_len=7)
    assert ex.x.shape == (7, 5)
    model = randomized_model(3, dim=5, hidden=4, attention_dim=3)
    _, _, weighted = predict_song(model, song, emb, max_len=7)
    assert [m for m, _ in weighted] == ["a1"] * 7


@pytest.mark.parametrize("max_len", [0, -1])
def test_max_len_below_one_is_refused(max_len):
    emb = _toy_embeddings()
    song = TokenizedSong(id="s", label="alpha", tokens=("a1", "a2", "a1"))
    message = f"^max_len must be at least 1, got {max_len}$"
    with pytest.raises(ValueError, match=message):
        make_examples([song], emb, ["alpha", "beta"], max_len=max_len)
    with pytest.raises(ValueError, match=message):
        predict_song(randomized_model(3, dim=5), song, emb, max_len=max_len)


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
    model = randomized_model(11, float64=False)
    text = save_model(model, vocab_digest(vocab))
    restored, meta = load_model(text)
    assert restored.labels == model.labels
    assert meta["vocab_sha256"] == vocab_digest(vocab)
    for (name, a), (_, b) in zip(_param_arrays(model.params), _param_arrays(restored.params)):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    x = np.random.default_rng(12).normal(size=(6, 3))
    np.testing.assert_array_equal(predict(model, x)[1], predict(restored, x)[1])


def _dtypes(params):
    return {name: arr.dtype for name, arr in _param_arrays(params)}


def test_gru_arrays_are_float32_and_the_rest_float64():
    model = init_model(3, ["a", "b"], hidden=4, attention_dim=3)
    split = {
        name: np.float32 if name.startswith("gru_") else np.float64
        for name, _ in _param_arrays(model.params)
    }
    assert list(split.values()).count(np.float32) == 6  # w, u and b of each direction
    assert _dtypes(model.params) == split
    emb = _toy_embeddings()
    examples = make_examples(_separable_songs(per_class=4), emb, ["alpha", "beta"])
    assert {ex.x.dtype for ex in examples} == {np.dtype(np.float32)}  # the scans' dtype
    config = ClassifierConfig(hidden=4, attention_dim=3, epochs=2, val_fraction=0.25)
    trained = train_classifier(examples, ["alpha", "beta"], config)
    assert _dtypes(trained.params) == split
    assert _dtypes(load_model(save_model(trained))[0].params) == split


def _gru_layouts(params):
    """Each GRU array's shape and whether it is C-contiguous."""
    return {
        name: (arr.shape, arr.flags.c_contiguous)
        for name, arr in _param_arrays(params)
        if name.startswith("gru_")
    }


def test_gru_matrices_are_stored_as_the_scan_multiplies_them():
    dim, h = 5, 4
    layout = {
        f"{direction}.{name}": (shape, True)
        for direction in ("gru_fwd", "gru_bwd")
        for name, shape in (("w", (dim, 3 * h)), ("u", (h, 3 * h)), ("b", (3 * h,)))
    }
    model = init_model(dim, ["alpha", "beta"], hidden=h, attention_dim=3)
    assert _gru_layouts(model.params) == layout
    examples = make_examples(_separable_songs(per_class=4), _toy_embeddings(), ["alpha", "beta"])
    config = ClassifierConfig(hidden=h, attention_dim=3, epochs=2, val_fraction=0.25)
    trained = train_classifier(examples, ["alpha", "beta"], config)
    assert _gru_layouts(trained.params) == layout
    assert _gru_layouts(load_model(save_model(trained))[0].params) == layout


def reference_save_model(model, vocab_hash=""):
    """A reference checkpoint writer: each array converted with astype and
    tobytes, its lines joined and a newline appended. save_model must write
    the same text."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "labels": model.labels,
        "dim": model.dim,
        "hidden": model.hidden,
        "attention_dim": model.attention_dim,
        "vocab_sha256": vocab_hash,
    }
    lines = [json.dumps(meta, sort_keys=True)]
    for name, arr in _param_arrays(model.params):
        raw = arr.astype(_checkpoint_dtype(name)).tobytes()
        lines.append(f"{name} {base64.b64encode(raw).decode('ascii')}")
    return "\n".join(lines) + "\n"


def _trained_model():
    examples = make_examples(_separable_songs(per_class=4), _toy_embeddings(), ["alpha", "beta"])
    config = ClassifierConfig(hidden=4, attention_dim=3, epochs=2)
    return train_classifier(examples, ["alpha", "beta"], config)


def _unordered_model():
    """A model whose attn.w is Fortran-ordered and whose out.w is a strided
    view: neither array's buffer is its C-order bytes."""
    model = init_model(3, ["a", "b", "c"], hidden=4, attention_dim=2, seed=3)
    params = model.params
    params.attn.w = np.asfortranarray(params.attn.w)
    wide = np.zeros((3, 2 * params.out.w.shape[1]))
    wide[:, ::2] = params.out.w
    params.out.w = wide[:, ::2]
    assert not (params.attn.w.flags.c_contiguous or params.out.w.flags.c_contiguous)
    return model


@pytest.mark.parametrize(
    "build",
    [
        lambda: init_model(3, ["a", "b"], hidden=4, attention_dim=2),
        lambda: init_model(150, ["a", "b"], hidden=200, attention_dim=100, seed=1),
        _trained_model,
        lambda: load_model(save_model(_trained_model(), "ab" * 32))[0],
        _unordered_model,
        lambda: randomized_model(17),  # float64 GRU arrays, written as float32
    ],
    ids=["init-3-4", "init-150-200", "trained", "reloaded", "unordered", "float64-gru"],
)
def test_checkpoint_text_matches_the_reference_writer(build):
    model = build()
    for vocab_hash in ("", "cd" * 32):
        assert save_model(model, vocab_hash) == reference_save_model(model, vocab_hash)


def test_save_model_peak_is_twice_its_text():
    # The text exists twice at the peak: once as its lines and once joined.
    model = init_model(150, ["a", "b"], hidden=200, attention_dim=100)
    text, peak = _traced_peak(save_model, model)
    assert peak <= 2.1 * len(text), peak / len(text)


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
        (lambda t: _with_meta(t, dim=4), r"^parameter gru_fwd\.w has 144 bytes, expected 192$"),
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


@pytest.mark.parametrize("fmt", [1, 2, 3, 4, None])
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
        ('{"format": 5}', "no 'dim' key"),
        ('{"format": 5, "dim": 1.5, "labels": ["a", "b"], "hidden": 2, "attention_dim": 2}',
         "^checkpoint meta 'dim' must be a positive integer: 1.5$"),
        ('{"format": 5, "dim": 2, "labels": ["a", "b"], "hidden": 0, "attention_dim": 2}',
         "^checkpoint meta 'hidden' must be a positive integer: 0$"),
        ('{"format": 5, "dim": 2, "labels": ["a", "b"], "hidden": -3, "attention_dim": 2}',
         "^checkpoint meta 'hidden' must be a positive integer: -3$"),
        ('{"format": 5, "dim": 2, "labels": ["a", "b"], "hidden": 2, "attention_dim": true}',
         "^checkpoint meta 'attention_dim' must be a positive integer: True$"),
        ('{"format": 5, "dim": 2, "labels": "ab", "hidden": 2, "attention_dim": 2}',
         "^checkpoint meta 'labels' must be 2 or more distinct strings: 'ab'$"),
        ('{"format": 5, "dim": 2, "labels": ["x", "x"], "hidden": 2, "attention_dim": 2}',
         r"^checkpoint meta 'labels' must be 2 or more distinct strings: \['x', 'x'\]$"),
        ('{"format": 5, "dim": 2, "labels": [1, 2], "hidden": 2, "attention_dim": 2}',
         r"^checkpoint meta 'labels' must be 2 or more distinct strings: \[1, 2\]$"),
    ],
    ids=["not-an-object", "missing-key", "float-dim", "zero-hidden", "negative-hidden",
         "bool-attention-dim", "labels-string", "labels-repeated", "labels-not-strings"],
)
def test_malformed_checkpoint_meta_is_a_value_error(meta_line, message):
    with pytest.raises(ValueError, match=message):
        load_model(meta_line + "\n")


@pytest.mark.parametrize("labels", [["a", "a"], ["a"], [], ["a", 1]],
                         ids=["repeated", "one", "none", "not-strings"])
def test_init_model_refuses_labels_a_checkpoint_could_not_hold(labels):
    with pytest.raises(ValueError, match="^labels must be 2 or more distinct strings: "):
        init_model(2, labels, hidden=2, attention_dim=2)


@given(st.lists(st.text(max_size=3), max_size=4))
def test_every_label_list_init_model_takes_survives_a_checkpoint(labels):
    try:
        model = init_model(1, labels, hidden=1, attention_dim=1)
    except ValueError:
        return
    loaded, _ = load_model(save_model(model))
    assert loaded.labels == labels


def test_checkpoint_payload_length_is_checked_before_its_array_exists():
    # At these sizes the GRU arrays alone take over 100 MB; a meta line that
    # declares them allocates none of it.
    meta = json.dumps(
        {"format": 5, "dim": 150, "labels": ["a", "b"], "hidden": 1500, "attention_dim": 100}
    )
    short = f"gru_fwd.w {base64.b64encode(bytes(8)).decode()}"
    cases = [
        (meta + "\n", "^checkpoint is missing parameter gru_fwd.w$"),
        (f"{meta}\n{short}\n", "^parameter gru_fwd.w has 8 bytes, expected 2700000$"),
    ]
    for text, message in cases:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                load_model(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"load_model allocated {peak} bytes before refusing"


def test_alpha_csv_format():
    csv_text = alpha_csv([("21_20", 0.75), ("00_21", 0.25)])
    lines = csv_text.splitlines()
    assert lines[0] == "motif,weight"
    assert lines[1].startswith("21_20,0.75")
    assert len(lines) == 3
