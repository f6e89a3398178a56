import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_gradients_close, central_difference

from folkmotif import sgns
from folkmotif.seeds import stream
from folkmotif.sgns import (
    DocVectors,
    Embeddings,
    SkipgramConfig,
    TrainingDiverged,
    cosine,
    most_similar,
    pair_objective,
    read_embeddings,
    train_pvdbow,
    train_skipgram,
    write_embeddings,
)
from folkmotif.tokens import TokenizedSong
from folkmotif.vocab import SamplingDist, Vocabulary, build_vocab, negative_sampling_dist

FAST = SkipgramConfig(dim=8, window=2, negatives=3, epochs=5)


def test_pair_loss_at_zero_scores():
    """One positive and one negative at score 0 cost -2 log(1/2)."""
    w = np.zeros(4)
    ctx = np.zeros((2, 4))
    loss, _ = pair_objective(w, ctx, np.array([-1.0, 1.0]))
    assert loss == pytest.approx(1.3863, abs=1e-4)


def test_pair_objective_matches_finite_differences():
    """coef is -d loss / d score: d loss / d w = -coef @ ctx, d loss / d ctx = -coef (x) w."""
    rng = np.random.default_rng(3)
    w = rng.normal(scale=0.5, size=6)
    ctx = rng.normal(scale=0.5, size=(4, 6))
    signs = np.array([-1.0, 1.0, 1.0, 1.0])
    _, coef = pair_objective(w, ctx, signs)
    num_w = central_difference(lambda v: pair_objective(v, ctx, signs)[0], w)
    num_ctx = central_difference(lambda c: pair_objective(w, c, signs)[0], ctx)
    assert_gradients_close(-coef @ ctx, num_w, what="d loss / d target vector")
    assert_gradients_close(-np.outer(coef, w), num_ctx, what="d loss / d context rows")


@pytest.mark.parametrize("scale", [0.5, 30.0, 1e160])
def test_pair_objective_equals_the_term_by_term_form_bit_for_bit(scale):
    """The largest scale overflows the scores to infinity."""
    rng = np.random.default_rng(7)
    w = rng.normal(scale=scale, size=5)
    ctx = rng.normal(scale=scale, size=(6, 5))
    signs = np.array([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        got = pair_objective(w, ctx, signs)
    want = _reference_pair_objective(w, ctx, signs)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("scale", [0.5, 30.0, 1e160])
def test_pair_loss_equals_the_labels_form_bit_for_bit(scale):
    """The signed softplus sums the same terms as the np.where form on 0/1 labels."""
    rng = np.random.default_rng(8)
    w = rng.normal(scale=scale, size=5)
    ctx = rng.normal(scale=scale, size=(12, 5))
    labels = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0] * 2)
    with np.errstate(over="ignore", invalid="ignore"):
        loss, _ = pair_objective(w, ctx, 1.0 - 2.0 * labels)
        want = _labels_pair_objective(w, ctx, labels)[0]
    assert np.array_equal(loss, want, equal_nan=True)


@pytest.mark.parametrize("score", [1e3, -1e3])
def test_saturated_scores_give_limit_coefficients_without_warnings(score):
    """A positive row costs softplus(-score), a negative softplus(score); at
    |score| = 1e3 each coefficient is at its limit, 0 or +-1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, coef = pair_objective(np.ones(1), np.full((2, 1), score), np.array([-1.0, 1.0]))
    assert loss == 1e3
    assert coef.tolist() == ([0.0, -1.0] if score > 0 else [1.0, 0.0])


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_colinear():
    assert cosine(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)


def test_cosine_analytic():
    assert cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(0.7071, abs=1e-4)


def test_cosine_zero_vector_is_error():
    with pytest.raises(ValueError, match="zero vector"):
        cosine(np.zeros(3), np.array([1.0, 0.0, 0.0]))


@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3),
    st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3),
    st.floats(min_value=0.1, max_value=10),
)
# Vectors whose sum of squares is subnormal; their norms were off by up to 6 %.
@example(a=[0.0, 0.0, 2.36e-162], b=[0.0, 0.0, 1.0], scale=2.0)
@example(a=[0.0, 0.0, 9.40e-158], b=[0.0, 0.0, 1.0], scale=2.0)
def test_cosine_symmetric_and_scale_invariant(a, b, scale):
    a, b = np.array(a), np.array(b)
    if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
        return
    assert cosine(a, b) == pytest.approx(cosine(b, a))
    assert cosine(scale * a, b) == pytest.approx(cosine(a, b), abs=1e-12)


def _toy_embeddings():
    vocab = Vocabulary(tokens=["a", "b", "c"], counts=np.array([1, 1, 1]))
    matrix = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0]])
    return Embeddings(vocab=vocab, input_vectors=matrix, output_vectors=np.zeros_like(matrix))


def test_most_similar_top1():
    result = most_similar(_toy_embeddings(), "a", k=1)
    assert len(result) == 1
    assert result[0][0] == "b"
    assert result[0][1] == pytest.approx(0.9939, abs=1e-4)


def test_most_similar_all_neighbors_once():
    result = most_similar(_toy_embeddings(), "a", k=2)
    assert [tok for tok, _ in result] == ["b", "c"]


@pytest.mark.parametrize("scale", [1e-170, 1e200, 2.0**600, 2.0**-600],
                         ids=["1e-170", "1e200", "2^600", "2^-600"])
def test_most_similar_ranks_and_scores_alike_at_any_scale(scale):
    """Every row scaled alike gives the same neighbours and scores, each the
    cosine of the two rows; at these scales a plain sum of squares would
    underflow or overflow."""
    tokens = ["a", "b", "c", "d", "e", "f"]
    matrix = np.random.default_rng(3).normal(size=(len(tokens), 5))
    matrix[4] = 0.0
    vocab = Vocabulary(tokens=tokens, counts=np.ones(len(tokens), dtype=np.int64))
    unscaled = most_similar(Embeddings(vocab, matrix, matrix), "a", k=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = most_similar(Embeddings(vocab, scale * matrix, matrix), "a", k=5)
    assert [token for token, _ in scaled] == [token for token, _ in unscaled] == ["c", "b", "f", "d"]
    for (token, score), (_, before) in zip(scaled, unscaled):
        assert score == pytest.approx(before, abs=1e-15)
        row = scale * matrix[tokens.index(token)]
        assert score == pytest.approx(cosine(scale * matrix[0], row), abs=1e-15)


def test_most_similar_unknown_token_hints_near_matches():
    emb = _toy_embeddings()
    with pytest.raises(KeyError) as exc:
        most_similar(emb, "ab", k=1)
    message = str(exc.value)
    assert "unknown token" in message
    assert "'a'" in message and "'b'" in message


def test_trained_vectors_reflect_cooccurrence(fixture_songs):
    """Tokens that share contexts end up closer than tokens that never do."""
    vocab = build_vocab([s.tokens for s in fixture_songs])
    emb = train_skipgram(fixture_songs, vocab, FAST)
    p, q, r = emb.vector("p"), emb.vector("q"), emb.vector("r")
    assert cosine(p, q) > cosine(p, r)


def test_training_is_bit_reproducible(fixture_songs):
    vocab = build_vocab([s.tokens for s in fixture_songs])
    a = train_skipgram(fixture_songs, vocab, FAST)
    b = train_skipgram(fixture_songs, vocab, FAST)
    assert np.array_equal(a.input_vectors, b.input_vectors)
    assert np.array_equal(a.output_vectors, b.output_vectors)
    assert write_embeddings(vocab.tokens, a.input_vectors) == write_embeddings(
        vocab.tokens, b.input_vectors
    )


def test_epoch_objective_is_nondecreasing_early(fixture_songs):
    """window=1 gives every center the same contexts in every epoch, so each
    epoch's objective sums the same pairs; a wider window draws a new pair
    count per epoch, which moves the objective by more than the late epochs'
    progress."""
    vocab = build_vocab([s.tokens for s in fixture_songs])
    config = SkipgramConfig(dim=8, window=1, negatives=3, epochs=5, lr=0.01)
    emb = train_skipgram(fixture_songs, vocab, config)
    first5 = emb.epoch_objectives[:5]
    assert len(first5) == 5
    assert all(later >= earlier for earlier, later in zip(first5, first5[1:]))


def test_matrices_stay_finite(fixture_songs):
    vocab = build_vocab([s.tokens for s in fixture_songs])
    emb = train_skipgram(fixture_songs, vocab, FAST)
    assert np.isfinite(emb.input_vectors).all()
    assert np.isfinite(emb.output_vectors).all()


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"lr": 0.0}, "lr"),
        ({"lr": -0.1}, "lr"),
        ({"lr_min": -1e-4}, "lr_min"),
        ({"lr": 0.01, "lr_min": 0.02}, "lr_min"),
    ],
)
def test_config_rejects_bad_learning_rates(overrides, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        SkipgramConfig(**overrides)


def test_config_accepts_a_constant_learning_rate():
    assert SkipgramConfig(lr=0.01, lr_min=0.01).lr_min == 0.01


def test_huge_learning_rate_diverges(fixture_songs):
    vocab = build_vocab([s.tokens for s in fixture_songs])
    config = SkipgramConfig(dim=8, window=2, negatives=3, epochs=3, lr=1e8, lr_min=1e8)
    with pytest.raises(TrainingDiverged, match="learning rate"):
        train_skipgram(fixture_songs, vocab, config)


def _reference_pair_objective(w, ctx, signs):
    """pair_objective written out term by term: the positive row's softplus
    and coefficient, then the negatives'."""
    with np.errstate(over="ignore", invalid="ignore"):
        scores = ctx @ w
        positive = signs < 0
        t = np.where(positive, np.logaddexp(0.0, -scores), np.logaddexp(0.0, scores))
        loss = float(t.sum())
        coef = np.where(positive, -np.expm1(-t), np.expm1(-t))
        return loss, coef


def _signed_step(w, output_vectors, ix, k, lr):
    """One step of the signed form on the rows ix, whose every (k+1)-th row is
    a positive: the coefficients scaled by lr, the context rows updated
    through the 2-D np.add.at. Returns the loss and w's new value."""
    ctx = output_vectors[ix]
    signs = np.ones(len(ix))
    signs[:: k + 1] = -1.0
    loss, coef = _reference_pair_objective(w, ctx, signs)
    coef = lr * coef
    np.add.at(output_vectors, ix, np.outer(coef, w))
    return loss, w + coef @ ctx


def _labels_pair_objective(w, ctx, labels):
    """The objective before the signed form, verbatim: np.where on 0/1
    labels, np.outer, and the gradients of the loss."""
    with np.errstate(over="ignore", invalid="ignore"):
        scores = ctx @ w
        log_sig = -np.logaddexp(0.0, -scores)
        log_sig_neg = -np.logaddexp(0.0, scores)
        loss = -float(np.where(labels == 1, log_sig, log_sig_neg).sum())
        g = np.exp(log_sig) - labels
        return loss, g @ ctx, np.outer(g, w)


def _labels_step(w, output_vectors, ix, k, lr):
    """The step before the signed form, verbatim, in _signed_step's interface."""
    labels = np.zeros(len(ix))
    labels[:: k + 1] = 1.0
    loss, grad_w, grad_ctx = _labels_pair_objective(w, output_vectors[ix], labels)
    np.add.at(output_vectors, ix, -lr * grad_ctx)
    return loss, w - lr * grad_w


def _reference_train(songs, vocab, config, seed, per_center, update=_signed_step):
    """The trainer that train_skipgram and train_pvdbow must equal bit for bit.

    The start is drawn from the seed's init stream and training runs on its
    train stream (skip-gram's or PV-DBOW's). A skip-gram song first draws
    its T windows in one call; every pair then draws its own k negatives,
    which takes the same numbers as the trainer's one draw per song. Each
    center's learning rate is computed on its own. With per_center the
    center's pairs are scored as one flat block and take one step
    (skip-gram); without it each pair takes its own step and the input row
    is the song's (PV-DBOW). update is _signed_step or _labels_step. Returns
    the input matrix, the output matrix and the per-epoch objectives.
    """
    sequences = [np.array(vocab.encode(song.tokens), dtype=np.int64) for song in songs]
    d, k = config.dim, config.negatives
    n_inputs = len(vocab) if per_center else len(songs)
    name = "skipgram" if per_center else "pvdbow"
    input_vectors = (stream(seed, f"{name}_init").random((n_inputs, d)) - 0.5) / d
    output_vectors = np.zeros((len(vocab), d))
    dist = negative_sampling_dist(vocab)
    rng = stream(seed, f"{name}_train")
    centers = sum(len(seq) for seq in sequences)
    objectives = []
    for epoch in range(config.epochs):
        step, steps = epoch * centers, config.epochs * centers
        total = 0.0
        for s, seq in enumerate(sequences):
            if per_center and len(seq):
                windows = rng.integers(1, config.window + 1, size=len(seq))
            for t in range(len(seq)):
                lr = max(config.lr_min, config.lr * (1.0 - step / steps))
                step += 1
                if per_center:
                    b = int(windows[t])
                    contexts = np.concatenate([seq[max(0, t - b) : t], seq[t + 1 : t + 1 + b]])
                    row = seq[t]
                else:
                    contexts = seq[t : t + 1]
                    row = s
                pairs = np.array(
                    [np.concatenate(([c], dist.draw(rng, k))) for c in contexts], dtype=np.int64
                )
                w = input_vectors[row]
                for ix in [pairs.ravel()] if per_center else pairs:
                    loss, new_w = update(w, output_vectors, ix, k, lr)
                    total += loss
                    input_vectors[row] = new_w
        objectives.append(-total / centers)
    return input_vectors, output_vectors, objectives


def _three_token_songs():
    """Pairs draw 3 rows from 3 tokens, so most of them repeat a row."""
    rng = np.random.default_rng(11)
    songs = [
        TokenizedSong(id=f"s{i}", label="x", tokens=tuple(rng.choice(["a", "b", "c"], size=n)))
        for i, n in enumerate([1, 2, 9, 17, 30])
    ]
    return songs, SkipgramConfig(dim=7, window=3, negatives=2, epochs=3, lr=0.2), 4


def _many_token_songs():
    """Pairs draw 6 rows from 240 tokens, so most of their rows are distinct."""
    rng = np.random.default_rng(12)
    tokens = [f"t{i}" for i in range(240)]
    songs = [
        TokenizedSong(id=f"s{i}", label="x", tokens=tuple(rng.choice(tokens, size=n)))
        for i, n in enumerate([1, 40, 120, 200, 260, 300])
    ]
    return songs, SkipgramConfig(dim=9, window=4, negatives=5, epochs=2, lr=0.1), 5


def _short_songs():
    """Songs of 1 and 2 motifs: a center has 0, 1 or 2 contexts."""
    rng = np.random.default_rng(13)
    songs = [
        TokenizedSong(id=f"s{i}", label="x", tokens=tuple(rng.choice(["a", "b", "c"], size=n)))
        for i, n in enumerate([1, 2, 2, 1, 2, 1])
    ]
    return songs, SkipgramConfig(dim=5, window=2, negatives=3, epochs=3, lr=0.2), 6


def _wide_window_songs():
    """Every window reaches past both ends of most songs (window >= T)."""
    rng = np.random.default_rng(14)
    tokens = [f"t{i}" for i in range(12)]
    songs = [
        TokenizedSong(id=f"s{i}", label="x", tokens=tuple(rng.choice(tokens, size=n)))
        for i, n in enumerate([3, 6, 1, 7, 5])
    ]
    return songs, SkipgramConfig(dim=6, window=7, negatives=2, epochs=3, lr=0.1), 7


SKIPGRAM_CORPORA = [_three_token_songs, _many_token_songs, _short_songs, _wide_window_songs]


@pytest.mark.parametrize("corpus", SKIPGRAM_CORPORA)
def test_skipgram_equals_the_per_center_reference_bit_for_bit(corpus):
    songs, config, seed = corpus()
    vocab = build_vocab([s.tokens for s in songs])
    emb = train_skipgram(songs, vocab, config, seed)
    input_vectors, output_vectors, objectives = _reference_train(
        songs, vocab, config, seed, per_center=True
    )
    assert np.array_equal(emb.input_vectors, input_vectors)
    assert np.array_equal(emb.output_vectors, output_vectors)
    assert emb.epoch_objectives == objectives


@pytest.mark.parametrize("corpus", SKIPGRAM_CORPORA)
def test_pvdbow_equals_the_per_pair_reference_bit_for_bit(corpus):
    """PV-DBOW has one pair per center, so its doc vectors keep the per-pair values."""
    songs, config, seed = corpus()
    vocab = build_vocab([s.tokens for s in songs])
    docs = train_pvdbow(songs, vocab, config, seed)
    vectors, _, objectives = _reference_train(songs, vocab, config, seed, per_center=False)
    assert np.array_equal(docs.vectors, vectors)
    assert docs.epoch_objectives == objectives


@pytest.mark.parametrize("corpus", SKIPGRAM_CORPORA)
@pytest.mark.parametrize("train", [train_skipgram, train_pvdbow])
def test_trainers_match_the_labels_form_within_rounding(corpus, train):
    """The signed step rounds differently from the 0/1-label gradients it
    replaced, and by no more than rounding."""
    songs, config, seed = corpus()
    vocab = build_vocab([s.tokens for s in songs])
    per_center = train is train_skipgram
    want_in, want_out, want_objectives = _reference_train(
        songs, vocab, config, seed, per_center, update=_labels_step
    )
    trained = train(songs, vocab, config, seed)
    if per_center:
        pairs = [(trained.input_vectors, want_in), (trained.output_vectors, want_out)]
    else:
        pairs = [(trained.vectors, want_in)]
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.allclose(trained.epoch_objectives, want_objectives, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "lr, lr_min, steps",
    [
        (0.025, 0.0001, 7),
        (0.025, 0.0001, 100_003),
        (0.1, 0.0, 4_096),
        (0.3, 0.3, 50),
        (0.7, 0.2, 999),
    ],
)
def test_learning_rates_equal_the_per_center_formula(lr, lr_min, steps):
    """Each song's rates come from one vectorised call; they equal the
    scalar max(lr_min, lr * (1 - step / steps)) of every center exactly."""
    config = SkipgramConfig(lr=lr, lr_min=lr_min)
    cuts = sorted({0, 1, steps // 3, steps // 2, steps - 1, steps})
    for start, stop in zip(cuts, cuts[1:]):
        rates = sgns._learning_rates(config, start, stop - start, steps)
        assert all(type(r) is float for r in rates)
        assert rates == [max(lr_min, lr * (1.0 - step / steps)) for step in range(start, stop)]


def test_skipgram_refuses_vectors_an_epochs_unscored_last_step_left_non_finite():
    """The epoch's last update is never scored, so its objective (-8.8e196
    here) is finite while the vectors are not; PV-DBOW stays finite on the
    same config."""
    songs = [TokenizedSong(id="s", label="x", tokens=("p", "q"))]
    vocab = build_vocab([s.tokens for s in songs])
    config = SkipgramConfig(dim=4, window=1, negatives=1, epochs=1, lr=1e200, lr_min=1e200)
    message = r"^non-finite vectors after epoch 1; lower the learning rate \(1e\+200\)$"
    with pytest.raises(TrainingDiverged, match=message):
        train_skipgram(songs, vocab, config)
    docs = train_pvdbow(songs, vocab, config)
    assert np.isfinite(docs.vectors).all()
    assert docs.epoch_objectives == [pytest.approx(-1.386, abs=1e-3)]


@pytest.mark.parametrize("train", [train_skipgram, train_pvdbow])
def test_training_makes_one_pair_objective_call_per_center(monkeypatch, train):
    songs, config, seed = _many_token_songs()
    vocab = build_vocab([s.tokens for s in songs])
    calls = []

    def counted(*args):
        calls.append(1)
        return pair_objective(*args)

    monkeypatch.setattr(sgns, "pair_objective", counted)
    train(songs, vocab, config, seed)
    centers = sum(len(s.tokens) for s in songs)
    assert len(calls) == centers * config.epochs


@pytest.mark.parametrize("train", [train_skipgram, train_pvdbow])
def test_negatives_are_drawn_once_per_song(monkeypatch, train):
    """One draw per song and epoch: PV-DBOW's T*k negatives, skip-gram's k
    for each of its pairs."""
    songs, config, seed = _many_token_songs()
    vocab = build_vocab([s.tokens for s in songs])
    sizes = []
    draw = SamplingDist.draw

    def counted(self, rng, size):
        sizes.append(size)
        return draw(self, rng, size)

    monkeypatch.setattr(SamplingDist, "draw", counted)
    train(songs, vocab, config, seed)
    if train is train_pvdbow:
        assert sizes == [len(s.tokens) * config.negatives for s in songs] * config.epochs
    else:
        assert len(sizes) == len(songs) * config.epochs
        most = [2 * config.window * len(s.tokens) * config.negatives for s in songs]
        assert all(n % config.negatives == 0 and n <= m for n, m in zip(sizes, most * 2))


def test_skipgram_objective_rises_every_epoch():
    songs, config, seed = _many_token_songs()
    vocab = build_vocab([s.tokens for s in songs])
    emb = train_skipgram(songs, vocab, replace(config, epochs=4), seed)
    objectives = emb.epoch_objectives
    assert len(objectives) == 4
    assert all(later > earlier for earlier, later in zip(objectives, objectives[1:]))


def test_skipgram_on_one_token_songs_leaves_the_matrices_untouched():
    """No song has a context pair, so every center scores an empty block."""
    songs = [TokenizedSong(id=f"s{i}", label="x", tokens=(tok,)) for i, tok in enumerate("abcab")]
    vocab = build_vocab([s.tokens for s in songs])
    emb = train_skipgram(songs, vocab, FAST)
    initial = (stream(0, "skipgram_init").random((len(vocab), FAST.dim)) - 0.5) / FAST.dim
    assert np.array_equal(emb.input_vectors, initial)
    assert not emb.output_vectors.any()
    assert emb.epoch_objectives == [0.0] * FAST.epochs


def test_skipgram_ignores_a_song_with_no_in_vocabulary_token(monkeypatch):
    """Its empty sequence has no center, so it draws no random number."""
    songs, config, seed = _three_token_songs()
    vocab = build_vocab([s.tokens for s in songs])
    emb = train_skipgram(songs, vocab, config, seed)
    blank = TokenizedSong(id="blank", label="x", tokens=("zzz",))
    with_songs = [*songs[:2], blank, *songs[2:]]
    draws = []
    draw = SamplingDist.draw
    monkeypatch.setattr(SamplingDist, "draw", lambda *args: draws.append(1) or draw(*args))
    with_blank = train_skipgram(with_songs, vocab, config, seed)
    assert len(draws) == len(songs) * config.epochs
    assert np.array_equal(emb.input_vectors, with_blank.input_vectors)
    assert np.array_equal(emb.output_vectors, with_blank.output_vectors)
    assert emb.epoch_objectives == with_blank.epoch_objectives
    input_vectors, output_vectors, _ = _reference_train(with_songs, vocab, config, seed, True)
    assert np.array_equal(with_blank.input_vectors, input_vectors)
    assert np.array_equal(with_blank.output_vectors, output_vectors)


def test_pvdbow_refuses_a_song_with_no_in_vocabulary_token():
    """Dropping the song would shift every later row onto the wrong id."""
    songs = [
        TokenizedSong(id="a", label="x", tokens=("p", "q")),
        TokenizedSong(id="b", label="x", tokens=("zzz",)),
        TokenizedSong(id="c", label="y", tokens=("q", "p")),
    ]
    vocab = build_vocab([songs[0].tokens])
    with pytest.raises(ValueError, match="song 'b' has no in-vocabulary motif"):
        train_pvdbow(songs, vocab, FAST)


def test_doc_vectors_group_identical_songs():
    songs = [
        TokenizedSong(id="s1", label="x", tokens=("p", "q", "p", "q") * 8),
        TokenizedSong(id="s2", label="x", tokens=("p", "q", "p", "q") * 8),
        TokenizedSong(id="s3", label="y", tokens=("r", "s", "r", "s") * 8),
    ]
    vocab = build_vocab([s.tokens for s in songs])
    docs = train_pvdbow(songs, vocab, SkipgramConfig(dim=8, negatives=3, epochs=20))
    d1, d2, d3 = (docs.vector(i) for i in ("s1", "s2", "s3"))
    assert cosine(d1, d2) > cosine(d1, d3)


def test_doc_vector_shape(fixture_songs):
    vocab = build_vocab([s.tokens for s in fixture_songs])
    docs = train_pvdbow(fixture_songs, vocab, FAST)
    assert docs.vectors.shape == (len(fixture_songs), FAST.dim)
    assert docs.ids == [s.id for s in fixture_songs]


def test_doc_vector_training_is_deterministic(fixture_songs):
    vocab = build_vocab([s.tokens for s in fixture_songs])
    a = train_pvdbow(fixture_songs, vocab, FAST)
    b = train_pvdbow(fixture_songs, vocab, FAST)
    assert np.array_equal(a.vectors, b.vectors)


def test_unknown_song_id_is_error():
    docs = DocVectors(ids=["a"], vectors=np.ones((1, 2)))
    with pytest.raises(KeyError, match="unknown song id"):
        docs.vector("b")


@settings(max_examples=25)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32),
)
def test_embedding_file_round_trip(v, d, seed):
    rng = np.random.default_rng(seed)
    tokens = [f"t{i}" for i in range(v)]
    matrix = rng.normal(size=(v, d))
    back_tokens, back = read_embeddings(write_embeddings(tokens, matrix))
    assert back_tokens == tokens
    assert np.array_equal(back, matrix)


def _float_by_float(tokens, matrix):
    """write_embeddings before it formatted from tolist(): repr per NumPy scalar."""
    lines = [f"{matrix.shape[0]} {matrix.shape[1]}"]
    for tok, row in zip(tokens, matrix):
        lines.append(tok + " " + " ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def test_embedding_text_is_byte_identical_to_the_per_scalar_formatter():
    edge = np.array([[-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]])
    random = np.random.default_rng(21).normal(scale=1e-3, size=(9, 150))
    for matrix in (edge, -edge, random):
        tokens = [f"t{i}" for i in range(len(matrix))]
        assert write_embeddings(tokens, matrix) == _float_by_float(tokens, matrix)
    want = "1 4\na -0.0 5e-324 1.7976931348623157e+308 0.30000000000000004\n"
    assert write_embeddings(["a"], edge) == want


def test_read_embeddings_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        read_embeddings("not a header\n")
    for text in ("-1 2\n", "0 2\n", "1 0\na\n"):
        header = repr(text.split("\n")[0])
        with pytest.raises(ValueError, match=f"^line 1: bad header {header}; V and d must be"):
            read_embeddings(text)


def test_read_embeddings_rejects_wrong_row_count():
    with pytest.raises(ValueError, match="expected 2 rows"):
        read_embeddings("2 2\nt0 0.0 1.0\n")
    # Counted before the matrix is allocated, so a huge header is no MemoryError.
    with pytest.raises(ValueError, match="^expected 100000000000 rows, found 1$"):
        read_embeddings("100000000000 2\nt0 0.0 1.0\n")


def test_read_embeddings_checks_the_rows_before_it_allocates():
    """A header width of 2e9 would take 14.9 GiB for one row; the short row
    is refused first."""
    with pytest.raises(ValueError, match="^line 2: expected token and 2000000000 floats$"):
        read_embeddings("1 2000000000\na 1.0\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("2 2\n\n\na 1 2\nb 1\n", "line 5: expected token and 2 floats"),
        ("2 2\na 1 2\n\nb 1 x\n", "line 4: vector values must be numbers"),
        ("1 2\n\na nan 2\n", "line 3: vector values must be finite"),
        ("1 2\na 1 -inf\n", "line 2: vector values must be finite"),
        ("2 1\na 1.0\na 2.0\n", "line 3: duplicate token 'a'"),
    ],
    ids=["short-row-after-blanks", "not-a-number", "nan", "inf", "duplicate"],
)
def test_read_embeddings_names_the_file_line_of_a_bad_row(text, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        read_embeddings(text)
