import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_gradients_close, central_difference

from folkmotif import sgns
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
from folkmotif.vocab import Vocabulary, build_vocab

FAST = SkipgramConfig(dim=8, window=2, negatives=3, epochs=5, seed=0)


def test_pair_loss_at_zero_scores():
    """One positive and one negative at score 0 cost -2 log(1/2)."""
    w = np.zeros(4)
    ctx = np.zeros((2, 4))
    loss, _, _ = pair_objective(w, ctx, np.array([1.0, 0.0]))
    assert loss == pytest.approx(1.3863, abs=1e-4)


def test_pair_objective_matches_finite_differences():
    rng = np.random.default_rng(3)
    w = rng.normal(scale=0.5, size=6)
    ctx = rng.normal(scale=0.5, size=(4, 6))
    labels = np.array([1.0, 0.0, 0.0, 0.0])
    _, grad_w, grad_ctx = pair_objective(w, ctx, labels)
    num_w = central_difference(lambda v: pair_objective(v, ctx, labels)[0], w)
    num_ctx = central_difference(lambda c: pair_objective(w, c, labels)[0], ctx)
    assert_gradients_close(grad_w, num_w, what="d loss / d target vector")
    assert_gradients_close(grad_ctx, num_ctx, what="d loss / d context rows")


@pytest.mark.parametrize("scale", [0.5, 30.0, 1e160])
def test_pair_objective_equals_the_term_by_term_form_bit_for_bit(scale):
    """The largest scale overflows the scores to infinity."""
    rng = np.random.default_rng(7)
    w = rng.normal(scale=scale, size=5)
    ctx = rng.normal(scale=scale, size=(6, 5))
    labels = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        got = pair_objective(w, ctx, labels)
    want = _reference_pair_objective(w, ctx, labels)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)


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
    vocab = build_vocab([s.tokens for s in fixture_songs])
    config = SkipgramConfig(dim=8, window=2, negatives=3, epochs=5, lr=0.01, seed=0)
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
    config = SkipgramConfig(dim=8, window=2, negatives=3, epochs=3, lr=1e8, lr_min=1e8, seed=0)
    with pytest.raises(TrainingDiverged, match="learning rate"):
        train_skipgram(fixture_songs, vocab, config)


def _reference_pair_objective(w, ctx, labels):
    """pair_objective written out term by term: np.where on the labels, np.outer."""
    with np.errstate(over="ignore", invalid="ignore"):
        scores = ctx @ w
        log_sig = -np.logaddexp(0.0, -scores)
        log_sig_neg = -np.logaddexp(0.0, scores)
        loss = -float(np.where(labels == 1, log_sig, log_sig_neg).sum())
        g = np.exp(log_sig) - labels
        return loss, g @ ctx, np.outer(g, w)


def _reference_train_pass(
    sequences, target_rows, input_vectors, output_vectors, dist, config, rng, epoch
):
    """The per-pair loop that sgns._train_pass must equal bit for bit.

    One draw of k negatives per pair, the step through the term-by-term
    objective and the context-row update through the 2-D np.add.at.
    """
    k = config.negatives
    labels = np.zeros(k + 1)
    labels[0] = 1.0
    idx = np.empty(k + 1, dtype=np.int64)
    centers = sum(len(seq) for seq in sequences)
    step, steps = epoch * centers, config.epochs * centers
    total = 0.0
    for s, seq in enumerate(sequences):
        for t in range(len(seq)):
            lr = max(config.lr_min, config.lr * (1.0 - step / steps))
            step += 1
            if target_rows is None:
                b = int(rng.integers(1, config.window + 1))
                contexts = np.concatenate([seq[max(0, t - b) : t], seq[t + 1 : t + 1 + b]])
                row = seq[t]
            else:
                contexts = seq[t : t + 1]
                row = target_rows[s]
            w = input_vectors[row]
            for c in contexts:
                idx[0] = c
                idx[1:] = dist.draw(rng, k)
                loss, grad_w, grad_ctx = _reference_pair_objective(w, output_vectors[idx], labels)
                total += loss
                np.add.at(output_vectors, idx, -lr * grad_ctx)
                input_vectors[row] = w - lr * grad_w
    return total


def _three_token_songs():
    """Pairs draw 3 rows from 3 tokens, so most of them repeat a row."""
    rng = np.random.default_rng(11)
    songs = [
        TokenizedSong(id=f"s{i}", label="x", tokens=tuple(rng.choice(["a", "b", "c"], size=n)))
        for i, n in enumerate([1, 2, 9, 17, 30])
    ]
    return songs, SkipgramConfig(dim=7, window=3, negatives=2, epochs=3, lr=0.2, seed=4)


def _many_token_songs():
    """Pairs draw 6 rows from 240 tokens, so most of their rows are distinct."""
    rng = np.random.default_rng(12)
    tokens = [f"t{i}" for i in range(240)]
    songs = [
        TokenizedSong(id=f"s{i}", label="x", tokens=tuple(rng.choice(tokens, size=n)))
        for i, n in enumerate([1, 40, 120, 200, 260, 300])
    ]
    return songs, SkipgramConfig(dim=9, window=4, negatives=5, epochs=2, lr=0.1, seed=5)


@pytest.mark.parametrize("corpus", [_three_token_songs, _many_token_songs])
def test_training_equals_the_per_pair_reference_bit_for_bit(monkeypatch, corpus):
    songs, config = corpus()
    vocab = build_vocab([s.tokens for s in songs])
    emb = train_skipgram(songs, vocab, config)
    docs = train_pvdbow(songs, vocab, config)
    monkeypatch.setattr(sgns, "_train_pass", _reference_train_pass)
    ref_emb = train_skipgram(songs, vocab, config)
    ref_docs = train_pvdbow(songs, vocab, config)
    assert np.array_equal(emb.input_vectors, ref_emb.input_vectors)
    assert np.array_equal(emb.output_vectors, ref_emb.output_vectors)
    assert emb.epoch_objectives == ref_emb.epoch_objectives
    assert np.array_equal(docs.vectors, ref_docs.vectors)
    assert docs.epoch_objectives == ref_docs.epoch_objectives


def test_doc_vectors_group_identical_songs():
    songs = [
        TokenizedSong(id="s1", label="x", tokens=("p", "q", "p", "q") * 8),
        TokenizedSong(id="s2", label="x", tokens=("p", "q", "p", "q") * 8),
        TokenizedSong(id="s3", label="y", tokens=("r", "s", "r", "s") * 8),
    ]
    vocab = build_vocab([s.tokens for s in songs])
    docs = train_pvdbow(songs, vocab, SkipgramConfig(dim=8, negatives=3, epochs=20, seed=0))
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


def test_read_embeddings_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        read_embeddings("not a header\n")


def test_read_embeddings_rejects_wrong_row_count():
    with pytest.raises(ValueError, match="expected 2 rows"):
        read_embeddings("2 2\nt0 0.0 1.0\n")
