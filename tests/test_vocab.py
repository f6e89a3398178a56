import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from folkmotif.vocab import (
    SamplingDist,
    Vocabulary,
    build_vocab,
    negative_sampling_dist,
    read_vocab,
    write_vocab,
)


def test_min_count_prunes():
    v = build_vocab([["x", "x", "y"]], min_count=2)
    assert v.tokens == ["x"]
    assert v.counts.tolist() == [2]


def test_ties_break_lexicographically():
    v = build_vocab([["b", "a", "a", "b"]], min_count=1)
    assert v.tokens == ["a", "b"]
    assert v.index == {"a": 0, "b": 1}


def test_indices_by_descending_count():
    v = build_vocab([["z", "z", "z", "a", "a", "m"]])
    assert v.tokens == ["z", "a", "m"]


def test_empty_after_pruning_is_error():
    with pytest.raises(ValueError, match="empty vocabulary"):
        build_vocab([["z"]], min_count=2)


def test_encode_skips_unknown_tokens():
    v = build_vocab([["a", "b"]])
    assert v.encode(["a", "nope", "b", "a"]) == [0, 1, 0]


def test_vocab_tsv_round_trip():
    v = build_vocab([["a", "a", "b", "c", "c", "c"]], min_count=1)
    restored = read_vocab(write_vocab(v))
    assert restored.tokens == v.tokens
    assert restored.counts.tolist() == v.counts.tolist()
    assert restored.index == v.index


def test_read_vocab_rejects_gapped_indices():
    with pytest.raises(ValueError, match="consecutive"):
        read_vocab("a\t3\t0\nb\t2\t2\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("a\t3\t0\n\nb\t2.5\t1\n", "line 3: count and index must be integers"),
        ("a\t3\t0\nb\t2\tone\n", "line 2: count and index must be integers"),
        ("a\t-3\t0\n", "line 1: count must be at least 1, got -3"),
        ("a\t3\t0\nb\t0\t1\n", "line 2: count must be at least 1, got 0"),
        ("\na\t3\n", "line 2: expected token<TAB>count<TAB>index"),
        ("a\t3\t0\na\t2\t1\n", "line 2: duplicate token 'a'"),
    ],
    ids=["float-count", "word-index", "negative-count", "zero-count", "two-fields", "duplicate"],
)
def test_read_vocab_names_the_line_of_a_bad_row(text, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        read_vocab(text)


@pytest.mark.parametrize(
    "counts,bad",
    [
        ([0, 3], "'a': count 0"),
        ([-2, 3], "'a': count -2"),
        ([3, 2.7], "'b': count 2.7"),
        ([True, 3], "'a': count True"),
        ([3, "2"], "'b': count '2'"),
        (np.array([3.0, 2.0]), "'a': count 3.0"),
    ],
    ids=["zero", "negative", "float", "bool", "string", "float-array"],
)
def test_vocabulary_refuses_a_count_read_vocab_would_refuse(counts, bad):
    message = f"token {bad} is not an integer of at least 1"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        Vocabulary(["a", "b"], counts)


def test_vocabulary_keeps_integer_counts():
    for counts in ([3, 1], np.array([3, 1]), [np.int32(3), 1]):
        v = Vocabulary(["a", "b"], counts)
        assert v.counts.dtype == np.int64 and v.counts.tolist() == [3, 1]
        assert read_vocab(write_vocab(v)).counts.tolist() == [3, 1]


def test_negative_sampling_probabilities():
    v = Vocabulary(tokens=["a", "b"], counts=np.array([3, 1]))
    dist = negative_sampling_dist(v, power=0.75)
    assert dist.probs[0] == pytest.approx(0.6951, abs=1e-4)
    assert dist.probs[1] == pytest.approx(0.3049, abs=1e-4)


def test_equal_counts_give_equal_probabilities():
    v = Vocabulary(tokens=["a", "b"], counts=np.array([5, 5]))
    dist = negative_sampling_dist(v)
    assert dist.probs.tolist() == [0.5, 0.5]


def test_power_zero_is_uniform():
    v = Vocabulary(tokens=["a", "b", "c"], counts=np.array([100, 10, 1]))
    dist = negative_sampling_dist(v, power=0.0)
    np.testing.assert_allclose(dist.probs, [1 / 3] * 3)


@given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=30))
def test_probabilities_sum_to_one(counts):
    v = Vocabulary(tokens=[f"t{i}" for i in range(len(counts))], counts=np.array(counts))
    dist = negative_sampling_dist(v)
    assert abs(dist.probs.sum() - 1.0) <= 1e-9


@given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=2, max_size=30, unique=True))
def test_probability_increases_with_count(counts):
    v = Vocabulary(tokens=[f"t{i}" for i in range(len(counts))], counts=np.array(counts))
    dist = negative_sampling_dist(v, power=0.75)
    order = np.argsort(counts)
    assert all(np.diff(dist.probs[order]) > 0)


def test_draw_frequencies_match_probabilities_within_3_sigma():
    """10^6 draws land within 3 sigma of the binomial expectation per token."""
    v = Vocabulary(tokens=["a", "b", "c", "d"], counts=np.array([40, 20, 10, 5]))
    dist = negative_sampling_dist(v)
    rng = np.random.default_rng(123)
    n = 1_000_000
    draws = dist.draw(rng, n)
    observed = np.bincount(draws, minlength=len(v))
    expected = n * dist.probs
    sigma = np.sqrt(n * dist.probs * (1 - dist.probs))
    assert (np.abs(observed - expected) <= 3 * sigma).all()


def test_draws_are_deterministic_under_a_fixed_seed():
    v = Vocabulary(tokens=["a", "b", "c"], counts=np.array([3, 2, 1]))
    dist = negative_sampling_dist(v)
    a = dist.draw(np.random.default_rng(7), 1000)
    b = dist.draw(np.random.default_rng(7), 1000)
    assert np.array_equal(a, b)


@given(
    st.lists(st.integers(min_value=0, max_value=8), max_size=12),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32),
)
def test_one_draw_per_center_takes_the_stream_of_one_draw_per_pair(contexts, k, seed):
    """draw(rng, n*k) equals n draws of k, with other draws in between.

    A skip-gram song draws its windows, then k negatives for each of its n
    pairs; the trainer makes those n draws as one, the reference trainer of
    the tests one per pair.
    """
    v = Vocabulary(tokens=["a", "b", "c", "d", "e"], counts=np.array([9, 5, 3, 2, 1]))
    dist = negative_sampling_dist(v)
    per_center, per_pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in contexts:
        assert per_center.integers(1, 5) == per_pair.integers(1, 5)
        batched = dist.draw(per_center, n * k).reshape(n, k)
        for row in batched:
            assert np.array_equal(row, dist.draw(per_pair, k))
    assert per_center.random() == per_pair.random()


def test_invalid_probability_table_rejected():
    with pytest.raises(ValueError, match="sum"):
        SamplingDist(probs=np.array([0.5, 0.4]))
