import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_gradients_close, central_difference

from folkmotif.baselines import (
    LinearSvmModel,
    SvmConfig,
    average_embedding,
    predict_svm,
    read_svm,
    svm_objective,
    train_linear_svm,
    write_svm,
)
from folkmotif.sgns import Embeddings
from folkmotif.vocab import Vocabulary


def _embeddings():
    vocab = Vocabulary(tokens=["a", "b"], counts=np.array([2, 1]))
    matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
    return Embeddings(vocab=vocab, input_vectors=matrix, output_vectors=np.zeros_like(matrix))


def test_average_of_two_tokens():
    np.testing.assert_allclose(average_embedding(["a", "b"], _embeddings()), [0.5, 0.5])


def test_average_counts_duplicates():
    np.testing.assert_allclose(average_embedding(["a", "a"], _embeddings()), [1.0, 0.0])


def test_average_skips_oov():
    np.testing.assert_allclose(average_embedding(["a", "zzz"], _embeddings()), [1.0, 0.0])


def test_all_oov_is_error():
    with pytest.raises(ValueError, match="no in-vocabulary token"):
        average_embedding(["x", "y"], _embeddings())


@given(st.permutations(["a", "b", "a", "b", "b"]))
def test_average_is_order_invariant(tokens):
    np.testing.assert_allclose(
        average_embedding(tokens, _embeddings()), average_embedding(sorted(tokens), _embeddings())
    )


def test_hinge_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 4))
    y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
    w = rng.normal(scale=0.3, size=4)
    b = 0.17
    _, grad_w, grad_b = svm_objective(w, b, X, y, lam=0.01)
    num_w = central_difference(lambda v: svm_objective(v, b, X, y, 0.01)[0], w)
    assert_gradients_close(grad_w, num_w, what="d objective / d weights")
    num_b = central_difference(
        lambda v: svm_objective(w, float(v[0]), X, y, 0.01)[0], np.array([b])
    )
    assert_gradients_close(np.array([grad_b]), num_b, what="d objective / d bias")


def test_pegasos_separates_one_dimensional_data():
    X = np.array([[-1.0], [1.0]])
    labels = [0, 1]
    model = train_linear_svm(X, labels, config=SvmConfig(lam=0.01, epochs=100, seed=0))
    assert predict_svm(model, X[0]) == 0
    assert predict_svm(model, X[1]) == 1


def test_duplicating_points_leaves_predictions_unchanged():
    rng = np.random.default_rng(1)
    X = np.concatenate([rng.normal(-2.0, 0.3, (10, 2)), rng.normal(2.0, 0.3, (10, 2))])
    labels = [0] * 10 + [1] * 10
    base = train_linear_svm(X, labels, config=SvmConfig(seed=3))
    doubled = train_linear_svm(
        np.concatenate([X, X]), list(labels) + list(labels), config=SvmConfig(seed=3)
    )
    assert [predict_svm(base, x) for x in X] == [predict_svm(doubled, x) for x in X]


def test_heavy_regularization_shrinks_weights():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20, 3))
    labels = (rng.random(20) < 0.5).astype(int)
    model = train_linear_svm(X, labels, config=SvmConfig(lam=1e6, epochs=50, seed=0))
    assert np.linalg.norm(model.weights) < 1e-2


def test_single_class_is_error():
    with pytest.raises(ValueError, match="single class"):
        train_linear_svm(np.ones((3, 2)), [1, 1, 1])


def test_predict_by_sign():
    model = LinearSvmModel(
        weights=np.array([[1.0, 0.0], [-1.0, 0.0]]), biases=np.zeros(2), lam=0.01
    )
    assert predict_svm(model, np.array([2.0, 0.0])) == 0


def test_tie_goes_to_lowest_class_index():
    model = LinearSvmModel(
        weights=np.array([[1.0, 0.0], [-1.0, 0.0]]), biases=np.zeros(2), lam=0.01
    )
    assert predict_svm(model, np.array([0.0, 0.0])) == 0


@given(st.floats(min_value=0.01, max_value=100.0))
def test_prediction_invariant_under_joint_rescaling(scale):
    rng = np.random.default_rng(4)
    weights = rng.normal(size=(3, 4))
    biases = rng.normal(size=3)
    x = rng.normal(size=4)
    base = predict_svm(LinearSvmModel(weights, biases, 0.01), x)
    scaled = predict_svm(LinearSvmModel(scale * weights, scale * biases, 0.01), x)
    assert base == scaled


def test_dimension_mismatch_is_error():
    model = LinearSvmModel(weights=np.ones((2, 3)), biases=np.zeros(2), lam=0.01)
    with pytest.raises(ValueError, match="dim"):
        predict_svm(model, np.ones(4))


def test_training_is_deterministic():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    labels = (rng.random(30) < 0.5).astype(int)
    a = train_linear_svm(X, labels, config=SvmConfig(seed=9))
    b = train_linear_svm(X, labels, config=SvmConfig(seed=9))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)


def test_svm_file_round_trip():
    rng = np.random.default_rng(6)
    model = LinearSvmModel(weights=rng.normal(size=(2, 3)), biases=rng.normal(size=2), lam=0.01)
    restored, names = read_svm(write_svm(model, ["german", "chinese"]))
    assert names == ["german", "chinese"]
    assert np.array_equal(restored.weights, model.weights)
    assert np.array_equal(restored.biases, model.biases)
    assert restored.lam == model.lam
