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
from folkmotif.sgns import Embeddings, read_embeddings
from folkmotif.tokens import TokenizedSong
from folkmotif.vocab import Vocabulary


def _embeddings():
    vocab = Vocabulary(tokens=["a", "b"], counts=np.array([2, 1]))
    matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
    return Embeddings(vocab=vocab, input_vectors=matrix, output_vectors=np.zeros_like(matrix))


def _song(*tokens):
    return TokenizedSong(id="s", label="x", tokens=tokens)


def test_average_of_two_tokens():
    np.testing.assert_allclose(average_embedding(_song("a", "b"), _embeddings()), [0.5, 0.5])


def test_average_counts_duplicates():
    np.testing.assert_allclose(average_embedding(_song("a", "a"), _embeddings()), [1.0, 0.0])


def test_average_skips_oov():
    np.testing.assert_allclose(average_embedding(_song("a", "zzz"), _embeddings()), [1.0, 0.0])


def test_all_oov_is_error():
    with pytest.raises(ValueError, match="^song 's' has no in-vocabulary motif$"):
        average_embedding(_song("x", "y"), _embeddings())


@given(st.permutations(["a", "b", "a", "b", "b"]))
def test_average_is_order_invariant(tokens):
    np.testing.assert_allclose(
        average_embedding(_song(*tokens), _embeddings()),
        average_embedding(_song(*sorted(tokens)), _embeddings()),
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


def test_svm_separates_one_dimensional_data():
    X = np.array([[-1.0], [1.0]])
    labels = [0, 1]
    model = train_linear_svm(X, labels, config=SvmConfig(lam=0.01, epochs=100))
    assert predict_svm(model, X[0]) == 0
    assert predict_svm(model, X[1]) == 1


def test_duplicating_points_leaves_predictions_unchanged():
    """The mean loss over every point twice is the mean loss over each once,
    so the optimum does not move."""
    rng = np.random.default_rng(1)
    X = np.concatenate([rng.normal(-2.0, 0.3, (10, 2)), rng.normal(2.0, 0.3, (10, 2))])
    labels = [0] * 10 + [1] * 10
    base = train_linear_svm(X, labels)
    doubled = train_linear_svm(np.concatenate([X, X]), list(labels) + list(labels))
    np.testing.assert_allclose(doubled.weights, base.weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(doubled.biases, base.biases, rtol=0, atol=1e-12)
    assert [predict_svm(base, x) for x in X] == [predict_svm(doubled, x) for x in X]


def test_heavy_regularization_shrinks_weights():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20, 3))
    labels = (rng.random(20) < 0.5).astype(int)
    model = train_linear_svm(X, labels, config=SvmConfig(lam=1e6, epochs=50))
    assert np.linalg.norm(model.weights) < 1e-2


def _random_problem(seed, n_classes):
    """A unit-scale problem: overlapping Gaussian classes around random centers."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(6, 60)), int(rng.integers(1, 10))
    labels = np.arange(n) % n_classes
    X = rng.normal(size=(n, d)) + rng.normal(size=(n_classes, d))[labels]
    return X, labels


@pytest.mark.parametrize("lam", [1e-3, 1e-2, 1.0])
@pytest.mark.parametrize("n_classes", [2, 3])
def test_the_fit_is_a_stationary_point(lam, n_classes):
    for seed in range(20):
        X, labels = _random_problem(seed, n_classes)
        model = train_linear_svm(X, labels, config=SvmConfig(lam=lam))
        for c in range(n_classes):
            y = np.where(labels == c, 1.0, -1.0)
            _, grad_w, grad_b = svm_objective(model.weights[c], model.biases[c], X, y, lam)
            assert np.sqrt(grad_w @ grad_w + grad_b**2) < 1e-8, (seed, c)


def _brute_force_svm(X, y, lam):
    """Try every active set: minimise its quadratic in closed form, keep the
    solutions whose own active set it is, and return the lowest objective."""
    n, d = X.shape
    Xb = np.column_stack([X, np.ones(n)])
    ridge = np.diag(np.append(np.full(d, lam), 0.0))
    best = None
    for mask in range(1, 2**n):
        active = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        Xa = Xb[active]
        z = np.linalg.solve(ridge + (2.0 / n) * Xa.T @ Xa, (2.0 / n) * Xa.T @ y[active])
        margins = y * (Xb @ z)
        if np.all(margins[active] < 1.0 + 1e-9) and np.all(margins[~active] >= 1.0 - 1e-9):
            value = svm_objective(z[:d], z[d], X, y, lam)[0]
            if best is None or value < best[0]:
                best = (value, z)
    return best[1][:d], best[1][d]


@pytest.mark.parametrize("seed", range(12))
def test_the_fit_matches_a_brute_force_solve(seed):
    rng = np.random.default_rng(100 + seed)
    n, d = int(rng.integers(3, 9)), int(rng.integers(1, 4))
    X = rng.normal(size=(n, d)) * 2.0
    labels = np.arange(n) % 2
    X[labels == 1] += 1.5
    lam = [1e-3, 1e-2, 1e-1][seed % 3]
    model = train_linear_svm(X, labels, config=SvmConfig(lam=lam))
    w, b = _brute_force_svm(X, np.where(labels == 0, 1.0, -1.0), lam)
    np.testing.assert_allclose(model.weights[0], w, rtol=0, atol=1e-10)
    assert abs(model.biases[0] - b) < 1e-10


def test_two_classes_give_rows_of_opposite_sign():
    X, labels = _random_problem(3, 2)
    model = train_linear_svm(X, labels)
    assert np.array_equal(model.weights[1], -model.weights[0])
    assert model.biases[1] == -model.biases[0]


def test_a_fit_that_needs_more_newton_steps_than_epochs_is_refused():
    """The first step solves ridge regression on +-1 targets, which carries
    the outer points past the margin, so one step cannot be the optimum."""
    X = np.array([[-3.0], [-1.0], [1.0], [3.0]])
    labels = [0, 0, 1, 1]
    train_linear_svm(X, labels, config=SvmConfig(lam=1e-3, epochs=10))
    with pytest.raises(ValueError, match=r"^the SVM did not converge within svm\.epochs = 1 "):
        train_linear_svm(X, labels, config=SvmConfig(lam=1e-3, epochs=1))


def test_a_class_with_no_training_vector_is_refused():
    with pytest.raises(ValueError, match="^class 1 has no training vector$"):
        train_linear_svm(np.eye(4), [0, 2, 0, 2], n_classes=3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_training_vector_that_is_not_finite_is_refused(bad):
    X = np.array([[1.0, 0.0], [bad, 1.0], [0.0, -1.0], [2.0, bad]])
    with pytest.raises(ValueError, match="^training vector 1 is not finite$"):
        train_linear_svm(X, [0, 1, 1, 0])


def test_single_class_is_error():
    with pytest.raises(ValueError, match="single class"):
        train_linear_svm(np.ones((3, 2)), [1, 1, 1])


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
def test_config_rejects_a_lam_that_is_not_positive_and_finite(lam):
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        SvmConfig(lam=lam)


@pytest.mark.parametrize("labels,n_classes,bad", [([0, 1, 2, 1], 2, 2), ([0, 1, -1, 1], None, -1)])
def test_label_outside_the_classes_is_error(labels, n_classes, bad):
    with pytest.raises(ValueError, match=rf"^label {bad} is outside \[0, 2\)$"):
        train_linear_svm(np.eye(4), labels, n_classes=n_classes)


def test_predict_svm_breaks_ties_toward_the_lower_class():
    model = LinearSvmModel(weights=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
                           biases=np.zeros(3))
    assert predict_svm(model, np.array([1.0, 0.0])) == 1  # scores 0, 1, 1
    assert predict_svm(model, np.array([0.0, 1.0])) == 0  # scores 0, 0, 0
    assert predict_svm(model, np.array([-1.0, 0.0])) == 0  # scores 0, -1, -1
    assert type(predict_svm(model, np.array([1.0, 0.0]))) is int


def test_predict_by_sign():
    model = LinearSvmModel(weights=np.array([[1.0, 0.0], [-1.0, 0.0]]), biases=np.zeros(2))
    assert predict_svm(model, np.array([2.0, 0.0])) == 0


def test_tie_goes_to_lowest_class_index():
    model = LinearSvmModel(weights=np.array([[1.0, 0.0], [-1.0, 0.0]]), biases=np.zeros(2))
    assert predict_svm(model, np.array([0.0, 0.0])) == 0


@given(st.floats(min_value=0.01, max_value=100.0))
def test_prediction_invariant_under_joint_rescaling(scale):
    rng = np.random.default_rng(4)
    weights = rng.normal(size=(3, 4))
    biases = rng.normal(size=3)
    x = rng.normal(size=4)
    base = predict_svm(LinearSvmModel(weights, biases), x)
    scaled = predict_svm(LinearSvmModel(scale * weights, scale * biases), x)
    assert base == scaled


def test_dimension_mismatch_is_error():
    model = LinearSvmModel(weights=np.ones((2, 3)), biases=np.zeros(2))
    with pytest.raises(ValueError, match="dim"):
        predict_svm(model, np.ones(4))


def test_training_is_deterministic():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    labels = (rng.random(30) < 0.5).astype(int)
    a = train_linear_svm(X, labels)
    b = train_linear_svm(X, labels)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)


def test_svm_file_round_trip():
    rng = np.random.default_rng(6)
    model = LinearSvmModel(weights=rng.normal(size=(2, 3)), biases=rng.normal(size=2))
    text = write_svm(model, ["german", "chinese"])
    restored, names = read_svm(text)
    assert names == ["german", "chinese"]
    assert np.array_equal(restored.weights, model.weights)
    assert np.array_equal(restored.biases, model.biases)
    # The embeddings text format: one row per class, with the bias as column 0.
    rows, matrix = read_embeddings(text)
    assert rows == ["german", "chinese"]
    assert matrix.shape == (2, 4)
    assert np.array_equal(matrix[:, 0], model.biases)
    old_header = "svm 2 3 0.01\n" + text.split("\n", 1)[1]
    with pytest.raises(ValueError, match="bad header"):
        read_svm(old_header)


def test_svm_file_refuses_a_repeated_class():
    model = LinearSvmModel(weights=np.zeros((2, 3)), biases=np.zeros(2))
    with pytest.raises(ValueError, match="^line 3: duplicate token 'x'$"):
        read_svm(write_svm(model, ["x", "x"]))
