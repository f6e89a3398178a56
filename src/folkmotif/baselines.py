"""Baseline classifiers: averaged song vectors and a Pegasos-trained linear SVM.

The SVM minimizes, per one-vs-rest class,

    lambda/2 ||w||^2 + mean_i max(0, 1 - y_i (w . x_i + b))

by Pegasos SGD (step size 1/(lambda * t), unregularized bias). Multi-class
prediction takes the maximum margin score, ties to the lowest class index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .seeds import stream
from .sgns import Embeddings, read_embeddings, write_embeddings


def average_embedding(tokens: Sequence[str], embeddings: Embeddings) -> np.ndarray:
    """Unweighted mean of the input-matrix rows of the in-vocabulary tokens."""
    rows = embeddings.vocab.encode(tokens)
    if not rows:
        raise ValueError("no in-vocabulary token to average")
    return embeddings.input_vectors[rows].mean(axis=0)


@dataclass
class SvmConfig:
    lam: float = 0.01
    epochs: int = 200

    def __post_init__(self):
        # Written so that nan fails too; an infinite lam gives nan weights.
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")


@dataclass
class LinearSvmModel:
    weights: np.ndarray  # L x d, one row per class
    biases: np.ndarray  # L

    def scores(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.weights.shape[1]:
            raise ValueError(
                f"expected vectors of dim {self.weights.shape[1]}, got {x.shape[-1]}"
            )
        return x @ self.weights.T + self.biases


def svm_objective(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, lam: float
) -> tuple[float, np.ndarray, float]:
    """Binary hinge objective and its (sub)gradient.

    y holds +1/-1. At points where no margin equals exactly 1 the objective
    is differentiable and the returned gradient is the gradient.
    """
    margins = y * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    value = 0.5 * lam * float(w @ w) + float(hinge.mean())
    active = (margins < 1.0).astype(np.float64)
    grad_w = lam * w - (active * y) @ X / len(y)
    grad_b = -float((active * y).mean())
    return value, grad_w, grad_b


def _pegasos_binary(
    X: np.ndarray, y: np.ndarray, config: SvmConfig, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Pegasos with the projection step and tail-averaged iterates.

    The step size 1/(lam*t) is huge for small t; projecting w onto the
    1/sqrt(lam) ball and averaging the second half of the trajectory gives
    the stability the plain last iterate lacks.
    """
    n, d = X.shape
    # Python floats and a list of row views step without numpy scalar
    # overhead; each operation is the one numpy scalars would do, in the same
    # order, and np.linalg.norm of a 1-D float array is sqrt(w.dot(w)).
    rows = list(X)
    ys = y.tolist()
    lam = config.lam
    w = np.zeros(d)
    b = 0.0
    radius = 1.0 / math.sqrt(lam)
    total = config.epochs * n
    tail_start = total // 2
    w_sum = np.zeros(d)
    b_sum = 0.0
    tail = 0
    t = 0
    for _ in range(config.epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            yi = ys[i]
            margin = yi * (float(rows[i].dot(w)) + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * yi * rows[i]
                b += eta * yi
            norm = math.sqrt(w.dot(w))
            if norm > radius:
                w *= radius / norm
            if t > tail_start:
                w_sum += w
                b_sum += b
                tail += 1
    return w_sum / tail, b_sum / tail


def train_linear_svm(
    X: np.ndarray,
    labels: Sequence[int],
    n_classes: Optional[int] = None,
    config: Optional[SvmConfig] = None,
    seed: int = 0,
) -> LinearSvmModel:
    """One-vs-rest Pegasos; deterministic under the seed. Class c draws its
    epoch orders from the seed's SVM stream for c."""
    config = config or SvmConfig()
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(X) != len(labels):
        raise ValueError("vectors and labels must align")
    present = np.unique(labels)
    if len(present) < 2:
        raise ValueError("training data contains a single class")
    L = n_classes if n_classes is not None else int(labels.max()) + 1
    outside = labels[(labels < 0) | (labels >= L)]
    if len(outside):
        raise ValueError(f"label {int(outside[0])} is outside [0, {L})")
    weights = np.zeros((L, X.shape[1]))
    biases = np.zeros(L)
    for c in range(L):
        y = np.where(labels == c, 1.0, -1.0)
        weights[c], biases[c] = _pegasos_binary(X, y, config, stream(seed, "svm", c))
    return LinearSvmModel(weights=weights, biases=biases)


def predict_svm(model: LinearSvmModel, x: np.ndarray) -> int:
    """Argmax margin score; np.argmax already breaks ties toward lower index."""
    return int(np.argmax(model.scores(x)))


def write_svm(model: LinearSvmModel, class_names: Sequence[str]) -> str:
    """The embeddings text format with one row per class: its name, its bias,
    then its weights."""
    return write_embeddings(class_names, np.column_stack([model.biases, model.weights]))


def read_svm(text: str) -> tuple[LinearSvmModel, list[str]]:
    names, matrix = read_embeddings(text)
    return LinearSvmModel(weights=matrix[:, 1:], biases=matrix[:, 0]), names
