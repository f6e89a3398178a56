"""Baseline classifiers: averaged song vectors and a Pegasos-trained linear SVM.

The SVM minimizes, per one-vs-rest class,

    lambda/2 ||w||^2 + mean_i max(0, 1 - y_i (w . x_i + b))

by Pegasos SGD (step size 1/(lambda * t), unregularized bias). Multi-class
prediction takes the maximum margin score, ties to the lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .sgns import Embeddings


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
    seed: int = 0

    def __post_init__(self):
        if self.lam <= 0 or self.epochs < 1:
            raise ValueError("lam must be positive and epochs at least 1")


@dataclass
class LinearSvmModel:
    weights: np.ndarray  # L x d, one row per class
    biases: np.ndarray  # L
    lam: float

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
    w = np.zeros(d)
    b = 0.0
    radius = 1.0 / np.sqrt(config.lam)
    total = config.epochs * n
    tail_start = total // 2
    w_sum = np.zeros(d)
    b_sum = 0.0
    tail = 0
    t = 0
    for _ in range(config.epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (config.lam * t)
            margin = y[i] * (X[i] @ w + b)
            w *= 1.0 - eta * config.lam
            if margin < 1.0:
                w += eta * y[i] * X[i]
                b += eta * y[i]
            norm = np.linalg.norm(w)
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
) -> LinearSvmModel:
    """One-vs-rest Pegasos; deterministic under the config seed."""
    config = config or SvmConfig()
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(X) != len(labels):
        raise ValueError("vectors and labels must align")
    present = np.unique(labels)
    if len(present) < 2:
        raise ValueError("training data contains a single class")
    L = n_classes if n_classes is not None else int(labels.max()) + 1
    weights = np.zeros((L, X.shape[1]))
    biases = np.zeros(L)
    for c in range(L):
        y = np.where(labels == c, 1.0, -1.0)
        rng = np.random.default_rng([config.seed, c])
        weights[c], biases[c] = _pegasos_binary(X, y, config, rng)
    return LinearSvmModel(weights=weights, biases=biases, lam=config.lam)


def predict_svm(model: LinearSvmModel, x: np.ndarray) -> int:
    """Argmax margin score; np.argmax already breaks ties toward lower index."""
    return int(np.argmax(model.scores(x)))


def write_svm(model: LinearSvmModel, class_names: Sequence[str]) -> str:
    """Text form: header with lambda, then per class "name bias weights...";
    floats are repr-formatted so the round trip is exact."""
    if len(class_names) != len(model.weights):
        raise ValueError("class name count must match weight rows")
    lines = [f"svm {len(class_names)} {model.weights.shape[1]} {repr(float(model.lam))}"]
    for name, w, b in zip(class_names, model.weights, model.biases):
        lines.append(name + " " + repr(float(b)) + " " + " ".join(repr(float(v)) for v in w))
    return "\n".join(lines) + "\n"


def read_svm(text: str) -> tuple[LinearSvmModel, list[str]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("svm "):
        raise ValueError("not an svm model file")
    _, L, d, lam = lines[0].split()
    L, d = int(L), int(d)
    if len(lines) != L + 1:
        raise ValueError(f"expected {L} class rows, found {len(lines) - 1}")
    names = []
    weights = np.empty((L, d))
    biases = np.empty(L)
    for i, line in enumerate(lines[1:]):
        fields = line.split(" ")
        if len(fields) != d + 2:
            raise ValueError(f"class row {i} must have a name, bias, and {d} weights")
        names.append(fields[0])
        biases[i] = float(fields[1])
        weights[i] = [float(v) for v in fields[2:]]
    return LinearSvmModel(weights=weights, biases=biases, lam=float(lam)), names
