"""Baseline classifiers: averaged song vectors and an exact linear SVM.

Per one-vs-rest class the SVM minimizes liblinear's L2-loss objective (Fan et
al. 2008) with an unregularized bias,

    lambda/2 ||w||^2 + mean_i max(0, 1 - y_i (w . x_i + b))^2,

exactly, by finite Newton (Keerthi & DeCoste 2005); it draws no random number.
Multi-class prediction takes the maximum margin score, ties to the lowest class index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .sgns import Embeddings, read_embeddings, write_embeddings
from .tokens import TokenizedSong


def average_embedding(song: TokenizedSong, embeddings: Embeddings) -> np.ndarray:
    """Unweighted mean of the input-matrix rows of the song's in-vocabulary motifs."""
    return embeddings.input_vectors[embeddings.vocab.song_motifs(song)].mean(axis=0)


@dataclass
class SvmConfig:
    lam: float = 0.01
    epochs: int = 200  # most Newton steps; a fit that needs more is refused

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
    """Binary squared-hinge objective and its gradient; y holds +1/-1.

    The objective is differentiable everywhere, so the gradient is exact.
    """
    slack = np.maximum(0.0, 1.0 - y * (X @ w + b))
    value = 0.5 * lam * float(w @ w) + float(slack @ slack) / len(y)
    coef = (-2.0 / len(y)) * slack * y
    return value, lam * w + coef @ X, float(coef.sum())


def _newton_binary(X: np.ndarray, y: np.ndarray, config: SvmConfig) -> tuple[np.ndarray, float]:
    """The exact minimiser of svm_objective by finite Newton.

    Over the points with margin < 1 (the active set) the objective is
    quadratic. Each step solves its Hessian system, which has curvature in the
    bias because with both classes present the active set is never empty, and
    backtracks to the Armijo condition. A full step that leaves the active set
    unchanged lands on the minimum of its quadratic, the exact optimum.
    """
    n, d = X.shape
    lam = config.lam
    w, b = np.zeros(d), 0.0
    active = y * (X @ w + b) < 1.0
    value, grad_w, grad_b = svm_objective(w, b, X, y, lam)
    for _ in range(config.epochs):
        Xa = np.column_stack([X[active], np.ones(int(active.sum()))])
        hessian = (2.0 / n) * (Xa.T @ Xa)
        hessian[np.arange(d), np.arange(d)] += lam
        grad = np.append(grad_w, grad_b)
        step = np.linalg.solve(hessian, -grad)
        slope = float(step @ grad)
        t = 1.0
        while True:
            w_t, b_t = w + t * step[:d], b + t * step[d]
            active_t = y * (X @ w_t + b_t) < 1.0
            if t == 1.0 and np.array_equal(active_t, active):
                return w_t, b_t
            value_t, grad_w, grad_b = svm_objective(w_t, b_t, X, y, lam)
            if not value_t > value + 1e-4 * t * slope:
                break
            t *= 0.5
        w, b, active, value = w_t, b_t, active_t, value_t
    raise ValueError(
        f"the SVM did not converge within svm.epochs = {config.epochs} Newton steps"
    )


def train_linear_svm(
    X: np.ndarray,
    labels: Sequence[int],
    n_classes: Optional[int] = None,
    config: Optional[SvmConfig] = None,
) -> LinearSvmModel:
    """One-vs-rest exact squared-hinge SVM; draws no random number."""
    config = config or SvmConfig()
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(X) != len(labels):
        raise ValueError("vectors and labels must align")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if len(bad):
        raise ValueError(f"training vector {int(bad[0])} is not finite")
    present = np.unique(labels)
    if len(present) < 2:
        raise ValueError("training data contains a single class")
    L = n_classes if n_classes is not None else int(labels.max()) + 1
    outside = labels[(labels < 0) | (labels >= L)]
    if len(outside):
        raise ValueError(f"label {int(outside[0])} is outside [0, {L})")
    # A class with no point has no unique optimum (w = 0, any b <= -1), and
    # rounding on its all-margin points keeps changing the active set.
    missing = np.setdiff1d(np.arange(L), present)
    if len(missing):
        raise ValueError(f"class {int(missing[0])} has no training vector")
    weights = np.zeros((L, X.shape[1]))
    biases = np.zeros(L)
    # Two classes pose one problem with y negated, so class 1 is class 0 negated.
    for c in range(1 if L == 2 else L):
        y = np.where(labels == c, 1.0, -1.0)
        weights[c], biases[c] = _newton_binary(X, y, config)
    if L == 2:
        weights[1], biases[1] = -weights[0], -biases[0]
    return LinearSvmModel(weights=weights, biases=biases)


def predict_svm(model: LinearSvmModel, x: np.ndarray) -> int:
    """Argmax margin score; ``ndarray.argmax`` breaks ties toward the lower index."""
    return int(model.scores(x).argmax())


def write_svm(model: LinearSvmModel, class_names: Sequence[str]) -> str:
    """The embeddings text format with one row per class: its name, its bias,
    then its weights."""
    return write_embeddings(class_names, np.column_stack([model.biases, model.weights]))


def read_svm(text: str) -> tuple[LinearSvmModel, list[str]]:
    names, matrix = read_embeddings(text)
    return LinearSvmModel(weights=matrix[:, 1:], biases=matrix[:, 0]), names
