"""Skip-gram with negative sampling, plus the PV-DBOW document-vector variant.

Training ascends, per (target, context) pair,

    log sigma(v_c . v_w) + sum_{i=1..k} log sigma(-v_{c'_i} . v_w)

with negatives drawn from the count^0.75 unigram distribution. The input
matrix holds the queried vectors v_w; the output matrix holds context
vectors v_c. PV-DBOW reuses the same objective with a per-song document
vector standing in for v_w.

Training takes one simultaneous SGD step per center, in corpus order: its n
context pairs, with k negatives each drawn in one call of n*k samples, are
scored as one block of n*(k+1) rows. PV-DBOW has one pair per center, so its
vectors equal those of per-pair SGD, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .tokens import TokenizedSong
from .vocab import SamplingDist, Vocabulary, negative_sampling_dist


class TrainingDiverged(RuntimeError):
    """Raised when an objective goes non-finite (learning rate too high)."""


@dataclass
class SkipgramConfig:
    dim: int = 150
    window: int = 4
    negatives: int = 5
    epochs: int = 5
    lr: float = 0.025
    lr_min: float = 0.0001
    power: float = 0.75
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.window < 1 or self.negatives < 1 or self.epochs < 1:
            raise ValueError("dim, window, negatives, and epochs must be positive")
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0 <= self.lr_min <= self.lr:
            raise ValueError(f"lr_min must be in [0, lr={self.lr}], got {self.lr_min}")


@dataclass
class Embeddings:
    vocab: Vocabulary
    input_vectors: np.ndarray  # V x d, the representation used for queries
    output_vectors: np.ndarray  # V x d, context matrix
    epoch_objectives: list[float] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.input_vectors.shape[1]

    def vector(self, token: str) -> np.ndarray:
        return self.input_vectors[self._index(token)]

    def _index(self, token: str) -> int:
        if token not in self.vocab:
            hints = _nearby_tokens(token, self.vocab.tokens)
            hint = f"; did you mean {', '.join(hints)}?" if hints else ""
            raise KeyError(f"unknown token {token!r}{hint}")
        return self.vocab.index[token]


@dataclass
class DocVectors:
    ids: list[str]
    vectors: np.ndarray  # one row per song
    epoch_objectives: list[float] = field(default_factory=list)

    def vector(self, song_id: str) -> np.ndarray:
        try:
            return self.vectors[self.ids.index(song_id)]
        except ValueError:
            raise KeyError(f"unknown song id {song_id!r}") from None


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -x))


def pair_objective(
    w: np.ndarray, ctx: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Negative SGNS objective for one target vector against rows of ctx.

    labels holds 1 for the positive context and 0 for negatives. Returns
    (loss, d loss/d w, d loss/d ctx); minimizing this loss ascends the
    objective. Scores that overflow give a non-finite loss; callers that
    expect that wrap the call in ``np.errstate``.
    """
    scores = ctx @ w
    # -log sigmoid(+-score) is logaddexp(0, -+score); the label flips the sign.
    loss = float(np.logaddexp(0.0, (1.0 - 2.0 * labels) * scores).sum())
    g = _sigmoid(scores) - labels
    return loss, g @ ctx, g[:, None] * w


def _encode_corpus(
    songs: Iterable[TokenizedSong], vocab: Vocabulary
) -> tuple[list[str], list[np.ndarray]]:
    """The ids and token indices of the songs with any in-vocabulary token."""
    ids, encoded = [], []
    for song in songs:
        idx = vocab.encode(song.tokens)
        if idx:
            ids.append(song.id)
            encoded.append(np.asarray(idx, dtype=np.int64))
    if not encoded:
        raise ValueError("no song has any in-vocabulary token")
    return ids, encoded


def _train_pass(
    sequences: Sequence[np.ndarray],
    target_rows: Sequence[int] | None,
    input_vectors: np.ndarray,
    output_vectors: np.ndarray,
    dist: SamplingDist,
    config: SkipgramConfig,
    rng: np.random.Generator,
    epoch: int,
) -> float:
    """One epoch of SGD: one step per center, over all of its context pairs.

    ``target_rows`` selects the input row per sequence (PV-DBOW document
    mode); when None the targets are the tokens themselves (skip-gram).
    The learning rate decays linearly over the centers of all epochs.
    Returns the total pair loss; raises TrainingDiverged on non-finite loss.
    """
    k = config.negatives
    d = output_vectors.shape[1]
    labels = np.zeros(2 * config.window * (k + 1))
    labels[:: k + 1] = 1.0
    flat_output = output_vectors.reshape(-1)
    columns = np.arange(d)
    centers = sum(len(seq) for seq in sequences)
    step, steps = epoch * centers, config.epochs * centers
    total = 0.0
    # Divergence shows up as overflowing scores; that is detected via the
    # finiteness of the loss, so the overflow itself is not worth a warning.
    with np.errstate(over="ignore", invalid="ignore"):
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
                n = len(contexts)
                idx = np.empty((n, k + 1), dtype=np.int64)
                idx[:, 0] = contexts
                idx[:, 1:] = dist.draw(rng, n * k).reshape(n, k)
                ix = idx.ravel()
                w = input_vectors[row]
                loss, grad_w, grad_ctx = pair_objective(w, output_vectors[ix], labels[: len(ix)])
                total += loss
                grad_ctx *= -lr
                # The flat form of np.add.at(output_vectors, ix, grad_ctx): a
                # repeated row takes each of its updates in turn.
                np.add.at(flat_output, (ix[:, None] * d + columns).ravel(), grad_ctx.ravel())
                w -= lr * grad_w
    if not np.isfinite(total):
        raise TrainingDiverged(
            f"non-finite training objective {total}; lower the learning rate ({config.lr})"
        )
    return total


def _run_epochs(
    sequences: list[np.ndarray],
    target_rows: Optional[list[int]],
    input_vectors: np.ndarray,
    output_vectors: np.ndarray,
    dist: SamplingDist,
    config: SkipgramConfig,
) -> list[float]:
    centers = sum(len(s) for s in sequences)
    rng = np.random.default_rng(config.seed)
    objectives = []
    for epoch in range(config.epochs):
        total = _train_pass(
            sequences, target_rows, input_vectors, output_vectors, dist, config, rng, epoch
        )
        objectives.append(-total / centers)
    return objectives


def train_skipgram(
    songs: Sequence[TokenizedSong], vocab: Vocabulary, config: Optional[SkipgramConfig] = None
) -> Embeddings:
    """Learn token embeddings; bit-reproducible under the config seed."""
    config = config or SkipgramConfig()
    _, sequences = _encode_corpus(songs, vocab)
    rng = np.random.default_rng(config.seed)
    V, d = len(vocab), config.dim
    input_vectors = (rng.random((V, d)) - 0.5) / d
    output_vectors = np.zeros((V, d))
    dist = negative_sampling_dist(vocab, config.power)
    objectives = _run_epochs(sequences, None, input_vectors, output_vectors, dist, config)
    return Embeddings(
        vocab=vocab,
        input_vectors=input_vectors,
        output_vectors=output_vectors,
        epoch_objectives=objectives,
    )


def train_pvdbow(
    songs: Sequence[TokenizedSong], vocab: Vocabulary, config: Optional[SkipgramConfig] = None
) -> DocVectors:
    """Learn one vector per song that predicts the song's tokens (PV-DBOW)."""
    config = config or SkipgramConfig()
    ids, sequences = _encode_corpus(songs, vocab)
    rng = np.random.default_rng(config.seed)
    d = config.dim
    doc_vectors = (rng.random((len(ids), d)) - 0.5) / d
    output_vectors = np.zeros((len(vocab), d))
    dist = negative_sampling_dist(vocab, config.power)
    target_rows = list(range(len(ids)))
    objectives = _run_epochs(sequences, target_rows, doc_vectors, output_vectors, dist, config)
    return DocVectors(ids=ids, vectors=doc_vectors, epoch_objectives=objectives)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    return float(np.dot(a, b) / (na * nb))


def most_similar(embeddings: Embeddings, token: str, k: int = 10) -> list[tuple[str, float]]:
    """Top-k input-matrix neighbors by cosine, excluding the query itself."""
    if k < 1:
        raise ValueError("k must be positive")
    qi = embeddings._index(token)
    M = embeddings.input_vectors
    norms = np.linalg.norm(M, axis=1)
    q = M[qi]
    qn = norms[qi]
    if qn == 0.0:
        raise ValueError(f"token {token!r} has a zero vector")
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(norms > 0.0, (M @ q) / (norms * qn), -np.inf)
    sims[qi] = -np.inf
    order = np.argsort(-sims, kind="stable")[: min(k, len(sims) - 1)]
    return [(embeddings.vocab.tokens[i], float(sims[i])) for i in order]


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _nearby_tokens(token: str, candidates: Sequence[str], limit: int = 5) -> list[str]:
    scored = [
        (dist, c)
        for c in candidates
        if abs(len(c) - len(token)) <= 2 and (dist := _edit_distance(token, c)) <= 2
    ]
    return [repr(c) for _, c in sorted(scored)[:limit]]


def write_embeddings(tokens: Sequence[str], matrix: np.ndarray) -> str:
    """Text format: header "V d", then one token and d floats per line."""
    V, d = matrix.shape
    if len(tokens) != V:
        raise ValueError("token count must match matrix rows")
    lines = [f"{V} {d}"]
    for tok, row in zip(tokens, matrix):
        lines.append(tok + " " + " ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def read_embeddings(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty embedding file")
    try:
        V, d = (int(x) for x in lines[0].split())
    except ValueError as exc:
        raise ValueError(f'bad header {lines[0]!r}; expected "V d"') from exc
    tokens = []
    matrix = np.empty((V, d))
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != V:
        raise ValueError(f"expected {V} rows, found {len(body)}")
    for i, line in enumerate(body):
        fields = line.split(" ")
        if len(fields) != d + 1:
            raise ValueError(f"line {i + 2}: expected token and {d} floats")
        tokens.append(fields[0])
        matrix[i] = [float(x) for x in fields[1:]]
    return tokens, matrix
