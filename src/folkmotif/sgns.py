"""Skip-gram with negative sampling, plus the PV-DBOW document-vector variant.

Training ascends, per (target, context) pair,

    log sigma(v_c . v_w) + sum_{i=1..k} log sigma(-v_{c'_i} . v_w)

with negatives drawn from the count^0.75 unigram distribution. The input
matrix holds the queried vectors v_w; the output matrix holds context
vectors v_c. PV-DBOW is the same objective with a per-song document vector
standing in for v_w, so one trainer, ``_train``, serves both; only the
function that lays out a song's centers differs.

Each center takes one SGD step, in corpus order: its n context pairs, with
k negatives each, are scored as one block of n*(k+1) rows in one softplus
pass. With sign -1 on each positive row and +1 on the negatives, row i costs
t_i = softplus(sign_i * score_i), and c_i = sign_i * expm1(-t_i) is minus
the loss's derivative by the score. The center's learning rate scales the
n*(k+1) coefficients once; the context rows then take c (x) w, and w takes
c @ ctx. A song's learning rates come from one vectorised call.

A song draws all its numbers before its first step: skip-gram draws the
song's T windows in one call, then the negatives of all its pairs in one
call; PV-DBOW has one pair per center and draws the song's T*k negatives in
one call. The start vectors and the training draws come from two
independent streams of the seed (``seeds.stream``).

``cosine`` and ``most_similar`` share one unit-norm helper, so both hold at any finite scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .seeds import stream
from .tokens import TokenizedSong
from .vocab import Vocabulary, negative_sampling_dist


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


def pair_objective(w: np.ndarray, ctx: np.ndarray, signs: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative SGNS objective for one target vector against rows of ctx.

    signs holds -1 for the positive context and +1 for negatives, so row i
    costs t_i = softplus(signs_i * score_i), which is -log sigma(score_i) for
    the positive and -log sigma(-score_i) for a negative. Returns (loss, coef)
    with coef_i = signs_i * expm1(-t_i) = -d loss/d score_i, so d loss/d w is
    -coef @ ctx and d loss/d ctx is -coef (x) w; minimizing this loss ascends
    the objective. Scores that overflow give a non-finite loss; callers that
    expect that wrap the call in ``np.errstate``.
    """
    t = np.logaddexp(0.0, signs * ctx.dot(w))
    return float(t.sum()), signs * np.expm1(-t)


def _row_blocks(contexts: np.ndarray, negatives: np.ndarray) -> np.ndarray:
    """Output-matrix rows, flat: each context, then its row of negatives."""
    rows = np.empty((len(contexts), negatives.shape[1] + 1), dtype=np.int64)
    rows[:, 0] = contexts
    rows[:, 1:] = negatives
    return rows.reshape(-1)


def _skipgram_blocks(s, seq, dist, config, rng):
    """(inputs, rows, pairs) for the centers of a song: each center's input
    row, every center's block of output rows back to back, and each center's
    pair count.

    The song draws its T windows in one call, then all its negatives in one
    call. Center t's contexts are the tokens within its window, left to
    right; a window past either end of the song is cut there.
    """
    W = config.window
    windows = rng.integers(1, W + 1, size=len(seq))
    shifts = np.concatenate([np.arange(-W, 0), np.arange(1, W + 1)])
    positions = np.arange(len(seq))[:, None] + shifts
    inside = (np.abs(shifts) <= windows[:, None]) & (positions >= 0) & (positions < len(seq))
    contexts = seq[positions[inside]]
    negatives = dist.draw(rng, len(contexts) * config.negatives)
    rows = _row_blocks(contexts, negatives.reshape(-1, config.negatives))
    return seq.tolist(), rows, np.count_nonzero(inside, axis=1).tolist()


def _pvdbow_blocks(s, seq, dist, config, rng):
    """(inputs, rows, pairs) for the centers of song s, whose input row is s.

    A center's only pair is (s, its token). The song draws nothing but its
    T*k negatives, in one call.
    """
    negatives = dist.draw(rng, len(seq) * config.negatives)
    rows = _row_blocks(seq, negatives.reshape(-1, config.negatives))
    return [s] * len(seq), rows, [1] * len(seq)


def _learning_rates(config, step, count, steps):
    """The learning rates of steps step .. step + count - 1 of steps, as
    Python floats: lr decays linearly to 0 over all steps, floored at lr_min."""
    done = np.arange(step, step + count) / steps
    return np.maximum(config.lr_min, config.lr * (1.0 - done)).tolist()


def _train(sequences, n_inputs, blocks_of, vocab, config, init, rng):
    """SGNS from an n_inputs x d start drawn from init, one SGD step per
    center, with every negative drawn from rng.

    ``blocks_of`` lays out the centers of song s as (inputs, rows, pairs), as
    ``_skipgram_blocks`` does; a song with no motif draws nothing. A center
    with no pair takes an empty step, so the learning rate, which decays
    linearly over all epochs, still counts it. Returns the input and output
    matrices and each epoch's mean objective; raises TrainingDiverged if the
    objective or either matrix is non-finite at the end of an epoch.
    """
    centers = sum(len(seq) for seq in sequences)
    if not centers:
        raise ValueError("no song has an in-vocabulary motif")
    input_vectors = (init.random((n_inputs, config.dim)) - 0.5) / config.dim
    output_vectors = np.zeros((len(vocab), config.dim))
    dist = negative_sampling_dist(vocab)
    width = config.negatives + 1
    signs = np.ones(2 * config.window * width)
    signs[::width] = -1.0
    flat_output = output_vectors.reshape(-1)
    # Every output entry's flat index, gathered per block instead of computed:
    # V x d int64, about 6 MB at V = 5k and d = 150. The flat form of
    # np.add.at(output_vectors, rows, update) lets a repeated row take each
    # of its updates in turn.
    offsets = np.arange(len(vocab))[:, None] * config.dim + np.arange(config.dim)
    steps = config.epochs * centers
    objectives = []
    for epoch in range(config.epochs):
        step = epoch * centers
        total = 0.0
        # Divergence shows up as overflowing scores; that is detected via the
        # finiteness of the loss and the matrices, so the overflow itself is
        # not worth a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for s, seq in enumerate(sequences):
                if not len(seq):
                    continue
                inputs, rows, pairs = blocks_of(s, seq, dist, config, rng)
                rates = _learning_rates(config, step, len(seq), steps)
                step += len(seq)
                stop = 0
                for i, n, lr in zip(inputs, pairs, rates):
                    start, stop = stop, stop + n * width
                    block = rows[start:stop]
                    # take and dot, not [] and @: on blocks this small the
                    # operators' dispatch costs about as much as the work.
                    ctx = output_vectors.take(block, axis=0)
                    w = input_vectors[i]
                    loss, coef = pair_objective(w, ctx, signs[: stop - start])
                    total += loss
                    coef *= lr
                    update = np.dot(coef[:, None], w[None, :])
                    np.add.at(flat_output, offsets.take(block, axis=0).ravel(), update.ravel())
                    w += coef.dot(ctx)
        if not np.isfinite(total):
            raise TrainingDiverged(
                f"non-finite training objective {total}; lower the learning rate ({config.lr})"
            )
        # An epoch's last updates are never scored, so its objective can be
        # finite while the vectors it leaves are not.
        if not (np.isfinite(input_vectors).all() and np.isfinite(output_vectors).all()):
            raise TrainingDiverged(
                f"non-finite vectors after epoch {epoch + 1}; lower the learning rate ({config.lr})"
            )
        objectives.append(-total / centers)
    return input_vectors, output_vectors, objectives


def train_skipgram(
    songs: Sequence[TokenizedSong],
    vocab: Vocabulary,
    config: Optional[SkipgramConfig] = None,
    seed: int = 0,
) -> Embeddings:
    """Learn token embeddings; bit-reproducible under the seed."""
    config = config or SkipgramConfig()
    input_vectors, output_vectors, objectives = _train(
        [np.asarray(vocab.encode(song.tokens), dtype=np.int64) for song in songs],
        len(vocab),
        _skipgram_blocks,
        vocab,
        config,
        stream(seed, "skipgram_init"),
        stream(seed, "skipgram_train"),
    )
    return Embeddings(
        vocab=vocab,
        input_vectors=input_vectors,
        output_vectors=output_vectors,
        epoch_objectives=objectives,
    )


def train_pvdbow(
    songs: Sequence[TokenizedSong],
    vocab: Vocabulary,
    config: Optional[SkipgramConfig] = None,
    seed: int = 0,
) -> DocVectors:
    """PV-DBOW: one vector per song that predicts its tokens; bit-reproducible under the seed."""
    config = config or SkipgramConfig()
    ids = [song.id for song in songs]
    vectors, _, objectives = _train(
        [np.asarray(vocab.song_motifs(song), dtype=np.int64) for song in songs],
        len(ids),
        _pvdbow_blocks,
        vocab,
        config,
        stream(seed, "pvdbow_init"),
        stream(seed, "pvdbow_train"),
    )
    return DocVectors(ids=ids, vectors=vectors, epoch_objectives=objectives)


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Each row of matrix at unit norm, a zero row staying zero. A row is first
    scaled by the power of two that brings its largest magnitude into [0.5, 1),
    which is exact; its sum of squares then neither overflows nor goes subnormal."""
    _, exponents = np.frexp(np.max(np.abs(matrix), axis=1, keepdims=True))
    scaled = np.ldexp(matrix, -exponents)
    norms = np.linalg.norm(scaled, axis=1, keepdims=True)
    return np.divide(scaled, norms, out=np.zeros_like(scaled), where=norms > 0.0)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors at any finite scale; a zero vector is refused."""
    ua, ub = _unit_rows(np.stack([a, b]))
    if not (ua.any() and ub.any()):
        raise ValueError("cosine similarity is undefined for a zero vector")
    return float(ua.dot(ub))


def most_similar(embeddings: Embeddings, token: str, k: int = 10) -> list[tuple[str, float]]:
    """Top-k input-matrix neighbors by cosine, at any finite scale, excluding the
    query itself and zero vectors, so fewer than k come back when fewer rows remain."""
    if k < 1:
        raise ValueError("k must be positive")
    qi = embeddings._index(token)
    unit = _unit_rows(embeddings.input_vectors)
    if not unit[qi].any():
        raise ValueError(f"token {token!r} has a zero vector")
    sims = unit.dot(unit[qi])
    sims[~unit.any(axis=1)] = -np.inf
    sims[qi] = -np.inf
    order = np.argsort(-sims, kind="stable")[:k]
    return [(embeddings.vocab.tokens[i], float(sims[i])) for i in order if sims[i] > -np.inf]


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
    for tok, row in zip(tokens, matrix.astype(float, copy=False)):
        lines.append(tok + " " + " ".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def read_embeddings(text: str) -> tuple[list[str], np.ndarray]:
    """Parse ``write_embeddings`` output; a ValueError names the bad line. Each token is new.

    Every row's field count is checked before the matrix exists, so a header
    that promises more than the text holds is refused, not allocated.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty embedding file")
    try:
        V, d = (int(x) for x in lines[0].split())
    except ValueError as exc:
        raise ValueError(f'line 1: bad header {lines[0]!r}; expected "V d"') from exc
    if V < 1 or d < 1:
        raise ValueError(f"line 1: bad header {lines[0]!r}; V and d must be at least 1")
    body = [(n, ln) for n, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != V:
        raise ValueError(f"expected {V} rows, found {len(body)}")
    for lineno, line in body:
        if line.count(" ") != d:
            raise ValueError(f"line {lineno}: expected token and {d} floats")
    tokens = []
    seen: set[str] = set()
    matrix = np.empty((V, d))
    for i, (lineno, line) in enumerate(body):
        fields = line.split(" ")
        try:
            row = [float(x) for x in fields[1:]]
        except ValueError:
            raise ValueError(f"line {lineno}: vector values must be numbers") from None
        if not all(math.isfinite(x) for x in row):
            raise ValueError(f"line {lineno}: vector values must be finite")
        if fields[0] in seen:
            raise ValueError(f"line {lineno}: duplicate token {fields[0]!r}")
        seen.add(fields[0])
        tokens.append(fields[0])
        matrix[i] = row
    return tokens, matrix
