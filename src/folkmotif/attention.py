"""Bidirectional-GRU attention classifier over frozen motif embeddings.

A song enters as the sequence of its motif vectors. Forward and backward
GRU scans produce annotations h_j = [fwd_j; bwd_j]; an additive attention
scorer e_j = u . tanh(W_a h_j + b_a) turns them into weights alpha and a
context vector c = sum_j alpha_j h_j, which a single linear layer maps to
class probabilities. Training minimizes the negative log likelihood by
mini-batch SGD with gradient-norm clipping.

One encoder serves training and prediction. It takes a mini-batch in the
packed-sequence layout of cuDNN and PyTorch (Appleyard et al. 2016,
arXiv:1604.01946): the songs are ranked longest first, and their rows are
laid out time-major in one N x d array, N being the sum of the lengths, with
no padding. Step t of a scan is then one n_t x H matrix product over the n_t
songs still running, and the input projections and weight gradients are
one product over all N rows. The backward direction packs each song
reversed. Attention and the output layer run per song on that song's
annotation rows. ``backward`` takes a whole mini-batch, and so does the
pass over the held-out songs after each epoch; ``predict`` passes a batch
of one. The GRU gates use the logistic function in its tanh form.

Each GRU direction stores its weights in the orientation the scan multiplies
by, ``x @ W`` and ``state @ U``, with the gates in column blocks (the layout
of Keras's kernel and recurrent_kernel), so no step multiplies by a
transposed view. The input weights are one d x 3H matrix. The recurrent
weights are two C-contiguous matrices, H x 2H for the update and reset gates
and H x H for the candidate, so each of a step's two products reads
contiguous memory (Appleyard et al. 2016). A step writes its gates,
candidate and state straight into the scan's rows, and the state it starts
from is a view of the previous step's first rows.

The precision is mixed, as in mixed-precision training (Micikevicius et al.
2018, arXiv:1710.03740): the two GRU scans and their gradients run in
float32, the dtype of the GRU arrays, and each song's annotations are cast to
float64 before attention, so attention, the output layer, both softmaxes and
the loss run in float64. The scans take their dtype from the GRU arrays, so
the same code runs wholly in float64 when those arrays are float64.

All gradients are derived by hand and verified against central finite
differences in the test suite; no autodiff is involved.
"""

from __future__ import annotations

import base64
import copy
import csv
import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .seeds import stream
from .sgns import Embeddings, TrainingDiverged
from .tokens import TokenizedSong
from .vocab import Vocabulary, write_vocab


@dataclass
class GruDirection:
    """One scan direction with its update (z), reset (r) and candidate (h)
    gates, in the orientation the scan multiplies by (x @ w, state @ u_zr,
    (r * state) @ u_h). Columns come in gate blocks: [z | r | h] in w and b,
    [z | r] in u_zr. Every matrix is C-contiguous. u_h multiplies r * state,
    as in Cho et al. 2014."""

    w: np.ndarray  # d x 3H
    u_zr: np.ndarray  # H x 2H
    u_h: np.ndarray  # H x H
    b: np.ndarray  # 3H


@dataclass
class AttentionParams:
    w: np.ndarray  # A x 2H
    b: np.ndarray  # A
    u: np.ndarray  # A, the learned query


@dataclass
class OutputParams:
    w: np.ndarray  # L x 2H
    b: np.ndarray  # L


@dataclass
class ModelParams:
    gru_fwd: GruDirection
    gru_bwd: GruDirection
    attn: AttentionParams
    out: OutputParams


@dataclass
class AttentionModel:
    labels: list[str]  # class index -> name
    params: ModelParams
    epoch_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.params.gru_fwd.w.shape[0]

    @property
    def hidden(self) -> int:
        return self.params.gru_fwd.u_h.shape[0]

    @property
    def attention_dim(self) -> int:
        return self.params.attn.w.shape[0]


@dataclass
class ClassifierConfig:
    hidden: int = 200  # per direction
    attention_dim: int = 100
    batch: int = 10
    lr: float = 0.05
    epochs: int = 30
    clip_norm: float = 5.0
    max_len: int = 500  # songs longer than this many motifs are truncated
    val_fraction: float = 0.0  # > 0 keeps the best epoch by held-out loss

    def __post_init__(self):
        if min(self.hidden, self.attention_dim, self.batch, self.epochs, self.max_len) < 1:
            raise ValueError("hidden, attention_dim, batch, epochs, and max_len must be positive")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")


@dataclass
class SongExample:
    x: np.ndarray  # T x d, frozen motif vectors, at the GRU dtype from make_examples
    label: int


def _param_arrays(obj, prefix: str = ""):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            yield f"{prefix}{f.name}", value
        elif dataclasses.is_dataclass(value):
            yield from _param_arrays(value, f"{prefix}{f.name}.")


def zero_gradients(params: ModelParams) -> ModelParams:
    grads = copy.deepcopy(params)
    for _, g in _param_arrays(grads):
        g[...] = 0.0
    return grads


_GRU_DTYPE = np.float32  # the GRU arrays; every other array is float64


def _xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def init_model(
    dim: int, labels: Sequence[str], hidden: int = ClassifierConfig.hidden,
    attention_dim: int = ClassifierConfig.attention_dim, seed: int = 0,
) -> AttentionModel:
    """Xavier-uniform matrices, zero biases; draw order is fixed for determinism.

    The draws come from the seed's classifier-init stream. Every array is
    drawn in float64, so the random stream does not depend on the precision.
    A GRU gate's blocks are drawn H x d and H x H, one at a time, and each is
    rounded once into its column block of w and of u_zr or u_h, which are
    allocated at the GRU dtype; so no float64 copy of a whole GRU matrix is
    ever made.
    """
    labels = list(labels)
    _check_labels(labels, "labels")
    rng = stream(seed, "classifier_init")
    h, a, L = hidden, attention_dim, len(labels)

    def direction():
        w = np.empty((dim, 3 * h), _GRU_DTYPE)
        u_zr = np.empty((h, 2 * h), _GRU_DTYPE)
        u_h = np.empty((h, h), _GRU_DTYPE)
        # per gate z, r, h: its input block, then its recurrent block
        for gate, u_block in enumerate((u_zr[:, :h], u_zr[:, h:], u_h)):
            w[:, gate * h : (gate + 1) * h] = _xavier(rng, h, dim).T
            u_block[...] = _xavier(rng, h, h).T
        return GruDirection(w, u_zr, u_h, np.zeros(3 * h, _GRU_DTYPE))

    params = ModelParams(
        gru_fwd=direction(),
        gru_bwd=direction(),
        attn=AttentionParams(w=_xavier(rng, a, 2 * h), b=np.zeros(a), u=_xavier(rng, 1, a)[0]),
        out=OutputParams(w=_xavier(rng, L, 2 * h), b=np.zeros(L)),
    )
    return AttentionModel(labels=labels, params=params)


def _check_labels(labels, name: str) -> None:
    """Class labels, held by name, must be a list of 2 or more distinct strings."""
    strings = isinstance(labels, list) and all(isinstance(label, str) for label in labels)
    if not (strings and len(set(labels)) == len(labels) >= 2):
        raise ValueError(f"{name} must be 2 or more distinct strings: {labels!r}")


def _gate_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function as 0.5 * (1 + tanh(x / 2)), written over x and
    returned: one tanh call, no temporary, and no overflow warning however
    large |x| grows."""
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5
    return x


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = np.exp(x - x.max())
    return shifted / shifted.sum()


def _pack(lengths: Sequence[int]) -> tuple[list[int], list[np.ndarray]]:
    """The packed layout of a mini-batch whose songs have these lengths.

    Songs are ranked longest first, ties in batch order. Step t keeps the
    n_t songs still running, ranks 0 to n_t - 1, in consecutive rows, and
    the steps follow one another, so N = sum of the lengths rows hold the
    batch without padding. Returns n_t for every step and, per song in
    batch order, the row it takes at each of its steps.
    """
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    rank = {i: k for k, i in enumerate(order)}
    sizes = np.count_nonzero(np.asarray(lengths)[:, None] > np.arange(max(lengths)), axis=0)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return sizes.tolist(), [starts[:T] + rank[i] for i, T in enumerate(lengths)]


@dataclass
class _ScanCache:
    """One direction's scan over a packed batch, one row per packed row."""

    xs: np.ndarray  # N x d: the packed input
    zr: np.ndarray  # N x 2H: update and reset gates
    h_cand: np.ndarray  # N x H
    hs: np.ndarray  # N x H: the state each step emits


def _scan(xs: np.ndarray, sizes: Sequence[int], p: GruDirection) -> _ScanCache:
    N, H = xs.shape[0], p.u_h.shape[0]
    # The input projections do not depend on the recurrent state, so they
    # are one product over every packed row.
    xa = xs.dot(p.w)
    xa += p.b
    zr = np.empty((N, 2 * H), xs.dtype)
    h_cand = np.empty((N, H), xs.dtype)
    hs = np.empty((N, H), xs.dtype)
    state = np.zeros((sizes[0], H), xs.dtype)
    start = 0
    for n in sizes:
        rows = slice(start, start + n)
        # The songs still running are the previous step's first n rows.
        state = state[:n]
        gates, cand, new = zr[rows], h_cand[rows], hs[rows]
        np.add(xa[rows, : 2 * H], state.dot(p.u_zr), out=gates)
        _gate_sigmoid(gates)
        z, r = gates[:, :H], gates[:, H:]
        np.add(xa[rows, 2 * H :], (r * state).dot(p.u_h), out=cand)
        np.tanh(cand, out=cand)
        # new = state + z * (cand - state), one operation at a time
        np.subtract(cand, state, out=new)
        new *= z
        new += state
        state = new
        start += n
    return _ScanCache(xs=xs, zr=zr, h_cand=h_cand, hs=hs)


def _scan_grad(
    dh_seq: np.ndarray, sizes: Sequence[int], cache: _ScanCache, p: GruDirection, g: GruDirection
) -> None:
    """Backpropagate through one packed scan, accumulating parameter grads into g.

    dh_seq holds the loss gradient w.r.t. each emitted state, packed. Input
    gradients are not needed (frozen embeddings). Only the recurrence runs
    step by step; the weight gradients are taken after it, over all packed
    rows at once, as the forward input projection is.
    """
    N, H = dh_seq.shape
    # The per-step products read each recurrent block by gate rows, so they
    # take one C-ordered copy of its transpose.
    u_zr, u_h = np.ascontiguousarray(p.u_zr.T), np.ascontiguousarray(p.u_h.T)
    # The state each packed row starts from: a row of step t > 0 follows the
    # row of the same rank at step t - 1, n_{t-1} rows back; step 0 starts at 0.
    h_prev = cache.hs[np.arange(N) - np.repeat([0, *sizes[:-1]], sizes)]
    h_prev[: sizes[0]] = 0.0
    da = np.empty((N, 3 * H), dh_seq.dtype)  # gate pre-activation gradients, columns [z | r | h]
    # Row k carries the state gradient of the song of rank k. Steps run from
    # the last, so a song's row is still zero when its own last step comes.
    carry = np.zeros((sizes[0], H), dh_seq.dtype)
    start = N
    for n in reversed(sizes):
        start -= n
        rows = slice(start, start + n)
        dh = dh_seq[rows] + carry[:n]
        z, r = cache.zr[rows, :H], cache.zr[rows, H:]
        hc, hp = cache.h_cand[rows], h_prev[rows]
        da[rows, :H] = dh * (hc - hp) * z * (1.0 - z)
        da[rows, 2 * H :] = (dh * z) * (1.0 - hc * hc)
        uh_dah = da[rows, 2 * H :] @ u_h
        da[rows, H : 2 * H] = (uh_dah * hp) * r * (1.0 - r)
        carry[:n] = dh * (1.0 - z) + da[rows, : 2 * H] @ u_zr + uh_dah * r
    g.w += cache.xs.T @ da
    g.u_zr += h_prev.T @ da[:, : 2 * H]
    g.u_h += (cache.zr[:, H:] * h_prev).T @ da[:, 2 * H :]
    g.b += da.sum(axis=0)


@dataclass
class _SongCache:
    annotations: np.ndarray  # T x 2H
    q: np.ndarray  # T x A
    alpha: np.ndarray  # T
    context: np.ndarray  # 2H
    probs: np.ndarray  # L


@dataclass
class _BatchCache:
    sizes: list[int]  # n_t, as _pack returns it
    rows: list[np.ndarray]  # per song, its packed row at each step
    fwd: _ScanCache
    bwd: _ScanCache
    songs: list[_SongCache]  # in batch order


def _encode(xs: Sequence[np.ndarray], params: ModelParams) -> _BatchCache:
    """The one forward pass: both GRU scans over the packed batch in the GRU
    arrays' dtype, then attention and the output layer in float64 on each
    song's annotation rows."""
    sizes, rows = _pack([len(x) for x in xs])
    fwd_in = np.empty((sum(sizes), xs[0].shape[1]), params.gru_fwd.w.dtype)
    bwd_in = np.empty_like(fwd_in)
    for x, song_rows in zip(xs, rows):
        fwd_in[song_rows] = x
        bwd_in[song_rows] = x[::-1]
    fwd = _scan(fwd_in, sizes, params.gru_fwd)
    bwd = _scan(bwd_in, sizes, params.gru_bwd)
    songs = []
    for song_rows in rows:
        # The backward scan reaches position j of a T-row song at its step T-1-j.
        annotations = np.concatenate(
            [fwd.hs[song_rows], bwd.hs[song_rows[::-1]]], axis=1, dtype=np.float64
        )
        q = np.tanh(annotations @ params.attn.w.T + params.attn.b)
        alpha = _softmax(q @ params.attn.u)
        context = alpha @ annotations
        probs = _softmax(params.out.w @ context + params.out.b)
        songs.append(_SongCache(annotations, q, alpha, context, probs))
    return _BatchCache(sizes, rows, fwd, bwd, songs)


def _energy_grad(alpha: np.ndarray, d_alpha: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to the energies.

    The softmax Jacobian has zero row sums, so the result always sums to 0:
    shifting every energy by a constant cannot change the weights.
    """
    return alpha * (d_alpha - alpha @ d_alpha)


def backward(examples: Sequence[SongExample], params: ModelParams, grads: ModelParams) -> float:
    """Add the gradient of a mini-batch's summed loss w.r.t. every parameter
    into grads; return that summed loss. It is not finite when a song's
    label gets probability 0; the caller decides what that means.

    Embeddings stay frozen. Each GRU array of grads gets one addition per
    batch and each attention and output array one per song, so grads that
    start at zero end up holding the gradient itself.
    """
    cache = _encode([ex.x for ex in examples], params)
    H = params.gru_fwd.u_h.shape[0]
    # the loss gradient w.r.t. each packed state, in the scans' dtype
    d_fwd = np.empty((sum(cache.sizes), H), params.gru_fwd.w.dtype)
    d_bwd = np.empty_like(d_fwd)
    loss = 0.0
    for ex, song, song_rows in zip(examples, cache.songs, cache.rows):
        with np.errstate(divide="ignore"):
            loss += float(-np.log(song.probs[ex.label]))
        d_logits = song.probs.copy()
        d_logits[ex.label] -= 1.0
        grads.out.w += np.outer(d_logits, song.context)
        grads.out.b += d_logits
        d_context = params.out.w.T @ d_logits

        d_energy = _energy_grad(song.alpha, song.annotations @ d_context)
        grads.attn.u += song.q.T @ d_energy
        d_a = np.outer(d_energy, params.attn.u) * (1.0 - song.q * song.q)
        grads.attn.w += d_a.T @ song.annotations
        grads.attn.b += d_a.sum(axis=0)
        d_annotations = np.outer(song.alpha, d_context) + d_a @ params.attn.w
        d_fwd[song_rows] = d_annotations[:, :H]
        d_bwd[song_rows[::-1]] = d_annotations[:, H:]

    _scan_grad(d_fwd, cache.sizes, cache.fwd, params.gru_fwd, grads.gru_fwd)
    _scan_grad(d_bwd, cache.sizes, cache.bwd, params.gru_bwd, grads.gru_bwd)
    return loss


def _squared_norm(g: np.ndarray) -> float:
    """The squared norm in float64: a finite float32 entry above ~1.8e19
    would square to inf in float32."""
    return float(np.square(g, dtype=np.float64).sum())


def _sgd_step(params: ModelParams, grads: ModelParams, lr: float, clip_norm: float) -> float:
    """Take one clipped step; return the gradient norm before clipping."""
    norm = float(np.sqrt(sum(_squared_norm(g) for _, g in _param_arrays(grads))))
    scale = clip_norm / norm if norm > clip_norm else 1.0
    for (_, p), (_, g) in zip(_param_arrays(params), _param_arrays(grads)):
        p -= lr * scale * g
    return norm


def _song_rows(song: TokenizedSong, embeddings: Embeddings, max_len: int):
    """A song's in-vocabulary motifs, cut to max_len, and their vectors as rows."""
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    rows = embeddings.vocab.song_motifs(song)[:max_len]
    return embeddings.input_vectors[rows], [embeddings.vocab.tokens[i] for i in rows]


def make_examples(
    songs: Iterable[TokenizedSong],
    embeddings: Embeddings,
    classes: Sequence[str],
    max_len: int = ClassifierConfig.max_len,
) -> list[SongExample]:
    """Look up each song's in-vocabulary motif vectors as a frozen input matrix.

    The matrix is stored at the scan dtype, that of the GRU arrays
    ``init_model`` builds, which ``_encode`` packs a batch in: each song is
    rounded once, here, with the rounding the packing would apply, and the
    training set holds float32, not float64, vectors.
    """
    class_index = {c: i for i, c in enumerate(classes)}
    examples = []
    for song in songs:
        x, _ = _song_rows(song, embeddings, max_len)
        if song.label not in class_index:
            raise ValueError(f"song {song.id!r} has unknown class {song.label!r}")
        examples.append(SongExample(x=x.astype(_GRU_DTYPE), label=class_index[song.label]))
    return examples


def _mean_loss(examples: Sequence[SongExample], params: ModelParams, batch: int) -> float:
    """The mean negative log likelihood of the examples, encoded in packed
    mini-batches of batch songs."""
    losses = []
    for start in range(0, len(examples), batch):
        chunk = examples[start : start + batch]
        songs = _encode([ex.x for ex in chunk], params).songs
        with np.errstate(divide="ignore"):
            losses.extend(-np.log(song.probs[ex.label]) for ex, song in zip(chunk, songs))
    return float(np.mean(losses))


def train_classifier(
    examples: Sequence[SongExample],
    classes: Sequence[str],
    config: Optional[ClassifierConfig] = None,
    seed: int = 0,
) -> AttentionModel:
    """Mini-batch SGD; bit-reproducible under the seed.

    The holdout and each epoch's order come from the seed's classifier-order
    stream. With val_fraction > 0 that holdout, val_fraction of the songs
    rounded to the nearest count, is split off, encoded in mini-batches after
    each epoch, and the parameters of the best epoch by holdout loss are
    returned; otherwise the final parameters are. A val_fraction > 0 that
    rounds to no song is refused, not trained without a holdout.
    """
    config = config or ClassifierConfig()
    if not examples:
        raise ValueError("empty training set")
    dim = examples[0].x.shape[1]
    model = init_model(
        dim, classes, hidden=config.hidden, attention_dim=config.attention_dim, seed=seed
    )
    rng = stream(seed, "classifier_order")
    examples = list(examples)
    n_val = int(round(config.val_fraction * len(examples)))
    if config.val_fraction > 0 and n_val == 0:
        raise ValueError(
            f"val_fraction {config.val_fraction} of {len(examples)} songs holds out no song"
        )
    if n_val:
        order = rng.permutation(len(examples))
        val = [examples[i] for i in order[:n_val]]
        train = [examples[i] for i in order[n_val:]]
    else:
        val, train = [], examples
    if not train:
        raise ValueError("validation split leaves no training data")

    best_val = np.inf
    best_params = None
    grads = zero_gradients(model.params)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train))
        epoch_loss = 0.0
        for step, start in enumerate(range(0, len(order), config.batch), start=1):
            batch = [train[i] for i in order[start : start + config.batch]]
            for _, g in _param_arrays(grads):
                g.fill(0.0)
            # A step that overflows is reported below as TrainingDiverged.
            with np.errstate(over="ignore", invalid="ignore"):
                loss = backward(batch, model.params, grads)
                for _, g in _param_arrays(grads):
                    g /= len(batch)
                norm = _sgd_step(model.params, grads, config.lr, config.clip_norm)
            if not np.isfinite(norm):
                name = next(n for n, g in _param_arrays(grads) if not np.isfinite(_squared_norm(g)))
                raise TrainingDiverged(
                    f"epoch {epoch}, step {step}: the gradient of {name} is not finite; "
                    "lower the learning rate"
                )
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"epoch {epoch}, step {step}: the loss is {loss}; lower the learning rate"
                )
            epoch_loss += loss
        model.epoch_losses.append(epoch_loss / len(train))
        if val:
            val_loss = _mean_loss(val, model.params, config.batch)
            model.val_losses.append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best_params = copy.deepcopy(model.params)
    if best_params is not None:
        model.params = best_params
    return model


def predict(model: AttentionModel, x: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Argmax class index, class probabilities, and attention weights."""
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != model.dim:
        raise ValueError(f"expected a T x {model.dim} input, got {x.shape}")
    song = _encode([x], model.params).songs[0]
    return int(np.argmax(song.probs)), song.probs, song.alpha


def predict_song(
    model: AttentionModel, song: TokenizedSong, embeddings: Embeddings,
    max_len: int = ClassifierConfig.max_len,
) -> tuple[str, np.ndarray, list[tuple[str, float]]]:
    """Predicted label plus (motif, attention weight) pairs for inspection."""
    x, kept = _song_rows(song, embeddings, max_len)
    label, probs, alpha = predict(model, x)
    return model.labels[label], probs, list(zip(kept, alpha.tolist()))


def alpha_csv(weighted_motifs: Sequence[tuple[str, float]]) -> str:
    """CSV export of per-motif attention weights: motif, weight."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["motif", "weight"])
    for motif, weight in weighted_motifs:
        writer.writerow([motif, repr(float(weight))])
    return buf.getvalue()


def vocab_digest(vocab: Vocabulary) -> str:
    return hashlib.sha256(write_vocab(vocab).encode("utf-8")).hexdigest()


CHECKPOINT_FORMAT = 6  # one base64 line per parameter array, at init_model's dtype and shape


def _checkpoint_dtype(name: str) -> np.dtype:
    """Parameter array name's dtype in a checkpoint, the one init_model gives it."""
    return np.dtype(_GRU_DTYPE if name.startswith("gru_") else np.float64).newbyteorder("<")


def save_model(model: AttentionModel, vocab_hash: str = "") -> str:
    """Checkpoint: one JSON config line, then one line per parameter array,
    ``<name> <base64 of its little-endian bytes>``, in a fixed order. Each
    array is stored in C order as it sits in memory, the GRU matrices d x 3H,
    H x 2H and H x H; the GRU arrays are float32 and the rest float64.

    An array already C-ordered at its checkpoint dtype is encoded from its
    own buffer; only another is copied. The lines are joined once, the last
    newline with them, so the text exists at most twice at once."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "labels": model.labels,
        "dim": model.dim,
        "hidden": model.hidden,
        "attention_dim": model.attention_dim,
        "vocab_sha256": vocab_hash,
    }
    lines = [json.dumps(meta, sort_keys=True)]
    for name, arr in _param_arrays(model.params):
        raw = np.ascontiguousarray(arr, _checkpoint_dtype(name))
        lines.append(f"{name} {base64.b64encode(raw).decode('ascii')}")
    return "\n".join([*lines, ""])


def load_model(text: str) -> tuple[AttentionModel, dict]:
    """Inverse of save_model; the arrays must come in save_model's order.

    Each array is read at the shape the meta line implies and the dtype
    init_model gives it, and each payload's length is checked before its
    array is made, so a meta line alone allocates nothing.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty model file")
    meta = json.loads(lines[0])
    if not isinstance(meta, dict):
        raise ValueError("the checkpoint meta line must be a JSON object")
    fmt = meta.get("format", 1)  # format 1, nine arrays per GRU direction, had no key
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"checkpoint format {fmt} is not {CHECKPOINT_FORMAT}; retrain the model")
    labels = meta.get("labels")  # a missing key is reported with the others below
    if "labels" in meta:
        _check_labels(labels, "checkpoint meta 'labels'")
    try:
        args = {key: meta[key] for key in ("dim", "labels", "hidden", "attention_dim")}
    except KeyError as exc:
        raise ValueError(f"checkpoint meta has no {exc.args[0]!r} key") from None
    for key in ("dim", "hidden", "attention_dim"):
        if type(args[key]) is not int or args[key] < 1:  # a bool is not an int here
            raise ValueError(f"checkpoint meta {key!r} must be a positive integer: {args[key]!r}")
    d, h, a, L = args["dim"], args["hidden"], args["attention_dim"], len(labels)
    payloads = iter(lines[1:])

    def read(name: str, *shape: int) -> np.ndarray:
        line = next(payloads, None)
        if line is None:
            raise ValueError(f"checkpoint is missing parameter {name}")
        found, _, payload = line.partition(" ")
        if found != name:
            raise ValueError(f"expected parameter {name}, found {found[:60]!r}")
        try:
            raw = base64.b64decode(payload, validate=True)
        except ValueError as exc:
            raise ValueError(f"parameter {name} is not base64: {exc}") from None
        dtype = _checkpoint_dtype(name)
        expected = math.prod(shape) * dtype.itemsize
        if len(raw) != expected:
            raise ValueError(f"parameter {name} has {len(raw)} bytes, expected {expected}")
        return np.frombuffer(raw, dtype).reshape(shape).astype(dtype.newbyteorder("="))

    def direction(prefix: str) -> GruDirection:
        w, u_zr = read(f"{prefix}.w", d, 3 * h), read(f"{prefix}.u_zr", h, 2 * h)
        u_h = read(f"{prefix}.u_h", h, h)
        return GruDirection(w=w, u_zr=u_zr, u_h=u_h, b=read(f"{prefix}.b", 3 * h))

    params = ModelParams(
        gru_fwd=direction("gru_fwd"),
        gru_bwd=direction("gru_bwd"),
        attn=AttentionParams(w=read("attn.w", a, 2 * h), b=read("attn.b", a), u=read("attn.u", a)),
        out=OutputParams(w=read("out.w", L, 2 * h), b=read("out.b", L)),
    )
    count = len(list(_param_arrays(params)))
    if len(lines) - 1 > count:
        raise ValueError(f"line {count + 2}: unexpected content after the last parameter")
    return AttentionModel(labels=list(labels), params=params), meta
