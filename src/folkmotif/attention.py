"""Bidirectional-GRU attention classifier over frozen motif embeddings.

A song enters as the sequence of its motif vectors. Forward and backward
GRU scans produce annotations h_j = [fwd_j; bwd_j]; an additive attention
scorer e_j = u . tanh(W_a h_j + b_a) turns them into weights alpha and a
context vector c = sum_j alpha_j h_j, which a single linear layer maps to
class probabilities. Training minimizes the negative log likelihood by
mini-batch SGD with gradient-norm clipping.

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
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .sgns import Embeddings, TrainingDiverged, _sigmoid
from .tokens import TokenizedSong
from .vocab import Vocabulary, write_vocab


@dataclass
class GruDirection:
    """One scan direction with its update (z), reset (r) and candidate (h)
    gates fused: rows come in gate blocks [z; r; h]. The h block of u
    multiplies r * state, as in Cho et al. 2014."""

    w: np.ndarray  # 3H x d
    u: np.ndarray  # 3H x H
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
        return self.params.gru_fwd.w.shape[1]

    @property
    def hidden(self) -> int:
        return self.params.gru_fwd.u.shape[1]

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
    seed: int = 0

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
    id: str
    x: np.ndarray  # T x d, frozen motif vectors
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


def _xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def init_model(
    dim: int, labels: Sequence[str], hidden: int = 200, attention_dim: int = 100, seed: int = 0
) -> AttentionModel:
    """Xavier-uniform matrices, zero biases; draw order is fixed for determinism."""
    if len(labels) < 2:
        raise ValueError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    h, a, L = hidden, attention_dim, len(labels)

    def direction():
        # per gate z, r, h: its input block, then its recurrent block
        blocks = [_xavier(rng, h, cols) for cols in (dim, h) * 3]
        return GruDirection(np.vstack(blocks[0::2]), np.vstack(blocks[1::2]), np.zeros(3 * h))

    params = ModelParams(
        gru_fwd=direction(),
        gru_bwd=direction(),
        attn=AttentionParams(w=_xavier(rng, a, 2 * h), b=np.zeros(a), u=_xavier(rng, 1, a)[0]),
        out=OutputParams(w=_xavier(rng, L, 2 * h), b=np.zeros(L)),
    )
    return AttentionModel(labels=list(labels), params=params)


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = np.exp(x - x.max())
    return shifted / shifted.sum()


@dataclass
class _ScanCache:
    z: np.ndarray  # T x H
    r: np.ndarray
    h_cand: np.ndarray
    hs: np.ndarray  # (T+1) x H: the zero start state, then the state leaving each step


def _scan(xs: np.ndarray, p: GruDirection) -> _ScanCache:
    T, H = xs.shape[0], p.u.shape[1]
    # The input projections do not depend on the recurrent state, so they
    # are batched over all timesteps.
    xa = xs @ p.w.T + p.b
    u_zr, u_h = p.u[: 2 * H], p.u[2 * H :]
    zr = np.empty((T, 2 * H))
    h_cand = np.empty((T, H))
    hs = np.zeros((T + 1, H))
    for t in range(T):
        state = hs[t]
        zr[t] = _sigmoid(xa[t, : 2 * H] + u_zr @ state)
        z, r = zr[t, :H], zr[t, H:]
        h_cand[t] = np.tanh(xa[t, 2 * H :] + u_h @ (r * state))
        hs[t + 1] = (1.0 - z) * state + z * h_cand[t]
    return _ScanCache(z=zr[:, :H], r=zr[:, H:], h_cand=h_cand, hs=hs)


def _scan_grad(
    dh_seq: np.ndarray, xs: np.ndarray, cache: _ScanCache, p: GruDirection, g: GruDirection
) -> None:
    """Backpropagate through one scan, accumulating parameter grads into g.

    dh_seq holds the loss gradient w.r.t. each emitted state and xs the input,
    both in processing order. Input gradients are not needed (frozen embeddings).
    Only the recurrence runs step by step; the weight gradients are taken
    after it, over all timesteps at once, as the forward input projection is.
    """
    T, H = dh_seq.shape
    u_zr, u_h = p.u[: 2 * H], p.u[2 * H :]
    da = np.empty((T, 3 * H))  # gate pre-activation gradients, blocks [z; r; h]
    carry = np.zeros(H)
    for t in range(T - 1, -1, -1):
        dh = dh_seq[t] + carry
        z, r, hc, hp = cache.z[t], cache.r[t], cache.h_cand[t], cache.hs[t]
        da[t, :H] = dh * (hc - hp) * z * (1.0 - z)
        da[t, 2 * H :] = (dh * z) * (1.0 - hc * hc)
        uh_dah = u_h.T @ da[t, 2 * H :]
        da[t, H : 2 * H] = (uh_dah * hp) * r * (1.0 - r)
        carry = dh * (1.0 - z) + u_zr.T @ da[t, : 2 * H] + uh_dah * r
    g.w += da.T @ xs
    g.u[: 2 * H] += da[:, : 2 * H].T @ cache.hs[:-1]
    g.u[2 * H :] += da[:, 2 * H :].T @ (cache.r * cache.hs[:-1])
    g.b += da.sum(axis=0)


@dataclass
class _ForwardCache:
    fwd: _ScanCache
    bwd: _ScanCache
    annotations: np.ndarray  # T x 2H
    q: np.ndarray  # T x A
    alpha: np.ndarray  # T
    context: np.ndarray  # 2H
    probs: np.ndarray  # L


def _forward(x: np.ndarray, params: ModelParams) -> _ForwardCache:
    fwd = _scan(x, params.gru_fwd)
    bwd = _scan(x[::-1], params.gru_bwd)
    annotations = np.concatenate([fwd.hs[1:], bwd.hs[1:][::-1]], axis=1)
    q = np.tanh(annotations @ params.attn.w.T + params.attn.b)
    alpha = _softmax(q @ params.attn.u)
    context = alpha @ annotations
    probs = _softmax(params.out.w @ context + params.out.b)
    return _ForwardCache(
        fwd=fwd, bwd=bwd, annotations=annotations, q=q, alpha=alpha, context=context, probs=probs
    )


def forward_loss(x: np.ndarray, label: int, params: ModelParams) -> tuple[np.ndarray, float]:
    """Class probabilities and the negative log likelihood of the label."""
    cache = _forward(x, params)
    with np.errstate(divide="ignore"):
        return cache.probs, float(-np.log(cache.probs[label]))


def _energy_grad(alpha: np.ndarray, d_alpha: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to the energies.

    The softmax Jacobian has zero row sums, so the result always sums to 0:
    shifting every energy by a constant cannot change the weights.
    """
    return alpha * (d_alpha - alpha @ d_alpha)


def backward(x: np.ndarray, label: int, params: ModelParams, grads: ModelParams) -> float:
    """Add the loss gradient w.r.t. every parameter into grads; return the loss.

    Embeddings stay frozen. Each array of grads gets exactly one addition,
    so grads that start at zero end up holding the gradient itself.
    """
    cache = _forward(x, params)
    probs, alpha, q, annotations = cache.probs, cache.alpha, cache.q, cache.annotations
    with np.errstate(divide="ignore"):
        loss = float(-np.log(probs[label]))

    d_logits = probs.copy()
    d_logits[label] -= 1.0
    grads.out.w += np.outer(d_logits, cache.context)
    grads.out.b += d_logits
    d_context = params.out.w.T @ d_logits

    d_alpha = annotations @ d_context
    d_energy = _energy_grad(alpha, d_alpha)
    grads.attn.u += q.T @ d_energy
    d_q = np.outer(d_energy, params.attn.u)
    d_a = d_q * (1.0 - q * q)
    grads.attn.w += d_a.T @ annotations
    grads.attn.b += d_a.sum(axis=0)
    d_annotations = np.outer(alpha, d_context) + d_a @ params.attn.w

    H = params.gru_fwd.u.shape[1]
    _scan_grad(d_annotations[:, :H], x, cache.fwd, params.gru_fwd, grads.gru_fwd)
    _scan_grad(d_annotations[::-1, H:], x[::-1], cache.bwd, params.gru_bwd, grads.gru_bwd)

    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss {loss}; lower the learning rate")
    return loss


def _sgd_step(params: ModelParams, grads: ModelParams, lr: float, clip_norm: float) -> None:
    norm = np.sqrt(sum(float((g * g).sum()) for _, g in _param_arrays(grads)))
    scale = clip_norm / norm if norm > clip_norm else 1.0
    for (_, p), (_, g) in zip(_param_arrays(params), _param_arrays(grads)):
        p -= lr * scale * g


def _song_rows(song: TokenizedSong, embeddings: Embeddings, max_len: int):
    """A song's in-vocabulary motifs, cut to max_len, and their vectors as rows."""
    kept = tuple(t for t in song.tokens if t in embeddings.vocab)[:max_len]
    if not kept:
        raise ValueError(f"untokenizable song {song.id!r}: no in-vocabulary motifs")
    return embeddings.input_vectors[embeddings.vocab.encode(kept)], kept


def make_examples(
    songs: Iterable[TokenizedSong],
    embeddings: Embeddings,
    classes: Sequence[str],
    max_len: int = 500,
) -> list[SongExample]:
    """Look up each song's in-vocabulary motif vectors as a frozen input matrix."""
    class_index = {c: i for i, c in enumerate(classes)}
    examples = []
    for song in songs:
        x, _ = _song_rows(song, embeddings, max_len)
        if song.label not in class_index:
            raise ValueError(f"song {song.id!r} has unknown class {song.label!r}")
        examples.append(SongExample(id=song.id, x=x, label=class_index[song.label]))
    return examples


def train_classifier(
    examples: Sequence[SongExample],
    classes: Sequence[str],
    config: Optional[ClassifierConfig] = None,
) -> AttentionModel:
    """Mini-batch SGD; bit-reproducible under the config seed.

    With val_fraction > 0 a seeded holdout is split off and the parameters
    of the best epoch by holdout loss are returned; otherwise the final
    parameters are.
    """
    config = config or ClassifierConfig()
    if not examples:
        raise ValueError("empty training set")
    dim = examples[0].x.shape[1]
    model = init_model(
        dim, classes, hidden=config.hidden, attention_dim=config.attention_dim, seed=config.seed
    )
    rng = np.random.default_rng(config.seed)
    examples = list(examples)
    n_val = int(round(config.val_fraction * len(examples)))
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
    for _ in range(config.epochs):
        order = rng.permutation(len(train))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch):
            batch = [train[i] for i in order[start : start + config.batch]]
            grads = zero_gradients(model.params)
            for ex in batch:
                epoch_loss += backward(ex.x, ex.label, model.params, grads)
            for _, g in _param_arrays(grads):
                g /= len(batch)
            _sgd_step(model.params, grads, config.lr, config.clip_norm)
        mean_loss = epoch_loss / len(train)
        if not np.isfinite(mean_loss):
            raise TrainingDiverged(
                f"epoch loss went non-finite ({mean_loss}); lower the learning rate"
            )
        model.epoch_losses.append(mean_loss)
        if val:
            val_loss = float(
                np.mean([forward_loss(ex.x, ex.label, model.params)[1] for ex in val])
            )
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
    cache = _forward(x, model.params)
    return int(np.argmax(cache.probs)), cache.probs, cache.alpha


def predict_song(
    model: AttentionModel, song: TokenizedSong, embeddings: Embeddings, max_len: int = 500
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


CHECKPOINT_FORMAT = 3  # one base64 line per parameter array


def save_model(model: AttentionModel, vocab_hash: str = "") -> str:
    """Checkpoint: one JSON config line, then one line per parameter array,
    ``<name> <base64 of its little-endian float64 bytes>``, in a fixed order."""
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
        lines.append(f"{name} {base64.b64encode(arr.astype('<f8').tobytes()).decode('ascii')}")
    return "\n".join(lines) + "\n"


def load_model(text: str) -> tuple[AttentionModel, dict]:
    """Inverse of save_model; the arrays must come in save_model's order."""
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
    strings = isinstance(labels, list) and all(isinstance(name, str) for name in labels)
    if "labels" in meta and not (strings and len(set(labels)) == len(labels) >= 2):
        raise ValueError(f"checkpoint meta 'labels' must be 2 or more distinct strings: {labels!r}")
    try:
        model = init_model(
            dim=meta["dim"],
            labels=meta["labels"],
            hidden=meta["hidden"],
            attention_dim=meta["attention_dim"],
        )
    except KeyError as exc:
        raise ValueError(f"checkpoint meta has no {exc.args[0]!r} key") from None
    except TypeError as exc:
        raise ValueError(f"checkpoint meta: {exc}") from None
    arrays = list(_param_arrays(model.params))
    for (name, arr), line in zip(arrays, lines[1:]):
        found, _, payload = line.partition(" ")
        if found != name:
            raise ValueError(f"expected parameter {name}, found {found[:60]!r}")
        try:
            raw = base64.b64decode(payload, validate=True)
        except ValueError as exc:
            raise ValueError(f"parameter {name} is not base64: {exc}") from None
        if len(raw) != arr.nbytes:
            raise ValueError(f"parameter {name} has {len(raw)} bytes, expected {arr.nbytes}")
        arr[...] = np.frombuffer(raw, "<f8").reshape(arr.shape)
    if len(lines) - 1 < len(arrays):
        raise ValueError(f"checkpoint is missing parameter {arrays[len(lines) - 1][0]}")
    if len(lines) - 1 > len(arrays):
        raise ValueError(f"line {len(arrays) + 2}: unexpected content after the last parameter")
    return model, meta
