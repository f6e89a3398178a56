"""Token vocabulary and the negative-sampling distribution."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


@dataclass
class Vocabulary:
    """Bijective token<->index map with occurrence counts.

    Indices are assigned by descending count, ties broken lexicographically,
    so a vocabulary is a pure function of the corpus and min_count.
    """

    tokens: list[str]
    counts: np.ndarray
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if len(self.tokens) != len(self.counts):
            raise ValueError("tokens and counts must align")
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def encode(self, seq: Sequence[str]) -> list[int]:
        """Indices for known tokens; out-of-vocabulary tokens are skipped."""
        return [self.index[t] for t in seq if t in self.index]


def build_vocab(sequences: Iterable[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Count tokens over all sequences and drop those below min_count."""
    counter: Counter[str] = Counter()
    for seq in sequences:
        counter.update(seq)
    kept = sorted(
        ((tok, cnt) for tok, cnt in counter.items() if cnt >= min_count),
        key=lambda item: (-item[1], item[0]),
    )
    if not kept:
        raise ValueError(f"empty vocabulary: no token reaches min_count={min_count}")
    tokens = [tok for tok, _ in kept]
    counts = np.array([cnt for _, cnt in kept], dtype=np.int64)
    return Vocabulary(tokens=tokens, counts=counts)


def write_vocab(vocab: Vocabulary) -> str:
    return "".join(
        f"{tok}\t{int(cnt)}\t{i}\n" for i, (tok, cnt) in enumerate(zip(vocab.tokens, vocab.counts))
    )


def read_vocab(text: str) -> Vocabulary:
    tokens: list[str] = []
    counts: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            tok, cnt, idx = line.split("\t")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: expected token<TAB>count<TAB>index") from exc
        if int(idx) != len(tokens):
            raise ValueError(f"line {lineno}: indices must be consecutive from 0")
        tokens.append(tok)
        counts.append(int(cnt))
    return Vocabulary(tokens=tokens, counts=np.array(counts, dtype=np.int64))


@dataclass
class SamplingDist:
    """Unigram distribution p(w) proportional to count^power."""

    probs: np.ndarray
    cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        total = self.probs.sum()
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"probabilities sum to {total}, not 1")
        self.cumulative = np.cumsum(self.probs)
        self.cumulative[-1] = 1.0

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Sample token indices; O(log V) per draw via the cumulative table."""
        return np.searchsorted(self.cumulative, rng.random(size), side="right")


def negative_sampling_dist(vocab: Vocabulary, power: float = 0.75) -> SamplingDist:
    weights = vocab.counts.astype(np.float64) ** power
    return SamplingDist(probs=weights / weights.sum())
