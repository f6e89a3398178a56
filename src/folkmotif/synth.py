"""Synthetic separable corpora for data-free end-to-end testing.

Each class owns a disjoint inventory of interval sizes; songs are random
pitch walks whose steps come from the class inventory, except for a noise
fraction drawn from a shared pool. Durations are uniform quarter notes in
4/4, so the corpora exercise the intervallic pipeline specifically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .melody import CorpusDiagnostics, LabeledCorpus, Melody, NoteEvent
from .tokens import interval_size

LOW, HIGH = 48, 84  # pitch walk range (MIDI)


@dataclass
class SynthConfig:
    inventories: dict[str, tuple[int, ...]] = field(
        default_factory=lambda: {"alpha": (1, 2), "beta": (5, 7)}
    )
    noise_sizes: tuple[int, ...] = (3,)
    songs_per_class: int = 200
    min_length: int = 20  # notes per song
    max_length: int = 40
    noise_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if len(self.inventories) < 2:
            raise ValueError("need at least 2 classes")
        empty = [label for label, sizes in self.inventories.items() if not sizes]
        if empty:
            raise ValueError(f"class {empty[0]!r} has an empty inventory")
        if self.songs_per_class < 1:
            raise ValueError(f"songs_per_class must be at least 1, got {self.songs_per_class}")
        if not 2 <= self.min_length <= self.max_length:
            raise ValueError("need 2 <= min_length <= max_length")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError("noise_rate must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        flat = [s for sizes in self.inventories.values() for s in sizes]
        if any(s <= 0 for s in flat) or any(s <= 0 for s in self.noise_sizes):
            raise ValueError("interval sizes must be positive")
        # a step must always fit on at least one side of the pitch range
        if max([*flat, *self.noise_sizes]) > (HIGH - LOW) // 2:
            raise ValueError(f"interval sizes must be at most {(HIGH - LOW) // 2} semitones")
        for label, sizes in self.inventories.items():
            others = {
                s for other, sz in self.inventories.items() if other != label for s in sz
            }
            if set(sizes) & others:
                raise ValueError("class inventories must be disjoint")
            if set(sizes) & set(self.noise_sizes):
                raise ValueError(f"noise sizes overlap the {label!r} inventory")


def _walk(rng: np.random.Generator, sizes: tuple[int, ...], noise: tuple[int, ...],
          noise_rate: float, length: int) -> list[int]:
    pitches = [60]
    for _ in range(length - 1):
        pool = noise if (noise and rng.random() < noise_rate) else sizes
        size = int(pool[rng.integers(len(pool))])
        p = pitches[-1]
        options = [q for q in (p + size, p - size) if LOW <= q <= HIGH]
        pitches.append(int(options[rng.integers(len(options))]))
    return pitches


def generate_corpus(config: Optional[SynthConfig] = None) -> LabeledCorpus:
    """Deterministic under the seed: labels and songs in a fixed order."""
    config = config or SynthConfig()
    rng = np.random.default_rng(config.seed)
    melodies = []
    for label in sorted(config.inventories):
        sizes = tuple(config.inventories[label])
        for i in range(config.songs_per_class):
            length = int(rng.integers(config.min_length, config.max_length + 1))
            pitches = _walk(rng, sizes, tuple(config.noise_sizes), config.noise_rate, length)
            events = [
                NoteEvent(
                    pitch=p,
                    duration=Fraction(1),
                    onset=Fraction(j % 4),
                    measure=j // 4,
                )
                for j, p in enumerate(pitches)
            ]
            melodies.append(Melody(id=f"{label}-{i:04d}", label=label, meter=[(0, 4, 4)],
                                   events=events))
    return LabeledCorpus(melodies=melodies, diagnostics=CorpusDiagnostics())


def motif_class(motif: str, config: SynthConfig) -> Optional[str]:
    """Class that alone can generate the motif, or None.

    Shared noise intervals carry no class signal, so ownership is decided
    by the remaining sizes: a motif belongs to a class iff they all come
    from that class's inventory. Pure-noise motifs and motifs mixing two
    inventories (which no class generates) belong to no class.
    """
    try:
        sizes = {interval_size(part) for part in motif.split("_")}
    except ValueError:
        return None
    informative = sizes - set(config.noise_sizes)
    if not informative:
        return None
    owners = [
        label for label, inventory in config.inventories.items() if informative <= set(inventory)
    ]
    return owners[0] if len(owners) == 1 else None
