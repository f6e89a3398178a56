"""The benchmark's workloads and their seeded input generators.

Every generator writes its inputs to disk and returns the ``(path, label)``
pairs that ``folkmotif.load_corpus`` takes, so the timed path starts where
a user's does: with files. The same seed always writes the same bytes.

Song lengths come from a fixed list instead of a random range, so the
amount of work in a workload does not depend on the seed; only the
content does. That keeps run-to-run spread down to what the machine adds.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # ExperimentConfig.from_dict input; never sets workers
    classes: dict  # label -> generator-specific inventory
    songs_per_class: int
    lengths: tuple  # notes (interval) or events (kern) per song, cycled
    accuracy_floor: float
    write_inputs: Callable = field(repr=False)  # (fm, workload, seed, directory) -> pairs

    @property
    def n_songs(self) -> int:
        return self.songs_per_class * len(self.classes)

    def tiny(self) -> "Workload":
        """The same workload at a size that runs in about a second."""
        config = dict(self.config)
        config["embedding"] = {**config.get("embedding", {}), "dim": 8, "epochs": 1}
        config["classifier"] = {"hidden": 6, "attention_dim": 4, "epochs": 1}
        config["svm"] = {**config.get("svm", {}), "epochs": 5}
        return dataclasses.replace(
            self, config=config, songs_per_class=4, lengths=(8, 12), accuracy_floor=0.0
        )


def _song_lengths(workload: Workload) -> list[int]:
    return [workload.lengths[i % len(workload.lengths)] for i in range(workload.songs_per_class)]


def write_interval_corpus(fm, workload: Workload, seed: int, directory: Path) -> list:
    """One JSONL file of ``synth.generate_corpus`` songs, shuffled by the seed.

    Each song length is generated by its own ``generate_corpus`` call with
    ``min_length == max_length``; the ids are then made unique.
    """
    melodies = []
    for j, length in enumerate(_song_lengths(workload)):
        synth = fm.SynthConfig(
            inventories=workload.classes,
            songs_per_class=1,
            min_length=length,
            max_length=length,
            seed=seed * 100_003 + j,
        )
        for melody in fm.generate_corpus(synth).melodies:
            melody.id = f"{melody.label}-{j:04d}"
            melodies.append(melody)
    random.Random(seed).shuffle(melodies)
    path = directory / "corpus.jsonl"
    path.write_bytes(fm.write_jsonl(melodies))
    return [(str(path), None)]


# Kern durations in quarter notes, keyed by their kern spelling.
_KERN_DURATIONS = {
    "16": Fraction(1, 4),
    "8": Fraction(1, 2),
    "8.": Fraction(3, 4),
    "4": Fraction(1),
    "4.": Fraction(3, 2),
    "2": Fraction(2),
    "2.": Fraction(3),
}
_KERN_PITCHES = ("c", "d", "e", "f", "g", "a", "b", "cc", "dd", "B", "A", "c#", "f#")
_KERN_NOISE = ("8",)  # shared by every class, so it carries no class signal
_KERN_NOISE_RATE = 0.15
_KERN_REST_RATE = 0.1


def _kern_song(rng: random.Random, meters: tuple, durations: tuple, n_events: int, title: str) -> str:
    """A monophonic kern song with exactly ``n_events`` notes and rests.

    Measures are filled from the class durations, with some shared noise;
    half the songs open with a pickup measure, and some change meter.
    """
    meter = rng.choice(meters)
    lines = [f"!!!OTL: {title}", "**kern", "*clefG2", f"*M{meter[0]}/{meter[1]}"]
    events = 0
    first = True
    while events < n_events:
        capacity = Fraction(4 * meter[0], meter[1])
        if first and rng.random() < 0.5:
            capacity = min(_KERN_DURATIONS[d] for d in durations)  # pickup
        first = False
        remaining = capacity
        while remaining > 0 and events < n_events:
            pool = _KERN_NOISE if rng.random() < _KERN_NOISE_RATE else durations
            fits = [d for d in pool if _KERN_DURATIONS[d] <= remaining]
            fits = fits or [d for d in (*durations, *_KERN_NOISE) if _KERN_DURATIONS[d] <= remaining]
            dur = rng.choice(fits)
            body = "r" if rng.random() < _KERN_REST_RATE else rng.choice(_KERN_PITCHES)
            lines.append(dur + body)
            remaining -= _KERN_DURATIONS[dur]
            events += 1
        lines.append("=")
        if rng.random() < 0.1:
            meter = rng.choice(meters)
            lines.append(f"*M{meter[0]}/{meter[1]}")
    lines.append("*-")
    return "\n".join(lines) + "\n"


def write_kern_corpus(fm, workload: Workload, seed: int, directory: Path) -> list:
    """One ``.krn`` file per song, in one directory per class.

    Classes own disjoint meter and duration inventories, so they are
    separable by construction.
    """
    rng = random.Random(seed)
    pairs = []
    for label in sorted(workload.classes):
        meters, durations = workload.classes[label]
        class_dir = directory / label
        class_dir.mkdir(parents=True, exist_ok=True)
        for i, n_events in enumerate(_song_lengths(workload)):
            path = class_dir / f"{label}-{i:04d}.krn"
            path.write_text(_kern_song(rng, meters, durations, n_events, path.stem), encoding="utf-8")
            pairs.append((str(path), label))
    return pairs


# Paper dimensions for the classifier; sizes are set so one pipeline run
# takes a few seconds on a 2-core machine and a run repeats it several times.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="attn-interval",
            why="BiGRU-attention at paper dims on songs of 8-40 notes: the only run "
            "of classifier training, checkpoint I/O and per-song attention inference",
            config={
                "representation": "intervallic",
                "multiword_size": 2,
                "multiword_mode": "sliding",
                "model": "attention",
                "embedding": {"dim": 150, "epochs": 2, "lr": 0.1},
                "classifier": {"hidden": 200, "attention_dim": 100, "batch": 10, "epochs": 1},
            },
            classes={"alpha": (1, 2), "beta": (5, 7)},
            songs_per_class=60,
            lengths=tuple(range(8, 41, 4)),
            accuracy_floor=0.9,
            write_inputs=write_interval_corpus,
        ),
        Workload(
            name="d2v-rhythm-kern",
            why="kern files in simple and compound meters, rhythmic tokens, phrase "
            "merging, PV-DBOW + SVM: the only run of the parser and doc2vec; "
            "the classifier never runs",
            config={
                "representation": "rhythmic",
                "multiword_size": 2,
                "multiword_mode": "phrase",
                "model": "doc2vec",
                "embedding": {"epochs": 2, "lr": 0.1},
            },
            classes={
                "simple": (((2, 4), (3, 4), (4, 4)), ("4", "2", "8.", "16")),
                "compound": (((6, 8), (9, 8), (12, 8)), ("4.", "2.")),
            },
            songs_per_class=80,
            lengths=tuple(range(20, 61, 5)),
            accuracy_floor=0.9,
            write_inputs=write_kern_corpus,
        ),
    )
}
