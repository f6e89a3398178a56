"""One independent random stream per consumer of an experiment's seed.

Each consumer draws from its own child of ``np.random.SeedSequence(seed)``,
told apart by a fixed spawn key, so no two consumers share a number: the
uniforms that make PV-DBOW's start vectors are not its first negatives, and
adding a draw to one consumer moves no other. ``synth.generate_corpus`` keeps
its own ``default_rng(seed)``, because generated corpora are inputs.
"""

from __future__ import annotations

import numpy as np

# Consumer name -> spawn key. Fixed: changing a key changes every result.
STREAM_KEYS = {
    "split": 1,
    "skipgram_init": 2,
    "skipgram_train": 3,
    "pvdbow_init": 4,
    "pvdbow_train": 5,
    "classifier_init": 6,
    "classifier_order": 7,
}


def stream(seed: int, consumer: str) -> np.random.Generator:
    """The generator of ``consumer`` under ``seed``, spawned with its key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(STREAM_KEYS[consumer],)))
