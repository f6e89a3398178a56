import copy
from itertools import combinations

import numpy as np

from folkmotif import attention, metrics, sgns
from folkmotif.attention import ClassifierConfig
from folkmotif.baselines import SvmConfig
from folkmotif.experiment import ExperimentConfig, run_experiment
from folkmotif.seeds import STREAM_KEYS, stream
from folkmotif.sgns import SkipgramConfig, train_pvdbow
from folkmotif.synth import SynthConfig, generate_corpus
from folkmotif.tokens import TokenizedSong
from folkmotif.vocab import SamplingDist, build_vocab


def test_pvdbow_negatives_do_not_reuse_the_uniforms_of_its_start(monkeypatch):
    """6 songs, d=8, k=2, seed 3: with one stream for both, the first draw's
    uniforms were the first 6 values of the start matrix."""
    rng = np.random.default_rng(2)
    songs = [
        TokenizedSong(id=f"s{i}", label="x", tokens=tuple(rng.choice(["a", "b", "c"], size=3)))
        for i in range(6)
    ]
    vocab = build_vocab([s.tokens for s in songs])
    config = SkipgramConfig(dim=8, negatives=2, epochs=1)
    first = []
    draw = SamplingDist.draw

    def recorded(self, gen, size):
        if not first:
            first.append(copy.deepcopy(gen).random(size))
        return draw(self, gen, size)

    monkeypatch.setattr(SamplingDist, "draw", recorded)
    train_pvdbow(songs, vocab, config, seed=3)
    start = stream(3, "pvdbow_init").random((6, 8)).ravel()
    assert len(first[0]) == 6
    assert not np.array_equal(first[0], start[:6])
    assert not np.isin(first[0], start).any()


def test_every_consumer_draws_from_its_own_stream(monkeypatch):
    """The attention and doc2vec pipelines ask for all seven streams, and the
    first draws of those streams at one seed are pairwise different."""
    asked = set()

    def recorded(seed, consumer):
        asked.add(consumer)
        return stream(seed, consumer)

    for module in (metrics, sgns, attention):
        monkeypatch.setattr(module, "stream", recorded)
    corpus = generate_corpus(SynthConfig(songs_per_class=6, min_length=8, max_length=10, seed=4))
    for model in ("attention", "doc2vec"):
        config = ExperimentConfig(
            model=model,
            seed=9,
            embedding=SkipgramConfig(dim=4, window=2, negatives=2, epochs=1),
            classifier=ClassifierConfig(hidden=3, attention_dim=2, epochs=1),
            svm=SvmConfig(epochs=2),
        )
        run_experiment(config, corpus)
    assert asked == set(STREAM_KEYS)
    first = {consumer: stream(9, consumer).random(4) for consumer in asked}
    for a, b in combinations(first, 2):
        assert not np.array_equal(first[a], first[b]), (a, b)

