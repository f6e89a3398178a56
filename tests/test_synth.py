import pytest

from folkmotif.melody import write_jsonl
from folkmotif.synth import HIGH, LOW, SynthConfig, generate_corpus, motif_class
from folkmotif.tokens import interval_size, tokenize_melody

SMALL = SynthConfig(songs_per_class=5, min_length=10, max_length=14, seed=0)


def test_corpus_size_and_labels():
    corpus = generate_corpus(SMALL)
    assert len(corpus) == 10
    assert corpus.labels() == ["alpha", "beta"]
    assert sum(1 for m in corpus if m.label == "alpha") == 5


def test_melodies_are_valid_and_in_range():
    for melody in generate_corpus(SMALL):
        melody.validate()
        for event in melody.events:
            assert LOW <= event.pitch <= HIGH


def test_steps_come_from_inventory_or_noise():
    config = SynthConfig(songs_per_class=8, min_length=15, max_length=20, seed=3)
    allowed = {
        label: set(sizes) | set(config.noise_sizes)
        for label, sizes in config.inventories.items()
    }
    for melody in generate_corpus(config):
        for token in tokenize_melody(melody, "intervallic"):
            assert interval_size(token) in allowed[melody.label]


def test_generation_is_byte_deterministic():
    a = write_jsonl(generate_corpus(SMALL).melodies)
    b = write_jsonl(generate_corpus(SMALL).melodies)
    assert a == b


def test_different_seeds_differ():
    a = write_jsonl(generate_corpus(SMALL).melodies)
    b = write_jsonl(generate_corpus(SynthConfig(songs_per_class=5, min_length=10, max_length=14, seed=1)).melodies)
    assert a != b


def test_motif_class_resolves_pure_motifs():
    config = SynthConfig()
    assert motif_class("11_21", config) == "alpha"
    assert motif_class("50_71", config) == "beta"


def test_motif_class_ignores_class_neutral_noise():
    config = SynthConfig()
    assert motif_class("11_31", config) == "alpha"  # only alpha can generate it
    assert motif_class("31_70", config) == "beta"


def test_motif_class_rejects_unownable_motifs():
    config = SynthConfig()
    assert motif_class("31_30", config) is None  # pure noise: either class
    assert motif_class("11_51", config) is None  # mixes the two inventories
    assert motif_class("not_a_motif", config) is None


def test_overlapping_inventories_rejected():
    with pytest.raises(ValueError, match="disjoint"):
        SynthConfig(inventories={"a": (1, 2), "b": (2, 5)})


def test_oversized_steps_rejected():
    with pytest.raises(ValueError, match="at most"):
        SynthConfig(inventories={"a": (1,), "b": (25,)})


@pytest.mark.parametrize("songs", [0, -2])
def test_songs_per_class_below_one_rejected(songs):
    message = f"songs_per_class must be at least 1, got {songs}"
    with pytest.raises(ValueError, match="^" + message + "$"):
        SynthConfig(songs_per_class=songs)


@pytest.mark.parametrize("other, noise", [((2,), (3,)), ((), ())], ids=["one", "every-size"])
def test_an_empty_inventory_rejected_naming_the_class(other, noise):
    with pytest.raises(ValueError, match="^class 'a' has an empty inventory$"):
        SynthConfig(inventories={"a": (), "b": other}, noise_sizes=noise)
