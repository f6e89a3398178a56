from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from folkmotif.melody import Melody, NoteEvent
from folkmotif.tokens import (
    IntervalToken,
    RhythmToken,
    TokenizedSong,
    build_multiwords,
    format_duration,
    interval_token,
    phrase_merge,
    read_token_file,
    rhythm_token,
    tokenize_corpus,
    tokenize_melody,
    write_token_file,
)


def note(pitch, duration, onset, measure=0):
    return NoteEvent(pitch=pitch, duration=Fraction(duration), onset=Fraction(onset), measure=measure)


def quarter_note_melody(pitches, meter=(4, 4)):
    num, den = meter
    capacity = Fraction(4 * num, den)
    events = []
    measure, onset = 0, Fraction(0)
    for p in pitches:
        if onset + 1 > capacity:
            measure, onset = measure + 1, Fraction(0)
        events.append(note(p, 1, onset, measure))
        onset += 1
    return Melody(id="m", label="test", meter=[(0, num, den)], events=events)


def test_ascending_major_second():
    assert interval_token(note(60, 1, 0), note(62, 1, 1)).render() == "21"


def test_descending_minor_third():
    assert interval_token(note(67, 1, 0), note(64, 1, 1)).render() == "30"


def test_repeated_note():
    assert interval_token(note(60, 1, 0), note(60, 1, 1)).render() == "00"


def test_interval_requires_pitches():
    with pytest.raises(ValueError):
        interval_token(note(None, 1, 0), note(60, 1, 1))


def test_eighth_on_downbeat():
    assert rhythm_token(note(60, Fraction(1, 2), 0), (4, 4)).render() == "1-1-0.5"


def test_sixteenth_off_beat():
    assert rhythm_token(note(60, Fraction(1, 4), Fraction(3, 4)), (4, 4)).render() == "1-0-0.25"


def test_quarter_rest_on_beat():
    assert rhythm_token(note(None, 1, 1), (4, 4)).render() == "0-1-1"


def test_compound_meter_beat_is_dotted_quarter():
    assert rhythm_token(note(60, Fraction(1, 2), Fraction(3, 2)), (6, 8)).is_downbeat
    assert not rhythm_token(note(60, Fraction(1, 2), Fraction(1)), (6, 8)).is_downbeat


@pytest.mark.parametrize(
    "duration, rendered",
    [
        (Fraction(1), "1"),
        (Fraction(2), "2"),
        (Fraction(1, 2), "0.5"),
        (Fraction(3, 2), "1.5"),
        (Fraction(1, 4), "0.25"),
        (Fraction(1, 3), "0.3333"),
        (Fraction(2, 3), "0.6666"),
        (Fraction(1, 32), "0.0312"),
    ],
)
def test_duration_formatting(duration, rendered):
    assert format_duration(duration) == rendered


def test_tokenize_intervallic():
    assert tokenize_melody(quarter_note_melody([60, 62, 60]), "intervallic") == ["21", "20"]


def test_rests_are_transparent_for_intervals():
    m = Melody(
        id="m",
        label="l",
        meter=[(0, 4, 4)],
        events=[note(60, 1, 0), note(None, 1, 1), note(67, 1, 2)],
    )
    assert tokenize_melody(m, "intervallic") == ["71"]


def test_single_pitched_event_is_an_error():
    m = Melody(id="m", label="l", meter=[(0, 4, 4)], events=[note(60, 1, 0)])
    with pytest.raises(ValueError, match="at least 2"):
        tokenize_melody(m, "intervallic")


def test_tokenize_rhythmic_includes_rests():
    m = Melody(
        id="m",
        label="l",
        meter=[(0, 4, 4)],
        events=[note(60, 1, 0), note(None, 1, 1), note(62, 1, 2)],
    )
    assert tokenize_melody(m, "rhythmic") == ["1-1-1", "0-1-1", "1-1-1"]


def test_rhythmic_uses_the_active_meter_per_measure():
    m = Melody(
        id="m",
        label="l",
        meter=[(0, 4, 4), (1, 6, 8)],
        events=[note(60, 1, Fraction(3, 2), 0), note(62, Fraction(1, 2), Fraction(3, 2), 1)],
    )
    tokens = tokenize_melody(m, "rhythmic")
    assert tokens == ["1-0-1", "1-1-0.5"]


@given(
    st.lists(st.integers(min_value=48, max_value=84), min_size=2, max_size=12),
    st.integers(min_value=-10, max_value=10),
)
def test_intervallic_tokens_are_transposition_invariant(pitches, shift):
    """Shifting every pitch by the same amount leaves interval tokens unchanged."""
    m = quarter_note_melody(pitches)
    assert tokenize_melody(m.transposed(shift), "intervallic") == tokenize_melody(m, "intervallic")


def test_sliding_trigrams():
    assert build_multiwords(["30", "00", "21"], 3) == ["30_00_21"]


def test_sliding_bigrams():
    assert build_multiwords(["30", "00", "21"], 2) == ["30_00", "00_21"]


def test_short_sequence_gives_empty():
    assert build_multiwords(["30"], 2) == []


@given(st.lists(st.sampled_from(["21", "20", "00"]), max_size=20), st.integers(min_value=2, max_value=4))
def test_sliding_multiword_count(seq, n):
    assert len(build_multiwords(seq, n)) == max(0, len(seq) - n + 1)


def test_phrase_merge_joins_frequent_bigrams():
    seqs = [["a", "b", "c"] for _ in range(10)]
    assert phrase_merge(seqs, passes=1)[0] == ["a_b", "c"]


def test_phrase_merge_respects_discount():
    seqs = [["a", "b"] for _ in range(3)] + [["a"], ["b"]] * 4
    # count(ab)=3 <= delta=5, so the score is negative and nothing merges
    assert phrase_merge(seqs, passes=1) == seqs


def test_interval_render_parse_round_trip():
    for size in range(0, 13):
        for ascending in (False, True):
            if size == 0 and ascending:
                continue
            token = IntervalToken(size=size, ascending=ascending)
            assert IntervalToken.parse(token.render()) == token


@given(
    st.booleans(),
    st.booleans(),
    st.integers(min_value=1, max_value=64),
    st.sampled_from([1, 2, 4, 8, 16]),
)
def test_rhythm_render_parse_round_trip(is_note, is_downbeat, num, den):
    duration = Fraction(num, den)  # dyadic durations have exact short decimals
    token = RhythmToken(is_note=is_note, is_downbeat=is_downbeat, duration=duration)
    assert RhythmToken.parse(token.render()) == token


def test_rhythm_render_is_idempotent_for_triplets():
    token = RhythmToken(is_note=True, is_downbeat=False, duration=Fraction(1, 3))
    reparsed = RhythmToken.parse(token.render())
    assert reparsed.duration == Fraction(3333, 10000)
    assert RhythmToken.parse(reparsed.render()) == reparsed


def test_token_file_round_trip():
    songs = [
        TokenizedSong(id="a", label="german", tokens=("21_20", "20_00")),
        TokenizedSong(id="b", label="chinese", tokens=("00_21",)),
    ]
    assert read_token_file(write_token_file(songs)) == songs


def test_token_file_rejects_malformed_line():
    with pytest.raises(ValueError, match="line 1"):
        read_token_file("missing-tabs\n")


def test_tokenize_corpus_drops_untokenizable_melodies():
    good = quarter_note_melody([60, 62, 64])
    good.id = "good"
    bad = Melody(id="bad", label="l", meter=[(0, 4, 4)], events=[note(60, 1, 0)])
    songs = tokenize_corpus([good, bad], "intervallic", multiword=2)
    assert [s.id for s in songs] == ["good"]
    assert songs[0].tokens == ("21_21",)
