import json
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from folkmotif.kern import ParseError, parse_kern
from folkmotif.synth import SynthConfig, generate_corpus
from folkmotif.melody import (
    CorpusError,
    Melody,
    NoteEvent,
    load_corpus,
    melody_from_dict,
    read_jsonl,
    song_name_problem,
    write_jsonl,
)

DURATIONS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)]


@st.composite
def melodies(draw):
    num = draw(st.integers(min_value=2, max_value=6))
    capacity = Fraction(4 * num, 4)
    n_measures = draw(st.integers(min_value=1, max_value=3))
    events = []
    for measure in range(n_measures):
        onset = Fraction(0)
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            dur = draw(st.sampled_from(DURATIONS))
            if onset + dur > capacity:
                break
            pitch = draw(st.one_of(st.none(), st.integers(min_value=36, max_value=96)))
            events.append(NoteEvent(pitch=pitch, duration=dur, onset=onset, measure=measure))
            onset += dur
    mid = draw(st.text(alphabet="abc123", min_size=1, max_size=8))
    label = draw(st.sampled_from(["german", "chinese", "swedish"]))
    melody = Melody(id=mid, label=label, meter=[(0, num, 4)], events=events)
    melody.validate()
    return melody


def test_note_event_invariants():
    with pytest.raises(ValueError):
        NoteEvent(pitch=60, duration=Fraction(0), onset=Fraction(0), measure=0)
    with pytest.raises(ValueError):
        NoteEvent(pitch=60, duration=Fraction(1), onset=Fraction(-1), measure=0)
    with pytest.raises(ValueError):
        NoteEvent(pitch=200, duration=Fraction(1), onset=Fraction(0), measure=0)


@pytest.mark.parametrize("field", ["duration", "onset"])
@pytest.mark.parametrize("value", [1.0, 0.5, True, False, "1"],
                         ids=["float", "float-half", "true", "false", "str"])
def test_note_event_refuses_a_time_that_is_not_a_fraction_or_int(field, value):
    times = {"duration": Fraction(1), "onset": Fraction(0), field: value}
    message = f"{field} must be a Fraction or an int, got {value!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        NoteEvent(pitch=60, measure=0, **times)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"measure": 1.5}, "measure must be an integer, got 1.5"),
        ({"measure": True}, "measure must be an integer, got True"),
        ({"pitch": True}, "pitch must be an integer or null, got True"),
        ({"pitch": "60"}, "pitch must be an integer or null, got '60'"),
        ({"pitch": 60.5}, "pitch must be an integer or null, got 60.5"),
    ],
    ids=["float-measure", "bool-measure", "bool-pitch", "str-pitch", "float-pitch"],
)
def test_note_event_refuses_a_pitch_or_measure_that_is_not_an_int(fields, message):
    fields = {"pitch": 60, "duration": Fraction(1), "onset": Fraction(0), "measure": 0, **fields}
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        NoteEvent(**fields)


ORDER = "meter changes must start at strictly ascending measures, none negative, got"
NOT_A_TRIPLE = "meter change must be a [measure, num, den] integer triple, got"


@pytest.mark.parametrize(
    "meter,events,message",
    [
        ([(0, 4, 3)], None, "unsupported meter 4/3"),
        ([(0, 4, 4), (0, 3, 4)], None, f"{ORDER} [[0, 4, 4], [0, 3, 4]]"),
        ([(2, 3, 4), (0, 4, 4)], None, f"{ORDER} [[2, 3, 4], [0, 4, 4]]"),
        ([(-1, 4, 4)], None, f"{ORDER} [[-1, 4, 4]]"),
        ([(0, 4.0, 4)], None, f"{NOT_A_TRIPLE} [0, 4.0, 4]"),
        ([(0, True, 4)], None, f"{NOT_A_TRIPLE} [0, True, 4]"),
        ([(0, 4)], None, f"{NOT_A_TRIPLE} [0, 4]"),
        ([(0, 4, 4)], [(1, 0), (0, 0)], "melody 's': measures out of order"),
        ([(0, 4, 4)], [(0, 2), (0, 1)], "melody 's': onsets not strictly increasing in measure 0"),
    ],
    ids=["odd-meter", "repeated-start", "descending-starts", "negative-start",
         "float-numerator", "bool-numerator", "pair", "measures-out-of-order",
         "onsets-out-of-order"],
)
def test_melody_refuses_a_bad_meter_or_events_out_of_order_when_built(meter, events, message):
    events = [NoteEvent(pitch=60, duration=Fraction(1), onset=Fraction(onset), measure=measure)
              for measure, onset in events or [(0, 0)]]
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        Melody(id="s", label="x", meter=meter, events=events)


# Values of every type and sign a caller might pass, valid or not.
ANY_VALUE = {
    "pitch": st.one_of(st.none(), st.integers(-2, 130), st.booleans(), st.floats(0, 128),
                       st.sampled_from(["60", b"60"])),
    "duration": st.one_of(st.fractions(-1, 6, max_denominator=12), st.integers(-1, 6),
                          st.booleans(), st.floats(-1, 6), st.just("1")),
    "measure": st.one_of(st.integers(-1, 3), st.booleans(), st.floats(-1, 3)),
    "meter": st.lists(
        st.tuples(st.integers(-1, 3), st.integers(-1, 7), st.integers(-1, 16))
        | st.tuples(*[st.integers(-1, 16) | st.booleans() | st.floats(-1, 16)
                      | st.sampled_from(["4", b"4"])] * 3),
        max_size=3,
    ),
}
ANY_VALUE["onset"] = ANY_VALUE["duration"]


@given(melodies(), st.sampled_from([None, *ANY_VALUE]), st.data())
def test_a_melody_is_refused_when_built_or_survives_jsonl(melody, field, data):
    """Set one field of a valid melody, its meter or one event's pitch, time
    or measure, to any value. Construction then refuses it with a
    ValueError, or the melody's JSONL reads back as the same melody."""
    meter = data.draw(ANY_VALUE["meter"]) if field == "meter" else melody.meter
    events = [vars(e).copy() for e in melody.events]
    if field not in (None, "meter"):
        events[data.draw(st.integers(0, len(events) - 1))][field] = data.draw(ANY_VALUE[field])
    try:
        built = Melody(melody.id, melody.label, meter, [NoteEvent(**e) for e in events])
    except ValueError:
        return
    assert read_jsonl(write_jsonl([built])) == [built]


def test_a_built_melody_cannot_change_in_place():
    """Its meter and events are tuples, so the check made when it was built
    stays true; its id and label can still be set."""
    melody = Melody(id="s", label="x", meter=[[0, 4, 4]],
                    events=[NoteEvent(pitch=60, duration=Fraction(1), onset=Fraction(0), measure=0)])
    assert melody.meter == ((0, 4, 4),)
    with pytest.raises(AttributeError):
        melody.events.append(NoteEvent(pitch=64, duration=Fraction(1), onset=Fraction(0), measure=0))
    with pytest.raises(TypeError):
        melody.meter[0][1] = 3
    melody.id, melody.label = "t", "y"
    assert (melody.id, melody.label) == ("t", "y")


def test_note_event_takes_plain_int_times():
    melody = Melody(id="s", label="x", meter=[(0, 4, 4)], events=[
        NoteEvent(pitch=60, duration=1, onset=0, measure=0),
        NoteEvent(pitch=62, duration=Fraction(3), onset=1, measure=0),
    ])
    melody.validate()
    events = read_jsonl(write_jsonl([melody]))[0].events
    assert [(e.onset, e.duration) for e in events] == [(0, 1), (1, 3)]


@pytest.mark.parametrize(
    "event,message",
    [
        ({"duration": [0, 1]}, "duration must be positive, got 0"),
        ({"duration": [1, -2]}, "duration must be positive, got -1/2"),
        ({"onset": [-1, 3]}, "onset must be non-negative, got -1/3"),
    ],
    ids=["zero-duration", "negative-duration", "negative-onset"],
)
def test_melody_from_dict_reports_a_note_event_refusal_with_its_line(event, message):
    # A [num, den] pair always loads as a Fraction, so from JSONL the
    # NoteEvent can only refuse a sign; its message keeps the field's name.
    record = json.loads(one_note_record(**event))
    expected = f"line 7: {message}"
    with pytest.raises(CorpusError, match="^" + re.escape(expected) + "$") as info:
        melody_from_dict(record, 7)
    assert info.value.line == 7


def test_jsonl_kern_and_synth_melodies_carry_fractions():
    kern = parse_kern("**kern\n*M6/8\n4.c\n8d\n12e\n12f\n12g\n=\n4r\n*-\n", "k", "x")
    synth = generate_corpus(SynthConfig(songs_per_class=2, min_length=5, max_length=9))
    jsonl = read_jsonl(write_jsonl([kern, *synth]))
    for melody in [kern, *synth.melodies, *jsonl]:
        for e in melody.events:
            assert type(e.onset) is Fraction and type(e.duration) is Fraction


def test_validate_rejects_overfull_measure():
    with pytest.raises(ValueError, match="overflow"):
        Melody(
            id="x",
            label="german",
            meter=[(0, 2, 4)],
            events=[NoteEvent(pitch=60, duration=Fraction(3), onset=Fraction(0), measure=0)],
        )


def test_validate_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        Melody(
            id="x",
            label="german",
            meter=[(0, 4, 4)],
            events=[
                NoteEvent(pitch=60, duration=Fraction(2), onset=Fraction(0), measure=0),
                NoteEvent(pitch=62, duration=Fraction(1), onset=Fraction(1), measure=0),
            ],
        )


def test_meter_changes_apply_from_their_measure():
    m = Melody(id="x", label="l", meter=[(0, 4, 4), (2, 3, 4)], events=[])
    assert m.meter_at(0) == (4, 4)
    assert m.meter_at(1) == (4, 4)
    assert m.meter_at(2) == (3, 4)


@given(melodies())
def test_jsonl_round_trip(melody):
    """Serialization then parsing reproduces the corpus exactly."""
    assert read_jsonl(write_jsonl([melody])) == [melody]


def test_triplet_duration_round_trips_exactly():
    m = Melody(
        id="t",
        label="german",
        meter=[(0, 4, 4)],
        events=[NoteEvent(pitch=60, duration=Fraction(1, 3), onset=Fraction(0), measure=0)],
    )
    data = write_jsonl([m])
    assert b"[1, 3]" in data
    assert read_jsonl(data)[0].events[0].duration == Fraction(1, 3)


def test_truncated_line_reports_line_number():
    m = Melody(
        id="t",
        label="german",
        meter=[(0, 4, 4)],
        events=[NoteEvent(pitch=60, duration=Fraction(1), onset=Fraction(0), measure=0)],
    )
    data = write_jsonl([m, m])
    with pytest.raises(CorpusError, match="line 2"):
        read_jsonl(data[:-10])


VALID_A = "**kern\n*M4/4\n4c\n4d\n4e\n4f\n=\n*-\n"
VALID_B = "**kern\n*M2/4\n4g\n4a\n=\n*-\n"


def test_load_corpus_labels_and_order(tmp_path):
    (tmp_path / "b.krn").write_text(VALID_B)
    (tmp_path / "a.krn").write_text(VALID_A)
    corpus = load_corpus([(str(tmp_path / "b.krn"), "german"), (str(tmp_path / "a.krn"), "german")])
    assert len(corpus) == 2
    assert corpus.diagnostics.skip_count == 0
    assert [m.id for m in corpus] == ["a", "b"]
    assert all(m.label == "german" for m in corpus)


def test_load_corpus_skips_corrupt_file(tmp_path):
    (tmp_path / "good.krn").write_text(VALID_A)
    (tmp_path / "bad.krn").write_text("**kern\n*M4/4\n4q\n*-\n")
    corpus = load_corpus([(str(tmp_path / "good.krn"), "x"), (str(tmp_path / "bad.krn"), "x")])
    assert len(corpus) == 1
    assert corpus.diagnostics.skip_count == 1
    assert "bad.krn" in corpus.diagnostics.skipped[0][0]


def test_load_corpus_empty_is_error():
    with pytest.raises(CorpusError, match="empty corpus"):
        load_corpus([])


def test_load_corpus_duplicate_ids_error(tmp_path):
    d1 = tmp_path / "d1"
    d2 = tmp_path / "d2"
    d1.mkdir()
    d2.mkdir()
    (d1 / "same.krn").write_text(VALID_A)
    (d2 / "same.krn").write_text(VALID_B)
    with pytest.raises(CorpusError, match="duplicate"):
        load_corpus([(str(d1 / "same.krn"), "x"), (str(d2 / "same.krn"), "y")])


def test_load_corpus_reads_jsonl(tmp_path):
    m = Melody(
        id="j1",
        label="swedish",
        meter=[(0, 4, 4)],
        events=[NoteEvent(pitch=60, duration=Fraction(1), onset=Fraction(0), measure=0)],
    )
    (tmp_path / "c.jsonl").write_bytes(write_jsonl([m]))
    corpus = load_corpus([(str(tmp_path / "c.jsonl"), None)])
    assert corpus.melodies == [m]


def test_transposed_shifts_pitches_only():
    m = Melody(
        id="t",
        label="l",
        meter=[(0, 4, 4)],
        events=[
            NoteEvent(pitch=60, duration=Fraction(1), onset=Fraction(0), measure=0),
            NoteEvent(pitch=None, duration=Fraction(1), onset=Fraction(1), measure=0),
        ],
    )
    shifted = m.transposed(5)
    assert [e.pitch for e in shifted.events] == [65, None]
    assert [e.duration for e in shifted.events] == [Fraction(1), Fraction(1)]


def one_note(song_id, label):
    events = [NoteEvent(pitch=60, duration=Fraction(1), onset=Fraction(0), measure=0)]
    return Melody(id=song_id, label=label, meter=[(0, 4, 4)], events=events)


@pytest.mark.parametrize(
    "song_id,label,message",
    [
        ("../esc3", "german", "song id '../esc3' holds '/'"),
        ("a\\b", "german", "song id 'a\\\\b' holds '\\\\'"),
        ("..", "german", "song id '..' is not a file name"),
        ("", "german", "song id '' is not a file name"),
        ("a\tb", "german", "song id 'a\\tb' holds '\\t'"),
        ("my song", "german", "song id 'my song' holds ' '"),
        ("a\x07", "german", "song id 'a\\x07' holds '\\x07'"),
        ("s1", "my class", "song 's1': class name 'my class' holds ' '"),
        ("s1", "ger\nman", "song 's1': class name 'ger\\nman' holds '\\n'"),
    ],
    ids=["parent-dir", "backslash", "dotdot", "empty", "tab", "space", "control",
         "class-space", "class-newline"],
)
def test_read_jsonl_refuses_a_name_that_breaks_a_file(song_id, label, message):
    with pytest.raises(CorpusError, match="^" + re.escape(f"line 1: {message}") + "$"):
        read_jsonl(write_jsonl([one_note(song_id, label)]))


def test_song_names_may_hold_punctuation_and_an_empty_class():
    melody = one_note('song-1,"take_2"', "")
    assert song_name_problem(melody.id, melody.label) is None
    assert read_jsonl(write_jsonl([melody])) == [melody]


def test_load_corpus_refuses_a_kern_stem_with_a_space(tmp_path):
    (tmp_path / "a.krn").write_text(VALID_A)
    (tmp_path / "my song.krn").write_text(VALID_B)
    pairs = [(str(tmp_path / "a.krn"), "x"), (str(tmp_path / "my song.krn"), "x")]
    message = f"{tmp_path / 'my song.krn'}: song id 'my song' holds ' '"
    with pytest.raises(CorpusError, match="^" + re.escape(message) + "$"):
        load_corpus(pairs)


def test_load_corpus_refuses_a_class_name_with_a_space(tmp_path):
    (tmp_path / "a.krn").write_text(VALID_A)
    message = f"{tmp_path / 'a.krn'}: song 'a': class name 'my class' holds ' '"
    with pytest.raises(CorpusError, match="^" + re.escape(message) + "$"):
        load_corpus([(str(tmp_path / "a.krn"), "my class")])


def one_note_record(meter=([0, 4, 4],), song_id="s", **event):
    fields = {"pitch": 60, "duration": [1, 1], "onset": [0, 1], "measure": 0, **event}
    record = {"id": song_id, "label": "x", "meter": list(meter), "events": [fields]}
    return json.dumps(record).encode()


@pytest.mark.parametrize(
    "event,message",
    [
        ({"pitch": 60.5}, "pitch must be an integer or null, got 60.5"),
        ({"pitch": True}, "pitch must be an integer or null, got True"),
        ({"pitch": "60"}, "pitch must be an integer or null, got '60'"),
        ({"measure": 2.9}, "measure must be an integer, got 2.9"),
        ({"measure": True}, "measure must be an integer, got True"),
        ({"duration": [True, 2]}, "rational must be a [num, den] integer pair, got [True, 2]"),
        ({"duration": [1, 0]}, "rational has a zero denominator: [1, 0]"),
        ({"duration": [5, 1]}, "melody 's': event at measure 0 overflows the meter"),
    ],
    ids=["float-pitch", "bool-pitch", "str-pitch", "float-measure", "bool-measure",
         "bool-rational", "zero-denominator", "overfull"],
)
def test_read_jsonl_refuses_a_bad_event_naming_its_line(event, message):
    data = write_jsonl([one_note("a", "x")]) + one_note_record(**event) + b"\n"
    with pytest.raises(CorpusError, match="^" + re.escape(f"line 2: {message}") + "$"):
        read_jsonl(data)


def test_load_corpus_skips_a_jsonl_file_with_an_invalid_melody(tmp_path):
    (tmp_path / "a.krn").write_text(VALID_A)
    (tmp_path / "b.jsonl").write_bytes(one_note_record(duration=[5, 1]) + b"\n")
    corpus = load_corpus([(str(tmp_path / "a.krn"), "x"), (str(tmp_path / "b.jsonl"), None)])
    assert [m.id for m in corpus] == ["a"]
    assert "overflows the meter" in corpus.diagnostics.skipped[0][1]


@pytest.mark.parametrize(
    "change,message",
    [
        ([0, 4.7, 4], f"{NOT_A_TRIPLE} [0, 4.7, 4]"),
        ([0, True, 4], f"{NOT_A_TRIPLE} [0, True, 4]"),
        ([0, 4], f"{NOT_A_TRIPLE} [0, 4]"),
        ([0, 4, 0], "unsupported meter 4/0"),
        ([0, 4, 3], "unsupported meter 4/3"),
        ([0, 0, 4], "unsupported meter 0/4"),
    ],
    ids=["float", "bool", "pair", "zero-denominator", "odd-denominator", "zero-numerator"],
)
def test_read_jsonl_refuses_a_bad_meter_naming_its_line(change, message):
    data = write_jsonl([one_note("a", "x")]) + one_note_record(meter=[change]) + b"\n"
    with pytest.raises(CorpusError, match="^" + re.escape(f"line 2: {message}") + "$"):
        read_jsonl(data)


@pytest.mark.parametrize(
    "meter",
    [[[-3, 4, 4]], [[0, 4, 4], [0, 3, 4]], [[2, 3, 4], [0, 4, 4]]],
    ids=["negative", "repeated", "out-of-order"],
)
def test_read_jsonl_refuses_meter_changes_out_of_order_naming_the_meter(meter):
    data = write_jsonl([one_note("a", "x")]) + one_note_record(meter=meter) + b"\n"
    message = (
        f"line 2: meter changes must start at strictly ascending measures, none negative, got {meter!r}"
    )
    with pytest.raises(CorpusError, match="^" + re.escape(message) + "$"):
        read_jsonl(data)


def test_jsonl_and_kern_refuse_the_same_meter():
    with pytest.raises(ParseError, match="^line 2: unsupported meter 4/3$"):
        parse_kern("**kern\n*M4/3\n4c\n*-\n")
    with pytest.raises(CorpusError, match="^line 1: unsupported meter 4/3$"):
        read_jsonl(one_note_record(meter=[[0, 4, 3]]))


def test_load_corpus_skips_a_jsonl_file_with_a_zero_meter_denominator(tmp_path):
    (tmp_path / "a.krn").write_text(VALID_A)
    (tmp_path / "b.jsonl").write_bytes(one_note_record(meter=[[0, 4, 0]]) + b"\n")
    corpus = load_corpus([(str(tmp_path / "a.krn"), "x"), (str(tmp_path / "b.jsonl"), None)])
    assert [m.id for m in corpus] == ["a"]
    skipped = [(str(tmp_path / "b.jsonl"), "line 1: unsupported meter 4/0")]
    assert corpus.diagnostics.skipped == skipped


def test_read_jsonl_refuses_a_repeated_id_naming_its_line():
    data = one_note_record(song_id="s") + b"\n\n" + one_note_record(song_id="s") + b"\n"
    with pytest.raises(CorpusError, match="^line 3: duplicate melody id 's'$"):
        read_jsonl(data)


def test_load_corpus_skips_a_jsonl_file_with_a_repeated_id(tmp_path):
    (tmp_path / "a.krn").write_text(VALID_A)
    (tmp_path / "b.jsonl").write_bytes(write_jsonl([one_note("s", "x"), one_note("s", "y")]))
    corpus = load_corpus([(str(tmp_path / "a.krn"), "x"), (str(tmp_path / "b.jsonl"), None)])
    assert [m.id for m in corpus] == ["a"]
    skipped = [(str(tmp_path / "b.jsonl"), "line 2: duplicate melody id 's'")]
    assert corpus.diagnostics.skipped == skipped
