from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from folkmotif.kern import ParseError, parse_kern


def test_parses_two_notes():
    """Header, meter, two notes, barline, terminator."""
    m = parse_kern("**kern\n*M4/4\n4c\n8d\n=\n*-")
    assert [(e.pitch, e.duration) for e in m.events] == [
        (60, Fraction(1)),
        (62, Fraction(1, 2)),
    ]
    assert all(e.measure == 0 for e in m.events)
    assert m.meter == [(0, 4, 4)]


def test_parses_rest_then_note():
    m = parse_kern("**kern\n*M2/4\n4r\n4c\n=\n*-")
    assert [(e.pitch, e.duration, e.onset) for e in m.events] == [
        (None, Fraction(1), Fraction(0)),
        (60, Fraction(1), Fraction(1)),
    ]


def test_unknown_pitch_token_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_kern("**kern\n*M4/4\n4q\n*-")
    assert exc.value.line == 3
    assert "unknown pitch token" in str(exc.value)


def test_octave_mapping():
    """Lowercase letters climb from C4, uppercase descend from C3."""
    text = "**kern\n*M4/4\n4c\n4cc\n4C\n4CC\n=\n*-"
    m = parse_kern(text)
    assert [e.pitch for e in m.events] == [60, 72, 48, 36]


def test_accidentals():
    m = parse_kern("**kern\n*M4/4\n4c#\n4d-\n4e--\n4fn\n=\n*-")
    assert [e.pitch for e in m.events] == [61, 61, 62, 65]


def test_dotted_durations():
    m = parse_kern("**kern\n*M4/4\n4.c\n8..d\n=\n*-")
    assert m.events[0].duration == Fraction(3, 2)
    assert m.events[1].duration == Fraction(7, 8)


def test_barlines_advance_measures_and_reset_onsets():
    m = parse_kern("**kern\n*M2/4\n4c\n4d\n=\n4e\n4f\n=\n*-")
    assert [(e.measure, e.onset) for e in m.events] == [
        (0, Fraction(0)),
        (0, Fraction(1)),
        (1, Fraction(0)),
        (1, Fraction(1)),
    ]


def test_pickup_measure_may_be_short():
    m = parse_kern("**kern\n*M4/4\n4c\n=\n4d\n4e\n4f\n4g\n=\n*-")
    assert m.events[0].measure == 0
    assert m.events[1].measure == 1


def test_meter_change_applies_to_next_measure():
    text = "**kern\n*M4/4\n4c\n4d\n4e\n4f\n=\n*M3/4\n4c\n4d\n4e\n=\n*-"
    m = parse_kern(text)
    assert m.meter == [(0, 4, 4), (1, 3, 4)]


def test_overfull_measure_is_rejected():
    with pytest.raises(ParseError) as exc:
        parse_kern("**kern\n*M2/4\n4c\n4d\n4e\n=\n*-")
    assert exc.value.line == 5
    assert "overfull" in str(exc.value)


def test_missing_header():
    with pytest.raises(ParseError, match="missing \\*\\*kern header"):
        parse_kern("*M4/4\n4c\n*-")


def test_multiple_spines_rejected():
    with pytest.raises(ParseError, match="polyphonic"):
        parse_kern("**kern\t**kern\n*M4/4\t*M4/4\n4c\t4e\n*-\t*-")


def test_ties_rejected():
    with pytest.raises(ParseError, match="ties"):
        parse_kern("**kern\n*M4/4\n[2c\n2c]\n=\n*-")


def test_chords_rejected():
    """A second space-separated note on a data record is refused, not dropped."""
    with pytest.raises(ParseError) as exc:
        parse_kern("**kern\n*M4/4\n4c 4e\n4d\n*-")
    assert exc.value.line == 3
    assert "chords are not supported" in str(exc.value)


def test_note_before_meter_rejected():
    with pytest.raises(ParseError, match="meter"):
        parse_kern("**kern\n4c\n*-")


def test_comments_and_extra_interpretations_ignored():
    text = (
        "!! Essen-style header\n**kern\n*ICvox\n*clefG2\n*k[f#]\n*M4/4\n*MM96\n"
        "! local comment\n{8g\n8e;\n4.c}\n4r\n=\n*-"
    )
    m = parse_kern(text)
    assert [e.pitch for e in m.events] == [67, 64, 60, None]


def test_beam_marks_stripped():
    m = parse_kern("**kern\n*M4/4\n8cL\n8dJ\n=\n*-")
    assert [e.pitch for e in m.events] == [60, 62]


@pytest.mark.parametrize("token,quarters", [("0c", 8), ("00c", 16)])
def test_breve_duration(token, quarters):
    m = parse_kern(f"**kern\n*M8/2\n{token}\n=\n*-")
    assert m.events[0].duration == Fraction(quarters)


@given(st.text(alphabet="kern*M/=48cdr#-.[]{}\n\t qX", max_size=80))
def test_total_on_arbitrary_text(text):
    """Any input yields a Melody or a ParseError, never another exception."""
    try:
        parse_kern(text)
    except ParseError:
        pass


def test_a_cached_bad_token_is_reported_at_each_files_own_line():
    for text, line in [("**kern\n*M4/4\n4q\n*-", 3), ("**kern\n*M4/4\n4c\n4d\n=\n4q\n*-", 6)]:
        with pytest.raises(ParseError, match="unknown pitch token") as exc:
            parse_kern(text)
        assert exc.value.line == line


def test_a_cached_token_accepted_in_one_measure_is_overfull_in_another():
    m = parse_kern("**kern\n*M3/4\n2c\n=\n2c\n4c\n=\n*-")
    assert [e.duration for e in m.events] == [Fraction(2), Fraction(2), Fraction(1)]
    with pytest.raises(ParseError, match="measure 1 overfull: 4 > 3 quarters") as exc:
        parse_kern("**kern\n*M3/4\n2c\n=\n2c\n2c\n=\n*-")
    assert exc.value.line == 6
