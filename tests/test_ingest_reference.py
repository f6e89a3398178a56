"""Ingest and rhythmic tokenization against the per-event implementation.

``parse_kern`` parses each distinct note or rest token once, ``Melody.validate``
adds each event's end once and looks each measure's capacity up once, and
rhythmic ``tokenize_melody`` renders each distinct token once. The reference
functions below are the per-event code they replaced, kept verbatim, and the
tests require equal melodies, errors and tokens, compared by ``repr`` so a
Fraction cannot pass as an equal int.
"""

import re
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkmotif.kern import ParseError, _note_or_rest, parse_kern
from folkmotif.melody import Melody, MeterChange, NoteEvent
from folkmotif.tokens import RhythmToken, beat_unit, render_rhythm, tokenize_melody

# ---- reference implementation, verbatim ----

_STEP_SEMITONES = {"c": 0, "d": 2, "e": 4, "f": 5, "g": 7, "a": 9, "b": 11}

_METER_RE = re.compile(r"^\*M(\d+)/(\d+)$")
_TOKEN_RE = re.compile(
    r"^(?P<dur>\d+)(?P<dots>\.*)(?P<body>r|(?P<letters>([a-g])\5*|([A-G])\6*)(?P<acc>[#\-n]*))$"
)


def _duration(digits: str, dots: int) -> Fraction:
    # Kern writes a breve as 0 and a longa as 00: n zeros are 8 * 2^(n-1)
    # quarters. Every other value is a plain reciprocal (4/n quarters).
    if int(digits) == 0:
        base = Fraction(8 * 2 ** (len(digits) - 1))
    else:
        base = Fraction(4, int(digits))
    total = base
    extension = base
    for _ in range(dots):
        extension /= 2
        total += extension
    return total


def _pitch(letters: str, accidentals: str, line: int) -> int:
    step = _STEP_SEMITONES[letters[0].lower()]
    if letters[0].islower():
        octave = 3 + len(letters)  # c=C4, cc=C5, ...
    else:
        octave = 4 - len(letters)  # C=C3, CC=C2, ...
    midi = 12 * (octave + 1) + step
    midi += accidentals.count("#") - accidentals.count("-")
    if not 0 <= midi <= 127:
        raise ParseError(f"pitch out of range: {letters}{accidentals}", line)
    return midi


def reference_parse_kern(text: str, id: str = "", label: str = "") -> Melody:
    lines = text.splitlines()
    header_seen = False
    meter: list[MeterChange] = []
    events: list[NoteEvent] = []
    measure = 0
    onset = Fraction(0)
    events_in_measure = 0
    capacity: Optional[Fraction] = None

    def set_meter(num: int, den: int, line: int) -> None:
        nonlocal capacity
        if num <= 0 or den <= 0 or den & (den - 1):
            raise ParseError(f"unsupported meter {num}/{den}", line)
        start = measure if events_in_measure == 0 else measure + 1
        if meter and meter[-1][0] == start:
            meter[-1] = (start, num, den)
        else:
            meter.append((start, num, den))
        if start == measure:
            capacity = Fraction(4 * num, den)

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("!"):
            continue
        if "\t" in line:
            raise ParseError("polyphonic input: multiple spines", lineno)
        if not header_seen:
            if line == "**kern":
                header_seen = True
                continue
            raise ParseError("missing **kern header", lineno)
        if line == "*-":
            break
        if line.startswith("**"):
            raise ParseError("unexpected extra exclusive interpretation", lineno)
        if line.startswith("*"):
            m = _METER_RE.match(line)
            if m:
                set_meter(int(m.group(1)), int(m.group(2)), lineno)
            continue  # other interpretations (key, clef, sections) are ignored
        if line.startswith("="):
            if events_in_measure:
                measure += 1
                onset = Fraction(0)
                events_in_measure = 0
                # set_meter gives every meter a start no later than the
                # measure after the current one, so the last is in effect.
                _, num, den = meter[-1]
                capacity = Fraction(4 * num, den)
            continue
        token = line.split()[0]
        if any(ch in token for ch in "[]_"):
            raise ParseError("ties are not supported", lineno)
        # Phrase braces, slurs, fermatas, and beam marks carry no pitch or
        # duration information in this subset; L/J are never pitch letters.
        token = re.sub(r"[{}();'\"`LJ]", "", token)
        m = _TOKEN_RE.match(token)
        if m is None:
            if re.match(r"^\d", token):
                raise ParseError(f"unknown pitch token {token!r}", lineno)
            raise ParseError(f"unknown token {token!r}", lineno)
        if capacity is None:
            raise ParseError("note before any meter", lineno)
        dur = _duration(m.group("dur"), len(m.group("dots")))
        if onset + dur > capacity:
            raise ParseError(
                f"measure {measure} overfull: {onset + dur} > {capacity} quarters", lineno
            )
        pitch = None if m.group("body") == "r" else _pitch(m.group("letters"), m.group("acc"), lineno)
        events.append(NoteEvent(pitch=pitch, duration=dur, onset=onset, measure=measure))
        onset += dur
        events_in_measure += 1

    if not header_seen:
        raise ParseError("missing **kern header", 1)
    if not events:
        raise ParseError("no events", len(lines) or 1)
    melody = Melody(id=id, label=label, meter=meter, events=events)
    reference_validate(melody)
    return melody


def reference_validate(self: Melody) -> None:
    """Check ordering, monophony, and metric-position invariants."""
    if not self.meter:
        raise ValueError(f"melody {self.id!r} has no meter")
    prev: Optional[NoteEvent] = None
    for ev in self.events:
        if ev.onset + ev.duration > self.measure_capacity(ev.measure):
            raise ValueError(
                f"melody {self.id!r}: event at measure {ev.measure} overflows the meter"
            )
        if prev is not None:
            if ev.measure < prev.measure:
                raise ValueError(f"melody {self.id!r}: measures out of order")
            if ev.measure == prev.measure:
                if ev.onset <= prev.onset:
                    raise ValueError(
                        f"melody {self.id!r}: onsets not strictly increasing in "
                        f"measure {ev.measure}"
                    )
                if ev.onset < prev.onset + prev.duration:
                    raise ValueError(
                        f"melody {self.id!r}: overlapping events in measure {ev.measure}"
                    )
        prev = ev


def rhythm_token(event: NoteEvent, meter: tuple[int, int]) -> RhythmToken:
    on_beat = (event.onset % beat_unit(meter)) == 0
    return RhythmToken(is_note=event.pitch is not None, is_downbeat=on_beat, duration=event.duration)


def reference_rhythmic_tokens(melody: Melody) -> list[str]:
    return [
        rhythm_token(e, melody.meter_at(e.measure)).render() for e in melody.events
    ]


# ---- comparisons ----


def outcome(fn, *args):
    """repr of the result, or the exception's type, message and line."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None))


def assert_same_song(text):
    melody = parse_kern(text, "s", "x")
    assert repr(melody) == repr(reference_parse_kern(text, "s", "x"))
    assert tokenize_melody(melody, "rhythmic") == reference_rhythmic_tokens(melody)


@pytest.mark.parametrize(
    "text",
    [
        "**kern\n*M4/4\n4.c\n8d\n8..e\n32f\n4g\n=\n2.a\n4r\n=\n*-",
        "**kern\n*M8/2\n0c\n=\n00d\n=\n*-",
        "**kern\n*M2/4\n12c\n12d\n12e\n4f\n=\n24g\n24a\n24b\n8cc\n4dd\n=\n*-",
        "**kern\n*M4/4\n4c#\n4d-\n4e--\n4fn\n=\n4CC##\n4BB-\n4ccc\n4G\n=\n*-",
        "**kern\n*M3/4\n4r\n=\n4r\n2c\n=\n2r\n4d\n=\n*-",
        "**kern\n*M4/4\n8g\n=\n4c\n4d\n4e\n4f\n=\n*-",
        "**kern\n*M6/8\n4.c\n*M3/4\n8d\n8e\n8f\n=\n4g\n4a\n4b\n=\n*M9/8\n4.c\n4.d\n4.e\n=\n*-",
        "**kern\n*M12/8\n{8gL\n8e\n8cJ;\n4.r}\n(4d\n8e)\n'4.f`\n=\n*-",
        "!! comment\n**kern\n*ICvox\n*clefG2\n*k[f#]\n*M4/4\n*MM96\n! local\n{8g\n8e;\n4.c}\n4r\n=\n*-",
    ],
    ids=["dots", "breve-longa", "triplets", "accidentals", "rests", "pickup",
         "meter-changes", "marks", "interpretations"],
)
def test_kern_songs_match_the_reference(text):
    assert_same_song(text)


@pytest.mark.parametrize(
    "text",
    [
        "*M4/4\n4c\n*-",
        "**kern\t**kern\n*M4/4\t*M4/4\n4c\t4e\n*-\t*-",
        "**kern\n*M4/4\n[2c\n2c]\n=\n*-",
        "**kern\n*M4/4\n4q\n*-",
        "**kern\n*M4/4\nx\n*-",
        "**kern\n4c\n*-",
        "**kern\n*M2/4\n4c\n4d\n4e\n=\n*-",
        "**kern\n*M4/4\n4cccccccc\n*-",
        "**kern\n*M3/5\n4c\n*-",
        "**kern\n**kern\n*-",
        "**kern\n*M4/4\n*-",
    ],
    ids=["header", "spines", "ties", "pitch-token", "token", "before-meter", "overfull",
         "pitch-range", "meter", "exclusive", "no-events"],
)
def test_kern_errors_match_the_reference(text):
    assert outcome(parse_kern, text) == outcome(reference_parse_kern, text)


KERN_DURATIONS = {
    "00": Fraction(16), "0": Fraction(8), "1": Fraction(4), "2.": Fraction(3),
    "2": Fraction(2), "4..": Fraction(7, 4), "4.": Fraction(3, 2), "4": Fraction(1),
    "8.": Fraction(3, 4), "8": Fraction(1, 2), "12": Fraction(1, 3), "16": Fraction(1, 4),
    "24": Fraction(1, 6), "32": Fraction(1, 8),
}
BODIES = ("r", "c", "d#", "e-", "fn", "g##", "cc", "bb-", "ccc", "C", "B-", "AA", "GG#")
MARKS = ("", "", "", "L", "J", "{", "}", "(", ")", ";", "'", '"', "`")
METERS = ((2, 4), (3, 4), (4, 4), (5, 4), (6, 8), (9, 8), (12, 8), (3, 2), (3, 8))


@st.composite
def kern_songs(draw):
    """A valid monophonic kern song, with pickups and meter changes both
    between measures and in the middle of one."""
    meter = draw(st.sampled_from(METERS))
    lines = ["!!!OTL: song", "**kern", "*clefG2", f"*M{meter[0]}/{meter[1]}"]
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        remaining = Fraction(4 * meter[0], meter[1])
        next_meter = meter
        for _ in range(draw(st.integers(min_value=1, max_value=8))):
            fits = [d for d, q in KERN_DURATIONS.items() if q <= remaining]
            if not fits:
                break
            dur = draw(st.sampled_from(fits))
            before, after = draw(st.sampled_from(MARKS)), draw(st.sampled_from(MARKS))
            lines.append(f"{before}{dur}{draw(st.sampled_from(BODIES))}{after}")
            remaining -= KERN_DURATIONS[dur]
            if draw(st.integers(min_value=0, max_value=9)) == 0:
                next_meter = draw(st.sampled_from(METERS))
                lines.append(f"*M{next_meter[0]}/{next_meter[1]}")
        lines.append("=")
        meter = next_meter
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            meter = draw(st.sampled_from(METERS))
            lines.append(f"*M{meter[0]}/{meter[1]}")
    lines.append("*-")
    return "\n".join(lines) + "\n"


@settings(max_examples=200)
@given(kern_songs())
def test_generated_kern_songs_match_the_reference(text):
    assert_same_song(text)


@given(st.text(alphabet="kern*M/=4812cdr#-.[]{}\n\tqX", max_size=80))
def test_errors_on_arbitrary_text_match_the_reference(text):
    """Any text gives the same melody or the same ParseError as the reference.

    The parser is fed text without spaces: a line with a second token is a
    chord, which the reference accepted by dropping the rest of the line. A
    line whose pitch is out of range is now refused for that before its
    measure is checked, so the message may differ from the reference's, but
    not the line.
    """
    new, ref = outcome(parse_kern, text), outcome(reference_parse_kern, text)
    if new != ref and isinstance(new, tuple) and "pitch out of range" in new[1]:
        assert ref[2] == new[2] and re.search("before any meter|overfull", ref[1])
    else:
        assert new == ref


FRACTIONS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]


@st.composite
def melodies(draw):
    """A melody that may break any of validate's rules."""
    meter = draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 6), st.sampled_from([2, 4, 8])), max_size=3,
    ))
    event = st.builds(
        NoteEvent,
        pitch=st.one_of(st.none(), st.integers(0, 127)),
        duration=st.sampled_from(FRACTIONS[1:]),
        onset=st.sampled_from(FRACTIONS),
        measure=st.integers(0, 3),
    )
    return Melody(id="m", label="x", meter=meter, events=draw(st.lists(event, max_size=8)))


@settings(max_examples=300)
@given(melodies())
def test_validate_matches_the_reference(melody):
    assert outcome(melody.validate) == outcome(reference_validate, melody)


@pytest.mark.parametrize("cached", [_note_or_rest, render_rhythm],
                         ids=lambda f: f.__name__)
def test_every_ingest_cache_is_bounded(cached):
    assert cached.cache_info().maxsize is not None
