"""Parser for a single-spine **kern subset.

Supported: `**kern` header, `*M<n>/<d>` meter tokens, barlines, notes
`<dur><pitch><accidentals>`, rests `<dur>r`, duration dots, and the `*-`
terminator. Phrase braces, fermatas, and comment/interpretation lines that
the subset doesn't model are ignored. Ties, chords (a data record of more
than one space-separated token) and anything else unrecognized raise
ParseError with the offending line number.

A note or rest token is parsed by a pure function of its text, cached, so a
corpus pays for each distinct token once rather than once per event. The
parser keeps a measure's onset and capacity as integer ticks on a grid that
grows when a duration or a meter brings a new denominator, and makes each
onset's `Fraction` once per tick.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Optional, Union

from .melody import CorpusError, Melody, MeterChange, NoteEvent, meter_problem

_STEP_SEMITONES = {"c": 0, "d": 2, "e": 4, "f": 5, "g": 7, "a": 9, "b": 11}

_METER_RE = re.compile(r"^\*M(\d+)/(\d+)$")
_TOKEN_RE = re.compile(
    r"^(?P<dur>\d+)(?P<dots>\.*)(?P<body>r|(?P<letters>([a-g])\5*|([A-G])\6*)(?P<acc>[#\-n]*))$"
)
# Phrase braces, slurs, fermatas, and beam marks carry no pitch or duration
# information in this subset; L/J are never pitch letters.
_MARKS_RE = re.compile(r"[{}();'\"`LJ]")


class ParseError(CorpusError):
    """Kern input the subset grammar cannot accept; carries the 1-based line."""


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


def _pitch(letters: str, accidentals: str) -> int:
    step = _STEP_SEMITONES[letters[0].lower()]
    if letters[0].islower():
        octave = 3 + len(letters)  # c=C4, cc=C5, ...
    else:
        octave = 4 - len(letters)  # C=C3, CC=C2, ...
    midi = 12 * (octave + 1) + step
    return midi + accidentals.count("#") - accidentals.count("-")


# A corpus holds a few dozen to a few hundred distinct note and rest tokens.
@functools.lru_cache(maxsize=1024)
def _note_or_rest(token: str) -> Union[tuple[Fraction, Optional[int]], str]:
    """The (duration, MIDI pitch) of one note or rest token, pitch None for a
    rest; or, for a token the subset refuses, the reason."""
    if any(ch in token for ch in "[]_"):
        return "ties are not supported"
    token = _MARKS_RE.sub("", token)
    m = _TOKEN_RE.match(token)
    if m is None:
        if re.match(r"^\d", token):
            return f"unknown pitch token {token!r}"
        return f"unknown token {token!r}"
    dur = _duration(m.group("dur"), len(m.group("dots")))
    if m.group("body") == "r":
        return dur, None
    pitch = _pitch(m.group("letters"), m.group("acc"))
    if not 0 <= pitch <= 127:
        return f"pitch out of range: {m.group('letters')}{m.group('acc')}"
    return dur, pitch


def parse_kern(text: str, id: str = "", label: str = "") -> Melody:
    """Parse one monophonic kern file into a Melody.

    Raises ParseError (with line number) on anything outside the subset:
    missing header, multiple spines, chords, unknown tokens, ties, notes
    before a meter, or a measure that overflows its meter.
    """
    lines = text.splitlines()
    header_seen = False
    meter: list[MeterChange] = []
    events: list[NoteEvent] = []
    measure = 0
    events_in_measure = 0
    # Times in the current measure, in ticks of 1/grid quarter note.
    grid = 1
    onset = 0
    capacity: Optional[int] = None
    onsets: dict[int, Fraction] = {}  # tick -> onset, on the current grid

    def refine(den: int) -> None:
        """Grow the grid to a multiple of den, rescaling every tick count."""
        nonlocal grid, onset, capacity, onsets
        factor = den // math.gcd(grid, den)
        grid, onset, onsets = grid * factor, onset * factor, {}
        if capacity is not None:
            capacity *= factor

    def set_meter(num: int, den: int, line: int) -> None:
        nonlocal capacity
        problem = meter_problem(num, den)
        if problem is not None:
            raise ParseError(problem, line)
        start = measure if events_in_measure == 0 else measure + 1
        if meter and meter[-1][0] == start:
            meter[-1] = (start, num, den)
        else:
            meter.append((start, num, den))
        if grid % den:
            refine(den)
        if start == measure:
            capacity = 4 * num * grid // den

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
                onset = 0
                events_in_measure = 0
                # set_meter gives every meter a start no later than the
                # measure after the current one, so the last is in effect;
                # it also put the meter's denominator on the grid.
                _, num, den = meter[-1]
                capacity = 4 * num * grid // den
            continue
        fields = line.split()
        if len(fields) > 1:
            raise ParseError("chords are not supported", lineno)
        parsed = _note_or_rest(fields[0])
        if isinstance(parsed, str):
            raise ParseError(parsed, lineno)
        if capacity is None:
            raise ParseError("note before any meter", lineno)
        dur, pitch = parsed
        if grid % dur.denominator:
            refine(dur.denominator)  # before onset is read: it rescales onset
        end = onset + dur.numerator * grid // dur.denominator
        if end > capacity:
            raise ParseError(f"measure {measure} overfull: {Fraction(end, grid)} > "
                             f"{Fraction(capacity, grid)} quarters", lineno)
        start = onsets.get(onset)
        if start is None:
            start = onsets[onset] = Fraction(onset, grid)
        events.append(NoteEvent(pitch=pitch, duration=dur, onset=start, measure=measure))
        onset = end
        events_in_measure += 1

    if not header_seen:
        raise ParseError("missing **kern header", 1)
    if not events:
        raise ParseError("no events", len(lines) or 1)
    return Melody(id=id, label=label, meter=meter, events=events)
