"""Parser for a single-spine **kern subset.

Supported: `**kern` header, `*M<n>/<d>` meter tokens, barlines, notes
`<dur><pitch><accidentals>`, rests `<dur>r`, duration dots, and the `*-`
terminator. Phrase braces, fermatas, and comment/interpretation lines that
the subset doesn't model are ignored. Ties and anything else unrecognized
raise ParseError with the offending line number.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .melody import Melody, MeterChange, NoteEvent

_STEP_SEMITONES = {"c": 0, "d": 2, "e": 4, "f": 5, "g": 7, "a": 9, "b": 11}

_METER_RE = re.compile(r"^\*M(\d+)/(\d+)$")
_TOKEN_RE = re.compile(
    r"^(?P<dur>\d+)(?P<dots>\.*)(?P<body>r|(?P<letters>([a-g])\5*|([A-G])\6*)(?P<acc>[#\-n]*))$"
)


class ParseError(ValueError):
    """Kern input the subset grammar cannot accept; carries the 1-based line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


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


def parse_kern(text: str, id: str = "", label: str = "") -> Melody:
    """Parse one monophonic kern file into a Melody.

    Raises ParseError (with line number) on anything outside the subset:
    missing header, multiple spines, unknown tokens, ties, notes before a
    meter, or a measure that overflows its meter.
    """
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
    melody.validate()
    return melody
