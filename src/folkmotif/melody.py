"""Canonical melody representation and the JSONL interchange format.

A melody is an ordered list of note/rest events with exact rational
durations (in quarter-note units) and metric positions. Durations stay
`Fraction` end to end so triplets round-trip without loss.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence

logger = logging.getLogger(__name__)


class CorpusError(ValueError):
    """Raised for corpus-level problems: empty corpus, duplicate ids, bad JSONL."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def song_name_problem(song_id: str, label: str) -> Optional[str]:
    """Why a song id or class name would break an output file, or None.

    Ids name files (``--alpha-dir``) and, like class names, fill fields of
    space-separated rows (``song_vectors.txt``, ``svm.txt``). So neither may
    hold whitespace or a control character, and an id must be one non-empty
    path component: no ``/`` or ``\\``, and not ``.`` or ``..``. An empty
    class name is allowed; it marks an unlabeled kern file.
    """
    if song_id in ("", ".", ".."):
        return f"song id {song_id!r} is not a file name"
    bad = next((c for c in song_id if c in "/\\" or _breaks_a_row(c)), None)
    if bad is not None:
        return f"song id {song_id!r} holds {bad!r}"
    bad = next((c for c in label if _breaks_a_row(c)), None)
    if bad is not None:
        return f"song {song_id!r}: class name {label!r} holds {bad!r}"
    return None


def corpus_problem(melodies: Iterable[Melody]) -> Optional[tuple[int, str]]:
    """The index of the first song that cannot join a corpus, and why; or None.

    A song cannot join when ``song_name_problem`` finds its id or class name
    would break an output file, or when an earlier song has its id. Only
    ``id`` and ``label`` are read, so tokenized songs are checked the same way.
    """
    seen: set[str] = set()
    for i, m in enumerate(melodies):
        problem = song_name_problem(m.id, m.label)
        if problem is None and m.id in seen:
            problem = f"duplicate melody id {m.id!r}"
        if problem is not None:
            return i, problem
        seen.add(m.id)
    return None


def _breaks_a_row(c: str) -> bool:
    # The control characters (Unicode category Cc) are exactly U+0000-U+001F
    # and U+007F-U+009F.
    return c.isspace() or c < "\x20" or "\x7f" <= c <= "\x9f"


@dataclass(frozen=True)
class NoteEvent:
    """One note or rest. ``pitch`` is a MIDI number, ``None`` for a rest."""

    pitch: Optional[int]
    duration: Fraction  # quarter-note units, > 0
    onset: Fraction  # quarter-note units from the start of the measure
    measure: int

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.onset < 0:
            raise ValueError(f"onset must be non-negative, got {self.onset}")
        if self.measure < 0:
            raise ValueError(f"measure index must be non-negative, got {self.measure}")
        if self.pitch is not None and not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch out of MIDI range: {self.pitch}")


# (first measure index the meter applies to, numerator, denominator)
MeterChange = tuple[int, int, int]


@dataclass
class Melody:
    """A monophonic song: events ordered by (measure, onset), plus meter map."""

    id: str
    label: str
    meter: list[MeterChange]
    events: list[NoteEvent]

    def meter_at(self, measure: int) -> tuple[int, int]:
        """Active (numerator, denominator) for a measure index."""
        active = None
        for start, num, den in self.meter:
            if start <= measure:
                active = (num, den)
            else:
                break
        if active is None:
            raise ValueError(f"melody {self.id!r} has no meter at measure {measure}")
        return active

    def measure_capacity(self, measure: int) -> Fraction:
        """Quarter-note capacity of a measure under its active meter."""
        num, den = self.meter_at(measure)
        return Fraction(4 * num, den)

    def pitched_events(self) -> list[NoteEvent]:
        return [e for e in self.events if e.pitch is not None]

    def validate(self) -> None:
        """Check ordering, monophony, and metric-position invariants."""
        if not self.meter:
            raise ValueError(f"melody {self.id!r} has no meter")
        prev: Optional[NoteEvent] = None
        prev_end = measure = capacity = None
        for ev in self.events:
            if ev.measure != measure:
                measure, capacity = ev.measure, self.measure_capacity(ev.measure)
            end = ev.onset + ev.duration
            if end > capacity:
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
                    if ev.onset < prev_end:
                        raise ValueError(
                            f"melody {self.id!r}: overlapping events in measure {ev.measure}"
                        )
            prev, prev_end = ev, end

    def transposed(self, semitones: int) -> "Melody":
        """Copy with all pitches shifted; rests untouched. Pitches must stay in range."""
        events = [
            NoteEvent(
                pitch=None if e.pitch is None else e.pitch + semitones,
                duration=e.duration,
                onset=e.onset,
                measure=e.measure,
            )
            for e in self.events
        ]
        return Melody(id=self.id, label=self.label, meter=list(self.meter), events=events)


@dataclass
class CorpusDiagnostics:
    skipped: list[tuple[str, str]] = field(default_factory=list)  # (path, reason)

    @property
    def skip_count(self) -> int:
        return len(self.skipped)


@dataclass
class LabeledCorpus:
    melodies: list[Melody]
    diagnostics: CorpusDiagnostics = field(default_factory=CorpusDiagnostics)

    def __len__(self) -> int:
        return len(self.melodies)

    def __iter__(self):
        return iter(self.melodies)

    def labels(self) -> list[str]:
        return sorted({m.label for m in self.melodies})


def _frac_to_pair(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def _is_int(x) -> bool:
    # JSON true and false load as bools, which Python counts as ints.
    return isinstance(x, int) and not isinstance(x, bool)


def _pair_to_frac(pair, line: int) -> Fraction:
    if not isinstance(pair, list) or len(pair) != 2 or not all(_is_int(x) for x in pair):
        raise CorpusError(f"rational must be a [num, den] integer pair, got {pair!r}", line)
    if pair[1] == 0:
        raise CorpusError(f"rational has a zero denominator: {pair!r}", line)
    return Fraction(pair[0], pair[1])


def melody_to_dict(melody: Melody) -> dict:
    return {
        "id": melody.id,
        "label": melody.label,
        "meter": [[start, num, den] for start, num, den in melody.meter],
        "events": [
            {
                "pitch": e.pitch,
                "duration": _frac_to_pair(e.duration),
                "onset": _frac_to_pair(e.onset),
                "measure": e.measure,
            }
            for e in melody.events
        ],
    }


def _event_from_dict(e: dict, line: int) -> NoteEvent:
    pitch, measure = e["pitch"], e["measure"]
    if pitch is not None and not _is_int(pitch):
        raise CorpusError(f"pitch must be an integer or null, got {pitch!r}", line)
    if not _is_int(measure):
        raise CorpusError(f"measure must be an integer, got {measure!r}", line)
    return NoteEvent(
        pitch=pitch,
        duration=_pair_to_frac(e["duration"], line),
        onset=_pair_to_frac(e["onset"], line),
        measure=measure,
    )


def melody_from_dict(obj: dict, line: int = 0) -> Melody:
    try:
        meter = [(int(s), int(n), int(d)) for s, n, d in obj["meter"]]
        events = [_event_from_dict(e, line) for e in obj["events"]]
        melody = Melody(id=str(obj["id"]), label=str(obj["label"]), meter=meter, events=events)
    except CorpusError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusError(f"malformed melody record: {exc}", line) from exc
    problem = song_name_problem(melody.id, melody.label)
    if problem:
        raise CorpusError(problem, line)
    try:
        melody.validate()
    except ValueError as exc:
        raise CorpusError(str(exc), line) from exc
    return melody


def write_jsonl(corpus: Iterable[Melody]) -> bytes:
    """Serialize a corpus, one melody object per line."""
    lines = [json.dumps(melody_to_dict(m), sort_keys=True) for m in corpus]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def read_jsonl(data: bytes) -> list[Melody]:
    """Parse canonical JSONL; raises CorpusError with the offending line number."""
    melodies = []
    for lineno, raw in enumerate(data.decode("utf-8").splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"invalid JSON: {exc.msg}", lineno) from exc
        melodies.append(melody_from_dict(obj, lineno))
    return melodies


def load_corpus(paths: Sequence[tuple[str, Optional[str]]]) -> LabeledCorpus:
    """Load melodies from kern or JSONL files, attaching labels.

    ``paths`` is a list of (file path, label) pairs; a ``None`` label keeps
    whatever the file records (JSONL input). Files that fail to parse are
    skipped and reported in the diagnostics. The corpus is ordered by the
    sorted file paths so repeated loads are deterministic.
    """
    from .kern import ParseError, parse_kern

    melodies: list[Melody] = []
    sources: list[str] = []  # the file of each melody
    diagnostics = CorpusDiagnostics()
    for path, label in sorted(paths, key=lambda pair: str(pair[0])):
        p = Path(path)
        try:
            text = p.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            diagnostics.skipped.append((str(path), str(exc)))
            logger.warning("skipping %s: %s", path, exc)
            continue
        try:
            if text.lstrip().startswith(("{", "[")) or p.suffix == ".jsonl":
                loaded = read_jsonl(text.encode("utf-8"))
            else:
                loaded = [parse_kern(text, id=p.stem, label=label or "")]
        except (ParseError, CorpusError) as exc:
            diagnostics.skipped.append((str(path), str(exc)))
            logger.warning("skipping %s: %s", path, exc)
            continue
        if label is not None:
            for m in loaded:
                m.label = label
        melodies.extend(loaded)
        sources.extend([str(path)] * len(loaded))
    if not melodies:
        raise CorpusError("empty corpus: no melody could be loaded")
    # A kern id is the file stem and the label comes from the caller: a bad
    # name is the corpus's problem, not a file to skip.
    found = corpus_problem(melodies)
    if found is not None:
        raise CorpusError(f"{sources[found[0]]}: {found[1]}")
    if diagnostics.skip_count:
        logger.info("loaded %d melodies, skipped %d files", len(melodies), diagnostics.skip_count)
    return LabeledCorpus(melodies=melodies, diagnostics=diagnostics)
