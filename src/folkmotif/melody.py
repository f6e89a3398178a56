"""Canonical melody representation and the JSONL interchange format.

A melody is an ordered list of note/rest events with exact rational
durations (in quarter-note units) and metric positions. Times stay
`Fraction` (or plain `int`) end to end so triplets round-trip without loss.
A melody is checked when built, by `NoteEvent` and `Melody.validate` alone,
whether it comes from kern, JSONL, `synth` or a caller; `validate` compares
integer ticks on one grid, so a song costs no `Fraction` arithmetic per event.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence

logger = logging.getLogger(__name__)


class CorpusError(ValueError):
    """A song file or corpus this package refuses: an empty corpus, a duplicate id,
    or a bad JSONL, kern or token file. Given a 1-based line, the message names it."""

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
        # A float would lose a triplet or a measure, and a bool is an int to
        # Python. Both are refused here rather than failing later in rhythm
        # tokens or in the JSONL that write_jsonl would write.
        duration, onset, pitch, measure = self.duration, self.onset, self.pitch, self.measure
        if not _is_time(duration):
            raise ValueError(f"duration must be a Fraction or an int, got {duration!r}")
        if not _is_time(onset):
            raise ValueError(f"onset must be a Fraction or an int, got {onset!r}")
        if pitch is not None and type(pitch) is not int:
            raise ValueError(f"pitch must be an integer or null, got {pitch!r}")
        if type(measure) is not int:
            raise ValueError(f"measure must be an integer, got {measure!r}")
        if duration.numerator <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if onset.numerator < 0:
            raise ValueError(f"onset must be non-negative, got {onset}")
        if measure < 0:
            raise ValueError(f"measure index must be non-negative, got {measure}")
        if pitch is not None and not 0 <= pitch <= 127:
            raise ValueError(f"pitch out of MIDI range: {pitch}")


def _is_time(x) -> bool:
    return isinstance(x, Fraction) or type(x) is int


# (first measure index the meter applies to, numerator, denominator)
MeterChange = tuple[int, int, int]


def meter_problem(num: int, den: int) -> Optional[str]:
    """Why num/den is not a meter this package reads, or None: the numerator
    must be positive and the denominator a positive power of two."""
    if num <= 0 or den <= 0 or den & (den - 1):
        return f"unsupported meter {num}/{den}"
    return None


@dataclass
class Melody:
    """A monophonic song: events ordered by (measure, onset), plus meter map. Checked
    when built, with ``meter`` and ``events`` stored as tuples so the check stays true."""

    id: str
    label: str
    meter: tuple[MeterChange, ...]  # any sequence of triples when built
    events: tuple[NoteEvent, ...]  # any sequence when built

    def __post_init__(self):
        self.meter = tuple(map(tuple, self.meter))
        self.events = tuple(self.events)
        self.validate()

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

    def pitched_events(self) -> list[NoteEvent]:
        return [e for e in self.events if e.pitch is not None]

    def validate(self) -> None:
        """Check the meter map (each change is three plain ints, each meter
        passes ``meter_problem``, starts strictly ascend, none negative), then
        ordering, monophony and metric positions. The constructor runs it.
        Times go on one grid, the lcm of the meter, onset and duration
        denominators, and are compared as integer ticks.
        """
        meter = self.meter
        if not meter:
            raise ValueError(f"melody {self.id!r} has no meter")
        dens = set()
        last_start = -1
        for change in meter:
            if len(change) != 3 or not all(type(x) is int for x in change):  # no bool either
                raise ValueError("meter change must be a [measure, num, den] integer triple, "
                                 f"got {list(change)!r}")
            start, num, den = change
            problem = meter_problem(num, den)
            if problem is not None:
                raise ValueError(problem)
            if start <= last_start:
                raise ValueError(
                    "meter changes must start at strictly ascending measures, none negative, "
                    f"got {[list(c) for c in meter]!r}"
                )
            last_start = start
            dens.add(den)
        events = self.events
        dens.update(e.onset.denominator for e in events)
        dens.update(e.duration.denominator for e in events)
        grid = math.lcm(*dens)
        ticks = {den: grid // den for den in dens}  # ticks per 1/den quarter
        prev_start = prev_end = measure = capacity = None
        for ev in events:
            if ev.measure != measure:
                num, den = self.meter_at(ev.measure)
                capacity = 4 * num * ticks[den]
            onset, duration = ev.onset, ev.duration
            start = onset.numerator * ticks[onset.denominator]
            end = start + duration.numerator * ticks[duration.denominator]
            if end > capacity:
                raise ValueError(
                    f"melody {self.id!r}: event at measure {ev.measure} overflows the meter"
                )
            if ev.measure == measure:
                if start <= prev_start:
                    raise ValueError(
                        f"melody {self.id!r}: onsets not strictly increasing in "
                        f"measure {measure}"
                    )
                if start < prev_end:
                    raise ValueError(
                        f"melody {self.id!r}: overlapping events in measure {measure}"
                    )
            elif measure is not None and ev.measure < measure:
                raise ValueError(f"melody {self.id!r}: measures out of order")
            measure, prev_start, prev_end = ev.measure, start, end

    def transposed(self, semitones: int) -> "Melody":
        """Copy with all pitches shifted; rests untouched. Pitches must stay in range."""
        events = [e if e.pitch is None else replace(e, pitch=e.pitch + semitones)
                  for e in self.events]
        return replace(self, events=events)


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


def _pair_to_frac(pair, line: int) -> Fraction:
    if not isinstance(pair, list) or len(pair) != 2 or not all(type(x) is int for x in pair):
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


def _meter_from_list(change, line: int) -> list:
    # The Melody constructor checks that the three values are integers.
    if not isinstance(change, list) or len(change) != 3:
        raise CorpusError(
            f"meter change must be a [measure, num, den] integer triple, got {change!r}", line
        )
    return change


def _event_from_dict(e: dict, line: int) -> NoteEvent:
    return NoteEvent(
        pitch=e["pitch"],
        duration=_pair_to_frac(e["duration"], line),
        onset=_pair_to_frac(e["onset"], line),
        measure=e["measure"],
    )


def melody_from_dict(obj: dict, line: int = 0) -> Melody:
    """One JSONL record's melody. A missing key or a wrong shape is a malformed
    record; a refusal of ``NoteEvent`` or ``Melody`` keeps its own message."""
    try:
        meter = [_meter_from_list(change, line) for change in obj["meter"]]
        events = [_event_from_dict(e, line) for e in obj["events"]]
        return Melody(id=str(obj["id"]), label=str(obj["label"]), meter=meter, events=events)
    except CorpusError:
        raise
    except (KeyError, TypeError) as exc:
        raise CorpusError(f"malformed melody record: {exc}", line) from exc
    except ValueError as exc:
        raise CorpusError(str(exc), line) from exc


def write_jsonl(corpus: Iterable[Melody]) -> bytes:
    """Serialize a corpus, one melody object per line."""
    lines = [json.dumps(melody_to_dict(m), sort_keys=True) for m in corpus]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def read_jsonl(data: bytes) -> list[Melody]:
    """Parse canonical JSONL; raises CorpusError with the offending line number.

    Each melody checks itself when built; together they are checked with
    ``corpus_problem``: a name that would break an output file, or an id an
    earlier line already used, is refused.
    """
    melodies = []
    linenos = []
    for lineno, raw in enumerate(data.decode("utf-8").splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"invalid JSON: {exc.msg}", lineno) from exc
        melodies.append(melody_from_dict(obj, lineno))
        linenos.append(lineno)
    found = corpus_problem(melodies)
    if found is not None:
        raise CorpusError(found[1], linenos[found[0]])
    return melodies


def load_corpus(paths: Sequence[tuple[str, Optional[str]]]) -> LabeledCorpus:
    """Load melodies from kern or JSONL files, attaching labels.

    ``paths`` is a list of (file path, label) pairs; a ``None`` label keeps
    whatever the file records (JSONL input). Files that fail to parse are
    skipped and reported in the diagnostics. The corpus is ordered by the
    sorted file paths so repeated loads are deterministic.
    """
    from .kern import parse_kern

    melodies: list[Melody] = []
    sources: list[str] = []  # the file of each melody
    diagnostics = CorpusDiagnostics()
    for path, label in sorted(paths, key=lambda pair: str(pair[0])):
        p = Path(path)
        try:
            text = p.read_text(encoding="utf-8", errors="replace")
            if text.lstrip().startswith(("{", "[")) or p.suffix == ".jsonl":
                loaded = read_jsonl(text.encode("utf-8"))
            else:
                loaded = [parse_kern(text, id=p.stem, label=label or "")]
        except (OSError, CorpusError) as exc:
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
