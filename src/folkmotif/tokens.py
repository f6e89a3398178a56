"""Interval and rhythm token strings, and multi-word (n-gram) construction.

Tokens are the "words" of the embedding corpus. An interval token is the
chromatic size followed by a direction digit ("21" = ascending major
second, "30" = descending minor third, "00" = repetition). A rhythm token
is "<note>-<downbeat>-<duration>", e.g. "1-1-0.5" for an eighth note on a
downbeat. Multi-words join n consecutive tokens with underscores.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Optional, Sequence

from .melody import Melody, NoteEvent, corpus_problem


def format_duration(duration: Fraction) -> str:
    """Shortest exact decimal up to 4 places; longer expansions truncate."""
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    scaled = (duration.numerator * 10_000) // duration.denominator
    if scaled % 10_000 == 0:
        return str(scaled // 10_000)
    return f"{scaled // 10_000}.{scaled % 10_000:04d}".rstrip("0")


@dataclass(frozen=True)
class IntervalToken:
    size: int  # chromatic semitones, >= 0
    ascending: bool  # False for descending; always False when size == 0

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"interval size must be non-negative, got {self.size}")
        if self.size == 0 and self.ascending:
            raise ValueError("a repeated note has no direction")

    def render(self) -> str:
        if self.size == 0:
            return "00"
        return f"{self.size}{1 if self.ascending else 0}"

    @classmethod
    def parse(cls, text: str) -> "IntervalToken":
        if text == "00":
            return cls(size=0, ascending=False)
        if len(text) < 2 or not text.isdigit():
            raise ValueError(f"not an interval token: {text!r}")
        return cls(size=int(text[:-1]), ascending=text[-1] == "1")


@dataclass(frozen=True)
class RhythmToken:
    is_note: bool
    is_downbeat: bool
    duration: Fraction

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")

    def render(self) -> str:
        return f"{int(self.is_note)}-{int(self.is_downbeat)}-{format_duration(self.duration)}"

    @classmethod
    def parse(cls, text: str) -> "RhythmToken":
        parts = text.split("-")
        if len(parts) != 3 or parts[0] not in "01" or parts[1] not in "01":
            raise ValueError(f"not a rhythm token: {text!r}")
        return cls(is_note=parts[0] == "1", is_downbeat=parts[1] == "1", duration=Fraction(parts[2]))


def interval_token(prev: NoteEvent, nxt: NoteEvent) -> IntervalToken:
    """Chromatic interval between two pitched events."""
    if prev.pitch is None or nxt.pitch is None:
        raise ValueError("interval tokens are defined between pitched events")
    size = abs(nxt.pitch - prev.pitch)
    return IntervalToken(size=size, ascending=size > 0 and nxt.pitch > prev.pitch)


def beat_unit(meter: tuple[int, int]) -> Fraction:
    """Beat length in quarters: dotted quarter in compound meters, else a quarter."""
    num, den = meter
    if den == 8 and num in (6, 9, 12):
        return Fraction(3, 2)
    return Fraction(1)


# A corpus holds a few dozen to a few hundred distinct rhythm tokens.
@functools.lru_cache(maxsize=1024)
def render_rhythm(is_note: bool, onset: Fraction, duration: Fraction, meter: tuple[int, int]) -> str:
    """The rendered rhythm token of a note (or rest) at ``onset`` in a measure of ``meter``."""
    on_beat = (onset % beat_unit(meter)) == 0
    return RhythmToken(is_note=is_note, is_downbeat=on_beat, duration=duration).render()


Mode = Literal["intervallic", "rhythmic"]


def tokenize_melody(melody: Melody, mode: Mode) -> list[str]:
    """Render a melody as its ordered token strings."""
    if mode == "intervallic":
        pitched = melody.pitched_events()
        if len(pitched) < 2:
            raise ValueError(
                f"melody {melody.id!r} has {len(pitched)} pitched events; "
                "intervallic tokens need at least 2"
            )
        return [interval_token(a, b).render() for a, b in zip(pitched, pitched[1:])]
    if mode == "rhythmic":
        tokens = []
        measure = meter = None
        for e in melody.events:
            if e.measure != measure:
                measure, meter = e.measure, melody.meter_at(e.measure)
            tokens.append(render_rhythm(e.pitch is not None, e.onset, e.duration, meter))
        return tokens
    raise ValueError(f"unknown tokenization mode {mode!r}")


_PHRASE_DELTA = 5.0  # discount on the bigram count
_PHRASE_THRESHOLD = 1e-4


def build_multiwords(
    seq: Sequence[str],
    n: int,
    mode: Literal["sliding", "phrase"] = "sliding",
) -> list[str]:
    """Fixed-size multiwords from a token sequence.

    Sliding mode emits every contiguous n-gram (stride 1); sequences shorter
    than n give an empty list. Phrase mode runs n-1 greedy bigram-merge
    passes using counts from the sequence itself; for corpus-level counts
    use ``phrase_merge`` on all sequences together.
    """
    if n < 2:
        raise ValueError(f"multiword size must be at least 2, got {n}")
    if mode == "sliding":
        return ["_".join(seq[i : i + n]) for i in range(len(seq) - n + 1)]
    if mode == "phrase":
        return phrase_merge([list(seq)], passes=n - 1)[0]
    raise ValueError(f"unknown multiword mode {mode!r}")


def phrase_merge(sequences: list[list[str]], passes: int = 1) -> list[list[str]]:
    """Iterative bigram merging: join adjacent (a, b) into "a_b" when
    (count(ab) - _PHRASE_DELTA) / (count(a) * count(b)) exceeds _PHRASE_THRESHOLD."""
    current = [list(seq) for seq in sequences]
    for _ in range(passes):
        unigrams: Counter[str] = Counter()
        bigrams: Counter[tuple[str, str]] = Counter()
        for seq in current:
            unigrams.update(seq)
            bigrams.update(zip(seq, seq[1:]))
        merged_any = False
        result = []
        for seq in current:
            out: list[str] = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq):
                    a, b = seq[i], seq[i + 1]
                    score = (bigrams[(a, b)] - _PHRASE_DELTA) / (unigrams[a] * unigrams[b])
                    if score > _PHRASE_THRESHOLD:
                        out.append(f"{a}_{b}")
                        merged_any = True
                        i += 2
                        continue
                out.append(seq[i])
                i += 1
            result.append(out)
        current = result
        if not merged_any:
            break
    return current


@dataclass(frozen=True)
class TokenizedSong:
    id: str
    label: str
    tokens: tuple[str, ...]


def write_token_file(songs: Iterable[TokenizedSong]) -> str:
    """One song per line: id<TAB>label<TAB>space-separated tokens."""
    return "".join(f"{s.id}\t{s.label}\t{' '.join(s.tokens)}\n" for s in songs)


def read_token_file(text: str) -> list[TokenizedSong]:
    """Parse ``write_token_file`` output; a ValueError names the bad line.

    Songs are checked with ``corpus_problem``: a name that would break an
    output file, or an id an earlier line already used, is refused.
    """
    songs = []
    linenos = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected id<TAB>label<TAB>tokens")
        sid, label, toks = fields
        songs.append(TokenizedSong(id=sid, label=label, tokens=tuple(toks.split())))
        linenos.append(lineno)
    found = corpus_problem(songs)
    if found is not None:
        raise ValueError(f"line {linenos[found[0]]}: {found[1]}")
    return songs


def tokenize_corpus(
    melodies: Iterable[Melody],
    mode: Mode,
    multiword: Optional[int] = None,
    multiword_mode: Literal["sliding", "phrase"] = "sliding",
) -> list[TokenizedSong]:
    """Tokenize every melody, optionally re-chunking into multiwords.

    Melodies that cannot be tokenized (too few pitched events in
    intervallic mode) are dropped.
    """
    songs = []
    for m in melodies:
        try:
            tokens = tokenize_melody(m, mode)
        except ValueError:
            continue
        if multiword is not None:
            tokens = build_multiwords(tokens, multiword, multiword_mode)
        songs.append(TokenizedSong(id=m.id, label=m.label, tokens=tuple(tokens)))
    return songs
