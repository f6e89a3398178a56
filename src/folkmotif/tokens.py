"""Interval and rhythm token strings, and multi-word (n-gram) construction.

Tokens are the "words" of the embedding corpus. An interval token is the
chromatic size followed by a direction digit ("21" = ascending major
second, "30" = descending minor third, "00" = repetition). A rhythm token
is "<note>-<downbeat>-<duration>", e.g. "1-1-0.5" for an eighth note on a
downbeat. Multi-words join n consecutive tokens with underscores.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Optional, Sequence

from .melody import CorpusError, Melody, NoteEvent, corpus_problem


def format_duration(duration: Fraction) -> str:
    """Shortest exact decimal up to 4 places; longer expansions truncate."""
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    scaled = (duration.numerator * 10_000) // duration.denominator
    if scaled % 10_000 == 0:
        return str(scaled // 10_000)
    return f"{scaled // 10_000}.{scaled % 10_000:04d}".rstrip("0")


def interval_token(prev: NoteEvent, nxt: NoteEvent) -> str:
    """Chromatic interval between two pitched events, as its token string."""
    if prev.pitch is None or nxt.pitch is None:
        raise ValueError("interval tokens are defined between pitched events")
    size = abs(nxt.pitch - prev.pitch)
    if size == 0:
        return "00"
    return f"{size}{1 if nxt.pitch > prev.pitch else 0}"


def interval_size(token: str) -> int:
    """The chromatic size of an interval token, the inverse of ``interval_token``:
    "00", or a size without a leading zero followed by the direction digit."""
    if not re.fullmatch(r"00|[1-9][0-9]*[01]", token):
        raise ValueError(f"not an interval token: {token!r}")
    return int(token[:-1])


def beat_unit(meter: tuple[int, int]) -> Fraction:
    """Beat length in quarters: dotted quarter in compound meters, else a quarter."""
    num, den = meter
    if den == 8 and num in (6, 9, 12):
        return Fraction(3, 2)
    return Fraction(1)


# A corpus holds a few dozen to a few hundred distinct rhythm tokens. The key
# is integers: hashing two Fractions per event cost three times the lookup.
@functools.lru_cache(maxsize=1024)
def _rhythm_token(is_note: bool, onset_num: int, onset_den: int,
                  duration_num: int, duration_den: int, meter: tuple[int, int]) -> str:
    on_beat = (Fraction(onset_num, onset_den) % beat_unit(meter)) == 0
    return f"{int(is_note)}-{int(on_beat)}-{format_duration(Fraction(duration_num, duration_den))}"


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
        return [interval_token(a, b) for a, b in zip(pitched, pitched[1:])]
    if mode == "rhythmic":
        tokens = []
        measure = meter = None
        for e in melody.events:
            if e.measure != measure:
                measure, meter = e.measure, melody.meter_at(e.measure)
            onset, duration = e.onset, e.duration
            tokens.append(_rhythm_token(e.pitch is not None, onset.numerator, onset.denominator,
                                        duration.numerator, duration.denominator, meter))
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
    """Parse ``write_token_file`` output; a CorpusError names the bad line.

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
            raise CorpusError("expected id<TAB>label<TAB>tokens", lineno)
        sid, label, toks = fields
        songs.append(TokenizedSong(id=sid, label=label, tokens=tuple(toks.split())))
        linenos.append(lineno)
    found = corpus_problem(songs)
    if found is not None:
        raise CorpusError(found[1], linenos[found[0]])
    return songs


def tokenize_corpus(
    melodies: Iterable[Melody],
    mode: Mode,
    multiword: Optional[int] = None,
    multiword_mode: Literal["sliding", "phrase"] = "sliding",
) -> list[TokenizedSong]:
    """Tokenize every melody, optionally re-chunking into multiwords.

    Melodies with fewer than 2 pitched events are dropped in intervallic
    mode, which has no token for them; any other melody that cannot be
    tokenized raises.
    """
    songs = []
    for m in melodies:
        if mode == "intervallic" and len(m.pitched_events()) < 2:
            continue
        tokens = tokenize_melody(m, mode)
        if multiword is not None:
            tokens = build_multiwords(tokens, multiword, multiword_mode)
        songs.append(TokenizedSong(id=m.id, label=m.label, tokens=tuple(tokens)))
    return songs
