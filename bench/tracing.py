"""Per-layer tracing by wrapping the package's functions from outside.

Each target is patched where its caller looks it up (``folkmotif.experiment
.train_skipgram``, not ``folkmotif.sgns.train_skipgram``), so the wrapper
sees every call the pipeline makes. Stage calls record spans (name, start,
end, parent, run id) in memory; hot leaf calls such as ``pair_objective``
only add to a count and a total, and to the self-time bookkeeping of the
span that encloses them. A target that no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Optional

# (layer name, object the caller looks the name up on, attribute)
STAGES = (
    ("melody.load_corpus", "folkmotif", "load_corpus"),
    ("experiment.run_experiment", "folkmotif", "run_experiment"),
    ("tokens.tokenize_corpus", "folkmotif.experiment", "tokenize_corpus"),
    ("vocab.build_vocab", "folkmotif.experiment", "build_vocab"),
    ("sgns.train_skipgram", "folkmotif.experiment", "train_skipgram"),
    ("metrics.split_dataset", "folkmotif.experiment", "split_dataset"),
    ("attention.make_examples", "folkmotif.experiment", "make_examples"),
    ("attention.train_classifier", "folkmotif.experiment", "train_classifier"),
    ("attention.save_model", "folkmotif.experiment", "save_model"),
    ("sgns.train_pvdbow", "folkmotif.experiment", "train_pvdbow"),
    ("baselines.train_linear_svm", "folkmotif.experiment", "train_linear_svm"),
    ("metrics.evaluate", "folkmotif.experiment", "evaluate"),
    ("metrics.render_report", "folkmotif.experiment", "render_report"),
    ("sgns.write_embeddings", "folkmotif.experiment", "write_embeddings"),
    ("attention.load_model", "folkmotif", "load_model"),
)
# Counts taken from a stage's result after its span has ended.
MEASURES = {
    "tokens.tokenize_corpus": lambda songs: {"motifs": sum(len(s.tokens) for s in songs)},
    "vocab.build_vocab": lambda vocab: {"V": len(vocab)},
    "attention.save_model": lambda text: {"bytes": len(text.encode("utf-8"))},
}
LEAVES = (
    ("kern.parse_kern", "folkmotif.kern", "parse_kern"),
    ("tokens.phrase_merge", "folkmotif.tokens", "phrase_merge"),
    ("sgns.pair_objective", "folkmotif.sgns", "pair_objective"),
    ("vocab.SamplingDist.draw", "folkmotif.vocab.SamplingDist", "draw"),
    ("attention.backward", "folkmotif.attention", "backward"),
    ("attention.predict", "folkmotif.experiment", "predict"),
    ("attention.predict", "folkmotif.attention", "predict"),
)


@dataclass
class Span:
    name: str
    run: int
    index: int  # position in Tracer.spans
    parent: Optional[int]  # index of the enclosing span, None at the top
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans and leaf calls
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


def _resolve(path: str):
    """Import the longest module prefix of a dotted path, then getattr the rest."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    """Install with ``install()``; every call is traced until ``uninstall()``."""

    def __init__(self, stages=STAGES, leaves=LEAVES):
        self.spans: list[Span] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds], current run
        self.absent: list[str] = []
        self.run = 0
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._targets = [(*t, self._span_wrapper) for t in stages] + [
            (*t, self._leaf_wrapper) for t in leaves
        ]

    def install(self) -> None:
        found = set()
        for name, owner_path, attr, make in self._targets:
            try:
                owner = _resolve(owner_path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            found.add(name)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, make(name, fn))
        self.absent = sorted({name for name, *_ in self._targets} - found)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def start_run(self, run: int) -> None:
        self.run = run
        self.leaves = {}

    def run_spans(self) -> list[Span]:
        return [s for s in self.spans if s.run == self.run]

    def _span_wrapper(self, name: str, fn):
        perf_counter = time.perf_counter
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.run, len(self.spans), None if parent is None else parent.index)
            self.spans.append(span)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.seconds
            if measure is not None:
                span.counts = measure(result)
            return result

        return traced

    def _leaf_wrapper(self, name: str, fn):
        perf_counter = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                agg = self.leaves.get(name)
                if agg is None:
                    agg = self.leaves[name] = [0, 0.0]
                agg[0] += 1
                agg[1] += seconds
                if stack:
                    stack[-1].child_s += seconds

        return traced
