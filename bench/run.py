#!/usr/bin/env python3
"""folkmotif benchmark: times the user's path through the package from outside.

    python3 bench/run.py --workload attn-interval --seed 1 --seconds 55 --trace 0

A run imports the package from ``src/`` and writes the workload's inputs,
generated from the seed, to disk (set-up). It then repeats the pipeline
until ``--seconds`` have passed: ``load_corpus`` on the files,
``run_experiment`` into an output directory, then inference from the
written artifacts, one song at a time in a closed loop with one caller,
in passes over every song for at least PREDICT_MIN_S (traced repetitions
make exactly one pass, so per-layer counts do not depend on speed).
Every repetition's
outputs are checked; a failed check counts as a failure. Times are scaled
to a reference machine speed with ``calibrate()``; the unscaled median is
printed too.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
it alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones (see ``tracing.py``), plus the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print the
same numbers for people. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

END_TO_END = (
    ("pipeline_s", "s"),
    ("setup_s", "s"),
    ("predict_ms_p50", "ms"),
    ("predict_ms_p95", "ms"),
    ("accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("experiment.run_experiment.s", "s"),
    ("experiment.run_experiment.self_s", "s"),
    ("melody.load_corpus.s", "s"),
    ("kern.parse_kern.calls", "count"),
    ("kern.parse_kern.s", "s"),
    ("tokens.tokenize_corpus.s", "s"),
    ("tokens.tokenize_corpus.motifs", "count"),
    ("tokens.phrase_merge.s", "s"),
    ("vocab.build_vocab.s", "s"),
    ("vocab.build_vocab.V", "count"),
    ("sgns.train_skipgram.s", "s"),
    ("sgns.train_skipgram.self_s", "s"),
    ("sgns.train_skipgram.tokens_per_s", "1/s"),
    ("sgns.pair_objective.calls", "count"),
    ("sgns.pair_objective.s", "s"),
    ("vocab.SamplingDist.draw.calls", "count"),
    ("vocab.SamplingDist.draw.s", "s"),
    ("sgns.train_pvdbow.s", "s"),
    ("sgns.train_pvdbow.tokens_per_s", "1/s"),
    ("sgns.write_embeddings.s", "s"),
    ("metrics.split_dataset.s", "s"),
    ("metrics.evaluate.s", "s"),
    ("metrics.render_report.s", "s"),
    ("attention.make_examples.s", "s"),
    ("attention.train_classifier.s", "s"),
    ("attention.train_classifier.self_s", "s"),
    ("attention.train_classifier.songs_per_s", "1/s"),
    ("attention.backward.calls", "count"),
    ("attention.backward.s", "s"),
    ("attention.save_model.s", "s"),
    ("attention.save_model.bytes", "B"),
    ("attention.load_model.s", "s"),
    ("attention.predict.calls", "count"),
    ("attention.predict.s", "s"),
    ("baselines.train_linear_svm.s", "s"),
    ("trace.overhead_s", "s"),
)
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
SETUP_REPEATS = 5
MIN_REPEATS = 4  # the trace run needs at least two traced and two untraced
# Inference passes over every song repeat until this much time is measured,
# so microsecond-scale predictions are sampled across a stretch of time too.
PREDICT_MIN_S = 1.0
# Latencies go into buffers allocated and touched once per run, so the
# harness's own memory does not vary with how many predictions fit.
MAX_PREDICTIONS = 300_000
# calibrate() on the reference machine, a 2-core Xeon (see results/BENCH_1.json).
CAL_REFERENCE_S = 0.23


@dataclass
class Repetition:
    pipeline_s: float  # wall time, as measured
    seconds: float  # the whole repetition, inference and checks included
    traced: bool
    scale: float = 1.0  # CAL_REFERENCE_S over the calibration time around this repetition
    accuracy: float = 0.0
    predictions: int = 0
    p50_ms: float = 0.0  # inference latency percentiles of this repetition
    p95_ms: float = 0.0
    problems: list = field(default_factory=list)  # one entry per failed operation
    layers: dict = field(default_factory=dict)


def import_package():
    """Import folkmotif from the checkout's ``src/`` only; None if it is not there.

    BLAS runs on one thread, unlike a user's default of one per core: the
    program's matrices are small, and a second BLAS thread makes its times
    depend on how busy the other core is, which on a shared machine no
    calibration can follow. A gain that only a second BLAS thread brings
    does not show here.
    """
    src = ROOT / "src"
    if not (src / "folkmotif" / "__init__.py").is_file():
        return None
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import folkmotif

    return folkmotif


def calibrate(np) -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls.

    The shared machines this runs on change speed by tens of percent from
    one few-second stretch to the next, for every process alike. Timing
    this loop on both sides of each repetition and scaling the
    repetition's times by ``CAL_REFERENCE_S / calibration`` reports them
    as seconds on the reference machine; on a shared 2-core machine that
    halved the spread of single repetitions.
    The loop mirrors the pipeline's hot paths: 200x200 matrix-vector
    products as in the GRU, and gather, score and scatter-add as in SGNS.
    """
    rng = np.random.default_rng(0)
    recurrent = rng.random((200, 200)) / 200.0
    state = rng.random(200)
    table = rng.random((64, 150))
    target = rng.random(150)
    rows = np.arange(6)
    start = time.perf_counter()
    for _ in range(4000):
        state = np.tanh(recurrent @ state)
        scores = table[rows] @ target
        np.add.at(table, rows, -1e-6 * np.outer(scores, target))
    return time.perf_counter() - start


def write_inputs(fm, workload, seed: int, directory: Path):
    """Generate and write the inputs SETUP_REPEATS times; keep the last copy."""
    times = []
    for k in range(SETUP_REPEATS):
        target = directory / f"inputs-{k}"
        start = time.perf_counter()
        target.mkdir(parents=True)
        pairs = workload.write_inputs(fm, workload, seed, target)
        times.append(time.perf_counter() - start)
        if k + 1 < SETUP_REPEATS:
            shutil.rmtree(target)
    return pairs, statistics.median(times)


def expected_test_count(workload, config) -> int:
    # split_dataset rounds each class's test share half-up.
    share = workload.songs_per_class * (1.0 - config.split_ratio)
    return int(share + 0.5) * len(workload.classes)


def check_outputs(fm, workload, config, corpus, report, out_dir: Path, rep: Repetition):
    """Checks on the pipeline's own outputs; returns {test id: predicted label}."""
    if corpus.diagnostics.skip_count or len(corpus) != workload.n_songs:
        rep.problems.append(
            f"load_corpus kept {len(corpus)} of {workload.n_songs} songs "
            f"and skipped {corpus.diagnostics.skip_count} files"
        )
    metrics_text = (out_dir / "metrics.json").read_text(encoding="utf-8")
    reread = fm.MetricsReport.from_json(metrics_text)
    if reread.to_json() != metrics_text or reread.accuracy != report.accuracy:
        rep.problems.append("metrics.json does not round-trip through MetricsReport.from_json")
    rep.accuracy = reread.accuracy
    if rep.accuracy < workload.accuracy_floor:
        rep.problems.append(f"accuracy {rep.accuracy:.4f} below {workload.accuracy_floor}")
    rows = (out_dir / "predictions.csv").read_text(encoding="utf-8").splitlines()[1:]
    if len(rows) != expected_test_count(workload, config):
        rep.problems.append(
            f"predictions.csv has {len(rows)} rows for {expected_test_count(workload, config)} test songs"
        )
    return {song_id: predicted for song_id, _, predicted in (row.split(",") for row in rows)}


def _read(out_dir: Path, name: str) -> str:
    return (out_dir / name).read_text(encoding="utf-8")


def load_predictor(fm, config, out_dir: Path, rep: Repetition):
    """Load the trained model from the artifacts, as a user would.

    Returns ``call(song)``, the timed inference, and ``check(song, result)``,
    which returns the predicted label and a problem string or None.
    """
    vocab = fm.vocab.read_vocab(_read(out_dir, "vocab.tsv"))
    if config.model == "attention":
        model, meta = fm.load_model(_read(out_dir, "model.txt"))
        if meta.get("vocab_sha256") != fm.attention.vocab_digest(vocab):
            rep.problems.append("checkpoint vocab_sha256 does not match vocab.tsv")
        _, matrix = fm.read_embeddings(_read(out_dir, "embeddings.txt"))
        embeddings = fm.Embeddings(vocab, matrix, matrix)
        max_len = config.classifier.max_len

        def call(song):
            return fm.predict_song(model, song, embeddings, max_len)

        def check(song, result):
            label, probs, weighted = result
            kept = [t for t in song.tokens if t in vocab][:max_len]
            if abs(float(probs.sum()) - 1.0) > 1e-9:
                return label, f"{song.id}: probabilities sum to {float(probs.sum())}"
            if abs(sum(w for _, w in weighted) - 1.0) > 1e-9:
                return label, f"{song.id}: attention weights do not sum to 1"
            if [m for m, _ in weighted] != kept:
                return label, f"{song.id}: {len(weighted)} attention weights for {len(kept)} motifs"
            return label, None

        return call, check

    svm, classes = fm.baselines.read_svm(_read(out_dir, "svm.txt"))
    ids, matrix = fm.read_embeddings(_read(out_dir, "song_vectors.txt"))
    rows = dict(zip(ids, matrix))

    def call(song):
        return fm.predict_svm(svm, rows[song.id])

    return call, lambda song, result: (classes[result], None)


def repetition(fm, workload, config, pairs, out_dir: Path, buffers, tracer=None) -> Repetition:
    if out_dir.exists():
        shutil.rmtree(out_dir)
    start = time.perf_counter()
    corpus = fm.load_corpus(pairs)
    report, _ = fm.run_experiment(config, corpus, str(out_dir))
    pipeline_s = time.perf_counter() - start
    rep = Repetition(pipeline_s=pipeline_s, seconds=0.0, traced=tracer is not None)
    test_predictions = check_outputs(fm, workload, config, corpus, report, out_dir, rep)

    call, check = load_predictor(fm, config, out_dir, rep)
    songs = fm.tokens.read_token_file(_read(out_dir, "tokens.tsv"))
    latencies_ms, ordered = buffers
    n = 0
    measured_s = 0.0
    while songs and n + len(songs) <= len(latencies_ms):
        for song in songs:
            t0 = time.perf_counter()
            result = call(song)
            seconds = time.perf_counter() - t0
            measured_s += seconds
            latencies_ms[n] = seconds * 1e3
            n += 1
            label, problem = check(song, result)
            if problem is None and test_predictions.get(song.id, label) != label:
                problem = f"{song.id}: reloaded model predicts {label}, the pipeline {test_predictions[song.id]}"
            if problem is not None:
                rep.problems.append(problem)
        if tracer is not None or measured_s >= PREDICT_MIN_S:
            break
    rep.predictions = n
    ordered[:n] = latencies_ms[:n]
    ordered[:n].sort()
    rep.p50_ms = float(ordered[(n - 1) // 2] + ordered[n // 2]) / 2.0
    rep.p95_ms = float(ordered[math.ceil(0.95 * n) - 1])
    rep.seconds = time.perf_counter() - start
    return rep


def layer_metrics(tracer: Tracer, config, scale: float) -> dict:
    """Per-layer numbers for the tracer's current run; 0 for layers not reached.

    Times and rates are scaled to the reference machine like pipeline_s.
    """
    out = {name: 0.0 for name, _ in PER_LAYER}

    def add(key, value):
        if key in out:
            out[key] += value

    for span in tracer.run_spans():
        add(f"{span.name}.s", span.seconds)
        add(f"{span.name}.self_s", span.self_s)
        for key, value in span.counts.items():
            add(f"{span.name}.{key}", value)
    for name, (calls, seconds) in tracer.leaves.items():
        add(f"{name}.calls", calls)
        add(f"{name}.s", seconds)

    def rate(work, seconds_key):
        return work / out[seconds_key] if out[seconds_key] > 0 else 0.0

    centres = out["tokens.tokenize_corpus.motifs"] * config.embedding.epochs
    out["sgns.train_skipgram.tokens_per_s"] = rate(centres, "sgns.train_skipgram.s")
    out["sgns.train_pvdbow.tokens_per_s"] = rate(centres, "sgns.train_pvdbow.s")
    out["attention.train_classifier.songs_per_s"] = rate(
        out["attention.backward.calls"], "attention.train_classifier.s"
    )
    for name, unit in PER_LAYER:
        if unit == "s":
            out[name] *= scale
        elif unit == "1/s":
            out[name] /= scale
    return out


def measure(fm, np, workload, config, pairs, work: Path, seconds: float, trace: bool):
    tracer = Tracer() if trace else None
    reps: list[Repetition] = []
    failed_reps = 0
    start = time.perf_counter()
    buffers = (np.full(MAX_PREDICTIONS, np.nan), np.full(MAX_PREDICTIONS, np.nan))
    calibration = calibrate(np)
    while True:
        traced = trace and len(reps) % 2 == 1
        if traced:
            tracer.start_run(len(reps))
            tracer.install()
        rep_start = time.perf_counter()
        try:
            rep = repetition(
                fm, workload, config, pairs, work / "out", buffers, tracer if traced else None
            )
        except Exception as exc:  # a crash of the program under test is a failed repetition
            rep = Repetition(pipeline_s=0.0, seconds=time.perf_counter() - rep_start, traced=traced)
            rep.problems.append(f"{type(exc).__name__}: {exc}")
            failed_reps += 1
        finally:
            if traced:
                tracer.uninstall()
        after = calibrate(np)
        rep.scale = CAL_REFERENCE_S / ((calibration + after) / 2.0)
        calibration = after
        if traced and not rep.problems:
            rep.layers = layer_metrics(tracer, config, rep.scale)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.seconds for r in reps)
        if len(reps) >= 2 and (
            elapsed + typical > seconds if len(reps) >= MIN_REPEATS else elapsed > 2 * seconds
        ):
            break
    return reps, tracer, failed_reps


def summarize(reps, tracer, setup_s: float, trace: bool) -> dict:
    ok = [r for r in reps if not r.problems]
    if trace:
        traced = [r for r in ok if r.traced]
        untraced = [r for r in ok if not r.traced]
        if not traced or not untraced:
            return {}
        values = {name: statistics.median(r.layers[name] for r in traced) for name, _ in PER_LAYER}
        values["trace.overhead_s"] = statistics.median(
            r.pipeline_s * r.scale for r in traced
        ) - statistics.median(r.pipeline_s * r.scale for r in untraced)
        units = dict(PER_LAYER)
    else:
        if not ok:
            return {}
        values = {
            "pipeline_s": statistics.median(r.pipeline_s * r.scale for r in ok),
            "setup_s": setup_s,
            # Per repetition, then averaged: microsecond-scale inference settles
            # in one of two speeds per repetition, and a median would flip
            # between them from run to run.
            "predict_ms_p50": statistics.mean(r.p50_ms * r.scale for r in ok),
            "predict_ms_p95": statistics.mean(r.p95_ms * r.scale for r in ok),
            "accuracy": statistics.median(r.accuracy for r in ok),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


def run(workload, seed: int, seconds: float, trace: bool) -> int:
    import_start = time.perf_counter()
    fm = import_package()
    if fm is None:
        print(f"error: no folkmotif package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - import_start
    import numpy as np  # already loaded by the package

    config = fm.ExperimentConfig.from_dict(workload.config)
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        setup_scale = CAL_REFERENCE_S / calibrate(np)
        pairs, write_s = write_inputs(fm, workload, seed, work)
        reps, tracer, failed_reps = measure(fm, np, workload, config, pairs, work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = summarize(reps, tracer, (import_s + write_s) * setup_scale, trace)
    predictions = sum(r.predictions for r in reps)
    attempted = len(reps) + predictions
    failed = sum(len(r.problems) for r in reps)
    correct = failed == 0 and bool(metrics)

    print(
        f"{workload.name} seed {seed} trace {int(trace)}: {len(reps)} repetitions "
        f"({failed_reps} crashed), {predictions} predictions"
    )
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    if reps:
        print(f"  {'unscaled pipeline_s (median)':<40} {statistics.median(r.pipeline_s for r in reps):>14.6g} s")
        print(f"  {'machine speed (calibration scale)':<40} {statistics.median(r.scale for r in reps):>14.6g}")
    print(f"  {'failed_ratio':<40} {failed / attempted:>14.6g} ({failed}/{attempted})")
    for problem in [p for r in reps for p in r.problems][:10]:
        print(f"  problem: {problem}")
    if trace:
        if tracer.absent:
            print(f"  absent layers (reported as 0): {', '.join(tracer.absent)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
