#!/usr/bin/env python3
"""Self-check of the benchmark harness at a tiny size; checks no wall-clock bound.

    python3 bench/selfcheck.py

It runs every workload, shrunk with ``Workload.tiny()``, untraced and
traced, and checks the result line's shape against ``BENCHMARK.json``, that
every output check passed, that the layers each workload exists to
exercise were reached, that the input generators are deterministic, that
a missing trace target is reported as absent, and that the harness fails
cleanly in a directory without the package. Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
import tracing
from workloads import WORKLOADS

# Layers each workload must reach; a 0 here means the harness lost a layer.
REACHED = {
    "attn-interval": ("attention.backward.calls", "attention.save_model.bytes",
                      "attention.load_model.s", "attention.predict.calls"),
    "d2v-rhythm-kern": ("kern.parse_kern.calls", "tokens.phrase_merge.s",
                        "sgns.pair_objective.calls", "vocab.SamplingDist.draw.calls",
                        "sgns.train_pvdbow.s", "baselines.train_linear_svm.s"),
}

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def run_tiny(workload, trace: bool) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(workload.tiny(), seed=1, seconds=0.5, trace=trace)
    lines = out.getvalue().splitlines()
    check(code == 0, f"{workload.name} trace={trace}: exit code {code}\n{out.getvalue()}")
    return json.loads(lines[-1])


def check_contract(spec: dict) -> None:
    check(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
        "BENCHMARK.json end_to_end differs from run.END_TO_END",
    )
    check(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
        "BENCHMARK.json per_layer differs from run.PER_LAYER",
    )
    check(
        {w["name"]: w["why"] for w in spec["workloads"]}
        == {w.name: w.why for w in WORKLOADS.values()},
        "BENCHMARK.json workloads differ from workloads.WORKLOADS",
    )


def check_runs(fm, spec: dict) -> None:
    for workload in WORKLOADS.values():
        for trace, expected in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run_tiny(workload, trace)
            where = f"{workload.name} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys")
            check(result["correct"] and result["failed"] == 0, f"{where}: {result}")
            check(result["attempted"] >= 1, f"{where}: nothing attempted")
            metrics = result["metrics"]
            check(
                {k: v["unit"] for k, v in metrics.items()}
                == {m["name"]: m["unit"] for m in expected},
                f"{where}: metric names or units differ from BENCHMARK.json",
            )
            if trace:
                for name in REACHED[workload.name]:
                    check(metrics.get(name, {}).get("value", 0) > 0, f"{where}: {name} is 0")
                if workload.config["model"] == "attention":
                    # The pipeline's test predictions plus one pass over every song.
                    tiny = workload.tiny()
                    config = fm.ExperimentConfig.from_dict(tiny.config)
                    expected = run.expected_test_count(tiny, config) + tiny.n_songs
                    calls = metrics["attention.predict.calls"]["value"]
                    check(calls == expected, f"{where}: {calls} predict calls, expected {expected}")
            else:
                check(all(v["value"] > 0 for v in metrics.values()), f"{where}: a metric is 0")


def check_generators(fm) -> None:
    root = run.WORK / "selfcheck"
    try:
        for workload in WORKLOADS.values():
            tiny = workload.tiny()
            contents = []
            for i, seed in enumerate((3, 3, 4)):
                directory = root / workload.name / str(i)
                directory.mkdir(parents=True)
                pairs = tiny.write_inputs(fm, tiny, seed, directory)
                paths = sorted(p for p in directory.rglob("*") if p.is_file())
                contents.append([p.read_bytes() for p in paths])
                corpus = fm.load_corpus(pairs)
                check(
                    len(corpus) == tiny.n_songs and not corpus.diagnostics.skip_count,
                    f"{workload.name}: load_corpus skipped generated input",
                )
            check(contents[0] == contents[1], f"{workload.name}: same seed, different inputs")
            check(contents[0] != contents[2], f"{workload.name}: seed does not change inputs")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def check_absent_layer(fm) -> None:
    original = fm.load_corpus
    tracer = tracing.Tracer(stages=tracing.STAGES + (("gone.layer", "folkmotif", "no_such"),))
    tracer.install()
    try:
        check(tracer.absent == ["gone.layer"], f"absent layers: {tracer.absent}")
        check(fm.load_corpus is not original, "load_corpus was not wrapped")
    finally:
        tracer.uninstall()
    check(fm.load_corpus is original, "uninstall did not restore load_corpus")


def check_bare_directory(spec: dict) -> None:
    """Only BENCHMARK.json and the benchmark's files: no package, so no result."""
    bare = run.WORK / "bare"
    try:
        for rel in spec["paths"]:
            shutil.copytree(
                run.ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("_work", "__pycache__")
            )
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [*spec["command"], "--workload", "attn-interval", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0, "bare directory: exit code 0")
        check('"correct"' not in proc.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    fm = run.import_package()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_contract(spec)
    check_generators(fm)
    check_absent_layer(fm)
    check_bare_directory(spec)
    check_runs(fm, spec)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selfcheck ok" if not failures else f"selfcheck: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
