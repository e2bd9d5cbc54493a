"""End-to-end benchmark for eventemb.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Each workload runs in its own process,
driven closed-loop by a single client: load the inputs (set-up), train with
per-epoch checkpoints, then alternate in-process `eventemb nn` and
`eval-hard` + `eval-transitive` invocations on the final checkpoint until
`--seconds` have passed. Every output is checked; a failed check or an
exception counts as a failed operation and the run still reports.

With `--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` the run trains once untraced and once traced at the same seed,
requires byte-identical final checkpoints, and reports the per-layer
metrics of `perfbench/spans.py`. `--workload all` runs every workload in a
fresh child process. See `perfbench/NOTES.md` for why each workload exists
and how times are normalised for machine speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from generate import file_sha256
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = BENCH / ".cache"
WORKLOADS = ("desk", "paper", "glove")
KEEP_CACHED_SEEDS = 3  # generated input sets kept per workload

# set-up is repeated until this much time is spent, at least SETUP_MIN times
SETUP_SECONDS = 2.0
SETUP_MIN = 3
# the training phase may use this share of --seconds; one training at least
TRAIN_SHARE = 0.6
# nn and eval samples taken at least, whatever --seconds says
QUERY_MIN = 3
# traced nn and eval invocations: fixed, so per-layer counts repeat exactly
TRACE_QUERIES = 3
# events re-embedded from a reloaded final checkpoint
RELOAD_SAMPLE = 16
DESK_HARD_ACC_FLOOR = 0.9

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_examples_per_s": "examples/s",
    "nn_s_p50": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "hard_acc": "ratio",
    "transitive_rho": "rho",
}

# Machine speed. A shared sandbox runs the same code up to 2x slower for
# tens of seconds at a time, so timed operations are bracketed by readings of
# a fixed reference workload, and wall times are divided by its slowdown.
# The reference mixes the three kinds of work eventemb does: interpreter
# dispatch, small dense numpy kernels and memory-bound array sweeps. Each
# kernel's reference time is about its time on an idle 2.1 GHz x86-64 core,
# so end-to-end times are seconds at that reference speed. The record keeps
# the raw wall times and the slowdowns as well.
SPEED_MAX_AGE_S = 0.5  # a reading older than this is taken again


def _interpreter_kernel() -> None:
    total, table = 0, {}
    for i in range(15_000):
        total += i * i % 7
        table[i & 255] = total


class Speedometer:
    """Slowdown of the machine against the reference speed, read sparingly."""

    def __init__(self) -> None:
        tensor = np.linspace(-1.0, 1.0, 100 * 100 * 10).reshape(100, 100, 10)
        vector = np.linspace(0.0, 1.0, 100)
        a, b = np.zeros(500_000), np.full(500_000, 1e-9)
        self.kernels = (
            (_interpreter_kernel, 0.0016),
            (lambda: [np.einsum("kdn,d->kn", tensor, vector) for _ in range(20)], 0.0016),
            (lambda: [np.add(a, b, out=a) for _ in range(5)], 0.0016),
        )
        self.value = 1.0
        self.taken_at = -math.inf

    def read(self) -> float:
        if time.perf_counter() - self.taken_at > SPEED_MAX_AGE_S:
            ratios = []
            for kernel, reference_s in self.kernels:
                start = time.perf_counter()
                kernel()
                ratios.append((time.perf_counter() - start) / reference_s)
            self.value = statistics.fmean(ratios)
            self.taken_at = time.perf_counter()
        return self.value


@dataclass
class Timing:
    """One timed operation: raw wall seconds and the machine slowdown then."""

    raw_s: float
    slowdown: float

    @property
    def s(self) -> float:
        return self.raw_s / self.slowdown


def timed(speed: Speedometer, fn):
    """Run fn() between two speed readings; return (result, Timing)."""
    before = speed.read()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    return result, Timing(raw, (before + speed.read()) / 2)


@dataclass
class Inputs:
    """Paths of everything a workload feeds to eventemb."""

    vectors: str
    corpus: str
    annotations: str
    lexicon: str
    config: str
    hardsim: str
    transitive: str
    nn_corpus: str
    preset: str
    queries: list[str]
    sha256: dict[str, str]


@dataclass
class Outcome:
    """Operations attempted and failed, with one line per failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    @contextlib.contextmanager
    def operation(self, what: str):
        """One attempted operation; an exception inside it is a failure."""
        self.attempted += 1
        try:
            yield
        except Exception:  # noqa: BLE001 - the workload keeps running and reports
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{what}: {sys.exc_info()[1]!r}")


# --- inputs -------------------------------------------------------------------


def _desk_inputs(seed: int) -> Inputs:
    """The bundled synthetic data; the seed only picks the nn queries."""
    base = ROOT / "data" / "synthetic"
    names = ("vectors.txt", "corpus.txt", "annotations.txt", "lexicon.tsv",
             "config.txt", "hardsim.txt", "transitive.txt")
    paths = {name: str(base / name) for name in names}
    with open(paths["corpus.txt"], encoding="utf-8") as fh:
        events = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    return Inputs(
        vectors=paths["vectors.txt"], corpus=paths["corpus.txt"],
        annotations=paths["annotations.txt"], lexicon=paths["lexicon.tsv"],
        config=paths["config.txt"], hardsim=paths["hardsim.txt"],
        transitive=paths["transitive.txt"], nn_corpus=paths["corpus.txt"],
        preset="ntn+int+senti",
        queries=random.Random(seed).sample(events, 8),
        sha256={name: file_sha256(path) for name, path in paths.items()},
    )


def _generated_inputs(workload: str, seed: int) -> Inputs:
    """Inputs made by generate.py, once per workload, seed and generator."""
    version = file_sha256(str(BENCH / "generate.py"))[:12]
    target = CACHE / f"{workload}-{seed}-{version}"
    if not (target / "manifest.json").exists():
        tmp = Path(tempfile.mkdtemp(prefix=f".{workload}-", dir=CACHE))
        try:
            subprocess.run(
                [sys.executable, str(BENCH / "generate.py"), "--workload", workload,
                 "--seed", str(seed), "--out", str(tmp)],
                check=True, timeout=300,
            )
            shutil.rmtree(target, ignore_errors=True)
            tmp.rename(target)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    os.utime(target)
    cached = sorted(CACHE.glob(f"{workload}-*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in cached[KEEP_CACHED_SEEDS:]:
        shutil.rmtree(old, ignore_errors=True)
    with open(target / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    p = {name: str(target / name) for name in manifest["sha256"]}
    return Inputs(
        vectors=p["vectors.txt"], corpus=p["corpus.txt"],
        annotations=p["annotations.txt"], lexicon=p["lexicon.tsv"],
        config=p["config.txt"], hardsim=p["hardsim.txt"],
        transitive=p["transitive.txt"], nn_corpus=p["nn_corpus.txt"],
        preset=manifest["preset"], queries=manifest["queries"],
        sha256=manifest["sha256"],
    )


# --- operations ---------------------------------------------------------------


def _setup(inputs: Inputs):
    """Load everything `train` needs: the work that `setup_s` times."""
    from eventemb import data

    return (
        data.load_word_vectors(inputs.vectors),
        data.load_corpus(inputs.corpus),
        data.load_annotations(inputs.annotations),
        data.load_lexicon(inputs.lexicon),
    )


def _config(inputs: Inputs):
    from eventemb import cli, trainer

    values = trainer.TrainingConfig().to_dict()
    values.update(cli.parse_config_file(inputs.config))
    return trainer.TrainingConfig.from_dict(values).with_preset(inputs.preset)


@dataclass
class Training:
    timing: Timing
    examples: int
    history: list
    final: str
    # a sample of training events and their in-memory embeddings
    embedded: list


def _train(config, loaded, out_dir: str, seed: int, speed: Speedometer,
           per_epoch_speed: bool = True) -> Training:
    """One `train` call. With per_epoch_speed the speed is also read at every
    epoch end, outside the timed wall, and each stretch between two readings
    is normalised by their mean, to follow speed changes during training."""
    from eventemb import trainer

    word_vectors, corpus, annotations, lexicon = loaded
    readings = [speed.read()]
    stretches: list[float] = []
    mark = time.perf_counter()

    def read_speed(_metrics) -> None:
        nonlocal mark
        stretches.append(time.perf_counter() - mark)
        readings.append(speed.read())
        mark = time.perf_counter()

    model, history = trainer.train(
        config, corpus, annotations, word_vectors=word_vectors, lexicon=lexicon,
        out_dir=out_dir, progress=read_speed if per_epoch_speed else None,
    )
    stretches.append(time.perf_counter() - mark)
    readings.append(speed.read())
    wall = sum(stretches)
    normalised = sum(raw * 2 / (readings[i] + readings[i + 1]) for i, raw in enumerate(stretches))
    events = list(corpus) + [ex.event for ex in annotations]
    sample = random.Random(seed).sample(events, min(RELOAD_SAMPLE, len(events)))
    # the model is dropped on return, so checks do not add to the peak memory
    embedded = [(event, model.embed_event(event)) for event in sample]
    examples = len(history) * (len(corpus) + len(annotations))
    return Training(Timing(wall, wall / normalised), examples, history,
                    os.path.join(out_dir, "final.ckpt"), embedded)


def _check_training(run: Training, outcome: Outcome) -> None:
    """Finite losses, and a reloaded final checkpoint that embeds bit-identically."""
    from eventemb import checkpoint

    for m in run.history:
        if not all(math.isfinite(v) for v in (m.event, m.intent, m.sentiment, m.total)):
            outcome.fail(f"non-finite loss in epoch {m.epoch}")
            break
    reloaded = checkpoint.build_model(checkpoint.load_checkpoint(run.final))
    for event, vector in run.embedded:
        if not np.array_equal(vector, reloaded.embed_event(event)):
            outcome.fail(f"reloaded checkpoint embeds {event} differently")
            break


def _cli(argv: list[str]) -> list[str]:
    """One in-process CLI invocation; returns its stdout lines."""
    from eventemb import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"eventemb {argv[0]} exited with {code}")
    return out.getvalue().splitlines()


def _nn(inputs: Inputs, ckpt: str, query: str, tracer=None) -> None:
    """`eventemb nn` for a corpus event, which must rank itself first."""
    from eventemb.data import format_event, parse_event

    with tracer.span("cli.nn") if tracer else contextlib.nullcontext():
        lines = _cli(["nn", "--checkpoint", ckpt, "--query", query,
                      "--corpus", inputs.nn_corpus, "--top", "5"])
    score, event = lines[0].split("\t")
    if event != format_event(parse_event(query)) or float(score) < 0.999999:
        raise RuntimeError(f"nn query {query!r} ranked {lines[0]!r} first")


def _eval(inputs: Inputs, ckpt: str, tracer=None) -> tuple[float, float]:
    """`eval-hard` then `eval-transitive`; returns (accuracy, rho)."""
    values = []
    for command, data, span in (("eval-hard", inputs.hardsim, "cli.eval_hard"),
                                ("eval-transitive", inputs.transitive, "cli.eval_transitive")):
        with tracer.span(span) if tracer else contextlib.nullcontext():
            lines = _cli([command, "--checkpoint", ckpt, "--data", data])
        values.append(float(lines[0].split("\t")[2]))
    return values[0], values[1]


def _queries(inputs: Inputs, ckpt: str, deadline: float, min_count: int,
             outcome: Outcome, speed: Speedometer, tracer=None) -> dict:
    """Closed loop of nn and eval pairs until the deadline; one client."""
    nn, evals, quality = [], [], set()
    i = 0
    while i < min_count or (time.perf_counter() < deadline and not outcome.failures):
        query = inputs.queries[i % len(inputs.queries)]
        with outcome.operation(f"nn {query!r}"):
            nn.append(timed(speed, lambda: _nn(inputs, ckpt, query, tracer))[1])
        with outcome.operation("eval-hard + eval-transitive"):
            values, timing = timed(speed, lambda: _eval(inputs, ckpt, tracer))
            quality.add(values)
            evals.append(timing)
        i += 1
    if len(quality) > 1:
        outcome.fail(f"evaluations of one checkpoint disagree: {sorted(quality)}")
    return {"nn": nn, "eval": evals, "quality": min(quality) if quality else None}


# --- the two kinds of run -----------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_plain(workload: str, inputs: Inputs, seconds: int, seed: int, work: str) -> tuple:
    outcome = Outcome()
    config = _config(inputs)
    speed = Speedometer()
    setups: list[Timing] = []
    while len(setups) < SETUP_MIN or sum(t.raw_s for t in setups) < SETUP_SECONDS:
        loaded, timing = timed(speed, lambda: _setup(inputs))
        setups.append(timing)

    begin = time.perf_counter()
    runs: list[Training] = []
    shas = set()
    while True:
        with outcome.operation("train"):
            run = _train(config, loaded, work, seed, speed)
            _check_training(run, outcome)
            runs.append(run)
            shas.add(file_sha256(run.final))
        if not runs or time.perf_counter() + runs[-1].timing.raw_s > begin + TRAIN_SHARE * seconds:
            break
    if len(shas) > 1:
        outcome.fail(f"repeated trainings wrote different final checkpoints: {sorted(shas)}")
    q = _queries(inputs, runs[-1].final if runs else os.path.join(work, "final.ckpt"),
                 begin + seconds, QUERY_MIN, outcome, speed)
    hard_acc, rho = q["quality"] or (0.0, 0.0)
    if workload == "desk" and q["quality"] and hard_acc < DESK_HARD_ACC_FLOOR:
        outcome.fail(f"desk hard_acc {hard_acc} below the {DESK_HARD_ACC_FLOOR} floor")

    metrics = {
        "setup_s": _median([t.s for t in setups]),
        "train_examples_per_s": _median([r.examples / r.timing.s for r in runs]),
        "nn_s_p50": _median([t.s for t in q["nn"]]),
        "eval_s": _median([t.s for t in q["eval"]]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hard_acc": hard_acc,
        "transitive_rho": rho,
    }
    timings = {"setup_s": setups, "train_examples_per_s": [r.timing for r in runs],
               "nn_s_p50": q["nn"], "eval_s": q["eval"]}
    record = {
        "samples": {name: len(t) for name, t in timings.items()},
        "raw_wall_s_p50": {name: _median([x.raw_s for x in t]) for name, t in timings.items()},
        "slowdown_p50": {name: _median([x.slowdown for x in t]) for name, t in timings.items()},
        "train_examples": [r.examples for r in runs],
        "final_ckpt_sha256": sorted(shas),
        "nn_tail": _tail_percentile([t.s for t in q["nn"]]),
    }
    return outcome, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, record


def _tail_percentile(values: list[float]):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, if any."""
    best = None
    for p in (90, 99, 99.9):
        if len(values) * (100 - p) / 100 >= 10:
            best = {"p": p, "s": statistics.quantiles(values, n=1000)[int(p * 10) - 1]}
    return best


def run_traced(workload: str, inputs: Inputs, seconds: int, seed: int, work: str) -> tuple:
    outcome = Outcome()
    config = _config(inputs)
    speed = Speedometer()
    loaded = _setup(inputs)
    untraced = traced = None
    with outcome.operation("train (untraced)"):
        untraced = _train(config, loaded, os.path.join(work, "untraced"), seed, speed, False)
        _check_training(untraced, outcome)

    tracer = Tracer()
    tracer.install()
    try:
        loaded = _setup(inputs)
        with outcome.operation("train (traced)"):
            traced = _train(config, loaded, os.path.join(work, "traced"), seed, speed, False)
        ckpt = traced.final if traced else os.path.join(work, "traced", "final.ckpt")
        _queries(inputs, ckpt, 0.0, TRACE_QUERIES, outcome, speed, tracer)
    finally:
        tracer.uninstall()

    shas = {}
    if traced is not None:
        with outcome.operation("check traced training"):
            _check_training(traced, outcome)
            shas = {"untraced": file_sha256(untraced.final) if untraced else None,
                    "traced": file_sha256(traced.final)}
            if shas["untraced"] != shas["traced"]:
                outcome.fail(f"tracing changed the final checkpoint: {shas}")
    metrics = tracer.metrics()
    ratio = traced.timing.s / untraced.timing.s if traced and untraced else 0.0
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    record = {"final_ckpt_sha256": shas, "absent_hooks": tracer.absent,
              "broken_counters": sorted(tracer.broken_counters), "span_tree": tracer.tree()}
    return outcome, metrics, record


# --- reporting ----------------------------------------------------------------


def environment(workload: str, seed: int, seconds: int, trace: int, inputs: Inputs) -> dict:
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: build.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "numpy": np.__version__, "blas": blas, "python": platform.python_version(),
        "machine": platform.machine(), "preset": inputs.preset,
        "input_sha256": inputs.sha256,
    }


def report(metrics: dict, outcome: Outcome, record: dict) -> None:
    width = max(len(name) for name in metrics)
    samples = record.get("samples", {})
    for name, (value, unit) in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:<{width}}  {value:.6g} {unit}{n}")
    if record.get("nn_tail"):
        tail = record["nn_tail"]
        print(f"nn_s_p{tail['p']:g}  {tail['s']:.6g} s")
    failed = len(outcome.failures)
    rate = failed / outcome.attempted if outcome.attempted else 1.0
    print(f"error_rate  {rate:.6g}  ({failed}/{outcome.attempted})")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_all(args) -> int:
    """Every workload in its own fresh process; the last line sums them up."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import eventemb
    except ImportError as exc:
        print(f"error: cannot import eventemb from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(eventemb.__file__).resolve().parent.parent != ROOT / "src":
        print(f"error: eventemb imported from {eventemb.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "desk" and not (ROOT / "data" / "synthetic").is_dir():
        print(f"error: {ROOT / 'data' / 'synthetic'} is missing", file=sys.stderr)
        return 2

    CACHE.mkdir(exist_ok=True)
    if args.workload == "desk":
        inputs = _desk_inputs(args.seed)
    else:
        inputs = _generated_inputs(args.workload, args.seed)
    work = tempfile.mkdtemp(prefix="run-", dir=CACHE)
    try:
        run = run_traced if args.trace else run_plain
        outcome, metrics, record = run(args.workload, inputs, args.seconds, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = environment(args.workload, args.seed, args.seconds, args.trace, inputs)
    record["failures"] = outcome.failures
    report(metrics, outcome, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
