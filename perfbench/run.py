"""Benchmark of the ``rcsurp`` command line on generated corpora.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (sizes at the default seed are in ``perfbench/reference.json``):

* ``train-openvocab``: ``rcsurp train`` on ~136k words in 100 documents
  with ~17k lemma types. Corpus ingest and the ``ngram`` count, estimate
  and export do the work; an open vocabulary keeps the model tables at
  the size real lemmatized corpora give them.
* ``surprisal-openvocab``: ``rcsurp surprisal`` over the same corpus with
  the model trained in set-up. It parses the 2 MB ARPA file, makes one
  ``prob`` query per word, runs accommodation and writes a 10 MB TSV.
* ``analyze-dense``: ``rcsurp analyze`` on 4 long documents (~25k words)
  with 200 clause records and ~3.5k referent mentions over the fixture's
  closed vocabulary. The per-mention word scans, the 12 re-linearizations
  per record and the records x mentions givenness scan grow with document
  length, so this is the workload where they show.

With ``--trace 0`` each timed iteration is one fresh ``python -m
rcsurp.cli`` process, run one at a time (a closed loop with one client),
and the end-to-end metrics are printed: the median wall time, word
throughput, the highest child ``ru_maxrss``, and the median of five
set-ups (generate the inputs, and train the model where the workload
needs one).

On a shared virtual machine (the reference one has 2 vCPUs) a vCPU can
run at about half speed for seconds at a time, at moments that differ
between vCPUs; CPU time slows with it, so it is no cure. Each timed step (one
iteration, one set-up) therefore runs on the vCPU that a fixed
pure-Python probe finds fastest just before it, and a sampler thread on
that vCPU repeats the probe every ``PROBE_EVERY_S`` seconds while the
step runs. The step's wall time is scaled by ``PROBE_REFERENCE_S`` over
the mean probe time: ``wall_s`` and ``setup_s`` are seconds at the
probe's reference speed, close to plain wall seconds on an idle vCPU of
the reference machine. The probe is the benchmark's own code, so a
change to ``rcsurp`` cannot move it. The plain medians go to standard
error.

With ``--trace 1`` the command runs in this process instead, alternating
untraced and traced calls of ``rcsurp.cli.main``, and the per-layer
metrics of ``tracing.py`` are printed: medians for times, counts from one
call (they must repeat exactly).

Every iteration's outputs must be byte-identical to the first one's, and
the outputs are checked against independent oracles (``checks.py``); at
the default seed their sha256 digests must also match the recorded ones.
All files go to a temporary directory inside the checkout, removed at
exit. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/rcsurp/cli.py", "scripts/generate_fixture.py", "tests/helpers.py")

SETUPS = 5           # set-ups per run; setup_s is their median
MIN_ITERATIONS = 3   # timed iterations per run, even past --seconds
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
# Seconds one probe() call takes on an idle vCPU of the reference machine
# (Intel Xeon VM, 2 vCPUs, Python 3.11.7); the unit of the scaled times.
PROBE_REFERENCE_S = 0.0006
PROBE_EVERY_S = 0.05  # the sampler takes about 1.2% of the step's vCPU
CPUS = sorted(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    shape: "workloads.Shape"
    command: str
    trained: bool  # set-up trains the model the command reads


@dataclass(frozen=True)
class Inputs:
    corpus: Path
    clauses: Path
    referents: Path
    model: Path


def _workloads() -> dict[str, Workload]:
    open_vocab = workloads.Shape(docs=100, sentences=200, clauses=5, vocab=80_000, zipf=0.8)
    dense = workloads.Shape(docs=4, sentences=900, clauses=50, vocab=len(workloads.fixture.NOUNS),
                            zipf=1.0)
    return {
        "train-openvocab": Workload(open_vocab, "train", trained=False),
        "surprisal-openvocab": Workload(open_vocab, "surprisal", trained=True),
        "analyze-dense": Workload(dense, "analyze", trained=True),
    }


def probe() -> float:
    """Seconds this thread takes for a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(15_000):
        total += i & 7
    return time.perf_counter() - start


class ScaledTimer:
    """Times steps scaled to the probe's reference speed; ``plain`` and
    ``scaled`` collect the seconds of each step."""

    def __init__(self):
        self.plain: list[float] = []
        self.scaled: list[float] = []

    def __call__(self, step):
        # Run on the vCPU that is fastest now. Threads and children
        # started from here on inherit the affinity, so the sampler below
        # shares the vCPU with the step and sees the speed it gets.
        speeds = {}
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = min(probe() for _ in range(5))
        os.sched_setaffinity(0, {min(speeds, key=speeds.get)})
        samples = [probe()]
        stop = threading.Event()

        def sample():
            while not stop.wait(PROBE_EVERY_S):
                samples.append(probe())

        sampler = threading.Thread(target=sample)
        sampler.start()
        start = time.perf_counter()
        try:
            result = step()
        finally:
            seconds = time.perf_counter() - start
            stop.set()
            sampler.join()
        samples.append(probe())
        self.plain.append(seconds)
        self.scaled.append(seconds * PROBE_REFERENCE_S / statistics.fmean(samples))
        return result


def run_cli(argv: list[str], cwd: Path) -> tuple[int, int]:
    """Run ``python -m rcsurp.cli`` once; returns (exit code, peak
    resident KiB of the child)."""
    with open(cwd / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-m", "rcsurp.cli", *argv], cwd=cwd, env=ENV,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode("utf-8", "replace"))
    return proc.returncode, usage.ru_maxrss


def set_up(workload: Workload, seed: int, work: Path) -> tuple["workloads.Generated", Inputs]:
    """Generate the inputs and train the model where needed; returns the
    generated data and the input paths."""
    gen = workloads.generate(seed, workload.shape)
    inputs = Inputs(work / "corpus.vert", work / "clauses.json", work / "referents.tsv",
                    work / "model.arpa")
    inputs.corpus.write_text(gen.vertical, encoding="utf-8")
    inputs.clauses.write_text(gen.clauses_json, encoding="utf-8")
    inputs.referents.write_text(gen.referents_tsv, encoding="utf-8")
    if workload.trained:
        code, _ = run_cli(["train", "--corpus", str(inputs.corpus), "-o", str(inputs.model)], work)
        if code != 0:
            raise RuntimeError(f"set-up training exited with {code}")
    return gen, inputs


def command(workload: Workload, inputs: Inputs, out: Path) -> tuple[list[str], dict[str, Path]]:
    """The workload's argv and the output files it writes."""
    out.mkdir(exist_ok=True)
    if workload.command == "train":
        arpa = out / "model.arpa"
        return ["train", "--corpus", str(inputs.corpus), "-o", str(arpa)], {"model.arpa": arpa}
    if workload.command == "surprisal":
        tsv = out / "surprisal.tsv"
        return (["surprisal", "--model", str(inputs.model), "--corpus", str(inputs.corpus),
                 "-o", str(tsv)], {"surprisal.tsv": tsv})
    bundle = out / "bundle"
    names = ("table1.tsv", "table2.tsv", "table3.tsv", "hypotheticals.tsv", "chi_square.tsv",
             "manifest.json")
    return (["analyze", "--model", str(inputs.model), "--corpus", str(inputs.corpus),
             "--clauses", str(inputs.clauses), "--referents", str(inputs.referents),
             "--outdir", str(bundle)], {name: bundle / name for name in names})


def check_outputs(name: str, workload: Workload, gen, inputs: Inputs, outputs: dict[str, Path],
                  seed: int, reference: dict) -> list[str]:
    """Oracle checks, plus sizes and digests against the record at the default seed."""
    missing = [name for name, path in outputs.items() if not path.is_file()]
    if missing:
        return [f"no output {', '.join(missing)}"]
    if workload.command == "train":
        problems = checks.check_model(gen, outputs["model.arpa"], seed)
    elif workload.command == "surprisal":
        problems = checks.check_surprisal(gen, inputs.model, outputs["surprisal.tsv"])
    else:
        problems = checks.check_bundle(gen, outputs["table1.tsv"].parent)
    if seed == reference["default_seed"]:
        recorded = reference["workloads"][name]
        if gen.sizes() != recorded["sizes"]:
            problems.append(f"input sizes {gen.sizes()} differ from the recorded {recorded['sizes']}")
        files = {n: p for n, p in outputs.items() if n != "manifest.json"}
        if workload.trained:
            files["model.arpa"] = inputs.model
        got = checks.digests(files)
        for file, digest in recorded["digests"].items():
            if got.get(file) != digest:
                problems.append(f"{file}: sha256 {got.get(file)}, recorded {digest}")
    return problems


def measure(workload: Workload, inputs: Inputs, work: Path, seconds: float):
    """Closed loop of fresh CLI processes after one untimed warm-up."""
    argv, outputs = command(workload, inputs, work / "out")
    code, peak = run_cli(argv, work)
    first = checks.digests(outputs) if code == 0 else None
    failed = int(code != 0)
    timer = ScaledTimer()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(timer.plain) < MIN_ITERATIONS:
        code, rss = timer(lambda: run_cli(argv, work))
        peak = max(peak, rss)
        if code != 0 or checks.digests(outputs) != first:
            failed += 1
    return outputs, timer, peak, 1 + len(timer.plain), failed


def measure_traced(workload: Workload, inputs: Inputs, work: Path, seconds: float):
    """Untraced and traced in-process ``cli.main`` calls, alternating."""
    from rcsurp import cli

    argv, outputs = command(workload, inputs, work / "out")

    def call() -> int:
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    untraced: list[float] = []
    traced: list[dict[str, float]] = []

    def untraced_call() -> int:
        t0 = time.perf_counter()
        code = call()
        untraced.append(time.perf_counter() - t0)
        return code

    def traced_call() -> int:
        with tracing.Tracer() as tracer:
            code = call()
        traced.append(tracer.metrics())
        return code

    # The benchmark's own objects would otherwise be traversed by every
    # collection the program triggers, which a CLI process does not pay.
    gc.collect()
    gc.freeze()
    failed = int(call() != 0)  # warm-up
    first = checks.digests(outputs)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < MIN_ITERATIONS:
        pair = (untraced_call, traced_call) if len(traced) % 2 else (traced_call, untraced_call)
        for run in pair:
            code = run()
            failed += code != 0 or checks.digests(outputs) != first
    return outputs, untraced, traced, 1 + 2 * len(traced), failed


def layer_metrics(untraced: list[float], traced: list[dict[str, float]]) -> dict[str, float]:
    """Median times, counts of the last traced call, and the tracing overhead."""
    out = {}
    for key, value in traced[-1].items():
        if key.endswith("_s"):
            out[key] = statistics.median(t[key] for t in traced)
        elif any(t[key] != value for t in traced):
            raise RuntimeError(f"count {key} differs between identical traced calls")
        else:
            out[key] = value
    out["trace.overhead_frac"] = out["cli.main_s"] / statistics.median(untraced) - 1.0
    return out


def check_coverage(name: str, metrics: dict[str, float], reference: dict):
    """Stop when a layer metric mapped to this workload recorded nothing,
    which means a wrapper missed the binding the program calls."""
    missing = [metric for metric, entry in reference["layers"].items()
               if name in entry["workloads"] and metric != "trace.overhead_frac"
               and not metrics[metric]]
    if missing:
        raise RuntimeError(f"{name}: traced run recorded nothing for {', '.join(missing)}")


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    table = _workloads()
    parser = argparse.ArgumentParser(description="Benchmark the rcsurp CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, default=reference["default_seed"])
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = table[args.workload]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        setups, set_up_digests = ScaledTimer(), []
        for _ in range(1 if args.trace else SETUPS):
            gen, inputs = setups(lambda: set_up(workload, args.seed, work))
            set_up_digests.append(checks.digests(vars(inputs)))
        workloads.validate(gen)
        if args.trace:
            outputs, untraced, traced, attempted, failed = measure_traced(
                workload, inputs, work, args.seconds)
            values = layer_metrics(untraced, traced)
            check_coverage(args.workload, values, reference)
            reported = benchmark["per_layer"]
            detail = f"{len(traced)} traced and {len(untraced)} untraced in-process calls"
        else:
            outputs, timer, peak_kib, attempted, failed = measure(
                workload, inputs, work, args.seconds)
            wall = statistics.median(timer.scaled)
            values = {
                "wall_s": wall,
                "words_per_s": gen.sizes()["words"] / wall,
                "peak_rss_mb": peak_kib / 1024.0,
                "setup_s": statistics.median(setups.scaled),
            }
            reported = benchmark["end_to_end"]
            detail = (f"wall_s is the median of {len(timer.plain)} timed iterations; "
                      f"plain medians: wall {statistics.median(timer.plain):.4f} s, "
                      f"set-up {statistics.median(setups.plain):.4f} s")
        problems = check_outputs(args.workload, workload, gen, inputs, outputs, args.seed,
                                 reference)
        if any(d != set_up_digests[0] for d in set_up_digests):
            problems.append("repeated set-ups wrote different inputs")

    for problem in problems:
        print(f"output check: {problem}", file=sys.stderr)
    if problems:
        failed = attempted
    print(f"{args.workload} seed {args.seed}: {gen.sizes()}; {detail}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported},
    }
    print(json.dumps(result))
    return 0


missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
if missing:
    sys.exit(f"perfbench: not a checkout of rcsurp, missing {', '.join(missing)}")
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
