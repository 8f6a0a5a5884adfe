"""Benchmark of the faultharness CLI: end-to-end metrics, or per-layer ones.

Run from the root of a checkout:

    python3 bench/run.py --workload desk --seed 0 --seconds 25 --trace 0

Workloads (see bench/NOTES.md): `desk`, `heldout`, `corpus`. The program is
imported from `src/` of the checkout and its CLI entry point,
`faultharness.cli.main`, is called in this process with `--jobs 1`.

A run measures set-up in fresh child processes, warms up with one untimed
pass, then repeats timed passes of the workload's commands for `--seconds`.
With `--trace 0` it prints the end-to-end metrics (tracing off); with
`--trace 1` it alternates traced and untraced passes and prints the per-layer
metrics. Every timed interval is rescaled to reference seconds by the
reference work around it (see bench/speed.py); raw wall times are printed
too. Every pass's artifacts are checked and their SHA-256 digests must
match the first pass's. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count CLI commands.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

END_TO_END = (
    ("setup_s", "s"),
    ("episodes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# fresh processes that measure set-up: half before the passes, half after them
SETUP_RUNS = {"full": 8, "smoke": 1}
CHILD_TIMEOUT_S = 60

# Runs in a fresh interpreter: the cost every CLI call pays before its command.
_SETUP_CODE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
from speed import reference_work_s
before = reference_work_s()
start = time.perf_counter()
import faultharness.cli
from faultharness.bank import load_shipped_bank
load_shipped_bank()
elapsed = time.perf_counter() - start
print(elapsed, before, reference_work_s())
"""


class BenchmarkError(Exception):
    """The program cannot be benchmarked at all (missing or broken sources)."""


# --- set-up -------------------------------------------------------------------------------


def _import_cumulative_s(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from `-X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) / 1e6
    return out


def measure_setup(runs: int, warm_up: bool) -> dict[str, list[float]]:
    """Set-up and import times from `runs` fresh processes.

    The `warm_up` process, when asked for, runs first and is not counted: it
    compiles bytecode and fills the file cache.

    Times are in reference seconds; `setup_wall_s` keeps the raw wall times.
    """
    samples: dict[str, list[float]] = {
        "setup_s": [], "setup_wall_s": [], "cli.import_s": [], "remote.import_s": []
    }
    for attempt in range(runs + warm_up):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _SETUP_CODE, str(SRC), str(BENCH_DIR)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up process failed:\n{proc.stderr[-2000:]}")
        if warm_up and attempt == 0:
            continue
        elapsed, before, after = (float(x) for x in proc.stdout.split()[-3:])
        imports = _import_cumulative_s(proc.stderr)
        samples["setup_s"].append(speed.scale(elapsed, before, after))
        samples["setup_wall_s"].append(elapsed)
        for metric, module in (("cli.import_s", "faultharness.cli"),
                               ("remote.import_s", "faultharness.remote")):
            samples[metric].append(speed.scale(imports.get(module, 0.0), before, after))
    return samples


def import_program():
    """Import `faultharness.cli` from this checkout's `src/`, or raise BenchmarkError."""
    if not (SRC / "faultharness" / "cli.py").is_file():
        raise BenchmarkError(f"no program sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import faultharness.cli as cli
    except ImportError as exc:
        raise BenchmarkError(f"cannot import faultharness.cli: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"faultharness imported from {cli.__file__}, not {SRC}")
    return cli


# --- passes -------------------------------------------------------------------------------


def invoke(cli, argv) -> str | None:
    """Run one CLI command in this process; the reason it failed, or None."""
    output = io.StringIO()
    try:
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            code = cli.main.main(list(argv), prog_name="faultharness", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the command failed; the benchmark counts it and goes on
        return f"{type(exc).__name__}: {exc}"
    if code not in (None, 0):
        return f"exit code {code}: {output.getvalue().strip()[-300:]}"
    return None


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Tally:
    """Commands attempted and failed over a run, and the reference digests."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class PassTimes:
    """Per-command seconds of one pass: raw wall time and rescaled to reference seconds."""

    wall: dict[str, float] = field(default_factory=dict)
    scaled: dict[str, float] = field(default_factory=dict)


def run_pass(cli, workload, pass_dir: Path, tally: Tally, tracer=None,
             after_command=None) -> PassTimes:
    """Run every command of one pass, then check and digest its artifacts."""
    pass_dir.mkdir(parents=True)
    times = PassTimes()
    errors: dict[str, str] = {}
    cwd = os.getcwd()
    os.chdir(pass_dir)
    try:
        reference = speed.reference_work_s()
        for command in workload.commands:
            span = tracer.open(layers.COMMAND_SPAN) if tracer else None
            start = time.perf_counter()
            error = invoke(cli, command.argv)
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.close(span)
            after = speed.reference_work_s()
            times.wall[command.label] = elapsed
            times.scaled[command.label] = speed.scale(elapsed, reference, after)
            reference = after
            if error:
                errors[command.label] = error
            if after_command:
                after_command(command, pass_dir)
    finally:
        os.chdir(cwd)
    if tracer:
        tracer.end_pass()

    problems, paths = workloads.check_pass(workload, pass_dir)
    for key, path in paths.items():
        digest = sha256_file(path)
        label = key.split("/")[0]
        reference_digest = tally.digests.setdefault(key, digest)
        if digest != reference_digest:
            problems.setdefault(
                label, f"{key} digest {digest[:12]} != first pass {reference_digest[:12]}"
            )
    number = tally.attempted // len(workload.commands)
    for command in workload.commands:
        reason = errors.get(command.label) or problems.get(command.label)
        if reason:
            tally.failures.append(f"pass {number} {command.label}: {reason}")
    tally.attempted += len(workload.commands)
    shutil.rmtree(pass_dir)
    return times


def median_pass_s(passes: list[dict[str, float]]) -> float:
    """Sum over commands of each command's median time across passes."""
    return sum(statistics.median(p[label] for p in passes) for label in passes[0])


def measure(cli, workload, seconds: float, trace: bool, work_dir: Path, after_command=None):
    """Warm-up pass, then timed passes for `seconds`.

    Returns (tally, untraced PassTimes, traced PassTimes, tracer). With `trace`,
    each timed untraced pass follows a traced one.
    """
    tally = Tally()
    tracer = layers.Tracer() if trace else None
    counter = itertools.count()

    def one_pass(traced: bool) -> PassTimes:
        return run_pass(cli, workload, work_dir / f"pass-{next(counter)}", tally,
                        tracer=tracer if traced else None, after_command=after_command)

    one_pass(traced=False)  # warm-up: lazy imports, caches, first artifacts
    timed: list[PassTimes] = []
    traced: list[PassTimes] = []
    begin = time.perf_counter()
    while True:
        if trace:
            tracer.install()
            try:
                traced.append(one_pass(traced=True))
            finally:
                tracer.uninstall()
        timed.append(one_pass(traced=False))
        if time.perf_counter() - begin >= seconds:
            break
    return tally, timed, traced, tracer


# --- reporting ----------------------------------------------------------------------------


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full") -> dict:
    """One benchmark run; prints human-readable lines and returns the result."""
    workload = workloads.WORKLOADS[workload_name](seed, workloads.SCALES[scale])
    cli = import_program()
    setup_runs = SETUP_RUNS[scale]
    setup = measure_setup(setup_runs // 2, warm_up=True)
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = WORK_ROOT / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        tally, timed, traced, tracer = measure(cli, workload, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for name, samples in measure_setup(setup_runs - setup_runs // 2, warm_up=False).items():
        setup[name] += samples

    print(f"workload {workload.name} (seed {seed}): {workload.description}")
    print(f"  {len(workload.commands)} commands and {workload.episodes_per_pass} episode "
         f"records per pass; 1 warm-up pass, {len(timed)} timed passes"
         + (f", {len(traced)} traced passes" if trace else ""))
    pass_s = median_pass_s([t.scaled for t in timed])
    metrics: dict[str, dict] = {}
    if not trace:
        throughput = workload.episodes_per_pass / pass_s
        wall_throughput = workload.episodes_per_pass / median_pass_s([t.wall for t in timed])
        values = {
            "setup_s": statistics.median(setup["setup_s"]),
            "episodes_per_s": throughput,
            "peak_rss_mb": rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"setup_s = {values['setup_s']:.4f} s (median of {len(setup['setup_s'])} fresh "
             f"processes; wall median {statistics.median(setup['setup_wall_s']):.4f} s)")
        print(f"{workload.throughput_name} = {throughput:.2f} 1/s "
             f"({workload.episodes_per_pass} records per pass over the per-command median "
             f"times of {len(timed)} passes; wall {wall_throughput:.2f} 1/s)"
             + ("; reported as episodes_per_s" if workload.throughput_name != "episodes_per_s"
                else ""))
        print(f"peak_rss_mb = {rss_mb:.2f} MB (ru_maxrss of this process)")
    else:
        values = {
            "cli.import_s": statistics.median(setup["cli.import_s"]),
            "remote.import_s": statistics.median(setup["remote.import_s"]),
            "trace.overhead_ratio": median_pass_s([t.scaled for t in traced]) / pass_s,
        }
        per_pass = []
        for times, (spans, counters) in zip(traced, tracer.passes):
            # layer times in reference seconds, like every other time the benchmark reports
            factor = sum(times.scaled.values()) / sum(times.wall.values())
            per_pass.append(layers.pass_metrics(spans, counters, time_scale=factor))
        for name in per_pass[0]:
            values[name] = statistics.median(p[name] for p in per_pass)
        for name, unit, _ in layers.PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} = {values[name]:.6g} {unit}")
        absent = tracer.absent()
        print("absent spans: " + (", ".join(absent) if absent else "none"))
        for metric, names in sorted(tracer.missing.items()):
            print(f"  unresolved names for {metric}: {', '.join(names)}")
        spans_path = WORK_ROOT / f"spans-{workload_name}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {spans_path.relative_to(ROOT)} "
             f"({sum(len(s) for s, _ in tracer.passes)} spans over {len(tracer.passes)} passes)")

    print(f"error_rate = {tally.failed}/{tally.attempted} = "
         f"{tally.failed / tally.attempted:.4f} ratio (failed / attempted CLI commands)")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    for key, digest in sorted(tally.digests.items()):
        print(f"digest {key} {digest}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="workload size; `smoke` is the smallest, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                               scale=args.scale)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
