"""End-to-end and per-layer benchmark for cayley.

Run from the root of a checkout:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Workloads (see workloads.py): enumerate, iso-queries, cli-large. Each is a
seeded closed loop with one client. A run sets up three times (set-up is
input generation, a fresh-interpreter import of the library and one warm-up
operation; `setup_s` is the median), then measures whole rounds of
operations for about --seconds seconds and checks every answer. It runs at
least as many rounds as the workload's tail percentile needs (see
min_rounds), even if that takes longer than --seconds.

With --trace 0 it prints the end-to-end metrics:
  setup_s      median set-up time
  wall_s       median time to complete one round (sum of its operations)
  ops_per_s    completed operations per second of operation time
  op_p50_ms    median operation latency
  op_tail_ms   operation latency at the workload's fixed tail percentile;
               left out, never replaced by a lower percentile, when fewer
               than MIN_BEYOND samples lie beyond it
  peak_rss_mb  peak resident memory (for cli-large, the largest CLI process)

With --trace 1 it measures untraced rounds for half of --seconds, replays
the same rounds with every public function of each cayley module wrapped,
asserts that the outputs agree, and prints per-layer metrics per round:
`<module>.<function>.{calls,total_s,self_s}` (the kernel as `kernel.*`),
`<module>.self_s`, kernel nodes and tables, ratios, and trace.overhead_s.
Spans are kept in memory and written to .perfbench_out/ at exit.

The line before the last holds the environment (kernel backend, Python and
numpy versions, CPU count, git sha, source digest), the tail percentile
and sample count, and every failure with its cause. Runs on different
kernel backends are not comparable: the compiled kernel is about 40x faster
than the pure one. The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("enumerate", "iso-queries", "cli-large")
SETUP_REPEATS = 3
MIN_ROUNDS = 2
MIN_BEYOND = 10  # samples that must lie beyond the tail percentile
MAX_FAILURES_SHOWN = 20


def load_library():
    """Import cayley from this checkout's src/, or exit with code 2."""
    if not (SRC / "cayley" / "__init__.py").is_file():
        print(f"perfbench: no cayley sources under {SRC}; run from the repository root",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import cayley

    if Path(cayley.__file__).resolve().parent != (SRC / "cayley").resolve():
        print(f"perfbench: imported cayley from {cayley.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def make_workload(name: str, work: Path):
    import workloads

    if name == "enumerate":
        return workloads.Enumerate()
    if name == "iso-queries":
        return workloads.IsoQueries()
    return workloads.CliLarge(SRC, work)


def environment() -> dict:
    from cayley import enumeration

    digest = hashlib.sha256()
    for path in sorted((SRC / "cayley").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.split()
        git_sha = top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT.resolve() else None
    except OSError:
        git_sha = None
    return {
        "backend": enumeration.BACKEND,
        "CAYLEY_PURE_FILL": os.environ.get("CAYLEY_PURE_FILL"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


def set_up(wl, seed: int) -> list[float]:
    """Set up SETUP_REPEATS times; return the time of each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # Captured output ends the wait at pipe close; a bare timeout makes
        # subprocess poll for the exit in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", "import cayley.cli"], env=env, check=True,
                       capture_output=True, timeout=120)
        wl.setup(seed)
        wl.warm()
        times.append(time.perf_counter() - start)
    return times


class Measurement:
    def __init__(self) -> None:
        self.latencies: list[float] = []  # seconds per operation
        self.round_times: list[float] = []  # seconds of operation time per round
        self.outputs: list = []
        self.kinds: list[str] = []
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)


def beyond(samples: int, pct: int) -> int:
    """Samples above numpy's (linear) `pct` percentile of `samples` distinct values."""
    return samples - 1 - pct * (samples - 1) // 100


def min_rounds(wl) -> int:
    """Fewest rounds that put MIN_BEYOND samples beyond the workload's tail percentile."""
    per_round = len(wl.round_ops(0))
    rounds = MIN_ROUNDS
    while beyond(rounds * per_round, wl.tail_pct) < MIN_BEYOND:
        rounds += 1
    return rounds


def measure(wl, seconds: float | None = None, rounds: int | None = None,
            tracer=None, least: int = MIN_ROUNDS) -> Measurement:
    """Run whole rounds: a given number, or at least `least` and while the next
    one fits in `seconds`."""
    result = Measurement()
    elapsed: list[float] = []
    start = time.perf_counter()
    index = 0
    while True:
        if rounds is not None:
            if index == rounds:
                break
        elif (index >= least
              and time.perf_counter() - start + statistics.median(elapsed) > seconds):
            break
        round_start = time.perf_counter()
        busy = 0.0
        for op in wl.round_ops(index):
            payload = wl.prepare(op)
            if tracer is not None:
                tracer.op = len(result.latencies)
            error = None
            t0 = time.perf_counter()
            try:
                output = wl.execute(payload, tracer)
            except Exception as exc:  # a failed operation is recorded, not fatal
                error = exc
            latency = time.perf_counter() - t0
            busy += latency
            result.latencies.append(latency)
            result.kinds.append(op.kind)
            if error is None:
                try:
                    result.outputs.append(wl.check(op, payload, output))
                except Exception as exc:  # WrongAnswer, or output that cannot be parsed
                    error = exc
            if error is not None:
                cause = f"{type(error).__name__}: {error}"
                result.failures.append(f"{op.kind} {op.args}: {cause}")
                result.outputs.append(("failed", cause))
        result.round_times.append(busy)
        elapsed.append(time.perf_counter() - round_start)
        index += 1
    return result


def tail(values: list[float], pct: int) -> float | None:
    """The `pct` percentile, or None if fewer than MIN_BEYOND samples lie beyond it."""
    value = float(numpy.percentile(values, pct))
    if sum(v > value for v in values) < MIN_BEYOND:
        return None
    return value


def end_to_end(wl, m: Measurement, setup_s: float) -> tuple[dict, dict]:
    tail_s = tail(m.latencies, wl.tail_pct)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(m.round_times), "s"),
        "ops_per_s": ((len(m.latencies) - m.failed) / sum(m.latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(m.latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    if tail_s is not None:
        metrics["op_tail_ms"] = (1e3 * tail_s, "ms")
    details = {"tail_pct": wl.tail_pct, "samples": len(m.latencies),
               "rounds": len(m.round_times)}
    return metrics, details


def per_layer(wl, traced: Measurement, untraced: Measurement, tracer) -> dict:
    from tracer import LABELS, module_of

    rounds = len(traced.round_times)
    metrics: dict[str, tuple[float, str]] = {}
    module_self: dict[str, float] = {}
    for label in LABELS:
        calls, total_ns, self_ns = tracer.stats[label]
        metrics[f"{label}.calls"] = (calls / rounds, "calls/round")
        metrics[f"{label}.total_s"] = (total_ns / 1e9 / rounds, "s/round")
        metrics[f"{label}.self_s"] = (self_ns / 1e9 / rounds, "s/round")
        module = module_of(label)
        module_self[module] = module_self.get(module, 0.0) + self_ns / 1e9 / rounds
    for module, value in module_self.items():
        if module != "kernel":
            metrics[f"{module}.self_s"] = (value, "s/round")
    counters = tracer.counters
    tables = counters["kernel.tables"]
    iso_calls = tracer.stats["morphisms.find_isomorphism"][0]
    cli_calls, cli_ns, _ = tracer.stats["cli.main"]
    overhead = (sum(traced.latencies) - cli_ns / 1e9) / cli_calls if cli_calls else 0.0
    metrics.update({
        "kernel.nodes": (counters["kernel.nodes"] / rounds, "nodes/round"),
        "kernel.tables": (tables / rounds, "tables/round"),
        "enumeration.useful_ratio": (
            counters["enumeration.classes"] / tables if tables else 0.0, "ratio"),
        "morphisms.find_isomorphism.hit_ratio": (
            counters["morphisms.find_isomorphism.hits"] / iso_calls if iso_calls else 0.0,
            "ratio"),
        "morphisms.automorphism_group.autos": (
            counters["morphisms.automorphism_group.autos"] / rounds, "autos/round"),
        "fileformat.read_group.bytes": (
            counters["fileformat.read_group.bytes"] / rounds, "bytes/round"),
        "cli.process_overhead_s": (overhead, "s/op"),
        "trace.overhead_s": (
            statistics.median(traced.round_times) - statistics.median(untraced.round_times),
            "s/round"),
    })
    return metrics


def run_workload(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of a workload; returns (result, details) as printed."""
    setup_times = set_up(wl, seed)
    if not trace:
        m = measure(wl, seconds=seconds, least=min_rounds(wl))
        metrics, details = end_to_end(wl, m, statistics.median(setup_times))
        failures = m.failures
        attempted = len(m.latencies)
    else:
        from tracer import Tracer

        untraced = measure(wl, seconds=seconds / 2)
        tracer = Tracer()
        if wl.in_process:
            tracer.install()
        try:
            traced = measure(wl, rounds=len(untraced.round_times), tracer=tracer)
        finally:
            tracer.uninstall()
        failures = untraced.failures + traced.failures
        for i, (a, b) in enumerate(zip(untraced.outputs, traced.outputs)):
            if a != b:
                failures.append(f"op {i} ({traced.kinds[i]}): TraceMismatch: traced output "
                                "differs from untraced")
        if not wl.uses_kernel and tracer.stats["kernel"][0]:
            failures.append(f"KernelCalled: {tracer.stats['kernel'][0]} kernel calls in the "
                            "timed phase")
        metrics = per_layer(wl, traced, untraced, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{wl.name}-seed{seed}.json")
        attempted = len(untraced.latencies) + len(traced.latencies)
        details = {"rounds": len(traced.round_times), "spans": len(tracer.spans)}
        m = traced
    details.update(
        workload=wl.name, seed=seed, trace=int(trace), environment=environment(),
        setup_times_s=setup_times,
        kind_share={k: m.kinds.count(k) / len(m.kinds) for k in sorted(set(m.kinds))},
        kind_p50_ms={k: 1e3 * statistics.median(t for t, kind in zip(m.latencies, m.kinds)
                                                 if kind == k) for k in sorted(set(m.kinds))},
        failed_frac=len(failures) / attempted,
        failures=failures[:MAX_FAILURES_SHOWN],
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, details


def print_report(result: dict, details: dict) -> None:
    env = details["environment"]
    tail_note = (f" tail=p{details['tail_pct']} samples={details['samples']}"
                 if "tail_pct" in details else "")
    print(f"perfbench {details['workload']} seed={details['seed']} trace={details['trace']} "
          f"backend={env['backend']} failed_frac={details['failed_frac']:.4g}{tail_note}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}  [{env['backend']}]")
    for failure in details["failures"]:
        print(f"  FAILED {failure}")


def run_all(args) -> int:
    """Every workload, each in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_library()
    if args.workload == "all":
        return run_all(args)
    work = WORK / f"{args.workload}-{os.getpid()}"
    wl = make_workload(args.workload, work)
    try:
        result, details = run_workload(wl, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print_report(result, details)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
