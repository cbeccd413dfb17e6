"""Benchmark for padicframes: one workload per run, closed loop, one client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload frame-exact --seed 1 --seconds 25 --trace 0

Workloads: frame-exact, genericity-p3, mra-span, cli-batch (see
``workloads.py`` and ``CONTRACT.md``).  The library is imported from
``src/`` of the checkout and nowhere else.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``: the
loop runs whole rounds until the operations have been busy for ``--seconds``
seconds and the workload's minimum round count is reached.  ``--trace 1``
runs round 0, first untraced and then under the outside-in tracer, and
reports the per-layer metrics; a fixed round makes every ``.calls`` figure
repeat exactly for a given seed.  ``--smoke`` runs a single round of a tiny
sample (for the benchmark's own tests).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record of the run, with the run conditions, is
written to ``bench/out/``.  Exit status 2 means the benchmark could not run
(for example, no ``src/padicframes`` next to it).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

from tracing import LAYERS, OP_SPAN, SETUP_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, CliBatch, child_env  # noqa: E402

SETUP_SAMPLES = 5
# Seed kept out of all tuning; results on it are the check that a tuned
# benchmark still holds on inputs nobody looked at.
HELD_OUT_SEED = 7919
WALL_LIMIT_S = 150.0
TAIL_LEVELS = (99, 95, 90, 75, 50)
MIN_BEYOND = 10
HD_STEPS = 8  # midpoint-rule steps per order statistic
IMPORT_PROBE = "import padicframes.cli, sys; sys.stdout.write(padicframes.cli.__file__)"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Library loading and run conditions
# ---------------------------------------------------------------------------


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def load_library() -> SimpleNamespace:
    """Import every layer afresh from ``src/``, dropping earlier copies."""
    for name in [n for n in sys.modules
                 if n == "padicframes" or n.startswith("padicframes.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"padicframes.{layer}") for layer in LAYERS}
    for mod in mods.values():
        if not _under_src(mod.__file__):
            raise BenchError(f"{mod.__name__} was imported from {mod.__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def git_sha(root: Path):
    """HEAD commit of the checkout; None when it is no clone or git is missing."""
    if not (root / ".git").exists():  # not the HEAD of some enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest(src: Path) -> str:
    """sha256 over the library sources, for checkouts that are not clones."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_conditions(seed: int, loadavg) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg),
        "git_sha": git_sha(ROOT),
        "src_sha256": src_digest(SRC),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seed_is_held_out": seed == HELD_OUT_SEED,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.latencies_ms: list[float] = []
        self.labels: list[str] = []
        self.results: list = []

    def execute(self, op, tracer=None, keep=False) -> None:
        """Run one op, time it, check it.  An exception or a wrong result is
        a failure; the traceback goes to standard error."""
        self.attempted += 1
        ok, result = False, None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.span(OP_SPAN):
                    result = op.run()
            elapsed = time.perf_counter() - start
            ok = bool(op.check(result))
        except Exception:  # noqa: BLE001 - a failing op must not stop the run
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
        self.busy_s += elapsed
        if ok:
            self.latencies_ms.append(elapsed * 1e3)
            self.labels.append(op.label)
        else:
            self.failed += 1
            print(f"FAILED op: {op.label}", file=sys.stderr)
        if keep:
            self.results.append(result)


def harrell_davis(sorted_values: list[float], pct: int) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile: a mean of all order
    statistics, the i-th weighted by the Beta(q(n+1), (1-q)(n+1)) probability
    of ((i-1)/n, i/n].  Where a single order statistic would land on one of
    a few samples of one slow case, or flip between two cases, this one
    averages the samples around that rank.  Weights beyond 12 standard
    deviations of the Beta distribution are dropped; the rest are
    integrated by the midpoint rule and normalised."""
    n, q = len(sorted_values), pct / 100
    if n == 1 or q == 1:
        return sorted_values[-1]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    mean, sd = a / (a + b), math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    lo = max(0, math.floor((mean - 12 * sd) * n))
    hi = min(n, math.ceil((mean + 12 * sd) * n))
    total = weight_sum = 0.0
    for i in range(lo, hi):
        weight = 0.0
        for k in range(HD_STEPS):
            x = (i + (k + 0.5) / HD_STEPS) / n
            weight += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        total += weight * sorted_values[i]
        weight_sum += weight
    return total / weight_sum


def tail_level(n: int, preferred: int) -> int:
    """The workload's tail level when at least MIN_BEYOND of n samples lie
    beyond its nearest-rank position, else the highest level of TAIL_LEVELS
    that has them (only short smoke runs get there), else 100."""
    for pct in (preferred,) + TAIL_LEVELS:
        rank = -(-pct * n // 100)
        if n - rank >= MIN_BEYOND:
            return pct
    return 100


def make_workload(name: str, lib, seed: int, smoke: bool, in_process_cli=False):
    cls = WORKLOADS[name]
    if cls is CliBatch:
        return CliBatch(lib, seed, smoke, src=SRC, in_process_cli=in_process_cli)
    return cls(lib, seed, smoke)


def cli_import_subprocess() -> None:
    """Import the CLI in a child interpreter, as every cli-batch op does."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=child_env(SRC), stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=60, check=False)
    if proc.returncode != 0 or not _under_src(proc.stdout.decode()):
        raise BenchError("a child interpreter cannot import padicframes from src/: "
                         + proc.stderr.decode()[-500:])


def set_up(name: str, seed: int, smoke: bool):
    """One timed set-up: a fresh import (in a child interpreter for
    cli-batch) and the generation of round 0, which makes the same number
    of generator draws for every seed."""
    start = time.perf_counter()
    if WORKLOADS[name] is CliBatch:
        cli_import_subprocess()
        workload = make_workload(name, None, seed, smoke)
    else:
        workload = make_workload(name, load_library(), seed, smoke)
    first = workload.make_round(0)
    return workload, first, time.perf_counter() - start


def timed_run(name: str, seed: int, seconds: int, smoke: bool, deadline: float) -> dict:
    """Whole rounds until busy for ``seconds`` and ``min_rounds`` are done.

    Set-up is timed SETUP_SAMPLES times: once before the loop, then between
    rounds each time another share of ``seconds`` has been busy, and after
    the loop for any samples still missing.  Spreading the samples over the
    run lets them see the same host conditions as the ops.  Only the first
    set-up feeds the loop; the others are timed and dropped.
    """
    workload, first, elapsed = set_up(name, seed, smoke)
    setup_times = [elapsed]

    loop = Tally()
    ops, rounds = first, 0
    while True:
        for op in ops:
            loop.execute(op)
            if time.monotonic() > deadline:
                break
        rounds += 1
        if smoke or time.monotonic() > deadline:
            break
        if rounds >= workload.min_rounds and loop.busy_s >= seconds:
            break
        if (len(setup_times) < SETUP_SAMPLES
                and loop.busy_s >= len(setup_times) * seconds / SETUP_SAMPLES):
            setup_times.append(set_up(name, seed, smoke)[2])
        ops = workload.make_round(rounds)
    while len(setup_times) < SETUP_SAMPLES:
        setup_times.append(set_up(name, seed, smoke)[2])

    # before the oracles: the direct-method oracle's memory depends on the seed
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    oracles = Tally()
    for op in workload.oracles(first):
        oracles.execute(op)

    # With no correct op there is no latency to report; correct is false then.
    lat = sorted(loop.latencies_ms) or [0.0]
    tail_pct = tail_level(len(lat), workload.tail_pct)
    attempted = loop.attempted + oracles.attempted
    failed = loop.failed + oracles.failed
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": (loop.attempted - loop.failed) / loop.busy_s,
        "latency_p50_ms": harrell_davis(lat, 50),
        "latency_tail_ms": harrell_davis(lat, tail_pct),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "rounds": rounds,
        "timed_ops": loop.attempted,
        "timed_failed": loop.failed,
        "busy_s": loop.busy_s,
        "oracle_checks": oracles.attempted,
        "oracle_failed": oracles.failed,
        "fail_ratio": failed / attempted,
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(loop.latencies_ms),
        "setup_s_samples": setup_times,
        "op_latencies_ms": [[label, ms] for label, ms in zip(loop.labels, loop.latencies_ms)],
        "peak_rss_scope": "self" if workload.in_process else "children",
    }
    return {"values": values, "attempted": attempted, "failed": failed,
            "correct": failed == 0, "detail": detail}


def traced_run(name: str, seed: int, smoke: bool) -> dict:
    """Untraced pass, then traced pass, over round 0."""
    import_times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        lib = load_library()
        import_times.append(time.perf_counter() - start)
    workload = make_workload(name, lib, seed, smoke, in_process_cli=True)

    plain = Tally()
    for op in workload.make_round(0):
        plain.execute(op, keep=True)

    traced = Tally()
    with Tracer() as tracer:
        with tracer.span(SETUP_SPAN):
            ops = workload.make_round(0)
        for op in ops:
            traced.execute(op, tracer=tracer, keep=True)
    # compared after the tracer is gone, so comparisons leave no spans
    mismatched = sum(1 for a, b in zip(plain.results, traced.results) if a != b)
    if mismatched:
        print(f"FAILED: {mismatched} results differ between untraced and traced runs",
              file=sys.stderr)
    if tracer.bad_ops or tracer.orphan_spans:
        print(f"FAILED: {tracer.bad_ops} ops whose span self times do not add up to"
              f" the op's duration, {tracer.orphan_spans} spans outside any op",
              file=sys.stderr)

    extra = {
        "cli.import_s": statistics.median(import_times),
        "trace.overhead": (traced.attempted / traced.busy_s) / (plain.attempted / plain.busy_s),
    }
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed + mismatched
    return {
        "tracer": tracer,
        "extra": extra,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and tracer.bad_ops == 0 and tracer.orphan_spans == 0,
        "detail": {
            "ops": traced.attempted,
            "untraced_busy_s": plain.busy_s,
            "traced_busy_s": traced.busy_s,
            "results_mismatched": mismatched,
            "bad_ops": tracer.bad_ops,
            "orphan_spans": tracer.orphan_spans,
            "span_total": tracer.span_total,
            "fail_ratio": failed / attempted,
            "import_s_samples": import_times,
        },
    }


def per_layer_value(metric: str, tracer: Tracer, extra: dict):
    if metric in extra:
        return extra[metric]
    if metric in tracer.counters:
        return tracer.counters[metric]
    base, _, kind = metric.rpartition(".")
    if base not in tracer.span_names and base not in LAYERS:
        raise BenchError(f"per-layer metric {metric!r} names no traced span or layer")
    if kind == "calls":
        return tracer.calls.get(base, 0)
    if kind == "self_s":
        return tracer.self_s.get(base, 0.0) if "." in base else tracer.layer_self_s(base)
    raise BenchError(f"per-layer metric {metric!r} has no known kind")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of a tiny sample (benchmark self-test)")
    return parser.parse_args(argv)


def write_record(name: str, record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    began = time.monotonic()
    loadavg = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "padicframes" / "__init__.py").is_file():
        print(f"bench: no library at {SRC / 'padicframes'}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    conditions = run_conditions(args.seed, loadavg)
    try:
        if args.trace:
            run = traced_run(args.workload, args.seed, args.smoke)
            tracer = run["tracer"]
            metrics = {m["name"]: {"value": per_layer_value(m["name"], tracer, run["extra"]),
                                   "unit": m["unit"]}
                       for m in contract["per_layer"]}
            trace_path = write_record(
                f"trace-{args.workload}-seed{args.seed}.json",
                {"conditions": conditions, **tracer.dump()})
            run["detail"]["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            run = timed_run(args.workload, args.seed, args.seconds, args.smoke,
                            began + WALL_LIMIT_S)
            metrics = {m["name"]: {"value": run["values"][m["name"]], "unit": m["unit"]}
                       for m in contract["end_to_end"]}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    result = {"correct": run["correct"], "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    record = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke,
              "seconds": args.seconds, "conditions": conditions,
              "detail": run["detail"], **result}
    write_record(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("conditions " + json.dumps(conditions, sort_keys=True))
    print("detail " + json.dumps({k: v for k, v in run["detail"].items()
                                  if k != "op_latencies_ms"}, sort_keys=True))
    for metric, entry in metrics.items():
        print(f"  {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
    if not args.trace:
        detail = run["detail"]
        print(f"  {'fail_ratio':<40} {detail['fail_ratio']:>16.6g} ratio"
              f"  ({run['failed']} of {run['attempted']})")
        print(f"  latency_tail_ms is p{detail['latency_tail_percentile']}"
              f" of {detail['latency_samples']} samples")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
