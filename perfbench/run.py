"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload inmem-gnm8k --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all    # each workload in turn

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up and timed operations repeat until about ``--seconds`` seconds
have passed, and timings are medians over the repeats.  End-to-end
timings are process CPU seconds (user + system, every thread), scaled
by the CPU time of a fixed reference loop timed around each operation:
on a shared host, wall clock mostly measures how long the process was
kept off the CPU, and CPU time how fast the host ran.  ``--trace 1`` runs a traced operation between two
untraced ones and reports the per-layer metrics, including the
operation's wall clock, serve latency and throughput, tracing overhead
and span coverage.  ``--size smoke``
shrinks every workload to a few seconds for the benchmark's own tests.

Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names and units come
from ``BENCHMARK.json`` at the checkout root.  A wrong output makes the
run fail: ``correct`` is false and the exit code is 1.  Without the
program's sources next to it the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfbench_work"

#: The seed for routine runs, and one kept back: a later claim must also
#: hold on the held-out seed, which no change was tuned against.
DEFAULT_SEED = 1
HELDOUT_SEED = 7

#: Before each untraced operation, set-up repeats at least
#: ``MIN_SETUPS`` times and until ``MIN_SETUP_SECONDS`` of CPU have
#: passed (at most ``MAX_SETUPS`` times), so a set-up of a millisecond
#: still gets a steady median, sampled across the whole run.
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 0.3
MAX_SETUPS = 100

#: Host speed.  A shared host runs the same instructions up to three
#: times slower for minutes at a time, and CPU time slows with it.
#: After every operation the benchmark times a fixed reference loop
#: that calls nothing of the program, and scales the run's operation
#: and set-up CPU times by ``REFERENCE_S`` over the loop's mean CPU
#: time: timings are CPU seconds of a host on which the loop takes
#: ``REFERENCE_S``.  The host's speed also wavers by several percent
#: from one second to the next, so the loop repeats for a few seconds
#: per operation and its mean is taken over the whole run.
REFERENCE_S = 0.05
REFERENCE_REPEATS = 20

#: Only the benchmark chooses how the program runs: every ``REPRO_*``
#: variable (backend, governor, kernel, shard dir, sweep knobs) is
#: stripped.  The serve request path has no kernel argument, so the
#: kernel is pinned for it through its one knob; the solver workloads
#: pass ``kernel="numpy"`` explicitly as well.
PINNED_ENV = {
    "REPRO_KERNEL": "numpy",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_environment() -> List[str]:
    """Strip every ``REPRO_*`` override; returns the names removed."""
    stripped = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in stripped:
        del os.environ[name]
    os.environ.update(PINNED_ENV)
    return stripped


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: ``len * (1 - q)`` samples lie above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def reference_loop() -> int:
    """Fixed pure-Python work of the program's kind: a dict of small
    tuples and lists, a type-checked walk, a keyed sort and a set."""
    table = {}
    for i in range(40000):
        table[i] = (i, i * 7919 % 1009, [i & 7, i >> 3])
    total = 0
    for value in table.values():
        if isinstance(value, tuple):
            total += value[1] + len(value[2])
    ordered = sorted(table.values(), key=lambda v: (v[1], v[0]))
    return total + len({v[1] for v in ordered})


def reference_seconds() -> float:
    """Mean CPU seconds of ``REFERENCE_REPEATS`` reference loops."""
    samples = []
    for _ in range(REFERENCE_REPEATS):
        gc.collect()
        started = time.process_time()
        reference_loop()
        samples.append(time.process_time() - started)
    return statistics.fmean(samples)


def peak_rss_mb() -> float:
    """The process high-water mark (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Set-up and operation loop for one workload."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.setup_s: List[float] = []
        self.reference_s: List[float] = []

    def fresh_inputs(self, repeat: bool = False):
        """Make inputs; each set-up's CPU seconds are a ``setup_s`` sample.

        With ``repeat``, set up as often as ``MIN_SETUPS`` and
        ``MIN_SETUP_SECONDS`` ask and keep the last inputs.
        """
        samples: List[float] = []
        while True:
            inputs = None
            gc.collect()  # garbage of earlier inputs is not this cost
            started = time.process_time()
            inputs = self.workload.setup()
            samples.append(time.process_time() - started)
            if not repeat or len(samples) >= MAX_SETUPS or (
                len(samples) >= MIN_SETUPS
                and sum(samples) >= MIN_SETUP_SECONDS
            ):
                break
        self.setup_s.extend(samples)
        return inputs

    def operate(self, inputs, tracer=None):
        """Time one operation (traced if a tracer is given), then check it."""
        workload = self.workload
        gc.collect()  # garbage of the previous operation is not its cost
        with tracer.installed() if tracer else contextlib.nullcontext():
            cpu_started = time.process_time()
            started = time.perf_counter()
            try:
                value = workload.solve(inputs)
            except Exception as exc:  # a failed operation is counted
                from workloads import Outcome

                return Outcome(
                    wall_s=time.perf_counter() - started,
                    attempted=workload.attempts(inputs),
                    failures=[f"{type(exc).__name__}: {exc}"],
                )
            wall = time.perf_counter() - started
            cpu_s = time.process_time() - cpu_started
        outcome = workload.check(inputs, value, wall)
        outcome.cpu_s = cpu_s
        return outcome


def identity_failures(outcomes, what: str) -> List[str]:
    """Exact agreement of every operation's output with the first's."""
    known = [o.identity for o in outcomes if o.identity is not None]
    if any(identity != known[0] for identity in known[1:]):
        return [f"{what} disagree on members, rounds or words"]
    return []


def failed_count(outcomes) -> int:
    return sum(min(o.attempted, len(o.failures)) for o in outcomes)


def untraced(runner: Runner, seconds: float):
    """End-to-end metrics: repeat set-up + operation for ``seconds``."""
    outcomes = []
    started = time.perf_counter()
    while True:
        outcomes.append(runner.operate(runner.fresh_inputs(repeat=True)))
        if len(outcomes) == 1:
            # The high-water mark of set-up and one operation, before
            # any reference loop: later operations would make it depend
            # on how many fit the run.
            peak_rss = peak_rss_mb()
        runner.reference_s.append(reference_seconds())
        elapsed = time.perf_counter() - started
        # Stop within half an operation of the budget, either side.
        if elapsed + 0.5 * elapsed / len(outcomes) >= seconds:
            break
    outcomes[-1].failures.extend(identity_failures(outcomes, "operations"))
    first = outcomes[0]
    attempted = sum(o.attempted for o in outcomes)
    failed = failed_count(outcomes)
    scale = REFERENCE_S / statistics.fmean(runner.reference_s)
    metrics = {
        "op_cpu_s": scale * statistics.median(o.cpu_s for o in outcomes),
        "setup_s": scale * statistics.median(runner.setup_s),
        "peak_rss_mb": peak_rss,
        "rounds": first.rounds,
        "total_words": first.total_words,
        "peak_memory_words": first.peak_memory_words,
        "ok_rate": (attempted - failed) / attempted,
    }
    return outcomes, metrics


def build_tracer(serve_calls: Dict[str, tuple]):
    """Every layer boundary the per-layer metrics are measured at."""
    import workloads
    from tracer import Tracer

    from repro.core import det_luby, det_ruling, gp_ruling, pipeline
    from repro.core.session import SolverSession
    from repro.graph import generators, stream
    from repro.mpc import shard
    from repro.mpc.backends import SerialBackend, SuperstepBackend
    from repro.mpc.graph_store import DistributedGraph
    from repro.mpc.machine import Machine
    from repro.mpc.simulator import Simulator
    from repro.serve import BatchEngine, ResultCache

    def on_serve(args, kwargs, record, seconds):
        serve_calls[str(args[1].get("id"))] = (
            seconds, record.get("_serve", {}).get("cache")
        )

    tracer = Tracer()
    targets = [
        (generators, "gnm_random_graph", "graph.generate"),
        (generators, "gnp_random_graph", "graph.generate"),
        (generators, "random_tree", "graph.generate"),
        (workloads, "write_circulant", "graph.generate"),
        (stream, "scan_edge_list_stats", "graph.stream.scan"),
        (stream, "shard_edge_list", "graph.stream.shard"),
        (DistributedGraph, "load", "mpc.graph_store.load"),
        (DistributedGraph, "load_sharded", "mpc.graph_store.load"),
        (SolverSession, "resolve_config", "core.session.resolve_config"),
        (pipeline, "make_config_from_stats", "core.session.resolve_config"),
        (pipeline, "verify_ruling_set", "core.verify.verify"),
        (Simulator, "local", "mpc.simulator.local"),
        (Simulator, "communicate", "mpc.simulator.communicate"),
        (SerialBackend, "run_local", "mpc.backends.run_local"),
        (SerialBackend, "run_communicate", "mpc.backends.run_communicate"),
        (SuperstepBackend, "run_harvest", "mpc.backends.run_harvest"),
        (Machine, "memory_words", "mpc.machine.memory_words"),
        (shard, "words_of", "mpc.machine.words_of_spill"),
        (shard.ShardBackend, "run_local", "mpc.shard.run_local"),
        (shard.ShardBackend, "run_exchange", "mpc.shard.run_exchange"),
        (shard.ShardBackend, "run_harvest", "mpc.shard.run_harvest"),
        (det_ruling, "distributed_scan_seeds", "derand.scan_seeds"),
        (gp_ruling, "distributed_scan_seeds", "derand.scan_seeds"),
        (det_luby, "distributed_choose_seed", "derand.choose_seed"),
        (ResultCache, "get", "serve.cache.get"),
        (ResultCache, "put", "serve.cache.put"),
        (BatchEngine, "serve_request", "serve.engine.serve_request"),
    ]
    for owner, attr, name in targets:
        hook = on_serve if owner is BatchEngine else None
        if not tracer.add(owner, attr, name, on_exit=hook):
            print(f"perfbench: {owner.__name__}.{attr} not found; layer "
                  f"{name} is not traced", file=sys.stderr)
    return tracer


#: Layers reported as ``<name>_s`` (inclusive time) and, where listed in
#: BENCHMARK.json, ``<name>_calls``.
TIMED_LAYERS = (
    "graph.stream.scan", "graph.stream.shard", "mpc.graph_store.load",
    "core.session.resolve_config", "core.verify.verify",
    "mpc.simulator.local", "mpc.simulator.communicate",
    "mpc.backends.run_local", "mpc.backends.run_communicate",
    "mpc.backends.run_harvest", "mpc.machine.memory_words",
    "mpc.machine.words_of_spill", "mpc.shard.run_local",
    "mpc.shard.run_exchange", "mpc.shard.run_harvest",
    "derand.scan_seeds", "derand.choose_seed",
    "serve.cache.get", "serve.cache.put",
)


def traced(runner: Runner, declared: List[dict]):
    """Per-layer metrics: a traced operation between two untraced."""
    serve_calls: Dict[str, tuple] = {}
    tracer = build_tracer(serve_calls)
    reference_s = reference_seconds()
    base = runner.operate(runner.fresh_inputs())
    with tracer.installed():
        inputs = runner.fresh_inputs()
    generate_setup_s = tracer.stats["graph.generate"].total_s
    tracer.reset()
    run = runner.operate(inputs, tracer)
    # Untraced on both sides of the traced operation, so warm-up and
    # slow drift over the run cancel out of the overhead ratio.
    after = runner.operate(runner.fresh_inputs())
    outcomes = [base, run, after]
    run.failures.extend(
        identity_failures(outcomes, "traced and untraced operations")
    )
    untraced_wall = (base.wall_s + after.wall_s) / 2
    latencies = base.latencies_s + after.latencies_s
    stats = tracer.stats
    wall = run.wall_s
    charged = tracer.self_total_s()
    # What a user waits for, from the untraced operations: wall clock,
    # requests (solves) per second, and the 95th-percentile latency.
    layers: Dict[str, float] = {
        "wall_s": untraced_wall,
        "serve_rps": (base.attempted + after.attempted) / (
            base.wall_s + after.wall_s
        ),
        "serve_p95_ms": 1000.0 * percentile(latencies, 0.95),
        # The host's speed when the layers were timed: layer seconds are
        # not scaled, unlike the end-to-end timings.
        "host.reference_loop_s": reference_s,
    }
    for name in TIMED_LAYERS:
        layers[f"{name}_s"] = stats[name].total_s
        layers[f"{name}_calls"] = stats[name].calls
    layers["graph.generate_s"] = (
        generate_setup_s + stats["graph.generate"].total_s
    )
    layers["mpc.simulator.exchange_self_s"] = (
        stats["mpc.simulator.communicate"].self_s
    )
    layers["core.driver_s"] = wall - charged
    # Wall the process spent not running: disk waits (shard spills) and
    # lock or queue waits.  Charged to no layer; it sits in their spans.
    layers["process.cpu_s"] = run.cpu_s
    layers["process.blocked_s"] = max(0.0, wall - run.cpu_s)
    layers["trace.coverage"] = charged / wall
    layers["trace.overhead_ratio"] = wall / untraced_wall - 1.0
    layers["mpc.metrics.reported_wall_ratio"] = (
        base.reported_wall_s / base.wall_s
    )
    accepted = (stats["derand.scan_seeds"].calls
                + stats["derand.choose_seed"].calls)
    layers["derand.seed_accept_ratio"] = (
        accepted / run.seed_candidates if run.seed_candidates else 0.0
    )
    # Declared phases get their rounds; unmarked rounds and phases the
    # declaration does not name go to phase.other.rounds.
    phases = {d["name"]: 0 for d in declared
              if d["name"].startswith("phase.")}
    other = base.rounds - sum(base.phase_rounds.values())
    for name, rounds in base.phase_rounds.items():
        key = f"phase.{name}.rounds"
        if key in phases and key != "phase.other.rounds":
            phases[key] = rounds
        else:
            other += rounds
    phases["phase.other.rounds"] = other
    layers.update(phases)
    layers.update(serve_layers(base, run, serve_calls))
    for name in ("mpc.shard.shard_loads", "mpc.shard.shard_spills",
                 "mpc.shard.max_resident_words", "serve.engine.executed",
                 "serve.engine.graph_loads", "serve.cache.hit_ratio"):
        layers[name] = base.counters.get(name, 0)
    print_breakdown(stats, wall, charged)
    return outcomes, layers


def serve_layers(base, run, serve_calls) -> Dict[str, float]:
    """Queueing and cache latencies; zero on the solver workloads."""
    waits, hits, misses = [], [], []
    for request_id, (seconds, kind) in serve_calls.items():
        if request_id in run.latency_by_id:
            waits.append(run.latency_by_id[request_id] - seconds)
        (hits if kind == "hit" else misses).append(seconds)

    def ms(values, q):
        return 1000.0 * percentile(values, q) if values else 0.0

    return {
        "serve.client.latency_ms_p50": ms(
            list(base.latency_by_id.values()), 0.5
        ),
        "serve.daemon.queue_wait_ms_p50": ms(waits, 0.5),
        "serve.daemon.queue_wait_ms_p95": ms(waits, 0.95),
        "serve.engine.hit_ms_p50": ms(hits, 0.5),
        "serve.engine.miss_ms_p50": ms(misses, 0.5),
    }


def print_breakdown(stats, wall: float, charged: float) -> None:
    """Human-readable span table of the traced operation (stderr)."""
    out = sys.stderr
    print(f"traced wall {wall:.3f} s; spans charge {charged:.3f} s "
          f"({charged / wall:.1%}); driver {wall - charged:.3f} s", file=out)
    print(f"{'layer':34} {'calls':>8} {'total_s':>9} {'self_s':>9} "
          f"{'self%':>6}", file=out)
    for name, span in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        if span.calls:
            print(f"{name:34} {span.calls:8d} {span.total_s:9.3f} "
                  f"{span.self_s:9.3f} {span.self_s / wall:6.1%}", file=out)


def environment(workload, stripped: List[str]) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "kernel": PINNED_ENV["REPRO_KERNEL"],
        "backend": workload.backend,
        "stripped_env": stripped,
    }


def emit(metrics: Dict[str, float], declared: List[dict]) -> dict:
    """Declared metrics in declared order, each with its unit."""
    names = [spec["name"] for spec in declared]
    missing = sorted(set(names) - set(metrics))
    extra = sorted(set(metrics) - set(names))
    if missing or extra:
        raise SystemExit(
            f"perfbench: metrics out of step with BENCHMARK.json: "
            f"missing {missing}, undeclared {extra}"
        )
    out = {}
    for spec in declared:
        value = metrics[spec["name"]]
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} {value} {spec['unit']}")
    return out


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every one")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in its own process, one after another.

    The final line sums ``attempted`` and ``failed`` and names each
    metric ``<workload>/<metric>``.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print(f"perfbench: program sources not found under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args, spec)
    stripped = pin_environment()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    tempfile.tempdir = workdir  # anything the program spills stays here
    try:
        runner = Runner(
            WORKLOADS[args.workload](args.seed, args.size == "smoke", workdir)
        )
        if args.trace:
            declared = spec["per_layer"]
            outcomes, metrics = traced(runner, declared)
        else:
            declared = spec["end_to_end"]
            outcomes, metrics = untraced(runner, args.seconds)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    failures = [f for o in outcomes for f in o.failures]
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    env = environment(runner.workload, stripped)
    env["workload"] = args.workload
    env["seed"] = args.seed
    env["operations"] = len(outcomes)
    print("env " + json.dumps(env, sort_keys=True))
    print("op_wall_s " + json.dumps([o.wall_s for o in outcomes]))
    print("op_cpu_s_unscaled " + json.dumps([o.cpu_s for o in outcomes]))
    if runner.reference_s:
        print("reference_s " + json.dumps(runner.reference_s))
    identity = outcomes[0].identity
    if isinstance(identity, str):
        print(f"digest {identity}")
    result = {
        "correct": not failures,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed_count(outcomes),
        "metrics": emit(metrics, declared),
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
