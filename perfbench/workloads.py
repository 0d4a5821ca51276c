"""The three benchmark workloads.

Each workload turns the workload seed into inputs (``setup``), makes
one operation on them through a public entry point (``solve``, the only
timed and traced call), and checks what the operation returned
(``check``).  An operation is one solve on the two solver workloads and
one full replay of the request trace on ``serve-mixed``.  Checks never
run inside the timed section unless the program itself runs them there
(``solve_ruling_set(verify=True)``).

Why each workload exists (see README.md for the layer map):

* ``inmem-gnm8k`` — the headline det-ruling cell at n = 8192 on the
  serial backend.  The memory accountant (``Machine.memory_words``)
  dominates it, so accounting and kernel changes show their full effect.
* ``stream-circulant2k`` — E14's out-of-core row at n = 2048.  Two-pass
  ingest, shard spill/load and spill-time pricing run here and nowhere
  else; the in-memory accountant never runs, so an accounting change
  must show no gain here.  Up to a quarter of its wall clock is spent
  blocked on spill-file writes; that wait is reported per layer
  (``process.blocked_s``), not in the end-to-end CPU time.
* ``serve-mixed`` — a closed loop of two clients against the serve
  daemon.  The only workload with queueing, a result cache (80% hits)
  and warm engine state.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cli import build_graph
from repro.core import pipeline
from repro.core.verify import verify_ruling_set
from repro.graph import generators
from repro.graph.io import read_edge_list
from repro.serve import BatchEngine, ResultCache, ServeDaemon, drive_requests

ALGORITHM = "det-ruling"
KERNEL = "numpy"

#: E14's checked-in rows (benchmarks/results/e14_shard_scale.txt):
#: n -> (rounds, size, total_words, resident_words).  The streamed
#: solve must reproduce them exactly, whatever the line order.
E14_ROWS = {
    512: (143, 171, 66155, 2895),
    2048: (556, 689, 632004, 10416),
}

#: Exact outputs at the default and the held-out seed (full size), so a
#: run on those seeds also catches an answer that changed but still
#: verifies.  inmem: seed -> (rounds, size, total_words); serve: seed ->
#: digest of every record's deterministic part.
INMEM_PINNED = {1: (131, 1692, 545783), 7: (134, 1698, 535444)}
SERVE_PINNED = {
    1: "656c520dd72d091ca536f741b8fd9268048b4df67dde010a3a00c8060dde2ede",
    7: "4cd754dae9ee7c4d21b59c0c81036295454c43ed7b79e9d3ee485113ca63ca04",
}

#: Claimed domination radius per serve algorithm; a served record that
#: claims more is wrong even if the oracle accepts the looser claim.
SERVE_BETA = {"det-ruling": 2, "det-luby": 1, "gp-2ruling": 2}
SERVE_TENANTS = ("alpha", "bravo")
SERVE_COPIES = 5
SERVE_CLIENTS = 2


@dataclass
class Outcome:
    """What one timed operation produced, with its check failures."""

    wall_s: float
    attempted: int
    failures: List[str] = field(default_factory=list)
    #: Compared for exact equality across the operations of a run and
    #: between the untraced and traced operation.
    identity: object = None
    rounds: int = 0
    total_words: int = 0
    peak_memory_words: int = 0
    #: One latency per request (serve) or the solve's own wall.
    latencies_s: List[float] = field(default_factory=list)
    #: Wall clock the simulator itself reported (``wall_time_s``).
    reported_wall_s: float = 0.0
    phase_rounds: Dict[str, int] = field(default_factory=dict)
    seed_candidates: int = 0
    #: Exact per-layer counters the program reports about itself.
    counters: Dict[str, float] = field(default_factory=dict)
    #: serve-mixed only: request id -> client-observed latency.
    latency_by_id: Dict[str, float] = field(default_factory=dict)
    #: Process CPU time (user + system) during the timed section.
    cpu_s: float = 0.0


def _model_fields(result) -> dict:
    return {
        "rounds": result.rounds,
        "total_words": int(result.metrics["total_words"]),
        "peak_memory_words": int(result.metrics["peak_memory_words"]),
        "reported_wall_s": float(result.wall_time_s),
        "phase_rounds": dict(result.phase_rounds),
        "seed_candidates": int(result.metrics.get("alg_seed_candidates", 0)),
    }


class InMemGnm:
    """det-ruling on ``gnm(8192, 32768, seed)``, serial backend, verified."""

    name = "inmem-gnm8k"
    backend = "serial"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.n, self.m = (512, 2048) if smoke else (8192, 32768)
        self.pinned = None if smoke else INMEM_PINNED.get(seed)

    def setup(self):
        return generators.gnm_random_graph(self.n, self.m, seed=self.seed)

    def attempts(self, graph) -> int:
        return 1

    def solve(self, graph):
        return pipeline.solve_ruling_set(
            graph, algorithm=ALGORITHM, backend="serial", kernel=KERNEL,
            verify=True,
        )

    def check(self, graph, result, wall: float) -> Outcome:
        members = tuple(result.members)
        failures = [] if members else ["empty ruling set"]
        row = (result.rounds, len(members), result.metrics["total_words"])
        if self.pinned is not None and row != self.pinned:
            failures.append(
                f"(rounds, size, total_words) is {row}, pinned "
                f"{self.pinned} for seed {self.seed}"
            )
        return Outcome(
            wall_s=wall,
            attempted=1,
            failures=failures,
            identity=(members, result.rounds, result.metrics["total_words"]),
            latencies_s=[wall],
            **_model_fields(result),
        )


def write_circulant(path: str, n: int, seed: int) -> None:
    """E14's circulant C_n(1, 5) edge list, lines shuffled by ``seed``.

    Ingest deduplicates and sorts per machine, so line order moves no
    model quantity; the seed only varies the bytes the ingest reads.
    """
    edges = []
    for v in range(n):
        for stride in (1, 5):
            u = (v + stride) % n
            edges.append((v, u) if v < u else (u, v))
    random.Random(seed).shuffle(edges)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"{n} {len(edges)}\n")
        handle.writelines(f"{lo} {hi}\n" for lo, hi in edges)


class StreamCirculant:
    """``solve_ruling_set_stream`` on E14's C_2048(1, 5), shard backend."""

    name = "stream-circulant2k"
    backend = "shard"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.n = 512 if smoke else 2048
        self.path = os.path.join(workdir, f"circulant_{self.n}.txt")
        self.spill_dir = os.path.join(workdir, "spill")

    def setup(self) -> str:
        write_circulant(self.path, self.n, self.seed)
        return self.path

    def attempts(self, path: str) -> int:
        return 1

    def solve(self, path: str):
        return pipeline.solve_ruling_set_stream(
            path, algorithm=ALGORITHM, kernel=KERNEL,
            spill_dir=self.spill_dir,
        )

    def check(self, path: str, result, wall: float) -> Outcome:
        failures = []
        try:
            verify_ruling_set(
                read_edge_list(path), result.members,
                alpha=result.alpha, beta=result.beta,
            )
        except Exception as exc:
            failures.append(f"verify: {type(exc).__name__}: {exc}")
        resident = int(result.metrics["shard_max_resident_words"])
        row = (result.rounds, result.size, result.metrics["total_words"],
               resident)
        if row != E14_ROWS[self.n]:
            failures.append(
                f"E14 row (rounds, size, total_words, resident_words) "
                f"is {row}, expected {E14_ROWS[self.n]}"
            )
        return Outcome(
            wall_s=wall,
            attempted=1,
            failures=failures,
            identity=(tuple(result.members),) + row,
            latencies_s=[wall],
            counters={
                "mpc.shard.shard_loads": result.metrics["shard_shard_loads"],
                "mpc.shard.shard_spills": result.metrics["shard_shard_spills"],
                "mpc.shard.max_resident_words": resident,
            },
            **_model_fields(result),
        )


def serve_graph_specs(seed: int, smoke: bool) -> List[dict]:
    """16 small graphs (n from 192 to 256), half gnp, half random trees."""
    rng = random.Random(seed)
    sizes = [32, 40] if smoke else [192 + 8 * i for i in range(8)]
    specs = []
    for n in sizes:
        specs.append({"family": "gnp", "n": n, "param": 8,
                      "seed": rng.randrange(1 << 30)})
        specs.append({"family": "tree", "n": n + 8,
                      "seed": rng.randrange(1 << 30)})
    return specs


def serve_requests(seed: int, smoke: bool) -> List[dict]:
    """Every (graph, algorithm) solve requested 5 times, shuffled."""
    requests = []
    for g, spec in enumerate(serve_graph_specs(seed, smoke)):
        for algorithm in sorted(SERVE_BETA):
            for copy in range(SERVE_COPIES):
                requests.append({
                    "id": f"g{g}/{algorithm}#{copy}",
                    "graph": dict(spec),
                    "algorithm": algorithm,
                })
    random.Random(seed + 1).shuffle(requests)
    for position, request in enumerate(requests):
        request["tenant"] = SERVE_TENANTS[position % len(SERVE_TENANTS)]
    return requests


def deterministic_part(record: dict) -> dict:
    """A served record minus its ``_serve`` side channel and ``id``."""
    return {
        key: value for key, value in record.items()
        if key not in ("_serve", "id")
    }


class ServeMixed:
    """Two closed-loop clients against an in-process ``ServeDaemon``."""

    name = "serve-mixed"
    backend = "serial"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.distinct = len(serve_graph_specs(seed, smoke)) * len(SERVE_BETA)
        self.pinned = None if smoke else SERVE_PINNED.get(seed)

    def setup(self) -> Tuple[List[dict], BatchEngine, ServeDaemon]:
        requests = serve_requests(self.seed, self.smoke)
        engine = BatchEngine(ResultCache())
        return requests, engine, ServeDaemon(engine, workers=1)

    def attempts(self, inputs) -> int:
        return len(inputs[0])

    def solve(self, inputs):
        requests, engine, daemon = inputs
        latency_by_id: Dict[str, float] = {}
        submit = daemon.submit

        async def timed_submit(data, *, tenant):
            # Client-observed latency: admission, queueing and service.
            started = time.perf_counter()
            record = await submit(data, tenant=tenant)
            latency_by_id[str(data.get("id"))] = (
                time.perf_counter() - started
            )
            return record

        daemon.submit = timed_submit
        records = asyncio.run(
            drive_requests(daemon, requests, concurrency=SERVE_CLIENTS)
        )
        return records, latency_by_id

    def check(self, inputs, value, wall: float) -> Outcome:
        requests, engine, daemon = inputs
        records, latency_by_id = value
        failures = []
        by_id = {str(record.get("id")): record for record in records}
        missing = len(requests) - len(by_id)
        if missing:
            failures.extend([f"{missing} requests got no response"] * missing)
        by_key: Dict[str, List[dict]] = {}
        misses = []
        for request in requests:
            record = by_id.get(request["id"])
            if record is None:
                continue
            if record.get("status") != "ok":
                failures.append(
                    f"{request['id']}: status {record.get('status')} "
                    f"{record.get('error', '')}"
                )
                continue
            by_key.setdefault(str(record["key"]), []).append(record)
            if record["_serve"].get("cache") == "miss":
                misses.append(record)
        counters = engine.trace.counters
        stats = daemon.stats()
        expected = {
            "executed": self.distinct,
            "cache_hit": self.distinct * (SERVE_COPIES - 1),
        }
        for name, want in expected.items():
            if counters.get(name, 0) != want:
                failures.append(
                    f"{name} = {counters.get(name, 0)}, expected {want}"
                )
        if stats["refused"]:
            failures.append(f"{stats['refused']} requests refused")
        if len(by_key) != self.distinct:
            failures.append(
                f"{len(by_key)} distinct keys served, "
                f"expected {self.distinct}"
            )
        spec_by_id = {r["id"]: r["graph"] for r in requests}
        for key, group in by_key.items():
            failures.extend(
                self._check_group(key, group, spec_by_id[group[0]["id"]])
            )
        digest = hashlib.sha256(
            json.dumps(
                sorted(
                    (record["id"], deterministic_part(record))
                    for record in records
                ),
                sort_keys=True,
            ).encode()
        ).hexdigest()
        phase_rounds: Counter = Counter()
        for record in misses:
            phase_rounds.update(record["phase_rounds"])
        hits = counters.get("cache_hit", 0)
        lookups = hits + counters.get("cache_miss", 0)
        if self.pinned is not None and digest != self.pinned:
            failures.append(
                f"digest {digest} differs from {self.pinned} pinned "
                f"for seed {self.seed}"
            )
        return Outcome(
            wall_s=wall,
            attempted=len(requests),
            failures=failures,
            identity=digest,
            rounds=sum(r["rounds"] for r in misses),
            total_words=sum(r["metrics"]["total_words"] for r in misses),
            peak_memory_words=sum(
                r["metrics"]["peak_memory_words"] for r in misses
            ),
            latencies_s=[latency_by_id[r["id"]] for r in requests
                         if r["id"] in latency_by_id],
            reported_wall_s=sum(
                r["_serve"].get("wall_time_s", 0.0) for r in misses
            ),
            phase_rounds=dict(phase_rounds),
            seed_candidates=sum(
                r["metrics"].get("alg_seed_candidates", 0) for r in misses
            ),
            counters={
                "serve.engine.executed": counters.get("executed", 0),
                "serve.engine.graph_loads": counters.get("graph_load", 0),
                "serve.cache.hit_ratio": hits / max(1, lookups),
            },
            latency_by_id=latency_by_id,
        )

    @staticmethod
    def _check_group(key: str, group: List[dict], spec: dict) -> List[str]:
        """Every copy of one solve agrees, and the answer is a ruling set."""
        failures = []
        first = deterministic_part(group[0])
        if any(deterministic_part(r) != first for r in group[1:]):
            failures.append(f"key {key[:12]}: copies disagree")
        if len(group) != SERVE_COPIES:
            failures.append(
                f"key {key[:12]}: {len(group)} copies, "
                f"expected {SERVE_COPIES}"
            )
        algorithm = first["algorithm"]
        if first["beta"] != SERVE_BETA[algorithm]:
            failures.append(
                f"key {key[:12]}: {algorithm} claims beta {first['beta']}"
            )
        try:
            verify_ruling_set(
                build_graph(spec["family"], spec["n"],
                            spec.get("param", 12), spec["seed"]),
                first["members"], alpha=first["alpha"], beta=first["beta"],
            )
        except Exception as exc:
            failures.append(
                f"key {key[:12]}: verify: {type(exc).__name__}: {exc}"
            )
        return failures


WORKLOADS = {
    cls.name: cls for cls in (InMemGnm, StreamCirculant, ServeMixed)
}
