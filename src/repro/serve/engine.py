"""Batched request engine: JSONL requests in, JSONL records out.

One request names a graph source, an algorithm, and solve parameters;
the engine turns a batch of them into verified results while doing the
work at most once per *distinct* solve:

1. **Grouping.**  Distinct graph sources are loaded exactly once and
   shared by every request that names them (requests are grouped by the
   graph's content fingerprint, so two spellings of the same source
   still share one load).
2. **Dedup.**  Each request's cache key
   (:func:`repro.serve.cache.cache_key` over the graph fingerprint and
   the registry's canonical parameters) identifies its solve; within a
   batch, only the first request per key executes — the rest are
   *deduplicated* onto its outcome, failures included.
3. **Cache.**  Keys are looked up in the :class:`ResultCache` before
   anything runs; a hit is served from the stored payload with **zero
   MPC rounds executed**, and every executed miss is stored back.
4. **Execution.**  The unique misses run through the sweep engine's
   :func:`~repro.analysis.sweep.run_cells` scheduler — the same bounded
   fan-out (``jobs``), per-request ``timeout``, ``retries``, and
   process isolation the fault-tolerant sweeps use.  A request that
   fails becomes a structured failure record in the output stream;
   it never kills the batch and is never cached.
5. **Backpressure.**  Batches above ``max_requests`` are refused up
   front with :class:`~repro.errors.ServeError` instead of being
   queued unboundedly.

Output records preserve input order.  Each record's deterministic part
(members/matching, rounds, metrics, phase attribution) is
record-for-record identical between serial and parallel engine runs and
between cold and warm cache states; per-serving observability (cache
status, wall clock, worker attribution) rides in a ``_serve`` side
channel excluded from that contract — the exact split the sweep
checkpoints use for ``_meta``.

Request schema (one JSON object per line)::

    {"id": "r1", "graph": {"family": "gnp", "n": 128, "param": 8},
     "algorithm": "...", "beta": 2, "alpha": 2,
     "regime": "sublinear", "alpha_mem": [2, 3], "seed": 0}

``graph`` is either ``{"input": "edges.txt"}`` (an edge-list file) or a
generator spec ``{"family": ..., "n": ..., "param": ..., "seed": ...}``
with the same semantics as the CLI's graph options.  Every field but
``graph`` has a default; ``id`` defaults to the request's position.
"""

from __future__ import annotations

import json
import os
import threading
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.records import RunRecord
from repro.analysis.sweep import FAILED, Cell, run_cells
from repro.core import registry
from repro.core.session import SessionFactory
from repro.errors import ReproError, ServeError
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list
from repro.mpc.trace import ServiceTrace
from repro.serve.cache import ResultCache, cache_key, result_to_payload

__all__ = [
    "BatchEngine",
    "read_requests",
    "records_to_lines",
    "write_records",
]

#: The request fields the engine understands; anything else is a
#: malformed request file (raised, not recorded — see ServeError).
_REQUEST_KEYS = frozenset(
    ("id", "graph", "algorithm", "beta", "alpha", "regime", "alpha_mem",
     "seed")
)

#: Payload keys that carry wall clock — serving observability, excluded
#: from the deterministic record part (they land under ``_serve``).
_TIMING_KEYS = ("wall_time_s", "time_per_phase")


def read_requests(
    path: Union[str, Path], *, with_linenos: bool = False
) -> Union[
    List[Dict[str, object]],
    Tuple[List[Dict[str, object]], List[int]],
]:
    """Parse a JSONL request file; malformed lines raise ServeError.

    The file is streamed line by line — a large batch file never has to
    fit in memory as one string (the parsed requests themselves still
    accumulate; the serve daemon avoids even that by reading its socket
    stream one request at a time).  With ``with_linenos=True`` the
    1-based line number of each request is returned alongside, so
    errors detected later (e.g. duplicate ids) can name file positions.
    """
    requests: List[Dict[str, object]] = []
    linenos: List[int] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ServeError(
                    f"{path}:{lineno}: request is not valid JSON: {exc}"
                ) from exc
            if not isinstance(data, dict):
                raise ServeError(
                    f"{path}:{lineno}: request must be a JSON object, "
                    f"got {type(data).__name__}"
                )
            requests.append(data)
            linenos.append(lineno)
    if with_linenos:
        return requests, linenos
    return requests


def records_to_lines(records: List[Dict[str, object]]) -> List[str]:
    """Serialise output records as canonical JSON lines."""
    return [json.dumps(record, sort_keys=True) for record in records]


def write_records(
    records: List[Dict[str, object]], path: Union[str, Path]
) -> None:
    """Write output records to a JSONL file, atomically.

    Same tmp-write-then-:func:`os.replace` pattern as the result
    cache's disk tier: a crash mid-write leaves either the previous
    file or the complete new one, never a torn half-batch.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(
        "\n".join(records_to_lines(records)) + "\n", encoding="utf-8"
    )
    os.replace(tmp, target)


def _load_graph(source: Dict[str, object]) -> Graph:
    """Materialise one graph source (edge-list file or generator spec)."""
    if "input" in source:
        return read_edge_list(str(source["input"]))
    from repro.cli import build_graph  # lazy: the CLI imports serve back

    return build_graph(
        str(source["family"]),
        int(source.get("n", 200)),
        int(source.get("param", 12)),
        int(source.get("seed", 0)),
    )


def _execute_request(
    graph: Graph,
    params: Dict[str, object],
    factory: Optional[SessionFactory] = None,
) -> RunRecord:
    """Cell runner: one verified solve, payload in the record fields.

    Module-level so it pickles for ``jobs > 1`` / ``timeout`` runs; the
    warm ``factory`` is bound (via :func:`functools.partial`) only for
    in-process execution, where reusing per-graph artifacts pays off.
    """
    spec = registry.get_algorithm(str(params["algorithm"]))
    if spec.problem == registry.RULING_SET:
        from repro.core.pipeline import solve_ruling_set

        result = solve_ruling_set(
            graph,
            algorithm=spec.name,
            beta=int(params["beta"]),
            alpha=int(params["alpha"]),
            regime=str(params["regime"]),
            alpha_mem=tuple(params["alpha_mem"]),
            seed=int(params["seed"]),
            session_factory=factory,
        )
    else:
        from repro.core.det_matching import solve_matching

        result = solve_matching(
            graph,
            algorithm=spec.name,
            regime=str(params["regime"]),
            alpha_mem=tuple(params["alpha_mem"]),
            seed=int(params["seed"]),
            session_factory=factory,
        )
    return RunRecord(
        experiment="serve",
        workload=str(params["id"]),
        algorithm=spec.name,
        fields=result_to_payload(result),
    )


class BatchEngine:
    """Serve a batch of solve requests through one cache and scheduler.

    The engine owns a :class:`~repro.mpc.trace.ServiceTrace`
    (``engine.trace``) that records every cache hit / miss / store /
    eviction, dedup, and execution outcome — a pure observer, so traced
    and untraced batches produce identical output records.
    """

    def __init__(
        self,
        cache: ResultCache,
        *,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 0,
        max_requests: int = 10_000,
        graph_pool: int = 64,
        trace: Optional[ServiceTrace] = None,
    ) -> None:
        if max_requests <= 0:
            raise ServeError(
                f"max_requests must be positive, got {max_requests}"
            )
        if graph_pool <= 0:
            raise ServeError(
                f"graph_pool must be positive, got {graph_pool}"
            )
        self.cache = cache
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.max_requests = max_requests
        self.graph_pool = graph_pool
        self.trace = trace if trace is not None else ServiceTrace()
        # Warm per-graph artifacts only help when solves share a
        # process; isolated cells (jobs > 1 or a timeout) each run in
        # their own worker, exactly like run_cells' execution split.
        self._in_process = jobs <= 1 and timeout is None
        self._factory = SessionFactory()
        # Warm graph pool: loaded graphs outlive a single batch, so a
        # daemon serving the same source repeatedly loads it once.
        # Insertion-ordered with FIFO eviction at ``graph_pool``.
        self._graphs: Dict[str, Graph] = {}
        # serve_request may run on daemon worker threads; the lock
        # guards the shared pools, cache, and trace — never a solve.
        self._lock = threading.RLock()

    # -- request normalisation ------------------------------------------

    def _normalize(
        self, data: Dict[str, object], index: int
    ) -> Dict[str, object]:
        unknown = sorted(set(data) - _REQUEST_KEYS)
        if unknown:
            raise ServeError(
                f"request {index}: unknown fields {unknown}; "
                f"expected a subset of {sorted(_REQUEST_KEYS)}"
            )
        source = data.get("graph")
        if not isinstance(source, dict) or not (
            "input" in source or "family" in source
        ):
            raise ServeError(
                f"request {index}: 'graph' must be an object with "
                "either 'input' (edge-list path) or 'family' "
                "(generator spec)"
            )
        for key in ("beta", "alpha", "seed"):
            if key in data and type(data[key]) is not int:
                raise ServeError(
                    f"request {index}: field {key!r} must be an integer, "
                    f"got {data[key]!r}"
                )
        alpha_mem = data.get("alpha_mem", (2, 3))
        if not (
            isinstance(alpha_mem, (list, tuple))
            and len(alpha_mem) == 2
            and all(type(x) is int for x in alpha_mem)
        ):
            raise ServeError(
                f"request {index}: field 'alpha_mem' must be two "
                f"integers, got {alpha_mem!r}"
            )
        return {
            "id": str(data.get("id", f"req-{index}")),
            "source": source,
            "source_key": json.dumps(
                source, sort_keys=True, separators=(",", ":")
            ),
            "algorithm": str(data.get("algorithm", registry.DET_RULING)),
            "beta": data.get("beta", 2),
            "alpha": data.get("alpha", 2),
            "regime": str(data.get("regime", "sublinear")),
            "alpha_mem": list(alpha_mem),
            "seed": data.get("seed", 0),
        }

    def _request_key(
        self, request: Dict[str, object], graph: Graph
    ) -> Tuple[Optional[str], Optional[Tuple[str, str]]]:
        """``(cache key, None)`` or ``(None, (error type, message))``."""
        try:
            spec = registry.get_algorithm(str(request["algorithm"]))
        except ReproError as exc:
            return None, (type(exc).__name__, str(exc))
        params = registry.canonical_cache_params(
            spec,
            beta=int(request["beta"]),
            alpha=int(request["alpha"]),
            regime=str(request["regime"]),
            alpha_mem=tuple(request["alpha_mem"]),
            seed=int(request["seed"]),
        )
        return cache_key(graph.fingerprint(), params), None

    def _check_duplicate_ids(
        self,
        normalized: List[Dict[str, object]],
        linenos: Optional[List[int]],
    ) -> None:
        """Refuse batches whose requests share an id.

        Output records, dedup resolution, and ``ServiceTrace`` events
        are all keyed by ``id`` — two requests with the same explicit
        id would be silently ambiguous everywhere downstream.  Named
        by file line when the caller read the batch from a file, by
        batch position otherwise.
        """

        def where(index: int) -> str:
            if linenos is not None and index < len(linenos):
                return f"line {linenos[index]}"
            return f"request {index}"

        first_index: Dict[str, int] = {}
        for index, request in enumerate(normalized):
            rid = str(request["id"])
            if rid in first_index:
                raise ServeError(
                    f"duplicate request id {rid!r} "
                    f"({where(first_index[rid])} and {where(index)}); "
                    "ids must be unique within a batch"
                )
            first_index[rid] = index

    def _get_graph(self, request: Dict[str, object]) -> Graph:
        """Fetch a request's graph through the warm pool (load once)."""
        source_key = str(request["source_key"])
        graph = self._graphs.get(source_key)
        if graph is None:
            graph = _load_graph(request["source"])
            self._graphs[source_key] = graph
            self.trace.record(
                "graph_load",
                source=source_key,
                fingerprint=graph.fingerprint(),
            )
            while len(self._graphs) > self.graph_pool:
                evicted = next(iter(self._graphs))
                del self._graphs[evicted]
                self.trace.record("graph_evict", source=evicted)
        return graph

    @staticmethod
    def _solve_params(request: Dict[str, object]) -> Dict[str, object]:
        """The parameter dict :func:`_execute_request` consumes."""
        return {
            "id": request["id"],
            "algorithm": request["algorithm"],
            "beta": request["beta"],
            "alpha": request["alpha"],
            "regime": request["regime"],
            "alpha_mem": request["alpha_mem"],
            "seed": request["seed"],
        }

    # -- the batch -------------------------------------------------------

    def run(
        self,
        requests: List[Dict[str, object]],
        *,
        linenos: Optional[List[int]] = None,
    ) -> List[Dict[str, object]]:
        """Serve ``requests``; returns output records in input order.

        ``linenos`` (parallel to ``requests``, from
        :func:`read_requests` with ``with_linenos=True``) lets
        duplicate-id errors name source-file lines.
        """
        if len(requests) > self.max_requests:
            raise ServeError(
                f"batch of {len(requests)} requests exceeds "
                f"max_requests={self.max_requests}; split the stream "
                "or raise the bound"
            )
        normalized = [
            self._normalize(data, index)
            for index, data in enumerate(requests)
        ]
        self._check_duplicate_ids(normalized, linenos)

        # One load per distinct graph source, shared by every request
        # (and by later batches / served requests: the pool is warm).
        graphs: Dict[str, Graph] = {}
        with self._lock:
            for request in normalized:
                source_key = str(request["source_key"])
                if source_key not in graphs:
                    graphs[source_key] = self._get_graph(request)

        # Plan every request before executing anything: hit, miss
        # (first occurrence of a key), dedup (later occurrence), or
        # failed (unresolvable, e.g. an unknown algorithm).
        plans: List[Dict[str, object]] = []
        first_for_key: Dict[str, int] = {}
        for index, request in enumerate(normalized):
            graph = graphs[str(request["source_key"])]
            key, error = self._request_key(request, graph)
            plan: Dict[str, object] = {
                "request": request, "key": key, "payload": None,
                "error": error, "serve": {},
            }
            if error is not None:
                plan["kind"] = "failed"
                self.trace.record(
                    "failed", id=request["id"], error_type=error[0]
                )
            elif key in first_for_key:
                plan["kind"] = "dedup"
                self.trace.record("dedup", id=request["id"], key=key)
            else:
                first_for_key[key] = index
                cached = self.cache.get(key)
                if cached is not None:
                    plan["kind"] = "hit"
                    plan["payload"] = cached
                    self.trace.record("cache_hit", id=request["id"], key=key)
                else:
                    plan["kind"] = "miss"
                    self.trace.record("cache_miss", id=request["id"], key=key)
            plans.append(plan)

        self._execute_misses(plans, graphs)

        # Dedup'd requests resolve to their key's outcome — payload or
        # failure alike (an error is one outcome of the shared solve).
        outcomes = {
            str(plan["key"]): plan
            for plan in plans
            if plan["kind"] in ("hit", "miss")
        }
        for plan in plans:
            if plan["kind"] == "dedup":
                primary = outcomes[str(plan["key"])]
                plan["payload"] = primary["payload"]
                plan["error"] = primary["error"]

        return [self._output_record(plan) for plan in plans]

    # -- the per-request path (daemon hot path) --------------------------

    def serve_request(
        self, data: Dict[str, object], *, index: int = 0
    ) -> Dict[str, object]:
        """Serve one request through the warm pools; returns its record.

        The reusable per-request execution path the serve daemon runs
        on its worker threads: normalise, fetch the graph from the warm
        pool, first-hop the result cache, and only then solve in
        process with the warm :class:`SessionFactory`.  The returned
        record is shaped exactly like a batch record (deterministic
        part + ``_serve`` side channel), and for the same request its
        deterministic part is byte-identical to the batch path's —
        both resolve through the same cache key and the same runner.

        Malformed requests (unknown fields, bad ``graph``) raise
        :class:`ServeError`, mirroring the batch path; everything past
        validation — an unloadable graph, an unknown algorithm, a solve
        fault — becomes a structured failure record, so one bad request
        can never take a daemon worker down.  Shared state (graph pool,
        cache, trace) is mutated under the engine lock; the solve
        itself runs outside it, so workers only serialise on
        bookkeeping.
        """
        request = self._normalize(data, index)
        plan: Dict[str, object] = {
            "request": request, "key": None, "payload": None,
            "error": None, "serve": {},
        }
        with self._lock:
            try:
                graph = self._get_graph(request)
            except Exception as exc:  # unloadable source → failure record
                plan["kind"] = "failed"
                plan["error"] = (type(exc).__name__, str(exc))
                self.trace.record(
                    "failed", id=request["id"],
                    error_type=type(exc).__name__,
                )
                return self._output_record(plan)
            key, error = self._request_key(request, graph)
            plan["key"] = key
            if error is not None:
                plan["kind"] = "failed"
                plan["error"] = error
                self.trace.record(
                    "failed", id=request["id"], error_type=error[0]
                )
                return self._output_record(plan)
            cached = self.cache.get(key)
            if cached is not None:
                plan["kind"] = "hit"
                plan["payload"] = cached
                self.trace.record("cache_hit", id=request["id"], key=key)
                return self._output_record(plan)
            self.trace.record("cache_miss", id=request["id"], key=key)
        plan["kind"] = "miss"
        try:
            record = _execute_request(
                graph, self._solve_params(request), factory=self._factory
            )
        except Exception as exc:
            plan["error"] = (type(exc).__name__, str(exc))
            with self._lock:
                self.trace.record(
                    "failed", id=request["id"], key=key,
                    error_type=type(exc).__name__,
                )
            return self._output_record(plan)
        payload = dict(record.fields)
        plan["payload"] = payload
        with self._lock:
            self.cache.put(str(key), payload)
            self.trace.record("executed", id=request["id"], key=key)
            self.trace.record("cache_store", id=request["id"], key=key)
        return self._output_record(plan)

    def _execute_misses(
        self, plans: List[Dict[str, object]], graphs: Dict[str, Graph]
    ) -> None:
        misses = [plan for plan in plans if plan["kind"] == "miss"]
        if not misses:
            return
        runner = (
            partial(_execute_request, factory=self._factory)
            if self._in_process
            else _execute_request
        )
        cells = []
        for plan in misses:
            request = plan["request"]
            params = self._solve_params(request)
            cells.append(
                Cell(
                    key=str(plan["key"]),
                    runner=runner,
                    args=(graphs[str(request["source_key"])], params),
                    workload=str(request["id"]),
                    algorithm=str(request["algorithm"]),
                )
            )
        records = run_cells(
            "serve", cells,
            jobs=self.jobs, retries=self.retries, timeout=self.timeout,
        )
        for plan, record in zip(misses, records):
            request = plan["request"]
            plan["serve"] = dict(record.meta)
            if record.get("status") == FAILED:
                plan["error"] = (
                    str(record.get("error_type")), str(record.get("error"))
                )
                self.trace.record(
                    "failed", id=request["id"], key=plan["key"],
                    error_type=plan["error"][0],
                )
                continue
            payload = dict(record.fields)
            plan["payload"] = payload
            self.cache.put(str(plan["key"]), payload)
            self.trace.record(
                "executed", id=request["id"], key=plan["key"]
            )
            self.trace.record(
                "cache_store", id=request["id"], key=plan["key"]
            )

    def _output_record(self, plan: Dict[str, object]) -> Dict[str, object]:
        request = plan["request"]
        serve: Dict[str, object] = {"cache": plan["kind"], **plan["serve"]}
        if plan["error"] is not None:
            error_type, message = plan["error"]
            return {
                "id": request["id"],
                "key": plan["key"],
                "status": FAILED,
                "error_type": error_type,
                "error": message,
                "_serve": serve,
            }
        payload = plan["payload"]
        record: Dict[str, object] = {
            "id": request["id"],
            "key": plan["key"],
            "status": "ok",
        }
        for field, value in payload.items():
            if field in _TIMING_KEYS:
                serve[field] = value  # observability, not model output
            else:
                record[field] = value
        record["_serve"] = serve
        return record
