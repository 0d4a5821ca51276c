"""The one MPC executor: :class:`SolverSession`.

Every registered algorithm runs through the session, and it is the
*only* code that executes an ``mpc`` algorithm: the spec's
``program_factory`` builds a phase program, and the session owns the
lifecycle around it once, for every algorithm and problem:

1. **Regime sizing** — resolve the :class:`MPCConfig` from a named
   regime (or take the caller's explicit config), via the spec's
   ``config_factory`` when it has one.  For α > 2 the power graph
   ``G^{α-1}`` that the machines must hold is built **once** here, used
   for sizing, and handed to the program through the
   :class:`~repro.core.registry.RunContext` — execution does not
   rebuild it.
2. **Backend / trace wiring** — ``backend`` (``"serial"`` or
   ``"shard"``) / ``backend_workers`` (the shard count), ``kernel``,
   ``trace`` / ``trace_warn_utilization`` and ``governed`` are applied
   uniformly, so every algorithm (matching included) gets execution
   backends and the superstep trace for free.
3. **Simulator lifecycle** — the simulator is always entered as a
   context manager: a solve that raises still releases backend
   resources such as shard spill files (the contract
   ``tests/core/test_pipeline.py`` pins).
4. **Execution** — the phase program runs against a fresh
   :class:`~repro.core.program.ProgramContext` on the loaded graph.
5. **Collection & assembly** — members are collected from the
   distributed graph under :data:`~repro.core.registry.RESULT_SET`, and
   rounds / metrics / phase attribution / wall-clock / trace are
   assembled into one shared :class:`SessionStats`, which the
   problem-specific result types (:class:`~repro.core.spec.RulingSetResult`,
   :class:`~repro.core.spec.MatchingResult`) embed verbatim.

The input is an in-memory :class:`~repro.graph.graph.Graph` or a
:class:`StreamedEdgeList` (an edge-list file run out-of-core, see
:func:`repro.core.pipeline.solve_ruling_set_stream`).  A streamed input
differs in exactly three things: it sizes from the pass-1 scan's
counts, it loads per-machine shards with
:meth:`~repro.mpc.graph_store.DistributedGraph.load_sharded` on a
:class:`~repro.mpc.shard.ShardBackend` under
:class:`~repro.mpc.ownermap.ModOwnerMap`, and it adds the ``ingest_*`` /
``shard_*`` metrics.  Everything else is the same code.

``local`` / ``sequential`` algorithms never touch the simulator: the
session runs their runner directly and returns empty MPC stats (0
rounds; LOCAL round counts travel in ``metrics["local_rounds"]``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    Optional,
    Tuple,
    Union,
)

from repro.core.program import ProgramContext
from repro.core.registry import (
    LOCAL_FAMILY,
    MPC_FAMILY,
    RESULT_SET,
    RULING_SET,
    AlgorithmSpec,
    RunContext,
    RunPayload,
)
from repro.errors import AlgorithmError
from repro.graph.graph import Graph
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator

if TYPE_CHECKING:
    from repro.graph.stream import EdgeListStats

#: ``(sim, dg, input_metrics)``: the entered simulator, the input loaded
#: onto its machines, and the input's own metrics (read before the
#: simulator exits).
Distributed = Tuple[Simulator, DistributedGraph, Callable[[], Dict[str, object]]]


def make_config_from_stats(
    num_vertices: int,
    num_edges: int,
    max_degree: int,
    regime: str = "sublinear",
    alpha: Tuple[int, int] = (2, 3),
) -> MPCConfig:
    """Build the :class:`MPCConfig` for a named regime from counts alone.

    Sizing needs only ``(n, m, Δ)``, never the adjacency itself — which
    is what lets the streaming path (:func:`repro.core.pipeline.
    solve_ruling_set_stream`) size a run from a pass-1 file scan without
    materializing the graph.  ``regime`` is ``"sublinear"``
    (``S ≈ n^alpha``), ``"near-linear"``, or ``"single"``.
    """
    if regime == "sublinear":
        return MPCConfig.sublinear(
            num_vertices, num_edges, alpha[0], alpha[1], max_degree=max_degree
        )
    if regime == "near-linear":
        return MPCConfig.near_linear(
            num_vertices, num_edges, max_degree=max_degree
        )
    if regime == "single":
        return MPCConfig.single_machine(num_vertices, num_edges)
    raise AlgorithmError(f"unknown regime {regime!r}")


def make_config(
    graph: Union[Graph, StreamedEdgeList],
    regime: str = "sublinear",
    alpha: Tuple[int, int] = (2, 3),
) -> MPCConfig:
    """Build the :class:`MPCConfig` for a named regime.

    Thin wrapper over :func:`make_config_from_stats` for an input that
    answers the graph count queries: an in-memory :class:`Graph`, or a
    :class:`StreamedEdgeList` answering from its pass-1 scan.  Pass an
    explicit :class:`MPCConfig` to the session (or to
    :func:`repro.core.pipeline.solve_ruling_set`) for anything else.
    """
    return make_config_from_stats(
        graph.num_vertices,
        graph.num_edges,
        graph.max_degree(),
        regime,
        alpha,
    )


@dataclass
class SessionStats:
    """The shared MPC-run slice of every result type.

    Model quantities (``rounds`` / ``metrics`` / ``phase_rounds``) are
    deterministic and participate in bit-identity comparisons; the
    wall-clock fields and the trace deliberately ride outside them.
    """

    rounds: int = 0
    metrics: Dict[str, object] = field(default_factory=dict)
    phase_rounds: Dict[str, int] = field(default_factory=dict)
    wall_time_s: float = 0.0
    time_per_phase: Dict[str, float] = field(default_factory=dict)
    trace: Optional[object] = None

    def result_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for the result dataclasses' shared tail."""
        return {
            "rounds": self.rounds,
            "metrics": self.metrics,
            "phase_rounds": self.phase_rounds,
            "wall_time_s": self.wall_time_s,
            "time_per_phase": self.time_per_phase,
            "trace": self.trace,
        }


@dataclass
class SessionRun:
    """One completed session: the run's payload plus shared stats."""

    payload: RunPayload
    stats: SessionStats
    config: Optional[MPCConfig] = None


@dataclass(frozen=True)
class StreamedEdgeList:
    """An edge-list file as a session input, never materialized.

    ``stats`` is the file's pass-1 scan
    (:func:`~repro.graph.stream.scan_edge_list_stats`); it answers the
    same count queries as a :class:`~repro.graph.graph.Graph`, so the
    session sizes both inputs with one code path.  ``num_shards`` /
    ``chunk_messages`` / ``spill_dir`` are the
    :class:`~repro.mpc.shard.ShardBackend` knobs.
    """

    path: object
    stats: "EdgeListStats"
    num_shards: int = 0
    chunk_messages: int = 0
    spill_dir: Optional[str] = None

    @property
    def num_vertices(self) -> int:
        return self.stats.num_vertices

    @property
    def num_edges(self) -> int:
        return self.stats.declared_edges

    def max_degree(self) -> int:
        return self.stats.max_degree

    @contextmanager
    def distribute(self, cfg: MPCConfig) -> Iterator[Distributed]:
        """Pass-2 ingest, then a shard-backend simulator with every
        machine's shard loaded; no process holds the whole graph."""
        from repro.graph.stream import shard_edge_list
        from repro.mpc.ownermap import ModOwnerMap
        from repro.mpc.shard import ShardBackend

        owner_map = ModOwnerMap(self.num_vertices, cfg.num_machines)
        backend = ShardBackend(
            num_shards=self.num_shards,
            chunk_messages=self.chunk_messages,
            spill_dir=self.spill_dir,
        )
        with shard_edge_list(
            self.path, owner_map, spill_dir=self.spill_dir
        ) as sharded:
            with Simulator(cfg, backend=backend) as sim:

                def input_metrics() -> Dict[str, object]:
                    metrics: Dict[str, object] = {
                        "ingest_edges": sharded.num_edges,
                        "ingest_max_degree": sharded.max_degree,
                        "ingest_checksum": sharded.checksum,
                    }
                    metrics.update(
                        {f"shard_{key}": value
                         for key, value in backend.stats().items()}
                    )
                    return metrics

                dg = DistributedGraph.load_sharded(sim, sharded)
                yield sim, dg, input_metrics


class SolverSession:
    """One solver run, lifecycle included, for any registered algorithm.

    Construct with the input (a :class:`Graph`, or a
    :class:`StreamedEdgeList` for an ``mpc`` algorithm), the
    :class:`AlgorithmSpec`, and the run parameters, then call
    :meth:`run`.  The session is single-use.
    """

    def __init__(
        self,
        graph: Union[Graph, StreamedEdgeList],
        spec: AlgorithmSpec,
        *,
        beta: int = 2,
        alpha: int = 2,
        regime: str = "sublinear",
        alpha_mem: Tuple[int, int] = (2, 3),
        config: Optional[MPCConfig] = None,
        seed: int = 0,
        backend: Optional[str] = None,
        backend_workers: int = 0,
        kernel: Optional[str] = None,
        trace: bool = False,
        trace_warn_utilization: float = 0.9,
        governed: bool = False,
        power_graph: Optional[Graph] = None,
    ) -> None:
        self.graph = graph
        self.spec = spec
        self.beta = beta
        self.alpha = alpha
        self.regime = regime
        self.alpha_mem = tuple(alpha_mem)
        self.explicit_config = config
        self.seed = seed
        self.backend = backend
        self.backend_workers = backend_workers
        self.kernel = kernel
        self.trace_enabled = trace
        self.trace_warn_utilization = trace_warn_utilization
        self.governed = governed
        # The α > 2 power graph, built exactly once per session: it
        # sizes the regime AND is handed to the program for execution.
        # A warm caller (SessionFactory) may pass the build from an
        # earlier session on the same graph; power_graph is a pure
        # function of (graph, alpha), so reuse cannot change results.
        self._power: Optional[Graph] = power_graph
        if (
            self._power is None
            and spec.family == MPC_FAMILY
            and alpha > 2
        ):
            from repro.graph.ops import power_graph as build_power

            self._power = build_power(graph, alpha - 1)

    # -- regime sizing ---------------------------------------------------

    @property
    def sizing_graph(self) -> Union[Graph, StreamedEdgeList]:
        """The graph the machines must hold (``G^{α-1}`` when α > 2)."""
        return self._power if self._power is not None else self.graph

    def power_adjacency(self) -> Optional[Dict[int, Tuple[int, ...]]]:
        """``G^{α-1}`` adjacency from the session's single build."""
        if self._power is None:
            return None
        return {
            v: tuple(self._power.neighbors(v))
            for v in self._power.vertices()
        }

    def regime_config(self) -> MPCConfig:
        """The named regime's :class:`MPCConfig`, before any wiring.

        The spec's ``config_factory`` (when present) owns
        problem-specific sizing (e.g. the matching line-graph
        footprint).
        """
        if self.spec.config_factory is not None:
            return self.spec.config_factory(
                self.sizing_graph, self.regime, self.alpha_mem
            )
        return make_config(self.sizing_graph, self.regime, self.alpha_mem)

    def resolve_config(self) -> MPCConfig:
        """The fully wired :class:`MPCConfig` for this run.

        Explicit config wins over the named regime.  Backend, kernel,
        trace and governor settings are applied here so every MPC
        algorithm shares them.
        """
        cfg = self.explicit_config
        if cfg is None:
            cfg = self.regime_config()
        if self.backend is not None:
            cfg = cfg.with_backend(self.backend, self.backend_workers)
        if self.kernel is not None:
            cfg = cfg.with_kernel(self.kernel)
        if self.trace_enabled and not cfg.trace:
            cfg = cfg.with_trace(
                warn_utilization=self.trace_warn_utilization
            )
        if self.governed and not cfg.governed:
            cfg = cfg.with_governor()
        cfg.validate_input_size(
            MPCConfig.input_words(
                self.sizing_graph.num_vertices, self.sizing_graph.num_edges
            )
        )
        return cfg

    # -- execution -------------------------------------------------------

    def run(self) -> SessionRun:
        """Execute the algorithm and assemble the shared stats."""
        if self.spec.family != MPC_FAMILY:
            return self._run_direct()
        return self._run_mpc()

    def _run_direct(self) -> SessionRun:
        """LOCAL / sequential run: no simulator, 0 MPC rounds."""
        ctx = RunContext(
            graph=self.graph, alpha=self.alpha, beta=self.beta,
            seed=self.seed,
        )
        payload = self.spec.runner(ctx)
        metrics: Dict[str, object] = {}
        if self.spec.family == LOCAL_FAMILY:
            metrics["local_rounds"] = payload.local_rounds
        metrics.update(payload.extra_metrics)
        return SessionRun(payload=payload, stats=SessionStats(metrics=metrics))

    @contextmanager
    def _distribute(self, cfg: MPCConfig) -> Iterator[Distributed]:
        """The entered simulator with the input loaded onto it."""
        if isinstance(self.graph, StreamedEdgeList):
            with self.graph.distribute(cfg) as distributed:
                yield distributed
            return
        # Context manager, not a trailing shutdown() call: a solve that
        # raises (e.g. MPCViolationError) must still release the
        # backend's resources, or every failed run leaks spill files.
        with Simulator(cfg) as sim:
            yield sim, DistributedGraph.load(sim, self.graph), lambda: {}

    def _execute(self, dg: DistributedGraph) -> RunPayload:
        """Run the spec's phase program on the loaded graph."""
        ctx = RunContext(
            graph=self.graph, alpha=self.alpha, beta=self.beta,
            seed=self.seed, power_adjacency=self.power_adjacency(),
        )
        program = self.spec.program_factory(ctx)
        pctx = ProgramContext(dg)
        counters = program.run(pctx)
        return RunPayload(
            counters=counters,
            members=pctx.members,
            matching=pctx.matching,
            extra_metrics=pctx.extra_metrics,
        )

    def _run_mpc(self) -> SessionRun:
        cfg = self.resolve_config()
        with self._distribute(cfg) as (sim, dg, input_metrics):
            payload = self._execute(dg)
            if payload.members is None and self.spec.problem == RULING_SET:
                payload.members = dg.collect_marked(RESULT_SET)
            input_extra = input_metrics()
        metrics: Dict[str, object] = dict(sim.metrics.summary())
        metrics.update(
            {f"alg_{key}": value for key, value in payload.counters.items()}
        )
        metrics["num_machines"] = cfg.num_machines
        metrics["memory_words"] = cfg.memory_words
        if self._power is not None:
            # Price the α > 2 densification without rebuilding G^{α-1}
            # downstream (E9 reads this instead of its own power_graph).
            metrics["power_edges"] = self._power.num_edges
        metrics.update(input_extra)
        metrics.update(payload.extra_metrics)
        stats = SessionStats(
            rounds=sim.metrics.rounds,
            metrics=metrics,
            phase_rounds=sim.metrics.phase_rounds(),
            wall_time_s=round(sim.metrics.wall_time_s, 6),
            time_per_phase={
                phase: round(seconds, 6)
                for phase, seconds in sim.metrics.time_per_phase.items()
            },
            trace=sim.trace,
        )
        return SessionRun(payload=payload, stats=stats, config=cfg)


class SessionFactory:
    """Warm session builder: per-graph artifacts survive across solves.

    A :class:`SolverSession` is single-use by design, so a caller that
    solves many requests on the same graph (the serve layer's batch
    engine, ``repro-mpc cache warm``) re-derives the same regime config
    and — for α > 2 — rebuilds the same ``G^{α-1}`` on every request.
    The factory memoizes both, keyed by the graph's content fingerprint,
    and hands them to each new session.

    Reuse is sound because both artifacts are pure functions of their
    keys: ``power_graph(graph, alpha-1)`` of ``(graph, alpha)``, and the
    *base* regime config of ``(graph, spec, regime, alpha_mem, alpha)``.
    Backend and trace wiring stay per-session (applied on top of the
    cached base config by :meth:`SolverSession.resolve_config`), so two
    sessions from one factory can still run on different backends.
    Sessions built warm are bit-identical to sessions built cold
    (pinned by test).
    """

    def __init__(self) -> None:
        self._power_cache: Dict[Tuple[str, int], Graph] = {}
        self._config_cache: Dict[Tuple, MPCConfig] = {}

    def session(
        self,
        graph: Graph,
        spec: AlgorithmSpec,
        **kwargs: object,
    ) -> SolverSession:
        """A :class:`SolverSession` wired with this factory's warm state.

        Accepts every :class:`SolverSession` keyword argument.  An
        explicit ``config`` (or ``power_graph``) from the caller wins
        over the factory's caches.
        """
        alpha = int(kwargs.get("alpha", 2))
        if (
            kwargs.get("power_graph") is None
            and spec.family == MPC_FAMILY
            and alpha > 2
        ):
            kwargs["power_graph"] = self._power(graph, alpha)
        session = SolverSession(graph, spec, **kwargs)
        if spec.family == MPC_FAMILY and session.explicit_config is None:
            session.explicit_config = self._base_config(session)
        return session

    def _power(self, graph: Graph, alpha: int) -> Graph:
        key = (graph.fingerprint(), alpha)
        if key not in self._power_cache:
            from repro.graph.ops import power_graph

            self._power_cache[key] = power_graph(graph, alpha - 1)
        return self._power_cache[key]

    def _base_config(self, session: SolverSession) -> MPCConfig:
        """The session's regime config, memoized on its semantic inputs."""
        key = (
            session.sizing_graph.fingerprint(),
            session.spec.name,
            session.regime,
            session.alpha_mem,
        )
        if key not in self._config_cache:
            self._config_cache[key] = session.regime_config()
        return self._config_cache[key]
