"""The MPC superstep engine.

An algorithm drives the simulator through two verbs:

``local(fn)``
    Run ``fn(machine)`` on every machine.  Free (no round consumed) —
    in the MPC model local computation within a round is unbounded — but
    memory budgets are still enforced afterwards.

``communicate(fn)``
    Run ``fn(machine) -> iterable[Message]`` on every machine, route the
    messages, enforce the per-machine send/receive budget ``S``, deliver
    inboxes, and advance the round counter.

Both verbs then price every machine's memory and audit it against ``S``.

Determinism: machines are processed in id order and each inbox is sorted by
``(sender id, arrival index)``, so a simulated run is a pure function of
(algorithm, input, config).

A superstep is *executed* by a pluggable
:class:`~repro.mpc.backends.SuperstepBackend` (serial by default; the
shard backend runs out-of-core).  The backend runs the callbacks, routes
the exchange and prices each machine's memory; every backend yields the
identical run.  Both verbs share one tail: price the machines, stop the
clock, build one :class:`~repro.mpc.metrics.SuperstepEvent`, hand it to
every attached sink (:class:`~repro.mpc.metrics.RunMetrics`, the trace,
the load governor), then enforce ``S``.  :meth:`Simulator.begin_phase`
emits a phase event through the same path.  A superstep's clock
therefore covers the memory audit, so simulator performance is measured,
never asserted.

Budget enforcement is strict by default: a machine exceeding its memory
budget, or sending/receiving more than ``S`` words in one superstep, aborts
the run with :class:`~repro.errors.MPCViolationError`.  Benchmarks run
strict, certifying that measured round counts come from model-legal
executions.

When tracing is enabled (``MPCConfig.trace`` or an injected
:class:`~repro.mpc.trace.TraceRecorder`), events additionally carry
per-machine words sent and the backend's counters, and the budget
auditor warns when utilization crosses the configured fraction of ``S``
*before* the hard fault would fire.  Tracing is a pure observer: those
extras are gathered only when a trace is attached (zero cost when
disabled) and nothing recorded ever feeds back into routing,
enforcement, or algorithm state, so traced runs stay bit-identical.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, List, Optional, Sequence

from repro.errors import MPCViolationError
from repro.mpc.backends import ExchangeStats, SuperstepBackend, resolve_backend
from repro.mpc.config import MPCConfig
from repro.mpc.governor import LoadGovernor
from repro.mpc.machine import Machine
from repro.mpc.message import Message
from repro.mpc.metrics import RunMetrics, SuperstepEvent
from repro.mpc.trace import TraceRecorder

MachineFn = Callable[[Machine], Optional[Iterable[Message]]]

#: Environment override for the execution backend, mirroring
#: ``REPRO_KERNEL``: applied only when neither an explicit backend object
#: nor a non-default ``config.backend`` was chosen, so programmatic
#: choices always win.  This is how the shard-parity CI gate replays the
#: whole refactor-parity oracle under ``--backend shard`` without
#: touching the frozen oracle cells.
BACKEND_ENV = "REPRO_BACKEND"

#: Environment override enabling the load governor, mirroring the
#: backend/kernel overrides: applied only when the config did not opt in
#: itself, so programmatic choices win.  This is how CI replays the
#: refactor-parity oracle governed — the oracle's cells are feasible, so
#: under the DESIGN.md section 15 contract a governed replay must stay
#: bit-identical.
GOVERNED_ENV = "REPRO_GOVERNED"


class Simulator:
    """Executes MPC supersteps under a fixed :class:`MPCConfig`.

    ``backend`` overrides the execution backend named by
    ``config.backend`` (useful for injecting a pre-built or instrumented
    backend in tests); both select *how* callbacks run, never what they
    compute.  ``trace`` likewise overrides ``config.trace``: pass a
    :class:`TraceRecorder` to observe a run regardless of config.
    """

    def __init__(
        self,
        config: MPCConfig,
        enforce: bool = True,
        backend: Optional[SuperstepBackend] = None,
        trace: Optional[TraceRecorder] = None,
        governor: Optional[LoadGovernor] = None,
    ):
        self.config = config
        self.enforce = enforce
        self.machines: List[Machine] = [
            Machine(mid) for mid in range(config.num_machines)
        ]
        self.metrics = RunMetrics()
        if backend is not None:
            self.backend: SuperstepBackend = backend
        else:
            name = config.backend
            if name == "serial":
                name = os.environ.get(BACKEND_ENV) or name
            self.backend = resolve_backend(name, config.backend_workers)
        if trace is not None:
            self.trace: Optional[TraceRecorder] = trace
        elif config.trace:
            self.trace = TraceRecorder(config, config.trace_warn_utilization)
        else:
            self.trace = None
        if governor is not None:
            self.governor: Optional[LoadGovernor] = governor
        elif config.governed or os.environ.get(GOVERNED_ENV, "") not in (
            "", "0", "false",
        ):
            self.governor = LoadGovernor(config.memory_words)
        else:
            self.governor = None
        if self.governor is not None:
            self.backend.attach_governor(self.governor)
        if self.trace is not None:
            self.trace.backend_name = self.backend.name

    # ------------------------------------------------------------------
    # Supersteps
    # ------------------------------------------------------------------
    def local(self, fn: Callable[[Machine], None]) -> None:
        """Apply a local computation to every machine (no round cost)."""
        started = time.perf_counter()
        self.backend.run_local(self.machines, fn)
        self._finish_superstep(started)

    def communicate(self, fn: MachineFn) -> None:
        """One communication superstep.

        ``fn`` runs on each machine and returns the messages it sends this
        round (or None).  All messages are then routed simultaneously —
        synchronous semantics: nothing sent this round is visible until the
        round completes.
        """
        started = time.perf_counter()
        stats = self.backend.run_exchange(
            self.machines,
            fn,
            memory_words=self.config.memory_words,
            enforce=self.enforce,
            want_sent_per_machine=self.trace is not None,
        )
        self._finish_superstep(started, stats)

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def begin_phase(self, name: str) -> None:
        """Label subsequent rounds with a phase name (for metrics)."""
        self._emit(SuperstepEvent("phase", self.metrics.rounds, name))

    def machine(self, mid: int) -> Machine:
        """Return machine ``mid``.

        Under the shard backend the returned object's store may be a
        cleared husk (the real state is spilled); driver-side reads must
        go through :meth:`harvest` instead.
        """
        return self.machines[mid]

    def harvest(
        self,
        fn: Callable[[Machine], object],
        only: Optional[Sequence[int]] = None,
    ) -> List[object]:
        """Driver-side read (or plant) against live machine state.

        Applies ``fn`` to the selected machines (all of them, in id
        order, when ``only`` is None) and returns the results in the
        order requested.  This is the only sanctioned way for driver code
        to touch machine stores between supersteps: the shard backend
        pages the right shard in, persists any mutation ``fn`` made, and
        keeps its memory accounting coherent.  On the serial backend it
        degenerates to a plain loop.
        """
        return self.backend.run_harvest(self.machines, fn, only)

    def shutdown(self) -> None:
        """Release backend resources (spill files); safe to call twice."""
        self.backend.shutdown()

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def num_machines(self) -> int:
        """Machine count ``k``."""
        return len(self.machines)

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------
    def _finish_superstep(
        self, started: float, stats: Optional[ExchangeStats] = None
    ) -> None:
        """Price the machines, stop the clock, emit the event, enforce S.

        ``stats`` is the exchange of a communication superstep (None for
        a local one).
        """
        memory = self.backend.memory_snapshot(self.machines)
        elapsed = time.perf_counter() - started
        backend_stats = (
            self.backend.stats() if self.trace is not None else None
        )
        rounds = self.metrics.rounds
        phase = self.metrics.current_phase()
        if stats is None:
            event = SuperstepEvent(
                "local", rounds, phase, elapsed, memory,
                backend_stats=backend_stats,
            )
        else:
            event = SuperstepEvent(
                "round", rounds + 1, phase, elapsed, memory,
                messages=stats.total_messages,
                words=stats.total_words,
                max_sent=stats.max_sent,
                max_received=stats.max_received,
                sent_per_machine=stats.sent_per_machine,
                received_per_machine=stats.received_per_machine,
                backend_stats=backend_stats,
            )
        self._emit(event)
        if self.enforce:
            for mid, words in enumerate(memory):
                if words > self.config.memory_words:
                    raise MPCViolationError(
                        f"machine {mid} holds {words} words, budget "
                        f"S={self.config.memory_words}"
                    )

    def _emit(self, event: SuperstepEvent) -> None:
        """Hand one event to every attached sink (the only feed)."""
        self.metrics.observe(event)
        if self.trace is not None:
            self.trace.observe(event)
        if self.governor is not None:
            self.governor.observe(event)
