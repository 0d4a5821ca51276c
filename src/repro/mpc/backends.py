"""Execution backends for the MPC superstep engine.

The :class:`~repro.mpc.simulator.Simulator` hands every superstep to a
backend.  The backend runs the machine callbacks, routes the exchange
and prices each machine's memory; the simulator records, traces and
governs what the backend reports.  Two backends ship:

``SerialBackend``
    Every machine resident in the driver process; callbacks run in
    machine-id order.  The default.

``ShardBackend`` (:mod:`repro.mpc.shard`)
    Out-of-core: machine state spills to disk and one contiguous shard
    of machines is resident at a time.

Both visit machines in id order and deliver each inbox in arrival order
(sender id ascending, then send order within a sender), so every backend
yields the identical run; only wall clock and driver memory differ.
Both route through :class:`ExchangeStats`, so each routing and budget
error is raised from one place with one text.

Backend contract: a callback may read and mutate *only the machine it is
given*.  Every callback in this repository honours that (machine state is
the sole side channel), which is what lets a backend page machines in
and out freely.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import MPCConfigError, MPCRoutingError, MPCViolationError
from repro.mpc.machine import Machine
from repro.mpc.message import Message

MachineFn = Callable[[Machine], object]


class ExchangeStats:
    """One exchange's tallies, and the model's routing and budget checks.

    A backend passes each sender's outbox through :meth:`route`, in
    sender id order, and delivers the messages it yields; after the last
    sender it calls :meth:`close`.  The aggregates are what the simulator
    records, so metrics and traces are bit-identical across backends.
    """

    def __init__(
        self,
        num_machines: int,
        memory_words: int,
        enforce: bool,
        want_sent_per_machine: bool,
    ):
        self.num_machines = num_machines
        self.memory_words = memory_words
        self.enforce = enforce
        self.total_messages = 0
        self.total_words = 0
        self.max_sent = 0
        self.max_received = 0
        self.received_per_machine: List[int] = [0] * num_machines
        #: Populated only when the simulator is tracing (per-machine sent
        #: words are O(k) per round; skipped otherwise).
        self.sent_per_machine: Optional[List[int]] = (
            [0] * num_machines if want_sent_per_machine else None
        )

    def route(
        self, sender: int, outbox: Optional[Iterable[Message]]
    ) -> Iterator[Message]:
        """Validate and tally ``sender``'s outbox, yielding each message.

        The send budget is checked once the outbox is exhausted, so a bad
        destination anywhere in the outbox wins over the send budget.
        """
        received = self.received_per_machine
        k = self.num_machines
        messages = 0
        sent_words = 0
        for message in outbox if outbox is not None else ():
            # Both bounds matter: a negative dst would silently wrap
            # via Python list indexing and deliver to machine k+dst.
            if not 0 <= message.dst < k:
                raise MPCRoutingError(
                    f"machine {sender} sent to nonexistent machine "
                    f"{message.dst} (k={k})"
                )
            sent_words += message.words
            received[message.dst] += message.words
            messages += 1
            yield message
        self.total_messages += messages
        self.total_words += sent_words
        if sent_words > self.max_sent:
            self.max_sent = sent_words
        if self.sent_per_machine is not None:
            self.sent_per_machine[sender] = sent_words
        if self.enforce and sent_words > self.memory_words:
            raise MPCViolationError(
                f"machine {sender} sent {sent_words} words in one round, "
                f"budget S={self.memory_words}"
            )

    def close(self) -> None:
        """Check the receive budget, in machine-id order, before delivery."""
        self.max_received = max(self.received_per_machine, default=0)
        if self.enforce:
            for mid, words in enumerate(self.received_per_machine):
                if words > self.memory_words:
                    raise MPCViolationError(
                        f"machine {mid} received {words} words in one "
                        f"round, budget S={self.memory_words}"
                    )


class SuperstepBackend:
    """How one superstep's machine callbacks get executed.

    Subclasses implement :meth:`run_local`, :meth:`run_exchange` and
    :meth:`memory_snapshot`, each in machine-id order (or merging
    results as if they had), because routing determinism depends on it.
    Driver-side code reads machine stores through :meth:`run_harvest`,
    never ``machines[i].store`` directly: a backend may keep the real
    state elsewhere.
    """

    name = "abstract"

    def run_local(self, machines: Sequence[Machine], fn: MachineFn) -> None:
        """Apply ``fn`` to every machine, mutating stores in place."""
        raise NotImplementedError

    def run_exchange(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        *,
        memory_words: int,
        enforce: bool = True,
        want_sent_per_machine: bool = False,
    ) -> ExchangeStats:
        """Run ``fn`` on every machine and route what it returns.

        Every outbox goes through :meth:`ExchangeStats.route`, and each
        machine gets a fresh inbox in arrival order (an empty one if
        nothing arrived).
        """
        raise NotImplementedError

    def memory_snapshot(self, machines: Sequence[Machine]) -> List[int]:
        """Per-machine word counts after the last superstep, in id order."""
        raise NotImplementedError

    def run_harvest(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        only: Optional[Sequence[int]] = None,
    ) -> List[object]:
        """Apply a driver-side read (or plant) to machines, keeping state.

        ``only`` selects machine ids; results come back in the order
        requested (id order when ``only`` is None).  ``fn`` may mutate the
        machine (pop a staging key, plant a value) — out-of-core backends
        persist the mutation to the spilled shard.
        """
        targets = machines if only is None else [machines[i] for i in only]
        return [fn(machine) for machine in targets]

    def resident_machines_hint(self) -> Optional[int]:
        """How many machines are resident at once, or None for "all".

        Driver-side per-machine caches (memoized estimators, CSR views)
        use this to bound themselves: holding cache entries for machines
        whose state is spilled to disk would silently rebuild the O(full
        graph) driver footprint the backend exists to avoid.
        """
        return None

    def attach_governor(self, governor) -> None:
        """Let a :class:`~repro.mpc.governor.LoadGovernor` steer execution."""

    def shutdown(self) -> None:
        """Release any backend resources (idempotent)."""

    def stats(self) -> Dict[str, int]:
        """Execution counters (integer-valued, cheap to snapshot).

        The trace layer (:mod:`repro.mpc.trace`) snapshots this dict on
        every superstep for backend attribution, so implementations must
        keep it small and allocation-light.
        """
        return {}


class SerialBackend(SuperstepBackend):
    """In-process execution in machine-id order, every machine resident."""

    name = "serial"

    def __init__(self):
        self._stats = {"local_steps": 0, "communicate_steps": 0}

    def run_local(self, machines: Sequence[Machine], fn: MachineFn) -> None:
        self._stats["local_steps"] += 1
        for machine in machines:
            fn(machine)

    def run_exchange(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        *,
        memory_words: int,
        enforce: bool = True,
        want_sent_per_machine: bool = False,
    ) -> ExchangeStats:
        self._stats["communicate_steps"] += 1
        exchange = ExchangeStats(
            len(machines), memory_words, enforce, want_sent_per_machine
        )
        inboxes: List[List[Tuple[int, ...]]] = [[] for _ in machines]
        for machine in machines:
            for message in exchange.route(machine.mid, fn(machine)):
                inboxes[message.dst].append(message.payload)
        exchange.close()
        for machine, inbox in zip(machines, inboxes):
            machine.inbox = inbox  # arrival order: sender id, then send order
        return exchange

    def memory_snapshot(self, machines: Sequence[Machine]) -> List[int]:
        return [machine.memory_words() for machine in machines]

    def stats(self) -> Dict[str, int]:
        return dict(self._stats)


def _chunk_ranges(count: int, parts: int) -> List[range]:
    """Split ``range(count)`` into ``parts`` contiguous, balanced ranges."""
    parts = max(1, min(parts, count))
    base, extra = divmod(count, parts)
    ranges = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append(range(lo, hi))
        lo = hi
    return ranges


def _make_shard_backend(workers: int) -> SuperstepBackend:
    # Imported lazily: repro.mpc.shard depends on this module.
    from repro.mpc.shard import ShardBackend

    return ShardBackend(num_shards=workers)


SHARD_BACKEND_NAME = "shard"

#: name → factory(workers).  ``workers`` is the shard count for ``shard``
#: (0 → its default) and ignored by ``serial``.
BACKENDS = {
    SerialBackend.name: lambda workers: SerialBackend(),
    SHARD_BACKEND_NAME: _make_shard_backend,
}


def resolve_backend(
    name: str, workers: int = 0
) -> SuperstepBackend:
    """Instantiate a backend by registry name.

    >>> resolve_backend("serial").name
    'serial'
    """
    if name not in BACKENDS:
        raise MPCConfigError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        )
    return BACKENDS[name](workers)
