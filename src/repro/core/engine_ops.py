"""The shared sparsify-and-gather loop and its superstep building blocks.

:func:`sparsify_and_gather_program` is the one main loop every
sparsify-and-gather ruling-set solver runs.  Each iteration measures the
residual graph and routes it: gather it to one machine and finish when
it fits, run the Luby endgame when its degree is small, or else build a
derandomized sample, solve the sample (gather or Luby), and remove
everything within the removal radius of the new members.  A client
supplies only what differs between solvers: its sampling step, its
removal radius, endgame degree and iteration limit, and its labels
(phase names, counter names, error texts).  The loop is
algorithm-agnostic: it spells no algorithm name.

The building blocks it composes — measuring an adjacency layer,
gathering a small subgraph to one machine for a sequential solve, the
β-hop removal wave, and the member-set merge/teardown steps — are
exported for the clients' sampling steps too.

Bit-identity note: machine-store keys are memory-priced words (see
:func:`repro.mpc.machine.words_of`), so every scratch-key literal here
(``_rs_gather_flag``, ``_rs_frontier``, …) is part of the metrics
contract and must not be renamed casually — the refactor-parity and
engine-parity oracles pin ``peak_memory_words`` across these helpers'
callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.det_luby import det_luby_mis, modulus_for
from repro.core.greedy import greedy_mis_on_edges
from repro.core.program import (
    EXIT,
    Branch,
    Loop,
    Phase,
    ProgramContext,
    SuperstepProgram,
)
from repro.errors import AlgorithmError
from repro.mpc.graph_store import ADJ, DistributedGraph
from repro.mpc.machine import Machine
from repro.mpc.message import Message
from repro.mpc.primitives.aggregate import reduce_scalar, reduce_vector


def sampling_rate(max_degree: int) -> Tuple[int, int]:
    """Rate ``q = min(1/2, 4/isqrt(Δ))`` as an exact fraction."""
    root = math.isqrt(max(1, max_degree))
    if root <= 8:
        return (1, 2)
    return (4, root)


def gather_budget(sim) -> int:
    """Words a layer may take to be gathered to one machine: half of S."""
    return sim.config.memory_words // 2


def adjacency_words(dg: DistributedGraph, adj_key: str) -> Tuple[int, int, int]:
    """Return ``(n_active, m_active, words)`` for one adjacency layer."""
    sim = dg.sim

    def extract(machine: Machine) -> Tuple[int, ...]:
        adj = machine.store[adj_key]
        return (
            len(adj),
            sum(len(nbrs) for nbrs in adj.values()),
        )

    n_active, directed = reduce_vector(
        sim, extract, lambda a, b: (a[0] + b[0], a[1] + b[1]), width=2
    )
    return n_active, directed // 2, directed + n_active


def gather_and_greedy(
    dg: DistributedGraph, adj_key: str, members_key: str
) -> int:
    """Gather the ``adj_key`` subgraph to machine 0, solve, scatter members.

    Flags every active vertex of the layer, ships the subgraph, runs
    greedy MIS at machine 0, and sends each member id to its owner, which
    records it under ``members_key``.  Returns the member count.  Costs 4
    rounds.
    """
    sim = dg.sim

    def flag_all(machine: Machine) -> None:
        machine.store["_rs_gather_flag"] = sorted(machine.store[adj_key])

    sim.local(flag_all)
    dg.gather_flagged_to_zero(
        "_rs_gather_flag", "_rs_gv", "_rs_ge", adj_key=adj_key
    )

    def solve_and_scatter(machine: Machine) -> List[Message]:
        machine.store.pop("_rs_gather_flag")
        if machine.mid != 0:
            return []
        vertices = machine.store.pop("_rs_gv")
        edges = machine.store.pop("_rs_ge")
        members = greedy_mis_on_edges(vertices, edges)
        return [Message(dg.owner_of(v), (v,)) for v in members]

    sim.communicate(solve_and_scatter)

    def record(machine: Machine) -> None:
        for payload in machine.inbox:
            machine.store[members_key].add(payload[0])
        machine.clear_inbox()

    sim.local(record)
    return reduce_scalar(
        sim, lambda m: len(m.store[members_key]), lambda a, b: a + b
    )


def removal_wave(
    dg: DistributedGraph, members_key: str, beta: int, adj_key: str = ADJ
) -> int:
    """Deactivate every active vertex within β hops of the new members.

    β rounds of flag pushes on the base adjacency plus one deactivation
    round.  Returns the number of vertices removed.
    """
    sim = dg.sim

    def seed_wave(machine: Machine) -> None:
        members = set(machine.store[members_key])
        active = set(machine.store[adj_key])
        machine.store["_rs_frontier"] = sorted(members & active)
        machine.store["_rs_removed"] = members & active

    sim.local(seed_wave)
    for _ in range(beta):
        dg.push_flags("_rs_frontier", "_rs_hit", adj_key=adj_key)

        def advance(machine: Machine) -> None:
            removed = machine.store["_rs_removed"]
            hit = machine.store.pop("_rs_hit")
            newly = {
                v
                for v in hit
                if v not in removed and v in machine.store[adj_key]
            }
            removed.update(newly)
            machine.store["_rs_frontier"] = sorted(newly)

        sim.local(advance)

    def finalize(machine: Machine) -> None:
        machine.store.pop("_rs_frontier")
        machine.store["_rs_removed"] = set(machine.store["_rs_removed"])
        machine.store["_rs_removed_count"] = len(machine.store["_rs_removed"])

    sim.local(finalize)
    removed_total = sum(
        sim.harvest(lambda m: m.store.pop("_rs_removed_count"))
    )
    dg.deactivate("_rs_removed", adj_key=adj_key)
    return removed_total


def merge_members(sim, in_set_key: str, iter_key: str) -> int:
    """Fold this iteration's members into the global set; return count."""

    def merge(machine: Machine) -> None:
        new_members = machine.store[iter_key]
        machine.store["_rs_merged"] = len(new_members)
        machine.store[in_set_key].update(new_members)
        machine.store[iter_key] = set()

    sim.local(merge)
    return sum(sim.harvest(lambda m: m.store.pop("_rs_merged")))


def deactivate_all(dg: DistributedGraph, adj_key: str) -> None:
    """Remove every remaining active vertex (after a gather-finish)."""

    def mark_all(machine: Machine) -> None:
        machine.store["_rs_all"] = set(machine.store[adj_key])

    dg.sim.local(mark_all)
    dg.deactivate("_rs_all", adj_key=adj_key)


#: A sampling step: ``(ctx, p, max_degree) -> sample adjacency key``.
#: It builds the sample of the residual graph (whose maximum degree is
#: ``max_degree``) with hash seeds over the field ``Z_p``, registers
#: every layer it installs with :meth:`ProgramContext.push_level`, and
#: returns the key of the layer to solve.
SampleStep = Callable[[ProgramContext, int, int], str]


@dataclass(frozen=True)
class LoopLabels:
    """The names a sparsify-and-gather client reports under.

    The six phase labels feed metrics and the trace; ``sample_gathers``
    and ``sample_luby_solves`` name the counters bumped by a gathered or
    a Luby-solved sample; ``iterations``, when set, names a counter
    bumped once per iteration.  ``no_members`` is the error text for a
    non-empty sample that yields no members, and ``unfinished`` the
    subject of the iteration-limit error.
    """

    route: str
    gather_finish: str
    endgame: str
    sample: str
    solve: str
    remove: str
    sample_gathers: str
    sample_luby_solves: str
    no_members: str
    unfinished: str
    iterations: Optional[str] = None


def sparsify_and_gather_program(
    name: str,
    labels: LoopLabels,
    counters: Tuple[str, ...],
    sample: SampleStep,
    radius: int,
    endgame_degree: int,
    default_limit: Callable[[int], int],
    in_set_key: str,
    iter_key: str,
    sample_keys: Tuple[str, ...] = (),
    max_iterations: Optional[int] = None,
    luby_chooser=None,
    luby_allow_stalls: int = 0,
) -> SuperstepProgram:
    """The sparsify-and-gather main loop as a phase program.

    Each iteration is an unlabelled measurement phase plus a routed
    branch under ``labels.route``: ``labels.gather_finish`` (the whole
    residual fits half a machine), ``labels.endgame`` (residual degree
    ≤ ``endgame_degree``), or the chain ``labels.sample`` →
    ``labels.solve`` → ``labels.remove``.  The solve gathers the sample
    when it fits half a machine, else runs the Luby engine on it; an
    empty sample falls back to one Luby MIS on the residual graph.  The
    removal deactivates everything within ``radius`` hops of the new
    members and releases the sample layers.  The loop runs at most
    ``max_iterations`` times, or ``default_limit(n)`` when that is
    ``None``.  ``counters`` is the program's counter schema, in report
    order; it must name ``seed_candidates``, ``gather_finishes``,
    ``endgame_luby``, ``members`` and the labelled counters.
    """

    def setup(ctx: ProgramContext) -> None:
        dg = ctx.dg
        ctx.state["sg_p"] = modulus_for(dg.num_vertices)
        ctx.state["sg_budget"] = gather_budget(ctx.sim)
        ctx.state["sg_limit"] = (
            max_iterations
            if max_iterations is not None
            else default_limit(dg.num_vertices)
        )

        def ensure_sets(machine: Machine) -> None:
            if in_set_key not in machine.store:
                machine.store[in_set_key] = set()
            machine.store[iter_key] = set()

        ctx.sim.local(ensure_sets)

    def measure(ctx: ProgramContext):
        n_act, _, words = adjacency_words(ctx.dg, ADJ)
        if n_act == 0:
            return EXIT
        if labels.iterations is not None:
            ctx.counters[labels.iterations] += 1
        ctx.state["sg_words"] = words
        return None

    def route(ctx: ProgramContext) -> None:
        # Picks the arm and, on the sample path, measures the residual
        # degree (that reduction is only paid when the residual does not
        # fit one machine).
        if ctx.state["sg_words"] <= ctx.state["sg_budget"]:
            ctx.state["sg_route"] = "gather"
            return
        max_deg = ctx.dg.max_active_degree(ADJ)
        if max_deg <= endgame_degree:
            ctx.state["sg_route"] = "endgame"
            return
        ctx.state["sg_route"] = "sample"
        ctx.state["sg_max_deg"] = max_deg

    def gather_finish(ctx: ProgramContext):
        members = gather_and_greedy(ctx.dg, ADJ, iter_key)
        ctx.counters["gather_finishes"] += 1
        ctx.counters["members"] += members
        merge_members(ctx.sim, in_set_key, iter_key)
        deactivate_all(ctx.dg, ADJ)
        return EXIT

    def luby_solve(ctx: ProgramContext, adj_key: str) -> None:
        sub = det_luby_mis(
            ctx.dg, adj_key=adj_key, in_set_key=iter_key,
            chooser=luby_chooser, allow_stalls=luby_allow_stalls,
        )
        ctx.counters["seed_candidates"] += sub["seed_candidates"]

    def residual_luby(ctx: ProgramContext):
        # Guaranteed progress: one full Luby MIS on the residual graph.
        luby_solve(ctx, ADJ)
        ctx.counters["endgame_luby"] += 1
        ctx.counters["members"] += merge_members(
            ctx.sim, in_set_key, iter_key
        )
        return EXIT

    def sparsify(ctx: ProgramContext) -> None:
        ctx.state["sg_sample_key"] = sample(
            ctx, ctx.state["sg_p"], ctx.state.pop("sg_max_deg")
        )

    def solve(ctx: ProgramContext):
        dg = ctx.dg
        sample_key = ctx.state.pop("sg_sample_key")
        n_smp, _, smp_words = adjacency_words(dg, sample_key)
        if n_smp == 0:
            # Sampling emptied out (legal but rare).
            residual_luby(ctx)
            ctx.release_levels()
            return EXIT
        if smp_words <= ctx.state["sg_budget"]:
            members = gather_and_greedy(dg, sample_key, iter_key)
            ctx.counters[labels.sample_gathers] += 1
        else:
            luby_solve(ctx, sample_key)
            ctx.counters[labels.sample_luby_solves] += 1
            members = reduce_scalar(
                ctx.sim, lambda m: len(m.store[iter_key]), lambda a, b: a + b
            )
        if members == 0:
            raise AlgorithmError(labels.no_members)
        ctx.counters["members"] += members
        return None

    def remove(ctx: ProgramContext) -> None:
        removal_wave(ctx.dg, iter_key, radius)
        merge_members(ctx.sim, in_set_key, iter_key)
        ctx.release_levels()

    return SuperstepProgram(
        name=name,
        counters=counters,
        steps=(
            Phase(setup, keys=(in_set_key, iter_key)),
            Loop(
                steps=(
                    Phase(measure),
                    Phase(route, name=labels.route),
                    Branch(
                        pick=lambda ctx: ctx.state.pop("sg_route"),
                        arms={
                            "gather": (
                                Phase(gather_finish, name=labels.gather_finish),
                            ),
                            "endgame": (
                                Phase(residual_luby, name=labels.endgame),
                            ),
                            "sample": (
                                Phase(
                                    sparsify,
                                    name=labels.sample,
                                    keys=sample_keys,
                                ),
                                Phase(solve, name=labels.solve),
                                Phase(remove, name=labels.remove),
                            ),
                        },
                    ),
                ),
                limit=lambda ctx: ctx.state["sg_limit"],
                exhausted=lambda ctx: AlgorithmError(
                    f"{labels.unfinished} did not finish in "
                    f"{ctx.state['sg_limit']} iterations"
                ),
            ),
        ),
    )
