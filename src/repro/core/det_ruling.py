"""Deterministic ``(2, β)``-ruling sets via derandomized sparsify-and-gather.

This is the reconstruction of the paper's headline algorithm.  Each
iteration of the main loop:

1. **Sparsify** (β − 1 levels).  Level ``j`` samples
   ``X_j = {v ∈ X_{j-1} : h_j(v) < T_j}`` with rate
   ``q_j = min(1/2, 4/√Δ_j)`` using a hash seed chosen by a *batched
   distributed seed scan* against two targets:

   * size: ``|X_j| · p ≤ 3 · |X_{j-1}| · T_j``  (Markov, fails w.p. < 1/3)
   * coverage: at most half the vertices of degree ≥ ``8/q_j`` lack a
     sampled neighbour (pairwise independence + Chebyshev gives
     ``Pr[no sampled neighbour] ≤ 1/(deg·q) ≤ 1/8`` per such vertex, so
     the target fails w.p. ≤ 1/4).

   At least a ``5/12`` fraction of the family meets both targets, so the
   deterministic scan commits after O(1) batches.  Because membership in
   ``X_j`` is a pure function of the *id*, each machine builds the induced
   level-``j`` adjacency with **zero communication**.

2. **Solve** the deepest level: gather its subgraph to machine 0 and run
   greedy MIS there if it fits half a machine's memory, otherwise fall
   back to the distributed derandomized Luby MIS on that level.

3. **Remove** everything within β hops of the new members (a β-round
   flag wave on the original adjacency), so every removed vertex is
   certifiably within β of the output and later members stay independent
   of earlier ones (distance-1 neighbours are always removed).

The loop ends by gathering the whole residual graph once it fits, or by
running Luby when its degree is tiny.  Correctness — 2-independence and
β-domination — holds *unconditionally by construction*; the sampling
targets only govern progress speed.  The randomized baseline runs the
same engine with a draw-don't-scan seed chooser, so benchmark deltas
isolate exactly the derandomization cost.

The main loop (measure, route, gather-finish, endgame, solve, remove) is
the one :func:`repro.core.engine_ops.sparsify_and_gather_program` shares
with the degree-class family; this module supplies only step 1, the
removal radius β and its labels (see :func:`ruling_program`).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.core.engine_ops import (
    LoopLabels,
    adjacency_words,
    gather_budget,
    sampling_rate,
    sparsify_and_gather_program,
)
from repro.core.program import ProgramContext, SuperstepProgram
from repro.derand.family import Seed, threshold_for_rate
from repro.derand.seed_search import distributed_scan_seeds
from repro.errors import AlgorithmError
from repro.mpc.graph_store import ADJ, DistributedGraph
from repro.mpc.machine import Machine
from repro.mpc.primitives.aggregate import reduce_scalar
from repro.mpc.state_layout import BoundedCache, MachineCSR, vector_numpy

IN_SET = "rs_in_set"
ITER_MEMBERS = "rs_iter_members"

# A sampling chooser returns (seed, candidates_scanned) for one level.
SamplingChooser = Callable[
    ["DistributedGraph", int, str, int, int, int, int], Tuple[Seed, int]
]


def scanning_chooser(batch: int = 32, max_batches: int = 512) -> SamplingChooser:
    """Deterministic chooser: batched scan against size+coverage targets."""

    def choose(
        dg: DistributedGraph,
        p: int,
        adj_key: str,
        threshold: int,
        high_degree: int,
        n_level: int,
        n_high: int,
    ) -> Tuple[Seed, int]:
        np_mod = vector_numpy(dg.sim, p)
        # The adjacency layer is immutable for the duration of one scan,
        # so each machine's CSR view is built once and reused across
        # every candidate seed in every batch — bounded to the backend's
        # resident-machine count so an out-of-core run never accumulates
        # CSR views for machines whose state is spilled.
        csr_cache = BoundedCache(dg.sim.backend.resident_machines_hint())

        def local_stats(machine: Machine, seed: Seed) -> Tuple[int, int]:
            adj = machine.store[adj_key]
            if np_mod is not None:
                csr = csr_cache.get(machine.mid)
                if csr is None:
                    csr = MachineCSR.from_adjacency(adj, np_mod)
                    csr_cache.put(machine.mid, csr)
                sampled = int((csr.hash_ids(seed) < threshold).sum())
                covered = csr.row_any(csr.hash_indices(seed) < threshold)
                uncovered_high = int(
                    ((csr.degrees >= high_degree) & ~covered).sum()
                )
                return (sampled, uncovered_high)
            sampled = 0
            uncovered_high = 0
            for v, neighbors in adj.items():
                if seed.hash(v) < threshold:
                    sampled += 1
                if len(neighbors) >= high_degree and not any(
                    seed.hash(u) < threshold for u in neighbors
                ):
                    uncovered_high += 1
            return (sampled, uncovered_high)

        def accept(stats: Tuple[int, ...]) -> bool:
            sampled, uncovered_high = stats
            # Size: E[|X|] = n*T/p and Var <= E under pairwise
            # independence, so Chebyshev bounds Pr[|X| > 1.5E + 4] by
            # E/(E/2 + 4)^2 — a 1.5x multiplicative target (plus absolute
            # slack 4) keeps a constant family fraction acceptable while
            # excluding degenerate near-full samples, which a 3x Markov
            # target would admit at rate 1/2.
            size_ok = 2 * sampled * p <= 3 * n_level * threshold + 8 * p
            coverage_ok = 2 * uncovered_high <= n_high
            return size_ok and coverage_ok

        seed, _, scan = distributed_scan_seeds(
            dg.sim,
            p,
            local_stats,
            stat_width=2,
            accept=accept,
            batch=batch,
            max_batches=max_batches,
        )
        return seed, scan.candidates_scanned

    return choose


def ruling_program(
    beta: int = 2,
    in_set_key: str = IN_SET,
    chooser: Optional[SamplingChooser] = None,
    luby_chooser=None,
    luby_allow_stalls: int = 0,
    endgame_degree: int = 4,
    max_iterations: Optional[int] = None,
) -> SuperstepProgram:
    """The sparsify-and-gather ruling-set engine as a phase program.

    The shared loop of :func:`~repro.core.engine_ops.
    sparsify_and_gather_program` with this module's sampling step
    (``ruling-sparsify``: up to β − 1 levels, one chosen seed each) and
    removal radius β.  Its phases are ``ruling-iteration`` (route),
    ``ruling-gather-finish``, ``ruling-endgame-luby`` (residual degree ≤
    ``endgame_degree``) and the chain ``ruling-sparsify`` →
    ``ruling-solve-level`` → ``ruling-removal-wave``.  Level adjacency
    layers register with :meth:`~repro.core.program.ProgramContext.
    push_level` and are torn down on every exit path.
    """
    if beta < 2:
        raise AlgorithmError(
            f"ruling_program needs beta >= 2, got {beta}; "
            "use luby_program for an MIS"
        )
    choose = chooser if chooser is not None else scanning_chooser()

    def sparsify(ctx: ProgramContext, p: int, level_degree: int) -> str:
        dg, sim = ctx.dg, ctx.sim
        np_mod = vector_numpy(sim, p)
        budget = gather_budget(sim)
        prev_key = ADJ
        for level in range(1, beta):
            rate_num, rate_den = sampling_rate(level_degree)
            threshold = threshold_for_rate(p, rate_num, rate_den)
            high_degree = -(-8 * rate_den // rate_num)  # ceil(8 / q)
            n_level = dg.count_active(prev_key)
            n_high = reduce_scalar(
                sim,
                lambda m, hk=prev_key, hd=high_degree: sum(
                    1
                    for nbrs in m.store[hk].values()
                    if len(nbrs) >= hd
                ),
                lambda a, b: a + b,
            )
            seed, scanned = choose(
                dg, p, prev_key, threshold, high_degree, n_level, n_high
            )
            ctx.counters["seed_candidates"] += scanned
            ctx.counters["levels_built"] += 1
            new_key = f"rs_level{level}_adj"
            ctx.push_level(new_key)

            def build_level(
                machine: Machine, src=prev_key, dst=new_key,
                s=seed, t=threshold,
            ) -> None:
                adj = machine.store[src]
                if np_mod is not None:
                    # Same rows, same order, same tuples — computed by
                    # array masks instead of per-entry hash calls.
                    machine.store[dst] = MachineCSR.from_adjacency(
                        adj, np_mod
                    ).sampled_subgraph(s, t)
                    return
                machine.store[dst] = {
                    v: tuple(u for u in nbrs if s.hash(u) < t)
                    for v, nbrs in adj.items()
                    if s.hash(v) < t
                }

            sim.local(build_level)
            prev_key = new_key
            n_lvl, _, lvl_words = adjacency_words(dg, prev_key)
            if n_lvl == 0 or lvl_words <= budget:
                break
            level_degree = dg.max_active_degree(prev_key)
            if level_degree <= endgame_degree:
                break
        return prev_key

    return sparsify_and_gather_program(
        name="sparsify-gather",
        labels=LoopLabels(
            route="ruling-iteration",
            gather_finish="ruling-gather-finish",
            endgame="ruling-endgame-luby",
            sample="ruling-sparsify",
            solve="ruling-solve-level",
            remove="ruling-removal-wave",
            sample_gathers="level_gathers",
            sample_luby_solves="level_luby_solves",
            no_members="level solver produced no members from a non-empty level",
            unfinished="ruling set",
            iterations="iterations",
        ),
        counters=(
            "iterations",
            "levels_built",
            "seed_candidates",
            "gather_finishes",
            "level_gathers",
            "level_luby_solves",
            "endgame_luby",
            "members",
        ),
        sample=sparsify,
        radius=beta,
        endgame_degree=endgame_degree,
        default_limit=lambda n: n + 2,
        in_set_key=in_set_key,
        iter_key=ITER_MEMBERS,
        max_iterations=max_iterations,
        luby_chooser=luby_chooser,
        luby_allow_stalls=luby_allow_stalls,
    )
