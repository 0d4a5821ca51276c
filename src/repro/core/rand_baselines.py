"""Randomized baselines sharing the deterministic engines' code paths.

The randomized MIS and ruling-set baselines are the *same* phase
programs as :func:`repro.core.det_luby.luby_program` and
:func:`repro.core.det_ruling.ruling_program` with one substitution: the
seed chooser **draws** a hash seed from the pairwise-independent family
instead of *searching* for one.  Pairwise independence already yields the
expected per-phase progress (Luby's analysis; Chebyshev coverage), so the
baselines are bona fide randomized MPC algorithms — and any benchmarked
difference against the deterministic variants is, by construction,
exactly the cost of derandomization (the E1/E7 measurements).

Each drawn seed is broadcast from machine 0 so that the run does not
assume free shared randomness; that costs the same O(1) rounds a real
randomized MPC implementation would pay to agree on public coins.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.det_luby import luby_program
from repro.core.det_ruling import ruling_program
from repro.derand.family import Seed
from repro.mpc.graph_store import ADJ, DistributedGraph
from repro.mpc.primitives.broadcast import broadcast_value
from repro.util.rng import SplitMix64


def random_luby_chooser(rng: SplitMix64):
    """Luby seed chooser that draws ``(a, b)`` uniformly and broadcasts."""

    def choose(sim, p: int) -> Tuple[Seed, int]:
        seed = Seed(a=rng.next_below(p), b=rng.next_below(p), p=p)
        broadcast_value(sim, (seed.a, seed.b), "_rand_seed")
        return seed, 1

    return choose


def random_sampling_chooser(rng: SplitMix64):
    """Sampling chooser that draws a seed per level, no scanning."""

    def choose(
        dg: DistributedGraph,
        p: int,
        adj_key: str,
        threshold: int,
        high_degree: int,
        n_level: int,
        n_high: int,
    ) -> Tuple[Seed, int]:
        seed = Seed(a=rng.next_below(p), b=rng.next_below(p), p=p)
        broadcast_value(dg.sim, (seed.a, seed.b), "_rand_seed")
        return seed, 1

    return choose


def rand_luby_program(
    adj_key: str = ADJ,
    in_set_key: str = "luby_in_set",
    seed: int = 0,
    max_phases: int = 10_000,
):
    """The randomized Luby MIS baseline as a phase program.

    Tolerates a bounded number of consecutive unlucky (zero-progress)
    phases; with pairwise-independent marking those are rare.
    """
    rng = SplitMix64(seed=seed)
    return luby_program(
        adj_key=adj_key,
        in_set_key=in_set_key,
        chooser=random_luby_chooser(rng),
        max_phases=max_phases,
        allow_stalls=64,
    )


def rand_ruling_program(
    beta: int = 2,
    in_set_key: str = "rs_in_set",
    seed: int = 0,
    endgame_degree: int = 4,
):
    """The randomized sparsify-and-gather ``(2, β)``-ruling set
    baseline as a phase program."""
    rng = SplitMix64(seed=seed)
    return ruling_program(
        beta=beta,
        in_set_key=in_set_key,
        chooser=random_sampling_chooser(rng.fork(1)),
        luby_chooser=random_luby_chooser(rng.fork(2)),
        luby_allow_stalls=64,
        endgame_degree=endgame_degree,
    )
