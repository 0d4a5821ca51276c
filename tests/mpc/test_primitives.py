"""MPC primitives vs sequential references, across machine counts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpc.config import MPCConfig
from repro.mpc.message import Message
from repro.mpc.primitives import (
    all_reduce_scalar,
    dedup_items,
    exclusive_prefix_counts,
    reduce_scalar,
    reduce_vector,
    sample_sort,
    shuffle,
)
from repro.mpc.primitives.broadcast import broadcast_value
from repro.mpc.simulator import Simulator
from repro.util.rng import SplitMix64


def sim_with(k, s=4096):
    return Simulator(MPCConfig(num_machines=k, memory_words=s))


class TestReduce:
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 17])
    def test_sum_of_mids(self, k):
        sim = sim_with(k)
        total = reduce_scalar(sim, lambda m: m.mid, lambda a, b: a + b)
        assert total == k * (k - 1) // 2

    @pytest.mark.parametrize("k", [2, 7])
    def test_max(self, k):
        sim = sim_with(k)
        assert reduce_scalar(sim, lambda m: m.mid * 3, max) == 3 * (k - 1)

    def test_vector_elementwise(self):
        sim = sim_with(5)
        out = reduce_vector(
            sim,
            lambda m: (m.mid, 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
            width=2,
        )
        assert out == (10, 5)

    def test_small_memory_forces_tree(self):
        # With tiny memory the fanout drops and multiple rounds are needed.
        sim = sim_with(16, s=64)
        total = reduce_scalar(sim, lambda m: 1, lambda a, b: a + b)
        assert total == 16
        assert sim.metrics.rounds >= 1

    def test_width_mismatch_rejected(self):
        sim = sim_with(2)
        with pytest.raises(ValueError):
            reduce_vector(sim, lambda m: (1, 2), lambda a, b: a, width=3)

    def test_no_leftover_state(self):
        sim = sim_with(4)
        reduce_scalar(sim, lambda m: 1, lambda a, b: a + b)
        for m in sim.machines:
            assert "_prim_partial" not in m.store


class TestBroadcast:
    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    def test_all_receive(self, k):
        sim = sim_with(k)
        broadcast_value(sim, (7, 8), "val")
        assert all(m.store["val"] == (7, 8) for m in sim.machines)

    def test_tree_when_memory_small(self):
        sim = sim_with(32, s=64)
        broadcast_value(sim, (9,), "val")
        assert all(m.store["val"] == (9,) for m in sim.machines)
        assert sim.metrics.rounds >= 2  # fanout limited: genuine tree

    def test_all_reduce(self):
        sim = sim_with(6)
        total = all_reduce_scalar(
            sim, lambda m: m.mid, lambda a, b: a + b, "total"
        )
        assert total == 15
        assert all(m.store["total"] == 15 for m in sim.machines)


class TestShuffleAndPrefix:
    def test_shuffle_groups(self):
        sim = sim_with(3)

        def items(machine):
            return [Message(0, (machine.mid % 2, machine.mid))]

        shuffle(sim, items)
        # Arrival order: sender id, then send order within a sender.
        assert sim.machine(0).inbox == [(0, 0), (1, 1), (0, 2)]
        assert sim.metrics.rounds == 1

    def test_prefix_counts(self):
        sim = sim_with(5)
        sim.local(lambda m: m.store.__setitem__("items", [0] * (m.mid + 1)))
        total = exclusive_prefix_counts(
            sim, lambda m: len(m.store["items"]), "offset"
        )
        assert total == 15
        assert [m.store["offset"] for m in sim.machines] == [0, 1, 3, 6, 10]


class TestSampleSort:
    @pytest.mark.parametrize("k", [1, 2, 4, 9])
    def test_globally_sorted(self, k):
        sim = sim_with(k)
        rng = SplitMix64(seed=k)

        def plant(machine):
            local = SplitMix64(seed=machine.mid * 7 + 1)
            machine.store["items"] = [
                (local.next_below(500), machine.mid) for _ in range(40)
            ]

        sim.local(plant)
        expected = sorted(
            item for m in sim.machines for item in m.store["items"]
        )
        sample_sort(sim, "items", width=2)
        collected = [item for m in sim.machines for item in m.store["items"]]
        assert collected == expected

    def test_empty_inputs(self):
        sim = sim_with(4)
        sim.local(lambda m: m.store.__setitem__("items", []))
        sample_sort(sim, "items", width=2)
        assert all(m.store["items"] == [] for m in sim.machines)

    def test_skewed_inputs(self):
        sim = sim_with(4)
        sim.local(
            lambda m: m.store.__setitem__(
                "items", [(1, i) for i in range(30)] if m.mid == 0 else []
            )
        )
        sample_sort(sim, "items", width=2)
        collected = [item for m in sim.machines for item in m.store["items"]]
        assert collected == [(1, i) for i in range(30)]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 100), max_size=60), st.integers(2, 6))
    def test_random_inputs(self, values, k):
        sim = sim_with(k)
        chunks = [values[i::k] for i in range(k)]

        def plant(machine):
            machine.store["items"] = [
                (v, machine.mid) for v in chunks[machine.mid]
            ]

        sim.local(plant)
        sample_sort(sim, "items", width=2)
        collected = [
            item[0] for m in sim.machines for item in m.store["items"]
        ]
        assert collected == sorted(values)


class TestDedup:
    def test_removes_duplicates(self):
        sim = sim_with(4)
        sim.local(
            lambda m: m.store.__setitem__("items", [(1, 2), (m.mid, 0)])
        )
        dedup_items(sim, "items")
        collected = sorted(
            item for m in sim.machines for item in m.store["items"]
        )
        assert collected == [(0, 0), (1, 0), (1, 2), (2, 0), (3, 0)]

    def test_idempotent(self):
        sim = sim_with(3)
        sim.local(lambda m: m.store.__setitem__("items", [(5, 5)]))
        dedup_items(sim, "items")
        dedup_items(sim, "items")
        collected = [item for m in sim.machines for item in m.store["items"]]
        assert collected == [(5, 5)]
