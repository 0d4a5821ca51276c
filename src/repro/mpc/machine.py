"""A simulated MPC machine: local store, inbox, and memory accounting.

A machine's state is a free-form ``store`` dict manipulated by algorithm
callbacks, plus the ``inbox`` of payload tuples delivered by the last
communication step.  Memory is measured in *words* by :func:`words_of`,
which deliberately supports only flat integer-bearing containers — if an
algorithm tries to stash an arbitrary object on a machine, accounting
raises instead of under-counting.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, List, Tuple

#: Types that cost exactly one word each — the batched fast paths may
#: price a whole container by ``len`` only when every element's type is
#: in this set.  ``str`` is deliberately absent (it prices per-8-chars),
#: as is ``NoneType`` (prices 0).
_SCALARS = frozenset((int, bool, float))
_TUPLE_ONLY = frozenset((tuple,))


def words_of(obj: Any) -> int:
    """Return the size of ``obj`` in machine words.

    Ints (arbitrary precision, by design — ids and counters) cost 1 word;
    containers cost the sum of their contents (dicts: keys + values);
    ``None`` costs 0 (absence of a value); strings cost one word per 8
    characters (they appear only in phase labels, never in hot state).

    The accountant runs after *every* superstep over every machine's full
    state, which makes it the simulator's hottest loop on seed-search
    workloads.  The dominant shapes — flat containers of plain ints, and
    adjacency dicts mapping int keys to int tuples — are priced *batched*:
    one C-level type sweep (``set(map(type, ...))``) decides whether the
    whole container can be charged by length, replacing the per-element
    Python loop.  Anything the sweep cannot prove flat falls back to the
    element-by-element walk with identical accounting (the priced-words
    contract is unchanged; only the loop moved below the interpreter).

    >>> words_of(5)
    1
    >>> words_of({1: (2, 3), 4: (5,)})
    5
    >>> words_of([(1, 2), (3,)])
    3
    """
    t = type(obj)
    if t is int:
        return 1
    if t is tuple or t is list or t is set or t is frozenset:
        if not obj:
            return 0
        kinds = set(map(type, obj))
        if kinds <= _SCALARS:
            # Flat container of one-word scalars: price by length.
            return len(obj)
        if kinds == _TUPLE_ONLY:
            # Container of tuples (adjacency rows, message payloads): if
            # every element of every row is a scalar, the whole structure
            # prices as the total element count — two C passes, zero
            # Python-level iterations.
            if set(map(type, chain.from_iterable(obj))) <= _SCALARS:
                return sum(map(len, obj))
        total = 0
        for item in obj:
            if type(item) is int:
                total += 1
            else:
                total += words_of(item)
        return total
    if t is dict:
        if not obj:
            return 0
        values = obj.values()
        if set(map(type, obj)) <= _SCALARS:
            vkinds = set(map(type, values))
            if vkinds <= _SCALARS:
                return 2 * len(obj)
            if vkinds == _TUPLE_ONLY and (
                set(map(type, chain.from_iterable(values))) <= _SCALARS
            ):
                # int → flat int tuple (the adjacency-store shape):
                # keys cost len, values cost their total element count.
                return len(obj) + sum(map(len, values))
        total = 0
        for k, v in obj.items():
            total += 1 if type(k) is int else words_of(k)
            total += 1 if type(v) is int else words_of(v)
        return total
    if obj is None:
        return 0
    if t is bool or t is float:
        return 1
    if t is str:
        return (len(obj) + 7) // 8
    return _words_of_slow(obj)


def _words_of_slow(obj: Any) -> int:
    """Subclass-tolerant fallback for :func:`words_of` (cold path)."""
    if isinstance(obj, (bool, int, float)):
        return 1
    if isinstance(obj, str):
        return (len(obj) + 7) // 8
    if isinstance(obj, (tuple, list, set, frozenset)):
        return sum(words_of(item) for item in obj)
    if isinstance(obj, dict):
        return sum(words_of(k) + words_of(v) for k, v in obj.items())
    raise TypeError(
        f"cannot account for object of type {type(obj).__name__}; machine "
        "state must be built from ints and flat containers"
    )


class Machine:
    """One simulated machine.

    Attributes
    ----------
    mid:
        The machine id in ``0..k-1``.
    store:
        Algorithm-managed local state (ints and containers of ints).
    inbox:
        Payload tuples delivered by the most recent communication round,
        sorted by (sender, payload) so iteration order is deterministic.
    """

    __slots__ = ("mid", "store", "inbox")

    def __init__(self, mid: int):
        self.mid = mid
        self.store: Dict[str, Any] = {}
        self.inbox: List[Tuple[int, ...]] = []

    def memory_words(self) -> int:
        """Current memory footprint: store plus inbox."""
        return words_of(self.store) + words_of(self.inbox)

    def clear_inbox(self) -> None:
        """Drop delivered messages (an algorithm does this once consumed)."""
        self.inbox = []

    def __repr__(self) -> str:
        return f"Machine(mid={self.mid}, words={self.memory_words()})"
