"""One-round keyed redistribution (the MapReduce shuffle).

``shuffle(sim, items_fn)`` runs ``items_fn`` on each machine to produce
messages, routes them, and leaves payloads in each machine's inbox.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.mpc.machine import Machine
from repro.mpc.message import Message
from repro.mpc.simulator import Simulator


def shuffle(
    sim: Simulator, items_fn: Callable[[Machine], Iterable[Message]]
) -> None:
    """Route the messages produced by ``items_fn``; costs one round."""
    sim.communicate(items_fn)
