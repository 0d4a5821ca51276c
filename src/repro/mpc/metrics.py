"""Run metrics: the quantities the paper's theorems are *about*.

A theory paper's "cost" of an MPC algorithm is its round count, with
per-round communication and per-machine memory as side constraints.  The
simulator emits one :class:`SuperstepEvent` per superstep and one per
phase mark; :class:`RunMetrics` folds that stream into:

* ``rounds`` — number of communication supersteps;
* ``total_messages`` / ``total_words`` — global communication volume;
* ``max_words_sent`` / ``max_words_received`` — worst per-machine,
  per-round I/O observed (must stay ≤ S; the simulator enforces it);
* ``peak_memory_words`` — worst per-machine residency observed;
* ``phases`` — named round ranges, so benches can attribute rounds to
  algorithm stages (sparsify vs gather vs cleanup, seed search vs commit).

The trace and the load governor fold the same events.

Alongside the model quantities the fold keeps **wall-clock timing**:
``wall_time_s`` and ``time_per_phase`` (seconds attributed to the phase
active when the work ran).  A superstep's clock runs from its callbacks
through routing and the memory audit that prices every machine
afterwards, so the reported time covers the whole superstep.  Wall-clock
measures the *simulator*, not a cluster — it exists so performance work
on the simulator's hot paths is measured rather than asserted.  Timing
never feeds back into any algorithmic decision, so runs stay
bit-for-bit deterministic in members/rounds/words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class SuperstepEvent:
    """A superstep (``kind`` ``"local"`` / ``"round"``) or phase mark.

    ``round`` counts the rounds completed, so a round event carries its
    own 1-based index; ``phase`` is the active (or opened) phase.
    ``memory`` lists each machine's words after the superstep, in id
    order.  ``sent_per_machine`` and ``backend_stats`` are filled only
    when a trace is attached.
    """

    kind: str
    round: int
    phase: str
    elapsed_s: float = 0.0
    memory: Sequence[int] = ()
    messages: int = 0
    words: int = 0
    max_sent: int = 0
    max_received: int = 0
    sent_per_machine: Optional[Sequence[int]] = None
    received_per_machine: Sequence[int] = ()
    backend_stats: Optional[Dict[str, int]] = None


@dataclass
class PhaseMark:
    """A named phase beginning at ``start_round``."""

    name: str
    start_round: int


@dataclass
class RunMetrics:
    """Mutable accumulator owned by a :class:`repro.mpc.Simulator`."""

    rounds: int = 0
    total_messages: int = 0
    total_words: int = 0
    max_words_sent: int = 0
    max_words_received: int = 0
    peak_memory_words: int = 0
    phases: List[PhaseMark] = field(default_factory=list)
    wall_time_s: float = 0.0
    time_per_phase: Dict[str, float] = field(default_factory=dict)

    UNPHASED = "(unphased)"

    def current_phase(self) -> str:
        """Name of the phase subsequent work is attributed to."""
        return self.phases[-1].name if self.phases else self.UNPHASED

    def observe(self, event: SuperstepEvent) -> None:
        """Fold one simulator event into the run's totals."""
        if event.kind == "phase":
            self.phases.append(PhaseMark(event.phase, event.round))
            return
        if event.kind == "round":
            self.rounds += 1
            self.total_messages += event.messages
            self.total_words += event.words
            self.max_words_sent = max(self.max_words_sent, event.max_sent)
            self.max_words_received = max(
                self.max_words_received, event.max_received
            )
        self.peak_memory_words = max(
            self.peak_memory_words, max(event.memory, default=0)
        )
        self.wall_time_s += event.elapsed_s
        self.time_per_phase[event.phase] = (
            self.time_per_phase.get(event.phase, 0.0) + event.elapsed_s
        )

    def phase_rounds(self) -> Dict[str, int]:
        """Rounds spent in each phase (later marks close earlier ones).

        Repeated phase names accumulate, so per-iteration phases like
        ``"luby-step"`` sum across iterations.
        """
        spans: Dict[str, int] = {}
        for i, mark in enumerate(self.phases):
            end = (
                self.phases[i + 1].start_round
                if i + 1 < len(self.phases)
                else self.rounds
            )
            spans[mark.name] = spans.get(mark.name, 0) + (
                end - mark.start_round
            )
        return spans

    def summary(self) -> Dict[str, int]:
        """Flat dict for table output (model quantities only — ints).

        Wall-clock is deliberately excluded: the summary participates in
        determinism assertions (identical runs must compare equal), which
        timing would break.  Timing lives in ``wall_time_s`` and
        ``time_per_phase``.
        """
        return {
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "total_words": self.total_words,
            "max_words_sent": self.max_words_sent,
            "max_words_received": self.max_words_received,
            "peak_memory_words": self.peak_memory_words,
        }
