"""The paper's contribution: deterministic MPC ruling-set algorithms.

Public surface:

* :mod:`~repro.core.registry` — the algorithm registry: one
  :class:`~repro.core.registry.AlgorithmSpec` per algorithm (canonical
  name, model family, problem, capability flags, and its one execution
  form: a phase-program factory for MPC algorithms, a runner for the
  LOCAL/sequential baselines).  The single source of algorithm names
  for the drivers, CLI, sweeps, and benches.
* :class:`~repro.core.session.SolverSession` — the one MPC executor
  (regime sizing, backend/trace wiring, simulator context, program
  execution, collection, metrics assembly) every registered algorithm
  runs through, on an in-memory graph or a streamed edge list.
* :func:`repro.core.pipeline.solve_ruling_set` /
  :func:`repro.core.det_matching.solve_matching` — one-call drivers:
  thin registry lookups over the session, plus ground-truth
  verification, returning :class:`~repro.core.spec.RulingSetResult` /
  :class:`~repro.core.spec.MatchingResult` with full MPC metrics.
* :mod:`~repro.core.det_ruling` — deterministic ``(2, β)``-ruling sets via
  derandomized sparsify-and-gather (the headline algorithm's phase
  program).
* :mod:`~repro.core.det_luby` — deterministic MIS via the derandomized
  Luby step (method of conditional expectations each phase);
  :func:`~repro.core.det_luby.det_luby_mis` runs it as the nested MIS
  subroutine of the other programs.
* :mod:`~repro.core.rand_baselines` — the randomized counterparts, sharing
  the same programs so the measured difference is exactly the seed
  search.
* :mod:`~repro.core.greedy` / :mod:`~repro.core.verify` — sequential
  oracle and ground-truth verification.
"""

from repro.core import registry
from repro.core.spec import MatchingResult, RulingSetResult
from repro.core.verify import verify_ruling_set, check_ruling_set
from repro.core.greedy import greedy_mis, greedy_ruling_set
from repro.core.det_luby import det_luby_mis
from repro.core.det_matching import solve_matching, verify_maximal_matching
from repro.core.registry import AlgorithmSpec, algorithm_names, get_algorithm
from repro.core.session import SolverSession
from repro.core.pipeline import solve_ruling_set

__all__ = [
    "registry",
    "AlgorithmSpec",
    "algorithm_names",
    "get_algorithm",
    "SolverSession",
    "RulingSetResult",
    "MatchingResult",
    "verify_ruling_set",
    "check_ruling_set",
    "greedy_mis",
    "greedy_ruling_set",
    "det_luby_mis",
    "solve_matching",
    "verify_maximal_matching",
    "solve_ruling_set",
]
