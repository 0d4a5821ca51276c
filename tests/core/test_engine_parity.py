"""Before/after oracle for the shared sparsify-and-gather loop.

``tests/data/engine_parity.json`` was captured while det-ruling and
gp-2ruling still spelled out their own main loops.  It pins the cells
``refactor_parity.json`` does not reach: gp-2ruling, det-ruling with
β = 3 (more than one sparsification level per iteration), and the
α = 3 power-graph reduction of det-ruling and rand-ruling, all on the E4
graph set.  Every cell must replay with bit-identical members, rounds,
claimed (α, β), ``metrics.summary()`` *including key order*, and
per-phase round attribution (also in order).

Regenerate only from a commit whose behaviour is the new baseline::

    PYTHONPATH=src python -m tests.core.test_engine_parity --write

Never edit the JSON by hand.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.pipeline import solve_ruling_set
from repro.graph import generators as gen

ORACLE_PATH = Path(__file__).parent.parent / "data" / "engine_parity.json"

E4_WORKLOADS = {
    "er-256": lambda: gen.gnp_random_graph(256, 16, 256, seed=4),
    "power-law-256": lambda: gen.chung_lu_power_law(256, seed=4),
    "tree-256": lambda: gen.random_tree(256, seed=4),
    "grid-16x16": lambda: gen.grid_graph(16, 16),
    "caterpillar": lambda: gen.caterpillar_graph(40, 5),
    "regular-24": lambda: gen.regular_graph(256, 24),
}
VARIANTS = {
    "gp-2ruling": dict(algorithm="gp-2ruling", alpha=2, beta=2),
    "det-ruling-b3": dict(algorithm="det-ruling", alpha=2, beta=3),
    "det-ruling-a3": dict(algorithm="det-ruling", alpha=3, beta=2),
    "rand-ruling-a3": dict(algorithm="rand-ruling", alpha=3, beta=2),
}

_GRAPH_CACHE = {}


def _workload(name: str):
    if name not in _GRAPH_CACHE:
        _GRAPH_CACHE[name] = E4_WORKLOADS[name]()
    return _GRAPH_CACHE[name]


def _run(cell: str) -> dict:
    workload, variant = cell.split("/")
    result = solve_ruling_set(
        _workload(workload), regime="sublinear", **VARIANTS[variant]
    )
    return {
        "members": result.members,
        "rounds": result.rounds,
        "alpha": result.alpha,
        "beta": result.beta,
        "metrics": result.metrics,
        "phase_rounds": result.phase_rounds,
    }


def _cells():
    return [f"{w}/{v}" for w in E4_WORKLOADS for v in VARIANTS]


ORACLE = json.loads(ORACLE_PATH.read_text()) if ORACLE_PATH.exists() else {}


@pytest.mark.parametrize("cell", sorted(ORACLE))
def test_engine_cell_bit_identical(cell):
    got = _run(cell)
    expected = ORACLE[cell]
    assert got["members"] == expected["members"]
    assert got["rounds"] == expected["rounds"]
    assert (got["alpha"], got["beta"]) == (
        expected["alpha"], expected["beta"]
    )
    assert list(got["metrics"].items()) == list(expected["metrics"].items())
    assert list(got["phase_rounds"].items()) == list(
        expected["phase_rounds"].items()
    )


def test_oracle_covers_every_cell():
    assert sorted(ORACLE) == sorted(_cells())


if __name__ == "__main__":  # pragma: no cover - oracle capture
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.core.test_engine_parity --write")
    oracle = {cell: _run(cell) for cell in _cells()}
    ORACLE_PATH.write_text(json.dumps(oracle, sort_keys=False) + "\n")
    print(f"wrote {len(oracle)} cells to {ORACLE_PATH}")
