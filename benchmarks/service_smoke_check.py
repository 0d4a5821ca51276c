"""CI check: batch the same request stream twice, assert the warm run.

Exercises the serve layer's cache contract end to end, through the real
CLI entry point rather than in-process calls:

1. write a JSONL request stream (ruling set + matching, duplicates
   included) and run ``repro-mpc batch`` against an empty disk cache;
2. run the identical command again with a fresh process-like engine
   state against the now-populated cache;
3. assert the second run executed **zero** solves (all unique requests
   were cache hits) and that its output records are byte-identical to
   the first run's once the ``_serve`` observability side channel is
   stripped — the serving analogue of the sweep engine's ``_meta``
   exclusion;
4. run ``repro-mpc batch`` as a subprocess on a stream with one
   mistyped field and assert a structured failure: exit 2 and an
   ``error:`` line, no traceback.

Exit code 0 on success, 1 on any violation.  Usage::

    PYTHONPATH=src python -m benchmarks.service_smoke_check
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

from repro.cli import main as cli_main
from repro.core.registry import DET_LUBY, DET_MATCHING, DET_RULING

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def requests() -> List[dict]:
    gnp = {"family": "gnp", "n": 96, "param": 8, "seed": 12}
    tree = {"family": "tree", "n": 80, "seed": 12}
    return [
        {"id": "r0", "graph": gnp, "algorithm": DET_RULING},
        {"id": "r1", "graph": gnp, "algorithm": DET_RULING},  # dedups
        {"id": "r2", "graph": gnp, "algorithm": DET_LUBY},
        {"id": "r3", "graph": tree, "algorithm": DET_RULING, "beta": 3},
        {"id": "r4", "graph": tree, "algorithm": DET_MATCHING},
    ]


def deterministic_records(path: Path) -> List[dict]:
    """Output records minus the non-deterministic ``_serve`` keys."""
    rows = []
    for line in path.read_text().splitlines():
        payload = json.loads(line)
        payload.pop("_serve", None)
        rows.append(payload)
    return rows


def check(message: str, ok: bool) -> bool:
    print(("  OK  " if ok else "  FAIL") + f" {message}")
    return ok


def batch_subprocess(request_path: Path, out: Path):
    """``repro-mpc batch`` in a fresh interpreter; its exit code and stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "batch",
            "--requests", str(request_path), "--out", str(out),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stderr


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="service-smoke-") as tmp:
        base = Path(tmp)
        request_path = base / "requests.jsonl"
        request_path.write_text(
            "\n".join(json.dumps(r) for r in requests()) + "\n"
        )
        outs = [base / "run1.jsonl", base / "run2.jsonl"]
        traces = [base / "trace1.jsonl", base / "trace2.jsonl"]
        for out, trace in zip(outs, traces):
            code = cli_main([
                "batch",
                "--requests", str(request_path),
                "--cache-dir", str(base / "cache"),
                "--out", str(out),
                "--trace-out", str(trace),
            ])
            if code != 0:
                print(f"batch run exited with {code}")
                return 1

        summaries = [
            json.loads(trace.read_text().splitlines()[-1])
            for trace in traces
        ]
        unique = len(requests()) - summaries[0]["dedup"]
        ok = True
        ok &= check(
            f"cold run executed every unique request "
            f"({summaries[0]['executed']}/{unique})",
            summaries[0]["executed"] == unique,
        )
        ok &= check(
            "warm run executed zero solves",
            summaries[1]["executed"] == 0,
        )
        ok &= check(
            f"warm run served every unique request from the cache "
            f"({summaries[1]['cache_hit']}/{unique})",
            summaries[1]["cache_hit"] == unique
            and summaries[1]["cache_miss"] == 0,
        )
        ok &= check(
            "warm records identical to cold records (modulo _serve)",
            deterministic_records(outs[0]) == deterministic_records(outs[1]),
        )
        ok &= check("no failure records", summaries[0]["failed"] == 0)

        mistyped_path = base / "mistyped.jsonl"
        mistyped_path.write_text("\n".join(
            json.dumps(dict(r, beta="x") if r["id"] == "r3" else r)
            for r in requests()
        ) + "\n")
        code, err = batch_subprocess(mistyped_path, base / "mistyped.out")
        ok &= check(
            f"mistyped field: exit {code}, structured error, no traceback",
            code == 2
            and any(line.startswith("error:") for line in err.splitlines())
            and "Traceback" not in err,
        )
        if not ok:
            return 1
    print("service smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
