"""CI check: the serve daemon end to end, against the batch path.

Exercises the persistent daemon's contract through the real CLI entry
points rather than in-process calls:

1. start ``repro-mpc serve`` as a subprocess on a unix socket;
2. replay a small two-tenant request trace over the socket (pipelined,
   duplicates included), bracketed by ``ping`` / ``stats`` / a clean
   ``shutdown``, then send a request with a mistyped field followed by
   a good request and a ``ping`` on one connection;
3. run the identical trace through ``repro-mpc batch`` (tenants
   stripped — the batch engine knows nothing of them) against a fresh
   cache;
4. assert the mistyped request comes back ``invalid`` while the same
   connection still answers the lines after it, every socket response
   to the trace is a served record, the daemon's
   counters account for every request, and each served record's
   deterministic part is **byte-identical** to the batch path's record
   for the same id once the ``_serve`` side channel is stripped — the
   daemon must only add queueing, never change an answer.

Exit code 0 on success, 1 on any violation.  Usage::

    PYTHONPATH=src python -m benchmarks.serve_smoke_check
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List

from repro.cli import main as cli_main
from repro.core.registry import DET_LUBY, DET_MATCHING, DET_RULING

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def requests() -> List[dict]:
    gnp = {"family": "gnp", "n": 96, "param": 8, "seed": 12}
    tree = {"family": "tree", "n": 80, "seed": 12}
    return [
        {"id": "r0", "tenant": "alpha", "graph": gnp,
         "algorithm": DET_RULING},
        {"id": "r1", "tenant": "bravo", "graph": gnp,
         "algorithm": DET_RULING},  # warm cache hit
        {"id": "r2", "tenant": "alpha", "graph": gnp,
         "algorithm": DET_LUBY},
        {"id": "r3", "tenant": "bravo", "graph": tree,
         "algorithm": DET_RULING, "beta": 3},
        {"id": "r4", "tenant": "alpha", "graph": tree,
         "algorithm": DET_MATCHING},
    ]


def strip_serve(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "_serve"}


def check(message: str, ok: bool) -> bool:
    print(("  OK  " if ok else "  FAIL") + f" {message}")
    return ok


def start_daemon(sock: Path, cache_dir: Path, trace: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", str(sock),
            "--cache-dir", str(cache_dir),
            "--trace-out", str(trace),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 30.0
    while not sock.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            _, err = proc.communicate(timeout=10)
            raise RuntimeError(f"daemon failed to start: {err}")
        time.sleep(0.05)
    return proc


def talk(sock: Path, lines: List[dict], replies: int) -> List[dict]:
    """Send JSON lines over the socket; read ``replies`` response lines."""
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.settimeout(120.0)
    client.connect(str(sock))
    try:
        with client.makefile("rw", encoding="utf-8") as wire:
            for line in lines:
                wire.write(json.dumps(line) + "\n")
            wire.flush()
            return [json.loads(wire.readline()) for _ in range(replies)]
    finally:
        client.close()


def main() -> int:
    trace_requests = requests()
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        base = Path(tmp)
        sock = base / "repro.sock"
        trace = base / "serve-trace.jsonl"
        proc = start_daemon(sock, base / "serve-cache", trace)

        ping = talk(sock, [{"op": "ping"}], 1)[0]
        served = talk(sock, trace_requests, len(trace_requests))
        stats = talk(sock, [{"op": "stats"}], 1)[0]
        # After the stats snapshot, so its counters cover the trace only.
        mistyped = dict(trace_requests[0], id="typo", beta="x")
        after_typo = talk(
            sock, [mistyped, trace_requests[0], {"op": "ping"}], 3
        )
        down = talk(sock, [{"op": "shutdown"}], 1)[0]
        code = proc.wait(timeout=60)
        out, err = proc.communicate(timeout=10)

        # The same trace through the batch CLI (tenants stripped).
        batch_requests = base / "requests.jsonl"
        batch_requests.write_text("\n".join(
            json.dumps({k: v for k, v in r.items() if k != "tenant"})
            for r in trace_requests
        ) + "\n")
        batch_out = base / "batch.jsonl"
        if cli_main([
            "batch",
            "--requests", str(batch_requests),
            "--cache-dir", str(base / "batch-cache"),
            "--out", str(batch_out),
        ]) != 0:
            print("batch run failed")
            return 1
        batch = {
            record["id"]: strip_serve(record)
            for record in map(
                json.loads, batch_out.read_text().splitlines()
            )
        }

        counters = stats["stats"]["counters"]
        ok = True
        ok &= check("daemon answers ping", ping.get("status") == "ok")
        ok &= check(
            f"every request served ok ({len(served)} responses)",
            len(served) == len(trace_requests)
            and all(r.get("status") == "ok" for r in served),
        )
        by_key = {r.get("id") or r.get("op"): r for r in after_typo}
        ok &= check(
            "mistyped field answered invalid; the connection lives on",
            by_key.get("typo", {}).get("status") == "invalid"
            and "field 'beta'" in by_key["typo"].get("error", "")
            and by_key.get(trace_requests[0]["id"], {}).get("status")
            == "ok"
            and by_key.get("ping", {}).get("status") == "ok",
        )
        ok &= check(
            "stats account for every request "
            f"(served={stats['stats']['served']}, refused="
            f"{stats['stats']['refused']})",
            stats["stats"]["served"] == len(trace_requests)
            and stats["stats"]["refused"] == 0,
        )
        unique = len({
            json.dumps(
                {k: v for k, v in r.items() if k not in ("id", "tenant")},
                sort_keys=True,
            )
            for r in trace_requests
        })
        ok &= check(
            f"duplicates hit the warm cache (executed="
            f"{counters['executed']}/{unique}, hits="
            f"{counters['cache_hit']})",
            counters["executed"] == unique
            and counters["cache_hit"] == len(trace_requests) - unique,
        )
        ok &= check(
            "served records bit-identical to repro-mpc batch "
            "(modulo _serve)",
            {r["id"]: strip_serve(r) for r in served} == batch,
        )
        ok &= check(
            "latency attribution recorded for every served request",
            stats["stats"]["latency"].get("count")
            == len(trace_requests),
        )
        ok &= check(
            "clean shutdown (exit 0, socket removed, trace written)",
            down.get("status") == "ok" and code == 0
            and not sock.exists() and trace.exists(),
        )
        if not ok:
            print(f"daemon stderr:\n{err}")
            return 1
    print("serve smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
