"""Smoke tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload runs at ``--size smoke`` (a few seconds) untraced and traced;
every metric declared in BENCHMARK.json must come out with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int, seed: int = 1) -> dict:
    proc = run_bench("--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace),
                     "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    return {"stdout": proc.stdout,
            "result": json.loads(proc.stdout.strip().splitlines()[-1])}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    out = smoke(workload, trace)
    result = out["result"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert f"{metric['name']} {emitted['value']} {metric['unit']}" in (
            out["stdout"]
        )
    env = json.loads(next(
        line[len("env "):] for line in out["stdout"].splitlines()
        if line.startswith("env ")
    ))
    assert env["kernel"] == "numpy" and env["nproc"] >= 1
    assert {"python", "numpy", "backend", "stripped_env"} <= set(env)


def test_end_to_end_metrics_are_never_zero():
    for workload in WORKLOADS:
        metrics = smoke(workload, 0)["result"]["metrics"]
        zero = [name for name, m in metrics.items() if m["value"] == 0]
        assert not zero, (workload, zero)


def test_serve_digest_repeats_across_processes():
    digests = {
        line
        for _ in range(2)
        for line in smoke("serve-mixed", 0)["stdout"].splitlines()
        if line.startswith("digest ")
    }
    assert len(digests) == 1


def test_environment_overrides_are_stripped(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "process")
    monkeypatch.setenv("REPRO_GOVERNED", "1")
    out = smoke("inmem-gnm8k", 0)
    env_line = next(line for line in out["stdout"].splitlines()
                    if line.startswith("env "))
    stripped = json.loads(env_line[len("env "):])["stripped_env"]
    assert {"REPRO_BACKEND", "REPRO_GOVERNED"} <= set(stripped)
    assert out["result"]["correct"] is True


def test_without_program_sources_exits_nonzero_silently(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


class _Layer:
    def outer(self, inner_layer):
        return inner_layer.inner() + 1

    def inner(self):
        return 1

    @classmethod
    def make(cls):
        return cls()


def test_tracer_self_time_and_restore():
    module = types.ModuleType("fake_layer")
    module.helper = lambda: 41
    originals = (vars(_Layer)["outer"], vars(_Layer)["inner"],
                 vars(_Layer)["make"], module.helper)
    tracer = Tracer()
    tracer.add(_Layer, "outer", "outer")
    tracer.add(_Layer, "inner", "inner")
    tracer.add(_Layer, "make", "make")
    tracer.add(module, "helper", "helper")
    with tracer.installed():
        layer = _Layer.make()
        assert layer.outer(layer) == 2
        assert module.helper() == 41
    assert (vars(_Layer)["outer"], vars(_Layer)["inner"],
            vars(_Layer)["make"], module.helper) == originals
    stats = tracer.stats
    assert {name: s.calls for name, s in stats.items()} == {
        "outer": 1, "inner": 1, "make": 1, "helper": 1,
    }
    assert stats["outer"].self_s == pytest.approx(
        stats["outer"].total_s - stats["inner"].total_s
    )
    assert tracer.self_total_s() == pytest.approx(
        stats["outer"].total_s + stats["make"].total_s
        + stats["helper"].total_s
    )


def test_tracer_restores_after_error():
    tracer = Tracer()
    tracer.add(_Layer, "inner", "inner")
    original = vars(_Layer)["inner"]
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert vars(_Layer)["inner"] is original


def test_tracer_skips_a_missing_target():
    tracer = Tracer()
    assert not tracer.add(_Layer, "renamed_away", "gone")
    with tracer.installed():
        assert _Layer().inner() == 1
    assert tracer.stats["gone"].calls == 0


def test_all_runs_every_workload():
    proc = run_bench("--workload", "all", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {
        f"{w}/{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]
    }
