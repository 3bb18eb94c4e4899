"""The benchmark's own checks.  Run from the repository root with::

    python3 -m pytest perfbench -q

* the operation counts of the in-process workloads repeat exactly for a
  fixed seed: solve counts, cache hits and evictions, drains, repairs
  and re-plans;
* a second seed runs through the same command;
* outside a checkout (only ``BENCHMARK.json`` and ``perfbench/``) the
  command fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from common import Tracer  # noqa: E402
from inproc import COLD, ONLINE, make_trace, replay  # noqa: E402
from layers import instrument  # noqa: E402


def _counts(params: dict, online: bool, seed: int) -> dict:
    tracer = Tracer()
    with instrument(tracer):
        epoch = replay(make_trace(params, seed), tracer, online=online, limit=80)
    counts = dict(epoch.counts)
    for key in ("probes", "increments", "pushes", "relabels"):
        counts[key] = sum(sp.attrs[key] for sp in tracer.named("solve"))
    counts["makespans"] = [r.response_time_ms for r in epoch.records]
    return counts


@pytest.mark.parametrize(
    "params, online", [(COLD, False), (ONLINE, True)], ids=["cold", "online"]
)
def test_operation_counts_repeat_for_a_seed(params: dict, online: bool) -> None:
    first = _counts(params, online, seed=5)
    assert first["probes"] > 0
    if online:
        assert first["drains"] > 0 and first["replans"] > 0
    assert _counts(params, online, seed=5) == first


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_second_seed_runs_through_the_command() -> None:
    out = _run(
        ROOT, "--workload", "online-churn", "--seed", "2",
        "--seconds", "1", "--trace", "0",
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(result["metrics"]) == names


def test_refuses_to_run_outside_a_checkout(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(
        tmp_path, "--workload", "cold-solve", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert out.returncode != 0
    assert out.stdout == ""
