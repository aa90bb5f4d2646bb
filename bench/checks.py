"""The benchmark's own checks: determinism of counters and bypass predictions.

    python3 -m pytest bench/checks.py -q      # or: python3 bench/checks.py

Kept out of the default test run (the file name does not match test_*.py),
because it spawns about a minute of benchmark runs.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("ledger", "tables", "potential")


@functools.cache
def bench(workload: str, seed: int, trace: int, attempt: int = 0) -> dict:
    """Metrics of one short run; `attempt` tells repeated runs apart."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    return {name: m["value"] for name, m in result["metrics"].items()}


def calls(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items() if name.endswith(".calls")}


def test_traced_call_counts_repeat():
    for workload in WORKLOADS:
        assert calls(bench(workload, 7, 1)) == calls(bench(workload, 7, 1, attempt=1)), workload


def test_hyp2f1_only_on_potential():
    assert bench("ledger", 7, 1)["specfun.hyp2f1.calls"] == 0
    assert bench("tables", 7, 1)["specfun.hyp2f1.calls"] == 0
    assert bench("potential", 7, 1)["specfun.hyp2f1.calls"] > 0


def test_thread_pool_only_on_tables():
    assert bench("tables", 7, 1)["cli.threads_started"] > 0
    assert bench("ledger", 7, 1)["cli.threads_started"] == 0
    assert bench("potential", 7, 1)["cli.threads_started"] == 0


def test_ok_frac_independent_of_seed():
    for workload in WORKLOADS:
        assert bench(workload, 1, 0)["ok_frac"] == bench(workload, 2, 0)["ok_frac"], workload


if __name__ == "__main__":
    for name, check in list(globals().items()):
        if name.startswith("test_"):
            check()
            print(f"{name}: ok")
