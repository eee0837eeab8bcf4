#!/usr/bin/env python3
"""Self-check of the benchmark itself, at reduced sizes.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout. For every workload it runs
perfbench/run.py once untraced and once traced with --reduced and
--seconds 1, and asserts that the last output line is the result object
with every metric BENCHMARK.json names, in its unit, and nothing else.
It also asserts that the benchmark refuses, with a non-zero exit and no
result line, to run in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
RUN = ["python3", "perfbench/run.py"]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--reduced"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, expected: dict, label: str) -> None:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: outputs failed their checks\n{proc.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int), label
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{label}: metrics differ: {set(got) ^ set(expected)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (label, name)


def check_refuses_without_sources() -> None:
    bare = Path(tempfile.mkdtemp(prefix=".bench_selfcheck_", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("presets", 0, cwd=bare)
        assert proc.returncode != 0, "ran without the package sources"
        assert "attempted" not in proc.stdout, "printed a result without the sources"
    finally:
        shutil.rmtree(bare)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check_refuses_without_sources()
    print("refuses to run without sources: ok")
    for w in bench["workloads"]:
        for trace, expected in ((0, e2e), (1, layers)):
            check_result(run(w["name"], trace), expected, f"{w['name']} --trace {trace}")
            print(f"{w['name']} --trace {trace}: {len(expected)} metrics with units: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
